"""Workloads of the displib benchmark: their inputs, passes and gates.

Every workload drives ``displib.cli.main`` in process, closed loop: one
caller, and the next CLI call starts only after the previous one returned.
A pass runs every CLI call of the workload once and checks each result;
every CLI call counts as one operation, and every unexpected exit code or
failed gate counts as one failure.

Inputs come from the corridor generator (``displib generate``) with fixed
generator seeds, so their content is pinned by SHA-256 digests in
``data/pinned.json``. The benchmark seed then rewrites the pinned corridors
into an equivalent instance: every time origin moves by a seeded shift and
every resource gets a seeded prefix. Each seed thus parses, writes and
verifies different bytes while the search problem, its optimum and the
work of the search stay the same; seed 0 keeps the corridors unchanged.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from displib import cli, fileformat, milp, solve

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "data", "pinned.json")


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def content_digest(doc: dict) -> str:
    """SHA-256 of a JSON document's content, independent of its layout."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, indent=2) + "\n")


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Seeded, equivalence-preserving rewrite of pinned inputs


def variant(seed: int) -> tuple[int, str]:
    """(time shift, resource prefix) that the benchmark seed applies."""
    if seed == 0:
        return 0, ""
    rng = random.Random(seed)
    return rng.randrange(1, 86_400), f"r{seed}."


def shift_instance(doc: dict, shift: int, prefix: str) -> dict:
    """The same instance with every time origin moved by ``shift`` and every
    resource renamed with ``prefix``. Entry operations always get the
    shifted lower bound; a zero lower bound elsewhere is implied by the
    entry and stays implicit."""
    trains = []
    for ops in doc["trains"]:
        new_ops = []
        for k, op in enumerate(ops):
            op = dict(op)
            if k == 0 or op.get("start_lb", 0):
                op["start_lb"] = op.get("start_lb", 0) + shift
            if "start_ub" in op:
                op["start_ub"] += shift
            if "resources" in op:
                op["resources"] = [dict(u, resource=prefix + u["resource"])
                                   for u in op["resources"]]
            new_ops.append(op)
        trains.append(new_ops)
    objective = [dict(c, threshold=c.get("threshold", 0) + shift)
                 for c in doc["objective"]]
    return {"trains": trains, "objective": objective}


def shift_solution(doc: dict, shift: int) -> dict:
    return {"objective_value": doc["objective_value"],
            "events": [dict(e, time=e["time"] + shift) for e in doc["events"]]}


# ---------------------------------------------------------------------------
# Inputs


@dataclass(frozen=True)
class Corridor:
    """A generated line: stations x trains, with its generator seed."""
    stations: int
    trains: int
    seed: int

    @property
    def name(self) -> str:
        return f"corridor-{self.stations}x{self.trains}-s{self.seed}"


class Inputs:
    """Instance files of one benchmark seed, written under a work directory.

    Building them is the benchmark's set-up: it runs ``displib generate``
    for every corridor, checks the generated content against its pinned
    digest, and writes the seeded rewrite."""

    def __init__(self, workdir: str, seed: int, pinned: dict):
        self.workdir = workdir
        self.shift, self.prefix = variant(seed)
        self.pinned = pinned
        self.digests: dict[str, str] = {}
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def instance(self, corridor: Corridor) -> str:
        raw = self.path(corridor.name + ".generated.json")
        code = _quiet_main(["generate", "--num-stations", str(corridor.stations),
                            "--num-trains", str(corridor.trains),
                            "--seed", str(corridor.seed), "-o", raw])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"displib generate failed for {corridor.name}")
        doc = json.loads(read_text(raw))
        self.check_digest(corridor.name, content_digest(doc))
        path = self.path(corridor.name + ".json")
        write_json(path, shift_instance(doc, self.shift, self.prefix))
        return path

    def check_digest(self, key: str, digest: str) -> None:
        self.digests[key] = digest

    @property
    def mismatches(self) -> list[str]:
        return [key for key, digest in self.digests.items()
                if self.pinned["inputs"].get(key) != digest]


def _quiet_main(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# One pass


# Median seconds of reference_chunk on the reference machine (2 cores,
# CPython 3.11.7) when the benchmark was defined.
REFERENCE_SECONDS = 0.05
# How strongly the toolkit's times follow the chunk's: on the reference
# machine, runs whose chunk slowed by a factor f ran their passes about
# sqrt(f) slower (two sets of ten runs per workload).
SPEED_ELASTICITY = 0.5


def slowdown(reference_seconds: list[float]) -> float:
    """Factor by which the machine ran the toolkit slower than the
    reference machine, judged from the chunks timed during a run."""
    ratio = statistics.median(reference_seconds) / REFERENCE_SECONDS
    return ratio ** SPEED_ELASTICITY


def reference_chunk() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no
    displib code: dict, tuple, str and sort traffic like the toolkit's.
    It runs before every CLI call, so its median over a run measures the
    speed the machine had while the run's calls ran."""
    collecting = gc.isenabled()
    gc.disable()    # the toolkit's heap must not set the chunk's cost
    start = time.perf_counter()
    table: dict[int, int] = {}
    digits = 0
    for i in range(150_000):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
        digits += len(str(key))
    sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0] + digits))
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


class Pass:
    """Counters, results and gate failures of one pass over the inputs."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.call_seconds: list[float] = []
        self.reference_seconds: list[float] = []
        self.failures: list[str] = []
        self.objectives: list[int] = []
        self.gap = 1.0      # (Z - bound) / Z of the last solve; no bound, no solve: 1
        self.closed = 0
        self.verified: list[tuple[str, str]] = []
        self.outputs: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def call(self, argv: list[str], expect: int = cli.EXIT_OK) -> str | None:
        """Run one CLI call, after a reference chunk; its stdout, or None
        after an unexpected exit."""
        self.reference_seconds.append(reference_chunk())
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            self.call_seconds.append(time.perf_counter() - start)
        if code != expect:
            self.fail(f"displib {' '.join(argv)}: exit {code}, expected "
                      f"{expect}: {err.getvalue().strip()[-300:]}")
            return None
        return out.getvalue()

    def call_json(self, argv: list[str], expect: int = cli.EXIT_OK) -> dict | None:
        text = self.call(argv + ["--json"], expect)
        return None if text is None else json.loads(text)

    def verify(self, instance: str, solution: str, z: int) -> bool:
        """Gate: ``displib verify`` accepts the file with objective z."""
        doc = self.call_json(["verify", instance, solution])
        if doc is None:
            return False
        if not doc["feasible"] or doc["objective"] != z:
            self.fail(f"verify {solution}: feasible={doc['feasible']} "
                      f"objective={doc['objective']}, expected {z}")
            return False
        self.verified.append((instance, solution))
        return True

    def record_output(self, key: str, solution: str) -> None:
        """Digest of a written solution with the seed's shift undone, so it
        compares against the pinned seed-0 output on every seed."""
        doc = json.loads(read_text(solution))
        self.outputs[key] = content_digest(shift_solution(doc, -self.inputs.shift))

    def solve(self, instance: str, out: str, flags: list[str]) -> dict | None:
        payload = self.call_json(["solve", instance, "-o", out] + flags)
        if payload is not None and "objective" not in payload:
            self.fail(f"solve {instance}: {payload['status']} without a solution")
            return None
        return payload

    def objective_gm(self) -> float:
        """Geometric mean of the verified Z; 0 when there is none to take."""
        if not self.objectives or min(self.objectives) <= 0:
            return 0.0
        return statistics.geometric_mean(self.objectives)


def replay(p: Pass, tracer) -> None:
    """Replay each verified solution's order with ``solve.earliest_times``
    under a span; earliest times exist and never exceed the solution's."""
    for inst_path, sol_path in p.verified:
        instance, _ = fileformat.parse_instance(read_text(inst_path))
        solution, _ = fileformat.parse_solution(read_text(sol_path))
        routes: list[list[int]] = [[] for _ in instance.trains]
        for e in solution.events:
            routes[e.train].append(e.operation)
        order = [(e.train, e.operation) for e in solution.events]
        with tracer.span("solve.earliest_times", events=len(order)):
            times = solve.earliest_times(instance, routes, order)
        if times is None or any(t > e.time for t, e in zip(times, solution.events)):
            p.fail(f"earliest_times disagrees with verified {sol_path}")


# ---------------------------------------------------------------------------
# Workloads


class HeuristicLadder:
    """Heuristic solve at a fixed restart budget, then verify, per corridor."""

    def __init__(self, corridors: tuple[Corridor, ...], restarts: int = 16):
        self.corridors = corridors
        self.restarts = restarts

    def setup(self, inputs: Inputs) -> list[str]:
        return [inputs.instance(c) for c in self.corridors]

    def run(self, p: Pass, paths: list[str]) -> None:
        for corridor, inst in zip(self.corridors, paths):
            out = p.inputs.path(corridor.name + ".heuristic.json")
            payload = p.solve(inst, out, ["--mode", "heuristic",
                                          "--max-restarts", str(self.restarts),
                                          "--seed", "0"])
            if payload is None:
                continue
            if payload["status"] != "Feasible":
                p.fail(f"heuristic {corridor.name}: status {payload['status']}")
            z = payload["objective"]
            if p.verify(inst, out, z):
                p.objectives.append(z)
                p.record_output(f"heuristic:{corridor.name}:{self.restarts}", out)
                p.gap = 1.0 if payload.get("bound") is None \
                    else (z - payload["bound"]) / z


class ExactSmall:
    """Exact search under a node cap, then verify, per corridor. A case
    marked to close must end Optimal at its pinned optimum; the others may
    stop at the cap."""

    def __init__(self, cases: tuple[tuple[Corridor, int, bool], ...]):
        self.cases = cases

    def setup(self, inputs: Inputs) -> list[str]:
        return [inputs.instance(c) for c, _, _ in self.cases]

    def run(self, p: Pass, paths: list[str]) -> None:
        optimum = p.inputs.pinned["optimum"]
        for (corridor, cap, closes), inst in zip(self.cases, paths):
            out = p.inputs.path(corridor.name + ".exact.json")
            payload = p.solve(inst, out, ["--mode", "exact",
                                          "--node-limit", str(cap)])
            if payload is None:
                continue
            z, bound, status = payload["objective"], payload.get("bound"), payload["status"]
            if status == "Optimal":
                p.closed += 1
                if bound != z:
                    p.fail(f"exact {corridor.name}: Optimal with bound {bound} != {z}")
            expected = optimum.get(corridor.name)
            if closes and (status != "Optimal" or z != expected):
                p.fail(f"exact {corridor.name}: {status} Z={z}, expected "
                       f"Optimal Z={expected}")
            if status not in ("Optimal", "Feasible"):
                p.fail(f"exact {corridor.name}: {status} (cap {cap} nodes)")
            if p.verify(inst, out, z):
                p.objectives.append(z)
                p.record_output(f"exact:{corridor.name}:{cap}", out)
                p.gap = (z - (bound or 0)) / z


class ExportRoundtrip:
    """LP export of one corridor, verification of a pinned solution and of a
    corrupted copy, and the MILP round trip of the pinned solution's
    witness assignment through ``map-solution``."""

    def __init__(self, corridor: Corridor):
        self.corridor = corridor

    def setup(self, inputs: Inputs) -> dict:
        inst = inputs.instance(self.corridor)
        pinned = inputs.pinned["solutions"][self.corridor.name]
        doc = json.loads(read_text(os.path.join(HERE, "data", pinned["file"])))
        inputs.check_digest("solution:" + self.corridor.name, content_digest(doc))
        doc = shift_solution(doc, inputs.shift)
        good = inputs.path(self.corridor.name + ".pinned.json")
        write_json(good, doc)
        bad = inputs.path(self.corridor.name + ".corrupted.json")
        write_json(bad, dict(doc, objective_value=doc["objective_value"] + 1))
        # The witness assignment an external MILP solver would return.
        instance, _ = fileformat.parse_instance(read_text(inst))
        solution, _ = fileformat.parse_solution(read_text(good))
        model = milp.build_model(instance)
        values = milp.solution_assignment(model, instance, solution)
        assignment = inputs.path(self.corridor.name + ".assignment.txt")
        with open(assignment, "w", encoding="utf-8") as handle:
            handle.writelines(f"{name} {value:.17g}\n" for name, value in values.items())
        return {"instance": inst, "good": good, "bad": bad,
                "assignment": assignment, "z": pinned["objective"]}

    def run(self, p: Pass, files: dict) -> None:
        inst, z = files["instance"], files["z"]
        lp = p.inputs.path(self.corridor.name + ".lp")
        p.call(["emit-lp", inst, "-o", lp])
        if p.verify(inst, files["good"], z):
            p.objectives.append(z)
        doc = p.call_json(["verify", inst, files["bad"]], expect=cli.EXIT_NEGATIVE)
        if doc is not None and (doc["feasible"] or not doc["violations"]):
            p.fail("the corrupted solution was not rejected")
        mapped = p.inputs.path(self.corridor.name + ".mapped.json")
        doc = p.call_json(["map-solution", inst, lp + ".names.json",
                          files["assignment"], "-o", mapped])
        if doc is not None:
            if doc["objective"] != z:
                p.fail(f"map-solution objective {doc['objective']}, expected {z}")
            p.verify(inst, mapped, z)


WORKLOADS = {
    "heuristic-ladder": HeuristicLadder((Corridor(10, 8, 7), Corridor(20, 14, 7),
                                         Corridor(30, 20, 7))),
    "exact-small": ExactSmall(((Corridor(3, 3, 0), 1_000_000, True),
                               (Corridor(4, 3, 0), 1_000_000, True),
                               (Corridor(5, 4, 42), 100_000, False))),
    "export-roundtrip": ExportRoundtrip(Corridor(30, 20, 7)),
}

# Toy sizes of the same workloads, for the harness self-test.
TOY_WORKLOADS = {
    "heuristic-ladder": HeuristicLadder((Corridor(3, 2, 1), Corridor(4, 3, 7)),
                                        restarts=4),
    "exact-small": ExactSmall(((Corridor(3, 2, 1), 100_000, True),
                               (Corridor(3, 3, 0), 2_000, False))),
    "export-roundtrip": ExportRoundtrip(Corridor(4, 3, 7)),
}
