#!/usr/bin/env python3
"""Self-test of the benchmark harness, run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at toy size, untraced and traced, on seed 0 and on
another seed, and checks that each passes its gates and reports exactly the
metrics BENCHMARK.json names. It then checks that the gates fire: a wrong
pinned optimum, a wrong pinned objective and a corrupted pinned solution
must each fail the run, and the benchmark must refuse to run in a directory
that holds no displib sources. Exit code 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run

WORK = os.path.join(run.HERE, ".work", "selftest")


def main() -> int:
    error = run.use_checkout_sources()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads as wl

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    wanted = {False: {m["name"] for m in bench["end_to_end"]},
              True: {m["name"] for m in bench["per_layer"]}}
    assert {w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS)
    pinned = wl.load_pinned()
    problems: list[str] = []

    def measure(name: str, seed: int = 0, trace: bool = False,
                pins: dict | None = None, tag: str = "") -> dict:
        return run.run_workload(name, seed, 0.0, trace, wl.TOY_WORKLOADS,
                                pinned=pins or pinned,
                                workdir=os.path.join(WORK, f"{name}-{seed}-{trace}{tag}"))

    for name in wl.TOY_WORKLOADS:
        for seed in (0, 5):
            for trace in (False, True):
                result = measure(name, seed, trace)["result"]
                label = f"{name} seed {seed} trace {int(trace)}"
                if not result["correct"] or result["failed"]:
                    problems.append(f"{label}: failed {result['failed']}")
                if set(result["metrics"]) != wanted[trace]:
                    problems.append(f"{label}: metrics {sorted(result['metrics'])}")

    def must_fail(label: str, name: str, pins: dict) -> None:
        result = measure(name, pins=pins, tag="-" + label.replace(" ", "-"))["result"]
        if result["correct"] or not result["failed"]:
            problems.append(f"{label} was not detected")

    wrong = copy.deepcopy(pinned)
    wrong["optimum"]["corridor-3x2-s1"] += 1
    must_fail("a wrong pinned optimum", "exact-small", wrong)

    wrong = copy.deepcopy(pinned)
    wrong["solutions"]["corridor-4x3-s7"]["objective"] += 1
    must_fail("a wrong pinned objective", "export-roundtrip", wrong)

    solution = pinned["solutions"]["corridor-4x3-s7"]
    doc = json.loads(wl.read_text(os.path.join(wl.HERE, "data", solution["file"])))
    doc["events"].pop()
    corrupted = os.path.join(WORK, "corrupted.solution.json")
    wl.write_json(corrupted, doc)
    wrong = copy.deepcopy(pinned)
    wrong["solutions"]["corridor-4x3-s7"]["file"] = corrupted
    must_fail("a corrupted pinned solution", "export-roundtrip", wrong)

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact-small", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran without displib sources")

    for problem in problems:
        print(f"FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
