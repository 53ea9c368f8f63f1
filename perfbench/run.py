#!/usr/bin/env python3
"""Benchmark of the displib toolkit, run from the root of a checkout:

    python3 perfbench/run.py --workload heuristic-ladder --seed 0 --seconds 30 --trace 0

It imports displib from ``src/`` of the checkout and drives
``displib.cli.main`` in this one process, with one caller and no extra
threads. Set-up (generating and pinning the inputs) runs a few times and
reports its median. Then passes over the workload's inputs repeat for
``--seconds``. Times are scaled to the reference machine's speed, which a
reference chunk measures before every CLI call. With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics instead. Files go to ``perfbench/.work/`` in the
checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up repeats at least SETUP_REPS times and until SETUP_SECONDS have
# passed (at most SETUP_MAX_REPS), so that cheap set-ups get a steady median.
SETUP_REPS, SETUP_SECONDS, SETUP_MAX_REPS = 3, 2.0, 100


def environment() -> dict:
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def use_checkout_sources() -> str | None:
    """Import displib from src/ of this checkout, without DISPLIB_THREADS;
    an error message when that is not possible."""
    if not os.path.isfile(os.path.join(SRC, "displib", "cli.py")):
        return (f"no displib sources in {SRC}; run from the root of a "
                "checkout of the repository")
    sys.path.insert(0, SRC)
    os.environ.pop("DISPLIB_THREADS", None)
    import displib
    if not os.path.abspath(displib.__file__).startswith(SRC + os.sep):
        return f"displib was imported from {displib.__file__}, not from {SRC}"
    return None


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def pass_seconds(calls: list[list[float]]) -> float:
    """Wall time of one pass: the sum over its CLI calls of each call's
    median across passes (the median pass if passes differ in calls)."""
    if len({len(c) for c in calls}) != 1:
        return statistics.median(sum(c) for c in calls)
    return sum(statistics.median(column) for column in zip(*calls))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workloads: dict, pinned: dict | None = None,
                 workdir: str | None = None) -> dict:
    """Set up and measure one workload; the result document."""
    import workloads as wl

    workload = workloads[name]
    pinned = pinned if pinned is not None else wl.load_pinned()
    workdir = workdir or os.path.join(HERE, ".work", f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)

    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPS or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        inputs = wl.Inputs(workdir, seed, pinned)
        files = workload.setup(inputs)
        setup_times.append(time.perf_counter() - t0)

    failures = [f"input {key} differs from its pinned digest"
                for key in inputs.mismatches]
    tracer = tracing.Tracer()
    calls: dict[bool, list[list[float]]] = {False: [], True: []}
    rounds, layers, reference = [], [], []
    ops = 0
    first = None
    start = time.perf_counter()
    # Rounds (a pass, or an untraced and a traced pass) repeat while the
    # next one is expected to end within `seconds`; there are at least two.
    while len(rounds) < 2 or (time.perf_counter() - start
                              + statistics.median(rounds) <= seconds):
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            p = wl.Pass(inputs)
            mark = len(tracer.spans)
            if traced:
                with tracer.installed():
                    workload.run(p, files)
                wl.replay(p, tracer)
                layers.append(tracing.layer_metrics(tracer.spans[mark:]))
            else:
                workload.run(p, files)
            calls[traced].append(p.call_seconds)
            reference.extend(p.reference_seconds)
            ops += len(p.call_seconds)
            failures.extend(p.failures)
            outcome = (p.objectives, p.gap, p.closed, p.outputs)
            if first is None:
                first = p
            elif outcome != (first.objectives, first.gap, first.closed, first.outputs):
                failures.append("a pass gave other results than the first pass")
        rounds.append(time.perf_counter() - round_start)

    slowdown = wl.slowdown(reference)
    wall = pass_seconds(calls[False]) / slowdown
    if trace:
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        per_layer = tracing.median_metrics(layers)
        per_layer["trace.overhead_s"] = pass_seconds(calls[True]) / slowdown - wall
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "objective_gm": {"value": first.objective_gm(), "unit": "cost"},
            "exact_gap": {"value": first.gap, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_times) / slowdown, "unit": "s"},
        }
    expected_outputs = pinned.get("outputs", {})
    doc = {
        "workload": name, "seed": seed, "trace": trace,
        "environment": environment(),
        "pass_seconds": [sum(c) for c in calls[False]],
        "traced_pass_seconds": [sum(c) for c in calls[True]],
        "setup_times": setup_times,
        "slowdown": slowdown,
        "closed": first.closed, "objectives": first.objectives,
        "changed_outputs": sorted(k for k, v in first.outputs.items()
                                  if expected_outputs.get(k) != v),
        "failures": failures,
        "result": {"correct": not failures, "attempted": ops,
                   "failed": len(failures), "metrics": metrics},
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = use_checkout_sources()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(wl.WORKLOADS)}")
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       wl.WORKLOADS)

    env = doc["environment"]
    print(f"environment: git {env['git_sha'][:12]}, Python {env['python']}, "
          f"nproc {env['nproc']}, load {env['loadavg']}")
    print(f"set-up: {quartiles(doc['setup_times'])}")
    print(f"CLI seconds per pass: {quartiles(doc['pass_seconds'])}; "
          f"machine slowdown {doc['slowdown']:.3f}")
    if doc["traced_pass_seconds"]:
        print(f"traced: {quartiles(doc['traced_pass_seconds'])}")
    print(f"objectives {doc['objectives']}, closed {doc['closed']}")
    if doc["changed_outputs"]:
        print("solutions that differ from the pinned seed-0 outputs: "
              + ", ".join(doc["changed_outputs"]))
    for failure in doc["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
