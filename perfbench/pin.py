#!/usr/bin/env python3
"""Write data/pinned.json and the pinned export solutions from the code of
this checkout. Run it from the root of a checkout, only to re-baseline the
benchmark on purpose:

    python3 perfbench/pin.py

It records the content digest of every generated corridor, the optimum of
every exact case that must close, a heuristic solution (16 restarts, seed 0)
for every export corridor, and the digests of the solutions each workload
writes at benchmark seed 0. The benchmark only reads these files.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from displib import fileformat, solve  # noqa: E402


def main() -> int:
    pinned: dict = {"inputs": {}, "optimum": {}, "solutions": {}, "outputs": {}}
    inputs = wl.Inputs(os.path.join(HERE, ".work", "pin"), 0, pinned)
    table = list(wl.WORKLOADS.values()) + list(wl.TOY_WORKLOADS.values())
    for workload in table:
        if isinstance(workload, wl.ExportRoundtrip):
            corridor = workload.corridor
            instance, _ = fileformat.parse_instance(wl.read_text(inputs.instance(corridor)))
            solution = solve.solve_heuristic(instance, max_restarts=16, seed=0).solution
            name = corridor.name + ".solution.json"
            with open(os.path.join(HERE, "data", name), "w", encoding="utf-8") as handle:
                handle.write(fileformat.write_solution(solution))
            pinned["solutions"][corridor.name] = {
                "file": name, "objective": solution.objective_value}
        if isinstance(workload, wl.ExactSmall):
            for corridor, cap, closes in workload.cases:
                if closes:
                    instance, _ = fileformat.parse_instance(
                        wl.read_text(inputs.instance(corridor)))
                    report = solve.solve_exact(instance, node_limit=cap)
                    if report.status is not solve.SolveStatus.OPTIMAL:
                        raise SystemExit(f"{corridor.name} does not close")
                    pinned["optimum"][corridor.name] = report.solution.objective_value
    for workload in table:
        p = wl.Pass(inputs)
        workload.run(p, workload.setup(inputs))
        if p.failures:
            raise SystemExit("\n".join(p.failures))
        pinned["outputs"].update(p.outputs)
    pinned["inputs"] = dict(sorted(inputs.digests.items()))
    wl.write_json(wl.PINNED_PATH, pinned)
    print(f"wrote {wl.PINNED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
