"""Spans around the calls into each displib layer, recorded from outside.

``Tracer.installed()`` replaces the public functions that ``displib.cli``
calls with wrappers that record a span (name, start, end, parent) and a few
counts taken from the call's arguments and result. Nothing under ``src/``
changes. Spans stay in memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _text_bytes(a, k, r):
    return {"bytes": len(_arg(a, k, 0, "text"))}


def _verdict(a, k, r):
    return {"events": len(_arg(a, k, 1, "solution").events),
            "violations": len(r.violations)}


# (module, attribute, span name, counts from (args, kwargs, result))
TARGETS = (
    ("displib.cli", "main", "cli", None),
    ("displib.fileformat", "parse_instance", "fileformat.parse_instance", _text_bytes),
    ("displib.fileformat", "parse_solution", "fileformat.parse_solution", _text_bytes),
    ("displib.fileformat", "write_solution", "fileformat.write_solution",
     lambda a, k, r: {"bytes": len(r)}),
    ("displib.cli", "verify", "verify.verify", _verdict),
    ("displib.milp", "_verify_solution", "verify.verify", _verdict),
    ("displib.cli", "conflict_pairs", "core.conflict_pairs",
     lambda a, k, r: {"pairs": len(r)}),
    ("displib.milp", "conflict_pairs", "core.conflict_pairs",
     lambda a, k, r: {"pairs": len(r)}),
    ("displib.solve", "solve_heuristic", "solve.heuristic",
     lambda a, k, r: {"nodes": r.nodes}),
    ("displib.solve", "solve_exact", "solve.exact",
     lambda a, k, r: {"nodes": r.nodes, "closed": int(r.status.value == "Optimal")}),
    ("displib.milp", "build_model", "milp.build_model",
     lambda a, k, r: {"rows": len(r.rows), "variables": len(r.variables)}),
    ("displib.milp", "emit_lp", "milp.emit_lp", lambda a, k, r: {"bytes": len(r)}),
    ("displib.milp", "name_map", "milp.name_map", None),
    ("displib.milp", "parse_assignment", "milp.parse_assignment", _text_bytes),
    ("displib.milp", "map_solution", "milp.map_solution", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded caller."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (children of one single-threaded caller never overlap)."""
    own = [s["end"] - s["start"] for s in spans]
    position = {s["id"]: k for k, s in enumerate(spans)}
    for s in spans:
        if s["parent"] in position:
            own[position[s["parent"]]] -= s["end"] - s["start"]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


MIB = 1024 * 1024


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_mb_per_s"):
        return "MiB/s"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one pass: inclusive seconds per span name, the
    counts recorded at the boundaries (summed; model sizes are the largest
    model built), and rates built from both."""
    seconds: dict[str, float] = {}
    totals: dict[tuple[str, str], int] = {}
    largest: dict[tuple[str, str], int] = {}
    for s in spans:
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + s["end"] - s["start"]
        for key, value in s["counts"].items():
            totals[(s["name"], key)] = totals.get((s["name"], key), 0) + value
            largest[(s["name"], key)] = max(largest.get((s["name"], key), 0), value)
    sec = lambda name: seconds.get(name, 0.0)                    # noqa: E731
    count = lambda name, key: totals.get((name, key), 0)         # noqa: E731
    own = self_times(spans)
    return {
        "cli.self_s": sum(t for s, t in zip(spans, own) if s["name"] == "cli"),
        "fileformat.parse_instance_s": sec("fileformat.parse_instance"),
        "fileformat.parse_mb_per_s": _ratio(
            count("fileformat.parse_instance", "bytes") / MIB,
            sec("fileformat.parse_instance")),
        "fileformat.parse_solution_s": sec("fileformat.parse_solution"),
        "fileformat.write_solution_s": sec("fileformat.write_solution"),
        "verify.verify_s": sec("verify.verify"),
        "verify.events_per_s": _ratio(count("verify.verify", "events"),
                                      sec("verify.verify")),
        "verify.violations": count("verify.verify", "violations"),
        "core.conflict_pairs_s": sec("core.conflict_pairs"),
        "core.conflict_pairs": count("core.conflict_pairs", "pairs"),
        "solve.heuristic_s": sec("solve.heuristic"),
        "solve.heuristic_applies": count("solve.heuristic", "nodes"),
        "solve.applies_per_s": _ratio(count("solve.heuristic", "nodes"),
                                      sec("solve.heuristic")),
        "solve.exact_s": sec("solve.exact"),
        "solve.exact_nodes": count("solve.exact", "nodes"),
        "solve.nodes_per_s": _ratio(count("solve.exact", "nodes"),
                                    sec("solve.exact")),
        "solve.closed": count("solve.exact", "closed"),
        "solve.dispatch_events_per_s": _ratio(
            count("solve.earliest_times", "events"), sec("solve.earliest_times")),
        "milp.build_model_s": sec("milp.build_model"),
        "milp.emit_lp_s": sec("milp.emit_lp"),
        "milp.emit_mb_per_s": _ratio(count("milp.emit_lp", "bytes") / MIB,
                                     sec("milp.emit_lp")),
        "milp.name_map_s": sec("milp.name_map"),
        "milp.parse_assignment_s": sec("milp.parse_assignment"),
        "milp.map_solution_s": sec("milp.map_solution"),
        "milp.rows": largest.get(("milp.build_model", "rows"), 0),
        "milp.variables": largest.get(("milp.build_model", "variables"), 0),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]}
