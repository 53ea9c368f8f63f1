"""Command line front end.

Exit codes: 0 success (and feasible/solved outcomes), 1 negative verdicts on
well-formed input (solution fails verification, solver proves infeasibility
or finds nothing within budget, mapped events fail verification), 2 usage
and parse errors (unreadable files, malformed documents, invalid instance
structure, bad generator specs, incomplete or non-integral assignments),
3 unexpected internal failures, 130 interrupted (Ctrl-C) before the command
finished, with any solver helper process stopped and no solution written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import os
import sys
from typing import Iterator, TextIO

from . import fileformat, generate, milp, solve
from .core import (
    Instance,
    Solution,
    conflict_pairs,
    time_horizon,
    total_operations,
)
from .verify import Violation, verify

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_INTERRUPTED = 130


class _Fail(Exception):
    """Terminate the subcommand with a message and exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as e:
        raise _Fail(EXIT_USAGE, f"cannot read {path}: {e.strerror or e}") from e


def _one_stdin(*paths: str) -> None:
    """Reject a command whose inputs name stdin twice: the second read
    would get nothing, and the error would blame that input."""
    if paths.count("-") > 1:
        raise _Fail(EXIT_USAGE, "only one input can come from stdin (-)")


def _one_stdout(*paths: str) -> None:
    """Reject a command whose outputs name stdout twice: the documents
    would run together into one stream that neither reader can parse."""
    if paths.count("-") > 1:
        raise _Fail(EXIT_USAGE, "only one output can go to stdout (-)")


def _distinct_files(*paths: str | None) -> None:
    """Reject a command whose outputs resolve to one file: the later
    document would overwrite the earlier one."""
    seen: set[str] = set()
    for path in paths:
        if path is None or path == "-":
            continue
        resolved = os.path.realpath(path)
        if resolved in seen:
            raise _Fail(EXIT_USAGE, f"two outputs name the same file: {path}")
        seen.add(resolved)


@contextlib.contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """A text handle on path, or stdout for -."""
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as e:
        raise _Fail(EXIT_USAGE, f"cannot write {path}: {e.strerror or e}") from e


def _write_text(path: str, text: str) -> None:
    with _output(path) as handle:
        handle.write(text)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _write_solution(args: argparse.Namespace, solution: Solution,
                    payload: dict, note: str) -> int:
    """Write the solution to -o. With --json, print the payload plus the
    solution document instead, and still write -o unless it is stdout;
    without it, print the note to stderr."""
    if args.json:
        _emit_json(dict(payload,
                        solution=fileformat.solution_document(solution)))
        if args.output != "-":
            _write_text(args.output, fileformat.write_solution(solution))
    else:
        _write_text(args.output, fileformat.write_solution(solution))
        print(note, file=sys.stderr)
    return EXIT_OK


def _load_instance(path: str, strict: bool = False
                   ) -> tuple[Instance, fileformat.ParseDiagnostics]:
    try:
        return fileformat.parse_instance(_read_text(path), strict=strict)
    except fileformat.FormatError as e:
        raise _Fail(EXIT_USAGE, f"invalid instance ({e.kind}) {e}") from e


def _print_warnings(diags: fileformat.ParseDiagnostics) -> None:
    for path, message in diags.warnings:
        print(f"warning: {path}: {message}", file=sys.stderr)


def _resource_count(instance: Instance) -> int:
    return len({usage.resource
                for train in instance.trains
                for op in train.operations for usage in op.resources})


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        instance, diags = fileformat.parse_instance(_read_text(args.instance),
                                                    strict=args.strict)
    except fileformat.FormatError as e:
        if args.json:
            _emit_json({"valid": False,
                        "error": {"kind": e.kind, "path": e.path or "/",
                                  "reason": e.reason}})
        else:
            print(f"invalid ({e.kind}) {e}", file=sys.stderr)
        return EXIT_USAGE
    summary = {
        "valid": True,
        "trains": len(instance.trains),
        "operations": total_operations(instance),
        "resources": _resource_count(instance),
        "objective_components": len(instance.objective),
    }
    if args.json:
        summary["warnings"] = [{"path": p, "message": m}
                               for p, m in diags.warnings]
        _emit_json(summary)
    else:
        _print_warnings(diags)
        print(f"valid: {summary['trains']} trains, "
              f"{summary['operations']} operations, "
              f"{summary['resources']} resources, "
              f"{summary['objective_components']} objective components")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    instance, diags = _load_instance(args.instance)
    _print_warnings(diags)
    arcs = sum(len(op.successors)
               for train in instance.trains for op in train.operations)
    stats = {
        "trains": len(instance.trains),
        "operations": total_operations(instance),
        "arcs": arcs,
        "resources": _resource_count(instance),
        "conflict_pairs": len(conflict_pairs(instance)),
        "objective_components": len(instance.objective),
        "time_horizon": time_horizon(instance),
    }
    if args.json:
        _emit_json(stats)
    else:
        for key, value in stats.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _violation_doc(v: Violation) -> dict:
    doc = {"kind": v.kind, "detail": v.detail}
    for key in ("event", "train", "resource", "other_event", "claimed", "computed"):
        value = getattr(v, key)
        if value is not None:
            doc[key] = value
    return doc


def _cmd_verify(args: argparse.Namespace) -> int:
    _one_stdin(args.instance, args.solution)
    instance, inst_diags = _load_instance(args.instance, strict=args.strict)
    try:
        solution, sol_diags = fileformat.parse_solution(_read_text(args.solution),
                                                        strict=args.strict)
    except fileformat.FormatError as e:
        raise _Fail(EXIT_USAGE, f"invalid solution ({e.kind}) {e}") from e
    _print_warnings(inst_diags)
    _print_warnings(sol_diags)
    verdict = verify(instance, solution)
    if args.json:
        _emit_json({"feasible": verdict.feasible,
                    "objective": verdict.computed_objective,
                    "violations": [_violation_doc(v) for v in verdict.violations]})
    elif verdict.feasible:
        print(f"feasible, objective {verdict.computed_objective}")
    else:
        for v in verdict.violations:
            print(f"violation ({v.kind}): {v.detail}")
        print(f"infeasible: {len(verdict.violations)} violation(s)")
    return EXIT_OK if verdict.feasible else EXIT_NEGATIVE


def _cmd_solve(args: argparse.Namespace) -> int:
    for flag, value in (("--time-limit", args.time_limit),
                        ("--node-limit", args.node_limit),
                        ("--max-restarts", args.max_restarts)):
        if value is not None and not value >= 0:
            raise _Fail(EXIT_USAGE, f"{flag} must be non-negative")
    instance, diags = _load_instance(args.instance)
    _print_warnings(diags)
    mode = args.mode
    if mode == "auto":
        small = total_operations(instance) <= 60 and len(instance.trains) <= 6
        mode = "exact" if small else "heuristic"
    if mode == "exact":
        report = solve.solve_exact(instance,
                                   node_limit=args.node_limit,
                                   time_limit=args.time_limit)
    else:
        report = solve.solve_heuristic(instance,
                                       time_limit=args.time_limit,
                                       seed=args.seed,
                                       max_restarts=args.max_restarts)
    payload = {
        "status": report.status.value,
        "mode": mode,
        "nodes": report.nodes,
        "wall_time": round(report.wall_time, 3),
    }
    if report.bound is not None:
        payload["bound"] = report.bound
    if report.solution is None:
        if args.json:
            _emit_json(payload)
        else:
            print(f"{report.status.value}: no solution "
                  f"({report.nodes} nodes, {report.wall_time:.2f}s)",
                  file=sys.stderr)
        return EXIT_NEGATIVE
    payload["objective"] = report.solution.objective_value
    return _write_solution(args, report.solution, payload,
                           f"{report.status.value}: objective "
                           f"{report.solution.objective_value} ({mode}, "
                           f"{report.nodes} nodes, {report.wall_time:.2f}s)")


def _cmd_emit_lp(args: argparse.Namespace) -> int:
    _one_stdout(args.output, args.name_map)
    _distinct_files(args.output, args.name_map)
    instance, diags = _load_instance(args.instance)
    _print_warnings(diags)
    model = milp.build_model(instance)
    with _output(args.output) as handle:
        rows = milp.write_lp(model, handle)
    map_path = args.name_map
    if map_path is None and args.output != "-":
        map_path = args.output + ".names.json"
    if map_path is not None:
        with _output(map_path) as handle:
            milp.write_name_map(model, handle)
    print(f"model: {len(model.variables)} variables, {rows} rows, "
          f"horizon {model.horizon}", file=sys.stderr)
    return EXIT_OK


def _cmd_map_solution(args: argparse.Namespace) -> int:
    _one_stdin(args.instance, args.name_map, args.assignment)
    instance, diags = _load_instance(args.instance)
    _print_warnings(diags)
    try:
        recorded = milp.read_name_map(_read_text(args.name_map))
    except ValueError as e:
        raise _Fail(EXIT_USAGE, f"{args.name_map}: {e}") from e
    model = milp.build_model(instance)
    if recorded != {v.name for v in model.variables}:
        raise _Fail(EXIT_USAGE,
                    "name map does not match this instance (was it emitted "
                    "for a different file?)")
    try:
        assignment = milp.parse_assignment(_read_text(args.assignment))
    except ValueError as e:
        raise _Fail(EXIT_USAGE, f"bad assignment: {e}") from e
    try:
        solution = milp.map_solution(model, assignment, instance)
    except milp.MappingError as e:
        code = (EXIT_NEGATIVE if e.kind == milp.FAILED_VERIFICATION
                else EXIT_USAGE)
        if args.json:
            doc = {"mapped": False, "kind": e.kind, "reason": str(e)}
            if e.verdict is not None:
                doc["violations"] = [_violation_doc(v)
                                     for v in e.verdict.violations]
            _emit_json(doc)
        else:
            print(f"mapping failed ({e.kind}): {e}", file=sys.stderr)
        return code
    return _write_solution(args, solution,
                           {"mapped": True, "objective": solution.objective_value},
                           f"mapped: objective {solution.objective_value}")


# Service patterns by config type; each one's keys are its function's
# parameters after `line`.
_PATTERNS = {
    "join": generate.join_trains,
    "cancellation": generate.add_cancellation,
    "correspondence": generate.add_correspondence,
}

_LINE_FLAGS = ("num_stations", "tracks_per_station", "num_trains",
               "up_fraction", "headway", "cost_shape", "seed")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field_error(value, default) -> str | None:
    """What a config value must be, if it does not fit the field whose
    default is given; None if it fits."""
    if isinstance(default, tuple):
        if isinstance(value, list) and len(value) == 2 \
                and all(_is_int(v) for v in value):
            return None
        return "a pair of integers"
    if isinstance(default, float):
        if _is_int(value) or isinstance(value, float):
            return None
        return "a number"
    if isinstance(default, int):
        return None if _is_int(value) else "an integer"
    return None if isinstance(value, str) else "a string"


def _spec_from_config(cls, obj, where: str, offset: int, overrides=None):
    """The spec from a config object, with command-line overrides on top and
    the batch offset added to its seed."""
    if not isinstance(obj, dict):
        raise _Fail(EXIT_USAGE, f"config: {where} must be an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    values = {**obj, **(overrides or {})}
    for key, raw in values.items():
        if key not in defaults:
            raise _Fail(EXIT_USAGE, f"config: unknown key {key!r} in {where}")
        wanted = _field_error(raw, defaults[key])
        if wanted is not None:
            raise _Fail(EXIT_USAGE, f"config: {where}.{key} must be {wanted}, "
                                    f"got {json.dumps(raw)}")
        if isinstance(raw, list):
            values[key] = tuple(raw)
    values["seed"] = values.get("seed", 0) + offset
    return cls(**values)


def _apply_pattern(line: generate.GeneratedLine, raw: dict,
                   index: int) -> generate.GeneratedLine:
    where = f"patterns[{index}]"
    if not isinstance(raw, dict) or "type" not in raw:
        raise _Fail(EXIT_USAGE, f"config: {where} needs a \"type\" key")
    kind = raw["type"]
    if kind not in _PATTERNS:
        raise _Fail(EXIT_USAGE, f"config: {where}: unknown pattern type {kind!r}")
    apply = _PATTERNS[kind]
    wanted = [key for key in inspect.signature(apply).parameters if key != "line"]
    for key in raw:
        if key != "type" and key not in wanted:
            raise _Fail(EXIT_USAGE, f"config: {where}: unknown key {key!r}")
    missing = [key for key in wanted if key not in raw]
    if missing:
        raise _Fail(EXIT_USAGE, f"config: {where}: missing {', '.join(missing)}")
    values = [raw[key] for key in wanted]
    if not all(_is_int(v) for v in values):
        raise _Fail(EXIT_USAGE, f"config: {where}: all pattern fields are integers")
    return apply(line, *values)


def _generate_one(config: dict, args: argparse.Namespace,
                  offset: int) -> generate.GeneratedLine:
    flags = {flag: getattr(args, flag) for flag in _LINE_FLAGS
             if getattr(args, flag) is not None}
    spec = _spec_from_config(generate.LineSpec, config.get("line", {}), "line",
                             offset, flags)
    try:
        line = generate.generate_line(spec)
        for index, raw in enumerate(config.get("patterns", ())):
            line = _apply_pattern(line, raw, index)
        if "perturb" in config:
            pspec = _spec_from_config(generate.PerturbSpec, config["perturb"],
                                      "perturb", offset)
            line = generate.perturb(line, pspec)
    except (generate.SpecInfeasible, generate.PatternConflict) as e:
        raise _Fail(EXIT_USAGE, f"cannot generate: {e}") from e
    return line


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.config is not None:
        try:
            config = json.loads(_read_text(args.config))
        except json.JSONDecodeError as e:
            raise _Fail(EXIT_USAGE, f"config is not valid JSON: {e}") from e
        if not isinstance(config, dict):
            raise _Fail(EXIT_USAGE, "config must be a JSON object")
        for key in config:
            if key not in ("line", "perturb", "patterns"):
                raise _Fail(EXIT_USAGE, f"config: unknown key {key!r}")
        if not isinstance(config.get("patterns", []), list):
            raise _Fail(EXIT_USAGE, "config: patterns must be an array")
    else:
        config = {"line": {}}
    if args.count is not None and args.count < 0:
        raise _Fail(EXIT_USAGE, "--count must be non-negative")
    if args.out_dir is not None:
        count = 1 if args.count is None else args.count
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as e:
            raise _Fail(EXIT_USAGE, f"cannot create {args.out_dir}: {e}") from e
        for offset in range(count):
            line = _generate_one(config, args, offset)
            path = os.path.join(args.out_dir, f"instance_{offset:04d}.json")
            _write_text(path, fileformat.write_instance(line.instance))
            print(f"wrote {path}", file=sys.stderr)
        return EXIT_OK
    if args.count is not None and args.count != 1:
        raise _Fail(EXIT_USAGE, "--count needs --out-dir to name the files")
    line = _generate_one(config, args, 0)
    _write_text(args.output, fileformat.write_instance(line.instance))
    print(f"generated: {len(line.instance.trains)} trains, "
          f"{total_operations(line.instance)} operations, "
          f"{len(line.instance.objective)} objective components",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON on stdout")


def _add_output_flag(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("-o", "--out", "--output", dest="output", default="-",
                        metavar="PATH", help=f"{what} (default: stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args keeps no
    state between calls, and each call starts from the defaults."""
    parser = argparse.ArgumentParser(
        prog="displib",
        description="Toolkit for the train dispatching problem: validate and "
                    "generate instances, verify and search for solutions, "
                    "emit solver-ready LP files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("--strict", action="store_true",
                   help="reject unknown keys instead of warning")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="print instance size figures")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify", help="check a solution against an instance")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("solution", help="solution JSON file, or - for stdin")
    p.add_argument("--strict", action="store_true",
                   help="reject unknown keys instead of warning")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="search for a good solution")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    _add_output_flag(p, "solution file")
    p.add_argument("--mode", choices=("auto", "exact", "heuristic"),
                   default="auto",
                   help="auto picks exact for small instances (default)")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.add_argument("--node-limit", type=int, default=None, metavar="N",
                   help="exact search node budget")
    p.add_argument("--seed", type=int, default=0, help="heuristic seed")
    p.add_argument("--max-restarts", type=int, default=None, metavar="N",
                   help="heuristic restart budget")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("emit-lp", help="write the model as an LP file")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    _add_output_flag(p, "LP file")
    p.add_argument("--name-map", default=None, metavar="PATH",
                   help="variable name map JSON (default: OUT.names.json "
                        "when writing to a file)")
    p.set_defaults(func=_cmd_emit_lp)

    p = sub.add_parser("map-solution",
                       help="turn a solver variable assignment into a solution")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("name_map", help="name map JSON written by emit-lp")
    p.add_argument("assignment", help="'name value' lines, or - for stdin")
    _add_output_flag(p, "solution file")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_map_solution)

    p = sub.add_parser("generate", help="generate synthetic instances")
    p.add_argument("config", nargs="?", default=None,
                   help="generator config JSON, or - for stdin "
                        "(optional if flags are given)")
    _add_output_flag(p, "instance file")
    p.add_argument("--out-dir", default=None, metavar="DIR",
                   help="write numbered instance files here instead")
    p.add_argument("--count", type=int, default=None, metavar="N",
                   help="number of instances for --out-dir (seeds offset "
                        "by 0..N-1)")
    p.add_argument("--num-stations", type=int, default=None, dest="num_stations")
    p.add_argument("--tracks-per-station", type=int, default=None,
                   dest="tracks_per_station")
    p.add_argument("--num-trains", type=int, default=None, dest="num_trains")
    p.add_argument("--up-fraction", type=float, default=None, dest="up_fraction")
    p.add_argument("--headway", type=int, default=None)
    p.add_argument("--cost-shape", choices=generate.COST_SHAPES, default=None,
                   dest="cost_shape")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _Fail as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as e:                       # pragma: no cover - guard rail
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":                       # pragma: no cover
    sys.exit(main())
