"""JSON reading and writing for instances and solutions.

Parsing applies the documented defaults (start_lb 0, unbounded start_ub,
empty resources, release_time 0, threshold/coeff/increment 0), insists on
non-negative integers everywhere, and reports problems with JSON-pointer
paths. Unknown keys are collected as warnings so newer files still load;
strict mode turns them into errors. Writing produces canonical text: fixed
key order, defaulted keys omitted, byte-identical for equal inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .core import (
    MAX_VALUE,
    Event,
    Instance,
    InstanceError,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    Solution,
    build_instance,
)

# Error kinds.
MALFORMED_DOCUMENT = "MalformedDocument"
MISSING_KEY = "MissingKey"
NON_INTEGER_NUMBER = "NonIntegerNumber"
NEGATIVE_NUMBER = "NegativeNumber"
NUMBER_TOO_LARGE = "NumberTooLarge"
UNKNOWN_OBJECTIVE_TYPE = "UnknownObjectiveType"
UNKNOWN_KEY = "UnknownKey"

OBJECTIVE_TYPE = "op_delay"


class FormatError(ValueError):
    """A document that cannot be turned into a valid instance/solution."""

    def __init__(self, kind: str, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.kind = kind
        self.path = path
        self.reason = message


@dataclass
class ParseDiagnostics:
    """Non-fatal findings from a parse: (json-pointer path, message)."""
    warnings: list[tuple[str, str]] = field(default_factory=list)

    def warn(self, path: str, message: str) -> None:
        self.warnings.append((path, message))


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise FormatError(MISSING_KEY, path, f"missing required key {key!r}")
    return obj[key]


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(MALFORMED_DOCUMENT, path, "expected an object")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise FormatError(MALFORMED_DOCUMENT, path, "expected an array")
    return value


def _as_int(value: Any, path: str) -> int:
    # bool is a subclass of int; JSON true/false are not numbers here.
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(NON_INTEGER_NUMBER, path,
                          f"expected an integer, got {json.dumps(value)}")
    if value < 0:
        raise FormatError(NEGATIVE_NUMBER, path, f"negative value {value}")
    if value > MAX_VALUE:
        raise FormatError(NUMBER_TOO_LARGE, path,
                          f"value {value} exceeds the 64-bit limit")
    return value


def _check_keys(obj: dict, known: tuple[str, ...], path: str, strict: bool,
                diags: ParseDiagnostics) -> None:
    for key in obj:
        if key not in known:
            if strict:
                raise FormatError(UNKNOWN_KEY, f"{path}/{key}", f"unknown key {key!r}")
            diags.warn(f"{path}/{key}", f"unknown key {key!r} ignored")


_OP_KEYS = ("start_lb", "start_ub", "min_duration", "resources", "successors")
_USAGE_KEYS = ("resource", "release_time")
_COMP_KEYS = ("type", "train", "operation", "threshold", "increment", "coeff")
_INSTANCE_KEYS = ("trains", "objective")
_SOLUTION_KEYS = ("objective_value", "events")
_EVENT_KEYS = ("time", "train", "operation")


def _parse_usage(raw: Any, path: str, strict: bool, diags: ParseDiagnostics) -> ResourceUsage:
    obj = _as_dict(raw, path)
    _check_keys(obj, _USAGE_KEYS, path, strict, diags)
    name = _require(obj, "resource", path)
    if not isinstance(name, str):
        raise FormatError(MALFORMED_DOCUMENT, f"{path}/resource",
                          "resource name must be a string")
    release = _as_int(obj.get("release_time", 0), f"{path}/release_time")
    return ResourceUsage(resource=name, release_time=release)


def _parse_operation(raw: Any, path: str, strict: bool, diags: ParseDiagnostics) -> Operation:
    obj = _as_dict(raw, path)
    _check_keys(obj, _OP_KEYS, path, strict, diags)
    min_duration = _as_int(_require(obj, "min_duration", path), f"{path}/min_duration")
    raw_succ = _as_list(_require(obj, "successors", path), f"{path}/successors")
    successors = tuple(_as_int(s, f"{path}/successors/{i}") for i, s in enumerate(raw_succ))
    start_lb = _as_int(obj.get("start_lb", 0), f"{path}/start_lb")
    start_ub = None
    if "start_ub" in obj:
        start_ub = _as_int(obj["start_ub"], f"{path}/start_ub")
    resources = tuple(
        _parse_usage(u, f"{path}/resources/{i}", strict, diags)
        for i, u in enumerate(_as_list(obj.get("resources", []), f"{path}/resources")))
    return Operation(min_duration=min_duration, successors=successors,
                     start_lb=start_lb, start_ub=start_ub, resources=resources)


def _parse_component(raw: Any, path: str, strict: bool,
                     diags: ParseDiagnostics) -> ObjectiveComponent:
    obj = _as_dict(raw, path)
    _check_keys(obj, _COMP_KEYS, path, strict, diags)
    ctype = _require(obj, "type", path)
    if ctype != OBJECTIVE_TYPE:
        raise FormatError(UNKNOWN_OBJECTIVE_TYPE, f"{path}/type",
                          f"unsupported objective component type {ctype!r}")
    train = _as_int(_require(obj, "train", path), f"{path}/train")
    operation = _as_int(_require(obj, "operation", path), f"{path}/operation")
    threshold = _as_int(obj.get("threshold", 0), f"{path}/threshold")
    coeff = _as_int(obj.get("coeff", 0), f"{path}/coeff")
    increment = _as_int(obj.get("increment", 0), f"{path}/increment")
    return ObjectiveComponent(train=train, operation=operation, threshold=threshold,
                              coeff=coeff, increment=increment)


def _instance_error_path(err: InstanceError) -> str:
    if err.component is not None:
        return f"/objective/{err.component}"
    if err.train is not None and err.operation is not None:
        return f"/trains/{err.train}/{err.operation}"
    return f"/trains/{err.train}"


def parse_instance(text: str, strict: bool = False) -> tuple[Instance, ParseDiagnostics]:
    """Parse instance JSON. Raises FormatError on any fatal problem."""
    diags = ParseDiagnostics()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(MALFORMED_DOCUMENT, "", f"invalid JSON: {e}") from e
    root = _as_dict(doc, "")
    _check_keys(root, _INSTANCE_KEYS, "", strict, diags)
    raw_trains = _as_list(_require(root, "trains", ""), "/trains")
    trains = []
    for t, raw_ops in enumerate(raw_trains):
        ops_list = _as_list(raw_ops, f"/trains/{t}")
        trains.append([
            _parse_operation(op, f"/trains/{t}/{k}", strict, diags)
            for k, op in enumerate(ops_list)
        ])
    raw_obj = _as_list(_require(root, "objective", ""), "/objective")
    objective = [
        _parse_component(comp, f"/objective/{c}", strict, diags)
        for c, comp in enumerate(raw_obj)
    ]
    try:
        instance = build_instance(trains, objective)
    except InstanceError as e:
        raise FormatError(e.rule, _instance_error_path(e), str(e)) from e
    return instance, diags


def _usage_doc(usage: ResourceUsage) -> dict:
    doc: dict[str, Any] = {"resource": usage.resource}
    if usage.release_time != 0:
        doc["release_time"] = usage.release_time
    return doc


def _operation_doc(op: Operation) -> dict:
    doc: dict[str, Any] = {}
    if op.start_lb != 0:
        doc["start_lb"] = op.start_lb
    if op.start_ub is not None:
        doc["start_ub"] = op.start_ub
    doc["min_duration"] = op.min_duration
    if op.resources:
        doc["resources"] = [_usage_doc(u) for u in op.resources]
    doc["successors"] = list(op.successors)
    return doc


def _component_doc(comp: ObjectiveComponent) -> dict:
    doc: dict[str, Any] = {"type": OBJECTIVE_TYPE, "train": comp.train,
                           "operation": comp.operation}
    if comp.threshold != 0:
        doc["threshold"] = comp.threshold
    if comp.increment != 0:
        doc["increment"] = comp.increment
    if comp.coeff != 0:
        doc["coeff"] = comp.coeff
    return doc


def write_instance(instance: Instance) -> str:
    """Canonical instance JSON: fixed key order, defaults omitted."""
    doc = {
        "trains": [[_operation_doc(op) for op in train.operations]
                   for train in instance.trains],
        "objective": [_component_doc(c) for c in instance.objective],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_solution(text: str, strict: bool = False) -> tuple[Solution, ParseDiagnostics]:
    """Parse solution JSON (structure only; index validity is the verifier's
    job because it needs the instance)."""
    diags = ParseDiagnostics()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(MALFORMED_DOCUMENT, "", f"invalid JSON: {e}") from e
    root = _as_dict(doc, "")
    _check_keys(root, _SOLUTION_KEYS, "", strict, diags)
    objective_value = _as_int(_require(root, "objective_value", ""), "/objective_value")
    raw_events = _as_list(_require(root, "events", ""), "/events")
    events = []
    for i, raw in enumerate(raw_events):
        path = f"/events/{i}"
        obj = _as_dict(raw, path)
        _check_keys(obj, _EVENT_KEYS, path, strict, diags)
        events.append(Event(
            time=_as_int(_require(obj, "time", path), f"{path}/time"),
            train=_as_int(_require(obj, "train", path), f"{path}/train"),
            operation=_as_int(_require(obj, "operation", path), f"{path}/operation"),
        ))
    return Solution(objective_value=objective_value, events=tuple(events)), diags


def write_solution(solution: Solution) -> str:
    doc = {
        "objective_value": solution.objective_value,
        "events": [{"time": e.time, "train": e.train, "operation": e.operation}
                   for e in solution.events],
    }
    return json.dumps(doc, indent=2) + "\n"
