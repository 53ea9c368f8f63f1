"""JSON reading and writing for instances and solutions.

Every record is read and written from its dataclass in `core`: a key is
required exactly when its field has no default, parsing applies the
dataclass defaults (start_lb 0, unbounded start_ub, empty resources,
release_time 0, threshold/coeff/increment 0) and writing omits a key equal
to its default. Parsing insists on non-negative integers everywhere and
reports problems with JSON-pointer paths. Unknown keys are collected as
warnings so newer files still load; strict mode turns them into errors.
Writing produces canonical text: fixed key order, byte-identical for equal
inputs.
"""
from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, field, fields
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


# One key tuple per record: the keys a document may hold, in written order.
# Fields are read in dataclass order, after the unknown keys and, for an
# objective component, its constant `type`.
_KEYS = {
    ResourceUsage: ("resource", "release_time"),
    Operation: ("start_lb", "start_ub", "min_duration", "resources", "successors"),
    ObjectiveComponent: ("type", "train", "operation", "threshold", "increment", "coeff"),
    Event: ("time", "train", "operation"),
    Solution: ("objective_value", "events"),
}
_INSTANCE_KEYS = ("trains", "objective")


def _read(cls: type, raw: Any, path: str, strict: bool, diags: ParseDiagnostics):
    """One `cls` record from its JSON object."""
    obj = _as_dict(raw, path)
    _check_keys(obj, _KEYS[cls], path, strict, diags)
    if cls is ObjectiveComponent:
        ctype = _require(obj, "type", path)
        if ctype != OBJECTIVE_TYPE:
            raise FormatError(UNKNOWN_OBJECTIVE_TYPE, f"{path}/type",
                              f"unsupported objective component type {ctype!r}")
    values = []
    for name, default, read, _ in _FIELDS[cls]:
        if name in obj or default is MISSING:
            values.append(read(_require(obj, name, path), f"{path}/{name}",
                               strict, diags))
        else:
            values.append(default)
    return cls(*values)


def _write(cls: type, record: Any) -> dict:
    """The JSON object of one `cls` record, defaulted keys left out."""
    doc: dict[str, Any] = {"type": OBJECTIVE_TYPE} if cls is ObjectiveComponent else {}
    for name, written_default, write in _WRITES[cls]:
        value = write(getattr(record, name))
        if value != written_default:
            doc[name] = value
    return doc


def _array(read_item, write_item) -> tuple:
    """(reader, writer) of a JSON array, read into a tuple."""
    def read(raw: Any, path: str, strict: bool, diags: ParseDiagnostics) -> tuple:
        return tuple(read_item(item, f"{path}/{i}", strict, diags)
                     for i, item in enumerate(_as_list(raw, path)))
    return read, lambda values: [write_item(v) for v in values]


def _records(cls: type) -> tuple:
    """(reader, writer) of a JSON array of `cls` records."""
    return _array(functools.partial(_read, cls), functools.partial(_write, cls))


def _read_int(raw: Any, path: str, strict: bool, diags: ParseDiagnostics) -> int:
    return _as_int(raw, path)


def _read_name(raw: Any, path: str, strict: bool, diags: ParseDiagnostics) -> str:
    if not isinstance(raw, str):
        raise FormatError(MALFORMED_DOCUMENT, path, "resource name must be a string")
    return raw


def _same(value: Any) -> Any:
    return value


# (reader, writer) of the fields that are not plain integers.
_CODECS = {
    "resource": (_read_name, _same),
    "successors": _array(_read_int, _same),
    "resources": _records(ResourceUsage),
    "events": _records(Event),
}
# Per record, built once: (name, default, reader, writer) in dataclass order,
# and (name, written default, writer) in written order.
_FIELDS = {cls: [(f.name, f.default, *_CODECS.get(f.name, (_read_int, _same)))
                 for f in fields(cls)] for cls in _KEYS}
_WRITES = {cls: [(name, default if default is MISSING else write(default), write)
                 for name, default, _, write in sorted(
                     _FIELDS[cls], key=lambda f: keys.index(f[0]))]
           for cls, keys in _KEYS.items()}
_read_operations, _write_operations = _records(Operation)
_read_components, _write_components = _records(ObjectiveComponent)


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(MALFORMED_DOCUMENT, "", f"invalid JSON: {e}") from e


def _instance_error_path(err: InstanceError) -> str:
    if err.component is not None:
        return f"/objective/{err.component}"
    if err.train is not None and err.operation is not None:
        return f"/trains/{err.train}/{err.operation}"
    return f"/trains/{err.train}"


def parse_instance(text: str, strict: bool = False) -> tuple[Instance, ParseDiagnostics]:
    """Parse instance JSON. Raises FormatError on any fatal problem."""
    diags = ParseDiagnostics()
    root = _as_dict(_load(text), "")
    _check_keys(root, _INSTANCE_KEYS, "", strict, diags)
    raw_trains = _as_list(_require(root, "trains", ""), "/trains")
    trains = [_read_operations(raw_ops, f"/trains/{t}", strict, diags)
              for t, raw_ops in enumerate(raw_trains)]
    objective = _read_components(_require(root, "objective", ""), "/objective",
                                 strict, diags)
    try:
        instance = build_instance(trains, objective)
    except InstanceError as e:
        raise FormatError(e.rule, _instance_error_path(e), str(e)) from e
    return instance, diags


def write_instance(instance: Instance) -> str:
    """Canonical instance JSON: fixed key order, defaults omitted."""
    doc = {
        "trains": [_write_operations(train.operations) for train in instance.trains],
        "objective": _write_components(instance.objective),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_solution(text: str, strict: bool = False) -> tuple[Solution, ParseDiagnostics]:
    """Parse solution JSON (structure only; index validity is the verifier's
    job because it needs the instance)."""
    diags = ParseDiagnostics()
    return _read(Solution, _load(text), "", strict, diags), diags


def solution_document(solution: Solution) -> dict:
    """The JSON object of a solution, as `write_solution` writes it."""
    return _write(Solution, solution)


def write_solution(solution: Solution) -> str:
    return json.dumps(solution_document(solution), indent=2) + "\n"
