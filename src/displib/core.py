"""Domain model for train dispatching instances.

A train is a DAG of operations (indices are topologically ordered: every
successor index is larger than the operation's own index). Operation 0 is the
unique entry, the last operation is the unique exit. A route is a path from
entry to exit. Resources are named tracks/blocks that at most one train may
hold at a time; each usage carries a release time that must elapse after the
holding operation ends before another train may claim the resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

# Rules reported by build_instance / validate_instance.
CYCLIC_GRAPH = "CyclicGraph"
MULTIPLE_ENTRIES = "MultipleEntries"
MULTIPLE_EXITS = "MultipleExits"
INDEX_OUT_OF_RANGE = "IndexOutOfRange"
NEGATIVE_VALUE = "NegativeValue"
DUPLICATE_RESOURCE = "DuplicateResourceInOperation"
DUPLICATE_SUCCESSOR = "DuplicateSuccessor"
EMPTY_TRAIN = "EmptyTrain"
UNWRITABLE_VALUE = "UnwritableValue"  # a value the file format cannot hold

# Values must fit signed 64-bit integers so files stay usable by consumers
# without arbitrary-precision arithmetic (and horizon sums cannot wrap there).
MAX_VALUE = 2**63 - 1


class InstanceError(ValueError):
    """Structural rule violation in instance data.

    Carries the first violated rule plus the train/operation it was found at,
    so callers (the file parser, generators) can point at the offending
    element.
    """

    def __init__(self, rule: str, message: str, *, train: int | None = None,
                 operation: int | None = None, component: int | None = None):
        super().__init__(message)
        self.rule = rule
        self.train = train
        self.operation = operation
        self.component = component


@dataclass(frozen=True)
class ResourceUsage:
    """One resource claim of an operation: the resource name and how long the
    resource stays blocked after the operation ends."""
    resource: str
    release_time: int = 0


@dataclass(frozen=True)
class Operation:
    min_duration: int
    successors: tuple[int, ...]
    start_lb: int = 0
    start_ub: int | None = None  # None = unbounded
    resources: tuple[ResourceUsage, ...] = ()


@dataclass(frozen=True)
class Train:
    operations: tuple[Operation, ...]

    @property
    def exit_op(self) -> int:
        return len(self.operations) - 1


@dataclass(frozen=True)
class ObjectiveComponent:
    """Delay cost attached to one operation.

    If the operation is on the train's route and starts at time t, the
    component contributes coeff * max(0, t - threshold) plus increment if
    t >= threshold (the step fires at equality). Off-route operations
    contribute nothing.
    """
    train: int
    operation: int
    threshold: int = 0
    coeff: int = 0
    increment: int = 0

    def cost(self, t: int) -> int:
        """Cost of the operation starting at time t on the train's route."""
        if t >= self.threshold:
            return self.coeff * (t - self.threshold) + self.increment
        return 0


@dataclass(frozen=True)
class Instance:
    trains: tuple[Train, ...]
    objective: tuple[ObjectiveComponent, ...]


@dataclass(frozen=True)
class Event:
    time: int
    train: int
    operation: int


@dataclass(frozen=True)
class Solution:
    objective_value: int
    events: tuple[Event, ...]


def _check_value(name: str, value: object, train: int, operation: int | None = None,
                 component: int | None = None) -> None:
    """Reject a value the file format cannot hold: anything but a plain int
    in [0, MAX_VALUE]."""
    if type(value) is int and 0 <= value <= MAX_VALUE:
        return
    where = (f"objective component {component}" if component is not None
             else f"train {train} operation {operation}")
    rule, problem = ((NEGATIVE_VALUE, "is negative") if type(value) is int and value < 0
                     else (UNWRITABLE_VALUE, "is not an integer up to 2^63 - 1"))
    raise InstanceError(rule, f"{where}: {name} {value!r} {problem}",
                        train=train, operation=operation, component=component)


def _check_operation_values(t: int, k: int, op: Operation) -> None:
    _check_value("min_duration", op.min_duration, t, k)
    _check_value("start_lb", op.start_lb, t, k)
    if op.start_ub is not None:
        _check_value("start_ub", op.start_ub, t, k)
        if op.start_ub < op.start_lb:
            # Negative-width start window.
            raise InstanceError(NEGATIVE_VALUE,
                                f"train {t} operation {k}: start_ub {op.start_ub} "
                                f"is below start_lb {op.start_lb}",
                                train=t, operation=k)
    seen: set[str] = set()
    for usage in op.resources:
        _check_value("release_time", usage.release_time, t, k)
        if type(usage.resource) is not str:
            raise InstanceError(UNWRITABLE_VALUE, f"train {t} operation {k}: resource "
                                f"name {usage.resource!r} is not a string",
                                train=t, operation=k)
        if usage.resource in seen:
            raise InstanceError(DUPLICATE_RESOURCE,
                                f"train {t} operation {k}: resource {usage.resource!r} "
                                f"listed more than once",
                                train=t, operation=k)
        seen.add(usage.resource)


def _check_train_graph(t: int, train: Train) -> None:
    """Increasing successors, each listed once, a single entry and a single
    exit. Together they put every operation on some entry-to-exit path."""
    n = len(train.operations)
    if n == 0:
        raise InstanceError(EMPTY_TRAIN, f"train {t} has no operations", train=t)
    has_pred = [False] * n
    for k, op in enumerate(train.operations):
        _check_operation_values(t, k, op)
        for s in op.successors:
            if type(s) is not int or s < 0 or s >= n:
                raise InstanceError(INDEX_OUT_OF_RANGE,
                                    f"train {t} operation {k}: successor {s} out of range "
                                    f"(train has {n} operations)",
                                    train=t, operation=k)
            if s <= k:
                # Successor indices must increase, which is what keeps the
                # graph acyclic.
                raise InstanceError(CYCLIC_GRAPH,
                                    f"train {t} operation {k}: successor {s} does not "
                                    f"increase the topological order",
                                    train=t, operation=k)
            has_pred[s] = True
        if len(set(op.successors)) < len(op.successors):
            raise InstanceError(DUPLICATE_SUCCESSOR,
                                f"train {t} operation {k}: a successor is listed "
                                f"more than once in {list(op.successors)}",
                                train=t, operation=k)
    for k in range(1, n):
        if not has_pred[k]:
            raise InstanceError(MULTIPLE_ENTRIES,
                                f"train {t} operation {k}: no predecessors "
                                f"(operation 0 must be the only entry)",
                                train=t, operation=k)
    for k in range(n - 1):
        if not train.operations[k].successors:
            raise InstanceError(MULTIPLE_EXITS,
                                f"train {t} operation {k}: no successors "
                                f"(the last operation must be the only exit)",
                                train=t, operation=k)


def _check_objective(trains: Sequence[Train],
                     objective: Sequence[ObjectiveComponent]) -> None:
    for c, comp in enumerate(objective):
        if type(comp.train) is not int or not 0 <= comp.train < len(trains):
            raise InstanceError(INDEX_OUT_OF_RANGE,
                                f"objective component {c}: train {comp.train} out of range",
                                component=c)
        n = len(trains[comp.train].operations)
        if type(comp.operation) is not int or not 0 <= comp.operation < n:
            raise InstanceError(INDEX_OUT_OF_RANGE,
                                f"objective component {c}: operation {comp.operation} "
                                f"out of range for train {comp.train}",
                                train=comp.train, component=c)
        for name, value in (("threshold", comp.threshold), ("coeff", comp.coeff),
                            ("increment", comp.increment)):
            _check_value(name, value, comp.train, component=c)


def build_instance(trains: Iterable[Sequence[Operation]],
                   objective: Iterable[ObjectiveComponent] = ()) -> Instance:
    """Assemble and validate an Instance from per-train operation lists.

    Raises InstanceError naming the first violated rule and where it was
    found. A returned Instance always re-validates cleanly.
    """
    instance = Instance(
        trains=tuple(Train(operations=tuple(ops)) for ops in trains),
        objective=tuple(objective))
    validate_instance(instance)
    return instance


def validate_instance(instance: Instance) -> None:
    """Re-run all structural checks on an existing Instance."""
    for t, train in enumerate(instance.trains):
        _check_train_graph(t, train)
    _check_objective(instance.trains, instance.objective)


def predecessors(train: Train) -> list[list[int]]:
    """Predecessor lists, index-aligned with the operations."""
    preds: list[list[int]] = [[] for _ in train.operations]
    for k, op in enumerate(train.operations):
        for s in op.successors:
            preds[s].append(k)
    return preds


def is_route(train: Train, path: Sequence[int]) -> bool:
    """True if path is an entry-to-exit path of the train's DAG."""
    if not path or path[0] != 0 or path[-1] != train.exit_op:
        return False
    for a, b in zip(path, path[1:]):
        if b not in train.operations[a].successors:
            return False
    return True


class ConflictPair(NamedTuple):
    """Two operations of different trains that share at least one resource.
    Ordered so that (train_a, op_a) < (train_b, op_b)."""
    train_a: int
    op_a: int
    train_b: int
    op_b: int


def conflict_pairs(instance: Instance) -> list[ConflictPair]:
    """Every unordered cross-train operation pair sharing a resource, each
    pair once, in lexicographic order."""
    by_resource: dict[str, list[tuple[int, int]]] = {}
    for t, train in enumerate(instance.trains):
        for k, op in enumerate(train.operations):
            for usage in op.resources:
                by_resource.setdefault(usage.resource, []).append((t, k))
    # Users are appended in (train, operation) order, so a precedes b.
    pairs: set[ConflictPair] = set()
    for users in by_resource.values():
        for i in range(len(users)):
            for j in range(i + 1, len(users)):
                a, b = users[i], users[j]
                if a[0] == b[0]:
                    continue
                pairs.add(ConflictPair(a[0], a[1], b[0], b[1]))
    return sorted(pairs)


def resource_names(instance: Instance) -> list[str]:
    """Each resource name once, in order of first use by train, operation
    and claim."""
    return list(dict.fromkeys(usage.resource for train in instance.trains
                              for op in train.operations
                              for usage in op.resources))


def total_operations(instance: Instance) -> int:
    return sum(len(train.operations) for train in instance.trains)


def time_horizon(instance: Instance) -> int:
    """Schedule horizon: max finite start bound or threshold (at least 0)
    plus the sum of all min_durations plus the sum of all release times.

    Every instance with a feasible schedule has one whose start times all fit
    within this horizon, which is what makes it usable as a big-M value.
    """
    base = 0
    dur_sum = 0
    rel_sum = 0
    for train in instance.trains:
        for op in train.operations:
            base = max(base, op.start_lb)
            if op.start_ub is not None:
                base = max(base, op.start_ub)
            dur_sum += op.min_duration
            for usage in op.resources:
                rel_sum += usage.release_time
    for comp in instance.objective:
        base = max(base, comp.threshold)
    return base + dur_sum + rel_sum
