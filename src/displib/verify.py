"""Feasibility and cost checking for solutions.

A solution is a chronologically ordered list of (time, train, operation)
start events. It is feasible when:

1. each train's events follow one of its routes, start inside the
   [start_lb, start_ub] windows, and respect min_duration between
   consecutive starts, and
2. no resource is claimed while another train still holds it: if operation a
   of train i uses a resource that a later operation b of train j != i also
   uses, then a's successor event must come before b in the event list and
   t(successor of a) + release_time(a) <= t(b).

The resource check is a sweep over the event list keeping per-resource
claims; a claim opens when the operation starts and closes when the owning
train's next event starts (that moment plus the release time is when the
resource becomes free). This is equivalent to checking every cross-train
pair of events sharing a resource directly, which is what the test-suite
oracle does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import Instance, Solution

NOT_A_ROUTE = "NotARoute"
START_BEFORE_LB = "StartBeforeLB"
START_AFTER_UB = "StartAfterUB"
DURATION_VIOLATED = "DurationViolated"
RESOURCE_ORDER_VIOLATED = "ResourceOrderViolated"
RESOURCE_TIME_VIOLATED = "ResourceTimeViolated"
OBJECTIVE_MISMATCH = "ObjectiveMismatch"
DUPLICATE_OPERATION = "DuplicateOperation"
TIME_REGRESSION = "TimeRegression"


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    event: int | None = None        # index into the event list
    train: int | None = None
    resource: str | None = None
    other_event: int | None = None  # owning event, for resource violations
    claimed: int | None = None      # ObjectiveMismatch payload
    computed: int | None = None


@dataclass
class Verdict:
    feasible: bool
    computed_objective: int | None
    violations: list[Violation]


@dataclass
class RouteCheck:
    """Per-train event subsequences with their times, plus what went wrong."""
    routes: list[list[int]]                  # per train: operation indices in order
    times: dict[tuple[int, int], int]        # (train, op) -> start time
    violations: list[Violation]


def _events_in_range(instance: Instance, solution: Solution) -> list[Violation]:
    out = []
    for idx, ev in enumerate(solution.events):
        if ev.train < 0 or ev.train >= len(instance.trains):
            out.append(Violation(NOT_A_ROUTE,
                                 f"event {idx}: train {ev.train} does not exist",
                                 event=idx, train=ev.train))
        elif ev.operation < 0 or ev.operation >= len(instance.trains[ev.train].operations):
            out.append(Violation(NOT_A_ROUTE,
                                 f"event {idx}: train {ev.train} has no operation "
                                 f"{ev.operation}",
                                 event=idx, train=ev.train))
    return out


def check_routes(instance: Instance, solution: Solution) -> RouteCheck:
    """Definition check for each train in isolation: its event subsequence
    must be an entry-to-exit path, every start inside its window, and
    consecutive starts separated by at least min_duration.

    Event indices must be in range (verify() screens them first).
    """
    violations: list[Violation] = []
    per_train: list[list[tuple[int, int, int]]] = [[] for _ in instance.trains]
    for idx, ev in enumerate(solution.events):
        per_train[ev.train].append((idx, ev.operation, ev.time))

    routes: list[list[int]] = []
    times: dict[tuple[int, int], int] = {}
    for t, seq in enumerate(per_train):
        train = instance.trains[t]
        routes.append([op for _, op, _ in seq])
        if not seq:
            violations.append(Violation(NOT_A_ROUTE, f"train {t} has no events", train=t))
            continue
        seen: set[int] = set()
        for idx, op, time in seq:
            if op in seen:
                violations.append(Violation(
                    DUPLICATE_OPERATION,
                    f"event {idx}: train {t} starts operation {op} a second time",
                    event=idx, train=t))
            seen.add(op)
            times[(t, op)] = time
            o = train.operations[op]
            if time < o.start_lb:
                violations.append(Violation(
                    START_BEFORE_LB,
                    f"event {idx}: train {t} operation {op} starts at {time}, "
                    f"before its lower bound {o.start_lb}",
                    event=idx, train=t))
            if o.start_ub is not None and time > o.start_ub:
                violations.append(Violation(
                    START_AFTER_UB,
                    f"event {idx}: train {t} operation {op} starts at {time}, "
                    f"after its upper bound {o.start_ub}",
                    event=idx, train=t))
        first_idx, first_op, _ = seq[0]
        if first_op != 0:
            violations.append(Violation(
                NOT_A_ROUTE,
                f"event {first_idx}: train {t} starts at operation {first_op}, "
                f"not at the entry operation 0",
                event=first_idx, train=t))
        for (_, op_a, t_a), (idx_b, op_b, t_b) in zip(seq, seq[1:]):
            op = train.operations[op_a]
            if op_b not in op.successors:
                violations.append(Violation(
                    NOT_A_ROUTE,
                    f"event {idx_b}: train {t} jumps from operation {op_a} to {op_b}, "
                    f"which is not a successor",
                    event=idx_b, train=t))
            if t_b < t_a + op.min_duration:
                violations.append(Violation(
                    DURATION_VIOLATED,
                    f"event {idx_b}: train {t} operation {op_a} needs {op.min_duration} "
                    f"time units but operation {op_b} starts after {t_b - t_a}",
                    event=idx_b, train=t))
        last_idx, last_op, _ = seq[-1]
        if train.operations[last_op].successors:
            violations.append(Violation(
                NOT_A_ROUTE,
                f"event {last_idx}: train {t} ends at operation {last_op}, "
                f"which is not the exit operation",
                event=last_idx, train=t))
    return RouteCheck(routes=routes, times=times, violations=violations)


@dataclass
class _Claim:
    owner_train: int
    owner_event: int
    release: int
    end_time: int | None = None  # set when the owner's next event starts


def check_resources(instance: Instance, solution: Solution) -> list[Violation]:
    """Sweep the event list and flag claims on resources another train still
    holds (order broken) or has not yet released long enough (time broken).

    Assumes per-train event sequences follow the successor relation (run
    check_routes first); on other input it still terminates and reports the
    same pair set as the literal all-pairs check.
    """
    violations: list[Violation] = []
    claims: dict[str, list[_Claim]] = {}
    open_by_train: list[list[_Claim]] = [[] for _ in instance.trains]
    for idx, ev in enumerate(solution.events):
        # The previous operation of this train ends now; its resources start
        # their release countdown.
        for claim in open_by_train[ev.train]:
            claim.end_time = ev.time
        open_by_train[ev.train] = []
        op = instance.trains[ev.train].operations[ev.operation]
        for usage in op.resources:
            existing = claims.setdefault(usage.resource, [])
            kept: list[_Claim] = []
            for claim in existing:
                if claim.owner_train == ev.train:
                    kept.append(claim)
                    continue
                if claim.end_time is None:
                    violations.append(Violation(
                        RESOURCE_ORDER_VIOLATED,
                        f"event {idx}: train {ev.train} claims resource "
                        f"{usage.resource!r} still held by train {claim.owner_train} "
                        f"(event {claim.owner_event})",
                        event=idx, train=ev.train, resource=usage.resource,
                        other_event=claim.owner_event))
                    kept.append(claim)
                elif claim.end_time + claim.release > ev.time:
                    violations.append(Violation(
                        RESOURCE_TIME_VIOLATED,
                        f"event {idx}: train {ev.train} claims resource "
                        f"{usage.resource!r} at {ev.time}, released by train "
                        f"{claim.owner_train} only at {claim.end_time + claim.release}",
                        event=idx, train=ev.train, resource=usage.resource,
                        other_event=claim.owner_event))
                    kept.append(claim)
                # else: released early enough; drop the claim.
            new_claim = _Claim(owner_train=ev.train, owner_event=idx,
                               release=usage.release_time)
            kept.append(new_claim)
            open_by_train[ev.train].append(new_claim)
            claims[usage.resource] = kept
    return violations


def evaluate_objective(instance: Instance,
                       times: Mapping[tuple[int, int], int]) -> int:
    """Total delay cost for scheduled operation start times. Operations
    absent from `times` (off route) contribute nothing; the step increment
    fires already at time == threshold."""
    total = 0
    for comp in instance.objective:
        t = times.get((comp.train, comp.operation))
        if t is not None:
            total += comp.cost(t)
    return total


def _time_regressions(solution: Solution) -> list[Violation]:
    out = []
    for idx in range(1, len(solution.events)):
        if solution.events[idx].time < solution.events[idx - 1].time:
            out.append(Violation(
                TIME_REGRESSION,
                f"event {idx}: time {solution.events[idx].time} is earlier than "
                f"the previous event's time {solution.events[idx - 1].time}",
                event=idx, train=solution.events[idx].train))
    return out


def verify(instance: Instance, solution: Solution) -> Verdict:
    """Full feasibility + cost verdict.

    computed_objective is set only for feasible solutions; when the only
    problem is a wrong objective_value claim, the recomputed value rides in
    the ObjectiveMismatch violation.
    """
    index_violations = _events_in_range(instance, solution)
    if index_violations:
        return Verdict(feasible=False, computed_objective=None,
                       violations=index_violations)
    violations = _time_regressions(solution)
    route_check = check_routes(instance, solution)
    violations.extend(route_check.violations)
    if not route_check.violations:
        violations.extend(check_resources(instance, solution))
    if not violations:
        computed = evaluate_objective(instance, route_check.times)
        if computed != solution.objective_value:
            violations.append(Violation(
                OBJECTIVE_MISMATCH,
                f"claimed objective_value {solution.objective_value} but the "
                f"events cost {computed}",
                claimed=solution.objective_value, computed=computed))
        else:
            return Verdict(feasible=True, computed_objective=computed,
                           violations=[])
    big = len(solution.events)
    violations.sort(key=lambda v: (v.event if v.event is not None else big))
    return Verdict(feasible=False, computed_objective=None, violations=violations)
