"""Schedulers: earliest-times evaluation, exact search, greedy heuristic.

All three drive one incremental dispatcher, `_Dispatcher`, and read the
instance only through its per-train `_OpTable`s: predecessors, successors,
durations, start windows, resources, objective components, and the shortest
remaining duration and tightest cost threshold along it. A partial
schedule is a prefix of the event list; appending an operation fixes its
start time as the maximum of the chronological floor (times never decrease
along the list), its start_lb, the end of the train's previous operation,
and the release stamps of its resources. Times of already appended events
never change, because every constraint arc points forward in the event
order. The dispatcher owns the tables, the undo stack (`undo(depth)` takes
back one event, the latest by default; `rewind(depth)` all events above a
depth; `splice(depth)` the event at a depth when no later event depends on
it), the count of its applies, the clock, and the cost lower bound of the
partial schedule that the exact search prunes with and the heuristic stops
at.

One backtracking loop, `_depth_first`, runs both passes of the exact
search and the greedy pass; each is a move order plus a stop rule. One
budget rule: the dispatcher reads the clock once every 256 applies and sets
`expired` past the deadline. The search loop and each merge of the
insertion pass read it, so they stop within 256 applies of the deadline;
the restart loop reads the clock between passes. A report's `nodes` is the
dispatcher's count of applies (for the exact search, in both of its
passes; for the heuristic, in both processes when a helper ran), plus one
when a budget stopped the exact search. Events that backtracking takes back
were counted when applied; a retreat that splices takes back one event and
re-applies nothing.

The heuristic's restarts are independent seeded passes, so after the first
one `solve_heuristic` may fork one `_Helper` that runs every other pair of
them on its copy of the dispatcher. The results are merged in restart
order by the rule of a one-process run, so without a deadline the report
is the same whether the helper runs, is skipped or fails.

Resource bookkeeping: each resource's state is a tuple (holder, stamp1,
train1, stamp2). The holder is the one train whose latest operation claims
it, or None. The stamps are the two best release stamps from distinct trains,
stamp1 set by train1: a train is never delayed by its own release times, so
train i waits for stamp2 if train1 is i, else for stamp1. The floor is the
time of the latest event, or 0 with none.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import random
import select
import signal
import threading
import time as _time
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (Instance, Event, ObjectiveComponent, Solution, Train,
                   is_route, predecessors)

_INF = float("inf")


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    TIMEOUT_NO_SOLUTION = "TimeoutNoSolution"


@dataclass
class SolveReport:
    """Outcome of one solve. `nodes` counts the dispatcher's applies,
    including events that backtracking took back, plus one when a budget
    stopped the exact search (a capped run reports node_limit + 1). A retreat
    that splices takes back one event and re-applies nothing. The search loop
    and each merge stop within 256 applies of the deadline."""
    status: SolveStatus
    solution: Solution | None
    nodes: int
    wall_time: float
    bound: int | None = None

    def same_outcome(self, other: "SolveReport") -> bool:
        """Equality modulo wall time (for determinism checks)."""
        return (self.status == other.status and self.solution == other.solution
                and self.nodes == other.nodes and self.bound == other.bound)


_FREE = (None, 0, None, 0)          # (holder, stamp1, train1, stamp2)


def _released(state: tuple, stamp: int, train: int) -> tuple:
    """The state after train releases the resource with this stamp."""
    _, stamp1, train1, stamp2 = state
    if train == train1:
        if stamp > stamp1:
            stamp1 = stamp
    elif stamp >= stamp1:
        if train1 is not None and stamp1 > stamp2:
            stamp2 = stamp1
        stamp1, train1 = stamp, train
    elif stamp > stamp2:
        stamp2 = stamp
    return None, stamp1, train1, stamp2


class _OpTable:
    """Static per-operation data of one train, indexed by operation and
    built once per dispatcher, so that the hot loops index plain tuples
    instead of following Operation and ResourceUsage attributes. `comps`
    holds each operation's objective components in instance order; `dist`
    the shortest remaining min_duration sum to the exit, and `slack` the
    tightest cost threshold along that shortest path, shifted so that an
    operation started at t has slack[op] - t left (inf with none). Ties
    between shortest successors go to the lowest index."""
    __slots__ = ("preds", "dur", "start_lb", "start_ub", "keys", "release",
                 "far", "succ", "comps", "dist", "slack")

    def __init__(self, train: Train,
                 comps: Sequence[tuple[ObjectiveComponent, ...]]):
        ops = train.operations
        self.preds = tuple(tuple(p) for p in predecessors(train))
        self.dur = tuple(op.min_duration for op in ops)
        self.start_lb = tuple(op.start_lb for op in ops)
        self.start_ub = tuple(op.start_ub for op in ops)
        self.keys = tuple(tuple(u.resource for u in op.resources) for op in ops)
        self.release = tuple(tuple(u.release_time for u in op.resources)
                             for op in ops)
        # Largest successor (0 at the exit) and the successors in index order.
        self.far = tuple(max(op.successors, default=0) for op in ops)
        self.succ = tuple(tuple(sorted(op.successors)) for op in ops)
        self.comps = tuple(comps)
        dist = [0] * len(ops)
        slack: list[float] = [_INF] * len(ops)
        for k in range(len(ops) - 1, -1, -1):
            s = min((c.threshold for c in comps[k] if c.coeff or c.increment),
                    default=_INF)
            if self.succ[k]:
                nxt = min(self.succ[k], key=dist.__getitem__)
                dist[k] = self.dur[k] + dist[nxt]
                s = min(s, slack[nxt] - self.dur[k])
            slack[k] = s
        self.dist = tuple(dist)
        self.slack = tuple(slack)


_OK, _BLOCKED, _DEAD = 0, 1, 2
_CLOCK_PERIOD = 256         # dispatcher applies between two reads of the clock
_ENTRY = (0,)               # the only candidate of a train not yet started
_START = itemgetter(2)      # the start time of a (train, op, start) move


class _Dispatcher:
    """Mutable partial schedule with O(1)-ish append and exact undo. It owns
    the operation tables, each resource's state tuple, a stack of applied
    events that `undo`, `rewind` and `splice` take back, the count of its
    applies, `expired`, and the cost lower bound of the partial schedule
    (`bound`). An event's undo record holds what the event list
    cannot give back: the train's previous operation and start, the
    (resource, state) pairs the apply replaced, and the cost it added."""

    def __init__(self, instance: Instance, deadline: float | None = None):
        self.n_trains = len(instance.trains)
        comps: list[list[tuple[ObjectiveComponent, ...]]] = [
            [()] * len(train.operations) for train in instance.trains]
        for comp in instance.objective:
            comps[comp.train][comp.operation] += (comp,)
        self.tables = [_OpTable(train, c)
                       for train, c in zip(instance.trains, comps)]
        self.comp_trains = [i for i, tab in enumerate(self.tables)
                            if any(tab.comps)]
        self.last_op: list[int | None] = [None] * self.n_trains
        self.last_time = [0] * self.n_trains
        self.ended = [False] * self.n_trains
        self.n_ended = 0
        self.floor = 0
        self.events: list[tuple[int, int, int]] = []  # (time, train, op)
        self.res: dict[str, tuple] = {
            r: _FREE for tab in self.tables for keys in tab.keys for r in keys}
        self.z_partial = 0
        self.applies = 0
        self.deadline = deadline
        self.expired = False
        # One undo record per event in `events`.
        self._undo: list[tuple] = []

    def done(self) -> bool:
        return self.n_ended == self.n_trains

    def candidates(self, train: int) -> tuple[int, ...]:
        """Operations train may start next, in index order."""
        last = self.last_op[train]
        return _ENTRY if last is None else self.tables[train].succ[last]

    def probe(self, train: int, op: int) -> tuple[int, int]:
        """(status, earliest start). BLOCKED may clear later; DEAD (start_ub
        exceeded) is permanent because every term of the time only grows."""
        tab = self.tables[train]
        t = self.floor
        if tab.start_lb[op] > t:
            t = tab.start_lb[op]
        last = self.last_op[train]
        if last is not None:
            pt = self.last_time[train] + tab.dur[last]
            if pt > t:
                t = pt
        res = self.res
        for r in tab.keys[op]:
            holder, stamp1, train1, stamp2 = res[r]
            if holder is not None and holder != train:
                return _BLOCKED, 0
            s = stamp2 if train1 == train else stamp1
            if s > t:
                t = s
        ub = tab.start_ub[op]
        if ub is not None and t > ub:
            return _DEAD, t
        return _OK, t

    def apply(self, train: int, op: int, t: int) -> None:
        """Append the start of (train, op) at time t."""
        tab = self.tables[train]
        res = self.res
        # (resource, state) before each change; undo restores them newest
        # first, so a resource changed twice ends at its first state.
        old: list[tuple[str, tuple]] = []
        last = self.last_op[train]
        if last is not None:
            for r, release in zip(tab.keys[last], tab.release[last]):
                state = res[r]
                old.append((r, state))
                res[r] = _released(state, t + release, train)
        for r in tab.keys[op]:
            state = res[r]
            old.append((r, state))
            _, stamp1, train1, stamp2 = state
            res[r] = (train, stamp1, train1, stamp2)
        z_delta = 0
        for comp in tab.comps[op]:
            z_delta += comp.cost(t)
        self._undo.append((last, self.last_time[train], old, z_delta))
        self.last_op[train] = op
        self.last_time[train] = t
        self.floor = t
        self.events.append((t, train, op))
        self.z_partial += z_delta
        if not tab.succ[op]:
            self.ended[train] = True
            self.n_ended += 1
        self.applies += 1
        if self.deadline is not None and not self.applies % _CLOCK_PERIOD:
            self.expired = _time.monotonic() > self.deadline

    def undo(self, depth: int = -1) -> None:
        """Take back the event at `depth`, the latest by default (an earlier
        one only as `splice` allows). An ended train takes no further event,
        so an ended train here was ended by that event."""
        events = self.events
        _, train, _ = events.pop(depth)
        prev_op, prev_time, old, z_delta = self._undo.pop(depth)
        if self.ended[train]:
            self.ended[train] = False
            self.n_ended -= 1
        self.z_partial -= z_delta
        self.floor = events[-1][0] if events else 0
        self.last_op[train] = prev_op
        self.last_time[train] = prev_time
        for r, state in reversed(old):
            self.res[r] = state

    def rewind(self, depth: int) -> None:
        """Take events back until `depth` remain."""
        while len(self.events) > depth:
            self.undo()

    def splice(self, depth: int) -> bool:
        """Take back the event at `depth` alone, leaving the events above it
        applied; False, with nothing changed, unless every later event would
        probe to the same start without it: none is of the same train,
        none touches a resource the event claimed or released, and the next
        one starts strictly later (so the floor the event set bound none).
        The undo records of the events above stay exact."""
        events, records = self.events, self._undo
        if depth + 1 < len(events):
            t, train, _ = events[depth]
            if events[depth + 1][0] <= t:
                return False
            touched = {r for r, _ in records[depth][2]}
            for k in range(depth + 1, len(events)):
                if events[k][1] == train or any(
                        r in touched for r, _ in records[k][2]):
                    return False
        self.undo(depth)
        return True

    def _train_bound(self, i: int) -> int:
        """Cost lower bound of train i's unscheduled components: the earliest
        possible start of each remaining operation, counted only for
        operations the train cannot avoid on its way to the exit. The start
        honours the release times other trains have already fixed on its
        resources, and ignores their future claims.

        Operation indices are topological and every operation reaches the
        exit, so a remaining route avoids k exactly when an arc a->b out of
        a reachable a < k lands beyond k. One forward sweep finds both the
        reachable operations and `reach`, the farthest such arc head."""
        tab = self.tables[i]
        preds, dur, start_lb, keys, far, comps = (
            tab.preds, tab.dur, tab.start_lb, tab.keys, tab.far, tab.comps)
        res = self.res
        floor = self.floor
        # Earliest start of each reachable operation, the last started one
        # at its actual start; -1 elsewhere (times are never negative).
        earliest = [-1] * len(dur)
        last = self.last_op[i]
        if last is None:
            first = reach = 0
        else:
            first, reach = last + 1, far[last]
            earliest[last] = self.last_time[i]
        lb = 0
        for k in range(first, len(dur)):
            best = -1
            for p in preds[k]:
                e = earliest[p]
                if e >= 0:
                    e += dur[p]
                    if best < 0 or e < best:
                        best = e
            if best < 0 and k:
                continue            # unreachable: only the entry has no preds
            t = start_lb[k]
            if floor > t:
                t = floor
            if best > t:
                t = best
            for r in keys[k]:
                _, stamp1, train1, stamp2 = res[r]
                s = stamp2 if train1 == i else stamp1
                if s > t:
                    t = s
            earliest[k] = t
            if reach <= k:
                # On every remaining route: its cost is unavoidable, and t is
                # a lower bound on its eventual start.
                for comp in comps[k]:
                    lb += comp.cost(t)
            if far[k] > reach:
                reach = far[k]
        return lb

    def bound(self) -> int:
        """Lower bound on the cost of every completion of the partial
        schedule: the cost fixed so far plus each unfinished train's
        `_train_bound`. It never falls from a schedule to an extension."""
        lb = self.z_partial
        for i in self.comp_trains:
            if not self.ended[i]:
                lb += self._train_bound(i)
        return lb

    def to_solution(self) -> Solution:
        events = tuple(Event(time=t, train=i, operation=o) for t, i, o in self.events)
        return Solution(objective_value=self.z_partial, events=events)


def earliest_times(instance: Instance, routes: Sequence[Sequence[int]],
                   order: Sequence[tuple[int, int]]) -> list[int] | None:
    """Componentwise-minimal start times for a fixed route per train and a
    fixed global start order, or None if that choice is infeasible (a
    resource is still held by another train when claimed, or a start window
    is overrun). Times never decrease along the order, so the result is
    directly usable as a solution event list.

    Routes that are not entry-to-exit paths, or an order that is not an
    interleaving of exactly these routes, are caller errors (ValueError).
    """
    if len(routes) != len(instance.trains):
        raise ValueError("one route per train required")
    for i, route in enumerate(routes):
        if not is_route(instance.trains[i], route):
            raise ValueError(f"train {i}: {tuple(route)} is not a route")
    ptr = [0] * len(routes)
    for train, op in order:
        if train < 0 or train >= len(routes):
            raise ValueError(f"order references unknown train {train}")
        if ptr[train] >= len(routes[train]) or routes[train][ptr[train]] != op:
            raise ValueError(f"order is not consistent with the route of train {train}")
        ptr[train] += 1
    for train, p in enumerate(ptr):
        if p != len(routes[train]):
            raise ValueError(f"order does not schedule every operation of train {train}")

    disp = _Dispatcher(instance)
    if not _replay(disp, order):
        return None
    return [t for t, _, _ in disp.events]


def _depth_first(disp: _Dispatcher,
                 moves: Callable[[], Iterator[tuple[int, int, int]]], *,
                 first_leaf: bool, node_limit: int | None = None,
                 backtrack_limit: int | None = None) -> bool:
    """Depth-first search from the empty schedule, the one backtracking
    loop of the schedulers. It keeps one iterator of moves (train, op,
    start) per level on a stack instead of recursion; `moves()` gives the
    current level's, in the order to try them. An exhausted level takes
    back the latest event. With `first_leaf` the loop stops at the first
    complete schedule and leaves it applied; otherwise it ends rewound to
    the empty schedule, as it does when a budget stops it: the deadline or
    `node_limit` applies, checked before each apply, or `backtrack_limit`
    take-backs, checked before each. True when a budget stopped it."""
    levels = [moves()]
    undos = 0
    while levels:
        move = next(levels[-1], None)
        if move is None:
            levels.pop()
            if levels:
                if backtrack_limit is not None and undos >= backtrack_limit:
                    break
                disp.undo()
                undos += 1
            continue
        if disp.expired or (node_limit is not None
                            and disp.applies >= node_limit):
            break
        disp.apply(*move)
        if first_leaf and disp.done():
            return False
        levels.append(moves())
    disp.rewind(0)
    return bool(levels)


def _branch_moves(disp: _Dispatcher,
                  z: int | None) -> list[tuple[int, int, int]]:
    """The exact search's moves (train, op, start) from the current partial
    schedule, none at a complete schedule, at a dead end, or where the bound
    reaches the incumbent's cost z. Without an incumbent (the first pass)
    they come in train-index order, which runs the trains one after another
    and so reaches a schedule even where opposing trains could wedge each
    other on single track; with one, earliest start first, ties by train and
    then operation: the non-delay order of Giffler and Thompson. Probing a
    move costs no node."""
    if z is not None and disp.bound() >= z:
        return []
    moves: list[tuple[int, int, int]] = []
    for i in range(disp.n_trains):
        if disp.ended[i]:
            continue
        alive = False
        for op in disp.candidates(i):
            status, t = disp.probe(i, op)
            if status == _OK:
                moves.append((i, op, t))
                alive = True
            elif status == _BLOCKED:
                alive = True
        if not alive:
            # Start windows of every remaining candidate are overrun,
            # and they can only drift later: no completion exists.
            return []
    if z is not None:
        moves.sort(key=_START)      # stable: ties stay in (train, op) order
    return moves


def solve_exact(instance: Instance, *, node_limit: int | None = None,
                time_limit: float | None = None) -> SolveReport:
    """Exact depth-first branch and bound.

    Branches on which operation starts next, which fixes routes and the
    event order together; start times are always the componentwise-minimal
    completion, so every leaf is an earliest-times schedule. The bound adds
    per-train earliest-exit relaxations of the remaining cost to the cost of
    already fixed events.

    The search runs `_depth_first` twice over one dispatcher. The first
    pass dives in train-index order to the first complete schedule, the
    incumbent; the second restarts from the empty schedule with it and
    branches earliest start first (see `_branch_moves`). Infeasible is
    reported only when the first pass is exhausted without a schedule,
    Optimal only when the second is exhausted. node_limit and time_limit
    cover both passes, and `nodes` is the dispatcher's count of applies in
    both, plus one when a budget stopped the search. A budget-limited run
    degrades to Feasible or TimeoutNoSolution, and its bound is a valid
    lower bound on the optimum: the bound of the empty schedule, which no
    node below it undercuts because every term of the bound only grows
    along a path. Deterministic for a fixed node_limit.
    """
    start = _time.monotonic()
    deadline = start + time_limit if time_limit is not None else None
    disp = _Dispatcher(instance, deadline)
    z: int | None = None
    solution: Solution | None = None

    def earliest_first():
        nonlocal z, solution
        if disp.done() and disp.z_partial < z:
            z, solution = disp.z_partial, disp.to_solution()
        return iter(_branch_moves(disp, z))

    truncated = _depth_first(disp, lambda: iter(_branch_moves(disp, None)),
                             first_leaf=True, node_limit=node_limit)
    if disp.done():
        z, solution = disp.z_partial, disp.to_solution()
        disp.rewind(0)
        truncated = _depth_first(disp, earliest_first, first_leaf=False,
                                 node_limit=node_limit)
    if truncated:
        # Every move is undone again, so this is the bound of the root.
        bound: int | None = disp.bound()
        status = (SolveStatus.FEASIBLE if solution is not None
                  else SolveStatus.TIMEOUT_NO_SOLUTION)
    elif solution is not None:
        bound, status = z, SolveStatus.OPTIMAL
    else:
        bound, status = None, SolveStatus.INFEASIBLE
    return SolveReport(status=status, solution=solution,
                       nodes=disp.applies + truncated,
                       wall_time=_time.monotonic() - start,
                       bound=bound)


def _pick_route(tab: _OpTable, rng: random.Random,
                jitter_span: int) -> list[int]:
    """Entry-to-exit path following the shortest remaining duration, fork
    choices jittered by up to jitter_span to diversify restarts."""
    succ, dist = tab.succ, tab.dist
    route = [0]
    k = 0
    while succ[k]:
        if len(succ[k]) > 1:
            k = min(succ[k],
                    key=lambda s: (dist[s] + rng.randint(0, jitter_span), s))
        else:
            k = succ[k][0]
        route.append(k)
    return route


def _replay(disp: _Dispatcher, order: Sequence[tuple[int, int]]) -> bool:
    """Apply a whole order through probes; False (with the dispatcher
    rewound to where it was) if some event is not startable."""
    depth = len(disp.events)
    for train, op in order:
        status, t = disp.probe(train, op)
        if status != _OK:
            disp.rewind(depth)
            return False
        disp.apply(train, op, t)
    return True


def _merge_route(disp: _Dispatcher, fixed: list[tuple[int, int]], train: int,
                 route: list[int]) -> list[tuple[int, int]] | None:
    """Interleave one train's route into an already-dispatchable event order.

    Replays `fixed` (order kept, times re-probed) and places each route
    operation at the earliest point where it starts no later than the next
    fixed event. A fixed event blocked by a resource the new train holds is
    resolved by starting the train's next operation, which releases it;
    failing that, the train's latest placement retreats behind the blocked
    event and the replay resumes. Returns the merged order, left applied on
    the dispatcher; None, with the dispatcher empty again, when no
    interleaving was found or the dispatcher expired. The dispatcher must
    be empty on entry.
    """
    barrier: dict[int, int] = {}
    fp = rp = retreats = 0
    max_retreats = 16 + 4 * len(route)
    while fp < len(fixed) or rp < len(route):
        if disp.expired:
            break
        st_r = t_r = None
        if rp < len(route) and fp >= barrier.get(rp, 0):
            st_r, t_r = disp.probe(train, route[rp])
        st_f = t_f = None
        if fp < len(fixed):
            f_train, f_op = fixed[fp]
            st_f, t_f = disp.probe(f_train, f_op)
        if st_r == _DEAD or st_f == _DEAD:
            # Probe times only grow as the prefix extends, so an overrun
            # window can never recover.
            break
        if st_f == _BLOCKED and st_r != _OK:
            # Only the new train can block a fixed event (the fixed order is
            # feasible on its own); push its latest placement behind the
            # blocked position and resume. Splicing it out leaves the fixed
            # events above it where a replay would put them again; when it
            # cannot, they are taken back too and replayed.
            if retreats >= max_retreats or not rp:
                break
            blocked_at = fp
            depth = len(disp.events) - 1
            while disp.events[depth][1] != train:
                depth -= 1
            if not disp.splice(depth):
                fp -= len(disp.events) - 1 - depth
                disp.rewind(depth)
            rp -= 1
            barrier[rp] = blocked_at + 1
            retreats += 1
            continue
        if st_r == _OK and (st_f != _OK or t_r < t_f):
            disp.apply(train, route[rp], t_r)
            rp += 1
        elif st_f == _OK:
            disp.apply(f_train, f_op, t_f)
            fp += 1
        else:
            break
    if fp < len(fixed) or rp < len(route):
        disp.rewind(0)
        return None
    return [(i, op) for _, i, op in disp.events]


def _insertion_pass(disp: _Dispatcher, rng: random.Random,
                    jitter_span: int) -> Solution | None:
    """Schedule trains one at a time in jittered entry order, interleaving
    each train's route into the order built so far, a strategy immune to the
    head-on wedges that can trap greedy dispatch on dense single-track
    traffic. The order built so far stays applied between trains. Once the
    dispatcher has expired every merge fails at once, so each remaining
    train is appended whole on top of it, which gives the schedule a replay
    of the appended order would. The final order stays applied on the
    dispatcher; its solution, or None."""
    n = disp.n_trains
    jolt = [rng.randint(-jitter_span, jitter_span) for _ in range(n)]
    priority = sorted(range(n), key=lambda i: (
        disp.tables[i].start_lb[0] + jolt[i], i))
    order: list[tuple[int, int]] = []
    for i in priority:
        route = _pick_route(disp.tables[i], rng, jitter_span)
        if disp.expired:
            if not _replay(disp, [(i, op) for op in route]):
                return None
            continue
        disp.rewind(0)
        merged = _merge_route(disp, order, i, route)
        if merged is None:
            # Plain append sometimes works when interleaving does not.
            merged = order + [(i, op) for op in route]
            if not _replay(disp, merged):
                return None
        order = merged
    return disp.to_solution()


_BACKTRACK_LIMIT = 256     # greedy backtracks per pass


def _greedy_pass(disp: _Dispatcher, rng: random.Random,
                 jitter_span: int) -> Solution | None:
    """Repeatedly start the most urgent startable operation: the smallest
    slack to the nearest cost threshold along the shortest remaining path,
    jittered per train; ties by start_lb, then train, then operation index.
    Each train offers only its head candidate, the successor with the
    smallest jittered remaining min_duration sum that is not yet tried at
    that depth and probes startable. `_depth_first` runs this order to the
    first complete schedule, taking back at most _BACKTRACK_LIMIT events per
    pass. The schedule stays applied on the dispatcher; its solution, or
    None, also on expiry."""
    slack_jitter = [rng.randint(-jitter_span, jitter_span)
                    for _ in range(disp.n_trains)]
    route_jitter: dict[tuple[int, int], int] = {}

    def _dj(i: int, o: int) -> int:
        if (i, o) not in route_jitter:
            route_jitter[(i, o)] = rng.randint(0, jitter_span)
        return route_jitter[(i, o)]

    def urgent_first():
        tried: set[tuple[int, int]] = set()
        while True:
            chosen = chosen_key = None
            for i in range(disp.n_trains):
                if disp.ended[i]:
                    continue
                tab = disp.tables[i]
                cands = sorted(disp.candidates(i),
                               key=lambda o: (tab.dist[o] + _dj(i, o), o))
                for op in cands:
                    if (i, op) in tried:
                        continue
                    status, t = disp.probe(i, op)
                    if status != _OK:
                        continue
                    key = (tab.slack[op] - t + slack_jitter[i],
                           tab.start_lb[op], i, op)
                    if chosen_key is None or key < chosen_key:
                        chosen_key = key
                        chosen = (i, op, t)
                    break  # only the head candidate of each train competes
            if chosen is None:
                return
            tried.add(chosen[:2])
            yield chosen

    _depth_first(disp, urgent_first, first_leaf=True,
                 backtrack_limit=_BACKTRACK_LIMIT)
    return disp.to_solution() if disp.done() else None


class _Attempt(NamedTuple):
    """One seeded pass of the restart loop. Of a list of attempts only the
    one with the list's best schedule keeps its solution: the first of the
    least cost. The winner of any merge of lists cut at the root bound is
    such an attempt, so one solution per list is all that is kept."""
    attempt: int
    objective: int | None       # None when the pass found no schedule
    applies: int
    solution: Solution | None


def _attempts(disp: _Dispatcher, attempts: Iterable[int], *, seed: int,
              jitter_span: int, root_bound: int,
              cut: Callable[[], float] = lambda: _INF) -> list[_Attempt]:
    """Run the seeded passes `attempts`, in order, on one dispatcher that is
    rewound after each: odd attempts run `_insertion_pass`, even ones
    `_greedy_pass`, and attempts 0 and 1 with jitter span 0. Without a
    deadline each is a pure function of the instance, the seed and its
    number. Stops after an attempt that reaches root_bound, and before any
    attempt but the 0th once the deadline has passed or the attempt lies
    beyond `cut()`, the first attempt that is known elsewhere to reach it."""
    results: list[_Attempt] = []
    best = None                 # the index of the result with the solution
    for attempt in attempts:
        if attempt and (attempt > cut() or disp.deadline is not None
                        and _time.monotonic() > disp.deadline):
            break
        applies = disp.applies
        rng = random.Random(seed * 1_000_003 + attempt)
        span = jitter_span if attempt > 1 else 0
        run_pass = _insertion_pass if attempt % 2 else _greedy_pass
        solution = run_pass(disp, rng, span)
        disp.rewind(0)
        objective = None if solution is None else solution.objective_value
        if objective is not None and (
                best is None or objective < results[best].objective):
            if best is not None:
                results[best] = results[best]._replace(solution=None)
            best = len(results)
        else:
            solution = None
        results.append(_Attempt(attempt, objective, disp.applies - applies,
                                solution))
        if objective is not None and objective <= root_bound:
            break
    return results


def _dealt(side: int, sides: int, max_restarts: int | None) -> Iterator[int]:
    """Attempts 1, 2, ... up to max_restarts (without end for None), dealt
    out in pairs to `sides` processes: with two, (1, 2) to side 0, (3, 4) to
    side 1, (5, 6) to side 0 and so on. A pair holds one pass of each kind,
    so both sides get the same mix of work."""
    for first in itertools.count(1 + 2 * side, 2 * sides):
        for attempt in (first, first + 1):
            if max_restarts is not None and attempt > max_restarts:
                return
            yield attempt


# Forking the helper, collecting its results and reaping it cost 2.9 ms on
# 2 shared cores with a 27 MiB parent (CPython 3.11); a first pass shorter
# than that leaves too little work to share.
_FORK_COST = 0.0029


def _can_fork() -> bool:
    """A second CPU is usable, and the process has one thread: a fork copies
    only the calling thread, so a lock another thread holds would stay held
    in the child."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1 and threading.active_count() == 1


class _Helper:
    """A forked copy of the solving process that runs `run(cut)` and sends
    its result back through a pipe as one pickle. It always ends in
    `os._exit`, so it runs no exit handler and never flushes the parent's
    stdio. A second pipe carries a cut from the parent: `cut()` in the
    helper reads inf until the parent writes a number, and -1 once the pipe
    closes without one, as it does when the parent dies."""

    def __init__(self, pid: int, results_fd: int, cut_fd: int):
        self.pid = pid
        self._results = os.fdopen(results_fd, "rb")
        self._cut = os.fdopen(cut_fd, "wb", buffering=0)
        self._reaped = False
        self.results: list[_Attempt] | None = None

    @classmethod
    def fork(cls, run: Callable[[Callable[[], float]], list[_Attempt]]
             ) -> "_Helper | None":
        """Start a helper; None when the fork fails."""
        results_r, results_w = os.pipe()
        cut_r, cut_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (results_r, results_w, cut_r, cut_w):
                os.close(fd)
            return None
        if pid:
            os.close(results_w)
            os.close(cut_r)
            return cls(pid, results_r, cut_w)
        code = 1
        try:
            os.close(results_r)
            os.close(cut_w)
            results = run(functools.partial(_read_cut, cut_r, [_INF]))
            with os.fdopen(results_w, "wb") as pipe:
                pickle.dump(results, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)

    def poll(self) -> list[_Attempt] | None:
        """The helper's results once it has sent them, without waiting for
        them; None before, and when it failed."""
        if not self._reaped and select.select([self._results], [], [], 0)[0]:
            self._collect()
        return self.results

    def join(self, cut: float) -> list[_Attempt] | None:
        """Send the helper `cut` unless it is inf, wait for its results and
        reap it. None when it failed: a non-zero exit or a truncated
        payload."""
        if not self._reaped:
            if cut < _INF:
                try:
                    self._cut.write(b"%d" % cut)
                except BrokenPipeError:
                    pass            # it has already finished
            self._collect()
        return self.results

    def _collect(self) -> None:
        # Read to the end before waiting: a payload larger than the pipe
        # holds keeps the helper from exiting until it is read.
        payload = self._results.read()
        _, status = os.waitpid(self.pid, 0)
        self._reaped = True
        self._close_pipes()
        if status == 0:
            try:
                self.results = pickle.loads(payload)
            except (EOFError, pickle.UnpicklingError):
                pass

    def close(self) -> None:
        """Kill and reap a helper whose results were never collected."""
        if not self._reaped:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self._reaped = True
            self._close_pipes()

    def _close_pipes(self) -> None:
        self._results.close()
        self._cut.close()


def _read_cut(fd: int, cut: list[float]) -> float:
    """The helper's side of the cut pipe; `cut` holds the value once read."""
    if cut[0] == _INF and select.select([fd], [], [], 0)[0]:
        data = os.read(fd, 32)
        cut[0] = int(data) if data else -1
    return cut[0]


def solve_heuristic(instance: Instance, *, time_limit: float | None = None,
                    seed: int = 0, max_restarts: int | None = None) -> SolveReport:
    """Seeded restarts of two passes over one dispatcher: even passes run
    `_greedy_pass`, odd passes `_insertion_pass`. Restarts re-jitter
    priorities and route choices from the seed (the first pass of each kind
    runs with jitter span 0), keeping the best solution found, and stop
    early once the best reaches the lower bound of the empty schedule (the
    exact search's root bound). Deterministic for a fixed seed and restart
    budget. Never claims optimality, not even at that bound.

    Pass 0 runs inline. If it took longer than forking costs
    (`_FORK_COST`), more than one CPU is usable, the process has one thread,
    neither the deadline nor the root bound has stopped the solve, and
    attempts 3 and up are in the budget, a forked `_Helper` takes every
    other pair of attempts (see `_dealt`) on its copy of the dispatcher;
    under a time limit both processes stride through their pairs to the
    deadline. The parent merges the results in attempt order by the rule of
    a one-process run: the first strict improvement wins, `nodes` sums the
    applies of both processes, and the run ends at the first attempt that
    reaches the root bound. Without a deadline the report is therefore the
    one a single process gives. A helper that fails has its attempts run by
    the parent.
    """
    start = _time.monotonic()
    deadline = start + time_limit if time_limit is not None else None
    if max_restarts is None and time_limit is None:
        max_restarts = 16
    disp = _Dispatcher(instance, deadline)
    # No schedule costs less than the bound of the empty one, so a restart
    # could not improve on a best that reaches it.
    root_bound = disp.bound()
    horizon_scale = max((tab.dist[0] for tab in disp.tables), default=0)
    run = functools.partial(_attempts, disp, seed=seed,
                            jitter_span=max(1, horizon_scale // 8),
                            root_bound=root_bound)

    def cut(results: list[_Attempt] | None) -> float:
        """The attempt at which a list stopped at the root bound, or inf."""
        if results and results[-1].objective is not None \
                and results[-1].objective <= root_bound:
            return results[-1].attempt
        return _INF

    pass_start = _time.monotonic()
    results = run([0])
    first_pass = _time.monotonic() - pass_start
    helper = None
    if (first_pass > _FORK_COST and cut(results) == _INF
            and (max_restarts is None or max_restarts > 2)
            and (deadline is None or _time.monotonic() <= deadline)
            and _can_fork()):
        helper = _Helper.fork(lambda helper_cut: run(
            _dealt(1, 2, max_restarts), cut=helper_cut))
    if helper is None:
        results += run(_dealt(0, 1, max_restarts), cut=lambda: cut(results))
    else:
        try:
            mine = run(_dealt(0, 2, max_restarts),
                       cut=lambda: cut(helper.poll()))
            theirs = helper.join(cut(mine))
        finally:
            helper.close()
        if theirs is None:
            theirs = run(_dealt(1, 2, max_restarts), cut=lambda: cut(mine))
        results += mine + theirs

    winner: _Attempt | None = None
    nodes = 0
    for result in sorted(results, key=attrgetter("attempt")):
        nodes += result.applies
        if result.objective is None:
            continue
        if winner is None or result.objective < winner.objective:
            winner = result
        if result.objective <= root_bound:
            break
    status = (SolveStatus.FEASIBLE if winner is not None
              else SolveStatus.TIMEOUT_NO_SOLUTION)
    return SolveReport(status=status, solution=winner and winner.solution,
                       nodes=nodes, wall_time=_time.monotonic() - start)
