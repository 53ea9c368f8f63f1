"""Schedulers: earliest-times evaluation, exact search, restart heuristic.

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
depth in one loop, or to the empty schedule by a reset that costs the same
however many events it takes back; `splice(depth)` the event at a depth and
the later events from the first one that depends on it), the count of its
applies, the clock, and the cost lower bound of the partial schedule that
the exact search prunes with and the heuristic stops at.

The exact search needs only whether the bound reaches the incumbent's cost
z, and most of its nodes are pruned. So `bound()` keeps, per
depth, each train's start at every costly operation it cannot avoid, and
`prunes(z)` at a child first charges those starts (`_charge`): it re-sweeps
only the train that just moved, and charges every other unfinished train
each recorded start t at max(t, floor + lag), lag being the shortest
min_duration sum from the train's next operation to that operation, which
`dist` gives because a recorded operation lies on every remaining route.
That never exceeds the child's own bound, since an unmoved train keeps its
last operation and start while the floor and the release stamps only grow.
Where it stays below z the full bound runs, reusing that sweep, and is
recorded for the child's children; so every prune is decided as
`bound() >= z` decides it. The charge starts at the first prune and pauses
after a run of nodes that were not pruned, so a search that rarely prunes
pays for `bound()` alone.

One backtracking loop, `_depth_first`, runs the exact search and the
heuristic's dive; each is an order of the `_branch_moves` plus a stop
rule. Both go earliest start first: the exact search with ties by train
and then operation, from the incumbent of the heuristic's two unjittered
passes; the dive with each train's starts jittered and ties going to the
shorter remaining duration. `splice` checks resource states by identity:
each write makes a fresh state tuple, so a resource still holding the
tuple an event wrote was touched by no later event, and only otherwise
scans the later events for the first dependent.
One budget rule: the dispatcher reads the clock once every 256
applies and sets `expired` past the deadline. The search loop and each
merge of the insertion pass read it, so they stop within 256 applies of the
deadline; the restart loop reads the clock between passes. A report's
`nodes` is the dispatcher's count of applies (for the exact search, in its
branch and bound, not in the warm start; for the heuristic, in both
processes when a helper ran), plus one when a budget stopped the exact
search. Events that backtracking takes back were counted when applied; a
retreat that splices re-applies only the later events that depended on
the one it took back.

A truncated exact search reports the larger of the root's bound and, with
at least 3 trains, the pair bound (`_pair_bound`): the optima of disjoint
two-train sub-instances, each solved by `solve_exact` (or its own bound
where the budget ran out), plus the single-train bounds of the trains left
over. The pair searches share the run's budget (node_limit applies in all,
and the deadline), and their applies are not counted in `nodes`. Wherever
the process can fork they run in a forked `_Helper` beside the main search
once that has made `_PAIR_FORK_NODES` applies; only when the fork fails
does the parent run them after its search.

The heuristic's restarts are independent seeded passes, so after the first
one `solve_heuristic` may fork one `_Helper` that runs every other pair of
them on its copy of the dispatcher, reads nothing from the parent, and
stops before its next pass once the parent is gone. The results are merged
in restart order by the rule of a one-process run, so without a deadline
the report is the same whether the helper runs, is skipped, fails, or is
killed because the parent's share reached the root bound first and the
parent re-runs the helper's earlier restarts.

Resource bookkeeping: each resource's state is a tuple (holder, stamp1,
train1, stamp2). The holder is the one train whose latest operation claims
it, or None. The stamps are the two best release stamps from distinct trains,
stamp1 set by train1: a train is never delayed by its own release times, so
train i waits for stamp2 if train1 is i, else for stamp1. The floor, cached
on every apply, undo and rewind, is the time of the latest event, or 0
with none.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
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
    stopped the exact search (a capped run reports node_limit + 1); for the
    exact search only those of its branch and bound, not those of the warm
    start that gives its first incumbent. A retreat that splices re-applies
    only the events that depended on the one it took back. The search loop
    and each merge stop within 256 applies of the deadline. `bound` is a
    lower bound on the optimum: the optimum itself when the exact search
    closed, and on a truncated exact run the larger of the root's bound and
    the pair bound, whose pair searches share the run's budget and are not
    counted in `nodes` (see `solve_exact`); None from the heuristic and on
    Infeasible."""
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
    holds each operation's objective components in instance order, and
    `dist` the shortest remaining min_duration sum to the exit, the one
    shortest-path table the searches read."""
    __slots__ = ("preds", "dur", "start_lb", "start_ub", "keys", "release",
                 "far", "succ", "comps", "dist")

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
        for k in range(len(ops) - 1, -1, -1):
            if self.succ[k]:
                dist[k] = self.dur[k] + min(dist[s] for s in self.succ[k])
        self.dist = tuple(dist)


_OK, _BLOCKED, _DEAD = 0, 1, 2
_CLOCK_PERIOD = 256         # dispatcher applies between two reads of the clock
# Nodes in a row that `prunes` lets through before it stops charging the
# parent's record, until a node is pruned again.
_EXPANDED_RUN = 8
_ENTRY = (0,)               # the only candidate of a train not yet started
_START = itemgetter(2)      # the start time of a (train, op, start) move


class _Dispatcher:
    """Mutable partial schedule with O(1)-ish append and exact undo. It owns
    the operation tables, each resource's state tuple, a stack of applied
    events that `undo`, `rewind` and `splice` take back, the count of its
    applies, `expired`, the cost lower bound of the partial schedule
    (`bound`) and, per depth, the starts it charged, which the prune at the
    children reads (`prunes`). An event's undo record holds what the event
    list cannot give back: the train's previous operation and start, the
    (resource, state before, state written) triples of the apply, and the
    cost it added."""

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
        # By depth, the (train, bound, starts) of the latest `bound` there.
        self._starts: dict[int, list[tuple[int, int, list]]] = {}
        # Nodes `prunes` let through since it last pruned; it charges the
        # parent's record only from the first prune on.
        self._expanded = _EXPANDED_RUN

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
        # (resource, state before, state written) for each change; undo
        # restores them newest first, so a resource changed twice ends at its
        # first state. Every written state is a fresh tuple, which `splice`
        # compares by identity.
        old: list[tuple[str, tuple, tuple]] = []
        last = self.last_op[train]
        if last is not None:
            for r, release in zip(tab.keys[last], tab.release[last]):
                state = res[r]
                res[r] = new = _released(state, t + release, train)
                old.append((r, state, new))
        for r in tab.keys[op]:
            state = res[r]
            _, stamp1, train1, stamp2 = state
            res[r] = new = (train, stamp1, train1, stamp2)
            old.append((r, state, new))
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
        """Take back the event at `depth`, the latest by default; an earlier
        one only when no later event depends on it, as `splice` ensures. An
        ended train takes no further event, so an ended train here was ended
        by that event."""
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
        for r, state, _ in reversed(old):
            self.res[r] = state

    def rewind(self, depth: int) -> None:
        """Take events back until `depth` remain, leaving the state that as
        many `undo()` calls leave. To depth 0 it resets every field to the
        empty schedule's, in O(resources + trains) whatever the number of
        events; to any other depth it restores the undo records newest
        first in one loop."""
        events, records = self.events, self._undo
        if len(events) <= depth:
            return
        if not depth:
            self.res.update(dict.fromkeys(self.res, _FREE))
            n = self.n_trains
            self.last_op[:] = [None] * n
            self.last_time[:] = [0] * n
            self.ended[:] = [False] * n
            self.n_ended = self.z_partial = self.floor = 0
            events.clear()
            records.clear()
            return
        res, ended = self.res, self.ended
        last_op, last_time = self.last_op, self.last_time
        z = self.z_partial
        for (_, train, _), (prev_op, prev_time, old, z_delta) in zip(
                reversed(events[depth:]), reversed(records[depth:])):
            if ended[train]:
                ended[train] = False
                self.n_ended -= 1
            z -= z_delta
            last_op[train] = prev_op
            last_time[train] = prev_time
            for r, state, _ in reversed(old):
                res[r] = state
        del events[depth:], records[depth:]
        self.z_partial = z
        self.floor = events[-1][0]

    def splice(self, depth: int) -> int:
        """Take back the event at `depth`, and with it the later events from
        the first one that depends on it: a later event of the same train,
        one whose undo record touches a resource the event wrote (claimed or
        released), or the next event when it starts at the same time (the
        floor the event set may have bound it). Each event in between probes
        to the same start without it, so it stays applied and its undo
        record stays exact. Returns how many later events it took back, 0
        when none depended on it. When the event is its train's latest and
        each resource it wrote still holds the very state tuple it wrote, no
        later event depends on it but perhaps the next one, and the check
        costs O(resources of the event); otherwise the events above it are
        scanned up to the first dependent."""
        events, records = self.events, self._undo
        t, train, op = events[depth]
        cut = len(events)
        if depth + 1 < cut and events[depth + 1][0] <= t:
            cut = depth + 1
        else:
            # The state each resource ended at in this apply: the last one
            # written where the event released and claimed the same resource.
            written = {r: new for r, _, new in records[depth][2]}
            res = self.res
            if self.last_op[train] != op or any(
                    res[r] is not new for r, new in written.items()):
                for k in range(depth + 1, cut):
                    if events[k][1] == train or any(
                            r in written for r, _, _ in records[k][2]):
                        cut = k
                        break
        taken = len(events) - cut
        self.rewind(cut)
        self.undo(depth)
        return taken

    def _train_bound(self, i: int) -> tuple[int, list[tuple[int, int, int]]]:
        """Cost lower bound of train i's unscheduled components: the earliest
        possible start of each remaining operation, counted only for
        operations the train cannot avoid on its way to the exit. The start
        honours the release times other trains have already fixed on its
        resources, and ignores their future claims. Returned with the
        (operation, start, cost) of each operation it charged, the starts
        that `prunes` reads at the children. While train i does not move,
        later events only raise the floor and the stamps, so a later sweep
        charges the same operations, each at a start no earlier than here
        and no earlier than the floor plus the shortest path to it, which
        `dist` gives: charging a kept start at the later of the two never
        exceeds the later sweep.

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
        starts: list[tuple[int, int, int]] = []
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
            if reach <= k and comps[k]:
                # On every remaining route: its cost is unavoidable, and t is
                # a lower bound on its eventual start.
                c = 0
                for comp in comps[k]:
                    c += comp.cost(t)
                lb += c
                starts.append((k, t, c))
            if far[k] > reach:
                reach = far[k]
        return lb, starts

    def bound(self, swept: tuple[int, tuple[int, list]] | None = None) -> int:
        """Lower bound on the cost of every completion of the partial
        schedule: the cost fixed so far plus each unfinished train's
        `_train_bound`. It never falls from a schedule to an extension.
        `swept` is (train, its `_train_bound`) when that sweep was already
        made here. Each train's bound and starts are kept as the record of
        this depth, which `prunes` at the children reads."""
        lb = self.z_partial
        record = []
        for i in self.comp_trains:
            if not self.ended[i]:
                b, starts = (swept[1] if swept is not None and swept[0] == i
                             else self._train_bound(i))
                lb += b
                record.append((i, b, starts))
        self._starts[len(self.events)] = record
        return lb

    def prunes(self, z: int) -> bool:
        """Whether `bound() >= z`: from the charge of the parent's record
        (`_charge`) where that reaches z, else from `bound()`, reusing the
        charge's sweep of the moved train. The charge waits for the first
        prune, and after `_EXPANDED_RUN` nodes in a row were not pruned it
        is skipped until one is: a search that rarely prunes then pays for
        `bound()` alone."""
        swept = None
        if self._expanded < _EXPANDED_RUN:
            charge, swept = self._charge(z)
            if charge >= z:
                self._expanded = 0
                return True
        if self.bound(swept) >= z:
            self._expanded = 0
            return True
        self._expanded += 1
        return False

    def _charge(self, z: float) -> tuple[int, tuple[int, tuple] | None]:
        """A lower bound on `bound()` from at most one sweep, and that sweep
        as `bound(swept)` takes it (None when none was made): none is made
        when the other trains' charges already reach z. It reads the record
        of the parent, the schedule without the latest event, and holds
        only while that record is the parent's own: in a depth-first walk
        that calls `bound()` at every node it expands, it is. A search
        without an incumbent calls no `bound()`, so where its first leaf
        turns up mid-walk the ancestors above it have no record; their
        children then charge the fixed cost alone and leave the decision to
        `bound()`. Such a record cannot be stale: no node at that depth
        outside the current subtree has recorded since the walk began.

        Only the latest event's train moved since the parent: it is
        re-swept. Every other unfinished train keeps its last operation and
        start, and the floor and the release stamps on its resources only
        grew, so its `_train_bound` charges the same operations at starts
        no earlier than the parent's. Each such start also lies at or after
        the floor plus the train's lag to that operation (read from `dist`),
        because a sweep starts every reachable operation at or after the
        floor and then adds at least the shortest path's durations. Costs
        never fall as a start grows later, so charging each recorded start
        t at max(t, floor + lag) never exceeds `bound()`; a start the floor
        plus the lag does not pass keeps its recorded cost."""
        lb = self.z_partial
        parent = self._starts.get(len(self.events) - 1)
        if parent is None:
            return lb, None
        moved = self.events[-1][1]
        moved_costs = False         # the parent recorded the moved train
        floor, last_op, tables = self.floor, self.last_op, self.tables
        for i, b, starts in parent:
            if i == moved:
                moved_costs = True
                continue
            lb += b
            tab, last = tables[i], last_op[i]
            dist = tab.dist
            ahead = floor + (dist[0] if last is None
                             else dist[last] - tab.dur[last])
            for k, t, c in starts:
                # Every path from the next operations to the exit passes k,
                # so the shortest sum up to k is the whole one less dist[k].
                s = ahead - dist[k]
                if s > t:
                    lb -= c
                    for comp in tab.comps[k]:
                        lb += comp.cost(s)
        if not moved_costs or self.ended[moved] or lb >= z:
            return lb, None
        swept = self._train_bound(moved)
        return lb + swept[0], (moved, swept)

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
    loop of the schedulers: the exact search and the heuristic's dive
    (`_dive_pass`) run on it. It keeps one iterator of moves (train, op,
    start) per level on a stack instead of recursion; `moves()` gives the
    current level's, in the order to try them. An exhausted level takes
    back the latest event. With `first_leaf` (the dive) the loop stops at
    the first complete schedule and leaves it applied; otherwise (the exact
    search) it ends rewound to the empty schedule, as it does when a budget
    stops it: the deadline or `node_limit` applies, checked before each
    apply, or `backtrack_limit` take-backs, checked before each. True when
    a budget stopped it."""
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
    """The moves (train, op, start) from the current partial schedule, in
    train and then operation order, which each caller sorts its own way:
    none at a complete schedule, at a dead end, or, given an incumbent's
    cost z, where the bound reaches it. Probing a move costs no node. The
    prune is `disp.prunes(z)`, which decides as `bound() >= z` does, mostly
    from the parent's recorded starts and at most one sweep of the train
    that moved."""
    if z is not None and disp.prunes(z):
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
    return moves


def solve_exact(instance: Instance, *, node_limit: int | None = None,
                time_limit: float | None = None) -> SolveReport:
    """Exact depth-first branch and bound.

    Branches on which operation starts next, which fixes routes and the
    event order together; start times are always the componentwise-minimal
    completion, so every leaf is an earliest-times schedule. The bound adds
    per-train earliest-exit relaxations of the remaining cost to the cost of
    already fixed events. A node is pruned where that bound reaches the
    incumbent; the cheap charge of the parent's recorded starts settles most
    prunes (see `_Dispatcher.prunes`) and never exceeds the bound, so the
    tree, and the report, are those of pruning with `bound()` alone.

    The incumbent starts as the better schedule of the heuristic's two
    unjittered passes (`_attempts` 0 and 1: the dive and the insertion
    pass), run on the same dispatcher. Then one `_depth_first` pass
    branches earliest start first, ties by train and then operation (the
    non-delay order of Giffler and Thompson), and records every complete
    schedule cheaper than the incumbent. Infeasible is reported when that
    pass is exhausted without any schedule, Optimal when it is exhausted
    with one. node_limit and time_limit cap the search, and `nodes` is the
    dispatcher's count of its applies, not those of the warm start, plus one
    when a budget stopped it. A budget-limited run degrades to Feasible or
    TimeoutNoSolution. Its bound is the larger of two valid lower bounds on
    the optimum: the bound of the empty schedule, which no node below it
    undercuts because every term of the bound only grows along a path, and,
    with at least 3 trains, the pair bound (`_pair_bound`), whose pair
    searches share the run's budget and are not counted in `nodes`. They
    run in a forked `_Helper` beside the main search, forked once the
    search has made `_PAIR_FORK_NODES` applies without closing, whenever
    the process can fork (`_forkable`), on one CPU too; the parent waits for
    it only when its own search was truncated and kills it otherwise.
    Without a helper, or when it fails, the parent runs them after its
    search. So without a time limit the report is the same with a helper
    and without. Deterministic for a fixed node_limit.
    """
    start = _time.monotonic()
    deadline = start + time_limit if time_limit is not None else None
    disp = _Dispatcher(instance, deadline)
    root = disp.bound()
    solution = next((a.solution for a in _attempts(
        disp, (0, 1), seed=0, jitter_span=0, root_bound=root)
        if a.solution is not None), None)
    z = None if solution is None else solution.objective_value
    disp.applies = 0            # `nodes` counts the search's applies only
    pairs = helper = None
    fork_at = _INF              # applies at which the helper is forked
    if (len(instance.trains) >= 3 and disp.comp_trains
            and (node_limit is not None or deadline is not None)):
        # The root's bound of each costly train alone.
        singles = {i: disp._train_bound(i)[0] for i in disp.comp_trains}
        pairs = functools.partial(_pair_bound, instance, singles,
                                  node_limit, deadline)
        if _forkable():
            fork_at = _PAIR_FORK_NODES

    def earliest_first():
        nonlocal z, solution, helper, fork_at
        if disp.applies >= fork_at:
            fork_at = _INF
            parent = os.getpid()
            # Once the parent is gone the helper stops before its next pair.
            helper = _Helper.fork(lambda: pairs(
                stop=lambda: os.getppid() != parent))
        if disp.done() and (z is None or disp.z_partial < z):
            z, solution = disp.z_partial, disp.to_solution()
        moves = _branch_moves(disp, z)
        moves.sort(key=_START)      # stable: ties stay in (train, op) order
        return iter(moves)

    try:
        truncated = _depth_first(disp, earliest_first, first_leaf=False,
                                 node_limit=node_limit)
        if truncated:
            bound: int | None = root
            if pairs is not None:
                pair = None if helper is None else helper.join()
                bound = max(bound, pairs() if pair is None else pair)
            status = (SolveStatus.FEASIBLE if solution is not None
                      else SolveStatus.TIMEOUT_NO_SOLUTION)
        elif solution is not None:
            bound, status = z, SolveStatus.OPTIMAL
        else:
            bound, status = None, SolveStatus.INFEASIBLE
    finally:
        if helper is not None:
            helper.close()
    return SolveReport(status=status, solution=solution,
                       nodes=disp.applies + truncated,
                       wall_time=_time.monotonic() - start,
                       bound=bound)


def _pair_instance(instance: Instance, i: int, j: int) -> Instance:
    """Trains i and j alone, as trains 0 and 1, with their objective
    components in instance order."""
    index = {i: 0, j: 1}
    return Instance(
        trains=(instance.trains[i], instance.trains[j]),
        objective=tuple(
            ObjectiveComponent(index[c.train], c.operation, c.threshold,
                               c.coeff, c.increment)
            for c in instance.objective if c.train in index))


def _pair_bound(instance: Instance, singles: dict[int, int],
                node_limit: int | None, deadline: float | None, *,
                stop: Callable[[], bool] = lambda: False) -> int:
    """A lower bound on the optimum from two-train sub-instances, after the
    decomposition view of Lamorgese & Mannino (2015) and the pairwise
    conflicts of Mascis & Pacciarelli (2002). Dropping trains only removes
    resource claims and release stamps, so any schedule, cut down to trains
    i and j, is one of their pair instance, and costs at least its optimum.
    So for disjoint pairs, the sum of their optima, plus `singles[k]` (the
    root's bound of train k alone, 0 for a train without components) for
    every train k in no pair, bounds the optimum from below.

    Each pair with a costly train is solved by `solve_exact` in (i, j)
    order; all of them together apply at most node_limit events and stop
    at the deadline, and they stop early once `stop()` is true. A pair
    stopped by its budget counts at its own reported bound, and a pair
    proven infeasible is skipped. The pairs are matched greedily, largest
    gain over their two singles first (ties in (i, j) order)."""
    budget = node_limit
    gains: list[tuple[int, int, int]] = []
    for i, j in itertools.combinations(range(len(instance.trains)), 2):
        if i not in singles and j not in singles:
            continue
        if budget is not None and budget <= 0 or stop():
            break
        time_limit = None
        if deadline is not None:
            time_limit = deadline - _time.monotonic()
            if time_limit <= 0:
                break
        report = solve_exact(_pair_instance(instance, i, j),
                             node_limit=budget, time_limit=time_limit)
        truncated = report.status in (SolveStatus.FEASIBLE,
                                      SolveStatus.TIMEOUT_NO_SOLUTION)
        if budget is not None:
            budget -= report.nodes - truncated
        if report.status is not SolveStatus.INFEASIBLE:
            gain = report.bound - singles.get(i, 0) - singles.get(j, 0)
            if gain > 0:
                gains.append((gain, i, j))
    gains.sort(key=lambda g: -g[0])
    bound, matched = sum(singles.values()), set()
    for gain, i, j in gains:
        if i not in matched and j not in matched:
            matched.update((i, j))
            bound += gain
    return bound


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
    event: `splice` takes it back together with the fixed events above it
    from the first one that depended on it, and the replay resumes at that
    one, re-applying only those. Returns the merged order, left applied on
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
            # blocked position and resume. The splice takes back with it only
            # the fixed events from the first one that depends on it, which a
            # replay would move; the ones below it stay where a replay would
            # put them again.
            if retreats >= max_retreats or not rp:
                break
            blocked_at = fp
            depth = len(disp.events) - 1
            while disp.events[depth][1] != train:
                depth -= 1
            fp -= disp.splice(depth)
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
    head-on wedges that can trap the earliest-start dive (`_dive_pass`) on
    dense single-track traffic. The order built so far stays applied
    between trains. A train whose merge fails is appended whole on top of
    that order, re-applied first because a failed merge leaves the
    dispatcher empty. Once the dispatcher has expired every merge would
    fail at once, so each remaining train is appended without one. The
    final order stays applied on the dispatcher; its solution, or None."""
    n = disp.n_trains
    jolt = [rng.randint(-jitter_span, jitter_span) for _ in range(n)]
    priority = sorted(range(n), key=lambda i: (
        disp.tables[i].start_lb[0] + jolt[i], i))
    order: list[tuple[int, int]] = []
    for i in priority:
        route = _pick_route(disp.tables[i], rng, jitter_span)
        if not disp.expired:
            disp.rewind(0)
            merged = _merge_route(disp, order, i, route)
            if merged is not None:
                order = merged
                continue
            # Plain append sometimes works when interleaving does not.
            if not _replay(disp, order):
                return None
        appended = [(i, op) for op in route]
        if not _replay(disp, appended):
            return None
        order += appended
    return disp.to_solution()


_BACKTRACK_LIMIT = 256     # take-backs per dive


def _dive_pass(disp: _Dispatcher, rng: random.Random,
               jitter_span: int) -> Solution | None:
    """Dive earliest start first, the non-delay order of Giffler and
    Thompson (1960): `_depth_first` runs `_branch_moves` without an
    incumbent, each level's moves sorted by start jittered per train, then
    by the shortest remaining duration (`dist`), train and operation, to
    the first complete schedule, taking back at most _BACKTRACK_LIMIT
    events. The schedule stays applied on the dispatcher; its solution, or
    None, also on expiry."""
    jolt = [rng.randint(-jitter_span, jitter_span)
            for _ in range(disp.n_trains)]
    tables = disp.tables

    def earliest_first():
        return iter(sorted(_branch_moves(disp, None), key=lambda m: (
            m[2] + jolt[m[0]], tables[m[0]].dist[m[1]], m[0], m[1])))

    _depth_first(disp, earliest_first, first_leaf=True,
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
    `_dive_pass`, and attempts 0 and 1 with jitter span 0. Without a
    deadline each is a pure function of the instance, the seed and its
    number. Stops after an attempt that reaches root_bound, and before any
    attempt but the 0th once the deadline has passed or the attempt lies
    beyond `cut()`, the first attempt that is known elsewhere to reach it
    (0 when no result of this list will be read)."""
    results: list[_Attempt] = []
    best = None                 # the index of the result with the solution
    for attempt in attempts:
        if attempt and (attempt > cut() or disp.deadline is not None
                        and _time.monotonic() > disp.deadline):
            break
        applies = disp.applies
        rng = random.Random(seed * 1_000_003 + attempt)
        span = jitter_span if attempt > 1 else 0
        run_pass = _insertion_pass if attempt % 2 else _dive_pass
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
# Applies of the exact search before it forks the pair-bound helper. Its
# applies and those of the pair searches each take about 10 us (the six
# pairs of the 5x4 seed-42 corridor: 32,330 applies in 0.34 s, same machine),
# so a search that closes sooner, or a node budget under this, leaves at most
# about 10 ms of pair work, a few forks' worth, which the parent spends inline.
_PAIR_FORK_NODES = 1_000


def _forkable() -> bool:
    """`os.fork` exists and the process has one thread: a fork copies only
    the calling thread, so a lock another thread holds would stay held in
    the child."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _can_fork() -> bool:
    """The process is `_forkable` and a second CPU is usable, so that a
    helper runs beside it rather than taking turns with it."""
    if not _forkable():
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1


class _Helper:
    """A forked copy of the solving process that runs `run()`, sends the
    result back through a pipe as one pickle and reads nothing from the
    parent. It always ends in `os._exit`, so it runs no exit handler and
    never flushes the parent's stdio. `join` waits for it; `close` kills
    it unless reaped. It serves two solves: `solve_heuristic`'s helper runs
    every other pair of restarts, and `solve_exact`'s the pair searches of
    `_pair_bound`, whose bound it returns; the exact search's parent joins
    it only when its own search was truncated, and kills it when the search
    closed. If the parent dies first, the helper stops before its next
    restart or pair search. The modules only a helper needs are imported
    where it uses them, so a process that never forks one does not load
    them."""

    def __init__(self, pid: int, results_fd: int):
        self.pid = pid
        self._results = os.fdopen(results_fd, "rb")
        self._reaped = False
        self.results: list[_Attempt] | int | None = None

    @classmethod
    def fork(cls, run: Callable[[], list[_Attempt] | int]) -> "_Helper | None":
        """Start a helper; None when the fork fails."""
        results_r, results_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (results_r, results_w):
                os.close(fd)
            return None
        if pid:
            os.close(results_w)
            return cls(pid, results_r)
        code = 1
        try:
            import pickle
            os.close(results_r)
            results = run()
            with os.fdopen(results_w, "wb") as pipe:
                pickle.dump(results, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)

    def poll(self) -> list[_Attempt] | int | None:
        """The helper's results once it has sent them, without waiting for
        them; None before, and when it failed."""
        import select
        if not self._reaped and select.select([self._results], [], [], 0)[0]:
            self._collect()
        return self.results

    def join(self) -> list[_Attempt] | int | None:
        """Wait for the helper's results and reap it. None when it failed:
        a non-zero exit or a truncated payload."""
        if not self._reaped:
            self._collect()
        return self.results

    def _collect(self) -> None:
        # Read to the end before waiting: a payload larger than the pipe
        # holds keeps the helper from exiting until it is read.
        import pickle
        payload = self._results.read()
        _, status = os.waitpid(self.pid, 0)
        self._reaped = True
        if status == 0:
            try:
                self.results = pickle.loads(payload)
            except (EOFError, pickle.UnpicklingError):
                pass

    def close(self) -> None:
        """Kill and reap the helper unless reaped; close the pipe."""
        if not self._reaped:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self._reaped = True
        self._results.close()


def solve_heuristic(instance: Instance, *, time_limit: float | None = None,
                    seed: int = 0, max_restarts: int | None = None) -> SolveReport:
    """Seeded restarts of two passes over one dispatcher: even passes run
    `_dive_pass`, the exact search's earliest-start order as one
    backtracking-limited dive, and odd passes `_insertion_pass`, which
    merges one train's route at a time. Restarts re-jitter each train's
    start in the dive and its entry order and route choices in the
    insertion (the first pass of each kind runs with jitter span 0),
    keeping the best solution found, and stop early once the best reaches
    the lower bound of the empty schedule (the exact search's root bound).
    Deterministic for a fixed seed and restart budget. Never claims
    optimality, not even at that bound. The exact search takes its first
    incumbent from passes 0 and 1.

    Pass 0 runs inline. If it took longer than forking costs
    (`_FORK_COST`), more than one CPU is usable, the process has one thread,
    neither the deadline nor the root bound has stopped the solve, and
    attempts 3 and up are in the budget, a forked `_Helper` takes every
    other pair of attempts (see `_dealt`) on its copy of the dispatcher;
    under a time limit both processes stride through their pairs to the
    deadline. The helper's share stops before its next attempt once the
    parent is gone. The parent's share stops before any attempt beyond one
    at the root bound in the helper's results. At a bound in its own share,
    the parent takes the helper's results if they have arrived, or else kills
    the helper and runs the helper's attempts below the bound itself, as
    after a helper failure: so it never waits on a running pass, and spends
    at most about what one process spends up to that attempt. The parent
    merges the results in attempt order by the rule of a one-process run:
    the first strict improvement wins, `nodes` sums the applies of both
    processes, and the run ends at the first attempt that reaches the root
    bound. Without a deadline the report is the one a single process gives.
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
        parent = os.getpid()
        # Once the parent is gone the helper is re-parented: it then stops
        # before its next pass instead of running on to its budget.
        helper = _Helper.fork(lambda: run(
            _dealt(1, 2, max_restarts),
            cut=lambda: _INF if os.getppid() == parent else 0))
    if helper is None:
        results += run(_dealt(0, 1, max_restarts), cut=lambda: cut(results))
    else:
        try:
            mine = run(_dealt(0, 2, max_restarts),
                       cut=lambda: cut(helper.poll()))
            theirs = helper.join() if cut(mine) == _INF else helper.poll()
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
