"""Schedulers: fixed-order evaluation, exact branch and bound against the
brute-force reference, and the restart heuristic."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pickle
import random
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

import oracles
from builders import (random_instance, random_reduced_instance,
                      random_reduced_train, random_train)
from conftest import data_text
import displib.solve
from displib import cli
from displib.core import (
    Instance,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    Solution,
    build_instance,
    enumerate_routes,
)
from displib.fileformat import parse_instance
from displib.generate import LineSpec, generate_line
from displib.solve import (
    _FREE,
    _OK,
    SolveStatus,
    _Dispatcher,
    _attempts,
    _branch_moves,
    _depth_first,
    _insertion_pass,
    _released,
    _replay,
    earliest_times,
    solve_exact,
    solve_heuristic,
)
from displib.verify import evaluate_objective, verify

GOLDEN_ROUTES = [[0, 2, 3], [0, 1, 2]]
GOLDEN_ORDER = [(0, 0), (1, 0), (0, 2), (1, 1), (1, 2), (0, 3)]


def chain(*durations, resources=(), lb=0, ub=None):
    ops = []
    for k, d in enumerate(durations):
        succ = (k + 1,) if k + 1 < len(durations) else ()
        ops.append(Operation(d, succ))
    if lb or ub is not None:
        ops[0] = Operation(ops[0].min_duration, ops[0].successors,
                           start_lb=lb, start_ub=ub, resources=resources)
    elif resources:
        ops[0] = Operation(ops[0].min_duration, ops[0].successors,
                           resources=resources)
    return ops


def dist_ahead(tab, last) -> int:
    """The shortest min_duration sum from a train's next operations to its
    exit, read from `dist`: the entry's before the train starts, else the
    last started operation's less its own duration."""
    return tab.dist[0] if last is None else tab.dist[last] - tab.dur[last]


def pinned_crossing() -> Instance:
    """Two trains forced to start at 0 on the same resource: no schedule."""
    def train():
        return [Operation(5, (1,), start_ub=0,
                          resources=(ResourceUsage("A"),)),
                Operation(0, ())]
    return build_instance([train(), train()])


def startable(disp):
    """Every move the dispatcher can make now: (train, op, start time)."""
    moves = []
    for i in range(disp.n_trains):
        if disp.ended[i]:
            continue
        for op in disp.candidates(i):
            status, t = disp.probe(i, op)
            if status == _OK:
                moves.append((i, op, t))
    return moves


def dispatcher_state(disp):
    """Everything a dispatcher's schedule consists of, bar its apply count."""
    return (list(disp.events), disp.floor, list(disp.last_op),
            list(disp.last_time), list(disp.ended), disp.n_ended,
            disp.z_partial, dict(disp.res))


def check_invariants(disp):
    """The facts the dispatcher does not store twice: the floor is the
    latest event's time (0 with none), and a resource is held exactly when
    the latest operation of its holder lists it."""
    assert disp.floor == (disp.events[-1][0] if disp.events else 0)
    held = {r: state[0] for r, state in disp.res.items()
            if state[0] is not None}
    assert held == {r: i for i, last in enumerate(disp.last_op)
                    if last is not None for r in disp.tables[i].keys[last]}


def bound_from_events(instance, events, honour_stamps=True):
    """The exact bound's remaining cost, recomputed from an event list alone.

    Each unfinished train is timed forward along every route through its
    scheduled prefix, from the latest event's time, its start_lb, its
    previous start plus min_duration, and the release stamps of its
    resources from other trains (unless honour_stamps is false): such a
    train's next start plus the release time. A component counts at its
    earliest start over the routes, and only on operations that every such
    route visits."""
    floor = events[-1][0] if events else 0
    done: list[list[tuple[int, int]]] = [[] for _ in instance.trains]
    for t, i, op in events:
        done[i].append((t, op))
    stamps: dict[str, list[tuple[int, int]]] = {}
    for i, seq in enumerate(done):
        for (_, op), (t_next, _) in zip(seq, seq[1:]):
            for usage in instance.trains[i].operations[op].resources:
                stamps.setdefault(usage.resource, []).append(
                    (i, t_next + usage.release_time))
    cost = 0
    for i, train in enumerate(instance.trains):
        ops = train.operations
        prefix = tuple(op for _, op in done[i])
        if prefix and not ops[prefix[-1]].successors:
            continue
        routes = [r[len(prefix):] for r in enumerate_routes(train).routes
                  if r[:len(prefix)] == prefix]
        starts: dict[int, int] = {}
        for rest in routes:
            prev = done[i][-1] if prefix else None
            for k in rest:
                t = max(floor, ops[k].start_lb)
                if prev is not None:
                    t = max(t, prev[0] + ops[prev[1]].min_duration)
                if honour_stamps:
                    t = max([t] + [s for usage in ops[k].resources
                                   for j, s in stamps.get(usage.resource, ())
                                   if j != i])
                starts[k] = min(starts.get(k, t), t)
                prev = (t, k)
        unavoidable = set.intersection(*(set(rest) for rest in routes))
        for comp in instance.objective:
            if comp.train == i and comp.operation in unavoidable:
                cost += comp.cost(starts[comp.operation])
    return cost


def sub_instance(instance, *trains):
    """The given trains of the instance alone, re-indexed in that order,
    with their objective components."""
    index = {i: k for k, i in enumerate(trains)}
    return build_instance(
        [instance.trains[i].operations for i in trains],
        [replace(c, train=index[c.train]) for c in instance.objective
         if c.train in index])


def pair_bound_oracle(instance, cap):
    """The pair bound of a run capped at `cap` nodes, from sub-instances:
    each train's single bound is the root bound of the train alone; each
    pair with a costly train is solved in (i, j) order with what the cap
    leaves of its applies, and counts at its optimum when it closes and at
    its own bound when it does not (skipped when infeasible). Pairs are
    matched greedily, largest gain over their singles first, and the bound
    is the sum of the singles plus the matched gains."""
    n = len(instance.trains)
    costly = {c.train for c in instance.objective}
    single = [_Dispatcher(sub_instance(instance, i)).bound() for i in range(n)]
    gains = []
    for i in range(n):
        for j in range(i + 1, n):
            if not costly & {i, j} or cap <= 0:
                continue
            report = solve_exact(sub_instance(instance, i, j), node_limit=cap)
            cap -= report.nodes - (report.status not in (
                SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE))
            if report.status is not SolveStatus.INFEASIBLE:
                gains.append((report.bound - single[i] - single[j], i, j))
    matched, bound = set(), sum(single)
    for gain, i, j in sorted(gains, key=lambda g: -g[0]):
        if gain > 0 and not matched & {i, j}:
            matched |= {i, j}
            bound += gain
    return bound


class TestEarliestTimes:
    def test_golden_order(self, junction):
        times = earliest_times(junction, GOLDEN_ROUTES, GOLDEN_ORDER)
        assert times == [0, 0, 5, 5, 10, 10]
        assert evaluate_objective(junction, dict(zip(GOLDEN_ORDER, times))) == 10

    def test_blocked_order_returns_none(self, junction):
        # Train 1 tries to enter L while train 0 still holds it.
        order = [(0, 0), (1, 0), (1, 1), (0, 2), (1, 2), (0, 3)]
        assert earliest_times(junction, GOLDEN_ROUTES, order) is None

    def test_deadlocked_route_pair(self, junction):
        # With train 0 routed over R1 both trains start pinned at 0 and each
        # waits on the resource the other holds; no order can schedule this.
        order = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (0, 3)]
        assert earliest_times(junction, [[0, 1, 3], [0, 1, 2]], order) is None

    def test_reordered_exit_events(self, junction):
        order = [(1, 0), (0, 0), (0, 2), (1, 1), (0, 3), (1, 2)]
        times = earliest_times(junction, GOLDEN_ROUTES, order)
        assert times == [0, 0, 5, 5, 10, 10]
        assert evaluate_objective(junction, dict(zip(order, times))) == 10

    def test_single_chain(self):
        instance = build_instance([chain(5, 5, 0)])
        times = earliest_times(instance, [[0, 1, 2]],
                               [(0, 0), (0, 1), (0, 2)])
        assert times == [0, 5, 10]

    def test_start_lb_pushes_later_events(self):
        instance = build_instance([chain(2, 0, lb=7)])
        times = earliest_times(instance, [[0, 1]], [(0, 0), (0, 1)])
        assert times == [7, 9]

    def test_route_errors(self, junction):
        with pytest.raises(ValueError, match="one route per train"):
            earliest_times(junction, [[0, 1, 2]], GOLDEN_ORDER)
        with pytest.raises(ValueError, match="one route per train"):
            earliest_times(junction, [GOLDEN_ROUTES[0]], GOLDEN_ORDER)
        # 1 -> 2 is no arc of train 0.
        with pytest.raises(ValueError, match="train 0: .* is not a route"):
            earliest_times(junction, [[0, 1, 2], GOLDEN_ROUTES[1]], GOLDEN_ORDER)

    def test_order_errors(self, junction):
        with pytest.raises(ValueError):
            earliest_times(junction, GOLDEN_ROUTES, GOLDEN_ORDER[:-1])
        bad = [(0, 0), (1, 0), (1, 1), (0, 2), (1, 2), (0, 2)]
        with pytest.raises(ValueError):
            earliest_times(junction, GOLDEN_ROUTES, bad)
        with pytest.raises(ValueError):
            earliest_times(junction, GOLDEN_ROUTES, [(2, 0)] + GOLDEN_ORDER)

    def test_minimality(self):
        """Every scheduled time sits on a constraint floor: lowering any
        single event by one step always breaks feasibility."""
        rng = random.Random(23)
        checked = 0
        for _ in range(30):
            instance = random_instance(rng, max_trains=3, max_ops=5)
            report = solve_exact(instance, node_limit=200_000)
            if report.solution is None:
                continue
            solution = report.solution
            assert verify(instance, solution).feasible
            for k, ev in enumerate(solution.events):
                lowered = list(solution.events)
                lowered[k] = type(ev)(ev.time - 1, ev.train, ev.operation)
                mutant = type(solution)(solution.objective_value,
                                        tuple(lowered))
                assert not verify(instance, mutant).feasible
                checked += 1
        assert checked > 50


def rescan_allows_splice(disp, depth):
    """Whether `splice(depth)` may take the event at depth back, by a full
    rescan of the events above it: none is of the same train, none's undo
    record touches a resource the event's record touches, and the next one
    starts strictly later."""
    events, records = disp.events, disp._undo
    t, train, _ = events[depth]
    if depth + 1 < len(events) and events[depth + 1][0] <= t:
        return False
    touched = {r for r, *_ in records[depth][2]}
    return not any(events[k][1] == train
                   or any(r in touched for r, *_ in records[k][2])
                   for k in range(depth + 1, len(events)))


def rescan_first_dependent(disp, depth):
    """The first event above depth that depends on the event there, by a
    full rescan (the length of the event list when none does): one of the
    same train, one whose undo record touches a resource the event's record
    touches, or the next one when it starts at the same time."""
    events, records = disp.events, disp._undo
    t, train, _ = events[depth]
    touched = {r for r, *_ in records[depth][2]}
    for k in range(depth + 1, len(events)):
        if (events[k][1] == train or k == depth + 1 and events[k][0] <= t
                or any(r in touched for r, *_ in records[k][2])):
            return k
    return len(events)


class TestDispatcher:
    def test_rewind_restores_the_replayed_state(self):
        """Walk forward by random moves, rewind to a random depth and walk on;
        after each rewind the state equals a fresh dispatcher's that applied
        the kept events. In the hand-built instance train 0 claims A on two
        consecutive operations, so one apply changes A twice, and train 1
        also runs on A."""
        a = (ResourceUsage("A", 3),)
        twice = [Operation(2, (1,), resources=a),
                 Operation(2, (2,), resources=(ResourceUsage("A", 5),)),
                 Operation(0, ())]
        other = [Operation(1, (1,), resources=(ResourceUsage("A", 4),)),
                 Operation(0, ())]
        rng = random.Random(29)
        instances = [build_instance([twice, other],
                                    [ObjectiveComponent(1, 1, threshold=0,
                                                        coeff=1)])] * 10
        instances += [random_instance(rng, max_trains=3, max_ops=6)
                      for _ in range(150)]
        undone = 0
        for instance in instances:
            for _ in range(4):
                disp = _Dispatcher(instance)
                for _ in range(3):
                    moves = startable(disp)
                    while moves:
                        disp.apply(*rng.choice(moves))
                        check_invariants(disp)
                        moves = startable(disp)
                    depth = rng.randint(0, len(disp.events))
                    undone += len(disp.events) - depth
                    kept = disp.events[:depth]
                    if len(disp.events) > depth:
                        disp.undo()
                        check_invariants(disp)
                    disp.rewind(depth)
                    check_invariants(disp)
                    fresh = _Dispatcher(instance)
                    for t, i, op in kept:
                        fresh.apply(i, op, t)
                    assert dispatcher_state(disp) == dispatcher_state(fresh)
        assert undone > 4000

    def test_splice_matches_replay(self):
        """Walk forward by random moves and splice events out at random
        depths. A splice leaves the state of a fresh dispatcher that probed
        every remaining event to the same time: those below the event and
        those above it up to the first one it took back with it. Rewinding
        afterwards, to a random depth and to 0, still restores the replayed
        state, so the undo records stay exact. In the hand-built instance
        train 0 releases A to train 1, and the three dependents taken back
        with the event are a later event of the same train, a later claim of
        the resource the event released, and a next event at the same
        time."""
        first = [Operation(1, (1,), resources=(ResourceUsage("A", 3),)),
                 Operation(2, (2,)), Operation(0, ())]
        second = [Operation(1, (1,)),
                  Operation(2, (2,), resources=(ResourceUsage("A", 4),)),
                  Operation(0, ())]
        hand_built = build_instance([first, second],
                                    [ObjectiveComponent(1, 1, threshold=0,
                                                        coeff=1)])

        def replayed(instance, events):
            fresh = _Dispatcher(instance)
            for t, i, op in events:
                assert fresh.probe(i, op) == (_OK, t)
                fresh.apply(i, op, t)
            return dispatcher_state(fresh)

        dependents = (([(0, 0), (0, 1), (0, 2)], 1),          # same train
                      ([(0, 0), (1, 0), (0, 1), (1, 1)], 2),  # released A
                      ([(0, 0), (1, 0)], 0))                  # same time
        for moves, depth in dependents:
            disp = _Dispatcher(hand_built)
            for i, op in moves:
                status, t = disp.probe(i, op)
                assert status == _OK
                disp.apply(i, op, t)
            kept = disp.events[:depth]
            assert disp.splice(depth) == 1
            assert dispatcher_state(disp) == replayed(hand_built, kept)

        rng = random.Random(31)
        instances = [hand_built] * 10
        instances += [random_instance(rng, max_trains=3, max_ops=6)
                      for _ in range(150)]
        spliced = cut = 0
        for instance in instances:
            for _ in range(4):
                disp = _Dispatcher(instance)
                for _ in range(3):
                    moves = startable(disp)
                    while moves:
                        disp.apply(*rng.choice(moves))
                        check_invariants(disp)
                        moves = startable(disp)
                    for _ in range(4):
                        if not disp.events:
                            break
                        depth = rng.randrange(len(disp.events))
                        events = list(disp.events)
                        taken = disp.splice(depth)
                        check_invariants(disp)
                        kept = (events[:depth]
                                + events[depth + 1:len(events) - taken])
                        assert dispatcher_state(disp) == replayed(instance, kept)
                        spliced += not taken
                        cut += taken > 0
                    depth = rng.randint(0, len(disp.events))
                    kept = disp.events[:depth]
                    if len(disp.events) > depth:
                        disp.undo()
                        check_invariants(disp)
                    disp.rewind(depth)
                    check_invariants(disp)
                    assert dispatcher_state(disp) == replayed(instance, kept)
                disp.rewind(0)
                check_invariants(disp)
                assert dispatcher_state(disp) == dispatcher_state(
                    _Dispatcher(instance))
        assert spliced > 1000 and cut > 1000

    def test_splice_agrees_with_a_full_rescan(self):
        """Drive random apply, undo and splice sequences. `splice` returns 0
        exactly when `rescan_allows_splice` accepts, and otherwise the
        number of events from `rescan_first_dependent` on. In every case it
        leaves the state a fresh `_replay` of the remaining order reaches,
        resource states compared by value, and that order is the old one
        without the event and without the events it took back. Over 500 of
        the splices that take back nothing else leave events above the one
        taken back, and over 250 of those that take back more keep some
        events above it."""
        rng = random.Random(43)
        accepted = refused = buried = kept_above = 0
        for _ in range(800):
            instance = random_instance(rng, max_trains=5, max_ops=8)
            disp, fresh = _Dispatcher(instance), _Dispatcher(instance)
            for _ in range(100):
                moves = startable(disp)
                roll = rng.random()
                if moves and (roll < 0.6 or not disp.events):
                    disp.apply(*rng.choice(moves))
                elif not disp.events:
                    break
                elif roll < 0.7:
                    disp.undo()
                else:
                    depth = rng.randrange(len(disp.events))
                    allowed = rescan_allows_splice(disp, depth)
                    cut = rescan_first_dependent(disp, depth)
                    events = list(disp.events)
                    taken = disp.splice(depth)
                    assert (taken == 0) == allowed
                    assert taken == len(events) - cut
                    assert disp.events == events[:depth] + events[depth + 1:cut]
                    # A rewind to 0 leaves the empty schedule (see
                    # test_bulk_rewind_matches_one_undo_at_a_time).
                    fresh.rewind(0)
                    assert _replay(fresh, [(i, op) for _, i, op in disp.events])
                    assert dispatcher_state(disp) == dispatcher_state(fresh)
                    if allowed:
                        accepted += 1
                        buried += cut > depth + 1
                    else:
                        refused += 1
                        kept_above += cut > depth + 1
                check_invariants(disp)
        assert accepted > 1000 and refused > 1000
        assert buried > 500 and kept_above > 250

    def test_bulk_rewind_matches_one_undo_at_a_time(self):
        """Twin dispatchers take the same random apply, splice and undo
        walk. At random points one rewinds in bulk and the other by `undo()`
        calls, to a random depth or to 0. Every field of the two then
        matches, and so does the probe of every candidate; the walk goes on,
        so later splices also see the states a rewind restored."""
        rng = random.Random(47)
        to_zero = partial = 0
        for _ in range(400):
            instance = random_instance(rng, max_trains=5, max_ops=8)
            bulk, single = _Dispatcher(instance), _Dispatcher(instance)
            for _ in range(80):
                moves = startable(bulk)
                roll = rng.random()
                if moves and (roll < 0.6 or not bulk.events):
                    move = rng.choice(moves)
                    bulk.apply(*move)
                    single.apply(*move)
                elif not bulk.events:
                    break
                elif roll < 0.7:
                    bulk.undo()
                    single.undo()
                elif roll < 0.85:
                    depth = rng.randrange(len(bulk.events))
                    assert bulk.splice(depth) == single.splice(depth)
                else:
                    depth = rng.choice((0, rng.randint(0, len(bulk.events))))
                    to_zero += depth == 0 < len(bulk.events)
                    partial += 0 < depth < len(bulk.events)
                    bulk.rewind(depth)
                    while len(single.events) > depth:
                        single.undo()
                    assert len(bulk.events) == depth
                    for field in ("res", "last_op", "last_time", "ended",
                                  "n_ended", "floor", "z_partial", "events",
                                  "_undo"):
                        assert getattr(bulk, field) == getattr(single, field)
                    check_invariants(bulk)
                    for i in range(bulk.n_trains):
                        for op in bulk.candidates(i):
                            assert bulk.probe(i, op) == single.probe(i, op)
        assert to_zero > 2000 and partial > 500

    def test_released_waits_for_the_best_stamp_of_another_train(self):
        """Fold random (train, stamp) releases into one resource state. After
        each, every train waits for the largest stamp any other train
        released (0 with none), whichever branch of `_released` ran; the one
        that keeps stamp1 and raises only stamp2 runs too."""
        rng = random.Random(37)
        middle = 0
        for _ in range(2000):
            state = _FREE
            best: dict[int, int] = {}
            for _ in range(rng.randint(1, 10)):
                train, stamp = rng.randrange(4), rng.randint(0, 20)
                _, stamp1, train1, stamp2 = state
                middle += train != train1 and stamp2 < stamp < stamp1
                state = _released(state, stamp, train)
                best[train] = max(best.get(train, 0), stamp)
                _, stamp1, train1, stamp2 = state
                for j in range(5):
                    wait = stamp2 if train1 == j else stamp1
                    assert wait == max((s for i, s in best.items() if i != j),
                                       default=0)
        assert middle > 500

    def test_clock_is_read_every_256_applies(self):
        """Past its deadline, the dispatcher expires at the 256th apply, not
        before; without one it never does."""
        instance = build_instance([chain(*[1] * 600)])
        for deadline, expiry in ((None, None), (time.monotonic() - 1, 256)):
            disp = _Dispatcher(instance, deadline)
            for k in range(600):
                _, t = disp.probe(0, k)
                disp.apply(0, k, t)
                assert disp.expired == (expiry is not None and k + 1 >= expiry)

    def test_tables_follow_the_shortest_remaining_path(self):
        """`dist` is the least min_duration sum from an operation to the exit
        over the suffixes of its routes."""
        rng = random.Random(23)
        checked = 0
        for _ in range(200):
            instance = random_instance(rng, max_trains=3, max_ops=8)
            disp = _Dispatcher(instance)
            for train, tab in zip(instance.trains, disp.tables):
                dur = [op.min_duration for op in train.operations]
                routes = enumerate_routes(train).routes
                for k in range(len(dur)):
                    suffixes = {r[r.index(k):] for r in routes if k in r}
                    assert tab.dist[k] == min(sum(dur[o] for o in s[:-1])
                                              for s in suffixes)
                    checked += 1
        assert checked > 1000


def train_order(disp):
    """`_branch_moves` unsorted, in train and then operation order, as
    `_depth_first` takes them."""
    return lambda: iter(_branch_moves(disp, None))


class TestDepthFirst:
    """The one backtracking loop: a budget stops it rewound to the empty
    schedule and returns True; a first leaf stays applied."""

    def test_node_limit_stops_before_the_next_apply(self, junction):
        empty = dispatcher_state(_Dispatcher(junction))
        for cap in (0, 1, 3):
            disp = _Dispatcher(junction)
            assert _depth_first(disp, train_order(disp), first_leaf=False,
                                node_limit=cap)
            assert disp.applies == cap
            assert dispatcher_state(disp) == empty

    def test_backtrack_limit_stops_at_the_first_dead_end(self):
        """On the pinned crossing the dive in train order applies train 0's
        two operations and then finds train 1's window overrun: with no
        take-back allowed the loop stops there; with any number it runs to
        exhaustion, which is not a budget stop."""
        instance = pinned_crossing()
        empty = dispatcher_state(_Dispatcher(instance))
        for limit, stopped, applies in ((0, True, 2), (None, False, 4)):
            disp = _Dispatcher(instance)
            assert _depth_first(disp, train_order(disp), first_leaf=True,
                                backtrack_limit=limit) is stopped
            assert disp.applies == applies
            assert dispatcher_state(disp) == empty

    def test_spent_deadline_stops_within_256_applies(self):
        instance = build_instance([chain(*[1] * 600)])
        disp = _Dispatcher(instance, time.monotonic() - 1)
        assert _depth_first(disp, train_order(disp), first_leaf=True)
        assert disp.applies == 256
        assert dispatcher_state(disp) == dispatcher_state(
            _Dispatcher(instance))

    def test_levels_deeper_than_the_recursion_limit(self):
        """The loop keeps its levels on an explicit stack, so a schedule of
        1,500 events, deeper than Python's default recursion limit of 1,000,
        is reached as a first leaf and, without `first_leaf`, exhausted and
        rewound to the empty schedule."""
        instance = build_instance([chain(*[1] * 1500)])
        disp = _Dispatcher(instance)
        assert not _depth_first(disp, train_order(disp), first_leaf=True)
        assert disp.done() and len(disp.events) == 1500
        disp = _Dispatcher(instance)
        assert not _depth_first(disp, train_order(disp), first_leaf=False)
        assert disp.applies == 1500
        assert dispatcher_state(disp) == dispatcher_state(
            _Dispatcher(instance))

    def test_first_leaf_stays_applied(self, junction):
        disp = _Dispatcher(junction)
        assert not _depth_first(disp, train_order(disp), first_leaf=True)
        assert disp.done()
        check_invariants(disp)
        verdict = verify(junction, disp.to_solution())
        assert verdict.feasible
        assert verdict.computed_objective == disp.z_partial

    def test_exhaustion_visits_every_leaf_and_rewinds(self, junction):
        """Without a bound the loop visits each complete event order once:
        the junction's every route pair and feasible interleaving."""
        disp = _Dispatcher(junction)
        leaves = []

        def moves():
            if disp.done():
                leaves.append(tuple(disp.events))
            return iter(_branch_moves(disp, None))

        assert not _depth_first(disp, moves, first_leaf=False)
        assert dispatcher_state(disp) == dispatcher_state(
            _Dispatcher(junction))
        assert len(leaves) == len(set(leaves)) > 1
        for events in leaves:
            fresh = _Dispatcher(junction)
            for _, i, op in events:
                status, t = fresh.probe(i, op)
                assert status == _OK
                fresh.apply(i, op, t)
            assert fresh.done() and tuple(fresh.events) == events

    def test_no_trains(self):
        """An instance without trains is a complete schedule already: both
        solvers return it at objective 0 without a node."""
        instance = build_instance([])
        exact = solve_exact(instance)
        assert (exact.status, exact.nodes, exact.bound) == (
            SolveStatus.OPTIMAL, 0, 0)
        heuristic = solve_heuristic(instance)
        assert (heuristic.status, heuristic.nodes) == (SolveStatus.FEASIBLE, 0)
        for report in (exact, heuristic):
            assert report.solution.objective_value == 0
            assert report.solution.events == ()


class TestSolveExact:
    def test_junction_optimal(self, junction):
        """The warm start's schedule costs the root bound, 10, so the root
        is pruned and the search closes without a node."""
        report = solve_exact(junction)
        assert (report.status, report.solution.objective_value, report.nodes,
                report.bound) == (SolveStatus.OPTIMAL, 10, 0, 10)
        verdict = verify(junction, report.solution)
        assert verdict.feasible and verdict.computed_objective == 10

    def test_single_chain_with_cost(self):
        comp = ObjectiveComponent(0, 2, threshold=0, coeff=1)
        instance = build_instance([chain(5, 5, 0)], [comp])
        report = solve_exact(instance)
        assert report.status is SolveStatus.OPTIMAL
        assert report.solution.objective_value == 10

    def test_infeasible_crossing(self):
        report = solve_exact(pinned_crossing())
        assert report.status is SolveStatus.INFEASIBLE
        assert report.solution is None
        assert report.bound is None

    def test_budget_never_claims_certainty(self):
        line = generate_line(LineSpec(num_stations=3, num_trains=3, seed=0))
        report = solve_exact(line.instance, node_limit=1)
        assert report.status is SolveStatus.FEASIBLE
        assert report.nodes == 2
        assert report.bound is not None
        assert report.bound <= 298
        # A capped run's bound must hold for the whole tree, including the
        # root branches the search never reached. The warm start closes
        # most draws at the root, so it takes 300 of them to cap 100 runs.
        rng = random.Random(1)
        capped = 0
        for _ in range(300):
            instance = random_instance(rng, max_trains=3, max_ops=6)
            full = solve_exact(instance)
            for cap in (1, 2, 5, 10, 30):
                report = solve_exact(instance, node_limit=cap)
                if report.nodes <= cap:
                    assert report == full
                    continue
                assert report.status in (SolveStatus.FEASIBLE,
                                         SolveStatus.TIMEOUT_NO_SOLUTION)
                assert report.bound is not None
                if full.status is SolveStatus.OPTIMAL:
                    assert report.bound <= full.solution.objective_value
                capped += 1
        assert capped > 100

    def test_capped_corridor_search_verifies(self):
        """At 2,000 nodes the search of the 30x20 corridor, 1,200 events
        per schedule, is truncated and returns a solution the verifier
        accepts."""
        line = generate_line(LineSpec(num_stations=30, num_trains=20, seed=7))
        report = solve_exact(line.instance, node_limit=2000)
        assert report.status is SolveStatus.FEASIBLE
        assert (report.nodes, report.bound) == (2001, 0)
        assert len(report.solution.events) == 1200
        assert report.solution.objective_value == 821_494
        verdict = verify(line.instance, report.solution)
        assert verdict.feasible
        assert verdict.computed_objective == 821_494

    @pytest.mark.parametrize("stations, objective, index_order_nodes",
                             [(3, 298, 9_888), (4, 221, 78_254)])
    def test_earliest_start_first_closes_small_corridors(
            self, stations, objective, index_order_nodes):
        """The seed-0 corridors close at their optimum in at most a third of
        the nodes that a search branching in train-index order needs: in
        2,814 and 3,467 nodes."""
        nodes = {3: 2_814, 4: 3_467}[stations]
        line = generate_line(LineSpec(num_stations=stations, num_trains=3,
                                      seed=0))
        report = solve_exact(line.instance)
        assert report.status is SolveStatus.OPTIMAL
        assert report.solution.objective_value == report.bound == objective
        assert report.nodes == nodes <= index_order_nodes // 3
        assert verify(line.instance, report.solution).feasible

    def test_capped_desk_scale_corridor_reaches_the_optimum(self):
        """At 100k nodes the 5x4 seed-42 corridor, which the search cannot
        close, holds the optimum HiGHS proves on its integer program. Its
        root bound is 0; the pair bound proves 265: all six pairs close, and
        the matching {2, 3} + {0, 1} adds 218 + 47."""
        golden = json.loads(data_text("line_5x4_seed42.json"))
        line = generate_line(LineSpec(**golden["line"]))
        report = solve_exact(line.instance, node_limit=100_000)
        assert report.status is SolveStatus.FEASIBLE
        assert (report.nodes, report.bound) == (100_001, 265)
        assert _Dispatcher(line.instance).bound() == 0
        assert report.solution.objective_value == golden["optimal_objective"]
        verdict = verify(line.instance, report.solution)
        assert verdict.feasible
        assert verdict.computed_objective == golden["optimal_objective"]

    def test_budget_in_each_pass(self):
        """The warm start's passes run whatever the cap, so a cap anywhere
        in the search, 0 included, leaves a solution no worse than the warm
        start's, which on the 3x3 seed-1 corridor costs 439 against the
        optimum of 372; the search improves on it below its last node.
        No capped run claims certainty. Each reports the larger of the root
        bound and the pair bound, which the test computes from the three
        two-train sub-instances (`pair_bound_oracle`); it rises above the
        root bound at least twice."""
        line = generate_line(LineSpec(num_stations=3, num_trains=3, seed=1))
        disp = _Dispatcher(line.instance)
        root = disp.bound()
        warm = min(a.objective for a in _attempts(
            disp, (0, 1), seed=0, jitter_span=0, root_bound=root))
        full = solve_exact(line.instance)
        assert root == 0
        assert full.solution.objective_value == 372 < warm == 439
        rose = improved = 0
        for cap in (0, 1, full.nodes // 2, full.nodes - 1):
            report = solve_exact(line.instance, node_limit=cap)
            assert report.status is SolveStatus.FEASIBLE
            expected = max(root, pair_bound_oracle(line.instance, cap))
            assert (report.nodes, report.bound) == (cap + 1, expected)
            assert report.bound <= full.solution.objective_value
            rose += expected > root
            assert report.solution.objective_value <= warm
            improved += report.solution.objective_value < warm
            verdict = verify(line.instance, report.solution)
            assert verdict.feasible
            assert verdict.computed_objective == report.solution.objective_value
            if cap == 0:
                assert report.solution.objective_value == warm
        assert rose >= 2 and improved >= 1
        assert solve_exact(line.instance,
                           node_limit=full.nodes) == full

    def test_pair_bound_never_passes_the_optimum(self):
        """The pair bound, its pairs solved without a budget, never exceeds
        the optimum that the exact search proves, and neither does the bound
        of a run capped at 100 nodes, which equals the larger of the root
        bound and `pair_bound_oracle`. The cases are the 3x3 corridors of
        seeds 0-7 and the 4x3 ones of seeds 0 and 2, and 3- and 4-train
        random draws; 4-train and 5-station corridors of seeds 0-7 do not
        close in 60,000 nodes (the 5x4 seed-42 bound is checked against the
        HiGHS optimum in the desk-scale test above). The optimum comes from
        a run capped at 13,000 nodes:
        one that ends Optimal is the unbudgeted run, and a draw that does
        not close by then is not counted. The pair bound lies strictly above
        the root bound on every corridor, whose root bound is 0, and on at
        least 2 draws. A stop that fires at once solves no pair and leaves
        the sum of the single-train bounds, the root bound."""
        corridors = [generate_line(LineSpec(num_stations=stations,
                                            num_trains=3, seed=seed)).instance
                     for stations, seeds in ((3, range(8)), (4, (0, 2)))
                     for seed in seeds]
        rng = random.Random(61)
        draws = []
        while len(draws) < 64:
            draw = random_reduced_instance if len(draws) % 2 else random_instance
            instance = draw(rng, max_trains=4, max_ops=5)
            if len(instance.trains) >= 3:
                draws.append(instance)
        checked = tighter = 0
        for instance in corridors + draws:
            full = solve_exact(instance, node_limit=13_000)
            if full.status is not SolveStatus.OPTIMAL:
                assert instance in draws
                continue
            disp = _Dispatcher(instance)
            root = disp.bound()
            singles = {i: disp._train_bound(i)[0] for i in disp.comp_trains}
            assert sum(singles.values()) == root
            pair = displib.solve._pair_bound(instance, singles, None, None)
            assert root <= pair <= full.solution.objective_value
            assert displib.solve._pair_bound(instance, singles, None, None,
                                             stop=lambda: True) == root
            capped = solve_exact(instance, node_limit=100)
            if capped.nodes > 100:
                assert capped.bound == max(root,
                                           pair_bound_oracle(instance, 100))
                assert capped.bound <= full.solution.objective_value
            checked += 1
            tighter += pair > root
            if instance in corridors:
                assert root == 0 < pair
        assert checked >= 65 and tighter >= len(corridors) + 2

    def test_capped_reports_are_the_same_with_and_without_the_helper(
            self, monkeypatch, forks):
        """Capped reports are the same with `_forkable` patched to False and
        with one usable CPU, where the helper still forks, once per run at
        the root, and never when `_forkable` is False. It is killed when the
        search closes, here after more applies than either cap of the
        truncated runs, falls back to the parent when it fails, and no child
        is left."""
        caps = (999, 1_000)
        cases = [(generate_line(LineSpec(num_stations=stations,
                                         num_trains=trains,
                                         seed=seed)).instance, cap)
                 for stations, trains, seed in ((3, 4, 0), (4, 4, 1),
                                                (5, 3, 1))
                 for cap in caps]
        closes = generate_line(LineSpec(num_stations=3, num_trains=3,
                                        seed=0)).instance
        cases.append((closes, 1_000_000))
        reports, rose = [], 0
        forkable = displib.solve._forkable
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        for instance, cap in cases:
            monkeypatch.setattr(displib.solve, "_forkable", lambda: False)
            inline = solve_exact(instance, node_limit=cap)
            assert not forks
            monkeypatch.setattr(displib.solve, "_forkable", forkable)
            shared = solve_exact(instance, node_limit=cap)
            assert len(forks) == 1
            forks.clear()
            assert shared == inline
            reports.append(inline)
            rose += inline.bound > _Dispatcher(instance).bound()
        assert reports[-1] == solve_exact(closes)
        assert reports[-1].nodes > max(caps)
        assert rose >= 5
        failing_forks(monkeypatch)
        instance, cap = cases[-2]
        assert solve_exact(instance, node_limit=cap) == reports[-2]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_warm_start_at_the_root_bound_forks_no_helper(self, forks):
        """Three costly trains on their own resources: the warm start's
        schedule costs the root bound, 10, so a capped run closes at the
        root without a node, and forks no pair helper that it would only
        kill."""
        comps = [ObjectiveComponent(0, 1, threshold=0, coeff=1),
                 ObjectiveComponent(1, 1, threshold=0, coeff=1),
                 ObjectiveComponent(2, 0, threshold=0, coeff=0, increment=1)]
        instance = build_instance(
            [chain(2, 3, lb=4, resources=(ResourceUsage("A"),)),
             chain(1, 1, lb=2, resources=(ResourceUsage("B"),)),
             chain(5, resources=(ResourceUsage("C"),))], comps)
        assert _Dispatcher(instance).bound() == 10
        for cap in (0, 1_000):
            report = solve_exact(instance, node_limit=cap, time_limit=60)
            assert (report.status, report.solution.objective_value,
                    report.nodes, report.bound) == (
                        SolveStatus.OPTIMAL, 10, 0, 10)
        assert not forks

    def test_one_core_time_limit_runs_the_search_to_the_deadline(
            self, monkeypatch, forks):
        """With one usable CPU a time-limited run still forks the pair
        helper, and the search runs to the deadline: on the 5x4 seed-42
        corridor, whose root bound is 0, a 2 s run returns after 2 s with a
        pair bound above 0 and a solution that verifies. When the helper
        fails, the parent's pair searches after its search find the
        deadline spent, so the run reports the root bound. No child is
        left."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        instance = generate_line(LineSpec(num_stations=5, num_trains=4,
                                          seed=42)).instance
        report = solve_exact(instance, time_limit=2)
        assert len(forks) == 1
        assert report.wall_time > 2
        assert report.status is SolveStatus.FEASIBLE
        assert report.bound > 0 == _Dispatcher(instance).bound()
        assert report.bound <= report.solution.objective_value
        verdict = verify(instance, report.solution)
        assert verdict.feasible
        assert verdict.computed_objective == report.solution.objective_value
        failing_forks(monkeypatch)
        report = solve_exact(instance, time_limit=1)
        assert report.wall_time > 1
        assert report.status is SolveStatus.FEASIBLE and report.bound == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_deterministic(self, junction):
        assert solve_exact(junction) == solve_exact(junction)

    def test_reports_compare_without_wall_time(self, junction):
        """Two reports equal but for `wall_time` are equal; a different
        `nodes` tells them apart."""
        report = solve_exact(junction)
        slower = replace(report, wall_time=report.wall_time + 1)
        assert slower == report
        assert replace(report, nodes=report.nodes + 1) != report

    def test_bound_charges_exactly_the_unavoidable_operations(self):
        """Below the root, the bound charges a component on operation k iff
        k lies on every route through the train's last started operation."""
        rng = random.Random(17)
        trains = [random_train(rng, 8) for _ in range(60)]
        trains += [random_reduced_train(rng, 8) for _ in range(60)]
        charged = avoided = 0
        for ops in trains:
            routes = enumerate_routes(build_instance([ops]).trains[0]).routes
            # Every prefix of a route, the empty one included.
            prefixes = {route[:m] for route in routes
                        for m in range(len(route))}
            for prefix in sorted(prefixes):
                through = [r for r in routes if r[:len(prefix)] == prefix]
                first = prefix[-1] + 1 if prefix else 0
                for k in range(first, len(ops)):
                    comp = ObjectiveComponent(0, k, threshold=0, coeff=0,
                                              increment=1)
                    disp = _Dispatcher(build_instance([ops], [comp]))
                    for op in prefix:
                        disp.apply(0, op, disp.probe(0, op)[1])
                    unavoidable = all(k in r for r in through)
                    assert disp.bound() - disp.z_partial == int(unavoidable)
                    charged += unavoidable
                    avoided += not unavoidable
        assert charged > 200 and avoided > 200

    def test_dist_gives_the_shortest_sum_to_an_unavoidable_operation(self):
        """The charge's lag: for every route prefix and every operation k on
        all routes through it, the shortest min_duration sum from the next
        operations to k, found by enumerating routes, is the shortest sum to
        the exit less dist[k]. Skip arcs and forks make many such k lie at
        different depths along the routes (`forked`)."""
        rng = random.Random(23)
        trains = [random_train(rng, 8) for _ in range(60)]
        trains += [random_reduced_train(rng, 8) for _ in range(60)]
        checked = forked = 0
        for ops in trains:
            instance = build_instance([ops])
            tab = _Dispatcher(instance).tables[0]
            routes = enumerate_routes(instance.trains[0]).routes
            prefixes = {route[:m] for route in routes
                        for m in range(len(route))}
            for prefix in sorted(prefixes):
                through = [r[len(prefix):] for r in routes
                           if r[:len(prefix)] == prefix]
                last = prefix[-1] if prefix else None
                for k in set(through[0]).intersection(*through):
                    shortest = min(sum(tab.dur[o] for o in r[:r.index(k)])
                                   for r in through)
                    assert shortest == dist_ahead(tab, last) - tab.dist[k]
                    checked += 1
                    forked += len({r.index(k) for r in through}) > 1
        assert checked > 1000 and forked > 200

    def test_bound_never_falls_along_a_path(self):
        """A truncated run reports the root's bound, which is valid because
        the bound never falls from a node to its child: check that on random
        walks of probe/apply."""
        rng = random.Random(41)
        instances = [random_instance(rng, max_trains=3, max_ops=6)
                     for _ in range(150)]
        instances += [generate_line(LineSpec(num_stations=s, num_trains=3,
                                             seed=seed)).instance
                      for s in (3, 4) for seed in range(3)]
        steps = 0
        for instance in instances:
            for _ in range(4):
                disp = _Dispatcher(instance)
                parent = disp.bound()
                moves = startable(disp)
                while moves:
                    disp.apply(*rng.choice(moves))
                    child = disp.bound()
                    assert child >= parent
                    parent = child
                    steps += 1
                    moves = startable(disp)
        assert steps > 3000

    def test_bound_starts_match_route_timing(self):
        """With coeff=1, threshold=0 components the bound sums the earliest
        starts of the unavoidable remaining operations, so a wrong start time
        shows. Random multi-train prefixes leave release stamps behind, and
        release times are scaled up so that stamps often outlast the latest
        event."""
        rng = random.Random(53)
        stamped = 0
        for _ in range(1000):
            base = random_instance(rng, max_trains=3, max_ops=6)
            trains = [[replace(op, resources=tuple(
                           replace(u, release_time=10 * u.release_time)
                           for u in op.resources))
                       for op in train.operations] for train in base.trains]
            comps = [ObjectiveComponent(i, k, threshold=0, coeff=1)
                     for i, ops in enumerate(trains) for k in range(len(ops))
                     if rng.random() < 0.5]
            instance = build_instance(trains, comps)
            disp = _Dispatcher(instance)
            for _ in range(rng.randint(0, 10)):
                moves = startable(disp)
                if not moves:
                    break
                disp.apply(*rng.choice(moves))
            expected = bound_from_events(instance, disp.events)
            assert disp.bound() - disp.z_partial == expected
            stamped += expected != bound_from_events(instance, disp.events,
                                                     honour_stamps=False)
        assert stamped > 40

    def test_exact_reports_are_pinned(self):
        """One digest of (status, nodes, bound, objective, events) pins the
        exact search's reports, capped and uncapped: a faster prune must
        keep every one of them."""
        assert exact_digests()[0] == EXACT_DIGEST

    def test_exact_reports_but_bounds_are_pinned(self):
        """One digest of (status, nodes, objective, events), without bound,
        over the same reports, so that a change to the bounds alone moves
        only the other digest: the pair bound raises 4 of the 57 capped
        bounds there."""
        assert exact_digests()[1] == EXACT_OUTCOME_DIGEST

    def test_charge_never_exceeds_the_bound(self):
        """On random walks that call `bound()` at every node they visit and
        backtrack at random, as the depth-first search does, the bound a
        child charges from its parent's record never exceeds `bound()`, and
        `prunes(z)` decides as `bound() >= z` does. Besides the instance's
        own components, more sit on random operations short of the exit,
        and release times are scaled up, so that both the recorded starts
        and the floor plus the lag often bind."""
        rng = random.Random(29)
        children = floor_binds = tight = 0
        for _ in range(300):
            base = random_instance(rng, max_trains=4, max_ops=7)
            trains = [[replace(op, resources=tuple(
                           replace(u, release_time=5 * u.release_time)
                           for u in op.resources))
                       for op in train.operations] for train in base.trains]
            comps = list(base.objective) + [
                ObjectiveComponent(i, k, threshold=rng.randint(0, 20),
                                   coeff=rng.randint(0, 2),
                                   increment=rng.randint(0, 3))
                for i, ops in enumerate(trains) for k in range(len(ops) - 1)
                if rng.random() < 0.3]
            instance = build_instance(trains, comps)
            disp = _Dispatcher(instance)
            disp.bound()
            for _ in range(40):
                moves = startable(disp)
                if not moves or disp.events and rng.random() < 0.3:
                    if not disp.events:
                        break
                    disp.undo()
                    continue
                disp.apply(*rng.choice(moves))
                parent = disp._starts[len(disp.events) - 1]
                b = disp.bound()
                charge, _ = disp._charge(math.inf)
                assert charge <= b
                for z in (b - 1, b, b + 1):
                    assert disp.prunes(z) == (b >= z)
                    assert disp._charge(z)[0] <= b
                children += 1
                tight += charge == b > disp.z_partial
                tabs = disp.tables
                floor_binds += any(
                    disp.floor + dist_ahead(tabs[i], disp.last_op[i])
                    - tabs[i].dist[k] > t
                    for i, _, starts in parent if i != disp.events[-1][1]
                    for k, t, _ in starts)
        assert children > 5000 and tight > 1000 and floor_binds > 500

    def test_charge_reads_no_record_above_a_late_first_leaf(
            self, monkeypatch):
        """Draw 27 of `random_instance(Random(97), 6, 8)` gets no schedule
        from the warm start, so the search's first leaf turns up mid-walk,
        below ancestors that never called `bound()`. Their children find no
        parent record, and `_charge` then charges the fixed cost alone (82
        of its 87 charges here). Every charge stays at or below the bound
        of the same schedule on a fresh dispatcher, every prune decides as
        that bound does, and the search closes at Z 0 in 114 nodes."""
        rng = random.Random(97)
        for _ in range(28):
            instance = random_instance(rng, max_trains=6, max_ops=8)
        disp = _Dispatcher(instance)
        assert all(a.solution is None for a in _attempts(
            disp, (0, 1), seed=0, jitter_span=0, root_bound=disp.bound()))

        def fresh_bound(disp):
            fresh = _Dispatcher(instance)
            for _, i, op in disp.events:
                fresh.apply(i, op, fresh.probe(i, op)[1])
            return fresh.bound()

        missing = []
        charge, prunes = _Dispatcher._charge, _Dispatcher.prunes

        def checked_charge(disp, z):
            missing.append(len(disp.events) - 1 not in disp._starts)
            lb, swept = charge(disp, z)
            assert lb <= fresh_bound(disp)
            return lb, swept

        def checked_prunes(disp, z):
            pruned = prunes(disp, z)
            assert pruned == (fresh_bound(disp) >= z)
            return pruned

        monkeypatch.setattr(_Dispatcher, "_charge", checked_charge)
        monkeypatch.setattr(_Dispatcher, "prunes", checked_prunes)
        report = solve_exact(instance)
        assert (report.status, report.solution.objective_value,
                report.nodes) == (SolveStatus.OPTIMAL, 0, 114)
        assert (len(missing), sum(missing)) == (87, 82)

    def test_random_corpus_coverage_is_pinned(self):
        """Statuses of the search at 5,000 nodes on the first 120 draws of
        `random_instance(Random(97), 6, 8)`, each solution verified. Before
        the warm start, whose insertion pass schedules draws on which the
        search alone wedges, they were 96 Optimal, 23 TimeoutNoSolution
        and 1 Infeasible."""
        rng = random.Random(97)
        statuses = []
        for _ in range(120):
            instance = random_instance(rng, max_trains=6, max_ops=8)
            report = solve_exact(instance, node_limit=5_000)
            statuses.append(report.status)
            if report.solution is not None:
                verdict = verify(instance, report.solution)
                assert verdict.feasible
                assert verdict.computed_objective == \
                    report.solution.objective_value
        assert [statuses.count(status) for status in (
            SolveStatus.OPTIMAL, SolveStatus.TIMEOUT_NO_SOLUTION,
            SolveStatus.INFEASIBLE)] == [106, 13, 1]

    def test_matches_brute_force(self):
        rng = random.Random(7)
        optima = 0
        infeasible = 0
        for _ in range(50):
            instance = random_instance(rng, max_trains=3, max_ops=6)
            expected = oracles.brute_force_optimum(instance)
            report = solve_exact(instance)
            if expected is None:
                assert report.status is SolveStatus.INFEASIBLE
                infeasible += 1
            else:
                assert report.status is SolveStatus.OPTIMAL
                assert report.solution.objective_value == expected[0]
                assert verify(instance, report.solution).feasible
                optima += 1
        assert optima >= 30
        assert infeasible >= 2


EXACT_DIGEST = (
    "7cbefecca23dc130a8917b0ea655ea226f7e3ea01615d2cf3ca26302df88c843")
EXACT_OUTCOME_DIGEST = (
    "acb5a6655573768904e4e9dd4e438d5a2e6354814c7456a2a10ea729d50a9e40")


@functools.cache
def exact_digests() -> tuple[str, str]:
    """The digests `test_exact_reports_are_pinned` and
    `test_exact_reports_but_bounds_are_pinned` pin, from one pass over 150
    draws each of `random_instance` and `random_reduced_instance`, solved
    at node caps 5, 50 and 500 and without one."""
    digest, outcome = hashlib.sha256(), hashlib.sha256()
    for seed in (11, 1, 7):
        rng = random.Random(seed)
        for k in range(100):
            draw = random_reduced_instance if k % 2 else random_instance
            instance = draw(rng, max_trains=3, max_ops=6)
            for cap in (5, 50, 500, None):
                report = solve_exact(instance, node_limit=cap)
                solution = report.solution
                rest = (solution and solution.objective_value,
                        solution and [(e.time, e.train, e.operation)
                                      for e in solution.events])
                digest.update(repr((report.status.value, report.nodes,
                                    report.bound, *rest)).encode())
                outcome.update(repr((report.status.value, report.nodes,
                                     *rest)).encode())
    return digest.hexdigest(), outcome.hexdigest()


DIVE_DIGEST = (
    "9464bc5126b37fadf3d6a450eead9406b5fca335fca0bb3f916d284d9bf9111f")


def dive_digest() -> str:
    """The digest `test_dive_order_is_pinned` pins."""
    rng = random.Random(16)
    digest = hashlib.sha256()
    for _ in range(60):
        instance = random_instance(rng, max_trains=5, max_ops=8)
        for kwargs in ({"max_restarts": 0},
                       {"max_restarts": 2, "seed": 1}):
            report = solve_heuristic(instance, **kwargs)
            solution = report.solution
            digest.update(repr((
                report.status.value, report.nodes,
                solution and solution.objective_value,
                solution and [(e.time, e.train, e.operation)
                              for e in solution.events])).encode())
    return digest.hexdigest()


HEURISTIC_OUTCOME_DIGEST = (
    "0dc32194adfa0dcc67bbe65e2a0a0bfa33fd44719fc8be18b525d5c1296dbd6a")


def heuristic_outcome_digest() -> str:
    """The digest `test_heuristic_outcomes_are_pinned` pins: the draws of
    `dive_digest` and the 10x8, 20x14 and 30x20 seed-7 corridors."""
    rng = random.Random(16)
    instances = []
    for _ in range(60):
        instance = random_instance(rng, max_trains=5, max_ops=8)
        instances += [(instance, {"max_restarts": 0}),
                      (instance, {"max_restarts": 2, "seed": 1})]
    instances += [(generate_line(LineSpec(num_stations=stations,
                                          num_trains=trains,
                                          seed=7)).instance,
                   {"max_restarts": 16, "seed": 0})
                  for stations, trains in ((10, 8), (20, 14), (30, 20))]
    digest = hashlib.sha256()
    for instance, kwargs in instances:
        report = solve_heuristic(instance, **kwargs)
        solution = report.solution
        digest.update(repr((
            report.status.value, solution and solution.objective_value,
            solution and [(e.time, e.train, e.operation)
                          for e in solution.events])).encode())
    return digest.hexdigest()


class TestSolveHeuristic:
    def test_junction(self, junction):
        report = solve_heuristic(junction)
        assert report.status is SolveStatus.FEASIBLE
        verdict = verify(junction, report.solution)
        assert verdict.feasible
        assert report.solution.objective_value == 10

    def test_never_claims_optimality(self, junction):
        assert solve_heuristic(junction).status is not SolveStatus.OPTIMAL

    def test_infeasible_instance_times_out(self):
        report = solve_heuristic(pinned_crossing(), max_restarts=3)
        assert report.status is SolveStatus.TIMEOUT_NO_SOLUTION
        assert report.solution is None

    def test_unconstrained_train_runs_at_earliest_times(self):
        comp = ObjectiveComponent(0, 2, threshold=0, coeff=1)
        instance = build_instance([chain(5, 5, 0)], [comp])
        report = solve_heuristic(instance)
        assert report.status is SolveStatus.FEASIBLE
        assert [e.time for e in report.solution.events] == [0, 5, 10]

    def test_seed_determinism(self, junction):
        a = solve_heuristic(junction, seed=3)
        b = solve_heuristic(junction, seed=3)
        assert a == b

    def test_solutions_always_verify(self):
        rng = random.Random(91)
        produced = 0
        for _ in range(40):
            instance = random_instance(rng, max_trains=4, max_ops=6)
            report = solve_heuristic(instance, max_restarts=3)
            if report.solution is None:
                continue
            verdict = verify(instance, report.solution)
            assert verdict.feasible
            assert verdict.computed_objective == report.solution.objective_value
            produced += 1
        assert produced > 20

    def test_random_corpus_coverage_is_pinned(self):
        """How many of the first 120 draws of `random_instance(Random(97),
        6, 8)` the heuristic solves at 0, 2 and 16 restarts, each solution
        verified. A re-pin may only raise them; before the even passes
        dived earliest start first they were 96, 101 and 105."""
        solved = {}
        for restarts in (0, 2, 16):
            rng = random.Random(97)
            solved[restarts] = 0
            for _ in range(120):
                instance = random_instance(rng, max_trains=6, max_ops=8)
                report = solve_heuristic(instance, max_restarts=restarts)
                if report.solution is None:
                    continue
                verdict = verify(instance, report.solution)
                assert verdict.feasible
                assert verdict.computed_objective == \
                    report.solution.objective_value
                solved[restarts] += 1
        assert solved == {0: 102, 2: 106, 16: 107}

    def test_never_beats_the_optimum(self):
        rng = random.Random(5)
        compared = 0
        for _ in range(25):
            instance = random_instance(rng, max_trains=3, max_ops=5)
            exact = solve_exact(instance)
            if exact.status is not SolveStatus.OPTIMAL:
                continue
            heur = solve_heuristic(instance, max_restarts=4)
            if heur.solution is None:
                continue
            assert heur.solution.objective_value >= exact.solution.objective_value
            compared += 1
        assert compared > 15

    def test_stops_at_the_root_bound(self, junction):
        """The junction's first pass reaches its root bound of 10, so a
        time-limited run stops there, as a run without restarts does."""
        assert _Dispatcher(junction).bound() == 10
        report = solve_heuristic(junction, time_limit=2.0)
        assert report == solve_heuristic(junction, max_restarts=0)
        assert report.status is SolveStatus.FEASIBLE
        assert report.solution.objective_value == 10

    def test_time_limit_returns_promptly(self, junction):
        report = solve_heuristic(junction, time_limit=0.05)
        assert report.wall_time < 5.0
        assert report.status in (SolveStatus.FEASIBLE,
                                 SolveStatus.TIMEOUT_NO_SOLUTION)

    def test_plain_append_rescues_a_failed_merge(self, monkeypatch):
        """On this instance (5 trains, 17 operations) the first insertion
        pass finds a schedule only through its plain-append fallback, which
        replays the fixed order with the whole route appended. The dive
        before it reaches the root bound, so two restarts stop there."""
        instance, _ = parse_instance(data_text("insertion_fallback.json"))
        report = solve_heuristic(instance, max_restarts=2)
        assert report.status is SolveStatus.FEASIBLE
        assert report.solution.objective_value == 5
        assert _Dispatcher(instance).bound() == 5
        solution = _insertion_pass(_Dispatcher(instance), random.Random(1), 0)
        assert solution.objective_value == 19
        verdict = verify(instance, solution)
        assert verdict.feasible
        assert verdict.computed_objective == 19
        monkeypatch.setattr("displib.solve._replay", lambda disp, order: False)
        assert _insertion_pass(_Dispatcher(instance), random.Random(1),
                               0) is None

    def test_dive_backtracking_finds_the_schedule(self, monkeypatch):
        """On this instance (2 trains, 6 operations) only the dive's
        backtracking finds a schedule at two restarts."""
        instance, _ = parse_instance(data_text("dive_backtrack.json"))
        report = solve_heuristic(instance, max_restarts=2)
        assert report.status is SolveStatus.FEASIBLE
        assert report.solution.objective_value == 0
        assert report.nodes == 16
        assert verify(instance, report.solution).feasible
        monkeypatch.setattr("displib.solve._BACKTRACK_LIMIT", 0)
        report = solve_heuristic(instance, max_restarts=2)
        assert report.status is SolveStatus.TIMEOUT_NO_SOLUTION

    def test_dive_order_is_pinned(self):
        """One digest of (status, nodes, objective, events) pins the dive
        alone (no restart) and two restarts at seed 1 on 60 random
        instances, three of whose dives backtrack to a schedule and seven
        fail."""
        assert dive_digest() == DIVE_DIGEST

    def test_heuristic_outcomes_are_pinned(self):
        """One digest of (status, objective, events), without nodes, pins
        the solutions of `dive_digest`'s draws and of the seed-7 ladder
        corridors at 16 restarts: work saved in the dispatcher must leave
        every solution as it was."""
        assert heuristic_outcome_digest() == HEURISTIC_OUTCOME_DIGEST

    @pytest.mark.parametrize("stations, trains, objective, nodes",
                             [(10, 8, 10367, 7929), (20, 14, 56032, 48914)],
                             ids=["10-8-10367", "20-14-56032"])
    def test_ladder_corridor_objective(self, tmp_path, stations, trains,
                                       objective, nodes):
        """The benchmark's corridors, generated by the CLI at seed 7, keep
        the objective the heuristic reached on them at 16 restarts, and the
        dispatcher applies it took to reach it."""
        path = tmp_path / "line.json"
        assert cli.main(["generate", "--num-stations", str(stations),
                         "--num-trains", str(trains), "--seed", "7",
                         "-o", str(path)]) == 0
        instance, _ = parse_instance(path.read_text())
        report = solve_heuristic(instance, max_restarts=16, seed=0)
        assert report.status is SolveStatus.FEASIBLE
        assert (report.solution.objective_value, report.nodes) == (
            objective, nodes)
        verdict = verify(instance, report.solution)
        assert verdict.feasible
        assert verdict.computed_objective == objective


@pytest.fixture
def forks(monkeypatch):
    """The forks made while the test runs, counted in this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def failing_forks(monkeypatch) -> None:
    """Make each fork start a child that exits with status 3 at once, a
    helper that fails."""
    fork = os.fork

    def failing():
        pid = fork()
        if not pid:
            os._exit(3)
        return pid

    monkeypatch.setattr(os, "fork", failing)


def use_helper(monkeypatch, on: bool) -> None:
    """Force the restart helper on (no first pass too short to share, two
    usable CPUs) or off (one usable CPU)."""
    monkeypatch.setattr("displib.solve._FORK_COST", 0)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0, 1} if on else {0}, raising=False)


class TestHelper:
    """A forked helper runs every other pair of restarts; the report is the
    one a single process gives, whether the helper runs, is skipped, fails
    or is killed."""

    @pytest.fixture(autouse=True)
    def no_child_is_left(self):
        """Every helper is reaped: after joining it, after killing it at a
        stop on the parent's side, and after each kind of failure."""
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("stations, trains", [(10, 8), (20, 14)])
    def test_corridor_reports_match_a_one_process_run(
            self, monkeypatch, forks, stations, trains):
        instance = generate_line(LineSpec(num_stations=stations,
                                          num_trains=trains, seed=7)).instance
        use_helper(monkeypatch, False)
        inline = solve_heuristic(instance, max_restarts=16, seed=0)
        assert not forks
        use_helper(monkeypatch, True)
        shared = solve_heuristic(instance, max_restarts=16, seed=0)
        assert len(forks) == 1
        assert shared == inline

    def test_cuts_at_the_root_bound_on_either_side(self, monkeypatch, forks):
        """On 130 random instances, and three draws picked because their
        one-process runs stop late, at 48 restarts the one-process run stops
        at the root bound in the parent's share of the attempts (1, 5 and
        29) and in the helper's (3, 7 and 43). The helper gives the same
        report, and so does a run with a far deadline and no restart budget,
        which only the other side's cut can stop before the deadline where
        no later attempt of a side reaches the bound again."""
        stops = {}
        attempts = displib.solve._attempts

        def recorded(disp, order, **kwargs):
            results = attempts(disp, order, **kwargs)
            last = results[-1] if results else None
            if last and last.objective is not None \
                    and last.objective <= kwargs["root_bound"]:
                stops[id(disp)] = last.attempt
            return results

        rng = random.Random(16)
        instances = [random_instance(rng, max_trains=6, max_ops=10)
                     for _ in range(130)]
        # The dive reaches the bound early on most draws: these stop at
        # attempts 5, 29 and 43.
        instances += [random_instance(random.Random(k), max_trains=6,
                                      max_ops=10) for k in (5999, 862, 12354)]
        use_helper(monkeypatch, False)
        inline, stopped_at = [], []
        for instance in instances:
            stops.clear()
            with monkeypatch.context() as m:
                m.setattr("displib.solve._attempts", recorded)
                inline.append(solve_heuristic(instance, max_restarts=48,
                                              seed=1))
            stopped_at.append(next(iter(stops.values()), None))
        assert {1, 3, 5, 7, 29, 43} <= set(stopped_at)
        use_helper(monkeypatch, True)
        for instance, report, stop in zip(instances, inline, stopped_at):
            assert solve_heuristic(instance, max_restarts=48,
                                   seed=1) == report
            if stop is not None:
                timed = solve_heuristic(instance, time_limit=60, seed=1)
                assert timed == report
                assert timed.wall_time < 10
        # A helper starts unless the first pass reaches the root bound.
        assert len(forks) == sum((stop != 0) + (stop not in (None, 0))
                                 for stop in stopped_at)

    @pytest.mark.parametrize("reach", [1, 5, 29, 3, 7, 43])
    def test_far_deadline_ends_at_the_first_attempt_at_the_bound(
            self, monkeypatch, forks, junction, reach):
        """Both passes are scripted: attempt k costs k applies and finds a
        schedule of cost 11, and only attempt `reach` reaches the junction's
        root bound of 10. A run with a far deadline and no restart budget
        ends there, whether the parent's share holds it (1, 5, 29: the
        parent cuts the helper short) or the helper's (3, 7, 43: the parent
        reads the helper's results before its own share ends)."""
        use_helper(monkeypatch, True)

        def scripted(disp, attempt, span):
            disp.applies += attempt
            return Solution(objective_value=10 if attempt == reach else 11,
                            events=())

        # With seed 0 each pass's "rng" is its attempt number.
        monkeypatch.setattr("displib.solve.random",
                            SimpleNamespace(Random=lambda seed: seed))
        monkeypatch.setattr("displib.solve._dive_pass", scripted)
        monkeypatch.setattr("displib.solve._insertion_pass", scripted)
        report = solve_heuristic(junction, time_limit=5, seed=0)
        assert len(forks) == 1
        assert report.solution.objective_value == 10
        assert report.nodes == sum(range(reach + 1))
        assert report.wall_time < 4

    def test_stop_on_the_parent_side_does_not_wait_for_the_helper(
            self, monkeypatch, forks, junction):
        """The parent's attempt 1 reaches the root bound after 0.3 s while
        the helper's attempt 3 runs for 1.5 s. The parent kills the helper
        instead of waiting for that pass, and no attempt of the helper's lies
        below the bound, so the report is the one of attempts 0 and 1."""
        use_helper(monkeypatch, True)
        seconds = {1: 0.3, 2: 0.3, 3: 1.5, 4: 1.5, 7: 1.5, 8: 1.5}

        def scripted(disp, attempt, span):
            time.sleep(seconds.get(attempt, 0))
            disp.applies += attempt
            return Solution(objective_value=10 if attempt == 1 else 11,
                            events=())

        monkeypatch.setattr("displib.solve.random",
                            SimpleNamespace(Random=lambda seed: seed))
        monkeypatch.setattr("displib.solve._dive_pass", scripted)
        monkeypatch.setattr("displib.solve._insertion_pass", scripted)
        report = solve_heuristic(junction, time_limit=20, seed=0)
        assert len(forks) == 1
        assert report.solution.objective_value == 10
        assert report.nodes == sum(range(2))
        assert report.wall_time < 1

    def test_a_second_thread_forks_no_helper(self, monkeypatch, forks):
        """While another thread runs, a fork would copy a lock it holds
        into the child still held, so neither solve forks a helper, with
        two usable CPUs and no first pass too short to share: a capped
        exact run and a heuristic run give the reports of runs with
        `_forkable` patched to False. Once the thread has ended, the same
        two runs fork one helper each."""
        instance = generate_line(LineSpec(num_stations=3, num_trains=4,
                                          seed=0)).instance

        def solves():
            return (solve_exact(instance, node_limit=1_000),
                    solve_heuristic(instance, max_restarts=16, seed=0))

        use_helper(monkeypatch, True)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            threaded = solves()
        finally:
            release.set()
            thread.join()
        assert not forks
        assert all(a == b for a, b in zip(threaded, solves()))
        assert len(forks) == 2
        monkeypatch.setattr(displib.solve, "_forkable", lambda: False)
        assert all(a == b for a, b in zip(threaded, solves()))
        assert len(forks) == 2

    def test_keeps_the_pinned_dive_digest(self, monkeypatch, forks):
        """At most two restarts leave the helper no pair, so none starts."""
        use_helper(monkeypatch, True)
        assert dive_digest() == DIVE_DIGEST
        assert not forks

    def test_orphaned_helper_stops_before_its_next_pass(self):
        """A solving process with scripted passes of 0.5 s each under a 20 s
        time limit forks its helper and is then killed by SIGTERM alone. The
        helper stops before its next pass, within 2 s, instead of running on
        to the deadline. It holds the write end of a pipe it inherited until
        it exits, so end of file on the read end shows that it has."""
        script = textwrap.dedent("""
            import os, time
            from displib import solve
            from displib.core import Operation, build_instance

            def scripted(disp, rng, span):
                time.sleep(0.5)

            solve._dive_pass = solve._insertion_pass = scripted
            solve._FORK_COST = 0
            os.sched_getaffinity = lambda pid: {0, 1}
            fork = os.fork

            def reported():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid

            os.fork = reported
            solve.solve_heuristic(build_instance([[Operation(1, ())]]),
                                  time_limit=20)
            """)
        src = os.path.dirname(os.path.dirname(displib.solve.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        alive_r, alive_w = os.pipe()
        try:
            with subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE,
                                  pass_fds=(alive_w,)) as parent:
                os.close(alive_w)
                alive_w = None
                helper = int(parent.stdout.readline())
                parent.send_signal(signal.SIGTERM)
                parent.wait(timeout=5)
            gone = select.select([alive_r], [], [], 2.0)[0]
            if not gone:
                os.kill(helper, signal.SIGKILL)
            assert gone and os.read(alive_r, 1) == b""
        finally:
            os.close(alive_r)
            if alive_w is not None:
                os.close(alive_w)

    @pytest.mark.parametrize("failure", [
        "fork raises", "exits without writing", "exits non-zero",
        "truncated payload"])
    def test_failed_helper_falls_back_to_the_parent(self, monkeypatch, forks,
                                                    failure):
        instance = generate_line(LineSpec(num_stations=10, num_trains=8,
                                          seed=7)).instance
        use_helper(monkeypatch, False)
        inline = solve_heuristic(instance, max_restarts=16, seed=0)
        use_helper(monkeypatch, True)
        fork = os.fork
        dump = pickle.dump

        def failing():
            if failure == "fork raises":
                raise OSError("no more processes")
            pid = fork()
            if not pid:
                if failure == "exits without writing":
                    os._exit(0)
                if failure == "exits non-zero":
                    os._exit(3)
                pickle.dump = lambda obj, out, protocol: out.write(
                    pickle.dumps(obj, protocol)[:-9])
            return pid

        monkeypatch.setattr(os, "fork", failing)
        report = solve_heuristic(instance, max_restarts=16, seed=0)
        assert len(forks) == (failure != "fork raises")
        assert pickle.dump is dump
        assert report == inline


@pytest.fixture(scope="module")
def corridor_60x40():
    return generate_line(LineSpec(num_stations=60, num_trains=40,
                                  seed=7)).instance


class TestDeadline:
    """A spent budget stops the solve within 256 dispatcher applies, even on
    a corridor whose first dive takes 2,387 applies to fail."""

    def test_heuristic_stops_within_256_applies(self, corridor_60x40):
        report = solve_heuristic(corridor_60x40, time_limit=0)
        assert report.status is SolveStatus.TIMEOUT_NO_SOLUTION
        assert report.solution is None
        assert report.nodes <= 256

    def test_exact_stops_within_257_nodes(self, corridor_60x40):
        report = solve_exact(corridor_60x40, time_limit=0)
        assert report.status is SolveStatus.TIMEOUT_NO_SOLUTION
        assert report.bound is not None
        assert report.nodes <= 257

    def test_expired_insertion_pass_appends_each_train_once(self):
        """Past the deadline every merge fails at once; each train's route
        is then appended on top of the order already applied, not replayed
        with that order from the empty schedule."""
        instance = generate_line(LineSpec(num_stations=10, num_trains=8,
                                          seed=7)).instance
        disp = _Dispatcher(instance)
        disp.expired = True
        solution = _insertion_pass(disp, random.Random(3), 40)
        assert solution is not None
        assert disp.applies == len(solution.events)
        trains = [e.train for e in solution.events]
        blocks = [i for k, i in enumerate(trains) if not k or trains[k - 1] != i]
        assert sorted(blocks) == list(range(len(instance.trains)))
        fresh = _Dispatcher(instance)
        assert _replay(fresh, [(e.train, e.operation)
                               for e in solution.events])
        assert fresh.to_solution() == solution
