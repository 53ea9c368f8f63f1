"""Schedulers: fixed-order evaluation, exact branch and bound against the
brute-force reference, and the greedy heuristic."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

import oracles
from builders import random_instance, random_reduced_train, random_train
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
        depths. A splice that succeeds leaves the state of a fresh dispatcher
        that probed every remaining event to the same time; one that refuses
        changes nothing. Rewinding afterwards, to a random depth and to 0,
        still restores the replayed state, so the undo records stay exact.
        In the hand-built instance train 0 releases A to train 1, and the
        three refusals are a later event of the same train, a later claim of
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

        refusals = (([(0, 0), (0, 1), (0, 2)], 1),          # same train
                    ([(0, 0), (1, 0), (0, 1), (1, 1)], 2),  # released A
                    ([(0, 0), (1, 0)], 0))                  # same time
        for moves, depth in refusals:
            disp = _Dispatcher(hand_built)
            for i, op in moves:
                status, t = disp.probe(i, op)
                assert status == _OK
                disp.apply(i, op, t)
            before, records = dispatcher_state(disp), list(disp._undo)
            assert not disp.splice(depth)
            assert dispatcher_state(disp) == before
            assert disp._undo == records

        rng = random.Random(31)
        instances = [hand_built] * 10
        instances += [random_instance(rng, max_trains=3, max_ops=6)
                      for _ in range(150)]
        spliced = refused = 0
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
                        kept = disp.events[:depth] + disp.events[depth + 1:]
                        before, records = dispatcher_state(disp), list(disp._undo)
                        spliced_out = disp.splice(depth)
                        check_invariants(disp)
                        if spliced_out:
                            assert dispatcher_state(disp) == replayed(instance, kept)
                            spliced += 1
                        else:
                            assert dispatcher_state(disp) == before
                            assert disp._undo == records
                            refused += 1
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
        assert spliced > 1000 and refused > 1000

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
        over the suffixes of its routes, and `slack` the tightest threshold
        of a costly component along the first such suffix in index order,
        less the durations before that component's operation."""
        rng = random.Random(23)
        checked = tied = 0
        for _ in range(200):
            instance = random_instance(rng, max_trains=3, max_ops=8)
            extra = tuple(
                ObjectiveComponent(i, k, threshold=rng.randint(0, 40),
                                   coeff=rng.randint(0, 1),
                                   increment=rng.randint(0, 1))
                for i, train in enumerate(instance.trains)
                for k in range(len(train.operations)) if rng.random() < 0.4)
            instance = replace(instance, objective=instance.objective + extra)
            disp = _Dispatcher(instance)
            for i, (train, tab) in enumerate(zip(instance.trains, disp.tables)):
                dur = [op.min_duration for op in train.operations]
                routes = enumerate_routes(train).routes
                for k in range(len(dur)):
                    suffixes = sorted({r[r.index(k):] for r in routes if k in r})
                    lengths = [sum(dur[o] for o in s[:-1]) for s in suffixes]
                    shortest = suffixes[lengths.index(min(lengths))]
                    tied += lengths.count(min(lengths)) > 1
                    slack, elapsed = float("inf"), 0
                    for o in shortest:
                        for c in instance.objective:
                            if (c.train, c.operation) == (i, o) and (
                                    c.coeff or c.increment):
                                slack = min(slack, c.threshold - elapsed)
                        elapsed += dur[o]
                    assert tab.dist[k] == min(lengths)
                    assert tab.slack[k] == slack
                    checked += 1
        assert checked > 1000 and tied > 50


def index_order(disp):
    """The first exact pass's move order, as `_depth_first` takes it."""
    return lambda: iter(_branch_moves(disp, None))


class TestDepthFirst:
    """The one backtracking loop: a budget stops it rewound to the empty
    schedule and returns True; a first leaf stays applied."""

    def test_node_limit_stops_before_the_next_apply(self, junction):
        empty = dispatcher_state(_Dispatcher(junction))
        for cap in (0, 1, 3):
            disp = _Dispatcher(junction)
            assert _depth_first(disp, index_order(disp), first_leaf=False,
                                node_limit=cap)
            assert disp.applies == cap
            assert dispatcher_state(disp) == empty

    def test_backtrack_limit_stops_at_the_first_dead_end(self):
        """On the pinned crossing the index-order dive applies train 0's two
        operations and then finds train 1's window overrun: with no
        take-back allowed the loop stops there; with any number it runs to
        exhaustion, which is not a budget stop."""
        instance = pinned_crossing()
        empty = dispatcher_state(_Dispatcher(instance))
        for limit, stopped, applies in ((0, True, 2), (None, False, 4)):
            disp = _Dispatcher(instance)
            assert _depth_first(disp, index_order(disp), first_leaf=True,
                                backtrack_limit=limit) is stopped
            assert disp.applies == applies
            assert dispatcher_state(disp) == empty

    def test_spent_deadline_stops_within_256_applies(self):
        instance = build_instance([chain(*[1] * 600)])
        disp = _Dispatcher(instance, time.monotonic() - 1)
        assert _depth_first(disp, index_order(disp), first_leaf=True)
        assert disp.applies == 256
        assert dispatcher_state(disp) == dispatcher_state(
            _Dispatcher(instance))

    def test_first_leaf_stays_applied(self, junction):
        disp = _Dispatcher(junction)
        assert not _depth_first(disp, index_order(disp), first_leaf=True)
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
        report = solve_exact(junction)
        assert report.status is SolveStatus.OPTIMAL
        assert report.solution is not None
        assert report.solution.objective_value == 10
        assert report.bound == 10
        assert report.nodes > 0
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

    def test_budget_never_claims_certainty(self, junction):
        report = solve_exact(junction, node_limit=1)
        assert report.status in (SolveStatus.FEASIBLE,
                                 SolveStatus.TIMEOUT_NO_SOLUTION)
        assert report.bound is not None
        assert report.bound <= 10
        # A capped run's bound must hold for the whole tree, including the
        # root branches the search never reached.
        rng = random.Random(1)
        capped = 0
        for _ in range(60):
            instance = random_instance(rng, max_trains=3, max_ops=6)
            full = solve_exact(instance)
            for cap in (1, 2, 5, 10, 30):
                report = solve_exact(instance, node_limit=cap)
                if report.nodes <= cap:
                    assert report.same_outcome(full)
                    continue
                assert report.status in (SolveStatus.FEASIBLE,
                                         SolveStatus.TIMEOUT_NO_SOLUTION)
                assert report.bound is not None
                if full.status is SolveStatus.OPTIMAL:
                    assert report.bound <= full.solution.objective_value
                capped += 1
        assert capped > 100

    def test_search_deeper_than_the_recursion_limit(self):
        """A full schedule of the 30x20 corridor has 1,200 events, more
        than Python's default recursion limit; the search keeps its levels
        on an explicit stack and returns a solution the verifier accepts."""
        line = generate_line(LineSpec(num_stations=30, num_trains=20, seed=7))
        report = solve_exact(line.instance, node_limit=2000)
        assert report.status is SolveStatus.FEASIBLE
        assert (report.nodes, report.bound) == (2001, 0)
        assert len(report.solution.events) == 1200
        assert report.solution.objective_value == 1_487_596
        verdict = verify(line.instance, report.solution)
        assert verdict.feasible
        assert verdict.computed_objective == 1_487_596

    @pytest.mark.parametrize("stations, objective, index_order_nodes",
                             [(3, 298, 9_888), (4, 221, 78_254)])
    def test_earliest_start_first_closes_small_corridors(
            self, stations, objective, index_order_nodes):
        """The seed-0 corridors close at their optimum in at most a third of
        the nodes that a search branching in train-index order needs."""
        line = generate_line(LineSpec(num_stations=stations, num_trains=3,
                                      seed=0))
        report = solve_exact(line.instance)
        assert report.status is SolveStatus.OPTIMAL
        assert report.solution.objective_value == report.bound == objective
        assert report.nodes <= index_order_nodes // 3
        assert verify(line.instance, report.solution).feasible

    def test_capped_desk_scale_corridor_reaches_the_optimum(self):
        """At 100k nodes the 5x4 seed-42 corridor, which the search cannot
        close, holds the optimum HiGHS proves on its integer program."""
        golden = json.loads(data_text("line_5x4_seed42.json"))
        line = generate_line(LineSpec(**golden["line"]))
        report = solve_exact(line.instance, node_limit=100_000)
        assert report.status is SolveStatus.FEASIBLE
        assert report.nodes == 100_001
        assert report.solution.objective_value == golden["optimal_objective"]
        verdict = verify(line.instance, report.solution)
        assert verdict.feasible
        assert verdict.computed_objective == golden["optimal_objective"]

    def test_budget_in_each_pass(self):
        """A node cap inside the first pass (the dive to the first complete
        schedule) leaves no solution; one inside the second pass leaves a
        solution no worse than that first leaf. Neither claims certainty."""
        line = generate_line(LineSpec(num_stations=3, num_trains=3, seed=0))
        disp = _Dispatcher(line.instance)
        _depth_first(disp, lambda: iter(_branch_moves(disp, None)),
                     first_leaf=True)
        first_leaf, dive_nodes = disp.z_partial, disp.applies
        full = solve_exact(line.instance)
        root = _Dispatcher(line.instance).bound()
        assert 0 < dive_nodes < full.nodes
        assert full.solution.objective_value < first_leaf
        for cap in (0, 1, dive_nodes // 2, dive_nodes - 1):
            report = solve_exact(line.instance, node_limit=cap)
            assert report.status is SolveStatus.TIMEOUT_NO_SOLUTION
            assert report.solution is None
            assert (report.nodes, report.bound) == (cap + 1, root)
        for cap in (dive_nodes, dive_nodes + 1, (dive_nodes + full.nodes) // 2,
                    full.nodes - 1):
            report = solve_exact(line.instance, node_limit=cap)
            assert report.status is SolveStatus.FEASIBLE
            assert (report.nodes, report.bound) == (cap + 1, root)
            assert report.solution.objective_value <= first_leaf
            verdict = verify(line.instance, report.solution)
            assert verdict.feasible
            assert verdict.computed_objective == report.solution.objective_value
            if cap == dive_nodes:
                assert report.solution.objective_value == first_leaf
        assert solve_exact(line.instance,
                           node_limit=full.nodes).same_outcome(full)

    def test_deterministic(self, junction):
        assert solve_exact(junction).same_outcome(solve_exact(junction))

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


GREEDY_DIGEST = (
    "54de7138906ad52c7c8bfdef658529e6a40dbc803d655cbd467765f24c7fcb0e")


def greedy_digest() -> str:
    """The digest `test_greedy_order_is_pinned` pins."""
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
        assert a.same_outcome(b)

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
        assert report.same_outcome(solve_heuristic(junction, max_restarts=0))
        assert report.status is SolveStatus.FEASIBLE
        assert report.solution.objective_value == 10

    def test_time_limit_returns_promptly(self, junction):
        report = solve_heuristic(junction, time_limit=0.05)
        assert report.wall_time < 5.0
        assert report.status in (SolveStatus.FEASIBLE,
                                 SolveStatus.TIMEOUT_NO_SOLUTION)

    def test_plain_append_rescues_a_failed_merge(self, monkeypatch):
        """On this instance (5 trains, 17 operations) only the insertion
        pass's plain-append fallback, which replays the fixed order with the
        whole route appended, finds a schedule at two restarts."""
        instance, _ = parse_instance(data_text("insertion_fallback.json"))
        report = solve_heuristic(instance, max_restarts=2)
        assert report.status is SolveStatus.FEASIBLE
        assert report.solution.objective_value == 19
        verdict = verify(instance, report.solution)
        assert verdict.feasible
        assert verdict.computed_objective == 19
        monkeypatch.setattr("displib.solve._replay", lambda disp, order: False)
        report = solve_heuristic(instance, max_restarts=2)
        assert report.status is SolveStatus.TIMEOUT_NO_SOLUTION

    def test_greedy_backtracking_finds_the_schedule(self, monkeypatch):
        """On this instance (2 trains, 6 operations) only the greedy pass's
        backtracking finds a schedule at two restarts."""
        instance, _ = parse_instance(data_text("greedy_backtrack.json"))
        report = solve_heuristic(instance, max_restarts=2)
        assert report.status is SolveStatus.FEASIBLE
        assert report.solution.objective_value == 0
        assert report.nodes == 12
        assert verify(instance, report.solution).feasible
        monkeypatch.setattr("displib.solve._BACKTRACK_LIMIT", 0)
        report = solve_heuristic(instance, max_restarts=2)
        assert report.status is SolveStatus.TIMEOUT_NO_SOLUTION

    def test_greedy_order_is_pinned(self):
        """One digest of (status, nodes, objective, events) pins the greedy
        pass alone (no restart) and two restarts at seed 1 on 60 random
        instances, six of whose greedy passes backtrack and eleven fail."""
        assert greedy_digest() == GREEDY_DIGEST

    @pytest.mark.parametrize("stations, trains, objective",
                             [(10, 8, 10367), (20, 14, 56032)])
    def test_ladder_corridor_objective(self, tmp_path, stations, trains,
                                       objective):
        """The benchmark's corridors, generated by the CLI at seed 7, keep
        the objective the heuristic reached on them at 16 restarts."""
        path = tmp_path / "line.json"
        assert cli.main(["generate", "--num-stations", str(stations),
                         "--num-trains", str(trains), "--seed", "7",
                         "-o", str(path)]) == 0
        instance, _ = parse_instance(path.read_text())
        report = solve_heuristic(instance, max_restarts=16, seed=0)
        assert report.status is SolveStatus.FEASIBLE
        assert report.solution.objective_value == objective
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


def use_helper(monkeypatch, on: bool) -> None:
    """Force the restart helper on (no first pass too short to share, two
    usable CPUs) or off (one usable CPU)."""
    monkeypatch.setattr("displib.solve._FORK_COST", 0)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0, 1} if on else {0}, raising=False)


class TestHelper:
    """A forked helper runs every other pair of restarts; the report is the
    one a single process gives, whether the helper runs, is skipped or
    fails."""

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
        assert shared.same_outcome(inline)

    def test_cuts_at_the_root_bound_on_either_side(self, monkeypatch, forks):
        """On 130 random instances at 48 restarts the one-process run stops
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
                                   seed=1).same_outcome(report)
            if stop is not None:
                timed = solve_heuristic(instance, time_limit=60, seed=1)
                assert timed.same_outcome(report)
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
        monkeypatch.setattr("displib.solve._greedy_pass", scripted)
        monkeypatch.setattr("displib.solve._insertion_pass", scripted)
        report = solve_heuristic(junction, time_limit=5, seed=0)
        assert len(forks) == 1
        assert report.solution.objective_value == 10
        assert report.nodes == sum(range(reach + 1))
        assert report.wall_time < 4

    def test_keeps_the_pinned_greedy_digest(self, monkeypatch, forks):
        """At most two restarts leave the helper no pair, so none starts."""
        use_helper(monkeypatch, True)
        assert greedy_digest() == GREEDY_DIGEST
        assert not forks

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
        assert report.same_outcome(inline)


@pytest.fixture(scope="module")
def corridor_60x40():
    return generate_line(LineSpec(num_stations=60, num_trains=40,
                                  seed=7)).instance


class TestDeadline:
    """A spent budget stops the solve within 256 dispatcher applies, even on
    a corridor whose first greedy pass takes 2,387 applies to fail."""

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
