"""Synthetic line generation: corridor layout, cost shapes, snapshot
perturbation, and the service patterns (join, cancellation, correspondence)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import oracles
from conftest import data_text
from lp_reader import solve_lp
from displib.core import (
    UNWRITABLE_VALUE,
    Event,
    InstanceError,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    Solution,
)
from displib.fileformat import parse_instance, write_instance
from displib.milp import build_model, emit_lp, map_solution
from displib.generate import (
    LineSpec,
    PatternConflict,
    PerturbSpec,
    SpecInfeasible,
    Visit,
    add_cancellation,
    add_correspondence,
    generate_line,
    join_trains,
    perturb,
)
from displib.solve import SolveStatus, earliest_times, solve_exact, solve_heuristic
from displib.verify import evaluate_objective, verify


def schedule_solution(instance, order, times):
    """Solution whose events follow `order` at `times`, with the objective
    evaluated from those times."""
    placed = dict(zip(order, times))
    return Solution(
        objective_value=evaluate_objective(instance, placed),
        events=tuple(Event(time=t, train=i, operation=op)
                     for t, (i, op) in zip(times, order)))


def claims(line, train, resource):
    """Operations of `train` that use `resource`."""
    return [k for k, op in enumerate(line.instance.trains[train].operations)
            if any(u.resource == resource for u in op.resources)]


# One up train and two down trains. Joining 0 and 1 gives the round trip
# (0, 1, 2, 1, 0), which passes station 1 twice, and leaves down train 2.
ROUND_TRIP = LineSpec(num_stations=3, num_trains=3, up_fraction=0.34,
                      seed=1, headway=0)

FLAT = LineSpec(num_stations=3, tracks_per_station=2, num_trains=2,
                up_fraction=0.5, segment_runtime=(100, 100), dwell=(10, 10),
                release=(5, 5), headway=0, cost_shape="linear", seed=0)


def flat_line(**overrides):
    """Line whose value ranges are all degenerate, so every drawn number is
    known: dwell 10, segment 100, release 5. One up train, one down train,
    both entering at 0; each runs entry, SEG, 2 tracks, SEG, 2 tracks, exit
    and can reach its destination at 230."""
    return generate_line(replace(FLAT, **overrides))


class TestLineLayout:
    @pytest.mark.parametrize("stations,tracks,expected", [
        (2, 2, 5), (2, 3, 6), (3, 2, 8), (4, 3, 14), (6, 2, 17),
    ])
    def test_operations_per_train(self, stations, tracks, expected):
        line = flat_line(num_stations=stations, tracks_per_station=tracks)
        for train, pl in zip(line.instance.trains, line.placements):
            assert len(train.operations) == expected
            assert pl.exit_op == expected - 1

    def test_flat_corridor_wiring(self):
        line = flat_line()
        up = line.instance.trains[0].operations
        assert up[0] == Operation(10, (1,),
                                  resources=(ResourceUsage("S0T0", 5),))
        assert up[1] == Operation(100, (2, 3),
                                  resources=(ResourceUsage("SEG0", 5),))
        assert up[2] == Operation(10, (4,), resources=(ResourceUsage("S1T0", 5),))
        assert up[3] == Operation(10, (4,), resources=(ResourceUsage("S1T1", 5),))
        assert up[4] == Operation(100, (5, 6),
                                  resources=(ResourceUsage("SEG1", 5),))
        assert up[7] == Operation(0, ())
        down = line.instance.trains[1].operations
        assert down[0].resources == (ResourceUsage("S2T0", 5),)
        assert down[1].resources == (ResourceUsage("SEG1", 5),)
        assert down[4].resources == (ResourceUsage("SEG0", 5),)
        assert down[5].resources == (ResourceUsage("S0T0", 5),)
        assert line.timetable[0] == (0, 10, 110, 110, 120, 220, 220, 230)
        assert line.timetable[1] == (0, 10, 110, 110, 120, 220, 220, 230)

    def test_direction_split_and_entry_staggering(self):
        line = flat_line(num_trains=5, up_fraction=0.6, headway=120)
        assert [pl.stations for pl in line.placements] == (
            [(0, 1, 2)] * 3 + [(2, 1, 0)] * 2)
        entries = [t.operations[0] for t in line.instance.trains]
        assert [op.start_lb for op in entries] == [0, 120, 240, 0, 120]
        assert [op.resources[0].resource for op in entries] == [
            "S0T0", "S0T1", "S0T0", "S2T0", "S2T1"]

    def test_route_family(self):
        for spec, paths in [(flat_line(), 4),
                            (flat_line(num_stations=2, tracks_per_station=3), 3)]:
            for train, pl in zip(spec.instance.trains, spec.placements):
                routes = oracles.all_paths(train)
                assert len(routes) == paths
                assert pl.nominal_route in routes

    def test_timetable_is_the_resource_free_longest_path(self):
        line = generate_line(LineSpec(num_stations=4, num_trains=3, seed=13))
        for train, times in zip(line.instance.trains, line.timetable):
            expect = [op.start_lb for op in train.operations]
            for k, op in enumerate(train.operations):
                for s in op.successors:
                    expect[s] = max(expect[s], expect[k] + op.min_duration)
            assert list(times) == expect

    def test_determinism_and_roundtrip(self):
        specs = [
            LineSpec(num_stations=3, num_trains=3, seed=11),
            LineSpec(num_stations=2, tracks_per_station=3, num_trains=2,
                     cost_shape="steps", seed=7),
            LineSpec(num_stations=4, num_trains=5, up_fraction=0.3,
                     cost_shape="convex-pw", seed=5),
        ]
        for spec in specs:
            a, b = generate_line(spec), generate_line(spec)
            assert a.instance == b.instance
            assert a.placements == b.placements
            assert a.timetable == b.timetable
            text = write_instance(a.instance)
            assert text == write_instance(b.instance)
            parsed, diags = parse_instance(text)
            assert parsed == a.instance
            assert diags.warnings == []

    def test_start_windows_sit_only_on_entries(self):
        for seed in range(3):
            line = generate_line(LineSpec(num_stations=4, num_trains=4, seed=seed))
            for train in line.instance.trains:
                assert train.operations[0].start_ub is None
                for op in train.operations[1:]:
                    assert op.start_lb == 0 and op.start_ub is None


class TestCostShapes:
    def test_linear(self):
        line = flat_line()
        assert list(line.instance.objective) == [
            ObjectiveComponent(train=0, operation=7, threshold=230, coeff=1),
            ObjectiveComponent(train=1, operation=7, threshold=230, coeff=1),
        ]

    def test_steps(self):
        line = flat_line(cost_shape="steps")
        assert list(line.instance.objective[:3]) == [
            ObjectiveComponent(train=0, operation=7, threshold=230, increment=1),
            ObjectiveComponent(train=0, operation=7, threshold=410, increment=1),
            ObjectiveComponent(train=0, operation=7, threshold=590, increment=1),
        ]
        assert len(line.instance.objective) == 6
        assert all(c.coeff == 0 and c.increment == 1
                   for c in line.instance.objective)

    def test_convex_pw(self):
        line = flat_line(cost_shape="convex-pw")
        thresholds = [c.threshold for c in line.instance.objective[3:]]
        assert thresholds == [230, 410, 590]
        assert all(c.coeff == 1 and c.increment == 0
                   for c in line.instance.objective)

    def test_single_train_runs_at_zero_delay(self):
        line = flat_line(num_trains=1)
        exact = solve_exact(line.instance)
        assert exact.status is SolveStatus.OPTIMAL
        assert exact.solution.objective_value == 0
        greedy = solve_heuristic(line.instance, max_restarts=0)
        assert greedy.status is SolveStatus.FEASIBLE
        assert greedy.solution.objective_value == 0


class TestSpecValidation:
    @pytest.mark.parametrize("bad", [
        {"num_stations": 1},
        {"tracks_per_station": 1},
        {"num_trains": 0},
        {"up_fraction": 1.5},
        {"up_fraction": -0.1},
        {"segment_runtime": (0, 50)},
        {"segment_runtime": (9, 3)},
        {"dwell": (-1, 4)},
        {"release": (7, 2)},
        {"headway": -5},
        {"cost_shape": "cubic"},
    ])
    def test_rejected(self, bad):
        with pytest.raises(SpecInfeasible):
            generate_line(replace(FLAT, **bad))

    def test_messages_name_the_problem(self):
        with pytest.raises(SpecInfeasible, match="at least 2 tracks"):
            generate_line(replace(FLAT, tracks_per_station=1))
        with pytest.raises(SpecInfeasible, match="unknown cost_shape"):
            generate_line(replace(FLAT, cost_shape="cubic"))

    @pytest.mark.parametrize("make", [
        lambda line: perturb(line, PerturbSpec(at_time=150.5)),
        lambda line: generate_line(LineSpec(num_stations=3, num_trains=2,
                                            seed=1, headway=30.5)),
        lambda line: add_cancellation(line, 0, 1, 2.5),
    ], ids=["at_time", "headway", "penalty"])
    def test_fractional_values_rejected(self, make):
        # A fractional input would put non-integers into the written file.
        line = generate_line(LineSpec(num_stations=3, num_trains=2, seed=1))
        with pytest.raises(InstanceError) as err:
            make(line)
        assert err.value.rule == UNWRITABLE_VALUE


class TestPerturb:
    def test_snapshot_at_zero_is_identity(self):
        line = flat_line(headway=1000, up_fraction=1.0)
        snap = perturb(line, PerturbSpec())
        assert snap.instance == line.instance
        assert snap.placements == line.placements
        assert snap.timetable == line.timetable

    def test_running_and_waiting_trains(self):
        # At t=150 the first train is 30 into its second segment run
        # (120..220) and the second train has not entered yet (lb 1000).
        line = flat_line(headway=1000, up_fraction=1.0)
        snap = perturb(line, PerturbSpec(at_time=150))

        rerooted = snap.instance.trains[0].operations
        assert len(rerooted) == 4
        assert rerooted[0] == Operation(70, (1, 2), start_lb=0, start_ub=0,
                                        resources=(ResourceUsage("SEG1", 5),))
        assert rerooted[1] == Operation(10, (3,),
                                        resources=(ResourceUsage("S2T0", 5),))
        assert rerooted[3] == Operation(0, ())
        pl = snap.placements[0]
        assert pl.visits == (Visit(2, (1, 2), None),)
        assert pl.stations == (2,)
        assert pl.exit_op == 3
        assert pl.nominal_route == (0, 1, 3)
        assert snap.timetable[0] == (0, 70, 70, 80)

        waiting = snap.instance.trains[1].operations
        assert len(waiting) == 8
        assert waiting[0].start_lb == 850 and waiting[0].start_ub is None

        assert list(snap.instance.objective) == [
            ObjectiveComponent(train=0, operation=3, threshold=80, coeff=1),
            ObjectiveComponent(train=1, operation=7, threshold=1080, coeff=1),
        ]

    def test_train_standing_at_a_station(self):
        # At t=115 the first train is dwelling on track 0 of station 1
        # (110..120): it keeps that track as its new entry.
        line = flat_line(headway=1000, up_fraction=1.0)
        snap = perturb(line, PerturbSpec(at_time=115))
        rerooted = snap.instance.trains[0].operations
        assert len(rerooted) == 5
        assert rerooted[0] == Operation(5, (1,), start_lb=0, start_ub=0,
                                        resources=(ResourceUsage("S1T0", 5),))
        pl = snap.placements[0]
        assert pl.visits == (Visit(1, (), 1), Visit(2, (2, 3), None))
        assert pl.stations == (1, 2)

    def test_extra_entry_delay(self):
        line = flat_line(headway=1000, up_fraction=1.0)
        snap = perturb(line, PerturbSpec(delayed_fraction=1.0, delay=(60, 60)))
        lbs = [t.operations[0].start_lb for t in snap.instance.trains]
        assert lbs == [60, 1060]
        undelayed = perturb(line, PerturbSpec(delayed_fraction=0.0, delay=(60, 60)))
        assert undelayed.instance == line.instance

    def test_finished_trains_are_dropped(self):
        line = flat_line()
        gone = perturb(line, PerturbSpec(at_time=230))
        assert gone.instance.trains == ()
        assert gone.instance.objective == ()
        text = write_instance(gone.instance)
        assert parse_instance(text)[0] == gone.instance

    def test_snapshot_solves(self):
        line = flat_line(headway=1000, up_fraction=1.0)
        snap = perturb(line, PerturbSpec(at_time=150))
        report = solve_exact(snap.instance)
        assert report.status is SolveStatus.OPTIMAL
        assert verify(snap.instance, report.solution).feasible

    def test_determinism(self):
        line = generate_line(LineSpec(num_stations=4, num_trains=4, seed=3))
        spec = PerturbSpec(at_time=200, delayed_fraction=0.7,
                           delay=(10, 500), seed=9)
        assert perturb(line, spec).instance == perturb(line, spec).instance

    @pytest.mark.parametrize("bad", [
        {"at_time": -1},
        {"delayed_fraction": 1.5},
        {"delay": (9, 4)},
    ])
    def test_rejected(self, bad):
        with pytest.raises(SpecInfeasible):
            perturb(flat_line(), PerturbSpec(**bad))


class TestJoinTrains:
    def test_merged_shape(self):
        line = flat_line()
        joined = join_trains(line, 0, 1)
        assert len(joined.instance.trains) == 1
        ops = joined.instance.trains[0].operations
        assert len(ops) == 16
        assert ops[7] == Operation(0, (8,))
        assert ops[8] == Operation(10, (9,),
                                   resources=(ResourceUsage("S2T0", 5),))
        assert ops[15] == Operation(0, ())
        assert list(joined.instance.objective) == [
            ObjectiveComponent(train=0, operation=7, threshold=230, coeff=1),
            ObjectiveComponent(train=0, operation=15, threshold=230, coeff=1),
        ]
        pl = joined.placements[0]
        assert pl.stations == (0, 1, 2, 1, 0)
        assert pl.exit_op == 15
        assert pl.nominal_route == (0, 1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 15)

    @pytest.mark.parametrize("op,ahead", [
        (8, (2, 1, 0)), (9, (1, 0)), (10, (1, 0)), (12, (0,)), (13, (0,)),
    ])
    def test_snapshot_lists_only_the_visits_ahead(self, op, ahead):
        # The joined train runs 0-1-2 (ops 0-7), then 2-1-0 (ops 8-15).
        line = generate_line(LineSpec(num_stations=3, num_trains=2, seed=1,
                                      headway=0))
        joined = join_trains(line, 0, 1)
        snap = perturb(joined, PerturbSpec(at_time=joined.timetable[0][op] + 1))
        assert snap.placements[0].stations == ahead

    def test_snapshot_visits_name_their_operations(self):
        # At every step of a round trip, each visit ahead names the tracks
        # of its own station and the run to the next visit.
        joined = join_trains(generate_line(ROUND_TRIP), 0, 1)
        for op in joined.placements[0].nominal_route[:-1]:
            snap = perturb(joined, PerturbSpec(at_time=joined.timetable[0][op]))
            pl = snap.placements[0]
            ops = snap.instance.trains[0].operations
            assert pl.visits[-1].departure is None
            for visit, after in zip(pl.visits, pl.visits[1:]):
                segment = f"SEG{min(visit.station, after.station)}"
                assert ops[visit.departure].resources[0].resource == segment
                assert visit.departure in pl.nominal_route
            for visit in pl.visits:
                assert {ops[k].resources[0].resource for k in visit.tracks} <= {
                    f"S{visit.station}T{t}" for t in range(2)}

    @pytest.mark.parametrize("first,second", [(0, 1), (1, 0), (2, 0)])
    def test_other_trains_are_carried(self, first, second):
        line = generate_line(ROUND_TRIP)
        joined = join_trains(line, first, second)
        kept = [i for i in range(3) if i != second]     # old index of each new
        carried = ({0, 1, 2} - {first, second}).pop()
        assert len(joined.instance.trains) == 2
        new = kept.index(carried)
        assert joined.instance.trains[new] == line.instance.trains[carried]
        assert joined.placements[new] == line.placements[carried]
        offset = len(line.instance.trains[first].operations)
        assert list(joined.instance.objective) == [
            replace(c, train=new) if c.train == carried
            else replace(c, train=kept.index(first),
                         operation=c.operation + offset * (c.train == second))
            for c in line.instance.objective]
        report = solve_heuristic(joined.instance, max_restarts=4)
        assert report.status is SolveStatus.FEASIBLE
        assert verify(joined.instance, report.solution).feasible

    def test_joined_instance_solves(self):
        # The return service keeps its original threshold (its solo earliest
        # exit), so the join itself costs the dead time spent getting the
        # stock to the turnaround: 460 - 230.
        line = flat_line()
        joined = join_trains(line, 0, 1)
        assert joined.timetable[0][15] == 460
        report = solve_exact(joined.instance)
        assert report.status is SolveStatus.OPTIMAL
        assert report.solution.objective_value == 230
        assert verify(joined.instance, report.solution).feasible

    def test_rejected(self):
        line = flat_line()
        with pytest.raises(PatternConflict, match="itself"):
            join_trains(line, 0, 0)
        with pytest.raises(PatternConflict, match="out of range"):
            join_trains(line, 0, 5)
        both_up = flat_line(up_fraction=1.0)
        with pytest.raises(PatternConflict, match="starts at station"):
            join_trains(both_up, 0, 1)
        running = perturb(flat_line(), PerturbSpec(at_time=5))
        with pytest.raises(PatternConflict, match="already running"):
            join_trains(running, 0, 1)


class TestCancellation:
    def test_shortcut_shape(self):
        line = flat_line()
        cut = add_cancellation(line, 0, 1, 1000)
        ops = cut.instance.trains[0].operations
        assert len(ops) == 9
        assert ops[2].successors == (4, 7)
        assert ops[3].successors == (4, 7)
        assert ops[5].successors == (8,)
        assert ops[7] == Operation(0, (8,))
        assert ops[8] == Operation(0, ())
        assert list(cut.instance.objective) == [
            ObjectiveComponent(train=0, operation=8, threshold=230, coeff=1),
            ObjectiveComponent(train=1, operation=7, threshold=230, coeff=1),
            ObjectiveComponent(train=0, operation=7, increment=1000),
        ]
        assert cut.placements[0].exit_op == 8
        assert cut.placements[0].nominal_route == (0, 1, 2, 4, 5, 8)
        assert len(oracles.all_paths(cut.instance.trains[0])) == 6
        other = cut.instance.trains[1].operations
        assert other == line.instance.trains[1].operations

    def test_shortcut_pays_the_penalty(self):
        cut = add_cancellation(flat_line(num_trains=1), 0, 1, 1000)
        shortcut_route = [0, 1, 2, 7, 8]
        order = [(0, op) for op in shortcut_route]
        times = earliest_times(cut.instance, [shortcut_route], order)
        assert times == [0, 10, 110, 120, 120]
        report = verify(cut.instance, schedule_solution(cut.instance, order, times))
        assert report.feasible
        # Ends 110 early, yet the give-up step fires at any time.
        assert report.computed_objective == 1000
        nominal = [(0, op) for op in [0, 1, 2, 4, 5, 8]]
        times = earliest_times(cut.instance, [[0, 1, 2, 4, 5, 8]], nominal)
        full_run = verify(cut.instance,
                          schedule_solution(cut.instance, nominal, times))
        assert full_run.computed_objective == 0

    def test_revisited_station_cancels_at_its_first_visit(self):
        joined = join_trains(generate_line(ROUND_TRIP), 0, 1)
        cut = add_cancellation(joined, 0, 1, 500)
        ops = cut.instance.trains[0].operations
        assert ops[15] == Operation(0, (16,))       # the shortcut
        assert [k for k, op in enumerate(ops) if 15 in op.successors] == [2, 3]

    def test_free_cancellation_never_hurts(self):
        line = flat_line()
        plain = solve_exact(line.instance)
        free = solve_exact(add_cancellation(line, 0, 1, 0).instance)
        costly = solve_exact(add_cancellation(line, 0, 1, 10 ** 6).instance)
        assert free.status is SolveStatus.OPTIMAL
        assert free.solution.objective_value <= plain.solution.objective_value
        assert costly.solution.objective_value == plain.solution.objective_value

    def test_rejected(self):
        line = flat_line()
        with pytest.raises(PatternConflict, match="negative"):
            add_cancellation(line, 0, 1, -1)
        with pytest.raises(PatternConflict, match="destination"):
            add_cancellation(line, 0, 2, 5)
        with pytest.raises(PatternConflict, match="no track choice"):
            add_cancellation(line, 0, 0, 5)
        with pytest.raises(PatternConflict, match="no track choice"):
            add_cancellation(line, 0, 9, 5)
        with pytest.raises(PatternConflict, match="out of range"):
            add_cancellation(line, 7, 1, 5)


class TestCorrespondence:
    def test_shared_resource_placement(self):
        line = flat_line()
        corr = add_correspondence(line, 0, 1, 2)
        feeder = corr.instance.trains[0].operations
        for k, op in enumerate(feeder):
            held = [u.resource for u in op.resources]
            if k < 5:
                assert held[-1] == "CORR0" and op.resources[-1].release_time == 0
            else:
                assert "CORR0" not in held
        connecting = corr.instance.trains[1].operations
        for k, op in enumerate(connecting):
            held = [u.resource for u in op.resources]
            assert ("CORR0" in held) == (k == 1)
        again = add_correspondence(corr, 0, 1, 1)
        assert any("CORR1" == u.resource
                   for op in again.instance.trains[0].operations[:2]
                   for u in op.resources)

    def test_connection_departs_the_first_visit(self):
        # The round trip leaves station 1 on op 4 (first pass) and on op 12
        # (second pass); op 9 is the run that arrives there the second time.
        joined = join_trains(generate_line(ROUND_TRIP), 0, 1)
        corr = add_correspondence(joined, 1, 0, 1)
        assert claims(corr, 0, "CORR0") == [4]
        assert claims(corr, 1, "CORR0") == [0, 1]

    def test_joined_feeder_arrives_at_its_first_visit(self):
        # The round trip first arrives at station 1 on tracks 2 and 3, so it
        # holds the coupling on its entry and first run only.
        joined = join_trains(generate_line(ROUND_TRIP), 0, 1)
        corr = add_correspondence(joined, 0, 1, 1)
        assert claims(corr, 0, "CORR0") == [0, 1]
        assert claims(corr, 1, "CORR0") == [4]
        report = solve_heuristic(corr.instance, max_restarts=4)
        assert report.status is SolveStatus.FEASIBLE
        assert verify(corr.instance, report.solution).feasible

    def test_free_running_schedule_is_excluded(self):
        # Without the coupling both trains run 0..230 undisturbed; with it,
        # the connection's departing segment and the feeder's whole approach
        # exclude each other, so that schedule dies and cost appears.
        line = flat_line()
        plain = solve_exact(line.instance)
        assert plain.solution.objective_value == 0
        corr = add_correspondence(line, 0, 1, 2)
        routes = [list(pl.nominal_route) for pl in corr.placements]
        order = sorted(
            ((t, i, op) for i, (route, tt) in enumerate(zip(routes, corr.timetable))
             for op, t in [(op, tt[op]) for op in route]),
        )
        assert earliest_times(corr.instance, routes,
                              [(i, op) for _, i, op in order]) is None

    def test_solver_honors_the_coupling(self):
        line = flat_line()
        corr = add_correspondence(line, 0, 1, 2)
        report = solve_exact(corr.instance)
        assert report.status is SolveStatus.OPTIMAL
        assert verify(corr.instance, report.solution).feasible
        assert report.solution.objective_value > 0
        at = {(e.train, e.operation): e.time for e in report.solution.events}
        depart = at[(1, 1)]
        after_depart = min(t for (tr, op), t in at.items() if tr == 1 and op > 1)
        feeder_entry = at[(0, 0)]
        feeder_arrival = min(t for (tr, op), t in at.items()
                             if tr == 0 and op in (5, 6))
        assert depart >= feeder_arrival or after_depart <= feeder_entry

    def test_rejected(self):
        line = flat_line()
        with pytest.raises(PatternConflict, match="itself"):
            add_correspondence(line, 1, 1, 1)
        with pytest.raises(PatternConflict, match="does not arrive"):
            add_correspondence(line, 0, 1, 0)
        with pytest.raises(PatternConflict, match="out of range"):
            add_correspondence(line, 0, 4, 1)
        both_up = flat_line(up_fraction=1.0)
        with pytest.raises(PatternConflict, match="destination"):
            add_correspondence(both_up, 0, 1, 2)

    def test_connecting_train_must_visit_the_station(self):
        # At t=50 up train 0 is on its first run: its visits start at
        # station 1, so it cannot connect at station 0.
        line = generate_line(LineSpec(num_stations=4, num_trains=2, seed=1,
                                      headway=0))
        snap = perturb(line, PerturbSpec(at_time=50))
        with pytest.raises(PatternConflict, match="does not visit"):
            add_correspondence(snap, 1, 0, 0)


class TestGeneratedInstancesSolve:
    def test_small_crossing_pipeline(self):
        line = generate_line(LineSpec(num_stations=3, num_trains=2, seed=1))
        report = solve_exact(line.instance)
        assert report.status is SolveStatus.OPTIMAL
        assert verify(line.instance, report.solution).feasible
        greedy = solve_heuristic(line.instance, max_restarts=4)
        assert greedy.status is SolveStatus.FEASIBLE
        assert greedy.solution.objective_value >= report.solution.objective_value

    def test_mixed_corridors_have_heuristic_schedules(self):
        for seed in range(4):
            line = generate_line(LineSpec(num_stations=4, num_trains=4, seed=seed))
            report = solve_heuristic(line.instance, max_restarts=4, seed=seed)
            assert report.status is SolveStatus.FEASIBLE
            assert verify(line.instance, report.solution).feasible

    def test_desk_scale_gap_against_true_optimum(self):
        # Branch and bound cannot close this instance in minutes, so the
        # reference optimum comes from the integer program: HiGHS proves 656.
        # The restart-bounded heuristic lands within 2x of it; the measured
        # numbers are pinned in the golden file.
        golden = json.loads(data_text("line_5x4_seed42.json"))
        line = generate_line(LineSpec(num_stations=golden["line"]["num_stations"],
                                      num_trains=golden["line"]["num_trains"],
                                      seed=golden["line"]["seed"]))
        model = build_model(line.instance)
        status, _, assignment = solve_lp(emit_lp(model), time_limit=240)
        assert status == "optimal"
        best = map_solution(model, assignment, line.instance)
        assert best.objective_value == golden["optimal_objective"]

        report = solve_heuristic(line.instance,
                                 seed=golden["heuristic"]["seed"],
                                 max_restarts=golden["heuristic"]["max_restarts"])
        assert report.status is SolveStatus.FEASIBLE
        assert verify(line.instance, report.solution).feasible
        assert report.solution.objective_value == golden["heuristic"]["objective"]
        assert report.solution.objective_value <= 2 * best.objective_value
        ratio = report.solution.objective_value / best.objective_value
        assert round(ratio, 3) == golden["ratio"]
