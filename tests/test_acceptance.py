"""Acceptance checks, one per criterion, each printing a PASS/FAIL line.

The lines go straight to the real stderr so they stay visible in captured
pytest runs. Budgets and tolerances are asserted inside each criterion.
"""

from __future__ import annotations

import json
import random
import sys
import time
from types import SimpleNamespace

import pytest

import oracles
from builders import corrupt, mutate_document, random_instance
from conftest import data_text
from displib.fileformat import (
    FormatError,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from displib.generate import LineSpec, PerturbSpec, generate_line, perturb
from displib.milp import build_model, emit_lp, map_solution, solution_assignment
from displib.solve import SolveStatus, solve_exact, solve_heuristic
from displib.verify import check_resources, check_routes, verify


def _outcome(capfd, name: str, task):
    try:
        detail = task()
    except BaseException as e:
        with capfd.disabled():
            print(f"{name}: FAIL ({e})", file=sys.stderr, flush=True)
        raise
    with capfd.disabled():
        print(f"{name}: PASS ({detail})", file=sys.stderr, flush=True)


@pytest.fixture(scope="module")
def small_corpus():
    """200 generated corridor instances small enough to enumerate, each
    solved exactly and by exhaustive search over routes and interleavings."""
    results = []
    solve_seconds = oracle_seconds = 0.0
    for s in range(50):
        specs = (
            LineSpec(num_stations=2, tracks_per_station=2, num_trains=2,
                     headway=60, seed=s),
            LineSpec(num_stations=2, tracks_per_station=2, num_trains=3,
                     headway=0, seed=1000 + s),
            LineSpec(num_stations=2, tracks_per_station=3, num_trains=2,
                     cost_shape="steps", headway=120, seed=2000 + s),
            LineSpec(num_stations=2, tracks_per_station=2, num_trains=3,
                     cost_shape="convex-pw", headway=45, seed=3000 + s),
        )
        for spec in specs:
            line = generate_line(spec)
            if s % 2:
                line = perturb(line, PerturbSpec(delayed_fraction=0.5,
                                                 delay=(30, 180), seed=s))
            t0 = time.monotonic()
            report = solve_exact(line.instance)
            t1 = time.monotonic()
            brute = oracles.brute_force_optimum(line.instance)
            solve_seconds += t1 - t0
            oracle_seconds += time.monotonic() - t1
            results.append((line.instance, report, brute))
    return SimpleNamespace(results=results, solve_seconds=solve_seconds,
                           oracle_seconds=oracle_seconds)


def test_criterion_1_golden_instance_verdicts(capfd):
    def task():
        t0 = time.monotonic()
        instance, _ = parse_instance(data_text("junction_instance.json"))
        solution, _ = parse_solution(data_text("junction_solution.json"))
        swapped, _ = parse_solution(data_text("junction_solution_swapped.json"))
        good = verify(instance, solution)
        assert good.feasible and good.computed_objective == 10
        bad = verify(instance, swapped)
        assert not bad.feasible
        assert any(v.kind == "ResourceOrderViolated" for v in bad.violations)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        return f"objective 10 accepted, swap rejected, {elapsed:.3f}s"
    _outcome(capfd, "criterion 1", task)


def test_criterion_2_exact_matches_enumeration(capfd, small_corpus):
    def task():
        results = small_corpus.results
        assert len(results) >= 200
        for instance, report, brute in results:
            assert len(instance.trains) <= 3
            assert all(len(t.operations) <= 6 for t in instance.trains)
            assert report.status is SolveStatus.OPTIMAL
            assert brute is not None
            assert report.solution.objective_value == brute[0]
            verdict = verify(instance, report.solution)
            assert verdict.feasible
            assert verdict.computed_objective == brute[0]
        solver, oracle = small_corpus.solve_seconds, small_corpus.oracle_seconds
        assert solver + oracle < 300.0
        return (f"{len(results)} instances, optimum == enumeration on all, "
                f"exact solver {solver:.1f}s + enumeration oracle {oracle:.1f}s "
                f"= {solver + oracle:.1f}s of 300s budget")
    _outcome(capfd, "criterion 2", task)


def test_criterion_3_solution_assignments_satisfy_every_row(capfd, small_corpus):
    def task():
        checked = 0
        for instance, report, _ in small_corpus.results:
            model = build_model(instance)
            assignment = solution_assignment(model, instance, report.solution)
            assert set(assignment) == {v.name for v in model.variables}
            assert oracles.violated_rows(model, assignment, tolerance=0.0) == []
            checked += 1
        return f"{checked} assignments, zero violated rows at tolerance 0"
    _outcome(capfd, "criterion 3", task)


def test_criterion_4_lp_export_and_round_trip(capfd):
    def task():
        instance, _ = parse_instance(data_text("junction_instance.json"))
        model = build_model(instance)
        text = emit_lp(model)
        assert text == data_text("junction.lp")
        try:
            from lp_reader import solve_lp
        except ImportError:
            return "golden LP byte-identical; no external solver available"
        status, _, values = solve_lp(text)
        assert status == "optimal"
        solution = map_solution(model, values, instance)
        verdict = verify(instance, solution)
        assert verdict.feasible and verdict.computed_objective == 10
        return "golden LP byte-identical; solver round trip reached objective 10"
    _outcome(capfd, "criterion 4", task)


def test_criterion_5_sweep_equals_literal_check(capfd):
    def task():
        rng = random.Random(97)
        compared = corrupted = nonzero = 0
        for _ in range(120):
            instance = random_instance(rng, max_trains=6, max_ops=8)
            report = solve_heuristic(instance, max_restarts=2)
            candidates = []
            if report.solution is not None:
                candidates.append((report.solution, False))
                for _ in range(8):
                    mutant = corrupt(rng, report.solution)
                    if mutant is not None:
                        candidates.append((mutant, True))
            for solution, was_corrupted in candidates:
                if check_routes(instance, solution).violations:
                    continue
                if any(b.time < a.time for a, b in
                       zip(solution.events, solution.events[1:])):
                    continue
                sweep = oracles.normalize_sweep(
                    check_resources(instance, solution))
                literal = oracles.literal_resource_violations(
                    instance, solution.events)
                assert sweep == literal
                compared += 1
                corrupted += was_corrupted
                nonzero += bool(sweep)
        assert compared >= 500
        assert corrupted >= 100
        assert nonzero > 20
        return (f"{compared} pairs ({corrupted} corrupted, {nonzero} with "
                f"violations), sweep == literal on all")
    _outcome(capfd, "criterion 5", task)


def test_criterion_6_round_trips_and_parser_robustness(capfd):
    def task():
        instance, _ = parse_instance(data_text("junction_instance.json"))
        text = write_instance(instance)
        again, _ = parse_instance(text)
        assert again == instance and write_instance(again) == text
        solution, _ = parse_solution(data_text("junction_solution.json"))
        sol_text = write_solution(solution)
        assert parse_solution(sol_text)[0] == solution

        rng = random.Random(73)
        for _ in range(1000):
            made = random_instance(rng, max_trains=4, max_ops=7)
            text = write_instance(made)
            parsed, _ = parse_instance(text)
            assert parsed == made
            assert write_instance(parsed) == text

        rejected = survived = 0
        for _ in range(400):
            doc = json.loads(write_instance(random_instance(rng)))
            broken = mutate_document(rng, doc)
            try:
                parse_instance(broken)
                survived += 1
            except FormatError as e:
                assert e.kind and str(e)
                assert isinstance(e.path, str)
                rejected += 1
        assert rejected > 100
        return (f"1000 instances round-tripped byte-stable; 400 mutated docs "
                f"({rejected} rejected with kind and path, {survived} "
                f"still valid), no crashes")
    _outcome(capfd, "criterion 6", task)


def test_criterion_7_objective_semantics(capfd):
    def task():
        from displib.core import (
            ObjectiveComponent,
            Operation,
            build_instance,
        )
        from displib.core import Event, Solution

        # The step increment fires exactly at the threshold.
        ops = [Operation(5, (1,)), Operation(0, ())]
        at_threshold = build_instance(
            [ops], [ObjectiveComponent(0, 1, threshold=5, coeff=2, increment=7)])
        events = (Event(0, 0, 0), Event(5, 0, 1))
        verdict = verify(at_threshold, Solution(7, events))
        assert verdict.feasible and verdict.computed_objective == 7
        lying = verify(at_threshold, Solution(0, events))
        assert not lying.feasible
        assert any(v.kind == "ObjectiveMismatch" for v in lying.violations)
        below = build_instance(
            [ops], [ObjectiveComponent(0, 1, threshold=6, coeff=2, increment=7)])
        assert verify(below, Solution(0, events)).computed_objective == 0
        linear_tail = build_instance(
            [ops], [ObjectiveComponent(0, 1, threshold=3, coeff=2, increment=7)])
        assert verify(linear_tail, Solution(11, events)).computed_objective == 11

        # Components on operations off the chosen route contribute nothing.
        fork = [Operation(1, (1, 2)), Operation(1, (3,)), Operation(1, (3,)),
                Operation(0, ())]
        off_route = build_instance(
            [fork], [ObjectiveComponent(0, 2, threshold=0, coeff=10 ** 6)])
        taken = (Event(0, 0, 0), Event(1, 0, 1), Event(2, 0, 3))
        assert verify(off_route, Solution(0, taken)).computed_objective == 0

        # The three generated cost shapes, checked at exact integer values:
        # a 200 late exit against thresholds 230 / 410 / 590.
        expected = {"linear": 200, "steps": 2, "convex-pw": 220}
        for shape, cost in expected.items():
            spec = LineSpec(num_stations=3, num_trains=1, up_fraction=1.0,
                            segment_runtime=(100, 100), dwell=(10, 10),
                            release=(5, 5), headway=0, cost_shape=shape)
            line = perturb(generate_line(spec),
                           PerturbSpec(delayed_fraction=1.0, delay=(200, 200)))
            report = solve_exact(line.instance)
            assert report.status is SolveStatus.OPTIMAL
            assert report.solution.objective_value == cost
            assert verify(line.instance,
                          report.solution).computed_objective == cost
        return ("step fires at equality, off-route components cost 0, "
                "linear/steps/convex-pw all at exact integer values")
    _outcome(capfd, "criterion 7", task)


def test_criterion_8_heuristic_scales_to_dense_corridors(capfd):
    def task():
        ladder = [(3, 2, 1), (5, 4, 42), (10, 8, 7), (20, 14, 7), (30, 20, 7)]
        notes = []
        for stations, trains, seed in ladder:
            line = generate_line(LineSpec(num_stations=stations,
                                          num_trains=trains, seed=seed))
            t0 = time.monotonic()
            report = solve_heuristic(line.instance, time_limit=8.0,
                                     max_restarts=32, seed=0)
            elapsed = time.monotonic() - t0
            assert elapsed < 10.0, f"{stations}x{trains} took {elapsed:.1f}s"
            assert report.status is SolveStatus.FEASIBLE, \
                f"{stations}x{trains}: {report.status}"
            assert verify(line.instance, report.solution).feasible
            note = f"{stations}st/{trains}tr Z={report.solution.objective_value}"
            if stations <= 5:
                exact = solve_exact(line.instance, node_limit=150_000)
                if exact.status is SolveStatus.OPTIMAL:
                    ratio = (report.solution.objective_value
                             / max(1, exact.solution.objective_value))
                    note += f" ratio={ratio:.2f} of optimum"
                else:
                    incumbent = (exact.solution.objective_value
                                 if exact.solution else None)
                    note += (f" (exact truncated: bound {exact.bound}, "
                             f"incumbent {incumbent})")
            notes.append(note)
        return "; ".join(notes)
    _outcome(capfd, "criterion 8", task)
