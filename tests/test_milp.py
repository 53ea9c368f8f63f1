"""Mixed-integer model: variable and row layout, LP text, assignment
round-trips, and end-to-end agreement with the exact search."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
import re

import pytest

import oracles
from builders import disrupted_corridor, random_instance, random_reduced_instance
from conftest import data_text
from lp_reader import assignment_text, read_lp, solve_lp
from displib import cli, milp
from displib.generate import LineSpec, generate_line
from displib.core import (
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    build_instance,
    enumerate_routes,
)
from displib.milp import (
    FAILED_VERIFICATION,
    INCOMPLETE_ASSIGNMENT,
    NON_FINITE_VALUE,
    NON_INTEGRAL_BINARY,
    MappingError,
    Row,
    Variable,
    build_model,
    emit_lp,
    map_solution,
    name_map,
    parse_assignment,
    solution_assignment,
    write_name_map,
)
from displib.solve import SolveStatus, solve_exact
from displib.verify import verify

NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


def windows_on_forks(rng: random.Random, instance):
    """Copy of instance with random start windows on operations that some
    route avoids; the builders put windows on mandatory operations only."""
    trains = []
    for train in instance.trains:
        routes = enumerate_routes(train).routes
        ops = []
        for k, op in enumerate(train.operations):
            if all(k in route for route in routes) or rng.random() < 0.3:
                ops.append(op)
                continue
            lb = rng.randint(0, 15) if rng.random() < 0.7 else 0
            ub = lb + rng.randint(0, 15) if rng.random() < 0.5 else None
            ops.append(dataclasses.replace(op, start_lb=lb, start_ub=ub))
        trains.append(ops)
    return build_instance(trains, instance.objective)


def optional_start_lb_instance():
    """0 -> {1, 2} -> 3 with a late start_lb on alternative 2, an upper
    window on alternative 1 and windows on the mandatory entry and exit.
    Route 0 -> 1 -> 3 at time 1 costs nothing."""
    ops = [Operation(0, (1, 2), start_lb=1),
           Operation(0, (3,), start_ub=50),
           Operation(0, (3,), start_lb=100),
           Operation(0, (), start_ub=300)]
    comp = ObjectiveComponent(train=0, operation=3, threshold=5, coeff=1)
    return build_instance([ops], [comp])


def gated_windows_draw():
    """The second windows_on_forks draw from seeds 41 and 43, the first one
    with both lb and ub rows (the corridors have no gated windows)."""
    rng, window_rng = random.Random(41), random.Random(43)
    for _ in range(2):
        instance = windows_on_forks(
            window_rng, random_reduced_instance(rng, max_trains=3, max_ops=6))
    return instance


def random_models():
    """Models of 150 random_instance and 150 random_reduced_instance draws
    and of 200 windows_on_forks draws."""
    rng = random.Random(17)
    for _ in range(150):
        yield build_model(random_instance(rng, max_trains=3, max_ops=6))
    for _ in range(150):
        yield build_model(random_reduced_instance(rng, max_trains=3, max_ops=6))
    rng, window_rng = random.Random(41), random.Random(43)
    for _ in range(200):
        yield build_model(windows_on_forks(
            window_rng, random_reduced_instance(rng, max_trains=3, max_ops=6)))


def roles_count(model) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in model.variables:
        counts[v.role] = counts.get(v.role, 0) + 1
    return counts


def row_prefix_count(model) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in model.rows:
        prefix = re.match(r"[a-z]+", row.name).group(0)
        counts[prefix] = counts.get(prefix, 0) + 1
    return counts


class TestJunctionModel:
    def test_variable_layout(self, junction):
        model = build_model(junction)
        assert len(model.variables) == 33
        assert roles_count(model) == {
            "start": 7, "select_op": 7, "rank": 7,
            "select_arc": 6, "precede": 4, "late_flag": 1, "cost": 1,
        }
        assert model.horizon == 25
        assert model.order_big_m == 8
        assert model.objective == [("w0", 1)]

    def test_row_layout(self, junction):
        model = build_model(junction)
        assert len(model.rows) == 55
        assert row_prefix_count(model) == {
            "flow": 7, "ya": 6, "yb": 6, "yf": 6, "dur": 6,
            "rel": 5, "zxa": 2, "zxb": 2, "zf": 2,
            "ord": 6, "ordz": 5, "thr": 1, "cost": 1,
        }

    def test_strict_threshold_rows(self, junction):
        model = build_model(junction)
        by_name = {row.name: row for row in model.rows}
        thr = by_name["thr0"]
        assert thr.terms == (("t1_2", 1), ("v0", -26))
        assert thr.sense == "<=" and thr.rhs == -1
        cost = by_name["cost0"]
        assert cost.terms == (("w0", 1), ("t1_2", -1), ("v0", 0), ("x1_2", -25))
        assert cost.sense == ">=" and cost.rhs == -25

    def test_golden_lp_text(self, junction):
        assert emit_lp(build_model(junction)) == data_text("junction.lp")

    def test_emit_is_deterministic(self, junction):
        a = emit_lp(build_model(junction))
        b = emit_lp(build_model(junction))
        assert a == b

    def test_names_are_lp_safe(self, junction):
        model = build_model(junction)
        for v in model.variables:
            assert NAME_RE.match(v.name) and len(v.name) <= 255
        for row in model.rows:
            assert NAME_RE.match(row.name) and len(row.name) <= 255


class TestPinnedModels:
    """Digests of the LP text and of the name map, whose insertion order
    pins the variable order, for models larger than the junction."""

    @pytest.mark.parametrize("make, lp_digest, map_digest", [
        (lambda: generate_line(LineSpec(num_stations=5, num_trains=4,
                                        seed=42)).instance,
         "4df55aa5b58c784b608c7ac8315db65dbf0fa7db4b73eec9238d17640fb05e53",
         "cefe9dd752b93eb128bf4980a1cb9ce67d3d2446a8488a9f614d39ed1389a31d"),
        (disrupted_corridor,
         "6bda022b56f3abe070ff3c697f181dbe69ced31e5f999c57f6af077d5c96066a",
         "405ef755ee750e1bdd823ca1520f51891e5b123c1320f8fefe99752ec960da89"),
        (gated_windows_draw,
         "a5e69a0cce5de07946a370f9057d1b73c082b51f9933c9a4855383ff4b13a451",
         "3f77c1ee33dc38bcec854631f8d7244b73aca024d181326cfca300adbc9f3225"),
        (lambda: generate_line(LineSpec(num_stations=30, num_trains=20,
                                        seed=7)).instance,
         "9b4b271e4c69ba8c55ccf171a9aa4924f594ca221facb1abd2db4e28724cfa49",
         "eca6bd28b0e31671acd30314fb8e7e235860337be99f01aa485301aabbd0027b"),
    ], ids=["corridor-5x4-s42", "disrupted-10x8-s7", "gated-windows",
            "corridor-30x20-s7"])
    def test_lp_and_name_map_digests(self, make, lp_digest, map_digest):
        model = build_model(make())
        if make is gated_windows_draw:
            assert {"lb", "ub"} <= set(row_prefix_count(model))
        text = emit_lp(model)
        names = json.dumps(name_map(model))
        assert hashlib.sha256(text.encode()).hexdigest() == lp_digest
        assert hashlib.sha256(names.encode()).hexdigest() == map_digest
        out = io.StringIO()
        write_name_map(model, out)
        assert out.getvalue() == names + "\n"


class TestWrappedRows:
    """A row over 200 characters is broken at spaces into continuation lines
    indented by three spaces, and reads back as the same row."""

    @staticmethod
    def fan_model():
        """One train whose entry forks into 30 parallel operations that all
        join at the exit, so the entry and exit flow rows name 30 arcs each."""
        width = 30
        ops = [Operation(1, tuple(range(1, width + 1)),
                         resources=(ResourceUsage("A"),))]
        ops += [Operation(2, (width + 1,)) for _ in range(width)]
        ops.append(Operation(0, ()))
        other = [Operation(1, (1,), resources=(ResourceUsage("A", 3),)),
                 Operation(0, ())]
        comp = ObjectiveComponent(train=0, operation=width + 1, threshold=4,
                                  coeff=1)
        return build_model(build_instance([ops, other], [comp]))

    def test_continuation_lines(self):
        lines = emit_lp(self.fan_model()).splitlines()
        assert max(len(line) for line in lines) <= 200
        rows: list[list[str]] = []   # the lines of each row
        for line in lines[lines.index("Subject To") + 1:lines.index("Bounds")]:
            if line.startswith("   "):
                assert line[3] != " "
                rows[-1].append(line)
            else:
                rows.append([line])
        wrapped = {row[0].split(":")[0].strip(): row for row in rows if len(row) > 1}
        # The flow rows of the fork and of the join name 30 arcs each.
        assert sorted(wrapped) == ["flow0_0", "flow0_31"]
        for row in wrapped.values():
            assert len(" ".join([row[0]] + [line[3:] for line in row[1:]])) > 200

    def test_rows_read_back(self):
        model = self.fan_model()
        problem = read_lp(emit_lp(model))
        assert problem.rows == [
            (row.name, {name: coef for name, coef in row.terms if coef},
             row.sense, row.rhs) for row in model.rows]


class TestModelInvariants:
    """Every row refers to the variables by the names the model declares,
    and the model's rows and variables are immutable values."""

    def test_terms_name_declared_unique_variables(self):
        for model in random_models():
            names = [v.name for v in model.variables]
            declared = set(names)
            assert len(declared) == len(names)
            assert len({row.name for row in model.rows}) == len(model.rows)
            for row in model.rows:
                assert {name for name, _ in row.terms} <= declared, row
            assert {name for name, _ in model.objective} <= declared

    def test_rows_and_variables_are_immutable(self):
        fields = {Row: ("name", "terms", "sense", "rhs"),
                  Variable: ("name", "kind", "lb", "ub", "role", "indices")}
        for model in random_models():
            for value in model.rows + model.variables:
                for field in fields[type(value)]:
                    with pytest.raises(AttributeError):
                        setattr(value, field, getattr(value, field))

    def test_reprs_name_every_field(self, junction):
        model = build_model(junction)
        assert repr(model.variables[0]) == (
            "Variable(name='t0_0', kind='continuous', lb=0, ub=0, "
            "role='start', indices=(0, 0))")
        assert repr(model.variables[-1]) == (
            "Variable(name='w0', kind='continuous', lb=0, ub=None, "
            "role='cost', indices=(0,))")
        assert repr(model.rows[0]) == (
            "Row(name='flow0_0', terms=(('y0_0_1', 1), ('y0_0_2', 1)), "
            "sense='=', rhs=1)")
        assert model.rows[0] == Row("flow0_0", (("y0_0_1", 1), ("y0_0_2", 1)),
                                    "=", 1)
        assert model.variables[-1] == Variable("w0", "continuous", 0, None,
                                               "cost", (0,))


class TestRowsOnDemand:
    """build_model declares no rows; model.rows builds the list on first
    read, and the LP writer makes each row as it writes it."""

    def test_round_trip_builds_no_rows(self, junction, junction_solution):
        model = build_model(junction)
        values = solution_assignment(model, junction, junction_solution)
        map_solution(model, values, junction)
        assert emit_lp(model) == data_text("junction.lp")
        assert "rows" not in vars(model)

    def test_commands_build_no_rows(self, junction, junction_solution,
                                    tmp_path, monkeypatch, capsys):
        models = []

        def recording_build_model(instance):
            models.append(build_model(instance))
            return models[-1]

        monkeypatch.setattr(milp, "build_model", recording_build_model)
        instance = tmp_path / "junction.json"
        instance.write_text(data_text("junction_instance.json"))
        values = solution_assignment(build_model(junction), junction,
                                     junction_solution)
        assignment = tmp_path / "assignment.txt"
        assignment.write_text(assignment_text(values))
        lp = tmp_path / "junction.lp"
        assert cli.main(["emit-lp", str(instance), "-o", str(lp)]) == 0
        assert cli.main(["map-solution", str(instance), f"{lp}.names.json",
                         str(assignment), "-o", str(tmp_path / "mapped.json")]) == 0
        assert "mapped: objective 10" in capsys.readouterr().err
        assert len(models) == 2
        assert all("rows" not in vars(model) for model in models)

    def test_reading_rows_first_leaves_the_text_unchanged(self):
        for instance in (disrupted_corridor(), gated_windows_draw()):
            unread, read = build_model(instance), build_model(instance)
            rows = read.rows
            assert emit_lp(unread) == emit_lp(read)
            assert "rows" not in vars(unread) and read.rows is rows

    def test_rows_are_the_rows_of_the_lp_text(self):
        models = [build_model(disrupted_corridor()), *random_models()]
        for model in models:
            problem = read_lp(emit_lp(model))
            assert [row.name for row in model.rows] == \
                [name for name, *_ in problem.rows]


class TestModelShapes:
    def test_single_operation_train(self):
        instance = build_instance([[Operation(0, ())]])
        model = build_model(instance)
        assert [v.name for v in model.variables] == ["t0_0", "x0_0", "u0_0"]
        assert len(model.rows) == 1
        row = model.rows[0]
        assert row.name == "flow0_0"
        assert row.terms == (("x0_0", 1),) and row.sense == "=" and row.rhs == 1
        text = emit_lp(model)
        assert " obj: 0\n" in text
        problem = read_lp(text)
        assert problem.rows[0][0] == "flow0_0"

    def test_disjoint_resources_have_no_orderings(self):
        a = [Operation(1, (1,), resources=(ResourceUsage("A"),)),
             Operation(0, ())]
        b = [Operation(1, (1,), resources=(ResourceUsage("B"),)),
             Operation(0, ())]
        model = build_model(build_instance([a, b]))
        assert not [v for v in model.variables if v.role == "precede"]
        prefixes = row_prefix_count(model)
        for name in ("rel", "zxa", "zxb", "zf", "ordz"):
            assert name not in prefixes

    def test_start_window_is_the_box_bound(self):
        ops = [Operation(1, (1,), start_ub=10 ** 6), Operation(0, ())]
        model = build_model(build_instance([ops]))
        variables = {v.name: v for v in model.variables}
        assert variables["t0_0"].ub == 10 ** 6
        assert model.horizon >= 10 ** 6

    def test_windows_of_optional_operations_are_gated_rows(self):
        model = build_model(optional_start_lb_instance())
        horizon = model.horizon
        variables = {v.name: v for v in model.variables}
        # Mandatory entry and exit keep their windows as the box.
        assert (variables["t0_0"].lb, variables["t0_0"].ub) == (1, horizon)
        assert (variables["t0_3"].lb, variables["t0_3"].ub) == (0, 300)
        # The alternatives get the box [0, H] and rows gated by x.
        for name in ("t0_1", "t0_2"):
            assert (variables[name].lb, variables[name].ub) == (0, horizon)
        by_name = {row.name: row for row in model.rows}
        windows = sorted(name for name in by_name
                         if re.fullmatch(r"(lb|ub)\d+_\d+", name))
        assert windows == ["lb0_2", "ub0_1"]
        lb = by_name["lb0_2"]
        assert lb.terms == (("t0_2", 1), ("x0_2", -100))
        assert lb.sense == ">=" and lb.rhs == 0
        ub = by_name["ub0_1"]
        assert ub.terms == (("t0_1", 1), ("x0_1", horizon - 50))
        assert ub.sense == "<=" and ub.rhs == horizon

    def test_exit_holder_keeps_resource_forever(self):
        # Train 1's exit holds R, so only "train 0 hands over to train 1"
        # exists as an ordering; the reverse would never release.
        t0 = [Operation(1, (1,), resources=(ResourceUsage("R"),)),
              Operation(0, ())]
        t1 = [Operation(1, (1,)),
              Operation(0, (), resources=(ResourceUsage("R"),))]
        instance = build_instance([t0, t1])
        model = build_model(instance)
        z_names = [v.name for v in model.variables if v.role == "precede"]
        assert z_names == ["z0_0_1_1"]
        by_name = {row.name: row for row in model.rows}
        assert by_name["zf0_0_1_1"].terms == (
            ("x0_0", 1), ("x1_1", 1), ("z0_0_1_1", -1))
        status, objective, assignment = solve_lp(emit_lp(model))
        assert status == "optimal"
        mapped = map_solution(model, assignment, instance)
        assert verify(instance, mapped).feasible

    def test_two_exit_holders_are_infeasible(self):
        def train():
            return [Operation(1, (1,)),
                    Operation(0, (), resources=(ResourceUsage("R"),))]
        instance = build_instance([train(), train()])
        assert solve_exact(instance).status is SolveStatus.INFEASIBLE
        model = build_model(instance)
        assert not [v for v in model.variables if v.role == "precede"]
        by_name = {row.name: row for row in model.rows}
        zf = by_name["zf0_1_1_1"]
        assert zf.terms == (("x0_1", 1), ("x1_1", 1))
        assert zf.sense == "<=" and zf.rhs == 1
        status, _, _ = solve_lp(emit_lp(model))
        assert status == "infeasible"


class TestNameMap:
    def test_schema(self, junction):
        model = build_model(junction)
        doc = name_map(model)
        assert doc["format"] == "displib-lp-name-map"
        assert doc["version"] == 1
        assert "options" not in doc
        assert doc["horizon"] == 25
        assert set(doc["variables"]) == {v.name for v in model.variables}
        entry = doc["variables"]["z0_0_1_1"]
        assert entry == {"role": "precede", "kind": "binary",
                         "indices": [0, 0, 1, 1]}


class TestParseAssignment:
    def test_values_and_comments(self):
        text = "# header\n\nx0_0 1\nt0_0 4.5\n  w0   10  \n"
        assert parse_assignment(text) == {"x0_0": 1.0, "t0_0": 4.5, "w0": 10.0}

    def test_bad_shape_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_assignment("x0_0 1\nx0_0 1 2\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_assignment("x0_0 one\n")

    def test_name_given_twice_reports_both_lines(self):
        with pytest.raises(ValueError,
                           match=r"line 3: x0_0 is given again \(first on line 1\)"):
            parse_assignment("x0_0 1\nt0_0 4\nx0_0 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_number_reports_line(self, value):
        with pytest.raises(ValueError, match="line 2: .* not a finite number"):
            parse_assignment(f"x0_0 1\nt0_0 {value}\n")


class TestSolutionAssignment:
    def test_golden_satisfies_every_row(self, junction, junction_solution):
        model = build_model(junction)
        values = solution_assignment(model, junction, junction_solution)
        assert oracles.violated_rows(model, values) == []
        for var in model.variables:
            value = values[var.name]
            assert value >= var.lb
            if var.ub is not None:
                assert value <= var.ub

    def test_golden_round_trips_through_mapping(self, junction,
                                                junction_solution):
        model = build_model(junction)
        values = solution_assignment(model, junction, junction_solution)
        mapped = map_solution(model, values, junction)
        assert mapped.objective_value == 10
        assert mapped.events == junction_solution.events

    def test_random_solutions_satisfy_all_rows(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(25):
            instance = random_reduced_instance(rng, max_trains=3, max_ops=5)
            report = solve_exact(instance, node_limit=100_000)
            if report.solution is None:
                continue
            model = build_model(instance)
            values = solution_assignment(model, instance, report.solution)
            assert oracles.violated_rows(model, values) == []
            checked += 1
        assert checked > 12

    def test_windows_on_forks_witness_is_exact(self):
        # The witness of an unselected alternative follows its predecessors,
        # not its (gated) window, so the running rows into the join hold.
        rng, window_rng = random.Random(41), random.Random(43)
        checked = 0
        for _ in range(200):
            instance = windows_on_forks(
                window_rng, random_reduced_instance(rng, max_trains=3,
                                                    max_ops=6))
            report = solve_exact(instance, node_limit=100_000)
            if report.solution is None:
                continue
            model = build_model(instance)
            values = solution_assignment(model, instance, report.solution)
            assert oracles.violated_rows(model, values) == []
            for var in model.variables:
                assert var.lb <= values[var.name]
                assert var.ub is None or values[var.name] <= var.ub
            mapped = map_solution(model, values, instance)
            assert mapped.events == report.solution.events
            checked += 1
        assert checked > 150


class TestMapSolution:
    def test_missing_variable(self, junction, junction_solution):
        model = build_model(junction)
        values = solution_assignment(model, junction, junction_solution)
        del values["u1_2"]
        with pytest.raises(MappingError) as exc:
            map_solution(model, values, junction)
        assert exc.value.kind == INCOMPLETE_ASSIGNMENT

    def test_fractional_binary(self, junction, junction_solution):
        model = build_model(junction)
        values = solution_assignment(model, junction, junction_solution)
        values["x0_1"] = 0.5
        with pytest.raises(MappingError) as exc:
            map_solution(model, values, junction)
        assert exc.value.kind == NON_INTEGRAL_BINARY

    @pytest.mark.parametrize("name,value", [
        ("x0_0", float("nan")), ("x0_0", float("inf")),
        ("t0_0", float("nan")), ("w0", float("-inf"))])
    def test_non_finite_value(self, junction, junction_solution, name, value):
        model = build_model(junction)
        values = solution_assignment(model, junction, junction_solution)
        values[name] = value
        with pytest.raises(MappingError, match=name) as exc:
            map_solution(model, values, junction)
        assert exc.value.kind == NON_FINITE_VALUE

    def test_infeasible_assignment_carries_verdict(self, junction,
                                                   junction_solution):
        model = build_model(junction)
        values = solution_assignment(model, junction, junction_solution)
        values["t1_1"] = 0.0  # claims L while train 0 still holds it
        with pytest.raises(MappingError) as exc:
            map_solution(model, values, junction)
        assert exc.value.kind == FAILED_VERIFICATION
        assert exc.value.verdict is not None
        assert not exc.value.verdict.feasible

    def test_near_integral_values_are_rounded(self, junction,
                                              junction_solution):
        model = build_model(junction)
        values = solution_assignment(model, junction, junction_solution)
        values["x0_2"] = 1.0 - 1e-9
        values["u0_2"] = 2.0 + 1e-9
        mapped = map_solution(model, values, junction)
        assert mapped.objective_value == 10


class TestExternalSolver:
    def test_junction_end_to_end(self, junction):
        model = build_model(junction)
        status, objective, assignment = solve_lp(emit_lp(model))
        assert status == "optimal"
        assert round(objective) == 10
        mapped = map_solution(model, assignment, junction)
        verdict = verify(junction, mapped)
        assert verdict.feasible and verdict.computed_objective == 10

    def assert_lp_matches_exact(self, instance):
        exact = solve_exact(instance)
        assert exact.status is SolveStatus.OPTIMAL
        model = build_model(instance)
        status, objective, assignment = solve_lp(emit_lp(model))
        assert status == "optimal"
        assert round(objective) == exact.solution.objective_value
        mapped = map_solution(model, assignment, instance)
        assert verify(instance, mapped).feasible
        assert mapped.objective_value == exact.solution.objective_value

    def test_windowed_alternative_is_exact(self):
        # The running row from the entry pushes the unselected alternative 1
        # past its start_ub; its window binds only when it is selected.
        ops = [Operation(5, (1, 2), start_lb=5),
               Operation(0, (3,), start_ub=0),
               Operation(0, (3,)),
               Operation(0, ())]
        self.assert_lp_matches_exact(build_instance([ops]))

    def test_optional_start_lb_does_not_delay_the_join(self):
        # A box t >= 100 on the unselected alternative 2 would be chained
        # into the exit by its running row and price the exit at 95.
        instance = optional_start_lb_instance()
        assert solve_exact(instance).solution.objective_value == 0
        self.assert_lp_matches_exact(instance)

    def test_windows_on_alternatives_match_exact_search(self):
        rng, window_rng = random.Random(41), random.Random(43)
        decided = 0
        for _ in range(60):
            instance = windows_on_forks(
                window_rng, random_reduced_instance(rng, max_trains=3,
                                                    max_ops=6))
            exact = solve_exact(instance, node_limit=100_000)
            if exact.status not in (SolveStatus.OPTIMAL,
                                    SolveStatus.INFEASIBLE):
                continue
            status, objective, _ = solve_lp(emit_lp(build_model(instance)),
                                            time_limit=30)
            if exact.status is SolveStatus.INFEASIBLE:
                assert status == "infeasible"
            else:
                assert status == "optimal"
                assert round(objective) == exact.solution.objective_value
            decided += 1
        assert decided > 40

    def test_matches_exact_search(self):
        rng = random.Random(29)
        agreed = 0
        for _ in range(15):
            instance = random_reduced_instance(rng, max_trains=3, max_ops=5)
            exact = solve_exact(instance, node_limit=100_000)
            model = build_model(instance)
            status, objective, assignment = solve_lp(emit_lp(model),
                                                     time_limit=30)
            if exact.status is SolveStatus.INFEASIBLE:
                assert status == "infeasible"
                continue
            if exact.status is not SolveStatus.OPTIMAL:
                continue
            assert status == "optimal"
            assert round(objective) == exact.solution.objective_value
            mapped = map_solution(model, assignment, instance)
            assert verify(instance, mapped).feasible
            assert mapped.objective_value == exact.solution.objective_value
            agreed += 1
        assert agreed > 8
