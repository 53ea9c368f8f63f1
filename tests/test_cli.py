"""Command line behavior: subcommands, exit codes, JSON output, stdio."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from builders import disrupted_corridor
from conftest import data_text
from displib import cli, milp, solve
from displib.fileformat import parse_instance, parse_solution, write_instance
from displib.generate import (
    LineSpec,
    PerturbSpec,
    add_cancellation,
    add_correspondence,
    generate_line,
    join_trains,
    perturb,
)
from displib.verify import verify
from lp_reader import assignment_text, solve_lp

INFEASIBLE_DOC = json.dumps({
    "trains": [
        [{"min_duration": 1, "successors": [],
          "resources": [{"resource": "R"}]}],
        [{"min_duration": 1, "successors": [],
          "resources": [{"resource": "R"}]}],
    ],
    "objective": [],
})


@pytest.fixture()
def junction_path(tmp_path):
    path = tmp_path / "junction.json"
    path.write_text(data_text("junction_instance.json"))
    return str(path)


@pytest.fixture()
def solution_path(tmp_path):
    path = tmp_path / "solution.json"
    path.write_text(data_text("junction_solution.json"))
    return str(path)


def write_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_valid_instance(self, junction_path, capsys):
        assert cli.main(["validate", junction_path]) == 0
        out = capsys.readouterr().out
        assert out == ("valid: 2 trains, 7 operations, 3 resources, "
                       "1 objective components\n")

    def test_json_summary(self, junction_path, capsys):
        assert cli.main(["validate", "--json", junction_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"valid": True, "trains": 2, "operations": 7,
                           "resources": 3, "objective_components": 1,
                           "warnings": []}

    def test_malformed_document(self, tmp_path, capsys):
        path = write_file(tmp_path, "broken.json", "{nope")
        assert cli.main(["validate", path]) == 2
        assert "MalformedDocument" in capsys.readouterr().err

    def test_malformed_document_json(self, tmp_path, capsys):
        path = write_file(tmp_path, "broken.json", "[1, 2]")
        assert cli.main(["validate", "--json", path]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert payload["error"]["kind"] == "MalformedDocument"
        assert "path" in payload["error"]

    def test_backward_successor_is_a_parse_error(self, tmp_path, capsys):
        doc = ('{"trains": [[{"min_duration": 1, "successors": [0]}]], '
               '"objective": []}')
        path = write_file(tmp_path, "loop.json", doc)
        assert cli.main(["validate", path]) == 2
        assert "CyclicGraph" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "emit-lp"])
    def test_repeated_successor_is_a_parse_error(self, tmp_path, capsys,
                                                 command):
        doc = ('{"trains": [[{"min_duration": 1, "successors": [1, 1]}, '
               '{"min_duration": 0, "successors": []}]], "objective": []}')
        path = write_file(tmp_path, "twice.json", doc)
        assert cli.main([command, path]) == 2
        assert "DuplicateSuccessor" in capsys.readouterr().err

    def test_unknown_key_warns_unless_strict(self, tmp_path, capsys):
        doc = json.loads(data_text("junction_instance.json"))
        doc["frobnicate"] = 1
        path = write_file(tmp_path, "extra.json", json.dumps(doc))
        assert cli.main(["validate", path]) == 0
        assert "frobnicate" in capsys.readouterr().err
        assert cli.main(["validate", "--strict", path]) == 2

    def test_missing_file(self, capsys):
        assert cli.main(["validate", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(data_text("junction_instance.json")))
        assert cli.main(["validate", "-"]) == 0
        assert "valid" in capsys.readouterr().out


class TestStats:
    EXPECTED = {"trains": 2, "operations": 7, "arcs": 6, "resources": 3,
                "conflict_pairs": 2, "objective_components": 1,
                "time_horizon": 25}

    def test_plain(self, junction_path, capsys):
        assert cli.main(["stats", junction_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = dict(line.split(": ") for line in lines)
        assert printed == {k: str(v) for k, v in self.EXPECTED.items()}

    def test_json(self, junction_path, capsys):
        assert cli.main(["stats", "--json", junction_path]) == 0
        assert json.loads(capsys.readouterr().out) == self.EXPECTED


class TestVerifyCommand:
    def test_feasible(self, junction_path, solution_path, capsys):
        assert cli.main(["verify", junction_path, solution_path]) == 0
        assert capsys.readouterr().out == "feasible, objective 10\n"

    def test_infeasible(self, junction_path, tmp_path, capsys):
        swapped = write_file(tmp_path, "swapped.json",
                             data_text("junction_solution_swapped.json"))
        assert cli.main(["verify", junction_path, swapped]) == 1
        out = capsys.readouterr().out
        assert "violation (ResourceOrderViolated)" in out
        assert out.rstrip().endswith("violation(s)")

    def test_infeasible_json(self, junction_path, tmp_path, capsys):
        swapped = write_file(tmp_path, "swapped.json",
                             data_text("junction_solution_swapped.json"))
        assert cli.main(["verify", "--json", junction_path, swapped]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["objective"] is None
        kinds = {v["kind"] for v in payload["violations"]}
        assert "ResourceOrderViolated" in kinds

    def test_malformed_solution(self, junction_path, tmp_path, capsys):
        broken = write_file(tmp_path, "broken.json", '{"objective_value": 1}')
        assert cli.main(["verify", junction_path, broken]) == 2
        assert "invalid solution" in capsys.readouterr().err

    def test_solution_from_stdin(self, junction_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(data_text("junction_solution.json")))
        assert cli.main(["verify", junction_path, "-"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_stdin_named_twice_is_a_usage_error(self, monkeypatch, capsys):
        """Both inputs from stdin: the second read would get nothing, so
        the command refuses before reading and blames neither document."""
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(data_text("junction_instance.json")))
        assert cli.main(["verify", "-", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: only one input can come from "
                                "stdin (-)\n")
        assert captured.out == ""
        assert sys.stdin.tell() == 0


class TestSolveCommand:
    def test_auto_picks_exact_on_junction(self, junction_path, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert cli.main(["solve", junction_path, "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "Optimal: objective 10" in err and "(exact" in err
        solution, _ = parse_solution(out.read_text())
        assert solution.objective_value == 10
        instance, _ = parse_instance(data_text("junction_instance.json"))
        assert verify(instance, solution).feasible

    def test_solution_to_stdout(self, junction_path, capsys):
        assert cli.main(["solve", junction_path]) == 0
        solution, _ = parse_solution(capsys.readouterr().out)
        assert solution.objective_value == 10

    def test_json_payload(self, junction_path, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = cli.main(["solve", "--json", junction_path, "-o", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Optimal"
        assert payload["mode"] == "exact"
        assert payload["objective"] == 10
        assert payload["solution"]["objective_value"] == 10
        assert out.exists()

    def test_json_still_prints_parse_warnings(self, tmp_path, capsys):
        doc = json.loads(data_text("junction_instance.json"))
        doc["extra"] = 1
        path = write_file(tmp_path, "extra.json", json.dumps(doc))
        assert cli.main(["solve", "--json", path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["objective"] == 10
        assert "warning: /extra" in captured.err

    def test_infeasible_instance(self, tmp_path, capsys):
        path = write_file(tmp_path, "blocked.json", INFEASIBLE_DOC)
        assert cli.main(["solve", path]) == 1
        assert "Infeasible: no solution" in capsys.readouterr().err

    def test_unwritable_output(self, junction_path, tmp_path, capsys):
        out = tmp_path / "missing" / "sol.json"
        assert cli.main(["solve", junction_path, "-o", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_infeasible_json_has_no_solution_key(self, tmp_path, capsys):
        path = write_file(tmp_path, "blocked.json", INFEASIBLE_DOC)
        assert cli.main(["solve", "--json", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Infeasible"
        assert "solution" not in payload and "objective" not in payload

    def test_heuristic_gives_up_quietly(self, tmp_path, capsys):
        path = write_file(tmp_path, "blocked.json", INFEASIBLE_DOC)
        code = cli.main(["solve", "--mode", "heuristic", "--max-restarts", "0",
                         path])
        assert code == 1
        assert "TimeoutNoSolution" in capsys.readouterr().err

    def test_heuristic_is_deterministic(self, tmp_path, capsys):
        line = generate_line(LineSpec(num_stations=4, num_trains=4, seed=6))
        path = write_file(tmp_path, "line.json", write_instance(line.instance))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code = cli.main(["solve", "--mode", "heuristic", "--seed", "3",
                             "--max-restarts", "4", path, "-o", str(out)])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--mode", "exact", "--node-limit", "-1"],
        ["--mode", "heuristic", "--max-restarts", "-3"],
        ["--time-limit", "-1"],
        ["--time-limit", "nan"],
    ])
    def test_negative_budget_is_a_usage_error(self, junction_path, flags,
                                              capsys):
        assert cli.main(["solve", junction_path] + flags) == 2
        assert f"{flags[-2]} must be non-negative" in capsys.readouterr().err

    def test_zero_budgets_are_accepted(self, junction_path, capsys):
        code = cli.main(["solve", "--mode", "heuristic", "--max-restarts", "0",
                         "--time-limit", "0", junction_path])
        assert code == 0
        assert "Feasible: objective" in capsys.readouterr().err

    def test_spent_budget_on_a_long_corridor(self, tmp_path, capsys):
        line = generate_line(LineSpec(num_stations=60, num_trains=40, seed=7))
        path = write_file(tmp_path, "line.json", write_instance(line.instance))
        code = cli.main(["solve", "--mode", "heuristic", "--time-limit", "0",
                         path])
        assert code == 1
        assert "TimeoutNoSolution" in capsys.readouterr().err


class TestEmitLp:
    def test_golden_lp_and_sidecar(self, junction_path, tmp_path, capsys):
        out = tmp_path / "junction.lp"
        assert cli.main(["emit-lp", junction_path, "-o", str(out)]) == 0
        assert out.read_text() == data_text("junction.lp")
        sidecar = json.loads((tmp_path / "junction.lp.names.json").read_text())
        assert sidecar["format"] == "displib-lp-name-map"
        assert len(sidecar["variables"]) == 33
        err = capsys.readouterr().err
        assert "33 variables, 55 rows, horizon 25" in err

    def test_stdout(self, junction_path, capsys):
        assert cli.main(["emit-lp", junction_path]) == 0
        assert capsys.readouterr().out == data_text("junction.lp")

    def test_stdout_named_twice_is_a_usage_error(self, junction_path,
                                                 capsys):
        """The LP and the name map both to stdout would run together, so
        the command refuses before writing either."""
        for args in (["-o", "-", "--name-map", "-"], ["--name-map", "-"]):
            assert cli.main(["emit-lp", junction_path, *args]) == 2
            captured = capsys.readouterr()
            assert captured.err == ("error: only one output can go to "
                                    "stdout (-)\n")
            assert captured.out == ""

    def test_one_file_named_twice_is_a_usage_error(self, junction_path,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        """The name map written over the LP would leave no LP, so the
        command refuses before writing either, however the path is spelt."""
        monkeypatch.chdir(tmp_path)
        for name_map in ("x.lp", "./x.lp", str(tmp_path / "x.lp")):
            assert cli.main(["emit-lp", junction_path, "-o", "x.lp",
                             "--name-map", name_map]) == 2
            captured = capsys.readouterr()
            assert captured.err == ("error: two outputs name the same file: "
                                    f"{name_map}\n")
            assert captured.out == ""
            assert not (tmp_path / "x.lp").exists()

    def test_sidecar_is_the_name_map(self, tmp_path):
        line = generate_line(LineSpec(num_stations=5, num_trains=4, seed=42))
        path = write_file(tmp_path, "line.json", write_instance(line.instance))
        out = tmp_path / "line.lp"
        assert cli.main(["emit-lp", path, "-o", str(out)]) == 0
        sidecar = json.loads((tmp_path / "line.lp.names.json").read_text())
        assert sidecar == milp.name_map(milp.build_model(line.instance))

    @pytest.mark.parametrize("make", [
        lambda: generate_line(LineSpec(num_stations=5, num_trains=4,
                                       seed=42)).instance,
        disrupted_corridor,
    ], ids=["corridor-5x4-s42", "disrupted-10x8-s7"])
    def test_file_and_stdout_are_the_emitted_text(self, make, tmp_path, capsys):
        instance = make()
        model = milp.build_model(instance)
        expected = milp.emit_lp(model)
        path = write_file(tmp_path, "line.json", write_instance(instance))
        out = tmp_path / "line.lp"
        assert cli.main(["emit-lp", path, "-o", str(out)]) == 0
        to_file = capsys.readouterr()
        assert cli.main(["emit-lp", path]) == 0
        to_stdout = capsys.readouterr()
        assert out.read_bytes() == expected.encode()
        assert to_file.out == ""
        assert to_stdout.out == expected
        counts = (f"model: {len(model.variables)} variables, "
                  f"{len(model.rows)} rows, horizon {model.horizon}\n")
        assert to_file.err == to_stdout.err == counts


class TestMapSolution:
    def emit(self, junction_path, tmp_path):
        out = tmp_path / "model.lp"
        assert cli.main(["emit-lp", junction_path, "-o", str(out)]) == 0
        return out, tmp_path / "model.lp.names.json"

    def test_round_trip_through_a_real_solver(self, junction_path, tmp_path,
                                              capsys):
        lp, names = self.emit(junction_path, tmp_path)
        status, _, values = solve_lp(lp.read_text())
        assert status == "optimal"
        assignment = write_file(tmp_path, "assignment.txt",
                                assignment_text(values))
        sol = tmp_path / "mapped.json"
        code = cli.main(["map-solution", junction_path, str(names), assignment,
                         "-o", str(sol)])
        assert code == 0
        assert "mapped: objective 10" in capsys.readouterr().err
        solution, _ = parse_solution(sol.read_text())
        instance, _ = parse_instance(data_text("junction_instance.json"))
        verdict = verify(instance, solution)
        assert verdict.feasible and verdict.computed_objective == 10

    def test_infeasible_assignment_is_a_negative_verdict(self, junction_path,
                                                         tmp_path, capsys):
        _, names = self.emit(junction_path, tmp_path)
        instance, _ = parse_instance(data_text("junction_instance.json"))
        swapped, _ = parse_solution(data_text("junction_solution_swapped.json"))
        model = milp.build_model(instance)
        values = milp.solution_assignment(model, instance, swapped)
        assignment = write_file(tmp_path, "bad.txt", assignment_text(values))
        code = cli.main(["map-solution", junction_path, str(names), assignment])
        assert code == 1
        assert "FailedVerification" in capsys.readouterr().err

    def test_failures_as_json(self, junction_path, tmp_path, capsys):
        """--json reports a failed mapping as a document: a witness that
        fails verification lists its violations (exit 1), an assignment
        that names no variable is incomplete and has none (exit 2)."""
        _, names = self.emit(junction_path, tmp_path)
        capsys.readouterr()
        instance, _ = parse_instance(data_text("junction_instance.json"))
        swapped, _ = parse_solution(data_text("junction_solution_swapped.json"))
        model = milp.build_model(instance)
        values = milp.solution_assignment(model, instance, swapped)
        assignment = write_file(tmp_path, "bad.txt", assignment_text(values))
        code = cli.main(["map-solution", "--json", junction_path, str(names),
                         assignment])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["mapped"] is False
        assert doc["kind"] == "FailedVerification"
        assert doc["violations"]
        assert all({"kind", "detail"} <= set(v) for v in doc["violations"])
        empty = write_file(tmp_path, "empty.txt", "")
        code = cli.main(["map-solution", "--json", junction_path, str(names),
                         empty])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["mapped"] is False
        assert doc["kind"] == "IncompleteAssignment"
        assert "violations" not in doc

    def test_truncated_assignment(self, junction_path, tmp_path, capsys):
        lp, names = self.emit(junction_path, tmp_path)
        status, _, values = solve_lp(lp.read_text())
        assert status == "optimal"
        values.pop(next(iter(values)))
        assignment = write_file(tmp_path, "short.txt", assignment_text(values))
        code = cli.main(["map-solution", junction_path, str(names), assignment])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_name_map_for_another_instance(self, junction_path, tmp_path,
                                           capsys):
        line = generate_line(LineSpec(num_stations=2, num_trains=2, seed=0))
        other = write_file(tmp_path, "other.json",
                           write_instance(line.instance))
        out = tmp_path / "other.lp"
        assert cli.main(["emit-lp", other, "-o", str(out)]) == 0
        names = str(tmp_path / "other.lp.names.json")
        assignment = write_file(tmp_path, "empty.txt", "")
        code = cli.main(["map-solution", junction_path, names, assignment])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", [("x0_0", "nan"), ("x0_0", "inf"),
                                            ("t0_0", "nan"), ("w0", "nan")])
    def test_non_finite_value_is_a_bad_assignment(self, junction_path,
                                                  tmp_path, capsys, name,
                                                  value):
        _, names = self.emit(junction_path, tmp_path)
        instance, _ = parse_instance(data_text("junction_instance.json"))
        golden, _ = parse_solution(data_text("junction_solution.json"))
        model = milp.build_model(instance)
        values = milp.solution_assignment(model, instance, golden)
        lineno = list(values).index(name) + 1
        text = assignment_text(values).replace(f"{name} {values[name]}\n",
                                               f"{name} {value}\n")
        assignment = write_file(tmp_path, "nonfinite.txt", text)
        code = cli.main(["map-solution", junction_path, str(names), assignment])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad assignment" in err and f"line {lineno}:" in err

    @pytest.mark.parametrize("inputs", [("-", "-", "-"), ("-", "-", "A"),
                                        ("-", "N", "-"), ("I", "-", "-")])
    def test_stdin_named_twice_is_a_usage_error(self, junction_path,
                                                tmp_path, monkeypatch,
                                                capsys, inputs):
        """Any two of the three inputs from stdin are refused before any
        input is read, instead of blaming the empty second read."""
        _, names = self.emit(junction_path, tmp_path)
        capsys.readouterr()
        assignment = write_file(tmp_path, "empty.txt", "")
        files = {"I": junction_path, "N": str(names), "A": assignment}
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(data_text("junction_instance.json")))
        code = cli.main(["map-solution",
                         *(files.get(name, name) for name in inputs)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: only one input can come from stdin (-)\n")
        assert sys.stdin.tell() == 0

    def test_not_a_name_map(self, junction_path, tmp_path, capsys):
        bogus = write_file(tmp_path, "bogus.json", '{"x": 1}')
        assignment = write_file(tmp_path, "empty.txt", "")
        code = cli.main(["map-solution", junction_path, bogus, assignment])
        assert code == 2
        assert "not a name map" in capsys.readouterr().err

    def test_name_map_is_not_json(self, junction_path, tmp_path, capsys):
        broken = write_file(tmp_path, "broken.json", "{")
        assignment = write_file(tmp_path, "empty.txt", "")
        code = cli.main(["map-solution", junction_path, broken, assignment])
        assert code == 2
        assert "name map is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["reference_objective",
                                        "relaxed_bounds"])
    def test_name_map_with_a_removed_option(self, junction_path, tmp_path,
                                            capsys, option):
        _, names = self.emit(junction_path, tmp_path)
        sidecar = json.loads(names.read_text())
        sidecar["options"] = {"reference_objective": False,
                              "relaxed_bounds": False, option: True}
        names.write_text(json.dumps(sidecar))
        assignment = write_file(tmp_path, "empty.txt", "")
        code = cli.main(["map-solution", junction_path, str(names), assignment])
        assert code == 2
        err = capsys.readouterr().err
        assert option in err and "re-run emit-lp" in err

    def test_name_map_with_all_false_options_still_maps(self, junction_path,
                                                        tmp_path, capsys):
        lp, names = self.emit(junction_path, tmp_path)
        sidecar = json.loads(names.read_text())
        sidecar["options"] = {"reference_objective": False,
                              "relaxed_bounds": False}
        names.write_text(json.dumps(sidecar))
        status, _, values = solve_lp(lp.read_text())
        assert status == "optimal"
        assignment = write_file(tmp_path, "assignment.txt",
                                assignment_text(values))
        code = cli.main(["map-solution", junction_path, str(names), assignment])
        assert code == 0
        assert "mapped: objective 10" in capsys.readouterr().err

    def test_pretty_printed_name_map_still_maps(self, junction_path,
                                                tmp_path, capsys):
        # Sidecars from earlier versions were written with indent=2.
        _, names = self.emit(junction_path, tmp_path)
        names.write_text(json.dumps(json.loads(names.read_text()), indent=2)
                         + "\n")
        instance, _ = parse_instance(data_text("junction_instance.json"))
        golden, _ = parse_solution(data_text("junction_solution.json"))
        values = milp.solution_assignment(milp.build_model(instance),
                                          instance, golden)
        assignment = write_file(tmp_path, "witness.txt",
                                assignment_text(values))
        sol = tmp_path / "mapped.json"
        code = cli.main(["map-solution", junction_path, str(names), assignment,
                         "-o", str(sol)])
        assert code == 0
        assert "mapped: objective 10" in capsys.readouterr().err
        mapped, _ = parse_solution(sol.read_text())
        assert mapped == golden

    @pytest.mark.parametrize("key,value", [
        ("options", [1]),
        ("options", {"reference_objective": "false"}),
        ("variables", 5),
    ])
    def test_malformed_name_map(self, junction_path, tmp_path, capsys,
                                key, value):
        _, names = self.emit(junction_path, tmp_path)
        sidecar = json.loads(names.read_text())
        sidecar[key] = value
        names.write_text(json.dumps(sidecar))
        assignment = write_file(tmp_path, "empty.txt", "")
        code = cli.main(["map-solution", junction_path, str(names), assignment])
        assert code == 2
        assert "not a name map" in capsys.readouterr().err


class TestJsonStdout:
    """With --json, `solve` and `map-solution` print their report and the
    solution document as one JSON object indented by 2, the same bytes
    whether -o names a file or stdout; the file holds that document."""

    def check(self, argv, tmp_path, capsys, digest):
        path = tmp_path / "solution.json"
        for output in ("-", str(path)):
            assert cli.main(argv + ["-o", output]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert json.loads(out)["solution"] == json.loads(path.read_text())

    def test_solve(self, junction_path, tmp_path, capsys, monkeypatch):
        exact = solve.solve_exact
        monkeypatch.setattr(solve, "solve_exact", lambda *args, **kwargs: (
            dataclasses.replace(exact(*args, **kwargs), wall_time=0.25)))
        self.check(["solve", "--json", junction_path], tmp_path, capsys,
                   "cca7284890fccf0fdd84349d1375f510"
                   "fb6db7b13758cc8d8ebc3778793f59a5")

    def test_map_solution(self, junction_path, tmp_path, capsys):
        lp = tmp_path / "model.lp"
        assert cli.main(["emit-lp", junction_path, "-o", str(lp)]) == 0
        instance, _ = parse_instance(data_text("junction_instance.json"))
        solution, _ = parse_solution(data_text("junction_solution.json"))
        assignment = write_file(tmp_path, "assignment.txt", assignment_text(
            milp.solution_assignment(milp.build_model(instance), instance,
                                     solution)))
        self.check(["map-solution", "--json", junction_path,
                    f"{lp}.names.json", assignment], tmp_path, capsys,
                   "9e8a51b971abf178600efe734208ecdc"
                   "b34a64634189275be7211da847709ec8")


class TestGenerateCommand:
    def test_flags_only(self, tmp_path, capsys):
        out = tmp_path / "line.json"
        code = cli.main(["generate", "--num-stations", "3", "--num-trains", "2",
                         "--seed", "1", "-o", str(out)])
        assert code == 0
        expected = generate_line(LineSpec(num_stations=3, num_trains=2, seed=1))
        assert out.read_text() == write_instance(expected.instance)
        err = capsys.readouterr().err
        assert "generated: 2 trains, 16 operations, 2 objective components" in err

    def test_config_pipeline(self, tmp_path):
        config = {
            "line": {"num_stations": 3, "num_trains": 2, "seed": 1,
                     "segment_runtime": [100, 100], "dwell": [10, 10],
                     "release": [5, 5], "headway": 0},
            "patterns": [{"type": "cancellation", "train": 0, "station": 1,
                          "penalty": 50}],
            "perturb": {"delayed_fraction": 1.0, "delay": [60, 60], "seed": 2},
        }
        path = write_file(tmp_path, "config.json", json.dumps(config))
        out = tmp_path / "made.json"
        assert cli.main(["generate", path, "-o", str(out)]) == 0
        spec = LineSpec(num_stations=3, num_trains=2, seed=1,
                        segment_runtime=(100, 100), dwell=(10, 10),
                        release=(5, 5), headway=0)
        expected = perturb(add_cancellation(generate_line(spec), 0, 1, 50),
                           PerturbSpec(delayed_fraction=1.0, delay=(60, 60),
                                       seed=2))
        assert out.read_text() == write_instance(expected.instance)

    def test_config_pipeline_with_join_and_correspondence(self, tmp_path):
        # After the join, train 0 runs 0-1-2-1-0; the connection at station 1
        # claims its first departure from there (op 4), not the second.
        line = {"num_stations": 3, "num_trains": 3, "up_fraction": 0.34,
                "seed": 1, "headway": 0}
        patterns = [{"type": "join", "first": 0, "second": 1},
                    {"type": "correspondence", "feeder": 1, "connecting": 0,
                     "station": 1}]
        path = write_file(tmp_path, "config.json",
                          json.dumps({"line": line, "patterns": patterns}))
        out = tmp_path / "made.json"
        assert cli.main(["generate", path, "-o", str(out)]) == 0
        expected = add_correspondence(
            join_trains(generate_line(LineSpec(**line)), 0, 1), 1, 0, 1)
        assert out.read_text() == write_instance(expected.instance)
        made, _ = parse_instance(out.read_text())
        assert [k for k, op in enumerate(made.trains[0].operations)
                if any(u.resource == "CORR0" for u in op.resources)] == [4]

    def test_config_from_stdin(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"line": {"seed": 4}}'))
        out = tmp_path / "line.json"
        assert cli.main(["generate", "-", "-o", str(out)]) == 0
        expected = generate_line(LineSpec(seed=4))
        assert out.read_text() == write_instance(expected.instance)

    def test_count_writes_numbered_files_with_offset_seeds(self, tmp_path,
                                                           capsys):
        out_dir = tmp_path / "batch"
        code = cli.main(["generate", "--num-stations", "2", "--num-trains", "2",
                         "--seed", "5", "--count", "3",
                         "--out-dir", str(out_dir)])
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["instance_0000.json", "instance_0001.json",
                         "instance_0002.json"]
        for offset in range(3):
            expected = generate_line(
                LineSpec(num_stations=2, num_trains=2, seed=5 + offset))
            text = (out_dir / f"instance_{offset:04d}.json").read_text()
            assert text == write_instance(expected.instance)

    def test_count_zero_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "none"
        code = cli.main(["generate", "--count", "0", "--out-dir", str(out_dir)])
        assert code == 0
        assert list(out_dir.iterdir()) == []

    def test_count_needs_out_dir(self, tmp_path, capsys):
        assert cli.main(["generate", "--count", "2"]) == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_out_dir_under_a_file(self, tmp_path, capsys):
        blocker = write_file(tmp_path, "plain.txt", "")
        code = cli.main(["generate", "--out-dir", blocker + "/sub"])
        assert code == 2
        assert "cannot create" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        path = write_file(tmp_path, "config.json", '{"line": {"seed": 5}}')
        out = tmp_path / "line.json"
        assert cli.main(["generate", path, "--seed", "9", "-o", str(out)]) == 0
        expected = generate_line(LineSpec(seed=9))
        assert out.read_text() == write_instance(expected.instance)

    @pytest.mark.parametrize("config,fragment", [
        ('{"lines": {}}', "unknown key"),
        ('{"line": {"individuals": 1}}', "unknown key"),
        ('{"perturb": {"delay": [9, 4]}}', "cannot generate"),
        ('{"patterns": [{"type": "warp"}]}', "unknown pattern type"),
        ('{"patterns": [{"type": "join", "first": 0}]}', "missing"),
        ('{"patterns": [{"type": "join", "first": 0, "second": 0}]}',
         "cannot generate"),
        ('{"patterns": {}}', "patterns must be an array"),
        ('{"patterns": [{"first": 0, "second": 1}]}', 'needs a "type" key'),
        ('{"patterns": [{"type": "join", "first": 0, "second": 1, "third": 2}]}',
         "unknown key 'third'"),
        ('{"patterns": [{"type": "join", "first": 0, "second": "1"}]}',
         "all pattern fields are integers"),
        ('[]', "must be a JSON object"),
        ('{', "not valid JSON"),
    ])
    def test_bad_configs(self, tmp_path, capsys, config, fragment):
        path = write_file(tmp_path, "config.json", config)
        assert cli.main(["generate", path]) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("config,key", [
        ('{"line": {"num_stations": "5"}}', "line.num_stations"),
        ('{"line": {"num_stations": 4.5}}', "line.num_stations"),
        ('{"line": {"seed": "x"}}', "line.seed"),
        ('{"line": {"dwell": 5}}', "line.dwell"),
        ('{"line": {"segment_runtime": [1, "a"]}}', "line.segment_runtime"),
        ('{"perturb": {"at_time": "3"}}', "perturb.at_time"),
        ('{"line": {"up_fraction": "half"}}', "line.up_fraction"),
        ('{"line": {"cost_shape": 3}}', "line.cost_shape"),
        ('{"line": []}', "line must be an object"),
        ('{"perturb": []}', "perturb must be an object"),
    ])
    def test_mistyped_config_values(self, tmp_path, capsys, config, key):
        path = write_file(tmp_path, "config.json", config)
        assert cli.main(["generate", path]) == 2
        assert key in capsys.readouterr().err

    def test_negative_count(self, capsys):
        assert cli.main(["generate", "--count", "-1", "--out-dir", "x"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_infeasible_spec(self, capsys):
        assert cli.main(["generate", "--num-trains", "0"]) == 2
        assert "cannot generate" in capsys.readouterr().err


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["warp"]) == 2

    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_help_is_success(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "train dispatching" in capsys.readouterr().out

    def test_each_call_starts_from_the_defaults(self, junction_path, tmp_path,
                                                monkeypatch, capsys):
        """The parser is built once per process. Neither an earlier call's
        flags nor a usage error in between reach the next call."""
        limits = []
        exact = solve.solve_exact

        def recording_solve_exact(instance, **kwargs):
            limits.append(kwargs)
            return exact(instance, **kwargs)

        monkeypatch.setattr(solve, "solve_exact", recording_solve_exact)
        out = str(tmp_path / "solution.json")
        assert cli.main(["solve", junction_path, "--mode", "exact",
                         "--node-limit", "5", "-o", out]) == 0
        assert cli.main(["solve", junction_path, "--node-limit", "many",
                         "-o", out]) == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err
        assert cli.main(["solve", junction_path, "-o", out]) == 0
        assert limits == [{"node_limit": 5, "time_limit": None},
                          {"node_limit": None, "time_limit": None}]
        assert cli._build_parser() is cli._build_parser()

    def test_module_entry_point(self, junction_path):
        # `python -m displib.cli` is the documented alternative to the
        # installed script.
        run = subprocess.run([sys.executable, "-m", "displib.cli", "validate",
                              junction_path], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("valid: 2 trains, 7 operations")

    def test_import_loads_no_helper_modules(self):
        # pickle, select and signal serve only the forked restart helper;
        # importing the command line must not load them.
        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "import displib.cli\n"
                "print(sorted({'pickle', 'select', 'signal'} & (set(sys.modules) - before)))")
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": package_root})
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"
