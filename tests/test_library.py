"""The README's Library section runs as written against the junction
instance, its golden solution and that solution's LP witness."""

from __future__ import annotations

import pathlib
import types

from conftest import data_text
from displib import fileformat, milp, solve

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first python code block after the "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs():
    text = data_text("junction_instance.json")
    instance, _ = fileformat.parse_instance(text)
    golden, _ = fileformat.parse_solution(data_text("junction_solution.json"))
    witness = milp.solution_assignment(milp.build_model(instance), instance,
                                       golden)
    names = {"text": text, "solution": golden, "assignment": witness}
    exec(compile(library_block(), str(README), "exec"), names)

    for module in ("fileformat", "generate", "milp", "solve", "verify"):
        assert isinstance(names[module], types.ModuleType), module
    assert names["verdict"].feasible
    assert names["verdict"].computed_objective == golden.objective_value
    assert names["report"].status in (solve.SolveStatus.OPTIMAL,
                                      solve.SolveStatus.FEASIBLE)
    assert names["solution"] == golden
    assert names["lp_text"].startswith("\\ dispatching model")
    assert names["rows"] == 55
    assert names["snapshot"].instance.trains
