"""Toolkit for the train dispatching problem.

Instances describe trains as acyclic operation graphs over time-shared
resources; solutions pick a route per train and order the starts. The
package parses and writes the JSON interchange format, verifies solutions,
searches for good schedules, builds a solver-ready LP model, and generates
synthetic instances.
"""

from .core import (
    ConflictPair,
    Event,
    Instance,
    InstanceError,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    RouteSet,
    Solution,
    Train,
    build_instance,
    conflict_pairs,
    enumerate_routes,
    is_route,
    predecessors,
    shared_resources,
    time_horizon,
    total_operations,
    validate_instance,
)
from .fileformat import (
    FormatError,
    ParseDiagnostics,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from .verify import (
    Verdict,
    Violation,
    check_resources,
    check_routes,
    evaluate_objective,
    verify,
)
from .solve import (
    SolveReport,
    SolveStatus,
    earliest_times,
    solve_exact,
    solve_heuristic,
)
from .milp import (
    MappingError,
    MilpModel,
    Row,
    Variable,
    build_model,
    emit_lp,
    map_solution,
    name_map,
    parse_assignment,
    solution_assignment,
)
from .generate import (
    GeneratedLine,
    LineSpec,
    PatternConflict,
    PerturbSpec,
    SpecInfeasible,
    TrainPlacement,
    Visit,
    add_cancellation,
    add_correspondence,
    generate_line,
    join_trains,
    perturb,
)

__version__ = "0.1.0"

__all__ = [
    "ConflictPair", "Event", "Instance", "InstanceError", "ObjectiveComponent",
    "Operation", "ResourceUsage", "RouteSet", "Solution", "Train",
    "build_instance", "conflict_pairs", "enumerate_routes", "is_route",
    "predecessors", "shared_resources", "time_horizon", "total_operations",
    "validate_instance",
    "FormatError", "ParseDiagnostics", "parse_instance", "parse_solution",
    "write_instance", "write_solution",
    "Verdict", "Violation", "check_resources", "check_routes",
    "evaluate_objective", "verify",
    "SolveReport", "SolveStatus", "earliest_times", "solve_exact",
    "solve_heuristic",
    "MappingError", "MilpModel", "Row", "Variable",
    "build_model", "emit_lp", "map_solution", "name_map", "parse_assignment",
    "solution_assignment",
    "GeneratedLine", "LineSpec", "PatternConflict", "PerturbSpec",
    "SpecInfeasible", "TrainPlacement", "Visit", "add_cancellation",
    "add_correspondence", "generate_line", "join_trains", "perturb",
]
