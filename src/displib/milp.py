"""Big-M mixed-integer model of the dispatching problem, emitted as LP text.

Variables (roles in parentheses):

- t{i}_{a} (start): continuous start time, bounded by the start window
  clipped to the horizon H.
- x{i}_{a} (select_op): 1 iff the operation is on the chosen route.
- y{i}_{a}_{b} (select_arc): 1 iff the route uses arc a->b. Unit flow from
  entry to exit selects one path per train; x is tied to the incident arcs.
- z{i}_{a}_{j}_{b} (precede): 1 iff operation a of train i hands a shared
  resource over to operation b of train j. For every shared resource and
  every successor a' of a there is a release row
  t(a') - t(b) <= -release + M(1-z); selected conflicting pairs must order
  themselves one way or the other. An operation with no successors never
  releases anything, so that direction's z is not created; the pair rows
  then force the other direction (or forbid selecting both ops when neither
  could yield).
- u{i}_{a} (rank): integer event position; ordering rows force u to respect
  selected arcs and handovers, so (t, u) sorts events into a feasible order
  even when times tie.
- v{c} (late_flag): 1 iff the component's operation starts at or after its
  threshold. w{c} (cost): the component's cost; the objective minimizes the
  sum of all w.

The cost rows are gated by x (off-route components cost nothing) and the
threshold rows are strict, so that for integral times v is forced to 1
exactly when t >= threshold, matching the verifier's cost.

Start windows: an operation on every route of its train (mandatory) keeps
its window as the box of t, clipped to H. Operation indices are
topological, so an operation is mandatory exactly when no arc jumps over it.
An optional operation's t has the box [0, H] and its window binds only when
it is selected: lb rows t - start_lb x >= 0 and ub rows t + (H - ub) x <= H.
So windows on any operation are exact.

Route semantics: y is tied to x by the three pairwise inequalities, which
read route membership of both endpoints as arc use. That is exact when the
successor graph is transitively reduced (no arc a->b alongside a longer
a->..->b path), the shape every physical layout here produces; a route
visiting both ends of an unused skip arc has no model image. The verifier
and the search solvers have no such restriction.

Rows come in sections, each in train/operation/arc/pair/component order:
flow, arcs (ya, yb, yf, dur), handovers (rel, zxa, zxb, zf), ranks (ord),
pair ranks (ordz), costs (thr, cost), then the gated windows (lb, ub).

build_model declares only the variables and the objective, which is all that
solution_assignment, map_solution and name_map read. The rows are generated
on demand: iter_rows yields them one at a time, section by section, and
write_lp formats each as it is made and writes it to a text handle, so no
row outlives its line. MilpModel.rows is the list of all rows, built on its
first read. Row and Variable are named tuples; within a pass each
operation's t, x and u names and each arc's y name are formatted once, and
every row that refers to the variable shares that string.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence, TextIO

from .core import (
    ConflictPair,
    Instance,
    Event,
    Operation,
    Solution,
    Train,
    conflict_pairs,
    predecessors,
    shared_resources,
    time_horizon,
    total_operations,
)
from .verify import verify as _verify_solution

CONTINUOUS = "continuous"
BINARY = "binary"
INTEGER = "integer"

ROLE_START = "start"
ROLE_SELECT_OP = "select_op"
ROLE_SELECT_ARC = "select_arc"
ROLE_PRECEDE = "precede"
ROLE_RANK = "rank"
ROLE_LATE_FLAG = "late_flag"
ROLE_COST = "cost"

INCOMPLETE_ASSIGNMENT = "IncompleteAssignment"
NON_INTEGRAL_BINARY = "NonIntegralBinary"
NON_FINITE_VALUE = "NonFiniteValue"
FAILED_VERIFICATION = "FailedVerification"

BINARY_TOLERANCE = 1e-6


class MappingError(ValueError):
    """An external assignment that cannot be turned into a feasible solution."""

    def __init__(self, kind: str, message: str, verdict=None):
        super().__init__(message)
        self.kind = kind
        self.verdict = verdict


class Variable(NamedTuple):
    name: str
    kind: str
    lb: int
    ub: int | None          # None = unbounded above
    role: str
    indices: tuple[int, ...]


class Row(NamedTuple):
    name: str
    terms: tuple[tuple[str, int], ...]
    sense: str               # "<=", ">=", "="
    rhs: int


@dataclass
class MilpModel:
    instance: Instance
    variables: list[Variable]
    objective: list[tuple[str, int]]
    horizon: int
    order_big_m: int
    pairs: list[ConflictPair]   # conflict_pairs(instance), computed once

    @functools.cached_property
    def rows(self) -> list[Row]:
        """Every row, in iter_rows order, built on first read."""
        return list(iter_rows(self))


def _t(i: int, a: int) -> str:
    return f"t{i}_{a}"


def _x(i: int, a: int) -> str:
    return f"x{i}_{a}"


def _y(i: int, a: int, b: int) -> str:
    return f"y{i}_{a}_{b}"


def _z(i: int, a: int, j: int, b: int) -> str:
    return f"z{i}_{a}_{j}_{b}"


def _u(i: int, a: int) -> str:
    return f"u{i}_{a}"


def _jumped(train: Train) -> list[bool]:
    """Per operation, whether an arc jumps over it, so that some route avoids
    it. Operation indices are topological, so the arcs out of the earlier
    operations decide it."""
    jumped: list[bool] = []
    reach = 0   # largest successor of the operations before a
    for a, op in enumerate(train.operations):
        jumped.append(reach > a)
        reach = max(reach, max(op.successors, default=0))
    return jumped


def _start_ub(op: Operation, horizon: int) -> int:
    return horizon if op.start_ub is None else min(op.start_ub, horizon)


def _sides(instance: Instance, pair: ConflictPair) -> tuple[tuple, tuple]:
    """Both directions (k, c, m, d, successors, z) of a conflict pair: side
    (k, c) may hand the shared resources over to (m, d). A side without
    successors never releases anything, so it gets no z and no rows."""
    i, a, j, b = pair
    return tuple((k, c, m, d, instance.trains[k].operations[c].successors,
                  _z(k, c, m, d))
                 for k, c, m, d in ((i, a, j, b), (j, b, i, a)))


def build_model(instance: Instance) -> MilpModel:
    """Declare the variables and the objective; the rows are made on demand
    by iter_rows. Deterministic: iteration follows train/operation/arc/pair
    index order throughout."""
    horizon = time_horizon(instance)
    n_ops = total_operations(instance)
    op_vars: list[Variable] = []
    arc_vars: list[Variable] = []
    z_vars: list[Variable] = []
    cost_vars: list[Variable] = []
    for i, train in enumerate(instance.trains):
        for a, (op, jumped) in enumerate(zip(train.operations, _jumped(train))):
            if jumped:
                # Some route avoids a: its window binds through rows gated by
                # x, and t gets the box [0, H].
                op_vars.append(Variable(_t(i, a), CONTINUOUS, 0, horizon,
                                        ROLE_START, (i, a)))
            else:
                op_vars.append(Variable(_t(i, a), CONTINUOUS, op.start_lb,
                                        _start_ub(op, horizon), ROLE_START, (i, a)))
            op_vars.append(Variable(_x(i, a), BINARY, 0, 1, ROLE_SELECT_OP, (i, a)))
            op_vars.append(Variable(_u(i, a), INTEGER, 0, n_ops, ROLE_RANK, (i, a)))
            for b in op.successors:
                arc_vars.append(Variable(_y(i, a, b), BINARY, 0, 1,
                                         ROLE_SELECT_ARC, (i, a, b)))
    pairs = conflict_pairs(instance)
    for p in pairs:
        for k, c, m, d, successors, z in _sides(instance, p):
            if successors:
                z_vars.append(Variable(z, BINARY, 0, 1, ROLE_PRECEDE, (k, c, m, d)))
    for c in range(len(instance.objective)):
        cost_vars.append(Variable(f"v{c}", BINARY, 0, 1, ROLE_LATE_FLAG, (c,)))
        cost_vars.append(Variable(f"w{c}", CONTINUOUS, 0, None, ROLE_COST, (c,)))
    objective = [(f"w{c}", 1) for c in range(len(instance.objective))]
    return MilpModel(instance=instance,
                     variables=op_vars + arc_vars + z_vars + cost_vars,
                     objective=objective, horizon=horizon, order_big_m=n_ops + 1,
                     pairs=pairs)


def iter_rows(model: MilpModel) -> Iterator[Row]:
    """Yield the model's rows one at a time, section by section in the order
    the module docstring lists. Each section takes its own pass over the
    trains, conflict pairs or objective components."""
    instance, horizon, order_m = model.instance, model.horizon, model.order_big_m
    trains = instance.trains
    # Each operation's t/x/u names and the y names of the arcs out of it,
    # formatted once for all the rows naming them.
    ts = [[_t(i, a) for a in range(len(train.operations))]
          for i, train in enumerate(trains)]
    xs = [[_x(i, a) for a in range(len(train.operations))]
          for i, train in enumerate(trains)]
    us = [[_u(i, a) for a in range(len(train.operations))]
          for i, train in enumerate(trains)]
    ys = [[[_y(i, a, b) for b in op.successors] for a, op in enumerate(train.operations)]
          for i, train in enumerate(trains)]

    # Route selection: one unit of flow entry -> exit.
    for i, train in enumerate(trains):
        n = len(train.operations)
        into: list[list[str]] = [[] for _ in range(n)]   # y names of arcs into a
        for a, op in enumerate(train.operations):
            outs = ys[i][a]
            if n == 1:
                yield Row(f"flow{i}_0", ((xs[i][a], 1),), "=", 1)
            elif a == 0:
                yield Row(f"flow{i}_0", tuple((y, 1) for y in outs), "=", 1)
            elif a == n - 1:
                yield Row(f"flow{i}_{a}", tuple((y, 1) for y in into[a]), "=", 1)
            else:
                yield Row(f"flow{i}_{a}",
                          tuple([(y, 1) for y in into[a]] + [(y, -1) for y in outs]),
                          "=", 0)
            for b, y in zip(op.successors, outs):
                into[b].append(y)

    # Arcs tie x to y and carry the running time.
    for i, train in enumerate(trains):
        t_i, x_i = ts[i], xs[i]
        for a, op in enumerate(train.operations):
            t, x = t_i[a], x_i[a]
            for b, y in zip(op.successors, ys[i][a]):
                yield Row(f"ya{i}_{a}_{b}", ((y, 1), (x, -1)), "<=", 0)
                yield Row(f"yb{i}_{a}_{b}", ((y, 1), (x_i[b], -1)), "<=", 0)
                yield Row(f"yf{i}_{a}_{b}", ((x, 1), (x_i[b], 1), (y, -1)), "<=", 1)
                terms = [(t_i[b], 1), (t, -1)]
                if op.min_duration:
                    terms.append((y, -op.min_duration))
                yield Row(f"dur{i}_{a}_{b}", tuple(terms), ">=", 0)

    # Resource handovers; resources are numbered by first appearance.
    resource_ids: dict[str, int] = {}
    for p in model.pairs:
        i, a, j, b = p
        sides = _sides(instance, p)
        for resource, *releases in shared_resources(instance, p):
            rid = resource_ids.setdefault(resource, len(resource_ids))
            for (k, c, m, d, successors, z), release in zip(sides, releases):
                for cbar in successors:
                    yield Row(f"rel{k}_{c}_{cbar}_{m}_{d}_r{rid}",
                              ((ts[k][cbar], 1), (ts[m][d], -1), (z, horizon + release)),
                              "<=", horizon)
        x_a, x_b = xs[i][a], xs[j][b]
        z_terms = [(z, 1) for *_, successors, z in sides if successors]
        if z_terms:
            yield Row(f"zxa{i}_{a}_{j}_{b}", tuple(z_terms + [(x_a, -1)]), "<=", 0)
            yield Row(f"zxb{i}_{a}_{j}_{b}", tuple(z_terms + [(x_b, -1)]), "<=", 0)
        yield Row(f"zf{i}_{a}_{j}_{b}",
                  tuple([(x_a, 1), (x_b, 1)] + [(z, -1) for z, _ in z_terms]),
                  "<=", 1)

    # Ranks follow the selected arcs ...
    for i, train in enumerate(trains):
        u_i = us[i]
        for a, op in enumerate(train.operations):
            for b, y in zip(op.successors, ys[i][a]):
                yield Row(f"ord{i}_{a}_{b}", ((u_i[a], 1), (u_i[b], -1), (y, order_m)),
                          "<=", order_m - 1)

    # ... and the handovers.
    for p in model.pairs:
        for k, c, m, d, successors, z in _sides(instance, p):
            for cbar in successors:
                yield Row(f"ordz{k}_{c}_{cbar}_{m}_{d}",
                          ((us[k][cbar], 1), (us[m][d], -1), (z, order_m)),
                          "<=", order_m - 1)

    # Delay costs.
    for c, comp in enumerate(instance.objective):
        t = ts[comp.train][comp.operation]
        x = xs[comp.train][comp.operation]
        v, w = f"v{c}", f"w{c}"
        # Strict threshold: for integral t, v is forced to 1 exactly when
        # t >= threshold (the step cost fires at equality).
        m_v = max(1, horizon - comp.threshold + 1)
        yield Row(f"thr{c}", ((t, 1), (v, -m_v)), "<=", comp.threshold - 1)
        gate = comp.coeff * max(0, horizon - comp.threshold) + comp.increment
        terms = [(w, 1), (v, -comp.increment), (x, -gate)]
        if comp.coeff:
            terms.insert(1, (t, -comp.coeff))
        yield Row(f"cost{c}", tuple(terms), ">=", -comp.coeff * comp.threshold - gate)

    # Windows of the operations some route avoids, gated by x.
    for i, train in enumerate(trains):
        for a, (op, jumped) in enumerate(zip(train.operations, _jumped(train))):
            if not jumped:
                continue
            t, x = ts[i][a], xs[i][a]
            lb, ub = op.start_lb, _start_ub(op, horizon)
            if lb > 0:
                yield Row(f"lb{i}_{a}", ((t, 1), (x, -lb)), ">=", 0)
            if ub < horizon:
                yield Row(f"ub{i}_{a}", ((t, 1), (x, horizon - ub)), "<=", horizon)


# ---------------------------------------------------------------------------
# LP text


def _format_terms(terms: Sequence[tuple[str, int]]) -> str:
    parts: list[str] = []
    for name, coef in terms:
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(f"- {body}" if coef < 0 else body)
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts) if parts else "0"


def _wrap(line: str, limit: int = 200) -> str:
    """The line and its newline; a line over the limit is broken at spaces
    into continuation lines indented by three spaces."""
    if len(line) <= limit:
        return line + "\n"
    out: list[str] = []
    words = line.split(" ")
    cur = words[0]
    for word in words[1:]:
        if len(cur) + 1 + len(word) > limit:
            out.append(cur)
            cur = "   " + word
        else:
            cur += " " + word
    out.append(cur)
    return "\n".join(out) + "\n"


def write_lp(model: MilpModel, out: TextIO) -> int:
    """Write deterministic LP-format text for the model (integers only) to
    out, formatting each row as iter_rows makes it. Returns the number of
    rows written."""
    write = out.write
    write(f"\\ dispatching model: {len(model.instance.trains)} trains, "
          f"{total_operations(model.instance)} operations, horizon {model.horizon}\n")
    write("Minimize\n")
    write(_wrap(" obj: " + _format_terms(model.objective)))
    write("Subject To\n")
    rows = 0
    for name, terms, sense, rhs in iter_rows(model):
        write(_wrap(f" {name}: {_format_terms(terms)} {sense} {rhs}"))
        rows += 1
    write("Bounds\n")
    for var in model.variables:
        if var.kind == BINARY:
            continue
        if var.ub is not None:
            write(f" {var.lb} <= {var.name} <= {var.ub}\n" if var.lb
                  else f" {var.name} <= {var.ub}\n")
    generals = [v.name for v in model.variables if v.kind == INTEGER]
    if generals:
        write("Generals\n")
        write(_wrap(" " + " ".join(generals)))
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        write("Binaries\n")
        write(_wrap(" " + " ".join(binaries)))
    write("End\n")
    return rows


def emit_lp(model: MilpModel) -> str:
    """The LP text write_lp writes, as one string."""
    out = io.StringIO()
    write_lp(model, out)
    return out.getvalue()


def name_map(model: MilpModel) -> dict:
    """JSON-ready sidecar mapping variable names to (role, indices) and back
    (the dict is keyed by name; roles plus indices identify the variable)."""
    return {
        "format": "displib-lp-name-map",
        "version": 1,
        "horizon": model.horizon,
        "variables": {
            v.name: {"role": v.role, "kind": v.kind, "indices": list(v.indices)}
            for v in model.variables
        },
    }


# ---------------------------------------------------------------------------
# Assignments


def parse_assignment(text: str) -> dict[str, float]:
    """Parse `name value` lines ('#' comments and blank lines allowed),
    the shape of the usual solver solution dumps. Values must be finite,
    and each name is given once."""
    values: dict[str, float] = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name value', got {raw!r}")
        try:
            value = float(parts[1])
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad number {parts[1]!r}") from e
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: {parts[0]} = {parts[1]!r} is not "
                             "a finite number")
        name = parts[0]
        if name in values:
            first = next(n for n, other in enumerate(lines, start=1)
                         if other.split()[:1] == [name])
            raise ValueError(f"line {lineno}: {name} is given again "
                             f"(first on line {first})")
        values[name] = value
    return values


def _near_int(value: float) -> int | None:
    r = round(value)
    if abs(value - r) <= BINARY_TOLERANCE:
        return int(r)
    return None


def map_solution(model: MilpModel, assignment: Mapping[str, float],
                 instance: Instance) -> Solution:
    """Turn a full variable assignment into a verified Solution.

    Events are the x=1 operations ordered by (t, u); the claimed objective is
    the rounded sum of the cost variables. The result is verified before it
    is returned; anything infeasible raises MappingError with the verdict.
    """
    for var in model.variables:
        if var.name not in assignment:
            raise MappingError(INCOMPLETE_ASSIGNMENT,
                               f"assignment is missing variable {var.name}")
        if not math.isfinite(assignment[var.name]):
            raise MappingError(NON_FINITE_VALUE,
                               f"variable {var.name} = {assignment[var.name]} "
                               f"is not finite")
    picked: list[tuple[int, int, int, int]] = []  # (t, u, train, op)
    for var in model.variables:
        if var.kind in (BINARY, INTEGER):
            r = _near_int(assignment[var.name])
            if r is None or (var.kind == BINARY and r not in (0, 1)):
                raise MappingError(NON_INTEGRAL_BINARY,
                                   f"variable {var.name} = {assignment[var.name]} "
                                   f"is not integral")
    for var in model.variables:
        if var.role == ROLE_SELECT_OP and _near_int(assignment[var.name]) == 1:
            i, a = var.indices
            t = int(round(assignment[_t(i, a)]))
            u = int(round(assignment[_u(i, a)]))
            picked.append((t, u, i, a))
    picked.sort()
    total = 0.0
    for name, coef in model.objective:
        total += coef * assignment[name]
    solution = Solution(
        objective_value=int(round(total)),
        events=tuple(Event(time=t, train=i, operation=a) for t, u, i, a in picked))
    verdict = _verify_solution(instance, solution)
    if not verdict.feasible:
        first = verdict.violations[0]
        raise MappingError(FAILED_VERIFICATION,
                           f"mapped events are not a feasible solution: {first.detail}",
                           verdict=verdict)
    return solution


def solution_assignment(model: MilpModel, instance: Instance,
                        solution: Solution) -> dict[str, float]:
    """Witness assignment for a feasible solution (warm starts, model checks).

    Selected operations take their event times and event positions; an
    unselected operation takes the latest time and rank of its predecessors,
    so running rows hold (its window rows are gated off). The sum of the cost
    variables equals the solution's objective. Keys follow model.variables.
    """
    placed: dict[tuple[int, int], tuple[int, int]] = {}   # (time, position)
    used_arcs: set[tuple[int, int, int]] = set()    # consecutive route pairs
    prev_op: dict[int, int] = {}
    for pos, ev in enumerate(solution.events):
        placed[(ev.train, ev.operation)] = (ev.time, pos)
        if ev.train in prev_op:
            used_arcs.add((ev.train, prev_op[ev.train], ev.operation))
        prev_op[ev.train] = ev.operation
    time_rank = dict(placed)
    for i, train in enumerate(instance.trains):
        for a, preds in enumerate(predecessors(train)):
            if (i, a) not in placed:
                time_rank[(i, a)] = (max([0] + [time_rank[(i, p)][0] for p in preds]),
                                     max([0] + [time_rank[(i, p)][1] for p in preds]))

    values: dict[str, float] = {}
    for var in model.variables:
        k = var.indices
        if var.role == ROLE_START:
            value = time_rank[k][0]
        elif var.role == ROLE_RANK:
            value = time_rank[k][1]
        elif var.role == ROLE_SELECT_OP:
            value = k in placed
        elif var.role == ROLE_SELECT_ARC:
            value = k in used_arcs
        elif var.role == ROLE_PRECEDE:
            first, second = k[:2], k[2:]
            value = (first in placed and second in placed
                     and placed[first][1] < placed[second][1])
        else:
            comp = instance.objective[k[0]]
            op = (comp.train, comp.operation)
            t = time_rank[op][0]
            if var.role == ROLE_LATE_FLAG:
                value = t >= comp.threshold
            else:
                value = comp.cost(t) if op in placed else 0
        values[var.name] = float(value)
    return values
