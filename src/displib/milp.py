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
solution_assignment, map_solution and name_map read, and formats every
variable name once. model.variables lists them in the order the rows take
them up: t, x and u of each operation, y of each arc, z of each pair side
that releases (a's side, then b's), then v and w of each component. The
model holds no per-pair table.

The rows are generated on demand. iter_rows yields them one at a time as
plain (name, terms, sense, rhs) tuples, section by section; it reads every
variable name from model.variables, walking the z names in step with the
pairs, and builds one per-operation table of release times per pass.
write_lp formats each row as it is made and writes the lines _BLOCK at a
time, so no row outlives its block, and only a line over _WRAP_AT
characters goes through the wrapper. MilpModel.rows is the list of all rows
as Row named tuples, built on its first read. In the same way,
write_name_map writes the text of name_map _BLOCK variables at a time.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .core import (
    ConflictPair,
    Instance,
    Event,
    Operation,
    Solution,
    Train,
    conflict_pairs,
    predecessors,
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

_WRAP_AT = 200        # LP lines longer than this are wrapped
_BLOCK = 4096         # LP lines or name-map entries per write call


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


# Variable's generated __new__ is a Python function; tuple.__new__ builds the
# same value in C, for the one variable per pair side.
_variable = functools.partial(tuple.__new__, Variable)


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
        return list(map(Row._make, iter_rows(self)))


def _t(i: int, a: int) -> str:
    return f"t{i}_{a}"


def _x(i: int, a: int) -> str:
    return f"x{i}_{a}"


def _y(i: int, a: int, b: int) -> str:
    return f"y{i}_{a}_{b}"


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
    # Both sides of each pair, a's then b's; a side without successors never
    # releases anything, so it gets no z.
    releasing = [[bool(op.successors) for op in train.operations]
                 for train in instance.trains]
    for i, a, j, b in pairs:
        if releasing[i][a]:
            z_vars.append(_variable((f"z{i}_{a}_{j}_{b}", BINARY, 0, 1,
                                     ROLE_PRECEDE, (i, a, j, b))))
        if releasing[j][b]:
            z_vars.append(_variable((f"z{j}_{b}_{i}_{a}", BINARY, 0, 1,
                                     ROLE_PRECEDE, (j, b, i, a))))
    for c in range(len(instance.objective)):
        cost_vars.append(Variable(f"v{c}", BINARY, 0, 1, ROLE_LATE_FLAG, (c,)))
        cost_vars.append(Variable(f"w{c}", CONTINUOUS, 0, None, ROLE_COST, (c,)))
    objective = [(f"w{c}", 1) for c in range(len(instance.objective))]
    return MilpModel(instance=instance,
                     variables=op_vars + arc_vars + z_vars + cost_vars,
                     objective=objective, horizon=horizon, order_big_m=n_ops + 1,
                     pairs=pairs)


def iter_rows(model: MilpModel) -> Iterator[tuple]:
    """Yield the model's rows one at a time as (name, terms, sense, rhs)
    tuples, section by section in the order the module docstring lists.
    Each section takes its own pass over the trains, conflict pairs or
    objective components."""
    instance, horizon, order_m = model.instance, model.horizon, model.order_big_m
    trains = instance.trains
    # Every variable name comes from model.variables, in build_model's
    # order: t, x, u of each operation, the y of each arc, the z of each
    # pair side that releases, then v, w of each component.
    variables = model.variables
    ts: list[list[str]] = []
    xs: list[list[str]] = []
    us: list[list[str]] = []
    at = 0
    for train in trains:
        names = [v.name for v in variables[at:at + 3 * len(train.operations)]]
        ts.append(names[0::3])
        xs.append(names[1::3])
        us.append(names[2::3])
        at += len(names)
    ys: list[list[list[str]]] = []   # per operation, the y of each arc out
    for train in trains:
        ys_i: list[list[str]] = []
        for op in train.operations:
            ys_i.append([v.name for v in variables[at:at + len(op.successors)]])
            at += len(op.successors)
        ys.append(ys_i)
    first_z = at
    first_cost = len(variables) - 2 * len(instance.objective)
    successors = [[op.successors for op in train.operations] for train in trains]

    # Route selection: one unit of flow entry -> exit.
    for i, train in enumerate(trains):
        n = len(train.operations)
        into: list[list[str]] = [[] for _ in range(n)]   # y names of arcs into a
        for a, op in enumerate(train.operations):
            outs = ys[i][a]
            if n == 1:
                yield (f"flow{i}_0", ((xs[i][a], 1),), "=", 1)
            elif a == 0:
                yield (f"flow{i}_0", tuple([(y, 1) for y in outs]), "=", 1)
            elif a == n - 1:
                yield (f"flow{i}_{a}", tuple([(y, 1) for y in into[a]]), "=", 1)
            else:
                yield (f"flow{i}_{a}",
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
                yield (f"ya{i}_{a}_{b}", ((y, 1), (x, -1)), "<=", 0)
                yield (f"yb{i}_{a}_{b}", ((y, 1), (x_i[b], -1)), "<=", 0)
                yield (f"yf{i}_{a}_{b}", ((x, 1), (x_i[b], 1), (y, -1)), "<=", 1)
                if op.min_duration:
                    yield (f"dur{i}_{a}_{b}",
                           ((t_i[b], 1), (t, -1), (y, -op.min_duration)), ">=", 0)
                else:
                    yield (f"dur{i}_{a}_{b}", ((t_i[b], 1), (t, -1)), ">=", 0)

    # Resource handovers; resources are numbered by first appearance.
    releases = [[{u.resource: u.release_time for u in op.resources}
                 for op in train.operations] for train in trains]
    resource_ids: dict[str, int] = {}
    z = first_z
    for i, a, j, b in model.pairs:
        z_a = z_b = None
        if successors[i][a]:
            z_a, z = variables[z].name, z + 1
        if successors[j][b]:
            z_b, z = variables[z].name, z + 1
        rel_a, rel_b = releases[i][a], releases[j][b]
        for resource in sorted(rel_a.keys() & rel_b.keys()):
            rid = resource_ids.setdefault(resource, len(resource_ids))
            for k, c, m, d, z_kc, release in ((i, a, j, b, z_a, rel_a[resource]),
                                              (j, b, i, a, z_b, rel_b[resource])):
                t_k, t_md = ts[k], ts[m][d]
                for cbar in successors[k][c]:
                    yield (f"rel{k}_{c}_{cbar}_{m}_{d}_r{rid}",
                           ((t_k[cbar], 1), (t_md, -1), (z_kc, horizon + release)),
                           "<=", horizon)
        x_a, x_b = xs[i][a], xs[j][b]
        pair = f"{i}_{a}_{j}_{b}"
        z_terms = [(z_kc, 1) for z_kc in (z_a, z_b) if z_kc]
        if z_terms:
            yield ("zxa" + pair, (*z_terms, (x_a, -1)), "<=", 0)
            yield ("zxb" + pair, (*z_terms, (x_b, -1)), "<=", 0)
        yield ("zf" + pair, ((x_a, 1), (x_b, 1), *[(z_kc, -1) for z_kc, _ in z_terms]),
               "<=", 1)

    # Ranks follow the selected arcs ...
    for i, train in enumerate(trains):
        u_i = us[i]
        for a, op in enumerate(train.operations):
            for b, y in zip(op.successors, ys[i][a]):
                yield (f"ord{i}_{a}_{b}", ((u_i[a], 1), (u_i[b], -1), (y, order_m)),
                       "<=", order_m - 1)

    # ... and the handovers.
    z = first_z
    for i, a, j, b in model.pairs:
        for k, c, m, d in ((i, a, j, b), (j, b, i, a)):
            if successors[k][c]:
                z_kc, u_k, u_md, z = variables[z].name, us[k], us[m][d], z + 1
                for cbar in successors[k][c]:
                    yield (f"ordz{k}_{c}_{cbar}_{m}_{d}",
                           ((u_k[cbar], 1), (u_md, -1), (z_kc, order_m)),
                           "<=", order_m - 1)

    # Delay costs.
    for c, comp in enumerate(instance.objective):
        t = ts[comp.train][comp.operation]
        x = xs[comp.train][comp.operation]
        v = variables[first_cost + 2 * c].name
        w = variables[first_cost + 2 * c + 1].name
        # Strict threshold: for integral t, v is forced to 1 exactly when
        # t >= threshold (the step cost fires at equality).
        m_v = max(1, horizon - comp.threshold + 1)
        yield (f"thr{c}", ((t, 1), (v, -m_v)), "<=", comp.threshold - 1)
        gate = comp.coeff * max(0, horizon - comp.threshold) + comp.increment
        if comp.coeff:
            terms = ((w, 1), (t, -comp.coeff), (v, -comp.increment), (x, -gate))
        else:
            terms = ((w, 1), (v, -comp.increment), (x, -gate))
        yield (f"cost{c}", terms, ">=", -comp.coeff * comp.threshold - gate)

    # Windows of the operations some route avoids, gated by x.
    for i, train in enumerate(trains):
        for a, (op, jumped) in enumerate(zip(train.operations, _jumped(train))):
            if not jumped:
                continue
            t, x = ts[i][a], xs[i][a]
            lb, ub = op.start_lb, _start_ub(op, horizon)
            if lb > 0:
                yield (f"lb{i}_{a}", ((t, 1), (x, -lb)), ">=", 0)
            if ub < horizon:
                yield (f"ub{i}_{a}", ((t, 1), (x, horizon - ub)), "<=", horizon)


# ---------------------------------------------------------------------------
# LP text


def _format_terms(terms: Sequence[tuple[str, int]]) -> str:
    text = ""
    for name, coef in terms:
        if coef == 1:
            text += " + " + name
        elif coef == -1:
            text += " - " + name
        elif coef > 0:
            text += f" + {coef} {name}"
        elif coef:
            text += f" - {-coef} {name}"
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else text[1:]


def _wrapped(words: Iterable[str]) -> Iterator[str]:
    """The words, space-separated, as lines of at most _WRAP_AT characters;
    each line after the first is a continuation line indented by three
    spaces. A word too long for any line gets a line of its own."""
    words = iter(words)
    line = next(words)
    for word in words:
        if len(line) + 1 + len(word) > _WRAP_AT:
            yield line
            line = "   " + word
        else:
            line += " " + word
    yield line


def _fold(line: str) -> str:
    """The line, or for a line over _WRAP_AT characters, its wrapped lines."""
    return line if len(line) <= _WRAP_AT else "\n".join(_wrapped(line.split(" ")))


def _write_lines(write: Callable[[str], object], lines: Iterable[str]) -> int:
    """Write each line and its newline, _BLOCK lines per call of write.
    Returns the number of lines."""
    lines = iter(lines)
    count = 0
    while block := list(itertools.islice(lines, _BLOCK)):
        count += len(block)
        block.append("")
        write("\n".join(block))
    return count


def write_lp(model: MilpModel, out: TextIO) -> int:
    """Write deterministic LP-format text for the model (integers only) to
    out, formatting each row as iter_rows makes it. Returns the number of
    rows written."""
    write = out.write
    write(f"\\ dispatching model: {len(model.instance.trains)} trains, "
          f"{total_operations(model.instance)} operations, horizon {model.horizon}\n")
    write("Minimize\n")
    write(_fold(" obj: " + _format_terms(model.objective)) + "\n")
    write("Subject To\n")
    rows = _write_lines(write, (_fold(f" {name}: {_format_terms(terms)} {sense} {rhs}")
                                for name, terms, sense, rhs in iter_rows(model)))
    write("Bounds\n")
    _write_lines(write, (f" {var.lb} <= {var.name} <= {var.ub}" if var.lb
                         else f" {var.name} <= {var.ub}"
                         for var in model.variables
                         if var.kind != BINARY and var.ub is not None))
    for kind, heading in ((INTEGER, "Generals\n"), (BINARY, "Binaries\n")):
        names = [v.name for v in model.variables if v.kind == kind]
        if names:
            write(heading)
            _write_lines(write, _wrapped(itertools.chain([""], names)))
    write("End\n")
    return rows


def emit_lp(model: MilpModel) -> str:
    """The LP text write_lp writes, as one string."""
    out = io.StringIO()
    write_lp(model, out)
    return out.getvalue()


def _name_map_document(model: MilpModel, variables: dict) -> dict:
    # "variables" is the last key, which write_name_map relies on.
    return {"format": "displib-lp-name-map", "version": 1,
            "horizon": model.horizon, "variables": variables}


def _name_map_entry(var: Variable) -> dict:
    return {"role": var.role, "kind": var.kind, "indices": list(var.indices)}


def name_map(model: MilpModel) -> dict:
    """JSON-ready sidecar mapping variable names to (role, indices) and back
    (the dict is keyed by name; roles plus indices identify the variable)."""
    return _name_map_document(
        model, {v.name: _name_map_entry(v) for v in model.variables})


def write_name_map(model: MilpModel, out: TextIO) -> None:
    """Write json.dumps(name_map(model)) and a newline to out, encoding
    _BLOCK variables at a time, so that neither the whole dict nor the
    whole text is held."""
    head = json.dumps(_name_map_document(model, {}))
    out.write(head[:-2])            # up to the variables' opening brace
    variables = model.variables
    for at in range(0, len(variables), _BLOCK):
        block = {v.name: _name_map_entry(v) for v in variables[at:at + _BLOCK]}
        out.write((", " if at else "") + json.dumps(block)[1:-1])
    out.write("}}\n")


# ---------------------------------------------------------------------------
# Assignments


def parse_assignment(text: str) -> dict[str, float]:
    """Parse `name value` lines ('#' comments and blank lines allowed),
    the shape of the usual solver solution dumps. Values must be finite,
    and each name is given once."""
    values: dict[str, float] = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, number = parts
        try:
            value = float(number)
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad number {number!r}") from e
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: {name} = {number!r} is not "
                             "a finite number")
        if name in values:
            first = next(n for n, other in enumerate(lines, start=1)
                         if other.split()[:1] == [name])
            raise ValueError(f"line {lineno}: {name} is given again "
                             f"(first on line {first})")
        values[name] = value
    return values


def map_solution(model: MilpModel, assignment: Mapping[str, float],
                 instance: Instance) -> Solution:
    """Turn a full variable assignment into a verified Solution.

    Events are the x=1 operations ordered by (t, u); the claimed objective is
    the rounded sum of the cost variables. The result is verified before it
    is returned; anything infeasible raises MappingError with the verdict.
    """
    off_integer = None   # the first binary or integer variable that is not
    selected: list[tuple[int, int]] = []   # (train, op) of each x = 1
    for var in model.variables:
        value = assignment.get(var.name)
        if value is None:
            raise MappingError(INCOMPLETE_ASSIGNMENT,
                               f"assignment is missing variable {var.name}")
        if not math.isfinite(value):
            raise MappingError(NON_FINITE_VALUE,
                               f"variable {var.name} = {value} is not finite")
        if var.kind != CONTINUOUS and off_integer is None:
            r = round(value)
            if abs(value - r) > BINARY_TOLERANCE or (var.kind == BINARY
                                                      and r not in (0, 1)):
                off_integer = var
            elif r == 1 and var.role == ROLE_SELECT_OP:
                selected.append(var.indices)
    if off_integer is not None:
        raise MappingError(NON_INTEGRAL_BINARY,
                           f"variable {off_integer.name} = "
                           f"{assignment[off_integer.name]} is not integral")
    picked = [(int(round(assignment[_t(i, a)])), int(round(assignment[_u(i, a)])), i, a)
              for i, a in selected]   # (t, u, train, op)
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
