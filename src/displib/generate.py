"""Synthetic instance generation.

The base shape is a single-track line: stations 0..S-1, each with a set of
parallel tracks ("S{s}T{k}"), connected by single-track segments ("SEG{s}"
between stations s and s+1). A train enters on a fixed track of its origin
station, alternates segment runs with station dwells (choosing any track at
each station it reaches), and vanishes through a zero-length exit operation.
Delay costs sit on the exit operation, measured against the train's earliest
possible exit when it has the line to itself.

On top of a generated line:

- perturb() takes a snapshot at a wall-clock time point: finished trains are
  dropped, running trains are re-rooted at the operation they currently
  occupy (start pinned to 0, the remaining minimum duration kept), waiting
  trains keep their structure with shifted start windows, and a random
  subset of the waiting trains gets extra entry delay.
- join_trains() chains two services into one train (the stock of the first
  continues as the second).
- add_cancellation() lets a train end early at a station against a fixed
  penalty, via a zero-length shortcut operation carrying the penalty.
- add_correspondence() couples two trains at a station with a shared
  resource, so one train's approach and the other's departing segment
  exclude each other and one must fully precede the other.

Each train's placement records its visits in running order (the station,
its track-choice operations and the operation that departs it), its exit
operation and its nominal route. A snapshot lists only the visits still
ahead. A joined train passes stations twice; a pattern naming such a
station uses the first visit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .core import (
    Instance,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    build_instance,
)

COST_SHAPES = ("linear", "steps", "convex-pw")
_STEP_OFFSETS = (0, 180, 360)


class SpecInfeasible(ValueError):
    """The generation parameters cannot produce a well-formed instance."""


class PatternConflict(ValueError):
    """A pattern does not fit the trains it was asked to couple."""


@dataclass(frozen=True)
class LineSpec:
    """Parameters of a generated line."""
    num_stations: int = 6
    tracks_per_station: int = 2
    num_trains: int = 4
    up_fraction: float = 0.5
    segment_runtime: tuple[int, int] = (120, 300)
    dwell: tuple[int, int] = (30, 90)
    release: tuple[int, int] = (10, 30)
    headway: int = 120
    cost_shape: str = "linear"
    seed: int = 0


@dataclass(frozen=True)
class PerturbSpec:
    """Snapshot parameters: wall-clock time of the disruption, the share of
    waiting trains that get delayed, and the delay range."""
    at_time: int = 0
    delayed_fraction: float = 0.0
    delay: tuple[int, int] = (60, 300)
    seed: int = 0


@dataclass(frozen=True)
class Visit:
    """One stop of a train: the station, its parallel track-choice operations
    (none where the train enters or already stands), and the operation that
    departs it (None at the last stop)."""
    station: int
    tracks: tuple[int, ...]
    departure: int | None


@dataclass(frozen=True)
class TrainPlacement:
    """Where a train's operations sit on the line.

    visits lists the stops still ahead in running order, including the one
    the train stands at, if any; a joined train visits a station once per
    pass. nominal_route is the undisturbed reference path.
    """
    visits: tuple[Visit, ...]
    exit_op: int
    nominal_route: tuple[int, ...]

    @property
    def stations(self) -> tuple[int, ...]:
        return tuple(v.station for v in self.visits)

    def first_visit(self, station: int) -> Visit | None:
        return next((v for v in self.visits if v.station == station), None)


def _renumber(visits: tuple[Visit, ...], to) -> tuple[Visit, ...]:
    """The visits with each operation index o replaced by to(o)."""
    return tuple(Visit(v.station, tuple(to(o) for o in v.tracks),
                       None if v.departure is None else to(v.departure))
                 for v in visits)


@dataclass(frozen=True)
class GeneratedLine:
    """A generated instance plus the placement data patterns operate on."""
    instance: Instance
    placements: tuple[TrainPlacement, ...]

    @property
    def timetable(self) -> tuple[tuple[int, ...], ...]:
        """Each train's resource-free earliest start times."""
        return tuple(_earliest_unconstrained(train.operations)
                     for train in self.instance.trains)


def _check_range(name: str, value: tuple[int, int], low_min: int = 0) -> None:
    lo, hi = value
    if lo < low_min or hi < lo:
        raise SpecInfeasible(f"{name} range ({lo}, {hi}) is not a valid range "
                             f"with minimum {low_min}")


def _validate_line_spec(spec: LineSpec) -> int:
    if spec.num_stations < 2:
        raise SpecInfeasible("a line needs at least 2 stations")
    if spec.tracks_per_station < 2:
        raise SpecInfeasible("stations need at least 2 tracks so trains can "
                             "meet or overtake")
    if spec.num_trains < 1:
        raise SpecInfeasible("at least 1 train is required")
    if not 0.0 <= spec.up_fraction <= 1.0:
        raise SpecInfeasible(f"up_fraction {spec.up_fraction} is not in [0, 1]")
    _check_range("segment_runtime", spec.segment_runtime, low_min=1)
    _check_range("dwell", spec.dwell)
    _check_range("release", spec.release)
    if spec.headway < 0:
        raise SpecInfeasible(f"headway {spec.headway} is negative")
    if spec.cost_shape not in COST_SHAPES:
        raise SpecInfeasible(f"unknown cost_shape {spec.cost_shape!r} "
                             f"(choose from {', '.join(COST_SHAPES)})")
    return int(spec.num_trains * spec.up_fraction + 0.5)


def _earliest_unconstrained(operations: tuple[Operation, ...]) -> tuple[int, ...]:
    """Longest-path start times ignoring resources and upper bounds."""
    times = [op.start_lb for op in operations]
    for a, op in enumerate(operations):
        for b in op.successors:
            times[b] = max(times[b], times[a] + op.min_duration)
    return tuple(times)


def _delay_components(train: int, exit_op: int, earliest_exit: int,
                      shape: str) -> list[ObjectiveComponent]:
    if shape == "linear":
        return [ObjectiveComponent(train=train, operation=exit_op,
                                   threshold=earliest_exit, coeff=1)]
    if shape == "steps":
        return [ObjectiveComponent(train=train, operation=exit_op,
                                   threshold=earliest_exit + off, increment=1)
                for off in _STEP_OFFSETS]
    # convex-pw: stacked slopes 1, 2, 3
    return [ObjectiveComponent(train=train, operation=exit_op,
                               threshold=earliest_exit + off, coeff=1)
            for off in _STEP_OFFSETS]


def generate_line(spec: LineSpec) -> GeneratedLine:
    up_count = _validate_line_spec(spec)
    rng = random.Random(spec.seed)
    s_count, k_count = spec.num_stations, spec.tracks_per_station
    release: dict[str, int] = {}
    for s in range(s_count):
        for k in range(k_count):
            release[f"S{s}T{k}"] = rng.randint(*spec.release)
    for s in range(s_count - 1):
        release[f"SEG{s}"] = rng.randint(*spec.release)

    trains: list[list[Operation]] = []
    placements: list[TrainPlacement] = []
    components: list[ObjectiveComponent] = []
    per_direction = {"up": 0, "down": 0}
    for i in range(spec.num_trains):
        direction = "up" if i < up_count else "down"
        rank = per_direction[direction]
        per_direction[direction] += 1
        stations = (tuple(range(s_count)) if direction == "up"
                    else tuple(range(s_count - 1, -1, -1)))
        entry_track = rank % k_count
        exit_idx = 1 + (s_count - 1) * (k_count + 1)
        ops: list[Operation] = []
        origin = stations[0]
        visits = [Visit(origin, (), 1)]
        nominal: list[int] = [0]
        ops.append(Operation(
            min_duration=rng.randint(*spec.dwell),
            successors=(1,),
            start_lb=rank * spec.headway,
            resources=(ResourceUsage(f"S{origin}T{entry_track}",
                                     release[f"S{origin}T{entry_track}"]),)))
        for v in range(1, s_count):
            seg_idx = 1 + (v - 1) * (k_count + 1)
            station = stations[v]
            segment = min(stations[v - 1], station)
            tracks = tuple(seg_idx + 1 + k for k in range(k_count))
            ops.append(Operation(
                min_duration=rng.randint(*spec.segment_runtime),
                successors=tracks,
                resources=(ResourceUsage(f"SEG{segment}", release[f"SEG{segment}"]),)))
            dwell = rng.randint(*spec.dwell)
            following = seg_idx + k_count + 1
            for k in range(k_count):
                ops.append(Operation(
                    min_duration=dwell,
                    successors=(following,),
                    resources=(ResourceUsage(f"S{station}T{k}",
                                             release[f"S{station}T{k}"]),)))
            visits.append(Visit(station, tracks,
                                following if v < s_count - 1 else None))
            nominal.extend((seg_idx, tracks[entry_track % k_count]))
        ops.append(Operation(min_duration=0, successors=()))
        nominal.append(exit_idx)
        trains.append(ops)
        earliest_exit = _earliest_unconstrained(tuple(ops))[exit_idx]
        components.extend(_delay_components(i, exit_idx, earliest_exit,
                                            spec.cost_shape))
        placements.append(TrainPlacement(tuple(visits), exit_idx, tuple(nominal)))
    return GeneratedLine(build_instance(trains, components), tuple(placements))


# ---------------------------------------------------------------------------
# Snapshot perturbation


def _validate_perturb_spec(spec: PerturbSpec) -> None:
    if spec.at_time < 0:
        raise SpecInfeasible(f"at_time {spec.at_time} is negative")
    if not 0.0 <= spec.delayed_fraction <= 1.0:
        raise SpecInfeasible(f"delayed_fraction {spec.delayed_fraction} "
                             f"is not in [0, 1]")
    _check_range("delay", spec.delay)


def _shift_window(op: Operation, by: int) -> Operation:
    if by == 0:
        return op
    return replace(op,
                   start_lb=max(0, op.start_lb - by),
                   start_ub=None if op.start_ub is None else max(0, op.start_ub - by))


def _reachable_from(operations: tuple[Operation, ...], root: int) -> list[int]:
    keep = {root}
    for k in range(root, len(operations)):
        if k in keep:
            keep.update(operations[k].successors)
    return sorted(keep)


def _reroot_train(operations: tuple[Operation, ...], times: tuple[int, ...],
                  nominal: tuple[int, ...], at_time: int
                  ) -> tuple[list[Operation], dict[int, int], int]:
    """Cut a running train down to what is still ahead of it.

    Returns the new operations, the old->new index map, and the operation the
    train currently occupies. The occupied operation becomes the entry: its
    start is pinned to 0 and its minimum duration shrinks by the time already
    spent in it."""
    current = nominal[0]
    for op_idx in nominal:
        if times[op_idx] <= at_time:
            current = op_idx
    kept = _reachable_from(operations, current)
    remap = {old: new for new, old in enumerate(kept)}
    rebuilt: list[Operation] = []
    for old in kept:
        op = operations[old]
        op = replace(op, successors=tuple(remap[s] for s in op.successors))
        if old == current:
            # The timetable is not tight where a later start window takes
            # over (joined services), so clamp the remaining duration.
            op = replace(op,
                         min_duration=max(0, op.min_duration - (at_time - times[old])),
                         start_lb=0, start_ub=0)
        else:
            op = _shift_window(op, at_time)
        rebuilt.append(op)
    return rebuilt, remap, current


def _remap_placement(pl: TrainPlacement, remap: dict[int, int],
                     current: int) -> TrainPlacement:
    """The visits still ahead of a train re-rooted at `current`: a train
    running a segment keeps the visits past its last departure; a train
    standing at a stop keeps that stop too, without its track choice."""
    position = pl.nominal_route.index(current)
    departures = [v.departure for v in pl.visits]
    passed = sum(o in departures for o in pl.nominal_route[:position + 1])
    ahead = pl.visits[passed:]
    if current not in departures:
        ahead = (replace(ahead[0], tracks=()),) + ahead[1:]
    return TrainPlacement(_renumber(ahead, remap.__getitem__), remap[pl.exit_op],
                          tuple(remap[o] for o in pl.nominal_route[position:]))


def perturb(line: GeneratedLine, spec: PerturbSpec) -> GeneratedLine:
    """Snapshot of the line at spec.at_time, with fresh entry delays."""
    _validate_perturb_spec(spec)
    rng = random.Random(spec.seed)
    at = spec.at_time
    new_trains: list[list[Operation]] = []
    new_placements: list[TrainPlacement] = []
    train_remap: dict[int, tuple[int, dict[int, int]]] = {}
    for i, (train, times) in enumerate(zip(line.instance.trains, line.timetable)):
        pl = line.placements[i]
        if at >= times[pl.exit_op]:
            continue                       # already gone
        if times[0] >= at:                 # still waiting to start
            ops = [_shift_window(op, at) for op in train.operations]
            if rng.random() < spec.delayed_fraction:
                extra = rng.randint(*spec.delay)
                ops[0] = replace(ops[0], start_lb=ops[0].start_lb + extra)
            remap = {k: k for k in range(len(ops))}
            placement = pl
        else:
            ops, remap, current = _reroot_train(train.operations, times,
                                                pl.nominal_route, at)
            placement = _remap_placement(pl, remap, current)
        train_remap[i] = (len(new_trains), remap)
        new_trains.append(ops)
        new_placements.append(placement)
    components: list[ObjectiveComponent] = []
    for comp in line.instance.objective:
        if comp.train not in train_remap:
            continue
        new_train, remap = train_remap[comp.train]
        if comp.operation not in remap:
            continue
        components.append(replace(comp, train=new_train,
                                  operation=remap[comp.operation],
                                  threshold=max(0, comp.threshold - at)))
    return GeneratedLine(build_instance(new_trains, components),
                         tuple(new_placements))


# ---------------------------------------------------------------------------
# Patterns


def _check_train_index(line: GeneratedLine, train: int, label: str) -> None:
    if not 0 <= train < len(line.instance.trains):
        raise PatternConflict(f"{label} {train} is out of range")


def join_trains(line: GeneratedLine, first: int, second: int) -> GeneratedLine:
    """Merge two services: the first train's stock continues as the second.

    The second train's operations are appended to the first train's, with an
    arc from the first exit to the second entry. The second service must
    start where the first one ends and must not be pinned mid-run."""
    _check_train_index(line, first, "first train")
    _check_train_index(line, second, "second train")
    if first == second:
        raise PatternConflict("cannot join a train with itself")
    pl_a, pl_b = line.placements[first], line.placements[second]
    if pl_a.stations[-1] != pl_b.stations[0]:
        raise PatternConflict(
            f"first train ends at station {pl_a.stations[-1]} but the second "
            f"starts at station {pl_b.stations[0]}")
    head = line.instance.trains[first].operations
    tail = line.instance.trains[second].operations
    if tail[0].start_ub is not None:
        raise PatternConflict("second train is already running; its start is "
                              "pinned and cannot wait for the join")
    offset = len(head)
    merged = list(head[:-1])
    merged.append(replace(head[-1], successors=(offset,)))
    for op in tail:
        merged.append(replace(op, successors=tuple(s + offset for s in op.successors)))

    trains: list[tuple[Operation, ...]] = []
    placements: list[TrainPlacement] = []
    new_index: dict[int, int] = {}
    for i, train in enumerate(line.instance.trains):
        if i == second:
            continue
        new_index[i] = len(trains)
        if i == first:
            trains.append(tuple(merged))
            # The turnaround is one stop: the first service's arrival
            # tracks, the second service's departure.
            visits_b = _renumber(pl_b.visits, lambda o: o + offset)
            placements.append(TrainPlacement(
                pl_a.visits[:-1]
                + (replace(pl_a.visits[-1], departure=visits_b[0].departure),)
                + visits_b[1:],
                pl_b.exit_op + offset,
                pl_a.nominal_route + tuple(o + offset for o in pl_b.nominal_route)))
        else:
            trains.append(train.operations)
            placements.append(line.placements[i])
    new_index[second] = new_index[first]
    components: list[ObjectiveComponent] = []
    for comp in line.instance.objective:
        op = comp.operation + offset if comp.train == second else comp.operation
        components.append(replace(comp, train=new_index[comp.train], operation=op))
    return GeneratedLine(build_instance(trains, components), tuple(placements))


def add_cancellation(line: GeneratedLine, train: int, station: int,
                     penalty: int) -> GeneratedLine:
    """Allow the train to end its run at a station against a penalty.

    A zero-length shortcut operation leads from the station's tracks to the
    exit; taking it costs the penalty (threshold 0, increment = penalty)."""
    _check_train_index(line, train, "train")
    if penalty < 0:
        raise PatternConflict(f"penalty {penalty} is negative")
    pl = line.placements[train]
    visit = pl.first_visit(station)
    if visit is None or not visit.tracks:
        raise PatternConflict(f"train {train} has no track choice at station "
                              f"{station}")
    if visit.departure is None:
        raise PatternConflict(f"station {station} is the train's destination; "
                              f"there is nothing to cancel")
    old_exit = pl.exit_op
    shortcut = old_exit                    # takes the old exit's index
    new_exit = old_exit + 1

    def renumbered(o: int) -> int:
        return o if o < old_exit else o + 1
    rebuilt: list[Operation] = []
    for k, op in enumerate(line.instance.trains[train].operations[:-1]):
        succ = tuple(renumbered(s) for s in op.successors)
        if k in visit.tracks:
            succ = succ + (shortcut,)
        rebuilt.append(replace(op, successors=succ))
    rebuilt.append(Operation(min_duration=0, successors=(new_exit,)))
    rebuilt.append(line.instance.trains[train].operations[-1])

    trains = [t.operations for t in line.instance.trains]
    trains[train] = tuple(rebuilt)
    components = [comp if comp.train != train
                  else replace(comp, operation=renumbered(comp.operation))
                  for comp in line.instance.objective]
    components.append(ObjectiveComponent(train=train, operation=shortcut,
                                         threshold=0, increment=penalty))
    placements = list(line.placements)
    placements[train] = TrainPlacement(
        _renumber(pl.visits, renumbered), new_exit,
        tuple(renumbered(o) for o in pl.nominal_route))
    return GeneratedLine(build_instance(trains, components), tuple(placements))


def add_correspondence(line: GeneratedLine, feeder: int, connecting: int,
                       station: int) -> GeneratedLine:
    """Couple two trains at a station with a fresh shared resource.

    The feeder holds the resource on every operation up to its arrival at
    the station; the connecting train needs it for its departing segment.
    The two claims exclude each other, so either the connection waits for
    the feeder or it gives up the connection by running the segment before
    the feeder sets out."""
    _check_train_index(line, feeder, "feeder train")
    _check_train_index(line, connecting, "connecting train")
    if feeder == connecting:
        raise PatternConflict("a train cannot connect to itself")
    arrival = line.placements[feeder].first_visit(station)
    if arrival is None or not arrival.tracks:
        raise PatternConflict(f"feeder {feeder} does not arrive at station "
                              f"{station} with a track choice")
    stop = line.placements[connecting].first_visit(station)
    if stop is None:
        raise PatternConflict(f"connecting train {connecting} does not visit "
                              f"station {station}")
    if stop.departure is None:
        raise PatternConflict(f"station {station} is the connecting train's "
                              f"destination; it has no departing segment")
    existing = {usage.resource
                for t in line.instance.trains for op in t.operations
                for usage in op.resources}
    n = 0
    while f"CORR{n}" in existing:
        n += 1
    resource = ResourceUsage(f"CORR{n}", 0)

    approach_end = min(arrival.tracks)     # first arrival track operation
    feeder_ops = [op if k >= approach_end
                  else replace(op, resources=op.resources + (resource,))
                  for k, op in enumerate(line.instance.trains[feeder].operations)]
    connecting_ops = [op if k != stop.departure
                      else replace(op, resources=op.resources + (resource,))
                      for k, op in enumerate(line.instance.trains[connecting].operations)]
    trains = [t.operations for t in line.instance.trains]
    trains[feeder] = tuple(feeder_ops)
    trains[connecting] = tuple(connecting_ops)
    return GeneratedLine(build_instance(trains, line.instance.objective),
                         line.placements)
