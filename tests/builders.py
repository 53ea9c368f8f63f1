"""Seeded corpus builders shared across test modules.

random_instance grows chain-backboned DAGs so every draw is structurally
valid by construction; the mutation helpers produce deliberately broken
solutions for exercising the verifier.
"""

from __future__ import annotations

import random

from displib.core import (
    Event,
    Instance,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    Solution,
    build_instance,
)
from displib.generate import (
    LineSpec,
    PerturbSpec,
    add_cancellation,
    add_correspondence,
    generate_line,
    perturb,
)

RESOURCE_POOL = ("Q0", "Q1", "Q2", "Q3", "Q4")


def random_train(rng: random.Random, max_ops: int) -> list[Operation]:
    n = rng.randint(1, max_ops)
    ops: list[Operation] = []
    for k in range(n):
        if k == n - 1:
            successors: tuple[int, ...] = ()
        else:
            extra = [s for s in range(k + 2, n) if rng.random() < 0.25]
            successors = tuple(sorted({k + 1, *extra}))
        resources = []
        if k != n - 1 or rng.random() < 0.1:
            for name in rng.sample(RESOURCE_POOL, rng.randint(0, 2)):
                resources.append(ResourceUsage(name, rng.randint(0, 3)))
        start_lb = rng.randint(0, 5) if rng.random() < 0.3 else 0
        start_ub = start_lb + rng.randint(5, 30) if rng.random() < 0.15 else None
        ops.append(Operation(min_duration=rng.randint(0, 8),
                             successors=successors,
                             start_lb=start_lb,
                             start_ub=start_ub,
                             resources=tuple(resources)))
    return ops


def _random_components(rng: random.Random,
                       trains: list[list[Operation]]) -> list[ObjectiveComponent]:
    components = []
    for _ in range(rng.randint(0, 3)):
        t = rng.randrange(len(trains))
        components.append(ObjectiveComponent(
            train=t,
            operation=rng.randrange(len(trains[t])),
            threshold=rng.randint(0, 20),
            coeff=rng.randint(0, 3),
            increment=rng.randint(0, 5) if rng.random() < 0.5 else 0))
    return components


def random_instance(rng: random.Random, max_trains: int = 3,
                    max_ops: int = 6) -> Instance:
    trains = [random_train(rng, max_ops)
              for _ in range(rng.randint(1, max_trains))]
    return build_instance(trains, _random_components(rng, trains))


def random_reduced_train(rng: random.Random, max_ops: int) -> list[Operation]:
    """Train whose successor graph is a chain of stages, each a single
    operation or a two-way fork rejoining at the next stage. Such graphs are
    transitively reduced, the class the route-selection rows of the
    mixed-integer model encode exactly. Start windows sit only on mandatory
    (non-fork) operations, as in the schedule generators, where windows come
    from timetable pins; the model itself is exact for windows anywhere."""
    budget = rng.randint(1, max_ops)
    stages = [1]
    budget -= 1
    while budget > 0:
        # a fork needs a following stage to rejoin into (unique exit)
        if budget >= 3 and rng.random() < 0.4:
            stages.append(2)
            budget -= 2
        else:
            stages.append(1)
            budget -= 1
    # index ranges per stage
    starts = []
    total = 0
    for width in stages:
        starts.append(total)
        total += width
    ops: list[Operation] = []
    for s, width in enumerate(stages):
        for member in range(width):
            k = starts[s] + member
            if s == len(stages) - 1:
                successors: tuple[int, ...] = ()
            else:
                nxt = stages[s + 1]
                successors = tuple(range(starts[s + 1], starts[s + 1] + nxt))
            resources = []
            if successors or rng.random() < 0.2:
                for name in rng.sample(RESOURCE_POOL, rng.randint(0, 2)):
                    resources.append(ResourceUsage(name, rng.randint(0, 3)))
            if width == 1:
                start_lb = rng.randint(0, 5) if rng.random() < 0.3 else 0
                start_ub = (start_lb + rng.randint(5, 30)
                            if rng.random() < 0.1 else None)
            else:
                start_lb, start_ub = 0, None
            ops.append(Operation(min_duration=rng.randint(0, 8),
                                 successors=successors,
                                 start_lb=start_lb,
                                 start_ub=start_ub,
                                 resources=tuple(resources)))
    return ops


def random_reduced_instance(rng: random.Random, max_trains: int = 3,
                            max_ops: int = 6) -> Instance:
    trains = [random_reduced_train(rng, max_ops)
              for _ in range(rng.randint(1, max_trains))]
    return build_instance(trains, _random_components(rng, trains))


# ---------------------------------------------------------------------------
# Solution corruption


def swap_adjacent(rng: random.Random, solution: Solution) -> Solution | None:
    """Exchange the payloads of two adjacent cross-train events, keeping the
    time column as is; per-train subsequences and chronology survive, but
    resource hand-overs flip."""
    candidates = [k for k in range(len(solution.events) - 1)
                  if solution.events[k].train != solution.events[k + 1].train]
    if not candidates:
        return None
    k = rng.choice(candidates)
    a, b = solution.events[k], solution.events[k + 1]
    events = list(solution.events)
    events[k] = Event(a.time, b.train, b.operation)
    events[k + 1] = Event(b.time, a.train, a.operation)
    return Solution(solution.objective_value, tuple(events))


def shift_suffix(rng: random.Random, solution: Solution) -> Solution | None:
    """Add a constant to every time from a random position on."""
    if not solution.events:
        return None
    k = rng.randrange(len(solution.events))
    delta = rng.randint(1, 40)
    events = [ev if idx < k else Event(ev.time + delta, ev.train, ev.operation)
              for idx, ev in enumerate(solution.events)]
    return Solution(solution.objective_value, tuple(events))


def squeeze_time(rng: random.Random, solution: Solution) -> Solution | None:
    """Pull one event's time down to its predecessor's time."""
    if len(solution.events) < 2:
        return None
    k = rng.randrange(1, len(solution.events))
    events = list(solution.events)
    ev = events[k]
    events[k] = Event(events[k - 1].time, ev.train, ev.operation)
    return Solution(solution.objective_value, tuple(events))


def wrong_claim(rng: random.Random, solution: Solution) -> Solution | None:
    return Solution(solution.objective_value + rng.randint(1, 9),
                    solution.events)


def drop_event(rng: random.Random, solution: Solution) -> Solution | None:
    if not solution.events:
        return None
    k = rng.randrange(len(solution.events))
    events = solution.events[:k] + solution.events[k + 1:]
    return Solution(solution.objective_value, events)


MUTATIONS = (swap_adjacent, shift_suffix, squeeze_time, wrong_claim, drop_event)


def corrupt(rng: random.Random, solution: Solution) -> Solution | None:
    return rng.choice(MUTATIONS)(rng, solution)


# ---------------------------------------------------------------------------
# Document mutation (for never-crash fuzzing of the parser)


def _walk_containers(doc) -> list:
    """Every dict/list reachable from the document root, root included."""
    found = []
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            found.append(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            found.append(node)
            stack.extend(node)
    return found


_BAD_VALUES = (None, True, False, -1, -7, 1.5, 2**63, 2**70, "five",
               [], {}, [1, 2], {"x": 1})


def mutate_document(rng: random.Random, doc) -> str:
    """Break a valid instance document in one random way and return JSON
    text (or non-JSON text for the truncation/garbage mutations)."""
    import copy
    import json

    doc = copy.deepcopy(doc)
    containers = _walk_containers(doc)
    choice = rng.randrange(8)
    if choice == 0:      # delete a key somewhere
        dicts = [c for c in containers if isinstance(c, dict) and c]
        if dicts:
            target = rng.choice(dicts)
            del target[rng.choice(list(target))]
    elif choice == 1:    # replace a value with a wrong-typed or bad one
        dicts = [c for c in containers if isinstance(c, dict) and c]
        if dicts:
            target = rng.choice(dicts)
            target[rng.choice(list(target))] = rng.choice(_BAD_VALUES)
    elif choice == 2:    # unsupported objective component type
        doc.setdefault("objective", []).append(
            {"type": "quadratic_delay", "train": 0, "operation": 0})
    elif choice == 3:    # break the successor graph
        trains = doc.get("trains") or [[]]
        if isinstance(trains, list) and trains and isinstance(trains[0], list) \
                and trains[0] and isinstance(trains[0][0], dict):
            trains[0][0]["successors"] = [rng.choice((0, -1, 999))]
    elif choice == 4:    # duplicate resource usage
        trains = doc.get("trains") or [[]]
        if isinstance(trains, list) and trains and isinstance(trains[0], list) \
                and trains[0] and isinstance(trains[0][0], dict):
            trains[0][0]["resources"] = [{"resource": "D"}, {"resource": "D"}]
    elif choice == 5:    # inverted start window
        trains = doc.get("trains") or [[]]
        if isinstance(trains, list) and trains and isinstance(trains[0], list) \
                and trains[0] and isinstance(trains[0][0], dict):
            trains[0][0]["start_lb"] = 9
            trains[0][0]["start_ub"] = 3
    elif choice == 6:    # truncate the text
        text = json.dumps(doc)
        return text[:rng.randrange(len(text))]
    else:                # trailing garbage
        return json.dumps(doc) + rng.choice((" }", "]", "x", '{"a"'))
    return json.dumps(doc)


def disrupted_corridor() -> Instance:
    """The 10x8 seed-7 corridor with a cancellation and a correspondence,
    perturbed at time 400: 1,804 rel rows."""
    line = generate_line(LineSpec(num_stations=10, num_trains=8, seed=7))
    line = add_correspondence(add_cancellation(line, 0, 1, 50), 0, 7, 2)
    return perturb(line, PerturbSpec(at_time=400, delayed_fraction=0.5,
                                     seed=3)).instance
