"""File reading and writing: defaults, canonical output, round-trips, and
error reporting with document paths."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_text
from builders import (_walk_containers, disrupted_corridor, mutate_document,
                      random_instance)
from displib import fileformat
from displib.core import (
    DUPLICATE_SUCCESSOR,
    EMPTY_TRAIN,
    INDEX_OUT_OF_RANGE,
    Event,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    Solution,
    build_instance,
)
from displib.generate import LineSpec, generate_line
from displib.solve import solve_heuristic
from displib.fileformat import (
    MALFORMED_DOCUMENT,
    MISSING_KEY,
    NEGATIVE_NUMBER,
    NON_INTEGER_NUMBER,
    NUMBER_TOO_LARGE,
    UNKNOWN_KEY,
    UNKNOWN_OBJECTIVE_TYPE,
    FormatError,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)


class TestParseInstance:
    def test_golden_document(self, junction):
        assert len(junction.trains) == 2
        assert [len(t.operations) for t in junction.trains] == [4, 3]
        a0 = junction.trains[0].operations[0]
        assert a0.start_lb == 0 and a0.start_ub == 0 and a0.min_duration == 5
        assert a0.resources == (ResourceUsage("L", 0),)
        assert a0.successors == (1, 2)
        assert junction.trains[1].operations[2].successors == ()
        assert junction.objective == (
            ObjectiveComponent(train=1, operation=2, threshold=0, coeff=1,
                               increment=0),)

    def test_all_defaults(self):
        text = '{"trains": [[{"min_duration": 0, "successors": []}]], "objective": []}'
        instance, diags = parse_instance(text)
        op = instance.trains[0].operations[0]
        assert op.start_lb == 0
        assert op.start_ub is None
        assert op.resources == ()
        assert instance.objective == ()
        assert diags.warnings == []

    def test_release_time_default(self):
        text = json.dumps({
            "trains": [[{"min_duration": 1, "successors": [],
                         "resources": [{"resource": "A"}]}]],
            "objective": [],
        })
        instance, _ = parse_instance(text)
        assert instance.trains[0].operations[0].resources[0].release_time == 0

    def test_unknown_key_warns(self):
        text = json.dumps({
            "trains": [[{"min_duration": 0, "successors": [], "note": "hi"}]],
            "objective": [],
        })
        _, diags = parse_instance(text)
        assert diags.warnings == [("/trains/0/0/note", "unknown key 'note' ignored")]

    def test_unknown_key_strict_fails(self):
        text = json.dumps({
            "trains": [[{"min_duration": 0, "successors": [], "note": "hi"}]],
            "objective": [],
        })
        with pytest.raises(FormatError) as err:
            parse_instance(text, strict=True)
        assert err.value.kind == UNKNOWN_KEY
        assert err.value.path == "/trains/0/0/note"

    @pytest.mark.parametrize("text,kind,path", [
        ("{", MALFORMED_DOCUMENT, ""),
        ("[]", MALFORMED_DOCUMENT, ""),
        ('{"objective": []}', MISSING_KEY, ""),
        ('{"trains": []}', MISSING_KEY, ""),
        ('{"trains": {}, "objective": []}', MALFORMED_DOCUMENT, "/trains"),
        ('{"trains": [[{"successors": []}]], "objective": []}',
         MISSING_KEY, "/trains/0/0"),
        ('{"trains": [[{"min_duration": -1, "successors": []}]], "objective": []}',
         NEGATIVE_NUMBER, "/trains/0/0/min_duration"),
        ('{"trains": [[{"min_duration": 1.5, "successors": []}]], "objective": []}',
         NON_INTEGER_NUMBER, "/trains/0/0/min_duration"),
        ('{"trains": [[{"min_duration": true, "successors": []}]], "objective": []}',
         NON_INTEGER_NUMBER, "/trains/0/0/min_duration"),
        ('{"trains": [[{"min_duration": %d, "successors": []}]], "objective": []}'
         % 2**63, NUMBER_TOO_LARGE, "/trains/0/0/min_duration"),
        ('{"trains": [[{"min_duration": 0, "successors": [], '
         '"resources": [{"release_time": 1}]}]], "objective": []}',
         MISSING_KEY, "/trains/0/0/resources/0"),
        ('{"trains": [[{"min_duration": 0, "successors": [], '
         '"resources": [{"resource": 5}]}]], "objective": []}',
         MALFORMED_DOCUMENT, "/trains/0/0/resources/0/resource"),
        ('{"trains": [[{"min_duration": 0, "successors": []}]], '
         '"objective": [{"type": "total_delay", "train": 0, "operation": 0}]}',
         UNKNOWN_OBJECTIVE_TYPE, "/objective/0/type"),
        ('{"trains": [[{"min_duration": 0, "successors": [1, 1]}, '
         '{"min_duration": 0, "successors": []}]], "objective": []}',
         DUPLICATE_SUCCESSOR, "/trains/0/0"),
        ('{"trains": [[{"min_duration": 0, "successors": []}]], '
         '"objective": [{"type": "op_delay", "train": 1, "operation": 0}]}',
         INDEX_OUT_OF_RANGE, "/objective/0"),
        ('{"trains": [[]], "objective": []}', EMPTY_TRAIN, "/trains/0"),
    ])
    def test_error_kinds_and_paths(self, text, kind, path):
        with pytest.raises(FormatError) as err:
            parse_instance(text)
        assert err.value.kind == kind
        assert err.value.path == path

    def test_structural_errors_carry_paths(self):
        text = json.dumps({
            "trains": [[{"min_duration": 0, "successors": [0]}]],
            "objective": [],
        })
        with pytest.raises(FormatError) as err:
            parse_instance(text)
        assert err.value.kind == "CyclicGraph"
        assert err.value.path == "/trains/0/0"

    def test_max_value_boundary(self):
        text = json.dumps({
            "trains": [[{"min_duration": fileformat.MAX_VALUE, "successors": []}]],
            "objective": [],
        })
        instance, _ = parse_instance(text)
        assert instance.trains[0].operations[0].min_duration == fileformat.MAX_VALUE


class TestWriteInstance:
    def test_defaults_omitted(self):
        instance = build_instance(
            [[Operation(3, (1,), resources=(ResourceUsage("A"),)),
              Operation(0, ())]],
            [ObjectiveComponent(0, 1, coeff=2)])
        doc = json.loads(write_instance(instance))
        op0, op1 = doc["trains"][0]
        assert "start_lb" not in op0 and "start_ub" not in op0
        assert op0["resources"] == [{"resource": "A"}]
        assert "resources" not in op1
        comp = doc["objective"][0]
        assert comp == {"type": "op_delay", "train": 0, "operation": 1, "coeff": 2}

    def test_non_defaults_written(self):
        instance = build_instance(
            [[Operation(1, (), start_lb=2, start_ub=9,
                        resources=(ResourceUsage("A", 4),))]],
            [ObjectiveComponent(0, 0, threshold=5, increment=7)])
        doc = json.loads(write_instance(instance))
        op = doc["trains"][0][0]
        assert op["start_lb"] == 2 and op["start_ub"] == 9
        assert op["resources"] == [{"resource": "A", "release_time": 4}]
        assert doc["objective"][0]["threshold"] == 5
        assert doc["objective"][0]["increment"] == 7
        assert "coeff" not in doc["objective"][0]

    def test_deterministic_bytes(self, junction):
        assert write_instance(junction) == write_instance(junction)

    def test_golden_round_trip(self, junction):
        reparsed, diags = parse_instance(write_instance(junction))
        assert reparsed == junction
        assert diags.warnings == []

    def test_seeded_round_trips(self):
        rng = random.Random(5)
        for _ in range(150):
            instance = random_instance(rng, max_trains=4, max_ops=7)
            assert parse_instance(write_instance(instance))[0] == instance


# A hypothesis strategy that grows valid trains the same way the format
# accepts them: chain backbones with optional skip arcs.
@st.composite
def train_strategy(draw):
    n = draw(st.integers(1, 6))
    ops = []
    for k in range(n):
        if k == n - 1:
            succ = ()
        else:
            skips = draw(st.sets(st.integers(k + 2, n - 1), max_size=2)) \
                if k + 2 <= n - 1 else set()
            succ = tuple(sorted({k + 1, *skips}))
        resources = tuple(
            ResourceUsage(name, draw(st.integers(0, 5)))
            for name in draw(st.sets(st.sampled_from("ABCD"), max_size=2)))
        lb = draw(st.integers(0, 9))
        ops.append(Operation(
            min_duration=draw(st.integers(0, 9)),
            successors=succ,
            start_lb=lb,
            start_ub=draw(st.one_of(st.none(), st.integers(lb, lb + 20))),
            resources=resources))
    return ops


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(train_strategy(), min_size=1, max_size=3), st.data())
def test_round_trip_property(trains, data):
    components = []
    for _ in range(data.draw(st.integers(0, 2))):
        t = data.draw(st.integers(0, len(trains) - 1))
        components.append(ObjectiveComponent(
            train=t,
            operation=data.draw(st.integers(0, len(trains[t]) - 1)),
            threshold=data.draw(st.integers(0, 50)),
            coeff=data.draw(st.integers(0, 4)),
            increment=data.draw(st.integers(0, 4))))
    instance = build_instance(trains, components)
    text = write_instance(instance)
    reparsed, diags = parse_instance(text, strict=True)
    assert reparsed == instance
    assert diags.warnings == []


class TestParseSolution:
    def test_golden_document(self, junction_solution):
        assert junction_solution.objective_value == 10
        assert len(junction_solution.events) == 6
        assert junction_solution.events[0] == Event(0, 0, 0)
        assert junction_solution.events[2] == Event(5, 0, 2)
        assert junction_solution.events[5] == Event(10, 0, 3)

    def test_empty_events(self):
        solution, _ = parse_solution('{"objective_value": 0, "events": []}')
        assert solution == Solution(0, ())

    @pytest.mark.parametrize("text,kind,path", [
        ("not json", MALFORMED_DOCUMENT, ""),
        ('{"events": []}', MISSING_KEY, ""),
        ('{"objective_value": 0}', MISSING_KEY, ""),
        ('{"objective_value": -3, "events": []}', NEGATIVE_NUMBER,
         "/objective_value"),
        ('{"objective_value": 0, "events": [{"time": 0, "operation": 0}]}',
         MISSING_KEY, "/events/0"),
        ('{"objective_value": 0, "events": [{"time": -1, "train": 0, '
         '"operation": 0}]}', NEGATIVE_NUMBER, "/events/0/time"),
    ])
    def test_error_kinds_and_paths(self, text, kind, path):
        with pytest.raises(FormatError) as err:
            parse_solution(text)
        assert err.value.kind == kind
        assert err.value.path == path

    def test_round_trip(self, junction_solution):
        text = write_solution(junction_solution)
        assert parse_solution(text)[0] == junction_solution
        assert data_text("junction_solution.json") != ""

    def test_large_solution_preserves_order(self):
        rng = random.Random(3)
        events = []
        t = 0
        for _ in range(10_000):
            t += rng.randint(0, 3)
            events.append(Event(t, rng.randrange(50), rng.randrange(40)))
        solution = Solution(12345, tuple(events))
        reparsed, _ = parse_solution(write_solution(solution))
        assert reparsed == solution


class TestFuzzing:
    def test_invalid_documents_never_crash(self):
        # Every other mutant that is still JSON gets an unknown key, placed
        # by a random stream of its own after mutating, so that `rng` and
        # the mutants are what they were without keys.
        rng, keys = random.Random(99), random.Random(20)
        survived = 0
        errored = 0
        warned = unknown = 0
        for n in range(400):
            base = json.loads(write_instance(random_instance(rng)))
            text = mutate_document(rng, base)
            if n % 2:
                try:
                    doc = json.loads(text)
                except ValueError:
                    pass
                else:
                    keys.choice([c for c in _walk_containers(doc)
                                 if isinstance(c, dict)])["note"] = n
                    text = json.dumps(doc)
            try:
                lenient, diags = parse_instance(text)
                survived += 1
            except FormatError as e:
                errored += 1
                assert isinstance(e.path, str)
                assert str(e)
                lenient = None
            try:
                strict, _ = parse_instance(text, strict=True)
            except FormatError as e:
                assert isinstance(e.path, str)
                assert str(e)
                unknown += e.kind == UNKNOWN_KEY
                strict = None
            if lenient is not None and diags.warnings:
                warned += 1
                assert strict is None
            elif lenient is not None:
                assert strict == lenient
        # Most mutations must actually break the document; a few (like
        # deleting an optional key) legitimately survive.
        assert errored > 250
        assert survived + errored == 400
        assert warned and unknown > 100


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item).encode() + b"\n")
    return h.hexdigest()


def _outcome(parse, text: str, strict: bool) -> list:
    """(kind, path, message) of a rejected document; the re-written bytes and
    the warnings of an accepted one."""
    try:
        parsed, diags = parse(text, strict=strict)
    except FormatError as e:
        return [e.kind, e.path, e.reason]
    written = (write_instance(parsed) if parse is parse_instance
               else write_solution(parsed))
    return [written, diags.warnings]


@pytest.fixture(scope="module")
def pinned_corpus():
    """50 random instances, the disrupted 10x8 corridor and the 5x4 seed-42
    line, with their heuristic solutions at 4 restarts (so a change to the
    heuristic's schedules changes the digests too)."""
    instances = [random_instance(random.Random(seed)) for seed in range(50)]
    instances += [disrupted_corridor(),
                  generate_line(LineSpec(num_stations=5, num_trains=4,
                                         seed=42)).instance]
    solutions = [solve_heuristic(instance, max_restarts=4).solution
                 for instance in instances]
    return instances, [s for s in solutions if s is not None]


class TestPinnedBehaviour:
    """Digests of what the format writes and reports. A change to any written
    byte, error kind, path, message or warning changes a digest."""

    def test_written_bytes(self, pinned_corpus):
        instances, solutions = pinned_corpus
        assert len(solutions) == 51
        texts = ([write_instance(i) for i in instances]
                 + [write_solution(s) for s in solutions])
        assert _digest(texts) == WRITTEN_DIGEST

    def test_parse_outcomes(self, pinned_corpus):
        # Every other base document carries an unknown key somewhere, so
        # lenient and strict parses differ.
        instances, solutions = pinned_corpus
        rng = random.Random(19)
        cases = []
        for n, record in enumerate(instances[:50] + solutions[:50]):
            is_instance = n < 50
            doc = json.loads(write_instance(record) if is_instance
                             else write_solution(record))
            for k in range(10):
                base = doc
                if k % 2:
                    base = json.loads(json.dumps(doc))
                    target = rng.choice([c for c in _walk_containers(base)
                                         if isinstance(c, dict)])
                    target["note"] = k
                cases.append((parse_instance if is_instance else parse_solution,
                              mutate_document(rng, base)))
        assert len(cases) == 1000
        outcomes = [_outcome(parse, text, strict)
                    for parse, text in cases for strict in (False, True)]
        assert sum(len(o) == 3 and o[0] == UNKNOWN_KEY for o in outcomes) > 100
        assert _digest(outcomes) == OUTCOME_DIGEST

    def test_unknown_key_comes_before_field_errors(self):
        # Unknown keys are checked first, then the fields in dataclass order:
        # min_duration (missing) before start_lb (negative).
        text = ('{"trains": [[{"start_lb": -1, "successors": [], "extra": 1}]], '
                '"objective": []}')
        with pytest.raises(FormatError) as strict:
            parse_instance(text, strict=True)
        assert (strict.value.kind, strict.value.path) == (UNKNOWN_KEY,
                                                          "/trains/0/0/extra")
        with pytest.raises(FormatError) as lenient:
            parse_instance(text)
        assert (lenient.value.kind, lenient.value.path) == (MISSING_KEY,
                                                            "/trains/0/0")


WRITTEN_DIGEST = "0f75f861b30127294e0faaba5f64f7a425f34df910e12b6906fdd588bb05102d"
OUTCOME_DIGEST = "40f17e8f4135287b948bd675096ab2f1161f8cb9e4478fb4f9dda1531964fa0d"
