"""Domain model: instance validation, routes, conflict pairs, and the
schedule horizon."""

from __future__ import annotations

import random

import pytest

import oracles
from displib.core import (
    CYCLIC_GRAPH,
    DUPLICATE_RESOURCE,
    DUPLICATE_SUCCESSOR,
    EMPTY_TRAIN,
    INDEX_OUT_OF_RANGE,
    MAX_VALUE,
    MULTIPLE_ENTRIES,
    MULTIPLE_EXITS,
    NEGATIVE_VALUE,
    UNWRITABLE_VALUE,
    ConflictPair,
    InstanceError,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
    build_instance,
    conflict_pairs,
    is_route,
    predecessors,
    resource_names,
    time_horizon,
    total_operations,
    validate_instance,
)
from builders import random_instance
from displib.generate import LineSpec, add_correspondence, generate_line


def branching_train() -> list[Operation]:
    """Seven operations, two diamonds in a row: 0 -> {1|2} -> 3 -> {4|5} -> 6.

    Durations, bounds, and releases exercise every field at once.
    """
    return [
        Operation(5, (1, 2), start_ub=0, resources=(ResourceUsage("R1"),)),
        Operation(0, (3,), resources=(ResourceUsage("R1", 3), ResourceUsage("R2", 5))),
        Operation(0, (3,), resources=(ResourceUsage("R1", 2), ResourceUsage("R3", 4))),
        Operation(5, (4, 5), start_lb=5, resources=(ResourceUsage("R4", 2),)),
        Operation(0, (6,), resources=(ResourceUsage("R5", 2),)),
        Operation(0, (6,), resources=(ResourceUsage("R6", 3),)),
        Operation(0, (), start_ub=10),
    ]


class TestBuildInstance:
    def test_branching_train_is_valid(self):
        instance = build_instance([branching_train()])
        assert len(instance.trains) == 1
        assert total_operations(instance) == 7
        assert instance.trains[0].exit_op == 6
        assert is_route(instance.trains[0], (0, 1, 3, 5, 6))

    def test_single_operation_train(self):
        instance = build_instance([[Operation(0, ())]])
        assert instance.trains[0].exit_op == 0

    def test_backward_successor_rejected(self):
        ops = [Operation(1, (1,)), Operation(1, (2,)), Operation(0, (1,))]
        with pytest.raises(InstanceError) as err:
            build_instance([ops])
        assert err.value.rule == CYCLIC_GRAPH
        assert err.value.train == 0 and err.value.operation == 2

    def test_self_successor_rejected(self):
        ops = [Operation(1, (1,)), Operation(1, (1, 2)), Operation(0, ())]
        with pytest.raises(InstanceError) as err:
            build_instance([ops])
        assert err.value.rule == CYCLIC_GRAPH

    def test_repeated_successor_rejected(self):
        # Listed twice, one arc would count twice in every arc-based
        # consumer: route moves, flow rows, arc variables.
        ops = [Operation(1, (1, 2)), Operation(1, (2, 2)), Operation(0, ())]
        with pytest.raises(InstanceError) as err:
            build_instance([[Operation(0, ())], ops])
        assert err.value.rule == DUPLICATE_SUCCESSOR
        assert err.value.train == 1 and err.value.operation == 1

    def test_successor_out_of_range(self):
        with pytest.raises(InstanceError) as err:
            build_instance([[Operation(1, (5,)), Operation(0, ())]])
        assert err.value.rule == INDEX_OUT_OF_RANGE

    def test_second_entry_rejected(self):
        # Operation 1 has no predecessor.
        ops = [Operation(1, (2,)), Operation(1, (2,)), Operation(0, ())]
        with pytest.raises(InstanceError) as err:
            build_instance([ops])
        assert err.value.rule == MULTIPLE_ENTRIES
        assert err.value.operation == 1

    def test_second_exit_rejected(self):
        ops = [Operation(1, (1, 2)), Operation(1, ()), Operation(0, ())]
        with pytest.raises(InstanceError) as err:
            build_instance([ops])
        assert err.value.rule == MULTIPLE_EXITS
        assert err.value.operation == 1

    def test_empty_train_rejected(self):
        with pytest.raises(InstanceError) as err:
            build_instance([[]])
        assert err.value.rule == EMPTY_TRAIN

    @pytest.mark.parametrize("op", [
        Operation(-1, ()),
        Operation(0, (), start_lb=-2),
        Operation(0, (), start_ub=-1),
        Operation(0, (), resources=(ResourceUsage("A", -1),)),
    ])
    def test_negative_values_rejected(self, op):
        with pytest.raises(InstanceError) as err:
            build_instance([[op]])
        assert err.value.rule == NEGATIVE_VALUE

    def test_window_upper_below_lower_rejected(self):
        with pytest.raises(InstanceError) as err:
            build_instance([[Operation(0, (), start_lb=5, start_ub=4)]])
        assert err.value.rule == NEGATIVE_VALUE

    def test_duplicate_resource_rejected(self):
        op = Operation(0, (), resources=(ResourceUsage("A"), ResourceUsage("A", 1)))
        with pytest.raises(InstanceError) as err:
            build_instance([[op]])
        assert err.value.rule == DUPLICATE_RESOURCE

    def test_objective_indices_checked(self):
        ops = [[Operation(0, ())]]
        with pytest.raises(InstanceError) as err:
            build_instance(ops, [ObjectiveComponent(train=1, operation=0)])
        assert err.value.rule == INDEX_OUT_OF_RANGE
        with pytest.raises(InstanceError) as err:
            build_instance(ops, [ObjectiveComponent(train=0, operation=3)])
        assert err.value.rule == INDEX_OUT_OF_RANGE

    def test_negative_objective_fields_rejected(self):
        ops = [[Operation(0, ())]]
        for kwargs in ({"threshold": -1}, {"coeff": -1}, {"increment": -2}):
            with pytest.raises(InstanceError) as err:
                build_instance(ops, [ObjectiveComponent(0, 0, **kwargs)])
            assert err.value.rule == NEGATIVE_VALUE

    @pytest.mark.parametrize("op", [
        Operation(1.5, ()),
        Operation(True, ()),
        Operation(0, (), start_lb=MAX_VALUE + 1),
        Operation(0, (), start_ub=2.0),
        Operation(0, (), resources=(ResourceUsage("A", 0.5),)),
        Operation(0, (), resources=(ResourceUsage(5),)),
    ])
    def test_unwritable_values_rejected(self, op):
        # The file format holds only plain integers up to 2^63 - 1 and string
        # resource names; anything else would write a file no parser accepts.
        ops = [Operation(0, (1,)), op]
        with pytest.raises(InstanceError) as err:
            build_instance([[Operation(0, ())], ops])
        assert err.value.rule == UNWRITABLE_VALUE
        assert (err.value.train, err.value.operation) == (1, 1)

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 2.5, "coeff": 1},
        {"coeff": False},
        {"increment": MAX_VALUE + 1},
    ])
    def test_unwritable_objective_fields_rejected(self, kwargs):
        ops = [[Operation(0, ())], [Operation(0, ())]]
        objective = [ObjectiveComponent(0, 0), ObjectiveComponent(1, 0, **kwargs)]
        with pytest.raises(InstanceError) as err:
            build_instance(ops, objective)
        assert err.value.rule == UNWRITABLE_VALUE
        assert (err.value.train, err.value.component) == (1, 1)

    @pytest.mark.parametrize("ops,objective", [
        ([Operation(0, (True,)), Operation(0, ())], []),
        ([Operation(0, (1.0,)), Operation(0, ())], []),
        ([Operation(0, ())], [ObjectiveComponent(False, 0)]),
        ([Operation(0, ())], [ObjectiveComponent(0, 0.0)]),
    ])
    def test_non_integer_indices_rejected(self, ops, objective):
        with pytest.raises(InstanceError) as err:
            build_instance([ops], objective)
        assert err.value.rule == INDEX_OUT_OF_RANGE

    def test_largest_writable_value_accepted(self):
        op = Operation(MAX_VALUE, (), start_lb=MAX_VALUE, start_ub=MAX_VALUE,
                       resources=(ResourceUsage("A", MAX_VALUE),))
        build_instance([[op]], [ObjectiveComponent(0, 0, MAX_VALUE, MAX_VALUE,
                                                   MAX_VALUE)])

    def test_revalidation_never_fails(self):
        rng = random.Random(7)
        for _ in range(50):
            validate_instance(random_instance(rng))


class TestRoutes:
    def test_every_oracle_path_is_a_route(self):
        rng = random.Random(11)
        for _ in range(60):
            instance = random_instance(rng, max_trains=2, max_ops=8)
            for train in instance.trains:
                paths = oracles.all_paths(train)
                assert paths
                for path in paths:
                    assert is_route(train, path)

    def test_validated_trains_route_every_operation(self):
        """Increasing successors with a single entry and a single exit put
        every operation on some route, with no separate reachability rule."""
        rng = random.Random(29)
        accepted = 0
        for _ in range(400):
            n = rng.randint(1, 7)
            ops = []
            for k in range(n - 1):
                width = rng.randint(1, min(2, n - k - 1))
                ops.append(Operation(0, tuple(sorted(rng.sample(range(k + 1, n), width)))))
            ops.append(Operation(0, ()))
            try:
                train = build_instance([ops]).trains[0]
            except InstanceError as err:
                assert err.rule == MULTIPLE_ENTRIES
                continue
            on_route = {k for route in oracles.all_paths(train) for k in route}
            assert on_route == set(range(n))
            accepted += 1
        assert accepted > 50

    def test_is_route_rejects_non_paths(self, junction):
        train = junction.trains[0]
        assert not is_route(train, ())
        assert not is_route(train, (0, 1))        # stops before the exit
        assert not is_route(train, (1, 3))        # starts past the entry
        assert not is_route(train, (0, 3))        # not an arc
        assert not is_route(train, (0, 1, 2, 3))  # 1 -> 2 is not an arc

    def test_predecessors(self, junction):
        assert predecessors(junction.trains[0]) == [[], [0], [0], [1, 2]]


def shared(instance, pair: ConflictPair) -> set[str]:
    """The resources that both operations of the pair list."""
    a, b = ({u.resource for u in instance.trains[t].operations[k].resources}
            for t, k in ((pair.train_a, pair.op_a), (pair.train_b, pair.op_b)))
    return a & b


class TestConflictPairs:
    def test_junction_pairs(self, junction):
        pairs = conflict_pairs(junction)
        assert pairs == [ConflictPair(0, 0, 1, 1), ConflictPair(0, 1, 1, 0)]
        assert [shared(junction, pair) for pair in pairs] == [{"L"}, {"R1"}]

    def test_single_train_has_no_pairs(self):
        instance = build_instance([branching_train()])
        assert conflict_pairs(instance) == []

    def test_disjoint_resources_have_no_pairs(self):
        a = [Operation(1, (), resources=(ResourceUsage("A"),))]
        b = [Operation(1, (), resources=(ResourceUsage("B"),))]
        assert conflict_pairs(build_instance([a, b])) == []

    def test_pair_listed_once_despite_two_shared_resources(self):
        a = [Operation(1, (), resources=(ResourceUsage("A"), ResourceUsage("B")))]
        b = [Operation(1, (), resources=(ResourceUsage("A"), ResourceUsage("B", 2)))]
        instance = build_instance([a, b])
        pairs = conflict_pairs(instance)
        assert pairs == [ConflictPair(0, 0, 1, 0)]
        assert shared(instance, pairs[0]) == {"A", "B"}

    def test_no_same_train_pairs(self):
        rng = random.Random(23)
        for _ in range(40):
            instance = random_instance(rng, max_trains=4)
            for pair in conflict_pairs(instance):
                assert pair.train_a != pair.train_b
                assert (pair.train_a, pair.op_a) < (pair.train_b, pair.op_b)
                assert shared(instance, pair)


class TestResourceNames:
    def test_junction(self, junction):
        """Train 0 claims L, R1 and R2; train 1 claims only names already
        listed."""
        assert resource_names(junction) == ["L", "R1", "R2"]

    def test_each_name_once_in_order_of_first_use(self):
        """The correspondence resource CORR0 is listed where the connecting
        train 0 first claims it, with SEG1 on its departure from station 1,
        although the feeder, train 1, claims it from its first operation.
        S0T1 comes last: train 1's first operation is its first user."""
        line = add_correspondence(
            generate_line(LineSpec(num_stations=4, num_trains=3, seed=0)),
            1, 0, 1)
        assert resource_names(line.instance) == [
            "S0T0", "SEG0", "S1T0", "S1T1", "SEG1", "CORR0", "S2T0", "S2T1",
            "SEG2", "S3T0", "S3T1", "S0T1"]


class TestTimeHorizon:
    def test_junction(self, junction):
        assert time_horizon(junction) == 25

    def test_single_bounded_operation(self):
        instance = build_instance([[Operation(5, (), start_lb=7)]])
        assert time_horizon(instance) == 12

    def test_all_zero(self):
        instance = build_instance([[Operation(0, ())]])
        assert time_horizon(instance) == 0

    def test_branching_train(self):
        # max finite bound 10, durations 5+5, releases 3+5+2+4+2+2+3.
        instance = build_instance([branching_train()])
        assert time_horizon(instance) == 10 + 10 + 21

    def test_threshold_contributes(self):
        instance = build_instance(
            [[Operation(2, ())]],
            [ObjectiveComponent(0, 0, threshold=40, coeff=1)])
        assert time_horizon(instance) == 42
