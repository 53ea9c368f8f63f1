"""Domain model: instance validation, route enumeration, conflict pairs,
and the schedule horizon."""

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
    MULTIPLE_ENTRIES,
    MULTIPLE_EXITS,
    NEGATIVE_VALUE,
    ConflictPair,
    InstanceError,
    ObjectiveComponent,
    Operation,
    ResourceUsage,
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
from builders import random_instance


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

    def test_revalidation_never_fails(self):
        rng = random.Random(7)
        for _ in range(50):
            validate_instance(random_instance(rng))


class TestRoutes:
    def test_branching_train_has_four_routes(self):
        instance = build_instance([branching_train()])
        routes = enumerate_routes(instance.trains[0])
        assert routes.routes == ((0, 1, 3, 4, 6), (0, 1, 3, 5, 6),
                                 (0, 2, 3, 4, 6), (0, 2, 3, 5, 6))
        assert not routes.truncated

    def test_junction_routes(self, junction):
        assert enumerate_routes(junction.trains[0]).routes == ((0, 1, 3), (0, 2, 3))
        assert enumerate_routes(junction.trains[1]).routes == ((0, 1, 2),)

    def test_single_operation_route(self):
        instance = build_instance([[Operation(0, ())]])
        assert enumerate_routes(instance.trains[0]).routes == ((0,),)

    def test_limit_truncates(self):
        instance = build_instance([branching_train()])
        routes = enumerate_routes(instance.trains[0], limit=2)
        assert len(routes.routes) == 2
        assert routes.truncated
        assert enumerate_routes(instance.trains[0], limit=10).truncated is False

    def test_limit_zero(self):
        instance = build_instance([branching_train()])
        routes = enumerate_routes(instance.trains[0], limit=0)
        assert routes.routes == () and routes.truncated

    def test_negative_limit_rejected(self):
        instance = build_instance([[Operation(0, ())]])
        with pytest.raises(ValueError):
            enumerate_routes(instance.trains[0], limit=-1)

    def test_matches_recursive_enumeration(self):
        rng = random.Random(11)
        for _ in range(60):
            instance = random_instance(rng, max_trains=2, max_ops=8)
            for train in instance.trains:
                got = enumerate_routes(train)
                assert got.routes == tuple(oracles.all_paths(train))
                assert not got.truncated
                for route in got.routes:
                    assert is_route(train, route)
                    assert route[0] == 0 and route[-1] == train.exit_op

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
            on_route = {k for route in enumerate_routes(train).routes for k in route}
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


class TestConflictPairs:
    def test_junction_pairs(self, junction):
        pairs = conflict_pairs(junction)
        assert pairs == [ConflictPair(0, 0, 1, 1), ConflictPair(0, 1, 1, 0)]
        assert shared_resources(junction, pairs[0]) == [("L", 0, 0)]
        assert shared_resources(junction, pairs[1]) == [("R1", 0, 0)]

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
        assert shared_resources(instance, pairs[0]) == [("A", 0, 0), ("B", 0, 2)]

    def test_no_same_train_pairs(self):
        rng = random.Random(23)
        for _ in range(40):
            instance = random_instance(rng, max_trains=4)
            for pair in conflict_pairs(instance):
                assert pair.train_a != pair.train_b
                assert (pair.train_a, pair.op_a) < (pair.train_b, pair.op_b)
                assert shared_resources(instance, pair)


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
