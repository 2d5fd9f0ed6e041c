import random
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfan.errors import (EmptyProjection, NoToricModel,
                           NotABuildingSetOrder, TooFewFactors)
from logfan.fans import induces_fan_map, is_smooth
from logfan.logproduct import (LogPair, building_set, format_pair,
                               is_valid_order, log_product,
                               order_independence_check, parse_pair,
                               projection, projection_matrix,
                               strict_transform_rays)

P1 = LogPair("P1:pt")
P2 = LogPair("Pn:H", 2)
P3 = LogPair("Pn:H", 3)
A1 = LogPair("A1:0")


class TestBuildingSet:
    def test_n2(self):
        assert building_set(2) == [frozenset({0, 1})]

    def test_n3_order(self):
        assert building_set(3) == [frozenset({0, 1, 2}), frozenset({0, 1}),
                                   frozenset({0, 2}), frozenset({1, 2})]

    def test_n4_count(self):
        assert len(building_set(4)) == 2 ** 4 - 4 - 1 == 11

    def test_too_few(self):
        with pytest.raises(TooFewFactors):
            building_set(1)


class TestOrderValidity:
    def test_default_valid(self):
        for n in (2, 3, 4):
            assert is_valid_order(building_set(n), n)

    def test_alternative_n3_valid(self):
        # pair first, then the triple, then the remaining pairs
        order = [{0, 1}, {0, 1, 2}, {0, 2}, {1, 2}]
        assert is_valid_order(order, 3)

    def test_disjoint_pairs_before_their_union_valid(self):
        # disjoint sets need no union in the prefix
        order = [{0, 1}, {2, 3}, {0, 1, 2, 3}, {0, 1, 2}, {0, 1, 3},
                 {0, 2, 3}, {1, 2, 3}, {0, 2}, {0, 3}, {1, 2}, {1, 3}]
        assert is_valid_order(order, 4)
        assert order_independence_check([P1] * 4, order, building_set(4))

    def test_two_overlapping_pairs_first_invalid(self):
        order = [{0, 1}, {0, 2}, {0, 1, 2}, {1, 2}]
        assert not is_valid_order(order, 3)

    def test_incomplete_collection_invalid(self):
        assert not is_valid_order([{0, 1}], 3)


class TestLogProduct:
    def test_fig1_octant(self):
        space = log_product([A1, A1, A1])
        rays = set(space.fan.rays())
        assert rays == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                        (1, 0, 1), (0, 1, 1), (1, 1, 1)}
        assert len(space.fan.cones) == 6
        assert all(is_smooth(c, 3) for c in space.fan.cones)

    def test_p1_squared(self):
        space = log_product([P1, P1])
        assert len(space.fan.rays()) == 5
        assert len(space.fan.cones) == 5

    def test_p1_times_p2(self):
        space = log_product([P1, P2])
        assert all(is_smooth(c, 3) for c in space.fan.cones)
        assert space.fan.exceptional_count() == 1

    def test_exceptional_count_formula(self):
        for n in (2, 3, 4):
            space = log_product([A1] * n)
            assert space.fan.exceptional_count() == 2 ** n - n - 1

    def test_curve_factor_rejected(self):
        with pytest.raises(NoToricModel):
            log_product([LogPair("Cg:pt", 2), P1])

    def test_single_factor_rejected(self):
        with pytest.raises(TooFewFactors):
            log_product([P1])

    def test_invalid_order_rejected(self):
        bad = [{0, 1}, {0, 2}, {0, 1, 2}, {1, 2}]
        with pytest.raises(NotABuildingSetOrder):
            log_product([P1, P1, P1], bad)

    def test_deterministic(self):
        assert log_product([P1, P2]).fan == log_product([P1, P2]).fan


class TestOrderIndependence:
    def test_all_valid_n3_orders(self):
        orders = [list(p) for p in permutations(building_set(3))
                  if is_valid_order(p, 3)]
        assert len(orders) == 12
        base = building_set(3)
        for order in orders:
            assert order_independence_check([P1] * 3, base, order)

    def test_n4_random_valid_orders(self):
        rng = random.Random(7)
        base = building_set(4)
        found = 0
        while found < 10:
            order = base[:]
            rng.shuffle(order)
            if not is_valid_order(order, 4):
                continue
            assert order_independence_check([A1] * 4, base, order)
            found += 1

    def test_n2_unique_order(self):
        assert order_independence_check([P1, P1], building_set(2),
                                        building_set(2))


class TestProjection:
    def test_triple_to_pair_fan_map(self):
        big = log_product([P1] * 3)
        small, mat = projection(big, [0, 1])
        assert induces_fan_map(big.fan, small.fan, mat)

    def test_keep_all_is_identity(self):
        mat = projection_matrix([P1, P2], [0, 1])
        assert mat == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_route_independence(self):
        # keep {0,1} of 4 factors: via {0,1,2} then {0,1} equals direct
        pairs = [P1] * 4
        via = projection_matrix(pairs, [0, 1, 2])
        then = projection_matrix([P1] * 3, [0, 1])
        direct = projection_matrix(pairs, [0, 1])
        composed = [tuple(sum(r[k] * via[k][j] for k in range(len(via)))
                          for j in range(len(via[0]))) for r in then]
        assert composed == direct

    def test_single_factor_target(self):
        big = log_product([P1, P2, A1])
        small, mat = projection(big, [1, 1])
        assert small.fan == P2.toric_fan(0)
        assert small.strict_transforms == ((0, (1, 0)),)
        assert induces_fan_map(big.fan, small.fan, mat)

    def test_empty_keep(self):
        with pytest.raises(EmptyProjection):
            projection_matrix([P1, P1], [])
        with pytest.raises(EmptyProjection):
            projection(log_product([P1, P1]), [])


class TestStrictTransforms:
    def test_n2_single_blowup(self):
        space = log_product([P1, P1])
        strict, exc = strict_transform_rays(space, 0)
        assert strict == (1, 0)
        assert exc == [(1, 1)]

    def test_n3_factor0(self):
        space = log_product([P1] * 3)
        strict, exc = strict_transform_rays(space, 0)
        strata = [s for s, _ in space.stratum_ray if 0 in s]
        assert len(exc) == 3
        assert {frozenset(s) for s in strata} == \
            {frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0, 2})}

    def test_n3_factor1_symmetric(self):
        space = log_product([P1] * 3)
        _, exc = strict_transform_rays(space, 1)
        assert len(exc) == 3


class TestSmoothnessFamily:
    @pytest.mark.parametrize("combo", list(
        combinations_with_replacement([P1, P2, P3], 2)))
    def test_two_factor_products_smooth(self, combo):
        space = log_product(list(combo))
        assert all(is_smooth(c, space.fan.rank) for c in space.fan.cones)

    def test_refines_product_fan(self):
        from logfan.fans import product_fan, Fan, Cone
        space = log_product([P1, P2])
        raw = Fan(0, (Cone(()),))
        for i, p in enumerate([P1, P2]):
            raw = product_fan(raw, p.toric_fan(i))
        identity = tuple(tuple(1 if i == j else 0 for j in range(3))
                         for i in range(3))
        assert induces_fan_map(space.fan, raw, identity)


class TestPairParsing:
    @pytest.mark.parametrize("text,pair", [
        ("P1:pt", P1), ("P2:H", P2), ("P3:H", P3),
        ("C2:pt", LogPair("Cg:pt", 2)), ("A1:0", A1)])
    def test_round_trip(self, text, pair):
        assert parse_pair(text) == pair
        assert format_pair(pair) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_pair("P0:H")
        with pytest.raises(ValueError):
            parse_pair("X1:D")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.randoms())
def test_any_valid_shuffle_gives_same_fan(n, rnd):
    order = building_set(n)
    shuffled = order[:]
    rnd.shuffle(shuffled)
    if is_valid_order(shuffled, n):
        assert order_independence_check([A1] * n, order, shuffled)
    else:
        with pytest.raises(NotABuildingSetOrder):
            log_product([A1] * n, shuffled)
