import ast
from functools import reduce
import json
from pathlib import Path
import random
from itertools import (combinations, combinations_with_replacement,
                       permutations)
from math import factorial
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logfan import fans, logproduct
from logfan.cli import main, parse_order
from logfan.errors import (DimensionTooLarge, EmptyProjection, InvalidCone,
                           NoToricModel, NotABuildingSetOrder, TooFewFactors,
                           TooManyCones)
from logfan.fans import (EXCEPTIONAL, STRICT_TRANSFORM, Cone, DivisorLabel,
                         Fan, fan_dumps, fan_loads, induces_fan_map,
                         is_smooth, product_fan, star_subdivide)
from logfan.logproduct import (MAX_CONES, MAX_RANK, LogPair,
                               LogProductSpace, _cone_count, building_set,
                               format_pair, is_valid_order, log_product,
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
        # one factor has no subset of size >= 2 to blow up
        assert building_set(1) == []


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
        """One factor is its own log product, with no stratum, so the
        only order it takes is empty; no factor at all is refused."""
        assert log_product([P1], []) == log_product([P1])
        with pytest.raises(NotABuildingSetOrder):
            log_product([P1], [{0}])
        with pytest.raises(TooFewFactors,
                           match="^log product needs at least one factor$"):
            log_product([])

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


ONE_FACTOR = [P1, P2, P3, A1]


class TestOneFactor:
    """One pair is its own log product: the general build gives the
    factor's cones, no stratum, and its boundary ray as the strict
    transform of factor 0."""

    @pytest.mark.parametrize("pair", ONE_FACTOR, ids=format_pair)
    def test_the_factor_fan(self, pair):
        space = log_product([pair])
        own = pair.toric_fan(0)
        [(boundary, _)] = own.labels
        assert space.fan.cones == own.cones
        assert space.stratum_ray == ()
        assert space.fan.labels == (
            (boundary, DivisorLabel(STRICT_TRANSFORM, 0)),)
        assert space.strict_transforms == ((0, boundary),)
        assert _cone_count([own]) == len(space.fan.cones)

    @pytest.mark.parametrize("pair", ONE_FACTOR, ids=format_pair)
    def test_checks_pass(self, pair):
        fan = log_product([pair]).fan
        assert fans.check_face_closure(fan)
        assert all(is_smooth(c, fan.rank) for c in fan.cones)
        assert order_independence_check([pair], [], [])

    @pytest.mark.parametrize("pair", ONE_FACTOR, ids=format_pair)
    def test_projection_onto_the_factor(self, pair):
        for big, keep in ((log_product([pair]), 0),
                          (log_product([P1, pair]), 1)):
            small, mat = projection(big, [keep])
            assert small == log_product([pair])
            assert induces_fan_map(big.fan, small.fan, mat)


# log products whose projections to two or more factors are checked
PROJECTED = [("P1:pt",) * 3, ("A1:0",) * 3, ("P2:H",) * 3,
             ("P1:pt", "P2:H", "C0:pt"), ("A1:0",) * 4]


def proper_projections(texts):
    """The log product of the pairs `texts` and its projections to each
    proper subset of two or more factors, keyed by the kept factors."""
    big = log_product([parse_pair(p) for p in texts])
    n = len(texts)
    return big, {keep: projection(big, keep) for size in range(2, n)
                 for keep in combinations(range(n), size)}


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
        assert small == log_product([P2])
        assert small.fan.cones == P2.toric_fan(0).cones
        assert small.fan.labels == (
            ((1, 0), DivisorLabel(STRICT_TRANSFORM, 0)),)
        assert small.strict_transforms == ((0, (1, 0)),)
        assert induces_fan_map(big.fan, small.fan, mat)

    def test_empty_keep(self):
        with pytest.raises(EmptyProjection):
            projection_matrix([P1, P1], [])
        with pytest.raises(EmptyProjection):
            projection(log_product([P1, P1]), [])

    def test_factor_index_out_of_range(self):
        space = log_product([parse_pair("P1:pt"), parse_pair("P2:H")])
        for keep in ([-1, 1], [2]):
            with pytest.raises(ValueError, match=r"not in 0\.\.1$"):
                projection(space, keep)
        with pytest.raises(ValueError, match=r"^factor index 5 is not in"):
            strict_transform_rays(space, 5)

    @pytest.mark.parametrize("pairs", PROJECTED, ids=",".join)
    def test_every_projection_is_a_fan_map(self, pairs):
        big, maps = proper_projections(pairs)
        assert len(maps) == {3: 3, 4: 10}[len(pairs)]
        for keep, (small, mat) in maps.items():
            assert induces_fan_map(big.fan, small.fan, mat), keep

    @pytest.mark.parametrize("pairs", PROJECTED, ids=",".join)
    def test_projections_make_no_solve(self, pairs, monkeypatch):
        """A projection sends each ray of a log product to 0 or to a
        ray of the smaller one, so the target's ray sets settle every
        cone."""
        def no_solve(columns, point):
            raise AssertionError(f"a solve for {point}")
        big, maps = proper_projections(pairs)
        monkeypatch.setattr(fans, "solve_nonnegative", no_solve)
        for keep, (small, mat) in maps.items():
            assert induces_fan_map(big.fan, small.fan, mat), keep


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
        with pytest.raises(ValueError, match="unknown pair kind 'X'"):
            LogPair("X")
        with pytest.raises(ValueError, match="genus must be nonnegative"):
            LogPair("Cg:pt", -1)

    def test_three_spellings_are_one_pair(self):
        spellings = [LogPair("P1:pt"), LogPair("Pn:H", 1), LogPair("Cg:pt"),
                     parse_pair("P1:H"), parse_pair("C0:pt")]
        assert all(p == P1 and hash(p) == hash(P1) for p in spellings)
        assert {repr(p) for p in spellings} == {
            "LogPair(kind='P1:pt', param=0)"}
        assert {format_pair(p) for p in spellings} == {"P1:pt"}
        # and so is every slot the pair model sets
        slots = LogPair.__slots__
        assert {tuple(getattr(p, n) for n in slots)
                for p in spellings} == {
            ("P1:pt", 0, 1, ("Pn", 1), ((-1, 1),), "Pn", True)}

    @pytest.mark.parametrize("kind", ["P1:pt", "A1:0"])
    @pytest.mark.parametrize("param", [3, -1])
    def test_a_kind_without_a_parameter_refuses_one(self, kind, param):
        # the pair would print, model and build its fan as LogPair(kind)
        # yet compare unequal to it
        with pytest.raises(ValueError, match=f"^{kind} takes no parameter$"):
            LogPair(kind, param)
        assert LogPair(kind, 0) == LogPair(kind)


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


def walk_order(rng, n):
    """A random blow-up order on the subsets of size >= 2 of range(n): each
    step picks one of the sets that keep the prefix a building set (two
    overlapping, incomparable members need their union earlier).  Shuffling
    and rejecting almost never gives a valid order at n = 5."""
    remaining, order = building_set(n), []
    while remaining:
        legal = [s for s in remaining
                 if all(not a & s or a <= s or s <= a or a | s in order
                        for a in order)]
        pick = rng.choice(legal)
        remaining.remove(pick)
        order.append(pick)
    return order


def _pairs(text):
    return [parse_pair(p) for p in text.split(",")]


class TestClosedFormAgainstBlowUp:
    @pytest.mark.parametrize("text", [
        "A1:0,A1:0,A1:0,A1:0,A1:0", "P1:pt,P1:pt,P1:pt,P1:pt,P1:pt",
        "A1:0,P1:pt,P2:H,P1:pt,A1:0"])
    def test_walked_five_factor_orders(self, text):
        rng = random.Random(text)
        for _ in range(3):
            order_a, order_b = walk_order(rng, 5), walk_order(rng, 5)
            assert is_valid_order(order_a, 5) and is_valid_order(order_b, 5)
            assert order_independence_check(_pairs(text), order_a, order_b)

    def test_centres_make_no_elimination(self, monkeypatch):
        """The blow-up centres skip `Cone`'s index computation, and
        each is the cone `Cone(rays)` would build, of index 1."""
        centres = []

        def no_elimination(rows):
            raise AssertionError(f"an elimination on {rows}")

        def subdivide(fan, center):
            centres.append(center)
            return star_subdivide(fan, center)
        pairs = _pairs("A1:0,P1:pt,P2:H,P1:pt")
        orders = walk_order(random.Random(4), 4), building_set(4)
        with monkeypatch.context() as patch:
            patch.setattr(fans, "lattice_index", no_elimination)
            patch.setattr(fans, "star_subdivide", subdivide)
            assert order_independence_check(pairs, *orders)
        assert len(centres) == 2 * len(building_set(4))
        for center in centres:
            checked = Cone(center.rays)
            assert checked == center and checked.det == center.det == 1

    @pytest.mark.parametrize("text", ["P1:pt,P1:pt,P1:pt",
                                      "A1:0,P1:pt,P2:H,P1:pt"])
    def test_exceptional_label_is_index_in_order(self, text):
        pairs = _pairs(text)
        n = len(pairs)
        rng = random.Random(n)
        for order in (building_set(n), walk_order(rng, n),
                      walk_order(rng, n)):
            space = log_product(pairs, order)
            labels = dict(space.fan.labels)
            strata = dict(space.stratum_ray)
            boundary = dict(space.strict_transforms)
            assert len(strata) == len(order)
            for step, s in enumerate(order):
                assert labels[strata[s]] == DivisorLabel(EXCEPTIONAL, step)
                assert strata[s] == tuple(map(sum, zip(*(boundary[i]
                                                         for i in s))))
            for i, ray in boundary.items():
                assert labels[ray] == DivisorLabel(STRICT_TRANSFORM, i)
            assert len(labels) == len(order) + n
            assert space.fan.cones == log_product(pairs).fan.cones

    def test_cli_order_numbers_the_exceptional_labels(self, capsys):
        text = "1,2;1,2,3;1,3;2,3"
        assert main(["logproduct", "--pairs", "P1:pt,P1:pt,P1:pt",
                     "--order", text, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for step, group in enumerate(text.split(";")):
            index = data["rays"].index(data["stratum_ray"][group])
            assert data["labels"][str(index)] == {"kind": EXCEPTIONAL,
                                                  "arg": step}

    @pytest.mark.parametrize("edit", [
        lambda cone: (),
        lambda cone: (Cone(tuple(tuple(-x for x in r) for r in cone.rays)),),
    ], ids=["dropped", "negated"])
    def test_check_catches_an_edited_cone(self, monkeypatch, edit):
        pairs, order = [A1] * 3, building_set(3)
        assert order_independence_check(pairs, order, order)
        real = logproduct.log_product

        def edited(pairs, order=None):
            space = real(pairs, order)
            fan = space.fan
            cones = edit(fan.cones[0]) + fan.cones[1:]
            return LogProductSpace(space.factors,
                                   Fan(fan.rank, cones, fan.labels),
                                   space.stratum_ray, space.strict_transforms)

        monkeypatch.setattr(logproduct, "log_product", edited)
        assert not order_independence_check(pairs, order, order)

    def test_check_validates_both_orders(self):
        bad = [{0, 1}, {0, 2}, {0, 1, 2}, {1, 2}]
        for orders in ((building_set(3), bad), (bad, building_set(3))):
            with pytest.raises(NotABuildingSetOrder):
                order_independence_check([P1] * 3, *orders)

    def test_build_runs_no_subdivision(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("star_subdivide called")

        monkeypatch.setattr(fans, "star_subdivide", refuse)
        order = walk_order(random.Random(4), 4)
        assert len(log_product([A1] * 4).fan.cones) == 24
        assert len(log_product([A1] * 4, order).fan.cones) == 24


class TestConeCap:
    @pytest.mark.parametrize("text", [
        "A1:0,A1:0", "P1:pt,P1:pt", "P2:H,P2:H,P2:H", "P1:pt,P3:H",
        "A1:0,P1:pt,P2:H,P1:pt", "P1:pt,P1:pt,P1:pt,P1:pt,P1:pt"])
    def test_count_matches_build(self, text):
        pairs = _pairs(text)
        count = _cone_count([p.toric_fan(i) for i, p in enumerate(pairs)])
        assert count == len(log_product(pairs).fan.cones)

    def test_closed_values(self):
        assert _cone_count([P2.toric_fan(i) for i in range(3)]) == \
            1 + 6 + 24 + 48
        for n in range(2, 10):
            assert _cone_count([A1.toric_fan(i) for i in range(n)]) == \
                factorial(n)
        assert factorial(8) <= MAX_CONES < factorial(9)

    def test_refused_before_the_product_fan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("product_fan called")

        monkeypatch.setattr(fans, "product_fan", refuse)
        with pytest.raises(TooManyCones, match="362880"):
            log_product([A1] * 9)
        with pytest.raises(TooManyCones):
            order_independence_check([A1] * 9, building_set(9),
                                     building_set(9))

    def test_cli_refuses_a1_ninth_power_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["logproduct", "--pairs", ",".join(["A1:0"] * 9)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err.startswith("error: TooManyCones: ")
        assert out.err.count("\n") == 1
        assert elapsed < 1.0


class TestRankCap:
    HUGE = LogPair("Pn:H", 10 ** 9)

    def test_refused_before_any_cone(self, monkeypatch):
        def refuse(self, rays):
            raise AssertionError("a cone was built")

        monkeypatch.setattr(Cone, "__init__", refuse)
        with pytest.raises(DimensionTooLarge, match="rank 1000000000 "):
            self.HUGE.toric_fan()
        with pytest.raises(DimensionTooLarge, match="rank 1000000001 "):
            log_product([self.HUGE, P1])
        with pytest.raises(DimensionTooLarge):
            order_independence_check([self.HUGE, P1], building_set(2),
                                     building_set(2))

    def test_cap_is_inclusive(self):
        top = LogPair("Pn:H", MAX_RANK)
        assert top.toric_fan().rank == MAX_RANK
        assert log_product([LogPair("Pn:H", MAX_RANK - 1), P1]).fan.rank \
            == MAX_RANK
        with pytest.raises(DimensionTooLarge):
            LogPair("Pn:H", MAX_RANK + 1).toric_fan()
        with pytest.raises(DimensionTooLarge):
            log_product([top, P1])

    @pytest.mark.parametrize("argv", [
        ("logproduct", "--pairs", "P1000000000:H,P1:pt"),
        ("fan", "dump", "--pairs", "P1000000000:H")])
    def test_cli_refuses_at_once(self, capsys, argv):
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err.startswith("error: DimensionTooLarge: ")
        assert out.err.count("\n") == 1
        assert elapsed < 1.0


# The log products that `PINNED_STDOUT` in test_cli.py prints or checks, as
# (pairs, --order or None)
PINNED_PRODUCTS = [
    ("A1:0,P1:pt,P2:H,P1:pt", None),
    ("P1:pt,P1:pt,P1:pt", "1,2;1,2,3;1,3;2,3"),
    ("A1:0,A1:0,A1:0,A1:0", None),
    ("P2:H,P2:H,P1:pt", None),
    ("P1:pt,P1:pt", None),
    ("P2:H", None),
    ("P1:pt", None),
]


def pinned_space(text, order):
    pairs = _pairs(text)
    return log_product(pairs, order and parse_order(order, len(pairs)))


def _vector_sum(a, b):
    return tuple(x + y for x, y in zip(a, b))


def assert_matches_public_path(space):
    """Every cone equals the validating `Cone` on its rays, determinant
    included, the validating `Fan` accepts the cones and labels, and each
    stratum ray is the sum of its boundary rays."""
    fan = space.fan
    assert Fan(fan.rank, fan.cones, fan.labels) == fan
    for cone in space.fan.cones:
        public = Cone(cone.rays)
        assert (cone.rays, cone.det) == (public.rays, public.det)
        assert cone.det == 1
    boundary = dict(space.strict_transforms)
    for stratum, ray in space.stratum_ray:
        assert ray == reduce(_vector_sum, (boundary[i] for i in stratum))


class TestKnownValidCones:
    """`log_product` builds its fan through `Fan._built`, which runs no
    check; these tests hold it to the validating `Cone` and `Fan`.  The
    other builders that use it are held to those in
    tests/test_fans.py::TestClosedFormIndices."""

    @pytest.mark.parametrize("text,order", PINNED_PRODUCTS)
    def test_pinned_products(self, text, order):
        assert_matches_public_path(pinned_space(text, order))

    @pytest.mark.parametrize("text", [",".join(["A1:0"] * 6),
                                      ",".join(["P1:pt"] * 6)])
    def test_sixth_powers(self, text):
        assert_matches_public_path(log_product(_pairs(text)))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["A1:0", "P1:pt", "C0:pt", "P2:H",
                                     "P3:H"]), min_size=2, max_size=5))
    def test_sampled_products(self, texts):
        pairs = [parse_pair(t) for t in texts]
        assume(sum(p.dim for p in pairs) <= MAX_RANK)
        assert_matches_public_path(log_product(pairs))

    def test_fan_loads_still_validates(self):
        det2 = fan_loads(json.dumps({"rank": 3, "rays": [[1, 0, 0],
                                     [0, 1, 0], [1, 1, 2]],
                                     "cones": [[0, 1, 2]]}))
        [cone] = det2.cones
        assert cone.det == 2 and not is_smooth(cone, 3)
        with pytest.raises(InvalidCone, match="linearly dependent"):
            fan_loads(json.dumps({"rank": 2, "rays": [[1, 0], [-1, 0]],
                                  "cones": [[0, 1]]}))

    def test_only_closed_form_builders_call_it(self):
        """The uses of `_built`, the one private route in, sit in the
        builders that make fans from fans they hold, by closed forms:
        `toric_fan`, `product_fan`, `log_product`, `star_subdivide` and
        the blow-up centres of `order_independence_check`; and in
        `fan_from_json`, which reads user input and validates every cone
        itself.  `star_subdivide` and `fan_from_json` run `Fan._check` on
        what it returns."""
        uses = []
        src = Path(logproduct.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            stack = [(tree, None)]
            while stack:
                node, function = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    function = node.name
                if ((isinstance(node, ast.Attribute)
                     and node.attr == "_built")
                        or (isinstance(node, ast.Constant)
                            and node.value == "_built")):
                    uses.append((path.name, function))
                stack.extend((child, function)
                             for child in ast.iter_child_nodes(node))
        assert sorted(uses) == sorted(
            [("fans.py", "product_fan"), ("fans.py", "star_subdivide"),
             ("fans.py", "fan_from_json"), ("logproduct.py", "toric_fan"),
             ("logproduct.py", "log_product"),
             ("logproduct.py", "order_independence_check")])


class TestLabelsOnHeldRays:
    def test_every_builder_labels_only_held_rays(self):
        factors = [p.toric_fan(i) for i, p in enumerate(
            _pairs("A1:0,P1:pt,P2:H,C0:pt,P3:H"))]
        fans_built = list(factors)
        fans_built += [product_fan(f, g, 1) for f in factors for g in factors]
        fans_built.append(product_fan(Fan(0, ()), factors[1]))
        product = reduce(product_fan, factors[:3], Fan(0, (Cone(()),)))
        fans_built.append(star_subdivide(product, product.cones[0]))
        fans_built += [pinned_space(*p).fan for p in PINNED_PRODUCTS]
        fans_built.append(log_product([A1] * 5).fan)
        for fan in fans_built:
            held = {r for c in fan.cones for r in c.rays}
            assert {ray for ray, _ in fan.labels} <= held
            assert len({ray for ray, _ in fan.labels}) == len(fan.labels)
            # `log_product` skips the checks of `Fan(...)`; they pass
            assert Fan(fan.rank, fan.cones, fan.labels) == fan
            assert fan_loads(fan_dumps(fan)) == fan

    @pytest.mark.parametrize("text,order", PINNED_PRODUCTS)
    def test_pinned_products_round_trip(self, text, order):
        fan = pinned_space(text, order).fan
        assert fan.labels
        assert fan_loads(fan_dumps(fan)) == fan
