from collections import Counter
from math import comb, factorial
from operator import itemgetter
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfan import cohomology, hkr
from logfan.cohomology import (MAX_PN_DIM, MAX_TWIST, Space, SplitBundle,
                               Summand, cohomology_line_curve,
                               cohomology_line_pn, euler_characteristic,
                               exterior_algebra, graded_cohomology,
                               normal_form)
from logfan.errors import AmbiguousDegree, DimensionTooLarge, TwistTooLarge

P1 = Space("Pn", 1)
P2 = Space("Pn", 2)


class TestLinePn:
    def test_positive_twist(self):
        assert cohomology_line_pn(2, 1) == {0: 3}

    def test_vanishing_range(self):
        assert cohomology_line_pn(2, -2) == {}

    def test_top_degree(self):
        assert cohomology_line_pn(1, -2) == {1: 1}

    def test_binomials(self):
        assert cohomology_line_pn(3, 5) == {0: comb(8, 3)}
        assert cohomology_line_pn(3, -6) == {3: comb(5, 3)}


class TestLineCurve:
    def test_negative_degree_genus0(self):
        assert cohomology_line_curve(0, -1) == {}

    def test_positive_degree_genus0(self):
        assert cohomology_line_curve(0, 3) == {0: 4}

    def test_structure_sheaf(self):
        assert cohomology_line_curve(0, 0) == {0: 1}
        assert cohomology_line_curve(2, 0) == {0: 1, 1: 2}

    def test_large_degree(self):
        assert cohomology_line_curve(2, 5) == {0: 4}

    def test_negative_degree(self):
        assert cohomology_line_curve(2, -3) == {1: 4}

    def test_ambiguous_regime(self):
        with pytest.raises(AmbiguousDegree):
            cohomology_line_curve(2, 1)
        # the canonical-degree endpoint is ambiguous too for g >= 2
        with pytest.raises(AmbiguousDegree):
            cohomology_line_curve(2, 2)


class TestGraded:
    def test_sym_model_table(self):
        bundle = SplitBundle.line(0) + SplitBundle.line(-1, 1)
        assert graded_cohomology(P1, bundle) == {0: 1}

    def test_empty_bundle(self):
        assert graded_cohomology(P1, SplitBundle(())) == {}

    def test_vanishing_pair(self):
        assert graded_cohomology(P2, SplitBundle.sum_of([-1, -1])) == {}

    def test_shift_moves_degree(self):
        bundle = SplitBundle.line(-2, 2)  # H^1(O(-2)) lands in degree -1
        assert graded_cohomology(P1, bundle) == {-1: 1}


class TestNormalForm:
    def test_merge_sort_and_drop_zero(self):
        assert normal_form([("b", 2), ("a", 0), ("c", 0), ("b", 3),
                            ("a", 1)]) == (("a", 1), ("b", 5))

    def test_negative_multiplicity_refused(self):
        with pytest.raises(ValueError):
            SplitBundle(((Summand(1), 2), (Summand(1), -1)))

    def test_multiplicity_is_one_term(self):
        bundle = SplitBundle.line(3, 0, 10 ** 30)
        assert bundle.terms == ((Summand(3, 0), 10 ** 30),)
        assert graded_cohomology(P2, bundle) == {0: 10 * 10 ** 30}
        assert euler_characteristic(P2, bundle) == 10 * 10 ** 30

    def test_dual_keeps_multiplicities(self):
        bundle = SplitBundle.line(-2, 1, 4) + SplitBundle.line(3)
        assert bundle.dual() == SplitBundle(
            ((Summand(2, -1), 4), Summand(-3, 0)))


class TestEuler:
    def test_p1_twist3(self):
        assert euler_characteristic(P1, SplitBundle.line(3)) == 4

    def test_curve_riemann_roch(self):
        curve = Space("curve", 2)
        assert euler_characteristic(curve, SplitBundle.line(5)) == 4
        # the ambiguous regime is still fine for chi
        assert euler_characteristic(curve, SplitBundle.line(1)) == 0

    def test_shift_flips_sign(self):
        assert euler_characteristic(P1, SplitBundle.line(1, -1)) == -2

    def test_curve_ambiguous_degrees(self):
        # d - g + 1 for every degree, 1..2g-2 included, where the table
        # itself is refused
        for g in range(1, 6):
            curve = Space("curve", g)
            for d in range(1, 2 * g - 1):
                with pytest.raises(AmbiguousDegree):
                    graded_cohomology(curve, SplitBundle.line(d))
                assert euler_characteristic(
                    curve, SplitBundle.line(d, 1, 3)) == -3 * (d - g + 1)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(cohomology, "cohomology_line_pn", no_table)
        for n in (MAX_PN_DIM + 1, 10 ** 5):
            with pytest.raises(DimensionTooLarge):
                euler_characteristic(Space("Pn", n), SplitBundle.line(1))

    def test_twist_cap(self, monkeypatch):
        monkeypatch.setattr(cohomology, "cohomology_line_pn", no_table)
        for twist in (MAX_TWIST + 1, -MAX_TWIST - 1):
            with pytest.raises(TwistTooLarge):
                euler_characteristic(P2, SplitBundle.line(twist))

    def test_no_graded_table_on_pn(self, monkeypatch):
        def no_graded(*_):
            raise AssertionError("graded_cohomology was called")

        monkeypatch.setattr(cohomology, "graded_cohomology", no_graded)
        # chi(P^2, O(k)) = (k + 1)(k + 2) / 2: 6 + 0 + 1 + 10 - 2 * 10
        bundle = SplitBundle.sum_of([-5, -1, 0, 3]) + SplitBundle.line(3, 1, 2)
        assert euler_characteristic(P2, bundle) == -3

    @pytest.mark.parametrize("space", [P2, Space("curve", 2)],
                             ids=["P2", "C2"])
    def test_one_line_lookup_per_distinct_twist(self, monkeypatch, space):
        chis, tables = [], []
        line_euler, line_pn = Space.line_euler, cohomology.cohomology_line_pn

        def counted_chi(self, twist):
            chis.append(twist)
            return line_euler(self, twist)

        def counted_table(n, k):
            tables.append(k)
            return line_pn(n, k)

        monkeypatch.setattr(Space, "line_euler", counted_chi)
        monkeypatch.setattr(cohomology, "cohomology_line_pn", counted_table)
        bundle = SplitBundle((Summand(-3), Summand(-3, 1), (Summand(5, 2), 4),
                              Summand(5, -1), Summand(0), Summand(5)))
        # -3 and 5 lie outside the ambiguous degrees 1..2 of a genus-2 curve
        expected = sum((-1) ** d * v
                       for d, v in graded_cohomology(space, bundle).items())
        del chis[:], tables[:]
        assert euler_characteristic(space, bundle) == expected
        assert chis == [-3, 0, 5]
        assert tables == ([-3, 0, 5] if space.kind == "Pn" else [])


def no_table(*_):
    raise AssertionError("a cohomology table was started")


def former_chi_pn(n, terms):
    """The former closed form on P^n: chi(O(k)) = prod_{i=1..n} (k + i) /
    n!, signed by the shift and times the multiplicity."""
    total = 0
    for k, shift, mult in terms:
        prod = 1
        for i in range(1, n + 1):
            prod *= k + i
        sign = -1 if shift % 2 else 1
        total += sign * mult * (prod // factorial(n))
    return total


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30),
       st.lists(st.tuples(st.integers(-60, 60), st.integers(-3, 3),
                          st.integers(0, 5)), max_size=6))
def test_chi_matches_former_product_formula(n, terms):
    bundle = SplitBundle(tuple((Summand(k, s), m) for k, s, m in terms))
    assert euler_characteristic(Space("Pn", n), bundle) == \
        former_chi_pn(n, terms)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5),
       st.lists(st.tuples(st.integers(-12, 12), st.integers(-3, 3),
                          st.integers(0, 5)), max_size=6))
def test_curve_chi_matches_graded_table(g, terms):
    # the table is defined away from the ambiguous degrees 1..2g-2
    terms = [(k, s, m) for k, s, m in terms if not 1 <= k <= 2 * g - 2]
    curve = Space("curve", g)
    bundle = SplitBundle(tuple((Summand(k, s), m) for k, s, m in terms))
    assert euler_characteristic(curve, bundle) == sum(
        (-1) ** d * v for d, v in graded_cohomology(curve, bundle).items())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-20, max_value=20))
def test_serre_duality_p1(k):
    a = cohomology_line_pn(1, k)
    b = cohomology_line_pn(1, -2 - k)
    assert a.get(0, 0) == b.get(1, 0)
    assert a.get(1, 0) == b.get(0, 0)


# (twist, shift, multiplicity) terms of a split bundle
TERMS = st.lists(st.tuples(st.integers(-8, 8), st.integers(-3, 3),
                           st.integers(0, 4)), min_size=0, max_size=5)


def _bundle(terms):
    return SplitBundle(tuple((Summand(t, s), m) for t, s, m in terms))


@settings(max_examples=60, deadline=None)
@given(TERMS, TERMS)
def test_chi_additive_over_concatenation(xs, ys):
    a = _bundle(xs)
    b = _bundle(ys)
    assert euler_characteristic(P2, a + b) == \
        euler_characteristic(P2, a) + euler_characteristic(P2, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.integers(-4, 4))
def test_chi_shift_sign_law(twist, shift):
    line = SplitBundle.line(twist)
    shifted = SplitBundle.line(twist, shift)
    assert euler_characteristic(P2, shifted) == \
        (-1) ** shift * euler_characteristic(P2, line)


@settings(max_examples=60, deadline=None)
@given(TERMS)
def test_chi_consistent_with_graded(terms):
    bundle = _bundle(terms)
    flat = tuple(Summand(t, s) for t, s, m in terms for _ in range(m))
    assert SplitBundle(flat) == bundle
    assert [s for s, m in bundle.terms for _ in range(m)] == sorted(flat)
    table = graded_cohomology(P2, bundle)
    assert euler_characteristic(P2, bundle) == \
        sum((-1) ** d * v for d, v in table.items())


def former_terms(raw):
    """SplitBundle's former merge, one Python step per raw term."""
    merged = {}
    for key, mult in ((t, 1) if isinstance(t, Summand) else t for t in raw):
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        if mult:
            merged[key] = merged.get(key, 0) + mult
    return tuple(sorted(merged.items(), key=itemgetter(0)))


def _matches_former_terms(raw, given=tuple):
    """SplitBundle(given(raw)) keeps the terms of `former_terms(raw)`, or
    raises its ValueError."""
    try:
        expected = former_terms(raw)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            SplitBundle(given(raw))
        assert str(caught.value) == str(exc)
        return
    # repr tells the kept key object apart: Summand(True, 0) == (1, 0)
    assert repr(SplitBundle(given(raw)).terms) == repr(expected)


# few keys, so terms collide often; a twist of True equals, and hashes
# like, the distinct object 1
SUMMANDS = st.builds(Summand, st.sampled_from((-1, 0, 1, True)),
                     st.integers(0, 1))


@st.composite
def raw_terms(draw):
    """Bare Summands and (Summand, mult) pairs, zero and negative
    multiplicities included; picks from a small pool repeat the same
    object, and the pool repeats equal but distinct ones."""
    pool = draw(st.lists(SUMMANDS | st.tuples(SUMMANDS, st.integers(-1, 4)),
                         min_size=1, max_size=6))
    return tuple(draw(st.lists(st.sampled_from(pool), max_size=40)))


@settings(max_examples=300, deadline=None)
@given(raw_terms())
def test_constructor_matches_former_merge(raw):
    _matches_former_terms(raw)


def test_million_bare_summands_are_one_term():
    bundle = SplitBundle((Summand(3, 1),) * 10 ** 6)
    assert bundle == SplitBundle.line(3, 1, 10 ** 6)
    assert bundle.terms == ((Summand(3, 1), 10 ** 6),)


@st.composite
def homogeneous_terms(draw):
    """1-1000 copies of one term, a bare Summand or a pair with
    multiplicity -1..4: the inputs counted by `tuple.count`.  A term of
    twist 1 may have one copy of twist True, an equal but distinct key,
    so the kept key object is the first copy's."""
    summand = draw(SUMMANDS)
    mult = draw(st.none() | st.integers(-1, 4))
    copies = draw(st.integers(1, 1000))
    keys = [summand] * copies
    if summand.twist == 1 and draw(st.booleans()):
        twin = Summand(1 if summand.twist is True else True, summand.shift)
        keys[draw(st.integers(0, copies - 1))] = twin
    return tuple(k if mult is None else (k, mult) for k in keys)


@settings(max_examples=300, deadline=None)
@given(homogeneous_terms())
def test_homogeneous_input_matches_former_merge(raw):
    _matches_former_terms(raw)


def test_one_distinct_term_is_not_counted_by_counter(monkeypatch):
    def no_counter(*_):
        raise AssertionError("Counter was called")

    monkeypatch.setattr(cohomology, "Counter", no_counter)
    assert SplitBundle.line(1, 0, 5).terms == ((Summand(1), 5),)
    assert SplitBundle((Summand(3, 1),) * 10 ** 6).terms == \
        ((Summand(3, 1), 10 ** 6),)
    assert SplitBundle(((Summand(2), 2),) * 3).terms == ((Summand(2), 6),)
    assert SplitBundle(()).terms == ()


def test_distinct_bare_summands_match_former_merge():
    rng = random.Random(29)
    cells = [Summand(t, s) for t in range(-40, 40) for s in range(-25, 25)]
    raw = cells + rng.choices(cells, k=1000)
    rng.shuffle(raw)
    # an equal but distinct key object: the first copy seen is kept
    raw.insert(rng.randrange(len(raw)), Summand(True, 3))
    assert len(set(raw)) == 4000
    _matches_former_terms(tuple(raw))


def test_bare_summands_are_not_put_through_normal_form(monkeypatch):
    def no_normal_form(*_):
        raise AssertionError("normal_form was called")

    monkeypatch.setattr(cohomology, "normal_form", no_normal_form)
    raw = (Summand(2, 1), Summand(-1), Summand(2, 1), Summand(0, 3))
    assert SplitBundle(raw).terms == (
        (Summand(-1), 1), (Summand(0, 3), 1), (Summand(2, 1), 2))
    assert SplitBundle.sum_of(range(5, -5, -1)).terms == tuple(
        (Summand(t), 1) for t in range(-4, 6))


def test_bare_and_pair_input_goes_through_normal_form(monkeypatch):
    calls = []

    def counted(pairs):
        calls.append(1)
        return normal_form(pairs)

    monkeypatch.setattr(cohomology, "normal_form", counted)
    assert SplitBundle((Summand(1), (Summand(0), 2), Summand(1))).terms == (
        (Summand(0), 2), (Summand(1), 2))
    with pytest.raises(ValueError, match="nonnegative"):
        SplitBundle(((Summand(0), -1), Summand(1)))
    assert len(calls) == 2


@pytest.mark.parametrize("raw", [
    (Summand(0), Summand(1)),
    (Summand(1), Summand(0), Summand(1)),
    ((Summand(2), 1), (Summand(2), -1)),
    (Summand(True), (Summand(1), 2), Summand(1)),
    (Summand(2, 1),) * 5,
], ids=["two distinct", "first equals last", "negative last",
        "bare and pair", "one term five times"])
def test_tuple_list_and_generator_inputs_match_former_merge(raw):
    for given in (tuple, list, lambda r: (t for t in r)):
        _matches_former_terms(raw, given)


@pytest.mark.parametrize("raw", [
    ([Summand(1), 2],),
    ([Summand(1), 2],) * 3,
    ((Summand(1), [2]),),
    ([Summand(1), 2], (Summand(1), 2)),
], ids=["one list", "one list thrice", "list multiplicity", "two terms"])
def test_unhashable_term_raises_type_error_as_counter_did(raw):
    with pytest.raises(TypeError) as counted:
        Counter(raw)
    with pytest.raises(TypeError) as built:
        SplitBundle(raw)
    assert str(built.value) == str(counted.value)


class TestSpace:
    @pytest.mark.parametrize("kind, param, message", [
        ("Qn", 3, "unknown space kind 'Qn'"),
        ("curve", -2, "a curve needs genus >= 0, not -2"),
        ("Pn", -3, "P^n needs n >= 0, not -3"),
    ])
    def test_refused(self, kind, param, message):
        with pytest.raises(ValueError) as exc:
            Space(kind, param)
        assert str(exc.value) == message

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_unprintable_genus_names_only_the_bound(self):
        with pytest.raises(ValueError) as exc:
            Space("curve", -10 ** 5000)
        assert str(exc.value) == "a curve needs genus >= 0"

    def test_p0_is_a_point(self):
        point = Space("Pn", 0)
        assert graded_cohomology(point, SplitBundle.line(5)) == {0: 1}
        assert graded_cohomology(point, SplitBundle.line(-1)) == {0: 1}
        assert euler_characteristic(point, SplitBundle.line(-7, 1, 3)) == -3


class TestCaps:
    def test_hkr_shares_the_dimension_cap(self):
        assert hkr.MAX_PN_DIM is MAX_PN_DIM
        assert (MAX_PN_DIM, MAX_TWIST) == (1000, 10 ** 6)

    def test_dimension_cap(self):
        top = Space("Pn", MAX_PN_DIM)
        assert graded_cohomology(top, SplitBundle.line(1)) == {0: 1001}
        for bundle in (SplitBundle(()), SplitBundle.line(0)):
            with pytest.raises(DimensionTooLarge, match="P1001 is above"):
                graded_cohomology(Space("Pn", MAX_PN_DIM + 1), bundle)

    def test_twist_cap(self):
        bundle = SplitBundle.sum_of([-MAX_TWIST, 0, MAX_TWIST])
        assert graded_cohomology(P1, bundle) == {0: MAX_TWIST + 2,
                                                 1: MAX_TWIST - 1}
        for twist in (MAX_TWIST + 1, -MAX_TWIST - 1, 10 ** 5000):
            with pytest.raises(TwistTooLarge):
                graded_cohomology(P1, bundle + SplitBundle.line(twist, 1))

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_unprintable_wedge_rank_names_only_the_cap(self):
        # two readable multiplicities whose sum, the rank, is not printable
        nines = int("9" * 4300)
        bundle = SplitBundle(((Summand(0), nines), (Summand(1), nines)))
        with pytest.raises(DimensionTooLarge) as exc:
            exterior_algebra(bundle)
        assert str(exc.value) == ("a bundle's rank is above the cap of "
                                  "rank 1000 for exterior powers")

    def test_curves_are_not_capped(self):
        assert graded_cohomology(Space("curve", 0),
                                 SplitBundle.line(10 ** 7)) == {0: 10 ** 7 + 1}
