from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfan.cohomology import Space, SplitBundle, Summand, \
    euler_characteristic, exterior_algebra
from logfan import hkr, logproduct
from logfan.errors import DimensionTooLarge, NoToricModel, WedgeOutOfRange
from logfan.hkr import (MAX_PN_DIM, hkr_cohomology, hkr_homology,
                        log_cotangent, log_serre, log_wedge,
                        residue_euler_check)
from logfan.logproduct import LogPair, parse_pair

P1 = LogPair("P1:pt")
P2 = LogPair("Pn:H", 2)


class TestLogCotangent:
    def test_p1(self):
        assert log_cotangent(P1).terms == ((Summand(-1), 1),)

    def test_p2_chi_oracle(self):
        # residue-sequence Euler characteristics: chi of the model must be
        # chi(Omega^1 on P^2) + chi(O on the hyperplane) = -1 + 1 = 0
        model = log_cotangent(P2)
        assert model.terms == ((Summand(-1), 2),)
        assert euler_characteristic(Space("Pn", 2), model) == -1 + 1

    def test_curve(self):
        assert log_cotangent(LogPair("Cg:pt", 3)).terms == ((Summand(5), 1),)

    def test_local_model_rejected(self):
        # the one refusal of `_model`, whichever function asks
        for call in (log_cotangent, log_serre, lambda p: log_wedge(p, 0)):
            with pytest.raises(NoToricModel, match="^A1:0 is not projective; "
                               "no cohomology tables$"):
                call(LogPair("A1:0"))


class TestLogWedge:
    def test_top_wedge_p2(self):
        assert log_wedge(P2, 2).terms == ((Summand(-2), 1),)

    def test_wedge_zero(self):
        assert log_wedge(P2, 0).terms == ((Summand(0), 1),)

    def test_p1_wedge_one(self):
        assert log_wedge(P1, 1).terms == ((Summand(-1), 1),)

    def test_binomial_multiplicities(self):
        # Omega^1(log H) = O(-1)^n, so wedge^q is the one term
        # O(-q)^C(n,q)
        for n in range(1, 41):
            pair = LogPair("Pn:H", n)
            for q in range(n + 1):
                assert log_wedge(pair, q) == \
                    SplitBundle.line(-q, 0, comb(n, q))

    def test_curve_wedges(self):
        for g in range(7):
            pair = LogPair("Cg:pt", g)
            assert log_wedge(pair, 0) == SplitBundle.line(0)
            assert log_wedge(pair, 1) == SplitBundle.line(2 * g - 1)

    def test_out_of_range(self):
        with pytest.raises(WedgeOutOfRange):
            log_wedge(P2, 3)
        with pytest.raises(WedgeOutOfRange):
            log_wedge(P2, -1)


class TestHkrHomology:
    def test_p1_scalar(self):
        assert hkr_homology(P1) == {0: 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pn_scalar(self, n):
        assert hkr_homology(LogPair("Pn:H", n)) == {0: 1}

    @pytest.mark.parametrize("g", range(7))
    def test_curve_riemann_roch_oracle(self, g):
        # q=0: H^0(O)=1, H^1(O)=g (degree -1); q=1: H^0(deg 2g-1)=g
        # (degree 1), and H^1(deg 2g-1) = 0
        assert hkr_homology(LogPair("Cg:pt", g)) == (
            {-1: g, 0: 1, 1: g} if g else {0: 1})

    @pytest.mark.parametrize("g", range(7))
    def test_curve_cohomology_riemann_roch_oracle(self, g):
        # q=0: H^0(O)=1, H^1(O)=g (degree 1); q=1: the dual O(1-2g) has
        # h^1 = 3g-2 in degree 2 for g >= 1, and h^0(O(1)) = 2 in degree 1
        # on P^1
        assert hkr_cohomology(LogPair("Cg:pt", g)) == (
            {0: 1, 1: g, 2: 3 * g - 2} if g else {0: 1, 1: 2})

    def test_curve_departs_from_scalar_regime(self):
        # reported as-is: pointed curves of positive genus are richer
        assert hkr_homology(LogPair("Cg:pt", 1)) != {0: 1}

    def test_cohomology_variant_p1(self):
        # q=0: O -> degree 0; q=1: dual O(1) has h^0 = 2 -> degree 1
        assert hkr_cohomology(P1) == {0: 1, 1: 2}

    @pytest.mark.parametrize("n", [*range(1, 41), 50, 200])
    def test_pn_closed_forms(self, n):
        # wedge q of the dual is O(q)^{C(n,q)}, with h^0(O(q)) = C(n+q, n)
        pair = LogPair("Pn:H", n)
        assert hkr_homology(pair) == {0: 1}
        assert hkr_cohomology(pair) == {
            q: comb(n, q) * comb(n + q, n) for q in range(n + 1)}


class TestLogSerre:
    def test_p1(self):
        s = log_serre(P1)
        assert (s.twist, s.shift) == (-1, 1)

    def test_p2(self):
        s = log_serre(P2)
        assert (s.twist, s.shift) == (-2, 2)

    def test_curve(self):
        s = log_serre(LogPair("Cg:pt", 2))
        assert (s.twist, s.shift) == (3, 1)


class TestResidueCheck:
    @pytest.mark.parametrize("n,q", [(n, q) for n in range(1, 5)
                                     for q in range(1, n + 1)])
    def test_all_small_cases(self, n, q):
        lhs, sub, res, ok = residue_euler_check(n, q)
        assert ok
        assert lhs == sub + res

    def test_out_of_range(self):
        with pytest.raises(WedgeOutOfRange):
            residue_euler_check(2, 0)
        with pytest.raises(WedgeOutOfRange):
            residue_euler_check(2, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_wedge_ranks_sum_to_power_of_two(n):
    pair = LogPair("Pn:H", n)
    total = sum(m for q in range(n + 1) for _, m in log_wedge(pair, q).terms)
    assert total == 2 ** n


# the spellings of the modelled pairs: P1:H, P1:pt and C0:pt are one pair,
# so the ids are the texts, not `format_pair` of the values
MODELLED_PAIRS = [*(f"P{n}:H" for n in range(1, 41)), "P1:pt",
                  *(f"C{g}:pt" for g in range(7))]


@pytest.mark.parametrize("text", MODELLED_PAIRS)
def test_closed_forms_match_the_exterior_algebra(text):
    """log_wedge reads each power off the exterior algebra, which builds
    every power; log_serre, the determinant in closed form, is its top
    one."""
    pair = parse_pair(text)
    algebra = exterior_algebra(log_cotangent(pair)).terms
    for q in range(pair.dim + 1):
        assert log_wedge(pair, q) == SplitBundle(tuple(
            (Summand(s.twist), m) for s, m in algebra if s.shift == q))
    assert [(log_serre(pair), 1)] == [
        (s, m) for s, m in algebra if s.shift == pair.dim]


def test_single_powers_build_no_exterior_algebra(monkeypatch):
    """The top power, the log Serre line, is the determinant of the
    terms, in closed form."""
    def no_algebra(*_):
        raise AssertionError("an exterior algebra was built")
    monkeypatch.setattr(hkr, "exterior_algebra", no_algebra)
    assert log_serre(LogPair("Pn:H", 12)) == Summand(-12, 12)
    assert log_serre(LogPair("Cg:pt", 3)) == Summand(5, 1)


class TestTwoTerms:
    """A pair whose log cotangent bundle has two terms, O + O(-1), as
    (P^2, two lines) has: every power comes from the one exterior
    algebra, and the Serre line is the determinant."""

    @pytest.fixture
    def pair(self, monkeypatch):
        monkeypatch.setitem(logproduct._MODEL, "P2:2H", lambda _: (
            2, ("Pn", 2), ((0, 1), (-1, 1)), "Pn", False))
        return LogPair("P2:2H")

    def test_cotangent(self, pair):
        assert log_cotangent(pair) == SplitBundle.sum_of([0, -1])

    def test_wedges(self, pair):
        assert [log_wedge(pair, q) for q in range(3)] == [
            SplitBundle.sum_of([0]), SplitBundle.sum_of([0, -1]),
            SplitBundle.sum_of([-1])]
        with pytest.raises(WedgeOutOfRange, match="outside 0..2$"):
            log_wedge(pair, 3)

    def test_serre(self, pair):
        assert log_serre(pair) == Summand(-1, 2)

    def test_tables(self, pair):
        assert hkr_homology(pair) == {0: 1, 1: 1}
        assert hkr_cohomology(pair) == {0: 1, 1: 4, 2: 3}


@pytest.mark.parametrize("call,spaces", [
    (lambda: hkr_homology(LogPair("Pn:H", 8)), 1),
    (lambda: hkr_cohomology(LogPair("Pn:H", 8)), 1),
    (lambda: hkr_homology(LogPair("Cg:pt", 3)), 1),
    (lambda: log_wedge(P2, 1), 0),
    (lambda: log_serre(P2), 0),
    (lambda: residue_euler_check(8, 3), 1)],
    ids=["homology", "cohomology", "curve", "wedge", "serre", "residue"])
def test_one_space_per_call(call, spaces, monkeypatch):
    """The tables and the residue check build the pair's host once and
    pass it on, whatever else they call; the single powers read the
    pair's model and build none."""
    built = []
    init = Space.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(Space, "__init__", counted)
    call()
    assert len(built) == spaces


class TestDimensionCap:
    def test_cap_value(self):
        assert MAX_PN_DIM == 1000

    @pytest.mark.parametrize("table", [hkr_homology, hkr_cohomology])
    def test_cap_is_inclusive(self, table):
        dims = table(LogPair("Pn:H", MAX_PN_DIM))
        assert sum(dims.values()) > 0

    @pytest.mark.parametrize("table", [hkr_homology, hkr_cohomology])
    def test_refused_before_any_table(self, table, monkeypatch):
        def no_table(*args):
            raise AssertionError("a table was built")
        monkeypatch.setattr(hkr, "graded_cohomology", no_table)
        with pytest.raises(DimensionTooLarge, match="P1001:H"):
            table(LogPair("Pn:H", MAX_PN_DIM + 1))

    def test_other_pairs_uncapped(self):
        assert hkr_homology(LogPair("Cg:pt", 2000))[0] == 1
