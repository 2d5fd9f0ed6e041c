from collections import Counter
from itertools import combinations
from math import comb
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfan.cohomology import SplitBundle, Summand, exterior_algebra
from logfan.errors import (DimensionTooLarge, FormalityUnavailable,
                           LogfanError, NoToricModel, ResultTooLarge,
                           UnsupportedComposition, UnsupportedHHShape)
from logfan.hkr import hkr_homology
from logfan.kernels import (Atom, DIAG, GRAPH, TGRAPH, KernelExpr,
                            _bundle_text, _require_scalar, _signed_sum,
                            adjoint_exchange_check, bicategory_law_check,
                            chern_log, compose,
                            diag_kernel, euler_pairing, excess_intersection,
                            format_kernel, graph_kernel, hh_action,
                            involution_check, left_adjoint, parse_kernel,
                            right_adjoint, transpose)
from logfan import logproduct
from logfan.logproduct import LogPair, parse_pair
from logfan.verify import random_diag, random_supported_pair

P1 = LogPair("P1:pt")
P2 = LogPair("Pn:H", 2)
P3 = LogPair("Pn:H", 3)


class TestNormalForm:
    def test_merge_and_sort(self):
        a = diag_kernel(P1, 1, 0) + diag_kernel(P1, 0, 0) \
            + diag_kernel(P1, 1, 0)
        assert a.terms == ((Atom(DIAG, 0, 0, 0), 1),
                           (Atom(DIAG, 0, 1, 0), 2))

    def test_zero_multiplicity_dropped(self):
        e = KernelExpr(P1, P1, ((Atom(DIAG, 0, 0, 0), 0),))
        assert e.terms == ()

    def test_diag_needs_matching_pairs(self):
        with pytest.raises(ValueError):
            KernelExpr(P1, P2, ((Atom(DIAG, 0, 0, 0), 1),))

    def test_graph_needs_curve_source(self):
        with pytest.raises(ValueError):
            KernelExpr(P2, P2, ((Atom(GRAPH, 1, 0, 0), 1),))

    @pytest.mark.parametrize("text", ["P1:pt", "P2:H", "P5:H", "C0:pt"])
    def test_graph_far_ends_accepted(self, text):
        g = graph_kernel(P1, parse_pair(text), 1)
        assert transpose(g).target == P1

    @pytest.mark.parametrize("text", ["P1:H", "C0:pt"])
    def test_compose_across_spellings(self, text):
        # P1:H and C0:pt spell P1:pt: one middle pair, one graph source
        pair = parse_pair(text)
        g = graph_kernel(P1, P2, 1, 2, 1)
        assert compose(diag_kernel(pair), g) == g
        assert graph_kernel(pair, P2, 1, 2, 1) == g
        assert compose(transpose(g), diag_kernel(pair, 1)) == \
            compose(transpose(g), diag_kernel(P1, 1))

    @pytest.mark.parametrize("text", ["C1:pt", "C3:pt", "A1:0"])
    def test_graph_into_an_unmodelled_pair_refused(self, text):
        # `_right_atom` reads only the target's dimension, so a graph into
        # these pairs would get the P1:pt adjoint
        pair = parse_pair(text)
        match = f"P1:pt into P<m>:H, P1:pt or C0:pt, not {text}$"
        for kind, source, target in ((GRAPH, P1, pair), (TGRAPH, pair, P1)):
            with pytest.raises(ValueError, match=match):
                KernelExpr(source, target, ((Atom(kind, 1, -3, 1), 1),))

    def test_unknown_atom_kind_refused(self):
        with pytest.raises(ValueError, match="unknown atom kind 'nope'"):
            KernelExpr(P1, P1, ((Atom("nope", 0, 0, 0), 1),))

    def test_sum_needs_matching_pairs(self):
        with pytest.raises(ValueError, match="matching pairs"):
            diag_kernel(P1) + diag_kernel(P2)


class TestAdjoints:
    def test_right_adjoint_of_transversal_graph(self):
        gf = graph_kernel(P1, P2, 1)
        assert format_kernel(right_adjoint(gf)) == \
            "t(graph(deg=1,O(1),-1))"

    def test_right_adjoint_of_identity_diag(self):
        d = diag_kernel(P1)
        assert right_adjoint(d) == d

    def test_diag_adjoint_dualizes(self):
        d = diag_kernel(P2, 3, -2)
        assert right_adjoint(d) == diag_kernel(P2, -3, 2)
        assert left_adjoint(d) == diag_kernel(P2, -3, 2)

    def test_involution(self):
        for expr in (graph_kernel(P1, P3, 1, 2, -1), diag_kernel(P2, 5, 3),
                     transpose(graph_kernel(P1, P2, 2, 0, 1))):
            assert involution_check(expr)

    def test_exchange_identity(self):
        for expr in (graph_kernel(P1, P2, 1), diag_kernel(P2, 3, 1),
                     transpose(graph_kernel(P1, P3, 1, -2, 2)),
                     graph_kernel(P1, P1, 1)):
            assert adjoint_exchange_check(expr)


class TestCompose:
    def test_diag_unit(self):
        d = diag_kernel(P2, 4, -1)
        assert compose(diag_kernel(P2), d) == d
        assert compose(d, diag_kernel(P2)) == d

    def test_diag_diag_adds(self):
        a = diag_kernel(P1, 1, 2)
        b = diag_kernel(P1, 3, -1)
        assert compose(a, b) == diag_kernel(P1, 4, 1)

    def test_diag_then_graph(self):
        assert compose(diag_kernel(P1, 2, 1), graph_kernel(P1, P2, 1)) \
            == graph_kernel(P1, P2, 1, 2, 1)

    def test_graph_then_diag_pulls_back_twist(self):
        g3 = graph_kernel(P1, P2, 3)
        assert compose(g3, diag_kernel(P2, 2, 0)) \
            == graph_kernel(P1, P2, 3, 6, 0)

    def test_graph_then_adjoint_transpose_excess(self):
        gf = graph_kernel(P1, P2, 1)
        out = compose(gf, right_adjoint(gf))
        assert format_kernel(out) == "diag(O,0)+diag(O(1),-1)"

    def test_mismatched_middle_pair(self):
        with pytest.raises(UnsupportedComposition):
            compose(graph_kernel(P1, P2, 1), diag_kernel(P3))

    def test_mismatched_middle_pair_is_named_in_one_short_line(self):
        # the curve's name has 4,304 characters and is cut
        curve = LogPair("Cg:pt", int("9" * 4300))
        with pytest.raises(UnsupportedComposition) as exc:
            compose(transpose(graph_kernel(P1, P2, 1)), diag_kernel(curve))
        message = str(exc.value)
        assert message.startswith("cannot compose: middle pairs P1:pt and "
                                  "C999")
        assert message.endswith("... (4304 characters) differ")
        assert len(message) < 300

    def test_transpose_then_graph_unsupported(self):
        tg = transpose(graph_kernel(P1, P2, 1))
        with pytest.raises(UnsupportedComposition):
            compose(tg, graph_kernel(P1, P2, 1))

    def test_different_degrees_unsupported(self):
        g1 = graph_kernel(P1, P2, 1)
        g2 = graph_kernel(P1, P2, 2)
        with pytest.raises(UnsupportedComposition):
            compose(g1, transpose(g2))

    def test_degree_two_formality_unavailable(self):
        g2 = graph_kernel(P1, P2, 2)
        with pytest.raises(FormalityUnavailable):
            compose(g2, transpose(g2))

    def test_raising_composition_leaves_the_trace(self):
        # the first atom pair takes the excess route, a later one raises
        g = graph_kernel(P1, P2, 1) + graph_kernel(P1, P2, 2)
        trace = []
        with pytest.raises(UnsupportedComposition):
            compose(g, transpose(g), trace)
        assert trace == []
        gf = graph_kernel(P1, P2, 1)
        compose(gf, transpose(gf), trace)
        assert trace == ["excess: O(1)", "sym: O + O(-1)[1]"]


class TestExcess:
    def test_p2_transversal(self):
        assert excess_intersection(1, 2) == SplitBundle.line(1)

    def test_p3_transversal(self):
        assert excess_intersection(1, 3) == SplitBundle.line(1, 0, 2)

    def test_p1_target_has_no_excess(self):
        assert excess_intersection(1, 1) == SplitBundle(())

    def test_copies_are_one_term(self):
        assert excess_intersection(1, 10 ** 9).terms == \
            ((Summand(1), 10 ** 9 - 1),)

    def test_degree_two_does_not_split(self):
        with pytest.raises(FormalityUnavailable, match=(
                r"^tangent sub-bundle 2\*O\(1\) \+ O\(2\) does not split "
                r"off O\(1\) \+ 3\*O\(2\); no formality route$")):
            excess_intersection(2, 2)

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_closed_form_is_the_splitting_count(self, degree):
        """The sub-bundle O(2) + 2*O(1) splits off O(2) + O(1) + m*O(d)
        exactly when each summand's count there is at least its count in
        the sub-bundle; the excess is the difference of the counts."""
        sub = Counter({Summand(2): 1, Summand(1): 2})
        for m in range(1, 12):
            ambient = Counter({Summand(2): 1, Summand(1): 1})
            ambient[Summand(degree)] += m
            if ambient >= sub:
                assert excess_intersection(degree, m) == \
                    SplitBundle(tuple((ambient - sub).items()))
            else:
                with pytest.raises(FormalityUnavailable) as info:
                    excess_intersection(degree, m)
                assert str(info.value) == (
                    f"tangent sub-bundle 2*O(1) + O(2) does not split off "
                    f"{_bundle_text(ambient.items())}; no formality route")

    def test_sym_rank_one(self):
        assert exterior_algebra(SplitBundle.line(1).dual()) == \
            SplitBundle.line(0) + SplitBundle.line(-1, 1)

    def test_sym_rank_two(self):
        assert exterior_algebra(SplitBundle.line(1, 0, 2).dual()) == \
            SplitBundle(((Summand(-2, 2), 1), (Summand(-1, 1), 2),
                         Summand(0, 0)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 4), st.integers(1, 3)),
                    max_size=5))
    def test_sym_matches_subset_enumeration(self, terms):
        """O(-D)[q] once per q-element subset of the degrees with sum D;
        the degrees repeat twists, and each comes with a multiplicity."""
        degrees = [d for d, m in terms for _ in range(m)]
        counts = {}
        for q in range(len(degrees) + 1):
            for subset in combinations(degrees, q):
                key = Summand(-sum(subset), q)
                counts[key] = counts.get(key, 0) + 1
        excess = SplitBundle(tuple((Summand(d), m) for d, m in terms))
        assert exterior_algebra(excess.dual()) == \
            SplitBundle(tuple(counts.items()))

    def test_shifted_summand_refused(self):
        with pytest.raises(ValueError, match="unshifted"):
            exterior_algebra(SplitBundle.line(1) + SplitBundle.line(0, 1))

    def test_rank_cap(self):
        top = exterior_algebra(SplitBundle.line(-1, 0, 1000))
        assert len(top.terms) == 1001
        for rank in (1001, 10 ** 9):
            with pytest.raises(DimensionTooLarge, match=f"rank {rank} "):
                exterior_algebra(SplitBundle.line(1, 0, rank))
        with pytest.raises(DimensionTooLarge):
            exterior_algebra(SplitBundle.line(1, 0, 600)
                             + SplitBundle.line(2, 0, 401))


class TestHHAction:
    def test_identity_acts_as_one(self):
        assert hh_action(diag_kernel(P1), 1) == 1

    def test_shift_sign(self):
        assert hh_action(diag_kernel(P1, 9, 1), 1) == -1

    def test_beta_scales(self):
        assert hh_action(diag_kernel(P1, 0, 2), 5) == 5

    def test_rich_pair_rejected(self):
        curve = LogPair("Cg:pt", 2)
        with pytest.raises(UnsupportedHHShape):
            hh_action(diag_kernel(curve), 1)

    def test_graph_kernel_rejected(self):
        with pytest.raises(UnsupportedHHShape):
            hh_action(graph_kernel(P1, P2, 1), 1)

    def test_raising_chain_leaves_the_trace(self):
        # the counit line prints a count past Python's digit limit
        trace = ["kept"]
        with pytest.raises(ResultTooLarge):
            hh_action(diag_kernel(P1, 0, 0, 10 ** 4400), 1, trace)
        assert trace == ["kept"]


class TestChern:
    def test_normalized(self):
        assert chern_log(diag_kernel(P1)) == 1

    def test_additive_example(self):
        expr = diag_kernel(P1) + diag_kernel(P1, 5, 1)
        assert chern_log(expr) == 0

    def test_expansion_identity_graph(self):
        assert chern_log(graph_kernel(P1, P1, 1)) == 1

    def test_expansion_shift(self):
        assert chern_log(graph_kernel(P1, P2, 1, shift=1)) == -1

    def test_expansion_additive(self):
        gf = graph_kernel(P1, P2, 1)
        assert chern_log(gf + gf) == 2

    def test_expansion_rejects_transpose(self):
        trace = []
        with pytest.raises(UnsupportedHHShape,
                           match="transposed graphs have no supported"):
            chern_log(transpose(graph_kernel(P1, P2, 1)), trace)
        assert trace == []

    def test_the_kernel_picks_the_chain(self):
        # a diagonal endo-kernel runs hh_action on the unit, any other
        # kernel the additivity chain, whichever pairs it is between
        for expr, first in [
                (diag_kernel(P2, 3, 1), "unit: 1 in HH_0 of P2:H"),
                (KernelExpr(P1, P1, ()), "unit: 1 in HH_0 of P1:pt"),
                (graph_kernel(P1, P1, 1), "additivity: 1 -> 1"),
                (KernelExpr(P1, P2, ()), "additivity: 0 -> 0")]:
            trace, hh_trace = [], []
            chern_log(expr, trace)
            assert trace[0] == first
            if first.startswith("unit"):
                hh_action(expr, 1, hh_trace)
                assert trace == hh_trace


class TestEulerPairing:
    def test_identity_pushforward(self):
        gid = graph_kernel(P1, P1, 1)
        assert euler_pairing(gid, gid) == 1

    def test_diag_normalization(self):
        assert euler_pairing(diag_kernel(P1), diag_kernel(P1)) == 1
        assert euler_pairing(diag_kernel(P2), diag_kernel(P2)) == 1

    def test_transversal_graph_vanishes(self):
        gf = graph_kernel(P1, P2, 1)
        assert euler_pairing(gf, gf) == 0

    def test_trace_steps(self):
        gf = graph_kernel(P1, P2, 1)
        trace = []
        euler_pairing(gf, gf, trace)
        text = "\n".join(trace)
        assert "t(graph(deg=1,O(1),-1))" in text
        assert "excess: O(1)" in text
        assert "sym: O + O(-1)[1]" in text
        assert "-1 + 1" in text

    def test_shifted_diag(self):
        assert euler_pairing(diag_kernel(P1), diag_kernel(P1, 0, 1)) == -1

    @pytest.mark.parametrize("text,error", [("C1:pt", UnsupportedHHShape),
                                            ("A1:0", NoToricModel)])
    def test_outside_scalar_regime_refused(self, text, error):
        pair = parse_pair(text)
        trace = []
        with pytest.raises(error):
            euler_pairing(diag_kernel(pair), diag_kernel(pair), trace)
        assert trace == []
        # no graph atom maps into either pair
        with pytest.raises(ValueError, match=f"not {text}$"):
            graph_kernel(P1, pair, 1)

    def test_raising_chain_leaves_the_trace(self):
        # the adjoint step succeeds, the excess route then raises
        g2 = graph_kernel(P1, P2, 2)
        trace = ["kept"]
        with pytest.raises(FormalityUnavailable):
            euler_pairing(g2, g2, trace)
        assert trace == ["kept"]

    def test_mismatched_pairs_refused(self):
        trace = []
        with pytest.raises(ValueError, match="matching pairs"):
            euler_pairing(graph_kernel(P1, P2, 1), diag_kernel(P2), trace)
        assert trace == []

    def test_sym_line_prints_each_summand_once(self):
        m = 20
        gf = graph_kernel(P1, LogPair("Pn:H", m), 1)
        trace = []
        euler_pairing(gf, gf, trace)
        terms = []
        for q in range(m):
            summand = "O" if q == 0 else f"O({-q})[{q}]"
            c = comb(m - 1, q)
            terms.append(summand if c == 1 else f"{c}*{summand}")
        assert "sym: " + " + ".join(terms) in trace


class TestGrammar:
    @pytest.mark.parametrize("text,canonical", [
        ("diag(O,0)", "diag(O,0)"),
        ("diag(O(-3),2)", "diag(O(-3),2)"),
        ("graph(deg=1)", "graph(deg=1,O,0)"),  # shorthand form expands
        ("graph(deg=2,O(1),-1)", "graph(deg=2,O(1),-1)"),
        ("t(graph(deg=1,O(1),-1))", "t(graph(deg=1,O(1),-1))"),
        ("diag(O,0)+diag(O(5),1)", "diag(O,0)+diag(O(5),1)"),
        ("0", "0"), (" 0 ", "0")])
    def test_round_trip(self, text, canonical):
        source = P1
        target = P1 if text.startswith("diag") else P2
        if text.startswith("t("):
            expr = parse_kernel(text, P2, P1)
        else:
            expr = parse_kernel(text, source, target)
        assert format_kernel(expr) == canonical
        again = parse_kernel(canonical, expr.source, expr.target)
        assert again == expr

    @pytest.mark.parametrize("source,target", [(P1, P1), (P2, P2),
                                               (P1, P2), (P2, P1)])
    def test_empty_kernel_round_trip(self, source, target):
        empty = KernelExpr(source, target, ())
        assert format_kernel(empty) == "0"
        assert parse_kernel("0", source, target) == empty

    @pytest.mark.parametrize("text", ["00", "0+diag(O,0)", "2*0", "t(0)"])
    def test_zero_is_only_the_whole_expression(self, text):
        with pytest.raises(ValueError):
            parse_kernel(text, P1, P1)

    def test_whitespace_tolerated(self):
        expr = parse_kernel(" diag(O, 0) + diag(O(5), 1) ", P1, P1)
        assert format_kernel(expr) == "diag(O,0)+diag(O(5),1)"

    def test_bad_atom(self):
        with pytest.raises(ValueError):
            parse_kernel("diag(O)", P1, P1)
        with pytest.raises(ValueError):
            parse_kernel("graph(1)", P1, P2)

    def test_default_graph_twist_shift(self):
        expr = parse_kernel("graph(deg=1)", P1, P2)
        assert expr == graph_kernel(P1, P2, 1)

    def test_multiplicity_prints_once(self):
        expr = KernelExpr(P1, P1, ((Atom(DIAG, 0, 0, 0), 200),
                                   (Atom(DIAG, 0, 4, 1), 3),
                                   (Atom(DIAG, 0, 1, 3), 1)))
        assert format_kernel(expr) == \
            "200*diag(O,0)+diag(O(1),3)+3*diag(O(4),1)"
        assert _signed_sum(expr) == "200*(+1) + 3*(-1) + -1"
        assert parse_kernel("200*diag(O,0)", P1, P1) == \
            parse_kernel("+".join(["diag(O,0)"] * 200), P1, P1)
        assert parse_kernel(" 2 * t(graph(deg=1)) ", P2, P1) == \
            KernelExpr(P2, P1, ((Atom(TGRAPH, 1, 0, 0), 2),))

    @pytest.mark.parametrize("text", [
        "0*diag(O,0)", "-1*diag(O,0)", "*diag(O,0)", "2*3*diag(O,0)",
        "x*diag(O,0)", "t(2*diag(O,0))", "diag(O,0)*2"])
    def test_bad_multiplicity(self, text):
        with pytest.raises(ValueError):
            parse_kernel(text, P1, P1)


# ---------------------------------------------------------------------------
# property suites

@settings(max_examples=80, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_sign_law_twist_independent(twist, shift):
    assert chern_log(diag_kernel(P1, twist, shift)) == (-1) ** shift


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_adjoint_functoriality(rnd):
    e, f = random_supported_pair(rnd)
    assert right_adjoint(compose(e, f)) == \
        compose(right_adjoint(f), right_adjoint(e))
    assert left_adjoint(compose(e, f)) == \
        compose(left_adjoint(f), left_adjoint(e))


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hh_contravariant_functoriality(rnd):
    e = random_diag(rnd, P1)
    f = random_diag(rnd, P1)
    beta = rnd.randint(-4, 4)
    assert hh_action(e, hh_action(f, beta)) == \
        hh_action(compose(e, f), beta)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_bicategory_laws(rnd):
    pair = rnd.choice((P1, P2, P3))
    triple = [random_diag(rnd, pair) for _ in range(3)]
    assert bicategory_law_check(*triple)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_exchange_and_involution(rnd):
    e, f = random_supported_pair(rnd)
    for expr in (e, f):
        assert involution_check(expr)
        assert adjoint_exchange_check(expr)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_chern_is_the_signed_count_unless_a_transposed_graph(rnd):
    kernels = [random_diag(rnd, rnd.choice((P1, P2, P3))),
               *random_supported_pair(rnd)]
    # a t(graph) term fits a kernel that ends at P1:pt
    kernels += [e + transpose(graph_kernel(P1, e.source, 1,
                                           rnd.randint(-6, 6),
                                           rnd.randint(-6, 6)))
                for e in kernels if e.target == P1]
    for expr in kernels:
        if any(a.kind == TGRAPH for a, _ in expr.terms):
            with pytest.raises(UnsupportedHHShape):
                chern_log(expr)
        else:
            assert chern_log(expr) == sum(m * (-1) ** a.shift
                                          for a, m in expr.terms)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_chern_additive(rnd):
    e = random_diag(rnd, P1)
    f = random_diag(rnd, P1)
    assert chern_log(e + f) == chern_log(e) + chern_log(f)


# ---------------------------------------------------------------------------
# the mirrored rules, written out as independent oracles

atoms = st.builds(
    lambda kind, d, t, s: Atom(kind, 0 if kind == DIAG else d, t, s),
    st.sampled_from((DIAG, GRAPH, TGRAPH)), st.integers(1, 3),
    st.integers(-6, 6), st.integers(-6, 6))


# kernels from (P^1, pt) to itself, which admit all three atom kinds
p1_kernels = st.lists(st.tuples(atoms, st.integers(1, 4)),
                      min_size=1, max_size=4).map(
    lambda terms: KernelExpr(P1, P1, tuple(terms)))


def _left_atom_oracle(atom, source):
    """The left adjoint's atom formulas, stated directly."""
    kind, d, twist, shift = atom
    if kind == DIAG:
        return Atom(DIAG, 0, -twist, -shift)
    if kind == GRAPH:
        return Atom(TGRAPH, d, -twist + d - 1, -shift)
    m = source.dim  # TGRAPH: the underlying map goes target -> source
    return Atom(GRAPH, d, -twist + d * (m + 1) - 2, 1 - m - shift)


def _left_adjoint_oracle(expr):
    return KernelExpr(expr.target, expr.source, tuple(
        (_left_atom_oracle(a, expr.source), k) for a, k in expr.terms))


def _mirrored_oracle(a, b):
    """diag then t(graph), and t(graph) then diag, stated directly."""
    if a.kind == DIAG and b.kind == TGRAPH:
        return Atom(TGRAPH, b.degree, b.twist + b.degree * a.twist,
                    b.shift + a.shift)
    assert a.kind == TGRAPH and b.kind == DIAG
    return Atom(TGRAPH, a.degree, a.twist + b.twist, a.shift + b.shift)


def _check_mirrored_pairs(e, f):
    """Each (diag, t(graph)) or (t(graph), diag) atom pair of e then f
    composes as the oracle says; returns how many pairs were checked."""
    checked = 0
    for a, _ in e.terms:
        for b, _ in f.terms:
            if {a.kind, b.kind} != {DIAG, TGRAPH}:
                continue
            got = compose(KernelExpr(e.source, e.target, ((a, 1),)),
                          KernelExpr(f.source, f.target, ((b, 1),)))
            assert got.terms == ((_mirrored_oracle(a, b), 1),)
            checked += 1
    return checked


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_left_adjoint_oracle_supported_pairs(rnd):
    for expr in random_supported_pair(rnd):
        assert left_adjoint(expr) == _left_adjoint_oracle(expr)


@settings(max_examples=80, deadline=None)
@given(p1_kernels)
def test_left_adjoint_oracle_p1(expr):
    assert left_adjoint(expr) == _left_adjoint_oracle(expr)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_mirrored_compose_oracle_supported_pairs(rnd):
    e, f = random_supported_pair(rnd)
    _check_mirrored_pairs(e, f)


@settings(max_examples=80, deadline=None)
@given(p1_kernels, p1_kernels)
def test_mirrored_compose_oracle_p1(e, f):
    _check_mirrored_pairs(e, f)


def test_mirrored_compose_oracle_examples():
    d = KernelExpr(P3, P3, ((Atom(DIAG, 0, 2, -1), 1),))
    tg = transpose(graph_kernel(P1, P3, 2, 5, 3))
    assert _check_mirrored_pairs(d, tg) == 1
    assert _check_mirrored_pairs(tg, diag_kernel(P1, -4, 2)) == 1
    assert compose(d, tg) == transpose(graph_kernel(P1, P3, 2, 9, 2))


def _compose_or_error(e, f):
    try:
        return compose(e, f)
    except LogfanError as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_transpose_reverses_composition(rnd):
    e, f = random_supported_pair(rnd)
    assert transpose(compose(e, f)) == compose(transpose(f), transpose(e))


@settings(max_examples=80, deadline=None)
@given(p1_kernels, p1_kernels)
def test_transpose_reverses_composition_p1(e, f):
    forward = _compose_or_error(e, f)
    mirrored = _compose_or_error(transpose(f), transpose(e))
    if isinstance(forward, KernelExpr):
        assert transpose(forward) == mirrored
    else:
        assert isinstance(mirrored, type) and issubclass(mirrored,
                                                         LogfanError)


@pytest.mark.parametrize("text", [f"P{n}:H" for n in range(1, 41)]
                         + ["P1:pt"] + [f"C{g}:pt" for g in range(7)])
def test_scalar_regime_closed_form(text):
    """The pair's `scalar` slot says whether its HKR table is one class in
    degree 0, and `_require_scalar` raises exactly when it is not."""
    pair = parse_pair(text)
    scalar = hkr_homology(pair) == {0: 1}
    if scalar:
        _require_scalar(P1, pair)
    else:
        with pytest.raises(UnsupportedHHShape) as exc:
            _require_scalar(P1, pair)
        assert str(exc.value) == (f"{text} has log Hochschild homology "
                                  f"beyond degree 0")
    assert pair.scalar == scalar


def test_scalar_regime_negative_control(monkeypatch):
    """A table entry that claims {0: 1} for C1:pt fails the check above
    through the library: `_require_scalar` stops raising."""
    curve = logproduct._MODEL["Cg:pt"]
    monkeypatch.setitem(logproduct._MODEL, "Cg:pt",
                        lambda g: curve(g)[:4] + (g == 1,))
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_scalar_regime_closed_form("C1:pt")
    test_scalar_regime_closed_form("C2:pt")


def test_scalar_regime_refuses_like_hkr():
    pair = parse_pair("A1:0")
    with pytest.raises(NoToricModel) as ours:
        _require_scalar(pair)
    with pytest.raises(NoToricModel) as theirs:
        hkr_homology(pair)
    assert str(ours.value) == str(theirs.value)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(atoms, st.integers(1, 10 ** 6)),
                min_size=1, max_size=5))
def test_multiplicity_round_trip(terms):
    expr = KernelExpr(P1, P1, tuple(terms))
    text = format_kernel(expr)
    assert parse_kernel(text, P1, P1) == expr
    assert len(text) <= len(expr.terms) * 40


# ---------------------------------------------------------------------------
# the kernel grammar, one term at a time

@st.composite
def written_terms(draw):
    """(text, (atom, multiplicity)) of one well-formed term from (P^1, pt)
    to itself: an optional N*, 0-3 t( layers, and a diag or graph atom
    whose twist and shift may be left out where the grammar allows."""
    twist = draw(st.integers(-30, 30))
    shift = draw(st.integers(-30, 30))
    bundle = draw(st.sampled_from(["O", f"O({twist})"] if twist == 0
                                  else [f"O({twist})"]))
    if draw(st.booleans()):
        atom, text = Atom(DIAG, 0, twist, shift), f"diag({bundle},{shift})"
    else:
        degree = draw(st.integers(1, 5))
        if draw(st.booleans()):
            atom = Atom(GRAPH, degree, twist, shift)
            text = f"graph(deg={degree},{bundle},{shift})"
        else:
            atom, text = Atom(GRAPH, degree, 0, 0), f"graph(deg={degree})"
    layers = draw(st.integers(0, 3))
    text = "t(" * layers + text + ")" * layers
    if layers % 2 and atom.kind == GRAPH:
        atom = atom._replace(kind=TGRAPH)
    mult = draw(st.none() | st.integers(1, 10 ** 6))
    if mult is not None:
        text = f"{mult}*{text}"
    return text, (atom, mult or 1)


def _with_spaces(draw, text):
    """`text` with spaces drawn into it; the grammar drops every space."""
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=4)))
    return "".join(text[a:b] + " " for a, b in
                   zip([0] + cuts, cuts + [len(text)]))[:-1]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.lists(written_terms(), min_size=1, max_size=4))
def test_parse_written_terms(data, terms):
    text = "+".join(_with_spaces(data.draw, t) for t, _ in terms)
    assert parse_kernel(text, P1, P1) == \
        KernelExpr(P1, P1, tuple(term for _, term in terms))


@settings(max_examples=150, deadline=None)
@given(st.data(), written_terms())
def test_parse_refuses_malformed_terms(data, term):
    text = term[0]
    atom_start = text.index("*") + 1 if "*" in text else 0
    # a + inside the atom, so neither side is a term
    cut = data.draw(st.integers(atom_start + 1, len(text) - 1))
    # one t( layer more or fewer than the closing parens
    inner = text[atom_start:]
    unbalanced = ["t(" + inner, inner + ")"]
    if inner.startswith("t("):
        unbalanced += [inner[2:], inner[:-1]]
    for bad in [text[:cut] + "+" + text[cut:], *unbalanced,
                f"t(2*{inner})"]:
        with pytest.raises(ValueError):
            parse_kernel(bad, P1, P1)
