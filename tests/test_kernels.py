import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfan.errors import (FormalityUnavailable, LogfanError, NoToricModel,
                           UnsupportedComposition, UnsupportedHHShape)
from logfan.hkr import hkr_homology
from logfan.kernels import (Atom, DIAG, GRAPH, TGRAPH, KernelExpr,
                            _scalar_regime, _signed_sum,
                            adjoint_exchange_check, bicategory_law_check,
                            chern_log, chern_log_expansion, compose,
                            diag_kernel, euler_pairing, excess_intersection,
                            format_kernel, graph_kernel, hh_action,
                            involution_check, left_adjoint, parse_kernel,
                            right_adjoint, sym_decomposition, transpose)
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


class TestExcess:
    def test_p2_transversal(self):
        sub, ambient, splits, excess = excess_intersection(1, 2)
        assert splits
        assert excess == [1]
        assert sorted(sub) == [1, 1, 2]
        assert sorted(ambient) == [1, 1, 1, 2]

    def test_p3_transversal(self):
        _, _, splits, excess = excess_intersection(1, 3)
        assert splits and excess == [1, 1]

    def test_degree_two_does_not_split(self):
        _, _, splits, excess = excess_intersection(2, 2)
        assert not splits and excess is None

    def test_sym_rank_one(self):
        assert sym_decomposition([1]) == [(-1, 1, 1), (0, 0, 1)]

    def test_sym_rank_two(self):
        assert sym_decomposition([1, 1]) == \
            [(-2, 2, 1), (-1, 1, 2), (0, 0, 1)]


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


class TestChern:
    def test_normalized(self):
        assert chern_log(diag_kernel(P1)) == 1

    def test_additive_example(self):
        expr = diag_kernel(P1) + diag_kernel(P1, 5, 1)
        assert chern_log(expr) == 0

    def test_expansion_identity_graph(self):
        assert chern_log_expansion(graph_kernel(P1, P1, 1)) == 1

    def test_expansion_shift(self):
        assert chern_log_expansion(
            graph_kernel(P1, P2, 1).shifted(1)) == -1

    def test_expansion_additive(self):
        gf = graph_kernel(P1, P2, 1)
        assert chern_log_expansion(gf + gf) == 2

    def test_expansion_rejects_transpose(self):
        with pytest.raises(UnsupportedHHShape):
            chern_log_expansion(transpose(graph_kernel(P1, P2, 1)))


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


class TestGrammar:
    @pytest.mark.parametrize("text,canonical", [
        ("diag(O,0)", "diag(O,0)"),
        ("diag(O(-3),2)", "diag(O(-3),2)"),
        ("graph(deg=1)", "graph(deg=1,O,0)"),  # shorthand form expands
        ("graph(deg=2,O(1),-1)", "graph(deg=2,O(1),-1)"),
        ("t(graph(deg=1,O(1),-1))", "t(graph(deg=1,O(1),-1))"),
        ("diag(O,0)+diag(O(5),1)", "diag(O,0)+diag(O(5),1)")])
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


@pytest.mark.parametrize("text", [f"P{n}:H" for n in range(1, 21)]
                         + ["P1:pt"] + [f"C{g}:pt" for g in range(7)])
def test_scalar_regime_closed_form(text):
    pair = parse_pair(text)
    assert _scalar_regime(pair) == (hkr_homology(pair) == {0: 1})


def test_scalar_regime_refuses_like_hkr():
    pair = parse_pair("A1:0")
    with pytest.raises(NoToricModel) as ours:
        _scalar_regime(pair)
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
