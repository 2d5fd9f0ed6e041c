"""Named verification cases covering the package's headline constants.

Each case is a self-describing claim with an expected and an actual value;
the report passes only if every case does.  `sign_flip` passes a corrupt
shift sign (+1) to the library's `kernels.signed_count` (a negative
control: with it on, the shifted-Chern cases must fail).
"""

import random

from . import kernels
from .cohomology import Space, SplitBundle, exterior_algebra, \
    graded_cohomology
from .fans import (Fan, check_support_preserved, induces_fan_map, is_smooth,
                   product_fan)
from .hkr import hkr_homology, log_serre, residue_euler_check
from .kernels import (Atom, DIAG, KernelExpr, adjoint_exchange_check,
                      bicategory_law_check, chern_log, compose, diag_kernel,
                      euler_pairing, format_kernel, graph_kernel, hh_action,
                      involution_check, left_adjoint, right_adjoint,
                      signed_count, transpose)
from .logproduct import (LogPair, building_set, log_product,
                         order_independence_check, projection,
                         strict_transform_rays)
from .values import FrozenValue

P1 = LogPair("P1:pt")


class VerifyCase(FrozenValue):
    __slots__ = ("case_id", "claim", "expected", "actual")

    def __init__(self, case_id, claim, expected, actual):
        object.__setattr__(self, "case_id", case_id)
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)

    @property
    def passed(self):
        return self.expected == self.actual


class VerifyReport(FrozenValue):
    __slots__ = ("cases",)

    def __init__(self, cases):
        object.__setattr__(self, "cases", cases)

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    def failures(self):
        return [c for c in self.cases if not c.passed]


def verify_suite(sign_flip=False):
    """Run every named case; `sign_flip` is the negative-control switch."""
    cases = []
    sign = 1 if sign_flip else -1

    def add(case_id, claim, expected, actual):
        cases.append(VerifyCase(case_id, claim, expected, actual))

    # --- fans and log products -------------------------------------------
    fig1 = log_product([LogPair("A1:0")] * 3)
    e = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
         (0, 1, 1), (1, 1, 1)}
    add("fan-octant-rays",
        "triple (A^1,0) log product = barycentric octant: 7 specific rays",
        (7, e), (len(fig1.fan.rays()), set(fig1.fan.rays())))
    add("fan-octant-cones",
        "barycentric octant has 6 smooth maximal cones",
        (6, True),
        (len(fig1.fan.cones),
         all(is_smooth(c, 3) for c in fig1.fan.cones)))
    add("building-set-n3",
        "default blow-up order for 3 factors: triple stratum first, "
        "then the pairs",
        [frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0, 2}),
         frozenset({1, 2})],
        building_set(3))
    alt = [frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 2}),
           frozenset({1, 2})]
    add("order-independence-n3",
        "an alternative valid blow-up order gives the identical fan",
        True, order_independence_check([P1] * 3, building_set(3), alt))
    pp = log_product([P1, P1])
    add("logproduct-p1p1",
        "(P^1)x^log(P^1): one blow-up, 5 rays and 5 maximal cones",
        (5, 5), (len(pp.fan.rays()), len(pp.fan.cones)))
    smooth_all = True
    family = [LogPair("P1:pt"), LogPair("Pn:H", 2), LogPair("Pn:H", 3)]
    for a in family:
        for b in family:
            sp = log_product([a, b])
            smooth_all &= all(is_smooth(c, sp.fan.rank)
                              for c in sp.fan.cones)
    add("logproduct-smooth-pairs",
        "all two-factor log products of P^1, P^2, P^3 are smooth",
        True, smooth_all)
    triple = log_product([P1] * 3)
    product = product_fan(product_fan(P1.toric_fan(0), P1.toric_fan(1)),
                          P1.toric_fan(2))
    add("logproduct-support",
        "the triple (P^1,pt) log product keeps the support of the product "
        "fan of (P^1)^3; without one of its cones it does not",
        (True, False),
        (check_support_preserved(product, triple.fan),
         check_support_preserved(product, Fan(3, triple.fan.cones[1:]))))
    small, mat = projection(triple, [0, 1])
    add("projection-fan-map",
        "projection of a triple log product onto two factors is a fan map",
        True, induces_fan_map(triple.fan, small.fan, mat))
    _, exc = strict_transform_rays(triple, 0)
    add("strict-transform-n3",
        "factor-0 boundary in a triple product: strict transform plus "
        "3 exceptional rays (strata {012},{01},{02})",
        3, len(exc))

    # --- cohomology -------------------------------------------------------
    add("cohomology-sym-model",
        "O + O(-1)[1] on P^1 has total cohomology {0: 1}",
        {0: 1},
        graded_cohomology(Space("Pn", 1),
                          SplitBundle.line(0) + SplitBundle.line(-1, 1)))
    add("cohomology-p2-vanishing",
        "O(-1)^2 on P^2 has no cohomology",
        {}, graded_cohomology(Space("Pn", 2), SplitBundle.sum_of([-1, -1])))

    # --- HKR ---------------------------------------------------------------
    add("hkr-p1",
        "log Hochschild homology of (P^1, pt) is one-dimensional in "
        "degree 0",
        {0: 1}, hkr_homology(P1))
    add("hkr-pn",
        "log Hochschild homology of (P^n, H) is {0: 1} for n <= 4",
        [{0: 1}] * 4,
        [hkr_homology(LogPair("Pn:H", n)) for n in range(1, 5)])
    add("hkr-curve-g1",
        "pointed genus-1 curve: {-1: 1, 0: 1, 1: 1} (richer than the "
        "scalar regime; reported, not hidden)",
        {-1: 1, 0: 1, 1: 1}, hkr_homology(LogPair("Cg:pt", 1)))
    s = log_serre(P1)
    add("serre-p1",
        "log Serre kernel of (P^1, pt) is O(-1)[1]",
        (-1, 1), (s.twist, s.shift))
    add("residue-checks",
        "Euler-characteristic shadow of the residue sequence holds for "
        "all n <= 4, 1 <= q <= n",
        True,
        all(residue_euler_check(n, q)[3]
            for n in range(1, 5) for q in range(1, n + 1)))

    # --- kernel calculus ---------------------------------------------------
    p2 = LogPair("Pn:H", 2)
    gf = graph_kernel(P1, p2, 1)
    radj = right_adjoint(gf)
    add("right-adjoint-graph",
        "right adjoint of a transversal degree-1 graph into (P^2, H)",
        "t(graph(deg=1,O(1),-1))", format_kernel(radj))
    d0 = diag_kernel(P1)
    add("right-adjoint-diag",
        "right adjoint of the identity diagonal is itself",
        d0, right_adjoint(d0))
    dk = diag_kernel(p2, 4, -3)
    add("compose-unit",
        "identity diagonal is a unit for composition",
        dk, compose(diag_kernel(p2), dk))
    add("compose-excess",
        "graph followed by its adjoint transpose decomposes through the "
        "excess bundle: Diag(O(1),-1) + Diag(O,0)",
        "diag(O,0)+diag(O(1),-1)", format_kernel(compose(gf, radj)))
    add("excess-bundle",
        "degree-1 graph in (P^1)x(P^2): tangent sub-bundle splits off, "
        "excess = O(1)",
        SplitBundle.line(1), kernels.excess_intersection(1, 2))
    add("sym-decomposition",
        "Sym of the dualized shifted excess O(1): O + O(-1)[1] as "
        "diagonal atoms",
        SplitBundle.line(0) + SplitBundle.line(-1, 1),
        exterior_algebra(SplitBundle.line(1).dual()))
    add("hh-identity",
        "the identity diagonal kernel acts as 1 on degree-0 classes",
        1, signed_count(diag_kernel(P1), sign))
    add("hh-shift-sign",
        "a once-shifted diagonal kernel acts as -1 regardless of twist",
        -1, signed_count(diag_kernel(P1, 7, 1), sign))
    add("chern-normalized",
        "log Chern character of Diag(O,0) is 1",
        1, chern_log(diag_kernel(P1)))
    add("chern-additive",
        "Diag(O,0) + Diag(O(5),1) has log Chern character 1 + (-1) = 0",
        0, signed_count(diag_kernel(P1) + diag_kernel(P1, 5, 1), sign))
    gid = graph_kernel(P1, P1, 1)
    add("euler-identity",
        "log Euler pairing of the diagonal pushforward with itself is 1",
        1, euler_pairing(gid, gid))
    trace = []
    add("euler-graph",
        "log Euler pairing of a transversal degree-1 graph with itself "
        "is 0",
        0, euler_pairing(gf, gf, trace))
    add("euler-graph-trace",
        "the pairing routes through the adjoint, excess and Sym steps",
        True,
        any("t(graph(deg=1,O(1),-1))" in line for line in trace)
        and any(line == "excess: O(1)" for line in trace)
        and any(line == "sym: O + O(-1)[1]" for line in trace)
        and any("-1 + 1" in line for line in trace))
    add("euler-diag-shift",
        "pairing Diag(O,0) against Diag(O,1) gives -1",
        -1, euler_pairing(diag_kernel(P1), diag_kernel(P1, 0, 1)))
    add("bicategory-units",
        "unit and associativity laws on a diagonal triple",
        True, bicategory_law_check(diag_kernel(P1, 2, 1),
                                   diag_kernel(P1, -1, 0),
                                   diag_kernel(P1, 3, -2)))

    # --- the log Euler characteristic e(U), U = X minus D -----------------
    # log de Rham and log HKR: the alternating sum of log Hochschild
    # homology is e(U); a toric U has one fixed point per maximal cone
    # missing the boundary ray; in the scalar regime the diagonal kernel
    # pairs with itself to e(U)
    euler_pairs = (P1, p2, LogPair("Pn:H", 3), LogPair("Pn:H", 4))
    add("log-euler-three-ways",
        "e(U) of P1:pt, P2:H, P3:H, P4:H is 1 three ways: alternating sum "
        "of log HKR, maximal cones missing the boundary ray, log Euler "
        "pairing of the diagonal with itself",
        [(1, 1, 1)] * len(euler_pairs),
        [(sum(-v if d % 2 else v for d, v in hkr_homology(pr).items()),
          pr.toric_fan().open_cone_count(),
          euler_pairing(diag_kernel(pr), diag_kernel(pr)))
         for pr in euler_pairs])

    # --- property spot checks (full random suites live in the tests) ------
    rng = random.Random(0)
    func_ok = True
    for _ in range(25):
        e, f = random_supported_pair(rng)
        func_ok &= (right_adjoint(compose(e, f))
                    == compose(right_adjoint(f), right_adjoint(e)))
        func_ok &= (left_adjoint(compose(e, f))
                    == compose(left_adjoint(f), left_adjoint(e)))
    add("adjoint-functoriality",
        "adjoint of a composite equals the reversed composite of adjoints "
        "(25 random supported pairs)",
        True, func_ok)
    hh_ok = True
    for _ in range(25):
        e = random_diag(rng, P1)
        f = random_diag(rng, P1)
        beta = rng.randint(-5, 5)
        hh_ok &= (hh_action(e, hh_action(f, beta))
                  == hh_action(compose(e, f), beta))
    add("hh-functoriality",
        "scalar action of a composite equals the composed scalar actions "
        "(25 random diagonal pairs)",
        True, hh_ok)
    exch_ok = all(adjoint_exchange_check(k) for k in
                  (gf, transpose(gf), d0, dk, gid))
    add("adjoint-exchange",
        "Serre kernel exchanges the right and left adjoints",
        True, exch_ok)
    add("adjoint-involution",
        "left adjoint of the right adjoint returns the original kernel",
        True, all(involution_check(k) for k in (gf, d0, dk, gid)))

    return VerifyReport(tuple(cases))


# ---------------------------------------------------------------------------
# random generators shared with the property tests

_PAIRS = (P1, LogPair("Pn:H", 2), LogPair("Pn:H", 3))


def random_diag(rng, pair):
    """A diagonal kernel on `pair` of one to three terms, each with a
    multiplicity from 1 to 3."""
    terms = tuple((Atom(DIAG, 0, rng.randint(-6, 6), rng.randint(-6, 6)),
                   rng.randint(1, 3))
                  for _ in range(rng.randint(1, 3)))
    return KernelExpr(pair, pair, terms)


def random_supported_pair(rng):
    """A composable (E, F) whose composite and adjoints stay supported."""
    shape = rng.randrange(6)
    target = rng.choice(_PAIRS[1:])
    if shape == 0:  # diag then diag
        pair = rng.choice(_PAIRS)
        return random_diag(rng, pair), random_diag(rng, pair)
    if shape == 1:  # diag then graph
        return random_diag(rng, P1), _random_graph(rng, target)
    if shape == 2:  # graph then diag
        return _random_graph(rng, target), random_diag(rng, target)
    if shape == 3:  # diag then transposed graph
        return random_diag(rng, target), transpose(_random_graph(rng,
                                                                 target))
    if shape == 4:  # transposed graph then diag
        return transpose(_random_graph(rng, target)), random_diag(rng, P1)
    # graph then transposed graph of the same degree-1 map
    g = _random_graph(rng, target)
    h = _random_graph(rng, target)
    return g, transpose(h)


def _random_graph(rng, target):
    return graph_kernel(P1, target, 1, rng.randint(-6, 6),
                        rng.randint(-6, 6))
