"""Log Hochschild homology of a pair via the wedge-power decomposition.

For the pairs handled here the sheaf of log differentials splits:

* (P^n, H): Omega^1(log H) = O(-1)^{+n}, so the q-th wedge power is
  O(-q)^{C(n,q)}, one split-bundle term of multiplicity C(n,q);
* (C, pt), genus g: Omega^1(log pt) is the single line bundle of degree
  2g - 1.

`log_cotangent` is the only model written per kind; the wedge powers all
come from one call to `cohomology.exterior_algebra`, W = (+)_q
wedge^q[q].  Hochschild homology puts H^p(wedge^q) in degree q - p, so
it is the table of W with its degrees negated; Hochschild cohomology puts
H^p((wedge^q)^v) in degree p + q, the table of the dual of W.  The log
Serre kernel twists the diagonal by the top wedge power shifted by the
dimension.

The tables of (P^n, H) are refused, with DimensionTooLarge and before
any is built, for n above `MAX_PN_DIM` = 1000, the cap of the cohomology
tables: P^1000 takes about 0.1 s, and past a few thousand the dimensions
outgrow what Python prints.
"""

from .cohomology import MAX_PN_DIM, Space, SplitBundle, Summand, \
    euler_characteristic, exterior_algebra, graded_cohomology
from .errors import DimensionTooLarge, NoToricModel, WedgeOutOfRange
from .logproduct import LogPair, format_pair


def _space_of(pair):
    if pair.kind == "Pn:H":
        return Space("Pn", pair.param)
    if pair.kind == "P1:pt":
        return Space("Pn", 1)
    if pair.kind == "Cg:pt":
        return Space("curve", pair.param)
    raise NoToricModel(
        f"{format_pair(pair)} is not projective; no cohomology tables")


def log_cotangent(pair):
    """Split model of Omega^1 with log poles along the boundary."""
    if pair.kind in ("Pn:H", "P1:pt"):
        return SplitBundle.line(-1, 0, pair.dim)
    if pair.kind == "Cg:pt":
        return SplitBundle.line(2 * pair.param - 1)
    raise NoToricModel(
        f"{format_pair(pair)} has no projective log cotangent model")


def log_wedge(pair, q):
    """q-th wedge power of the log cotangent bundle: the shift-q part of
    its exterior algebra."""
    n = pair.dim
    if q < 0 or q > n:
        raise WedgeOutOfRange(f"wedge degree {q} outside 0..{n}")
    return SplitBundle(tuple(
        (Summand(s.twist), mult)
        for s, mult in exterior_algebra(log_cotangent(pair)).terms
        if s.shift == q))


def _table_space(pair):
    """`_space_of(pair)`, after refusing a (P^n, H) with n > MAX_PN_DIM."""
    if pair.kind == "Pn:H" and pair.param > MAX_PN_DIM:
        raise DimensionTooLarge(
            f"P{pair.param}:H is above the cap of dimension {MAX_PN_DIM} "
            f"for Hochschild tables")
    return _space_of(pair)


def hkr_homology(pair):
    """{degree: dim} of log Hochschild homology: wedge power q contributes
    H^p in degree q - p, the table of (+)_q wedge^q[q] negated."""
    space = _table_space(pair)
    table = graded_cohomology(space, exterior_algebra(log_cotangent(pair)))
    return {-deg: table[deg] for deg in reversed(table)}


def hkr_cohomology(pair):
    """{degree: dim} of log Hochschild cohomology: the dual wedge power
    (log polyvector fields) in wedge degree q contributes H^p in degree
    p + q, the table of the dual of (+)_q wedge^q[q]."""
    space = _table_space(pair)
    return graded_cohomology(
        space, exterior_algebra(log_cotangent(pair)).dual())


def log_serre(pair):
    """The log Serre kernel's line bundle on the diagonal, as a Summand
    O(twist)[shift]: the top log wedge power shifted by the dimension."""
    ((top, _),) = log_wedge(pair, pair.dim).terms
    return Summand(top.twist, pair.dim)


def residue_euler_check(n, q):
    """Euler-characteristic shadow of the residue triangle on (P^n, H).

    The residue sequence 0 -> Omega^q -> Omega^q(log H) -> Omega^{q-1}_H -> 0
    forces chi of the middle term to equal the sum of the outer ones; with
    the known chi(Omega^q_{P^m}) = (-1)^q this is checkable in closed form.
    Returns (lhs, rhs_sub, rhs_res, ok).
    """
    if not 1 <= q <= n:
        raise WedgeOutOfRange(f"residue check needs 1 <= q <= n, got {q}")
    pair = LogPair("Pn:H", n)
    space = _space_of(pair)
    lhs = euler_characteristic(space, log_wedge(pair, q))
    rhs_sub = (-1) ** q          # chi(Omega^q on P^n)
    rhs_res = (-1) ** (q - 1)    # chi(Omega^{q-1} on the hyperplane P^{n-1})
    return lhs, rhs_sub, rhs_res, lhs == rhs_sub + rhs_res
