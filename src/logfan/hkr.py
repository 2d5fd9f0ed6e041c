"""Log Hochschild homology of a pair via the wedge-power decomposition.

For the pairs handled here the sheaf of log differentials is a split
bundle, the sum of the terms O(d)^c in the pair's `cotangent` slot (see
`logproduct._MODEL`):

* (P^n, H) and (P^1, pt): Omega^1(log H) = O(-1)^{+n};
* (C, pt), genus g: Omega^1(log pt) = O(2g - 1), a single line bundle.

`_model` reads the terms and refuses (A^1, 0), which has no host; the
tables build the host `Space` once.  Every wedge power comes from the one
construction, `cohomology.exterior_algebra`, W = (+)_q wedge^q[q]: a
single power is the shift-q part of W, and the tables read all of W.
Hochschild homology puts H^p(wedge^q) in degree q - p, so it is the table
of W with its degrees negated; Hochschild cohomology puts
H^p((wedge^q)^v) in degree p + q, the table of the dual of W.  The log
Serre kernel's line is the top power, the determinant O(sum c d) shifted
by the rank sum c = dim, in closed form.

The tables of (P^n, H) are refused, with DimensionTooLarge and before
any is built, for n above `MAX_PN_DIM` = 1000, the cap of the cohomology
tables: P^1000 takes about 0.1 s, and past a few thousand the dimensions
outgrow what Python prints.
"""

from .cohomology import MAX_PN_DIM, Space, SplitBundle, Summand, \
    euler_characteristic, exterior_algebra, graded_cohomology
from .errors import DimensionTooLarge, NoToricModel, WedgeOutOfRange, clip
from .logproduct import LogPair, format_pair


def _model(pair):
    """The terms (d, c) of the pair's log cotangent model, the sum of the
    O(d)^c; refuses A1:0."""
    if pair.host is None:
        raise NoToricModel(
            f"{format_pair(pair)} is not projective; no cohomology tables")
    return pair.cotangent


def log_cotangent(pair):
    """Split model of Omega^1 with log poles along the boundary, the sum
    of the model's terms O(d)^c: O(-1)^n on P^n, O(2g - 1) on a genus-g
    curve."""
    return SplitBundle(tuple((Summand(d), c) for d, c in _model(pair)))


def log_wedge(pair, q):
    """q-th wedge power of the log cotangent bundle, the shift-q part of
    its `exterior_algebra`, under that function's rank cap; q outside
    0..rank raises WedgeOutOfRange first."""
    bundle = log_cotangent(pair)
    rank = sum(c for _, c in bundle.terms)
    if q < 0 or q > rank:
        raise WedgeOutOfRange(f"wedge degree {q} outside 0..{rank}")
    return SplitBundle(tuple((Summand(s.twist), m)
                             for s, m in exterior_algebra(bundle).terms
                             if s.shift == q))


def _tables(pair):
    """The host Space and (+)_q wedge^q[q] of the pair's log cotangent
    model, after refusing a (P^n, H) with n > MAX_PN_DIM."""
    bundle = log_cotangent(pair)
    if pair.dim > MAX_PN_DIM:
        raise DimensionTooLarge(
            f"{clip(format_pair(pair))} is above the cap of dimension "
            f"{MAX_PN_DIM} for Hochschild tables")
    return Space(*pair.host), exterior_algebra(bundle)


def hkr_homology(pair):
    """{degree: dim} of log Hochschild homology: wedge power q contributes
    H^p in degree q - p, the table of (+)_q wedge^q[q] negated."""
    table = graded_cohomology(*_tables(pair))
    return {-deg: table[deg] for deg in reversed(table)}


def hkr_cohomology(pair):
    """{degree: dim} of log Hochschild cohomology: the dual wedge power
    (log polyvector fields) in wedge degree q contributes H^p in degree
    p + q, the table of the dual of (+)_q wedge^q[q]."""
    space, algebra = _tables(pair)
    return graded_cohomology(space, algebra.dual())


def log_serre(pair):
    """The log Serre kernel's line bundle on the diagonal, as a Summand
    O(twist)[shift]: the top log wedge power, the determinant
    O(sum c d) of the terms O(d)^c, shifted by the dimension, sum c."""
    terms = _model(pair)
    return Summand(sum(c * d for d, c in terms), sum(c for _, c in terms))


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
    lhs = euler_characteristic(Space(*pair.host), log_wedge(pair, q))
    rhs_sub = (-1) ** q          # chi(Omega^q on P^n)
    rhs_res = (-1) ** (q - 1)    # chi(Omega^{q-1} on the hyperplane P^{n-1})
    return lhs, rhs_sub, rhs_res, lhs == rhs_sub + rhs_res
