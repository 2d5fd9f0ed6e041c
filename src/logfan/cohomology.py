"""Coherent cohomology of split bundles on projective spaces and curves.

Everything is a finite direct sum of twisted line bundles with homological
shifts, so cohomology is a table of integer dimensions computed from the
standard closed forms:

* on P^n: h^0(O(k)) = C(n+k, n) for k >= 0, h^n(O(k)) = C(-k-1, n) for
  k <= -n-1, all other groups vanish;
* on a smooth projective curve of genus g with twists by a fixed point:
  degree 0 is the structure sheaf (h^0 = 1, h^1 = g), negative degrees have
  h^1 = g - 1 - d, degrees d > 2g - 2 have h^0 = d - g + 1; degrees in the
  range 1..2g-2 (g >= 1) depend on the moduli of the bundle and are refused.

A split bundle is stored in the multiset normal form kernels share
(`normal_form`), so O(k)^m is one term and costs one lookup whatever m is.
The raw terms given to the constructor are counted in C before that
merge: terms that all equal the first one, as in a line bundle or a
summand written out 10^6 times, by one `tuple.count`, one comparison per
copy (an identity check for repeats of one object); any other input by
`collections.Counter`, one hash per copy.  Counted bare Summands are
merged, positive and distinct, so one sort in C is their normal form;
only input with a (Summand, mult) pair runs `normal_form`'s loop.

`exterior_algebra` is the one construction of wedge powers, (+)_q
wedge^q(E)[q] of an unshifted split bundle E, as a split bundle; `hkr`
and the excess route of `kernels` read it.  It refuses a rank above
`MAX_PN_DIM`.

The tables on P^n are refused, before any is built, for n above
`MAX_PN_DIM` = 1000 (DimensionTooLarge) and for a twist k with |k| above
`MAX_TWIST` = 10^6 (TwistTooLarge): C(n + k, n) then has at most 3433
digits and takes milliseconds.  The Euler characteristic builds no
table: chi(O(k)) is read once per distinct twist, on P^n the line's
alternating sum under the same caps, on a curve k - g + 1 by
Riemann-Roch.  Curve tables are O(1) arithmetic and have no cap.
"""

from collections import Counter
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .errors import (AmbiguousDegree, DimensionTooLarge, TwistTooLarge,
                     clip, printable, quote)
from .values import FrozenValue

# Caps on n and on |twist| for the tables of P^n (shared with `hkr`)
MAX_PN_DIM = 1000
MAX_TWIST = 10 ** 6


def normal_form(pairs):
    """Multiset normal form of (key, multiplicity) pairs: keys sorted, equal
    keys merged, zero multiplicities dropped; a negative one is refused."""
    merged = {}
    for key, mult in pairs:
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        if mult:
            merged[key] = merged.get(key, 0) + mult
    return tuple(sorted(merged.items(), key=itemgetter(0)))


class Summand(NamedTuple):
    """One line-bundle summand O(twist)[shift]."""
    twist: int
    shift: int = 0


class SplitBundle(FrozenValue):
    """Direct sum of line bundles as normal-form terms ((Summand, mult),
    ...); the constructor also takes bare Summands, one copy each.

    The raw terms are counted in C first: a bare Summand seen c times
    becomes (summand, c) and a (summand, m) pair seen c times becomes
    (summand, m * c).  Terms that all equal the first one, as in every
    line bundle and in one summand written out many times, are counted by
    one `tuple.count`; any other input by `Counter`.  Counted keys that
    are all bare Summands are sorted as they stand; a bare Summand never
    equals a pair, so input with a pair merges the two in `normal_form`,
    which validates the result."""
    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms or (terms[-1] == terms[0]
                         and terms.count(terms[0]) == len(terms)):
            # hashes the one key, so an unhashable term raises TypeError
            # as under Counter
            counted = dict.fromkeys(terms[:1], len(terms))
        else:
            counted = Counter(terms)
        # the first term turns most pair input away before the set is built
        if terms and type(terms[0]) is Summand and \
                set(map(type, counted)) == {Summand}:
            # merged, positive and distinct already
            terms = tuple(sorted(counted.items(), key=itemgetter(0)))
        else:
            terms = normal_form(
                (t, c) if isinstance(t, Summand) else (t[0], t[1] * c)
                for t, c in counted.items())
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def line(twist, shift=0, mult=1):
        return SplitBundle(((Summand(twist, shift), mult),))

    @staticmethod
    def sum_of(twists):
        return SplitBundle(tuple(Summand(t) for t in twists))

    def __add__(self, other):
        return SplitBundle(self.terms + other.terms)

    def dual(self):
        return SplitBundle(tuple((Summand(-s.twist, -s.shift), m)
                                 for s, m in self.terms))


def exterior_algebra(bundle):
    """(+)_q wedge^q(E)[q] of an unshifted split bundle E: O(D)[q] has the
    coefficient of x^D y^q in the product of (1 + x^d y)^c over E's terms
    O(d)^c.  A shifted summand (ValueError) and a rank above MAX_PN_DIM
    (DimensionTooLarge) are refused before any power is built."""
    if any(s.shift for s, _ in bundle.terms):
        raise ValueError("exterior powers need an unshifted bundle")
    rank = sum(c for _, c in bundle.terms)
    if rank > MAX_PN_DIM:
        raise DimensionTooLarge(printable(
            lambda: f"a bundle of rank {clip(rank)} is above the cap of "
                    f"rank {MAX_PN_DIM} for exterior powers",
            f"a bundle's rank is above the cap of rank {MAX_PN_DIM} for "
            f"exterior powers"))
    counts = {(0, 0): 1}  # (D, q) -> coefficient of x^D y^q
    for s, c in bundle.terms:
        grown = {}
        for (twist, q), n in counts.items():
            for j in range(c + 1):
                key = (twist + j * s.twist, q + j)
                grown[key] = grown.get(key, 0) + n * comb(c, j)
        counts = grown
    return SplitBundle(tuple((Summand(twist, q), n)
                             for (twist, q), n in counts.items()))


def cohomology_line_pn(n, k):
    """{degree: dim} of H^*(P^n, O(k)); only degrees 0 and n can appear."""
    if k >= 0:
        return {0: comb(n + k, n)}
    if k <= -n - 1:
        return {n: comb(-k - 1, n)}
    return {}


def cohomology_line_curve(g, d):
    """{degree: dim} of H^*(C, O(d * pt)) on a genus-g curve.

    Degrees 1..2g-2 (for g >= 1) are not determined by d alone and raise
    AmbiguousDegree.
    """
    if d == 0:
        return {0: 1, 1: g} if g > 0 else {0: 1}
    if d < 0:
        return {1: g - 1 - d} if g - 1 - d else {}
    if d > 2 * g - 2:
        return {0: d - g + 1}
    raise AmbiguousDegree(
        f"h^*(O({d} pt)) on a genus-{g} curve depends on the bundle")


class Space(FrozenValue):
    """P^n or a smooth projective curve of genus g, as a cohomology host;
    an unknown kind, n < 0 and g < 0 raise ValueError."""
    __slots__ = ("kind", "param")  # kind is "Pn" or "curve"

    def __init__(self, kind, param):
        if kind not in ("Pn", "curve"):
            raise ValueError(f"unknown space kind {quote(kind)}")
        if param < 0:
            what = "P^n needs n" if kind == "Pn" else "a curve needs genus"
            raise ValueError(printable(lambda: f"{what} >= 0, not {param}",
                                       f"{what} >= 0"))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)

    def line_cohomology(self, twist):
        if self.kind == "Pn":
            return cohomology_line_pn(self.param, twist)
        return cohomology_line_curve(self.param, twist)

    def line_euler(self, twist):
        """chi(O(twist)): on P^n the alternating sum of its table, on a
        genus-g curve Riemann-Roch, twist - g + 1."""
        if self.kind == "Pn":
            return sum(-dim if p % 2 else dim for p, dim
                       in cohomology_line_pn(self.param, twist).items())
        return twist - self.param + 1


def _check_caps(space, bundle):
    """The caps on P^n of `graded_cohomology` and `euler_characteristic`."""
    if space.kind == "Pn":
        if space.param > MAX_PN_DIM:
            raise DimensionTooLarge(
                f"{clip(f'P{space.param}')} is above the cap of dimension "
                f"{MAX_PN_DIM} for cohomology tables")
        terms = bundle.terms  # sorted: the extreme twists come first, last
        if terms and max(-terms[0][0].twist, terms[-1][0].twist) > MAX_TWIST:
            raise TwistTooLarge(
                f"a twist is outside the cap |k| <= {MAX_TWIST} for "
                f"cohomology tables on P^n")


def graded_cohomology(space, bundle):
    """Total cohomology table {degree: dim} of a split bundle, with each
    term O(k)[s]^m contributing m * h^p(O(k)) in total degree p - s.
    On P^n, n > MAX_PN_DIM or a twist with |k| > MAX_TWIST is refused
    before the table is built."""
    _check_caps(space, bundle)
    table = {}
    twist = None
    for s, mult in bundle.terms:
        if s.twist != twist:  # terms are sorted: one lookup per twist
            twist = s.twist
            dims = space.line_cohomology(twist).items()
        for p, dim in dims:
            deg = p - s.shift
            table[deg] = table.get(deg, 0) + mult * dim
    return {d: v for d, v in sorted(table.items()) if v}


def euler_characteristic(space, bundle):
    """Sum of (-1)^s * m * chi(O(k)) over the terms O(k)[s]^m, one
    `Space.line_euler` per distinct twist, under the caps on P^n; the
    ambiguous degrees of a curve are still fine."""
    _check_caps(space, bundle)
    total = 0
    last = None
    for (twist, shift), mult in bundle.terms:
        if twist != last:  # terms are sorted: one chi per twist
            last = twist
            chi = space.line_euler(twist)
        total += -mult * chi if shift % 2 else mult * chi
    return total
