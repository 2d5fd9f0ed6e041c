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
"""

from dataclasses import dataclass
from math import comb, factorial

from .errors import AmbiguousDegree


@dataclass(frozen=True, order=True)
class Summand:
    """One line-bundle summand O(twist)[shift]."""
    twist: int
    shift: int = 0


@dataclass(frozen=True)
class SplitBundle:
    """Finite direct sum of twisted, shifted line bundles."""
    summands: tuple

    def __post_init__(self):
        parts = tuple(sorted(
            s if isinstance(s, Summand) else Summand(*s)
            for s in self.summands))
        object.__setattr__(self, "summands", parts)

    @staticmethod
    def line(twist, shift=0):
        return SplitBundle((Summand(twist, shift),))

    @staticmethod
    def sum_of(twists):
        return SplitBundle(tuple(Summand(t) for t in twists))

    def __add__(self, other):
        return SplitBundle(self.summands + other.summands)

    def dual(self):
        return SplitBundle(tuple(Summand(-s.twist, -s.shift)
                                 for s in self.summands))

    def degrees(self):
        return sorted(s.twist for s in self.summands)


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


@dataclass(frozen=True)
class Space:
    """P^n or a smooth projective curve of genus g, as a cohomology host."""
    kind: str  # "Pn" or "curve"
    param: int

    @property
    def dim(self):
        return self.param if self.kind == "Pn" else 1

    def line_cohomology(self, twist):
        if self.kind == "Pn":
            return cohomology_line_pn(self.param, twist)
        return cohomology_line_curve(self.param, twist)


def graded_cohomology(space, bundle):
    """Total cohomology table {degree: dim} of a split bundle, with each
    summand O(k)[s] contributing H^p in total degree p - s."""
    table = {}
    for s in bundle.summands:
        for p, dim in space.line_cohomology(s.twist).items():
            deg = p - s.shift
            table[deg] = table.get(deg, 0) + dim
    return {d: v for d, v in sorted(table.items()) if v}


def euler_characteristic(space, bundle):
    """Alternating sum of cohomology dimensions, computed by the exact
    polynomial formula so ambiguous curve degrees are still fine."""
    total = 0
    for s in bundle.summands:
        sign = -1 if s.shift % 2 else 1
        if space.kind == "Pn":
            n = space.param
            prod = 1
            for i in range(1, n + 1):
                prod *= s.twist + i
            chi = prod // factorial(n)
        else:
            chi = s.twist - space.param + 1
        total += sign * chi
    return total
