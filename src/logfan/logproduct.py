"""Log products of toric pairs as nested-set fans.

The n-fold log product of pairs (X_i, D_i) is computed on the fan level:
the direct product fan blown up along every stratum where two or more
boundary divisors meet.  That building set is every subset of factors of
size >= 2, so its nested sets are chains and the blown-up fan has a closed
form (De Concini-Procesi 1995; Feichtner-Yuzvinsky 2004): a product cone
holding the boundary rays {b_i : i in I} becomes one cone per maximal
chain S_1 < ... < S_|I| = I, with those rays replaced by the chain rays
sum_{i in S_k} b_i.  `log_product` builds the fan from that form.

The iterated blow-up (one stellar subdivision per stratum, in an order
whose every prefix is a building set) lives only in
`order_independence_check`, which compares it with the closed form: two
independent constructions of the same fan.

Factors are complete P^n fans with the coordinate hyperplane e_1 as
boundary, the P^1 fan with a torus-fixed point, or the affine local model
(A^1, 0) used to reproduce the rank-3 barycentric picture.  A product
with more than MAX_CONES maximal cones is refused before it is built.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations, permutations
from math import factorial
import re

from .errors import (EmptyProjection, NotABuildingSetOrder, NoToricModel,
                     TooFewFactors, TooManyCones)
from .fans import (BOUNDARY, EXCEPTIONAL, STRICT_TRANSFORM, Cone,
                   DivisorLabel, Fan, product_fan, star_subdivide)

# Largest number of maximal cones `log_product` builds: A1^8 (8! = 40320
# cones, a few seconds) fits, A1^9 (362880) does not.
MAX_CONES = 50_000


@dataclass(frozen=True)
class LogPair:
    """A pair (X, D): projective space with a coordinate hyperplane, a
    torus-fixed point on P^1, a pointed genus-g curve, or the affine local
    model (A^1, 0)."""
    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind not in ("Pn:H", "P1:pt", "Cg:pt", "A1:0"):
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if self.kind == "Pn:H" and self.param < 1:
            raise ValueError("projective space needs dimension >= 1")
        if self.kind == "Cg:pt" and self.param < 0:
            raise ValueError("genus must be nonnegative")

    @property
    def dim(self):
        if self.kind == "Pn:H":
            return self.param
        return 1

    def toric_fan(self, factor=0):
        """Complete fan of the factor with the boundary ray labeled.

        P^n: rays e_1..e_n and -(e_1+..+e_n), boundary e_1, maximal cones
        all n-subsets.  (A^1, 0) is the single octant ray.  Pointed curves
        of genus > 0 have no fan.
        """
        if self.kind == "Cg:pt" and self.param > 0:
            raise NoToricModel(
                f"{format_pair(self)} has no toric local model")
        n = self.dim
        boundary = tuple(1 if i == 0 else 0 for i in range(n))
        if self.kind == "A1:0":
            cones = (Cone((boundary,)),)
        else:
            rays = [tuple(1 if i == j else 0 for i in range(n))
                    for j in range(n)]
            rays.append(tuple(-1 for _ in range(n)))
            cones = tuple(Cone(tuple(sub))
                          for sub in combinations(rays, n))
        labels = ((boundary, DivisorLabel(BOUNDARY, factor)),)
        return Fan(n, cones, labels)


PAIR_RE = re.compile(r"^(P(\d+):H|P1:pt|C(\d+):pt|A1:0)$")


def parse_pair(text):
    m = PAIR_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse pair {text!r}")
    if text.strip() == "P1:pt":
        return LogPair("P1:pt")
    if text.strip() == "A1:0":
        return LogPair("A1:0")
    if m.group(2) is not None:
        return LogPair("Pn:H", int(m.group(2)))
    return LogPair("Cg:pt", int(m.group(3)))


def format_pair(pair):
    if pair.kind == "Pn:H":
        return f"P{pair.param}:H"
    if pair.kind == "Cg:pt":
        return f"C{pair.param}:pt"
    return pair.kind


def building_set(n):
    """Default blow-up order: all subsets of {0..n-1} of size >= 2,
    by decreasing size, then lexicographically."""
    if n < 2:
        raise TooFewFactors("building sets need at least two factors")
    out = []
    for size in range(n, 1, -1):
        out.extend(combinations(range(n), size))
    return [frozenset(s) for s in out]


def is_valid_order(order, n):
    """A sequence of subsets is a valid blow-up order when every prefix is a
    building set: whenever two prefix members overlap, their union is also
    in the prefix (so the maximal members inside any union are pairwise
    disjoint).  The full collection must be exactly all subsets of size >= 2.

    Prefixes only grow, so one pass checks each set against the sets before
    it: the union of two overlapping, incomparable sets is neither of them,
    so it must come earlier still.
    """
    sets = [frozenset(s) for s in order]
    expected = set(building_set(n))
    if set(sets) != expected or len(sets) != len(expected):
        return False
    seen = set()
    for a in sets:
        if any(a & b and not (a <= b or b <= a) and a | b not in seen
               for b in seen):
            return False
        seen.add(a)
    return True


@dataclass(frozen=True)
class LogProductSpace:
    """The log product fan together with divisor bookkeeping.

    `stratum_ray` maps each blown-up stratum (a frozenset of factor
    indices) to its exceptional ray; `strict_transforms` maps each factor
    index to the ray of the strict transform of its boundary divisor.
    """
    factors: tuple
    fan: Fan
    stratum_ray: tuple  # ((frozenset, ray), ...)
    strict_transforms: tuple  # ((factor index, ray), ...)


def _cone_count(factor_fans):
    """Number of maximal cones of the log product of `factor_fans`.

    With w_i (v_i) the number of factor i's cones that hold (miss) its
    boundary ray, a product cone holding the boundary rays of the factors
    in I has |I|! maximal chains, so the count is sum_k k! e_k, where e_k
    sums prod_{i in I} w_i prod_{j not in I} v_j over the k-subsets I.
    """
    e = [1]
    for ff in factor_fans:
        [(b, _)] = ff.labels
        w = sum(1 for c in ff.cones if b in c.rays)
        v = len(ff.cones) - w
        e = [x * v + y * w for x, y in zip(e + [0], [0] + e)]
    return sum(factorial(k) * x for k, x in enumerate(e))


def _product(pairs, order):
    """The product fan, its boundary ray per factor and the checked order
    (`building_set(n)` when None); the cone cap is checked first."""
    n = len(pairs)
    if n < 2:
        raise TooFewFactors("log product needs at least two factors")
    factor_fans = [p.toric_fan(i) for i, p in enumerate(pairs)]
    count = _cone_count(factor_fans)
    if count > MAX_CONES:
        raise TooManyCones(f"the log product has {count} maximal cones, "
                           f"more than the cap of {MAX_CONES}")
    if order is not None and not is_valid_order(order, n):
        raise NotABuildingSetOrder(
            "sequence is not a valid building-set order")
    order = [frozenset(s) for s in order or building_set(n)]
    fan = reduce(product_fan, factor_fans, Fan(0, (Cone(()),)))
    boundary = {lab.arg: ray for ray, lab in fan.labels}
    return fan, boundary, order


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def log_product(pairs, order=None):
    """Log product of the given toric pairs, as a LogProductSpace.

    The fan is the nested-set closed form (see the module docstring), so
    it does not depend on `order`.  `order` only numbers the exceptional
    labels: stratum S, whose ray is sum_{i in S} b_i, is labelled
    Exceptional(index of S in the order).  It must be a valid
    building-set order on all subsets of size >= 2, else
    NotABuildingSetOrder is raised; the default is `building_set(n)`.
    Each boundary ray b_i is labelled StrictTransform(i).  More than
    MAX_CONES maximal cones raises TooManyCones before anything is built.
    """
    fan, boundary, order = _product(pairs, order)
    boundary_rays = set(boundary.values())
    cones = []
    for cone in fan.cones:
        inside = [r for r in cone.rays if r in boundary_rays]
        rest = tuple(r for r in cone.rays if r not in boundary_rays)
        for chain in permutations(inside):
            cones.append(Cone(rest + tuple(accumulate(chain, _add))))
    stratum_ray = {s: reduce(_add, (boundary[i] for i in s)) for s in order}
    labels = [(ray, DivisorLabel(STRICT_TRANSFORM, i))
              for i, ray in boundary.items()]
    labels += [(stratum_ray[s], DivisorLabel(EXCEPTIONAL, step))
               for step, s in enumerate(order)]
    return LogProductSpace(
        tuple(pairs), Fan(fan.rank, tuple(cones), tuple(labels)),
        tuple(sorted(stratum_ray.items(), key=lambda kv: sorted(kv[0]))),
        tuple(sorted(boundary.items())))


def order_independence_check(pairs, order_a, order_b):
    """True when the iterated blow-up in each order gives the closed-form
    fan of `log_product`.

    Each order is simulated from the product fan: one `star_subdivide`
    per stratum, at the cone currently lying over it.  That cone starts as
    {b_i : i in S} and is rewritten whenever a blow-up centre lies in it.
    """
    expected = log_product(pairs).fan.cones
    for order in (order_a, order_b):
        fan, boundary, order = _product(pairs, order)
        tracked = {s: frozenset(boundary[i] for i in s) for s in order}
        for stratum in order:
            center = tracked[stratum]
            fan = star_subdivide(fan, Cone(tuple(center)))
            for s, rays in tracked.items():
                if center <= rays:
                    tracked[s] = (rays - center) | {reduce(_add, center)}
        if fan.cones != expected:
            return False
    return True


def strict_transform_rays(space, i):
    """Decomposition of the total transform of the factor-i boundary:
    (strict transform ray, list of exceptional rays over strata containing
    the factor)."""
    strict = dict(space.strict_transforms)[i]
    exceptional = [ray for stratum, ray in space.stratum_ray
                   if i in stratum]
    return strict, exceptional


def projection_matrix(pairs, keep):
    """Lattice map for the projection of the log product onto the factors
    in `keep` (any nonempty subset of factor indices, taken in sorted
    order)."""
    keep = sorted(set(keep))
    if not keep:
        raise EmptyProjection("projection must keep at least one factor")
    dims = [p.dim for p in pairs]
    starts = [sum(dims[:i]) for i in range(len(pairs))]
    total = sum(dims)
    rows = []
    for i in keep:
        for d in range(dims[i]):
            row = [0] * total
            row[starts[i] + d] = 1
            rows.append(row)
    return [tuple(r) for r in rows]


def projection(space, keep):
    """Log product of the kept factors plus the projection matrix; the
    matrix induces a fan map from the big log product to the small one."""
    matrix = projection_matrix(space.factors, keep)
    kept_pairs = [space.factors[i] for i in sorted(set(keep))]
    if len(kept_pairs) == 1:
        fan = kept_pairs[0].toric_fan(0)
        [(boundary, _)] = fan.labels
        target = LogProductSpace(tuple(kept_pairs), fan, (), ((0, boundary),))
    else:
        target = log_product(kept_pairs)
    return target, matrix
