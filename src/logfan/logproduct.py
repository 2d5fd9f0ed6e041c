"""Log products of toric pairs as iterated blow-up fans.

The n-fold log product of pairs (X_i, D_i) is computed on the fan level:
start from the direct product fan, then blow up (stellar-subdivide) the
strata where several boundary divisors meet, highest codimension first.
Any blow-up order whose every prefix is a building set gives the same fan;
`order_independence_check` verifies that on the nose.

Factors are complete P^n fans with the coordinate hyperplane e_1 as
boundary, the P^1 fan with a torus-fixed point, or the affine local model
(A^1, 0) used to reproduce the rank-3 barycentric picture.
"""

from dataclasses import dataclass
from itertools import combinations
import re

from .errors import (EmptyProjection, NotABuildingSetOrder, NoToricModel,
                     TooFewFactors)
from .fans import (BOUNDARY, EXCEPTIONAL, STRICT_TRANSFORM, Cone,
                   DivisorLabel, Fan, product_fan, star_subdivide)


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

    @property
    def genus(self):
        """Genus when the pair is a curve; P^1 with a point counts as g=0."""
        if self.kind == "Cg:pt":
            return self.param
        if self.kind in ("P1:pt", "A1:0"):
            return 0
        raise ValueError(f"{format_pair(self)} is not a curve")

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

    def strict_transform_map(self):
        return dict(self.strict_transforms)


def log_product(pairs, order=None):
    """Log product of the given toric pairs, as a LogProductSpace.

    `order` optionally overrides the blow-up order; it must be a valid
    building-set order on all subsets of size >= 2, else
    NotABuildingSetOrder is raised.  Original boundary rays are relabelled
    StrictTransform(i) in the result.
    """
    n = len(pairs)
    if n < 2:
        raise TooFewFactors("log product needs at least two factors")
    factor_fans = [p.toric_fan(i) for i, p in enumerate(pairs)]

    fan = Fan(0, (Cone(()),))
    for ff in factor_fans:
        fan = product_fan(fan, ff)

    boundary = {}
    for ray, lab in fan.labels:
        if lab.kind == BOUNDARY:
            boundary[lab.arg] = ray

    if order is None:
        order = building_set(n)
    else:
        order = [frozenset(s) for s in order]
        if not is_valid_order(order, n):
            raise NotABuildingSetOrder(
                "sequence is not a valid building-set order")

    # Track, for each stratum not yet blown up, the cone currently lying
    # over it: it starts as {b_i : i in S} and is rewritten whenever a
    # blow-up center is contained in it.
    tracked = {s: frozenset(boundary[i] for i in s) for s in order}
    stratum_ray = {}
    for step, stratum in enumerate(order):
        center = Cone(tuple(tracked[stratum]))
        fan = star_subdivide(fan, center)
        new_ray = [ray for ray, lab in fan.labels
                   if lab.kind == EXCEPTIONAL and lab.arg == step][0]
        stratum_ray[stratum] = new_ray
        center_set = set(center.rays)
        for s, rays in tracked.items():
            if center_set <= rays:
                tracked[s] = (rays - center_set) | {new_ray}

    labels = tuple(
        (ray, DivisorLabel(STRICT_TRANSFORM, lab.arg)
         if lab.kind == BOUNDARY else lab)
        for ray, lab in fan.labels)
    fan = Fan(fan.rank, fan.cones, labels)
    return LogProductSpace(
        tuple(pairs), fan,
        tuple(sorted(stratum_ray.items(), key=lambda kv: sorted(kv[0]))),
        tuple(sorted((i, ray) for i, ray in boundary.items())))


def order_independence_check(pairs, order_a, order_b):
    """True when both orders yield the identical canonical fan."""
    fan_a = log_product(pairs, order_a).fan
    fan_b = log_product(pairs, order_b).fan
    return (fan_a.rank, fan_a.cones, fan_a.rays()) == \
           (fan_b.rank, fan_b.cones, fan_b.rays())


def strict_transform_rays(space, i):
    """Decomposition of the total transform of the factor-i boundary:
    (strict transform ray, list of exceptional rays over strata containing
    the factor)."""
    strict = space.strict_transform_map()[i]
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
