"""Log products of toric pairs as nested-set fans.

The n-fold log product of pairs (X_i, D_i), n >= 1, is computed on the
fan level: the direct product fan blown up along every stratum where two
or more boundary divisors meet.  That building set is every subset of
factors of size >= 2, so its nested sets are chains and the blown-up fan
has a closed form (De Concini-Procesi 1995; Feichtner-Yuzvinsky 2004): a
product cone holding the boundary rays {b_i : i in I} becomes one cone
per maximal chain S_1 < ... < S_|I| = I, with those rays replaced by the
chain rays sum_{i in S_k} b_i.  One factor has no such subset, and the
form gives the factor's own fan with its boundary ray as the strict
transform.  `log_product` builds the fan from that form: every chain ray
and stratum ray is read from one table of the 2^n subset sums of the
b_i, and each cone keeps its product cone's determinant, as a chain
changes the boundary rays by a unitriangular matrix.

The iterated blow-up (one stellar subdivision per stratum, in an order
whose every prefix is a building set) lives only in
`order_independence_check`, which compares it with the closed form: two
independent constructions of the same fan.

Factors are complete P^n fans with the coordinate hyperplane e_1 as
boundary, the P^1 fan with a torus-fixed point, or the affine local model
(A^1, 0) used to reproduce the rank-3 barycentric picture.  A product
with more than MAX_CONES maximal cones, or a fan of rank above MAX_RANK,
is refused before it is built.

The pair model is one table, `_MODEL`, one entry per kind, read once per
`LogPair`; `hkr`, `kernels` and `toric_fan` read its slots, not its kind.
`fans` is imported only when a fan is built, so the pair grammar
(`LogPair`, `parse_pair`, `format_pair`) loads neither it nor `linalg`.
"""

from functools import reduce
from itertools import accumulate, combinations, permutations
from math import factorial
from operator import or_
import re

from .errors import (DimensionTooLarge, EmptyProjection,
                     NotABuildingSetOrder, NoToricModel, TooFewFactors,
                     TooManyCones, clip, printable, quote, read_int)
from .values import FrozenValue

# Largest number of maximal cones `log_product` builds: A1^8 (8! = 40320
# cones, about 0.15 s in process on a 2-core x86_64 host) fits, A1^9
# (362880) does not.
MAX_CONES = 50_000
# Largest rank of a fan `toric_fan` and `log_product` build: the sum of the
# factor dimensions, checked before any factor fan is built.  It also
# bounds the factor count n, so the 2^n subset sums of the boundary rays
# number at most 1024.  The largest products under both caps are rank-10
# ones, such as P2:H^3 x A1:0^4 (49,704 cones) and P4:H x P1:pt^6
# (48,929), each built in under 0.2 s in process on the same host.
MAX_RANK = 10


# The pair model: kind -> (param -> the slots of LogPair after its fields)
_MODEL = {
    "Pn:H": lambda n: (n, ("Pn", n), ((-1, n),), "Pn", True),
    "P1:pt": lambda _: (1, ("Pn", 1), ((-1, 1),), "Pn", True),
    "Cg:pt": lambda g: (1, ("curve", g), ((2 * g - 1, 1),), None, False),
    "A1:0": lambda _: (1, None, None, "A1", False),
}


class LogPair(FrozenValue):
    """A pair (X, D): projective space with a coordinate hyperplane, a
    torus-fixed point on P^1 (also spelled `P1:H` or `C0:pt`, the same
    value), a pointed genus-g curve, or the affine local model (A^1, 0).
    The fields are `kind` and `param`; the other slots, set once, are the
    kind's `_MODEL` entry at `param`: `dim`; `host`, the cohomology host
    as a (cohomology.Space kind, param) tuple, None when not projective;
    `cotangent`, the log cotangent split model, the sum of its terms
    O(d)^c, as a tuple of (d, c), None when not projective; `shape`, the
    toric fan's, "Pn", "A1" or None; and `scalar`, whether log Hochschild
    homology is {0: 1}."""
    __slots__ = ("kind", "param", "dim", "host", "cotangent", "shape",
                 "scalar")
    _fields = ("kind", "param")

    def __init__(self, kind, param=0):
        if kind not in _MODEL:
            raise ValueError(f"unknown pair kind {kind!r}")
        if kind == "Pn:H" and param < 1:
            raise ValueError("projective space needs dimension >= 1")
        if kind == "Cg:pt" and param < 0:
            raise ValueError("genus must be nonnegative")
        if kind in ("P1:pt", "A1:0") and param != 0:
            raise ValueError(f"{kind} takes no parameter")
        if (kind, param) in (("Pn:H", 1), ("Cg:pt", 0)):
            kind, param = "P1:pt", 0
        for name, value in zip(self.__slots__,
                               (kind, param, *_MODEL[kind](param))):
            object.__setattr__(self, name, value)

    def toric_fan(self, factor=0):
        """Complete fan of the factor with the boundary ray labeled.

        P^n: rays e_1..e_n and -(e_1+..+e_n), boundary e_1, maximal cones
        all n-subsets.  (A^1, 0) is the single octant ray.  Pointed curves
        of genus > 0 have no fan.  A rank above MAX_RANK raises
        DimensionTooLarge before any cone is built.

        Every cone has index 1, with no elimination: the octant ray is
        e_1, and n of the rays of P^n are e_1..e_n or, with one e_j
        replaced by -(e_1+..+e_n), a change of basis of determinant -1.
        """
        from .fans import BOUNDARY, Cone, DivisorLabel, Fan
        if self.shape is None:
            raise NoToricModel(
                f"{clip(format_pair(self))} has no toric local model")
        n = self.dim
        _check_rank(n)
        boundary = tuple(1 if i == 0 else 0 for i in range(n))
        if self.shape == "A1":
            ray_sets = [(boundary,)]
        else:
            rays = [tuple(1 if i == j else 0 for i in range(n))
                    for j in range(n)]
            rays.append(tuple(-1 for _ in range(n)))
            ray_sets = combinations(rays, n)
        cones = tuple(Cone._known_valid(sub, 1) for sub in ray_sets)
        labels = ((boundary, DivisorLabel(BOUNDARY, factor)),)
        return Fan(n, cones, labels)


def _check_rank(rank):
    if rank > MAX_RANK:
        raise DimensionTooLarge(printable(
            lambda: f"a fan of rank {clip(rank)} is above the cap of rank "
                    f"{MAX_RANK}",
            f"a fan's rank is above the cap of rank {MAX_RANK}"))


PAIR_RE = re.compile(r"^(P(\d+):H|P1:pt|C(\d+):pt|A1:0)$")


def parse_pair(text):
    m = PAIR_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse pair {quote(text)}")
    if m.group(2) is not None:
        return LogPair("Pn:H", read_int(m.group(2)))
    if m.group(3) is not None:
        return LogPair("Cg:pt", read_int(m.group(3)))
    return LogPair(m.group(1))


def format_pair(pair):
    if pair.kind == "Pn:H":
        return f"P{pair.param}:H"
    if pair.kind == "Cg:pt":
        return f"C{pair.param}:pt"
    return pair.kind


def building_set(n):
    """Default blow-up order: all subsets of {0..n-1} of size >= 2,
    by decreasing size, then lexicographically; empty for n = 1."""
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


class LogProductSpace(FrozenValue):
    """The log product fan together with divisor bookkeeping.

    `stratum_ray` maps each blown-up stratum (a frozenset of factor
    indices) to its exceptional ray, as ((frozenset, ray), ...);
    `strict_transforms` maps each factor index to the ray of the strict
    transform of its boundary divisor, as ((factor index, ray), ...).
    """
    __slots__ = ("factors", "fan", "stratum_ray", "strict_transforms")

    def __init__(self, factors, fan, stratum_ray, strict_transforms):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "stratum_ray", stratum_ray)
        object.__setattr__(self, "strict_transforms", strict_transforms)


def _cone_count(factor_fans):
    """Number of maximal cones of the log product of `factor_fans`.

    With w_i (v_i) the number of factor i's cones that hold (miss) its
    boundary ray, a product cone holding the boundary rays of the factors
    in I has |I|! maximal chains, so the count is sum_k k! e_k, where e_k
    sums prod_{i in I} w_i prod_{j not in I} v_j over the k-subsets I.
    """
    e = [1]
    for ff in factor_fans:
        v = ff.open_cone_count()
        w = len(ff.cones) - v
        e = [x * v + y * w for x, y in zip(e + [0], [0] + e)]
    return sum(factorial(k) * x for k, x in enumerate(e))


def _product(pairs, order):
    """The product fan, its boundary ray per factor and the checked order
    (`building_set(n)` when None); the rank cap is checked first, then the
    cone cap."""
    from .fans import product_fan
    n = len(pairs)
    if not n:
        raise TooFewFactors("log product needs at least one factor")
    _check_rank(sum(p.dim for p in pairs))
    factor_fans = [p.toric_fan(i) for i, p in enumerate(pairs)]
    count = _cone_count(factor_fans)
    if count > MAX_CONES:
        raise TooManyCones(f"the log product has {count} maximal cones, "
                           f"more than the cap of {MAX_CONES}")
    if order is not None and not is_valid_order(order, n):
        raise NotABuildingSetOrder(
            "sequence is not a valid building-set order")
    order = [frozenset(s) for s in order or building_set(n)]
    fan = reduce(product_fan, factor_fans)
    boundary = {lab.arg: ray for ray, lab in fan.labels}
    return fan, boundary, order


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _subset_sums(rays):
    """Every sum of a subset of `rays`, indexed by the subset's bitmask:
    2^n sums, each one addition from the sum without its lowest bit."""
    ray_of = [(0,) * len(rays[0])]
    for mask in range(1, 1 << len(rays)):
        low = mask & -mask
        ray_of.append(_add(ray_of[mask ^ low], rays[low.bit_length() - 1]))
    return ray_of


def log_product(pairs, order=None):
    """Log product of the given toric pairs, n >= 1 of them, as a
    LogProductSpace; no pair at all raises TooFewFactors.

    The fan is the nested-set closed form (see the module docstring), so
    it does not depend on `order`.  `order` only numbers the exceptional
    labels: stratum S, whose ray is sum_{i in S} b_i, is labelled
    Exceptional(index of S in the order).  It must be a valid
    building-set order on all subsets of size >= 2, else
    NotABuildingSetOrder is raised; the default is `building_set(n)`.
    Each boundary ray b_i is labelled StrictTransform(i).  More than
    MAX_CONES maximal cones raises TooManyCones, and a rank above MAX_RANK
    DimensionTooLarge, before anything is built.
    """
    from .fans import EXCEPTIONAL, STRICT_TRANSFORM, Cone, DivisorLabel, Fan
    fan, boundary, order = _product(pairs, order)
    ray_of = _subset_sums([boundary[i] for i in range(len(pairs))])
    bit = {ray: 1 << i for i, ray in boundary.items()}
    chains = {}
    cones = []
    for cone in fan.cones:
        inside = sum(bit.get(r, 0) for r in cone.rays)
        if inside not in chains:
            bits = [b for b in bit.values() if b & inside]
            chains[inside] = [tuple(map(ray_of.__getitem__,
                                        accumulate(p, or_)))
                              for p in permutations(bits)]
        rest = tuple(r for r in cone.rays if r not in bit)
        # the chains depend only on the boundary rays the cone holds; each
        # is a unitriangular change of them, so the new cone is valid and
        # keeps the product cone's lattice index
        cones += [Cone._known_valid(rest + chain, cone.det)
                  for chain in chains[inside]]
    stratum_ray = {s: ray_of[sum(1 << i for i in s)] for s in order}
    labels = [(ray, DivisorLabel(STRICT_TRANSFORM, i))
              for i, ray in boundary.items()]
    labels += [(stratum_ray[s], DivisorLabel(EXCEPTIONAL, step))
               for step, s in enumerate(order)]
    # every stratum ray and boundary ray lies in a chain, and each is
    # labelled once, so the labels pass the checks of `Fan(...)` too
    return LogProductSpace(
        tuple(pairs), Fan._known_valid(fan.rank, cones, labels),
        tuple(sorted(stratum_ray.items(), key=lambda kv: sorted(kv[0]))),
        tuple(sorted(boundary.items())))


def order_independence_check(pairs, order_a, order_b):
    """True when the iterated blow-up in each order gives the closed-form
    fan of `log_product`.

    Each order is simulated from the product fan: one `star_subdivide`
    per stratum, at the cone currently lying over it.  That cone starts as
    {b_i : i in S} and is rewritten whenever a blow-up centre lies in it.

    No centre is eliminated: every cone of every fan met here has index 1,
    as the factor fans' cones do, `product_fan` multiplies indices and
    `star_subdivide` keeps `det // g`, with g = 1 as the rays of a
    unimodular cone sum to a primitive vector.  A centre is a face of such
    a cone, and a subset of a basis extends to a basis, so its index is 1
    too.  The comparison with the closed form reads only the rays.
    """
    from .fans import Cone, star_subdivide
    expected = log_product(pairs).fan.cones
    for order in (order_a, order_b):
        fan, boundary, order = _product(pairs, order)
        tracked = {s: frozenset(boundary[i] for i in s) for s in order}
        for stratum in order:
            center = tracked[stratum]
            fan = star_subdivide(fan, Cone._known_valid(tuple(center), 1))
            for s, rays in tracked.items():
                if center <= rays:
                    tracked[s] = (rays - center) | {reduce(_add, center)}
        if fan.cones != expected:
            return False
    return True


def strict_transform_rays(space, i):
    """Decomposition of the total transform of the factor-i boundary:
    (strict transform ray, list of exceptional rays over strata containing
    the factor).  An index outside 0..n-1, n factors, raises ValueError."""
    n = len(space.factors)
    if not 0 <= i < n:
        raise ValueError(f"factor index {i} is not in 0..{n - 1}")
    strict = dict(space.strict_transforms)[i]
    exceptional = [ray for stratum, ray in space.stratum_ray
                   if i in stratum]
    return strict, exceptional


def projection_matrix(pairs, keep):
    """Lattice map for the projection of the log product onto the factors
    in `keep` (any nonempty subset of the factor indices 0..n-1, taken in
    sorted order); an index outside that range raises ValueError."""
    keep = sorted(set(keep))
    if not keep:
        raise EmptyProjection("projection must keep at least one factor")
    for i in keep:
        if not 0 <= i < len(pairs):
            raise ValueError(f"factor index {i} is not in "
                             f"0..{len(pairs) - 1}")
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
    """Log product of the kept factors, one or more, plus the projection
    matrix; the matrix induces a fan map from the big log product to the
    small one."""
    matrix = projection_matrix(space.factors, keep)
    kept_pairs = [space.factors[i] for i in sorted(set(keep))]
    return log_product(kept_pairs), matrix
