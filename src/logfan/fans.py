"""Lattice cones, fans, stellar subdivision and fan maps.

All blow-up geometry in the package happens here: a fan is a finite set of
simplicial cones in Z^rank, closed under faces (faces are implicit subsets of
a cone's ray set), and a toric blow-up of an invariant stratum is the stellar
subdivision at the corresponding cone.

A fan has one representation, as in toric software (Macaulay2's
NormalToricVarieties gives each cone as indices into one ray list): its
distinct rays once, sorted, and each maximal cone as its sorted ray
indices with its lattice index, so index order is ray order.  Builders
and the JSON reader emit it through one private route, `Fan._built`, and
every check, the writer and the fan map read it; `Fan(rank, cones,
labels)`, the one public route in, validates.

Every check is exact integer arithmetic on the `linalg` core, with no
floats and no sampling: a cone's validity and smoothness come from the
index of its rays' lattice in its saturation (`lattice_index`, the
absolute determinant for a full-dimensional cone).  No built fan's cone
pays an elimination, as each builder's closed form proves its cones valid
and gives their indices (Cox-Little-Schenck, Toric Varieties, 3.3 and
11.1); a fan read from JSON pays one index computation per cone, or one
per class of cones whose ray matrices differ by a column permutation
(`fan_from_json`).  Up to rank 4 that computation, like a wall's normal,
is a closed-form cofactor expansion in `linalg`, not an elimination.

Both fan checks run on ray indices, read one index of the walls by
hyperplane (`_hyperplanes`) and count the cones over a point by the signs
of their walls, a point on a wall read as just off it on one fixed side
(`_cones_over`):
`check_face_closure` decides whether cones meet in common faces by
matching walls and scanning each boundary hyperplane once, and
`check_support_preserved` compares two supports by the jumps of their
cones' indicator functions across each wall hyperplane, one dimension
down; the `logproduct-support` case of `verify` runs it on a log product
and its product fan.  A lattice map induces a fan map when the images of
each source cone's rays lie in one target cone (`fan_map_witness`).  A
target cone surely holds an image that is 0 or a multiple of one of its
rays, which settles every cone of a log product's projections with no
solve; any other cone is a plain scan of the target cones, one exact
solve per image and target cone it tries.

Cones, fans and labels are immutable values on `values.FrozenValue`:
slotted, compared and hashed by their fields, with `Cone.det` left out.
Every operation returns a fresh Fan.
"""

from bisect import bisect_left
from functools import reduce
from itertools import chain, combinations, compress, repeat
from math import comb, gcd
from operator import attrgetter, eq, itemgetter, mul, or_

from .errors import (CenterNotInFan, FanSchemaError, InvalidCone,
                     RankMismatch, TooManySolves, TooMuchWallWork,
                     digit_limit, quote)
from .linalg import (lattice_index, mat_mul_vec, normal_vector, primitive,
                     solve_nonnegative)
from .values import FrozenValue

# Cap on the cone pairs of the pairwise face check, one exact solve each:
# P1^5 minus one cone (52,650 pairs, about 2.5 s) is checked, A1^6 minus
# one cone (258,121) is refused.  At the cap, 447 cones of A1^8 take about
# 14 s on a 2-core x86_64 host.
MAX_PAIRWISE_SOLVES = 100_000
# Cap on the face check's work bound for a pure fan, cones x rank^4: at
# worst one elimination of about rank^3 steps per wall, rank walls a cone,
# where each wall spans its own hyperplane; walls that share a hyperplane
# through ridges pay one between them (A1^7's 20,160 pay 28).  A1^8
# (40,320 cones of rank 8, 165,150,720) is checked in about 2 s, one dense
# unimodular cone of rank 118 in about 12 s, on a 2-core x86_64 host; one
# cone of rank 119 or more and the rank-10 log products of about 50,000
# cones are refused.
MAX_WALL_WORK = 200_000_000

BOUNDARY = "boundary"
EXCEPTIONAL = "exceptional"
STRICT_TRANSFORM = "strict_transform"


class DivisorLabel(FrozenValue):
    """Tag on a ray: boundary of a factor, exceptional of a blow-up step,
    or strict transform of an original boundary divisor."""
    __slots__ = ("kind", "arg")

    def __init__(self, kind, arg):
        if kind not in (BOUNDARY, EXCEPTIONAL, STRICT_TRANSFORM):
            raise FanSchemaError(f"unknown label kind {quote(kind)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "arg", arg)


def _check_cone(rays, d):
    """Raises InvalidCone unless the sorted `rays`, of lattice index `d`
    (None for rays of different lengths), span a cone.  Index 1 settles
    it: the rays are independent and primitive, as the gcd of a ray's
    entries divides every maximal minor.  Else the checks run in this
    order: distinct, nonzero and primitive rays, one length, and a nonzero
    index; the message quotes the rays by `errors.quote`."""
    if d == 1:
        return
    if len(set(rays)) != len(rays):
        raise InvalidCone(f"duplicate rays in {quote(rays)}")
    for r in rays:
        if not any(r):
            raise InvalidCone(f"zero ray {quote(r)} in {quote(rays)}")
        if primitive(r) != r:
            raise InvalidCone(f"ray {quote(r)} is not primitive")
    if d is None:
        raise InvalidCone(f"rays {quote(rays)} have different lengths")
    if d == 0:
        raise InvalidCone(f"rays {quote(rays)} are linearly dependent")


class Cone(FrozenValue):
    """Simplicial cone given by its primitive ray generators, all of one
    length, sorted lex.

    `det` is the index of the rays' lattice in its saturation, the gcd of
    their maximal minors (`lattice_index`): the absolute determinant of a
    square cone, k rays of length k.  It is left out of ==, hash and repr.
    `Cone(rays)` checks its input with one index computation; the cones a
    fan yields are views of its stored cones, made with no check.
    """
    __slots__ = ("rays", "det")
    _fields = ("rays",)

    def __init__(self, rays):
        rays = tuple(sorted(tuple(r) for r in rays))
        det = lattice_index(rays) if len({len(r) for r in rays}) < 2 else None
        _check_cone(rays, det)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "det", det)

    def __len__(self):
        return len(self.rays)


class Fan(FrozenValue):
    """Set of maximal simplicial cones, with optional ray labels.

    A fan stores its distinct rays once, sorted (`rays()`), and its
    maximal cones, sorted, each as its sorted ray indices with its lattice
    index; labels are a sorted tuple of (ray, label).  `cones` yields the
    stored cones as `Cone`s, made on first use; ==, hash and repr read
    `rank`, `cones` and `labels`.  `Fan(rank, cones, labels)` refuses what
    `fan_to_json` could not write back (`_check`); `Fan._built` takes the
    stored form and checks nothing.
    """
    __slots__ = ("rank", "labels", "_rays", "_at", "_det", "_cones")
    _fields = ("rank", "cones", "labels")

    def __init__(self, rank, cones, labels=()):
        cones = tuple(sorted(cones, key=attrgetter("rays")))
        rays = tuple(sorted({r for c in cones for r in c.rays}))
        index = {r: i for i, r in enumerate(rays)}
        self._store(rank, rays, [(tuple(map(index.__getitem__, c.rays)),
                                  c.det) for c in cones],
                    [(tuple(ray), lab) for ray, lab in labels], cones)
        self._check()

    @classmethod
    def _built(cls, rank, rays, cones, labels):
        """The fan on the sorted distinct `rays` with the maximal cones
        `cones`, (sorted ray indices, lattice index), and `labels`."""
        return object.__new__(cls)._store(rank, rays, cones, labels)

    def _store(self, rank, rays, cones, labels, views=None):
        at, det = tuple(zip(*sorted(cones))) or ((), ())
        object.__setattr__(self, "_cones", views)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_rays", rays)
        object.__setattr__(self, "_at", at)
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "labels", tuple(sorted(
            labels, key=lambda item: (item[0], item[1].kind, item[1].arg))))
        return self

    def _check(self):
        """Raises FanSchemaError, in this order, on a cone listed twice, a
        ray whose length is not `rank`, a second label on one ray and a
        label on a ray no cone holds: the first offender in sorted order."""
        at, rays, labels, rank = self._at, self._rays, self.labels, self.rank
        twice = next(compress(at, map(eq, at, at[1:])), None)
        if twice is not None:
            raise FanSchemaError(f"cone {quote(self._cone_rays(twice))} "
                                 f"listed twice")
        if not {rank}.issuperset(map(len, rays)):
            # a cone's rays have one length, so its first ray tells
            bad = next(c for c in at if c and len(rays[c[0]]) != rank)
            raise FanSchemaError(f"cone {quote(self._cone_rays(bad))} has a "
                                 f"ray whose length is not the rank {rank}")
        on = list(map(itemgetter(0), labels))
        second = next(compress(labels[1:], map(eq, on, on[1:])), None)
        if second is not None:
            ray, lab = second
            raise FanSchemaError(f"the label {quote(lab)} is a second "
                                 f"label on the ray {quote(ray)}")
        if labels and not set(rays).issuperset(on):
            ray, lab = next(item for item in labels if item[0] not in rays)
            raise FanSchemaError(
                f"the label {quote(lab)} is on the ray {quote(ray)}, "
                f"which no cone holds")

    def _cone_rays(self, at):
        return tuple(map(self._rays.__getitem__, at))

    @property
    def cones(self):
        if self._cones is None:
            ray, views = self._rays.__getitem__, []
            set_rays, set_det = Cone.rays.__set__, Cone.det.__set__
            for at, det in zip(self._at, self._det):
                views.append(object.__new__(Cone))
                set_rays(views[-1], tuple(map(ray, at)))
                set_det(views[-1], det)
            object.__setattr__(self, "_cones", tuple(views))
        return self._cones

    def rays(self):
        return self._rays

    def exceptional_count(self):
        return sum(1 for _, lab in self.labels if lab.kind == EXCEPTIONAL)

    def open_cone_count(self):
        """Maximal cones holding no labelled ray.  For a toric pair (X, D)
        these are the torus-fixed points of U = X minus D, so the count
        is the Euler characteristic e(U)."""
        labelled = {bisect_left(self._rays, ray) for ray, _ in self.labels}
        return sum(1 for c in self._at if labelled.isdisjoint(c))


def _union(a, b):
    """The sorted table of the distinct rays of the ray tables `a` and `b`,
    and the places in it of a's rays and of b's.  Timsort merges sorted
    tables in one linear pass."""
    rays = tuple(dict.fromkeys(sorted([*a, *b])))
    return (rays, list(map(bisect_left, repeat(rays), a)),
            list(map(bisect_left, repeat(rays), b)))


def _place(rays, ray):
    """The index of `ray` in the sorted table `rays`, else len(rays)."""
    i = bisect_left(rays, ray)
    return i if rays[i:i + 1] == (ray,) else len(rays)


def is_smooth(cone, ambient_rank):
    """True when the `Cone`'s rays extend to a basis of Z^ambient_rank.

    A cone whose rays do not have length `ambient_rank` raises
    RankMismatch.  Otherwise the cone is smooth exactly when the index it
    keeps, the gcd of its rays' maximal minors, is 1; for a
    full-dimensional cone that is |det| = 1 (Cox-Little-Schenck, Toric
    Varieties, 1.2).
    """
    if cone.rays and len(cone.rays[0]) != ambient_rank:
        raise RankMismatch(f"cone {quote(cone.rays)} does not lie in "
                           f"Z^{ambient_rank}")
    return cone.det == 1


def star_subdivide(fan, center):
    """Stellar subdivision of `fan` at the `Cone` `center`.

    The new ray is the primitive multiple of the sum of the center's ray
    generators (the barycentric convention); every maximal cone containing
    the center is replaced by its standard stellar decomposition.  The
    support is unchanged and the new ray is labeled Exceptional with the
    next blow-up step index.

    No new cone is eliminated: with s the sum of the center's rays and g
    the gcd of its entries, replacing a center ray r by s is a
    unitriangular change of the cone's rays (s = r + the other center
    rays), which keeps the lattice, and then s by the primitive s / g adds
    s / g to a basis vector of it, a lattice g times larger with the same
    saturation.  So each new cone is valid with index `cone.det // g`.
    A new ray that is not a ray of the fan makes distinct new cones and a
    label on a fresh ray, so only a ray of the fan checks the result.
    """
    if len(center) < 2:
        raise CenterNotInFan("subdivision center needs at least two rays")
    total = tuple(map(sum, zip(*center.rays)))
    g = gcd(*total)
    new_ray = tuple(x // g for x in total)
    table = fan.rays()
    at = [_place(table, r) for r in center.rays]
    inside = set(at)  # a ray off the table gets an index no cone holds
    rays, old, (new,) = _union(table, (new_ray,))
    cones = []
    for idx, det in zip(fan._at, fan._det):
        if inside.issubset(idx):
            cones += [(tuple(sorted([old[i] for i in idx if i != dropped]
                                    + [new])), det // g) for dropped in at]
        else:
            cones.append((tuple(map(old.__getitem__, idx)), det))
    if len(cones) == len(fan._at):  # no cone held the center
        raise CenterNotInFan(f"{quote(center.rays)} is not a cone of the fan")
    step = fan.exceptional_count()
    labels = fan.labels + ((new_ray, DivisorLabel(EXCEPTIONAL, step)),)
    subdivided = Fan._built(fan.rank, rays, cones, labels)
    if len(rays) == len(table):  # the new ray is a ray of the fan
        subdivided._check()
    return subdivided


def product_fan(f, g, offset=0):
    """Direct product of two fans; maximal cones are pairwise direct sums.

    `offset` is added to the factor index of every boundary/strict-transform
    label of `g`, so labels survive repeated products; its one nonzero
    caller is the fancheck workload's set-up, bench/workloads.py:220.  The
    point fan Fan(0, (Cone(()),)) is a unit; a fan with no cones gives no
    cones and no labels.

    No cone is eliminated: a product cone's lattice is the direct sum of
    its factor cones' lattices, and so is its saturation, so its index is
    `a.det * b.det`, and it is valid as both factors are.  A product
    cone's indices are its factors' indices read through the merge of the
    two padded ray tables.
    """
    if not (f._at and g._at):
        return Fan(f.rank + g.rank, ())
    zf, zg = (0,) * f.rank, (0,) * g.rank
    rays, at_f, at_g = _union([r + zg for r in f.rays()],
                              [zf + r for r in g.rays()])
    cones = [(tuple(sorted([*map(at_f.__getitem__, a),
                            *map(at_g.__getitem__, b)])), da * db)
             for a, da in zip(f._at, f._det) for b, db in zip(g._at, g._det)]
    labels = [(ray + zg, lab) for ray, lab in f.labels]
    for ray, lab in g.labels:
        if lab.kind in (BOUNDARY, STRICT_TRANSFORM):
            lab = DivisorLabel(lab.kind, lab.arg + offset)
        labels.append((zf + ray, lab))
    # distinct pairs of distinct factor cones give distinct cones, with
    # rays of length f.rank + g.rank, and each factor labels only rays its
    # cones hold, once each, so the checks of `Fan(...)` pass
    return Fan._built(f.rank + g.rank, rays, cones, labels)


def fan_map_witness(source, target, lattice_map):
    """The first cone of `source.cones` that `lattice_map` sends into no
    cone of `target`, as (cone, images) with the images of its rays in
    ray order; None when every source cone lands in some target cone.

    A linear map sends cone(rays) into a cone exactly when it sends each
    ray there.  Each source ray is mapped once, and its image p gets the
    bitmask of target cones that surely hold it, read off their ray
    indices: every cone for p = 0, else the cones with `primitive(p)` as a
    ray, found in the target's table by bisection, as p is a positive
    multiple of it.  A source cone whose images' masks share a bit maps
    into that cone with no solve.  Every other cone is one plain scan of
    the target cones: an image is held when its mask says so, else when
    `solve_nonnegative` on the target cone's rays finds it, which may put
    it on a wall.  The masks only prove "holds", so the answer is exact
    for any target, fan or not, and skip solves of the plain scan without
    adding any.  A matrix whose shape is not target.rank x source.rank
    raises RankMismatch.
    """
    rows = tuple(tuple(r) for r in lattice_map)
    if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
        raise RankMismatch(
            f"matrix is {len(rows)}x{len(rows[0]) if rows else 0}, "
            f"expected {target.rank}x{source.rank}")
    table = target.rays()
    every = (1 << len(target._at)) - 1
    on_ray = [0] * (len(table) + 1)  # the last for an image on no ray
    for i, idx in enumerate(target._at):
        for j in idx:
            on_ray[j] |= 1 << i
    image = [mat_mul_vec(rows, r) for r in source.rays()]
    sure = [on_ray[_place(table, primitive(p))] if any(p) else every
            for p in image]
    for k, idx in enumerate(source._at):
        mask = every
        for i in idx:
            mask &= sure[i]
        if mask:
            continue
        if not any(all(sure[i] >> t & 1
                       or solve_nonnegative(list(map(table.__getitem__, t_at)),
                                            image[i]) is not None
                       for i in idx)
                   for t, t_at in enumerate(target._at)):
            return source.cones[k], tuple(image[i] for i in idx)
    return None


def induces_fan_map(source, target, lattice_map):
    """True iff the matrix maps every source cone into some target cone.

    The rule (Cox-Little-Schenck, Toric Varieties, 3.3): the images of
    each source cone's rays lie in one target cone.  `fan_map_witness`
    reads that cone off the target's ray indices when each image is 0 or
    a multiple of one of its rays, as for the projections of a log
    product, and otherwise scans the target cones with one exact solve per
    image and cone it tries.
    """
    return fan_map_witness(source, target, lattice_map) is None


def _dot(u, x):
    return sum(map(mul, u, x))


def _hyperplanes(terms, rays, dim):
    """The walls of `terms`, pairs (c, indices) of an integer and the
    indices of `dim` linearly independent rays in the table `rays`,
    grouped by their hyperplane.

    A term's cone is the bitmask of its indices, a wall is that mask minus
    one bit, and a ridge is a wall minus one more.  Returns (planes,
    facets, normals): normals lists the primitive normal of each distinct
    hyperplane, first nonzero entry positive, and a hyperplane's id h is
    its place there; planes[h] lists (c * side, wall) for each term's wall
    on it, side +1 when the cone lies where the normal is positive, the
    side of the dropped ray; facets lists, term by term, (c, sides), with
    sides the ids 2h + (side > 0) of its walls: the cone is the set where
    side * (normal . x) >= 0 for each.

    Each ridge keeps the first dim - 1 distinct hyperplanes found through
    it.  A normal u found through the ridge wall - r is orthogonal to the
    ridge, so u . r = 0 makes it the wall's normal, which is unique; only
    where no normal on the wall's ridges passes is the wall eliminated
    (`normal_vector`).  So no wall pays more than one elimination and
    (dim - 1)^2 dot products, and walls on one hyperplane that meet in
    ridges, as a log product's do, pay one between them: A1^7's 20,160
    walls pay 28.  At rank <= 2 a wall's ridges are empty, shared by every
    wall, so none is tried.  Each product u . r is computed when a ridge
    test or a side first needs it and remembered, so none is computed
    twice and no table of every hyperplane against every ray is built.
    """
    normals, ids, dots = [], {}, []
    plane_of, through, planes, facets = {}, {}, [], []
    for c, idx in terms:
        mask = 0
        for i in idx:
            mask |= 1 << i
        sides = []
        for i in idx:
            wall = mask ^ 1 << i
            h = plane_of.get(wall)
            if h is None:
                ridges = ([(wall ^ 1 << j, j) for j in idx if j != i]
                          if dim > 2 else ())
                # the first normal through a ridge that fits the wall, else
                # one elimination
                for ridge, j in ridges:
                    for h in through.get(ridge, ()):
                        at = dots[h]
                        if j not in at:
                            at[j] = _dot(normals[h], rays[j])
                        if not at[j]:
                            break
                    else:
                        continue
                    break
                else:
                    u = normal_vector([rays[j] for j in idx if j != i], dim)
                    h = ids.setdefault(u, len(normals))
                    if h == len(normals):
                        normals.append(u)
                        planes.append([])
                        dots.append({})
                for ridge, _ in ridges:
                    found = through.get(ridge, ())
                    if len(found) < dim - 1 and h not in found:
                        through[ridge] = found + (h,)
                plane_of[wall] = h
            at = dots[h]
            if i not in at:
                at[i] = _dot(normals[h], rays[i])
            side = at[i] > 0
            planes[h].append((c if side else -c, wall))
            sides.append(2 * h + side)
        facets.append((c, sides))
    return planes, facets, normals


def _cones_over(normals, facets, point):
    """The sum of the coefficients c of the full-dimensional simplicial
    cones, given by `_hyperplanes` facets (c, sides), that hold a point
    just off `point` and on none of the hyperplanes of `normals`.  The
    sign of u . p is read once per hyperplane, u . p = 0 read as negative,
    and a cone holds the point exactly when it is on the cone's side of
    each of its walls: when the point's side ids hold the cone's.

    The count is exact at p - d w, w = (1, e, ..., e^(n-1)), for small
    e > 0 and a still smaller d > 0 (Edelsbrunner and Mucke, Simulation of
    Simplicity, ACM TOG 9, 1990).  Every normal's first nonzero entry is
    positive (`normal_vector`), so for small e every normal u has
    u . w > 0.  For small d, u . (p - d w) then has the sign of u . p where
    that is nonzero and is negative where it is 0, so p - d w has the wall
    signs read and lies on no hyperplane.
    """
    above = {2 * h + (_dot(u, point) > 0) for h, u in enumerate(normals)}
    return sum(c for c, sides in facets if above.issuperset(sides))


def _meet_in_face(a, b, rays, rank):
    """True when the cones on ray indices `a` and `b` meet in a face.

    They do not exactly when (0,...,0,1) is a nonnegative combination of
    the columns [r;1] (r in A-B), [-r;1] (r in B-A) and [+-s;0] (s shared):
    a point of both cones with positive mass off the shared rays.  One
    exact solve decides it, whatever the columns' rank.
    """
    shared = [i for i in a if i in b]
    columns = ([rays[i] + (1,) for i in a if i not in shared]
               + [tuple(-x for x in rays[i]) + (1,) for i in b
                  if i not in shared]
               + [rays[i] + (0,) for i in shared]
               + [tuple(-x for x in rays[i]) + (0,) for i in shared])
    return solve_nonnegative(columns, (0,) * rank + (1,)) is None


def check_face_closure(fan):
    """True when every two maximal cones meet in a common face.

    Exact over the integers (`linalg`): no floats, tolerances or external
    solvers.

    A pure fan, where every cone has `rank` rays, is decided by its walls,
    which `_hyperplanes` lists once: a wall is a cone's bitmask of ray
    indices minus one bit, its normal u is its primitive normal, read off
    a normal already found through one of its ridges or else from one
    elimination, and the cone lies on the side of u where its dropped ray
    is.  Before any elimination, a pure fan whose work bound, cones x
    rank^4 (at worst an elimination per wall; walls sharing a hyperplane
    through ridges pay one between them), is above `MAX_WALL_WORK` raises
    TooMuchWallWork.

    1. If a (side, wall) entry repeats on a hyperplane, two cones lie on
       one side of a wall and overlap next to it: False.  Three cones on
       one wall force two of them onto the same side.
    2. Each boundary hyperplane, a (normal, side) pair of a wall that only
       one cone has, is scanned once against the rays of the fan.  If
       every ray lies on that closed side of each, the answer is whether
       exactly one cone contains a point inside the first cone and on no
       wall's hyperplane.  Proof sketch: the support then has no boundary
       but those walls, so it is the intersection of their half-spaces,
       convex, and its interior meets no single-cone wall.  Along a path in
       the interior that avoids codimension-2 faces, the number of cones
       containing a point changes only across a wall, and across a wall
       shared by two cones on opposite sides one cone is left as the other
       is entered.  So one cone over p means one cone over every generic
       interior point: the cones' interiors are disjoint, and with every
       wall matched they meet in common faces, as cones meeting in a common
       face are exactly those a hyperplane separates along it
       (Cox-Little-Schenck, Toric Varieties, Lemma 1.2.13).  The point is
       the one `_cones_over` reads just off p, the sum of the first cone's
       rays: p is inside that cone, so the point is too, and it lies on no
       wall's hyperplane.  `_cones_over` reads the sign of u . p once per
       hyperplane against the sides `_hyperplanes` lists, with no solve.
    3. Every other input, a fan that is not pure or a single-cone wall
       that cuts the support (a non-convex support, or overlapping
       pieces), is checked pair by pair with `_meet_in_face`, one exact
       solve per pair.  Before any of them, a fan of more than
       `MAX_PAIRWISE_SOLVES` pairs raises TooManySolves.
    """
    cones, rays = fan._at, fan.rays()
    if cones and all(len(c) == fan.rank for c in cones):
        work = len(cones) * fan.rank ** 4
        if work > MAX_WALL_WORK:
            raise TooMuchWallWork(
                f"the face check of {len(cones)} cones of rank {fan.rank} "
                f"bounds its wall work at {work:,} (cones x rank^4), more "
                f"than {MAX_WALL_WORK:,}")
        planes, facets, normals = _hyperplanes([(1, c) for c in cones],
                                               rays, fan.rank)
        boundary = []
        for h, entries in enumerate(planes):
            up = {wall for side, wall in entries if side > 0}
            down = {wall for side, wall in entries if side < 0}
            if len(up) + len(down) < len(entries):
                return False
            if not up <= down:
                boundary.append((h, 1))
            if not down <= up:
                boundary.append((h, -1))
        if all(side * _dot(normals[h], x) >= 0
               for h, side in boundary for x in rays):
            point = tuple(map(sum, zip(*map(rays.__getitem__, cones[0]))))
            return _cones_over(normals, facets, point) == 1
    pairs = comb(len(cones), 2)
    if pairs > MAX_PAIRWISE_SOLVES:
        raise TooManySolves(
            f"the pairwise face check of {len(cones)} cones of rank "
            f"{fan.rank} needs {pairs:,} exact solves, one per pair, more "
            f"than {MAX_PAIRWISE_SOLVES:,}")
    return all(_meet_in_face(a, b, rays, fan.rank)
               for a, b in combinations(cones, 2))


def check_support_preserved(before, after):
    """True when the fans `before` and `after` have the same support.

    A log modification, such as a log product over the product of its
    factors' fans, keeps the support; `verify`'s `logproduct-support`
    case checks that, and that dropping a cone loses it.

    Exact over the integers, like `check_face_closure`.  Both fans must
    have the same rank (else RankMismatch) and every cone `rank` rays
    (else ValueError): the check compares full-dimensional supports.

    Precondition: each fan's cones meet in common faces (disjoint
    interiors suffice), so the sum of a fan's cone indicator functions is
    the indicator of its support off a null set.  Two supports, unions of
    full-dimensional closed cones, are equal exactly when they agree off a
    null set, so the answer is whether the sum over `before` minus the sum
    over `after` vanishes almost everywhere, which `_vanishes` decides.
    """
    if before.rank != after.rank:
        raise RankMismatch(f"cannot compare the supports of fans of rank "
                           f"{before.rank} and {after.rank}")
    rank = before.rank
    for fan in (before, after):
        for at in filter(lambda at: len(at) != rank, fan._at):
            raise ValueError(f"the support check needs {rank} rays per "
                             f"cone, and {quote(fan._cone_rays(at))} has "
                             f"{len(at)}")
    rays, at_before, at_after = _union(before.rays(), after.rays())
    merged = _merged([(c, tuple(map(place.__getitem__, at)))
                      for c, fan, place in ((1, before, at_before),
                                            (-1, after, at_after))
                      for at in fan._at])
    return _vanishes([(c, key) for key, c in merged.items()],
                     dict(enumerate(rays)), rank)


def _merged(terms):
    """{key: the sum of the c of its (c, key) terms}, zero sums left
    out."""
    merged = {}
    for c, key in terms:
        merged[key] = merged.get(key, 0) + c
    return {key: c for key, c in merged.items() if c}


def _vanishes(terms, rays, dim):
    """True when f = sum c * 1_cone over `terms`, pairs (c, indices) of a
    nonzero integer and the indices of `dim` linearly independent rays in
    Q^dim in the dict `rays`, one pair per cone, is 0 almost everywhere.
    Below rank 2 the cones are the origin or distinct half-lines, so f is
    0 only with no terms.

    f is constant on each chamber of the arrangement of the hyperplanes
    through its cones' walls (Barvinok, Integer Points in Polyhedra, 2008,
    ch. 2-3, the algebra of indicator functions of cones).  Crossing one
    hyperplane H with normal u at a point x on no other one, f jumps by
    g_H(x) = sum c * side * 1_W(x) over the walls W in H, where side is
    +1 when the wall's cone lies where u is positive: a cone without a
    wall in H holds both x + eps u and x - eps u or neither.  The chambers
    are joined by such crossings, so f is constant almost everywhere
    exactly when every g_H is 0 almost everywhere on H.  Dropping a
    coordinate where u is nonzero maps H linearly and isomorphically onto
    Q^(dim - 1), walls onto full-dimensional cones, so that is the same
    question one dimension down; the map is injective, so the projected
    rays on H keep their indices, and equal walls are equal masks.  The
    terms (c * side, W) of each g_H are the entries `_hyperplanes` lists
    under H's id, merged by mask (`_merged`), at most one elimination per
    distinct wall and, where walls on H meet in ridges, one for many.  The
    constant is f at any point off every hyperplane: `_cones_over` at the
    one it reads just off the origin, with no solve.
    """
    if not terms:
        return True
    if dim < 2:
        return False
    jumps, facets, normals = _hyperplanes(terms, rays, dim)
    for h, walls in enumerate(jumps):
        walls = _merged(walls)
        if walls:
            j = next(k for k, x in enumerate(normals[h]) if x)
            on = reduce(or_, walls)
            below = {i: primitive(r[:j] + r[j + 1:])
                     for i, r in rays.items() if on >> i & 1}
            if not _vanishes([(c, [i for i in below if wall >> i & 1])
                              for wall, c in walls.items()], below, dim - 1):
                return False
    return _cones_over(normals, facets, (0,) * dim) == 0


def fan_to_json(fan):
    """Serialize to the documented schema:
    {"rank": int, "rays": [[int]], "cones": [[ray-index]],
     "labels": {ray-index: {"kind": str, "arg": int}}}.

    The fan's stored form is written as it is: its sorted ray table and
    the sorted cones, each as its sorted ray indices.
    """
    rays = fan.rays()
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in rays],
        "cones": [list(c) for c in fan._at],
        "labels": {str(bisect_left(rays, ray)): {"kind": lab.kind,
                                                  "arg": lab.arg}
                   for ray, lab in fan.labels},
    }


def _json_field(data, key, kind, default=None):
    value = data.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FanSchemaError(f"fan JSON needs {key!r} as {kind.__name__}")
    return value


def _json_ints(value, what, length=None, bound=None):
    """Raises FanSchemaError unless `value` is a list of ints, `length` of
    them or each in 0..`bound` - 1."""
    if (not isinstance(value, list)
            or (length is not None and len(value) != length)
            or not all(type(x) is int and (bound is None or 0 <= x < bound)
                       for x in value)):
        expect = (f"{length} integers" if bound is None
                  else f"ray indices in 0..{bound - 1}" if bound
                  else "ray indices, and the JSON lists no rays")
        raise FanSchemaError(f"fan JSON {what} {quote(value)} is not a list "
                             f"of {expect}")


def _json_rows(rows, what, length=None, bound=None):
    """Checks every entry of `rows` as `_json_ints` does, by builtins over
    all of them at once: each is a list, of `length` items if given, and
    every item is exactly an int, in 0..`bound` - 1 if given.  Returns the
    set of the items.  Only where this pass fails are the rows walked, to
    raise `_json_ints`'s message for the first bad one."""
    if (all(map(isinstance, rows, repeat(list)))
            and (length is None or {length}.issuperset(map(len, rows)))
            and {int}.issuperset(map(type, chain.from_iterable(rows)))):
        items = set(chain.from_iterable(rows))
        if bound is None or (min(items, default=0) >= 0
                             and max(items, default=-1) < bound):
            return items
    for value in rows:
        _json_ints(value, what, length, bound)


def _index_key(rays):
    """The columns of the sorted `rays`, sorted.  Two ray tuples of one
    count with one key are matrices that differ by a column permutation,
    which permutes the maximal minors up to sign and so keeps
    `lattice_index`, 0 for dependent rays included."""
    return tuple(sorted(zip(*rays)))


def fan_from_json(data):
    """Inverse of `fan_to_json`.

    Data off the schema raise FanSchemaError, a ValueError: a missing
    key, an entry of the wrong type, a ray of the wrong length, a ray
    index outside the ray list (negative indices included), a cone listed
    twice, a label key that is not a ray index in ASCII digits, an unknown
    label kind, or a label `fan_to_json` could not write back: on a ray
    no cone holds, or a second one on a ray ("0" and "00" name one ray,
    as does a ray listed twice).  Invalid cones raise InvalidCone.

    The checks run in this order: the object and its rank; the schema of
    every ray, then of every cone, each in one pass of builtins over all
    entries (`_json_rows`), so a malformed cone anywhere is refused before
    any cone's geometry is read; each cone's checks as `Cone(rays)` runs
    them, cone by cone; the labels; and a cone listed twice (`Fan._check`).

    The cones keep the indices read, through the sorted table of the rays
    they hold, where a ray listed twice is one entry.  A cone's index is
    `lattice_index` of its rays.  Where two coordinates have the same
    sorted column of ray values, as a coordinate permutation of the ray
    set needs, cones with one `_index_key` share one `lattice_index`, so
    A1^6's 720 cones pay 1; else each cone pays its own.
    """
    if not isinstance(data, dict):
        raise FanSchemaError("fan JSON must be an object")
    rank = _json_field(data, "rank", int)
    if rank < 0:
        raise FanSchemaError("fan JSON rank must be nonnegative")
    rays = _json_field(data, "rays", list)
    _json_rows(rays, "ray", length=rank)
    rays = list(map(tuple, rays))
    listed = _json_field(data, "cones", list)
    indices = _json_rows(listed, "cone", bound=len(rays))
    held = set(map(rays.__getitem__, indices))
    table = tuple(sorted(held))
    place = list(map(bisect_left, repeat(table), rays))
    # a coordinate permutation of the ray set needs two coordinates with
    # one sorted column of values, and only then are indices shared; two
    # columns make rank >= 2, so a key's columns give its ray count
    columns = [tuple(sorted(c)) for c in zip(*table)]
    if len(set(columns)) < len(columns):
        shared = {}

        def det_of(cone_rays):
            key = _index_key(cone_rays)
            det = shared.get(key)
            if det is None:
                det = shared[key] = lattice_index(cone_rays)
            return det
    else:
        det_of = lattice_index
    cones = []
    for c in listed:
        at = tuple(sorted(map(place.__getitem__, c)))
        cone_rays = tuple(map(table.__getitem__, at))
        det = det_of(cone_rays)
        _check_cone(cone_rays, det)
        cones.append((at, det))
    labels = {}
    for i, d in _json_field(data, "labels", dict, {}).items():
        try:
            index = (int(i) if isinstance(i, str) and i.isascii()
                     and i.isdecimal() else -1)
        except ValueError:  # more digits than Python reads as an int
            index = -1
        if not (0 <= index < len(rays) and isinstance(d, dict)
                and type(d.get("arg")) is int):
            need = (f"a ray index in 0..{len(rays) - 1} and an int arg"
                    if rays else "a ray index and an int arg, and the JSON "
                    "lists no rays")
            raise FanSchemaError(f"fan JSON label {quote(i)}: {quote(d)} "
                                 f"needs {need}")
        if rays[index] not in held:
            raise FanSchemaError(f"fan JSON label {quote(i)} is on the ray "
                                 f"{quote(list(rays[index]))}, which no cone "
                                 f"holds")
        if rays[index] in labels:
            raise FanSchemaError(f"fan JSON label {quote(i)} is a second "
                                 f"label on the ray "
                                 f"{quote(list(rays[index]))}")
        labels[rays[index]] = DivisorLabel(d.get("kind"), d["arg"])
    fan = Fan._built(rank, table, cones, labels.items())
    if any(map(eq, fan._at, fan._at[1:])):  # a cone listed twice
        fan._check()
    return fan


def fan_dumps(fan):
    import json
    return json.dumps(fan_to_json(fan), sort_keys=True)


def fan_loads(text):
    """`fan_from_json` of JSON text; text nested too deeply for Python's
    JSON reader, or holding an integer of more digits than Python reads,
    raises FanSchemaError."""
    import json
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise FanSchemaError("fan JSON is nested too deeply") from exc
    except json.JSONDecodeError:
        raise
    except ValueError:  # an int literal past Python's digit limit
        raise FanSchemaError(f"fan JSON: {digit_limit('reading')}") from None
    return fan_from_json(data)
