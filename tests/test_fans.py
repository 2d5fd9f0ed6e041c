from collections import Counter
from functools import cache
from itertools import combinations
import importlib.util
import itertools
import json
import math
import random
import sys
import time
from math import comb, gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logfan import fans, linalg
from logfan.cli import main
from logfan.errors import (QUOTE_LIMIT, CenterNotInFan, FanSchemaError,
                           InvalidCone, LogfanError, RankMismatch,
                           TooManySolves, TooMuchWallWork, quote)
from logfan.fans import (BOUNDARY, EXCEPTIONAL, Cone, DivisorLabel, Fan,
                         check_face_closure, check_support_preserved,
                         fan_dumps, fan_from_json, fan_loads, fan_map_witness,
                         fan_to_json, induces_fan_map, is_smooth,
                         product_fan, star_subdivide)
from logfan.linalg import mat_mul_vec, primitive
from logfan.logproduct import log_product, parse_pair, projection


def octant(rank):
    rays = tuple(tuple(1 if i == j else 0 for i in range(rank))
                 for j in range(rank))
    return Fan(rank, (Cone(rays),))


def p1_fan():
    return Fan(1, (Cone(((1,),)), Cone(((-1,),))),
               (((1,), DivisorLabel(BOUNDARY, 0)),))


class TestIsSmooth:
    def test_standard_basis(self):
        assert is_smooth(Cone(((1, 0), (0, 1))), 2)

    def test_determinant_two(self):
        assert not is_smooth(Cone(((1, 0), (1, 2))), 2)

    def test_lower_dimensional_cone(self):
        # (1,1,0) and (0,0,1) extend to a basis of Z^3
        assert is_smooth(Cone(((1, 1, 0), (0, 0, 1))), 3)
        # (2,0,0) alone is not primitive as a sublattice generator... but
        # rays must be primitive, so test a non-extendable pair instead
        assert not is_smooth(Cone(((1, 1, 0), (1, -1, 0))), 3)

    def test_dependent_rays_rejected(self):
        with pytest.raises(InvalidCone):
            Cone(((1, 0), (-1, 0)))

    def test_non_primitive_ray_rejected(self):
        with pytest.raises(InvalidCone):
            Cone(((2, 0),))

    @pytest.mark.parametrize("rays", [((1, 0, 0), (0, 1)), ((1,), (0, 1))])
    def test_mixed_ray_lengths_rejected(self, rays):
        with pytest.raises(InvalidCone, match="different lengths"):
            Cone(rays)

    @pytest.mark.parametrize("rays,rank", [
        (((1, 0), (0, 1)), 3), (((1, 0, 0),), 2),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2)])
    def test_ray_length_must_be_ambient_rank(self, rays, rank):
        with pytest.raises(RankMismatch):
            is_smooth(Cone(rays), rank)


def reference_cone_check(rays):
    """The checks of a cone's rays, in order, without `linalg`:
    distinct rays, nonzero and primitive rays, one length, independent
    rays (a nonzero maximal minor).  Messages quote rays by `quote`."""
    rays = tuple(sorted(rays))
    if len(set(rays)) != len(rays):
        raise InvalidCone(f"duplicate rays in {quote(rays)}")
    for r in rays:
        if not any(r):
            raise InvalidCone(f"zero ray {quote(r)} in {quote(rays)}")
        if primitive(r) != r:
            raise InvalidCone(f"ray {quote(r)} is not primitive")
    if len({len(r) for r in rays}) > 1:
        raise InvalidCone(f"rays {quote(rays)} have different lengths")
    if rays and minors_gcd(rays) == 0:
        raise InvalidCone(f"rays {quote(rays)} are linearly dependent")


def minors_gcd(rays):
    """gcd of the maximal minors of the rays, each by Laplace expansion
    along its first row: 0 exactly when the rays are dependent."""
    def minor(m):
        return sum((-1) ** j * x * minor([r[:j] + r[j + 1:] for r in m[1:]])
                   for j, x in enumerate(m[0])) if m else 1
    g = 0
    for cols in combinations(range(len(rays[0])), len(rays)):
        g = gcd(g, minor([[r[c] for c in cols] for r in rays]))
    return g


@st.composite
def ray_tuples(draw):
    """Rays with entries in -3..3, square (k rays of length k) more often
    than not, with one ray possibly replaced by a copy of another, the
    zero ray, a multiple of another, or a ray of a different length; or
    a unimodular square tuple, a signed permutation matrix with shears."""
    n = draw(st.integers(1, 4))
    k = draw(st.one_of(st.just(n), st.integers(0, 5)))
    entries = st.integers(-3, 3)
    if k == n and draw(st.booleans()):
        rays = [[int(i == j) * draw(st.sampled_from((1, -1)))
                 for j in range(n)] for i in draw(st.permutations(range(n)))]
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            c = draw(entries)
            if i != j:
                rays[i] = [a + c * b for a, b in zip(rays[i], rays[j])]
        rays = [tuple(r) for r in rays]
    else:
        rays = draw(st.lists(st.tuples(*[entries] * n),
                             min_size=k, max_size=k))
    if rays:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        change = draw(st.sampled_from(("none", "copy", "zero", "multiple",
                                       "length")))
        if change == "copy":
            rays[i] = rays[j]
        elif change == "zero":
            rays[i] = (0,) * n
        elif change == "multiple":
            rays[i] = tuple(draw(st.sampled_from((2, -2, 3))) * x
                            for x in rays[j])
        elif change == "length":
            rays[i] = tuple(draw(st.lists(entries, min_size=1, max_size=5)
                                 .filter(lambda r: len(r) != n)))
    return tuple(rays)


class TestConeChecks:
    @settings(max_examples=400, deadline=None)
    @given(ray_tuples())
    @example(((2, 0), (1, 0)))
    @example(((1, 0, 0), (0, 1, 0), (1, 1, 2)))
    @example(((1, 0), (-1, 0)))
    @example(((0, 0), (1, 0)))
    @example(())
    def test_same_verdict_as_reference(self, rays):
        """`Cone` raises the reference's error, type and message, or
        builds; `is_smooth` agrees with the gcd of maximal minors."""
        try:
            reference_cone_check(rays)
        except InvalidCone as exc:
            with pytest.raises(type(exc)) as ours:
                Cone(rays)
            assert type(ours.value) is type(exc)
            assert str(ours.value) == str(exc)
            return
        cone = Cone(rays)
        assert cone.rays == tuple(sorted(rays))
        if cone.rays:
            assert is_smooth(cone, len(cone.rays[0])) == \
                (minors_gcd(cone.rays) == 1)

    def test_non_primitive_ray_in_dependent_square_cone(self):
        with pytest.raises(InvalidCone, match="not primitive"):
            Cone(((2, 0), (1, 0)))

    def test_determinant_two_builds_and_is_not_smooth(self):
        cone = Cone(((1, 0, 0), (0, 1, 0), (1, 1, 2)))
        assert cone.det == 2
        assert not is_smooth(cone, 3)

    def test_dependent_square_cone_with_primitive_rays(self):
        with pytest.raises(InvalidCone, match="linearly dependent"):
            Cone(((1, 0), (-1, 0)))

    def test_zero_ray(self):
        with pytest.raises(InvalidCone, match=r"zero ray \(0, 0\) in "
                           r"\(\(0, 0\), \(1, 0\)\)"):
            Cone(((0, 0), (1, 0)))

    def test_determinant_is_not_part_of_the_value(self):
        a = Cone(((0, 1), (1, 0)))
        b = Cone(((1, 0), (0, 1)))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Cone(rays=((0, 1), (1, 0)))"
        assert Cone(((1, 0, 0),)).det == 1

    def test_determinant_is_absolute(self):
        # the sorted rays ((0, 1), (1, 0)) have determinant -1
        assert Cone(((1, 0), (0, 1))).det == 1
        assert Cone(((1, 0), (1, -2))).det == 2

    def test_non_square_cone_keeps_its_index(self):
        # the minors of (1, 1, 0), (1, -1, 0) are -2, 0 and 0
        assert Cone(((1, 1, 0), (1, -1, 0))).det == 2
        assert Cone(((1, 1, 0), (0, 0, 1))).det == 1


def counting(monkeypatch):
    """Counts of eliminations and `primitive` calls made from now on;
    `primitive` is counted at its binding in `fans` too."""
    calls = Counter()
    for module, name in ((linalg, "_echelon"), (linalg, "primitive"),
                         (fans, "primitive")):
        def counted(*args, _f=getattr(module, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestWorkCount:
    def test_is_smooth_on_square_cones_makes_no_elimination(
            self, monkeypatch):
        fan = log_product([parse_pair("A1:0")] * 6).fan
        calls = counting(monkeypatch)
        assert all(is_smooth(c, fan.rank) for c in fan.cones)
        assert len(fan.cones) == 720
        assert calls["_echelon"] == 0

    def test_unimodular_square_cone_makes_one_elimination(
            self, monkeypatch):
        calls = counting(monkeypatch)
        Cone(((1, 2, 0), (0, 1, 0), (3, 1, 1)))
        assert calls == {"_echelon": 1}

    def test_fan_json_makes_one_elimination_per_cone(self, monkeypatch):
        text = fan_dumps(FIXTURE_DET2)
        calls = counting(monkeypatch)
        assert fan_loads(text) == FIXTURE_DET2
        # the two index-2 cones go on to the ray checks, with no second
        # elimination
        assert calls == {"_echelon": 4, "primitive": 4}

    @pytest.mark.parametrize("make_text,eliminations", [
        # 720 cones, all one column permutation of each other (720 at the
        # parent commit)
        (lambda: fan_dumps(log_product([parse_pair("A1:0")] * 6).fan), 1),
        # 326 cones in 6 classes (326 at the parent commit)
        (lambda: fan_dumps(log_product([parse_pair("P1:pt")] * 5).fan), 6),
        # no two coordinates carry the same values: one per cone
        (lambda: fan_dumps(moved(log_product([parse_pair("A1:0")] * 4)
                                 .fan)), 24),
        # two index-2 cones with one key
        (lambda: json.dumps({"rank": 2,
                             "rays": [[1, 0], [1, 2], [0, 1], [2, 1]],
                             "cones": [[0, 1], [2, 3]]}), 1),
    ], ids=["A1:0^6", "P1:pt^5", "moved A1:0^4", "two index-2 cones"])
    def test_fan_json_shares_eliminations_between_permuted_cones(
            self, monkeypatch, make_text, eliminations):
        text = make_text()
        calls = counting(monkeypatch)
        fan = fan_loads(text)
        assert calls["_echelon"] == eliminations
        assert all(c.det == linalg.lattice_index(c.rays) for c in fan.cones)


class TestStarSubdivide:
    def test_rank2_octant_full_cone(self):
        fan = star_subdivide(octant(2), Cone(((1, 0), (0, 1))))
        assert set(fan.rays()) == {(1, 0), (0, 1), (1, 1)}
        assert len(fan.cones) == 2
        assert all(is_smooth(c, 2) for c in fan.cones)

    def test_rank3_barycentric(self):
        fan = octant(3)
        fan = star_subdivide(fan, Cone(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        for pair in (((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)),
                     ((0, 1, 0), (0, 0, 1))):
            fan = star_subdivide(fan, Cone(pair))
        assert len(fan.rays()) == 7
        assert len(fan.cones) == 6
        assert all(is_smooth(c, 3) for c in fan.cones)

    def test_center_not_in_fan(self):
        with pytest.raises(CenterNotInFan):
            star_subdivide(octant(2), Cone(((1, 0), (1, 1))))
        with pytest.raises(CenterNotInFan, match="at least two rays"):
            star_subdivide(octant(2), Cone(((1, 0),)))

    def test_exceptional_label_assigned(self):
        fan = star_subdivide(octant(2), Cone(((1, 0), (0, 1))))
        labels = dict(fan.labels)
        assert labels[(1, 1)].kind == "exceptional"
        assert labels[(1, 1)].arg == 0

    def test_support_preserved(self):
        fan = octant(3)
        sub = star_subdivide(fan, Cone(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        assert check_support_preserved(fan, sub)

    def test_new_ray_is_primitivized_sum(self):
        fan = Fan(2, (Cone(((1, 0), (1, 2))),))
        sub = star_subdivide(fan, Cone(((1, 0), (1, 2))))
        assert (1, 1) in sub.rays()  # (2,2) primitivized


class TestProductFan:
    def test_p1_times_p1(self):
        fan = product_fan(p1_fan(), p1_fan())
        assert len(fan.cones) == 4
        assert set(fan.rays()) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_rank_zero_identity(self):
        point = Fan(0, (Cone(()),))
        fan = p1_fan()
        assert product_fan(fan, point).cones == fan.cones
        assert product_fan(point, fan).cones == fan.cones

    def test_empty_rank_zero_fan_annihilates(self):
        empty = Fan(0, ())
        assert product_fan(empty, p1_fan()) == Fan(1, ())
        assert product_fan(p1_fan(), empty) == Fan(1, ())

    def test_octant_times_octant(self):
        fan = product_fan(octant(1), octant(1))
        assert fan.cones == octant(2).cones


def assert_closed_forms(fan):
    """Each cone of `fan` is the validating `Cone` on its rays, with the
    index one elimination gives, and the validating `Fan` accepts it."""
    for cone in fan.cones:
        checked = Cone(cone.rays)
        assert (cone.rays, cone.det) == (checked.rays, checked.det)
        assert cone.det == linalg.lattice_index(cone.rays)
    assert Fan(fan.rank, fan.cones, fan.labels) == fan


# a rank-3 fan of one non-square cone of index 2, with a label
FIXTURE_WIDE = Fan(3, (Cone(((1, 1, 0), (1, -1, 0))),),
                   (((1, 1, 0), DivisorLabel(BOUNDARY, 0)),))


@st.composite
def faces_of_non_smooth_cones(draw):
    """(cone, face): a cone of index > 1 with 2 to 4 rays of length 2 to 4
    and entries in -3..3, and a face of it of at least two rays."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(2, n))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                         min_size=k, max_size=k, unique=True))
    try:
        cone = Cone(rays)
    except InvalidCone:
        assume(False)
    assume(cone.det > 1)
    face = draw(st.lists(st.sampled_from(cone.rays), min_size=2,
                         max_size=k, unique=True))
    return cone, Cone(face)


class TestClosedFormIndices:
    """`product_fan`, `star_subdivide` and `toric_fan` give their cones
    indices by closed forms, with no elimination; each agrees with the
    validating `Cone`."""

    def test_product_of_non_smooth_fans(self):
        square = product_fan(FIXTURE_DET2, FIXTURE_DET2)
        assert_closed_forms(square)
        assert max(c.det for c in square.cones) == 4
        wide = product_fan(FIXTURE_WIDE, FIXTURE_WIDE, 1)
        assert_closed_forms(wide)
        assert [c.det for c in wide.cones] == [4]
        assert_closed_forms(product_fan(p1_fan(), FIXTURE_WIDE))

    def test_center_with_non_primitive_sum(self):
        # (1, 0) + (1, 2) = 2 (1, 1): g = 2 halves the index
        sub = star_subdivide(FIXTURE_DET2, Cone(((1, 0), (1, 2))))
        assert_closed_forms(sub)
        assert (1, 1) in sub.rays()
        assert sorted(c.det for c in sub.cones) == [1, 1, 1, 1, 2]

    @settings(max_examples=100, deadline=None)
    @given(faces_of_non_smooth_cones())
    def test_faces_of_non_smooth_cones(self, cone_and_face):
        cone, face = cone_and_face
        fan = Fan(len(cone.rays[0]), (cone,))
        assert_closed_forms(star_subdivide(fan, face))
        # every cone of the product holds the face
        assert_closed_forms(star_subdivide(
            product_fan(fan, FIXTURE_DET2), Cone(
                r + (0, 0) for r in face.rays)))

    @pytest.mark.parametrize("text", ["P1:H", "P2:H", "P3:H", "P4:H",
                                      "P1:pt", "A1:0"])
    def test_toric_fans(self, text):
        fan = parse_pair(text).toric_fan()
        assert_closed_forms(fan)
        assert all(c.det == 1 for c in fan.cones)

    def test_builders_make_no_elimination(self, monkeypatch):
        center = Cone(((1, 0), (1, 2)))
        factors = [parse_pair(t).toric_fan(i)
                   for i, t in enumerate(["P1:pt", "A1:0", "P2:H"])]

        def no_elimination(rows):
            raise AssertionError(f"an elimination on {rows}")
        monkeypatch.setattr(fans, "lattice_index", no_elimination)
        product_fan(FIXTURE_DET2, FIXTURE_DET2)
        product_fan(factors[0], factors[2], 1)
        star_subdivide(FIXTURE_DET2, center)
        for text in ("P1:pt", "A1:0", "P4:H"):
            parse_pair(text).toric_fan()
        log_product([parse_pair(t) for t in ("A1:0", "P1:pt", "P2:H")])
        with pytest.raises(AssertionError, match="an elimination"):
            Cone(center.rays)


class TestInducesFanMap:
    def test_identity(self):
        fan = octant(2)
        assert induces_fan_map(fan, fan, ((1, 0), (0, 1)))

    def test_projection_needs_subdivided_source(self):
        # the raw octant cone does not fit inside any cone of a subdivided
        # target; subdividing the source at the matching center repairs it
        proj = ((1, 0, 0), (0, 1, 0))
        raw3, raw2 = octant(3), octant(2)
        subdivided2 = star_subdivide(raw2, Cone(((1, 0), (0, 1))))
        assert induces_fan_map(raw3, raw2, proj)
        assert not induces_fan_map(raw3, subdivided2, proj)
        assert fan_map_witness(raw3, raw2, proj) is None
        assert fan_map_witness(raw3, subdivided2, proj) == (
            raw3.cones[0], ((0, 0), (0, 1), (1, 0)))
        source = star_subdivide(raw3, Cone(((1, 0, 0), (0, 1, 0))))
        assert induces_fan_map(source, subdivided2, proj)
        assert induces_fan_map(source, raw2, proj)

    def test_shape_mismatch(self):
        with pytest.raises(RankMismatch):
            induces_fan_map(octant(2), octant(2), ((1, 0),))

    def test_a1_sixth_power_solves_once_per_image_and_target_cone(self):
        space = log_product([parse_pair("A1:0")] * 6)
        target, matrix = projection(space, [0, 5])
        images = {mat_mul_vec(matrix, r) for r in space.fan.rays()}
        with mock.patch.object(fans, "solve_nonnegative",
                               wraps=linalg.solve_nonnegative) as solve:
            assert induces_fan_map(space.fan, target.fan, matrix)
        assert len(images) * len(target.fan.cones) <= 8
        # every image is 0 or a target ray, so the ray sets settle it
        assert solve.call_count == 0


def oracle_fan_map_witness(source, target, matrix, solve):
    """Brute-force reference for `fan_map_witness`: every source cone,
    every target cone and every ray, one `solve` per (target cone, ray)
    tried, stopping at the first target cone that holds all images."""
    for cone in source.cones:
        images = tuple(tuple(sum(a * x for a, x in zip(row, r))
                             for row in matrix) for r in cone.rays)
        if not any(all(solve(t.rays, p) is not None for p in images)
                   for t in target.cones):
            return cone, images
    return None


@st.composite
def small_cone(draw, rank, vectors, min_rays=0):
    """A cone of at most `rank` rays drawn from `vectors`, possibly empty
    or not full-dimensional."""
    rays = []
    for v in draw(st.lists(vectors, min_size=min_rays, max_size=rank)):
        if any(v) and minors_gcd(rays + [primitive(v)]):
            rays.append(primitive(v))
    return Cone(tuple(rays))


@st.composite
def fan_map_cases(draw):
    """(source, target, matrix) with a matrix of entries in -1..1, so rays
    are often sent to 0 or several rays to one image.  The source cones
    draw their rays from a pool of at most five, so they share rays."""
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def vectors(rank):
        return st.tuples(*[st.integers(-2, 2)] * rank)

    def fan(rank, min_cones, max_cones, rays, min_rays):
        cones = draw(st.lists(small_cone(rank, rays, min_rays),
                              min_size=min_cones, max_size=max_cones))
        return Fan(rank, tuple({c.rays: c for c in cones}.values()))

    pool = draw(st.lists(vectors(s), min_size=1, max_size=5))
    matrix = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * s),
                           min_size=t, max_size=t))
    return (fan(s, 1, 5, st.sampled_from(pool), 1),
            fan(t, 0, 5, vectors(t), 0), tuple(matrix))


P1_LINE = Fan(1, (Cone(((1,),)), Cone(((-1,),))))
PROJ = ((1, 0, 0), (0, 1, 0))
P1_PT2 = [parse_pair("P1:pt")] * 2
P1_PT2_LOG = log_product(P1_PT2).fan
P1_PT2_PRODUCT = product_fan(*(p.toric_fan(i) for i, p in enumerate(P1_PT2)))


# Fixed inputs: empty source cones, empty target fans, lower-dimensional
# target cones, maps sending rays to 0 or several rays to one image,
# failing maps, one where trying a cone's images out of ray order costs
# an extra solve, two cones sharing a first image with different
# verdicts, an image twice a target ray, one a negative multiple of a
# target ray, a target ray inside an overlapping target cone, and the
# identity between the P1:pt^2 log product and its product fan, whose
# exceptional ray is no ray of the product fan, both ways.
@given(fan_map_cases())
@settings(max_examples=150, deadline=None)
@example((Fan(2, (Cone(()), Cone(((1, 0),)))), octant(2), ((1, 0), (0, 1))))
@example((Fan(2, (Cone(()),)), Fan(2, ()), ((1, 0), (0, 1))))
@example((octant(2), Fan(2, ()), ((1, 0), (0, 1))))
@example((octant(2), Fan(2, (Cone(((1, 0),)), Cone(((0, 1),)))),
          ((1, 0), (0, 1))))
@example((octant(2), Fan(2, (Cone(((1, 1),)), Cone(((1, 0),)))),
          ((1, 1), (1, 1))))
@example((octant(2), Fan(1, (Cone(()),)), ((0, 0),)))
@example((octant(2), P1_LINE, ((1, 1),)))
@example((octant(2), Fan(1, (Cone(((-1,),)),)), ((1, 1),)))
@example((Fan(3, (Cone(((0, 0, 1), (1, 0, 0))),)), Fan(2, (Cone(((1, 0),)),)),
          ((1, 0, 1), (0, 0, 1))))
@example((Fan(3, (Cone(((0, 0, 1), (0, 1, 0))),
                  Cone(((0, 0, 1), (1, 0, 0))))),
          Fan(1, (Cone(((1,),)),)), ((-1, 1, 0),)))
@example((octant(3), star_subdivide(octant(2), Cone(((1, 0), (0, 1)))),
          PROJ))
@example((star_subdivide(octant(3), Cone(((1, 0, 0), (0, 1, 0)))),
          star_subdivide(octant(2), Cone(((1, 0), (0, 1)))), PROJ))
@example((octant(2), octant(2), ((2, 0), (0, 1))))
@example((octant(2), Fan(1, (Cone(((1,),)),)), ((-2, 0),)))
@example((octant(2), Fan(2, (Cone(((1, 0), (1, 1))), Cone(((1, 0), (0, 1))))),
          ((1, 0), (1, 1))))
@example((P1_PT2_LOG, P1_PT2_PRODUCT, ((1, 0), (0, 1))))
@example((P1_PT2_PRODUCT, P1_PT2_LOG, ((1, 0), (0, 1))))
def test_fan_map_witness_matches_brute_force(case):
    """Same witness as the brute-force loop, with no more solves."""
    source, target, matrix = case
    oracle_solves = []

    def solve(columns, point):
        oracle_solves.append(point)
        return linalg.solve_nonnegative(columns, point)

    expected = oracle_fan_map_witness(source, target, matrix, solve)
    with mock.patch.object(fans, "solve_nonnegative",
                           wraps=linalg.solve_nonnegative) as counted:
        got = fan_map_witness(source, target, matrix)
    assert got == expected
    assert induces_fan_map(source, target, matrix) is (expected is None)
    assert counted.call_count <= len(oracle_solves)


def lp_face_closure(fan):
    """Float reference for `check_face_closure`, sharing no code with it:
    one scipy LP per cone pair looks for a point of cone(A) n cone(B)
    whose barycentric mass lies outside the shared rays."""
    from scipy.optimize import linprog

    cones = fan.cones
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            a, b = cones[i].rays, cones[j].rays
            shared = set(a) & set(b)
            na, nb = len(a), len(b)
            # variables x (coeffs in A), y (coeffs in B), all >= 0
            # constraints: A x - B y = 0, sum(x) + sum(y) = 1
            a_eq = []
            for d in range(fan.rank):
                a_eq.append([float(r[d]) for r in a]
                            + [-float(r[d]) for r in b])
            a_eq.append([1.0] * (na + nb))
            b_eq = [0.0] * fan.rank + [1.0]
            cost = [0.0 if r in shared else -1.0 for r in a] \
                 + [0.0 if r in shared else -1.0 for r in b]
            res = linprog(cost, A_eq=a_eq, b_eq=b_eq,
                          bounds=[(0, None)] * (na + nb), method="highs")
            if res.status == 0 and -res.fun > 1e-9:
                return False
    return True


E1, E2, M1, M2 = (1, 0), (0, 1), (-1, 0), (0, -1)


def fan2(*cones):
    return Fan(2, tuple(Cone(c) for c in cones))


def moved(fan):
    """`fan` in new coordinates: the unimodular upper-triangular matrix
    with entries j - i + 1 above the diagonal, then reversed axes."""
    n = fan.rank
    matrix = [[1 if i == j else (j - i + 1 if j > i else 0)
               for j in range(n)] for i in reversed(range(n))]
    return Fan(n, tuple(Cone(tuple(mat_mul_vec(matrix, r) for r in c.rays))
                        for c in fan.cones))


@st.composite
def cone_sets(draw):
    """1-5 distinct simplicial cones of rank 2 or 3 on a small pool of
    rays with entries in -3..3, all of full dimension or of mixed sizes."""
    rank = draw(st.sampled_from((2, 3)))
    pool = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank).filter(any),
                         min_size=rank, max_size=rank + 3))
    pool = sorted({primitive(v) for v in pool})
    pure = draw(st.booleans())
    cones = {}
    for _ in range(draw(st.integers(1, 5))):
        size = min(len(pool), rank if pure else draw(st.integers(1, rank)))
        rays = draw(st.lists(st.sampled_from(pool), min_size=size,
                             max_size=size, unique=True))
        if minors_gcd(rays):
            cone = Cone(tuple(rays))
            cones[cone.rays] = cone
    assume(cones)
    return Fan(rank, tuple(cones.values()))


class TestFaceClosure:
    def test_octant_subdivision_face_closed(self):
        fan = star_subdivide(octant(2), Cone(((1, 0), (0, 1))))
        assert check_face_closure(fan)

    def test_overlapping_cones_detected(self):
        bad = Fan(2, (Cone(((1, 0), (0, 1))), Cone(((1, 1), (1, -1)))))
        assert not check_face_closure(bad)
        # every hyperplane carries walls on both sides, but no wall is in
        # two cones: the cone over (1, 1), (-1, 1) overlaps the first
        # quadrant, and the first cone in sorted order overlaps no other
        assert not check_face_closure(fan2(
            (E1, E2), (M1, M2), ((1, 1), (-1, 1)), ((1, -1), (-1, -1))))

    def test_wall_in_three_cones(self):
        # the four quadrants plus the first one subdivided: walls e1 and
        # e2 lie in three cones each, and the first cone in sorted order,
        # the third quadrant, overlaps no other
        assert not check_face_closure(fan2(
            (E1, E2), (E2, M1), (M1, M2), (M2, E1), (E1, (1, 1)),
            ((1, 1), E2)))

    def test_cones_on_same_side_of_wall(self):
        # every wall is in two cones, and the first cone, spanned by
        # (-1, 2) and (0, -1), overlaps no other; (1, -1) has both its
        # cones on its counter-clockwise side
        assert not check_face_closure(fan2(
            ((-1, 2), M2), ((-1, 2), (1, -1)), (M2, E1), ((1, -1), E1)))

    def test_two_complete_fans_cover_twice(self):
        # every wall is matched, but each point lies in two cones
        assert not check_face_closure(fan2(
            (E1, E2), (E2, M1), (M1, M2), (M2, E1),
            ((1, 1), (-1, 1)), ((-1, 1), (-1, -1)), ((-1, -1), (1, -1)),
            ((1, -1), (1, 1))))

    @pytest.mark.parametrize("fan", [
        Fan(2, (Cone((E1, E2)),)),
        Fan(2, ()),
        fan_from_json({"rank": 0, "rays": [], "cones": [[]]}),
        parse_pair("A1:0").toric_fan(0),
        parse_pair("P1:pt").toric_fan(0),
    ], ids=["single cone", "empty", "rank 0", "A1:0", "P1:pt"])
    def test_small_fans(self, fan):
        assert check_face_closure(fan)

    def test_not_pure(self):
        assert not check_face_closure(fan2((E1, E2), ((1, 1),)))
        assert check_face_closure(fan2((E1, E2), ((-1, -1),)))
        assert check_face_closure(fan2((E1,), (E2,)))

    def test_non_convex_support(self):
        assert check_face_closure(fan2((E1, E2), (E2, M1), (M1, M2)))
        # the boundary hyperplanes x = 0 and y = 0 carry single-cone walls
        # on both sides
        assert check_face_closure(fan2((E1, E2), (M1, M2)))
        full = log_product([parse_pair("P1:pt")] * 3).fan
        assert check_face_closure(Fan(3, full.cones[1:]))

    @pytest.mark.parametrize("pairs", [("A1:0",) * 5, ("P1:pt",) * 5])
    def test_five_factor_products_are_fast(self, pairs):
        fan = log_product([parse_pair(p) for p in pairs]).fan
        start = time.perf_counter()
        assert check_face_closure(fan)
        assert time.perf_counter() - start < 1.0

    def test_repeated_cone_rejected(self):
        with pytest.raises(ValueError, match="listed twice"):
            fan2((E1, E2), (E2, E1))


def product_minus_first_cone(pair, n):
    full = log_product([parse_pair(pair)] * n).fan
    return Fan(n, full.cones[1:])


class TestPairwiseBudget:
    """The pairwise face check makes one exact solve per cone pair, and a
    fan of more than `MAX_PAIRWISE_SOLVES` pairs is refused first."""

    def test_bound_below_the_cap_is_checked(self):
        fan = product_minus_first_cone("P1:pt", 4)
        assert comb(len(fan.cones), 2) == 2016
        assert check_face_closure(fan)

    @pytest.mark.parametrize("rank,cones", [
        (12, [[1], [2]]),
        (10, [[1], [-1], [2, 3], [4]]),
        (9, [[1, 2], [-1, 2], [3], [-3], [4], [5], [-5]]),
    ])
    def test_high_rank_fan_of_few_rays_is_checked(self, rank, cones):
        # k > 0 stands for the ray e_k and -k for -e_k
        def ray(k):
            return tuple((i == abs(k)) * (1 if k > 0 else -1)
                         for i in range(1, rank + 1))

        fan = Fan(rank, tuple(Cone(tuple(map(ray, c))) for c in cones))
        assert check_face_closure(fan)

    @pytest.mark.parametrize("pair,pairs", [("A1:0", 7021),
                                            ("P1:pt", 52_650)])
    def test_fifth_power_minus_one_cone_is_a_fan(self, pair, pairs):
        # the enumeration of column subsets refused both
        fan = product_minus_first_cone(pair, 5)
        assert comb(len(fan.cones), 2) == pairs
        assert check_face_closure(fan)

    def test_one_solve_per_pair(self):
        fan = product_minus_first_cone("P1:pt", 3)
        with mock.patch.object(fans, "solve_nonnegative",
                               wraps=linalg.solve_nonnegative) as solve:
            assert check_face_closure(fan)
        assert solve.call_count == comb(len(fan.cones), 2) == 105

    def test_refused_before_any_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pairwise test called")

        monkeypatch.setattr(fans, "_meet_in_face", refuse)
        monkeypatch.setattr(fans, "solve_nonnegative", refuse)
        for pair, pairs in (("A1:0", "258,121"), ("P1:pt", "1,911,990")):
            with pytest.raises(TooManySolves, match=pairs):
                check_face_closure(product_minus_first_cone(pair, 6))

    def test_cap_is_inclusive(self, monkeypatch):
        fan = product_minus_first_cone("P1:pt", 3)  # C(15, 2) pairs
        monkeypatch.setattr(fans, "MAX_PAIRWISE_SOLVES", 105)
        assert check_face_closure(fan)
        monkeypatch.setattr(fans, "MAX_PAIRWISE_SOLVES", 104)
        with pytest.raises(TooManySolves, match=" 105 "):
            check_face_closure(fan)

    def test_cli_refuses_p1_sixth_power_minus_one_cone_at_once(
            self, capsys, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(fan_dumps(product_minus_first_cone("P1:pt", 6)))
        start = time.perf_counter()
        code = main(["fan", "check", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err.startswith("error: TooManySolves: ")
        assert out.err.count("\n") == 1
        assert elapsed < 1.0


# the log products whose fans the benchmark checks
FANCHECK_PAIRS = [("A1:0",) * 3, ("A1:0",) * 4, ("P1:pt",) * 2,
                  ("P1:pt",) * 3, ("P1:pt", "P2:H"), ("P2:H",) * 2]
# and the largest ones that `fan check` must still read
FANCHECK_PAIRS_AND_DUMPS = FANCHECK_PAIRS + [("A1:0",) * 8, ("P1:pt",) * 6]


class TestWallWorkCap:
    """A pure fan's face check bounds its wall work at cones x rank^4,
    one elimination of about rank^3 steps per wall, and refuses a fan
    above `MAX_WALL_WORK` before the first elimination."""

    def test_cap_is_inclusive(self, monkeypatch):
        fan = log_product([parse_pair("A1:0")] * 3).fan  # 6 cones, rank 3
        monkeypatch.setattr(fans, "MAX_WALL_WORK", 486)
        assert check_face_closure(fan)
        monkeypatch.setattr(fans, "MAX_WALL_WORK", 485)
        with pytest.raises(TooMuchWallWork, match=" 486 .* 485$"):
            check_face_closure(fan)

    @pytest.mark.parametrize("pairs", FANCHECK_PAIRS_AND_DUMPS)
    def test_checked_fans_are_under_the_cap(self, pairs):
        fan = log_product([parse_pair(p) for p in pairs]).fan
        assert len(fan.cones) * fan.rank ** 4 <= fans.MAX_WALL_WORK

    def test_one_cone_of_rank_119_refused_before_any_elimination(
            self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eliminated")

        # rank 119 is the first rank at which one cone is over the cap
        assert 118 ** 4 <= fans.MAX_WALL_WORK < 119 ** 4
        fan = octant(119)
        monkeypatch.setattr(fans, "normal_vector", refuse)
        monkeypatch.setattr(fans, "solve_nonnegative", refuse)
        with pytest.raises(TooMuchWallWork, match="1 cones of rank 119"):
            check_face_closure(fan)

    def test_not_pure_fan_goes_to_the_pairwise_cap(self):
        # a cone of fewer rays than the rank is checked pairwise, however
        # high the rank
        fan = Fan(150, (octant(150).cones[0],
                        Cone(((-1,) + (0,) * 149,))))
        assert check_face_closure(fan)

    def test_cli_refuses_at_once(self, capsys, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(fan_dumps(octant(150)))
        code = main(["fan", "check", str(path)])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err.startswith("error: TooMuchWallWork: the face check "
                                  "of 1 cones of rank 150 ")
        assert out.err.count("\n") == 1


@pytest.mark.parametrize("pairs", FANCHECK_PAIRS)
def test_log_products_match_lp_in_new_coordinates(pairs):
    pytest.importorskip("scipy")
    fan = moved(log_product([parse_pair(p) for p in pairs]).fan)
    assert check_face_closure(fan) is True
    assert lp_face_closure(fan) is True


def unimodular(rng, n):
    """A random matrix of determinant +-1: a signed permutation matrix
    with random shears."""
    rows = [[int(i == j) * rng.choice((1, -1)) for j in range(n)]
            for i in rng.sample(range(n), n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def moved_by(fan, matrix):
    return Fan(fan.rank, tuple(Cone(tuple(mat_mul_vec(matrix, r)
                                          for r in c.rays))
                               for c in fan.cones))


def ray_sum(cone):
    return tuple(map(sum, zip(*cone.rays)))


def ray_indices(terms):
    """(c, rays) terms as (c, indices) terms over their sorted ray table,
    and the table: the input of `_hyperplanes`."""
    table = sorted({r for _, rays in terms for r in rays})
    index = {r: i for i, r in enumerate(table)}
    return [(c, [index[r] for r in rays]) for c, rays in terms], table


def hyperplanes_by_rays(terms, dim):
    """`_hyperplanes` on (c, rays) terms, with its ids read back as
    normals and its wall masks as ray tuples: (planes, facets) as
    `oracle_hyperplanes` lists them."""
    indexed, table = ray_indices(terms)
    planes, facets, normals = fans._hyperplanes(indexed, table, dim)

    def wall(mask):
        return tuple(r for i, r in enumerate(table) if mask >> i & 1)

    return ({normals[h]: [(c, wall(mask)) for c, mask in entries]
             for h, entries in enumerate(planes)},
            [(c, [(normals[s >> 1], 1 if s & 1 else -1) for s in sides])
             for c, sides in facets])


def generic_count(fan):
    """Step 2's wall-sign count at p, the sum of the first cone's rays,
    and the number of cones that one exact solve each puts over the
    integer point q = K p - w, on no wall hyperplane.

    w_i = e^(n-1-i) with e = 1 + max |u_i| over the normals u: the first
    nonzero entry of u is positive, so u . w > 0.  With K = 1 + max |u . w|,
    u . q has the sign of u . p where that is nonzero and is negative where
    it is 0, which is how `_cones_over` reads p; that is asserted for
    every normal."""
    planes, facets, normals = fans._hyperplanes(*ray_indices(
        [(1, c.rays) for c in fan.cones]), fan.rank)
    assert len(planes) == len(normals) and all(planes)
    p = ray_sum(fan.cones[0])
    e = 1 + max(abs(x) for u in normals for x in u)
    w = [e ** (fan.rank - 1 - i) for i in range(fan.rank)]
    k = 1 + max(abs(fans._dot(u, w)) for u in normals)
    q = tuple(k * a - b for a, b in zip(p, w))
    for u in normals:
        assert fans._dot(u, q) != 0
        assert (fans._dot(u, q) > 0) == (fans._dot(u, p) > 0)
    return (fans._cones_over(normals, facets, p),
            sum(linalg.solve_nonnegative(c.rays, q) is not None
                for c in fan.cones))


def fixture_overlap():
    """The P1 x P1 log product plus the cone {e1, e2}, which overlaps the
    two cones on either side of the exceptional ray e1 + e2."""
    full = log_product([parse_pair("P1:pt")] * 2).fan
    return Fan(2, full.cones + (Cone((E1, E2)),))


FIXTURE_DET2 = Fan(2, tuple(Cone(c) for c in (
    ((1, 0), (1, 2)), ((1, 2), (-1, 0)), ((-1, 0), (0, -1)),
    ((0, -1), (1, 0)))))


class TestWallSignCount:
    """Step 2 of `check_face_closure` counts the cones over the sum of the
    first cone's rays by the signs of their walls, a point on a wall read
    as just off it; the count is the one the exact membership solve gives
    at an integer point just off it."""

    @pytest.mark.parametrize("pairs", FANCHECK_PAIRS)
    def test_log_products_under_unimodular_moves(self, pairs):
        fan = log_product([parse_pair(p) for p in pairs]).fan
        rng = random.Random(len(fan.cones))
        for matrix in [None] + [unimodular(rng, fan.rank) for _ in range(3)]:
            moved_fan = fan if matrix is None else moved_by(fan, matrix)
            assert generic_count(moved_fan) == (1, 1)

    @pytest.mark.parametrize("fan,expected", [
        (fixture_overlap(), False), (FIXTURE_DET2, True)],
        ids=["overlap", "det2"])
    def test_fixtures_under_unimodular_moves(self, fan, expected):
        rng = random.Random(7)
        for matrix in [None] + [unimodular(rng, 2) for _ in range(5)]:
            moved_fan = fan if matrix is None else moved_by(fan, matrix)
            count, solved = generic_count(moved_fan)
            assert count == solved
            assert check_face_closure(moved_fan) is expected

    @pytest.mark.parametrize("pairs,through", [
        (("P1:pt",) * 3, 3), (("P2:H",) * 2, 6)])
    def test_ray_sum_lies_on_walls(self, pairs, through):
        # the point step 2 reads lies on walls of these log products, so
        # the tie rule of `_cones_over` decides their counts
        fan = log_product([parse_pair(p) for p in pairs]).fan
        planes, _ = hyperplanes_by_rays([(1, c.rays) for c in fan.cones],
                                        fan.rank)
        p = ray_sum(fan.cones[0])
        assert sum(fans._dot(u, p) == 0 for u in planes) == through
        assert generic_count(fan) == (1, 1)

    def test_overlap_fixture_counts_two_cones_somewhere(self):
        # the point just inside the first cone in some coordinates lies in
        # the extra cone too, so the count itself sees the overlap
        fan = fixture_overlap()
        counts = {generic_count(moved_by(fan, m))
                  for m in [[[1, 0], [0, 1]]]
                  + [unimodular(random.Random(k), 2) for k in range(20)]}
        assert all(a == b for a, b in counts)
        assert max(a for a, _ in counts) == 2

    @settings(max_examples=150, deadline=None)
    @given(cone_sets())
    def test_pure_cone_sets(self, fan):
        assume(all(len(c) == fan.rank for c in fan.cones))
        count, solved = generic_count(fan)
        assert count == solved

    @pytest.mark.parametrize("pairs", [("A1:0",) * 4, ("P1:pt",) * 3,
                                       ("P2:H",) * 2])
    def test_no_solve_on_a_pure_convex_fan(self, pairs):
        fan = log_product([parse_pair(p) for p in pairs]).fan
        with mock.patch.object(fans, "solve_nonnegative",
                               wraps=linalg.solve_nonnegative) as solve:
            assert check_face_closure(fan)
        assert solve.call_count == 0


def oracle_hyperplanes(terms, dim):
    """`_hyperplanes` as it reads: one `normal_vector` per wall of each
    term, grouped by normal, with the side of the dropped ray."""
    planes, facets = {}, []
    for c, rays in terms:
        sides = []
        for i, dropped in enumerate(rays):
            wall = rays[:i] + rays[i + 1:]
            u = linalg.normal_vector(wall, dim)
            side = 1 if sum(a * b for a, b in zip(u, dropped)) > 0 else -1
            planes.setdefault(u, []).append((c * side, wall))
            sides.append((u, side))
        facets.append((c, sides))
    return planes, facets


def wall_work(monkeypatch, terms, dim):
    """`hyperplanes_by_rays(terms, dim)` and its work: (result,
    eliminations, distinct walls, dot products beyond the side tests).
    Each product u . x is computed at most once, which is asserted, and
    the side tests are the products of each entry's normal and dropped
    ray."""
    calls = Counter()

    def counted(name, f):
        def run(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(fans, name, run)

    dots = Counter()

    def dot(u, x):
        dots[u, x] += 1
        return sum(a * b for a, b in zip(u, x))

    counted("normal_vector", fans.normal_vector)
    monkeypatch.setattr(fans, "_dot", dot)
    result = hyperplanes_by_rays(terms, dim)
    assert all(n == 1 for n in dots.values())
    walls = {rays[:i] + rays[i + 1:] for _, rays in terms
             for i in range(len(rays))}
    sides = {(u, r) for (_, rays), (_, facet) in zip(terms, result[1])
             for r, (u, _) in zip(rays, facet)}
    assert sides <= set(dots)
    return (result, calls["normal_vector"], len(walls),
            len(set(dots) - sides))


@st.composite
def subdivided_fans(draw):
    """The fan of the coordinate orthants of rank 1-5, star-subdivided
    0-4 times at faces of its cones, and unimodularly moved: a complete
    simplicial fan whose walls share hyperplanes and ridges."""
    rank = draw(st.integers(1, 5))
    cones = [Cone(tuple(tuple(s * (i == j) for j in range(rank))
                        for i, s in enumerate(signs)))
             for signs in itertools.product((1, -1), repeat=rank)]
    fan = Fan(rank, tuple(cones))
    for _ in range(draw(st.integers(0, 4 if rank > 1 else 0))):
        cone = draw(st.sampled_from(fan.cones))
        size = draw(st.integers(2, rank))
        center = draw(st.lists(st.sampled_from(cone.rays), min_size=size,
                               max_size=size, unique=True))
        fan = star_subdivide(fan, Cone(tuple(center)))
    return moved_by(fan, unimodular(random.Random(draw(st.integers(0, 99))),
                                    rank))


@st.composite
def independent_terms(draw):
    """(c, rays) terms as `_vanishes` passes them: 1-8 tuples of `dim`
    independent rays, dim 1-5, from a small pool of short primitive
    vectors, so walls and ridges often coincide; no fan is implied."""
    dim = draw(st.integers(1, 5))
    pool = sorted({primitive(v) for v in draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
        min_size=dim, max_size=dim + 4))})
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        rays = tuple(sorted(draw(st.lists(
            st.sampled_from(pool), min_size=min(dim, len(pool)),
            max_size=min(dim, len(pool)), unique=True))))
        if len(rays) == dim and minors_gcd(rays):
            terms[rays] = draw(st.sampled_from((-2, -1, 1, 2)))
    assume(terms)
    return [(c, rays) for rays, c in terms.items()], dim


def ring(n):
    """A complete rank-2 fan of n cones, n even: the rays (k, 1),
    |k| <= (n - 3) // 2, and (1, 0), (0, -1), (-1, 0), in angular order."""
    rays = [(k, 1) for k in range(-((n - 3) // 2), (n - 3) // 2 + 1)]
    rays += [(1, 0), (0, -1), (-1, 0)]
    rays.sort(key=lambda r: math.atan2(r[1], r[0]))
    return Fan(2, tuple(Cone((a, b)) for a, b in zip(rays, rays[1:] + rays[:1])))


def cone_over_polygon(k):
    """The rank-3 fan of the k cones (apex, v_i, v_i+1) over a convex
    lattice k-gon in the plane z = 1, k even: every wall through the apex
    ray lies on its own hyperplane and shares the ridge {apex}."""
    dirs = sorted({primitive((a, b)) for a in range(-k, k + 1)
                   for b in range(1, k + 1)} | {(1, 0)},
                  key=lambda v: math.atan2(v[1], v[0]))[:k // 2]
    x = y = 0
    corners = []
    for a, b in dirs + [(-a, -b) for a, b in dirs]:
        corners.append((x, y))
        x, y = x + a, y + b
    cx, cy = (sum(v) // k for v in zip(*corners))
    rays = [(x - cx, y - cy, 1) for x, y in corners]
    apex = (0, 0, 1)
    return Fan(3, tuple(Cone((apex, a, b))
                        for a, b in zip(rays, rays[1:] + rays[:1])))


class TestWallNormals:
    """`_hyperplanes` finds a wall's normal among those already found
    through its ridges, one dot product each, and eliminates only where
    none passes: the same planes and facets as one elimination per
    wall, from fewer eliminations, with a bounded number of dot products
    per new wall."""

    def assert_matches_oracle(self, monkeypatch, terms, dim):
        got, eliminated, walls, dots = wall_work(monkeypatch, terms, dim)
        assert got == oracle_hyperplanes(terms, dim)
        assert eliminated <= walls
        assert dots <= walls * (dim - 1) ** 2 if dim > 2 else dots == 0
        return eliminated, walls

    @settings(max_examples=100, deadline=None)
    @given(subdivided_fans())
    def test_subdivided_fans_match_the_oracle(self, fan):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_matches_oracle(
                monkeypatch, [(1, c.rays) for c in fan.cones], fan.rank)

    @settings(max_examples=150, deadline=None)
    @given(independent_terms())
    def test_independent_terms_match_the_oracle(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_matches_oracle(monkeypatch, *case)

    @pytest.mark.parametrize("pairs", FANCHECK_PAIRS
                             + [("A1:0",) * 5, ("P1:pt",) * 4])
    def test_moved_log_products_match_the_oracle(self, monkeypatch, pairs):
        fan = log_product([parse_pair(p) for p in pairs]).fan
        rng = random.Random(len(fan.cones))
        for matrix in [None] + [unimodular(rng, fan.rank) for _ in range(2)]:
            moved_fan = fan if matrix is None else moved_by(fan, matrix)
            eliminated, walls = self.assert_matches_oracle(
                monkeypatch, [(1, c.rays) for c in moved_fan.cones],
                fan.rank)
            if fan.rank > 2:
                assert eliminated < walls

    @pytest.mark.parametrize("pair,n,eliminations,planes,walls", [
        ("A1:0", 4, 10, 10, 60), ("A1:0", 5, 15, 15, 360),
        ("P1:pt", 4, 15, 10, 130)])
    def test_elimination_counts(self, monkeypatch, pair, n, eliminations,
                                planes, walls):
        # one elimination per distinct wall before the ridge lookup; a
        # P1^4 wall whose hyperplane is known but meets no wall found on
        # it in a ridge pays one more
        fan = log_product([parse_pair(pair)] * n).fan
        calls = Counter()

        def counted(*args):
            calls["normal_vector"] += 1
            return linalg.normal_vector(*args)

        monkeypatch.setattr(fans, "normal_vector", counted)
        assert check_face_closure(fan)
        assert calls["normal_vector"] == eliminations
        got, _, distinct, _ = wall_work(
            monkeypatch, [(1, c.rays) for c in fan.cones], n)
        assert (len(got[0]), distinct) == (planes, walls)

    @pytest.mark.parametrize("fan,dim", [
        (ring(200), 2), (cone_over_polygon(40), 3),
        (cone_over_polygon(120), 3)], ids=["ring", "40-gon", "120-gon"])
    def test_walls_on_their_own_hyperplanes(self, monkeypatch, fan, dim):
        # no wall of the ring or of the apex shares a hyperplane, so each
        # is eliminated, after at most (dim - 1)^2 dot products, and none
        # at rank 2
        terms = [(1, c.rays) for c in fan.cones]
        got, eliminated, walls, dots = wall_work(monkeypatch, terms, dim)
        assert got == oracle_hyperplanes(terms, dim)
        assert eliminated == walls
        assert dots <= walls * (dim - 1) ** 2 if dim > 2 else dots == 0
        assert check_face_closure(fan)


@settings(max_examples=150, deadline=None)
@given(cone_sets())
def test_face_closure_matches_lp(fan):
    pytest.importorskip("scipy")
    assert check_face_closure(fan) == lp_face_closure(fan)


def in_support(fan, point):
    return any(linalg.solve_nonnegative(c.rays, point) is not None
               for c in fan.cones)


def sampled_support_check(before, after, samples=1000, seed=0):
    """Random-sample reference for `check_support_preserved`: draws points
    from nonnegative integer combinations of each fan's rays and checks
    membership agrees both ways.  It is one-sided: False comes with a
    witness, True only means no sample told the supports apart."""
    rng = random.Random(seed)
    for fan_a, fan_b in ((before, after), (after, before)):
        for _ in range(samples // 2):
            cone = rng.choice(fan_a.cones)
            point = tuple(sum(rng.randint(0, 7) * r[i] for r in cone.rays)
                          for i in range(fan_a.rank))
            if in_support(fan_a, point) != in_support(fan_b, point):
                return False
    return True


def product_of(pairs):
    fan = Fan(0, (Cone(()),))
    for i, pair in enumerate(pairs):
        fan = product_fan(fan, pair.toric_fan(i))
    return fan


@st.composite
def support_cases(draw):
    """(before, after, witness): a subset of a log-product fan in new
    coordinates, star-subdivided at random centres, then edited by
    dropping a cone of the subdivision or adding a cone of the log product
    outside the subset, or left alone (witness None).  The edited cone is
    the witness; the two fans are swapped at random."""
    pairs = draw(st.sampled_from([
        ("A1:0",) * 2, ("A1:0",) * 3, ("P1:pt",) * 2, ("P1:pt", "A1:0"),
        ("P1:pt",) * 3, ("P2:H", "A1:0"), ("P1:pt", "P2:H")]))
    full = moved(log_product([parse_pair(p) for p in pairs]).fan)
    kept = draw(st.lists(st.sampled_from(full.cones), min_size=1,
                         unique=True))
    before = after = Fan(full.rank, tuple(kept))
    for _ in range(draw(st.integers(0, 3))):
        cone = draw(st.sampled_from(after.cones))
        center = draw(st.lists(st.sampled_from(cone.rays), min_size=2,
                               max_size=len(cone), unique=True))
        after = star_subdivide(after, Cone(tuple(center)))
    witness = None
    edit = draw(st.sampled_from(("none", "drop", "add")))
    if edit == "drop":
        witness = draw(st.sampled_from(after.cones))
        after = Fan(after.rank,
                    tuple(c for c in after.cones if c != witness))
    elif edit == "add" and len(kept) < len(full.cones):
        witness = draw(st.sampled_from(
            [c for c in full.cones if c not in kept]))
        after = Fan(after.rank, after.cones + (witness,))
    if draw(st.booleans()):
        before, after = after, before
    return before, after, witness


@settings(max_examples=100, deadline=None)
@given(support_cases())
def test_support_check_matches_sampled_reference(case):
    before, after, witness = case
    exact = check_support_preserved(before, after)
    if witness is None:
        assert exact is True
    else:
        # the edited cone's barycentre lies in one support only
        assert exact is False
        point = tuple(map(sum, zip(*witness.rays)))
        assert in_support(before, point) != in_support(after, point)
    if exact:
        assert sampled_support_check(before, after, samples=200)


class TestSupportPreserved:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_octant_subdivisions(self, rank):
        fan = octant(rank)
        sub = fan
        for size in range(rank, 1, -1):
            sub = star_subdivide(sub, Cone(fan.cones[0].rays[:size]))
        assert check_support_preserved(fan, sub) is True
        assert check_support_preserved(sub, fan) is True

    @pytest.mark.parametrize("pairs", FANCHECK_PAIRS)
    def test_log_product_keeps_product_support(self, pairs):
        factors = [parse_pair(p) for p in pairs]
        product = moved(product_of(factors))
        logp = moved(log_product(factors).fan)
        assert check_support_preserved(product, logp) is True
        assert check_support_preserved(logp, product) is True

    @pytest.mark.parametrize("pairs", [("P1:pt",) * 2, ("P1:pt",) * 3,
                                       ("A1:0",) * 3, ("P1:pt", "P2:H")])
    def test_dropped_cone_on_either_side(self, pairs):
        factors = [parse_pair(p) for p in pairs]
        product = moved(product_of(factors))
        logp = moved(log_product(factors).fan)
        for fan, other in ((product, logp), (logp, product)):
            for cone in fan.cones:
                less = Fan(fan.rank, tuple(c for c in fan.cones
                                           if c != cone))
                assert check_support_preserved(less, other) is False
                assert check_support_preserved(other, less) is False

    def test_rank_zero_and_empty_fans(self):
        point, none = Fan(0, (Cone(()),)), Fan(0, ())
        assert check_support_preserved(point, point) is True
        assert check_support_preserved(none, none) is True
        assert check_support_preserved(point, none) is False
        assert check_support_preserved(none, point) is False
        complete = product_of([parse_pair("P1:pt")] * 2)
        assert check_support_preserved(Fan(2, ()), Fan(2, ())) is True
        assert check_support_preserved(complete, Fan(2, ())) is False
        assert check_support_preserved(Fan(2, ()), octant(2)) is False

    def test_opposite_half_lines_and_half_planes(self):
        assert check_support_preserved(
            Fan(1, (Cone(((1,),)),)), Fan(1, (Cone(((-1,),)),))) is False
        upper = fan2((E1, E2), (E2, M1))
        assert check_support_preserved(
            upper, fan2((E1, (1, 1)), ((1, 1), M1))) is True
        assert check_support_preserved(upper, fan2((E1, E2))) is False
        assert check_support_preserved(upper, fan2((M1, M2), (M2, E1))) \
            is False

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            check_support_preserved(octant(2), octant(3))

    def test_not_pure_rejected(self):
        mixed = fan2((E1, E2), ((-1, -1),))
        for before, after in ((mixed, octant(2)), (octant(2), mixed)):
            with pytest.raises(ValueError, match="needs 2 rays per cone"):
                check_support_preserved(before, after)

    def test_ray_longer_than_rank_rejected(self):
        # used to compare (1, 0, 0) with (1, 0) and answer True
        with pytest.raises(ValueError, match="not the rank 2"):
            check_support_preserved(
                Fan(2, (Cone(((1, 0, 0), (0, 1, 0))),)),
                Fan(2, (Cone(((1, 0), (0, 1))),)))

    @pytest.mark.parametrize("pairs", [("A1:0",) * 4, ("P1:pt",) * 3,
                                       ("P2:H",) * 2])
    def test_no_solve(self, pairs):
        factors = [parse_pair(p) for p in pairs]
        product, logp = product_of(factors), log_product(factors).fan
        less = Fan(logp.rank, logp.cones[1:])
        with mock.patch.object(fans, "solve_nonnegative",
                               wraps=linalg.solve_nonnegative) as solve:
            assert check_support_preserved(product, logp) is True
            assert check_support_preserved(product, less) is False
        assert solve.call_count == 0

    def test_a1_five_is_fast(self):
        factors = [parse_pair("A1:0")] * 5
        product, logp = product_of(factors), log_product(factors).fan
        start = time.perf_counter()
        assert check_support_preserved(product, logp) is True
        assert time.perf_counter() - start < 1.0


# log products of rank 3-5 of at most 27 cones, so every pairwise route
# below stays far under `MAX_PAIRWISE_SOLVES`
DIFFERENTIAL_PAIRS = [
    ("A1:0",) * 3, ("P1:pt",) * 3, ("A1:0", "P2:H"), ("P1:pt", "P2:H"),
    ("A1:0",) * 4, ("P2:H",) * 2, ("A1:0", "P1:pt", "P2:H"),
    ("P1:pt", "P1:pt", "P2:H"), ("A1:0", "A1:0", "P3:H"), ("P2:H", "P3:H"),
    ("A1:0", "P1:pt", "P3:H")]


@st.composite
def moved_log_products(draw):
    """(fan, product, edit): a log product of rank 3-5 and its factors'
    product fan, both with their coordinates permuted and then moved by
    one random unimodular matrix.  The log product is left whole, cut by
    one cone (edit "drop"), or given one cone of the product fan that it
    subdivides, which overlaps the cones that cone became ("add")."""
    factors = [parse_pair(p) for p in draw(st.sampled_from(
        DIFFERENTIAL_PAIRS))]
    logp, product = log_product(factors).fan, product_of(factors)
    n = logp.rank
    permute = [[int(j == i) for j in range(n)]
               for i in draw(st.permutations(range(n)))]
    move = unimodular(random.Random(draw(st.integers(0, 99))), n)
    logp, product = (moved_by(moved_by(f, permute), move)
                     for f in (logp, product))
    edit = draw(st.sampled_from(("whole", "drop", "add")))
    cones = logp.cones
    if edit == "drop":
        gone = draw(st.sampled_from(cones))
        cones = tuple(c for c in cones if c != gone)
    elif edit == "add":
        cones += (draw(st.sampled_from(
            [c for c in product.cones if c not in cones])),)
    return Fan(n, cones), product, edit


@settings(max_examples=20, deadline=None)
@given(moved_log_products())
def test_face_and_support_checks_match_the_pairwise_routes(case):
    """The wall route of `check_face_closure` against one exact solve per
    pair (`_meet_in_face`) and, with scipy, one LP per pair; and
    `check_support_preserved` against the product fan."""
    fan, product, edit = case
    pairs = list(combinations(fan.cones, 2))
    assert len(pairs) <= fans.MAX_PAIRWISE_SOLVES
    closed = edit != "add"
    assert check_face_closure(fan) is closed
    assert all(fans._meet_in_face(a, b, fan.rank) for a, b in pairs) \
        is closed
    if importlib.util.find_spec("scipy"):
        assert lp_face_closure(fan) is closed
    if closed:
        assert check_support_preserved(fan, product) is (edit == "whole")
        assert check_support_preserved(product, fan) is (edit == "whole")


class TestFan:
    @pytest.mark.parametrize("rank,rays", [
        (2, ((1, 0, 0), (0, 1, 0))), (3, ((1, 0), (0, 1))), (0, ((1,),)),
        (1, ((1, 1),))])
    def test_ray_length_must_be_rank(self, rank, rays):
        with pytest.raises(ValueError, match=f"not the rank {rank}"):
            Fan(rank, (Cone(rays),))

    def test_json_keeps_its_schema_error(self):
        data = {"rank": 2, "rays": [[1, 0, 0], [0, 1, 0]], "cones": [[0, 1]]}
        with pytest.raises(ValueError, match="is not a list of 2 integers"):
            fan_from_json(data)

    def test_second_label_on_a_ray_refused(self):
        labels = (((1,), DivisorLabel(BOUNDARY, 0)),
                  ((1,), DivisorLabel(EXCEPTIONAL, 5)))
        with pytest.raises(FanSchemaError, match=(
                r"^the label DivisorLabel\(kind='exceptional', arg=5\) is a "
                r"second label on the ray \(1,\)$")):
            Fan(1, (Cone(((1,),)), Cone(((-1,),))), labels)

    @pytest.mark.parametrize("cones", [(Cone(((1,),)),), ()],
                             ids=["other ray", "no cone"])
    def test_label_on_a_ray_no_cone_holds_refused(self, cones):
        with pytest.raises(FanSchemaError, match=(
                r"^the label DivisorLabel\(kind='boundary', arg=0\) is on "
                r"the ray \(-1,\), which no cone holds$")):
            Fan(1, cones, (((-1,), DivisorLabel(BOUNDARY, 0)),))

    def test_label_refusals_quote_a_long_ray(self):
        ray = (1,) + (0,) * 2999
        for cones, labels in (
                ((), ((ray, DivisorLabel(BOUNDARY, 0)),)),
                ((Cone((ray,)),), ((ray, DivisorLabel(BOUNDARY, 0)),
                                   (ray, DivisorLabel(BOUNDARY, 1))))):
            with pytest.raises(FanSchemaError) as exc:
                Fan(3000, cones, labels)
            assert "... (9000 characters)" in str(exc.value)
            assert len(str(exc.value)) < 4 * QUOTE_LIMIT

    @pytest.mark.parametrize("error,call", [
        (FanSchemaError, lambda c, d: Fan(3000, (c, c))),
        (FanSchemaError, lambda c, d: Fan(2, (c,))),
        (RankMismatch, lambda c, d: is_smooth(c, 2)),
        (CenterNotInFan, lambda c, d: star_subdivide(Fan(3000, (c,)), d)),
        (ValueError, lambda c, d: check_support_preserved(
            Fan(3000, (c,)), Fan(3000, ()))),
    ], ids=["listed twice", "not the rank", "is_smooth", "star_subdivide",
            "support check"])
    def test_fan_errors_quote_long_rays(self, error, call):
        # c holds one ray of rank 3000, d two; the message quotes the
        # rays of the one it names by QUOTE_LIMIT characters and a length
        e = [tuple(int(i == j) for i in range(3000)) for j in range(2)]
        c, d = Cone(e[:1]), Cone(e)
        with pytest.raises(error) as exc:
            call(c, d)
        named = d if error is CenterNotInFan else c
        assert f"... ({len(repr(named.rays))} characters)" in str(exc.value)
        assert len(str(exc.value)) < 3 * QUOTE_LIMIT

    @pytest.mark.parametrize("cones,message", [
        ((((1, 0),), ((1, 0),), ((0, 1),), ((0, 1),)),
         r"^cone \(\(0, 1\),\) listed twice$"),
        ((((1, 0, 0),), ((0, 0, 1),)),
         r"^cone \(\(0, 0, 1\),\) has a ray whose length is not the "
         r"rank 2$"),
    ], ids=["listed twice", "not the rank"])
    def test_fan_names_the_first_offender_in_sorted_order(self, cones,
                                                          message):
        """Two offenders, listed in either order: the one named is the
        first of the sorted cones."""
        for listed in (cones, cones[::-1]):
            with pytest.raises(FanSchemaError, match=message):
                Fan(2, tuple(map(Cone, listed)))

    @pytest.mark.parametrize("cones,labels,message", [
        ((((1,),), ((-1,),)),
         [((1,), DivisorLabel(BOUNDARY, 0)), ((1,), DivisorLabel(BOUNDARY, 1)),
          ((-1,), DivisorLabel(BOUNDARY, 2)),
          ((-1,), DivisorLabel(BOUNDARY, 3))],
         r"^the label DivisorLabel\(kind='boundary', arg=3\) is a second "
         r"label on the ray \(-1,\)$"),
        ((), [((1,), DivisorLabel(BOUNDARY, 0)),
              ((-1,), DivisorLabel(BOUNDARY, 1))],
         r"^the label DivisorLabel\(kind='boundary', arg=1\) is on the ray "
         r"\(-1,\), which no cone holds$"),
    ], ids=["second label", "unheld"])
    def test_fan_names_the_first_label_offender_in_sorted_order(
            self, cones, labels, message):
        for listed in (labels, labels[::-1]):
            with pytest.raises(FanSchemaError, match=message):
                Fan(1, tuple(map(Cone, cones)), listed)

    @pytest.mark.parametrize("data,match", [
        ({"rank": 1, "rays": [[1], [-1]], "cones": [[0]],
          "labels": {"1": {"kind": "boundary", "arg": 0}}},
         r"^fan JSON label '1' is on the ray \[-1\], which no cone holds$"),
        ({"rank": 1, "rays": [[1], [1]], "cones": [[0]],
          "labels": {"0": {"kind": "boundary", "arg": 0},
                     "1": {"kind": "boundary", "arg": 1}}},
         r"^fan JSON label '1' is a second label on the ray \[1\]$"),
    ], ids=["unheld", "second"])
    def test_fan_json_refuses_first_with_its_own_message(self, data, match):
        with pytest.raises(FanSchemaError, match=match):
            fan_from_json(data)

    @pytest.mark.parametrize("labels,match", [
        ({"2": {"kind": "boundary", "arg": 0}},
         r"^fan JSON label '2' is on the ray \[-1, 0\], which no cone "
         r"holds$"),
        ({"0": {"kind": "boundary", "arg": 0},
          "00": {"kind": "boundary", "arg": 1}},
         r"^fan JSON label '00' is a second label on the ray \[1, 0\]$"),
    ], ids=["unheld", "second"])
    def test_fan_json_label_error_wins_over_a_cone_listed_twice(
            self, labels, match):
        """The reader checks its labels before cones listed twice, as when
        `Fan(...)` made that check after them."""
        data = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0]],
                "cones": [[0, 1], [1, 0]], "labels": labels}
        with pytest.raises(FanSchemaError, match=match):
            fan_from_json(data)
        del data["labels"]
        with pytest.raises(FanSchemaError,
                           match=r"^cone \(\(0, 1\), \(1, 0\)\) listed "
                                 r"twice$"):
            fan_from_json(data)

    def test_fan_json_names_the_first_cone_listed_twice_in_sorted_order(
            self):
        cones = [[1, 2], [1, 2], [0, 1], [0, 1]]
        for listed in (cones, cones[::-1]):
            with pytest.raises(FanSchemaError,
                               match=r"^cone \(\(-1, 0\), \(0, 1\)\) "
                                     r"listed twice$"):
                fan_from_json({"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0]],
                               "cones": listed})

    @settings(max_examples=200, deadline=None)
    @given(cone_sets(), st.data())
    def test_every_fan_that_builds_round_trips(self, fan, data):
        """Labels drawn on the fan's rays and on a ray it may not hold,
        some twice: `Fan` refuses, or `fan_to_json` writes them back."""
        pool = fan.rays() + ((-1,) * fan.rank, (1,) * fan.rank)
        picks = data.draw(st.lists(st.tuples(
            st.sampled_from(pool), st.sampled_from((BOUNDARY, EXCEPTIONAL)),
            st.integers(0, 3)), max_size=4))
        labels = [(ray, DivisorLabel(kind, arg)) for ray, kind, arg in picks]
        held = set(fan.rays())
        rays = [ray for ray, _ in labels]
        try:
            labelled = Fan(fan.rank, fan.cones, labels)
        except FanSchemaError:
            assert len(set(rays)) < len(rays) or not set(rays) <= held
            return
        assert len(set(rays)) == len(rays) and set(rays) <= held
        assert fan_loads(fan_dumps(labelled)) == labelled


# fan JSON that lists no rays, whose ray index range 0..-1 is empty
NO_RAYS = [
    pytest.param('{"rank": 1, "rays": [], "cones": [[0]]}',
                 r"cone \[0\] is not a list of ray indices, and the JSON "
                 r"lists no rays", id="cone on no rays"),
    pytest.param('{"rank": 1, "rays": [], "cones": [], '
                 '"labels": {"0": {"kind": "boundary", "arg": 0}}}',
                 r"label '0'.* needs a ray index and an int arg, and the "
                 r"JSON lists no rays", id="label on no rays"),
]

# entries the bulk schema pass of the JSON reader refuses, and the message
# that names the first bad one
TWO_RAYS = '{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [%s]}'
BAD_ITEMS = [("true", "True"), ("1.0", "1.0"), ('"0"', "'0'"),
             ("[0]", "[0]")]
SCHEMA_TRAPS = [
    *[pytest.param(TWO_RAYS % f"[0, {item}]",
                   f"fan JSON cone [0, {shown}] is not a list of ray "
                   f"indices in 0..1", id=f"cone item {item}")
      for item, shown in BAD_ITEMS],
    *[pytest.param('{"rank": 2, "rays": [[1, %s], [0, 1]], '
                   '"cones": [[0, 1]]}' % item,
                   f"fan JSON ray [1, {shown}] is not a list of 2 integers",
                   id=f"ray item {item}")
      for item, shown in BAD_ITEMS],
    pytest.param(TWO_RAYS % "[-1, 0]",
                 "fan JSON cone [-1, 0] is not a list of ray indices in "
                 "0..1", id="index -1"),
    pytest.param(TWO_RAYS % "[0, 2]",
                 "fan JSON cone [0, 2] is not a list of ray indices in "
                 "0..1", id="index len(rays)"),
    pytest.param(TWO_RAYS % "[0, 1], [1, true], [7]",
                 "fan JSON cone [1, True] is not a list of ray indices in "
                 "0..1", id="first of two bad cones"),
    # entries JSON text cannot hold, from a library caller's dict
    *[pytest.param({"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [cone]},
                   f"fan JSON cone {cone!r} is not a list of ray indices "
                   f"in 0..1", id=f"cone as {type(cone).__name__}")
      for cone in ({"0": 1}, "01", (0, 1))],
    *[pytest.param({"rank": 2, "rays": [[0, 1], ray], "cones": [[0, 1]]},
                   f"fan JSON ray {ray!r} is not a list of 2 integers",
                   id=f"ray as {type(ray).__name__}")
      for ray in ({"1": 0}, "10", (1, 0))],
]


class TestJson:
    def test_cones_come_out_sorted(self):
        """`fan_to_json` sorts nothing: the ray index grows with the ray,
        so each cone's indices and the list of cones are already sorted."""
        product = log_product([parse_pair(t) for t in ("A1:0", "P1:pt",
                                                       "P2:H")]).fan
        shuffled = fan_to_json(product)
        random.Random(3).shuffle(shuffled["cones"])
        for fan in (product, FIXTURE_DET2, fan_from_json(shuffled),
                    star_subdivide(product, product.cones[-1]),
                    product_fan(FIXTURE_DET2, p1_fan())):
            cones = fan_to_json(fan)["cones"]
            assert cones == sorted(sorted(c) for c in cones)

    def test_round_trip(self):
        fan = star_subdivide(octant(3),
                             Cone(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        again = fan_loads(fan_dumps(fan))
        assert again == fan

    def test_deterministic_output(self):
        fan = product_fan(p1_fan(), p1_fan())
        assert fan_dumps(fan) == fan_dumps(fan_loads(fan_dumps(fan)))

    def test_schema_fields(self):
        data = json.loads(fan_dumps(p1_fan()))
        assert set(data) == {"rank", "rays", "cones", "labels"}

    @pytest.mark.parametrize("key", ["0", "00"])
    def test_decimal_label_keys_load(self, key):
        fan = fan_from_json({"rank": 1, "rays": [[1]], "cones": [[0]],
                             "labels": {key: {"kind": BOUNDARY, "arg": 0}}})
        assert dict(fan.labels) == {(1,): DivisorLabel(BOUNDARY, 0)}

    def test_label_on_a_ray_no_cone_holds_refused(self, capsys, tmp_path):
        # `fan_to_json` writes no label for such a ray, so the fan could
        # not round-trip
        data = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                "cones": [[0, 1]],
                "labels": {"2": {"kind": "boundary", "arg": 0}}}
        with pytest.raises(ValueError, match=r"label '2' is on the ray "
                           r"\[-1, -1\], which no cone holds"):
            fan_from_json(data)
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(data))
        assert main(["fan", "check", str(path)]) == 2
        assert "which no cone holds" in capsys.readouterr().err
        data["labels"] = {"1": {"kind": "boundary", "arg": 0}}
        assert fan_loads(fan_dumps(fan_from_json(data))) == \
            fan_from_json(data)

    @pytest.mark.parametrize("text,match", [
        ('[]', "must be an object"),
        ('{"rays": [], "cones": []}', "needs 'rank' as int"),
        ('{"rank": 2, "cones": []}', "needs 'rays' as list"),
        ('{"rank": 2, "rays": []}', "needs 'cones' as list"),
        ('{"rank": true, "rays": [], "cones": []}', "needs 'rank' as int"),
        ('{"rank": -1, "rays": [], "cones": []}', "must be nonnegative"),
        ('{"rank": 2, "rays": [[1, 0.5]], "cones": []}', "2 integers"),
        ('{"rank": 2, "rays": [[1, 0, 0]], "cones": []}', "2 integers"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, "1"]]}',
         "ray indices"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 2]]}',
         r"ray indices in 0\.\.1"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[-1, 0]]}',
         r"ray indices in 0\.\.1"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1], [1, 0]]}',
         "listed twice"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], '
         '"labels": []}', "needs 'labels' as dict"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], '
         '"labels": {"5": {"kind": "boundary", "arg": 0}}}', "ray index"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], '
         '"labels": {"0": {"kind": "boundary", "arg": "0"}}}', "int arg"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], '
         '"labels": {"0": {"kind": "nonsense", "arg": 0}}}',
         "unknown label kind"),
        ('{"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1]],'
         ' "labels": {"2": {"kind": "boundary", "arg": 0}}}',
         "which no cone holds"),
        # a digit that is not a decimal digit: "²".isdigit() holds
        pytest.param('{"rank": 2, "rays": [[1, 0], [0, 1]], '
                     '"cones": [[0, 1]], '
                     '"labels": {"²": {"kind": "boundary", "arg": 0}}}',
                     "label '²'.*ray index", id="superscript label key"),
        # more digits than Python's int() reads by default
        pytest.param('{"rank": 2, "rays": [[1, 0], [0, 1]], '
                     '"cones": [[0, 1]], "labels": {"%s": '
                     '{"kind": "boundary", "arg": 0}}}' % ("0" * 5000),
                     "ray index", id="5000-digit label key"),
        # a key JSON text cannot hold, from a library caller's dict
        pytest.param({"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]],
                      "labels": {0: {"kind": "boundary", "arg": 0}}},
                     "label 0:.*ray index", id="int label key"),
        pytest.param('{"rank": 1, "rays": [[%s]], "cones": [[0]]}'
                     % ("9" * 5000), "fan JSON: an integer has more than",
                     id="5000-digit ray entry",
                     marks=pytest.mark.skipif(
                         not hasattr(sys, "get_int_max_str_digits"),
                         reason="no int-to-str digit limit")),
        # two keys that name one ray: `fan_to_json` writes one label back
        pytest.param('{"rank": 1, "rays": [[1], [-1]], "cones": [[0], [1]], '
                     '"labels": {"0": {"kind": "boundary", "arg": 0}, '
                     '"00": {"kind": "exceptional", "arg": 5}}}',
                     r"label '00' is a second label on the ray \[1\]",
                     id="two labels on one ray"),
        pytest.param('{"rank": 1, "rays": [[1], [1], [-1]], '
                     '"cones": [[0], [2]], '
                     '"labels": {"0": {"kind": "boundary", "arg": 0}, '
                     '"1": {"kind": "exceptional", "arg": 5}}}',
                     r"label '1' is a second label on the ray \[1\]",
                     id="two labels on a ray listed twice"),
        pytest.param("[" * 100_000, "nested too deeply",
                     id="deeply nested list"),
        pytest.param('{"a":' * 100_000, "nested too deeply",
                     id="deeply nested object"),
        # a decimal digit that is not ASCII: "\u0661".isdecimal() holds
        pytest.param('{"rank": 2, "rays": [[1, 0], [0, 1]], '
                     '"cones": [[0, 1]], '
                     '"labels": {"\u0661": {"kind": "boundary", "arg": 0}}}',
                     "label '\u0661'.*ray index",
                     id="Arabic-Indic label key"),
        pytest.param('{"rank": 2, "rays": [[1, 0], [0, 1]], '
                     '"cones": [[0, 1]], '
                     '"labels": {" 1": {"kind": "boundary", "arg": 0}}}',
                     "label ' 1'.*ray index", id="spaced label key"),
        *NO_RAYS,
    ])
    def test_every_schema_failure_is_fan_schema_error(self, text, match):
        load = fan_loads if isinstance(text, str) else fan_from_json
        with pytest.raises(FanSchemaError, match=match) as exc:
            load(text)
        # a ValueError, not a named computation error: `fan check` exits 2
        assert isinstance(exc.value, ValueError)
        assert not isinstance(exc.value, LogfanError)

    @pytest.mark.parametrize("text,match", NO_RAYS)
    def test_no_rays_message_names_no_index_range(self, text, match,
                                                  capsys, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(text)
        assert main(["fan", "check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "the JSON lists no rays" in err and "0..-1" not in err

    @pytest.mark.parametrize("data,message", SCHEMA_TRAPS)
    def test_bulk_schema_pass_names_the_first_bad_entry(
            self, data, message, capsys, tmp_path):
        load = fan_loads if isinstance(data, str) else fan_from_json
        with pytest.raises(FanSchemaError) as exc:
            load(data)
        assert str(exc.value) == message
        if isinstance(data, str):
            path = tmp_path / "fan.json"
            path.write_text(data)
            assert main(["fan", "check", str(path)]) == 2
            assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("rank,rays", [(0, []), (2, [[1, 0]])])
    def test_empty_cone_reads(self, rank, rays):
        fan = fan_loads(json.dumps({"rank": rank, "rays": rays,
                                    "cones": [[]]}))
        assert fan == Fan(rank, (Cone(()),))
        assert fan.cones[0].det == Cone(()).det == 1

    @pytest.mark.parametrize("cones,error,message", [
        # an invalid cone before a malformed one: the schema of every cone
        # is read before the geometry of any
        ("[[0, 1], [0, true]]", FanSchemaError,
         "fan JSON cone [0, True] is not a list of ray indices in 0..2"),
        ("[[0, true], [0, 1]]", FanSchemaError,
         "fan JSON cone [0, True] is not a list of ray indices in 0..2"),
        ("[[0, 1], [0, 2]]", InvalidCone, "ray (2, 0) is not primitive"),
    ], ids=["invalid then malformed", "malformed then invalid",
            "invalid only"])
    def test_every_cone_schema_comes_before_any_cone_geometry(
            self, cones, error, message, capsys, tmp_path):
        text = ('{"rank": 2, "rays": [[1, 0], [2, 0], [0, 1]], '
                '"cones": %s}' % cones)
        with pytest.raises(error) as exc:
            fan_loads(text)
        assert type(exc.value) is error and str(exc.value) == message
        path = tmp_path / "fan.json"
        path.write_text(text)
        code, line = ((2, f"usage error: {message}")
                      if error is FanSchemaError
                      else (1, f"error: InvalidCone: {message}"))
        assert main(["fan", "check", str(path)]) == code
        assert capsys.readouterr().err == line + "\n"

    def test_labels_on_rays_listed_twice_take_linear_time(self):
        """N rays each listed twice, the cones on the first copies and the
        labels on the second: the held rays are gathered once, where
        gathering them once per label took about 30 s at this N."""
        n = 20_000
        rays = [[1, k] for k in range(n)]
        data = {"rank": 2, "rays": rays + rays,
                "cones": [[k] for k in range(n)],
                "labels": {str(n + k): {"kind": BOUNDARY, "arg": k}
                           for k in range(n)}}
        start = time.perf_counter()
        fan = fan_from_json(data)
        assert time.perf_counter() - start < 10
        assert len(fan.cones) == len(fan.labels) == n


@cache
def product_json(pairs):
    return fan_to_json(log_product([parse_pair(p) for p in pairs]).fan)


@st.composite
def reader_inputs(draw):
    """Fan JSON whose cones may share `fans._index_key`: a log product
    with its coordinates permuted and signs flipped, or moved by a random
    unimodular matrix; or a non-pure fan, the permuted log product with
    some cones cut to a face, or cones on small random rays, each with
    its image under a swap of two coordinates, so two columns agree."""
    kind = draw(st.sampled_from(("permuted", "moved", "faces", "random")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        n = draw(st.integers(2, 4))
        i, j = rng.sample(range(n), 2)

        def swap(r):
            r = list(r)
            r[i], r[j] = r[j], r[i]
            return tuple(r)

        rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                             min_size=1, max_size=5, unique=True))
        rays = list(dict.fromkeys(rays + [swap(r) for r in rays]))
        at = {r: k for k, r in enumerate(rays)}
        cones = set()
        for _ in range(draw(st.integers(1, 4))):
            cone = rng.sample(range(len(rays)),
                              rng.randint(1, min(n, len(rays))))
            cones |= {tuple(sorted(cone)),
                      tuple(sorted(at[swap(rays[k])] for k in cone))}
        return {"rank": n, "rays": [list(r) for r in rays],
                "cones": [list(c) for c in sorted(cones)]}
    pairs = draw(st.sampled_from(READER_PAIRS))
    data = product_json(pairs)
    n = data["rank"]
    if kind == "moved":
        matrix = unimodular(rng, n)
        rays = [mat_mul_vec(matrix, r) for r in data["rays"]]
    else:
        perm = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        rays = [tuple(s * r[k] for s, k in zip(signs, perm))
                for r in data["rays"]]
    cones = data["cones"]
    if kind == "faces":
        cones = {tuple(c) if rng.random() < 0.5
                 else tuple(sorted(rng.sample(c, rng.randint(1, len(c)))))
                 for c in cones}
        cones = [list(c) for c in sorted(cones)]
    return {"rank": n, "rays": [list(r) for r in rays], "cones": cones}


READER_PAIRS = [("A1:0",) * 2, ("A1:0",) * 3, ("A1:0",) * 4,
                ("P1:pt",) * 2, ("P1:pt",) * 3, ("P1:pt", "P2:H"),
                ("P2:H",) * 2, ("A1:0", "P1:pt", "A1:0")]


@settings(max_examples=200, deadline=None)
@given(reader_inputs())
# the two cones share a key, and each has index 2
@example({"rank": 2, "rays": [[1, 0], [1, 2], [0, 1], [2, 1]],
          "cones": [[0, 1], [2, 3]]})
# two dependent cones share a key: the first one's message is raised
@example({"rank": 2, "rays": [[1, 2], [-1, -2], [2, 1], [-2, -1]],
          "cones": [[0, 1], [2, 3]]})
# indices 5 and 1, whose columns agree one by one as sets of values and
# so in their sums, as a key coarser than the sorted columns would read
@example({"rank": 3, "rays": [[3, 1, 3], [1, 2, 1], [3, 2, 3], [1, 1, 1]],
          "cones": [[0, 1], [2, 3]]})
def test_reader_indices_match_lattice_index(data):
    """Every cone `fan_loads` returns keeps the index `lattice_index`
    gives its rays, and where some cone is invalid, the reader raises
    what `Cone(rays)` raises for the first such cone."""
    rays = [tuple(r) for r in data["rays"]]
    text = json.dumps(data)
    try:
        expected = [Cone(tuple(rays[i] for i in c)) for c in data["cones"]]
    except InvalidCone as exc:
        with pytest.raises(InvalidCone) as ours:
            fan_loads(text)
        assert str(ours.value) == str(exc)
        return
    fan = fan_loads(text)
    assert set(fan.cones) == set(expected)
    for cone in fan.cones:
        assert cone.det == linalg.lattice_index(cone.rays)


def test_reader_test_fails_on_a_coarser_key(monkeypatch):
    """The differential test catches a key that column sums alone make:
    through `fan_loads`, the third example's second cone gets index 5."""
    monkeypatch.setattr(fans, "_index_key",
                        lambda rays: tuple(sorted(map(sum, zip(*rays)))))
    with pytest.raises(AssertionError):
        test_reader_indices_match_lattice_index()


@settings(max_examples=50, deadline=None)
@given(st.permutations([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
def test_canonical_form_ignores_ray_order(perm):
    assert Cone(tuple(perm)) == Cone(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-9, max_value=9))
def test_smoothness_matches_determinant(a, b):
    from logfan.linalg import primitive
    ray = primitive((a, b)) if (a, b) != (0, 0) else (1, 0)
    if ray in (((1, 0)), ((-1, 0))):
        ray = (0, 1)
    cone = Cone(((1, 0), ray))
    det = ray[1]  # determinant of [[1,0],[a',b']] is b'
    assert is_smooth(cone, 2) == (abs(det) == 1)
