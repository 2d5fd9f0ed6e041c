"""Property tests for the exact linear algebra core.

The oracles share no code with logfan.linalg: determinants by the Leibniz
expansion, lattice indices as the gcd of every maximal minor so expanded,
rank as the size of the largest nonzero minor, nonnegative solutions by
Cramer's rule and exact substitution, and hyperplane normals as Leibniz
cofactor vectors.  One differential oracle does share its method: the
full-width elimination and back-substitution, kept here as they were
before each step wrote only the columns from its pivot on, pins
`_echelon` and `normal_vector` to their results entry for entry.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logfan.errors import InvalidCone
from logfan.fans import Cone, is_smooth
from logfan.linalg import (_echelon, lattice_index, normal_vector,
                           primitive, solve_nonnegative)


def leibniz(matrix):
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2)
                         if perm[i] > perm[j])
        total += (-1) ** inversions * prod(matrix[i][perm[i]]
                                           for i in range(n))
    return total


def minors(rows, k):
    for rs in combinations(range(len(rows)), k):
        for cs in combinations(range(len(rows[0])), k):
            yield leibniz([[rows[r][c] for c in cs] for r in rs])


def oracle_rank(rows):
    if not rows or not rows[0]:
        return 0
    return max(k for k in range(min(len(rows), len(rows[0])) + 1)
               if k == 0 or any(minors(rows, k)))


# zeros (so pivots need row swaps), small entries, and entries near
# +-10^6 so the exact divisions carry large intermediate products
ENTRY = st.one_of(st.just(0), st.integers(-3, 3),
                  st.integers(10**6 - 3, 10**6 + 3),
                  st.integers(-10**6 - 3, -10**6 + 3))


def dense(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Integer matrices, often rank-deficient or with zero rows/columns."""
    n_rows = draw(st.integers(0, 4)) if rows is None else rows
    n_cols = draw(st.integers(0, 4)) if cols is None else cols
    m = [[draw(ENTRY) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        i = draw(st.integers(0, n_rows - 1))
        m[i] = [a * x + b * y for x, y in zip(m[0], m[-1])]
    if n_rows and draw(st.booleans()):
        m[draw(st.integers(0, n_rows - 1))] = [0] * n_cols
    if n_cols and draw(st.booleans()):
        j = draw(st.integers(0, n_cols - 1))
        for row in m:
            row[j] = 0
    return m


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: matrices(n, n)))
@example([[2, 0, 0], [0, 3, 0], [0, 0, 5]])  # zeros below a pivot of 2
def test_lattice_index_of_square_is_abs_det(m):
    assert lattice_index(m) == abs(leibniz(m))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_largest_nonzero_minor(m):
    """The rows are dependent, index 0, exactly when `_echelon` finds
    fewer pivots than rows: the largest nonzero minor is smaller."""
    assert (lattice_index(m) == 0) == (oracle_rank(m) < len(m))


@st.composite
def lattice_rows(draw):
    """k x n matrices, n <= 6 and k up to n + 1, from `matrices`, often
    with one row scaled so that the rows are not primitive."""
    n = draw(st.integers(1, 6))
    m = draw(matrices(draw(st.integers(1, n + 1)), n))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(m) - 1))
        m[i] = [draw(st.sampled_from((2, 3, 6))) * x for x in m[i]]
    return m


@settings(max_examples=300, deadline=None)
@given(lattice_rows())
@example([[1, 1, 0], [1, -1, 0]])  # index 2: not a basis of Z^3
@example([[1, 0, -1], [-8, 8, 8]])  # the last row alone holds the 8
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])  # k > n
def test_lattice_index_matches_minors_gcd(m):
    """The index is the gcd of every maximal minor (0 for dependent
    rows), and a cone on the rows is smooth exactly when it is 1."""
    g = 0
    for minor in minors(m, len(m)):
        g = gcd(g, minor)
    assert lattice_index(m) == g
    rays = [tuple(r) for r in m]
    try:
        cone = Cone(rays)
    except InvalidCone:
        assert g != 1
    else:
        assert cone.det == g
        assert is_smooth(cone, len(m[0])) == (g == 1)


def test_lattice_index_of_a_wide_cone_is_fast():
    """(1, 1, 0, ...), (1, -1, 0, ...) and e_3 .. e_20 in Z^40: C(40, 20),
    about 1.4 * 10^11 maximal minors, but one elimination and a Hermite
    reduction modulo 2."""
    n = 40
    rays = [(1, 1) + (0,) * (n - 2), (1, -1) + (0,) * (n - 2)]
    rays += [tuple(int(j == i) for j in range(n)) for i in range(2, 20)]
    start = time.perf_counter()
    cone = Cone(rays)
    assert cone.det == 2 and not is_smooth(cone, n)
    assert time.perf_counter() - start < 5


def solve(columns, point):
    """`solve_nonnegative`'s answer as Fractions, after checking its
    integer form: None, or (xs, d) with nonnegative ints xs, one per
    column, an int d >= 1 and sum_i xs[i] * columns[i] == d * point."""
    got = solve_nonnegative(columns, point)
    if got is None:
        return None
    xs, d = got
    assert type(d) is int and d >= 1
    assert len(xs) == len(columns)
    assert all(type(x) is int and x >= 0 for x in xs)
    assert all(sum(x * col[i] for x, col in zip(xs, columns)) == d * p
               for i, p in enumerate(point))
    return tuple(Fraction(x, d) for x in xs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    dense(n, n), st.lists(ENTRY, min_size=n, max_size=n))))
@example(([[2, 0], [0, 3]], [2, 3]))  # p != d at a row with f == 0
def test_solve_square_matches_cramer(case):
    columns, point = case
    d = leibniz(columns)
    assume(d != 0)
    xs = []
    for i in range(len(columns)):
        replaced = [point if j == i else col for j, col in enumerate(columns)]
        xs.append(Fraction(leibniz(replaced), d))
    expected = tuple(xs) if all(x >= 0 for x in xs) else None
    assert solve(columns, point) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    dense(k, 4), st.lists(st.integers(-3, 3), min_size=k, max_size=k),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4))))
def test_solve_non_square(case):
    """Columns of length 4: points in their span are solved exactly (or
    refused for a negative coefficient); points off it give None.  Any
    answer has the integer form `solve` checks."""
    columns, coeffs, offset = case
    assume(oracle_rank(columns) == len(columns))
    point = [sum(c * col[i] for c, col in zip(coeffs, columns)) + offset[i]
             for i in range(4)]
    got = solve(columns, point)
    if oracle_rank(columns + [point]) > len(columns):
        assert got is None
    elif not any(offset):
        assert got == (tuple(coeffs) if min(coeffs) >= 0 else None)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_solve_any_columns_is_sound(columns, coeffs):
    """Dependent or zero columns included: any answer is nonnegative
    integers over a denominator d >= 1 that substitute exactly to d times
    the point (`solve`), a point of nonnegative coefficients gets one, and
    independent columns give back the coefficients."""
    assume(columns and columns[0])
    n = len(columns[0])
    point = [sum(c * col[i] for c, col in zip(coeffs, columns))
             for i in range(n)]
    got = solve(columns, point)
    if all(c >= 0 for c in coeffs[:len(columns)]):
        assert got is not None
        if oracle_rank(columns) == len(columns):
            assert got == tuple(coeffs[:len(columns)])


def test_solve_dependent_columns():
    a = (1, 2, 0)
    assert solve([a, (2, 4, 0)], (3, 6, 0)) == (3, 0)
    assert solve([a, (2, 4, 0)], (-1, -2, 0)) is None
    assert solve([a, (2, 4, 0)], (1, 0, 0)) is None
    assert solve([a, (0, 0, 0)], (2, 4, 0)) == (2, 0)
    assert solve([(1, 0), (-1, 0)], (-1, 0)) == (0, 1)


def cofactors(rows, n):
    """u with u.x = the determinant of `rows` with x appended as a row."""
    return [(-1) ** (n - 1 + j) * leibniz([r[:j] + r[j + 1:] for r in rows])
            for j in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n - 1, n)))
@example(((2, 0, 1), (0, 3, 1)))  # (3, 2, -6): row 2 rescaled by 2
def test_normal_vector_matches_cofactors(rows):
    n = len(rows[0]) if rows else 1
    u = cofactors(rows, n)
    assume(any(u))  # the rows are linearly independent
    got = normal_vector(rows, n)
    assert all(sum(a * b for a, b in zip(got, r)) == 0 for r in rows)
    g = gcd(*u)
    assert gcd(*got) == 1
    assert next(x for x in got if x) > 0
    assert list(got) in ([x // g for x in u], [-x // g for x in u])


# The elimination before `_pivot` took a start column: each step updated
# every row from the pivot row down over the full width, the pivot search
# was a generator, and the normal back-substituted over whole rows.
def pivot_full_width(rows, top, col, d):
    p = top[col]
    for row in rows:
        f = row[col]
        if row is not top and (f or p != d):
            for j, t in enumerate(top):
                row[j] = (row[j] * p - f * t) // d
    return p


def echelon_full_width(rows):
    m = [list(row) for row in rows]
    pivots = []
    d = 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        d = pivot_full_width(m[r:], m[r], col, d)
        pivots.append(col)
    return m, pivots, d


def normal_vector_full_width(rows, n):
    m, pivots, d = echelon_full_width(rows)
    ys = [0 if j in pivots else d for j in range(n)]
    for row, col in reversed(list(zip(m, pivots))):
        ys[col] = -sum(a * y for a, y in zip(row, ys)) // row[col]
    g = 0
    for x in ys:
        g = gcd(g, x)
    u = tuple(x // g for x in ys)
    return u if next(x for x in u if x) > 0 else tuple(-x for x in u)


@settings(max_examples=400, deadline=None)
@given(matrices())
@example([[0, 0, 0], [0, 0, 0]])  # no pivot at all
@example([[0, 2, 1], [0, 4, 2], [0, 0, 0]])  # zero column, dependent rows
@example([[1, 2], [3, 4], [5, 6], [7, 8]])  # more rows than columns
@example([[2, 0, 0], [0, 3, 0], [0, 0, 5]])  # p != d on rows with f == 0
def test_echelon_matches_the_full_width_elimination(m):
    assert _echelon(m) == echelon_full_width(m)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n - 1, n)))
@example(((2, 0, 1), (0, 3, 1)))
@example(((0, 1, 0), (0, 2, 0)))  # dependent rows: two free columns
@example(((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)))  # zero rows
def test_normal_vector_matches_the_full_width_back_substitution(rows):
    n = len(rows[0]) if rows else 1
    assert normal_vector(rows, n) == normal_vector_full_width(rows, n)


def test_normal_vector_examples():
    assert normal_vector([], 1) == (1,)
    assert normal_vector([(0, 1)], 2) == (1, 0)
    assert normal_vector([(2, 4, 0), (0, 0, 3)], 3) == (2, -1, 0)
    assert normal_vector([(1, 1, 0), (1, 0, 1)], 3) == (1, -1, -1)


def test_empty_shapes():
    assert lattice_index([]) == 1
    assert lattice_index([[], []]) == 0
    assert solve_nonnegative([], (0, 0)) == ((), 1)
    assert solve_nonnegative([], (0, 1)) is None
    with pytest.raises(ValueError, match="zero vector"):
        primitive((0, 0))
