"""Exact integer linear algebra helpers for cone arithmetic.

Everything runs on plain Python ints (arbitrary precision), and every
elimination step is one `_pivot`, the fraction-free update of Bareiss
(1968).  Determinant, rank and hyperplane normals are read off one
forward elimination, normals by an integer back-substitution; cone
membership, and any nonnegative combination, is phase 1 of the simplex
method on a tableau pivoted by the same `_pivot`.  No floats enter the
core geometry, and fractions.Fraction appears only in the coefficients
`solve_nonnegative` returns.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def primitive(vec):
    """Divide an integer vector by the gcd of its entries.

    The zero vector is rejected: it never occurs as a ray.
    """
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def _pivot(rows, top, col, d):
    """The one fraction-free step (Bareiss 1968) on the pivot top[col]:
    every row of `rows` but `top` becomes (row * p - row[col] * top) / d,
    p = top[col] and d the previous pivot, which zeroes its entry in
    column `col`.  A row with row[col] == 0 is left alone when p == d,
    where the step is the identity.  Returns p, the next d.
    """
    p = top[col]
    for row in rows:
        f = row[col]
        if row is not top and (f or p != d):
            for j, t in enumerate(top):
                row[j] = (row[j] * p - f * t) // d
    return p


def _echelon(rows):
    """Fraction-free row echelon form of an integer matrix: forward
    elimination, each step one `_pivot` on the rows from the pivot row
    down.

    Returns (m, pivots, sign, d): the reduced rows, the pivot column of
    each of the first len(pivots) rows, the sign of the row permutation
    and the last pivot (1 when there is none).  Every division is exact:
    after k pivots, entry m[i][j] (i >= k) is the (k+1)-minor on the pivot
    rows and row i, the pivot columns and column j, so d is the leading
    minor on the pivot rows/columns.
    """
    m = [list(row) for row in rows]
    pivots = []
    sign = 1
    d = 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        d = _pivot(m[r:], m[r], col, d)
        pivots.append(col)
    return m, pivots, sign, d


def det(matrix):
    """Determinant of a square integer matrix."""
    _, pivots, sign, d = _echelon(matrix)
    return sign * d if len(pivots) == len(matrix) else 0


def matrix_rank(rows):
    """Rank of an integer matrix over Q."""
    return len(_echelon(rows)[1])


def minors_gcd(rows):
    """gcd of all maximal (k x k) minors of a k x n integer matrix.

    Equals 1 exactly when the rows extend to a basis of Z^n.
    """
    k = len(rows)
    n = len(rows[0])
    g = 0
    for cols in combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = gcd(g, abs(det(sub)))
        if g == 1:
            return 1
    return g


def normal_vector(rows, n):
    """Primitive normal of the hyperplane spanned by n - 1 linearly
    independent integer rows in Q^n, with its first nonzero entry positive.

    The elimination leaves one free column; it is set to the last pivot d
    and the pivot columns are back-substituted, last row first, so that
    each row is orthogonal to the result.  Each row is zero left of its
    pivot and the entries right of it are filled before it, so by Cramer's
    rule every division is exact: this is the rows' cofactor vector up to
    sign before it is made primitive.
    """
    m, pivots, _, d = _echelon(rows)
    ys = [0 if j in pivots else d for j in range(n)]
    for row, col in reversed(list(zip(m, pivots))):
        ys[col] = -sum(a * y for a, y in zip(row, ys)) // row[col]
    u = primitive(ys)
    return u if next(x for x in u if x) > 0 else tuple(-x for x in u)


def solve_nonnegative(columns, point):
    """A solution x >= 0 over Q of sum_i x_i * columns[i] = point, as a
    tuple of Fractions, or None when there is none; any columns will do.

    Phase 1 of the simplex method with Bland's rule (Bland 1977), so no
    basis repeats, on a fraction-free tableau.  Rows with a negative entry
    of `point` are negated and the start basis is one artificial column
    per row (column k + i, never stored, never entering again).  The first
    column with a positive reduced cost enters; the row of least ratio
    leaves, ties going to the smallest basis index.  The tableau is d
    times the true one, d the last pivot (positive, as pivots are), and
    each pivot is one `_pivot` over the rows and the objective, so entries
    are minors of the input and divisions exact (Edmonds 1967).  The point
    is reached exactly when the objective, the sum of the artificials,
    ends at 0: basic columns take rhs / d, the others 0.
    """
    k = len(columns)
    rows = [[s * c[i] for c in columns] + [s * p]
            for i, p in enumerate(point) for s in (-1 if p < 0 else 1,)]
    basis = [k + i for i in range(len(rows))]
    objective = [sum(col) for col in zip(*rows)] or [0] * (k + 1)
    d = 1
    while (col := next((j for j in range(k) if objective[j] > 0),
                       None)) is not None:
        r = None
        for i, row in enumerate(rows):
            if row[col] > 0 and (r is None or (row[k] * rows[r][col],
                                               basis[i])
                                 < (rows[r][k] * row[col], basis[r])):
                r = i
        d = _pivot(rows + [objective], rows[r], col, d)
        basis[r] = col
    if objective[k]:
        return None
    x = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            x[b] = Fraction(rows[i][k], d)
    return tuple(x)


def mat_mul_vec(matrix, vec):
    """Integer matrix times integer vector."""
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in matrix)
