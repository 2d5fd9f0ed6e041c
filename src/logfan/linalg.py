"""Exact integer linear algebra helpers for cone arithmetic.

The core is one fraction-free (Bareiss) elimination on plain Python ints
(arbitrary precision); determinant, rank, cone membership and hyperplane
normals are read off its result, the last two by one shared integer
back-substitution.  No floats enter the core geometry, and
fractions.Fraction appears only in the coefficients `solve_nonnegative`
returns.
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


def _echelon(rows):
    """Fraction-free row echelon form of an integer matrix (Bareiss 1968).

    Returns (m, pivots, sign): the reduced rows, the pivot column of each
    of the first len(pivots) rows, and the sign of the row permutation.
    Every division is exact: after k pivots, entry m[i][j] (i >= k) is the
    (k+1)-minor on the pivot rows and row i, the pivot columns and column
    j, so the last pivot is the leading minor on the pivot rows/columns.
    """
    m = [list(row) for row in rows]
    n_cols = len(m[0]) if m else 0
    pivots = []
    sign = 1
    prev = 1
    for col in range(n_cols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top = m[r]
        pv = top[col]
        for row in m[r + 1:]:
            f = row[col]
            for j in range(col + 1, n_cols):
                row[j] = (row[j] * pv - f * top[j]) // prev
            row[col] = 0
        prev = pv
        pivots.append(col)
    return m, pivots, sign


def det(matrix):
    """Determinant of a square integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    m, pivots, sign = _echelon(matrix)
    return sign * m[n - 1][n - 1] if len(pivots) == n else 0


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


def _back_substitute(m, pivots, ys):
    """Fill the pivot entries of `ys`, zero on entry, so that every row of
    the echelon form `m` is orthogonal to it; its other entries are given.

    Each row is zero left of its pivot, and the entries to the right are
    filled before it.  With the given entries multiples of the last pivot,
    every division is exact: by Cramer's rule the result is integral.
    """
    for row, col in reversed(list(zip(m, pivots))):
        ys[col] = -sum(a * y for a, y in zip(row, ys)) // row[col]
    return ys


def normal_vector(rows, n):
    """Primitive normal of the hyperplane spanned by n - 1 linearly
    independent integer rows in Q^n, with its first nonzero entry positive.

    The elimination leaves one free column; it is set to the last pivot d
    and the pivot columns are back-substituted, which gives the rows'
    cofactor vector up to sign before it is made primitive.
    """
    m, pivots, _ = _echelon(rows)
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    u = primitive(_back_substitute(m, pivots, [0 if j in pivots else d
                                               for j in range(n)]))
    return u if next(x for x in u if x) > 0 else tuple(-x for x in u)


def solve_nonnegative(columns, point):
    """Solve sum_i x_i * columns[i] = point over Q; return coefficients.

    Returns the tuple of Fractions if a solution with all x_i >= 0 exists,
    otherwise None. The columns are assumed linearly independent, so the
    solution (when the system is consistent) is unique; for dependent
    columns the free coefficients are taken to be 0.
    """
    k = len(columns)
    m, pivots, _ = _echelon([[c[i] for c in columns] + [p]
                             for i, p in enumerate(point)])
    if pivots and pivots[-1] == k:
        return None
    # (d * x, -d) is orthogonal to the rows of the augmented matrix, with
    # d the last pivot, so the back-substitution stays in ints
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    ys = _back_substitute(m, pivots, [0] * k + [-d])[:k]
    if any(y * d < 0 for y in ys):
        return None
    return tuple(Fraction(y, d) for y in ys)


def mat_mul_vec(matrix, vec):
    """Integer matrix times integer vector."""
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in matrix)
