"""Exact integer linear algebra helpers for cone arithmetic.

Everything runs on plain Python ints (arbitrary precision), and every
elimination step is one `_pivot`, the fraction-free update of Bareiss
(1968).  Its `start` column bounds the columns a step writes: the forward
elimination `_echelon` updates only the rows below the pivot row and only
from the pivot column on, where everything to the left is already 0,
while the simplex tableau is pivoted over its full width (start 0).

Up to rank 4 a square index and the normal of independent rows need no
elimination: they are read off the rows' cofactor vector in closed form
(`_cofactors`), a handful of products where an elimination is almost all
interpreter overhead.  Otherwise one forward elimination gives the rank,
read inside `lattice_index` and `normal_vector` and not exported: a
lattice index is a nonzero maximal minor or a Hermite reduction modulo
one, a normal an integer back-substitution.  Cone membership, and any
nonnegative combination, is phase 1 of the simplex method on a tableau
pivoted by the same `_pivot`, whose integer tableau gives the solution
with its common denominator.  No floats or fractions enter the core
geometry.
"""

from math import gcd
from operator import mul


def primitive(vec):
    """Divide an integer vector by the gcd of its entries.

    The zero vector is rejected: it never occurs as a ray.
    """
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def _pivot(rows, top, col, d, start=0):
    """The one fraction-free step (Bareiss 1968) on the pivot top[col]:
    every row of `rows` but `top` becomes (row * p - row[col] * top) / d,
    p = top[col] and d the previous pivot, which zeroes its entry in
    column `col`.  Only the columns from `start` on are written: a caller
    passes start > 0 where every row, `top` included, is 0 left of it, so
    the step leaves those entries 0.  A row with row[col] == 0 is left
    alone when p == d, where the step is the identity.  Returns p, the
    next d.
    """
    p = top[col]
    for row in rows:
        f = row[col]
        if row is not top and (f or p != d):
            for j in range(start, len(top)):
                row[j] = (row[j] * p - f * top[j]) // d
    return p


def _echelon(rows):
    """Fraction-free row echelon form of an integer matrix: forward
    elimination, each step one `_pivot` on the rows below the pivot row,
    from the pivot column on, as every row from the pivot row down is 0
    left of it.

    Returns (m, pivots, d): the reduced rows, the pivot column of each of
    the first len(pivots) rows and the last pivot (1 when there is none).
    Every division is exact: after k pivots, entry m[i][j] (i >= k) is the
    (k+1)-minor on the pivot rows and row i, the pivot columns and column
    j, so d is, up to sign, the minor on the pivot rows/columns.
    """
    m = [list(row) for row in rows]
    pivots = []
    d = 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        for i in range(r, len(m)):
            if m[i][col]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        d = _pivot(m[r + 1:], m[r], col, d, col)
        pivots.append(col)
    return m, pivots, d


def _cofactors(rows, n):
    """The cofactor vector u of n - 1 integer rows of length n, 1 <= n <= 4,
    in closed form: u . v = +-det(rows + [v]) for every row v, so u is 0
    exactly when the rows are dependent.  At n = 4 the six 2 x 2 minors of
    the last two rows are combined with the first row.
    """
    if n == 1:
        return (1,)
    if n == 2:
        (a, b), = rows
        return (b, -a)
    if n == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
    m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    return (a3 * m12 - a2 * m13 + a1 * m23, a2 * m03 - a3 * m02 - a0 * m23,
            a3 * m01 - a1 * m03 + a0 * m13, a1 * m02 - a2 * m01 - a0 * m12)


def lattice_index(rows):
    """The index of the lattice spanned by k integer rows in its
    saturation (their span over Q, intersected with Z^n): the gcd of the
    k x k minors, 1 exactly when the rows extend to a basis of Z^n and 0
    when they are dependent.

    A square matrix of k <= 4 rows is one determinant: the first k - 1
    rows' cofactor vector (`_cofactors`) dotted with the last.  Any other
    takes one `_echelon`, which gives the rank and, at rank k, a nonzero
    maximal minor D, the answer for a larger square matrix.  Otherwise the
    index is that of the lattice L in Z^k spanned by the columns, which
    divides D.  It is read off a Hermite reduction modulo R, at first |D|
    (Domich, Kannan and Trotter 1987): the index of L divides R, so R Z^k
    lies in L and every entry may be kept reduced mod R.  Euclid column steps
    fold the first entry of every column into one pivot column, which
    starts as R e_1, until it ends as the gcd h of those entries and R.
    The index of L is h times that of L', spanned by the other columns
    without their first entry, and the index of L' divides R / h; so R
    becomes R / h and the reduction goes on one row down.
    """
    k = len(rows)
    if 0 < k <= 4 and len(rows[0]) == k:
        return abs(sum(map(mul, _cofactors(rows[:-1], k), rows[-1])))
    _, pivots, d = _echelon(rows)
    if len(pivots) < k:
        return 0
    if not rows or len(rows[0]) == k:
        return abs(d)
    index, mod = 1, abs(d)
    columns = list(zip(*rows))
    for i in range(k):
        pivot = [mod] + [0] * (k - i - 1)
        rest = []
        for c in columns:
            c = [t % mod for t in c]
            while c[0]:
                q = pivot[0] // c[0]
                pivot, c = c, [(s - q * t) % mod for s, t in zip(pivot, c)]
            if any(c[1:]):
                rest.append(c[1:])
        index *= pivot[0]
        mod //= pivot[0]
        columns = rest
    return index


def normal_vector(rows, n):
    """Primitive normal of the hyperplane spanned by n - 1 linearly
    independent integer rows in Q^n, with its first nonzero entry positive.

    Up to n = 4 it is the rows' cofactor vector (`_cofactors`) made
    primitive; only dependent rows, whose cofactors are 0, and n > 4 take
    the elimination.  It leaves one free column; that is set to the last
    pivot d and the pivot columns are back-substituted, last row first, so
    that each row is orthogonal to the result.  Each row is zero left of its
    pivot, so only the entries right of it enter, and those are filled
    before it; by Cramer's rule every division is exact: this is the rows'
    cofactor vector up to sign before it is made primitive, and the sign
    of its first nonzero entry is set last.
    """
    ys = _cofactors(rows, n) if n <= 4 and len(rows) == n - 1 else ()
    if not any(ys):
        m, pivots, d = _echelon(rows)
        ys = [d] * n
        for col in pivots:
            ys[col] = 0
        for row, col in reversed(list(zip(m, pivots))):
            s = 0
            for j in range(col + 1, n):
                s += row[j] * ys[j]
            ys[col] = -s // row[col]
    u = primitive(ys)
    for x in u:
        if x:
            return u if x > 0 else tuple(-x for x in u)


def solve_nonnegative(columns, point):
    """A solution x >= 0 over Q of sum_i x_i * columns[i] = point, or
    None when there is none; any columns will do.  The solution is (xs, d):
    nonnegative ints xs and a denominator d >= 1, x_i = xs[i] / d, so
    sum_i xs[i] * columns[i] = d * point.

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
    ends at 0: over the denominator d, basic columns take their row's rhs
    and the others 0.
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
    rhs = {b: row[k] for b, row in zip(basis, rows)}
    return tuple(rhs.get(j, 0) for j in range(k)), d


def mat_mul_vec(matrix, vec):
    """Integer matrix times integer vector."""
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in matrix)
