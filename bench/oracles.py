"""Independent oracles and input generators for the benchmark.

Nothing here imports logfan.  Each oracle recomputes an expected output
from a closed form, so a wrong result from the library cannot agree with
its own check:

* log-product fans from the nested-set closed form (a maximal cone is a
  product cone with its boundary rays {b_i : i in I} replaced by the chain
  rays sum_{i in S_k} b_i of a maximal chain S_1 < ... < S_|I| = I), so
  A1^n has n! cones and every valid blow-up order gives the same fan;
* line-bundle cohomology on P^n and on pointed curves by the standard
  closed forms;
* HKR tables: {0: 1} for (P^n, H) and {q: C(n,q) C(n+q,n)} for its
  cohomology; {-1: g, 0: 1, 1: g} for a pointed genus-g curve;
* signed atom counts of kernels read from their terms.
"""

from itertools import combinations, permutations, product
from math import comb

# factor key -> (pair text, dimension)
FACTORS = {
    "A": ("A1:0", 1),
    "P1": ("P1:pt", 1),
    "P2": ("P2:H", 2),
    "P3": ("P3:H", 3),
}


def factor_fan(key):
    """(maximal cones, boundary ray) of one factor in local coordinates."""
    n = FACTORS[key][1]
    unit = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    if key == "A":
        return [(unit[0],)], unit[0]
    rays = unit + [tuple(-1 for _ in range(n))]
    return list(combinations(rays, n)), unit[0]


def _embed(ray, offset, total):
    out = [0] * total
    out[offset:offset + len(ray)] = ray
    return tuple(out)


def product_cones(keys):
    """Maximal cones (as ray tuples) of the plain product fan, with the
    embedded boundary ray of each factor."""
    dims = [FACTORS[k][1] for k in keys]
    total = sum(dims)
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    local = [factor_fan(k) for k in keys]
    boundary = [_embed(b, off, total) for (_, b), off in zip(local, offsets)]
    cones = []
    for choice in product(*(cones for cones, _ in local)):
        cones.append(tuple(_embed(r, off, total)
                           for cone, off in zip(choice, offsets)
                           for r in cone))
    return cones, boundary


def log_product_cones(keys):
    """Set of maximal cones (frozensets of rays) of the log product."""
    cones, boundary = product_cones(keys)
    out = set()
    for cone in cones:
        inside = [i for i, b in enumerate(boundary) if b in cone]
        if len(inside) < 2:
            out.add(frozenset(cone))
            continue
        rest = [r for r in cone if r not in {boundary[i] for i in inside}]
        for chain in permutations(inside):
            rays = list(rest)
            acc = [0] * len(cone[0])
            for i in chain:
                acc = [a + b for a, b in zip(acc, boundary[i])]
                rays.append(tuple(acc))
            out.add(frozenset(rays))
    return out


def random_order(rng, n):
    """A random blow-up order on all subsets of size >= 2 of range(n) in
    which every prefix is a building set.  The largest remaining subset is
    always a legal next step, so the walk never gets stuck."""
    remaining = [frozenset(s) for k in range(2, n + 1)
                 for s in combinations(range(n), k)]
    prefix, seen = [], set()
    while remaining:
        legal = [s for s in remaining
                 if all(not (a & s) or a <= s or s <= a or (a | s) in seen
                        for a in prefix)]
        pick = rng.choice(legal)
        remaining.remove(pick)
        prefix.append(pick)
        seen.add(pick)
    return prefix


def unimodular(rng, n):
    """Integer matrix of determinant +-1: a fixed product of 2n elementary
    row operations, then a seeded signed permutation of the rows.  The
    seed moves the coordinates but not the size of their entries, which
    sets the cost of the LP and exact solves on the transformed fan."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return m
    for k in range(2 * n):
        i, j = k % n, (k + 1 + k // n) % n
        if i == j:
            j = (j + 1) % n
        s = 1 if k % 3 else -1
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    order = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign * x for x in m[r]] for r, sign in zip(order, signs)]


def apply(matrix, ray):
    return tuple(sum(a * x for a, x in zip(row, ray)) for row in matrix)


def transform_fan_json(data, matrix):
    """Fan JSON with every ray mapped by a unimodular matrix."""
    out = dict(data)
    out["rays"] = [list(apply(matrix, r)) for r in data["rays"]]
    return out


# -- cohomology and HKR -----------------------------------------------------

def line_cohomology(space, twist):
    """{degree: dim} of O(twist) on ("Pn", n) or ("curve", g)."""
    kind, n = space
    if kind == "Pn":
        if twist >= 0:
            return {0: comb(n + twist, n)}
        if twist <= -n - 1:
            return {n: comb(-twist - 1, n)}
        return {}
    g = n
    if twist == 0:
        return {0: 1, 1: g} if g else {0: 1}
    if twist < 0:
        return {1: g - 1 - twist} if g - 1 - twist else {}
    if twist > 2 * g - 2:
        return {0: twist - g + 1}
    raise ValueError(f"degree {twist} is ambiguous on a genus-{g} curve")


def graded_table(space, summands):
    """Expected graded cohomology of (twist, shift, multiplicity) parts."""
    table = {}
    for twist, shift, mult in summands:
        for p, dim in line_cohomology(space, twist).items():
            table[p - shift] = table.get(p - shift, 0) + mult * dim
    return {d: v for d, v in sorted(table.items()) if v}


def alternating_sum(table):
    return sum(v if d % 2 == 0 else -v for d, v in table.items())


def hkr_homology_pn(n):
    return {0: 1}


def hkr_cohomology_pn(n):
    return {q: comb(n, q) * comb(n + q, n) for q in range(n + 1)}


def hkr_homology_curve(g):
    return {-1: g, 0: 1, 1: g}


# -- kernels ---------------------------------------------------------------

def signed_count(terms):
    """Sum of multiplicities with sign (-1)^shift, from (atom, mult)
    terms."""
    return sum(m if a.shift % 2 == 0 else -m for a, m in terms)
