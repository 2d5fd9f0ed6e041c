"""The log Euler characteristic e(U), U = X minus D, read three ways.

By Deligne's log de Rham theorem and log HKR, the alternating sum of log
Hochschild homology is e(U).  For a toric pair, e(U) is the number of
maximal cones that miss the boundary ray (U's torus-fixed points).  In
the scalar regime it is also the log Euler pairing of the diagonal
kernel with itself.  A log product only blows up boundary strata, so its
maximal cones with no labelled ray number the product of the factors'
counts.  The cones are counted here, not by the library.
"""

from itertools import product
from math import prod
import re

import pytest

from logfan.errors import NoToricModel, UnsupportedHHShape
from logfan.hkr import hkr_homology
from logfan.kernels import diag_kernel, euler_pairing
from logfan.logproduct import log_product, parse_pair
from logfan.verify import verify_suite

PAIRS = ([f"P{n}:H" for n in range(1, 5)] + ["P1:pt", "A1:0"]
         + [f"C{g}:pt" for g in range(4)])
FACTORS = ("A1:0", "P1:pt", "P2:H", "C0:pt")


def alternating_sum(table):
    return sum((-1) ** (deg % 2) * dim for deg, dim in table.items())


def open_cones(fan):
    """The ray tuples of the maximal cones holding no labelled ray."""
    labelled = {ray for ray, _ in fan.labels}
    return {c.rays for c in fan.cones if not labelled & set(c.rays)}


def pair_count(text):
    return len(open_cones(parse_pair(text).toric_fan()))


def direct_sums(cone_sets, ranks):
    """The direct sums of one cone from each factor's set, each factor's
    rays padded by zeros into its own block of coordinates."""
    starts = [sum(ranks[:i]) for i in range(len(ranks))]
    total = sum(ranks)
    return {tuple(sorted((0,) * start + ray + (0,) * (total - start - rank)
                         for start, rank, cone in zip(starts, ranks, cones)
                         for ray in cone))
            for cones in product(*cone_sets)}


@pytest.mark.parametrize("text", PAIRS)
def test_single_pair(text):
    pair = parse_pair(text)
    if text == "A1:0":  # U = C*
        assert pair_count(text) == 0
        with pytest.raises(NoToricModel):
            hkr_homology(pair)
        return
    e = alternating_sum(hkr_homology(pair))
    diag = diag_kernel(pair)
    if pair.kind == "Cg:pt" and pair.param > 0:
        assert e == 1 - 2 * pair.param
        with pytest.raises(NoToricModel):
            pair.toric_fan()
        with pytest.raises(UnsupportedHHShape):
            euler_pairing(diag, diag)
    else:
        assert pair_count(text) == e == euler_pairing(diag, diag)
        assert pair.toric_fan().open_cone_count() == e


@pytest.mark.parametrize("n", [2, 3, 4])
def test_log_product_multiplies(n):
    counts = {text: pair_count(text) for text in FACTORS}
    factors = {text: parse_pair(text).toric_fan() for text in FACTORS}
    for texts in product(FACTORS, repeat=n):
        fan = log_product([parse_pair(t) for t in texts]).fan
        opened = open_cones(fan)
        assert len(opened) == prod(counts[t] for t in texts), texts
        # cone for cone: the open cones are the direct sums of the
        # factors' open cones
        assert opened == direct_sums([open_cones(factors[t]) for t in texts],
                                     [factors[t].rank for t in texts]), texts


def test_verify_case_reads_distinct_pairs():
    # the pairs the claim names, one per expected triple, are distinct
    # values, not spellings of one pair
    case = next(c for c in verify_suite().cases
                if c.case_id == "log-euler-three-ways")
    names = re.match(r"e\(U\) of (.+) is 1 ", case.claim)[1].split(", ")
    pairs = {parse_pair(name) for name in names}
    assert len(pairs) == len(names) == len(case.expected)
