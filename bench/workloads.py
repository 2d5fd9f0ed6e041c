"""The four seeded workloads: products, fancheck, algebra and cli.

Each build_* function turns a seed into a fixed list of `Op`s, one
"pass".  The benchmark repeats whole passes, so every seed runs the same
mix of op classes with seeded parameters; the classes and their sizes are
fixed so that the cost of a pass hardly depends on the seed.

An op's `run` only calls into logfan, through module attributes so that
the tracer's wrappers see the calls; its `check` is an oracle from
`oracles.py` or a known constant and never calls logfan code.
"""

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
import io
import json
import os
from pathlib import Path
import random
import re
import subprocess
import sys
from typing import Callable

import logfan.cli as lcli
import logfan.cohomology as coh
import logfan.fans as fans
import logfan.hkr as hkr
import logfan.kernels as kern
import logfan.logproduct as lp

import oracles
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[], None]
    # cli only: the same commands run in process, for the traced run
    inproc_ops: list = None
    # what sets the time scale (see reference.py)
    ref: reference.Reference = reference.WORK


def _pairs(keys):
    return [lp.parse_pair(oracles.FACTORS[k][0]) for k in keys]


def _cone_set(fan):
    return {frozenset(c.rays) for c in fan.cones}


# ---------------------------------------------------------------------------
# products

# Each pass builds every factor tuple below once, in the order given: the
# cost of a mixed product depends on the factor order (up to 2x), so the
# order is fixed and a pass costs the same on every seed.  The seed draws
# the explicit blow-up orders and the order of the ops.  The two A1^6
# builds are the slowest ops of a pass; with at least 6 passes, at least 11
# samples come from them, so `latency_tail_ms` is their latency.
PRODUCT_CLASSES = (
    ("n2", [(a, b) for i, a in enumerate(("A", "P1", "P2", "P3"))
            for b in ("A", "P1", "P2", "P3")[i:]], False),
    ("n3", [("A", "A", "A"), ("P1", "P1", "P1"), ("A", "P1", "P2"),
            ("A", "A", "P3"), ("P1", "P2", "P2")], False),
    ("n4", [("A",) * 4, ("P1",) * 4, ("A", "P1", "A", "P1"),
            ("A", "A", "P1", "P2")], False),
    ("n5", [("A",) * 5, ("P1",) * 5, ("A", "P1", "P1", "P1", "P1"),
            ("A", "A", "P1", "P1", "P1")], False),
    ("n6", [("A",) * 6] * 2, False),
    ("order.n3", [("A", "P1", "P2"), ("P1", "P1", "P1"), ("A", "A", "P1")],
     True),
    ("order.n4", [("A", "A", "P1", "P1"), ("A", "P1", "P1", "P1")], True),
)
TINY_PRODUCT_CLASSES = (
    ("n2", [("A", "P1"), ("P1", "P2")], False),
    ("n3", [("A", "P1", "P1")], False),
    ("order.n3", [("A", "A", "P1")], True),
)


def _product_op(kind, keys, keep, expected):
    pairs = _pairs(keys)

    def run():
        space = lp.log_product(pairs)
        fan = space.fan
        smooth = [fans.is_smooth(c, fan.rank) for c in fan.cones]
        back = fans.fan_loads(fans.fan_dumps(fan))
        target, matrix = lp.projection(space, keep)
        mapped = fans.induces_fan_map(fan, target.fan, matrix)
        return fan, smooth, back, mapped

    def check(res):
        fan, smooth, back, mapped = res
        return (_cone_set(fan) == expected and len(smooth) == len(expected)
                and all(smooth) and back == fan and mapped is True)

    return Op(kind, run, check)


def _order_op(kind, keys, order_a, order_b, expected):
    pairs = _pairs(keys)

    def run():
        fan = lp.log_product(pairs, order_a).fan
        same = lp.order_independence_check(pairs, order_a, order_b)
        return fan, same

    def check(res):
        fan, same = res
        return _cone_set(fan) == expected and same is True

    return Op(kind, run, check)


def build_products(seed, tiny=False):
    rng = random.Random(seed)
    expected = {}
    ops = []
    for kind, tuples, ordered in (TINY_PRODUCT_CLASSES if tiny
                                     else PRODUCT_CLASSES):
        for keys in tuples:
            n = len(keys)
            if keys not in expected:
                expected[keys] = oracles.log_product_cones(keys)
            if ordered:
                ops.append(_order_op(kind, keys, oracles.random_order(rng, n),
                                     oracles.random_order(rng, n),
                                     expected[keys]))
            else:
                keep = [0] if n == 2 else [0, n - 1]
                ops.append(_product_op(kind, keys, keep, expected[keys]))
    warm = ops[0]
    rng.shuffle(ops)
    return Workload("products", ops, lambda: warm.check(warm.run()))


# ---------------------------------------------------------------------------
# fancheck

# The first fan is checked twice with the same input: those are the
# slowest ops of a pass and set `latency_tail_ms` (see PRODUCT_CLASSES).
FANCHECK_FANS = (("A", "A", "A", "A"), ("P1", "P1", "P1"), ("P2", "P2"),
                 ("P1", "P2"), ("P1", "P1"), ("A", "A", "A"))
TINY_FANCHECK_FANS = (("P1", "P1"), ("A", "A", "A"))


def _fan_json(keys):
    return fans.fan_to_json(lp.log_product(_pairs(keys)).fan)


def _fixture_overlap():
    """The P1 x P1 log product plus the cone {e1, e2}, which overlaps the
    two cones on either side of the exceptional ray e1 + e2."""
    data = _fan_json(("P1", "P1"))
    index = {tuple(r): i for i, r in enumerate(data["rays"])}
    data["cones"] = data["cones"] + [sorted([index[(1, 0)], index[(0, 1)]])]
    return data


def _fixture_det2():
    """A complete rank-2 fan with two cones of determinant 2."""
    return {"rank": 2, "rays": [[1, 0], [1, 2], [-1, 0], [0, -1]],
            "cones": [[0, 1], [1, 2], [2, 3], [0, 3]], "labels": {}}


def _face_op(kind, text, expected):
    def run():
        fan = fans.fan_loads(text)
        smooth = [fans.is_smooth(c, fan.rank) for c in fan.cones]
        closed = fans.check_face_closure(fan)
        return len(fan.cones), all(smooth), closed

    return Op(kind, run, lambda res: res == expected)


def _support_op(kind, before, after, expected):
    return Op(kind, lambda: fans.check_support_preserved(before, after),
              lambda res: res is expected)


def build_fancheck(seed, tiny=False):
    rng = random.Random(seed)
    ops = []
    fan_keys = TINY_FANCHECK_FANS if tiny else FANCHECK_FANS

    def moved(data):
        return oracles.transform_fan_json(
            data, oracles.unimodular(rng, data["rank"]))

    for keys in fan_keys:
        keys = tuple(rng.sample(keys, len(keys)))
        text = json.dumps(moved(_fan_json(keys)))
        ops.append(_face_op("face." + "x".join(sorted(keys)), text,
                            (len(oracles.log_product_cones(keys)), True,
                             True)))
    ops.append(ops[0])
    ops.append(_face_op("fixture.overlap", json.dumps(moved(
        _fixture_overlap())), (6, True, False)))
    ops.append(_face_op("fixture.det2", json.dumps(moved(_fixture_det2())),
                        (4, False, True)))
    # a cheap face check: its first LP pays the lazy scipy import
    warm = ops[-1]
    # the plain product fan of P1 x P1 against its log product
    left, right = _pairs(("P1", "P1"))
    product = fans.fan_to_json(fans.product_fan(left.toric_fan(0),
                                                right.toric_fan(1), 1))
    for _ in range(1 if tiny else 2):
        matrix = oracles.unimodular(rng, 2)
        ops.append(_support_op(
            "support.same",
            fans.fan_from_json(oracles.transform_fan_json(product, matrix)),
            fans.fan_from_json(oracles.transform_fan_json(
                _fan_json(("P1", "P1")), matrix)), True))
    full = moved(_fan_json(("P1", "P1")))
    dropped = dict(full)
    dropped["cones"] = list(full["cones"])
    dropped["cones"].pop(rng.randrange(len(full["cones"])))
    ops.append(_support_op("fixture.dropped", fans.fan_from_json(full),
                           fans.fan_from_json(dropped), False))
    rng.shuffle(ops)
    return Workload("fancheck", ops, lambda: warm.check(warm.run()),
                    ref=reference.LP)


# ---------------------------------------------------------------------------
# algebra

PN_PAIRS = ("P1:pt", "P2:H", "P3:H")


def _hkr_op(kind, pair_text, name, expected):
    pair = lp.parse_pair(pair_text)
    return Op(kind, lambda: getattr(hkr, name)(pair),
              lambda res: res == expected)


def _residue_op(n, q):
    expected = (0, (-1) ** q, (-1) ** (q - 1), True)
    return Op("hkr.residue", lambda: hkr.residue_euler_check(n, q),
              lambda res: tuple(res) == expected)


def _bundle_op(kind, space, parts):
    host = coh.Space(*space)
    summands = []
    for twist, shift, mult in parts:
        summands.extend([coh.Summand(twist, shift)] * mult)
    expected = oracles.graded_table(space, parts)

    def run():
        bundle = coh.SplitBundle(tuple(summands))
        return (coh.graded_cohomology(host, bundle),
                coh.euler_characteristic(host, bundle))

    def check(res):
        table, chi = res
        return table == expected and chi == oracles.alternating_sum(table)

    return Op(kind, run, check)


def _twist(rng, space, lo=-30, hi=30):
    """A random twist whose cohomology depends on the degree alone."""
    while True:
        t = rng.randint(lo, hi)
        if space[0] == "Pn" or not 1 <= t <= 2 * space[1] - 2:
            return t


# The kernel inputs cycle through shapes, pairs and term counts by index,
# and the seed draws twists and shifts, so a pass has the same mix of
# kernel work on every seed.

def _diag(rng, pair, terms):
    expr = kern.diag_kernel(pair, rng.randint(-6, 6), rng.randint(-6, 6), 1)
    for j in range(1, terms):
        expr = expr + kern.diag_kernel(pair, rng.randint(-6, 6),
                                       rng.randint(-6, 6), 1 + j % 3)
    return expr


def _graph(rng, target):
    return kern.graph_kernel(lp.parse_pair("P1:pt"), target, 1,
                             rng.randint(-6, 6), rng.randint(-6, 6))


def supported_pair(rng, i):
    """Composable (shape, E, F) with a supported composite, in the six
    shapes of logfan.verify.random_supported_pair, built from public
    constructors so the inputs stay fixed when verify.py changes."""
    shape = i % 6
    p1 = lp.parse_pair("P1:pt")
    target = lp.parse_pair(PN_PAIRS[1 + (i // 6) % 2])
    terms = 1 + (i // 6) % 3
    if shape == 0:
        pair = lp.parse_pair(PN_PAIRS[(i // 6) % 3])
        return shape, _diag(rng, pair, terms), _diag(rng, pair, terms)
    if shape == 1:
        return shape, _diag(rng, p1, terms), _graph(rng, target)
    if shape == 2:
        return shape, _graph(rng, target), _diag(rng, target, terms)
    if shape == 3:
        return (shape, _diag(rng, target, terms),
                kern.transpose(_graph(rng, target)))
    if shape == 4:
        return (shape, kern.transpose(_graph(rng, target)),
                _diag(rng, p1, terms))
    return shape, _graph(rng, target), kern.transpose(_graph(rng, target))


def _compose_op(rng, i):
    shape, e, f = supported_pair(rng, i)
    # graph then transposed graph into P^m (m >= 2): the Sym(E^v[1]) parts
    # of the excess bundle O(1)^(m-1) cancel in the signed count
    factor = 0 if shape == 5 else 1
    expected = (oracles.signed_count(e.terms) * oracles.signed_count(f.terms)
                * factor)

    def run():
        c = kern.compose(e, f)
        return (c, kern.right_adjoint(c),
                kern.compose(kern.right_adjoint(f), kern.right_adjoint(e)),
                kern.left_adjoint(c),
                kern.compose(kern.left_adjoint(f), kern.left_adjoint(e)))

    def check(res):
        c, r1, r2, l1, l2 = res
        return (oracles.signed_count(c.terms) == expected and r1 == r2
                and l1 == l2)

    return Op("kernel.compose", run, check)


def _euler_op(rng, i):
    if i % 2 == 0:
        k = _diag(rng, lp.parse_pair(PN_PAIRS[(i // 2) % 3]), 1 + (i // 6) % 3)
        expected = oracles.signed_count(k.terms) ** 2
    else:
        k = _graph(rng, lp.parse_pair(PN_PAIRS[1 + (i // 2) % 2]))
        expected = 0

    def run():
        trace = []
        return kern.euler_pairing(k, k, trace), trace

    def check(res):
        value, trace = res
        return (value == expected and bool(trace)
                and trace[-1].endswith(f"-> {value}"))

    return Op("kernel.euler", run, check)


def _chern_op(rng, i):
    k = _diag(rng, lp.parse_pair(PN_PAIRS[i % 3]), 1 + (i // 3) % 3)
    beta = rng.randint(-9, 9)
    signed = oracles.signed_count(k.terms)

    def run():
        trace = []
        return kern.chern_log(k, trace), kern.hh_action(k, beta), trace

    def check(res):
        chern, action, trace = res
        return chern == signed and action == beta * signed and bool(trace)

    return Op("kernel.chern", run, check)


def _roundtrip_op(rng, i):
    k = supported_pair(rng, i)[1 + (i // 6) % 2]
    return Op("kernel.roundtrip",
              lambda: kern.parse_kernel(kern.format_kernel(k), k.source,
                                        k.target),
              lambda res: res == k)


def _bicategory_op(rng, i):
    p1 = lp.parse_pair("P1:pt")
    terms = 1 + (i // 4) % 3
    a = _diag(rng, p1, terms)
    b = (_graph(rng, lp.parse_pair(PN_PAIRS[1 + (i // 2) % 2])) if i % 2
         else _diag(rng, p1, terms))
    c = _diag(rng, b.target, terms)
    return Op("kernel.bicategory", lambda: kern.bicategory_law_check(a, b, c),
              lambda res: res is True)


KERNEL_OPS = (_compose_op, _euler_op, _chern_op, _roundtrip_op,
              _bicategory_op)

# (log10 multiplicity, space) of the one-twist bundles.  The last one runs
# twice with the same input: those are the slowest ops of a pass and set
# `latency_tail_ms` (see PRODUCT_CLASSES).
MULTIPLE_RUNGS = ((2, "curve"), (3, ("Pn", 3)), (4, ("Pn", 4)),
                  (5, ("Pn", 1)), (6, "curve"))
DISTINCT_SPACES = (("Pn", 1), ("Pn", 2), ("Pn", 3), ("Pn", 4), "curve",
                   "curve")


def _space(rng, space):
    return ("curve", rng.randint(0, 3)) if space == "curve" else space


def build_algebra(seed, tiny=False):
    rng = random.Random(seed)
    ops = []
    top = 6 if tiny else 17
    for n in range(1, top + 1):
        ops.append(_hkr_op("hkr.homology", f"P{n}:H", "hkr_homology",
                           oracles.hkr_homology_pn(n)))
        ops.append(_hkr_op("hkr.cohomology", f"P{n}:H", "hkr_cohomology",
                           oracles.hkr_cohomology_pn(n)))
    for g in rng.sample(range(1, 40), 2 if tiny else 6):
        ops.append(_hkr_op("hkr.curve", f"C{g}:pt", "hkr_homology",
                           oracles.hkr_homology_curve(g)))
    for _ in range(2 if tiny else 6):
        n = rng.randint(1, 12)
        ops.append(_residue_op(n, rng.randint(1, n)))
    for k, space in MULTIPLE_RUNGS[:2] if tiny else MULTIPLE_RUNGS:
        space = _space(rng, space)
        parts = [(_twist(rng, space), rng.randint(-3, 3), round(10 ** k))]
        ops.append(_bundle_op("bundle.multiple", space, parts))
    ops.append(ops[-1])
    for space in DISTINCT_SPACES[:2] if tiny else DISTINCT_SPACES:
        space = _space(rng, space)
        cells = set()
        while len(cells) < (200 if tiny else 4000):
            cells.add((_twist(rng, space, -80, 80), rng.randint(-40, 40)))
        ops.append(_bundle_op("bundle.distinct", space,
                              [(t, s, 1) for t, s in sorted(cells)]))
    for make in KERNEL_OPS:
        for i in range(6 if tiny else 42):
            ops.append(make(rng, i))
    warm = ops[-10:]
    rng.shuffle(ops)
    return Workload("algebra", ops,
                    lambda: [op.check(op.run()) for op in warm])


# ---------------------------------------------------------------------------
# cli

CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(argv, stdin=None):
    """One cold `python -m logfan.cli` child: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "logfan.cli", *argv],
                          input=stdin, capture_output=True, text=True,
                          env=CLI_ENV, cwd=ROOT, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inproc(argv, stdin=None):
    """`logfan.cli.main(argv)` in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = lcli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def subcommand(argv):
    return "version" if argv[0].startswith("-") else argv[0]


def _json_dims(out):
    return {int(k): v for k, v in json.loads(out)["dims"].items()}


def _fan_json_cones(data):
    rays = [tuple(r) for r in data["rays"]]
    return {frozenset(rays[i] for i in cone) for cone in data["cones"]}


# The inputs that set a command's cost are fixed, so that a pass costs the
# same on every seed; the seed draws factor orders and small values.
CLI_PRODUCT = ("A", "P1", "P2")
CLI_HKR_N = (6, 8)


def _shuffled(rng, keys):
    return tuple(rng.sample(keys, len(keys)))


def _cli_commands(rng):
    """One pass: every command once (fan check twice), as (argv, stdin,
    check) where check takes (exit code, stdout, stderr)."""
    cmds = []

    def pairs_arg(keys):
        return ",".join(oracles.FACTORS[k][0] for k in keys)

    keys = _shuffled(rng, CLI_PRODUCT)
    expect = oracles.log_product_cones(keys)
    cmds.append((["fan", "dump", "--pairs", pairs_arg(keys)], None,
                 lambda c, o, e, x=expect: c == 0
                 and _fan_json_cones(json.loads(o)) == x))

    # fan check pays the scipy import; it runs twice with the same input,
    # as the slowest ops of a pass, and sets `latency_tail_ms` (see
    # PRODUCT_CLASSES).  Its fan is fixed, as the number of LPs sets its
    # cost; the seed draws the factor order and the coordinates.
    keys = _shuffled(rng, ("P1", "P2"))
    data = oracles.transform_fan_json(
        _fan_json(keys), oracles.unimodular(rng, sum(
            oracles.FACTORS[k][1] for k in keys)))
    n_cones = len(oracles.log_product_cones(keys))
    cmds += [(["fan", "check", "-"], json.dumps(data),
              lambda c, o, e, x=n_cones: c == 0
              and f"{x} maximal cones" in o
              and "smooth=True face-closed=True" in o)] * 2

    keys = _shuffled(rng, CLI_PRODUCT)
    expect = oracles.log_product_cones(keys)
    strata = 2 ** len(keys) - len(keys) - 1

    def lp_check(c, o, e, x=expect, s=strata, n=len(keys)):
        if c != 0:
            return False
        data = json.loads(o)
        return (_fan_json_cones(data) == x and len(data["stratum_ray"]) == s
                and len(data["strict_transforms"]) == n)

    cmds.append((["logproduct", "--pairs", pairs_arg(keys), "--json"], None,
                 lp_check))

    space = _space(rng, rng.choice(DISTINCT_SPACES))
    parts = [(_twist(rng, space, -8, 8), rng.randint(-2, 2),
              rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    text = "+".join(f"O({t})^{m}[{s}]" for t, s, m in parts)
    base = f"P{space[1]}" if space[0] == "Pn" else f"C{space[1]}"
    expect = oracles.graded_table(space, parts)
    cmds.append((["cohomology", "--base", base, "--bundle", text, "--json"],
                 None, lambda c, o, e, x=expect: c == 0
                 and _json_dims(o) == x))

    n = rng.randint(*CLI_HKR_N)
    cmds.append((["hkr", "--pair", f"P{n}:H"], None,
                 lambda c, o, e: c == 0 and o == "0: 1\n"))
    n = rng.randint(*CLI_HKR_N)
    cmds.append((["hkr", "--pair", f"P{n}:H", "--cohomology", "--json"],
                 None, lambda c, o, e, x=oracles.hkr_cohomology_pn(n):
                 c == 0 and _json_dims(o) == x))

    k = _diag(rng, lp.parse_pair("P1:pt"), rng.randint(1, 3))
    cmds.append((["chern", "--pair", "P1:pt", "--kernel",
                  kern.format_kernel(k), "--trace"], None,
                 lambda c, o, e, x=oracles.signed_count(k.terms):
                 c == 0 and o.splitlines()[-1] == str(x)))

    m = rng.randint(2, 3)
    a = f"graph(deg=1,O({rng.randint(-4, 4)}),{rng.randint(-3, 3)})"
    b = f"graph(deg=1,O({rng.randint(-4, 4)}),{rng.randint(-3, 3)})"
    cmds.append((["euler", "--source", "P1:pt", "--target", f"P{m}:H",
                  "--kernel", a, "--against", b, "--trace"], None,
                 lambda c, o, e: c == 0 and o.splitlines()[-1] == "0"))

    def verify_check(code):
        def check(c, o, e):
            m = re.fullmatch(r"(\d+)/(\d+) cases passed",
                             o.splitlines()[-1] if o else "")
            return (c == code and m is not None
                    and (m.group(1) == m.group(2)) == (code == 0))
        return check

    cmds += [(["verify"], None, verify_check(0)),
             (["verify", "--sign-flip"], None, verify_check(1))]
    cmds.append((["--version"], None,
                 lambda c, o, e: c == 0 and o.startswith("logfan ")))
    usage = rng.choice((
        ["hkr"],
        ["cohomology", "--base", f"Q{rng.randint(1, 5)}", "--bundle", "O"],
        ["chern", "--pair", "P1:pt", "--kernel", "diag(O"],
        ["fan", "dump", "--pairs", f"X{rng.randint(1, 9)}:0,A1:0"],
    ))
    cmds.append((usage, None, lambda c, o, e: c == 2))
    named = rng.choice((
        ["hkr", "--pair", "A1:0"],
        ["logproduct", "--pairs", f"C{rng.randint(1, 5)}:pt,P1:pt"],
        ["cohomology", "--base", "C3", "--bundle",
         f"O({rng.randint(1, 4)})"],
        ["chern", "--pair", f"C{rng.randint(1, 5)}:pt", "--kernel",
         "diag(O,0)"],
    ))
    cmds.append((named, None, lambda c, o, e: c == 1 and any(
        line.startswith("error: ") for line in e.splitlines())))
    return cmds


def _cli_op(argv, stdin, check, runner):
    return Op(subcommand(argv), lambda: runner(argv, stdin),
              lambda res: check(*res))


def build_cli(seed, tiny=False):
    rng = random.Random(seed)
    cmds = _cli_commands(rng)
    if tiny:
        cmds = [c for c in cmds if c[0][0] in ("hkr", "--version", "chern")]
    rng.shuffle(cmds)
    ops = [_cli_op(a, s, c, run_cli) for a, s, c in cmds]
    inproc = [_cli_op(a, s, c, run_cli_inproc) for a, s, c in cmds]

    # the first child start, and the page cache for the scipy import
    warm = []
    for want in (["fan", "check"], ["--version"]):
        warm += [op for op, (argv, _, _) in zip(ops, cmds)
                 if argv[:len(want)] == want][:1]

    def warmup():
        for op in warm:
            op.check(op.run())

    return Workload("cli", ops, warmup, inproc, reference.SPAWN)


BY_NAME = {
    "products": build_products,
    "fancheck": build_fancheck,
    "algebra": build_algebra,
    "cli": build_cli,
}
