"""Command-line surface: fans, log products, cohomology tables, HKR,
Chern characters, Euler pairings, and the verification suite.

Exit codes: 0 success, 1 computation error (a named error such as
ResultTooLarge is surfaced), 2 usage error (bad flags or grammar,
malformed or missing fan input).

`logproduct` and `fan dump` refuse, with TooManyCones (exit 1) and before
building anything, a log product of more than
`logproduct.MAX_CONES` = 50,000 maximal cones: A1^8 (40,320) builds,
A1^9 (362,880) does not.  `fan check` refuses, with TooManySolves (exit
1), a fan its wall criterion cannot decide when the pairwise fallback's
bound on exact solves exceeds `fans.MAX_PAIRWISE_SOLVES` = 1,000,000.
A pair of cones with m rays between them counts
C(m, min(m // 2, rank + 1)), so a pure fan counts
C(#cones, 2) * C(2 * rank, rank): P1^4 minus one cone (141,120) is
checked, P1^5 minus one cone (13,267,800) is refused at once.
"""

import argparse
import json
import re
import sys

from . import __version__
from .cohomology import Space, SplitBundle, Summand, graded_cohomology
from .errors import LogfanError, ResultTooLarge
from .fans import (check_face_closure, fan_dumps, fan_from_json, fan_to_json,
                   is_smooth)
from .hkr import hkr_cohomology, hkr_homology
from .kernels import chern_log, chern_log_expansion, euler_pairing, \
    parse_kernel
from .logproduct import format_pair, log_product, parse_pair
from .verify import verify_suite

KERNEL_GRAMMAR = ('atom := "diag(" bundle "," shift ")" | '
                  '"graph(deg=" int ["," bundle "," shift] ")" | '
                  '"t(" atom ")"; term := [mult "*"] atom; '
                  'expr := term ("+" term)*; bundle := "O" | "O(" int ")"; '
                  'mult := int >= 1')

_SUMMAND_RE = re.compile(
    r"^(O(?:\((-?\d+)\))?)(?:\^(\d+))?(?:\[(-?\d+)\])?$")


def parse_bundle_expr(text):
    """Split-bundle grammar: summand ("+" summand)*, where a summand is
    O or O(k), optionally with a multiplicity ^m and a shift [s]."""
    terms = []
    for part in text.replace(" ", "").split("+"):
        m = _SUMMAND_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse bundle summand {part!r}")
        twist = int(m.group(2)) if m.group(2) is not None else 0
        mult = int(m.group(3)) if m.group(3) else 1
        shift = int(m.group(4)) if m.group(4) else 0
        terms.append((Summand(twist, shift), mult))
    return SplitBundle(tuple(terms))


def parse_base(text):
    m = re.match(r"^P(\d+)$", text.strip())
    if m:
        return Space("Pn", int(m.group(1)))
    m = re.match(r"^C(\d+)$", text.strip())
    if m:
        return Space("curve", int(m.group(1)))
    raise ValueError(f"cannot parse base {text!r}; expected P<n> or C<g>")


def parse_order(text, n):
    """Blow-up order grammar: semicolon-separated groups of comma-separated
    1-based factor indices, e.g. "1,2;1,2,3;1,3;2,3"."""
    order = []
    for group in text.split(";"):
        indices = [int(x) for x in group.split(",")]
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"order index {i} is outside 1..{n}")
        order.append(frozenset(i - 1 for i in indices))
    return order


def _parse_kernel(text, source, target):
    """parse_kernel, with the kernel grammar appended to a parse error."""
    try:
        return parse_kernel(text, source, target)
    except ValueError as exc:
        raise ValueError(f"{exc}\n{KERNEL_GRAMMAR}") from exc


def _parse_pairs(text):
    return [parse_pair(p) for p in text.split(",")]


def _print_dims(dims, as_json):
    try:
        if as_json:
            text = json.dumps({"dims": {str(k): v for k, v in sorted(
                dims.items())}}, sort_keys=True)
        else:
            text = "\n".join(f"{deg}: {dim}" for deg, dim in
                             sorted(dims.items())) or "(zero)"
    except ValueError as exc:  # int -> str conversion past the digit limit
        raise ResultTooLarge(
            f"a dimension has more than {sys.get_int_max_str_digits()} "
            f"digits, Python's limit for printing an integer") from exc
    print(text)


def cmd_fan(args):
    if args.action == "dump":
        pairs = _parse_pairs(args.pairs)
        if len(pairs) == 1:
            fan = pairs[0].toric_fan(0)
        else:
            order = parse_order(args.order, len(pairs)) if args.order \
                else None
            fan = log_product(pairs, order).fan
        print(fan_dumps(fan))
        return 0
    if args.file in (None, "-"):
        data = sys.stdin.read()
    else:
        try:
            with open(args.file) as fh:
                data = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc.strerror}") \
                from exc
    try:
        payload = json.loads(data)
    except RecursionError as exc:
        raise ValueError("fan JSON is nested too deeply") from exc
    fan = fan_from_json(payload)
    smooth = all(is_smooth(c, fan.rank) for c in fan.cones)
    closed = check_face_closure(fan)
    print(f"rank {fan.rank}: {len(fan.rays())} rays, "
          f"{len(fan.cones)} maximal cones; "
          f"smooth={smooth} face-closed={closed}")
    return 0 if (smooth and closed) else 1


def cmd_logproduct(args):
    pairs = _parse_pairs(args.pairs)
    order = parse_order(args.order, len(pairs)) if args.order else None
    space = log_product(pairs, order)
    if args.json:
        payload = fan_to_json(space.fan)
        payload["stratum_ray"] = {
            ",".join(str(i + 1) for i in sorted(s)): list(ray)
            for s, ray in space.stratum_ray}
        payload["strict_transforms"] = {
            str(i + 1): list(ray) for i, ray in space.strict_transforms}
        print(json.dumps(payload, sort_keys=True))
        return 0
    print("factors: " + ", ".join(format_pair(p) for p in space.factors))
    print(f"rank {space.fan.rank}: {len(space.fan.rays())} rays, "
          f"{len(space.fan.cones)} maximal cones, "
          f"{space.fan.exceptional_count()} exceptional")
    for s, ray in space.stratum_ray:
        label = "{" + ",".join(str(i + 1) for i in sorted(s)) + "}"
        print(f"stratum {label}: exceptional ray {list(ray)}")
    for i, ray in space.strict_transforms:
        print(f"factor {i + 1}: strict transform ray {list(ray)}")
    return 0


def cmd_cohomology(args):
    space = parse_base(args.base)
    bundle = parse_bundle_expr(args.bundle)
    _print_dims(graded_cohomology(space, bundle), args.json)
    return 0


def cmd_hkr(args):
    pair = parse_pair(args.pair)
    dims = hkr_cohomology(pair) if args.cohomology else hkr_homology(pair)
    _print_dims(dims, args.json)
    return 0


def cmd_chern(args):
    pair = parse_pair(args.pair)
    trace = [] if args.trace else None
    if args.target:
        target = parse_pair(args.target)
        expr = _parse_kernel(args.kernel, pair, target)
        value = chern_log_expansion(expr, trace)
    else:
        expr = _parse_kernel(args.kernel, pair, pair)
        value = chern_log(expr, trace)
    for line in trace or ():
        print(line)
    print(json.dumps({"value": value}) if args.json else value)
    return 0


def cmd_euler(args):
    source = parse_pair(args.source)
    target = parse_pair(args.target)
    kernel = _parse_kernel(args.kernel, source, target)
    against = _parse_kernel(args.against, source, target)
    trace = [] if args.trace else None
    value = euler_pairing(kernel, against, trace)
    for line in trace or ():
        print(line)
    print(json.dumps({"value": value}) if args.json else value)
    return 0


def cmd_verify(args):
    report = verify_suite(sign_flip=args.sign_flip)
    if args.json:
        print(json.dumps({"cases": [
            {"case_id": c.case_id, "claim": c.claim,
             "expected": repr(c.expected), "actual": repr(c.actual),
             "pass": c.passed} for c in report.cases],
            "passed": report.passed}, sort_keys=True))
    else:
        for c in report.cases:
            mark = "PASS" if c.passed else "FAIL"
            print(f"[{mark}] {c.case_id}: {c.claim}")
        n_fail = len(report.failures())
        print(f"{len(report.cases) - n_fail}/{len(report.cases)} "
              f"cases passed")
    return 0 if report.passed else 1


def build_parser():
    top = argparse.ArgumentParser(
        prog="logfan",
        description="log products, HKR tables and kernel calculus")
    top.add_argument("--version", action="version",
                     version=f"logfan {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True)

    fan = sub.add_parser("fan", help="dump or check fan JSON")
    fan_sub = fan.add_subparsers(dest="action", required=True)
    dump = fan_sub.add_parser("dump")
    dump.add_argument("--pairs", required=True,
                      help='comma list, e.g. "A1:0,A1:0,A1:0"')
    dump.add_argument("--order", help='e.g. "1,2;1,2,3;1,3;2,3"')
    check = fan_sub.add_parser("check")
    check.add_argument("file", nargs="?", help="fan JSON path or - (stdin)")

    lp = sub.add_parser("logproduct", help="build a log product fan")
    lp.add_argument("--pairs", required=True,
                    help='comma list, e.g. "P1:pt,P2:H"')
    lp.add_argument("--order", help='1-based strata, e.g. "1,2;1,2,3;..."')
    lp.add_argument("--json", action="store_true")

    coh = sub.add_parser("cohomology", help="graded cohomology table")
    coh.add_argument("--base", required=True, help="P<n> or C<g>")
    coh.add_argument("--bundle", required=True,
                     help='e.g. "O(-1)^2" or "O+O(-1)[1]"')
    coh.add_argument("--json", action="store_true")

    hkr = sub.add_parser("hkr", help="log Hochschild homology table")
    hkr.add_argument("--pair", required=True, help="P<n>:H, P1:pt, C<g>:pt")
    hkr.add_argument("--cohomology", action="store_true",
                     help="the cohomological variant")
    hkr.add_argument("--json", action="store_true")

    ch = sub.add_parser("chern", help="log Chern character of a kernel")
    ch.add_argument("--pair", required=True)
    ch.add_argument("--kernel", required=True, help=KERNEL_GRAMMAR)
    ch.add_argument("--target",
                    help="expansion variant: kernel from --pair to --target")
    ch.add_argument("--trace", action="store_true")
    ch.add_argument("--json", action="store_true")

    eu = sub.add_parser("euler", help="log Euler pairing of two kernels")
    eu.add_argument("--source", required=True)
    eu.add_argument("--target", required=True)
    eu.add_argument("--kernel", required=True, help=KERNEL_GRAMMAR)
    eu.add_argument("--against", required=True, help=KERNEL_GRAMMAR)
    eu.add_argument("--trace", action="store_true")
    eu.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="run the named verification cases")
    ver.add_argument("--sign-flip", action="store_true",
                     help="negative control: corrupt the shift sign")
    ver.add_argument("--json", action="store_true")

    return top


_HANDLERS = {
    "fan": cmd_fan,
    "logproduct": cmd_logproduct,
    "cohomology": cmd_cohomology,
    "hkr": cmd_hkr,
    "chern": cmd_chern,
    "euler": cmd_euler,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except LogfanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
