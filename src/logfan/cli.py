"""Command-line surface: fans, log products, cohomology tables, HKR,
Chern characters, Euler pairings, and the verification suite.

Exit codes: 0 success, 1 computation error (a named error such as
ResultTooLarge is surfaced) or an output pipe closed early, 2 usage error
(bad flags or grammar, malformed or missing fan input).

Each documented cap refuses its input with a named error (exit 1) before
the work starts; the caps table in README.md lists them.

Each subcommand imports only the modules it runs: the module top loads
the argument parser and `errors` alone, so `--version` and a usage error
from argparse load nothing else, `cohomology` loads `logfan.cohomology`
and `logfan.values`, the base of the package's value classes, `hkr`,
`chern` and `euler` leave out the fan layer, and `fan check` leaves out
`logproduct`.  `json` is imported only where JSON is read or printed, and
no subcommand loads `dataclasses` or `inspect`.
"""

import argparse
import os
import re
import sys

from . import __version__
from .errors import (KERNEL_GRAMMAR, LogfanError, printable, quote,
                     read_int)

_SUMMAND_RE = re.compile(
    r"^(O(?:\((-?\d+)\))?)(?:\^(\d+))?(?:\[(-?\d+)\])?$")
# one --order group: comma-separated signed indices
_GROUP_RE = re.compile(r"\s*[-+]?\d+\s*(?:,\s*[-+]?\d+\s*)*")


def parse_bundle_expr(text):
    """Split-bundle grammar: summand ("+" summand)*, where a summand is
    O or O(k), optionally with a multiplicity ^m and a shift [s]."""
    from .cohomology import SplitBundle, Summand
    terms = []
    for part in text.replace(" ", "").split("+"):
        m = _SUMMAND_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse bundle summand {quote(part)}")
        twist = read_int(m.group(2) or "0")
        mult = read_int(m.group(3) or "1")
        shift = read_int(m.group(4) or "0")
        terms.append((Summand(twist, shift), mult))
    return SplitBundle(tuple(terms))


def parse_base(text):
    from .cohomology import Space
    m = re.match(r"^P(\d+)$", text.strip())
    if m:
        return Space("Pn", read_int(m.group(1)))
    m = re.match(r"^C(\d+)$", text.strip())
    if m:
        return Space("curve", read_int(m.group(1)))
    raise ValueError(f"cannot parse base {quote(text)}; expected P<n> or "
                     f"C<g>")


def parse_order(text, n):
    """Blow-up order grammar: semicolon-separated groups of comma-separated
    1-based factor indices, e.g. "1,2;1,2,3;1,3;2,3"."""
    order = []
    for group in text.split(";"):
        if not _GROUP_RE.fullmatch(group):
            raise ValueError(
                f"cannot parse order group {quote(group)}: --order takes "
                f"semicolon-separated groups of comma-separated 1-based "
                f"indices, e.g. \"1,2;1,2,3\"")
        indices = [read_int(x) for x in group.split(",")]
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"order index {i} is outside 1..{n}")
        order.append(frozenset(i - 1 for i in indices))
    return order


def _log_product(args):
    """The log product of `--pairs`, in the blow-up order `--order` when
    one is given, an empty one included."""
    from .logproduct import log_product, parse_pair
    pairs = [parse_pair(p) for p in args.pairs.split(",")]
    order = None if args.order is None else parse_order(args.order,
                                                          len(pairs))
    return log_product(pairs, order)


def _dumps(payload):
    """`payload` as JSON with sorted keys; json is imported only here and
    in `fans.fan_dumps` and `fans.fan_loads`, which write `fan dump`'s
    output and read `fan check`'s input."""
    import json
    return json.dumps(payload, sort_keys=True)


def _print_dims(dims, as_json):
    items = sorted(dims.items())
    print(printable(lambda: _dumps(
        {"dims": {str(k): v for k, v in items}}) if as_json
        else "\n".join(f"{deg}: {dim}" for deg, dim in items) or "(zero)"))


def _print_value(value, trace, as_json):
    """The trace lines, then the value of a chern or euler chain."""
    text = printable(lambda: _dumps({"value": value}) if as_json
                     else str(value))
    for line in trace or ():
        print(line)
    print(text)


def cmd_fan(args):
    if args.action == "dump":
        from .fans import fan_dumps
        print(fan_dumps(_log_product(args).fan))
        return 0
    from .fans import check_face_closure, fan_loads, is_smooth
    if args.file in (None, "-"):
        data = sys.stdin.read()
    else:
        try:
            with open(args.file) as fh:
                data = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc.strerror}") \
                from exc
    fan = fan_loads(data)
    smooth = all(is_smooth(c, fan.rank) for c in fan.cones)
    closed = check_face_closure(fan)
    print(f"rank {fan.rank}: {len(fan.rays())} rays, "
          f"{len(fan.cones)} maximal cones; "
          f"smooth={smooth} face-closed={closed}")
    return 0 if (smooth and closed) else 1


def cmd_logproduct(args):
    from .logproduct import format_pair
    space = _log_product(args)
    if args.json:
        from .fans import fan_to_json
        payload = fan_to_json(space.fan)
        payload["stratum_ray"] = {
            ",".join(str(i + 1) for i in sorted(s)): list(ray)
            for s, ray in space.stratum_ray}
        payload["strict_transforms"] = {
            str(i + 1): list(ray) for i, ray in space.strict_transforms}
        print(_dumps(payload))
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
    from .cohomology import graded_cohomology
    space = parse_base(args.base)
    bundle = parse_bundle_expr(args.bundle)
    _print_dims(graded_cohomology(space, bundle), args.json)
    return 0


def cmd_hkr(args):
    from .hkr import hkr_cohomology, hkr_homology
    from .logproduct import parse_pair
    pair = parse_pair(args.pair)
    dims = hkr_cohomology(pair) if args.cohomology else hkr_homology(pair)
    _print_dims(dims, args.json)
    return 0


def cmd_chern(args):
    from .kernels import chern_log, parse_kernel
    from .logproduct import parse_pair
    pair = parse_pair(args.pair)
    target = parse_pair(args.target) if args.target else pair
    trace = [] if args.trace else None
    value = chern_log(parse_kernel(args.kernel, pair, target), trace)
    _print_value(value, trace, args.json)
    return 0


def cmd_euler(args):
    from .kernels import euler_pairing, parse_kernel
    from .logproduct import parse_pair
    source = parse_pair(args.source)
    target = parse_pair(args.target)
    kernel = parse_kernel(args.kernel, source, target)
    against = parse_kernel(args.against, source, target)
    trace = [] if args.trace else None
    value = euler_pairing(kernel, against, trace)
    _print_value(value, trace, args.json)
    return 0


def cmd_verify(args):
    from .verify import verify_suite
    report = verify_suite(sign_flip=args.sign_flip)
    if args.json:
        print(_dumps({"cases": [
            {"case_id": c.case_id, "claim": c.claim,
             "expected": repr(c.expected), "actual": repr(c.actual),
             "pass": c.passed} for c in report.cases],
            "passed": report.passed}))
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
                    help="the kernel's target pair (default: --pair)")
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
        code = _HANDLERS[args.subcommand](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left, as `| head` does: send what is still buffered
        # to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except LogfanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
