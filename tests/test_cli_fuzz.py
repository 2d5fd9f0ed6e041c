"""Hypothesis fuzz of `cli.main`: each subcommand's real flags with
malformed and oversized values (digit runs up to 5,000 digits, stray
brackets, unknown pairs), and fan JSON text on `fan check`'s stdin.

The property: the exit code is 0, 1 or 2 (argparse's SystemExit counts as
2); stderr holds no traceback and no advice to raise Python's digit limit,
and at most one error line: `error: <Name>: ...` (exit 1), `usage error:
...` (exit 2, followed by the kernel grammar after a kernel refusal) or
argparse's `usage:` lines ending in one `...: error: ...` line (exit 2);
and each example finishes within the deadline.  An exit 1 with an empty
stderr is a check that ran and failed (`fan check`, `verify --sign-flip`).
"""

from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
import io
import re
import sys
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from logfan.cli import KERNEL_GRAMMAR, main

# small signed integers, and digit runs up to 5,000 digits, most often at
# and just past Python's default limit of 4,300
NUMBER = st.one_of(st.integers(-3, 6).map(str),
                   st.sampled_from([4300, 4301, 5000]).map("9".__mul__),
                   st.integers(7, 5000).map("9".__mul__))


def grammar_text(*fragments):
    """Up to six pieces of a grammar, numbers and stray brackets, joined."""
    return st.lists(st.one_of(
        st.sampled_from(fragments + ("(", ")", "[", "]", " ")), NUMBER),
        max_size=6).map("".join)


PAIR = st.one_of(
    st.sampled_from(["P1:pt", "A1:0", "P2:H", "C0:pt", "C2:pt", "P1:H",
                     "X9:0", "P0:H", ""]),
    NUMBER.map(lambda n: f"P{n}:H"), NUMBER.map(lambda n: f"C{n}:pt"),
    grammar_text("P", "C", "A1", ":H", ":pt", ":0", ":"))
PAIRS = st.lists(PAIR, min_size=1, max_size=3).map(",".join)
ORDER = st.one_of(
    st.lists(st.lists(NUMBER, min_size=1, max_size=3).map(",".join),
             min_size=1, max_size=3).map(";".join),
    grammar_text(",", ";", "a"))
BASE = st.one_of(NUMBER.map(lambda n: f"P{n}"), NUMBER.map(lambda n: f"C{n}"),
                 grammar_text("P", "C", "Q"))
SUMMAND = st.one_of(
    st.tuples(NUMBER, NUMBER, NUMBER).map(
        lambda t: "O({})^{}[{}]".format(*t)),
    grammar_text("O", "O(", "^", "+"))
BUNDLE = st.lists(SUMMAND, min_size=1, max_size=3).map("+".join)
ATOM = st.one_of(
    st.tuples(NUMBER, NUMBER).map(lambda t: "diag(O({}),{})".format(*t)),
    st.tuples(NUMBER, NUMBER, NUMBER).map(
        lambda t: "graph(deg={},O({}),{})".format(*t)),
    grammar_text("diag(", "graph(deg=", "t(", "O", "O(", ",", "*"))
KERNEL = st.one_of(
    st.just("0"),
    st.lists(st.tuples(NUMBER, ATOM).map("*".join) | ATOM,
             min_size=1, max_size=3).map("+".join))


def _json_lists(rows):
    """JSON text of lists of number texts, written by hand so that a
    number past Python's digit limit reaches `fan check` unconverted."""
    return "[" + ",".join("[" + ",".join(r) + "]" for r in rows) + "]"


FAN_JSON = st.one_of(
    st.tuples(
        NUMBER,
        st.lists(st.lists(NUMBER, max_size=3), max_size=4),
        st.lists(st.lists(NUMBER, max_size=3), max_size=3),
        st.sampled_from(["", ', "labels": {"0": {"kind": "boundary", '
                         '"arg": 0}}', ', "labels": {"9": 1}'])).map(
        lambda t: '{"rank": %s, "rays": %s, "cones": %s%s}' % (
            t[0], _json_lists(t[1]), _json_lists(t[2]), t[3])),
    grammar_text('{"rank": ', '"rays": ', '"cones": ', "{", "}", ","))


def flag(name, value):
    return value.map(lambda v: [name, v])


def optional(*flags):
    return st.lists(st.sampled_from(flags), unique=True)


# most argv end cleanly; some carry an unknown flag or a stray word
STRAY = st.sampled_from([[], [], [], ["--bogus"], ["extra"], ["-x"]])


def command(*parts):
    """argv of one subcommand: its words and flags, each part a strategy
    for a list of argv words, then maybe a stray word."""
    return st.tuples(*parts, STRAY).map(lambda t: [w for p in t for w in p])


ARGV = st.one_of(
    command(st.just(["fan", "dump"]), flag("--pairs", PAIRS),
            st.one_of(st.just([]), flag("--order", ORDER))),
    command(st.just(["fan", "check", "-"])),
    command(st.just(["fan", "check", "no-such-dir/fan.json"])),
    command(st.just(["logproduct"]), flag("--pairs", PAIRS),
            st.one_of(st.just([]), flag("--order", ORDER)),
            optional("--json")),
    command(st.just(["cohomology"]), flag("--base", BASE),
            flag("--bundle", BUNDLE), optional("--json")),
    command(st.just(["hkr"]), flag("--pair", PAIR),
            optional("--cohomology", "--json")),
    command(st.just(["chern"]), flag("--pair", PAIR),
            flag("--kernel", KERNEL),
            st.one_of(st.just([]), flag("--target", PAIR)),
            optional("--trace", "--json")),
    command(st.just(["euler"]), flag("--source", PAIR),
            flag("--target", PAIR), flag("--kernel", KERNEL),
            flag("--against", KERNEL), optional("--trace", "--json")),
    command(st.just(["verify"]), optional("--sign-flip", "--json")),
)

ARGPARSE_ERROR = re.compile(r"logfan( [a-z]+)*: error: ")
NAMED_ERROR = re.compile(r"error: [A-Za-z]+: ")


def invoke(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(ARGV, FAN_JSON)
# a 4,300-digit dimension is readable, but the rank, the sum of the
# factor dimensions, has 4,301 digits: run on every pass, not by chance
@example(["fan", "dump", "--pairs", f"P1:pt,P{'9' * 4300}:H"], "")
@example(["logproduct", "--pairs", f"P{'9' * 4300}:H,P1:pt"], "")
def test_cli_refuses_bad_input_with_one_error_line(argv, fan_json):
    code, err = invoke(argv, fan_json)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "set_int_max_str_digits" not in err
    lines = err.splitlines()
    if not lines:
        assert code in (0, 1)
    elif lines[0].startswith("usage: "):
        assert code == 2
        assert [ln for ln in lines if ARGPARSE_ERROR.match(ln)] == [lines[-1]]
    elif code == 1:
        assert len(lines) == 1 and NAMED_ERROR.match(lines[0])
    else:
        assert code == 2 and lines[0].startswith("usage error: ")
        kernel = argv[0] in ("chern", "euler")
        assert lines[1:] in ([], [KERNEL_GRAMMAR] if kernel else [])
