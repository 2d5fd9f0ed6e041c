import hashlib
import io
import json
from math import comb
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest

from logfan import cohomology
from logfan.cli import KERNEL_GRAMMAR, main, parse_bundle_expr, parse_order
from logfan.cohomology import SplitBundle, Summand
from logfan.errors import QUOTE_LIMIT
from logfan.fans import fan_dumps, fan_from_json, fan_to_json
from logfan.logproduct import log_product, parse_pair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def no_table(*_):
    raise AssertionError("a cohomology table was started")


class TestPlumbing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "logfan 0.1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("fan", "dump", "--pairs", ",".join(["A1:0"] * 7)),
        ("logproduct", "--json", "--pairs", ",".join(["A1:0"] * 7)),
    ])
    def test_closed_output_pipe_exits_one_quietly(self, argv):
        """A reader that leaves early, as `| head -c 20` does: exit 1 and
        nothing on stderr.  Each output is over 160 kB, more than a pipe
        holds, so the child is still writing when the pipe closes."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-m", "logfan.cli", *argv],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    def test_module_run_has_clean_stderr(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "logfan.cli",
                               "--version"], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == "logfan 0.1.0\n"
        assert proc.stderr == ""

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["hkr", "--pair", "P1:pt", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


# What `main(argv)` leaves in `sys.modules` of a fresh interpreter: the
# `logfan` modules, `json`, and `dataclasses`, `fractions` and `inspect`,
# which no case may load: the value classes share `logfan.values`, and
# `linalg.solve_nonnegative` returns integers over a denominator.  `-S`
# keeps site hooks from importing anything first.
IMPORT_PROBE = """
import sys
from logfan.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(code, *sorted(m for m in sys.modules
                    if m.split(".")[0] == "logfan"
                    or m in ("dataclasses", "fractions", "inspect", "json")),
      file=sys.stderr)
"""

BASE = {"logfan", "logfan.cli", "logfan.errors"}
VALUES = BASE | {"logfan.values"}
PAIRS = VALUES | {"logfan.cohomology", "logfan.hkr", "logfan.logproduct"}
KERNELS = PAIRS | {"logfan.kernels"}
FAN_LAYER = VALUES | {"logfan.fans", "logfan.linalg"}
EVERY = KERNELS | FAN_LAYER | {"logfan.verify"}


class TestImports:
    @pytest.mark.parametrize("argv,code,modules", [
        (["--version"], 0, BASE),
        (["hkr"], 2, BASE),
        (["cohomology", "--base", "P2", "--bundle", "O(-1)^2"], 0,
         VALUES | {"logfan.cohomology"}),
        (["hkr", "--pair", "P1:pt", "--json"], 0, PAIRS | {"json"}),
        (["chern", "--pair", "P1:pt", "--kernel", "diag(O,1)"], 0, KERNELS),
        (["euler", "--source", "P1:pt", "--target", "P2:H", "--kernel",
          "graph(deg=1)", "--against", "graph(deg=1)", "--json"], 0,
         KERNELS | {"json"}),
        (["fan", "check", "{fan}"], 0, FAN_LAYER | {"json"}),
        (["fan", "dump", "--pairs", "A1:0,A1:0"], 0,
         FAN_LAYER | {"logfan.logproduct", "json"}),
        (["logproduct", "--pairs", "A1:0,P1:pt", "--json"], 0,
         FAN_LAYER | {"logfan.logproduct", "json"}),
        (["logproduct", "--pairs", "A1:0,P1:pt"], 0,
         FAN_LAYER | {"logfan.logproduct"}),
        (["verify"], 0, EVERY),
    ], ids=["version", "usage-error", "cohomology", "hkr", "chern", "euler",
            "fan-check", "fan-dump", "logproduct", "logproduct-text",
            "verify"])
    def test_subcommand_imports_only_what_it_runs(self, tmp_path, argv,
                                                  code, modules):
        path = tmp_path / "fan.json"
        path.write_text(fan_dumps(log_product(
            [parse_pair("A1:0")] * 2).fan))
        argv = [a.format(fan=path) for a in argv]
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE,
                               *argv], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src),
                              timeout=120)
        last = proc.stderr.splitlines()[-1].split()
        assert (int(last[0]), set(last[1:])) == (code, modules)


class TestFan:
    def test_dump_and_check(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run(capsys, "fan", "dump", "--pairs",
                           "A1:0,A1:0,A1:0")
        assert code == 0
        data = json.loads(out)
        assert len(data["rays"]) == 7 and len(data["cones"]) == 6
        path = tmp_path / "fan.json"
        path.write_text(out)
        code, out, _ = run(capsys, "fan", "check", str(path))
        assert code == 0
        assert "smooth=True" in out and "face-closed=True" in out

    def test_check_flags_non_smooth(self, capsys, tmp_path):
        bad = {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]],
               "labels": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "fan", "check", str(path))
        assert code == 1
        assert "smooth=False" in out


    @pytest.mark.parametrize("text", [
        '{"rank": 2}',
        '{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 2]]}',
        '{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[-1, 0]]}',
        'not json',
        pytest.param("[" * 100_000, id="deeply-nested"),
        pytest.param('{"rank": 2, "rays": [[1, 0], [0, 1]], '
                     '"cones": [[0, 1], [1, 0]]}', id="cone listed twice"),
    ])
    def test_check_malformed_input_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "fan.json"
        path.write_text(text)
        code, out, err = run(capsys, "fan", "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_check_zero_ray_is_invalid_cone(self, capsys, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text('{"rank": 2, "rays": [[0, 0], [1, 0]], '
                        '"cones": [[0, 1]]}')
        code, out, err = run(capsys, "fan", "check", str(path))
        assert code == 1 and out == ""
        assert err == "error: InvalidCone: zero ray (0, 0) in " \
            "((0, 0), (1, 0))\n"

    def test_check_zero_ray_of_rank_3000_is_one_short_line(self, capsys,
                                                           tmp_path):
        # the ray text, 9,000 and 18,004 characters, is quoted by its first
        # QUOTE_LIMIT characters and its length
        n = 3000
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"rank": n, "rays": [[0] * n,
                                                        [1] + [0] * (n - 1)],
                                    "cones": [[0, 1]]}))
        code, out, err = run(capsys, "fan", "check", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: InvalidCone: zero ray (0, 0, ")
        assert "... (9000 characters) in ((0, 0, " in err
        assert err.endswith("... (18004 characters)\n")
        assert len(err) < 300

    @pytest.mark.parametrize("signs,cones,labels,message", [
        ((1,), [[0], [0]], {}, "usage error: cone ((1, 0, "),
        ((1, -1), [[0]], {"1": 0}, "usage error: fan JSON label '1' is on "
                                   "the ray [-1, 0, "),
        ((1, 1), [[0]], {"0": 0, "1": 1}, "usage error: fan JSON label '1' "
                                          "is a second label on the ray "
                                          "[1, 0, "),
    ], ids=["cone listed twice", "label on an unheld ray",
            "second label on a ray"])
    def test_check_schema_error_of_rank_3000_is_one_short_line(
            self, capsys, tmp_path, signs, cones, labels, message):
        # ray i is signs[i] times e1 in Z^3000; the ray text, 9,000
        # characters or more, is quoted by its first QUOTE_LIMIT characters
        # and its length
        n = 3000
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({
            "rank": n, "rays": [[s] + [0] * (n - 1) for s in signs],
            "cones": cones,
            "labels": {k: {"kind": "boundary", "arg": a}
                       for k, a in labels.items()}}))
        code, out, err = run(capsys, "fan", "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith(message)
        assert " characters)" in err and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_dump_refuses_an_order_for_one_pair(self, capsys):
        # one pair has no stratum to blow up, so its only order is empty:
        # a group of its one index is not a building-set order, and any
        # other index is outside 1..1
        code, out, err = run(capsys, "fan", "dump", "--pairs", "P1:pt",
                             "--order", "1")
        assert (code, out) == (1, "")
        assert err == ("error: NotABuildingSetOrder: sequence is not a "
                       "valid building-set order\n")
        code, out, err = run(capsys, "fan", "dump", "--pairs", "P1:pt",
                             "--order", "1,2")
        assert (code, out, err) == (
            2, "", "usage error: order index 2 is outside 1..1\n")

    @pytest.mark.parametrize("text", ["P1:pt", "P2:H", "P3:H", "A1:0"])
    def test_dump_of_one_pair_is_its_log_product(self, capsys,
                                                 monkeypatch, text):
        """The factor's own rays and cones, its boundary ray labelled as
        the strict transform of factor 0, and a fan that checks."""
        code, out, err = run(capsys, "fan", "dump", "--pairs", text)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert fan_from_json(data).cones == parse_pair(text).toric_fan().cones
        assert list(data["labels"].values()) == [
            {"kind": "strict_transform", "arg": 0}]
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run(capsys, "fan", "check", "-")
        assert code == 0 and "smooth=True face-closed=True" in out

    def test_check_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "fan", "check", str(tmp_path / "nope"))
        assert code == 2
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_check_needs_no_scipy(self, capsys, tmp_path):
        _, out, _ = run(capsys, "fan", "dump", "--pairs",
                        "P1:pt,P1:pt,P1:pt")
        path = tmp_path / "fan.json"
        path.write_text(out)
        script = ("import sys; sys.modules['scipy'] = None; "
                  "from logfan.cli import main; "
                  "sys.exit(main(['fan', 'check', sys.argv[1]]))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "face-closed=True" in proc.stdout


class TestLogProduct:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "logproduct", "--pairs", "P1:pt,P2:H")
        assert code == 0
        assert "1 exceptional" in out
        assert "stratum {1,2}" in out

    def test_factors_print_canonically(self, capsys):
        # P1:H and C0:pt spell the pair P1:pt
        code, out, _ = run(capsys, "logproduct", "--pairs", "P1:H,C0:pt")
        assert code == 0 and "factors: P1:pt, P1:pt" in out.splitlines()

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "logproduct", "--pairs", "P1:pt,P1:pt",
                           "--json")
        assert code == 0
        data = json.loads(out)
        fan = fan_from_json(data)
        assert len(fan.rays()) == 5 and len(fan.cones) == 5
        assert data["stratum_ray"] == {"1,2": [1, 1]}
        assert data["strict_transforms"] == {"1": [1, 0], "2": [0, 1]}

    def test_custom_order(self, capsys):
        base = run(capsys, "logproduct", "--pairs", "P1:pt,P1:pt,P1:pt",
                   "--json")[1]
        alt = run(capsys, "logproduct", "--pairs", "P1:pt,P1:pt,P1:pt",
                  "--order", "1,2;1,2,3;1,3;2,3", "--json")[1]
        assert json.loads(base)["cones"] == json.loads(alt)["cones"]

    def test_invalid_order_is_computation_error(self, capsys):
        code, _, err = run(capsys, "logproduct", "--pairs",
                           "P1:pt,P1:pt,P1:pt", "--order", "1,2;1,3;1,2,3;2,3")
        assert code == 1
        assert "NotABuildingSetOrder" in err

    @pytest.mark.parametrize("text,cones", [("P1:pt", 2), ("A1:0", 1)])
    def test_one_pair(self, capsys, text, cones):
        code, out, err = run(capsys, "logproduct", "--pairs", text)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"factors: {text}",
            f"rank 1: {cones} rays, {cones} maximal cones, 0 exceptional",
            "factor 1: strict transform ray [1]"]
        code, out, err = run(capsys, "logproduct", "--pairs", text, "--json")
        data = json.loads(out)
        assert (code, err) == (0, "")
        assert (data["stratum_ray"], data["strict_transforms"]) == (
            {}, {"1": [1]})

    @pytest.mark.parametrize("argv", [("fan", "dump"), ("logproduct",)])
    @pytest.mark.parametrize("pairs", ["A1:0,A1:0", "P1:pt"])
    def test_empty_order_is_usage_error(self, capsys, argv, pairs):
        """An empty --order is not left out: it has one empty group, which
        names no stratum."""
        code, out, err = run(capsys, *argv, "--pairs", pairs, "--order", "")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: cannot parse order group '': ")

    @pytest.mark.parametrize("order", ["1,3", "0,1", "-1,2"])
    def test_order_index_out_of_range_is_usage_error(self, capsys, order):
        code, _, err = run(capsys, "logproduct", "--pairs", "P1:pt,P1:pt",
                           f"--order={order}")
        assert code == 2 and "outside 1..2" in err


class TestCohomology:
    def test_table_vanishing(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--base", "P2",
                           "--bundle", "O(-1)^2")
        assert code == 0 and out.strip() == "(zero)"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--base", "P2",
                           "--bundle", "O(1)", "--json")
        assert code == 0 and json.loads(out) == {"dims": {"0": 3}}

    def test_shifted_sum(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--base", "P1",
                           "--bundle", "O+O(-1)[1]", "--json")
        assert code == 0 and json.loads(out) == {"dims": {"0": 1}}

    def test_ambiguous_curve_degree_exits_one(self, capsys):
        code, _, err = run(capsys, "cohomology", "--base", "C2",
                           "--bundle", "O(1)")
        assert code == 1 and "AmbiguousDegree" in err

    def test_huge_multiplicity_is_one_term(self, capsys):
        # h^0(P^2, O(3)) = 10, taken 10^30 times
        code, out, _ = run(capsys, "cohomology", "--base", "P2",
                           "--bundle", f"O(3)^{10 ** 30}")
        assert code == 0 and out == f"0: {10 * 10 ** 30}\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("extra", [(), ("--json",)])
    def test_result_past_digit_limit_exits_one(self, capsys, extra):
        # 3433 digits for one copy, times a 901-digit multiplicity
        code, out, err = run(capsys, "cohomology", "--base", "P1000",
                             "--bundle", f"O(1000000)^{10 ** 900}", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ResultTooLarge: ")

    def test_largest_allowed_input_prints(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--base", "P1000",
                           "--bundle", "O(1000000)")
        assert code == 0 and out == f"0: {comb(1001000, 1000)}\n"
        code, out, _ = run(capsys, "cohomology", "--base", "P1000",
                           "--bundle", "O(-1000000)")
        assert code == 0 and out == f"1000: {comb(999999, 1000)}\n"

    @pytest.mark.parametrize("base", ["P1001", "P1000000", "P3000000"])
    def test_dimension_cap_refuses_before_any_table(self, capsys,
                                                    monkeypatch, base):
        monkeypatch.setattr(cohomology, "cohomology_line_pn", no_table)
        code, out, err = run(capsys, "cohomology", "--base", base,
                             "--bundle", f"O({base[1:]})")
        assert code == 1 and out == ""
        assert err == (f"error: DimensionTooLarge: {base} is above the cap "
                       f"of dimension 1000 for cohomology tables\n")

    @pytest.mark.parametrize("bundle", [
        "O(1000001)", "O(-1000001)+O", "O+O(3)^2+O(-1000001)[1]",
        f"O({10 ** 3999})"])
    def test_twist_cap_refuses_before_any_table(self, capsys, monkeypatch,
                                                bundle):
        monkeypatch.setattr(cohomology, "cohomology_line_pn", no_table)
        code, out, err = run(capsys, "cohomology", "--base", "P1000",
                             "--bundle", bundle)
        assert code == 1 and out == ""
        assert err == ("error: TwistTooLarge: a twist is outside the cap "
                       "|k| <= 1000000 for cohomology tables on P^n\n")

    def test_bundle_grammar(self):
        assert parse_bundle_expr("O(-1)^2") == SplitBundle.sum_of([-1, -1])
        assert parse_bundle_expr("O+O(-1)[1]") == SplitBundle(
            (Summand(0, 0), Summand(-1, 1)))
        with pytest.raises(ValueError):
            parse_bundle_expr("Q(3)")


class TestHkr:
    def test_p1_json_exact(self, capsys):
        code, out, _ = run(capsys, "hkr", "--pair", "P1:pt", "--json")
        assert code == 0 and out.strip() == '{"dims": {"0": 1}}'

    def test_curve_table(self, capsys):
        code, out, _ = run(capsys, "hkr", "--pair", "C2:pt")
        assert code == 0
        assert out.splitlines() == ["-1: 2", "0: 1", "1: 2"]

    def test_cohomology_variant(self, capsys):
        code, out, _ = run(capsys, "hkr", "--pair", "P1:pt",
                           "--cohomology", "--json")
        assert code == 0 and json.loads(out) == {"dims": {"0": 1, "1": 2}}


    def test_dimension_cap(self, capsys):
        code, out, _ = run(capsys, "hkr", "--pair", "P1000:H", "--json")
        assert code == 0 and json.loads(out)["dims"]["0"] == 1
        for extra in ((), ("--cohomology",)):
            code, out, err = run(capsys, "hkr", "--pair", "P1001:H", *extra)
            assert code == 1 and out == ""
            assert err.splitlines() == [
                "error: DimensionTooLarge: P1001:H is above the cap of "
                "dimension 1000 for Hochschild tables"]


class TestChernEuler:
    def test_chern_example(self, capsys):
        code, out, _ = run(capsys, "chern", "--pair", "P1:pt", "--kernel",
                           "diag(O,0)+diag(O(5),1)")
        assert code == 0 and out.strip() == "0"

    def test_chern_expansion(self, capsys):
        code, out, _ = run(capsys, "chern", "--pair", "P1:pt", "--target",
                           "P2:H", "--kernel", "graph(deg=1)+graph(deg=1)")
        assert code == 0 and out.strip() == "2"

    def test_euler_graph_example(self, capsys):
        code, out, _ = run(capsys, "euler", "--source", "P1:pt",
                           "--target", "P2:H", "--kernel", "graph(deg=1)",
                           "--against", "graph(deg=1)")
        assert code == 0 and out.strip() == "0"

    def test_euler_trace_and_json_compose(self, capsys):
        code, out, _ = run(capsys, "euler", "--source", "P1:pt",
                           "--target", "P2:H", "--kernel", "graph(deg=1)",
                           "--against", "graph(deg=1)", "--trace", "--json")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("adjoint:") for line in lines)
        assert "excess: O(1)" in lines
        assert "sym: O + O(-1)[1]" in lines
        assert json.loads(lines[-1]) == {"value": 0}

    def test_trace_prints_multiplicity_once(self, capsys):
        kernel = "+".join(["diag(O,0)"] * 200)
        code, out, _ = run(capsys, "euler", "--source", "P1:pt",
                           "--target", "P1:pt", "--kernel", kernel,
                           "--against", "200*diag(O,0)", "--trace")
        assert code == 0 and out.splitlines() == [
            "adjoint: R(200*diag(O,0)) = 200*diag(O,0)",
            "additivity: 40000*(+1) -> 40000", "40000"]

    @pytest.mark.parametrize("argv,lines", [
        (("chern", "--pair", "P1:pt", "--kernel",
          "diag(O,0)+3*diag(O(5),1)"),
         ["unit: 1 in HH_0 of P1:pt", "beta: insert scalar 1",
          "exchange: move the Serre kernel across the adjoint",
          "counit: 1 + 3*(-1) -> -2", "-2"]),
        # two atom pairs take the excess route, in the order composed
        (("euler", "--source", "P1:pt", "--target", "P3:H", "--kernel",
          "graph(deg=1)+graph(deg=1,O(2),1)", "--against",
          "2*graph(deg=1)"),
         ["adjoint: R(2*graph(deg=1,O,0)) = 2*t(graph(deg=1,O(2),-2))",
          "excess: 2*O(1)", "sym: O + 2*O(-1)[1] + O(-2)[2]",
          "excess: 2*O(1)", "sym: O + 2*O(-1)[1] + O(-2)[2]",
          "additivity: 2*(+1) + 4*(-1) + 2*(-1) + 2*(+1) + 4*(+1) + "
          "2*(-1) -> 0", "0"]),
        (("chern", "--pair", "P1:pt", "--target", "P3:H", "--kernel",
          "graph(deg=1)+2*graph(deg=2,O(1),1)"),
         ["additivity: 1 + 2*(-1) -> -1", "-1"]),
        # into P1:pt the excess bundle (m - 1)*O(1) is zero
        (("euler", "--source", "P1:pt", "--target", "P1:pt", "--kernel",
          "graph(deg=1)", "--against", "graph(deg=1)"),
         ["adjoint: R(graph(deg=1,O,0)) = t(graph(deg=1,O,0))",
          "excess: 0", "sym: O", "additivity: 1 -> 1", "1"]),
        # the zero kernel between two pairs takes the additivity chain
        (("chern", "--pair", "P2:H", "--target", "P3:H", "--kernel", "0"),
         ["additivity: 0 -> 0", "0"]),
    ], ids=["hh-action", "two-excess-routes", "expansion", "zero-excess",
            "zero-kernel-between-pairs"])
    def test_trace_lines(self, capsys, argv, lines):
        code, out, err = run(capsys, *argv, "--trace")
        assert (code, out.splitlines(), err) == (0, lines, "")

    def test_zero_kernel(self, capsys):
        code, out, _ = run(capsys, "chern", "--pair", "P1:pt", "--kernel",
                           "0")
        assert code == 0 and out == "0\n"
        code, out, _ = run(capsys, "euler", "--source", "P1:pt", "--target",
                           "P1:pt", "--kernel", "0", "--against",
                           "diag(O,0)", "--trace")
        assert code == 0 and out.splitlines() == [
            "adjoint: R(diag(O,0)) = diag(O,0)", "additivity: 0 -> 0", "0"]

    def test_bad_kernel_grammar_exits_two(self, capsys):
        for kernel in ("diag(O)", ""):
            code, _, err = run(capsys, "chern", "--pair", "P1:pt",
                               "--kernel", kernel)
            assert code == 2 and "usage error" in err
            assert KERNEL_GRAMMAR in err

    @pytest.mark.parametrize("argv", [
        ("cohomology", "--base", "Q3", "--bundle", "O"),
        ("logproduct", "--pairs", "P1:pt,X9:0"),
        ("hkr", "--pair", "P1:nope"),
        ("euler", "--source", "P2:H", "--target", "P2:H", "--kernel",
         "graph(deg=1)", "--against", "graph(deg=1)"),
        # kernels the grammar reads but the pairs refuse
        ("chern", "--pair", "P1:pt", "--target", "P2:H", "--kernel",
         "graph(deg=0)"),
        ("euler", "--source", "P1:pt", "--target", "P2:H", "--kernel",
         "t(graph(deg=1))", "--against", "0"),
        ("chern", "--pair", "P1:pt", "--target", "C2:pt", "--kernel",
         "graph(deg=1)"),
    ])
    def test_other_usage_errors_omit_kernel_grammar(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("usage error: ")
        assert KERNEL_GRAMMAR not in err

    @pytest.mark.parametrize("source", ["C0:pt", "P1:H"])
    def test_every_spelling_of_p1_pt_is_a_graph_source(self, capsys,
                                                      source):
        code, out, err = run(capsys, "euler", "--source", source,
                             "--target", "P2:H", "--kernel", "graph(deg=1)",
                             "--against", "graph(deg=1)")
        assert (code, out, err) == (0, "0\n", "")

    @pytest.mark.parametrize("kernel", ["graph(deg=1)", "diag(O,0)"])
    def test_chern_reads_the_pair_not_its_spelling(self, capsys, kernel):
        target = ["--target", "P2:H"] if kernel.startswith("graph") else []
        outputs = [run(capsys, "chern", "--pair", pair, *target,
                       "--kernel", kernel, "--trace")
                   for pair in ("P1:pt", "P1:H", "C0:pt")]
        assert outputs[0][0] == 0 and outputs[0][2] == ""
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_euler_outside_scalar_regime_exits_one(self, capsys):
        code, out, err = run(capsys, "euler", "--source", "C1:pt",
                             "--target", "C1:pt", "--kernel", "diag(O,0)",
                             "--against", "diag(O,0)")
        assert code == 1 and out == ""
        assert err == ("error: UnsupportedHHShape: C1:pt has log Hochschild "
                       "homology beyond degree 0\n")

    def test_chern_outside_scalar_regime_exits_one(self, capsys):
        # the kernel 0: a graph into C1:pt is refused when it is built
        code, out, err = run(capsys, "chern", "--pair", "P1:pt", "--target",
                             "C1:pt", "--kernel", "0")
        assert code == 1 and out == ""
        assert err == ("error: UnsupportedHHShape: C1:pt has log Hochschild "
                       "homology beyond degree 0\n")

    def test_chern_of_a_transposed_graph_exits_one(self, capsys):
        code, out, err = run(capsys, "chern", "--pair", "P1:pt", "--target",
                             "P1:pt", "--kernel", "t(graph(deg=1))")
        assert code == 1 and out == ""
        assert err == ("error: UnsupportedHHShape: transposed graphs have "
                       "no supported expansion chain\n")

    def test_chern_target_equal_to_pair_changes_nothing(self, capsys):
        # --target names the kernel's target; the kernel picks the chain
        for pair in ("P1:pt", "P2:H"):
            for extra in ((), ("--trace",)):
                argv = ("chern", "--pair", pair, "--kernel",
                        "diag(O,0)+2*diag(O(3),1)", *extra)
                alone = run(capsys, *argv)
                assert alone[0] == 0 and alone[1].endswith("-1\n")
                assert run(capsys, *argv, "--target", pair) == alone

    @pytest.mark.parametrize("kernel,value", [
        ("graph(deg=1)", "1"),
        ("graph(deg=1)+graph(deg=2,O(1),1)", "0"),
        ("diag(O,0)+graph(deg=3,O,2)", "2")])
    def test_chern_of_a_graph_endo_kernel(self, capsys, kernel, value):
        assert run(capsys, "chern", "--pair", "P1:pt", "--kernel",
                   kernel) == (0, value + "\n", "")

    @pytest.mark.parametrize("argv,err", [
        (("--pair", "P2:H", "--target", "P1:pt", "--kernel",
          "t(graph(deg=1))"), "UnsupportedHHShape: transposed graphs have "
                              "no supported expansion chain"),
        (("--pair", "C1:pt", "--target", "P1:pt", "--kernel", "0"),
         "UnsupportedHHShape: C1:pt has log Hochschild homology beyond "
         "degree 0"),
        (("--pair", "A1:0", "--target", "P1:pt", "--kernel", "0"),
         "NoToricModel: A1:0 is not projective; no cohomology tables"),
    ], ids=["transposed-graph", "not-scalar", "no-toric-model"])
    def test_chern_from_another_source_meets_its_refusal(self, capsys, argv,
                                                          err):
        assert run(capsys, "chern", *argv) == (1, "", f"error: {err}\n")

    def test_unsupported_composition_exits_one(self, capsys):
        code, _, err = run(capsys, "euler", "--source", "P1:pt",
                           "--target", "P2:H", "--kernel", "graph(deg=2)",
                           "--against", "graph(deg=2)")
        assert code == 1 and "FormalityUnavailable" in err

    def test_excess_rank_cap(self, capsys, monkeypatch):
        # the excess of a degree-1 graph into P<m>:H is O(1)^(m-1)
        code, out, _ = run(capsys, "euler", "--source", "P1:pt",
                           "--target", "P1001:H", "--kernel", "graph(deg=1)",
                           "--against", "graph(deg=1)")
        assert code == 0 and out == "0\n"

        def no_power(*_):
            raise AssertionError("a wedge power was built")
        monkeypatch.setattr(cohomology, "comb", no_power)
        for m in (1002, 10 ** 9):
            code, out, err = run(capsys, "euler", "--source", "P1:pt",
                                 "--target", f"P{m}:H", "--kernel",
                                 "graph(deg=1)", "--against", "graph(deg=1)",
                                 "--trace")
            assert code == 1 and out == ""
            assert err == (f"error: DimensionTooLarge: a bundle of rank "
                           f"{m - 1} is above the cap of rank 1000 for "
                           f"exterior powers\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("extra", [(), ("--trace",), ("--json",),
                                       ("--trace", "--json")])
    @pytest.mark.parametrize("argv", [
        # 3000-digit multiplicities whose product has 6000 digits
        ("euler", "--source", "P1:pt", "--target", "P1:pt",
         "--kernel", f"{'7' * 3000}*diag(O,0)",
         "--against", f"{'7' * 3000}*diag(O,0)"),
        # two 4300-digit multiplicities whose sum has 4301 digits
        ("chern", "--pair", "P1:pt", "--kernel",
         f"{'9' * 4300}*diag(O,0)+{'9' * 4300}*diag(O(1),0)"),
        ("chern", "--pair", "P1:pt", "--target", "P2:H", "--kernel",
         f"{'9' * 4300}*graph(deg=1)+{'9' * 4300}*graph(deg=2)"),
    ], ids=["euler", "chern", "chern-expansion"])
    def test_value_past_digit_limit_exits_one(self, capsys, argv, extra):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ResultTooLarge: ")
        assert err.count("\n") == 1


class TestVerify:
    def test_all_cases_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "[FAIL]" not in out
        assert "fan-octant-rays" in out

    def test_sign_flip_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "--sign-flip")
        assert code == 1
        assert "[FAIL] hh-shift-sign" in out

    def test_sign_flip_fails_only_the_shifted_cases(self, capsys):
        code, out, _ = run(capsys, "verify", "--sign-flip", "--json")
        data = json.loads(out)
        assert code == 1 and data["passed"] is False
        assert ({c["case_id"] for c in data["cases"] if not c["pass"]}
                == {"hh-shift-sign", "chern-additive"})

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        data = json.loads(out)
        assert data["passed"] is True
        assert all(set(c) == {"case_id", "claim", "expected", "actual",
                              "pass"} for c in data["cases"])
        support, = (c for c in data["cases"]
                    if c["case_id"] == "logproduct-support")
        assert support["pass"] is True


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("logproduct", "--pairs", "P1:pt,P2:H", "--json"),
        ("hkr", "--pair", "P3:H", "--json"),
        ("fan", "dump", "--pairs", "A1:0,A1:0"),
    ])
    def test_identical_output(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def log_product_text(pairs, drop_first=False, cone=()):
    """Fan JSON text of the log product of `pairs`, less its first cone
    when `drop_first`, plus the cone on the rays `cone` when it names
    any."""
    data = fan_to_json(log_product([parse_pair(p) for p in pairs]).fan)
    if drop_first:
        data["cones"].pop(0)
    if cone:
        index = {tuple(r): i for i, r in enumerate(data["rays"])}
        data["cones"].append(sorted(index[r] for r in cone))
    return json.dumps(data)


# (argv, stdin, exit code, sha256 of stdout from `python -m logfan.cli
# ...`), each under a fixed id: the byte-for-byte output of `logproduct`
# and `fan dump`, labels and --order included, of one pair too, and of
# `fan check` on a fan that passes and on one that fails
PINNED_STDOUT = [
    pytest.param(
        ("logproduct", "--pairs", "A1:0,P1:pt,P2:H,P1:pt", "--json"), None, 0,
        "5bf104b578379cbe9c5aa9025e867c47e6aa4914f3633a768a4950ebae6ee0ff",
        id="logproduct-four-pairs-json"),
    pytest.param(
        ("logproduct", "--pairs", "P1:pt,P1:pt,P1:pt", "--order",
         "1,2;1,2,3;1,3;2,3", "--json"), None, 0,
        "6058fcfe28996ccc68f9f54d973daed1a3124cd35f81b7f0a9da3567a4c9e098",
        id="logproduct-order-json"),
    pytest.param(
        ("fan", "dump", "--pairs", "A1:0,A1:0,A1:0,A1:0"), None, 0,
        "c21dfcc3023107e482d80cc812cdfddbcdc018deca2b526fcf35887b8cdb8c9c",
        id="fan-dump-a1-fourth-power"),
    pytest.param(
        ("logproduct", "--pairs", "P2:H,P2:H,P1:pt"), None, 0,
        "a50573b2d83671059e0a6e407cb3c8d9acdf1f0b4467c3976014601670aec4a1",
        id="logproduct-text"),
    pytest.param(
        ("fan", "check", "-"),
        fan_dumps(log_product([parse_pair("A1:0")] * 4).fan), 0,
        "40531ad4da0350226ed4c7a310aace7b3ecce0fd4d29666e743a199bbed11e32",
        id="fan-check-passes"),
    # the P1 x P1 log product plus the cone {e1, e2}, which overlaps the
    # two cones on either side of the exceptional ray e1 + e2
    pytest.param(
        ("fan", "check", "-"),
        log_product_text(["P1:pt"] * 2, cone=[(1, 0), (0, 1)]), 1,
        "2e69791408c2440df4a4caf976aeba672d8eb8e961f980a397a77ed8d03deb4b",
        id="fan-check-overlap-fails"),
    pytest.param(
        ("verify", "--json"), None, 0,
        "e459d3910e9771c7ad52c588210ba51a9305251a24811768481fe1b3e877fa87",
        id="verify-json"),
    # the kernel rewrites: diag.diag, diag.t(graph), graph.diag and the
    # excess route; then t(graph).diag; then two chern chains
    pytest.param(
        ("euler", "--source", "P1:pt", "--target", "P1:pt", "--kernel",
         "diag(O(1),0)+graph(deg=1,O,1)", "--against",
         "diag(O,1)+graph(deg=1,O(2),0)", "--trace"), None, 0,
        "78f4511b91620b43765a24793d2d316f3debd901fb2bd3f382be67ec6e682909",
        id="euler-rewrites-trace"),
    pytest.param(
        ("euler", "--source", "P1:pt", "--target", "P1:pt", "--kernel",
         "t(graph(deg=1,O(1),0))+diag(O,0)", "--against", "diag(O(2),1)",
         "--trace"), None, 0,
        "82077d6f618737c4e7a9525c9e73c872f10735d5125fb68a002657e9518f0454",
        id="euler-transposed-graph-trace"),
    pytest.param(
        ("chern", "--pair", "P1:pt", "--target", "P2:H", "--kernel",
         "graph(deg=1,O(3),1)+graph(deg=2)", "--trace"), None, 0,
        "17fc4a516843a9668aa1a3fc377ed6776e4c10f6ea68b68c357cd6b7bd66274b",
        id="chern-graphs-trace"),
    pytest.param(
        ("chern", "--pair", "P2:H", "--kernel",
         "diag(O,0)+diag(O(1),1)+t(t(diag(O(-2),3)))", "--trace"), None, 0,
        "0e23b01c503bd36bf3f36ee7facad7facb01222e08a74883b83c8d4969a5885d",
        id="chern-diagonals-trace"),
    # one pair is its own log product, its boundary ray labelled as a
    # strict transform
    pytest.param(
        ("fan", "dump", "--pairs", "P2:H"), None, 0,
        "39359cc2b2c0044145b41d5347b1c2867caa5f857fc5d6f89f0e95335b22d3cf",
        id="fan-dump-one-pair"),
    pytest.param(
        ("logproduct", "--pairs", "P1:pt", "--json"), None, 0,
        "0105ff38ac084a51599d685b036d7df9356572988c2e5fe778fb760e297faf40",
        id="logproduct-one-pair-json"),
    pytest.param(
        ("logproduct", "--pairs", "P1:pt,P2:H", "--json"), None, 0,
        "f0c012735b21c6f74558d8efac16bbee951321c433a30b1aff7bbc0818427f72",
        id="logproduct-two-pairs-json"),
]


@pytest.mark.parametrize("argv,stdin,code,digest", PINNED_STDOUT)
def test_pinned_stdout(argv, stdin, code, digest):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "logfan.cli", *argv],
                          input=None if stdin is None else stdin.encode(),
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == code and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# every grammar's digit groups, and fan JSON, past Python's digit limit
LONG = "9" * 4400
OVER_LONG_INTEGERS = [
    pytest.param(("chern", "--pair", "P1:pt", "--kernel",
                  f"{LONG}*diag(O,0)"), None, id="kernel-mult"),
    pytest.param(("chern", "--pair", "P1:pt", "--kernel",
                  f"diag(O({LONG}),0)"), None, id="kernel-twist"),
    pytest.param(("cohomology", "--base", "P2", "--bundle", f"O^{LONG}"),
                 None, id="bundle-mult"),
    pytest.param(("cohomology", "--base", "P2", "--bundle", f"O({LONG})"),
                 None, id="bundle-twist"),
    pytest.param(("cohomology", "--base", f"P{LONG}", "--bundle", "O"),
                 None, id="base"),
    pytest.param(("hkr", "--pair", f"P{LONG}:H"), None, id="pair-Pn"),
    pytest.param(("hkr", "--pair", f"C{LONG}:pt"), None, id="pair-curve"),
    pytest.param(("logproduct", "--pairs", "P1:pt,P1:pt", "--order",
                  f"1,{LONG}"), None, id="order"),
    pytest.param(("fan", "check", "-"),
                 '{"rank": 1, "rays": [[%s]], "cones": [[0]]}' % ("9" * 5000),
                 id="fan-json-ray"),
]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit")
@pytest.mark.parametrize("argv,stdin", OVER_LONG_INTEGERS)
def test_over_long_integer_is_a_usage_error_naming_the_limit(
        capsys, monkeypatch, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    first, *rest = err.splitlines()
    assert (code, out) == (2, "")
    assert first.startswith("usage error: ")
    assert f"more than {sys.get_int_max_str_digits()} digits" in first
    assert rest == ([KERNEL_GRAMMAR] if argv[0] == "chern" else [])
    assert "set_int_max_str_digits" not in err and "9" * 10 not in err


# readable integers whose sum, computed from them, is past Python's digit
# limit for printing: the cap refuses it by name and leaves the number out
NINES = "9" * 4300
OVER_LONG_SUMS = [
    pytest.param(("fan", "dump", "--pairs", f"P1:pt,P{NINES}:H"),
                 "DimensionTooLarge: a fan's rank is above the cap of "
                 "rank 10", id="fan-dump-rank"),
    pytest.param(("logproduct", "--pairs", f"P{NINES}:H,P1:pt"),
                 "DimensionTooLarge: a fan's rank is above the cap of "
                 "rank 10", id="logproduct-rank"),
    pytest.param(("euler", "--source", "P1:pt", "--target", f"P{NINES}:H",
                  "--kernel", "graph(deg=2)", "--against", "graph(deg=2)"),
                 "FormalityUnavailable: tangent sub-bundle 2*O(1) + O(2) "
                 "does not split off the ambient tangent bundle restricted "
                 "to the graph; no formality route", id="formality-ambient"),
]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit")
@pytest.mark.parametrize("argv,error", OVER_LONG_SUMS)
def test_over_long_sum_is_refused_without_the_number(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {error}\n")


def cut(text):
    """`text` cut to its first QUOTE_LIMIT characters and its length."""
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


# readable integers that a refusal names, itself or in a pair's name: the
# number or the name is cut as `cut` does, so the refusal is one stderr
# line of under 300 bytes; the last is a usage error (exit 2)
OVER_LONG_REFUSALS = [
    pytest.param(("hkr", "--pair", f"P{NINES}:H"),
                 f"error: DimensionTooLarge: {cut(f'P{NINES}:H')} is above "
                 f"the cap of dimension 1000 for Hochschild tables", id="hkr"),
    pytest.param(("cohomology", "--base", f"P{NINES}", "--bundle", "O"),
                 f"error: DimensionTooLarge: {cut(f'P{NINES}')} is above the "
                 f"cap of dimension 1000 for cohomology tables",
                 id="cohomology"),
    # the excess bundle of a degree-1 graph into P^N has rank N - 1
    pytest.param(("euler", "--source", "P1:pt", "--target", f"P{NINES}:H",
                  "--kernel", "graph(deg=1)", "--against", "graph(deg=1)"),
                 f"error: DimensionTooLarge: a bundle of rank "
                 f"{cut(NINES[:-1] + '8')} is above the cap of rank 1000 "
                 f"for exterior powers", id="euler"),
    pytest.param(("chern", "--pair", f"C{NINES}:pt", "--kernel",
                  "diag(O,0)"),
                 f"error: UnsupportedHHShape: {cut(f'C{NINES}:pt')} has log "
                 f"Hochschild homology beyond degree 0", id="chern"),
    pytest.param(("fan", "dump", "--pairs", f"P{NINES}:H"),
                 f"error: DimensionTooLarge: a fan of rank {cut(NINES)} is "
                 f"above the cap of rank 10", id="fan-dump-rank"),
    pytest.param(("fan", "dump", "--pairs", f"C{NINES}:pt"),
                 f"error: NoToricModel: {cut(f'C{NINES}:pt')} has no toric "
                 f"local model", id="fan-dump-curve"),
    pytest.param(("chern", "--pair", "P1:pt", "--target", f"C{NINES}:pt",
                  "--kernel", "graph(deg=1)"),
                 f"usage error: graph atoms map P1:pt into P<m>:H, P1:pt or "
                 f"C0:pt, not {cut(f'C{NINES}:pt')}", id="chern-graph-target"),
]


@pytest.mark.parametrize("argv,line", OVER_LONG_REFUSALS)
def test_over_long_refusal_is_one_short_line(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    usage = line.startswith("usage error: ")
    assert (code, out, err) == (2 if usage else 1, "", f"{line}\n")
    assert len(err.encode()) < 300


def test_only_the_refusal_is_cut(capsys):
    """The table of a pair with an over-long parameter prints whole."""
    code, out, err = run(capsys, "hkr", "--pair", f"C{NINES}:pt")
    assert (code, err) == (0, "") and f": {NINES}\n" in out
    code, out, err = run(capsys, "hkr", "--pair", f"P{NINES}:H")
    assert (code, out) == (1, "") and cut(f"P{NINES}:H") in err


# malformed input of any length, quoted by a bounded prefix and its length
# once it is longer than QUOTE_LIMIT characters
LONG_TEXT = "9" * 4400
LONG_RAY = list(range(100000))
QUOTED_INPUTS = [
    pytest.param(("hkr", "--pair", f"P{LONG_TEXT}:X"), None,
                 "cannot parse pair", f"P{LONG_TEXT}:X", id="pair"),
    pytest.param(("cohomology", "--base", "P2", "--bundle",
                  f"O({LONG_TEXT}"), None, "cannot parse bundle summand",
                 f"O({LONG_TEXT}", id="bundle"),
    pytest.param(("cohomology", "--base", f"Q{LONG_TEXT}", "--bundle", "O"),
                 None, "cannot parse base", f"Q{LONG_TEXT}", id="base"),
    pytest.param(("logproduct", "--pairs", "P1:pt,P1:pt", "--order",
                  f"1,{LONG_TEXT}a"), None, "cannot parse order group",
                 f"1,{LONG_TEXT}a", id="order"),
    pytest.param(("chern", "--pair", "P1:pt", "--kernel",
                  f"diag(O,{LONG_TEXT}"), None, "cannot parse term",
                 f"diag(O,{LONG_TEXT}", id="kernel"),
    pytest.param(("fan", "check", "-"),
                 '{"rank": 1, "rays": [[1]], "cones": [[0]], '
                 '"labels": {"%s": {}}}' % LONG_TEXT,
                 "fan JSON label", LONG_TEXT, id="fan-json-label"),
    pytest.param(("fan", "check", "-"),
                 '{"rank": 1, "rays": [[1]], "cones": [[0]], '
                 '"labels": {"0": {"kind": "%s", "arg": 0}}}' % LONG_TEXT,
                 "unknown label kind", LONG_TEXT, id="fan-json-label-kind"),
    # a value that is not a string is quoted by its repr's prefix
    pytest.param(("fan", "check", "-"),
                 json.dumps({"rank": 2, "rays": [LONG_RAY], "cones": [[0]]}),
                 "fan JSON ray", LONG_RAY, id="fan-json-ray"),
    pytest.param(("fan", "check", "-"),
                 json.dumps({"rank": 1, "rays": [[1]], "cones": [[0]],
                             "labels": {"0": LONG_RAY}}),
                 "fan JSON label '0':", LONG_RAY, id="fan-json-label-value"),
]


@pytest.mark.parametrize("argv,stdin,what,text", QUOTED_INPUTS)
def test_usage_error_quotes_a_bounded_prefix_of_long_input(
        capsys, monkeypatch, argv, stdin, what, text):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    first, *rest = err.splitlines()
    if isinstance(text, str):
        head, size = repr(text[:QUOTE_LIMIT]), len(text)
    else:
        head, size = repr(text)[:QUOTE_LIMIT], len(repr(text))
    assert (code, out) == (2, "")
    assert first.startswith(f"usage error: {what} {head}... "
                            f"({size} characters)")
    assert rest == ([KERNEL_GRAMMAR] if argv[0] == "chern" else [])
    assert len(first) < 300


def test_usage_error_quotes_ordinary_input_whole(capsys, monkeypatch):
    """Input of up to QUOTE_LIMIT characters, or a value whose repr is that
    short, is quoted as it always was."""
    code, out, err = run(capsys, "hkr", "--pair", "P1:Q")
    assert (code, out, err) == (
        2, "", "usage error: cannot parse pair 'P1:Q'\n")
    code, out, err = run(capsys, "hkr", "--pair", "X" * QUOTE_LIMIT)
    assert err == f"usage error: cannot parse pair {'X' * QUOTE_LIMIT!r}\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"rank": 2, "rays": [[1, 0, 0]], "cones": [[0]]}'))
    code, out, err = run(capsys, "fan", "check", "-")
    assert (code, out, err) == (
        2, "", "usage error: fan JSON ray [1, 0, 0] is not a list of 2 "
        "integers\n")


def dense_unimodular_cone(n):
    """Fan JSON text of one cone of rank n: the identity after 6n random
    signed row additions, a dense matrix of determinant +-1."""
    rng = random.Random(1)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6 * n):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    return json.dumps({"rank": n, "rays": rows, "cones": [list(range(n))]})


E1 = [1] + [0] * 2999  # e1 in Z^3000
# (argv, stdin, exit code, a line the command prints on stdout, or on
# stderr when it prints nothing on stdout), each under a fixed id; stderr
# never advises raising Python's digit limit
PRINTED_LINES = [
    # the first cone's ray sum lies on walls of this fan, so the face
    # check's tie rule runs
    pytest.param(("fan", "check", "-"), log_product_text(["P2:H"] * 2), 0,
                 "rank 4: 7 rays, 13 maximal cones; smooth=True "
                 "face-closed=True", id="fan-check-p2h-squared"),
    # a complete rank-4 log product whose walls share hyperplanes
    pytest.param(("fan", "check", "-"), log_product_text(["P1:pt"] * 4), 0,
                 "rank 4: 19 rays, 65 maximal cones; smooth=True "
                 "face-closed=True", id="fan-check-p1pt-fourth-power"),
    pytest.param(("fan", "check", "-"), log_product_text(["A1:0"] * 5), 0,
                 "rank 5: 31 rays, 120 maximal cones; smooth=True "
                 "face-closed=True", id="fan-check-a1-fifth-power"),
    # 720 cones, each a column permutation of the others, share one index
    pytest.param(("fan", "check", "-"), log_product_text(["A1:0"] * 6), 0,
                 "rank 6: 63 rays, 720 maximal cones; smooth=True "
                 "face-closed=True", id="fan-check-a1-sixth-power"),
    # A1:0^4 less one cone is still a fan; P1:pt^3 plus the cone
    # {e1, e2, e3}, which its log product subdivides, is not
    pytest.param(("fan", "check", "-"),
                 log_product_text(["A1:0"] * 4, drop_first=True), 0,
                 "rank 4: 15 rays, 23 maximal cones; smooth=True "
                 "face-closed=True",
                 id="fan-check-a1-fourth-power-less-a-cone"),
    pytest.param(("fan", "check", "-"),
                 log_product_text(["P1:pt"] * 3,
                                  cone=[(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 1,
                 "rank 3: 10 rays, 17 maximal cones; smooth=True "
                 "face-closed=False", id="fan-check-p1pt-cube-plus-a-cone"),
    pytest.param(("fan", "check", "-"),
                 '{"rank": 2, "rays": [[1, 0], [-1, 0]], "cones": [[0, 1]]}',
                 1, "error: InvalidCone: rays ((-1, 0), (1, 0)) are linearly "
                 "dependent", id="fan-check-dependent-rays"),
    # refused by the face check's work cap before any wall is eliminated
    pytest.param(("fan", "check", "-"), dense_unimodular_cone(150), 1,
                 "error: TooMuchWallWork: the face check of 1 cones of rank "
                 "150 bounds its wall work at 506,250,000 (cones x rank^4), "
                 "more than 200,000,000", id="fan-check-dense-cone-rank-150"),
    # a rank-3000 ray is quoted by a bounded prefix
    pytest.param(("fan", "check", "-"),
                 json.dumps({"rank": 3000, "rays": [E1], "cones": [[0], [0]]}),
                 2, f"usage error: cone {cut(str((tuple(E1),)))} listed twice",
                 id="fan-check-cone-listed-twice-rank-3000"),
    pytest.param(("fan", "check", "-"),
                 json.dumps({"rank": 3000, "rays": [E1, [-1] + E1[1:]],
                             "cones": [[0]], "labels": {
                                 "1": {"kind": "boundary", "arg": 0}}}),
                 2, f"usage error: fan JSON label '1' is on the ray "
                 f"{cut(str([-1] + E1[1:]))}, which no cone holds",
                 id="fan-check-unheld-label-rank-3000"),
    pytest.param(("cohomology", "--base", "C2", "--bundle",
                  "O(-3)[1]+O(5)^2+O"), None, 0, "0: 13",
                 id="cohomology-curve"),
    pytest.param(("cohomology", "--base", "P3", "--bundle",
                  "O(-5)^2[1]+O(2)+O(-1)^3", "--json"), None, 0,
                 '{"dims": {"0": 10, "2": 8}}', id="cohomology-json"),
    pytest.param(("hkr", "--pair", "P2:H", "--cohomology"), None, 0, "2: 6",
                 id="hkr-cohomology"),
    pytest.param(("hkr", "--pair", "A1:0"), None, 1,
                 "error: NoToricModel: A1:0 is not projective; no cohomology "
                 "tables", id="hkr-no-toric-model"),
    # --target names the kernel's target, here the pair itself
    pytest.param(("chern", "--pair", "P2:H", "--target", "P2:H", "--kernel",
                  "diag(O,0)"), None, 0, "1", id="chern-target-is-pair"),
    # kernels the grammar reads but the pairs refuse
    pytest.param(("chern", "--pair", "P1:pt", "--target", "P2:H", "--kernel",
                  "graph(deg=0)"), None, 2,
                 "usage error: graph atoms need degree >= 1",
                 id="chern-graph-degree-zero"),
    pytest.param(("euler", "--source", "P1:pt", "--target", "P2:H",
                  "--kernel", "t(graph(deg=1))", "--against", "0"), None, 2,
                 "usage error: transposed graph atoms end at P1:pt",
                 id="euler-transposed-graph-source"),
    pytest.param(("chern", "--pair", "P1:pt", "--target", "C2:pt",
                  "--kernel", "graph(deg=1)"), None, 2,
                 "usage error: graph atoms map P1:pt into P<m>:H, P1:pt or "
                 "C0:pt, not C2:pt", id="chern-graph-into-c2"),
    pytest.param(("verify",), None, 0,
                 "[PASS] logproduct-support: the triple (P^1,pt) log product "
                 "keeps the support of the product fan of (P^1)^3; without "
                 "one of its cones it does not", id="verify-support"),
]


@pytest.mark.parametrize("argv,stdin,code,line", PRINTED_LINES)
def test_prints_the_line(capsys, monkeypatch, argv, stdin, code, line):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    got, out, err = run(capsys, *argv)
    assert got == code and line in (out or err).splitlines()
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("order,group", [("1,a", "1,a"), ("1,2;", ""),
                                         (",2", ",2")])
def test_malformed_order_names_the_group(capsys, order, group):
    code, out, err = run(capsys, "logproduct", "--pairs", "P1:pt,P1:pt",
                         "--order", order)
    assert (code, out) == (2, "")
    assert err == (f"usage error: cannot parse order group {group!r}: "
                   f"--order takes semicolon-separated groups of "
                   f"comma-separated 1-based indices, e.g. \"1,2;1,2,3\"\n")


def test_parse_order():
    assert parse_order("1,2;1,2,3", 3) == [frozenset({0, 1}),
                                           frozenset({0, 1, 2})]
    for bad in ("1,4", "0,1", "-1,2", "1,2;3,4"):
        with pytest.raises(ValueError):
            parse_order(bad, 3)
