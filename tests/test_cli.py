import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from logfan.cli import KERNEL_GRAMMAR, main, parse_bundle_expr, parse_order
from logfan.cohomology import SplitBundle, Summand
from logfan.fans import fan_dumps, fan_from_json, fan_to_json
from logfan.logproduct import log_product, parse_pair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPlumbing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "logfan 0.1.0" in capsys.readouterr().out

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
        code, out, err = run(capsys, "cohomology", "--base", "P5000",
                             "--bundle", "O(20000)", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ResultTooLarge: ")

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

    def test_bad_kernel_grammar_exits_two(self, capsys):
        code, _, err = run(capsys, "chern", "--pair", "P1:pt", "--kernel",
                           "diag(O)")
        assert code == 2 and "usage error" in err
        assert KERNEL_GRAMMAR in err

    @pytest.mark.parametrize("argv", [
        ("cohomology", "--base", "Q3", "--bundle", "O"),
        ("logproduct", "--pairs", "P1:pt,X9:0"),
        ("hkr", "--pair", "P1:nope"),
    ])
    def test_other_usage_errors_omit_kernel_grammar(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("usage error: ")
        assert KERNEL_GRAMMAR not in err

    def test_unsupported_composition_exits_one(self, capsys):
        code, _, err = run(capsys, "euler", "--source", "P1:pt",
                           "--target", "P2:H", "--kernel", "graph(deg=2)",
                           "--against", "graph(deg=2)")
        assert code == 1 and "FormalityUnavailable" in err


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

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        data = json.loads(out)
        assert data["passed"] is True
        assert all(set(c) == {"case_id", "claim", "expected", "actual",
                              "pass"} for c in data["cases"])


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


def p1_square_overlap():
    """The P1 x P1 log product plus the cone {e1, e2}, which overlaps the
    two cones on either side of the exceptional ray e1 + e2."""
    data = fan_to_json(log_product([parse_pair("P1:pt")] * 2).fan)
    index = {tuple(r): i for i, r in enumerate(data["rays"])}
    data["cones"].append(sorted([index[(1, 0)], index[(0, 1)]]))
    return json.dumps(data)


# (argv, stdin, exit code, sha256 of stdout from `python -m logfan.cli
# ...`): the byte-for-byte output of `logproduct` and `fan dump`, labels
# and --order included, and of `fan check` on a fan that passes and on
# one that fails
PINNED_STDOUT = [
    (("logproduct", "--pairs", "A1:0,P1:pt,P2:H,P1:pt", "--json"), None, 0,
     "5bf104b578379cbe9c5aa9025e867c47e6aa4914f3633a768a4950ebae6ee0ff"),
    (("logproduct", "--pairs", "P1:pt,P1:pt,P1:pt", "--order",
      "1,2;1,2,3;1,3;2,3", "--json"), None, 0,
     "6058fcfe28996ccc68f9f54d973daed1a3124cd35f81b7f0a9da3567a4c9e098"),
    (("fan", "dump", "--pairs", "A1:0,A1:0,A1:0,A1:0"), None, 0,
     "c21dfcc3023107e482d80cc812cdfddbcdc018deca2b526fcf35887b8cdb8c9c"),
    (("logproduct", "--pairs", "P2:H,P2:H,P1:pt"), None, 0,
     "a50573b2d83671059e0a6e407cb3c8d9acdf1f0b4467c3976014601670aec4a1"),
    (("fan", "check", "-"),
     fan_dumps(log_product([parse_pair("A1:0")] * 4).fan), 0,
     "40531ad4da0350226ed4c7a310aace7b3ecce0fd4d29666e743a199bbed11e32"),
    (("fan", "check", "-"), p1_square_overlap(), 1,
     "2e69791408c2440df4a4caf976aeba672d8eb8e961f980a397a77ed8d03deb4b"),
    (("verify", "--json"), None, 0,
     "35b2d86ceef776027f24f0d468e1dcc44202bbdab75c8e238408628703cecb33"),
    # the kernel rewrites: diag.diag, diag.t(graph), graph.diag and the
    # excess route; then t(graph).diag; then two chern chains
    (("euler", "--source", "P1:pt", "--target", "P1:pt", "--kernel",
      "diag(O(1),0)+graph(deg=1,O,1)", "--against",
      "diag(O,1)+graph(deg=1,O(2),0)", "--trace"), None, 0,
     "78f4511b91620b43765a24793d2d316f3debd901fb2bd3f382be67ec6e682909"),
    (("euler", "--source", "P1:pt", "--target", "P1:pt", "--kernel",
      "t(graph(deg=1,O(1),0))+diag(O,0)", "--against", "diag(O(2),1)",
      "--trace"), None, 0,
     "82077d6f618737c4e7a9525c9e73c872f10735d5125fb68a002657e9518f0454"),
    (("chern", "--pair", "P1:pt", "--target", "P2:H", "--kernel",
      "graph(deg=1,O(3),1)+graph(deg=2)", "--trace"), None, 0,
     "17fc4a516843a9668aa1a3fc377ed6776e4c10f6ea68b68c357cd6b7bd66274b"),
    (("chern", "--pair", "P2:H", "--kernel",
      "diag(O,0)+diag(O(1),1)+t(t(diag(O(-2),3)))", "--trace"), None, 0,
     "0e23b01c503bd36bf3f36ee7facad7facb01222e08a74883b83c8d4969a5885d"),
]


@pytest.mark.parametrize("argv,stdin,code,digest", PINNED_STDOUT,
                         ids=[f"argv{i}-{digest}" for i, (*_, digest)
                              in enumerate(PINNED_STDOUT)])
def test_pinned_stdout(argv, stdin, code, digest):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "logfan.cli", *argv],
                          input=None if stdin is None else stdin.encode(),
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == code and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_parse_order():
    assert parse_order("1,2;1,2,3", 3) == [frozenset({0, 1}),
                                           frozenset({0, 1, 2})]
    for bad in ("1,4", "0,1", "-1,2", "1,2;3,4"):
        with pytest.raises(ValueError):
            parse_order(bad, 3)
