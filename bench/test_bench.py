"""The benchmark's own tests: smoke runs, a harness negative control, the
tracer's accounting, and agreement with BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload):
    res, record = result_of(bench("--workload", workload, "--seed", "3",
                                  "--seconds", "0.2", "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert record["latency_tail"]["samples"] == res["attempted"]
    for key in ("python", "scipy", "git_revision", "nproc", "seed"):
        assert key in record["env"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    res, record = result_of(bench("--workload", workload, "--seed", "3",
                                  "--seconds", "0.2", "--size", "tiny",
                                  "--trace", "1"))
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    assert (ROOT / record["spans_file"]).is_file()
    # layer self times add up to the traced op wall time, which is the
    # untraced op wall time divided by the reported throughput ratio
    traced = record["traced_op_wall_s"]
    assert sum(record["layer_self_s"].values()) == pytest.approx(traced)
    ratio = res["metrics"]["trace.throughput_ratio"]["value"]
    assert traced == pytest.approx(record["untraced_op_wall_s"] / ratio)


def test_same_seed_same_inputs():
    a = workloads.build_products(7, tiny=True)
    b = workloads.build_products(7, tiny=True)
    assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
    assert [op.run()[0] for op in a.ops] == [op.run()[0] for op in b.ops]


def test_wrong_oracle_counts_as_failure(monkeypatch):
    """Harness negative control: with a deliberately wrong oracle the
    loop must report failures instead of passing or dropping them."""
    monkeypatch.setattr(oracles, "hkr_cohomology_pn",
                        lambda n: {0: 1, 1: n})
    wl = workloads.build_algebra(5, tiny=True)
    passes, refs, failed = run.closed_loop(wl.ops, 0.0, min_passes=1)
    assert len(passes) == 1 and len(passes[0]) == len(wl.ops)
    assert len(refs) == 1 and refs[0]
    assert failed > 0 and failed / len(wl.ops) > 0


def test_raising_op_counts_as_failure():
    def boom():
        raise ValueError("deliberate")

    ops = [workloads.Op("boom", boom, lambda res: True)]
    passes, _, failed = run.closed_loop(ops, 0.0, min_passes=1)
    assert (len(passes), failed) == (1, 1)


def test_self_times_add_up_to_op_wall():
    """Layer self times partition the traced op wall time, and most of it
    is spent in logfan layers rather than in the harness."""
    wl = workloads.build_products(2, tiny=True)
    tracer = tr.Tracer()
    wall, failed = run.traced_pass(tracer, wl.ops)
    assert failed == 0
    layers = tracer.layer_self()
    assert sum(layers.values()) == pytest.approx(wall, rel=1e-9)
    assert wall - layers.get("bench", 0.0) > 0.5 * wall
    assert tracer.calls["bench.op"] == len(wl.ops)


def test_span_cap_keeps_totals(monkeypatch):
    monkeypatch.setattr(tr, "MAX_SPANS", 5)
    tracer = tr.Tracer()
    run.traced_pass(tracer, workloads.build_products(2, tiny=True).ops)
    assert len(tracer.span_start) == 5 and tracer.dropped > 0
    assert sum(tracer.calls.values()) == 5 + tracer.dropped


def test_tracer_restores_bindings():
    import logfan.fans as fans
    import logfan.kernels as kern
    import logfan.logproduct as lp
    import scipy.optimize
    before = (fans.matrix_rank, kern.hkr_homology, fans.fan_loads,
              scipy.optimize.linprog)
    tracer = tr.Tracer()
    with tracer.installed():
        assert fans.matrix_rank is not before[0]
        assert kern.hkr_homology is not before[1]
        kern.chern_log(kern.diag_kernel(lp.LogPair("P1:pt")))
    after = (fans.matrix_rank, kern.hkr_homology, fans.fan_loads,
             scipy.optimize.linprog)
    assert after == before
    assert tracer.calls["kernels.hh_action"] == 1
    assert tracer.nested[("kernels.hh_action", "hkr.hkr_homology")] == 2


def test_latencies_at_reference_speed():
    """A pass whose reference work ran twice as slow counts its op times
    at half: the scale removes a slowdown shared by ops and reference."""
    ops = [workloads.Op("a", None, None), workloads.Op("b", None, None)]
    ref = reference.WORK
    slow = 2 * ref.ref_s
    scales = [ref.scale(r) for r in ([ref.ref_s], [slow, slow, ref.ref_s],
                                     [ref.ref_s])]
    lat = run.op_latencies(ops, [[0.010, 0.020], [0.020, 0.040],
                                 [0.010, 0.020]], scales)
    assert lat == pytest.approx([0.010, 0.020])
    assert run.op_latencies(ops, [[1, 4], [3, 2], [2, 3]]) == [2, 3]


def test_tail_percentile_leaves_ten_samples():
    for n in (11, 12, 52, 175, 1028, 5000):
        samples = list(range(n))
        value, p, beyond = run.tail_percentile(samples)
        assert beyond >= 10
        assert sum(1 for s in samples if s > value) == beyond
        assert p < 100


def test_closed_form_matches_known_counts():
    assert len(oracles.log_product_cones(("A",) * 4)) == 24
    assert len(oracles.log_product_cones(("P1", "P1"))) == 5
    assert oracles.hkr_cohomology_pn(1) == {0: 1, 1: 2}


def test_benchmark_json_matches_code():
    data = spec()
    assert data["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in data["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in data["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in data["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "products", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
