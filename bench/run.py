"""logfan benchmark: one closed-loop client over a seeded workload.

    python3 bench/run.py --workload products --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that has `src/logfan`; the package is
imported from there, never from an installed copy.  One client runs one
operation at a time, no threads; `cli` runs one child process at a time.

--trace 0 measures the end-to-end metrics; --trace 1 measures the
per-layer metrics from a traced pass (see bench/README.md).  End-to-end
times are scaled to a fixed host speed with the references of
reference.py.  The last line of standard output is the result object; the
line before it is a record with the run environment and the bases behind
each number.
"""

import argparse
from contextlib import nullcontext
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("products", "fancheck", "algebra", "cli")
SETUP_PROBES = 4
# Each workload runs its slowest op twice per pass; with 6 passes that op
# has at least 11 samples, so `latency_tail_ms` is its latency whatever
# the number of passes.
MIN_PASSES = 6

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_SUBS = ("fan", "logproduct", "cohomology", "hkr", "chern", "euler",
            "verify")
LOG_PRODUCT_N = (2, 3, 4, 5, 6)
HKR_N = (8, 12, 16, 17)

# (metric, unit, how it is read off a Tracer: ("calls"|"busy"|"self",
#  span name) or ("layer", layer), or a key computed in per_layer())
PER_LAYER = (
    [("linalg.matrix_rank.calls", "count", ("calls", "linalg.matrix_rank")),
     ("linalg.solve_nonnegative.calls", "count",
      ("calls", "linalg.solve_nonnegative")),
     ("linalg.minors_gcd.calls", "count", ("calls", "linalg.minors_gcd")),
     ("linalg.self_s", "s", ("layer", "linalg")),
     ("fans.star_subdivide.calls", "count", ("calls", "fans.star_subdivide")),
     ("fans.star_subdivide.self_s", "s", ("self", "fans.star_subdivide")),
     ("fans.induces_fan_map.busy_s", "s", ("busy", "fans.induces_fan_map")),
     ("fans.check_face_closure.busy_s", "s",
      ("busy", "fans.check_face_closure")),
     ("fans.check_face_closure.self_s", "s",
      ("self", "fans.check_face_closure")),
     ("fans.linprog.calls", "count", ("calls", "fans.linprog")),
     ("fans.check_support_preserved.busy_s", "s",
      ("busy", "fans.check_support_preserved")),
     ("fans.is_smooth.busy_s", "s", ("busy", "fans.is_smooth")),
     ("fans.json.busy_s", "s", ("busy", "fans.json")),
     ("fans.self_s", "s", ("layer", "fans")),
     ("logproduct.log_product.calls", "count",
      ("calls", "logproduct.log_product")),
     ("logproduct.log_product.busy_s", "s",
      ("busy", "logproduct.log_product")),
     ("logproduct.log_product.self_s", "s",
      ("self", "logproduct.log_product"))]
    + [(f"logproduct.log_product.p50_ms.n{n}", "ms",
        ("p50", "logproduct.log_product", f"n{n}")) for n in LOG_PRODUCT_N]
    + [("logproduct.rank_checks_per_output_cone", "ratio",
        ("derived", "rank_checks_per_output_cone")),
       ("logproduct.order_independence_check.busy_s", "s",
        ("busy", "logproduct.order_independence_check")),
       ("logproduct.is_valid_order.busy_s", "s",
        ("busy", "logproduct.is_valid_order")),
       ("cohomology.graded_cohomology.busy_s", "s",
        ("busy", "cohomology.graded_cohomology")),
       ("cohomology.euler_characteristic.busy_s", "s",
        ("busy", "cohomology.euler_characteristic")),
       ("cohomology.self_s", "s", ("layer", "cohomology")),
       ("hkr.hkr_homology.busy_s", "s", ("busy", "hkr.hkr_homology")),
       ("hkr.hkr_cohomology.busy_s", "s", ("busy", "hkr.hkr_cohomology")),
       ("hkr.log_wedge.busy_s", "s", ("busy", "hkr.log_wedge")),
       ("hkr.self_s", "s", ("layer", "hkr"))]
    + [(f"hkr.hkr_homology.p50_ms.n{n}", "ms",
        ("p50", "hkr.hkr_homology", f"n{n}")) for n in HKR_N]
    + [("kernels.compose.calls", "count", ("calls", "kernels.compose")),
       ("kernels.compose.busy_s", "s", ("busy", "kernels.compose")),
       ("kernels.right_adjoint.busy_s", "s",
        ("busy", "kernels.right_adjoint")),
       ("kernels.left_adjoint.busy_s", "s", ("busy", "kernels.left_adjoint")),
       ("kernels.euler_pairing.busy_s", "s",
        ("busy", "kernels.euler_pairing")),
       ("kernels.hh_action.busy_s", "s", ("busy", "kernels.hh_action")),
       ("kernels.parse_kernel.busy_s", "s", ("busy", "kernels.parse_kernel")),
       ("kernels.format_kernel.busy_s", "s",
        ("busy", "kernels.format_kernel")),
       ("kernels.self_s", "s", ("layer", "kernels")),
       ("kernels.hkr_calls_per_hh_action", "ratio",
        ("derived", "hkr_calls_per_hh_action")),
       ("verify.verify_suite.busy_s", "s", ("busy", "verify.verify_suite")),
       ("cli.import_ms", "ms", ("derived", "cli.import_ms")),
       ("cli.startup_ms", "ms", ("derived", "cli.startup_ms"))]
    + [(f"cli.main.{sub}.ms", "ms", ("derived", f"cli.main.{sub}.ms"))
       for sub in CLI_SUBS]
    + [("cli.spawn_floor_ms", "ms", ("derived", "cli.spawn_floor_ms")),
       ("trace.throughput_ratio", "ratio",
        ("derived", "trace.throughput_ratio"))]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few ops per pass, for smoke tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    return ap.parse_args(argv)


def tail_percentile(samples):
    """(value, percentile, samples beyond): the highest percentile, to a
    tenth of a percent, that leaves at least ten samples above it
    (nearest-rank).  With ten samples or fewer it falls back to p50."""
    s = sorted(samples)
    n = len(s)
    p = int(1000 * (n - 10) / n) / 10 if n > 10 else 50.0
    rank = max(1, -(-int(round(p * 10)) * n // 1000))
    return s[rank - 1], p, n - rank


def run_op(op, span=nullcontext):
    """Run one op inside `span()`, then its oracle: (ok, seconds).  A raise
    or a wrong answer is a failure; nothing is retried or dropped."""
    t0 = perf_counter()
    try:
        with span():
            result = op.run()
    except Exception as exc:  # a failed op is counted, never retried
        dt = perf_counter() - t0
        print(f"op {op.kind} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return False, dt
    dt = perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception as exc:  # an oracle that cannot read the output
        print(f"op {op.kind} oracle raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        ok = False
    if not ok:
        print(f"op {op.kind} disagrees with its oracle", file=sys.stderr)
    return ok, dt


def closed_loop(ops, seconds, min_passes=MIN_PASSES, ref=reference.WORK):
    """Run whole passes over `ops` until `seconds` have elapsed and at
    least `min_passes` passes ran.  The reference `ref` runs at the start
    of each pass, and after an op as often as it takes to keep its share
    of the pass at `ref.share`.  Returns (passes, refs, failed) with
    passes[j][i] the latency of op i in pass j and refs[j] the reference
    times of pass j."""
    passes, refs, failed = [], [], 0
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        row, ref_row = [], [ref.time()]
        op_s, ref_s = 0.0, ref_row[0]
        for op in ops:
            ok, dt = run_op(op)
            row.append(dt)
            failed += not ok
            op_s += dt
            while ref_s < ref.share * op_s:
                ref_row.append(ref.time())
                ref_s += ref_row[-1]
        passes.append(row)
        refs.append(ref_row)
    return passes, refs, failed


def op_latencies(ops, passes, scales=None):
    """Latency of each op of the mix: the median of its runs, each times
    the scale of its pass (see reference.py) when `scales` is given, else
    as measured.  An op that appears twice in a pass has twice the runs."""
    runs = {}
    for j, row in enumerate(passes):
        k = scales[j] if scales else 1.0
        for op, dt in zip(ops, row):
            runs.setdefault(id(op), []).append(dt * k)
    return [statistics.median(runs[id(op)]) for op in ops]


def scaled_setup(setup_s, ref):
    """The set-up time at the speed of reference `ref`.  The first run of
    the reference, which pays its own lazy imports, is left out."""
    return setup_s * ref.scale(
        [ref.time() for _ in range(ref.setup_runs + 1)][1:])


def environment(args):
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or "unknown"
        except OSError:
            pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "scipy": scipy_version,
            "git_revision": rev, "nproc": os.cpu_count(),
            "machine": platform.machine(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "size": args.size}


def setup_probes(args):
    """Set-up times of fresh interpreters, each importing logfan and
    building the inputs exactly as this process did, at the reference
    speed."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--size", args.size,
             "--setup-probe"], capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def measure(args, wl, setup_s):
    ref = wl.ref
    passes, refs, failed = closed_loop(wl.ops, args.seconds, ref=ref)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else \
        resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = [setup_s] + setup_probes(args)
    scales = [ref.scale(r) for r in refs]
    lat = op_latencies(wl.ops, passes, scales)
    attempted = len(lat) * len(passes)
    # every attempted op stands for its op's latency
    tail, p, beyond = tail_percentile(lat * len(passes))
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    by_kind = {}
    for op, m in zip(wl.ops, lat):
        by_kind.setdefault(op.kind, []).append(m)
    record = {
        "fail_ratio": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted},
        "latency_tail": {"percentile": p, "samples": attempted,
                         "beyond": beyond},
        "setup_samples_s": setups,
        "passes": len(passes),
        "pass_s": [sum(row) for row in passes],
        "reference": {
            "name": ref.name, "ref_s": ref.ref_s,
            "samples": sum(len(r) for r in refs),
            "median_s": statistics.median(t for r in refs for t in r),
            "scale_by_pass": scales},
        "p50_ms_by_kind": {k: statistics.median(v) * 1000
                           for k, v in sorted(by_kind.items())},
    }
    units = dict(END_TO_END)
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            record, attempted, failed)


def traced_pass(tracer, ops):
    """One pass with every op inside a root span: (op wall s, failed)."""
    with tracer.installed():
        failed = sum(not run_op(op, tracer.span)[0] for op in ops)
    return tracer.root_wall(), failed


def cli_layers(wl, inproc_by_op):
    """Subprocess-side cli numbers: spawn floor, import time, and start-up
    cost per op (child wall minus in-process time of the same argv).
    Returns (metrics, failed ops of the child pass)."""
    import workloads

    def wall(cmd):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=workloads.CLI_ENV, timeout=150)
        return perf_counter() - t0, proc

    floors = [wall([sys.executable, "-c", "pass"])[0] * 1000
              for _ in range(7)]
    imports = []
    for _ in range(5):
        _, proc = wall([sys.executable, "-X", "importtime", "-c",
                        "import logfan"])
        for line in proc.stderr.splitlines():
            parts = [x.strip() for x in line.split("|")]
            if len(parts) == 3 and parts[2] == "logfan":
                imports.append(int(parts[1]) / 1000)
    startup, failed = [], 0
    for op, inproc_s in zip(wl.ops, inproc_by_op):
        ok, dt = run_op(op)
        failed += not ok
        startup.append((dt - inproc_s) * 1000)
    return {"cli.spawn_floor_ms": statistics.median(floors),
            "cli.import_ms": statistics.median(imports) if imports else 0.0,
            "cli.startup_ms": statistics.median(startup)}, failed


def per_layer(tracer, derived):
    out = {}
    for name, unit, how in PER_LAYER:
        kind = how[0]
        if kind == "calls":
            value = tracer.calls.get(how[1], 0)
        elif kind == "busy":
            value = tracer.busy.get(how[1], 0.0)
        elif kind == "self":
            value = tracer.self_time.get(how[1], 0.0)
        elif kind == "layer":
            value = tracer.layer_self().get(how[1], 0.0)
        elif kind == "p50":
            durs = tracer.tag_durations.get((how[1], how[2]))
            value = statistics.median(durs) * 1000 if durs else 0.0
        else:
            value = derived.get(how[1], 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def measure_traced(args, wl):
    import tracer as tr
    ops = wl.inproc_ops if wl.name == "cli" else wl.ops
    # one untimed pass first, so lazy imports in this process are paid
    failed = sum(not run_op(op)[0] for op in ops)
    # as measured: the traced pass it is compared with is not scaled
    passes, _, loop_failed = closed_loop(ops, args.seconds / 2)
    lat = op_latencies(ops, passes)
    untraced = len(lat) / sum(lat)
    tracer = tr.Tracer()
    wall, traced_failed = traced_pass(tracer, ops)
    failed += loop_failed + traced_failed
    attempted = len(ops) * (len(passes) + 2)
    derived = {
        "trace.throughput_ratio": (len(ops) / wall) / untraced,
        "rank_checks_per_output_cone": _ratio(
            tracer.nested[("logproduct.log_product", "linalg.matrix_rank")],
            tracer.result_counts.get("logproduct.log_product", 0)),
        "hkr_calls_per_hh_action": _ratio(
            tracer.nested[("kernels.hh_action", "hkr.hkr_homology")],
            tracer.calls.get("kernels.hh_action", 0)),
    }
    if wl.name == "cli":
        for sub in CLI_SUBS:
            times = [t for op, t in zip(ops, lat) if op.kind == sub]
            derived[f"cli.main.{sub}.ms"] = (statistics.median(times) * 1000
                                             if times else 0.0)
        child, child_failed = cli_layers(wl, lat)
        derived.update(child)
        failed += child_failed
        attempted += len(wl.ops)
    layer_self = tracer.layer_self()
    record = {
        "fail_ratio": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted},
        "traced_ops": len(ops), "spans": len(tracer.span_start),
        "spans_dropped": tracer.dropped,
        "traced_op_wall_s": wall,
        "untraced_op_wall_s": sum(lat),
        "layer_self_s": dict(sorted(layer_self.items())),
        "untraced_throughput_ops_s": untraced,
    }
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{wl.name}-seed{args.seed}.tsv"
    tracer.write(spans)
    record["spans_file"] = str(spans.relative_to(ROOT))
    return per_layer(tracer, derived), record, attempted, failed


def _ratio(num, den):
    return num / den if den else 0.0


def pin_to_one_cpu():
    """Run this process, and the children it starts, on one of its CPUs,
    so that the reference work runs where the timed work runs: on a
    shared host the CPUs are slowed by different amounts."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "logfan" / "__init__.py").is_file():
        print(f"error: no logfan package under {SRC}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import logfan
    import workloads
    if Path(logfan.__file__).resolve().parent != SRC / "logfan":
        print(f"error: logfan imported from {logfan.__file__}",
              file=sys.stderr)
        return 2
    wl = workloads.BY_NAME[args.workload](args.seed, args.size == "tiny")
    wl.warmup()
    setup_raw_s = perf_counter() - t0
    setup_s = scaled_setup(setup_raw_s, wl.ref)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw_s}))
        return 0
    if args.trace:
        metrics, record, attempted, failed = measure_traced(args, wl)
    else:
        metrics, record, attempted, failed = measure(args, wl, setup_s)
    record["env"] = environment(args)
    print(f"{args.workload} seed {args.seed}: {attempted} ops, "
          f"{failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
