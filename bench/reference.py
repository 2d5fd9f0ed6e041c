"""The fixed reference work that sets the benchmark's time scale.

Other tenants of a shared host change how fast this process runs: by up
to 2x for a second at a time, and by about 30% between runs a minute
apart, in CPU time as well as wall time.  A statistic taken inside one
run cannot remove a slowdown that lasts the whole run, so the benchmark
times a fixed reference alongside the operations it measures and reports
every time scaled to a host on which the reference takes `ref_s`:

    scaled = measured * ref_s / (median time of the reference alongside)

Each workload uses the reference whose cost moves with its own:

* WORK, for `products` and `algebra`: pure-Python work of the kinds
  logfan does (exact Fraction elimination, frozenset hashing, dict and
  list churn), about 2 ms;
* LP, for `fancheck`: that work plus two small fixed `scipy.optimize`
  LPs of the shape logfan's face check solves, since scipy's LP code
  follows the host's speed differently from pure Python;
* SPAWN, for `cli`: a child interpreter that runs WORK's work
  CHILD_RUNS times.  Like a logfan child, it pays interpreter start, the
  site import and page faults, then about 50 ms of Python: the in-process
  work alone follows a child's cost poorly.

None shares code with logfan, so a change to logfan cannot move the
scale.  The record of a run keeps the raw pass times and the scale of
each pass.
"""

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable

CHILD_RUNS = 25


def work():
    """Fixed work of about 2 ms; returns a value so that none is skipped."""
    n = 6
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
          for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(n):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    seen = {frozenset((i % 17, i % 13, i % 7)) for i in range(600)}
    d = {}
    for i in range(1200):
        k = (i * 31) % 257
        d[k] = d.get(k, 0) + i
    s = sorted((v % 97, k) for k, v in d.items())
    return rank, len(seen), s[0]


def time_work():
    t0 = perf_counter()
    work()
    return perf_counter() - t0


def lp_work():
    """WORK's work and two LPs for a point of two 3-d cones; about 5 ms."""
    from scipy.optimize import linprog
    a = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    b = ((1, 1, 0), (0, 1, 1), (1, 1, 1))
    a_eq = [[float(r[d]) for r in a] + [-float(r[d]) for r in b]
            for d in range(3)] + [[1.0] * 6]
    res = [linprog(cost, A_eq=a_eq, b_eq=[0.0, 0.0, 0.0, 1.0],
                   bounds=[(0, None)] * 6, method="highs")
           for cost in ([-1.0] * 6, [0.0, -1.0, 0.0, -1.0, 0.0, -1.0])]
    return work(), [r.status for r in res]


def time_lp_work():
    t0 = perf_counter()
    lp_work()
    return perf_counter() - t0


def time_spawn():
    # capture the output: run() then returns when the child closes its
    # pipes, where without pipes it polls for the exit in steps of up to
    # 50 ms
    t0 = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve())],
                   capture_output=True, check=True, timeout=60)
    return perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    name: str
    # the median time of one run on a quiet core of a 2-core x86-64 host
    ref_s: float
    time: Callable[[], float]
    # the share of a pass's time that goes to runs of the reference,
    # interleaved with the ops in proportion to their time
    share: float
    # runs that scale one set-up time
    setup_runs: int

    def scale(self, samples):
        """The factor that takes times measured alongside `samples` (times
        of this reference) to the reference speed."""
        return self.ref_s / statistics.median(samples)


WORK = Reference("work", 0.002, time_work, 0.05, 25)
LP = Reference("lp", 0.005, time_lp_work, 0.05, 10)
SPAWN = Reference("spawn", 0.12, time_spawn, 0.15, 5)


if __name__ == "__main__":
    for _ in range(CHILD_RUNS):
        work()
