"""The benchmark's call sites into logfan: every op of the tiny workloads
(bench/workloads.py: `products`, `fancheck`, `algebra` and `cli`), built
for seed 0, passes its own oracle check once.

The bench is imported, not run: its oracles never call logfan, so a
library change that breaks a call site, or a result the bench relies on,
fails here.
"""

from pathlib import Path
import sys

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name",
                         ["products", "fancheck", "algebra", "cli"])
def test_every_op_passes_its_oracle(name):
    ops = workloads.BY_NAME[name](0, tiny=True).ops
    assert ops
    failed = [op.kind for op in ops if not op.check(op.run())]
    assert failed == []
