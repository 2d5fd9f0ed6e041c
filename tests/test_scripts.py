"""Smoke test: each script in scripts/ runs from a source checkout with
PYTHONPATH=src and prints a line it is known to print."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parents[1]
KNOWN_LINE = {
    "build_fig1_fan.py": "maximal cones (6):",
    "euler_pairing_trace.py": "euler pairing = 0",
    "hkr_tables.py": " C2:pt   -1:2  0:1  1:2",
}


def test_every_script_has_a_known_line():
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
    assert scripts == sorted(KNOWN_LINE)


@pytest.mark.parametrize("name", sorted(KNOWN_LINE))
def test_script_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert KNOWN_LINE[name] in proc.stdout.splitlines()
