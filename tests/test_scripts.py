"""Smoke runs of the scripts under ``scripts/``, which reach into the solver's
private helpers and so break silently when those change."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("extra", [[], ["--low-soc"]], ids=["default", "low-soc"])
def test_mpc_rate_scan_runs(extra):
    # every draw comes back with the status the scan expects: the script prints
    # a "draw j: ..." line for each one that does not
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "mpc_rate_scan.py"),
                          "--count", "20", *extra], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert not [line for line in lines if line.startswith("draw ")]
    assert lines[0] == "status counts: " + str(
        {"infeasible-clipped" if extra else "solved": 20})
