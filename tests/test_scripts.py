"""Smoke runs of the scripts under ``scripts/``, which reach into the solver's
private helpers and so break silently when those change, and the file digests
of ``scripts/digests.py``, pinned."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from feederdispatch.forecast import save_history, synthesize_history

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


def test_history_and_plans_digests_are_pinned(tmp_path):
    # the synthetic history file and the 14 plans made from it stay bit for bit
    # the same; the closed-loop digests take about 45 s and are run by hand
    spec = importlib.util.spec_from_file_location("digests", ROOT / "scripts" / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    history = tmp_path / "history.csv"
    save_history(history, synthesize_history(1, 365))
    assert digests.sha(history.read_bytes())[:16] == "b43096014999ff0e"
    assert digests.plans_digest(tmp_path, history, [])[:16] == "4500e530cd473ebd"
