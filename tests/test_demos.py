"""The demos run to completion as scripts, and print nothing to stderr (a
warning there is a defect the exit code does not show).

Demo 04 runs two full sweeps with their references (about 4 s) and is left
to the sweep tests in test_bench.py and test_cli.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_lq_pipeline", "02_time_dependent_coefficients",
         "03_pollution_game", "05_zero_sum_game")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
