"""Every demo script runs to completion with warnings turned into errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
