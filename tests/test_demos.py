"""Every demo script, and README's library quickstart, runs to completion with warnings turned into errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_clean(args, cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONWARNINGS"] = "error"  # the script and any process it starts
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    res = run_clean([str(demo)], tmp_path)
    assert res.returncode == 0, res.stderr


def test_readme_library_quickstart_runs_clean(tmp_path):
    # The snippet's 214-s timeline at one candidate per second holds n = 214 candidates.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    np.save(tmp_path / "frame_features.npy", np.random.default_rng(0).standard_normal((214, 16)))
    res = run_clean(["-c", snippet], tmp_path)
    assert res.returncode == 0, res.stderr
