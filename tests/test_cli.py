"""End-to-end command-line tests (subprocess, real files, exit codes)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ktseg import FeatureSequence, SynthConfig, cli, generate
from ktseg.io import write_features

SRC = str(Path(__file__).resolve().parents[1] / "src")

BLOCKS_CSV = "1,0\n1,0\n0,1\n0,1\n"


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ktseg", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def blocks_csv(tmp_path):
    path = tmp_path / "blocks.csv"
    path.write_text(BLOCKS_CSV)
    return path


# ---------------------------------------------------------------------------
# segment


def test_segment_fixed(blocks_csv, tmp_path):
    out = tmp_path / "seg.json"
    res = run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", out)
    assert res.returncode == 0, res.stderr
    assert "m=2" in res.stdout and "[2]" in res.stdout
    doc = json.loads(out.read_text())
    assert doc["changePoints"] == [2]
    assert doc["objective"] == 0.0
    assert doc["kernel"] == "dot"


def test_segment_auto(blocks_csv, tmp_path):
    out = tmp_path / "seg.json"
    res = run_cli(
        "segment", "--features", blocks_csv, "--auto", "--max-segments", 4,
        "--penalty-weight", 1.0, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["m"] == 2 and doc["changePoints"] == [2]
    assert doc["penalty"] == pytest.approx(0.810930216, abs=1e-9)


def test_segment_auto_max_segments_above_n(blocks_csv, tmp_path):
    out = tmp_path / "seg.json"
    res = run_cli("segment", "--features", blocks_csv, "--auto", "--max-segments", 9, "--out", out)
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["m"] == 2 and doc["changePoints"] == [2]


def test_segment_mode_conflict(blocks_csv, tmp_path):
    res = run_cli(
        "segment", "--features", blocks_csv, "--m", 2, "--auto",
        "--max-segments", 4, "--out", tmp_path / "x.json",
    )
    assert res.returncode == 2


def test_segment_requires_a_mode(blocks_csv, tmp_path):
    res = run_cli("segment", "--features", blocks_csv, "--out", tmp_path / "x.json")
    assert res.returncode == 2


def test_segment_missing_file(tmp_path):
    res = run_cli("segment", "--features", tmp_path / "nope.csv", "--m", 2,
                  "--out", tmp_path / "x.json")
    assert res.returncode == 1
    assert "error" in res.stderr


def test_segment_infeasible_m_is_data_error(blocks_csv, tmp_path):
    res = run_cli("segment", "--features", blocks_csv, "--m", 9, "--out", tmp_path / "x.json")
    assert res.returncode == 1


def test_segment_candidate_cap_env(blocks_csv, tmp_path):
    res = run_cli(
        "segment", "--features", blocks_csv, "--m", 2, "--out", tmp_path / "x.json",
        env_extra={"KTS_MAX_CANDIDATES": "2"},
    )
    assert res.returncode == 1
    assert "cap" in res.stderr


def test_segment_precision_loss_is_a_one_line_error(tmp_path):
    instance = generate(SynthConfig(n=200, d=16, segment_count=8, mean_separation=0.15,
                                    noise_sigma=0.03, seed=0, min_segment_length=12))
    path = tmp_path / "scaled.csv"
    write_features(FeatureSequence(values=instance.features.values * 1e4), path)
    res = run_cli("segment", "--features", path, "--m", 8, "--out", tmp_path / "x.json")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "precision" in lines[0]


def test_memory_exhaustion_is_a_one_line_error(blocks_csv, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "stream_scatter", exhausted)
    argv = ["segment", "--features", str(blocks_csv), "--m", "2", "--out", str(tmp_path / "x.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory in segment"]


def test_segment_kernel_flag(blocks_csv, tmp_path):
    out = tmp_path / "seg.json"
    res = run_cli("segment", "--features", blocks_csv, "--m", 2, "--kernel", "cosine", "--out", out)
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["kernel"] == "cosine"
    bad = run_cli("segment", "--features", blocks_csv, "--m", 2, "--kernel", "poly", "--out", out)
    assert bad.returncode == 2


def test_segment_deterministic_output(blocks_csv, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", out1).returncode == 0
    assert run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# plan


def test_plan_pipeline(blocks_csv, tmp_path):
    seg_path = tmp_path / "seg.json"
    assert run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", seg_path).returncode == 0
    plan_path = tmp_path / "plan.json"
    res = run_cli(
        "plan", "--segmentation", seg_path, "--k", 2,
        "--duration", 4.0, "--fps", 30, "--rate", 1, "--out", plan_path,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(plan_path.read_text())
    frames = [f for seg in doc["segments"] for f in seg["sourceFrames"]]
    assert frames == [0, 30, 60, 90]


def test_plan_rejects_k_zero(blocks_csv, tmp_path):
    seg_path = tmp_path / "seg.json"
    run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", seg_path)
    res = run_cli(
        "plan", "--segmentation", seg_path, "--k", 0,
        "--duration", 4.0, "--fps", 30, "--rate", 1, "--out", tmp_path / "p.json",
    )
    assert res.returncode == 2


def test_plan_candidate_mismatch(blocks_csv, tmp_path):
    seg_path = tmp_path / "seg.json"
    run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", seg_path)
    res = run_cli(
        "plan", "--segmentation", seg_path, "--k", 2,
        "--duration", 5.0, "--fps", 30, "--rate", 1, "--out", tmp_path / "p.json",
    )
    assert res.returncode == 1
    assert "4" in res.stderr and "5" in res.stderr


# ---------------------------------------------------------------------------
# synth / eval / oracle-check / sweep


def synth_args(tmp_path, seed=3):
    return (
        "synth", "--n", 30, "--d", 3, "--segments", 3, "--separation", 2.0,
        "--sigma", 0.1, "--seed", seed,
        "--features-out", tmp_path / "feats.csv", "--truth-out", tmp_path / "truth.json",
    )


def test_synth_writes_instance(tmp_path):
    res = run_cli(*synth_args(tmp_path))
    assert res.returncode == 0, res.stderr
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["schema"] == "kts-truth/1"
    assert truth["n"] == 30 and truth["seed"] == 3
    assert len(truth["changePoints"]) == 2
    rows = (tmp_path / "feats.csv").read_text().strip().splitlines()
    assert len(rows) == 30


def test_synth_deterministic_bytes(tmp_path):
    run_cli(*synth_args(tmp_path))
    first = ((tmp_path / "feats.csv").read_bytes(), (tmp_path / "truth.json").read_bytes())
    run_cli(*synth_args(tmp_path))
    second = ((tmp_path / "feats.csv").read_bytes(), (tmp_path / "truth.json").read_bytes())
    assert first == second


def test_eval_perfect_prediction(tmp_path):
    run_cli(*synth_args(tmp_path))
    res = run_cli(
        "eval", "--pred", tmp_path / "truth.json", "--truth", tmp_path / "truth.json",
        "--tolerance", 2,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["f1"] == 1.0 and doc["precision"] == 1.0


def test_eval_accepts_segmentation_documents(blocks_csv, tmp_path):
    seg_path = tmp_path / "seg.json"
    run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", seg_path)
    res = run_cli("eval", "--pred", seg_path, "--truth", seg_path, "--tolerance", 0)
    assert res.returncode == 0
    assert json.loads(res.stdout)["f1"] == 1.0


def test_oracle_check_match(blocks_csv):
    res = run_cli("oracle-check", "--features", blocks_csv, "--m", 2)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("MATCH")


def test_oracle_check_constant_features_take_leftmost(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("3,3\n" * 7)
    res = run_cli("oracle-check", "--features", path, "--m", 3)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "MATCH m=3 changePoints=[1, 2] objective=0\n"


def test_sweep_dominance(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_cli(
        "sweep", "--seeds", 3, "--n", 48, "--d", 4, "--segments", 4,
        "--separation", 1.0, "--sigma", 0.05, "--min-seg-len", 4,
        "--tolerance", 2, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed,m,ktsObjective,uniformObjective,ktsF1,uniformF1"
    grid = {48, 24, 16, 12, 8}
    assert len(lines) == 1 + 3 * len(grid)
    for line in lines[1:]:
        seed, m, kts_obj, uni_obj, kts_f1, uni_f1 = line.split(",")
        assert int(m) in grid
        assert float(kts_obj) <= float(uni_obj)
        assert 0.0 <= float(kts_f1) <= 1.0


def test_sweep_deterministic(tmp_path):
    args = (
        "sweep", "--seeds", 2, "--n", 24, "--d", 3, "--segments", 3,
        "--separation", 1.0, "--sigma", 0.1, "--out",
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, out1).returncode == 0
    assert run_cli(*args, out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
