"""End-to-end command-line tests (subprocess, real files, exit codes)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ktseg import FeatureSequence, Segmentation, SynthConfig, cli, generate, sampling
from ktseg.io import write_features, write_segmentation

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


@pytest.mark.parametrize("command", ["segment", "oracle-check"])
def test_kernel_overflow_is_a_one_line_error(tmp_path, command):
    path = tmp_path / "huge.csv"
    write_features(FeatureSequence(values=np.random.default_rng(5).standard_normal((14, 4)) * 1e200), path)
    out = ["--out", tmp_path / "x.json"] if command == "segment" else []
    res = run_cli(command, "--features", path, "--m", 2, *out)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow" in lines[0]


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


@pytest.mark.parametrize(
    "command",
    [
        ("segment", "--features", "{csv}", "--m", 2, "--out", "{out}"),
        ("plan", "--segmentation", "{json}", "--k", 2, "--duration", 4.0, "--fps", 30,
         "--rate", 1, "--out", "{out}"),
        ("eval", "--pred", "{json}", "--truth", "{json}"),
    ],
    ids=["segment", "plan", "eval"],
)
def test_non_utf8_input_is_a_one_line_error(tmp_path, command):
    paths = {"csv": tmp_path / "renamed.csv", "json": tmp_path / "doc.json", "out": tmp_path / "o"}
    paths["csv"].write_bytes(b"KTSF\x01\x00\x00\x00\xff\xfe\x00\x00")
    paths["json"].write_bytes(b'{"schema": "\xff"}\n')
    res = run_cli(*(str(arg).format(**paths) for arg in command))
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not UTF-8" in lines[0]
    assert str(tmp_path) in lines[0]


# Runs one CLI command in a fresh interpreter and reports whether numpy was
# imported after ``import ktseg.cli`` and after the command (the lazily
# installed module has no submodules until numpy really loads).
NUMPY_PROBE = """
import sys
from ktseg import cli
def numpy_loaded():
    return any(name.startswith("numpy.") for name in sys.modules)
after_import = numpy_loaded()
code = cli.main(sys.argv[1:])
print(after_import, code, numpy_loaded())
"""


def probe_numpy(*args):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *map(str, args)], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def test_numpy_loads_only_where_features_are_touched(tmp_path):
    features = generate(
        SynthConfig(n=60, d=4, segment_count=3, mean_separation=2.0, noise_sigma=0.3, seed=5)
    ).features
    write_features(features, tmp_path / "feats.csv")
    seg_lazy, seg_eager = tmp_path / "lazy.json", tmp_path / "eager.json"
    segment = ("segment", "--features", tmp_path / "feats.csv", "--auto", "--max-segments", 6)
    assert probe_numpy(*segment, "--out", seg_lazy) == "False 0 True"
    assert cli.main([*map(str, segment), "--out", str(seg_eager)]) == 0  # numpy already loaded
    assert seg_lazy.read_bytes() == seg_eager.read_bytes()
    plan = ("plan", "--segmentation", seg_lazy, "--k", 2, "--duration", 60, "--fps", 25,
            "--rate", 1, "--out", tmp_path / "plan.json")
    assert probe_numpy(*plan) == "False 0 False"
    assert probe_numpy("eval", "--pred", seg_lazy, "--truth", seg_eager) == "False 0 False"


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


def test_plan_count_mismatch_builds_no_timeline(tmp_path, monkeypatch, capsys):
    seg_path = tmp_path / "seg.json"
    write_segmentation(Segmentation(n=100, m=2, change_points=(50,), objective=0.0), seg_path)

    def whole_timeline(*args):
        raise AssertionError("plan placed every candidate of the timeline")

    monkeypatch.setattr(sampling, "candidate_timestamps", whole_timeline)
    argv = ["plan", "--segmentation", str(seg_path), "--k", "4", "--duration", "1000000",
            "--fps", "30", "--rate", "1", "--out", str(tmp_path / "p.json")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "covers 100 candidates" in err[0] and "yields 1000000" in err[0]
    argv[argv.index("1000000")] = "100"
    assert cli.main(argv) == 0


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


def test_sweep_honours_candidate_cap_env(tmp_path):
    args = ("sweep", "--seeds", 1, "--n", 12, "--d", 2, "--segments", 2,
            "--separation", 1.0, "--sigma", 0.1, "--out", tmp_path / "s.csv")
    res = run_cli(*args, env_extra={"KTS_MAX_CANDIDATES": "10"})
    assert res.returncode == 1
    assert res.stderr.splitlines() == [res.stderr.strip()] and "cap of 10" in res.stderr
    assert run_cli(*args, env_extra={"KTS_MAX_CANDIDATES": "12"}).returncode == 0


def test_sweep_deterministic(tmp_path):
    args = (
        "sweep", "--seeds", 2, "--n", 24, "--d", 3, "--segments", 3,
        "--separation", 1.0, "--sigma", 0.1, "--out",
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, out1).returncode == 0
    assert run_cli(*args, out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
