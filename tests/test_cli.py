"""End-to-end command-line tests (subprocess, real files, exit codes)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ktseg import (
    FeatureSequence,
    Segmentation,
    SynthConfig,
    cli,
    compute_gram,
    generate,
    io,
    placement_objective,
    sampling,
    segmentation,
    solve_auto,
    solve_range,
    uniform_change_points,
)
from ktseg.io import GroundTruth, write_features, write_segmentation, write_truth

SRC = str(Path(__file__).resolve().parents[1] / "src")

BLOCKS_CSV = "1,0\n1,0\n0,1\n0,1\n"


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONWARNINGS"] = "error"  # as pyproject's filterwarnings does in-process
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


@pytest.mark.parametrize("kernel", ["cosine", "rbf:0.7"])
def test_segment_writes_what_a_library_write_of_its_solve_writes(blocks_csv, tmp_path, kernel):
    # The kernel's tag comes with the solve, so the library needs no kernel argument to record it.
    out, want = tmp_path / "seg.json", tmp_path / "want.json"
    assert cli.main(["segment", "--features", str(blocks_csv), "--kernel", kernel, "--m", "2", "--out", str(out)]) == 0
    gram = compute_gram(io.read_features(blocks_csv), segmentation.KernelSpec.from_tag(kernel))
    write_segmentation(segmentation.solve_fixed(gram, 2), want)
    assert out.read_bytes() == want.read_bytes()
    assert json.loads(out.read_text())["kernel"] == kernel


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


@pytest.mark.parametrize(
    "config, weight",
    [
        (SynthConfig(n=50, d=4, segment_count=3, mean_separation=2.0, noise_sigma=0.1, seed=1), "1.7e308"),
        (SynthConfig(n=3, d=1, segment_count=1, mean_separation=0.0, noise_sigma=1.0, seed=5), "1e308"),
    ],
    ids=["50x4", "3x1"],
)
def test_segment_auto_penalty_past_float64_warns_nothing(tmp_path, config, weight):
    # Penalties of the larger counts overflow to inf; the run must neither warn nor change its answer.
    features, out, want = tmp_path / "f.csv", tmp_path / "seg.json", tmp_path / "want.json"
    write_features(generate(config).features, features)
    res = run_cli("segment", "--features", features, "--auto", "--max-segments", config.n,
                  "--penalty-weight", weight, "--out", out)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    seg = solve_auto(compute_gram(io.read_features(features)), config.n, float(weight))
    write_segmentation(seg, want)
    assert out.read_bytes() == want.read_bytes()


def test_segment_writes_any_name_the_file_system_accepts(blocks_csv, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / ("p" * (os.pathconf(out_dir, "PC_NAME_MAX") - 15) + ".json")  # 245 bytes at 255
    res = run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", out)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    assert json.loads(out.read_text())["changePoints"] == [2]
    assert list(out_dir.iterdir()) == [out]


def test_segment_auto_requires_max_segments(tmp_path, capsys):
    argv = ["segment", "--features", str(tmp_path / "nope.csv"), "--auto", "--out", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as exit_:  # refused before the (missing) features are read
        cli.main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err.splitlines()  # the subcommand's usage, however it wraps, and its error
    assert err[0].startswith("usage: ktseg segment [-h] --features FEATURES ")
    assert err[-1] == "ktseg segment: error: --auto requires --max-segments"
    assert list(tmp_path.iterdir()) == []


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
    assert res.stderr.splitlines() == [f"error: cannot read {tmp_path / 'nope.csv'}: No such file or directory"]


@pytest.mark.parametrize(
    "command",
    [
        ("segment", "--features", "{input}.csv", "--m", 2, "--out", "{out}"),
        ("segment", "--features", "{input}.ktsf", "--m", 2, "--out", "{out}"),
        ("plan", "--segmentation", "{input}.json", "--k", 2, "--duration", 4.0, "--fps", 30,
         "--rate", 1, "--out", "{out}"),
        ("eval", "--pred", "{input}.json", "--truth", "{input}.json"),
    ],
    ids=["segment-csv", "segment-ktsf", "plan", "eval"],
)
@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"), ("dir", "Is a directory")])
def test_unreadable_input_is_worded_like_a_failed_write(tmp_path, command, kind, reason):
    argv = [str(arg).format(input=tmp_path / kind, out=tmp_path / "out.json") for arg in command]
    if kind == "dir":
        Path(argv[2]).mkdir()
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stderr.splitlines() == [f"error: cannot read {argv[2]}: {reason}"]
    assert not (tmp_path / "out.json").exists()


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


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize(
    "command",
    [
        ("segment", "--features", "{missing}", "--m", 2, "--out", "{out}"),
        ("oracle-check", "--features", "{missing}", "--m", 2),
        ("sweep", "--n", 10, "--d", 2, "--segments", 2, "--separation", 1, "--sigma", 0.1, "--out", "{out}"),
    ],
    ids=["segment", "oracle-check", "sweep"],
)
def test_candidate_cap_env_is_checked_before_the_features_are_read(tmp_path, command, value):
    out = tmp_path / "x.json"
    argv = [str(arg).format(missing=tmp_path / "missing.csv", out=out) for arg in command]
    res = run_cli(*argv, env_extra={"KTS_MAX_CANDIDATES": value})
    assert res.returncode == 2, res.stderr
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"ktseg {command[0]}: error: KTS_MAX_CANDIDATES")
    assert value in errors[0], res.stderr
    assert not out.exists()


def test_segment_precision_loss_is_a_one_line_error(tmp_path):
    # Four static shots of ten rows with 1e-9 jitter, at 1e4: their scatters sink below rounding.
    rng = np.random.default_rng(0)
    shots = np.repeat(rng.standard_normal((4, 16)), 10, axis=0) + 1e-9 * rng.standard_normal((40, 16))
    path = tmp_path / "scaled.csv"
    write_features(FeatureSequence(values=shots * 1e4), path)
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

    monkeypatch.setattr(cli, "compute_gram", exhausted)
    argv = ["segment", "--features", str(blocks_csv), "--m", "2", "--out", str(tmp_path / "x.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory in segment"]


@pytest.mark.parametrize("command", ["sweep", "segment"])
def test_dp_rows_past_half_the_memory_are_a_one_line_error(command, blocks_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(segmentation, "_physical_memory", lambda: 200)  # below every request's rows
    out = tmp_path / "out"
    argv = {
        "sweep": ["sweep", "--seeds", "1", "--n", "12", "--d", "2", "--segments", "2",
                  "--separation", "1.0", "--sigma", "0.1", "--out", str(out)],
        "segment": ["segment", "--features", str(blocks_csv), "--auto", "--max-segments", "4",
                    "--out", str(out)],
    }[command]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DP rows for up to "), err
    assert not out.exists()


def test_segment_kernel_flag(blocks_csv, tmp_path):
    out = tmp_path / "seg.json"
    res = run_cli("segment", "--features", blocks_csv, "--m", 2, "--kernel", "cosine", "--out", out)
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["kernel"] == "cosine"
    bad = run_cli("segment", "--features", blocks_csv, "--m", 2, "--kernel", "poly", "--out", out)
    assert bad.returncode == 2


def test_segment_cosine_names_the_zero_row_from_one(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("1,2\n0,0\n3,4\n")
    res = run_cli("segment", "--features", path, "--m", 1, "--kernel", "cosine",
                  "--out", tmp_path / "seg.json")
    assert res.returncode == 1
    assert res.stderr.splitlines() == [
        "error: cosine kernel requires nonzero rows; row 2 is all zero"
    ]


def test_segment_rejects_rbf_bandwidth_whose_square_leaves_float64(tmp_path):
    path = tmp_path / "equal.csv"
    path.write_text("1,0\n1,0\n")
    res = run_cli("segment", "--features", path, "--m", 1, "--kernel", "rbf:1e-300",
                  "--out", tmp_path / "x.json")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "bandwidth" in errors[0]


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
after_import = numpy_loaded(), "numpy" in sys.modules
code = cli.main(sys.argv[1:])
print(*after_import, code, numpy_loaded(), "numpy" in sys.modules)
"""


def probe(script, *args):
    """The last line that ``script`` prints in a fresh interpreter."""
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env
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
    assert probe(NUMPY_PROBE, *segment, "--out", seg_lazy) == "False False 0 True True"
    assert cli.main([*map(str, segment), "--out", str(seg_eager)]) == 0  # numpy already loaded
    assert seg_lazy.read_bytes() == seg_eager.read_bytes()
    plan = ("plan", "--segmentation", seg_lazy, "--k", 2, "--duration", 60, "--fps", 25,
            "--rate", 1, "--out", tmp_path / "plan.json")
    assert probe(NUMPY_PROBE, *plan) == "False False 0 False False"
    assert probe(NUMPY_PROBE, "eval", "--pred", seg_lazy, "--truth", seg_eager) == "False False 0 False False"


FIRST_USE_PROBE = """
import sys, threading
from ktseg import FeatureSequence, compute_gram, solve_fixed
from ktseg.io import read_features
assert not any(name.startswith("numpy.") for name in sys.modules)  # the first use is below
rows = [[float(i // 4), float(i % 3)] for i in range(12)]
start, results = threading.Barrier(4), []
def first_use(read_first):  # half the threads touch numpy first through io, half through segmentation
    start.wait()
    try:
        n = read_features(sys.argv[1]).n if read_first else None
        seg = solve_fixed(compute_gram(FeatureSequence(values=rows)), 3)
        results.append((seg.change_points, n or read_features(sys.argv[1]).n))
    except Exception as exc:
        results.append(repr(exc))
threads = [threading.Thread(target=first_use, args=(i % 2,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(results)
"""


def test_threads_may_make_the_first_numpy_use_together(tmp_path):
    """Four threads of a fresh interpreter touch numpy first through ktseg at once."""
    (tmp_path / "feats.csv").write_text(BLOCKS_CSV)
    assert probe(FIRST_USE_PROBE, tmp_path / "feats.csv") == repr([((4, 8), 4)] * 4)


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
    write_segmentation(Segmentation(n=100, change_points=(50,), objective=0.0), seg_path)

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


@pytest.mark.parametrize(
    "flags", [("--duration", "1e300", "--fps", "1e300", "--rate", "1"),
              ("--duration", "1e200", "--fps", "1", "--rate", "1e200")],
    ids=["duration-fps", "duration-rate"],
)
def test_plan_overflowing_product_is_a_one_line_error(blocks_csv, tmp_path, flags):
    seg_path = tmp_path / "seg.json"
    assert run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", seg_path).returncode == 0
    res = run_cli("plan", "--segmentation", seg_path, "--k", 2, *flags, "--out", tmp_path / "p.json")
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "overflows" in res.stderr
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr


def test_plan_refuses_more_frames_per_segment_than_the_video_has(blocks_csv, tmp_path):
    seg_path, plan_path = tmp_path / "seg.json", tmp_path / "p.json"
    assert run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", seg_path).returncode == 0
    flags = ("--duration", 4.0, "--fps", 1, "--rate", 1, "--out", plan_path)  # 4 source frames
    assert run_cli("plan", "--segmentation", seg_path, "--k", 4, *flags).returncode == 0
    plan_path.unlink()
    res = run_cli("plan", "--segmentation", seg_path, "--k", 5, *flags)
    assert res.returncode == 1 and res.stdout == "" and not plan_path.exists()
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "4 source frames" in lines[0], res.stderr
    assert "source frames" in run_cli("plan", "--help").stdout


@pytest.mark.parametrize(
    "change_points, objective", [("[0]", "0"), ("[5]", "-1"), ("[5]", "1e400"), ("[5]", "9" * 400)],
    ids=["empty-segment", "negative-objective", "overflowing-objective", "400-digit-objective"],
)
def test_plan_names_the_file_for_invariant_errors(tmp_path, change_points, objective):
    seg_path = tmp_path / "seg.json"
    seg_path.write_text(
        '{"schema": "kts-segmentation/1", "n": 10, "m": 2, "changePoints": %s, "objective": %s, '
        '"penalty": 0, "penaltyWeight": 0, "minSegmentLength": 1}' % (change_points, objective)
    )
    res = run_cli(
        "plan", "--segmentation", seg_path, "--k", 2,
        "--duration", 10.0, "--fps", 30, "--rate", 1, "--out", tmp_path / "p.json",
    )
    assert res.returncode == 1 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {seg_path}: "), res.stderr


# Runs one CLI command in a fresh interpreter, recording the threads it starts,
# and reports which of the executor's modules it imported.
EXECUTOR_PROBE = """
import sys, threading
started, start = [], threading.Thread.start
threading.Thread.start = lambda thread: started.append(thread.name) or start(thread)
from ktseg import cli
code = cli.main(sys.argv[1:])
print(code, started, sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules))
"""


def test_prefetching_segment_imports_no_executor(tmp_path):
    path = tmp_path / "feats.csv"
    write_features(FeatureSequence(values=np.random.default_rng(8).standard_normal((600, 4))), path)
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", EXECUTOR_PROBE, "segment", "--features", str(path), "--m", "8",
         "--out", str(tmp_path / "seg.json")], capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 ['ktseg-scatter'] []"


# ---------------------------------------------------------------------------
# process entry: one BLAS thread by default

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

#: Runs the CLI entry named by argv[1] in-process, then one matmul, then counts
#: this process's threads: the main thread plus the BLAS pool.
THREAD_PROBE = """
import os, runpy, sys
entry, features = sys.argv[1], sys.argv[2]
sys.argv[1:] = ["segment", "--features", features, "--m", "2", "--out", features + ".json"]
if entry == "module":
    try:
        runpy.run_module("ktseg", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
elif entry != "none":
    module, _, attr = entry.partition(":")
    assert getattr(__import__(module, fromlist=[attr]), attr)() == 0
import numpy as np
np.ones((256, 256)) @ np.ones((256, 256))
print(len(os.listdir("/proc/self/task")))
"""


def count_threads(entry, features, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    res = subprocess.run([sys.executable, "-c", THREAD_PROBE, entry, str(features)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return int(res.stdout.split()[-1])


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through Linux /proc")
def test_cli_process_entry_defaults_to_one_blas_thread(blocks_csv):
    if count_threads("none", blocks_csv) < 2:
        pytest.skip("numpy's BLAS runs one thread even without the entry's default")
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
    script = re.search(r'^ktseg = "(.+)"$', pyproject, re.MULTILINE).group(1)
    assert count_threads("module", blocks_csv) == 1
    assert count_threads(script, blocks_csv) == 1
    assert count_threads("module", blocks_csv, OMP_NUM_THREADS="2") == 2
    assert count_threads(script, blocks_csv, OPENBLAS_NUM_THREADS="2") == 2


def test_in_process_main_leaves_the_environment_alone(blocks_csv, tmp_path, monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert cli.main(["segment", "--features", str(blocks_csv), "--m", "2",
                     "--out", str(tmp_path / "seg.json")]) == 0
    assert dict(os.environ) == before


# ---------------------------------------------------------------------------
# synth / eval / oracle-check / sweep


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--separation", "--sigma", "--duration"])
def test_float_flags_reject_non_finite_values(tmp_path, capsys, flag, value):
    synth = ["synth", "--n", "30", "--d", "3", "--segments", "3", "--separation", "2.0",
             "--sigma", "0.1", "--seed", "0", "--features-out", str(tmp_path / "f.csv"),
             "--truth-out", str(tmp_path / "t.json")]
    plan = ["plan", "--segmentation", str(tmp_path / "s.json"), "--k", "2", "--duration", "4",
            "--fps", "30", "--rate", "1", "--out", str(tmp_path / "p.json")]
    argv = plan if flag == "--duration" else synth
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "finite" in errors[0]
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "command, scale",
    [
        ("synth", ["--separation", 1.0, "--sigma", 1e308]),  # overflows the noise product
        ("sweep", ["--separation", 1.7e308, "--sigma", 1e308]),  # overflows the mean plus noise
    ],
    ids=["synth", "sweep"],
)
def test_overflowing_synthetic_features_fail_in_one_line(tmp_path, command, scale):
    outs = (["--features-out", tmp_path / "f.csv", "--truth-out", tmp_path / "t.json"]
            if command == "synth" else ["--out", tmp_path / "s.csv"])
    seed = ["--seed", 3] if command == "synth" else ["--seeds", 1]
    res = run_cli(command, "--n", 30, "--d", 4, "--segments", 3, *scale, *seed, *outs)
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error:"), res.stderr
    assert "noise sigma 1e+308" in res.stderr


@pytest.mark.parametrize("shape", [("--n", 10**20, "--d", 2), ("--n", 10, "--d", 10**20)], ids=["n", "d"])
def test_synth_refuses_sizes_numpy_cannot_index_in_one_line(tmp_path, shape):
    res = run_cli("synth", *shape, "--segments", 2, "--separation", 1.0, "--sigma", 0.1, "--seed", 0,
                  "--features-out", tmp_path / "f.csv", "--truth-out", tmp_path / "t.json")
    assert res.returncode == 1 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "numpy" in lines[0], res.stderr
    assert not (tmp_path / "f.csv").exists()


def test_synth_refuses_ktsf_values_past_float32(tmp_path):
    features, truth = tmp_path / "s.ktsf", tmp_path / "s.json"
    res = run_cli("synth", "--n", 3, "--d", 1, "--segments", 1, "--separation", 0, "--sigma", "1e200",
                  "--seed", 5, "--features-out", features, "--truth-out", truth)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.splitlines() == [f"error: {features}: value at row 1, column 1 overflows float32"]
    assert list(tmp_path.iterdir()) == []


def test_eval_reads_each_document_once(tmp_path, monkeypatch, capsys):
    seg_path, truth_path = tmp_path / "seg.json", tmp_path / "truth.json"
    write_segmentation(Segmentation(n=10, change_points=(5,), objective=0.0), seg_path)
    write_truth(GroundTruth(n=10, change_points=(4,), seed=0), truth_path)
    loads, load_json = [], io._load_json
    monkeypatch.setattr(io, "_load_json", lambda path, *schemas: loads.append(path) or load_json(path, *schemas))
    assert cli.main(["eval", "--pred", str(seg_path), "--truth", str(truth_path), "--tolerance", "1"]) == 0
    assert loads == [str(seg_path), str(truth_path)]
    assert json.loads(capsys.readouterr().out)["f1"] == 1.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("kernel"), "missing field 'kernel'"),
        (lambda doc: doc.update(kernel=42), "field 'kernel' has the wrong type"),
        (lambda doc: doc.update(kernel="banana"), "unknown kernel tag 'banana'"),
        (lambda doc: doc.update(m=2, changePoints=[]), "m is 2 but the document holds 1 segments"),
    ],
    ids=["no kernel", "numeric kernel", "unknown kernel", "m=2, no change points"],
)
def test_eval_refuses_a_segmentation_with_a_bad_kernel_or_count(tmp_path, capsys, edit, message):
    seg_path, truth_path = tmp_path / "seg.json", tmp_path / "truth.json"
    write_segmentation(Segmentation(n=10, change_points=(5,), objective=0.0), seg_path)
    write_truth(GroundTruth(n=10, change_points=(4,), seed=0), truth_path)
    doc = json.loads(seg_path.read_text())
    edit(doc)
    seg_path.write_text(json.dumps(doc))
    assert cli.main(["eval", "--pred", str(seg_path), "--truth", str(truth_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {seg_path}: {message}\n")


def test_eval_perfect_prediction(tmp_path):
    run_cli(*synth_args(tmp_path))
    res = run_cli(
        "eval", "--pred", tmp_path / "truth.json", "--truth", tmp_path / "truth.json",
        "--tolerance", 2,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["f1"] == 1.0 and doc["precision"] == 1.0


def test_eval_rejects_documents_of_different_candidate_counts(tmp_path):
    short, long = tmp_path / "short.json", tmp_path / "long.json"
    write_truth(GroundTruth(n=100, change_points=(50,), seed=0), short)
    write_truth(GroundTruth(n=300, change_points=(50,), seed=0), long)
    res = run_cli("eval", "--pred", short, "--truth", long, "--tolerance", 200)
    assert res.returncode == 1 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "100" in lines[0] and "300" in lines[0]


@pytest.mark.parametrize(
    "n, change_points", [(10, [0, 4, 12]), (0, []), (10, [4, 10]), (10, [6, 6]), (10, [7, 3])]
)
def test_eval_rejects_impossible_boundaries(tmp_path, n, change_points):
    pred, bad = tmp_path / "pred.json", tmp_path / "bad.json"
    write_truth(GroundTruth(n=10, change_points=(4,), seed=0), pred)
    bad.write_text(json.dumps({"schema": "kts-truth/1", "n": n, "changePoints": change_points, "seed": 0}))
    res = run_cli("eval", "--pred", pred, "--truth", bad, "--tolerance", 2)
    assert res.returncode == 1 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), res.stderr


def test_eval_accepts_segmentation_documents(blocks_csv, tmp_path):
    seg_path = tmp_path / "seg.json"
    run_cli("segment", "--features", blocks_csv, "--m", 2, "--out", seg_path)
    res = run_cli("eval", "--pred", seg_path, "--truth", seg_path, "--tolerance", 0)
    assert res.returncode == 0
    assert json.loads(res.stdout)["f1"] == 1.0


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": "kts-segmentation/1", "n": 10, "m": 5, "changePoints": [3, 6], "objective": -1.0,
         "penalty": 0.0, "penaltyWeight": 0.0, "kernel": "dot", "minSegmentLength": 4},
        {"schema": "kts-truth/1", "n": 10, "changePoints": [3, 6]},
    ],
    ids=["corrupt segmentation", "truth without seed"],
)
def test_eval_refuses_what_the_document_readers_refuse(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("eval", "--pred", bad, "--truth", bad, "--tolerance", 0)
    assert res.returncode == 1 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), res.stderr


def test_oracle_check_match(blocks_csv):
    res = run_cli("oracle-check", "--features", blocks_csv, "--m", 2)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("MATCH")


def test_oracle_check_refuses_large_instances_before_solving(tmp_path, monkeypatch, capsys):
    path = tmp_path / "seventeen.csv"
    path.write_text("1,0\n" * 17)

    def solve_first(*args, **kwargs):
        raise AssertionError("oracle-check solved an instance the oracle refuses")

    monkeypatch.setattr(cli, "compute_gram", solve_first)
    assert cli.main(["oracle-check", "--features", str(path), "--m", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: exhaustive solver handles n <= 16, got n=17"
    ]


def test_oracle_check_reports_a_mismatch(blocks_csv, monkeypatch, capsys):
    def other(gram, m, min_segment_length):
        return Segmentation(n=gram.n, change_points=(1,), objective=0.5)

    monkeypatch.setattr(cli, "brute_force", other)
    assert cli.main(["oracle-check", "--features", str(blocks_csv), "--m", "2"]) == 1
    assert capsys.readouterr().out == "MISMATCH dp=[2] (0) bf=[1] (0.5)\n"


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
    grams = {
        seed: compute_gram(generate(SynthConfig(
            n=48, d=4, segment_count=4, mean_separation=1.0, noise_sigma=0.05, seed=seed,
            min_segment_length=4,
        )).features)
        for seed in range(3)
    }
    solved = {seed: {s.m: s for s in solve_range(gram, grid)} for seed, gram in grams.items()}
    for line in lines[1:]:
        seed, m, kts_obj, uni_obj, kts_f1, uni_f1 = line.split(",")
        assert int(m) in grid
        assert float(kts_obj) <= float(uni_obj)
        assert 0.0 <= float(kts_f1) <= 1.0
        gram = grams[int(seed)]
        assert uni_obj == "%.17g" % placement_objective(gram, uniform_change_points(48, int(m)))
        assert kts_obj == "%.17g" % solved[int(seed)][int(m)].objective


def test_sweep_makes_one_block_pass_per_seed(tmp_path, monkeypatch, capsys):
    passes = []
    scatter_blocks = segmentation.GramMatrix.blocks

    def counted(*args):
        passes.append(args)
        return scatter_blocks(*args)

    monkeypatch.setattr(segmentation.GramMatrix, "blocks", counted)
    monkeypatch.setattr(segmentation, "_BLOCK_ENDS", 5)
    argv = ["sweep", "--seeds", "2", "--n", "48", "--d", "4", "--segments", "4",
            "--separation", "1.0", "--sigma", "0.05", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    assert len(passes) == 2, "the uniform windows must be read off the solve's own pass"
    assert "wrote 10 rows" in capsys.readouterr().out


def test_sweep_honours_candidate_cap_env(tmp_path):
    args = ("sweep", "--seeds", 1, "--n", 12, "--d", 2, "--segments", 2,
            "--separation", 1.0, "--sigma", 0.1, "--out", tmp_path / "s.csv")
    res = run_cli(*args, env_extra={"KTS_MAX_CANDIDATES": "10"})
    assert res.returncode == 1
    assert res.stderr.splitlines() == [res.stderr.strip()] and "cap of 10" in res.stderr
    assert run_cli(*args, env_extra={"KTS_MAX_CANDIDATES": "12"}).returncode == 0


def test_sweep_refuses_the_cap_before_synthesizing(tmp_path, monkeypatch, capsys):
    def synthesized(config):
        raise AssertionError("sweep synthesized an instance over the candidate cap")

    monkeypatch.setattr(cli, "generate", synthesized)
    monkeypatch.setenv("KTS_MAX_CANDIDATES", "10")
    out = tmp_path / "s.csv"
    argv = ["sweep", "--seeds", "1", "--n", "20000", "--d", "256", "--segments", "2",
            "--separation", "1", "--sigma", "0.1", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: 20000 candidate frames exceed the cap of 10;"), err
    assert not out.exists()


def test_sweep_deterministic(tmp_path):
    args = (
        "sweep", "--seeds", 2, "--n", 24, "--d", 3, "--segments", 3,
        "--separation", 1.0, "--sigma", 0.1, "--out",
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, out1).returncode == 0
    assert run_cli(*args, out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# flag surface: every option of every subcommand, with its type, default and required flag

POS_INT, NONNEG_INT, POS_FLOAT, NONNEG_FLOAT = (
    cli._positive_int, cli._nonnegative_int, cli._positive_float, cli._nonnegative_float
)
HELP = {("-h", "--help"): (None, "==SUPPRESS==", False)}
INSTANCE = {
    ("--n",): (POS_INT, None, True),
    ("--d",): (POS_INT, None, True),
    ("--segments",): (POS_INT, None, True),
    ("--separation",): (NONNEG_FLOAT, None, True),
    ("--sigma",): (NONNEG_FLOAT, None, True),
    ("--min-seg-len",): (POS_INT, 1, False),
}
SOURCE = {
    ("--features",): (None, None, True),
    ("--kernel",): (cli._kernel, segmentation.KernelSpec(), False),
    ("--min-seg-len",): (POS_INT, 1, False),
}
FLAG_SURFACE = {
    "segment": {
        **HELP, **SOURCE,
        ("--m",): (POS_INT, None, False),
        ("--auto",): (None, False, False),
        ("--max-segments",): (POS_INT, None, False),
        ("--penalty-weight",): (POS_FLOAT, None, False),
        ("--out",): (None, None, True),
    },
    "plan": {
        **HELP,
        ("--segmentation",): (None, None, True),
        ("--k",): (POS_INT, None, True),
        ("--duration",): (POS_FLOAT, None, True),
        ("--fps",): (POS_FLOAT, None, True),
        ("--rate",): (POS_FLOAT, None, True),
        ("--out",): (None, None, True),
    },
    "synth": {
        **HELP, **INSTANCE,
        ("--seed",): (NONNEG_INT, None, True),
        ("--features-out",): (None, None, True),
        ("--truth-out",): (None, None, True),
    },
    "eval": {
        **HELP,
        ("--pred",): (None, None, True),
        ("--truth",): (None, None, True),
        ("--tolerance",): (NONNEG_INT, 0, False),
    },
    "oracle-check": {**HELP, **SOURCE, ("--m",): (POS_INT, None, True)},
    "sweep": {
        **HELP, **INSTANCE,
        ("--seeds",): (POS_INT, 5, False),
        ("--tolerance",): (NONNEG_INT, 2, False),
        ("--out",): (None, None, True),
    },
}


def test_flag_surface():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    surface = {
        name: {tuple(a.option_strings): (a.type, a.default, a.required) for a in parser._actions}
        for name, parser in commands.items()
    }
    assert surface == FLAG_SURFACE
    groups = [[a.option_strings for a in g._group_actions] for g in commands["segment"]._mutually_exclusive_groups]
    assert groups == [[["--m"], ["--auto"]]] and commands["segment"]._mutually_exclusive_groups[0].required


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plan", "--k", "0"], "argument --k: must be a positive integer, got 0"),
        (["plan", "--k", "x"], "argument --k: invalid _positive_int value: 'x'"),
        (["synth", "--n", "1.5"], "argument --n: invalid _positive_int value: '1.5'"),
        (["eval", "--tolerance", "-1"], "argument --tolerance: must be nonnegative, got -1"),
        (["eval", "--tolerance", "y"], "argument --tolerance: invalid _nonnegative_int value: 'y'"),
        (["plan", "--fps", "0"], "argument --fps: must be positive and finite, got 0.0"),
        (["plan", "--fps", "inf"], "argument --fps: must be positive and finite, got inf"),
        (["plan", "--rate", "z"], "argument --rate: invalid _positive_float value: 'z'"),
        (["synth", "--sigma", "-1"], "argument --sigma: must be nonnegative and finite, got -1.0"),
        (["synth", "--sigma", "nan"], "argument --sigma: must be nonnegative and finite, got nan"),
        (["synth", "--separation", "w"], "argument --separation: invalid _nonnegative_float value: 'w'"),
    ],
)
def test_number_flags_name_their_bound(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"ktseg {argv[0]}: error: {message}"


@pytest.mark.parametrize("flag", [["--max-segments", "2"], ["--penalty-weight", "5"]])
def test_segment_fixed_refuses_auto_only_flags(tmp_path, flag):
    path = tmp_path / "feats.csv"
    write_features(generate(
        SynthConfig(n=40, d=4, segment_count=3, mean_separation=2.0, noise_sigma=0.1, seed=1)
    ).features, path)
    out = tmp_path / "seg.json"
    res = run_cli("segment", "--features", path, "--m", 3, *flag, "--out", out)
    assert res.returncode == 2
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("ktseg segment: error: " + flag[0]), res.stderr
    assert "--auto" in errors[0] and not out.exists()
