"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ktseg
from ktseg import cli, metrics
from perfbench import bench, runner, workloads
from perfbench.tracer import PER_LAYER, Span, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
TINY = workloads.SIZES["tiny"]


def _ktseg_bindings():
    mods = [m for name, m in sys.modules.items() if name == "ktseg" or name.startswith("ktseg.")]
    return {(m.__name__, attr): obj for m in mods for attr, obj in vars(m).items()}


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    table = PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: spec[0] for name, spec in table.items()}
    for name, m in result["metrics"].items():
        assert f"{name} {m['value']!r} {m['unit']}" in lines


def test_run_without_sources_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hour_ktsf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_wrappers_cover_from_imports_and_restore_originals():
    import ktseg.segmentation as segmentation

    before = _ktseg_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.solve_range is not before[("ktseg.cli", "solve_range")]
        assert metrics.solve_fixed.__wrapped__ is segmentation.solve_fixed.__wrapped__
        assert ktseg.solve_auto.__wrapped__ is before[("ktseg.segmentation", "solve_auto")]
        table = ktseg.build_variance_table(ktseg.compute_gram(ktseg.FeatureSequence([[0.0], [1.0], [1.0]])))
        metrics.objective_comparison(table, 2)
    finally:
        tracer.restore()
    after = _ktseg_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["segmentation.compute_gram", "segmentation.build_variance_table"]
    comparison = names.index("metrics.objective_comparison")
    solve = names.index("segmentation.solve_fixed")
    assert tracer.spans[solve].parent == comparison
    assert tracer.spans[solve].attrs["dp_cells"] == (2 - 1) * 4**2


def test_recording_restores_after_an_exception():
    before = _ktseg_bindings()
    tracer = Tracer()
    with pytest.raises(ktseg.KtsError):
        with tracer.recording(0):
            ktseg.io.read_features("missing.unsupported")
    assert all(_ktseg_bindings()[key] is obj for key, obj in before.items())
    assert tracer.errors["io"] == 1 and tracer.errors["cli"] == 0


def test_self_time_subtracts_direct_children():
    spans = [Span("cli.main", 0.0, 12.0, -1, 0), Span("io.read_features", 1.0, 4.0, 0, 0),
             Span("segmentation.solve_fixed", 5.0, 9.0, 0, 0),
             Span("segmentation.segment_count_penalty", 6.0, 7.0, 2, 0),
             Span("io.write_segmentation", 9.0, 11.5, 0, 0),
             Span("io.render_document", 9.5, 10.0, 4, 0),
             Span("io.atomic_write_text", 10.0, 11.0, 4, 0)]
    assert self_times(spans) == [2.5, 3.0, 3.0, 1.0, 1.0, 0.5, 1.0]
    values = layer_metrics(spans, {}, {0}, 0.5)
    assert values["segmentation.solve_s"] == 3.0 and values["segmentation.self_s"] == 4.0
    assert values["io.write_s"] == 2.5 and values["io.self_s"] == 5.5
    assert values["cli.main_s"] == 12.0 and values["trace.overhead_s"] == 0.5


def _one_pass(tmp_path, corrupt):
    spec = workloads.build("clips_csv", 7, TINY, tmp_path)
    corrupt(spec)
    results = runner.run_passes(spec, runner.SubprocessExecutor(bench.child_env()),
                                workloads.Checker(), seconds=0)
    return spec, results


def test_corrupted_input_counts_in_fail_frac(tmp_path):
    def corrupt(spec):
        Path(spec["pass"][0]["check"]["features"]).write_text("1.0,2.0\nnot,a-number\n")

    spec, results = _one_pass(tmp_path, corrupt)
    assert len(results) == 1 + len(spec["pass"])
    assert [r.passed for r in results].count(False) == 1
    assert not results[1].passed and "exited 1" in results[1].detail
    values, notes = bench.end_to_end(results, [0.2])
    assert values["pass_frac"] == 1.0 - 1 / len(results)
    assert f"fail_frac {1 / len(results):.6f} ratio (1 of {len(results)} jobs)" in notes


def test_checker_rejects_an_objective_the_change_points_do_not_give(tmp_path):
    spec, results = _one_pass(tmp_path, lambda spec: None)
    assert all(r.passed for r in results)
    job = spec["pass"][0]
    seg_path = Path(job["check"]["seg"])
    doc = json.loads(seg_path.read_text())
    doc["objective"] = doc["objective"] / 2
    seg_path.write_text(json.dumps(doc))
    passed, f1, detail = workloads.Checker().check(job, ["", ""])
    assert not passed and "change points give" in detail
