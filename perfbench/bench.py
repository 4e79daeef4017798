"""Entry point of the ktseg benchmark; ``perfbench/run.py`` is its command line.

With ``--trace 0`` the benchmark runs each job as ``python -m ktseg``
subprocesses, one at a time (a closed loop with one client), and reports the
end-to-end metrics. With ``--trace 1`` it starts one child,
``python -m perfbench.traced``, that drives ``ktseg.cli.main`` in-process
under the span recorder and reports the per-layer metrics. Human-readable
lines come first; the last line of standard output is the JSON result.
Everything is written under ``perfbench/out/<workload>-seed<seed>-trace<t>-<size>``:
``result.json`` with machine info and every job, and, when traced,
``spans.json``. The generated inputs are deleted at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import runner, workloads
from .tracer import LAYERS, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics: name -> (unit, better, bound). BENCHMARK.json mirrors
#: this table. fail_frac is printed as well, but the gated metric is its
#: complement pass_frac, which is never 0. The timing bounds are wide because
#: on a shared two-vCPU host the speed of interpreter start-up and of whole
#: jobs drifts by about +-10% from one run to the next.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "job_s": ("s", "lower", 0.25),
    "job_cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "boundary_f1": ("ratio", "higher", 0.01),
    "pass_frac": ("ratio", "higher", 0.01),
}

#: Interpreter start-ups timed for setup_s before the first job; one more is
#: timed after every job, so the median covers the whole run.
SETUP_REPEATS = 3
#: The traced child gets this long beyond --seconds before it is killed.
TRACED_SLACK_S = 120.0

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH", "")) if p)
    return env


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info varies by version
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    at_or_below = len(ordered) - 10
    if at_or_below < 1:
        return f"n={len(ordered)}, too few samples for a percentile with 10 beyond it"
    q = 100.0 * at_or_below / len(ordered)
    return f"p{q:.0f}={ordered[at_or_below - 1]:.6f} s (n={len(ordered)}, 10 beyond)"


def end_to_end(results: list[runner.JobResult], setup_walls: list[float]) -> tuple[dict, list[str]]:
    work = [r for r in results if r.kind == "work"]
    timed = [r for r in work if r.passed] or work
    failed = sum(not r.passed for r in results)
    values = {
        "setup_s": statistics.median(setup_walls),
        "job_s": statistics.median(r.wall_s for r in timed),
        "job_cpu_s": statistics.median(r.cpu_s for r in timed),
        "peak_rss_mb": max(r.maxrss_mb for r in results),
        "boundary_f1": statistics.fmean((r.f1 or 0.0) if r.passed else 0.0 for r in work),
        "pass_frac": 1.0 - failed / len(results),
    }
    notes = [
        f"job_s {tail_percentile([r.wall_s for r in timed])}",
        f"fail_frac {failed / len(results):.6f} ratio ({failed} of {len(results)} jobs)",
    ]
    return values, notes


def _run_plain(spec: dict, args, env: dict):
    setup_walls = []

    def time_setup():
        step = runner.spawn([sys.executable, "-c", "import ktseg.cli"], env)
        if step.returncode != 0:
            raise RuntimeError(f"cannot import ktseg.cli: {step.stdout.strip()}")
        setup_walls.append(step.wall_s)

    for _ in range(SETUP_REPEATS):
        time_setup()
    results = runner.run_passes(spec, runner.SubprocessExecutor(env), workloads.Checker(),
                                args.seconds, between_jobs=time_setup)
    values, notes = end_to_end(results, setup_walls)
    notes.append(f"setup_s median of {len(setup_walls)} interpreter start-ups")
    return results, values, notes, {"setup_s": setup_walls}


def _run_traced(spec_path: Path, workdir: Path, args, env: dict):
    out = workdir / "traced.json"
    step = runner.spawn(
        [sys.executable, "-m", "perfbench.traced", str(spec_path), str(args.seconds), str(out)],
        env, timeout=args.seconds + TRACED_SLACK_S)
    if step.returncode != 0 or not out.is_file():
        raise RuntimeError(f"traced run failed ({step.returncode}): {step.stdout.strip()[-2000:]}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    results = [runner.JobResult(**r) for r in doc["jobs"]]
    values = doc["metrics"]
    main_s = values["cli.main_s"] or 1.0
    notes = [f"traced child peak RSS {step.maxrss_mb:.1f} MB"] + [
        f"{layer}.self_s share of cli.main_s {values[f'{layer}.self_s'] / main_s:.3f}"
        for layer in LAYERS
    ]
    return results, values, notes, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    info = machine_info(args)
    print("machine " + json.dumps(info, sort_keys=True))
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        start = time.perf_counter()
        spec = workloads.build(args.workload, args.seed, workloads.SIZES[args.size], workdir)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        print(f"inputs generated in {time.perf_counter() - start:.3f} s (not measured)")
        if args.trace:
            results, values, notes, samples = _run_traced(spec_path, workdir, args, env)
            table = PER_LAYER
        else:
            results, values, notes, samples = _run_plain(spec, args, env)
            table = END_TO_END
    finally:
        shutil.rmtree(workdir / "inputs", ignore_errors=True)

    failed = sum(not r.passed for r in results)
    metrics = {name: {"value": values[name], "unit": table[name][0]} for name in table}
    for r in results:
        if not r.passed:
            print(f"FAILED {r.name} (pass {r.pass_index}): {r.detail}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for note in notes:
        print(note)
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(
        {**result, "machine": info, "notes": notes, "samples": samples,
         "jobs": [asdict(r) for r in results]},
        indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0
