"""Workload inputs, job lists and output checks for the ktseg benchmark.

A job is one unit of user work: a list of ``ktseg`` CLI invocations (steps)
and a check of what they wrote. ``build`` generates a workload's inputs from
the seed with ``ktseg.synth.generate`` and ``ktseg.io.write_features`` and
returns a JSON-ready spec: the once-per-run smoke job, and the jobs of one
pass (the work jobs plus one small ``oracle-check`` job). ``Checker`` checks
a job's outputs; every check failure is reported, never raised.

Why these workloads:

- hour_ktsf: one hour at one candidate per second (n = 3600, d = 512) in the
  binary format, ``segment --auto`` then ``plan``. Gram, scatter table and DP
  dominate and memory is ~0.75 GB; reading the file is negligible. This is
  where a streaming DP or dense-table change shows.
- clips_csv: short CSV clips of fixed, varied lengths with a fixed segment
  count. Interpreter start, import and CSV parsing dominate and segmentation
  does little, so a segmentation change should leave it unchanged.
- sweep_grid: ``ktseg sweep``, many DP solves with m up to n on small
  instances, through synth and metrics in-process; DP rows dominate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ktseg import io
from ktseg.errors import KtsError
from ktseg.metrics import boundary_metrics
from ktseg.sampling import uniform_change_points
from ktseg.segmentation import build_variance_table, compute_gram, placement_objective
from ktseg.synth import SynthConfig, generate

WORKLOADS = ("hour_ktsf", "clips_csv", "sweep_grid")

#: Boundary-F1 tolerance, in candidates.
TOLERANCE = 2
#: Reported objectives must match a direct recomputation this closely.
OBJECTIVE_RTOL = 1e-7


@dataclass(frozen=True)
class Size:
    hour_n: int = 3600
    hour_d: int = 512
    hour_segments: int = 24
    hour_max_segments: int = 64
    hour_k: int = 8
    clip_lengths: tuple[int, ...] = (240, 291, 343, 394, 446, 497, 549, 600)
    clip_d: int = 512
    clip_m: int = 8
    clip_k: int = 4
    sweep_n: int = 400
    sweep_d: int = 16
    sweep_segments: int = 8
    sweep_seeds: int = 5


SIZES = {
    "full": Size(),
    # For the benchmark's own tests: every path, a fraction of a second.
    "tiny": Size(
        hour_n=120, hour_d=16, hour_segments=4, hour_max_segments=8, hour_k=2,
        clip_lengths=(40, 56), clip_d=8, clip_m=3, clip_k=2,
        sweep_n=24, sweep_d=4, sweep_segments=3, sweep_seeds=2,
    ),
}


def _write_instance(config: SynthConfig, path: Path) -> tuple[int, ...]:
    instance = generate(config)
    io.write_features(instance.features, path)
    return instance.true_change_points


def _uniform_objectives(features: Path, m_max: int) -> list[float]:
    """placement_objective of the uniform split for m = 1..m_max, in-process."""
    table = build_variance_table(compute_gram(io.read_features(features)))
    return [placement_objective(table, uniform_change_points(table.n, m)) for m in range(1, m_max + 1)]


def _segment_plan_job(name, features, out, n, segment_args, k, m, truth, uniform) -> dict:
    seg, plan = out / f"{name}.seg.json", out / f"{name}.plan.json"
    return {
        "name": name,
        "kind": "work",
        "steps": [
            ["segment", "--features", str(features), *segment_args, "--out", str(seg)],
            ["plan", "--segmentation", str(seg), "--k", str(k), "--duration", str(n),
             "--fps", "30", "--rate", "1", "--out", str(plan)],
        ],
        "check": {"type": "segment_plan", "features": str(features), "seg": str(seg),
                  "plan": str(plan), "n": n, "m": m, "k": k, "truth": list(truth),
                  "uniform": uniform},
    }


def _oracle_job(seed: int, inputs: Path) -> dict:
    features = inputs / "oracle.csv"
    _write_instance(SynthConfig(n=14, d=3, segment_count=3, mean_separation=1.0,
                                noise_sigma=0.1, seed=seed), features)
    return {"name": "oracle", "kind": "check",
            "steps": [["oracle-check", "--features", str(features), "--m", "3"]],
            "check": {"type": "oracle"}}


def _smoke_job(seed: int, inputs: Path, out: Path) -> dict:
    """Every subcommand once on a tiny instance, so every layer is reached."""
    feats, truth, seg, plan = (inputs / "smoke.csv", inputs / "smoke.truth.json",
                               out / "smoke.seg.json", out / "smoke.plan.json")
    return {
        "name": "smoke",
        "kind": "check",
        "steps": [
            ["synth", "--n", "20", "--d", "4", "--segments", "3", "--separation", "1",
             "--sigma", "0.1", "--seed", str(seed), "--min-seg-len", "3",
             "--features-out", str(feats), "--truth-out", str(truth)],
            ["segment", "--features", str(feats), "--auto", "--max-segments", "5", "--out", str(seg)],
            ["plan", "--segmentation", str(seg), "--k", "2", "--duration", "20", "--fps", "10",
             "--rate", "1", "--out", str(plan)],
            ["eval", "--pred", str(seg), "--truth", str(truth), "--tolerance", "1"],
            ["sweep", "--seeds", "1", "--n", "12", "--d", "4", "--segments", "2",
             "--separation", "1", "--sigma", "0.1", "--out", str(out / "smoke.sweep.csv")],
        ],
        "check": {"type": "smoke", "seg": str(seg), "plan": str(plan), "n": 20, "k": 2},
    }


def build(workload: str, seed: int, size: Size, workdir: Path) -> dict:
    """Generate the inputs of ``workload`` under ``workdir`` and return its spec."""
    inputs, out = workdir / "inputs", workdir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "hour_ktsf":
        n, features = size.hour_n, inputs / "hour.ktsf"
        truth = _write_instance(
            SynthConfig(n=n, d=size.hour_d, segment_count=size.hour_segments, mean_separation=1.0,
                        noise_sigma=0.001, seed=seed, min_segment_length=30), features)
        work = [_segment_plan_job(
            "hour", features, out, n, ["--auto", "--max-segments", str(size.hour_max_segments)],
            size.hour_k, None, truth, _uniform_objectives(features, size.hour_max_segments))]
    elif workload == "clips_csv":
        work = []
        # A fixed multiset of lengths keeps the per-job times comparable across
        # seeds; the seed only picks the order and the content.
        lengths = np.random.default_rng(seed).permutation(size.clip_lengths)
        for i, n in enumerate(int(v) for v in lengths):
            features = inputs / f"clip{i:02d}.csv"
            truth = _write_instance(
                SynthConfig(n=n, d=size.clip_d, segment_count=size.clip_m, mean_separation=1.0,
                            noise_sigma=0.05, seed=(seed * 1000 + i) % 2**64, min_segment_length=10), features)
            work.append(_segment_plan_job(
                f"clip{i:02d}", features, out, n, ["--m", str(size.clip_m)], size.clip_k,
                size.clip_m, truth, _uniform_objectives(features, size.clip_m)))
    elif workload == "sweep_grid":
        # ``ktseg sweep`` draws its own instances from seeds 0..S-1, so the
        # benchmark seed picks the noise level. Within [0.1, 0.2) it changes
        # neither the cost nor the boundaries an exact DP recovers.
        sigma = 0.1 + 0.1 * ((seed * 0.6180339887) % 1.0)
        csv = out / "sweep.csv"
        params = {"n": size.sweep_n, "d": size.sweep_d, "segments": size.sweep_segments,
                  "separation": 1.0, "sigma": sigma, "seeds": size.sweep_seeds}
        work = [{
            "name": "sweep",
            "kind": "work",
            "steps": [["sweep", "--seeds", str(size.sweep_seeds), "--n", str(size.sweep_n),
                       "--d", str(size.sweep_d), "--segments", str(size.sweep_segments),
                       "--separation", "1.0", "--sigma", repr(sigma),
                       "--tolerance", str(TOLERANCE), "--out", str(csv)]],
            "check": {"type": "sweep", "csv": str(csv), **params},
        }]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {
        "workload": workload,
        "seed": seed,
        "smoke": _smoke_job(seed, inputs, out),
        "pass": [*work, _oracle_job(seed, inputs)],
    }


class Checker:
    """Checks job outputs; caches per-file prefix sums for objective checks."""

    def __init__(self):
        self._prefix: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def check(self, job: dict, stdouts: list[str]) -> tuple[bool, float | None, str]:
        """(passed, boundary F1 or None, reason) for a job whose steps all exited 0."""
        spec = job["check"]
        try:
            return getattr(self, "_check_" + spec["type"])(spec, stdouts)
        except (KtsError, OSError, ValueError, TypeError, KeyError, IndexError) as exc:
            return False, None, f"{type(exc).__name__}: {exc}"

    # -- objectives recomputed from the features, independently of ktseg --

    @staticmethod
    def _prefix_sums(values: np.ndarray):
        s1 = np.zeros((values.shape[0] + 1, values.shape[1]))
        np.cumsum(values, axis=0, out=s1[1:])
        s2 = np.zeros(values.shape[0] + 1)
        np.cumsum(np.einsum("ij,ij->i", values, values), out=s2[1:])
        return s1, s2

    def _file_prefix(self, path: str):
        if path not in self._prefix:
            self._prefix[path] = self._prefix_sums(io.read_features(path).values)
        return self._prefix[path]

    @staticmethod
    def _direct_objective(prefix, change_points, n) -> float:
        s1, s2 = prefix
        bounds = (0, *change_points, n)
        total = 0.0
        for a, b in zip(bounds[:-1], bounds[1:]):
            mass = s1[b] - s1[a]
            total += (s2[b] - s2[a]) - float(mass @ mass) / (b - a)
        return total

    @staticmethod
    def _close(reported: float, expected: float) -> bool:
        return abs(reported - expected) <= OBJECTIVE_RTOL * max(1.0, abs(expected))

    # -- per job type ------------------------------------------------------

    def _check_plan(self, seg, plan_path, k) -> str | None:
        plan = io.read_plan(plan_path)
        ranges = [s.candidate_range for s in plan.segments]
        if plan.k != k or plan.m != seg.m:
            return f"plan is {plan.m} x {plan.k}, expected {seg.m} x {k}"
        if len(plan.all_source_frames()) != seg.m * k:
            return f"plan has {len(plan.all_source_frames())} frames, expected {seg.m * k}"
        if ranges != list(seg.segment_bounds()) or ranges[0][0] != 0 or ranges[-1][1] != seg.n:
            return "plan segments do not cover the segmentation's candidates"
        return None

    def _check_segment_plan(self, spec, stdouts):
        seg = io.read_segmentation(spec["seg"])
        n = spec["n"]
        if seg.n != n or (spec["m"] is not None and seg.m != spec["m"]):
            return False, None, f"segmentation has n={seg.n}, m={seg.m}"
        problem = self._check_plan(seg, spec["plan"], spec["k"])
        if problem:
            return False, None, problem
        direct = self._direct_objective(self._file_prefix(spec["features"]), seg.change_points, n)
        if not self._close(seg.objective, direct):
            return False, None, f"objective {seg.objective!r} but the change points give {direct!r}"
        uniform = spec["uniform"][seg.m - 1]
        if not seg.objective <= uniform:
            return False, None, f"objective {seg.objective!r} exceeds the uniform split's {uniform!r}"
        f1 = boundary_metrics(seg.change_points, spec["truth"], TOLERANCE).f1
        return True, f1, "ok"

    def _check_sweep(self, spec, stdouts):
        lines = Path(spec["csv"]).read_text(encoding="utf-8").splitlines()
        if lines[0] != "seed,m,ktsObjective,uniformObjective,ktsF1,uniformF1":
            return False, None, f"unexpected sweep header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        n = spec["n"]
        prefixes = {}
        for seed in range(spec["seeds"]):
            instance = generate(SynthConfig(
                n=n, d=spec["d"], segment_count=spec["segments"], mean_separation=spec["separation"],
                noise_sigma=spec["sigma"], seed=seed))
            prefixes[seed] = self._prefix_sums(instance.features.values)
        seen = set()
        f1s = []
        for seed_s, m_s, kts_s, uni_s, kts_f1_s, _ in rows:
            seed, m, kts, uni, kts_f1 = int(seed_s), int(m_s), float(kts_s), float(uni_s), float(kts_f1_s)
            seen.add(seed)
            direct = self._direct_objective(prefixes[seed], uniform_change_points(n, m), n)
            if not self._close(uni, direct):
                return False, None, f"seed {seed} m={m}: uniform objective {uni!r}, direct {direct!r}"
            if not kts <= uni or (m == n and kts != 0.0):
                return False, None, f"seed {seed} m={m}: KTS objective {kts!r} vs uniform {uni!r}"
            if not 0.0 <= kts_f1 <= 1.0:
                return False, None, f"seed {seed} m={m}: F1 {kts_f1!r} outside [0, 1]"
            f1s.append(kts_f1)
        if seen != set(range(spec["seeds"])) or len(rows) % spec["seeds"]:
            return False, None, f"sweep rows cover seeds {sorted(seen)}"
        return True, sum(f1s) / len(f1s), "ok"

    def _check_oracle(self, spec, stdouts):
        if not stdouts[0].startswith("MATCH"):
            return False, None, stdouts[0].strip()
        return True, None, "ok"

    def _check_smoke(self, spec, stdouts):
        seg = io.read_segmentation(spec["seg"])
        problem = self._check_plan(seg, spec["plan"], spec["k"]) if seg.n == spec["n"] else "bad n"
        if problem:
            return False, None, problem
        f1 = json.loads(stdouts[3])["f1"]
        if not (isinstance(f1, (int, float)) and 0.0 <= f1 <= 1.0 and math.isfinite(f1)):
            return False, None, f"eval printed F1 {f1!r}"
        return True, None, "ok"
