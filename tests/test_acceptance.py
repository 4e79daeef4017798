"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. The synthetic corpus is 50 frozen seeds of a 200-frame,
16-dimensional sequence with 8 planted segments at separation 5 sigma; the
counter-based generator makes every number here reproducible bit-for-bit.
"""

import math
import time

import numpy as np

from ktseg import (
    FeatureSequence,
    SamplingPlan,
    SegmentSamples,
    Segmentation,
    SynthConfig,
    VideoTimeline,
    boundary_metrics,
    brute_force,
    compute_gram,
    generate,
    placement_objective,
    plan_samples,
    solve_auto,
    solve_fixed,
    solve_range,
    uniform_change_points,
)
from ktseg.io import read_features, read_plan, read_segmentation, write_features, write_plan, write_segmentation

from dense_reference import dense_table, gram_for, table_for

CORPUS_SEEDS = tuple(range(50))
CORPUS_SIGMA = 0.03  # keeps the unit-weight penalty at the scale of one split
SWEEP_GRID = (200, 100, 66, 50, 33)  # n divided by 1, 2, 3, 4, 6


def corpus_config(seed, sigma=CORPUS_SIGMA, separation=None):
    return SynthConfig(
        n=200,
        d=16,
        segment_count=8,
        mean_separation=5 * sigma if separation is None else separation,
        noise_sigma=sigma,
        seed=seed,
        min_segment_length=12,
    )


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, min(4, n) + 1))
        gram = gram_for(rng.standard_normal((n, d)))
        dp = solve_fixed(gram, m)
        bf = brute_force(gram, m)
        if dp.change_points != bf.change_points or abs(dp.objective - bf.objective) > 1e-9:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"200 instances, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_window_consistency():
    rng = np.random.default_rng(20240202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 9))
        values = rng.standard_normal((n, d))
        table = table_for(values)
        for a in range(n):
            for b in range(a + 1, n + 1):
                direct = float(((values[a:b] - values[a:b].mean(axis=0)) ** 2).sum())
                got = float(table[a, b])
                worst = max(worst, abs(got - direct) / max(abs(direct), 1e-9))
                if not math.isclose(got, direct, rel_tol=1e-6, abs_tol=1e-9):
                    report(2, "window consistency", False, f"var({a},{b}) {got} vs {direct}")
    report(2, "window consistency", True, f"50 instances, worst relative deviation {worst:.2e}")


def test_criterion_3_monotone_and_zero_floor():
    rng = np.random.default_rng(20240303)
    for _ in range(25):
        n = int(rng.integers(2, 65))
        gram = gram_for(rng.standard_normal((n, int(rng.integers(1, 6)))))
        objectives = [seg.objective for seg in solve_range(gram, range(1, n + 1))]
        for m, (prev, nxt) in enumerate(zip(objectives[:-1], objectives[1:]), start=1):
            if nxt > prev + 1e-9:
                report(3, "monotone objective", False, f"J_{m + 1} > J_{m} ({nxt} > {prev})")
        if objectives[-1] != 0.0:
            report(3, "zero floor", False, f"J_n = {objectives[-1]!r}")
    report(3, "monotone objective and exact zero floor", True, "25 instances, m = 1..n")


def test_criterion_4_dominance_and_boundary_f1():
    start = time.perf_counter()
    kts_f1, uni_f1 = [], []
    dominance_violations = 0
    for seed in CORPUS_SEEDS:
        instance = generate(corpus_config(seed))
        gram = gram_for(instance.features.values)
        truth = list(instance.true_change_points)
        solved = solve_range(gram, SWEEP_GRID)
        for m, seg in zip(SWEEP_GRID, solved):
            uniform_obj = placement_objective(gram, uniform_change_points(200, m))
            if seg.objective > uniform_obj:
                dominance_violations += 1
        seg8 = solve_fixed(gram, 8)
        kts_f1.append(boundary_metrics(list(seg8.change_points), truth, 2).f1)
        uni_f1.append(boundary_metrics(list(uniform_change_points(200, 8)), truth, 2).f1)
    elapsed = time.perf_counter() - start
    gap = float(np.mean(kts_f1) - np.mean(uni_f1))
    report(
        4,
        "uniform-split dominance and boundary F1 gap",
        dominance_violations == 0 and gap >= 0.3 and elapsed < 60.0,
        f"violations={dominance_violations}, F1 gap={gap:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_auto_segment_count_recovery():
    recovered = 0
    for seed in CORPUS_SEEDS:
        instance = generate(corpus_config(seed))
        seg = solve_auto(gram_for(instance.features.values), 16, penalty_weight=1.0)
        recovered += seg.m == 8
    noisy_ok = recovered >= 45  # >= 90% of 50 seeds

    exact = 0
    for seed in CORPUS_SEEDS:
        instance = generate(corpus_config(seed, sigma=0.0, separation=1.0))
        seg = solve_auto(gram_for(instance.features.values), 16, penalty_weight=1.0)
        exact += seg.m == 8 and seg.change_points == instance.true_change_points
    clean_ok = exact == len(CORPUS_SEEDS)

    report(
        5,
        "auto segment-count recovery",
        noisy_ok and clean_ok,
        f"noisy {recovered}/50, zero-noise exact {exact}/50",
    )


def test_criterion_6_worked_example_fixtures():
    ok = True
    details = []

    blocks = gram_for([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    fixed = solve_fixed(blocks, 2)
    ok &= fixed.change_points == (2,) and fixed.objective == 0.0
    auto = solve_auto(blocks, 4, penalty_weight=1.0)
    ok &= auto.m == 2 and abs(auto.penalty - 2 * math.log(1.5)) <= 1e-9
    details.append(f"blocks m={fixed.m}/auto={auto.m}")

    steps = gram_for([[0.0], [1.0], [5.0], [6.0], [10.0], [11.0]])
    tie = solve_fixed(steps, 2)
    ok &= tie.change_points == (2,) and abs(tie.objective - 26.5) <= 1e-9
    details.append(f"tie cp={list(tie.change_points)}")

    tl = VideoTimeline(duration_seconds=4.0, source_fps=30.0)
    plan = plan_samples(Segmentation(n=4, change_points=(2,), objective=0.0), 2, tl, 1.0)
    ok &= plan.all_source_frames() == [0, 30, 60, 90]
    plan_k1 = plan_samples(
        Segmentation(n=5, change_points=(), objective=0.0),
        1,
        VideoTimeline(duration_seconds=5.0, source_fps=30.0),
        1.0,
    )
    ok &= plan_k1.segments[0].sampled_candidates == (2,)
    plan_k4 = plan_samples(
        Segmentation(n=2, change_points=(), objective=0.0),
        4,
        VideoTimeline(duration_seconds=2.0, source_fps=30.0),
        1.0,
    )
    ok &= plan_k4.segments[0].sampled_candidates == (0, 0, 1, 1)
    details.append("sampling fixtures")

    report(6, "worked-example fixtures", ok, "; ".join(details))


def test_criterion_7_scaling():
    rng = np.random.default_rng(20240707)
    big = FeatureSequence(values=rng.standard_normal((2000, 64)))
    start = time.perf_counter()
    gram = compute_gram(big)
    # The timed work keeps the dense (n+1)^2 build, held until the solve returns.
    _, seg = dense_table(gram), solve_fixed(gram, 32)
    big_elapsed = time.perf_counter() - start
    assert seg.m == 32

    def one(n):
        values = np.random.default_rng(1).standard_normal((n, 8))
        feats = FeatureSequence(values=values)
        t0 = time.perf_counter()
        gram = compute_gram(feats)
        dense_table(gram), solve_fixed(gram, 16)
        return time.perf_counter() - t0

    # Interleave the two sizes and take the median per-pair ratio so CPU
    # noise hits both sides of each pair alike.
    one(1000), one(2000)  # warm both paths
    ratios = sorted(one(2000) / one(1000) for _ in range(7))
    ratio = ratios[len(ratios) // 2]
    report(
        7,
        "scaling",
        big_elapsed < 5.0 and 3.0 <= ratio <= 6.0,
        f"n=2000 solve {big_elapsed:.2f}s; (n, 2n) ratio {ratio:.2f}x",
    )


def test_criterion_8_round_trips(tmp_path):
    rng = np.random.default_rng(20240808)
    failures = 0

    for i in range(100):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, n + 1))
        cps = tuple(sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False).tolist())) if m > 1 else ()
        seg = Segmentation(
            n=n,
            change_points=cps,
            objective=float(rng.uniform(0, 1e6)),
            penalty=float(rng.uniform(0, 10)),
            penalty_weight=float(rng.uniform(0, 10)),
        )
        path = tmp_path / f"seg{i}.json"
        write_segmentation(seg, path)
        failures += read_segmentation(path) != seg

    for i in range(100):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        cursor = 0
        segments = []
        for _ in range(m):
            length = int(rng.integers(1, 7))
            picks = tuple(sorted(int(rng.integers(cursor, cursor + length)) for _ in range(k)))
            segments.append(
                SegmentSamples(
                    candidate_range=(cursor, cursor + length),
                    sampled_candidates=picks,
                    source_frames=tuple(p * 30 for p in picks),
                    source_timestamps=tuple(float(p) for p in picks),
                )
            )
            cursor += length
        plan = SamplingPlan(k=k, segments=tuple(segments))
        path = tmp_path / f"plan{i}.json"
        write_plan(plan, path)
        failures += read_plan(path) != plan

    byte_diffs = 0
    for i in range(100):
        n = int(rng.integers(1, 20))
        d = int(rng.integers(1, 8))
        values = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
        feats = FeatureSequence(values=values)
        binary = tmp_path / f"f{i}.ktsf"
        write_features(feats, binary)
        again = tmp_path / f"f{i}b.ktsf"
        write_features(feats, again)
        byte_diffs += binary.read_bytes() != again.read_bytes()
        failures += not np.array_equal(read_features(binary).values, values)
        csv = tmp_path / f"f{i}.csv"
        write_features(feats, csv)
        failures += not np.array_equal(read_features(csv).values, values)

    report(
        8,
        "format round trips",
        failures == 0 and byte_diffs == 0,
        f"failures={failures}, unstable binary writes={byte_diffs}",
    )
