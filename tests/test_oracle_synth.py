"""Ground-truth machinery: exhaustive solver, exact rational DP, generator, and metrics."""

from fractions import Fraction
import heapq
from itertools import combinations
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktseg import (
    FeatureSequence,
    InfeasibleConfigError,
    InstanceTooLargeError,
    InvariantViolationError,
    KernelSpec,
    SynthConfig,
    UnsortedInputError,
    boundary_metrics,
    brute_force,
    compute_gram,
    generate,
    objective_comparison,
    solve_fixed,
    solve_range,
)
from ktseg import metrics, segmentation

from dense_reference import dense_table, gram_for


# ---------------------------------------------------------------------------
# Exhaustive solver


def test_brute_force_two_blocks():
    seg = brute_force(gram_for([[1, 0], [1, 0], [0, 1], [0, 1]]), 2)
    assert seg.change_points == (2,)
    assert seg.objective == 0.0


def test_brute_force_tie_instance():
    seg = brute_force(gram_for([[0.0], [1.0], [5.0], [6.0], [10.0], [11.0]]), 2)
    assert seg.change_points == (2,)
    assert seg.objective == pytest.approx(26.5, abs=1e-9)


def test_brute_force_all_singletons():
    rng = np.random.default_rng(1)
    seg = brute_force(gram_for(rng.standard_normal((6, 2))), 6)
    assert seg.change_points == (1, 2, 3, 4, 5)
    assert seg.objective == 0.0


def test_brute_force_size_cap():
    rng = np.random.default_rng(2)
    with pytest.raises(InstanceTooLargeError):
        brute_force(gram_for(rng.standard_normal((17, 2))), 2)


def test_brute_force_min_segment_length():
    rng = np.random.default_rng(3)
    seg = brute_force(gram_for(rng.standard_normal((9, 2))), 3, min_segment_length=3)
    assert seg.change_points == (3, 6)


@pytest.mark.parametrize("m, min_len", [(1, 1), (8, 1), (16, 1), (1, 2), (5, 2), (8, 2)])
def test_brute_force_at_its_cap_equals_the_dp(m, min_len):
    # n = 16, where one pass holds the most windows: 6,435 placements of 8 segments, 51,480 windows.
    values = np.random.default_rng(16).standard_normal((16, 3))
    values[9:12] = values[8]  # tied rows
    gram = compute_gram(FeatureSequence(values=values))
    assert brute_force(gram, m, min_len) == solve_fixed(gram, m, min_len)


@pytest.mark.parametrize("kernel", ["dot", "cosine", "rbf:0.5", "rbf:3"])
@pytest.mark.parametrize("min_len", [1, 2, 3])
def test_brute_force_on_the_gram_equals_enumeration_over_the_dense_reference(kernel, min_len):
    rng = np.random.default_rng(min_len)
    values = rng.standard_normal((13, 3))
    values[4:7] = values[3]  # tied rows
    gram = compute_gram(FeatureSequence(values=values), KernelSpec.from_tag(kernel))
    table = dense_table(gram)
    for m in (1, 2, 4, 13 // min_len):
        placements = [
            bounds for cuts in combinations(range(1, 13), m - 1) for bounds in [(0, *cuts, 13)]
            if all(b - a >= min_len for a, b in zip(bounds[:-1], bounds[1:]))
        ]
        totals = [segmentation._dp_sum(table[a, b] for a, b in zip(p[:-1], p[1:])) for p in placements]
        best = totals.index(min(totals))  # the first in lexicographic order, as brute_force breaks ties
        streamed = brute_force(gram, m, min_len)
        assert streamed.change_points == placements[best][1:-1]
        assert struct.pack("<d", streamed.objective) == struct.pack("<d", totals[best])


# ---------------------------------------------------------------------------
# Exact rational DP


def exact_scatters(values):
    """The scatter of every window [a, b) of integer dot-kernel features, as a Fraction.

    sum ||x_s||^2 - ||sum x_s||^2 / (b - a) over the window's own rows: exact, and
    translation invariant, so it equals the scatter of the centred rows the solvers see.
    """
    rows = [[int(v) for v in row] for row in values]
    scatter = {}
    for a in range(len(rows)):
        sums, squares = [0] * len(rows[0]), 0
        for b in range(a + 1, len(rows) + 1):
            sums = [s + v for s, v in zip(sums, rows[b - 1])]
            squares += sum(v * v for v in rows[b - 1])
            scatter[a, b] = squares - Fraction(sum(s * s for s in sums), b - a)
    return scatter


def exact_optima(scatter, n, m_max, min_len):
    """The two least exact splits into m segments of at least min_len frames, for m = 1..m_max.

    optima[m] lists (total scatter, change points) of the optimum and, if another
    placement exists, of the runner-up: a plain DP keeping two splits per cell.
    """
    best, optima = {0: [(Fraction(0), ())]}, [None]  # best[e]: two least splits of [0, e) into i segments
    for i in range(1, m_max + 1):
        best = {
            e: heapq.nsmallest(
                2, ((total + scatter[t, e], cps + (t,)) for t in best if t <= e - min_len for total, cps in best[t])
            )
            for e in range(i * min_len, n + 1)
        }
        optima.append([(total, cps[1:]) for total, cps in best[n]])
    return optima


def integer_shots(rng, n, d):
    """Small-integer features: shots of repeated rows, some copied exactly, so real ties occur."""
    cuts = np.sort(rng.choice(np.arange(4, n - 3), size=int(rng.integers(3, 7)), replace=False))
    bases = rng.integers(-3, 4, size=(len(cuts) + 1, d))
    values = np.repeat(bases, np.diff([0, *cuts, n]), axis=0)
    values += rng.integers(-1, 2, size=(n, d)) * (rng.random((n, 1)) < 0.3)  # a few rows off their shot
    return values


@pytest.mark.parametrize("seed", range(8))
def test_float_dp_is_within_its_margin_of_the_exact_optimum(seed):
    rng = np.random.default_rng(300 + seed)
    n, d, min_len = int(rng.integers(60, 121)), int(rng.integers(1, 4)), 1 + seed % 3
    values = integer_shots(rng, n, d)
    gram = compute_gram(FeatureSequence(values=values.astype(np.float64)))
    scatter = exact_scatters(values)
    margin = Fraction(16 * (n + 1) ** 2 * np.finfo(np.float64).eps * gram.trace)  # _solve_rows' margin
    # Blocks of 3 ends, so blocks and pruning both run many times.
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 3):
        segs = solve_range(gram, range(1, 7), min_len)
        segs += [solve_fixed(gram, m, min_len) for m in (2, 4, 6)]
    optima = exact_optima(scatter, n, 6, min_len)
    for seg in segs:
        (least, cps), *runner_up = optima[seg.m]
        got = sum((scatter[a, b] for a, b in seg.segment_bounds()), Fraction(0))
        assert least <= got <= least + margin, (seg.m, seg.change_points)
        if not runner_up or runner_up[0][0] > least + margin:  # no other placement is within the margin
            assert seg.change_points == cps


# ---------------------------------------------------------------------------
# Synthetic generator


def base_config(**overrides):
    params = dict(
        n=40, d=4, segment_count=4, mean_separation=3.0, noise_sigma=0.5, seed=11
    )
    params.update(overrides)
    return SynthConfig(**params)


def test_generator_is_bit_deterministic():
    a = generate(base_config())
    b = generate(base_config())
    assert np.array_equal(a.features.values, b.features.values)
    assert a.true_change_points == b.true_change_points


def test_generator_zero_noise_is_piecewise_constant_and_recoverable():
    inst = generate(base_config(noise_sigma=0.0))
    values = inst.features.values
    bounds = (0, *inst.true_change_points, inst.features.n)
    for a, b in zip(bounds[:-1], bounds[1:]):
        assert (values[a:b] == values[a]).all()
    seg = solve_fixed(gram_for(values), 4)
    assert seg.change_points == inst.true_change_points


def test_generator_seeds_give_distinct_placements():
    placements = {
        generate(base_config(n=120, segment_count=5, seed=s)).true_change_points
        for s in range(20)
    }
    assert len(placements) == 20


def test_generator_respects_min_segment_length():
    for seed in range(10):
        inst = generate(base_config(n=60, segment_count=5, seed=seed, min_segment_length=7))
        bounds = (0, *inst.true_change_points, 60)
        assert all(b - a >= 7 for a, b in zip(bounds[:-1], bounds[1:]))


def test_generator_mean_separation_honored():
    inst = generate(base_config(noise_sigma=0.0, mean_separation=2.5))
    bounds = (0, *inst.true_change_points, inst.features.n)
    means = np.array([inst.features.values[a] for a, _ in zip(bounds[:-1], bounds[1:])])
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.linalg.norm(means[i] - means[j]) >= 2.5 - 1e-12


def test_generator_infeasible_configs():
    with pytest.raises(InfeasibleConfigError):
        base_config(segment_count=41)
    with pytest.raises(InfeasibleConfigError):
        base_config(segment_count=9, d=4)  # needs d >= 8 for separated means
    with pytest.raises(InfeasibleConfigError):
        base_config(noise_sigma=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(InfeasibleConfigError, match="finite"):
            base_config(noise_sigma=bad)
        with pytest.raises(InfeasibleConfigError, match="finite"):
            base_config(mean_separation=bad)
    with pytest.raises(InfeasibleConfigError):
        base_config(n=20, segment_count=5, min_segment_length=5)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n": 0}, "need n >= 1 and d >= 1"),
        ({"d": 0}, "need n >= 1 and d >= 1"),
        ({"segment_count": 0}, "segment count and minimum segment length must be >= 1"),
        ({"min_segment_length": 0}, "segment count and minimum segment length must be >= 1"),
        ({"seed": -1}, "seed must fit in an unsigned 64-bit integer"),
        ({"seed": 2**64}, "seed must fit in an unsigned 64-bit integer"),
    ],
)
def test_generator_refuses_sizes_and_seeds_out_of_range(overrides, message):
    with pytest.raises(InfeasibleConfigError, match=message):
        base_config(**overrides)


@pytest.mark.parametrize("separation, sigma", [(3.0, 1e308), (1.7e308, 1e308)])
def test_generator_overflow_raises_without_a_warning(separation, sigma):
    # Warnings are errors in this suite, so an overflow warning on the way fails too.
    with pytest.raises(InfeasibleConfigError, match="overflow"):
        generate(base_config(mean_separation=separation, noise_sigma=sigma))


def test_generator_high_snr_recovery_seed_42():
    # Frozen expectation, verified by running the generator and solver:
    # at separation 5 sigma the fixed-m solve lands within one candidate
    # of every planted boundary (here it is exact).
    config = SynthConfig(
        n=200, d=16, segment_count=5, mean_separation=5.0, noise_sigma=1.0, seed=42
    )
    inst = generate(config)
    seg = solve_fixed(gram_for(inst.features.values), 5)
    assert inst.true_change_points == (40, 44, 56, 138)
    deviations = [abs(p - t) for p, t in zip(seg.change_points, inst.true_change_points)]
    assert max(deviations) <= 1
    assert seg.change_points == (40, 44, 56, 138)


# ---------------------------------------------------------------------------
# Boundary metrics


def test_metrics_one_match_within_tolerance():
    m = boundary_metrics([10, 20], [11, 40], 2)
    assert (m.precision, m.recall, m.f1) == (0.5, 0.5, 0.5)
    assert m.matched_count == 1


def test_metrics_perfect_match():
    m = boundary_metrics([5, 9, 14], [5, 9, 14], 0)
    assert m.f1 == 1.0


def test_metrics_one_to_one_matching():
    m = boundary_metrics([5, 6], [5], 1)
    assert m.matched_count == 1
    assert m.precision == 0.5
    assert m.recall == 1.0
    assert m.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_metrics_nearest_first():
    # 7 is closer to truth 8 than 5 is; greedy must give 8 to prediction 7.
    m = boundary_metrics([5, 7], [8], 3)
    assert m.matched_count == 1
    assert m.recall == 1.0


def test_metrics_empty_cases():
    both = boundary_metrics([], [], 2)
    assert (both.precision, both.recall, both.f1) == (1.0, 1.0, 1.0)
    nothing_predicted = boundary_metrics([], [4], 2)
    assert nothing_predicted.recall == 0.0
    assert nothing_predicted.f1 == 0.0


def test_metrics_unsorted_input():
    with pytest.raises(UnsortedInputError):
        boundary_metrics([5, 5], [1], 0)
    with pytest.raises(UnsortedInputError):
        boundary_metrics([5], [3, 1], 0)


def test_metrics_refuse_fractional_boundaries():
    # Truncated, [1.5, 2.5] would be scored as [1, 2].
    with pytest.raises(TypeError):
        boundary_metrics([1.5, 2.5], [2], 0)
    assert boundary_metrics(np.array([1, 2]), [2], 0).matched_count == 1


def test_metrics_refuse_a_fractional_tolerance():
    # Truncated, 1.5 would score and report tolerance 1.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        boundary_metrics([5], [6], 1.5)
    assert boundary_metrics([5], [6], np.int64(1)).tolerance == 1


def test_metrics_refuse_a_negative_tolerance():
    with pytest.raises(InvariantViolationError, match="tolerance must be nonnegative, got -1"):
        boundary_metrics([5], [5], -1)


@given(
    pred=st.sets(st.integers(1, 60), max_size=8),
    truth=st.sets(st.integers(1, 60), max_size=8),
    tol=st.integers(0, 5),
)
@settings(max_examples=100, deadline=None)
def test_metrics_bounds_and_identity(pred, truth, tol):
    m = boundary_metrics(sorted(pred), sorted(truth), tol)
    assert 0.0 <= m.precision <= 1.0
    assert 0.0 <= m.recall <= 1.0
    assert 0.0 <= m.f1 <= 1.0
    exact = boundary_metrics(sorted(pred), sorted(pred), tol)
    assert exact.f1 == 1.0


@given(
    pred=st.sets(st.integers(0, 80), max_size=30),
    truth=st.sets(st.integers(0, 80), max_size=30),
    tol=st.integers(0, 12),
)
@settings(max_examples=200, deadline=None)
def test_metrics_match_all_pairs_greedy_matching(pred, truth, tol):
    pred, truth = sorted(pred), sorted(truth)
    # Every (prediction, truth) pair within tolerance, nearest first, then by index.
    pairs = sorted(
        (abs(p - t), pi, ti)
        for pi, p in enumerate(pred)
        for ti, t in enumerate(truth)
        if abs(p - t) <= tol
    )
    used_pred, used_true = set(), set()
    for _, pi, ti in pairs:
        if pi not in used_pred and ti not in used_true:
            used_pred.add(pi)
            used_true.add(ti)
    matched = len(used_pred)
    precision = matched / len(pred) if pred else 1.0
    recall = matched / len(truth) if truth else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    m = boundary_metrics(pred, truth, tol)
    assert (m.matched_count, m.precision, m.recall, m.f1) == (matched, precision, recall, f1)


# ---------------------------------------------------------------------------
# Objective comparison


def test_comparison_aligned_blocks():
    comp = objective_comparison(gram_for([[1, 0], [1, 0], [0, 1], [0, 1]]), 2)
    assert comp.kts_objective == 0.0
    assert comp.uniform_objective == 0.0


def test_comparison_misaligned_blocks():
    comp = objective_comparison(gram_for([[1, 0], [1, 0], [1, 0], [0, 1]]), 2)
    assert comp.kts_objective == 0.0
    assert comp.uniform_objective == pytest.approx(1.0, abs=1e-12)


def test_comparison_refuses_an_objective_above_the_uniform_split():
    gather = metrics._uniform_gather(compute_gram(FeatureSequence(values=[[1, 0], [1, 0], [1, 0], [0, 1]])), [2])
    for _ in gather.blocks():
        pass
    seg = segmentation.Segmentation(n=4, change_points=(1,), objective=2.0)
    with pytest.raises(RuntimeError, match=r"^optimal objective 2\.0 exceeds uniform split 1\.0; solver bug$"):
        metrics._against_uniform([seg], gather)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_comparison_never_worse_than_uniform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    gram = gram_for(rng.standard_normal((n, 3)))
    m = int(rng.integers(1, n + 1))
    comp = objective_comparison(gram, m)
    assert comp.kts_objective <= comp.uniform_objective
