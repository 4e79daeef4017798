"""Core solver tests: Gram matrices, both scatter sources, and the DP solves."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktseg import (
    FeatureSequence,
    IndexOutOfRangeError,
    InfeasibleSegmentCountError,
    InvariantViolationError,
    KernelSpec,
    KtsError,
    NonPositivePenaltyWeightError,
    PrecisionLossError,
    Segmentation,
    SynthConfig,
    TooManyCandidatesError,
    ZeroNormRowError,
    brute_force,
    build_variance_table,
    compute_gram,
    generate,
    placement_objective,
    segment_count_penalty,
    solve_auto,
    solve_fixed,
    solve_range,
    stream_scatter,
)
from ktseg import segmentation

TWO_BLOCKS = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
STEPS_1D = [[0.0], [1.0], [5.0], [6.0], [10.0], [11.0]]


def table_for(values, kernel=None):
    return build_variance_table(compute_gram(FeatureSequence(values=values), kernel))


def direct_scatter(values, a, b):
    """Independent window oracle: squared deviations from the window mean."""
    window = np.asarray(values, dtype=np.float64)[a:b]
    return float(((window - window.mean(axis=0)) ** 2).sum())


def gram_window_scatter(gram, a, b):
    """Second independent oracle, straight off the Gram matrix block."""
    block = gram[a:b, a:b]
    return float(np.trace(block) - block.sum() / (b - a))


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_orthonormal_rows():
    # The dot kernel compares rows centred by their column mean [0.5, 0.5].
    g = compute_gram(FeatureSequence(values=[[1.0, 0.0], [0.0, 1.0]]))
    assert g.entries.tolist() == [[0.5, -0.5], [-0.5, 0.5]]


def test_gram_cosine_self_similarity():
    g = compute_gram(FeatureSequence(values=[[3.0, 4.0]]), KernelSpec(kind="cosine"))
    assert g.entries.tolist() == [[1.0]]


def test_gram_duplicated_rows_block_structure():
    g = compute_gram(FeatureSequence(values=TWO_BLOCKS))
    expected = [[1, 1, -1, -1], [1, 1, -1, -1], [-1, -1, 1, 1], [-1, -1, 1, 1]]
    assert (2.0 * g.entries).tolist() == expected


def test_gram_is_exactly_symmetric():
    rng = np.random.default_rng(5)
    g = compute_gram(FeatureSequence(values=rng.standard_normal((40, 7))))
    assert np.array_equal(g.entries, g.entries.T)


def test_gram_cosine_rejects_zero_rows():
    feats = FeatureSequence(values=[[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ZeroNormRowError, match="row 1"):
        compute_gram(feats, KernelSpec(kind="cosine"))
    with pytest.raises(ZeroNormRowError, match="row 1"):
        stream_scatter(feats, KernelSpec(kind="cosine"))


def test_gram_candidate_cap():
    feats = FeatureSequence(values=np.ones((5, 2)))
    with pytest.raises(TooManyCandidatesError):
        compute_gram(feats, max_candidates=4)
    with pytest.raises(TooManyCandidatesError):
        stream_scatter(feats, max_candidates=4)
    compute_gram(feats, max_candidates=5)
    stream_scatter(feats, max_candidates=5)


def test_gram_rbf_entries_in_unit_interval():
    rng = np.random.default_rng(6)
    feats = FeatureSequence(values=rng.standard_normal((12, 3)))
    g = compute_gram(feats, KernelSpec(kind="rbf", bandwidth=1.5))
    assert (g.entries > 0).all() and (g.entries <= 1).all()
    assert np.diagonal(g.entries).tolist() == [1.0] * 12


def test_kernel_spec_validation():
    with pytest.raises(InvariantViolationError):
        KernelSpec(kind="rbf")
    with pytest.raises(InvariantViolationError):
        KernelSpec(kind="rbf", bandwidth=0.0)
    with pytest.raises(InvariantViolationError):
        KernelSpec(kind="poly")
    assert KernelSpec.from_tag("rbf:2.5") == KernelSpec(kind="rbf", bandwidth=2.5)
    assert KernelSpec.from_tag("cosine").tag == "cosine"


def test_feature_sequence_validation():
    with pytest.raises(InvariantViolationError):
        FeatureSequence(values=[[1.0, float("nan")]])
    with pytest.raises(InvariantViolationError):
        FeatureSequence(values=np.empty((0, 3)))
    feats = FeatureSequence(values=[[1.0], [2.0]])
    assert feats.n == 2 and feats.d == 1


# ---------------------------------------------------------------------------
# Scatter table


def test_variance_two_block_windows():
    table = table_for(TWO_BLOCKS)
    assert table.var(0, 2) == 0.0
    assert table.var(2, 4) == 0.0
    assert table.var(0, 4) == pytest.approx(2.0, abs=1e-12)


def test_variance_1d_steps():
    table = table_for(STEPS_1D)
    assert table.var(0, 3) == pytest.approx(14.0, abs=1e-9)  # 26 - 36/3
    assert table.var(3, 6) == pytest.approx(14.0, abs=1e-9)  # 257 - 729/3
    assert table.var(0, 2) == pytest.approx(0.5, abs=1e-12)  # 1 - 1/2


def test_single_frame_windows_are_exactly_zero():
    rng = np.random.default_rng(7)
    table = table_for(rng.standard_normal((30, 4)))
    for a in range(30):
        assert table.var(a, a + 1) == 0.0


def test_var_window_bounds():
    table = table_for(TWO_BLOCKS)
    for a, b in ((-1, 2), (2, 2), (3, 1), (0, 5)):
        with pytest.raises(IndexOutOfRangeError):
            table.var(a, b)


def test_var_values_nonnegative():
    rng = np.random.default_rng(8)
    table = table_for(rng.standard_normal((50, 6)))
    assert (table.var_matrix >= 0.0).all()


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_direct_feature_evaluation(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 40))
    d = int(rng.integers(1, 6))
    values = rng.standard_normal((n, d))
    table = table_for(values)
    for a in range(n):
        for b in range(a + 1, n + 1):
            expected = direct_scatter(values, a, b)
            assert table.var(a, b) == pytest.approx(expected, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=2.0)])
def test_table_matches_direct_gram_evaluation(kernel):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((25, 5)) + 0.5
    gram = compute_gram(FeatureSequence(values=values), kernel)
    table = build_variance_table(gram)
    for a in range(0, 25, 3):
        for b in range(a + 1, 26, 4):
            expected = gram_window_scatter(gram.entries, a, b)
            assert table.var(a, b) == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_precision_loss_raises_from_both_sources():
    feats = FeatureSequence(values=np.random.default_rng(9).standard_normal((40, 4)) * 1e4)
    with pytest.raises(PrecisionLossError) as dense:
        build_variance_table(compute_gram(feats))
    with pytest.raises(PrecisionLossError):
        solve_fixed(stream_scatter(feats), 2)
    assert isinstance(dense.value, KtsError) and isinstance(dense.value, FloatingPointError)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
@pytest.mark.parametrize(
    "kernel", [KernelSpec(), KernelSpec(kind="rbf", bandwidth=1.0), KernelSpec(kind="cosine")]
)
def test_kernel_overflow_raises_from_both_sources(scale, kernel):
    # Warnings are errors in this suite, so an overflow warning on the way fails too.
    feats = FeatureSequence(values=np.random.default_rng(10).standard_normal((50, 4)) * scale)
    with pytest.raises(PrecisionLossError, match="overflow"):
        build_variance_table(compute_gram(feats, kernel))
    with pytest.raises(PrecisionLossError, match="overflow"):
        solve_fixed(stream_scatter(feats, kernel), 2)


def test_precision_check_rejects_nan():
    with pytest.raises(PrecisionLossError):
        segmentation._check_precision(np.array([[0.0, np.nan], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Streaming source against the dense reference


@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    min_len=st.integers(1, 4),
    # 8 bytes forces one end index per block; 512 a few per block at these n.
    block_bytes=st.sampled_from([8, 512, 4 * 2**20]),
)
@settings(max_examples=120, deadline=None)
def test_stream_matches_dense_reference(seed, kernel, min_len, block_bytes):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_len, 40))
    feats = FeatureSequence(values=rng.standard_normal((n, int(rng.integers(1, 6)))))
    ms = range(1, n // min_len + 1)
    with mock.patch.object(segmentation, "_BLOCK_BYTES", block_bytes):
        streamed = solve_range(stream_scatter(feats, kernel), ms, min_len)
        dense = solve_range(build_variance_table(compute_gram(feats, kernel)), ms, min_len)
    for got, want in zip(streamed, dense):
        assert got.change_points == want.change_points
        assert abs(got.objective - want.objective) <= 1e-9


class RecordedWidth:
    """Scatter source wrapper that remembers the block width the DP asked for."""

    def __init__(self, source):
        self.source, self.n, self.trace = source, source.n, source.trace

    def blocks(self, width):
        self.width = width
        return self.source.blocks(width)


def full_square_rows(source, m_max, min_len, width):
    """Reference DP: every start at every end, over the source's own blocks."""
    n = source.n
    var = np.full((n + 1, n + 1), np.inf)  # var[t, e]; inf where t > e - min_len
    for e0, v in source.blocks(width):
        for j, row in enumerate(v):
            k = max(e0 + j - min_len + 1, 0)
            var[:k, e0 + j] = row[:k]
    cost = np.full((m_max + 1, n + 1), np.inf)
    back = np.zeros((m_max + 1, n + 1), dtype=np.int32)
    cost[1] = var[0]
    for i in range(2, m_max + 1):
        for e in range(n + 1):
            cand = cost[i - 1] + var[:, e]
            back[i, e] = np.argmin(cand)
            cost[i, e] = cand[back[i, e]]
    return cost, back


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["planted", "constant", "noise"]),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    dense=st.booleans(),
    min_len=st.integers(1, 4),
    # 8 bytes forces one end index per block; 2048 a few per block at these n.
    block_bytes=st.sampled_from([8, 2048, 4 * 2**20]),
)
@settings(max_examples=150, deadline=None)
def test_pruned_dp_matches_full_square_reference(seed, shape, kernel, dense, min_len, block_bytes):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(min_len, 60)), int(rng.integers(1, 6))
    if shape == "constant":
        values = np.full((n, d), rng.normal())
    else:
        values = rng.normal(scale=0.5 if shape == "noise" else 0.1, size=(n, d))
        if shape == "planted":
            labels = np.sort(rng.integers(0, 6, n))
            values += rng.normal(scale=3.0, size=(6, d))[labels]
    feats = FeatureSequence(values=values)
    source = build_variance_table(compute_gram(feats, kernel)) if dense else stream_scatter(feats, kernel)
    recorded = RecordedWidth(source)
    m_max = int(rng.integers(1, n // min_len + 1))
    with mock.patch.object(segmentation, "_BLOCK_BYTES", block_bytes):
        cost, back = segmentation._solve_rows(recorded, m_max, min_len)
    want_cost, want_back = full_square_rows(source, m_max, min_len, recorded.width)
    assert np.array_equal(cost, want_cost)
    assert np.array_equal(back, want_back)


def test_streaming_solve_holds_less_than_one_dense_array():
    feats = FeatureSequence(values=np.random.default_rng(12).standard_normal((3000, 8)))
    tracemalloc.start()
    try:
        seg = solve_fixed(stream_scatter(feats), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seg.m == 8
    assert peak < 3001**2 * 8, f"streaming solve peaked at {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# Fixed-m solve


def test_solve_fixed_two_blocks():
    seg = solve_fixed(table_for(TWO_BLOCKS), 2)
    assert seg.change_points == (2,)
    assert seg.objective == 0.0
    assert seg.penalty == 0.0


def test_solve_fixed_single_segment():
    table = table_for(STEPS_1D)
    seg = solve_fixed(table, 1)
    assert seg.change_points == ()
    assert seg.objective == table.var(0, 6)


def test_solve_fixed_leftmost_tie_break():
    # Splits at 2 and 4 both cost 26.5; the leftmost must win.
    seg = solve_fixed(table_for(STEPS_1D), 2)
    assert seg.change_points == (2,)
    assert seg.objective == pytest.approx(26.5, abs=1e-9)


def test_solve_fixed_exhausts_all_splits():
    table = table_for(STEPS_1D)
    best = min(
        placement_objective(table, (t,)) for t in range(1, 6)
    )
    assert solve_fixed(table, 2).objective == pytest.approx(best, abs=1e-12)


def test_solve_fixed_infeasible():
    table = table_for(TWO_BLOCKS)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_fixed(table, 5)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_fixed(table, 0)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_fixed(table, 3, min_segment_length=2)


def test_solve_fixed_min_segment_length():
    rng = np.random.default_rng(21)
    table = table_for(rng.standard_normal((17, 3)))
    seg = solve_fixed(table, 5, min_segment_length=3)
    bounds = (0, *seg.change_points, 17)
    assert all(b - a >= 3 for a, b in zip(bounds[:-1], bounds[1:]))


def test_solve_range_matches_individual_solves():
    rng = np.random.default_rng(22)
    table = table_for(rng.standard_normal((20, 3)))
    ms = [1, 3, 7, 10]
    for seg, m in zip(solve_range(table, ms), ms):
        single = solve_fixed(table, m)
        assert seg.change_points == single.change_points
        assert seg.objective == single.objective


# ---------------------------------------------------------------------------
# Auto-m solve


def test_solve_auto_two_blocks_worked_example():
    table = table_for(TWO_BLOCKS)
    seg = solve_auto(table, 4, penalty_weight=1.0)
    assert seg.m == 2
    assert seg.change_points == (2,)
    assert seg.objective == 0.0
    assert seg.penalty == pytest.approx(2 * math.log(1.5), abs=1e-12)
    # Reconstruct the full selection curve independently: the split costs
    # are 2, 0, 0, 0 and the penalty is m*ln(m/4 + 1).
    totals = [
        solve_fixed(table, m).objective + segment_count_penalty(m, 4)
        for m in (1, 2, 3, 4)
    ]
    expected = [
        2.0 + math.log(1.25),
        2.0 * math.log(1.5),
        3.0 * math.log(1.75),
        4.0 * math.log(2.0),
    ]
    assert totals == pytest.approx(expected, abs=1e-9)
    assert int(np.argmin(totals)) + 1 == 2


def test_solve_auto_constant_features_collapse_to_one():
    table = table_for(np.ones((9, 3)))
    seg = solve_auto(table, 9, penalty_weight=1.0)
    assert seg.m == 1
    assert seg.change_points == ()


def test_penalty_formula():
    assert segment_count_penalty(2, 4) == pytest.approx(0.810930216, abs=1e-9)
    assert segment_count_penalty(3, 6, weight=2.0) == pytest.approx(6 * math.log(1.5), abs=1e-12)


def test_solve_auto_rejects_bad_weight():
    table = table_for(TWO_BLOCKS)
    for weight in (0.0, -1.0):
        with pytest.raises(NonPositivePenaltyWeightError):
            solve_auto(table, 2, penalty_weight=weight)


def test_solve_auto_clamps_m_max_to_what_fits():
    rng = np.random.default_rng(24)
    source = stream_scatter(FeatureSequence(values=rng.standard_normal((20, 3))))
    assert solve_auto(source, 32) == solve_auto(source, 20)
    assert solve_auto(source, 32, min_segment_length=3) == solve_auto(source, 6, min_segment_length=3)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_auto(source, 0)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_auto(source, 4, min_segment_length=21)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["planted", "constant", "noise"]),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    dense=st.booleans(),
    min_len=st.integers(1, 3),
    weight=st.sampled_from([1e-3, 0.5, 1.0, 4.0]),
    zero_penalty=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_solve_auto_is_first_minimiser_over_solve_range(
    seed, shape, kernel, dense, min_len, weight, zero_penalty
):
    # A zero penalty on constant features ties every m; the smallest must win.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(min_len, 40)), int(rng.integers(1, 4))
    if shape == "constant":
        values = np.full((n, d), rng.normal())
    else:
        values = rng.normal(scale=0.5 if shape == "noise" else 0.1, size=(n, d))
        if shape == "planted":
            values += rng.normal(scale=3.0, size=(5, d))[np.sort(rng.integers(0, 5, n))]
    feats = FeatureSequence(values=values)
    source = build_variance_table(compute_gram(feats, kernel)) if dense else stream_scatter(feats, kernel)
    m_max = int(rng.integers(1, n + 3))
    penalty = (lambda m, n, weight: 0.0) if zero_penalty else segment_count_penalty
    with mock.patch.object(segmentation, "segment_count_penalty", penalty):
        auto = solve_auto(source, m_max, weight, min_len)
    curve = solve_range(source, range(1, min(m_max, n // min_len) + 1), min_len)
    totals = [seg.objective + penalty(seg.m, n, weight) for seg in curve]
    best = curve[totals.index(min(totals))]
    assert (auto.m, auto.change_points, auto.objective) == (best.m, best.change_points, best.objective)
    assert (auto.penalty, auto.penalty_weight) == (penalty(best.m, n, weight), weight)


def test_solve_auto_penalty_fields():
    rng = np.random.default_rng(23)
    table = table_for(rng.standard_normal((12, 2)))
    seg = solve_auto(table, 6, penalty_weight=3.5)
    assert seg.penalty_weight == 3.5
    assert seg.penalty == pytest.approx(segment_count_penalty(seg.m, 12, 3.5), abs=1e-12)
    assert seg.objective == solve_fixed(table, seg.m).objective


# ---------------------------------------------------------------------------
# Invariants and properties


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_oracle_equivalence_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    d = int(rng.integers(1, 5))
    m = int(rng.integers(1, min(4, n) + 1))
    table = table_for(rng.standard_normal((n, d)))
    dp = solve_fixed(table, m)
    bf = brute_force(table, m)
    assert dp.change_points == bf.change_points
    assert abs(dp.objective - bf.objective) <= 1e-9


def test_oracle_equivalence_on_full_tie():
    # Constant features tie every placement; both sides must pick [1..m-1].
    table = table_for(np.full((7, 2), 3.0))
    for m in (2, 3, 5, 7):
        dp = solve_fixed(table, m)
        bf = brute_force(table, m)
        assert dp.change_points == bf.change_points == tuple(range(1, m))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_objective_monotone_and_floor(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    table = table_for(rng.standard_normal((n, 3)))
    objectives = [seg.objective for seg in solve_range(table, range(1, n + 1))]
    for prev, nxt in zip(objectives[:-1], objectives[1:]):
        assert nxt <= prev + 1e-9
    assert objectives[-1] == 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    shift=st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16),
)
@settings(max_examples=25, deadline=None)
def test_change_points_invariant_under_constant_shift(seed, shift):
    # Acceptance-style instance; features far from the origin used to
    # cancel the dot-kernel scatter away.
    values = generate(SynthConfig(n=200, d=16, segment_count=8, mean_separation=0.15,
                                  noise_sigma=0.03, seed=seed, min_segment_length=12)).features.values
    shifted = FeatureSequence(values=values + np.asarray(shift))
    base = FeatureSequence(values=values)
    assert solve_fixed(stream_scatter(shifted), 8).change_points == solve_fixed(stream_scatter(base), 8).change_points
    assert solve_fixed(table_for(shifted.values), 8).change_points == solve_fixed(table_for(values), 8).change_points


def test_scale_equivariance_exact_power_of_two():
    rng = np.random.default_rng(31)
    values = rng.standard_normal((15, 4))
    base = table_for(values)
    scaled = table_for(2.0 * values)
    assert np.array_equal(scaled.var_matrix, 4.0 * base.var_matrix)
    for m in (2, 4, 6):
        assert solve_fixed(scaled, m).change_points == solve_fixed(base, m).change_points


def test_scale_equivariance_generic_constant():
    rng = np.random.default_rng(32)
    values = rng.standard_normal((18, 3))
    base = table_for(values)
    scaled = table_for(1.7 * values)
    np.testing.assert_allclose(scaled.var_matrix, 1.7**2 * base.var_matrix, rtol=1e-9, atol=1e-12)
    for m in (2, 5):
        assert solve_fixed(scaled, m).change_points == solve_fixed(base, m).change_points


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_reversal_mirrors_change_points(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((16, 3))
    fwd = solve_fixed(table_for(values), 4)
    rev = solve_fixed(table_for(values[::-1]), 4)
    assert rev.objective == pytest.approx(fwd.objective, abs=1e-9)
    mirrored = tuple(sorted(16 - t for t in fwd.change_points))
    assert rev.change_points == mirrored


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dominates_uniform_split(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    table = table_for(rng.standard_normal((n, 2)))
    m = int(rng.integers(1, n + 1))
    uniform_cps = tuple((i * n) // m for i in range(1, m))
    assert solve_fixed(table, m).objective <= placement_objective(table, uniform_cps)


def test_segmentation_invariants():
    with pytest.raises(InvariantViolationError):
        Segmentation(n=4, m=2, change_points=(3, 2), objective=0.0)
    with pytest.raises(InvariantViolationError):
        Segmentation(n=4, m=2, change_points=(), objective=0.0)
    with pytest.raises(InvariantViolationError):
        Segmentation(n=4, m=2, change_points=(4,), objective=0.0)
    with pytest.raises(InvariantViolationError):
        Segmentation(n=4, m=2, change_points=(2,), objective=-1.0)
    seg = Segmentation(n=4, m=2, change_points=(2,), objective=0.0)
    assert seg.segment_bounds() == ((0, 2), (2, 4))


def test_types_are_frozen():
    feats = FeatureSequence(values=TWO_BLOCKS)
    with pytest.raises(ValueError):
        feats.values[0, 0] = 9.0
    table = table_for(TWO_BLOCKS)
    with pytest.raises(ValueError):
        table.var_matrix[0, 1] = 9.0
