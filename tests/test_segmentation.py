"""Core solver tests: kernel values, the Gram source against its dense reference, and the DP solves."""

from fractions import Fraction
import math
import re
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktseg import (
    FeatureSequence,
    InfeasibleSegmentCountError,
    InstanceTooLargeError,
    InvariantViolationError,
    KernelSpec,
    KtsError,
    NonFiniteValueError,
    NonPositivePenaltyWeightError,
    PrecisionLossError,
    Segmentation,
    SynthConfig,
    TooManyCandidatesError,
    ZeroNormRowError,
    brute_force,
    compute_gram,
    generate,
    placement_objective,
    segment_count_penalty,
    solve_auto,
    solve_fixed,
    solve_range,
    uniform_change_points,
)
from ktseg import cli, metrics, segmentation

from dense_reference import dense_table, dense_total, gram_for, table_for

TWO_BLOCKS = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
STEPS_1D = [[0.0], [1.0], [5.0], [6.0], [10.0], [11.0]]


def direct_scatter(values, a, b):
    """Independent window oracle: squared deviations from the window mean."""
    window = np.asarray(values, dtype=np.float64)[a:b]
    return float(((window - window.mean(axis=0)) ** 2).sum())


def gram_window_scatter(gram, a, b):
    """Second independent oracle, straight off the Gram matrix block."""
    block = gram[a:b, a:b]
    return float(np.trace(block) - block.sum() / (b - a))


def numpy_gram(values, kernel):
    """The full Gram matrix by plain numpy; the dot scatter ignores centring."""
    x = np.asarray(values, dtype=np.float64)
    if kernel.kind == "cosine":
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
    if kernel.kind == "rbf":
        return np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) / (2 * kernel.bandwidth**2))
    return x @ x.T


def kernel_entries(gram):
    """Every kernel value of a GramMatrix, formed from its rows."""
    return segmentation._kernel_values(gram, slice(None), slice(None))


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_orthonormal_rows():
    # The dot kernel compares rows centred by their column mean [0.5, 0.5].
    g = compute_gram(FeatureSequence(values=[[1.0, 0.0], [0.0, 1.0]]))
    assert kernel_entries(g).tolist() == [[0.5, -0.5], [-0.5, 0.5]]


def test_gram_cosine_self_similarity():
    g = compute_gram(FeatureSequence(values=[[3.0, 4.0]]), KernelSpec(kind="cosine"))
    assert kernel_entries(g).tolist() == [[1.0]]


def test_gram_duplicated_rows_block_structure():
    g = compute_gram(FeatureSequence(values=TWO_BLOCKS))
    expected = [[1, 1, -1, -1], [1, 1, -1, -1], [-1, -1, 1, 1], [-1, -1, 1, 1]]
    assert (2.0 * kernel_entries(g)).tolist() == expected


def test_gram_cosine_rejects_zero_rows():
    feats = FeatureSequence(values=[[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ZeroNormRowError, match="row 2 is all zero"):
        compute_gram(feats, KernelSpec(kind="cosine"))


def test_gram_candidate_cap():
    feats = FeatureSequence(values=np.ones((5, 2)))
    with pytest.raises(TooManyCandidatesError):
        compute_gram(feats, max_candidates=4)
    compute_gram(feats, max_candidates=5)


def test_gram_rbf_entries_in_unit_interval():
    rng = np.random.default_rng(6)
    feats = FeatureSequence(values=rng.standard_normal((12, 3)))
    g = compute_gram(feats, KernelSpec(kind="rbf", bandwidth=1.5))
    entries = kernel_entries(g)
    assert (entries > 0).all() and (entries <= 1).all()
    assert g.diag.tolist() == [1.0] * 12


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)])
def test_gram_forms_its_row_norms_once(kernel):
    # 300 rows: three blocks, the last in two tiles, and rbf split windows of 100 rows.
    values = np.random.default_rng(27).standard_normal((300, 5)) + 3.0
    gram = compute_gram(FeatureSequence(values=values), kernel)
    want = np.einsum("ij,ij->i", gram.rows, gram.rows) if kernel.kind == "dot" else np.ones(gram.n)
    assert np.array_equal(gram.diag, want) and gram.trace == float(want.sum())
    # The norms kept by compute_gram serve every block and every rbf split window.
    with mock.patch.object(segmentation, "np", FailingCall("einsum", 1)):
        assert sum(1 for _ in gram.blocks()) == 3
        if kernel.kind == "rbf":
            segmentation._split_total(gram, (100, 200))


def test_rbf_kernel_values_past_float64_are_zero():
    # d^2 / (2*bw^2) = 5e319 overflows; the kernel value it stands for is 0 in float64.
    feats = FeatureSequence(values=[[0.0], [1e10], [0.0]])
    kernel = KernelSpec(kind="rbf", bandwidth=1e-150)
    assert kernel_entries(compute_gram(feats, kernel)).tolist() == [[1, 0, 1], [0, 1, 0], [1, 0, 1]]
    assert solve_fixed(compute_gram(feats, kernel), 3).change_points == (1, 2)


def test_kernel_spec_validation():
    with pytest.raises(InvariantViolationError):
        KernelSpec(kind="rbf")
    with pytest.raises(InvariantViolationError):
        KernelSpec(kind="rbf", bandwidth=0.0)
    for bandwidth in (1e-300, 1e200):  # 2*bw^2 underflows to 0 or overflows to inf
        with pytest.raises(InvariantViolationError):
            KernelSpec(kind="rbf", bandwidth=bandwidth)
    with pytest.raises(InvariantViolationError):
        KernelSpec(kind="poly")
    assert KernelSpec.from_tag("rbf:2.5") == KernelSpec(kind="rbf", bandwidth=2.5)
    assert KernelSpec.from_tag("cosine").tag == "cosine"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: KernelSpec.from_tag("rbf:x"), "bad rbf bandwidth in kernel tag 'rbf:x'"),
        (lambda: KernelSpec.from_tag("poly"), "unknown kernel tag 'poly'"),
        (lambda: KernelSpec(kind="dot", bandwidth=1.0), "dot kernel takes no bandwidth"),
    ],
    ids=["rbf bandwidth not a number", "unknown tag", "bandwidth on dot"],
)
def test_kernel_spec_refusals(make, message):
    with pytest.raises(InvariantViolationError, match=re.escape(message)):
        make()


def test_feature_sequence_validation():
    with pytest.raises(InvariantViolationError):
        FeatureSequence(values=[[1.0, float("nan")]])
    with pytest.raises(InvariantViolationError):
        FeatureSequence(values=np.empty((0, 3)))
    feats = FeatureSequence(values=[[1.0], [2.0]])
    assert feats.n == 2 and feats.d == 1


def test_feature_sequence_names_the_first_non_finite_value():
    with pytest.raises(NonFiniteValueError, match="non-finite value at row 2, column 2") as info:
        FeatureSequence(values=[[1.0, 2.0], [3.0, float("nan")]])
    assert isinstance(info.value, InvariantViolationError)
    with pytest.raises(NonFiniteValueError, match="row 1, column 3"):  # row-major: row 1 before row 2
        FeatureSequence(values=[[1.0, 2.0, float("inf")], [float("-inf"), 5.0, 6.0]])


# ---------------------------------------------------------------------------
# Scatter table


def test_variance_two_block_windows():
    table = table_for(TWO_BLOCKS)
    assert table[0, 2] == 0.0
    assert table[2, 4] == 0.0
    assert table[0, 4] == pytest.approx(2.0, abs=1e-12)


def test_variance_1d_steps():
    table = table_for(STEPS_1D)
    assert table[0, 3] == pytest.approx(14.0, abs=1e-9)  # 26 - 36/3
    assert table[3, 6] == pytest.approx(14.0, abs=1e-9)  # 257 - 729/3
    assert table[0, 2] == pytest.approx(0.5, abs=1e-12)  # 1 - 1/2


def test_single_frame_windows_are_exactly_zero():
    rng = np.random.default_rng(7)
    table = table_for(rng.standard_normal((30, 4)))
    for a in range(30):
        assert table[a, a + 1] == 0.0


@pytest.mark.parametrize("change_points", [(3, 1), (2, 2), (0,), (4,), (-1, 2), (1, 5)])
def test_placement_objective_refuses_a_bad_placement(change_points):
    # Unsorted, repeated, then out of range: one line naming the placement.
    message = f"change points must increase strictly inside (0, 4), got {list(change_points)}"
    with pytest.raises(KtsError, match=f"^{re.escape(message)}$") as info:
        placement_objective(gram_for(TWO_BLOCKS), change_points)
    assert isinstance(info.value, InvariantViolationError)


def test_var_values_nonnegative():
    rng = np.random.default_rng(8)
    table = table_for(rng.standard_normal((50, 6)))
    assert (table >= 0.0).all()


def stacked_stream_blocks(values, width):
    """The solvers' blocks of ``width`` ends written into one (n+1)^2 array: var[t, e] is the scatter of [t, e)."""
    stream = compute_gram(FeatureSequence(values=values))
    var = np.zeros((stream.n + 1, stream.n + 1))
    with mock.patch.object(segmentation, "_BLOCK_ENDS", width):
        for e0, _, v in stream.blocks():
            var[: e0 + len(v) - 1, e0 : e0 + len(v)] = v.T
    return var


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_direct_feature_evaluation(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 40))
    d = int(rng.integers(1, 6))
    values = rng.standard_normal((n, d))
    table = table_for(values)
    streamed = stacked_stream_blocks(values, 3)  # several blocks, a partial last one for most n
    for a in range(n):
        for b in range(a + 1, n + 1):
            expected = direct_scatter(values, a, b)
            assert table[a, b] == pytest.approx(expected, rel=1e-6, abs=1e-9)
            assert streamed[a, b] == pytest.approx(expected, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=2.0)])
def test_table_matches_direct_gram_evaluation(kernel):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((25, 5)) + 0.5
    gram = numpy_gram(values, kernel)
    table = table_for(values, kernel)
    for a in range(0, 25, 3):
        for b in range(a + 1, 26, 4):
            expected = gram_window_scatter(gram, a, b)
            assert table[a, b] == pytest.approx(expected, rel=1e-6, abs=1e-9)


def jittered_shots(rng, shots, d, rows=10):
    """``shots`` static shots of ``rows`` repeats of one N(0, 1)^d row each, plus 1e-9 jitter.

    Scaled by 1e4, their windows' true scatters sink below the rounding of their
    squared distances, so the scatter guard must raise.
    """
    return np.repeat(rng.standard_normal((shots, d)), rows, axis=0) + 1e-9 * rng.standard_normal((shots * rows, d))


def test_precision_loss_raises_from_both_sources():
    feats = FeatureSequence(values=jittered_shots(np.random.default_rng(9), 4, 4) * 1e4)
    with pytest.raises(PrecisionLossError) as dense:
        dense_table(compute_gram(feats))
    with pytest.raises(PrecisionLossError):
        solve_fixed(compute_gram(feats), 2)
    assert isinstance(dense.value, KtsError) and isinstance(dense.value, FloatingPointError)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_static_shots_segment_into_their_shots(seed, scale):
    # Exact repeats have zero true scatter: within a shot, rounding must stay
    # above the -1e-9 floor however many other shots the input holds.
    shots = np.random.default_rng(seed).standard_normal((30, 512)) * scale
    seg = solve_fixed(compute_gram(FeatureSequence(values=np.repeat(shots, 20, axis=0))), 30)
    assert seg.change_points == tuple(range(20, 600, 20))


def test_window_scatters_are_exact_to_their_own_rows():
    # Large rows ahead of small ones: a window among the small rows must keep
    # the precision of its own rows, not of the whole input's trace.
    rng = np.random.default_rng(12)
    signs = np.array([rng.permutation(np.repeat([1, -1], 30)) for _ in range(3)]).T
    values = np.vstack([1000.0 * signs, rng.uniform(-3.0, 3.0, (60, 3))])
    gram = compute_gram(FeatureSequence(values=values))
    table = dense_table(gram)
    diag = gram.diag
    exact = [[Fraction(v) for v in row] for row in values]
    eps = np.finfo(np.float64).eps
    for a in range(60, 120):
        sums, squares = [Fraction(0)] * 3, Fraction(0)
        for b in range(a + 1, 121):
            sums = [s + v for s, v in zip(sums, exact[b - 1])]
            squares += sum(v * v for v in exact[b - 1])
            want = squares - sum(s * s for s in sums) / (b - a)
            bound = (b - a) * eps * diag[a:b].sum()
            assert abs(Fraction(table[a, b]) - want) <= Fraction(bound), (a, b)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
@pytest.mark.parametrize(
    "kernel", [KernelSpec(), KernelSpec(kind="rbf", bandwidth=1.0), KernelSpec(kind="cosine")]
)
def test_kernel_overflow_raises_from_both_sources(scale, kernel):
    # Warnings are errors in this suite, so an overflow warning on the way fails too.
    feats = FeatureSequence(values=np.random.default_rng(10).standard_normal((50, 4)) * scale)
    with pytest.raises(PrecisionLossError, match="overflow"):
        dense_table(compute_gram(feats, kernel))
    with pytest.raises(PrecisionLossError, match="overflow"):
        solve_fixed(compute_gram(feats, kernel), 2)


def test_precision_check_rejects_nan():
    with pytest.raises(PrecisionLossError):
        segmentation._check_precision(np.array([[0.0, np.nan], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# The dense reference against the streamed blocks


@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    # One end index per block, a few, or one block at these n.
    block_ends=st.sampled_from([1, 3, 128]),
)
@settings(max_examples=120, deadline=None)
def test_table_writes_down_every_streamed_window_bit_for_bit(seed, kernel, block_ends):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    gram = compute_gram(FeatureSequence(values=rng.standard_normal((n, int(rng.integers(1, 6))))), kernel)
    with mock.patch.object(segmentation, "_BLOCK_ENDS", block_ends):
        table = dense_table(gram)
        streamed = np.zeros((n + 1, n + 1))
        for e0, _, v in gram.blocks():
            for j, row in enumerate(v):  # only windows [t, e0 + j) with t < e0 + j are specified
                streamed[: e0 + j, e0 + j] = row[: e0 + j]
    assert table.tobytes() == streamed.tobytes()


def shaped_values(rng, shape, n, d):
    """n x d features: one constant row repeated, i.i.d. noise, or planted segments."""
    if shape == "constant":
        return np.full((n, d), rng.normal())
    values = rng.normal(scale=0.5 if shape == "noise" else 0.1, size=(n, d))
    if shape == "planted":
        labels = np.sort(rng.integers(0, 6, n))
        values += rng.normal(scale=3.0, size=(6, d))[labels]
    return values


def full_square_rows(source, m_max, min_len):
    """Reference DP: every start at every end, over the source's own blocks."""
    n = source.n
    var = np.full((n + 1, n + 1), np.inf)  # var[t, e]; inf where t > e - min_len
    for e0, _, v in source.blocks():
        for j, row in enumerate(v):
            k = max(e0 + j - min_len + 1, 0)
            var[:k, e0 + j] = row[:k]
    cost = np.full((m_max + 1, n + 1), np.inf)
    back = np.zeros((m_max + 1, n + 1), dtype=np.int32)
    cost[0, 0] = 0.0  # row 0: the empty split
    for i in range(1, m_max + 1):
        for e in range(n + 1):
            cand = cost[i - 1] + var[:, e]
            back[i, e] = np.argmin(cand)
            cost[i, e] = cand[back[i, e]]
    return cost, back


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["planted", "constant", "noise"]),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    min_len=st.integers(1, 4),
    # One end index per block (one DP step each), a few, or one block at these n.
    block_ends=st.sampled_from([1, 3, 7, 128]),
    # Every count up to m_max (as solve_auto asks), or a few, with or without the most that fit.
    counts=st.sampled_from(["every", "sparse", "sparse with n // min_len"]),
)
@settings(max_examples=200, deadline=None)
def test_pruned_dp_matches_full_square_reference(seed, shape, kernel, min_len, block_ends, counts):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(min_len, 60)), int(rng.integers(1, 6))
    source = compute_gram(FeatureSequence(values=shaped_values(rng, shape, n, d)), kernel)
    top = n // min_len
    if counts == "every":
        ms = range(1, int(rng.integers(1, top + 1)) + 1)
    else:
        ms = {int(m) for m in rng.integers(1, top + 1, int(rng.integers(1, 5)))}
        if counts.endswith("min_len"):
            ms.add(top)
        ms = rng.permutation(sorted(ms)).tolist()
    with mock.patch.object(segmentation, "_BLOCK_ENDS", block_ends):
        cost, back = segmentation._solve_rows(source, ms, min_len)
        want_cost, want_back = full_square_rows(source, max(ms), min_len)
    if counts == "every":
        assert np.array_equal(cost, want_cost)
        assert np.array_equal(back, want_back)
        return
    # Only what a requested count reads back: cost[m, n] and the backtrack path's cells.
    assert cost[ms, n].tobytes() == want_cost[ms, n].tobytes()
    for m in ms:
        j = n
        for i in range(m, 1, -1):
            assert back[i, j] == want_back[i, j], (m, i, j)
            j = int(want_back[i, j])


def unfused_scatter_blocks(diag, width, kernel_columns):
    """The pair-sum scatter formula written out: full d2 blocks, tril copies and cumulative sums."""
    n = len(diag)
    pairs = np.zeros(n)
    for e0 in range(1, n + 1, width):
        e1 = min(e0 + width, n + 1)
        cols, ends = e1 - 1, np.arange(e0, e1)
        d2 = -2.0 * kernel_columns(e0, cols) + diag[:cols] + diag[e0 - 1 : cols, None]
        inc = np.cumsum(np.tril(d2, e0 - 2)[:, ::-1], axis=1)[:, ::-1]  # sum over t <= s < e - 1
        inc[0] += pairs[:cols]
        np.cumsum(inc, axis=0, out=inc)
        pairs[:cols] = inc[-1]
        raw = inc / np.maximum(ends[:, None] - np.arange(cols), 1)
        yield e0, np.maximum(raw, 0.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["planted", "constant", "noise"]),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    # One end index per block, a few with a partial last block, or one block.
    block_ends=st.sampled_from([1, 3, 128]),
)
@settings(max_examples=150, deadline=None)
def test_stream_blocks_match_unfused_formula_bit_for_bit(seed, shape, kernel, block_ends):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 60)), int(rng.integers(1, 6))
    feats = FeatureSequence(values=shaped_values(rng, shape, n, d))
    gram = compute_gram(feats, kernel)
    # The stream and the formula take a block's kernel columns from one matmul, whose
    # last bits depend on its shape (rows of a full-square Gram can differ), so both
    # use the same width.
    kernel_columns = lambda e0, cols: segmentation._kernel_values(gram, slice(e0 - 1, cols), slice(cols))
    count = 0
    unfused = unfused_scatter_blocks(gram.diag, block_ends, kernel_columns)
    with mock.patch.object(segmentation, "_BLOCK_ENDS", block_ends):
        for (e0, _, got), (want_e0, want) in zip(gram.blocks(), unfused):
            assert e0 == want_e0 and got.shape == want.shape
            for j in range(len(got)):  # only windows [t, e0 + j) with t < e0 + j are specified
                assert np.array_equal(got[j, : e0 + j], want[j, : e0 + j])
            count += 1
    assert count == -(-n // block_ends)


@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    scale=st.floats(-3.0, 2.0).map(lambda k: 10.0**k),
    # One end index per block, a few with a partial last block, or one block.
    block_ends=st.sampled_from([1, 3, 128]),
)
@settings(max_examples=120, deadline=None)
def test_placement_objective_sums_the_dense_windows_bit_for_bit(seed, kernel, scale, block_ends):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 61)), int(rng.integers(1, 6))
    gram = gram_for(rng.standard_normal((n, d)) * scale, kernel)
    cuts = rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False)
    change_points = sorted(int(t) for t in cuts)
    with mock.patch.object(segmentation, "_BLOCK_ENDS", block_ends):
        want = dense_total(dense_table(gram), change_points)
        assert placement_objective(gram, change_points).hex() == want.hex()


@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    # One end index per block, a few with a partial last block, or one block.
    block_ends=st.sampled_from([1, 3, 128]),
)
@settings(max_examples=120, deadline=None)
def test_gathered_totals_match_the_dense_table_bit_for_bit(seed, kernel, block_ends):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 61)), int(rng.integers(1, 6))
    gram = compute_gram(FeatureSequence(values=rng.standard_normal((n, d))), kernel)
    placements = [
        sorted(int(t) for t in rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        for _ in range(int(rng.integers(1, 8)))
    ]
    placements += [(), range(1, n)] + placements[:2]  # the whole input, single frames, and repeats
    with mock.patch.object(segmentation, "_BLOCK_ENDS", block_ends):
        table = dense_table(gram)
        gather = segmentation._WindowGather(gram, placements)
        for _ in gather.blocks():
            pass
    want = [dense_total(table, change_points) for change_points in placements]
    assert [t.hex() for t in gather.totals()] == [t.hex() for t in want]


@pytest.mark.parametrize(
    "placements, want",
    [
        # Every window ending past 256 starts at 256 or later, and past 512 at 512 or later.
        ([(5, 256, 300, 512, 600), (256, 400, 512, 700)], [0, 256, 512]),
        # Windows from 5 and from 300 are still unread after the first and second blocks.
        ([(5, 300, 520), (256, 600)], [0, 0, 256]),
    ],
    ids=["tile-edges", "below-tile-edges"],
)
def test_window_gather_caps_the_start_at_its_lowest_unread_window(placements, want):
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(42).standard_normal((768, 3))))
    table = dense_table(gram)
    starts, scatter_blocks = [], segmentation.GramMatrix.blocks

    def recording(*args):
        for e0, c0, v in scatter_blocks(*args):
            starts.append(c0)
            yield e0, c0, v

    gather = segmentation._WindowGather(gram, placements)
    # Three blocks of 256 ends, under the four that start a worker, so each start is read in time.
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 256):
        with mock.patch.object(segmentation.GramMatrix, "blocks", recording):
            for _ in gather.blocks(lambda: 10**9):  # a consumer that reads no start itself
                pass
    # The lowest start of a window not yet read, capped at the block's last tile edge
    # (0, 256, 512) and rounded down to a tile edge.
    assert starts == want, starts
    assert gather.totals() == [dense_total(table, change_points) for change_points in placements]


def test_window_gather_reads_each_block_before_the_solve_overwrites_it():
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(8).standard_normal((40, 3))))
    # Windows of 1, 2 and 3 frames, and longer ones, across every block.
    placements = [range(1, 40), range(2, 40, 2), range(3, 40, 3), (10, 11, 30), (39,), ()]
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 4):
        table = dense_table(gram)
        gather = segmentation._WindowGather(gram, placements)
        # min_segment_length=4 makes the DP write inf over every window shorter than 4.
        assert solve_range(gather, [3, 5], 4) == solve_range(gram, [3, 5], 4)
    want = [dense_total(table, change_points) for change_points in placements]
    assert [t.hex() for t in gather.totals()] == [t.hex() for t in want]


def test_uniform_comparison_holds_less_than_a_quarter_table():
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(14).standard_normal((3000, 8))))
    tracemalloc.start()
    try:
        comparisons = [metrics.objective_comparison(gram, m) for m in (1, 8, 64)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [c.uniform_objective > 0.0 for c in comparisons] == [True, True, True]
    assert peak < 3001**2 * 8 / 4, f"comparison peaked at {peak / (3001**2 * 8):.2f} tables"


def test_objective_comparison_reads_the_uniform_windows_off_its_solve():
    n, passes = 60, []
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(15).standard_normal((n, 3))))
    scatter_blocks = segmentation.GramMatrix.blocks

    def counted(*args):
        passes.append(args)
        return scatter_blocks(*args)

    with mock.patch.object(segmentation, "_BLOCK_ENDS", 7):
        table = dense_table(gram)
        for m in (1, 4, 9, n):
            passes.clear()
            with mock.patch.object(segmentation.GramMatrix, "blocks", counted):
                comparison = metrics.objective_comparison(gram, m)
            assert len(passes) == 1, "the uniform windows must be read off the solve's own pass"
            want = dense_total(table, uniform_change_points(n, m))
            assert "%.17g" % comparison.uniform_objective == "%.17g" % want
            assert comparison.kts_objective == solve_fixed(gram, m).objective
    assert comparison == (0.0, 0.0)  # m = n: every frame its own window


SOLVERS = pytest.mark.parametrize(
    "solve",
    [
        lambda s: solve_fixed(s, 2),
        lambda s: solve_auto(s, 4),
        lambda s: metrics.objective_comparison(s, 4),
    ],
    ids=["solve_fixed", "solve_auto", "objective_comparison"],
)


@SOLVERS
def test_precision_loss_in_a_later_block_surfaces_unchanged(solve):
    baseline = threading.active_count()
    rng = np.random.default_rng(9)
    values = rng.standard_normal((40, 4))
    values[20:] = jittered_shots(rng, 2, 4) * 1e4
    stream = compute_gram(FeatureSequence(values=values))
    passed = []
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 4):
        with pytest.raises(PrecisionLossError):
            for e0, _, _ in stream.blocks():
                passed.append(e0)
        assert len(passed) == 5  # blocks of ends up to 20 are fine; the error comes from a later one
        with pytest.raises(PrecisionLossError):
            solve(stream)
    assert_workers_joined(baseline)


@SOLVERS
def test_worker_exception_is_reraised_unchanged(solve):
    baseline = threading.active_count()
    boom, threads, kernel_values = RuntimeError("kernel block 3"), [], segmentation._kernel_values

    def failing(*args, **kwargs):
        threads.append(threading.current_thread())
        if len(threads) == 3:
            raise boom
        return kernel_values(*args, **kwargs)

    stream = compute_gram(FeatureSequence(values=np.random.default_rng(2).standard_normal((40, 2))))
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 4):
        with mock.patch.object(segmentation, "_kernel_values", failing):
            with pytest.raises(RuntimeError) as raised:
                solve(stream)
    assert raised.value is boom
    assert threads[2] is not threading.current_thread()  # the columns were computed on the worker
    assert_workers_joined(baseline)


def assert_workers_joined(baseline):
    for thread in threading.enumerate():
        if thread.name.startswith("ktseg-scatter"):
            thread.join(timeout=10)
            assert not thread.is_alive(), f"{thread.name} still running"
    assert threading.active_count() == baseline


class FailingCall:
    """numpy, except that np.<name> raises on its n-th call (np.add: the DP's row step)."""

    def __init__(self, name, n):
        self.name, self.n, self.calls = name, n, 0

    def __getattr__(self, name):
        if name != self.name:
            return getattr(np, name)

        def failing(*args, **kwargs):
            self.calls += 1
            if self.calls == self.n:
                raise RuntimeError(f"np.{name} failed")
            return getattr(np, name)(*args, **kwargs)

        return failing


def test_dp_failure_mid_stream_joins_the_worker():
    baseline = threading.active_count()
    feats = FeatureSequence(values=np.random.default_rng(3).standard_normal((60, 3)))
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 4):
        with mock.patch.object(segmentation, "np", FailingCall("add", 20)):
            with pytest.raises(RuntimeError, match="np.add failed"):
                solve_fixed(compute_gram(feats), 5)
    assert_workers_joined(baseline)


def test_gather_failure_mid_stream_joins_the_worker():
    baseline = threading.active_count()
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(3).standard_normal((60, 3))))
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 4):
        with mock.patch.object(segmentation, "np", FailingCall("searchsorted", 3)):
            # The held traceback keeps the gatherer's frame, so only closing the pass stops the worker.
            with pytest.raises(RuntimeError, match="np.searchsorted failed") as raised:
                solve_fixed(segmentation._WindowGather(gram, [()]), 5)
    assert_workers_joined(baseline)
    assert raised.traceback


def test_single_block_solve_starts_no_thread():
    feats = FeatureSequence(values=np.random.default_rng(4).standard_normal((200, 3)))
    with mock.patch.object(threading, "Thread", side_effect=AssertionError("thread started")):
        assert solve_auto(compute_gram(feats), 8).m >= 1


def test_block_readers_outside_a_solve_start_no_thread():
    # Four full blocks, where a solve prefetches its pass: every other reader runs on the calling thread.
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(4).standard_normal((512, 2))))
    gather = segmentation._WindowGather(gram, [(), (100, 300)])
    with mock.patch.object(threading, "Thread", side_effect=AssertionError("thread started")):
        ends = [e0 for e0, _, _ in gram.blocks()]
        for _ in gather.blocks():
            pass
        table = dense_table(gram)
    assert ends == list(range(1, 513, 128))
    assert gather.totals() == [table[0, 512], dense_total(table, (100, 300))]


@pytest.mark.parametrize("n, workers", [(511, 0), (512, 1)])
def test_worker_starts_at_four_full_blocks(n, workers):
    started, start = [], threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    feats = FeatureSequence(values=np.random.default_rng(5).standard_normal((n, 2)))
    with mock.patch.object(threading.Thread, "start", recording):
        assert solve_fixed(compute_gram(feats), 2).m == 2
    assert [name.startswith("ktseg-scatter") for name in started] == [True] * workers


@pytest.mark.parametrize("d", [8, 256])
@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec(kind="rbf", bandwidth=4.0)])
@pytest.mark.parametrize("n, schedule, want_starts", [
    # Each block's start: the one asked, capped at its last tile edge, rounded down to a tile edge.
    (768, [256] * 6, [0, 0, 0, 256, 256, 256]),
    (768, [0, 0, 256, 300, 600, 768], [0, 0, 0, 256, 256, 512]),
    # A last block shorter than the rest.
    (700, [0, 0, 256, 300, 600, 690], [0, 0, 0, 256, 256, 256]),
])
def test_start_bounded_blocks_equal_the_full_pass_bit_for_bit(d, kernel, n, schedule, want_starts):
    # A late start at a tile edge makes the very matmuls of the full pass, so this holds
    # on any BLAS. Narrower matmuls at any column, aligned or not, need not.
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(d).standard_normal((n, d))), kernel)
    full = [(e0, v.copy()) for e0, _, v in gram.blocks()]
    calls = iter(schedule)
    got = [(e0, c0, v.copy()) for e0, c0, v in gram.blocks(lambda: next(calls))]
    assert [c0 for _, c0, _ in got] == want_starts
    assert [e0 for e0, _, _ in got] == [e0 for e0, _ in full]
    for (e0, c0, v), (_, want) in zip(got, full):
        assert v.tobytes() == np.ascontiguousarray(want[:, c0:]).tobytes(), e0


@given(
    seed=st.integers(0, 2**32 - 1),
    min_len=st.integers(1, 4),
    # One end index per block (one DP step each), a few, or one block at these n.
    block_ends=st.sampled_from([1, 3, 7, 128]),
    late=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_dp_feed_is_the_full_pass_cut_to_its_feasible_starts(seed, min_len, block_ends, late):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    gram = compute_gram(FeatureSequence(values=rng.standard_normal((n, 3))))
    # A rising start bound, or none; tiles of 8 columns let a late start pass column 0 at these n.
    bounds = iter(np.sort(rng.integers(0, n + 1, n)).tolist() if late else [0] * n)
    passed, scatter_blocks = [], segmentation.GramMatrix.blocks

    def recording(*args):
        for e0, c0, v in scatter_blocks(*args):
            passed.append((e0, c0, len(v)))
            yield e0, c0, v

    with mock.patch.multiple(segmentation, _BLOCK_ENDS=block_ends, _TILE=max(block_ends, 8)):
        full = {e0: v.copy() for e0, _, v in gram.blocks()}
        with mock.patch.object(segmentation.GramMatrix, "blocks", recording):
            feed = segmentation._dp_blocks(gram, min_len, lambda: next(bounds))
            fed = [(e0, c0, v.copy()) for e0, c0, v in feed]
    # Skipped: exactly the blocks whose starts all lie at or past stop = e1 - min_len.
    assert [e0 for e0, _, _ in fed] == [e0 for e0, c0, w in passed if e0 + w - min_len > c0]
    for e0, c0, var in fed:
        want = full[e0][:, c0 : e0 + len(var) - min_len].copy()  # trimmed below stop
        ends, starts = np.arange(e0, e0 + len(var))[:, None], np.arange(c0, c0 + want.shape[1])
        want[starts > ends - min_len] = np.inf  # and only there
        assert var.tobytes() == want.tobytes() and var.shape == want.shape, e0


def test_closing_the_dp_feed_after_one_block_stops_its_worker():
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(16).standard_normal((512, 2))))
    scatter = lambda: [t for t in threading.enumerate() if t.name.startswith("ktseg-scatter")]
    feed = segmentation._dp_blocks(gram, 1, lambda: 0)
    assert next(feed)[0] == 1 and len(scatter()) == 1  # four full blocks: a worker forms them
    feed.close()
    assert scatter() == []


def test_scatter_blocks_start_no_thread():
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(6).standard_normal((40, 3))))
    with mock.patch.object(threading, "Thread", side_effect=AssertionError("thread started")):
        with mock.patch.object(segmentation, "_BLOCK_ENDS", 4):
            ends = [e0 for e0, _, _ in gram.blocks()]
    assert ends == list(range(1, 41, 4))


def test_held_block_is_unchanged_after_the_worker_computes_the_next():
    stream = compute_gram(FeatureSequence(values=np.random.default_rng(7).standard_normal((40, 3))))
    produced, finished = {}, {e0: threading.Event() for e0 in range(1, 41, 4)}
    scatter_blocks = segmentation.GramMatrix.blocks

    def recording(*args):
        for e0, c0, raw in scatter_blocks(*args):
            produced[e0] = raw.copy()
            finished[e0].set()  # block e0 is written; the worker yields it next
            yield e0, c0, raw

    seen = []
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 4):
        with mock.patch.object(segmentation.GramMatrix, "blocks", recording):
            blocks = segmentation._prefetched(stream.blocks())
        for e0, _, held in blocks:
            if e0 + 4 in finished:
                assert finished[e0 + 4].wait(10), "the worker did not compute the next block"
            assert np.array_equal(held, produced[e0])
            seen.append(e0)
    assert seen == list(range(1, 41, 4))


def test_prefetched_never_writes_the_held_buffer_under_fast_switching():
    def two_buffers(count):  # item b + 2 reuses the buffer of item b, as the scatter blocks do
        bufs = np.zeros(1), np.zeros(1)
        for b in range(count):
            bufs[b % 2][0] = b
            yield bufs[b % 2]

    def consume(i):
        seen = []
        for held in segmentation._prefetched(two_buffers(300)):
            value = held[0]
            time.sleep(0)  # let the worker run while this item is held
            seen.append(held[0] == value == len(seen))
        results[i] = seen == [True] * 300

    results, interval = {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume, args=(i,)) for i in range(3)]  # six threads with their workers
        for thread in consumers:
            thread.start()
        for thread in consumers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in consumers)
    assert results == {0: True, 1: True, 2: True}


def test_streaming_solve_holds_less_than_one_dense_array():
    feats = FeatureSequence(values=np.random.default_rng(12).standard_normal((3000, 8)))
    tracemalloc.start()
    try:
        seg = solve_fixed(compute_gram(feats), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seg.m == 8
    assert peak < 3001**2 * 8, f"streaming solve peaked at {peak / 2**20:.1f} MiB"


def test_placement_objective_holds_less_than_a_quarter_table():
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(13).standard_normal((2000, 32))))
    tracemalloc.start()
    try:
        total = placement_objective(gram, uniform_change_points(2000, 64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total > 0.0
    assert peak < 2001**2 * 8 / 4, f"placement objective peaked at {peak / (2001**2 * 8):.2f} tables"


# ---------------------------------------------------------------------------
# Fixed-m solve


def test_solve_fixed_two_blocks():
    seg = solve_fixed(gram_for(TWO_BLOCKS), 2)
    assert seg.change_points == (2,)
    assert seg.objective == 0.0
    assert seg.penalty == 0.0


def test_solve_fixed_single_segment():
    seg = solve_fixed(gram_for(STEPS_1D), 1)
    assert seg.change_points == ()
    assert seg.objective == table_for(STEPS_1D)[0, 6]


def test_solve_fixed_leftmost_tie_break():
    # Splits at 2 and 4 both cost 26.5; the leftmost must win.
    seg = solve_fixed(gram_for(STEPS_1D), 2)
    assert seg.change_points == (2,)
    assert seg.objective == pytest.approx(26.5, abs=1e-9)


def test_solve_fixed_exhausts_all_splits():
    gram = gram_for(STEPS_1D)
    best = min(
        placement_objective(gram, (t,)) for t in range(1, 6)
    )
    assert solve_fixed(gram, 2).objective == pytest.approx(best, abs=1e-12)


def test_dp_sum_adds_left_to_right_as_the_dp_does():
    # From Python 3.12 on, sum() compensates float error and returns 1.0000000000000002 here.
    assert segmentation._dp_sum([1.0, 1e-16, 1e-16]) == 1.0


def test_solve_fixed_infeasible():
    gram = gram_for(TWO_BLOCKS)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_fixed(gram, 5)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_fixed(gram, 0)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_fixed(gram, 3, min_segment_length=2)


@pytest.mark.parametrize(
    "solve",
    [
        lambda s: solve_fixed(s, 2, min_segment_length=0),
        lambda s: solve_range(s, [1, 2], min_segment_length=0),
        lambda s: solve_auto(s, 4, min_segment_length=0),
    ],
    ids=["solve_fixed", "solve_range", "solve_auto"],
)
def test_solvers_refuse_a_zero_minimum_segment_length(solve):
    with pytest.raises(InfeasibleSegmentCountError, match="minimum segment length must be >= 1, got 0"):
        solve(compute_gram(FeatureSequence(values=TWO_BLOCKS)))


def test_solve_fixed_min_segment_length():
    rng = np.random.default_rng(21)
    seg = solve_fixed(gram_for(rng.standard_normal((17, 3))), 5, min_segment_length=3)
    bounds = (0, *seg.change_points, 17)
    assert all(b - a >= 3 for a, b in zip(bounds[:-1], bounds[1:]))


def test_solve_range_matches_individual_solves():
    rng = np.random.default_rng(22)
    gram = compute_gram(FeatureSequence(values=rng.standard_normal((20, 3))))
    grids = [  # (counts, minimum segment length); sparse ones leave most DP rows short
        ([1, 3, 7, 10], 1),
        ([20, 10, 6, 5, 3], 1),  # the sweep's grid n // {1, 2, 3, 4, 6}
        ([10, 2], 1),
        ([10, 2], 2),
        ([6, 1, 4], 3),
        ([6], 3),
    ]
    for ms, min_len in grids:
        every = segmentation._solve_rows(gram, range(1, max(ms) + 1), min_len)[0]
        for seg, m in zip(solve_range(gram, ms, min_len), ms):
            single = solve_fixed(gram, m, min_len)
            assert seg.change_points == single.change_points
            assert seg.objective == single.objective == every[m, 20]
    assert solve_range(gram, []) == []


# ---------------------------------------------------------------------------
# Auto-m solve


def test_solve_auto_two_blocks_worked_example():
    gram = gram_for(TWO_BLOCKS)
    seg = solve_auto(gram, 4, penalty_weight=1.0)
    assert seg.m == 2
    assert seg.change_points == (2,)
    assert seg.objective == 0.0
    assert seg.penalty == pytest.approx(2 * math.log(1.5), abs=1e-12)
    # Reconstruct the full selection curve independently: the split costs
    # are 2, 0, 0, 0 and the penalty is m*ln(m/4 + 1).
    totals = [
        solve_fixed(gram, m).objective + segment_count_penalty(m, 4)
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
    seg = solve_auto(gram_for(np.ones((9, 3))), 9, penalty_weight=1.0)
    assert seg.m == 1
    assert seg.change_points == ()


def test_penalty_formula():
    assert segment_count_penalty(2, 4) == pytest.approx(0.810930216, abs=1e-9)
    assert segment_count_penalty(3, 6, weight=2.0) == pytest.approx(6 * math.log(1.5), abs=1e-12)


def test_solve_auto_rejects_bad_weight():
    gram = gram_for(TWO_BLOCKS)
    for weight in (0.0, -1.0):
        with pytest.raises(NonPositivePenaltyWeightError):
            solve_auto(gram, 2, penalty_weight=weight)


def parent_equal_split_total(gram, m):
    """The equal-length split's total as ``solve_auto`` formed it before ``_split_total`` took a split."""
    x, n, kernel = gram.rows, gram.n, gram.kernel
    total = 0.0
    for a, b in zip([k * n // m for k in range(m)], [k * n // m for k in range(1, m + 1)]):
        w = x[a:b]
        if kernel.kind == "rbf" and b - a <= segmentation._BLOCK_ENDS:
            total += (b - a) - float(segmentation._kernel_values(gram, slice(a, b), slice(a, b)).sum()) / (b - a)
            continue
        dev = w - w.mean(axis=0)
        scatter = float(np.einsum("ij,ij->", dev, dev))
        total += min(b - a - 1.0, scatter / kernel.bandwidth**2) if kernel.kind == "rbf" else scatter
    return total


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)],
    ids=["dot", "cosine", "rbf"],
)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 11, 64])  # n = 600: windows of 600 to 150 rows, then 120 to 9
def test_split_total_of_the_uniform_split_keeps_its_bits(kernel, m):
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(29).standard_normal((600, 6)) + 2.0), kernel)
    split = segmentation._split_total(gram, uniform_change_points(600, m))
    assert split.hex() == parent_equal_split_total(gram, m).hex()


@pytest.mark.parametrize("n, m_max, weight", [(50, 50, 1.7e308), (50, 8, 1e308), (3, 3, 1e308)])
def test_solve_auto_penalty_past_float64_forms_no_ceilings(n, m_max, weight):
    # The larger counts' penalties overflow to inf; under the suite's warnings-as-errors an
    # inf - inf ceiling fails here. The answer stays the first minimiser over solve_range.
    source = compute_gram(FeatureSequence(values=np.random.default_rng(31).standard_normal((n, 4))))
    auto = solve_auto(source, m_max, weight)
    curve = solve_range(source, range(1, m_max + 1))
    totals = [seg.objective + segment_count_penalty(seg.m, n, weight) for seg in curve]
    best = curve[totals.index(min(totals))]
    assert math.isinf(totals[-1])
    assert (auto.m, auto.change_points, auto.objective.hex()) == (best.m, best.change_points, best.objective.hex())


def test_solve_auto_clamps_m_max_to_what_fits():
    rng = np.random.default_rng(24)
    source = compute_gram(FeatureSequence(values=rng.standard_normal((20, 3))))
    assert solve_auto(source, 32) == solve_auto(source, 20)
    assert solve_auto(source, 32, min_segment_length=3) == solve_auto(source, 6, min_segment_length=3)
    with pytest.raises(InfeasibleSegmentCountError, match="^cannot cut 20 candidates into 0 segments of length >= 1$"):
        solve_auto(source, 0)
    with pytest.raises(InfeasibleSegmentCountError):
        solve_auto(source, 4, min_segment_length=21)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["planted", "constant", "noise"]),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    min_len=st.integers(1, 3),
    weight=st.sampled_from([1e-3, 0.5, 1.0, 4.0]),
    zero_penalty=st.booleans(),
    # One DP step per few ends, or one block at small n; starts fall on 256-column tile edges.
    block_ends=st.sampled_from([3, 7, 128]),
    # Long inputs, with more planted segments, let the lowest live start pass a tile edge.
    long=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_solve_auto_is_first_minimiser_over_solve_range(
    seed, shape, kernel, min_len, weight, zero_penalty, block_ends, long
):
    # solve_auto stops DP rows and narrows blocks; solve_range does neither. A zero
    # penalty on constant features ties every m; the smallest must win.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(min_len, 1200 if long else 40)), int(rng.integers(1, 4))
    if shape == "constant":
        values = np.full((n, d), rng.normal())
    else:
        values = rng.normal(scale=0.5 if shape == "noise" else 0.1, size=(n, d))
        if shape == "planted":
            k = int(rng.integers(5, 30)) if long else 5
            values += rng.normal(scale=3.0, size=(k, d))[np.sort(rng.integers(0, k, n))]
    source = compute_gram(FeatureSequence(values=values), kernel)
    m_max = int(rng.integers(1, (24 if long else n) + 3))
    penalty = (lambda m, n, weight: 0.0) if zero_penalty else segment_count_penalty
    with mock.patch.object(segmentation, "_BLOCK_ENDS", block_ends):
        with mock.patch.object(segmentation, "segment_count_penalty", penalty):
            auto = solve_auto(source, m_max, weight, min_len)
        curve = solve_range(source, range(1, min(m_max, n // min_len) + 1), min_len)
    totals = [seg.objective + penalty(seg.m, n, weight) for seg in curve]
    best = curve[totals.index(min(totals))]
    assert (auto.m, auto.change_points, auto.objective.hex()) == (
        best.m, best.change_points, best.objective.hex()
    )
    assert (auto.penalty, auto.penalty_weight) == (penalty(best.m, n, weight), weight)


def planted_steps(n, d, segments, seed):
    """n x d rows in ``segments`` equal runs around far-apart means, with small noise."""
    rng = np.random.default_rng(seed)
    means = 10.0 * rng.standard_normal((segments, d))
    return means[np.arange(n) * segments // n] + 0.01 * rng.standard_normal((n, d))


def test_solve_auto_stops_rows_and_starts_late_blocks_above_column_0():
    n = 1000
    gram = compute_gram(FeatureSequence(values=planted_steps(n, 4, 10, 41)))
    starts, rows = [], []
    scatter_blocks, solve_rows = segmentation.GramMatrix.blocks, segmentation._solve_rows

    def recording(*args):
        for e0, c0, v in scatter_blocks(*args):
            starts.append(c0)
            yield e0, c0, v

    def capturing(*args):
        cost, back = solve_rows(*args)
        rows.append(cost.copy())
        return cost, back

    with mock.patch.object(segmentation.GramMatrix, "blocks", recording):
        with mock.patch.object(segmentation, "_solve_rows", capturing):
            auto = solve_auto(gram, 16)
    curve = solve_range(gram, range(1, 17))
    totals = [seg.objective + segment_count_penalty(seg.m, n) for seg in curve]
    best = curve[totals.index(min(totals))]
    assert auto.m == 10 and auto.change_points == tuple(range(100, n, 100))
    assert (auto.change_points, auto.objective.hex()) == (best.change_points, best.objective.hex())
    # Rows 1..5 stop before the last end, so their counts come out at inf; every other
    # count, the chosen one included, keeps its exact J bit for bit.
    (cost,) = rows
    stopped = [m for m in range(1, 17) if cost[m, n] != curve[m - 1].objective]
    assert stopped == [1, 2, 3, 4, 5] and np.isinf(cost[stopped, n]).all()
    # Blocks start above column 0 only once row 1 has stopped; the worker reads the start
    # a block late, so which late block first starts at 256 depends on timing.
    assert len(starts) == 8 and starts[0] == 0 and starts == sorted(starts) and starts[-1] == 256, starts


def with_and_without_start_bound(solve):
    """``solve()``, the start column of each block it read, and ``solve()`` on blocks pinned to column 0."""
    starts, scatter_blocks = [], segmentation.GramMatrix.blocks

    def recording(gram, start=None):
        for e0, c0, v in scatter_blocks(gram, start):
            starts.append(c0)
            yield e0, c0, v

    with mock.patch.object(segmentation.GramMatrix, "blocks", recording):
        bounded = solve()
    with mock.patch.object(segmentation.GramMatrix, "blocks", lambda gram, start=None: scatter_blocks(gram)):
        pinned = solve()
    return bounded, starts, pinned


# Every kernel and every block width meets every minimum length once.
@pytest.mark.parametrize(
    "kernel, block_ends, min_len",
    [
        pytest.param(kernel, block_ends, 1 + (k + b) % 3, id=f"{kernel.tag}-{block_ends}-{1 + (k + b) % 3}")
        for k, kernel in enumerate([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)])
        for b, block_ends in enumerate([3, 7, 128])
    ],
)
def test_solve_range_and_the_forced_count_start_late_blocks_bit_for_bit(kernel, block_ends, min_len):
    # The sweep's grid: rows below its smallest count end early, so once they have,
    # blocks start at the lowest start a row with ends left still reads.
    n = 1200
    config = SynthConfig(n=n, d=8, segment_count=8, mean_separation=1.0, noise_sigma=0.1, seed=block_ends)
    gram = compute_gram(generate(config).features, kernel)
    grid = [n // div for div in cli.SWEEP_DIVISORS if n // div * min_len <= n]
    with mock.patch.object(segmentation, "_BLOCK_ENDS", block_ends):
        for solve in (lambda: solve_range(gram, grid, min_len), lambda: [solve_fixed(gram, n // min_len, min_len)]):
            bounded, starts, pinned = with_and_without_start_bound(solve)
            assert starts == sorted(starts) and starts[-1] > 0, starts
            assert [(s.m, s.change_points, s.objective.hex()) for s in bounded] == [
                (s.m, s.change_points, s.objective.hex()) for s in pinned
            ]


def test_solve_auto_penalty_fields():
    rng = np.random.default_rng(23)
    gram = gram_for(rng.standard_normal((12, 2)))
    seg = solve_auto(gram, 6, penalty_weight=3.5)
    assert seg.penalty_weight == 3.5
    assert seg.penalty == pytest.approx(segment_count_penalty(seg.m, 12, 3.5), abs=1e-12)
    assert seg.objective == solve_fixed(gram, seg.m).objective


# ---------------------------------------------------------------------------
# The forced count m * min_len = n, and the DP rows' memory


def recorded_rows(calls):
    """_solve_rows, recording the counts each call was asked for."""
    solve_rows = segmentation._solve_rows

    def recorded(source, ms, min_len, *ceilings):
        calls.append(sorted(ms))
        return solve_rows(source, ms, min_len, *ceilings)

    return mock.patch.object(segmentation, "_solve_rows", recorded)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["planted", "constant", "noise"]),
    kernel=st.sampled_from([KernelSpec(), KernelSpec(kind="cosine"), KernelSpec(kind="rbf", bandwidth=1.5)]),
    min_len=st.integers(1, 3),
    block_ends=st.sampled_from([3, 7, 128]),
    weight=st.sampled_from([1e-3, 1.0]),
)
@settings(max_examples=120, deadline=None)
def test_forced_count_matches_its_dp_row_bit_for_bit(seed, shape, kernel, min_len, block_ends, weight):
    rng = np.random.default_rng(seed)
    top = int(rng.integers(1, 21))
    n, d = top * min_len, int(rng.integers(1, 6))
    source = compute_gram(FeatureSequence(values=shaped_values(rng, shape, n, d)), kernel)
    ms = rng.permutation([top, *{int(m) for m in rng.integers(1, top + 1, 3)} - {top}]).tolist()
    m_max = top + int(rng.integers(0, 3))
    calls = []
    with mock.patch.object(segmentation, "_BLOCK_ENDS", block_ends):
        every = segmentation._solve_rows(source, range(1, top + 1), min_len)[0]
        want = segmentation._solve_rows(source, [top], min_len)[0][top, n]
        singles = {m: solve_fixed(source, m, min_len) for m in ms}
        with recorded_rows(calls):
            fixed = solve_fixed(source, top, min_len)
            mixed = solve_range(source, ms, min_len)
            auto = solve_auto(source, m_max, weight, min_len)
    assert fixed.objective.hex() == float(want).hex() == float(every[top, n]).hex()
    assert fixed.change_points == tuple(range(min_len, n, min_len))
    assert mixed == [singles[m] for m in ms]
    totals = [float(every[m, n]) + segment_count_penalty(m, n, weight) for m in range(1, top + 1)]
    best = 1 + totals.index(min(totals))
    assert (auto.m, auto.objective.hex()) == (best, float(every[best, n]).hex())
    assert auto.change_points == solve_fixed(source, best, min_len).change_points
    assert all(top not in counts for counts in calls), "the forced count takes no DP row"


def test_solve_auto_can_pick_the_forced_count():
    gram = compute_gram(FeatureSequence(values=np.repeat([[0.0], [10.0], [20.0], [30.0]], 2, axis=0)))
    calls = []
    with recorded_rows(calls):
        seg = solve_auto(gram, 8, min_segment_length=2)
    assert (seg.m, seg.change_points, seg.objective) == (4, (2, 4, 6), 0.0)
    assert calls == [[1, 2, 3]]


def test_forced_count_alone_takes_one_block_pass_and_no_dp_row():
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(31).standard_normal((30, 3))))
    passes, calls, scatter_blocks = [], [], segmentation.GramMatrix.blocks

    def counted(*args):
        passes.append(args)
        return scatter_blocks(*args)

    with mock.patch.object(segmentation.GramMatrix, "blocks", counted), recorded_rows(calls):
        seg = solve_fixed(gram, 10, 3)
    assert (len(passes), calls) == (1, [[]])  # one sweep, asked for no count: row 0 alone
    assert seg.change_points == (3, 6, 9, 12, 15, 18, 21, 24, 27)
    assert seg.objective == placement_objective(gram, seg.change_points)


def test_forced_count_alone_still_raises_precision_loss():
    baseline = threading.active_count()
    rng = np.random.default_rng(9)
    values = rng.standard_normal((40, 4))
    values[20:] = jittered_shots(rng, 2, 4) * 1e4
    stream = compute_gram(FeatureSequence(values=values))
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 4):
        for m, min_len in ((40, 1), (20, 2), (10, 4)):
            with pytest.raises(PrecisionLossError):
                solve_fixed(stream, m, min_len)
    with pytest.raises(PrecisionLossError):
        solve_fixed(stream, 40)
    assert_workers_joined(baseline)


def test_sweep_solve_holds_less_than_the_square_rows():
    n = 1200
    grid = [n // div for div in cli.SWEEP_DIVISORS]
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(33).standard_normal((n, 16))))
    tracemalloc.start()
    try:
        solved = solve_range(metrics._uniform_gather(gram, grid), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [seg.m for seg in solved] == grid
    assert peak < (n + 1) ** 2 * 12, f"the sweep's solve peaked at {peak / 2**20:.1f} MiB"


def test_dp_rows_past_half_the_memory_are_refused_before_allocation():
    n = 50
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(34).standard_normal((n, 3))))
    row_bytes = (n + 1) * 12
    memory = 2 * 11 * row_bytes  # rows 0..10 fit in half of it
    with mock.patch.object(segmentation, "_physical_memory", lambda: memory):
        assert solve_fixed(gram, 10).m == 10
        assert solve_fixed(gram, n).m == n  # the forced count takes no row
        assert [seg.m for seg in solve_range(gram, [n, 10])] == [n, 10]
        with mock.patch.object(np, "full", side_effect=AssertionError("rows allocated")):
            with pytest.raises(InstanceTooLargeError) as refused:
                solve_range(gram, [n, 11])
            with pytest.raises(InstanceTooLargeError):
                solve_auto(gram, 12)
    message = str(refused.value)
    assert "\n" not in message
    assert f"need {12 * row_bytes:,} bytes" in message
    assert f"{memory:,} bytes of memory" in message
    assert message.endswith("rows fit up to 10 segments")


def test_memory_probe_skips_platforms_that_cannot_tell():
    gram = compute_gram(FeatureSequence(values=np.random.default_rng(35).standard_normal((12, 2))))
    assert segmentation._physical_memory() > 0
    with mock.patch.object(segmentation.os, "sysconf", side_effect=ValueError("unknown name")):
        assert segmentation._physical_memory() is None
        assert solve_fixed(gram, 3).m == 3
    with mock.patch.object(segmentation, "os", object()):  # no os.sysconf at all
        assert segmentation._physical_memory() is None


@given(
    J=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
    extra=st.integers(0, 100),
    weight=st.floats(1e-6, 1e6),
)
def test_choose_count_is_the_first_minimiser(J, extra, weight):
    n = len(J) + extra
    m = segmentation._choose_count(J, n, weight)
    totals = [j + segment_count_penalty(k, n, weight) for k, j in enumerate(J, start=1)]
    assert all(totals[m - 1] <= total for total in totals)
    assert all(total > totals[m - 1] for total in totals[: m - 1])
    assert segmentation._choose_count([J[0]] * len(J), n, weight) == 1


@given(J=st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=12))
def test_choose_count_breaks_ties_towards_fewer_segments(J):
    with mock.patch.object(segmentation, "segment_count_penalty", lambda m, n, weight: 0.0):
        assert segmentation._choose_count(J, len(J), 1.0) == 1 + J.index(min(J))


# ---------------------------------------------------------------------------
# Invariants and properties


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_oracle_equivalence_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    d = int(rng.integers(1, 5))
    m = int(rng.integers(1, min(4, n) + 1))
    gram = gram_for(rng.standard_normal((n, d)))
    dp = solve_fixed(gram, m)
    bf = brute_force(gram, m)
    assert dp.change_points == bf.change_points
    assert abs(dp.objective - bf.objective) <= 1e-9


def test_oracle_equivalence_on_full_tie():
    # Constant features tie every placement; both sides must pick [1..m-1].
    gram = gram_for(np.full((7, 2), 3.0))
    for m in (2, 3, 5, 7):
        dp = solve_fixed(gram, m)
        bf = brute_force(gram, m)
        assert dp.change_points == bf.change_points == tuple(range(1, m))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_objective_monotone_and_floor(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    objectives = [seg.objective for seg in solve_range(gram_for(rng.standard_normal((n, 3))), range(1, n + 1))]
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
    assert solve_fixed(compute_gram(shifted), 8).change_points == solve_fixed(compute_gram(base), 8).change_points


def test_scale_equivariance_exact_power_of_two():
    rng = np.random.default_rng(31)
    values = rng.standard_normal((15, 4))
    base, scaled = gram_for(values), gram_for(2.0 * values)
    assert np.array_equal(dense_table(scaled), 4.0 * dense_table(base))
    for m in (2, 4, 6):
        assert solve_fixed(scaled, m).change_points == solve_fixed(base, m).change_points


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-20, 10),
    n=st.integers(16, 150),
    segments=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_streamed_solve_is_exactly_equivariant_to_powers_of_two(seed, k, n, segments):
    # 2^k scales every kernel value, pair sum, scatter and the pruning margin by
    # exactly 4^k, so the streamed DP takes the same decisions on scaled features.
    config = SynthConfig(n=n, d=8, segment_count=segments, mean_separation=1.0, noise_sigma=0.1, seed=seed)
    values = generate(config).features.values
    ms = sorted({1, segments, 2 * segments, n // 3})
    with mock.patch.object(segmentation, "_BLOCK_ENDS", 7):
        want = solve_range(compute_gram(FeatureSequence(values=values)), ms)
        got = solve_range(compute_gram(FeatureSequence(values=values * 2.0**k)), ms)
    for g, w in zip(got, want):
        assert g.change_points == w.change_points
        assert g.objective == 4.0**k * w.objective


def test_scale_equivariance_generic_constant():
    rng = np.random.default_rng(32)
    values = rng.standard_normal((18, 3))
    base, scaled = gram_for(values), gram_for(1.7 * values)
    np.testing.assert_allclose(dense_table(scaled), 1.7**2 * dense_table(base), rtol=1e-9, atol=1e-12)
    for m in (2, 5):
        assert solve_fixed(scaled, m).change_points == solve_fixed(base, m).change_points


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_reversal_mirrors_change_points(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((16, 3))
    fwd = solve_fixed(gram_for(values), 4)
    rev = solve_fixed(gram_for(values[::-1]), 4)
    assert rev.objective == pytest.approx(fwd.objective, abs=1e-9)
    mirrored = tuple(sorted(16 - t for t in fwd.change_points))
    assert rev.change_points == mirrored


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dominates_uniform_split(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    gram = gram_for(rng.standard_normal((n, 2)))
    m = int(rng.integers(1, n + 1))
    uniform_cps = tuple((i * n) // m for i in range(1, m))
    assert solve_fixed(gram, m).objective <= placement_objective(gram, uniform_cps)


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("min_segment_length", 0, "minimum segment length must be >= 1"),
        ("penalty", -1.0, "penalty must be finite and nonnegative"),
        ("penalty", math.nan, "penalty must be finite and nonnegative"),
        ("penalty", math.inf, "penalty must be finite and nonnegative"),
        ("penalty_weight", -1.0, "penalty weight must be finite and nonnegative"),
        ("penalty_weight", math.nan, "penalty weight must be finite and nonnegative"),
        ("penalty_weight", math.inf, "penalty weight must be finite and nonnegative"),
    ],
)
def test_segmentation_refuses_bad_lengths_and_penalties(field, value, message):
    with pytest.raises(InvariantViolationError, match=message):
        Segmentation(n=4, m=2, change_points=(2,), objective=0.0, **{field: value})


@pytest.mark.parametrize(
    "call",
    [
        lambda gram: placement_objective(gram, [1.5]),
        lambda gram: solve_range(gram, [2.5]),
        lambda gram: Segmentation(n=4, m=2, change_points=(2.7,), objective=0.0),
    ],
    ids=["placement_objective", "solve_range", "Segmentation"],
)
def test_fractional_change_points_and_counts_are_refused(call):
    # Truncation would answer for another placement, count or split: [1], m = 2, (2,).
    with pytest.raises(TypeError):
        call(gram_for(TWO_BLOCKS))


def test_numpy_integer_change_points_and_counts_are_taken():
    gram = gram_for(TWO_BLOCKS)
    assert Segmentation(n=4, m=2, change_points=np.array([2]), objective=0.0).change_points == (2,)
    assert placement_objective(gram, np.array([2])) == placement_objective(gram, [2])
    assert solve_range(gram, np.array([2])) == [solve_fixed(gram, 2)]


def test_types_are_frozen():
    feats = FeatureSequence(values=TWO_BLOCKS)
    with pytest.raises(ValueError):
        feats.values[0, 0] = 9.0
    gram = gram_for(TWO_BLOCKS)
    with pytest.raises(ValueError):
        gram.rows[0, 1] = 9.0
