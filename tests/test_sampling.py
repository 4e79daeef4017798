"""Timeline mapping and sampling-plan tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktseg import (
    CandidateCountMismatchError,
    InfeasibleSegmentCountError,
    InvariantViolationError,
    NonPositiveKError,
    NonPositiveRateError,
    Segmentation,
    VideoTimeline,
    candidate_timestamps,
    plan_samples,
    uniform_change_points,
    uniform_plan,
)


def timeline(duration, fps=30.0):
    return VideoTimeline(duration_seconds=duration, source_fps=fps)


def seg_of(n, cps):
    return Segmentation(n=n, change_points=tuple(cps), objective=0.0)


# ---------------------------------------------------------------------------
# Candidate placement


def test_candidates_one_per_second():
    cands = candidate_timestamps(timeline(4.0), 1.0)
    assert [(c.index, c.timestamp, c.source_frame) for c in cands] == [
        (0, 0.0, 0),
        (1, 1.0, 30),
        (2, 2.0, 60),
        (3, 3.0, 90),
    ]


def test_candidates_minimum_one():
    cands = candidate_timestamps(timeline(0.5), 1.0)
    assert [(c.index, c.timestamp, c.source_frame) for c in cands] == [(0, 0.0, 0)]


def test_candidates_round_half_away():
    cands = candidate_timestamps(timeline(2.0, fps=29.97), 1.0)
    assert [c.source_frame for c in cands] == [0, 30]


def test_candidates_clamped_to_timeline():
    tl = VideoTimeline(duration_seconds=3.0, source_fps=10.0)
    assert [c.source_frame for c in candidate_timestamps(tl, 1.0)] == [0, 10, 20]


def test_last_candidate_rounds_past_the_last_frame_and_is_clamped():
    # floor(2.04 * 10) = 20 frames, 0..19; the candidate at 2.0 s rounds to frame 20.
    assert [c.source_frame for c in candidate_timestamps(timeline(2.04, fps=10.0), 1.0)] == [0, 10, 19]


def test_candidates_reject_bad_rate():
    for rate in (0.0, -1.0):
        with pytest.raises(NonPositiveRateError):
            candidate_timestamps(timeline(4.0), rate)


def test_timeline_invariants():
    with pytest.raises(InvariantViolationError):
        VideoTimeline(duration_seconds=0.0, source_fps=30.0)
    with pytest.raises(InvariantViolationError):
        VideoTimeline(duration_seconds=2.0, source_fps=-1.0)
    with pytest.raises(InvariantViolationError):
        VideoTimeline(duration_seconds=0.01, source_fps=30.0)  # implies zero frames
    assert timeline(4.0).frame_count == 120


# ---------------------------------------------------------------------------
# Per-segment sampling


def test_plan_unit_strata():
    plan = plan_samples(seg_of(4, (2,)), 2, timeline(4.0), 1.0)
    assert [s.sampled_candidates for s in plan.segments] == [(0, 1), (2, 3)]
    assert plan.all_source_frames() == [0, 30, 60, 90]


def test_plan_median_frame_for_k1():
    plan = plan_samples(seg_of(5, ()), 1, timeline(5.0), 1.0)
    assert [s.sampled_candidates for s in plan.segments] == [(2,)]


def test_plan_duplicates_when_short():
    plan = plan_samples(seg_of(2, ()), 4, timeline(2.0), 1.0)
    assert [s.sampled_candidates for s in plan.segments] == [(0, 0, 1, 1)]


def test_plan_rejects_bad_k():
    with pytest.raises(NonPositiveKError):
        plan_samples(seg_of(4, (2,)), 0, timeline(4.0), 1.0)


def test_plan_refuses_k_above_the_source_frame_count():
    assert plan_samples(seg_of(4, (2,)), 120, timeline(4.0), 1.0).k == 120  # 120 source frames
    with pytest.raises(InvariantViolationError, match="121 frames per segment exceed .* 120 source frames"):
        plan_samples(seg_of(4, (2,)), 121, timeline(4.0), 1.0)


def test_plan_candidate_count_mismatch():
    with pytest.raises(CandidateCountMismatchError, match="5 .* 4|4 .* 5"):
        plan_samples(seg_of(5, (2,)), 2, timeline(4.0), 1.0)


def test_plan_records_timestamps():
    plan = plan_samples(seg_of(4, (2,)), 1, timeline(4.0), 1.0)
    assert [s.source_timestamps for s in plan.segments] == [(1.0,), (3.0,)]


# ---------------------------------------------------------------------------
# Uniform baseline


def test_uniform_change_points_floor_rule():
    assert uniform_change_points(7, 3) == (2, 4)


def test_uniform_plan_matches_blocks():
    plan = uniform_plan(2, 2, timeline(4.0), 1.0)
    assert [s.sampled_candidates for s in plan.segments] == [(0, 1), (2, 3)]


def test_uniform_plan_midpoints():
    plan = uniform_plan(2, 1, timeline(6.0), 1.0)
    assert [s.sampled_candidates for s in plan.segments] == [(1,), (4,)]


def test_uniform_plan_infeasible():
    with pytest.raises(InfeasibleSegmentCountError, match=r"^cannot cut 4 candidates into 5 segments of length >= 1$"):
        uniform_plan(5, 1, timeline(4.0), 1.0)


# ---------------------------------------------------------------------------
# Plan-shape properties


@st.composite
def plan_case(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n))
    k = draw(st.integers(1, 6))
    cps = ()
    if m > 1:
        cps = tuple(sorted(draw(st.sets(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1))))
    rate = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return n, m, k, cps, rate


@given(plan_case())
@settings(max_examples=80, deadline=None)
def test_plan_shape_properties(case):
    n, m, k, cps, rate = case
    tl = VideoTimeline(duration_seconds=n / rate, source_fps=24.0)
    plan = plan_samples(seg_of(n, cps), k, tl, rate)
    assert plan.m == m
    flat_candidates = [c for s in plan.segments for c in s.sampled_candidates]
    assert len(flat_candidates) == m * k
    assert len(plan.all_source_frames()) == m * k
    # containment in the half-open segment range
    for s in plan.segments:
        a, b = s.candidate_range
        assert all(a <= c < b for c in s.sampled_candidates)
    # flattened schedules never go backwards
    assert flat_candidates == sorted(flat_candidates)
    frames = plan.all_source_frames()
    assert frames == sorted(frames)
    assert all(0 <= f < tl.frame_count for f in frames)


@given(case=plan_case(), fps=st.sampled_from([24.0, 29.97, 59.94]))
@settings(max_examples=60, deadline=None)
def test_plan_picks_match_the_candidate_timeline(case, fps):
    n, m, k, cps, rate = case
    tl = VideoTimeline(duration_seconds=n / rate, source_fps=fps)
    candidates = candidate_timestamps(tl, rate)
    plan = plan_samples(seg_of(n, cps), k, tl, rate)
    for s in plan.segments:
        assert s.source_frames == tuple(candidates[c].source_frame for c in s.sampled_candidates)
        assert s.source_timestamps == tuple(candidates[c].timestamp for c in s.sampled_candidates)


@given(n=st.integers(1, 30), k=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_plan_reduces_to_uniform_at_m_equals_n(n, k):
    tl = VideoTimeline(duration_seconds=float(n), source_fps=12.0)
    kts = plan_samples(seg_of(n, tuple(range(1, n))), k, tl, 1.0)
    uniform = uniform_plan(n, k, tl, 1.0)
    assert kts == uniform


def test_plan_selects_every_candidate_when_k_equals_length():
    plan = plan_samples(seg_of(8, (3,)), 3, timeline(8.0), 1.0)
    assert plan.segments[0].sampled_candidates == (0, 1, 2)
    plan5 = plan_samples(seg_of(8, (3,)), 5, timeline(8.0), 1.0)
    assert plan5.segments[1].sampled_candidates == (3, 4, 5, 6, 7)
