"""Timeline mapping and per-segment frame sampling plans.

Candidates live on a coarse grid (e.g. one per second) over the original
video; a segmentation of the candidates is turned into an m x k schedule
of original-video frame indices by sampling k candidates per segment at
the centers of k equal strata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    CandidateCountMismatchError,
    InvariantViolationError,
    NonPositiveKError,
    NonPositiveRateError,
)
from .segmentation import Segmentation, uniform_change_points


class Candidate(NamedTuple):
    """One downsampled frame: candidate index, timestamp, source frame index."""

    index: int
    timestamp: float
    source_frame: int


@dataclass(frozen=True)
class VideoTimeline:
    """Duration and frame rate of the original video; frame_count is floor(duration * fps)."""

    duration_seconds: float
    source_fps: float
    frame_count: int = field(init=False)

    def __post_init__(self) -> None:
        if not (self.duration_seconds > 0) or not math.isfinite(self.duration_seconds):
            raise InvariantViolationError("duration must be a positive finite number of seconds")
        if not (self.source_fps > 0) or not math.isfinite(self.source_fps):
            raise InvariantViolationError("source fps must be positive and finite")
        count = _whole(self.duration_seconds * self.source_fps, "duration * fps")
        if count < 1:
            raise InvariantViolationError(
                f"timeline implies {count} frames; need at least 1 "
                f"(duration={self.duration_seconds}, fps={self.source_fps})"
            )
        object.__setattr__(self, "frame_count", count)


@dataclass(frozen=True)
class SegmentSamples:
    """Sampled frames for one segment of the candidate range."""

    candidate_range: tuple[int, int]
    sampled_candidates: tuple[int, ...]
    source_frames: tuple[int, ...]
    source_timestamps: tuple[float, ...]

    def __post_init__(self) -> None:
        a, b = self.candidate_range
        if not (0 <= a < b):
            raise InvariantViolationError(f"bad candidate range [{a}, {b})")
        k = len(self.sampled_candidates)
        if k < 1 or len(self.source_frames) != k or len(self.source_timestamps) != k:
            raise InvariantViolationError("sampled candidate/frame/timestamp lists must align")
        prev = None
        for c in self.sampled_candidates:
            if not (a <= c < b):
                raise InvariantViolationError(f"sampled candidate {c} outside [{a}, {b})")
            if prev is not None and c < prev:
                raise InvariantViolationError("sampled candidates must be non-decreasing")
            prev = c
        for f in self.source_frames:
            if f < 0:
                raise InvariantViolationError("source frame indices must be nonnegative")


@dataclass(frozen=True)
class SamplingPlan:
    """m segments x k frames schedule over the original video."""

    k: int
    segments: tuple[SegmentSamples, ...]

    def __post_init__(self) -> None:
        if self.k < 1 or not self.segments:
            raise InvariantViolationError("plan needs k >= 1 and at least one segment")
        last_frame = None
        last_end = None
        for seg in self.segments:
            if len(seg.sampled_candidates) != self.k:
                raise InvariantViolationError("every segment must carry exactly k samples")
            if last_end is not None and seg.candidate_range[0] != last_end:
                raise InvariantViolationError("segment candidate ranges must tile contiguously")
            last_end = seg.candidate_range[1]
            for f in seg.source_frames:
                if last_frame is not None and f < last_frame:
                    raise InvariantViolationError("source frames must be non-decreasing across the plan")
                last_frame = f

    @property
    def m(self) -> int:
        return len(self.segments)

    def all_source_frames(self) -> list[int]:
        """The flattened m*k source-frame schedule."""
        return [f for seg in self.segments for f in seg.source_frames]


def _candidate_count(timeline: VideoTimeline, rate_per_second: float) -> int:
    if not (rate_per_second > 0) or not math.isfinite(rate_per_second):
        raise NonPositiveRateError(f"candidate rate must be positive, got {rate_per_second}")
    return max(_whole(timeline.duration_seconds * rate_per_second - 1e-9, "duration * rate") + 1, 1)


def _whole(product: float, what: str) -> int:
    if not math.isfinite(product):
        raise InvariantViolationError(f"{what} overflows float64")
    return int(math.floor(product))


def _candidate(j: int, timeline: VideoTimeline, rate_per_second: float) -> Candidate:
    ts = j / rate_per_second
    frame = min(max(int(math.floor(ts * timeline.source_fps + 0.5)), 0), timeline.frame_count - 1)
    return Candidate(index=j, timestamp=ts, source_frame=frame)


def candidate_timestamps(timeline: VideoTimeline, rate_per_second: float) -> list[Candidate]:
    """Place candidates at j / rate seconds and map them to source frames.

    Candidate j sits at the start of its interval; its source frame is the
    nearest-integer (half away from zero) frame at that timestamp, clamped
    into the timeline. At least one candidate (j = 0) is always produced.
    """
    count = _candidate_count(timeline, rate_per_second)
    return [_candidate(j, timeline, rate_per_second) for j in range(count)]


def plan_samples(
    segmentation: Segmentation,
    k: int,
    timeline: VideoTimeline,
    rate_per_second: float,
) -> SamplingPlan:
    """Sample k frames per segment at the centers of k equal strata.

    Sample i of a segment [a, b) of length L is candidate
    a + floor((i + 0.5) * L / k); segments shorter than k candidates repeat
    indices so the m x k shape always holds downstream. A k above the
    timeline's source frame count, where the plan can only repeat frames, is
    refused before anything is sampled. After the candidate count check, only
    the m*k picked candidates are placed on the timeline.
    """
    if k < 1:
        raise NonPositiveKError(f"frames per segment must be >= 1, got {k}")
    if k > timeline.frame_count:
        raise InvariantViolationError(
            f"{k} frames per segment exceed the video's {timeline.frame_count} source frames"
        )
    count = _candidate_count(timeline, rate_per_second)
    if count != segmentation.n:
        raise CandidateCountMismatchError(
            f"segmentation covers {segmentation.n} candidates but the timeline at "
            f"rate {rate_per_second}/s yields {count}"
        )
    segments = []
    for a, b in segmentation.segment_bounds():
        picks = tuple(a + ((2 * i + 1) * (b - a)) // (2 * k) for i in range(k))
        cands = [_candidate(c, timeline, rate_per_second) for c in picks]
        segments.append(
            SegmentSamples(
                candidate_range=(a, b),
                sampled_candidates=picks,
                source_frames=tuple(c.source_frame for c in cands),
                source_timestamps=tuple(c.timestamp for c in cands),
            )
        )
    return SamplingPlan(k=k, segments=tuple(segments))


def uniform_plan(m: int, k: int, timeline: VideoTimeline, rate_per_second: float) -> SamplingPlan:
    """The uniform-sampling baseline: plan_samples on the timeline's candidates in m equal-length segments."""
    n = _candidate_count(timeline, rate_per_second)
    uniform = Segmentation(n=n, change_points=uniform_change_points(n, m), objective=0.0)
    return plan_samples(uniform, k, timeline, rate_per_second)
