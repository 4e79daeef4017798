"""
From a segmentation to an m x k frame schedule
==============================================

Candidates are placed on the original video timeline at a fixed rate, a
segmentation over them is mapped back to source-frame indices, and each
segment contributes k frames sampled at the centers of k equal strata.
The uniform baseline (equal-length segments) is printed alongside.
"""

from ktseg import (
    Segmentation,
    VideoTimeline,
    candidate_timestamps,
    plan_samples,
    uniform_plan,
)

# A 2.5-minute clip at 29.97 fps, one candidate per second.
timeline = VideoTimeline(duration_seconds=150.0, source_fps=29.97)
candidates = candidate_timestamps(timeline, rate_per_second=1.0)
print(f"{len(candidates)} candidates over {timeline.frame_count} source frames")
print("first three:", [(c.index, c.timestamp, c.source_frame) for c in candidates[:3]])

# Pretend a solver produced these boundaries (see demo 01 for the real
# thing); segment lengths are deliberately uneven.
segmentation = Segmentation(n=150, change_points=(18, 95, 130), objective=0.0)

plan = plan_samples(segmentation, k=4, timeline=timeline, rate_per_second=1.0)
for seg in plan.segments:
    a, b = seg.candidate_range
    print(
        f"segment [{a:3d},{b:3d})  candidates {list(seg.sampled_candidates)}"
        f"  -> source frames {list(seg.source_frames)}"
    )
schedule = plan.all_source_frames()
print(f"total {len(schedule)} frames (m={plan.m} x k={plan.k}), non-decreasing schedule")

baseline = uniform_plan(4, 4, timeline, 1.0)
print("uniform baseline frames:", baseline.all_source_frames())
