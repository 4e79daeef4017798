"""
Detecting change points in a synthetic feature sequence
=======================================================

A piecewise-stationary sequence with five planted segments is generated,
segmented with both the fixed-count and the automatic solver, and the
recovered boundaries are compared against the planted truth.
"""

import numpy as np

from ktseg import (
    SynthConfig,
    boundary_metrics,
    generate,
    solve_auto,
    solve_fixed,
    stream_scatter,
)

# A 180-candidate sequence (think: a 3-minute video at one candidate per
# second), 16-dimensional features, five segments whose means sit five
# noise standard deviations apart.
config = SynthConfig(
    n=180,
    d=16,
    segment_count=5,
    mean_separation=0.2,
    noise_sigma=0.04,
    seed=7,
    min_segment_length=10,
)
instance = generate(config)
print(f"planted boundaries: {list(instance.true_change_points)}")

# The solver pipeline: window scatters, streamed from Gram columns computed
# block by block, feed an exact dynamic program.
scatter = stream_scatter(instance.features)

# Fixed segment count, matching the planted one.
fixed = solve_fixed(scatter, 5)
print(f"solve_fixed(m=5):   {list(fixed.change_points)}  objective={fixed.objective:.4f}")

# Automatic segment count: the parsimony penalty m*ln(m/n + 1) picks m.
auto = solve_auto(scatter, m_max=10, penalty_weight=1.0)
print(
    f"solve_auto(<=10):   {list(auto.change_points)}  "
    f"m={auto.m} objective={auto.objective:.4f} penalty={auto.penalty:.4f}"
)

metrics = boundary_metrics(list(fixed.change_points), list(instance.true_change_points), tolerance=2)
print(f"recovery within +/-2 candidates: F1={metrics.f1:.3f}")

# The objective never increases with more segments; watch it fall.
objectives = [solve_fixed(scatter, m).objective for m in range(1, 9)]
print("objective by m:", np.array2string(np.array(objectives), precision=2))
