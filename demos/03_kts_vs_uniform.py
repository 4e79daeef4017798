"""
Adaptive segmentation versus the uniform baseline
=================================================

Over a small corpus of synthetic instances, the optimal segmentation's
objective is compared to the equal-length split at several segment counts
(divisors of the candidate count), and boundary F1 against the planted
truth is reported for both. Adaptive boundaries dominate by construction
on the objective and by a wide margin on F1.
"""

import numpy as np

from ktseg import (
    SynthConfig,
    boundary_metrics,
    compute_gram,
    generate,
    objective_comparison,
    solve_fixed,
    uniform_change_points,
)

N, SEGMENTS, SEEDS = 120, 6, 10
grid = sorted({max(N // div, 1) for div in (1, 2, 3, 4, 6)}, reverse=True)
print(f"segment-count grid: {grid}")

rows = []
f1_gap = []
for seed in range(SEEDS):
    config = SynthConfig(
        n=N,
        d=8,
        segment_count=SEGMENTS,
        mean_separation=0.3,
        noise_sigma=0.06,
        seed=seed,
        min_segment_length=8,
    )
    instance = generate(config)
    gram = compute_gram(instance.features)
    truth = list(instance.true_change_points)
    for m in grid:
        comp = objective_comparison(gram, m)
        rows.append((seed, m, comp.kts_objective, comp.uniform_objective))
    pred = list(solve_fixed(gram, SEGMENTS).change_points)
    kts_f1 = boundary_metrics(pred, truth, tolerance=2).f1
    uni_f1 = boundary_metrics(list(uniform_change_points(N, SEGMENTS)), truth, tolerance=2).f1
    f1_gap.append(kts_f1 - uni_f1)

print("\nseed  m    adaptive   uniform")
for seed, m, kts, uni in rows[: len(grid)]:
    print(f"{seed:4d} {m:4d} {kts:10.3f} {uni:9.3f}")
print("...")

worst = max(kts - uni for _, _, kts, uni in rows)
print(f"\nadaptive - uniform objective, worst over {len(rows)} cells: {worst:.3e} (never positive)")
print(f"mean boundary F1 gain at m={SEGMENTS}: {np.mean(f1_gap):+.3f}")
