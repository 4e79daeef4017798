"""Exhaustive reference solver for cross-checking the dynamic program."""

from __future__ import annotations

from itertools import combinations

from .errors import InstanceTooLargeError
from .segmentation import GramMatrix, Segmentation, _check_feasible, _dp_sum, _window_scatters

#: Enumeration walks C(n-1, m-1) placements; refuse anything bigger.
BRUTE_FORCE_MAX_N = 16


def _check_size(n: int) -> None:
    if n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLargeError(
            f"exhaustive solver handles n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )


def brute_force(source: GramMatrix, m: int, min_segment_length: int = 1) -> Segmentation:
    """Globally optimal segmentation by enumerating every placement.

    Each placement sums its windows' scatters, read off one pass of ``source``'s blocks,
    as the DP sums them (:func:`_dp_sum`). Placements are visited in lexicographic order
    and only strict improvements are kept, so ties go to the smallest change-point vector.
    """
    n = source.n
    _check_size(n)
    _check_feasible(n, m, min_segment_length)
    windows = [(a, b) for b in range(1, n + 1) for a in range(b - min_segment_length + 1)]
    scatter = dict(zip(windows, _window_scatters(source, windows)))
    best_cps: tuple[int, ...] | None = None
    best_cost = float("inf")
    for combo in combinations(range(1, n), m - 1):
        bounds = (0, *combo, n)
        if any(b - a < min_segment_length for a, b in zip(bounds[:-1], bounds[1:])):
            continue
        cost = _dp_sum(scatter[w] for w in zip(bounds[:-1], bounds[1:]))
        if cost < best_cost:
            best_cost = cost
            best_cps = combo
    assert best_cps is not None  # feasibility was checked above
    return Segmentation(
        n=n,
        m=m,
        change_points=best_cps,
        objective=best_cost,
        min_segment_length=min_segment_length,
    )
