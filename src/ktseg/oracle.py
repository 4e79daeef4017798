"""Exhaustive reference solver for cross-checking the dynamic program."""

from __future__ import annotations

from itertools import combinations

from .errors import InstanceTooLargeError
from .segmentation import Segmentation, VarianceTable, _check_feasible, placement_objective

#: Enumeration walks C(n-1, m-1) placements; refuse anything bigger.
BRUTE_FORCE_MAX_N = 16


def _check_size(n: int) -> None:
    if n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLargeError(
            f"exhaustive solver handles n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )


def brute_force(table: VarianceTable, m: int, min_segment_length: int = 1) -> Segmentation:
    """Globally optimal segmentation by enumerating every placement.

    Placements are visited in lexicographic order and only strict
    improvements are kept, so ties resolve to the lexicographically
    smallest change-point vector.
    """
    n = table.n
    _check_size(n)
    _check_feasible(n, m, min_segment_length)
    best_cps: tuple[int, ...] | None = None
    best_cost = float("inf")
    for combo in combinations(range(1, n), m - 1):
        bounds = (0, *combo, n)
        if any(b - a < min_segment_length for a, b in zip(bounds[:-1], bounds[1:])):
            continue
        cost = placement_objective(table, combo)
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
