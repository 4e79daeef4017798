"""Exhaustive reference solver for cross-checking the dynamic program."""

from __future__ import annotations

from itertools import combinations

from .errors import InstanceTooLargeError
from .segmentation import GramMatrix, Segmentation, _check_feasible, _placement_totals

#: Enumeration walks C(n-1, m-1) placements; refuse anything bigger.
BRUTE_FORCE_MAX_N = 16


def _check_size(n: int) -> None:
    if n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLargeError(
            f"exhaustive solver handles n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )


def brute_force(source: GramMatrix, m: int, min_segment_length: int = 1) -> Segmentation:
    """Globally optimal segmentation by enumerating every placement.

    Every feasible placement's total is read off one pass of ``source``'s blocks
    (:func:`_placement_totals`), summed as the DP sums it. Placements come in lexicographic
    order and the first minimum wins, so ties go to the smallest change-point vector.
    """
    n = source.n
    _check_size(n)
    _check_feasible(n, m, min_segment_length)
    placements = [
        cps
        for cps in combinations(range(1, n), m - 1)
        if all(b - a >= min_segment_length for a, b in zip((0, *cps), (*cps, n)))
    ]
    totals = _placement_totals(source, placements)
    best = totals.index(min(totals))
    return Segmentation(
        n=n, m=m, change_points=placements[best], objective=totals[best], min_segment_length=min_segment_length
    )
