"""Boundary-recovery metrics and the KTS-versus-uniform comparison."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InvariantViolationError, UnsortedInputError
from .sampling import uniform_change_points
from .segmentation import GramMatrix, Segmentation, VarianceTable, _WindowGather, solve_fixed


@dataclass(frozen=True)
class BoundaryMetrics:
    """Precision/recall/F1 of predicted boundaries against ground truth."""

    precision: float
    recall: float
    f1: float
    matched_count: int
    tolerance: int


def _check_increasing(name: str, values: Sequence[int]) -> list[int]:
    out = [int(v) for v in values]
    for a, b in zip(out[:-1], out[1:]):
        if b <= a:
            raise UnsortedInputError(f"{name} boundaries must be strictly increasing")
    return out


def boundary_metrics(
    predicted: Sequence[int],
    truth: Sequence[int],
    tolerance: int,
) -> BoundaryMetrics:
    """Greedy one-to-one matching within +/- tolerance, nearest pairs first.

    Precision counts matched predictions, recall matched truths; an empty
    side scores 1.0 on its own ratio, so empty-vs-empty is a perfect 1/1/1.
    """
    if tolerance < 0:
        raise InvariantViolationError(f"tolerance must be nonnegative, got {tolerance}")
    pred = _check_increasing("predicted", predicted)
    true = _check_increasing("truth", truth)

    pairs = sorted(  # truths within tolerance of p lie in one run of the sorted truth list
        (abs(p - true[ti]), pi, ti)
        for pi, p in enumerate(pred)
        for ti in range(bisect_left(true, p - tolerance), bisect_right(true, p + tolerance))
    )
    used_pred: set[int] = set()
    used_true: set[int] = set()
    matched = 0
    for _, pi, ti in pairs:
        if pi in used_pred or ti in used_true:
            continue
        used_pred.add(pi)
        used_true.add(ti)
        matched += 1

    precision = 1.0 if not pred else matched / len(pred)
    recall = 1.0 if not true else matched / len(true)
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return BoundaryMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        matched_count=matched,
        tolerance=int(tolerance),
    )


class ObjectiveComparison(NamedTuple):
    kts_objective: float
    uniform_objective: float


def _uniform_gather(source: VarianceTable | GramMatrix, ms: Sequence[int]) -> _WindowGather:
    """``source``'s blocks, gathering the m windows of the equal-length split of [0, n) for each m of ``ms``."""
    windows = []
    for m in ms:
        bounds = (0, *uniform_change_points(source.n, m), source.n)
        windows += zip(bounds[:-1], bounds[1:])
    return _WindowGather(source, windows)


def _against_uniform(segs: Sequence[Segmentation], gather: _WindowGather) -> list[ObjectiveComparison]:
    """Each segmentation's objective next to the equal-length split's at its m.

    ``gather`` is :func:`_uniform_gather` of the segmentations' counts, in order, after the solve
    that read its blocks. Each split is summed left to right from 0.0, as the DP sums. The optimum
    never exceeds it (it is a placement the DP searches): failing means a bug.
    """
    scatters = iter(gather.scatters.tolist())
    comparisons = []
    for seg in segs:
        uniform = 0.0
        for _ in range(seg.m):
            uniform += next(scatters)
        if seg.objective > uniform:
            raise RuntimeError(
                f"optimal objective {seg.objective!r} exceeds uniform split {uniform!r}; solver bug"
            )
        comparisons.append(ObjectiveComparison(kts_objective=seg.objective, uniform_objective=uniform))
    return comparisons


def objective_comparison(source: VarianceTable | GramMatrix, m: int) -> ObjectiveComparison:
    """Optimal objective next to the equal-length split's objective at m, off the solve's one block pass."""
    gather = _uniform_gather(source, [m])
    return _against_uniform([solve_fixed(gather, m, min_segment_length=1)], gather)[0]
