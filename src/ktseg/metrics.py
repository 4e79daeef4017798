"""Boundary-recovery metrics and the KTS-versus-uniform comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InvariantViolationError, UnsortedInputError
from .sampling import uniform_change_points
from .segmentation import GramMatrix, Segmentation, VarianceTable, _window_scatters, solve_fixed


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

    pairs = sorted(
        (abs(p - t), pi, ti)
        for pi, p in enumerate(pred)
        for ti, t in enumerate(true)
        if abs(p - t) <= tolerance
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


def compare_to_uniform(
    source: VarianceTable | GramMatrix, segs: Sequence[Segmentation]
) -> list[ObjectiveComparison]:
    """Each optimal segmentation's objective next to the equal-length split's at its m.

    One block pass reads every uniform window; each split is summed left to right from 0.0, as the
    DP sums. The optimum never exceeds it (it is a placement the DP searches): failing means a bug.
    """
    bounds = [(0, *uniform_change_points(source.n, seg.m), source.n) for seg in segs]
    scatters = iter(_window_scatters(source, [w for b in bounds for w in zip(b[:-1], b[1:])]))
    comparisons = []
    for seg, b in zip(segs, bounds):
        uniform = 0.0
        for _ in range(len(b) - 1):
            uniform += next(scatters)
        if seg.objective > uniform:
            raise RuntimeError(
                f"optimal objective {seg.objective!r} exceeds uniform split {uniform!r}; solver bug"
            )
        comparisons.append(ObjectiveComparison(kts_objective=seg.objective, uniform_objective=uniform))
    return comparisons


def objective_comparison(source: VarianceTable | GramMatrix, m: int) -> ObjectiveComparison:
    """Optimal objective next to the equal-length split's objective at m."""
    return compare_to_uniform(source, [solve_fixed(source, m, min_segment_length=1)])[0]
