"""Boundary-recovery metrics and the KTS-versus-uniform comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InvariantViolationError, UnsortedInputError
from .sampling import uniform_change_points
from .segmentation import Segmentation, VarianceTable, placement_objective, solve_fixed


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


def compare_to_uniform(table: VarianceTable, seg: Segmentation) -> ObjectiveComparison:
    """An optimal segmentation's objective next to the equal-length split's.

    The optimum can never exceed the uniform split at the same segment count
    (it is one of the placements the solver searches); that is re-checked
    here and a failure would mean the solver itself is broken.
    """
    uniform = placement_objective(table, uniform_change_points(table.n, seg.m))
    if seg.objective > uniform:
        raise RuntimeError(
            f"optimal objective {seg.objective!r} exceeds uniform split {uniform!r}; solver bug"
        )
    return ObjectiveComparison(kts_objective=seg.objective, uniform_objective=uniform)


def objective_comparison(table: VarianceTable, m: int) -> ObjectiveComparison:
    """Optimal objective next to the equal-length split's objective at m."""
    return compare_to_uniform(table, solve_fixed(table, m, min_segment_length=1))
