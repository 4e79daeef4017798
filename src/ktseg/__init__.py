"""Kernel temporal segmentation and adaptive frame sampling.

Decomposes a sequence of frame feature vectors into semantically
consistent variable-length segments by exact dynamic programming over a
kernel Gram matrix, then plans an m-segments x k-frames sampling schedule
over the original video timeline.
"""

from .errors import (
    CandidateCountMismatchError,
    InfeasibleConfigError,
    InfeasibleSegmentCountError,
    InstanceTooLargeError,
    InvariantViolationError,
    KtsError,
    MalformedHeaderError,
    NonFiniteValueError,
    NonPositiveKError,
    NonPositivePenaltyWeightError,
    NonPositiveRateError,
    PrecisionLossError,
    RaggedRowsError,
    SchemaMismatchError,
    TooManyCandidatesError,
    UnsortedInputError,
    ZeroNormRowError,
)
from .metrics import (
    BoundaryMetrics,
    ObjectiveComparison,
    boundary_metrics,
    objective_comparison,
)
from .oracle import BRUTE_FORCE_MAX_N, brute_force
from .sampling import (
    Candidate,
    SamplingPlan,
    SegmentSamples,
    VideoTimeline,
    candidate_timestamps,
    plan_samples,
    uniform_plan,
)
from .segmentation import (
    DEFAULT_CANDIDATE_CAP,
    FeatureSequence,
    GramMatrix,
    KernelSpec,
    Segmentation,
    build_variance_table,
    compute_gram,
    placement_objective,
    segment_count_penalty,
    solve_auto,
    solve_fixed,
    solve_range,
    uniform_change_points,
)
from .synth import SynthConfig, SyntheticInstance, generate

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "BoundaryMetrics",
    "Candidate",
    "CandidateCountMismatchError",
    "DEFAULT_CANDIDATE_CAP",
    "FeatureSequence",
    "GramMatrix",
    "InfeasibleConfigError",
    "InfeasibleSegmentCountError",
    "InstanceTooLargeError",
    "InvariantViolationError",
    "KernelSpec",
    "KtsError",
    "MalformedHeaderError",
    "NonFiniteValueError",
    "NonPositiveKError",
    "NonPositivePenaltyWeightError",
    "NonPositiveRateError",
    "ObjectiveComparison",
    "PrecisionLossError",
    "RaggedRowsError",
    "SamplingPlan",
    "SchemaMismatchError",
    "SegmentSamples",
    "Segmentation",
    "SynthConfig",
    "SyntheticInstance",
    "TooManyCandidatesError",
    "UnsortedInputError",
    "VideoTimeline",
    "ZeroNormRowError",
    "boundary_metrics",
    "brute_force",
    "build_variance_table",
    "candidate_timestamps",
    "compute_gram",
    "generate",
    "objective_comparison",
    "placement_objective",
    "plan_samples",
    "segment_count_penalty",
    "solve_auto",
    "solve_fixed",
    "solve_range",
    "uniform_change_points",
    "uniform_plan",
]
