"""Exception types raised across the toolkit.

Everything derives from KtsError so callers can catch the whole family at
once; the CLI maps KtsError to exit code 1 and flag misuse to exit 2.
"""


class KtsError(Exception):
    """Base class for all toolkit errors."""


class TooManyCandidatesError(KtsError):
    """Candidate count exceeds the configured cap (the exact solve is O(m*n^2) time)."""


class ZeroNormRowError(KtsError):
    """Cosine kernel requested but a feature row has zero norm."""


class PrecisionLossError(KtsError, FloatingPointError):
    """Window scatters lost their precision to cancellation (input scale too large)."""


class IndexOutOfRangeError(KtsError, IndexError):
    """Variance window [a, b) violates 0 <= a < b <= n."""


class InfeasibleSegmentCountError(KtsError):
    """Segment count impossible for the given length and minimum segment size."""


class NonPositivePenaltyWeightError(KtsError):
    """Penalty weight for automatic segment selection must be positive."""


class NonPositiveRateError(KtsError):
    """Candidate sampling rate must be positive."""


class NonPositiveKError(KtsError):
    """Frames-per-segment count must be at least one."""


class CandidateCountMismatchError(KtsError):
    """Segmentation and timeline disagree on the number of candidates."""


class MalformedHeaderError(KtsError):
    """Feature file is structurally invalid."""


class RaggedRowsError(KtsError):
    """Feature CSV rows have inconsistent widths."""


class NonFiniteValueError(KtsError):
    """A feature value is NaN or infinite."""


class SchemaMismatchError(KtsError):
    """JSON document carries an unknown or unsupported schema tag."""


class InvariantViolationError(KtsError):
    """A value fails its structural invariants."""


class InstanceTooLargeError(KtsError):
    """Exhaustive solver refuses instances beyond its hard cap."""


class InfeasibleConfigError(KtsError):
    """Synthetic generator configuration is unsatisfiable."""


class UnsortedInputError(KtsError):
    """Boundary arrays must be strictly increasing."""
