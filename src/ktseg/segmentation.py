"""Kernel change-point detection solved exactly by dynamic programming.

The pipeline: feature matrix -> within-segment scatter of every window
under a chosen kernel -> globally optimal change points, either for a
fixed segment count or for an automatically chosen count under a
parsimony penalty.

Two scatter sources feed the one DP, both in column blocks of window end
indices. ``stream_scatter`` computes Gram columns on the fly and keeps
O(n) running window masses, so the solve needs O(m*n) memory; it is the
production path. ``build_variance_table`` materializes every window from a
dense Gram matrix and an integral image in O(n^2) memory; it is the
reference that the brute-force oracle and ``placement_objective`` query.
Dot-kernel features are centred by their column mean first: the scatter
is translation invariant, and centring keeps features far from the origin
from cancelling away its precision.

The DP takes O(m*n^2) time in the worst case. It skips segment starts
that can no longer win (inequality pruning, as in SNIP): the kernel
scatter is superadditive, var(t, e') >= var(t, e) + var(e, e') for
t < e < e', so once start t at end e costs more than start e does, start e
beats t at every later end. Pruning never changes the optimum or its
leftmost tie-breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ._lazy import lazy_numpy
from .errors import (
    IndexOutOfRangeError,
    InfeasibleSegmentCountError,
    InvariantViolationError,
    NonPositivePenaltyWeightError,
    PrecisionLossError,
    TooManyCandidatesError,
    ZeroNormRowError,
)

np = lazy_numpy()

#: Default maximum number of candidate frames (~68 min of video at one
#: candidate per second). The exact solve takes O(m*n^2) time in the worst
#: case, less where pruning drops dominated starts, and O(m*n) memory; the
#: dense reference table holds (n+1)^2 doubles, ~134 MB at this cap.
DEFAULT_CANDIDATE_CAP = 4096

#: Bytes of one column block of window scatters, sized to stay cache-resident;
#: each DP row also evaluates ~_BLOCK_BYTES/16 cells past its blocks' diagonals.
_BLOCK_BYTES = 2 * 2**20

#: Raw scatters below this mean cancellation has destroyed their precision.
_PRECISION_FLOOR = -1e-9

_KERNEL_KINDS = ("dot", "cosine", "rbf")


@dataclass(frozen=True)
class FeatureSequence:
    """n frame descriptors of dimension d, held as a read-only float64 matrix."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvariantViolationError(
                f"feature matrix must be n x d with n, d >= 1, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise InvariantViolationError("feature values must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: "dot" (default), "cosine", or "rbf" with a bandwidth.

    The dot product on raw features is the default; cosine is the dot
    product on L2-normalized rows, and rbf is exp(-||x-y||^2 / (2*bw^2)).
    """

    kind: str = "dot"
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KERNEL_KINDS:
            raise InvariantViolationError(
                f"unknown kernel {self.kind!r}; expected one of {_KERNEL_KINDS}"
            )
        if self.kind == "rbf":
            if self.bandwidth is None or not math.isfinite(self.bandwidth) or self.bandwidth <= 0:
                raise InvariantViolationError("rbf kernel requires a positive finite bandwidth")
        elif self.bandwidth is not None:
            raise InvariantViolationError(f"{self.kind} kernel takes no bandwidth")

    @classmethod
    def from_tag(cls, tag: str) -> "KernelSpec":
        """Parse a compact tag: "dot", "cosine", or "rbf:<bandwidth>"."""
        if tag in ("dot", "cosine"):
            return cls(kind=tag)
        if tag.startswith("rbf:"):
            try:
                bw = float(tag[4:])
            except ValueError:
                raise InvariantViolationError(f"bad rbf bandwidth in kernel tag {tag!r}") from None
            return cls(kind="rbf", bandwidth=bw)
        raise InvariantViolationError(f"unknown kernel tag {tag!r}")

    @property
    def tag(self) -> str:
        if self.kind == "rbf":
            return f"rbf:{self.bandwidth!r}"
        return self.kind


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel values between all candidate frames; compute_gram builds it symmetric."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        shape = self.entries.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise InvariantViolationError(f"Gram matrix must be square and nonempty, got {shape}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class VarianceTable:
    """Dense reference: the clamped scatter of every half-open window.

    var_matrix[a, b] holds the scatter of window [a, b), that is

        (sum of Gram diagonal over [a, b)) - block(a, b) / (b - a)

    with block(a, b) the Gram mass of the window, for every a < b; single-
    frame windows are exactly zero. O(n^2) memory, O(1) per query. trace
    is the sum of the Gram diagonal, the scale of every scatter.
    """

    var_matrix: np.ndarray
    trace: float

    @property
    def n(self) -> int:
        return self.var_matrix.shape[0] - 1

    def var(self, a: int, b: int) -> float:
        """Clamped scatter of candidate window [a, b)."""
        if not (0 <= a < b <= self.n):
            raise IndexOutOfRangeError(f"window [{a}, {b}) out of range for n={self.n}")
        return float(self.var_matrix[a, b])

    def blocks(self, width: int) -> Iterator[tuple[int, np.ndarray]]:
        """Window scatters in column blocks of at most ``width`` end indices.

        Yields (e0, v) for e0 = 1, 1 + width, ...: v[j, t] is the scatter of
        window [t, e0 + j) for t < e0 + j, with one column per start index
        t < e1 - 1 (e1 = e0 + len(v)); entries with t >= e0 + j are unspecified.
        v is a scratch buffer the caller may overwrite; it is reused by the
        next block.
        """
        buf = np.empty(min(width, self.n) * self.n)
        for e0 in range(1, self.n + 1, width):
            e1 = min(e0 + width, self.n + 1)
            v = buf[: (e1 - e0) * (e1 - 1)].reshape(e1 - e0, e1 - 1)
            np.copyto(v, self.var_matrix[: e1 - 1, e0:e1].T)
            yield e0, v


@dataclass(frozen=True)
class ScatterStream:
    """Window scatters computed from the features, one column block at a time.

    For window end e the new Gram column K(s, e-1), s < e-1, comes from one
    matmul per block, and running window masses follow

        M(t, e) = M(t, e-1) + 2 * sum_{t <= s < e-1} K(s, e-1) + K(e-1, e-1)

    so the scatter (sum of diagonal over [t, e)) - M(t, e) / (e - t) never
    needs the Gram matrix: memory is O(n*d) plus one block. ``rows`` holds
    the kernel's input rows (centred for dot, L2-normalized for cosine).
    """

    rows: np.ndarray
    kernel: KernelSpec

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def trace(self) -> float:
        """Sum of the kernel diagonal, the scale of every scatter."""
        return float(self._diagonal().sum())

    def _diagonal(self) -> np.ndarray:
        x = self.rows
        return np.einsum("ij,ij->i", x, x) if self.kernel.kind == "dot" else np.ones(self.n)

    def blocks(self, width: int) -> Iterator[tuple[int, np.ndarray]]:
        """Same contract as :meth:`VarianceTable.blocks`.

        Raises PrecisionLossError when a raw scatter falls below -1e-9.
        """
        x, n = self.rows, self.n
        diag = self._diagonal()
        prefix = np.zeros(n + 1)
        np.cumsum(diag, out=prefix[1:])
        mass = np.zeros(n)  # M(t, e) for t < e at the last end e seen; 0 beyond
        for e0 in range(1, n + 1, width):
            e1 = min(e0 + width, n + 1)
            cols, ends = e1 - 1, np.arange(e0, e1)
            # k[j, s] = K(s, e0 + j - 1) for s < e0 + j - 1, else 0.
            k = np.tril(_kernel_values(x[e0 - 1 : cols], x[:cols], self.kernel), e0 - 2)
            # Suffix sums over s >= t give the new column's mass per window start.
            inc = np.cumsum(k[:, ::-1], axis=1)[:, ::-1]
            inc *= 2.0
            inc += diag[e0 - 1 : cols, None]
            inc = np.tril(inc, e0 - 1)
            inc[0] += mass[:cols]
            np.cumsum(inc, axis=0, out=inc)  # inc[j, t] = M(t, e0 + j)
            mass[:cols] = inc[-1]
            inc /= np.maximum(ends[:, None] - np.arange(cols), 1)
            raw = np.tril(np.subtract.outer(prefix[e0:e1], prefix[:cols]) - inc, e0 - 1)
            _check_precision(raw)
            np.maximum(raw, 0.0, out=raw)
            # A single frame has zero scatter by definition; pin it exactly.
            raw[ends - e0, ends - 1] = 0.0
            yield e0, raw


@dataclass(frozen=True)
class Segmentation:
    """Split of n candidates into m half-open segments.

    change_points holds the m-1 interior boundaries t_1 < ... < t_(m-1);
    segment i spans [t_(i-1), t_i) with t_0 = 0 and t_m = n. objective is
    the total within-segment scatter; penalty is nonzero only when the
    segment count was chosen automatically.
    """

    n: int
    m: int
    change_points: tuple[int, ...]
    objective: float
    penalty: float = 0.0
    penalty_weight: float = 0.0
    min_segment_length: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "change_points", tuple(int(t) for t in self.change_points))
        if self.n < 1 or self.m < 1:
            raise InvariantViolationError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if self.min_segment_length < 1:
            raise InvariantViolationError("minimum segment length must be >= 1")
        if len(self.change_points) != self.m - 1:
            raise InvariantViolationError(
                f"expected {self.m - 1} change points for m={self.m}, got {len(self.change_points)}"
            )
        for a, b in self.segment_bounds():
            if b - a < self.min_segment_length:
                raise InvariantViolationError(
                    f"segment [{a}, {b}) shorter than minimum length {self.min_segment_length}"
                )
        if not math.isfinite(self.objective) or self.objective < 0:
            raise InvariantViolationError("objective must be finite and nonnegative")
        if not math.isfinite(self.penalty) or self.penalty < 0:
            raise InvariantViolationError("penalty must be finite and nonnegative")
        if not math.isfinite(self.penalty_weight) or self.penalty_weight < 0:
            raise InvariantViolationError("penalty weight must be finite and nonnegative")

    def segment_bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open (start, end) pairs covering [0, n)."""
        bounds = (0, *self.change_points, self.n)
        return tuple(zip(bounds[:-1], bounds[1:]))


def _kernel_rows(
    features: FeatureSequence, kernel: KernelSpec, max_candidates: int
) -> np.ndarray:
    """The rows the kernel compares, after the candidate cap and row checks.

    Dot-kernel rows are centred by their column mean. The scatter is
    translation invariant, and centred rows keep the Gram entries near the
    scatter's own magnitude, so a large offset cannot cancel it away. Raises
    PrecisionLossError unless 4*n*sum ||x||^2, a bound on every kernel value,
    window mass and prefix sum, is finite (for cosine: unless every norm is).
    """
    if features.n > max_candidates:
        raise TooManyCandidatesError(
            f"{features.n} candidate frames exceed the cap of {max_candidates}; "
            "the exact solve takes O(m*n^2) time (raise the cap explicitly to proceed)"
        )
    x = features.values
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel.kind == "dot":
            x = x - x.mean(axis=0)
        norms = np.linalg.norm(x, axis=1) if kernel.kind == "cosine" else None
        bound = norms.max() if norms is not None else 4.0 * len(x) * np.einsum("ij,ij->", x, x)
    if not np.isfinite(bound):
        raise PrecisionLossError(
            f"kernel values overflow float64 (bound {bound:.3e}); "
            "rescale the features closer to unit magnitude"
        )
    if norms is None:
        return x
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroNormRowError(f"cosine kernel requires nonzero rows; row {zero[0]} is all zero")
    return x / norms[:, None]


def _kernel_values(xa: np.ndarray, xb: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """K(a, b) for every row a of xa and b of xb, off the prepared rows."""
    g = xa @ xb.T
    if kernel.kind == "rbf":
        sqa = np.einsum("ij,ij->i", xa, xa)
        sqb = sqa if xb is xa else np.einsum("ij,ij->i", xb, xb)
        d2 = np.maximum(sqa[:, None] + sqb[None, :] - 2.0 * g, 0.0)
        g = np.exp(-d2 / (2.0 * kernel.bandwidth**2))
    return g


def _check_precision(raw: np.ndarray) -> None:
    worst = raw.min()
    if not worst >= _PRECISION_FLOOR:  # NaN fails too
        raise PrecisionLossError(
            f"scatter table lost precision (raw minimum {worst:.3e}); "
            "rescale the features closer to unit magnitude"
        )


def stream_scatter(
    features: FeatureSequence,
    kernel: KernelSpec | None = None,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> ScatterStream:
    """Scatter source for the solvers in O(m*n) memory; no Gram matrix is formed.

    Raises TooManyCandidatesError above ``max_candidates`` frames and
    ZeroNormRowError when the cosine kernel meets an all-zero row; the
    solvers raise PrecisionLossError as in :func:`build_variance_table`.
    """
    kernel = kernel if kernel is not None else KernelSpec()
    return ScatterStream(rows=_kernel_rows(features, kernel, max_candidates), kernel=kernel)


def compute_gram(
    features: FeatureSequence,
    kernel: KernelSpec | None = None,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> GramMatrix:
    """Kernel values for every frame pair, accumulated in float64.

    The dot kernel is taken between rows centred by their column mean, so
    these are the Gram entries of the centred features; the scatters built
    from them are those of the raw features. Raises TooManyCandidatesError
    above ``max_candidates`` frames and ZeroNormRowError when the cosine
    kernel meets an all-zero row.
    """
    kernel = kernel if kernel is not None else KernelSpec()
    x = _kernel_rows(features, kernel, max_candidates)
    g = _kernel_values(x, x, kernel)
    # Mirror the upper triangle in place so symmetry holds bit-for-bit.
    for i in range(1, g.shape[0]):
        g[i, :i] = g[:i, i]
    if kernel.kind != "dot":
        np.fill_diagonal(g, 1.0)
    g.setflags(write=False)
    return GramMatrix(entries=g)


def build_variance_table(gram: GramMatrix) -> VarianceTable:
    """The clamped scatter of every window, from diagonal and 2-D prefix sums.

    O(n^2) time; besides the Gram matrix, memory is the returned table plus
    one row block. Windows read a Gram block only through its diagonal and
    sum, so a non-symmetric input counts as its symmetric part. Raw scatters
    may dip a hair below zero from cancellation in the prefix sums; below
    -1e-9 the input scale has destroyed their precision: PrecisionLossError.
    """
    g = gram.entries
    n = gram.n
    diag_prefix = np.zeros(n + 1)
    diag_prefix[1:] = np.cumsum(np.diagonal(g))
    # out starts as the integral image, out[a, b] = sum of g[:a, :b] ...
    out = np.zeros((n + 1, n + 1))
    column_sums = np.zeros(n)
    for a in range(1, n + 1):
        column_sums += g[a - 1]
        np.cumsum(column_sums, out=out[a, 1:])
    # ... and is overwritten by scatter rows top to bottom. Row a needs
    # out[a, b] and out[b, a] for b > a only, which later rows still hold.
    bpd = out.diagonal().copy()
    idx = np.arange(n + 1)
    width = max(_BLOCK_BYTES // (8 * (n + 1)), 1)
    for a0 in range(0, n + 1, width):
        a1 = min(a0 + width, n + 1)
        transposed = out[:, a0:a1].T.copy()
        block = ((bpd[None, :] - out[a0:a1]) - transposed) + bpd[a0:a1, None]
        length = idx[None, :] - idx[a0:a1, None]
        valid = length >= 1
        out[a0:a1] = np.where(
            valid,
            (diag_prefix[None, :] - diag_prefix[a0:a1, None]) - block / np.where(valid, length, 1),
            0.0,
        )
    _check_precision(out)
    var_matrix = np.maximum(out, 0.0, out=out)
    # A single frame has zero scatter by definition; pin it exactly.
    var_matrix[idx[:-1], idx[1:]] = 0.0
    var_matrix.setflags(write=False)
    return VarianceTable(var_matrix=var_matrix, trace=float(diag_prefix[-1]))


def placement_objective(table: VarianceTable, change_points: Sequence[int]) -> float:
    """Total scatter of an explicit placement, accumulated left to right.

    Uses the exact same addition order as the DP solvers so equal
    placements produce bit-identical totals.
    """
    bounds = (0, *change_points, table.n)
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        total += table.var(a, b)
    return total


def segment_count_penalty(m: int, n: int, weight: float = 1.0) -> float:
    """Parsimony penalty weight * m * ln(m/n + 1) charged against m segments."""
    return weight * m * math.log(m / n + 1.0)


def _check_feasible(n: int, m: int, min_len: int) -> None:
    if min_len < 1:
        raise InfeasibleSegmentCountError(f"minimum segment length must be >= 1, got {min_len}")
    if m < 1 or m * min_len > n:
        raise InfeasibleSegmentCountError(
            f"cannot cut {n} candidates into {m} segments of length >= {min_len}"
        )


def _solve_rows(table: VarianceTable | ScatterStream, m_max: int, min_len: int):
    """Fill DP rows 1..m_max of best-cost prefixes plus argmin backpointers.

    cost[i][e] is the optimal scatter of splitting [0, e) into i segments
    of length >= min_len (inf when infeasible); back[i][e] the leftmost
    argmin start of the last segment. One sweep over blocks of end indices
    e fills every row for the block before moving on: row i needs row i-1
    only at starts t <= e - min_len, which earlier blocks or this block's
    previous row already hold. Each row touches only its feasible cells,
    ends e >= i*min_len and starts lo[i] <= t <= e - min_len.

    lo[i] starts at (i-1)*min_len and only grows. After each block but the
    last, row i compares its starts at end e = e1 - min_len, the last end
    whose verdict holds for every end of the next block: a start t with
    cost[i-1][t] + var(t, e) > cost[i-1][e] + margin loses to start e at
    every end e' >= e + min_len, because var(t, e') >= var(t, e) +
    var(e, e'). lo[i] skips the leading run of such starts. The margin
    covers rounding, so ties are never pruned and cost and back equal
    those of the unpruned sweep bit for bit. O(m*n^2) time in the worst case.
    """
    n = table.n
    cost = np.full((m_max + 1, n + 1), np.inf)
    back = np.zeros((m_max + 1, n + 1), dtype=np.int32)
    lo = np.arange(-1, m_max) * min_len
    # The margin bounds rounding. Superadditivity holds for exact scatters;
    # each one either source yields is within r = 4*(n+1)^2*eps*trace of
    # exact: the integral image and the running masses add at most 2n
    # terms whose magnitudes total at most n*trace, and a window of two or
    # more frames divides that error by its length (single frames are
    # pinned to 0). Costs and scatters stay below 2*trace, so each of the
    # three additions behind one comparison rounds by at most 2*eps*trace.
    # 3r plus those roundings leaves over 3*(n+1)^2*eps*trace of the margin
    # for the kernel values' own rounding, about 2*d*eps*trace per scatter.
    margin = 16 * (n + 1) ** 2 * np.finfo(np.float64).eps * table.trace
    # Blocks small enough to stay cache-resident; the add/argmin pair then
    # streams each block once per DP row.
    width = max(_BLOCK_BYTES // (8 * (n + 1)), 1)
    cand = np.empty(min(width, n) * n)
    for e0, var in table.blocks(width):
        e1 = e0 + var.shape[0]
        stop = e1 - min_len  # feasible starts of the block's last end lie below
        if stop <= 0:
            continue
        var = var[:, :stop]
        var[np.arange(stop) > np.arange(e0 - min_len, e1 - min_len)[:, None]] = np.inf
        cost[1, e0:e1] = var[:, 0]
        for i in range(2, m_max + 1):
            lo_e, lo_t = max(e0, i * min_len), lo[i]
            if lo_e >= e1:
                break
            v = var[lo_e - e0 :, lo_t:]
            c = cand[: v.size].reshape(v.shape)
            np.add(cost[i - 1, lo_t:stop], v, out=c)
            best = c.argmin(axis=1)
            back[i, lo_e:e1] = best + lo_t
            cost[i, lo_e:e1] = c[np.arange(len(best)), best]
            if e1 <= n and stop >= lo_e:
                # stop == e1 - min_len is the end e of the rule above.
                beaten = c[stop - lo_e, : stop - min_len - lo_t + 1] > cost[i - 1, stop] + margin
                lo[i] += beaten.argmin() if not beaten.all() else beaten.size
    return cost, back


def _segmentation(n: int, m: int, cost, back, min_len: int, **penalty) -> Segmentation:
    """The optimal split of [0, n) into m segments, read back from the DP rows."""
    cps, j = [], n
    for i in range(m, 1, -1):
        j = int(back[i, j])
        cps.append(j)
    return Segmentation(
        n=n,
        m=m,
        change_points=cps[::-1],
        objective=float(cost[m, n]),
        min_segment_length=min_len,
        **penalty,
    )


def solve_fixed(
    table: VarianceTable | ScatterStream, m: int, min_segment_length: int = 1
) -> Segmentation:
    """Globally optimal segmentation into exactly m segments.

    Exact dynamic program over cost[i][j] = min_t cost[i-1][t] + var(t, j),
    O(m n^2) time in the worst case; starts t that some later start beats
    at every remaining end, by the superadditivity of the scatter, are
    skipped. Ties take the smallest t at every cell, which makes the
    result deterministic and comparable against exhaustive enumeration.
    """
    _check_feasible(table.n, m, min_segment_length)
    cost, back = _solve_rows(table, m, min_segment_length)
    return _segmentation(table.n, m, cost, back, min_segment_length)


def solve_auto(
    table: VarianceTable | ScatterStream,
    m_max: int,
    penalty_weight: float = 1.0,
    min_segment_length: int = 1,
) -> Segmentation:
    """Segmentation with the segment count chosen by penalized selection.

    Shares one pruned DP sweep (see :func:`solve_fixed`; O(m_max n^2) time
    in the worst case) up to m_max, then picks the m in [1, m_max]
    minimizing objective(m) + weight * m * ln(m/n + 1); equal totals go to
    the smaller m. m_max above n // min_segment_length, the most segments
    that fit, is lowered to it, so one m_max serves inputs of any length.
    The returned objective excludes the penalty, which is reported
    separately.
    """
    if not (penalty_weight > 0) or not math.isfinite(penalty_weight):
        raise NonPositivePenaltyWeightError(f"penalty weight must be positive, got {penalty_weight}")
    n = table.n
    _check_feasible(n, 1, min_segment_length)
    m_max = min(m_max, n // min_segment_length)
    _check_feasible(n, m_max, min_segment_length)
    cost, back = _solve_rows(table, m_max, min_segment_length)
    penalties = [segment_count_penalty(m, n, penalty_weight) for m in range(1, m_max + 1)]
    totals = [float(cost[m, n]) + p for m, p in enumerate(penalties, start=1)]
    m = 1 + totals.index(min(totals))
    return _segmentation(
        n, m, cost, back, min_segment_length, penalty=penalties[m - 1], penalty_weight=penalty_weight
    )


def solve_range(
    table: VarianceTable | ScatterStream,
    m_values: Iterable[int],
    min_segment_length: int = 1,
) -> list[Segmentation]:
    """solve_fixed for several segment counts off a single DP sweep."""
    ms = [int(m) for m in m_values]
    if not ms:
        return []
    for m in ms:
        _check_feasible(table.n, m, min_segment_length)
    cost, back = _solve_rows(table, max(ms), min_segment_length)
    return [_segmentation(table.n, m, cost, back, min_segment_length) for m in ms]
