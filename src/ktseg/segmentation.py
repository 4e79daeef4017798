"""Kernel change-point detection solved exactly by dynamic programming.

The pipeline: feature matrix -> within-segment scatter of every window
under a chosen kernel -> globally optimal change points, either for a
fixed segment count or for an automatically chosen count under a
parsimony penalty.

One scatter source feeds the DP and the KTS-versus-uniform comparison:
``compute_gram`` keeps the Gram matrix implicit in the kernel's input rows,
and its ``blocks`` form the kernel columns one block of window end indices
at a time, one matmul per block, and turn them into scatters by O(n)
running sums of squared pairwise kernel distances (``_scatter_blocks``):
a solve needs O(m*n) memory. Chosen windows (``_WindowGather``) are read
off the blocks of the solve they feed, so a comparison makes no pass of
its own.
``build_variance_table`` writes the same blocks down as the dense reference
of the brute-force oracle, ``placement_objective`` and the tests; its
(n+1)^2 table is the only O(n^2) array, its scatters the solvers', bit for bit.
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
from contextlib import closing
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

#: Bytes of one column block of window scatters, sized to stay cache-resident (the
#: block arithmetic holds two, turned in place from kernel columns into scatters).
_BLOCK_BYTES = 2 * 2**20

#: Most window ends one DP step takes from a block. Each DP row also evaluates the
#: infeasible corner past every step's diagonal, n*ends/2 cells in all, so blocks
#: wider than this are split evenly; narrower steps would cost more numpy calls.
_DP_ENDS = 128

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
            bw = self.bandwidth  # exp(-d^2 / (2*bw^2)) needs 2*bw^2 finite and nonzero
            if bw is None or not bw > 0 or not 0.0 < 2.0 * bw * bw < math.inf:
                raise InvariantViolationError(
                    "rbf kernel requires a positive bandwidth with 2*bw^2 finite and nonzero"
                )
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
class VarianceTable:
    """Dense reference: the clamped scatter of every half-open window.

    var_matrix[a, b] holds the scatter of window [a, b), that is

        sum_{a <= s < s' < b} d2(s, s') / (b - a),
        d2(s, s') = K(s, s) + K(s', s') - 2 * K(s, s'),

    for every a < b: the squared kernel distances of the window's frame pairs,
    summed and divided by its length. That equals its Gram diagonal sum less
    its Gram mass over b - a. Single-frame windows are exactly zero. O(n^2)
    memory, O(1) per query. trace is the sum of the Gram diagonal, the scale
    of every scatter.
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

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Window scatters in column blocks of ``width = _block_width(n)`` end indices.

        Yields (e0, v) for e0 = 1, 1 + width, ...: v[j, t] is the scatter of
        window [t, e0 + j) for t < e0 + j, with one column per start index
        t < e1 - 1 (e1 = e0 + len(v)); entries with t >= e0 + j are unspecified.
        v is a scratch buffer the caller may overwrite; it is reused by the
        next block.
        """
        width = _block_width(self.n)
        buf = np.empty(min(width, self.n) * self.n)
        for e0 in range(1, self.n + 1, width):
            e1 = min(e0 + width, self.n + 1)
            v = buf[: (e1 - e0) * (e1 - 1)].reshape(e1 - e0, e1 - 1)
            np.copyto(v, self.var_matrix[: e1 - 1, e0:e1].T)
            yield e0, v


@dataclass(frozen=True)
class GramMatrix:
    """Kernel values between all candidate frames, kept implicit in the kernel's input rows.

    ``rows`` holds the rows the kernel compares (centred for dot,
    L2-normalized for cosine). Gram columns are formed on demand, one block
    at a time, so no n x n array is held: memory is O(n*d) plus one block.
    """

    rows: np.ndarray
    kernel: KernelSpec

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def trace(self) -> float:
        """Sum of the kernel diagonal, the scale of every scatter."""
        return float(_kernel_diagonal(self.rows, self.kernel).sum())

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Same contract as :meth:`VarianceTable.blocks`; see :func:`_scatter_blocks`."""
        blocks = _scatter_blocks(self)
        return _prefetched(blocks) if _block_width(self.n) < self.n else blocks  # one block: no thread


def _block_width(n: int) -> int:
    """End indices per column block of ``_BLOCK_BYTES``.

    The solvers and the dense table share it: a matmul's last bits depend on its shape.
    """
    return max(_BLOCK_BYTES // (8 * (n + 1)), 1)


def _scatter_blocks(gram: GramMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """The one scatter arithmetic, computed in place in reused buffers.

    Yields the blocks of :meth:`VarianceTable.blocks` for ``gram``. One matmul per
    block forms the kernel column of each end e = e0 + j, K(e-1, s) for s < cols,
    and turns it into squared kernel distances d2(s, e-1); only s < e-1 is read.
    Running pair sums follow

        P(t, e) = P(t, e-1) + sum_{t <= s < e-1} d2(s, e-1),
        d2(s, s') = K(s, s) + K(s', s') - 2 * K(s, s'),

    and the scatter of [t, e) is P(t, e) / (e - t), so its rounding depends on
    the window's own rows only. Entries with t >= e-1 come out exactly 0.
    Blocks alternate between two buffers, so a consumer may hold (and
    overwrite) block b while block b + 1 is computed. Raises PrecisionLossError
    when a raw scatter falls below -1e-9.
    """
    x, kernel = gram.rows, gram.kernel
    diag = _kernel_diagonal(x, kernel)
    n = len(diag)
    width = _block_width(n)
    w_max = min(width, n)
    pairs = np.zeros(n)  # P(t, e) for t < e at the last end e seen; 0 beyond
    lengths = np.maximum(np.arange(n, -w_max, -1), 1.0)  # [n - e + t]: length of [t, e)
    upper = np.arange(w_max) >= np.arange(w_max)[:, None]
    bufs = np.empty(w_max * n), np.empty(w_max * n)
    for b, e0 in enumerate(range(1, n + 1, width)):
        w, cols = min(width, n + 1 - e0), min(e0 + width, n + 1) - 1
        k = bufs[b % 2][: w * cols].reshape(w, cols)
        _kernel_values(x[e0 - 1 : cols], x[:cols], kernel, out=k)
        k *= -2.0
        k += diag[:cols]
        k += diag[e0 - 1 : cols, None]  # k[j, s] = d2(s, e-1) for e = e0 + j
        np.copyto(k[:, e0 - 1 :], 0.0, where=upper[:w, :w])  # keep s < e0 + j - 1
        np.cumsum(k[:, ::-1], axis=1, out=k[:, ::-1])  # suffix sums over s >= t: new pairs
        k[0] += pairs[:cols]
        for j in range(1, w):
            k[j] += k[j - 1]  # k[j, t] = P(t, e0 + j)
        pairs[:cols] = k[-1]
        k /= np.lib.stride_tricks.sliding_window_view(lengths[n - cols : n + w - 1], cols)[::-1]
        _check_precision(k)
        np.maximum(k, 0.0, out=k)
        yield e0, k


class _WindowGather:
    """``source``'s blocks, passed on after the scatter of each window [a, b) of ``windows`` is read off.

    Each window is read from the block holding end b before a consumer (a solver) may
    overwrite that block, so once every block has passed, ``scatters[k]`` holds
    var_matrix[a, b] of ``windows[k]`` bit for bit. Every window must satisfy
    0 <= a < b <= n; callers build them from valid change points.
    """

    def __init__(self, source: VarianceTable | GramMatrix, windows: Sequence[tuple[int, int]]):
        self.source, self.n = source, source.n
        self._a, self._b = np.array(windows, dtype=np.intp).reshape(-1, 2).T
        self.scatters = np.empty(len(self._b))

    @property
    def trace(self) -> float:
        return self.source.trace

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        a, b, order = self._a, self._b, np.argsort(self._b)
        with closing(self.source.blocks()) as blocks:  # closing joins a worker
            for e0, v in blocks:
                i = order[slice(*np.searchsorted(b, (e0, e0 + len(v)), sorter=order))]
                self.scatters[i] = v[b[i] - e0, a[i]]
                yield e0, v


def _steps(blocks: Iterator) -> Iterator[tuple[int, np.ndarray]]:
    """Each block (e0, v) of ``blocks`` split by rows into near-equal steps of at most ``_DP_ENDS`` ends."""
    for e0, v in blocks:
        steps = -(-len(v) // _DP_ENDS)  # ceiling divisions
        size = -(-len(v) // steps)
        for a in range(0, len(v), size):
            yield e0 + a, v[a : a + size]


def _prefetched(items: Iterator) -> Iterator:
    """``items`` unchanged, each computed one ahead on a worker thread; its errors re-raise here.

    Every exit (an error on either thread, or ``close()``) joins the worker, then closes ``items``.
    """
    from concurrent.futures import ThreadPoolExecutor  # ~8 ms, paid only when used

    done = object()
    with closing(items), ThreadPoolExecutor(1, "ktseg-scatter") as pool:
        ahead = pool.submit(next, items, done)
        while (item := ahead.result()) is not done:
            ahead = pool.submit(next, items, done)
            yield item


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
    squared kernel distance and window pair sum, is finite (for cosine: unless
    every norm is).
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


def _kernel_values(xa: np.ndarray, xb: np.ndarray, kernel: KernelSpec, out=None) -> np.ndarray:
    """K(a, b) for every row a of xa and b of xb, off the prepared rows, into ``out`` if given."""
    g = np.matmul(xa, xb.T, out=out)
    if kernel.kind == "rbf":
        sqa = np.einsum("ij,ij->i", xa, xa)
        sqb = sqa if xb is xa else np.einsum("ij,ij->i", xb, xb)
        d2 = np.maximum(sqa[:, None] + sqb[None, :] - 2.0 * g, 0.0)
        with np.errstate(over="ignore"):  # a ratio past float64 stands for exp(-inf) = 0
            g = np.exp(-d2 / (2.0 * kernel.bandwidth**2), out=g)
    return g


def _kernel_diagonal(rows: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """K(a, a) for every prepared row a: its squared norm for dot, 1 for cosine and rbf."""
    return np.einsum("ij,ij->i", rows, rows) if kernel.kind == "dot" else np.ones(len(rows))


def _check_precision(raw: np.ndarray) -> None:
    worst = raw.min()
    if not worst >= _PRECISION_FLOOR:  # NaN fails too
        raise PrecisionLossError(
            f"scatter table lost precision (raw minimum {worst:.3e}); "
            "rescale the features closer to unit magnitude"
        )


def compute_gram(
    features: FeatureSequence,
    kernel: KernelSpec | None = None,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> GramMatrix:
    """This kernel over these features: the one scatter source of the solvers and the table.

    No Gram entry is formed here; the solvers and :func:`build_variance_table`
    compute them block by block. The dot kernel is taken between rows centred
    by their column mean, so these are the Gram entries of the centred
    features; the scatters built from them are those of the raw features.
    Raises TooManyCandidatesError above ``max_candidates`` frames and
    ZeroNormRowError when the cosine kernel meets an all-zero row; the
    scatters raise PrecisionLossError when a raw one falls below -1e-9, that
    is when cancellation has destroyed its precision.
    """
    kernel = kernel if kernel is not None else KernelSpec()
    rows = _kernel_rows(features, kernel, max_candidates)
    rows.setflags(write=False)
    return GramMatrix(rows=rows, kernel=kernel)


def build_variance_table(gram: GramMatrix) -> VarianceTable:
    """The clamped scatter of every window: the blocks the solvers consume, written down.

    Runs :func:`_scatter_blocks` on the calling thread at the solvers' block
    width, so every entry is bit-identical to the scatter a solver sees for
    that window. O(n^2) time; memory is the returned table plus two
    blocks. Raises PrecisionLossError when a raw scatter falls below -1e-9.
    """
    n = gram.n
    var_matrix = np.zeros((n + 1, n + 1))
    # No worker thread: a block copy is too light a consumer for a prefetch to pay.
    for e0, raw in _scatter_blocks(gram):
        var_matrix[: e0 + len(raw) - 1, e0 : e0 + len(raw)] = raw.T
    var_matrix.setflags(write=False)
    return VarianceTable(var_matrix=var_matrix, trace=gram.trace)


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


def _solve_rows(table: VarianceTable | GramMatrix, ms: Sequence[int], min_len: int):
    """Fill DP rows 1..max(ms) of best-cost prefixes plus argmin backpointers.

    cost[i][e] is the optimal scatter of splitting [0, e) into i segments
    of length >= min_len (inf when infeasible); back[i][e] the leftmost
    argmin start of the last segment. One sweep over steps of end indices
    e (the source's blocks, split into at most _DP_ENDS ends each) fills
    every row for the step before moving on: row i needs row i-1 only at
    starts t <= e - min_len, which earlier steps or this step's previous
    row already hold. Each row touches only its feasible cells, ends
    e >= i*min_len and starts lo[i] <= t <= e - min_len, and only the ends
    that the requested counts ``ms`` can reach: row i >= 2 stops at
    e <= n - (m* - i)*min_len, where m* is the smallest requested count
    >= i, since its m* - i remaining segments must fit after e. The
    backtrack of a requested m reads row i at no later end, and row i+1
    reads row i only at starts below its own bound less min_len, so cells
    past the bound (left at inf and 0) are never read. Requesting every
    count, as solve_auto does, leaves the bound at n.

    lo[i] starts at (i-1)*min_len and only grows. After each step whose
    next step still has ends of row i, row i compares its starts at end
    e = e1 - min_len, the last end whose verdict holds for every end of the
    next step: a start t with
    cost[i-1][t] + var(t, e) > cost[i-1][e] + margin loses to start e at
    every end e' >= e + min_len, because var(t, e') >= var(t, e) +
    var(e, e'). lo[i] skips the leading run of such starts. The margin
    covers rounding, so ties are never pruned and every cell within the
    bounds equals that of the unpruned sweep bit for bit. O(m*n^2) time in
    the worst case.
    """
    n, m_max = table.n, max(ms)
    cost = np.full((m_max + 1, n + 1), np.inf)
    back = np.zeros((m_max + 1, n + 1), dtype=np.int32)
    lo = [(i - 1) * min_len for i in range(m_max + 1)]
    hi = [n + 1] * (m_max + 1)  # hi[i]: one past the last end row i fills
    for i in range(m_max - 1, 1, -1):
        hi[i] = n + 1 if i in ms else hi[i + 1] - min_len
    # The margin bounds rounding. Superadditivity holds for exact scatters;
    # each one the shared block arithmetic yields is within r =
    # (4n + d + 4)*eps*trace of exact. A window of L frames sums each of its
    # pairs' d2(s, s') once, through at most 2n additions (the suffix sums,
    # then the running sum over ends); |d2(s, s')| <= 2*(K(s,s) + K(s',s')),
    # so its terms total at most 2*(L-1)*trace, and forming one rounds by
    # about (d+4)*eps*(K(s,s) + K(s',s')). Dividing by L leaves r. Costs and
    # scatters stay below 2*trace, so each of the three additions behind one
    # comparison rounds by at most 2*eps*trace. 3r plus those roundings,
    # (12n + 3d + 18)*eps*trace, stays below the margin for every d <= 4*n^2.
    margin = 16 * (n + 1) ** 2 * np.finfo(np.float64).eps * table.trace
    # Blocks small enough to stay cache-resident; the add/argmin pair then
    # streams each block once per DP row.
    cand = np.empty(min(_block_width(n), n) * n)
    # Closing the source on any exit stops and joins a GramMatrix's worker thread.
    with closing(table.blocks()) as blocks:
        for e0, var in _steps(blocks):
            e1 = e0 + var.shape[0]
            stop = e1 - min_len  # feasible starts of the step's last end lie below
            if stop <= 0:
                continue
            var = var[:, :stop]
            t0 = e0 - min_len + 1  # row j takes no start t >= t0 + j: inf only in that corner
            corner = ~np.tri(len(var), stop - t0, -1, dtype=bool)[:, max(t0, 0) - t0 :]
            np.copyto(var[:, max(t0, 0) :], np.inf, where=corner)
            cost[1, e0:e1] = var[:, 0]
            for i in range(2, m_max + 1):
                lo_e, lo_t, hi_e = max(e0, i * min_len), lo[i], min(e1, hi[i])
                if lo_e >= e1:
                    break
                if lo_e >= hi_e:
                    continue  # row i is complete; a later row of the same count may not be
                v = var[lo_e - e0 : hi_e - e0, lo_t : hi_e - min_len]
                c = cand[: v.size].reshape(v.shape)
                np.add(cost[i - 1, lo_t : hi_e - min_len], v, out=c)
                best = c.argmin(axis=1)
                back[i, lo_e:hi_e] = best + lo_t
                cost[i, lo_e:hi_e] = c[np.arange(len(best)), best]
                if e1 < hi[i] and stop >= lo_e:
                    # stop == e1 - min_len is the end e of the rule above.
                    beaten = c[stop - lo_e, : stop - min_len - lo_t + 1] > cost[i - 1, stop] + margin
                    lo[i] += int(beaten.argmin()) if not beaten.all() else beaten.size
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
    table: VarianceTable | GramMatrix, m: int, min_segment_length: int = 1
) -> Segmentation:
    """Globally optimal segmentation into exactly m segments.

    Exact dynamic program over cost[i][j] = min_t cost[i-1][t] + var(t, j),
    O(m n^2) time in the worst case; starts t that some later start beats
    at every remaining end, by the superadditivity of the scatter, are
    skipped. Ties take the smallest t at every cell, which makes the
    result deterministic and comparable against exhaustive enumeration.
    """
    _check_feasible(table.n, m, min_segment_length)
    cost, back = _solve_rows(table, [m], min_segment_length)
    return _segmentation(table.n, m, cost, back, min_segment_length)


def solve_auto(
    table: VarianceTable | GramMatrix,
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
    cost, back = _solve_rows(table, range(1, m_max + 1), min_segment_length)
    penalties = [segment_count_penalty(m, n, penalty_weight) for m in range(1, m_max + 1)]
    totals = [float(cost[m, n]) + p for m, p in enumerate(penalties, start=1)]
    m = 1 + totals.index(min(totals))
    return _segmentation(
        n, m, cost, back, min_segment_length, penalty=penalties[m - 1], penalty_weight=penalty_weight
    )


def solve_range(
    table: VarianceTable | GramMatrix,
    m_values: Iterable[int],
    min_segment_length: int = 1,
) -> list[Segmentation]:
    """solve_fixed for several segment counts off a single DP sweep."""
    ms = [int(m) for m in m_values]
    if not ms:
        return []
    for m in ms:
        _check_feasible(table.n, m, min_segment_length)
    cost, back = _solve_rows(table, ms, min_segment_length)
    return [_segmentation(table.n, m, cost, back, min_segment_length) for m in ms]
