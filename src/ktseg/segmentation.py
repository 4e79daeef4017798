"""Kernel change-point detection solved exactly by dynamic programming.

The pipeline: feature matrix -> within-segment scatter of every window
under a chosen kernel -> globally optimal change points, either for a
fixed segment count or for an automatically chosen count under a
parsimony penalty.

One scatter source feeds the DP and the KTS-versus-uniform comparison:
``compute_gram`` keeps the Gram matrix implicit in the kernel's input rows,
and its ``blocks`` form the kernel columns one block of 128 window end
indices at a time, one matmul per block, and turn them into scatters by O(n)
running sums of squared pairwise kernel distances (``_scatter_blocks``):
a solve needs O(m*n) memory. Chosen windows (``_WindowGather``) are read
off the blocks of the solve they feed, so a comparison makes no pass of
its own; the brute-force oracle reads its windows off one pass too.
``build_variance_table`` writes the same blocks down: its ``VarianceTable``
is a ``GramMatrix`` whose (n+1)^2 array, the only O(n^2) one, answers
``placement_objective``, the tests and the benchmark in O(1) a window; no CLI
command builds it. A solve or oracle on a table streams its rows' blocks like
any source, so its scatters are the table's, bit for bit.
Dot-kernel features are centred by their column mean first: the scatter
is translation invariant, and centring keeps features far from the origin
from cancelling away its precision.

The DP takes O(m*n^2) time in the worst case. It skips segment starts
that can no longer win (inequality pruning, as in SNIP): the kernel
scatter is superadditive, var(t, e') >= var(t, e) + var(e, e') for
t < e < e', so once start t at end e costs more than start e does, start e
beats t at every later end. Every solve's blocks form kernel columns only
from the lowest start that a row with ends left still reads, and
``solve_auto`` also stops DP rows whose cells all exceed the criterion
total of a feasible split (branch and bound). Neither changes the optimum
or its leftmost tie-breaks.
DP rows are kept only for counts with a choice: a
requested count m with m*min_len = n has one placement, every segment
min_len long, so its windows are read off the solve's block pass and summed
in the DP's order instead. Rows that would take more than half the
machine's physical memory are refused before they are allocated.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ._lazy import lazy_numpy
from .errors import (
    IndexOutOfRangeError,
    InfeasibleSegmentCountError,
    InstanceTooLargeError,
    InvariantViolationError,
    NonFiniteValueError,
    NonPositivePenaltyWeightError,
    PrecisionLossError,
    TooManyCandidatesError,
    ZeroNormRowError,
)

np = lazy_numpy()

#: Default maximum number of candidate frames (~68 min of video at one
#: candidate per second). The exact solve takes O(m*n^2) time in the worst
#: case, less where pruning drops dominated starts, and O(m*n) memory, of which
#: its three block buffers take 3 KiB per candidate (12.6 MB at this cap); the
#: dense reference table holds (n+1)^2 doubles, ~134 MB at this cap.
DEFAULT_CANDIDATE_CAP = 4096

#: Window ends per column block, the one width every block consumer shares: one
#: kernel matmul, one DP step, one table write. A block holds 128*n doubles, so
#: memory stays linear in n. Wider blocks read the n*d kernel rows fewer times,
#: but each DP row also evaluates the infeasible corner past every block's
#: diagonal, n*ends/2 cells in all; narrower ones cost more numpy calls.
_BLOCK_ENDS = 128

#: A block's kernel columns are formed in tiles of this many columns on a fixed
#: grid, the last tile of a block taking the remainder, and a block that starts
#: late starts at a tile edge. It then makes the very matmuls the full pass makes,
#: so its entries keep their bits on any BLAS. Tiles this wide round like one
#: full-width matmul on OpenBLAS 0.3.31 (measured; 128-wide ones do not), so
#: tiling left every scatter as it was. Fixed, and at least ``_BLOCK_ENDS``.
_TILE = 256

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
        if not np.isfinite(values).all():  # the first bad value, row-major, only on failure
            r, c = np.argwhere(~np.isfinite(values))[0]
            raise NonFiniteValueError(f"non-finite value at row {r + 1}, column {c + 1}")
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
class GramMatrix:
    """Kernel values between all candidate frames, kept implicit in the kernel's input rows.

    ``rows`` holds the rows the kernel compares (centred for dot, L2-normalized for cosine) and
    ``sq_norms`` their squared norms, formed once by :func:`compute_gram` for the dot diagonal
    and the rbf distances. Gram columns are formed on demand, one block of ``_BLOCK_ENDS`` ends
    at a time, so no n x n array is held: memory is O(n*d) plus two blocks of 128*n doubles,
    2 KiB per candidate.
    """

    rows: np.ndarray
    kernel: KernelSpec
    sq_norms: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def diag(self) -> np.ndarray:
        """K(a, a) for every row a: its squared norm for dot, 1 for cosine and rbf."""
        return self.sq_norms if self.kernel.kind == "dot" else np.ones(self.n)

    @property
    def trace(self) -> float:
        """Sum of the kernel diagonal, the scale of every scatter."""
        return float(self.diag.sum())

    def blocks(self, start: Callable[[], int] = lambda: 0) -> Iterator[tuple[int, int, np.ndarray]]:
        """Window scatters in column blocks of ``_BLOCK_ENDS`` end indices; see :func:`_scatter_blocks`.

        Yields (e0, c0, v) for e0 = 1, 1 + _BLOCK_ENDS, ...: v[j, t - c0] is the
        scatter of window [t, e0 + j) for c0 <= t < e0 + j, with one column per
        start index c0 <= t < e1 - 1 (e1 = e0 + len(v)); entries with
        t >= e0 + j are unspecified. c0 is at most ``start()`` (0 by default),
        the lowest start the caller will still read, which must never decrease;
        it is read once before each block, on the calling thread. Only a solve's
        prefetched pass (:func:`_solve_rows`) reads it on a worker, maybe a block
        late. v is a scratch buffer the caller may overwrite, reused by a later block.
        """
        return _scatter_blocks(self, start)


@dataclass(frozen=True)
class VarianceTable(GramMatrix):
    """Dense reference: a GramMatrix with the clamped scatter of every half-open window written down.

    var_matrix[a, b] holds the scatter of window [a, b), that is

        sum_{a <= s < s' < b} d2(s, s') / (b - a),
        d2(s, s') = K(s, s) + K(s', s') - 2 * K(s, s'),

    for every a < b: the squared kernel distances of the window's frame pairs,
    summed and divided by its length. That equals its Gram diagonal sum less
    its Gram mass over b - a. Single-frame windows are exactly zero. O(n^2)
    memory, O(1) per query: a reference for the tests and the benchmark, which
    no solver or CLI command reads. Its blocks are its rows' blocks, so a solve
    or oracle on a table computes the very scatters the table holds.
    """

    var_matrix: np.ndarray

    def var(self, a: int, b: int) -> float:
        """Clamped scatter of candidate window [a, b)."""
        if not (0 <= a < b <= self.n):
            raise IndexOutOfRangeError(f"window [{a}, {b}) out of range for n={self.n}")
        return float(self.var_matrix[a, b])


def _scatter_blocks(
    gram: GramMatrix, start: Callable[[], int] = lambda: 0
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The one scatter arithmetic, computed in place in reused buffers.

    Yields the blocks of :meth:`GramMatrix.blocks` for ``gram``. One matmul per
    tile forms the kernel column of each end e = e0 + j, K(e-1, s) for
    c0 <= s < cols, and turns it into squared kernel distances d2(s, e-1);
    only s < e-1 is read. c0 is ``start()``, read once per block, capped at
    the block's last tile edge and rounded down to a tile edge, so it never
    decreases and running sums below it are never read again. Running pair
    sums follow

        P(t, e) = P(t, e-1) + sum_{t <= s < e-1} d2(s, e-1),
        d2(s, s') = K(s, s) + K(s', s') - 2 * K(s, s'),

    and the scatter of [t, e) is P(t, e) / (e - t), so its rounding depends on
    the window's own rows only. Entries with t >= e-1 come out exactly 0.
    Blocks alternate between two buffers, so a solve's prefetched pass (see
    :func:`_solve_rows`) may hold (and overwrite) block b while its worker
    computes block b + 1. Raises PrecisionLossError when a raw scatter the
    block forms falls below -1e-9.
    """
    diag, n = gram.diag, gram.n
    w_max = min(_BLOCK_ENDS, n)
    pairs = np.zeros(n)  # P(t, e) for t < e at the last end e seen; 0 beyond
    lengths = np.maximum(np.arange(n, -w_max, -1), 1.0)  # [n - e + t]: length of [t, e)
    upper = np.arange(w_max) >= np.arange(w_max)[:, None]
    bufs = np.empty(w_max * n), np.empty(w_max * n)
    for b, e0 in enumerate(range(1, n + 1, _BLOCK_ENDS)):
        w, cols = min(_BLOCK_ENDS, n + 1 - e0), min(e0 + _BLOCK_ENDS, n + 1) - 1
        c0 = max(min(start(), cols - _TILE), 0) // _TILE * _TILE
        k = bufs[b % 2][: w * (cols - c0)].reshape(w, cols - c0)
        edges = [*range(c0, max(cols - _TILE, c0) + 1, _TILE), cols]  # the last tile takes the rest
        for s0, s1 in zip(edges[:-1], edges[1:]):
            _kernel_values(gram, slice(e0 - 1, cols), slice(s0, s1), out=k[:, s0 - c0 : s1 - c0])
        k *= -2.0
        k += diag[c0:cols]
        k += diag[e0 - 1 : cols, None]  # k[j, s - c0] = d2(s, e-1) for e = e0 + j
        np.copyto(k[:, e0 - 1 - c0 :], 0.0, where=upper[:w, :w])  # keep s < e0 + j - 1
        np.cumsum(k[:, ::-1], axis=1, out=k[:, ::-1])  # suffix sums over s >= t: new pairs
        k[0] += pairs[c0:cols]
        for j in range(1, w):
            k[j] += k[j - 1]  # k[j, t - c0] = P(t, e0 + j)
        pairs[c0:cols] = k[-1]
        k /= np.lib.stride_tricks.sliding_window_view(lengths[n - cols + c0 : n + w - 1], cols - c0)[::-1]
        _check_precision(k)
        np.maximum(k, 0.0, out=k)
        yield e0, c0, k


class _WindowGather:
    """``source``'s blocks, passed on after the scatter of each window [a, b) of ``windows`` is read off.

    Each window is read from the block holding end b before a consumer (a solver) may
    overwrite that block, so once every block has passed, ``scatters[k]`` holds
    var_matrix[a, b] of ``windows[k]`` bit for bit. Every window must satisfy
    0 <= a < b <= n; callers build them from valid change points.
    """

    def __init__(self, source: GramMatrix, windows: Sequence[tuple[int, int]]):
        self.source, self.n = source, source.n
        self._a, self._b = np.array(windows, dtype=np.intp).reshape(-1, 2).T
        self.scatters = np.empty(len(self._b))

    @property
    def trace(self) -> float:
        return self.source.trace

    def blocks(self, start: Callable[[], int] = lambda: 0) -> Iterator[tuple[int, int, np.ndarray]]:
        a, b, order = self._a, self._b, np.argsort(self._b)
        # unread[r]: the lowest start of the windows left once the r with the lowest ends are read
        unread = [*np.minimum.accumulate(a[order][::-1])[::-1].tolist(), self.n]
        read = 0
        # Both bounds only grow, so the start asked of the source never decreases.
        for e0, c0, v in self.source.blocks(lambda: min(start(), unread[read])):
            first, read = np.searchsorted(b, (e0, e0 + len(v)), sorter=order)
            i = order[first:read]
            self.scatters[i] = v[b[i] - e0, a[i] - c0]
            yield e0, c0, v


def _prefetched(items: Iterator) -> Iterator:
    """``items`` unchanged, each computed one ahead on a worker thread; its errors re-raise here.

    One bare ``ktseg-scatter`` thread answers one request at a time: it forms item b + 1 only
    once the caller has taken item b, so it never writes into the buffer the caller holds (a
    one-slot queue would let it run two items ahead). Every exit (an error on either thread,
    or ``close()``) joins the worker, then closes ``items``.
    """
    import threading
    from queue import SimpleQueue

    done, requests, answers = object(), SimpleQueue(), SimpleQueue()

    def serve() -> None:
        while requests.get():
            try:
                answers.put((next(items, done), None))
            except BaseException as exc:  # re-raised on the caller
                answers.put((None, exc))

    worker = threading.Thread(target=serve, name="ktseg-scatter")
    with closing(items):
        worker.start()
        try:
            requests.put(True)
            while True:
                item, exc = answers.get()
                if exc is not None:
                    raise exc
                if item is done:
                    return
                requests.put(True)  # the worker forms the next item while the caller holds this one
                yield item
        finally:
            requests.put(False)
            worker.join()


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


def _check_candidates(n: int, max_candidates: int) -> None:
    if n > max_candidates:
        raise TooManyCandidatesError(
            f"{n} candidate frames exceed the cap of {max_candidates}; "
            "the exact solve takes O(m*n^2) time (raise the cap explicitly to proceed)"
        )


def _kernel_values(gram: GramMatrix, a: slice, b: slice, out=None) -> np.ndarray:
    """K(s, t) for every row s in slice ``a`` and t in slice ``b`` of ``gram``, into ``out`` if given."""
    x, sq, kernel = gram.rows, gram.sq_norms, gram.kernel
    g = np.matmul(x[a], x[b].T, out=out)
    if kernel.kind == "rbf":
        d2 = np.maximum(sq[a, None] + sq[None, b] - 2.0 * g, 0.0)
        with np.errstate(over="ignore"):  # a ratio past float64 stands for exp(-inf) = 0
            g = np.exp(-d2 / (2.0 * kernel.bandwidth**2), out=g)
    return g


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
    compute them block by block from the rows kept. Dot-kernel rows are centred
    by their column mean, so these are the Gram entries of the centred
    features: the scatter is translation invariant, and centred rows keep the
    Gram entries near the scatter's own magnitude, so a large offset cannot
    cancel it away. Cosine rows are L2-normalized. Raises
    TooManyCandidatesError above ``max_candidates`` frames, ZeroNormRowError
    when the cosine kernel meets an all-zero row, and PrecisionLossError unless
    4*n*sum ||x||^2, a bound on every kernel value, squared kernel distance and
    window pair sum, is finite (for cosine: unless every norm is). The scatters
    raise PrecisionLossError when a raw one falls below -1e-9, that is when
    cancellation has destroyed its precision.
    """
    kernel = kernel if kernel is not None else KernelSpec()
    _check_candidates(features.n, max_candidates)
    x = features.values
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kernel.kind == "dot":
            x = x - x.mean(axis=0)
        norms = np.linalg.norm(x, axis=1) if kernel.kind == "cosine" else None
        x = x / norms[:, None] if norms is not None else x
        sq_norms = np.einsum("ij,ij->i", x, x)
        bound = norms.max() if norms is not None else 4.0 * len(x) * sq_norms.sum()
    if not np.isfinite(bound):
        raise PrecisionLossError(
            f"kernel values overflow float64 (bound {bound:.3e}); "
            "rescale the features closer to unit magnitude"
        )
    if norms is not None:
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroNormRowError(f"cosine kernel requires nonzero rows; row {zero[0] + 1} is all zero")
    x.setflags(write=False)
    return GramMatrix(rows=x, kernel=kernel, sq_norms=sq_norms)


def build_variance_table(gram: GramMatrix) -> VarianceTable:
    """``gram`` with the clamped scatter of every window written down: the blocks the solvers consume.

    Reads ``gram.blocks()`` on the calling thread at the solvers' block
    width, so every entry is bit-identical to the scatter a solver sees for
    that window. O(n^2) time; memory is the returned table plus two
    blocks. Raises PrecisionLossError when a raw scatter falls below -1e-9.
    """
    n = gram.n
    var_matrix = np.zeros((n + 1, n + 1))
    for e0, _, raw in gram.blocks():
        var_matrix[: e0 + len(raw) - 1, e0 : e0 + len(raw)] = raw.T
    var_matrix.setflags(write=False)
    return VarianceTable(rows=gram.rows, kernel=gram.kernel, sq_norms=gram.sq_norms, var_matrix=var_matrix)


def placement_objective(table: VarianceTable, change_points: Sequence[int]) -> float:
    """Total scatter of an explicit placement, summed as the DP sums it (see :func:`_dp_sum`)."""
    bounds = (0, *change_points, table.n)
    return _dp_sum(table.var(a, b) for a, b in zip(bounds[:-1], bounds[1:]))


def _equal_split_total(gram: GramMatrix, m: int) -> float:
    """An upper bound on the total scatter of the split at floor(k*n/m), k = 1..m-1, off the rows.

    For dot and cosine it is the total itself: each window's scatter is its
    rows' squared distances to their mean, O(n*d) in all. For rbf a window
    of at most ``_BLOCK_ENDS`` rows takes L less its kernel mass over L,
    O(n*_BLOCK_ENDS*d) in all; a longer one takes a bound in O(L*d): each
    pair's d2 = 2 - 2*exp(-u) is at most 2 and at most 2u, its squared
    distance over bw^2. Either rounds within the block arithmetic's bound of
    exact, not to its bits.
    """
    x, n, kernel = gram.rows, gram.n, gram.kernel
    total = 0.0
    for a, b in zip([k * n // m for k in range(m)], [k * n // m for k in range(1, m + 1)]):
        w = x[a:b]
        if kernel.kind == "rbf" and b - a <= _BLOCK_ENDS:
            total += (b - a) - float(_kernel_values(gram, slice(a, b), slice(a, b)).sum()) / (b - a)
            continue
        dev = w - w.mean(axis=0)
        scatter = float(np.einsum("ij,ij->", dev, dev))
        total += min(b - a - 1.0, scatter / kernel.bandwidth**2) if kernel.kind == "rbf" else scatter
    return total


def _dp_sum(scatters: Iterable[float]) -> float:
    """``scatters`` added left to right from 0.0, the order in which the DP adds a placement's windows.

    Equal placements thus get bit-identical totals. Not ``sum()``: from Python
    3.12 it compensates float error, so ``sum([1.0, 1e-16, 1e-16])`` is
    1.0000000000000002 there but 1.0 here and in the DP.
    """
    total = 0.0
    for scatter in scatters:
        total += scatter
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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no os.sysconf, or no such name on this platform
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _solve_rows(
    table: GramMatrix, ms: Sequence[int], min_len: int, ceilings: Sequence[float] | None = None
):
    """Fill DP rows 0..max(ms) of best-cost prefixes plus argmin backpointers, off one block pass.

    cost[i][e] is the optimal scatter of splitting [0, e) into i segments of
    length >= min_len (inf when infeasible); back[i][e] the leftmost argmin
    start of the last segment. Row 0 is the empty split, cost[0][0] = 0. One
    sweep over the source's blocks of end indices e takes every row i >= 1
    through the same step for the block before moving on: one add of
    cost[i-1][t] to var(t, e) and one argmin over the starts t. Row i needs
    row i-1 only at starts t <= e - min_len, which earlier blocks or this
    block's previous row already hold.

    Row i fills the ends i*min_len <= e < end[i] from the starts
    lo[i] <= t <= e - min_len below end[i-1]: each row reads starts only
    below the end of the row beneath it, and its costs from end[i] on are
    left at inf. end[0] = 1, as row 0 holds start 0 alone. The requested
    counts ``ms`` set the rest: end[i] = n + 1 for a requested i, else
    end[i+1] - min_len, since the m* - i segments left to the smallest
    requested count m* >= i must fit after e. The backtrack of a requested m
    reads row i at no later end. Requesting every count, as solve_auto
    does, leaves every end at n + 1.

    lo[i] starts at (i-1)*min_len and only grows. After each block whose
    next block still has ends of row i, row i compares its starts at end
    e = e1 - min_len, the last end whose verdict holds for every end of the
    next block: a start t with
    cost[i-1][t] + var(t, e) > cost[i-1][e] + margin loses to start e at
    every end e' >= e + min_len, because var(t, e') >= var(t, e) +
    var(e, e'). lo[i] skips the leading run of such starts. The margin
    covers rounding, so ties are never pruned and every cell within the
    bounds equals that of the unpruned sweep bit for bit. O(m*n^2) time in
    the worst case.

    With ``ceilings``, the ceiling rule lowers end[i] to the first end
    e >= end[i-1] + min_len - 1 with cost[i][e] > ceilings[i], and sets row
    i's cells from e on to inf: every start row i reads is then in the
    window of e, and var(t, e) only grows with e, so every later cell
    exceeds the ceiling too, up to rounding.

    Each block starts at the lowest lo[i] of a row with ends left, n once no row has any:
    starts below it are never read again, so a late block changes no cell. Its blocks are the
    full pass's bit for bit (see :func:`_scatter_blocks`). From four blocks on, a worker thread
    forms each block one ahead (:func:`_prefetched`) and may read the bound a block late. Its
    overlap needs a second free core: on one, subprocess pairs showed it pay at no n from 400
    to 3,600 and lose two pairs in three at n = 400, so smaller solves start none.

    The rows take 12 bytes a cell (a float64 cost, an int32 backpointer),
    (max(ms) + 1)*(n + 1)*12 in all. The solvers ask for no forced count,
    m*min_len = n (see :func:`_solve_counts`), so the sweep's rows stop at
    n/2. Rows over half the machine's physical memory raise
    InstanceTooLargeError before any is allocated.
    """
    n, m_max = table.n, max(ms, default=0)
    row_bytes, memory = (n + 1) * 12, _physical_memory()
    if memory is not None and (m_max + 1) * row_bytes > memory // 2:
        raise InstanceTooLargeError(
            f"DP rows for up to {m_max} segments of {n} candidates need {(m_max + 1) * row_bytes:,} "
            f"bytes, over half of this machine's {memory:,} bytes of memory; "
            f"rows fit up to {max(memory // 2 // row_bytes - 1, 0)} segments"
        )
    cost = np.full((m_max + 1, n + 1), np.inf)
    cost[0, 0] = 0.0
    back = np.zeros((m_max + 1, n + 1), dtype=np.int32)
    lo = [(i - 1) * min_len for i in range(m_max + 1)]
    end = [1] + [n + 1] * m_max  # end[i]: one past the last end row i fills
    for i in range(m_max - 1, 0, -1):
        end[i] = n + 1 if i in ms else end[i + 1] - min_len
    live = min(lo[1:], default=n)  # the blocks' start bound
    margin = _rounding_margin(table)
    cand = np.empty(min(_BLOCK_ENDS, n) * n)  # the add/argmin pair of one block and row
    blocks = table.blocks(lambda: live)
    with closing(_prefetched(blocks) if n >= 4 * _BLOCK_ENDS else blocks) as blocks:
        for e0, c0, var in blocks:
            e1 = e0 + var.shape[0]
            stop = e1 - min_len  # feasible starts of the block's last end lie below
            if stop <= c0:
                continue  # no row has a start in this block
            var = var[:, : stop - c0]
            t0 = e0 - min_len + 1  # row j takes no start t >= t0 + j: inf only in that corner
            corner = ~np.tri(len(var), stop - t0, -1, dtype=bool)[:, max(t0, c0) - t0 :]
            np.copyto(var[:, max(t0, c0) - c0 :], np.inf, where=corner)
            for i in range(1, m_max + 1):
                lo_e, lo_t, hi_e = max(e0, i * min_len), lo[i], min(e1, end[i])
                if lo_e >= e1:
                    break
                if lo_e >= hi_e:
                    continue  # row i has ended; a later row may not have
                hi_t = min(hi_e - min_len, end[i - 1])
                v = var[lo_e - e0 : hi_e - e0, lo_t - c0 : hi_t - c0]
                c = cand[: v.size].reshape(v.shape)
                np.add(cost[i - 1, lo_t:hi_t], v, out=c)
                best = c.argmin(axis=1)
                back[i, lo_e:hi_e] = best + lo_t
                cost[i, lo_e:hi_e] = c[np.arange(len(best)), best]
                if ceilings:
                    first = max(lo_e, end[i - 1] + min_len - 1)
                    over = np.flatnonzero(cost[i, first:hi_e] > ceilings[i])
                    if over.size:
                        end[i] = first + int(over[0])
                        cost[i, end[i] : hi_e] = np.inf
                if e1 < end[i] and stop >= lo_e:
                    # stop == e1 - min_len is the end e of the leading-run rule above.
                    beaten = c[stop - lo_e, : stop - min_len - lo_t + 1] > cost[i - 1, stop] + margin
                    lo[i] += int(beaten.argmin()) if not beaten.all() else beaten.size
            live = min((lo[i] for i in range(1, m_max + 1) if end[i] > e1), default=n)
    return cost, back


def _rounding_margin(table: GramMatrix) -> float:
    """16*(n+1)^2*eps*trace: a bound on the rounding behind one comparison of DP costs.

    Superadditivity holds for exact scatters; each one the shared block
    arithmetic yields is within r = (4n + d + 4)*eps*trace of exact. A window
    of L frames sums each of its pairs' d2(s, s') once, through at most 2n
    additions (the suffix sums, then the running sum over ends);
    |d2(s, s')| <= 2*(K(s,s) + K(s',s')), so its terms total at most
    2*(L-1)*trace, and forming one rounds by about (d+4)*eps*(K(s,s) + K(s',s')).
    Dividing by L leaves r. Costs and scatters stay below 2*trace, so each of
    the three additions behind one comparison rounds by at most 2*eps*trace.
    3r plus those roundings, (12n + 3d + 18)*eps*trace, stays below the margin
    for every d <= 4*n^2.
    """
    return 16 * (table.n + 1) ** 2 * np.finfo(np.float64).eps * table.trace


def _solve_counts(
    table: GramMatrix, ms: Iterable[int], min_len: int, ceilings: Sequence[float] | None = None
):
    """J(m) for each segment count m of ``ms``, and its optimal segmentation, off one block pass.

    Returns (J, segmentation): J[m] equals cost[m, n] of :func:`_solve_rows` bit
    for bit, and segmentation(m, **penalty) is the optimal split of [0, n) into m
    segments, read back from the rows. Only counts with a choice get DP rows. The
    forced count m = n / min_len, if requested, has one placement, every segment
    min_len long: its windows are read off the rows' block pass and summed in
    the DP's order (:func:`_dp_sum`). Asked alone, it takes the pass of row 0
    alone, whose start bound is then its lowest unread window's.
    ``ceilings`` may stop DP rows early (see :func:`_solve_rows`).
    """
    n, ms = table.n, set(ms)
    # Feasible counts form 1..n // min_len, so the extremes check them all; none asked fails as 0.
    _check_feasible(n, min(ms, default=1), min_len)
    _check_feasible(n, max(ms, default=0), min_len)
    forced = n // min_len if n % min_len == 0 and n // min_len in ms else None
    choice = ms - {forced}
    if forced:
        table = _WindowGather(table, [(t, t + min_len) for t in range(0, n, min_len)])
    cost, back = _solve_rows(table, choice, min_len, ceilings)
    J = {m: float(cost[m, n]) for m in choice}
    if forced:
        J[forced] = _dp_sum(table.scatters.tolist())

    def segmentation(m: int, **penalty) -> Segmentation:
        if m == forced:
            cps = range(min_len, n, min_len)
        else:
            cps, j = [], n
            for i in range(m, 1, -1):
                j = int(back[i, j])
                cps.append(j)
            cps.reverse()
        return Segmentation(
            n=n, m=m, change_points=cps, objective=J[m], min_segment_length=min_len, **penalty
        )

    return J, segmentation


def solve_fixed(table: GramMatrix, m: int, min_segment_length: int = 1) -> Segmentation:
    """Globally optimal segmentation into exactly m segments.

    Exact dynamic program over cost[i][j] = min_t cost[i-1][t] + var(t, j),
    O(m n^2) time in the worst case; starts t that some later start beats
    at every remaining end, by the superadditivity of the scatter, are
    skipped. Ties take the smallest t at every cell, which makes the
    result deterministic and comparable against exhaustive enumeration.
    """
    _, segmentation = _solve_counts(table, [m], min_segment_length)
    return segmentation(m)


def _choose_count(J: Sequence[float], n: int, weight: float) -> int:
    """The first m in 1..len(J) minimising J[m-1] + segment_count_penalty(m, n, weight)."""
    totals = [j + segment_count_penalty(m, n, weight) for m, j in enumerate(J, start=1)]
    return 1 + totals.index(min(totals))


def solve_auto(
    table: GramMatrix,
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

    Branch and bound: B, the criterion total of the equal-length split into
    m_max segments (see :func:`_equal_split_total`) plus a rounding margin,
    bounds the chosen total from above, so no cell of the chosen count's
    optimal path has cost + penalty(i) above B. Rows stop once all their
    later cells must (see :func:`_solve_rows`), so only losing counts may
    come out inflated; the chosen m, change points and objective are the
    full sweep's bit for bit. Every count keeps its row, as penalty(m) <= B.
    """
    if not (penalty_weight > 0) or not math.isfinite(penalty_weight):
        raise NonPositivePenaltyWeightError(f"penalty weight must be positive, got {penalty_weight}")
    n = table.n
    _check_feasible(n, 1, min_segment_length)  # before the division by min_segment_length
    m_max = min(m_max, n // min_segment_length)
    # B covers the split's rounding against the DP's (its scatters, its m
    # additions) and the slack of the ceiling rule (two scatters of one
    # start, three additions) in units of the trace, 2*_rounding_margin;
    # the relative term covers adding and subtracting penalties.
    split = _equal_split_total(table, m_max) + segment_count_penalty(m_max, n, penalty_weight)
    bound = split + 2 * _rounding_margin(table) + 8 * np.finfo(np.float64).eps * split
    ceilings = [bound - segment_count_penalty(i, n, penalty_weight) for i in range(m_max + 1)]
    J, segmentation = _solve_counts(table, range(1, m_max + 1), min_segment_length, ceilings)
    m = _choose_count([J[m] for m in range(1, m_max + 1)], n, penalty_weight)
    penalty = segment_count_penalty(m, n, penalty_weight)
    return segmentation(m, penalty=penalty, penalty_weight=penalty_weight)


def solve_range(
    table: GramMatrix,
    m_values: Iterable[int],
    min_segment_length: int = 1,
) -> list[Segmentation]:
    """solve_fixed for several segment counts off a single DP sweep."""
    ms = [int(m) for m in m_values]
    if not ms:
        return []
    _, segmentation = _solve_counts(table, ms, min_segment_length)
    return [segmentation(m) for m in ms]
