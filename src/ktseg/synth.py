"""Synthetic piecewise-stationary feature sequences with planted boundaries.

The generator is a pure function of its config. Randomness comes from a
counter-based stream so instances are bit-identical across platforms and
reimplementable from this description alone:

    raw(seed, i)  = mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)   (mod 2^64)

with mix64 the standard splitmix64 finalizer (xor-shift 30, multiply
0xBF58476D1CE4E5B9, xor-shift 27, multiply 0x94D049BB133111EB, xor-shift
31). Uniforms in [0, 1) take the top 53 bits of raw; normal deviates put
counters 2i and 2i+1 through the Box-Muller cosine branch, with the log
argument nudged into (0, 1]. Boundary draws and noise draws use separate
substream seeds mixed from the config seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import lazy_numpy
from .errors import InfeasibleConfigError, NonFiniteValueError
from .segmentation import FeatureSequence

np = lazy_numpy()

_GOLDEN = 0x9E3779B97F4A7C15
_BOUNDARY_SALT = 0x424F554E44
_NOISE_SALT = 0x4E4F495345
_TWO_NEG_53 = 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _raw(seed: int, count: int) -> np.ndarray:
    counters = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64(np.uint64(seed) + counters * np.uint64(_GOLDEN))


def _substream_seed(seed: int, salt: int) -> int:
    return int(_mix64(np.array([np.uint64(seed) ^ np.uint64(salt)], dtype=np.uint64))[0])


def _uniforms(seed: int, count: int) -> np.ndarray:
    return (_raw(seed, count) >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53


def _normals(seed: int, count: int) -> np.ndarray:
    pair = _raw(seed, 2 * count).reshape(count, 2) >> np.uint64(11)
    u1 = (pair[:, 0].astype(np.float64) + 1.0) * _TWO_NEG_53  # in (0, 1], keeps log finite
    u2 = pair[:, 1].astype(np.float64) * _TWO_NEG_53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass(frozen=True)
class SynthConfig:
    """Shape and noise model of one synthetic instance.

    min_segment_length floors every planted segment; boundaries are drawn
    uniformly among all placements satisfying it.
    """

    n: int
    d: int
    segment_count: int
    mean_separation: float
    noise_sigma: float
    seed: int
    min_segment_length: int = 1

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise InfeasibleConfigError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if 16 * self.n * self.d > sys.maxsize:  # Python ints: the noise stream's 2*n*d 8-byte counters
            raise InfeasibleConfigError(
                f"n={self.n}, d={self.d}: the noise stream's 2*n*d counters exceed what numpy can index"
            )
        if self.segment_count < 1 or self.min_segment_length < 1:
            raise InfeasibleConfigError("segment count and minimum segment length must be >= 1")
        if self.segment_count * self.min_segment_length > self.n:
            raise InfeasibleConfigError(
                f"{self.segment_count} segments of length >= {self.min_segment_length} "
                f"do not fit in {self.n} candidates"
            )
        if not (0 <= self.mean_separation < math.inf and 0 <= self.noise_sigma < math.inf):
            raise InfeasibleConfigError("separation and noise sigma must be finite and nonnegative")
        if self.mean_separation > 0 and self.segment_count > self.d + 1:
            raise InfeasibleConfigError(
                f"separated means for {self.segment_count} segments need d >= "
                f"{self.segment_count - 1} (origin plus one axis per extra segment)"
            )
        if not (0 <= self.seed < 2**64):
            raise InfeasibleConfigError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SyntheticInstance:
    """Generated features plus the planted ground-truth boundaries."""

    features: FeatureSequence
    true_change_points: tuple[int, ...]


def _draw_subset(seed: int, pool_size: int, count: int) -> list[int]:
    """Uniformly random count-subset of {1..pool_size} via selection sampling."""
    chosen: list[int] = []
    need = count
    if need == 0:
        return chosen
    u = _uniforms(seed, pool_size)
    for j in range(pool_size):
        if need == 0:
            break
        if u[j] * (pool_size - j) < need:
            chosen.append(j + 1)
            need -= 1
    return chosen


def generate(config: SynthConfig) -> SyntheticInstance:
    """Build the instance described by ``config``, bit-reproducibly.

    Boundaries are uniform among placements with every segment at least
    min_segment_length long (lengths map one-to-one onto compositions with
    unit parts, which map onto subsets). Segment means sit at the origin
    and at mean_separation along distinct axes, so all pairs are at least
    mean_separation apart; features add isotropic Gaussian noise.
    """
    n, d, m = config.n, config.d, config.segment_count
    floor = config.min_segment_length
    shrunk = n - m * (floor - 1)
    subset = _draw_subset(_substream_seed(config.seed, _BOUNDARY_SALT), shrunk - 1, m - 1)
    unit_bounds = [0, *subset, shrunk]
    lengths = [
        (b - a) + (floor - 1) for a, b in zip(unit_bounds[:-1], unit_bounds[1:])
    ]
    change_points = tuple(np.cumsum(lengths[:-1]).tolist())

    means = np.zeros((m, d))
    if config.mean_separation > 0:
        for s in range(1, m):
            means[s, s - 1] = config.mean_separation
    labels = np.repeat(np.arange(m), lengths)
    noise = _normals(_substream_seed(config.seed, _NOISE_SALT), n * d).reshape(n, d)
    with np.errstate(over="ignore", invalid="ignore"):
        values = means[labels] + config.noise_sigma * noise
    try:
        features = FeatureSequence(values=values)
    except NonFiniteValueError:
        raise InfeasibleConfigError(
            f"separation {config.mean_separation!r} and noise sigma {config.noise_sigma!r} "
            "overflow float64 feature values"
        ) from None
    return SyntheticInstance(features=features, true_change_points=change_points)
