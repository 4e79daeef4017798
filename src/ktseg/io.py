"""File formats: feature matrices, segmentations, sampling plans, ground truth.

Features travel either as headerless CSV (one row per frame) or as the
binary container: magic ``KTSF``, little-endian u32 version (= 1), u64 n,
u64 d, then n*d little-endian float32 values row-major. JSON documents
carry a ``schema`` tag and print reals with 17 significant digits so
parse(serialize(x)) is exact. All writes go to a temporary file in the
same directory and are renamed into place.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

from ._lazy import lazy_numpy
from .errors import (
    InvariantViolationError,
    MalformedHeaderError,
    NonFiniteValueError,
    RaggedRowsError,
    SchemaMismatchError,
)
from .sampling import SamplingPlan, SegmentSamples
from .segmentation import FeatureSequence, Segmentation

np = lazy_numpy()

SEGMENTATION_SCHEMA = "kts-segmentation/1"
PLAN_SCHEMA = "kts-plan/1"
TRUTH_SCHEMA = "kts-truth/1"

_FEATURE_MAGIC = b"KTSF"
_FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


@dataclass(frozen=True)
class GroundTruth:
    """Planted boundaries of a synthetic instance, as stored on disk."""

    n: int
    change_points: tuple[int, ...]
    seed: int


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    if not path.name:
        raise OSError(f"cannot write to {str(path)!r}: not a file path")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# JSON rendering. The stdlib encoder cannot format floats, so documents are
# rendered by hand: reals as %.17g (lossless for float64), everything else
# in insertion order with two-space indentation.


def _render(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        x = float(value)
        if not math.isfinite(x):
            raise InvariantViolationError("JSON documents cannot carry non-finite reals")
        return format(x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in value)
        return f"[\n{inner}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_render(v, indent + 1)}" for k, v in value.items()
        )
        return f"{{\n{inner}\n{pad}}}"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_document(doc: dict) -> str:
    """Deterministic JSON text for a document, newline terminated."""
    return _render(doc, 0) + "\n"


def _load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise SchemaMismatchError(f"{path}: not UTF-8 text, so not a JSON document") from None
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaMismatchError(f"{path}: expected a JSON object at top level")
    return doc


def _require(doc: dict, key: str, kinds, path) -> object:
    if key not in doc:
        raise SchemaMismatchError(f"{path}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise SchemaMismatchError(f"{path}: field {key!r} has the wrong type")
    return value


def _int_list(doc: dict, key: str, path) -> list[int]:
    value = _require(doc, key, list, path)
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaMismatchError(f"{path}: field {key!r} must hold integers")
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Feature matrices.


def read_features(path: str | Path) -> FeatureSequence:
    """Load a feature matrix; the extension picks the format (.csv / .ktsf)."""
    path = Path(path)
    if path.suffix == ".csv":
        return _read_features_csv(path)
    if path.suffix == ".ktsf":
        return _read_features_binary(path)
    raise MalformedHeaderError(f"{path}: unsupported feature extension {path.suffix!r}")


def write_features(features: FeatureSequence, path: str | Path) -> None:
    path = Path(path)
    if path.suffix == ".csv":
        lines = [",".join(repr(float(v)) for v in row) for row in features.values]
        atomic_write_text(path, "\n".join(lines) + "\n")
    elif path.suffix == ".ktsf":
        header = _HEADER.pack(_FEATURE_MAGIC, _FEATURE_VERSION, features.n, features.d)
        payload = np.ascontiguousarray(features.values, dtype="<f4").tobytes()
        atomic_write_bytes(path, header + payload)
    else:
        raise MalformedHeaderError(f"{path}: unsupported feature extension {path.suffix!r}")


def _read_features_csv(path: Path) -> FeatureSequence:
    """Parse with numpy's C reader; re-read token by token when it fails.

    ``np.loadtxt`` rounds correctly, like ``float()``, so the two readers
    give the same bits wherever both accept the text. The token reader
    runs when loadtxt refuses the text, finds no rows or meets a
    non-finite value: it alone skips whitespace-only lines, accepts every
    ``float()`` literal (such as ``1_0``) and names the row and column of
    a bad value. Both read UTF-8 with an optional BOM.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:  # also UnicodeDecodeError, reported by the token reader
        values = None
    if values is None or not values.size or not np.isfinite(values).all():
        values = _read_features_csv_tokens(path)
    return FeatureSequence(values=values)


def _read_features_csv_tokens(path: Path) -> list[list[float]]:
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise MalformedHeaderError(f"{path}: not UTF-8 text, so not a feature CSV") from None
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise RaggedRowsError(
                f"{path}: row {lineno} has {len(tokens)} values, expected {width}"
            )
        parsed = []
        for col, token in enumerate(tokens, start=1):
            try:
                value = float(token)
            except ValueError:
                hint = (
                    "; feature CSV is headerless, remove the header row"
                    if lineno == 1
                    else ""
                )
                raise MalformedHeaderError(
                    f"{path}: unparseable value {token!r} at row {lineno}, column {col}{hint}"
                ) from None
            if not math.isfinite(value):
                raise NonFiniteValueError(
                    f"{path}: non-finite value at row {lineno}, column {col}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise MalformedHeaderError(f"{path}: no feature rows")
    return rows


def _read_features_binary(path: Path) -> FeatureSequence:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise MalformedHeaderError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, n, d = _HEADER.unpack_from(blob)
    if magic != _FEATURE_MAGIC:
        raise MalformedHeaderError(f"{path}: bad magic {magic!r}")
    if version != _FEATURE_VERSION:
        raise MalformedHeaderError(f"{path}: unsupported version {version}")
    if n < 1 or d < 1:
        raise MalformedHeaderError(f"{path}: header declares n={n}, d={d}; both must be >= 1")
    expected = n * d * 4
    payload = blob[_HEADER.size :]
    if len(payload) != expected:
        raise MalformedHeaderError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise NonFiniteValueError(f"{path}: non-finite value at row {r + 1}, column {c + 1}")
    return FeatureSequence(values=values.astype(np.float64))


# ---------------------------------------------------------------------------
# Segmentation documents.


def segmentation_document(seg: Segmentation, kernel: str = "dot") -> dict:
    return {
        "schema": SEGMENTATION_SCHEMA,
        "n": seg.n,
        "m": seg.m,
        "changePoints": list(seg.change_points),
        "objective": float(seg.objective),
        "penalty": float(seg.penalty),
        "penaltyWeight": float(seg.penalty_weight),
        "kernel": kernel,
        "minSegmentLength": seg.min_segment_length,
    }


def write_segmentation(seg: Segmentation, path: str | Path, kernel: str = "dot") -> None:
    atomic_write_text(path, render_document(segmentation_document(seg, kernel)))


def read_segmentation(path: str | Path) -> Segmentation:
    doc = _load_json(path)
    schema = doc.get("schema")
    if schema != SEGMENTATION_SCHEMA:
        raise SchemaMismatchError(f"{path}: schema {schema!r}, expected {SEGMENTATION_SCHEMA!r}")
    return Segmentation(
        n=int(_require(doc, "n", int, path)),
        m=int(_require(doc, "m", int, path)),
        change_points=tuple(_int_list(doc, "changePoints", path)),
        objective=float(_require(doc, "objective", (int, float), path)),
        penalty=float(_require(doc, "penalty", (int, float), path)),
        penalty_weight=float(_require(doc, "penaltyWeight", (int, float), path)),
        min_segment_length=int(_require(doc, "minSegmentLength", int, path)),
    )


# ---------------------------------------------------------------------------
# Sampling-plan documents.


def plan_document(plan: SamplingPlan) -> dict:
    return {
        "schema": PLAN_SCHEMA,
        "m": plan.m,
        "k": plan.k,
        "segments": [
            {
                "candidateRange": list(seg.candidate_range),
                "sampledCandidates": list(seg.sampled_candidates),
                "sourceFrames": list(seg.source_frames),
                "sourceTimestamps": [float(t) for t in seg.source_timestamps],
            }
            for seg in plan.segments
        ],
    }


def write_plan(plan: SamplingPlan, path: str | Path) -> None:
    atomic_write_text(path, render_document(plan_document(plan)))


def read_plan(path: str | Path) -> SamplingPlan:
    doc = _load_json(path)
    schema = doc.get("schema")
    if schema != PLAN_SCHEMA:
        raise SchemaMismatchError(f"{path}: schema {schema!r}, expected {PLAN_SCHEMA!r}")
    k = int(_require(doc, "k", int, path))
    raw_segments = _require(doc, "segments", list, path)
    segments = []
    for raw in raw_segments:
        if not isinstance(raw, dict):
            raise SchemaMismatchError(f"{path}: segment entries must be objects")
        rng = _int_list(raw, "candidateRange", path)
        if len(rng) != 2:
            raise SchemaMismatchError(f"{path}: candidateRange must have two entries")
        ts = _require(raw, "sourceTimestamps", list, path)
        if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in ts):
            raise SchemaMismatchError(f"{path}: sourceTimestamps must hold reals")
        segments.append(
            SegmentSamples(
                candidate_range=(rng[0], rng[1]),
                sampled_candidates=tuple(_int_list(raw, "sampledCandidates", path)),
                source_frames=tuple(_int_list(raw, "sourceFrames", path)),
                source_timestamps=tuple(float(t) for t in ts),
            )
        )
    return SamplingPlan(k=k, segments=tuple(segments))


# ---------------------------------------------------------------------------
# Ground-truth documents.


def write_truth(truth: GroundTruth, path: str | Path) -> None:
    doc = {
        "schema": TRUTH_SCHEMA,
        "n": truth.n,
        "changePoints": list(truth.change_points),
        "seed": truth.seed,
    }
    atomic_write_text(path, render_document(doc))


def read_truth(path: str | Path) -> GroundTruth:
    doc = _load_json(path)
    schema = doc.get("schema")
    if schema != TRUTH_SCHEMA:
        raise SchemaMismatchError(f"{path}: schema {schema!r}, expected {TRUTH_SCHEMA!r}")
    return GroundTruth(
        n=int(_require(doc, "n", int, path)),
        change_points=tuple(_int_list(doc, "changePoints", path)),
        seed=int(_require(doc, "seed", int, path)),
    )


def read_boundaries(path: str | Path) -> list[int]:
    """Boundary list from either a segmentation or a ground-truth document."""
    doc = _load_json(path)
    schema = doc.get("schema")
    if schema in (SEGMENTATION_SCHEMA, TRUTH_SCHEMA):
        return _int_list(doc, "changePoints", path)
    raise SchemaMismatchError(f"{path}: schema {schema!r} carries no boundaries")
