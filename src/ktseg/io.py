"""File formats: feature matrices, segmentations, sampling plans, ground truth.

Features travel either as headerless CSV (one row per frame) or as the
binary container: magic ``KTSF``, little-endian u32 version (= 1), u64 n,
u64 d, then n*d little-endian float32 values row-major. JSON documents
carry a ``schema`` tag and print reals with 17 significant digits so
parse(serialize(x)) is exact. A segmentation document records the tag of
the kernel its solve used, which the reader checks, and its ``m``, which
must agree with its change points. All writes go to a temporary file in
the same directory and are renamed into place.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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
    # A name that does not grow with the target's, so any name the file system accepts can be written.
    tmp = path.with_name(f".ktseg-{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from exc  # not the temporary file's name
    finally:
        with contextlib.suppress(OSError):  # the cleanup never replaces the error above
            tmp.unlink()


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@contextlib.contextmanager
def _reading(path: str | Path) -> Iterator[None]:
    """A failed read of ``path`` in the block, worded like a failed write: ``cannot read PATH: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from exc


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


def _load_json(path: str | Path, *schemas: str) -> dict:
    """The JSON object in ``path``, whose ``schema`` tag must be one of ``schemas``."""

    def reject(literal: str, beyond: str = ""):  # json reads NaN and the infinities; documents carry none
        raise SchemaMismatchError(f"{path}: {literal} is not a JSON number{beyond}")

    def finite(parse):  # nor numbers past float64, which json reads as inf or as an int no float holds
        return lambda s: reject(s, " within float64 range") if math.isinf(float(s)) else parse(s)

    try:
        with _reading(path):
            text = Path(path).read_text(encoding="utf-8")
        doc = json.loads(text, parse_constant=reject, parse_float=finite(float), parse_int=finite(int))
    except UnicodeDecodeError:
        raise SchemaMismatchError(f"{path}: not UTF-8 text, so not a JSON document") from None
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaMismatchError(f"{path}: expected a JSON object at top level")
    schema = doc.get("schema")
    if schema not in schemas:  # two schemas: read_boundaries, which takes either boundary document
        wanted = f", expected {schemas[0]!r}" if len(schemas) == 1 else " carries no boundaries"
        raise SchemaMismatchError(f"{path}: schema {schema!r}{wanted}")
    return doc


def _require(doc: dict, key: str, kinds, path) -> object:
    if key not in doc:
        raise SchemaMismatchError(f"{path}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise SchemaMismatchError(f"{path}: field {key!r} has the wrong type")
    return value


def _list_of(doc: dict, key: str, kinds, noun: str, path) -> list:
    value = _require(doc, key, list, path)
    if not all(isinstance(v, kinds) and not isinstance(v, bool) for v in value):
        raise SchemaMismatchError(f"{path}: field {key!r} must hold {noun}")
    return value


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
        with np.errstate(over="ignore"):  # a value past float32 narrows to inf, refused below
            values = np.ascontiguousarray(features.values, dtype="<f4")
        over = np.argwhere(np.isinf(values))  # the first one, row-major, as the reader would name it
        if over.size:
            raise NonFiniteValueError(
                f"{path}: value at row {over[0][0] + 1}, column {over[0][1] + 1} overflows float32"
            )
        header = _HEADER.pack(_FEATURE_MAGIC, _FEATURE_VERSION, features.n, features.d)
        atomic_write_bytes(path, header + values.tobytes())
    else:
        raise MalformedHeaderError(f"{path}: unsupported feature extension {path.suffix!r}")


def _read_features_csv(path: Path) -> FeatureSequence:
    """Parse with numpy's C reader; re-read token by token when it fails.

    ``np.loadtxt`` rounds correctly, like ``float()``, so the two readers
    give the same bits wherever both accept the text. The token reader
    runs when loadtxt refuses the text or the file has no rows, or when
    ``FeatureSequence`` meets a non-finite value in what loadtxt read (the
    one finiteness pass): it alone skips whitespace-only lines, accepts every
    ``float()`` literal (such as ``1_0``) and names the row and column of
    a bad value. Both read UTF-8 with an optional BOM, off one open of the file.
    """
    with _reading(path), open(path, encoding="utf-8-sig") as fh:
        try:
            rows = any(line.strip() for line in fh)  # loadtxt warns on a file without rows
            fh.seek(0)
            values = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None) if rows else None
        except ValueError:  # also UnicodeDecodeError, reported below
            values = None
        if values is not None:
            try:
                return FeatureSequence(values=values)
            except NonFiniteValueError:
                pass
        fh.seek(0)
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise MalformedHeaderError(f"{path}: not UTF-8 text, so not a feature CSV") from None
    return FeatureSequence(values=_read_features_csv_tokens(text, path))


def _read_features_csv_tokens(text: str, path: Path) -> list[list[float]]:
    """The rows of feature CSV ``text``, read token by token; errors name ``path``."""
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
                hint = (  # a header is the first non-blank row; an empty field is a trailing comma
                    "; feature CSV is headerless, remove the header row"
                    if not rows and token
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
    with _reading(path):
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
    if len(blob) - _HEADER.size != expected:
        raise MalformedHeaderError(
            f"{path}: payload is {len(blob) - _HEADER.size} bytes, header implies {expected}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(n, d)  # no copy
    try:
        return FeatureSequence(values=values)  # widened to float64 and checked there
    except NonFiniteValueError as exc:
        raise NonFiniteValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Segmentation documents.


def segmentation_document(seg: Segmentation) -> dict:
    return {
        "schema": SEGMENTATION_SCHEMA,
        "n": seg.n,
        "m": seg.m,
        "changePoints": list(seg.change_points),
        "objective": float(seg.objective),
        "penalty": float(seg.penalty),
        "penaltyWeight": float(seg.penalty_weight),
        "kernel": seg.kernel,
        "minSegmentLength": seg.min_segment_length,
    }


def write_segmentation(seg: Segmentation, path: str | Path) -> None:
    atomic_write_text(path, render_document(segmentation_document(seg)))


def read_segmentation(path: str | Path) -> Segmentation:
    return _segmentation_of(_load_json(path, SEGMENTATION_SCHEMA), path)


def _segmentation_of(doc: dict, path: str | Path) -> Segmentation:
    try:
        seg = Segmentation(
            n=int(_require(doc, "n", int, path)),
            change_points=tuple(_list_of(doc, "changePoints", int, "integers", path)),
            objective=float(_require(doc, "objective", (int, float), path)),
            penalty=float(_require(doc, "penalty", (int, float), path)),
            penalty_weight=float(_require(doc, "penaltyWeight", (int, float), path)),
            min_segment_length=int(_require(doc, "minSegmentLength", int, path)),
            kernel=_require(doc, "kernel", str, path),
        )
    except InvariantViolationError as exc:  # the reader's own errors already name the file
        raise InvariantViolationError(f"{path}: {exc}") from None
    m = _require(doc, "m", int, path)
    if m != seg.m:
        raise InvariantViolationError(f"{path}: m is {m} but the document holds {seg.m} segments")
    return seg


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
    doc = _load_json(path, PLAN_SCHEMA)
    m = int(_require(doc, "m", int, path))
    k = int(_require(doc, "k", int, path))
    raw_segments = _require(doc, "segments", list, path)
    segments = []
    for raw in raw_segments:
        if not isinstance(raw, dict):
            raise SchemaMismatchError(f"{path}: segment entries must be objects")
        rng = _list_of(raw, "candidateRange", int, "integers", path)
        if len(rng) != 2:
            raise SchemaMismatchError(f"{path}: candidateRange must have two entries")
        ts = _list_of(raw, "sourceTimestamps", (int, float), "reals", path)
        segments.append(
            dict(
                candidate_range=(rng[0], rng[1]),
                sampled_candidates=tuple(_list_of(raw, "sampledCandidates", int, "integers", path)),
                source_frames=tuple(_list_of(raw, "sourceFrames", int, "integers", path)),
                source_timestamps=tuple(float(t) for t in ts),
            )
        )
    try:
        plan = SamplingPlan(k=k, segments=tuple(SegmentSamples(**fields) for fields in segments))
    except InvariantViolationError as exc:  # the plan types do not know the file
        raise InvariantViolationError(f"{path}: {exc}") from None
    if plan.m != m:
        raise InvariantViolationError(f"{path}: m is {m} but the plan holds {plan.m} segments")
    return plan


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
    """The truth document in ``path``, its boundaries held to Segmentation's rules."""
    return _truth_of(_load_json(path, TRUTH_SCHEMA), path)


def _truth_of(doc: dict, path: str | Path) -> GroundTruth:
    n = int(_require(doc, "n", int, path))
    change_points = _list_of(doc, "changePoints", int, "integers", path)
    try:
        Segmentation(n=n, change_points=change_points, objective=0.0)
    except InvariantViolationError as exc:
        raise InvariantViolationError(f"{path}: {exc}") from None
    return GroundTruth(n=n, change_points=tuple(change_points), seed=int(_require(doc, "seed", int, path)))


def read_boundaries(path: str | Path) -> tuple[int, list[int]]:
    """Candidate count n and boundary list of a segmentation or ground-truth document, read in full."""
    doc = _load_json(path, SEGMENTATION_SCHEMA, TRUTH_SCHEMA)
    boundaries = (_segmentation_of if doc["schema"] == SEGMENTATION_SCHEMA else _truth_of)(doc, path)
    return boundaries.n, list(boundaries.change_points)
