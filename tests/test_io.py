"""File-format tests: feature matrices, segmentations, plans, ground truth."""

import json
import math
import os
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktseg import (
    FeatureSequence,
    InvariantViolationError,
    KernelSpec,
    MalformedHeaderError,
    NonFiniteValueError,
    RaggedRowsError,
    SamplingPlan,
    SchemaMismatchError,
    SegmentSamples,
    Segmentation,
    brute_force,
    compute_gram,
    solve_auto,
    solve_fixed,
)
from ktseg import io as ktseg_io
from ktseg.io import (
    GroundTruth,
    _read_features_csv_tokens,
    atomic_write_bytes,
    read_boundaries,
    read_features,
    read_plan,
    read_segmentation,
    read_truth,
    render_document,
    write_features,
    write_plan,
    write_segmentation,
    write_truth,
)


# ---------------------------------------------------------------------------
# Feature CSV


def test_csv_basic(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("1,0\n0,1\n")
    feats = read_features(path)
    assert feats.n == 2 and feats.d == 2
    assert feats.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("1,0\n0\n")
    with pytest.raises(RaggedRowsError, match="row 2"):
        read_features(path)


def test_csv_header_row_hint(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("x,y\n1,0\n")
    with pytest.raises(MalformedHeaderError, match="headerless"):
        read_features(path)


def test_csv_header_after_a_blank_line_gets_the_hint(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("\nx,y\n1,0\n0,1\n")
    with pytest.raises(MalformedHeaderError, match="'x' at row 2, column 1; feature CSV is headerless"):
        read_features(path)


def test_csv_trailing_comma_on_row_one_gets_no_header_hint(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("1,2,\n3,4,\n")  # as spreadsheets export it
    with pytest.raises(MalformedHeaderError, match="unparseable value '' at row 1, column 3") as info:
        read_features(path)
    assert "headerless" not in str(info.value)


def test_csv_non_finite_location(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("1,0\n0,nan\n")
    with pytest.raises(NonFiniteValueError, match="row 2, column 2"):
        read_features(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("")
    with pytest.raises(MalformedHeaderError):
        read_features(path)


def test_csv_round_trip(tmp_path):
    values = np.array([[0.1, -2.5e17], [3.0, 1e-300]])
    path = tmp_path / "feats.csv"
    write_features(FeatureSequence(values=values), path)
    back = read_features(path)
    assert np.array_equal(back.values, values)


def test_csv_bom_reads_like_plain_file(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text("0.5,-1\n2,3e-7\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_features(bom).values.tolist() == read_features(plain).values.tolist()
    # The token reader strips the BOM too.
    bom.write_bytes(b"\xef\xbb\xbf1_0,2\n")
    assert read_features(bom).values.tolist() == [[10.0, 2.0]]


def test_csv_not_utf8_is_malformed(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_bytes(b"KTSF\x01\x00\x00\x00\xff\xfe")
    with pytest.raises(MalformedHeaderError, match="feats.csv: not UTF-8"):
        read_features(path)


@pytest.mark.parametrize(
    "data, expected",
    [
        (b" 1.5 , 2 \n 3 ,4\n", [[1.5, 2.0], [3.0, 4.0]]),
        (b"1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        (b"1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
        (b"1,2,3\n", [[1.0, 2.0, 3.0]]),
        (b"1\n2\n3\n", [[1.0], [2.0], [3.0]]),
        (b"1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        (b"1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        (b"1_0,2\n", [[10.0, 2.0]]),
    ],
    ids=["spaces", "crlf", "no-final-newline", "one-row", "one-column", "blank-line",
         "whitespace-line", "underscore"],
)
def test_csv_edge_inputs_match_token_reader(tmp_path, data, expected):
    path = tmp_path / "feats.csv"
    path.write_bytes(data)
    assert read_features(path).values.tolist() == expected
    assert _read_features_csv_tokens(path.read_text(encoding="utf-8-sig"), path) == expected


@pytest.mark.parametrize(
    "data, expected",
    [(b"1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]), (b"1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]])],
    ids=["numpy reader", "token reader"],
)
def test_csv_reader_opens_its_file_once(tmp_path, monkeypatch, data, expected):
    path, opened = tmp_path / "feats.csv", []
    path.write_bytes(data)
    counted = lambda *args, **kwargs: opened.append(args) or open(*args, **kwargs)
    monkeypatch.setattr(ktseg_io, "open", counted, raising=False)  # the module's own name wins over the builtin
    monkeypatch.setattr(type(path), "read_text", lambda *args, **kw: pytest.fail("read the file again"))
    assert read_features(path).values.tolist() == expected
    assert opened == [(path,)]


@pytest.mark.parametrize("text", ["", "\n\n", " \n"])
def test_csv_without_rows_warns_nothing(tmp_path, text):
    path = tmp_path / "feats.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedHeaderError, match="no feature rows"):
            read_features(path)


def test_concurrent_csv_reads_leave_the_warning_filters_alone(tmp_path):
    empty, rows = tmp_path / "empty.csv", tmp_path / "rows.csv"
    empty.write_text("")
    rows.write_text("1,2\n3,4\n")
    filters = list(warnings.filters)  # numpy is imported above, so its own filters are in
    errors, failures = [], []

    def read_both():
        for _ in range(1000):
            with pytest.raises(MalformedHeaderError) as excinfo:
                read_features(empty)
            errors.append(str(excinfo.value))
            if read_features(rows).values.tolist() != [[1.0, 2.0], [3.0, 4.0]]:
                failures.append("rows")

    threads = [threading.Thread(target=read_both) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert warnings.filters == filters
    assert not failures and len(errors) == 4000
    assert set(errors) == {f"{empty}: no feature rows"}


def test_csv_non_finite_after_blank_line_names_file_line(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("1,0\n\n0,nan\n")
    with pytest.raises(NonFiniteValueError, match="row 3, column 2"):
        read_features(path)


finite_bit_patterns = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(math.isfinite),
)


@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(finite_bit_patterns, min_size=d, max_size=d), min_size=1, max_size=5)
))
@settings(max_examples=150, deadline=None)
def test_csv_fast_reader_is_bit_identical_to_token_reader(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("bits") / "feats.csv"
    path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    expected = np.array(rows, dtype=np.float64).view(np.uint64)
    assert np.array_equal(read_features(path).values.view(np.uint64), expected)
    tokens = _read_features_csv_tokens(path.read_text(encoding="utf-8-sig"), path)
    assert np.array_equal(np.array(tokens).view(np.uint64), expected)


# ---------------------------------------------------------------------------
# Feature binary container


def test_binary_round_trip_and_byte_stability(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    feats = FeatureSequence(values=values)
    p1, p2 = tmp_path / "a.ktsf", tmp_path / "b.ktsf"
    write_features(feats, p1)
    write_features(feats, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_features(p1)
    assert np.array_equal(back.values, values)


def test_binary_header_layout(tmp_path):
    path = tmp_path / "a.ktsf"
    write_features(FeatureSequence(values=[[1.0, 2.0]]), path)
    blob = path.read_bytes()
    assert blob[:4] == b"KTSF"
    version, n, d = struct.unpack_from("<IQQ", blob, 4)
    assert (version, n, d) == (1, 1, 2)
    assert len(blob) == 24 + 8


def test_binary_rejects_zero_n(tmp_path):
    path = tmp_path / "a.ktsf"
    path.write_bytes(struct.pack("<4sIQQ", b"KTSF", 1, 0, 3))
    with pytest.raises(MalformedHeaderError, match="n=0"):
        read_features(path)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "a.ktsf"
    path.write_bytes(struct.pack("<4sIQQ", b"NOPE", 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(MalformedHeaderError, match="magic"):
        read_features(path)


def test_binary_rejects_short_payload(tmp_path):
    path = tmp_path / "a.ktsf"
    path.write_bytes(struct.pack("<4sIQQ", b"KTSF", 1, 2, 2) + b"\x00" * 8)
    with pytest.raises(MalformedHeaderError, match="payload"):
        read_features(path)


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"KTSF\x01\x00\x00\x00\x02", "truncated header (9 bytes)"),
        (struct.pack("<4sIQQ", b"KTSF", 2, 1, 1) + b"\x00" * 4, "unsupported version 2"),
    ],
    ids=["truncated header", "unsupported version"],
)
def test_binary_rejects_malformed_headers(tmp_path, blob, message):
    path = tmp_path / "a.ktsf"
    path.write_bytes(blob)
    with pytest.raises(MalformedHeaderError, match=re.escape(f"{path}: {message}")):
        read_features(path)


def test_binary_non_finite_location(tmp_path):
    payload = np.array([[1.0, 2.0], [np.inf, 4.0]], dtype="<f4").tobytes()
    path = tmp_path / "a.ktsf"
    path.write_bytes(struct.pack("<4sIQQ", b"KTSF", 1, 2, 2) + payload)
    with pytest.raises(NonFiniteValueError, match="row 2, column 1"):
        read_features(path)


def test_binary_write_refuses_values_past_float32(tmp_path):
    # The reader refuses a non-finite float32, so the writer refuses a value that narrows to one.
    path = tmp_path / "a.ktsf"
    with pytest.raises(NonFiniteValueError, match=re.escape(f"{path}: value at row 2, column 2 overflows float32")):
        write_features(FeatureSequence(values=[[1.0, 2.0], [3.0, -1e39]]), path)
    assert list(tmp_path.iterdir()) == []
    largest = float(np.finfo(np.float32).max)
    write_features(FeatureSequence(values=[[largest, -largest]]), path)
    assert read_features(path).values.tolist() == [[largest, -largest]]


def test_binary_read_widens_the_payload_without_extra_copies(tmp_path):
    n, d = 2000, 64
    payload = np.random.default_rng(4).standard_normal((n, d)).astype("<f4")
    path = tmp_path / "a.ktsf"
    path.write_bytes(struct.pack("<4sIQQ", b"KTSF", 1, n, d) + payload.tobytes())
    tracemalloc.start()
    try:
        feats = read_features(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert feats.values.dtype == np.float64
    assert np.array_equal(feats.values, payload.astype(np.float64))
    # The file's bytes (4 per value), the float64 values (8) and one finiteness mask (1).
    assert peak <= 14 * n * d, f"read peaked at {peak / (n * d):.1f} bytes per value"


def test_unknown_extension(tmp_path):
    path = tmp_path / "a.bin"
    path.write_text("1,2\n")
    with pytest.raises(MalformedHeaderError, match="extension"):
        read_features(path)


def test_write_features_refuses_unknown_extension(tmp_path):
    path = tmp_path / "a.npy"
    with pytest.raises(MalformedHeaderError, match=re.escape(f"{path}: unsupported feature extension '.npy'")):
        write_features(FeatureSequence(values=[[1.0]]), path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# Segmentation documents


def test_segmentation_round_trip(tmp_path):
    seg = Segmentation(
        n=4, change_points=(2,), objective=0.0, penalty=0.81, penalty_weight=1.0, kernel="cosine"
    )
    path = tmp_path / "seg.json"
    write_segmentation(seg, path)
    assert read_segmentation(path) == seg
    assert '"kernel": "cosine"' in path.read_text()


def test_segmentation_seventeen_digit_reals(tmp_path):
    seg = Segmentation(n=5, change_points=(3,), objective=0.1)
    path = tmp_path / "seg.json"
    write_segmentation(seg, path)
    assert "0.10000000000000001" in path.read_text()
    assert read_segmentation(path).objective == 0.1


def test_segmentation_unknown_schema(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text('{"schema": "kts-segmentation/9"}')
    with pytest.raises(SchemaMismatchError):
        read_segmentation(path)


def test_segmentation_decreasing_points_rejected(tmp_path):
    seg = Segmentation(n=6, change_points=(2, 4), objective=1.0)
    path = tmp_path / "seg.json"
    write_segmentation(seg, path)
    text = path.read_text().replace("2,\n", "3,\n").replace("4\n", "2\n")
    path.write_text(text)
    with pytest.raises(InvariantViolationError):
        read_segmentation(path)


def test_segmentation_missing_field(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text('{"schema": "kts-segmentation/1", "n": 4}')
    with pytest.raises(SchemaMismatchError, match="missing"):
        read_segmentation(path)


def segmentation_doc(**fields):
    """A valid segmentation document with ``fields`` replaced; a field given as None is left out."""
    doc = {"schema": "kts-segmentation/1", "n": 6, "m": 3, "changePoints": [2, 4], "objective": 1.0,
           "penalty": 0.0, "penaltyWeight": 0.0, "kernel": "dot", "minSegmentLength": 1, **fields}
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize(
    "fields, error, message",
    [
        ({"kernel": None}, SchemaMismatchError, "missing field 'kernel'"),
        ({"kernel": 42}, SchemaMismatchError, "field 'kernel' has the wrong type"),
        ({"kernel": "banana"}, InvariantViolationError, "unknown kernel tag 'banana'"),
        ({"kernel": "rbf:0"}, InvariantViolationError,
         "rbf kernel requires a positive bandwidth with 2*bw^2 finite and nonzero"),
        ({"m": 2, "changePoints": []}, InvariantViolationError, "m is 2 but the document holds 1 segments"),
        ({"m": 4}, InvariantViolationError, "m is 4 but the document holds 3 segments"),
    ],
    ids=["no kernel", "numeric kernel", "unknown kernel", "zero rbf bandwidth", "m=2, no change points",
         "m=4, two change points"],
)
def test_segmentation_reader_refuses_a_bad_kernel_or_count(tmp_path, fields, error, message):
    path = tmp_path / "seg.json"
    path.write_text(json.dumps(segmentation_doc()))
    assert read_segmentation(path) == Segmentation(n=6, change_points=(2, 4), objective=1.0)
    path.write_text(json.dumps(segmentation_doc(**fields)))
    with pytest.raises(error) as err:
        read_segmentation(path)
    assert str(err.value) == f"{path}: {message}"  # one line, naming the file


@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.one_of(
        st.sampled_from([KernelSpec(), KernelSpec(kind="cosine")]),
        st.floats(0.1, 10.0).map(lambda bw: KernelSpec(kind="rbf", bandwidth=bw)),
    ),
    min_len=st.integers(1, 3),
    solve=st.sampled_from([solve_fixed, solve_auto, brute_force]),
)
@settings(max_examples=60, deadline=None)
def test_a_solve_round_trips_with_its_kernel(tmp_path_factory, seed, kernel, min_len, solve):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_len, 17))
    gram = compute_gram(FeatureSequence(values=rng.standard_normal((n, int(rng.integers(1, 4))))), kernel)
    seg = solve(gram, int(rng.integers(1, n // min_len + 1)), min_segment_length=min_len)
    root = tmp_path_factory.mktemp("solve")
    first, second = root / "first.json", root / "second.json"
    write_segmentation(seg, first)
    back = read_segmentation(first)
    write_segmentation(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert back == seg and back.kernel == kernel.tag


def plan_with_segment(**fields):
    segment = {"candidateRange": [0, 2], "sampledCandidates": [0, 1], "sourceFrames": [0, 30],
               "sourceTimestamps": [0.0, 1.0], **fields}
    return {"schema": "kts-plan/1", "m": 1, "k": 2, "segments": [segment]}


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (read_segmentation, '{"schema": "kts-segmentation/1",', "not valid JSON"),
        (read_truth, [{"schema": "kts-truth/1"}], "expected a JSON object at top level"),
        (read_truth, {"schema": "kts-truth/1", "n": "10", "changePoints": [4], "seed": 0},
         "field 'n' has the wrong type"),
        (read_truth, {"schema": "kts-truth/1", "n": 10, "changePoints": [4.5], "seed": 0},
         "field 'changePoints' must hold integers"),
        (read_plan, {**plan_with_segment(), "segments": [[0, 2]]}, "segment entries must be objects"),
        (read_plan, plan_with_segment(candidateRange=[0, 1, 2]), "candidateRange must have two entries"),
        (read_plan, plan_with_segment(sourceTimestamps=["0", 1.0]), "field 'sourceTimestamps' must hold reals"),
    ],
    ids=["invalid JSON", "top-level array", "wrong type", "non-integer list", "segment not an object",
         "three-entry candidate range", "string timestamp"],
)
def test_json_readers_name_the_file_for_malformed_documents(tmp_path, read, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(SchemaMismatchError, match=re.escape(f"{path}: {message}")):
        read(path)


# ---------------------------------------------------------------------------
# Plan and truth documents


def make_plan():
    return SamplingPlan(
        k=2,
        segments=(
            SegmentSamples((0, 2), (0, 1), (0, 30), (0.0, 1.0)),
            SegmentSamples((2, 4), (2, 3), (60, 90), (2.0, 3.0)),
        ),
    )


def test_plan_round_trip(tmp_path):
    plan = make_plan()
    path = tmp_path / "plan.json"
    write_plan(plan, path)
    assert read_plan(path) == plan


def test_plan_schema_guard(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"schema": "kts-plan/2", "k": 1, "segments": []}')
    with pytest.raises(SchemaMismatchError):
        read_plan(path)


def set_segment_field(index, key, value):
    def edit(doc):
        doc["segments"][index][key] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_segment_field(0, "sampledCandidates", [0, 5]), "sampled candidate 5 outside [0, 2)"),
        (set_segment_field(1, "sampledCandidates", [3, 2]), "sampled candidates must be non-decreasing"),
        (set_segment_field(0, "sourceFrames", [0]), "sampled candidate/frame/timestamp lists must align"),
        (set_segment_field(0, "sourceFrames", [-1, 30]), "source frame indices must be nonnegative"),
        (set_segment_field(0, "candidateRange", [2, 2]), "bad candidate range [2, 2)"),
        (lambda doc: doc.update(k=3), "every segment must carry exactly k samples"),
        (lambda doc: doc["segments"][1].update(candidateRange=[3, 5], sampledCandidates=[3, 4]),
         "segment candidate ranges must tile contiguously"),
        (set_segment_field(1, "sourceFrames", [20, 90]), "source frames must be non-decreasing across the plan"),
        (lambda doc: doc.update(m=0, segments=[]), "plan needs k >= 1 and at least one segment"),
        (lambda doc: doc.update(m=5), "m is 5 but the plan holds 2 segments"),
    ],
    ids=["sample outside range", "decreasing samples", "misaligned lists", "negative frame",
         "empty range", "k mismatch", "non-contiguous ranges", "frames decrease across segments",
         "no segments", "m mismatch"],
)
def test_plan_reader_names_the_file_for_each_invariant(tmp_path, edit, message):
    path = tmp_path / "plan.json"
    write_plan(make_plan(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(InvariantViolationError, match=re.escape(f"{path}: {message}")):
        read_plan(path)


def nan_timestamp(doc):
    doc["segments"][1]["sourceTimestamps"][0] = math.nan


def infinite_objective(doc):
    doc["objective"] = math.inf


def huge_timestamp(doc):
    doc["segments"][1]["sourceTimestamps"][0] = 10**999


@pytest.mark.parametrize(
    "read, write, edit, literal",
    [
        (read_plan, lambda path: write_plan(make_plan(), path), nan_timestamp, "NaN"),
        (
            read_segmentation,
            lambda path: write_segmentation(Segmentation(n=6, change_points=(2, 4), objective=1.0), path),
            infinite_objective,
            "Infinity",
        ),
        # json writes the integer 10**999 digit by digit; read as a float it would be inf.
        (read_plan, lambda path: write_plan(make_plan(), path), huge_timestamp, str(10**999)),
    ],
    ids=["plan NaN timestamp", "segmentation Infinity objective", "plan 1e999 timestamp"],
)
def test_json_readers_reject_non_finite_literals(tmp_path, read, write, edit, literal):
    path = tmp_path / "doc.json"
    write(path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))  # json writes the non-finite value as the literal NaN or Infinity
    assert literal in path.read_text()
    with pytest.raises(SchemaMismatchError, match=rf"doc\.json: {literal} is not a JSON number"):
        read(path)


def test_truth_round_trip(tmp_path):
    truth = GroundTruth(n=20, change_points=(4, 11), seed=77)
    path = tmp_path / "truth.json"
    write_truth(truth, path)
    assert read_truth(path) == truth
    text = path.read_text()
    assert '"schema": "kts-truth/1"' in text


def test_read_boundaries_from_segmentation_or_truth(tmp_path):
    seg_path, truth_path, plan_path = tmp_path / "seg.json", tmp_path / "truth.json", tmp_path / "plan.json"
    write_segmentation(Segmentation(n=6, change_points=(2, 4), objective=1.0), seg_path)
    write_truth(GroundTruth(n=20, change_points=(4, 11), seed=77), truth_path)
    write_plan(make_plan(), plan_path)
    assert read_boundaries(seg_path) == (6, [2, 4])
    assert read_boundaries(truth_path) == (20, [4, 11])
    with pytest.raises(SchemaMismatchError, match="carries no boundaries"):
        read_boundaries(plan_path)


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ({"schema": "kts-segmentation/1", "n": 10, "m": 5, "changePoints": [3, 6], "objective": -1.0,
          "penalty": 0.0, "penaltyWeight": 0.0, "kernel": "dot", "minSegmentLength": 4},
         InvariantViolationError, "segment [0, 3) shorter than minimum length 4"),
        ({"schema": "kts-truth/1", "n": 10, "changePoints": [3, 6]}, SchemaMismatchError, "missing field 'seed'"),
    ],
    ids=["corrupt segmentation", "truth without seed"],
)
def test_read_boundaries_reads_each_document_with_its_own_reader(tmp_path, doc, error, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=re.escape(f"{path}: {message}")):
        read_boundaries(path)


@pytest.mark.parametrize("n, change_points", [(10, [0, 4]), (0, []), (10, [4, 10]), (10, [6, 6]), (10, [7, 3])])
def test_boundary_readers_reject_impossible_boundaries(tmp_path, n, change_points):
    path = tmp_path / "truth.json"
    write_truth(GroundTruth(n=n, change_points=tuple(change_points), seed=1), path)
    for read in (read_truth, read_boundaries):
        with pytest.raises(InvariantViolationError, match="truth.json"):
            read(path)


def test_write_errors_carry_path_context(tmp_path):
    plan = make_plan()
    with pytest.raises(OSError, match="not a file path"):
        write_plan(plan, "")
    missing_dir = tmp_path / "nope" / "plan.json"
    messages = []

    def attempt():  # the temporary file's name carries the process and the thread
        with pytest.raises(OSError, match="plan.json") as err:
            write_plan(plan, missing_dir)
        messages.append(str(err.value))

    attempt()
    other = threading.Thread(target=attempt)
    other.start()
    other.join()
    assert messages[0] == messages[1] == f"cannot write {missing_dir}: No such file or directory"


def test_writes_take_any_name_the_file_system_accepts(tmp_path):
    # The temporary file's name does not grow with the target's: 245 bytes at NAME_MAX 255.
    path = tmp_path / ("p" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 15) + ".json")
    write_truth(GroundTruth(n=5, change_points=(2,), seed=1), path)
    assert read_truth(path) == GroundTruth(n=5, change_points=(2,), seed=1)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize(
    "target, reason",
    [
        (lambda d: d / ("p" * (os.pathconf(d, "PC_NAME_MAX") + 45) + ".json"), "File name too long"),
        (lambda d: d, "Is a directory"),
    ],
    ids=["name too long", "directory"],
)
def test_failed_writes_name_the_target_and_leave_nothing(tmp_path, target, reason):
    out = tmp_path / "out"
    out.mkdir()
    path = target(out)
    with pytest.raises(OSError) as err:
        write_truth(GroundTruth(n=5, change_points=(2,), seed=1), path)
    assert str(err.value) == f"cannot write {path}: {reason}"
    assert list(tmp_path.rglob("*")) == [out]  # no temporary file, next to the target or in it


def test_threads_writing_one_path_do_not_share_a_temporary_file(tmp_path):
    path, payloads = tmp_path / "t.json", [b"a" * 4096, b"b" * 8192]
    errors = []

    def write(data):
        for _ in range(300):
            try:
                atomic_write_bytes(path, data)
            except OSError as exc:
                errors.append(exc)

    threads = [threading.Thread(target=write, args=(data,)) for data in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert path.read_bytes() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_no_temp_files_left_behind(tmp_path):
    write_truth(GroundTruth(n=5, change_points=(2,), seed=1), tmp_path / "t.json")
    write_features(FeatureSequence(values=[[1.0]]), tmp_path / "f.ktsf")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["f.ktsf", "t.json"]


def test_render_document_rejects_non_finite():
    with pytest.raises(InvariantViolationError):
        render_document({"x": float("inf")})


def test_render_document_refuses_values_it_cannot_render():
    with pytest.raises(TypeError, match="cannot render set as JSON"):
        render_document({"x": {1, 2}})


def test_render_document_renders_booleans_and_empty_containers():
    doc = {"yes": True, "no": False, "none": {}, "empty": []}
    assert render_document(doc) == '{\n  "yes": true,\n  "no": false,\n  "none": {},\n  "empty": []\n}\n'


def test_render_document_numpy_scalars_match_builtins():
    as_numpy = {"i": np.int64(-7), "f32": np.float32(0.1), "f64": np.float64(1 / 3)}
    as_builtin = {"i": -7, "f32": float(np.float32(0.1)), "f64": 1 / 3}
    assert render_document(as_numpy) == render_document(as_builtin)


# ---------------------------------------------------------------------------
# Randomized round trips


finite_nonneg = st.floats(min_value=0.0, max_value=1e18, allow_nan=False, allow_infinity=False)


@st.composite
def random_segmentation(draw):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, n))
    cps = ()
    if m > 1:
        cps = tuple(sorted(draw(st.sets(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1))))
    return Segmentation(
        n=n,
        change_points=cps,
        objective=draw(finite_nonneg),
        penalty=draw(finite_nonneg),
        penalty_weight=draw(finite_nonneg),
    )


@given(random_segmentation())
@settings(max_examples=60, deadline=None)
def test_segmentation_round_trip_random(tmp_path_factory, seg):
    path = tmp_path_factory.mktemp("roundtrip") / "seg.json"
    write_segmentation(seg, path)
    assert read_segmentation(path) == seg


@given(
    st.integers(1, 12),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_feature_round_trip_random(tmp_path_factory, n, d, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
    feats = FeatureSequence(values=values)
    root = tmp_path_factory.mktemp("roundtrip")
    for name in ("f.ktsf", "f.csv"):
        path = root / name
        write_features(feats, path)
        assert np.array_equal(read_features(path).values, values)
