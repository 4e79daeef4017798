"""File-format tests: feature matrices, segmentations, plans, ground truth."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktseg import (
    FeatureSequence,
    InvariantViolationError,
    MalformedHeaderError,
    NonFiniteValueError,
    RaggedRowsError,
    SamplingPlan,
    SchemaMismatchError,
    SegmentSamples,
    Segmentation,
)
from ktseg.io import (
    GroundTruth,
    _read_features_csv_tokens,
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
    assert _read_features_csv_tokens(path) == expected


@pytest.mark.parametrize("text", ["", "\n\n", " \n"])
def test_csv_without_rows_warns_nothing(tmp_path, text):
    path = tmp_path / "feats.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedHeaderError, match="no feature rows"):
            read_features(path)


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
    assert np.array_equal(np.array(_read_features_csv_tokens(path)).view(np.uint64), expected)


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


def test_binary_non_finite_location(tmp_path):
    payload = np.array([[1.0, 2.0], [np.inf, 4.0]], dtype="<f4").tobytes()
    path = tmp_path / "a.ktsf"
    path.write_bytes(struct.pack("<4sIQQ", b"KTSF", 1, 2, 2) + payload)
    with pytest.raises(NonFiniteValueError, match="row 2, column 1"):
        read_features(path)


def test_unknown_extension(tmp_path):
    path = tmp_path / "a.bin"
    path.write_text("1,2\n")
    with pytest.raises(MalformedHeaderError, match="extension"):
        read_features(path)


# ---------------------------------------------------------------------------
# Segmentation documents


def test_segmentation_round_trip(tmp_path):
    seg = Segmentation(
        n=4, m=2, change_points=(2,), objective=0.0, penalty=0.81, penalty_weight=1.0
    )
    path = tmp_path / "seg.json"
    write_segmentation(seg, path, kernel="cosine")
    assert read_segmentation(path) == seg
    assert '"kernel": "cosine"' in path.read_text()


def test_segmentation_seventeen_digit_reals(tmp_path):
    seg = Segmentation(n=5, m=2, change_points=(3,), objective=0.1)
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
    seg = Segmentation(n=6, m=3, change_points=(2, 4), objective=1.0)
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


def test_truth_round_trip(tmp_path):
    truth = GroundTruth(n=20, change_points=(4, 11), seed=77)
    path = tmp_path / "truth.json"
    write_truth(truth, path)
    assert read_truth(path) == truth
    text = path.read_text()
    assert '"schema": "kts-truth/1"' in text


def test_read_boundaries_from_segmentation_or_truth(tmp_path):
    seg_path, truth_path, plan_path = tmp_path / "seg.json", tmp_path / "truth.json", tmp_path / "plan.json"
    write_segmentation(Segmentation(n=6, m=3, change_points=(2, 4), objective=1.0), seg_path)
    write_truth(GroundTruth(n=20, change_points=(4, 11), seed=77), truth_path)
    write_plan(make_plan(), plan_path)
    assert read_boundaries(seg_path) == [2, 4]
    assert read_boundaries(truth_path) == [4, 11]
    with pytest.raises(SchemaMismatchError, match="carries no boundaries"):
        read_boundaries(plan_path)


def test_write_errors_carry_path_context(tmp_path):
    plan = make_plan()
    with pytest.raises(OSError, match="not a file path"):
        write_plan(plan, "")
    missing_dir = tmp_path / "nope" / "plan.json"
    with pytest.raises(OSError, match="plan.json"):
        write_plan(plan, missing_dir)


def test_no_temp_files_left_behind(tmp_path):
    write_truth(GroundTruth(n=5, change_points=(2,), seed=1), tmp_path / "t.json")
    write_features(FeatureSequence(values=[[1.0]]), tmp_path / "f.ktsf")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["f.ktsf", "t.json"]


def test_render_document_rejects_non_finite():
    with pytest.raises(InvariantViolationError):
        render_document({"x": float("inf")})


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
        m=m,
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
