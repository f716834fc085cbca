"""Canonical file formats, dataset adapters, prediction loading."""

import hashlib
import json
import math
import re
import struct
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oadeval import formats
from oadeval.errors import (
    EvaluationError,
    ParseError,
    ValidationError,
    VocabularyError,
)
from oadeval.formats import (
    CorpusManifest,
    build_scores,
    build_stream,
    load_activitynet_gt,
    load_canonical_gt,
    load_scores,
    load_thumos_gt,
    read_predictions,
    write_canonical_gt,
    write_predictions,
)
from oadeval.baselines import all_bg, perfect_model
from oadeval.offline import FrameScoreMatrix
from oadeval.timeline import (
    AnnotationTrack,
    IntervalColumns,
    LabelVocabulary,
    PredictionStream,
    TimeInterval,
    discretize,
)

DATA = Path(__file__).parent / "data"
STREAM_KINDS = ("decisions", "detections")


def manifests():
    """Strategy for randomized, valid corpus manifests."""
    # "bg" is the manifest's background label, never an action class
    names = st.text(alphabet="abcdefgh", min_size=1, max_size=6).filter(
        lambda name: name != "bg")

    @st.composite
    def build(draw):
        classes = tuple(sorted(draw(st.sets(names, min_size=1, max_size=4))))
        vocab = LabelVocabulary(classes=classes, background="bg")
        tracks = []
        for i in range(draw(st.integers(1, 5))):
            duration = draw(st.floats(1.0, 50.0))
            intervals = []
            t = 0.0
            for _ in range(draw(st.integers(0, 4))):
                gap = draw(st.floats(0.0, 3.0))
                length = draw(st.floats(0.1, 4.0))
                if t + gap + length > duration:
                    break
                intervals.append(TimeInterval(
                    draw(st.sampled_from(classes)), t + gap, t + gap + length))
                t += gap + length
            tracks.append(AnnotationTrack(f"vid-{i}", duration,
                                          tuple(intervals)))
        return CorpusManifest(vocabulary=vocab, tracks=tuple(tracks))

    return build()


@st.composite
def interval_entries(draw):
    """A valid interval entry, its times ints or floats."""
    # half-microsecond products, where round() and np.rint() both round
    # half to even, and float noise (0.1 + 0.2) besides the drawn times;
    # starts from 2**53 us up to int64's range take whole-second lengths,
    # since a float there is coarser than 1 ms
    start = draw(st.one_of(st.integers(0, 10 ** 6), st.floats(0.0, 1e6),
                           st.sampled_from([5e-7, 1.5e-6, 2.5e-6, 0.1 + 0.2,
                                            1.0000005, -0.0]),
                           st.floats(2 ** 53 / 1e6, 9.2e12)))
    length = draw(st.integers(1, 1000) if start > 1e6 else
                  st.one_of(st.integers(1, 1000), st.floats(1e-3, 1e3)))
    return {"label": draw(st.sampled_from(["a", "walk", "bg"])),
            "start_s": start, "end_s": start + length}


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# score values for the writer: any finite float64 bit pattern, and values
# that json.dumps spells in a way of their own
SCORE_VALUES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_float_from_bits).filter(math.isfinite),
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-5, 5e-324, 1e16, 1e22]))

# score cells as the reader sees them: ints of any size within the float
# range, and finite floats
SCORE_CELLS = st.one_of(st.integers(-2 ** 80, 2 ** 80),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def score_matrices(draw):
    """A finite float64 matrix of 0-12 rows and 0-4 columns.

    Its cells come from a pool of one to three values, so that values
    repeat, or also from :data:`SCORE_VALUES`, so that most are
    distinct. It is C-ordered, Fortran-ordered or a strided view.
    """
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(0, 4))
    pool = st.sampled_from(draw(st.lists(SCORE_VALUES, min_size=1,
                                         max_size=3)))
    cells = pool if draw(st.booleans()) else st.one_of(pool, SCORE_VALUES)
    matrix = np.array(draw(st.lists(cells, min_size=n_rows * n_cols,
                                    max_size=n_rows * n_cols)),
                      dtype=float).reshape(n_rows, n_cols)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(matrix)
    if layout == "strided":
        return np.repeat(matrix, 2, axis=0)[::2]
    return matrix


# One interval fault per list, with what load_canonical_gt (its file is
# PATH) and build_stream (a detections record against a 4 s track) raise:
# the class name and the full text, as the entry loop words them. Where a
# list holds two faults, the load names the first in input order and
# build_stream the first in sorted order (labels: input order in both).
FAULT_VOCAB = {"record": "vocabulary", "classes": ["a", "b"],
               "background": "bg"}
VALID_ENTRY = {"label": "a", "start_s": 0.5, "end_s": 1.0}
INTERVAL_FAULTS = {
    "negative start": (
        [VALID_ENTRY, {"label": "a", "start_s": -1.0, "end_s": 1.0}],
        ("ValidationError", "PATH, line 2: interval start -1.0 < 0"),
        ("ValidationError", "interval start -1.0 < 0")),
    "zero length after rounding": (
        [VALID_ENTRY, {"label": "a", "start_s": 2.0, "end_s": 2.0000004}],
        ("ValidationError", "PATH, line 2: interval [2.0, 2.0000004) for 'a' "
         "has zero or negative length"),
        ("ValidationError",
         "interval [2.0, 2.0000004) for 'a' has zero or negative length")),
    "start of 2**53 us": (
        [VALID_ENTRY, {"label": "a", "start_s": 2 ** 53 / 1e6,
                       "end_s": 2 ** 53 / 1e6 + 1}],
        ("ValidationError", "PATH, line 2: video 'v': interval "
         "[9007199254.740992, 9007199255.740992) exceeds duration 4.0"),
        ("ValidationError", "interval [9007199254.740992, 9007199255.740992) "
         "exceeds duration 4.0")),
    "10**400": (
        [VALID_ENTRY, {"label": "a", "start_s": 1.0, "end_s": 10 ** 400}],
        ("ParseError", "PATH, line 2, field 'end_s': expected a finite number "
         f"but got {'1' + '0' * 36}..."),
        ("ParseError",
         f"field 'end_s': expected a finite number but got {'1' + '0' * 36}...")),
    "unknown label": (
        [{"label": "zz", "start_s": 3.0, "end_s": 3.5},
         {"label": "yy", "start_s": 1.0, "end_s": 1.5}],
        ("VocabularyError", "PATH, line 2: unknown label 'zz'"),
        ("VocabularyError", "unknown label 'zz'")),
    "background label": (
        [VALID_ENTRY, {"label": "bg", "start_s": 2.0, "end_s": 3.0}],
        ("ValidationError",
         "PATH, line 2: background intervals are implicit, never stored"),
        ("ValidationError", "background intervals are implicit, never stored")),
    "end past the duration": (
        [{"label": "a", "start_s": 3.0, "end_s": 5.0},
         {"label": "b", "start_s": 1.0, "end_s": 4.5}],
        ("ValidationError",
         "PATH, line 2: video 'v': interval [3.0, 5.0) exceeds duration 4.0"),
        ("ValidationError", "interval [1.0, 4.5) exceeds duration 4.0")),
    # detections may overlap: the stream holds b, then a from 1.0 s on
    "overlap": (
        [{"label": "b", "start_s": 2.0, "end_s": 3.0},
         {"label": "a", "start_s": 1.0, "end_s": 2.5}],
        ("ValidationError", "PATH, line 2: video 'v': interval [2.0, 3.0) "
         "overlaps an earlier one but track is not multi_label"),
        ("stream", "bbaaabbb")),
    "empty label": (
        [VALID_ENTRY, {"label": "", "start_s": 2.0, "end_s": 3.0}],
        ("ValidationError", "PATH, line 2: interval label must be non-empty"),
        ("ValidationError", "interval label must be non-empty")),
    # non-finite times, which no array arithmetic may warn of
    "infinite end": (
        [VALID_ENTRY, {"label": "a", "start_s": 2.0, "end_s": math.inf}],
        ("ParseError", "PATH, line 2, field 'end_s': expected a finite number "
         "but got inf"),
        ("ParseError", "field 'end_s': expected a finite number but got inf")),
    "nan start": (
        [VALID_ENTRY, {"label": "a", "start_s": math.nan, "end_s": 3.0}],
        ("ParseError", "PATH, line 2, field 'start_s': expected a finite "
         "number but got nan"),
        ("ParseError",
         "field 'start_s': expected a finite number but got nan")),
    "product past the float range": (
        [VALID_ENTRY, {"label": "a", "start_s": 2.0, "end_s": 1e305}],
        ("ValidationError", "PATH, line 2: time 1e+305 s is not a finite "
         "number of microseconds below 2**63"),
        ("ValidationError",
         "time 1e+305 s is not a finite number of microseconds below 2**63")),
    "product past int64": (
        [VALID_ENTRY, {"label": "a", "start_s": 2.0, "end_s": 1e13}],
        ("ValidationError", "PATH, line 2: time 10000000000000.0 s is not a "
         "finite number of microseconds below 2**63"),
        ("ValidationError", "time 10000000000000.0 s is not a finite number "
         "of microseconds below 2**63")),
}


def fault_outcome(call):
    """The error's class name and text, or a stream's decision initials."""
    try:
        stream = call()
    except EvaluationError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(stream, PredictionStream):
        return "stream", "".join(label[0] for label in stream.decisions)
    return None


class TestCanonicalGt:
    VOCAB = '{"record": "vocabulary", "classes": ["a"], "background": "bg"}'
    VIDEO = ('{"record": "video", "video_id": "v", "duration_s": 4.0,'
             ' "intervals": []}')
    # validation errors (labels, vocabulary, ids) are located like parse
    # errors
    LABEL_ERRORS = {"unknown label 'walk'": VocabularyError,
                    "background intervals are implicit": ValidationError,
                    "class names must be unique": ValidationError,
                    "duplicate video id 'v' (first at line 2)":
                        ValidationError}

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"record": "vocabulary", "classes": ["a"], "background": "bg"}\n'
            '{"record": "video", "video_id": "v", "duration_s": 4.0,'
            ' "intervals": [{"label": "a", "start_s": 1.0, "end_s": 2.0}]}\n')
        manifest = load_canonical_gt(path)
        assert len(manifest.tracks) == 1
        assert manifest.tracks[0].intervals[0].label == "a"
        assert manifest.source.startswith("canonical:")

    def test_source_digest_is_of_the_bytes_read(self, tmp_path, monkeypatch):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"record": "vocabulary", "classes": ["a"], "background": "bg"}\n')
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(self) or read_bytes(self))
        monkeypatch.setattr(Path, "read_text", None)
        manifest = load_canonical_gt(path)
        assert reads == [path]
        assert manifest.source == (
            f"canonical:{hashlib.sha256(read_bytes(path)).hexdigest()[:16]}")

    def test_worked_example_fixture(self):
        manifest = load_canonical_gt(DATA / "worked_example.gt.jsonl")
        track = manifest.tracks[0]
        assert track.video_id == "worked-example"
        assert track.duration_s == 10.0

    def test_reversed_interval_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"record": "vocabulary", "classes": ["a"], "background": "bg"}\n'
            '{"record": "video", "video_id": "v", "duration_s": 4.0,'
            ' "intervals": [{"label": "a", "start_s": 2.0, "end_s": 2.0}]}\n')
        with pytest.raises(ValidationError):
            load_canonical_gt(path)

    def test_out_of_bounds_interval_names_video(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"record": "vocabulary", "classes": ["a"], "background": "bg"}\n'
            '{"record": "video", "video_id": "oops", "duration_s": 4.0,'
            ' "intervals": [{"label": "a", "start_s": 1.0, "end_s": 9.0}]}\n')
        with pytest.raises(ValidationError, match="oops"):
            load_canonical_gt(path)

    def test_duplicate_video_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        record = ('{"record": "video", "video_id": "v", "duration_s": 4.0,'
                  ' "intervals": []}\n')
        path.write_text(
            '{"record": "vocabulary", "classes": ["a"], "background": "bg"}\n'
            + record + record)
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}, line 3: duplicate video id 'v' (first at line 2)")):
            load_canonical_gt(path)

    @pytest.mark.parametrize("line,err", [
        ('{"record": "video"', "invalid JSON"),
        ('[1, 2]', "JSON object"),
        ('{"record": "mystery"}', "unknown record"),
        ('{"record": "video", "video_id": "v"}', "missing field"),
        ('{"record": "video", "video_id": "v", "duration_s": "x",'
         ' "intervals": []}', "expected"),
        ('{"record": "video", "video_id": "v", "duration_s": NaN,'
         ' "intervals": []}', "expected a finite number"),
        ('{"record": "video", "video_id": "v", "duration_s": true,'
         ' "intervals": []}', "expected a finite number"),
        ('{"record": "video", "video_id": "v", "duration_s": 4.0, "intervals":'
         ' [{"label": "a", "start_s": -Infinity, "end_s": 1.0}]}',
         "expected a finite number"),
        ('{"record": "video", "video_id": "v", "duration_s": 4.0, "intervals":'
         ' [{"label": "walk", "start_s": 0.0, "end_s": 1.0}]}',
         "unknown label 'walk'"),
        ('{"record": "video", "video_id": "v", "duration_s": 4.0, "intervals":'
         ' [{"label": "bg", "start_s": 0.0, "end_s": 1.0}]}',
         "background intervals are implicit"),
        (VOCAB.replace('["a"]', '["a", "a"]'), "class names must be unique"),
        (f"{VIDEO}\n{VIDEO}", "duplicate video id 'v' (first at line 2)"),
        (f"{VIDEO}\n{VOCAB}", "duplicate vocabulary record"),
        (VIDEO[:-1] + ', "multi_label": 0}',
         "field 'multi_label': expected a boolean"),
        (VIDEO[:-1] + ', "multi_label": null}',
         "field 'multi_label': expected a boolean"),
    ])
    def test_parse_errors_carry_location(self, tmp_path, line, err):
        # the faulty line is the file's last; a vocabulary line of the case
        # replaces the default one
        text = (line if line.startswith('{"record": "vocabulary"')
                else f"{self.VOCAB}\n{line}")
        path = tmp_path / "gt.jsonl"
        path.write_text(text + "\n")
        location = re.escape(f"{path}, line {text.count(chr(10)) + 1}")
        with pytest.raises(self.LABEL_ERRORS.get(err, ParseError),
                           match=location) as excinfo:
            load_canonical_gt(path)
        assert err in str(excinfo.value)

    @pytest.mark.parametrize("fields,err", [
        ({"duration_s": "4"}, "field 'duration_s': expected a number but got str"),
        ({"video_id": 7}, "field 'video_id': expected a string but got int"),
        ({"intervals": {}}, "field 'intervals': expected a list but got dict"),
        ({"intervals": [{"label": "a", "start_s": None, "end_s": 1.0}]},
         "field 'start_s': expected a number but got NoneType"),
        # 37 characters of the 401-digit repr, then an ellipsis
        ({"duration_s": 10 ** 400},
         f"field 'duration_s': expected a finite number but got {'1' + '0' * 36}..."),
        ({"duration_s": -10 ** 400},
         f"field 'duration_s': expected a finite number but got {'-1' + '0' * 35}..."),
        # interval faults the whole-list checks send to the entry loop
        ({"intervals": [{"label": "a", "start_s": 0, "end_s": 1},
                        {"label": "a", "start_s": 2, "end_s": 10 ** 400}]},
         f"field 'end_s': expected a finite number but got {'1' + '0' * 36}..."),
        ({"intervals": [{"label": "a", "start_s": True, "end_s": 1.0}]},
         "field 'start_s': expected a finite number but got True"),
        ({"intervals": [{"label": "a", "start_s": 0.0, "end_s": 1.0},
                        {"start_s": 1.0, "end_s": 2.0}]},
         "field 'label': missing field"),
        ({"intervals": [{"label": "a", "start_s": 0.0, "end_s": 1.0}, 7]},
         "field 'intervals': interval must be an object"),
    ])
    def test_field_errors_name_the_kind_in_words(self, tmp_path, fields, err):
        path = tmp_path / "gt.jsonl"
        record = {"record": "video", "video_id": "v", "duration_s": 4.0,
                  "intervals": [], **fields}
        path.write_text(f"{self.VOCAB}\n{json.dumps(record)}\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}, line 2, {err}") + "$"):
            load_canonical_gt(path)

    @given(entries=st.lists(interval_entries(), max_size=30),
           key=st.sampled_from(["intervals", "events"]))
    @settings(max_examples=200)
    def test_whole_list_interval_checks_match_the_entry_loop(self, entries,
                                                             key):
        # the entry loop must not run: a valid list passes in bulk
        with mock.patch.object(formats, "_parse_interval",
                               side_effect=AssertionError):
            bulk = formats._parse_intervals(entries, "gt.jsonl", 2, key)
        one_by_one = tuple(formats._parse_interval(e, "gt.jsonl", 2, key)
                           for e in entries)
        assert bulk.intervals == one_by_one
        assert [(type(iv.start_s), type(iv.end_s), iv.start_us, iv.end_us)
                for iv in bulk.intervals] == [
            (type(iv.start_s), type(iv.end_s), iv.start_us, iv.end_us)
            for iv in one_by_one]
        # the columns hold the entries sorted as sorted() sorts the objects
        rows = sorted(range(len(entries)), key=lambda i: (
            one_by_one[i].start_us, one_by_one[i].label))
        assert bulk.order.tolist() == rows
        assert bulk.labels == tuple(sorted({iv.label for iv in one_by_one}))
        assert [bulk.labels[c] for c in bulk.codes.tolist()] == [
            one_by_one[i].label for i in rows]
        assert bulk.start_us.tolist() == [one_by_one[i].start_us for i in rows]
        assert bulk.end_us.tolist() == [one_by_one[i].end_us for i in rows]
        assert (bulk.start_us.dtype, bulk.end_us.dtype) == (np.int64, np.int64)
        assert bulk.codes.dtype == np.intp
        assert bulk.rows() == [one_by_one[i] for i in rows]
        for column in (bulk.codes, bulk.start_us, bulk.end_us, bulk.order):
            assert not column.flags.writeable

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entries,load,stream", INTERVAL_FAULTS.values(),
                             ids=INTERVAL_FAULTS.keys())
    def test_interval_faults_fail_as_the_entry_loop_does(self, tmp_path,
                                                         entries, load,
                                                         stream):
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps(FAULT_VOCAB) + "\n" + json.dumps(
            {"record": "video", "video_id": "v", "duration_s": 4.0,
             "intervals": entries}) + "\n")
        load = (load[0], load[1].replace("PATH", str(path)))
        assert fault_outcome(lambda: load_canonical_gt(path)) == load
        vocab = LabelVocabulary(classes=("a", "b"), background="bg")
        record = {"record": "detections", "video_id": "v", "events": entries}
        assert fault_outcome(lambda: build_stream(
            "detections", record, AnnotationTrack("v", 4.0), vocab, 0.5)
        ) == stream

    @pytest.mark.filterwarnings("error")  # no cast past the int64 range
    def test_times_below_2_63_us_load_as_int64_and_past_it_fail(self,
                                                                tmp_path):
        # starts of 2**53 us and more, within a long enough video, are valid:
        # the columns, from the reader or from objects, hold them as int64
        path = tmp_path / "gt.jsonl"
        intervals = [{"label": "a", "start_s": 9e12, "end_s": 9.2e12},
                     {"label": "a", "start_s": 2 ** 53 / 1e6, "end_s": 1e10}]
        video = {"record": "video", "video_id": "v", "duration_s": 9.2e12,
                 "intervals": intervals}
        path.write_text(json.dumps(FAULT_VOCAB) + "\n" + json.dumps(video)
                        + "\n")
        track = load_canonical_gt(path).tracks[0]
        assert "intervals" not in track.columns.__dict__  # no entry loop
        expected = tuple(TimeInterval(e["label"], e["start_s"], e["end_s"])
                         for e in intervals)
        assert track.intervals == expected
        for columns in (track.columns, IntervalColumns.of(expected)):
            assert columns.start_us.tolist() == [
                expected[1].start_us, expected[0].start_us]
            assert columns.end_us.tolist() == [
                expected[1].end_us, expected[0].end_us]
            assert (columns.start_us.dtype, columns.end_us.dtype) == (
                np.int64, np.int64)
        # 1e13 s is 1e19 us, past int64's 9.22e18
        intervals[0]["end_s"] = 1e13
        path.write_text(json.dumps(FAULT_VOCAB) + "\n" + json.dumps(video)
                        + "\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}, line 2: time 10000000000000.0 s is not a finite "
                "number of microseconds below 2**63")):
            load_canonical_gt(path)

    def test_track_intervals_built_on_first_read_match_given_ones(self,
                                                                  tmp_path):
        entries = [{"label": "b", "start_s": 2, "end_s": 3.5},
                   {"label": "a", "start_s": 0.1 + 0.2, "end_s": 1.0},
                   {"label": "a", "start_s": 2.0, "end_s": 3.0}]
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps(FAULT_VOCAB) + "\n" + json.dumps(
            {"record": "video", "video_id": "v", "duration_s": 4.0,
             "intervals": entries, "multi_label": True}) + "\n")
        parsed = load_canonical_gt(path).tracks[0]
        assert "intervals" not in parsed.columns.__dict__  # not built yet
        given = AnnotationTrack("v", 4.0, tuple(
            TimeInterval(e["label"], float(e["start_s"]), float(e["end_s"]))
            for e in entries), multi_label=True)
        assert parsed.intervals == given.intervals
        assert [iv.start_s for iv in parsed.intervals] == [2.0, 0.1 + 0.2, 2.0]
        assert parsed == given and hash(parsed) == hash(given)
        assert repr(parsed) == repr(given) == (
            "AnnotationTrack(video_id='v', duration_s=4.0, intervals=("
            "TimeInterval(label='b', start_s=2.0, end_s=3.5), "
            "TimeInterval(label='a', start_s=0.30000000000000004, end_s=1.0), "
            "TimeInterval(label='a', start_s=2.0, end_s=3.0)), multi_label=True)")
        assert parsed.intervals is parsed.intervals  # built once
        assert type(parsed.intervals) is tuple
        assert [(iv.start_us, iv.end_us) for iv in parsed.columns.rows()] == [
            (300_000, 1_000_000), (2_000_000, 3_000_000), (2_000_000, 3_500_000)]
        assert parsed != AnnotationTrack("v", 4.0, given.intervals[::-1],
                                         multi_label=True)

    def test_unknown_interval_label_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"record": "vocabulary", "classes": ["a"], "background": "bg"}\n'
            '{"record": "video", "video_id": "v", "duration_s": 4.0,'
            ' "intervals": [{"label": "zz", "start_s": 0.0, "end_s": 1.0}]}\n')
        with pytest.raises(VocabularyError):
            load_canonical_gt(path)

    def test_missing_vocabulary_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"record": "video", "video_id": "v", '
                        '"duration_s": 4.0, "intervals": []}\n')
        with pytest.raises(ParseError):
            load_canonical_gt(path)

    @pytest.mark.parametrize("text", ["", "\n\n", " \n"])
    def test_file_without_records_names_the_missing_vocabulary(self, tmp_path,
                                                               text):
        path = tmp_path / "gt.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: no vocabulary record found")):
            load_canonical_gt(path)

    def test_round_trip_fixture(self, tmp_path):
        first = load_canonical_gt(DATA / "worked_example.gt.jsonl")
        out = tmp_path / "copy.jsonl"
        write_canonical_gt(first, out)
        second = load_canonical_gt(out)
        assert first.vocabulary == second.vocabulary
        assert first.tracks == second.tracks

    @given(manifest=manifests())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_manifests(self, manifest, tmp_path_factory):
        out = tmp_path_factory.mktemp("rt") / "gt.jsonl"
        write_canonical_gt(manifest, out)
        loaded = load_canonical_gt(out)
        assert loaded.vocabulary == manifest.vocabulary
        assert loaded.tracks == manifest.tracks

    def test_hand_built_labels_checked_where_the_track_is_used(self):
        # construction checks only ids; the rasterizer checks labels
        vocab = LabelVocabulary(classes=("jump",))
        track = AnnotationTrack("v", 4.0, (TimeInterval("background", 0.0, 1.0),))
        manifest = CorpusManifest(vocabulary=vocab, tracks=(track,))
        with pytest.raises(ValidationError,
                           match="^background intervals are implicit"):
            discretize(track.intervals, track.duration_s, 0.5,
                       manifest.vocabulary)
        with pytest.raises(ValidationError, match="duplicate video id 'v'"):
            CorpusManifest(vocabulary=vocab, tracks=(track, track))


class TestActivityNetAdapter:
    def test_fixture_conversion(self):
        manifest, report = load_activitynet_gt(DATA / "activitynet_fixture.json")
        assert {t.video_id for t in manifest.tracks} == {"abc123", "def456"}
        assert manifest.vocabulary.classes == ("Long jump", "Triple jump")
        assert report.videos_loaded == 2
        assert report.videos_skipped == 1  # the one without a duration
        assert any("jkl012" in w for w in report.warnings)

    def test_segment_clamped_to_duration(self):
        manifest, report = load_activitynet_gt(DATA / "activitynet_fixture.json")
        track = manifest.by_id()["def456"]
        assert track.intervals[0].end_s == 8.0
        assert any("clamped" in w for w in report.warnings)

    def test_warnings_sorted(self):
        _, report = load_activitynet_gt(DATA / "activitynet_fixture.json")
        assert report.warnings == sorted(report.warnings)

    def test_empty_database_warns(self, tmp_path):
        path = tmp_path / "anet.json"
        path.write_text('{"database": {}}')
        manifest, report = load_activitynet_gt(path)
        assert manifest.tracks == ()
        assert report.warnings

    def test_source_digest_is_of_the_bytes_read(self, monkeypatch):
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(self) or read_bytes(self))
        monkeypatch.setattr(Path, "read_text", None)
        manifest, _ = load_activitynet_gt(DATA / "activitynet_fixture.json")
        assert reads == [DATA / "activitynet_fixture.json"]
        assert manifest.source == "activitynet:c56645965805b9fa"

    def test_subset_filter(self):
        manifest, _ = load_activitynet_gt(DATA / "activitynet_fixture.json",
                                          subset="training")
        assert {t.video_id for t in manifest.tracks} == {"ghi789"}

    def test_missing_annotations_mean_none(self, tmp_path):
        path = tmp_path / "anet.json"
        path.write_text(json.dumps({"database": {"v1": {
            "subset": "validation", "duration": 5.0}}}))
        manifest, _ = load_activitynet_gt(path)
        assert manifest.by_id()["v1"].intervals == ()

    @staticmethod
    def load_one(tmp_path, annotations):
        """Load one 5 s validation video holding ``annotations``."""
        path = tmp_path / "anet.json"
        path.write_text(json.dumps({"database": {"v1": {
            "subset": "validation", "duration": 5.0,
            "annotations": annotations}}}))
        manifest, report = load_activitynet_gt(path)
        return manifest.by_id()["v1"], report

    @pytest.mark.parametrize("text", ['{"database": []}', '{"videos": {}}',
                                      '[]', '{"database": null}'])
    def test_database_that_is_not_a_mapping_rejected(self, tmp_path, text):
        path = tmp_path / "anet.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}, field 'database': expected an object with a "
                "'database' mapping")):
            load_activitynet_gt(path)

    def test_entry_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "anet.json"
        path.write_text('{"database": {"v1": [5.0]}}')
        with pytest.raises(ParseError, match=re.escape(
                f"{path}, field 'database': video 'v1' entry must be an "
                "object")):
            load_activitynet_gt(path)

    def test_negative_segment_start_clamped_to_zero(self, tmp_path):
        track, report = self.load_one(
            tmp_path, [{"label": "jump", "segment": [-1.5, 2.0]}])
        assert track.intervals == (TimeInterval("jump", 0.0, 2.0),)
        assert report.warnings == [
            "video 'v1': segment start -1.5 clamped to 0"]

    @pytest.mark.parametrize("segment,warnings", [
        ([-3.0, -1.0], ["video 'v1': segment start -3.0 clamped to 0"]),
        ([6.0, 7.0], ["video 'v1': segment end 7.0 clamped to duration 5.0"]),
        ([5.0, 9.0], ["video 'v1': segment end 9.0 clamped to duration 5.0"]),
        # a start past int64's range in microseconds is never converted
        ([1e305, 1e306],
         ["video 'v1': segment end 1e+306 clamped to duration 5.0"]),
    ])
    def test_segment_empty_after_clamping_dropped(self, tmp_path, segment,
                                                  warnings):
        track, report = self.load_one(tmp_path, [
            {"label": "jump", "segment": segment},
            {"label": "jump", "segment": [1.0, 2.0]}])
        assert track.intervals == (TimeInterval("jump", 1.0, 2.0),)
        assert report.warnings == sorted(warnings + [
            f"video 'v1': segment {segment} empty after clamping; dropped"])

    @pytest.mark.parametrize("duration", [1e13, 1e305])
    def test_duration_past_int64_skipped(self, tmp_path, duration):
        # 1e13 s is 1e19 us, past int64's 9.22e18: an invalid duration
        path = tmp_path / "anet.json"
        path.write_text(json.dumps({"database": {
            "v1": {"subset": "validation", "duration": duration,
                   "annotations": [{"label": "jump",
                                    "segment": [1.0, duration]}]},
            "v2": {"subset": "validation", "duration": 5.0}}}))
        manifest, report = load_activitynet_gt(path)
        assert [track.video_id for track in manifest.tracks] == ["v2"]
        assert report.videos_skipped == 1
        assert report.warnings == [
            "video 'v1': missing or invalid duration; skipped"]


class TestThumosAdapter:
    def test_fixture_merges_classes_per_video(self):
        manifest = load_thumos_gt(DATA / "thumos_fixture",
                                  DATA / "thumos_fixture" / "durations.txt")
        assert manifest.vocabulary.classes == ("HighJump", "PoleVault")
        track = manifest.by_id()["video_001"]
        assert len(track.intervals) == 2
        assert {iv.label for iv in track.intervals} == {"HighJump", "PoleVault"}

    def test_source_digest_is_of_the_durations_bytes_read(self, monkeypatch):
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(self) or read_bytes(self))
        monkeypatch.setattr(Path, "read_text", None)
        fixture = DATA / "thumos_fixture"
        manifest = load_thumos_gt(fixture, fixture / "durations.txt")
        assert reads == [fixture / "durations.txt",
                         fixture / "HighJump_test.txt",
                         fixture / "PoleVault_test.txt"]
        assert manifest.source == "thumos:2a1f3efd59ab2ffe"

    def test_malformed_row_names_file_and_line(self, tmp_path):
        (tmp_path / "Jump_test.txt").write_text("video_001 1.0\n")
        (tmp_path / "durations.txt").write_text("video_001 10.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_thumos_gt(tmp_path, tmp_path / "durations.txt")

    def test_missing_duration_lists_offenders(self, tmp_path):
        (tmp_path / "Jump_test.txt").write_text(
            "video_001 1.0 2.0\nvideo_xyz 3.0 4.0\n")
        (tmp_path / "durations.txt").write_text("video_001 10.0\n")
        with pytest.raises(ValidationError, match="video_xyz"):
            load_thumos_gt(tmp_path, tmp_path / "durations.txt")

    def test_missing_duration_names_the_table_and_first_rows(self, tmp_path):
        (tmp_path / "Jump_test.txt").write_text(
            "video_001 1.0 2.0\nvideo_xyz 3.0 4.0\nvideo_abc 1.0 2.0\n")
        (tmp_path / "Run_test.txt").write_text("video_xyz 1.0 2.0\n")
        durations = tmp_path / "durations.txt"
        durations.write_text("video_001 10.0\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"videos missing from the duration table {durations}: "
                f"'video_abc' (first at {tmp_path / 'Jump_test.txt'}, line 3), "
                f"'video_xyz' (first at {tmp_path / 'Jump_test.txt'}, line 2)"
        )):
            load_thumos_gt(tmp_path, durations)

    @pytest.mark.parametrize("duration", ["1e13", "1e305"])
    def test_duration_past_int64_rejected_at_its_line(self, tmp_path,
                                                      duration):
        # 1e13 s is 1e19 us, past int64's 9.22e18; the class row within it
        # is not blamed
        (tmp_path / "Jump_test.txt").write_text("video_001 1.0 2.0\n")
        durations = tmp_path / "durations.txt"
        durations.write_text(f"video_000 5.0\nvideo_001 {duration}\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{durations}, line 2: video 'video_001': duration "
                f"{float(duration)} must be > 0 and below 2**63 "
                "microseconds")):
            load_thumos_gt(tmp_path, durations)

    @pytest.mark.parametrize("row", ["video_001", "video_001 10.0 s"])
    def test_duration_row_without_two_fields_rejected(self, tmp_path, row):
        (tmp_path / "Jump_test.txt").write_text("video_001 1.0 2.0\n")
        durations = tmp_path / "durations.txt"
        durations.write_text(f"# video_id duration_s\n\n{row}\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{durations}, line 3: expected 'video_id duration_s'")):
            load_thumos_gt(tmp_path, durations)

    def test_directory_without_class_files_rejected(self, tmp_path):
        # the sidecar is not a class file, even inside the directory
        durations = tmp_path / "durations.txt"
        durations.write_text("video_001 10.0\n")
        (tmp_path / "notes.md").write_text("video_001 1.0 2.0\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{tmp_path}: no per-class .txt annotation files found")):
            load_thumos_gt(tmp_path, durations)

    def test_overlapping_rows_kept(self, tmp_path):
        (tmp_path / "Jump_test.txt").write_text(
            "video_001 1.0 5.0\nvideo_001 2.0 6.0\n")
        (tmp_path / "durations.txt").write_text("video_001 10.0\n")
        manifest = load_thumos_gt(tmp_path, tmp_path / "durations.txt")
        assert len(manifest.by_id()["video_001"].intervals) == 2

    def test_class_name_drops_one_suffix_either_way(self, tmp_path):
        for name in ("Jump_val_test", "Jump_test_val", "Run_val", "Walk"):
            (tmp_path / f"{name}.txt").write_text("video_001 1.0 2.0\n")
        (tmp_path / "durations.txt").write_text("video_001 10.0\n")
        manifest = load_thumos_gt(tmp_path, tmp_path / "durations.txt")
        assert manifest.vocabulary.classes == ("Jump_test", "Jump_val", "Run",
                                               "Walk")


class TestPredictions:
    @pytest.fixture
    def manifest(self):
        return load_canonical_gt(DATA / "worked_example.gt.jsonl")

    @staticmethod
    def stream(path, manifest, delta_t_s):
        """Build the worked example's one stream record, on line 1."""
        records, failures = read_predictions(path, manifest, STREAM_KINDS)
        assert failures == {}
        lineno, kind, obj = records["worked-example"]
        assert lineno == 1
        return build_stream(kind, obj, manifest.tracks[0],
                            manifest.vocabulary, delta_t_s)

    def test_event_form_streams_by_midpoint_rule(self, manifest):
        stream = self.stream(DATA / "worked_example.pred.jsonl", manifest, 0.5)
        decisions = stream.decisions
        assert decisions[4:8] == ("jump",) * 4
        assert decisions.count("jump") == 4

    def test_decisions_form(self, manifest, tmp_path):
        path = tmp_path / "p.jsonl"
        labels = ["background"] * 20
        path.write_text(json.dumps({
            "record": "decisions", "video_id": "worked-example",
            "delta_t_s": 0.5, "labels": labels}) + "\n")
        assert len(self.stream(path, manifest, 0.5)) == 20

    def test_missing_video_rejected(self, manifest, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("")
        records, failures = read_predictions(path, manifest, STREAM_KINDS)
        assert records == {}
        assert failures == {"worked-example": "missing predictions"}

    def test_empty_decisions_rejected(self, manifest, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({
            "record": "decisions", "video_id": "worked-example",
            "delta_t_s": 0.5, "labels": []}) + "\n")
        with pytest.raises(ValidationError, match="missing predictions"):
            self.stream(path, manifest, 0.5)

    def test_too_many_decisions_rejected(self, manifest, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({
            "record": "decisions", "video_id": "worked-example",
            "delta_t_s": 0.5, "labels": ["background"] * 21}) + "\n")
        with pytest.raises(ValidationError, match="exceed"):
            self.stream(path, manifest, 0.5)

    def test_delta_mismatch_rejected(self, manifest, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({
            "record": "decisions", "video_id": "worked-example",
            "delta_t_s": 0.25, "labels": ["background"] * 40}) + "\n")
        with pytest.raises(ValidationError, match="delta_t"):
            self.stream(path, manifest, 0.5)

    def test_unknown_label_rejected(self, manifest, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({
            "record": "decisions", "video_id": "worked-example",
            "delta_t_s": 0.5, "labels": ["walk"] * 20}) + "\n")
        with pytest.raises(VocabularyError):
            self.stream(path, manifest, 0.5)

    @pytest.mark.parametrize("record,field", [
        ({"record": "decisions", "delta_t_s": True,
          "labels": ["background"] * 10}, "delta_t_s"),
        ({"record": "decisions", "delta_t_s": float("nan"),
          "labels": ["background"] * 10}, "delta_t_s"),
        ({"record": "detections", "events": [
            {"label": "jump", "start_s": float("nan"), "end_s": 4.0}]},
         "start_s"),
        ({"record": "detections", "events": [
            {"label": "jump", "start_s": 2.0, "end_s": float("inf")}]},
         "end_s"),
        ({"record": "detections", "events": [
            {"label": "jump", "start_s": False, "end_s": 4.0}]}, "start_s"),
    ])
    def test_bool_and_non_finite_stream_fields_rejected(self, manifest,
                                                        tmp_path, record,
                                                        field):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"video_id": "worked-example", **record})
                        + "\n")
        with pytest.raises(ParseError, match=f"^field '{field}': expected "
                           "a finite number but got") as excinfo:
            self.stream(path, manifest, 1.0)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("fps,error", [
        (True, "field 'fps': expected a finite number but got True"),
        (float("nan"), "field 'fps': expected a finite number but got nan"),
        (float("inf"), "field 'fps': expected a finite number but got inf"),
        (1e308, "10.0 s at fps 1e+308 is not a finite frame count"),
    ])
    def test_bool_and_non_finite_fps_rejected(self, manifest, tmp_path, fps,
                                              error):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({
            "record": "scores", "video_id": "worked-example", "fps": fps,
            "scores": [[0.0, 0.0]] * 10}) + "\n")
        kind = ValidationError if fps == 1e308 else ParseError
        with pytest.raises(kind, match=re.escape(f"{path}, line 1: {error}")):
            load_scores(path, manifest)

    @pytest.mark.parametrize("record,field", [
        ({"record": "decisions", "labels": ["background"] * 20}, "delta_t_s"),
        ({"record": "decisions", "delta_t_s": 0.5}, "labels"),
        ({"record": "decisions", "delta_t_s": 0.5, "labels": "background"},
         "labels"),
        ({"record": "decisions", "delta_t_s": 0.5,
          "labels": ["background"] * 19 + [None]}, "labels"),
        ({"record": "detections"}, "events"),
        ({"record": "detections", "events": {"label": "jump"}}, "events"),
        ({"record": "detections", "events": [["jump", 2.0, 4.0]]}, "events"),
        ({"record": "detections", "events": [{"start_s": 2.0, "end_s": 4.0}]},
         "label"),
        ({"record": "detections", "events": [
            {"label": 7, "start_s": 2.0, "end_s": 4.0}]}, "label"),
        ({"record": "detections", "events": [{"label": "jump", "end_s": 4.0}]},
         "start_s"),
        ({"record": "detections", "events": [
            {"label": "jump", "start_s": 2.0, "end_s": "4.0"}]}, "end_s"),
    ])
    def test_structural_stream_faults_name_their_field(self, manifest,
                                                       tmp_path, record,
                                                       field):
        # the field of the prediction record, never the ground truth's
        # "intervals"
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"video_id": "worked-example", **record})
                        + "\n")
        with pytest.raises(ParseError, match=f"^field '{field}': ") as excinfo:
            self.stream(path, manifest, 0.5)
        assert excinfo.value.field == field
        assert excinfo.value.path is None and excinfo.value.line is None

    @pytest.mark.parametrize("record,field", [
        ({"fps": 2.0}, "scores"),
        ({"fps": 2.0, "scores": {"0": [0.0, 0.0]}}, "scores"),
        ({"scores": [[0.0, 0.0]] * 20}, "fps"),
        ({"fps": "2", "scores": [[0.0, 0.0]] * 20}, "fps"),
    ])
    def test_structural_score_faults_name_their_field(self, manifest,
                                                      tmp_path, record, field):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"record": "scores",
                                    "video_id": "worked-example", **record})
                        + "\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}, line 1: field '{field}': ")):
            load_scores(path, manifest)

    # each cell is raw JSON text, so that 1e400 stays a literal (it
    # parses to inf)
    @pytest.mark.parametrize("cell,error", [
        ("true", "each score row needs 2 numbers"),
        ("false", "each score row needs 2 numbers"),
        ("null", "each score row needs 2 numbers"),
        ('"0.5"', "each score row needs 2 numbers"),
        ("[0.5]", "each score row needs 2 numbers"),
        ('{"a": 0.5}', "each score row needs 2 numbers"),
        ("1" + "0" * 400, "score beyond the float range"),
        ("1e400", "scores must be finite"),
    ])
    def test_non_number_score_cells_rejected(self, manifest, tmp_path, cell,
                                             error):
        rows = ["[0.0, 0.0]"] * 20
        rows[3] = f"[0.5, {cell}]"
        path = tmp_path / "p.jsonl"
        path.write_text('{"record": "scores", "video_id": "worked-example", '
                        f'"fps": 2.0, "scores": [{", ".join(rows)}]}}\n')
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}, line 1: video 'worked-example': {error}") + "$"):
            load_scores(path, manifest)

    @given(rows=st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(SCORE_CELLS, min_size=n, max_size=n), min_size=1,
        max_size=8)))
    @settings(max_examples=200)
    def test_score_rows_build_the_float_matrix(self, rows):
        vocab = LabelVocabulary(classes=tuple(f"c{i}" for i in
                                              range(len(rows[0]))))
        track = AnnotationTrack("v", float(len(rows)))
        matrix = formats.build_scores(
            {"video_id": "v", "fps": 1, "scores": json.loads(json.dumps(rows))},
            track, vocab)
        expected = np.array(rows, dtype=float)
        assert matrix.scores.shape == expected.shape
        assert (matrix.scores.view(np.int64).tolist()
                == expected.view(np.int64).tolist())

    @pytest.mark.parametrize("row", [[0.5], [0.5, 0.5, 0.5], [], "0.5",
                                     {"a": 0.5}, None])
    def test_score_rows_of_the_wrong_shape_rejected(self, manifest, tmp_path,
                                                    row):
        rows = [[0.0, 0.0]] * 20
        rows[3] = row
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({
            "record": "scores", "video_id": "worked-example", "fps": 2.0,
            "scores": rows}) + "\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}, line 1: video 'worked-example': each score row "
                "needs 2 numbers") + "$"):
            load_scores(path, manifest)

    def test_unknown_video_rejected(self, manifest, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({
            "record": "detections", "video_id": "nope", "events": []}) + "\n")
        _, failures = read_predictions(path, manifest, STREAM_KINDS)
        assert failures["nope"] == "line 1: predictions for unknown video"

    def test_baseline_writes_loadable_files(self, manifest, tmp_path):
        track = manifest.tracks[0]
        vocab = manifest.vocabulary
        stream, _ = all_bg(track, 0.5, vocab)
        _, matrix = perfect_model(track, 0.5, vocab, seed=0, fps=2.0)
        path = tmp_path / "p.jsonl"
        write_predictions(path, streams=[stream], score_matrices=[matrix])
        assert self.stream(path, manifest, 0.5).decisions == stream.decisions
        scores = load_scores(path, manifest)
        assert scores["worked-example"].fps == 2.0

    def test_written_scores_match_per_cell_floats(self, tmp_path):
        values = np.array([[0.1, 1 / 3, 1e-7], [5e-324, -0.0, 1e16],
                           [123456789.0, 0.0, 1.0]])
        path = tmp_path / "p.jsonl"
        write_predictions(path, score_matrices=[
            FrameScoreMatrix("v", 2.0, values)])
        expected = json.dumps({
            "record": "scores", "video_id": "v", "fps": 2.0,
            "scores": [[float(x) for x in row] for row in values],
        }, sort_keys=True)
        assert path.read_text(encoding="utf-8") == expected + "\n"

    @given(matrix=score_matrices(),
           block_rows=st.sampled_from([1, 2, 5, formats._BLOCK_ROWS]),
           video_id=st.text(max_size=4), fps=st.floats(1e-3, 1e3))
    @settings(max_examples=200)
    def test_written_scores_are_the_json_dumps_record(
            self, matrix, block_rows, video_id, fps, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "scores.jsonl"
        with mock.patch.object(formats, "_BLOCK_ROWS", block_rows):
            write_predictions(path, score_matrices=[
                FrameScoreMatrix(video_id, fps, matrix)])
        expected = json.dumps({
            "record": "scores", "video_id": video_id, "fps": fps,
            "scores": matrix.tolist()}, sort_keys=True)
        assert path.read_text(encoding="utf-8") == expected + "\n"

    def test_matrix_past_one_block_is_written_whole(self, tmp_path):
        # a block of few distinct values, one of all distinct ones, and a
        # short last block with -0.0 beside 0.0
        block = formats._BLOCK_ROWS
        n = 2 * block + 5
        values = np.zeros((n, 3))
        values[np.arange(n), np.arange(n) % 3] = 1.0
        values[block:2 * block] = np.random.default_rng(0).random((block, 3))
        values[-1, 1] = -0.0
        path = tmp_path / "p.jsonl"
        write_predictions(path, score_matrices=[
            FrameScoreMatrix("v", 4.0, values)])
        expected = json.dumps({"record": "scores", "video_id": "v",
                               "fps": 4.0, "scores": values.tolist()},
                              sort_keys=True)
        assert path.read_text(encoding="utf-8") == expected + "\n"

    def test_written_file_is_the_json_dumps_lines(self, manifest, tmp_path):
        # records come out sorted by video id, decisions first
        stream, matrix = perfect_model(manifest.tracks[0], 0.5,
                                       manifest.vocabulary, seed=0, fps=2.0)
        other = PredictionStream("a", 0.5, manifest.vocabulary, num_slots=2)
        other.extend(["jump", "background"])
        streams = [stream, other]
        matrices = [matrix, FrameScoreMatrix("a", 2.0, [[0.5, -0.0]])]
        path = tmp_path / "p.jsonl"
        write_predictions(path, streams=streams, score_matrices=matrices)
        lines = [json.dumps({"record": "decisions", "video_id": s.video_id,
                             "delta_t_s": s.delta_t_s,
                             "labels": list(s.decisions)}, sort_keys=True)
                 for s in streams[::-1]]
        lines += [json.dumps({"record": "scores", "video_id": m.video_id,
                              "fps": m.fps, "scores": m.scores.tolist()},
                             sort_keys=True)
                  for m in matrices[::-1]]
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
        write_predictions(path)
        assert path.read_bytes() == b"\n"

    def test_writer_peaks_below_the_floats_of_tolist(self, tmp_path):
        n = 200_000
        values = np.zeros((n, 20))
        values[np.arange(n), np.arange(n) % 20] = 1.0
        matrix = FrameScoreMatrix("v", 4.0, values)
        path = tmp_path / "p.jsonl"
        tracemalloc.start()
        try:
            write_predictions(path, score_matrices=[matrix])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # tolist() alone makes one float object per cell, and row lists
        assert peak < values.size * sys.getsizeof(0.0)
        rows = [json.dumps(row) for row in values[:20].tolist()]
        assert path.read_text(encoding="utf-8") == (
            '{"fps": 4.0, "record": "scores", "scores": ['
            + ", ".join(rows[i % 20] for i in range(n))
            + '], "video_id": "v"}\n')

    def test_one_decision_short_rejected(self, manifest):
        obj = {"record": "decisions", "video_id": "worked-example",
               "delta_t_s": 0.5, "labels": ["background"] * 19}
        with pytest.raises(ValidationError, match=re.escape(
                "video 'worked-example': 19 decisions cover only part of "
                "the 20-slot timeline")):
            build_stream("decisions", obj, manifest.tracks[0],
                         manifest.vocabulary, 0.5)

    def test_scores_record_is_not_a_stream(self, manifest):
        obj = {"record": "scores", "video_id": "worked-example", "fps": 2.0,
               "scores": [[0.0, 0.0]] * 20}
        with pytest.raises(ValidationError,
                           match="^record kind 'scores' is not a stream$"):
            build_stream("scores", obj, manifest.tracks[0],
                         manifest.vocabulary, 0.5)

    @pytest.mark.parametrize("rows", [0, 19, 21])
    def test_wrong_score_row_count_rejected(self, manifest, rows):
        obj = {"record": "scores", "video_id": "worked-example", "fps": 2.0,
               "scores": [[0.0, 0.0]] * rows}
        with pytest.raises(ValidationError, match=re.escape(
                f"video 'worked-example': {rows} score rows but a 10.0 s "
                "video at 2.0 fps has 20 frames")):
            build_scores(obj, manifest.tracks[0], manifest.vocabulary)

    def test_load_scores_requires_complete_coverage(self, manifest, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="missing frame scores"):
            load_scores(path, manifest)


class TestReadPredictions:
    """Which record belongs to which video, decided once for every reader."""

    @pytest.fixture
    def manifest(self):
        vocab = LabelVocabulary(classes=("jump",))
        return CorpusManifest(vocabulary=vocab, tracks=tuple(
            AnnotationTrack(vid, 2.0, ()) for vid in ("a", "b", "c", "d")))

    @staticmethod
    def write(tmp_path, *records):
        path = tmp_path / "p.jsonl"
        path.write_text("".join(json.dumps({"record": kind, "video_id": vid})
                                + "\n" for kind, vid in records))
        return path

    def test_one_record_per_video(self, manifest, tmp_path):
        path = self.write(tmp_path, ("decisions", "a"), ("detections", "b"),
                          ("decisions", "c"), ("detections", "d"))
        records, failures = read_predictions(path, manifest, STREAM_KINDS)
        assert failures == {}
        assert {vid: rec[:2] for vid, rec in records.items()} == {
            "a": (1, "decisions"), "b": (2, "detections"),
            "c": (3, "decisions"), "d": (4, "detections")}
        assert records["b"][2] == {"record": "detections", "video_id": "b"}

    def test_unknown_video_of_any_kind_fails(self, manifest, tmp_path):
        path = self.write(tmp_path, ("decisions", "a"), ("scores", "x"),
                          ("decisions", "y"), ("decisions", "x"))
        for kinds in (STREAM_KINDS, ("scores",)):
            _, failures = read_predictions(path, manifest, kinds)
            assert failures["x"] == "line 2: predictions for unknown video"
            assert failures["y"] == "line 3: predictions for unknown video"

    def test_duplicate_and_third_copy(self, manifest, tmp_path):
        path = self.write(tmp_path, ("decisions", "a"), ("decisions", "b"),
                          ("detections", "a"), ("decisions", "a"),
                          ("decisions", "c"), ("decisions", "d"))
        records, failures = read_predictions(path, manifest, STREAM_KINDS)
        assert sorted(records) == ["b", "c", "d"]
        assert failures == {
            "a": "line 3: duplicate predictions (first at line 1)"}

    def test_missing_video(self, manifest, tmp_path):
        path = self.write(tmp_path, ("decisions", "a"), ("scores", "b"),
                          ("decisions", "d"))
        records, failures = read_predictions(path, manifest, STREAM_KINDS)
        assert sorted(records) == ["a", "d"]
        assert failures == {"b": "missing predictions",
                            "c": "missing predictions"}

    def test_other_kinds_skipped(self, manifest, tmp_path):
        path = self.write(tmp_path, *[(kind, vid) for vid in "abcd"
                                      for kind in ("scores", "detections")])
        for kinds, lines in ((STREAM_KINDS, [2, 4, 6, 8]),
                             (("scores",), [1, 3, 5, 7])):
            records, failures = read_predictions(path, manifest, kinds)
            assert failures == {}
            assert [records[vid][0] for vid in "abcd"] == lines
