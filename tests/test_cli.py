"""End-to-end CLI runs: exit codes, output files, determinism."""

import copy
import errno
import io
import json
import os
import re
import stat
import struct
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oadeval import cli, formats
from oadeval.cli import _write_trace, main
from oadeval.formats import (
    CorpusManifest,
    load_canonical_gt,
    write_canonical_gt,
    write_predictions,
)
from oadeval.ia import IATrace, IATracePoint
from oadeval.offline import FrameScoreMatrix
from oadeval.timeline import (
    MAX_SLOTS,
    AnnotationTrack,
    LabelVocabulary,
    TimeInterval,
)
from test_timeline import allocation_peak

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent
# a 2 s video, then a 0.3 s one that holds no 0.5 s slot
ZERO_SLOT_GT = (
    '{"record": "vocabulary", "classes": ["jump"], '
    '"background": "background"}\n'
    '{"record": "video", "video_id": "v0", "duration_s": 2.0, '
    '"intervals": []}\n'
    '{"record": "video", "video_id": "v1", "duration_s": 0.3, '
    '"intervals": []}\n')


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def worked_gt():
    return DATA / "worked_example.gt.jsonl"


@pytest.fixture
def worked_pred():
    return DATA / "worked_example.pred.jsonl"


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# values for every path of the trace writer: any float64 bit pattern
# (negatives, -0.0, NaN, infinities, subnormals, huge values), decimal
# ties (k + 1/2) / 10**6, exact binary ties m / 128, and values around
# 10**8 and 2**51 / 10**6, where it hands the formatting to "%.6f"
TRACE_VALUES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_float_from_bits),
    st.integers(0, 10 ** 15).map(lambda k: (k + 0.5) / 1e6),
    st.integers(0, 2 ** 50).map(lambda m: m / 128),
    st.floats(0.0, 1e4),
    st.floats(1e8 - 1, 1e8 + 1),
    st.floats(2 ** 51 / 1e6 - 1, 2 ** 51 / 1e6 + 1),
    st.sampled_from([0.0, -0.0, 5e-7, 2.5e-7, 5e-324, 99999999.9999996,
                     float("nan"), float("inf")]),
)


class TestEvaluate:
    def test_worked_example_trace_and_summary(self, tmp_path, worked_gt,
                                              worked_pred, capsys):
        out = tmp_path / "out"
        assert run("evaluate", "--gt", worked_gt, "--pred", worked_pred,
                   "--delta-t", "0.5", "--out-dir", out) == 0
        trace = (out / "worked-example.trace.csv").read_text()
        golden = (DATA / "worked_example_trace.csv").read_text()
        assert trace == golden
        assert "10.000000,0.900000," in trace
        summary = json.loads((out / "summary.json").read_text())
        assert summary["maia"] == pytest.approx(0.917567)
        assert summary["weighted_maia"] == pytest.approx(0.889099)
        assert summary["failures"] == []
        assert "maIA" in capsys.readouterr().out

    def test_all_bg_on_background_only_corpus_scores_one(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        vocab = LabelVocabulary(classes=("jump",))
        manifest = CorpusManifest(vocabulary=vocab, tracks=(
            AnnotationTrack("quiet-1", 6.0, ()),
            AnnotationTrack("quiet-2", 4.0, ()),
        ))
        write_canonical_gt(manifest, gt)
        pred = tmp_path / "allbg.jsonl"
        assert run("baseline", "--gt", gt, "--kind", "all-bg",
                   "--out", pred) == 0
        out = tmp_path / "out"
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["maia"] == 1.0
        assert summary["weighted_maia"] == 1.0

    def test_pm_saturates_weighted_maia(self, tmp_path, worked_gt):
        pred = tmp_path / "pm.jsonl"
        assert run("baseline", "--gt", worked_gt, "--kind", "pm",
                   "--seed", "7", "--out", pred) == 0
        out = tmp_path / "out"
        assert run("evaluate", "--gt", worked_gt, "--pred", pred,
                   "--out-dir", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["weighted_maia"] == 1.0
        assert summary["maia"] == 1.0

    def test_binary_mode_flag(self, tmp_path, worked_gt):
        pred = tmp_path / "p.jsonl"
        pred.write_text(json.dumps({
            "record": "decisions", "video_id": "worked-example",
            "delta_t_s": 0.5,
            "labels": ["background"] * 4 + ["run"] * 6 + ["background"] * 10,
        }) + "\n")
        out_ca, out_bin = tmp_path / "ca", tmp_path / "bin"
        assert run("evaluate", "--gt", worked_gt, "--pred", pred,
                   "--mode", "class-aware", "--out-dir", out_ca) == 0
        assert run("evaluate", "--gt", worked_gt, "--pred", pred,
                   "--mode", "binary", "--out-dir", out_bin) == 0
        ca = json.loads((out_ca / "summary.json").read_text())
        bi = json.loads((out_bin / "summary.json").read_text())
        assert bi["maia"] > ca["maia"]
        assert bi["maia"] == 1.0  # "run" on every jump slot counts in binary

    def test_byte_identical_reruns(self, tmp_path, worked_gt, worked_pred):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("evaluate", "--gt", worked_gt, "--pred", worked_pred,
                       "--out-dir", out) == 0
        for name in ("worked-example.trace.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_partial_failure_isolates_corrupt_video(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        vocab = LabelVocabulary(classes=("jump",))
        manifest = CorpusManifest(vocabulary=vocab, tracks=(
            AnnotationTrack("good", 2.0, (TimeInterval("jump", 0.0, 1.0),)),
            AnnotationTrack("corrupt", 2.0, ()),
        ))
        write_canonical_gt(manifest, gt)
        pred = tmp_path / "p.jsonl"
        pred.write_text("\n".join([
            json.dumps({"record": "decisions", "video_id": "good",
                        "delta_t_s": 0.5, "labels": ["jump"] * 4}),
            json.dumps({"record": "decisions", "video_id": "corrupt",
                        "delta_t_s": 0.5, "labels": ["jump"] * 99}),
        ]) + "\n")
        out = tmp_path / "out"
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", out) == 1
        assert (out / "good.trace.csv").exists()
        assert not (out / "corrupt.trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert [f["video_id"] for f in summary["failures"]] == ["corrupt"]
        assert summary["videos_evaluated"] == 1

    def test_nan_detection_fails_only_its_video(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        vocab = LabelVocabulary(classes=("jump",))
        write_canonical_gt(CorpusManifest(vocabulary=vocab, tracks=(
            AnnotationTrack("good", 2.0, (TimeInterval("jump", 0.0, 1.0),)),
            AnnotationTrack("nan", 2.0, ()),
            AnnotationTrack("other", 3.0, (TimeInterval("jump", 1.0, 2.0),)),
        )), gt)
        good = [
            json.dumps({"record": "decisions", "video_id": "good",
                        "delta_t_s": 0.5, "labels": ["jump"] * 4}),
            json.dumps({"record": "detections", "video_id": "other",
                        "events": [{"label": "jump", "start_s": 0.5,
                                    "end_s": 2.0}]}),
        ]
        corrupt = json.dumps({"record": "detections", "video_id": "nan",
                              "events": [{"label": "jump",
                                          "start_s": float("nan"),
                                          "end_s": 1.0}]})
        assert "NaN" in corrupt
        clean_pred, pred = tmp_path / "clean.jsonl", tmp_path / "p.jsonl"
        clean_pred.write_text("\n".join(good) + "\n")
        pred.write_text("\n".join([good[0], corrupt, good[1]]) + "\n")
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        run("evaluate", "--gt", gt, "--pred", clean_pred, "--out-dir", clean_out)
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", out) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert [f["video_id"] for f in summary["failures"]] == ["nan"]
        assert summary["videos_evaluated"] == 2
        for name in ("good.trace.csv", "other.trace.csv"):
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()

    def test_bad_label_failure_names_its_line(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        vocab = LabelVocabulary(classes=("jump",))
        write_canonical_gt(CorpusManifest(vocabulary=vocab, tracks=(
            AnnotationTrack("a", 2.0, (TimeInterval("jump", 0.0, 1.0),)),
            AnnotationTrack("b", 2.0, ()),
            AnnotationTrack("c", 3.0, (TimeInterval("jump", 1.0, 2.0),)),
        )), gt)
        good = [
            json.dumps({"record": "decisions", "video_id": "a",
                        "delta_t_s": 0.5, "labels": ["jump"] * 4}),
            json.dumps({"record": "detections", "video_id": "c",
                        "events": [{"label": "jump", "start_s": 0.5,
                                    "end_s": 2.0}]}),
        ]
        corrupt = json.dumps({"record": "decisions", "video_id": "b",
                              "delta_t_s": 0.5,
                              "labels": ["background"] * 3 + ["walk"]})
        clean_pred, pred = tmp_path / "clean.jsonl", tmp_path / "p.jsonl"
        clean_pred.write_text("\n".join(good) + "\n")
        pred.write_text("\n".join([good[0], corrupt, good[1]]) + "\n")
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        assert run("evaluate", "--gt", gt, "--pred", clean_pred,
                   "--out-dir", clean_out) == 1  # b has no record there
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", out) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [
            {"video_id": "b", "error": "line 2: unknown label 'walk'"}]
        assert summary["videos_evaluated"] == 2
        for name in ("a.trace.csv", "c.trace.csv"):
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()
        err = capsys.readouterr().err
        assert "FAILED b: line 2: unknown label 'walk'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("error,entry", [
        (MemoryError(), "line 2: MemoryError"),
        (ZeroDivisionError("boom"), "line 2: ZeroDivisionError: boom"),
    ], ids=["MemoryError", "ZeroDivisionError"])
    def test_unexpected_error_fails_only_its_video(self, tmp_path, monkeypatch,
                                                   capsys, error, entry):
        gt = tmp_path / "gt.jsonl"
        vocab = LabelVocabulary(classes=("jump",))
        write_canonical_gt(CorpusManifest(vocabulary=vocab, tracks=(
            AnnotationTrack("a", 2.0, (TimeInterval("jump", 0.0, 1.0),)),
            AnnotationTrack("b", 2.5, ()),
            AnnotationTrack("c", 3.0, (TimeInterval("jump", 1.0, 2.0),)),
        )), gt)
        pred = tmp_path / "p.jsonl"
        pred.write_text("\n".join([
            json.dumps({"record": "decisions", "video_id": "a",
                        "delta_t_s": 0.5, "labels": ["jump"] * 4}),
            json.dumps({"record": "decisions", "video_id": "b",
                        "delta_t_s": 0.5, "labels": ["background"] * 5}),
            json.dumps({"record": "detections", "video_id": "c",
                        "events": [{"label": "jump", "start_s": 0.5,
                                    "end_s": 2.0}]}),
        ]) + "\n")
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", clean_out) == 0
        evaluate_grids = cli.evaluate_grids

        def fail_on_b(grid_pred, grid_gt, mode):
            if len(grid_gt) == 5:  # only video b has 5 slots
                raise error
            return evaluate_grids(grid_pred, grid_gt, mode)

        monkeypatch.setattr(cli, "evaluate_grids", fail_on_b)
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", out) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [{"video_id": "b", "error": entry}]
        assert summary["videos_evaluated"] == 2
        assert not (out / "b.trace.csv").exists()
        for name in ("a.trace.csv", "c.trace.csv"):
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()
        err = capsys.readouterr().err
        assert f"FAILED b: {entry}" in err
        assert "Traceback" not in err

    def test_failed_trace_write_fails_only_its_video(self, tmp_path, capsys):
        long_id = "b" * 300  # a trace name longer than a file name may be
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "p.jsonl"
        write_canonical_gt(CorpusManifest(
            vocabulary=LabelVocabulary(classes=("jump",)),
            tracks=tuple(AnnotationTrack(vid, 1.0)
                         for vid in ("a", long_id, "c"))), gt)
        pred.write_text("".join(
            json.dumps({"record": "decisions", "video_id": vid,
                        "delta_t_s": 0.5, "labels": ["background"] * 2}) + "\n"
            for vid in ("a", long_id, "c")))
        out = tmp_path / "out"
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", out) == 1
        error = f"line 2: cannot write {long_id}.trace.csv: File name too long"
        assert capsys.readouterr().err == f"FAILED {long_id}: {error}\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [{"video_id": long_id, "error": error}]
        assert list(summary["per_video"]) == ["a", "c"]
        assert sorted(p.name for p in out.iterdir()) == [
            "a.trace.csv", "c.trace.csv", "summary.json"]

    def test_trace_write_failing_midway_leaves_no_file(self, tmp_path,
                                                       monkeypatch):
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "p.jsonl"
        write_canonical_gt(CorpusManifest(
            vocabulary=LabelVocabulary(classes=("jump",)),
            tracks=(AnnotationTrack("a", 1.0), AnnotationTrack("b", 1.5))), gt)
        pred.write_text("".join(
            json.dumps({"record": "decisions", "video_id": vid,
                        "delta_t_s": 0.5, "labels": ["jump"] * k}) + "\n"
            for vid, k in (("a", 2), ("b", 3))))
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", clean) == 0
        format_rows = cli._format_rows

        def disk_full_on_b(rows):
            if len(rows) == 3:  # only video b has 3 slots
                raise OSError(28, "No space left on device")
            return format_rows(rows)

        monkeypatch.setattr(cli, "_format_rows", disk_full_on_b)
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", out) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [{
            "video_id": "b",
            "error": "line 2: cannot write b.trace.csv: No space left on device"}]
        assert sorted(p.name for p in out.iterdir()) == ["a.trace.csv",
                                                          "summary.json"]
        assert ((out / "a.trace.csv").read_bytes()
                == (clean / "a.trace.csv").read_bytes())

    def test_trace_rows_match_per_value_formatting(self, tmp_path):
        awkward = [0.0, 1.0, 0.0000005, 0.0000015, 2.5e-7, 1e-300, 5e-324,
                   0.1234565, 0.9999995, 1 / 3, 2 / 3, 123.4567895,
                   14 / 6, 1e6 + 0.5e-6, 3.000_000_5, 17.0]
        trace = [IATracePoint(*(awkward[(i + j) % len(awkward)]
                                for j in range(4)))
                 for i in range(len(awkward))]
        trace.append(IATracePoint(9999.5, 0.25, 0.75, 41.0))  # w > 1
        _write_trace(tmp_path / "t.csv", trace)
        rows = [cli.TRACE_HEADER] + [
            f"{p.t_s:.6f},{p.ia:.6f},{p.wia:.6f},{p.weight_w:.6f}"
            for p in trace]
        assert (tmp_path / "t.csv").read_bytes() == (
            "\n".join(rows) + "\n").encode()
        _write_trace(tmp_path / "columnar.csv", IATrace(trace))
        assert (tmp_path / "columnar.csv").read_bytes() == (
            tmp_path / "t.csv").read_bytes()

    @given(values=st.lists(TRACE_VALUES, min_size=1, max_size=48),
           block_rows=st.sampled_from([1, 3, cli._BLOCK_ROWS]))
    @settings(max_examples=400)
    def test_trace_bytes_match_per_value_formatting(self, values, block_rows):
        values += [0.0] * (-len(values) % 4)
        rows = [values[i:i + 4] for i in range(0, len(values), 4)]
        expected = "".join(
            ",".join(f"{x:.6f}" for x in row) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            _write_trace(Path(tmp) / "t.csv", rows)
            written = (Path(tmp) / "t.csv").read_bytes()
        assert written == f"{cli.TRACE_HEADER}\n{expected}".encode()

    def test_trace_longer_than_a_block(self, tmp_path):
        # rows "%.6f" writes itself sit on and around block edges
        n = 2 * cli._BLOCK_ROWS + 5
        t = [j * 0.5 for j in range(1, n + 1)]
        odd = {0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, n - 1}
        rows = [[t[j], (j + 0.5) / 1e6 if j in odd else j / n, 1 / 128,
                 float("nan") if j in odd else 3 * j / 7] for j in range(n)]
        _write_trace(tmp_path / "t.csv", IATrace(rows))
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            cli.TRACE_HEADER] + [",".join(f"{x:.6f}" for x in row)
                                 for row in rows]

    def test_nan_duration_is_a_located_error(self, tmp_path, worked_pred,
                                             capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            '{"record": "vocabulary", "classes": ["jump"], '
            '"background": "background"}\n'
            '{"record": "video", "video_id": "worked-example", '
            '"duration_s": NaN, "intervals": []}\n')
        assert run("evaluate", "--gt", gt, "--pred", worked_pred,
                   "--out-dir", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "duration_s" in err
        assert "Traceback" not in err

    # a line ends at "\n", "\r\n" or "\r", never at U+2028
    @pytest.mark.parametrize("data,line,message", [
        (b"\xff\xfe{}\n", 1, "invalid start byte 0xff"),
        (b'{"a": 1}\n\n{"b": "\xc3"}\n', 3, "invalid continuation byte 0xc3"),
        (b"{}\r\n\xe2\x82", 2, "unexpected end of data 0xe2"),
        (b"{}\r\xff", 2, "invalid start byte 0xff"),
        (b"{}\xe2\x80\xa8 \xff", 1, "invalid start byte 0xff"),
    ])
    def test_non_utf8_input_is_one_located_error(self, tmp_path, worked_gt,
                                                 worked_pred, capsys, data,
                                                 line, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data)
        for argv in (["evaluate", "--gt", bad, "--pred", worked_pred],
                     ["evaluate", "--gt", worked_gt, "--pred", bad],
                     ["offline", "--gt", worked_gt, "--pred", bad]):
            assert run(*argv, "--out-dir", tmp_path / "o") == 1
            assert capsys.readouterr().err == (
                f"error: {bad}, line {line}: not UTF-8: {message}\n")

    def test_records_end_only_at_line_feeds(self, tmp_path, capsys):
        # U+2028 and U+0085 end a line for str.splitlines() but not in JSON
        vid, label = "a\u2028b\x85c", "x\x85y\u2028z"
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "p.jsonl"
        gt.write_text(json.dumps({"record": "vocabulary", "classes": [label],
                                  "background": "background"},
                                 ensure_ascii=False) + "\r\n"
                      + json.dumps({"record": "video", "video_id": vid,
                                    "duration_s": 1.0, "intervals": []},
                                   ensure_ascii=False) + "\r", encoding="utf-8")
        pred.write_text(json.dumps({"record": "decisions", "video_id": vid,
                                    "delta_t_s": 0.5,
                                    "labels": [label, "background"]},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", tmp_path / "o") == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert list(summary["per_video"]) == [vid]
        assert summary["per_video"][vid]["final_ia"] == 0.5
        with pred.open("a", encoding="utf-8") as out:
            out.write("\u2028{\n")
        assert run("evaluate", "--gt", gt, "--pred", pred,
                   "--out-dir", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {pred}, line 2: invalid JSON: Expecting value\n")

    @pytest.mark.parametrize("first,second,name", [
        ("a b", "a_b", "a_b.trace.csv"), ("A", "a", "a.trace.csv")])
    def test_colliding_trace_names_fail_the_later_video(
            self, tmp_path, capsys, first, second, name):
        gt = tmp_path / "gt.jsonl"
        write_canonical_gt(CorpusManifest(
            vocabulary=LabelVocabulary(classes=("jump",)),
            tracks=(AnnotationTrack(first, 1.0), AnnotationTrack(second, 1.0))),
            gt)
        pred, alone = tmp_path / "p.jsonl", tmp_path / "alone.jsonl"
        records = [json.dumps({"record": "decisions", "video_id": vid,
                               "delta_t_s": 0.5, "labels": [label] * 2})
                   for vid, label in ((second, "background"), (first, "jump"))]
        pred.write_text("\n".join(records) + "\n")
        alone.write_text(records[1] + "\n")
        out, alone_out = tmp_path / "out", tmp_path / "alone"
        assert run("evaluate", "--gt", gt, "--pred", pred, "--out-dir", out) == 1
        error = (f"line 1: trace file {name} would overwrite that of video "
                 f"{first!r}")
        assert capsys.readouterr().err == f"FAILED {second}: {error}\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [{"video_id": second, "error": error}]
        assert list(summary["per_video"]) == [first]
        run("evaluate", "--gt", gt, "--pred", alone, "--out-dir", alone_out)
        traces = sorted(p.name for p in out.glob("*.trace.csv"))
        assert traces == sorted(p.name for p in alone_out.glob("*.trace.csv"))
        assert len(traces) == 1
        assert ((out / traces[0]).read_bytes()
                == (alone_out / traces[0]).read_bytes())

    def test_jobs_is_accepted_and_ignored(self, tmp_path, worked_gt,
                                          worked_pred):
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / jobs
            assert run("evaluate", "--gt", worked_gt, "--pred", worked_pred,
                       "--jobs", jobs, "--out-dir", out) == 0
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_gt_file_is_io_error(self, tmp_path, worked_pred):
        assert run("evaluate", "--gt", tmp_path / "nope.jsonl",
                   "--pred", worked_pred, "--out-dir", tmp_path / "o") == 2


class TestOffline:
    def test_pm_scores_stay_below_one(self, tmp_path, worked_gt, capsys):
        pred = tmp_path / "pm.jsonl"
        run("baseline", "--gt", worked_gt, "--kind", "pm", "--seed", "0",
            "--fps", "2.0", "--out", pred)
        out = tmp_path / "out"
        assert run("offline", "--gt", worked_gt, "--pred", pred,
                   "--fps", "2.0", "--metric", "map", "--out-dir", out) == 0
        payload = json.loads((out / "offline_map.json").read_text())
        assert payload["mean"] < 1.0
        assert payload["skipped_classes"] == ["run"]
        assert "mean" in capsys.readouterr().out

    def test_skipped_class_is_named_once_on_stderr(self, tmp_path, worked_gt):
        # a fresh interpreter, so that stderr is what a user sees, with
        # no test harness handler on the logging tree
        pred = tmp_path / "bg.jsonl"
        assert run("baseline", "--gt", worked_gt, "--kind", "all-bg",
                   "--fps", "2", "--out", pred) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "oadeval.cli", "offline", "--gt",
             str(worked_gt), "--pred", str(pred), "--metric", "cap",
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert re.findall(r"\brun\b", proc.stderr) == ["run"]
        assert proc.stderr == f"{'run':30s} cAP -  (no ground-truth frames)\n"

    def test_perfect_ranking_scores_one_for_both_metrics(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        vocab = LabelVocabulary(classes=("jump",))
        manifest = CorpusManifest(vocabulary=vocab, tracks=(
            AnnotationTrack("v", 4.0, (TimeInterval("jump", 0.0, 2.0),)),))
        write_canonical_gt(manifest, gt)
        pred = tmp_path / "p.jsonl"
        pred.write_text(json.dumps({
            "record": "scores", "video_id": "v", "fps": 1.0,
            "scores": [[0.9], [0.8], [0.2], [0.1]]}) + "\n")
        for metric in ("map", "cap"):
            out = tmp_path / metric
            assert run("offline", "--gt", gt, "--pred", pred,
                       "--metric", metric, "--out-dir", out) == 0
            payload = json.loads((out / f"offline_{metric}.json").read_text())
            assert payload["mean"] == 1.0

    def test_balanced_fixture_map_equals_cap(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        vocab = LabelVocabulary(classes=("jump",))
        manifest = CorpusManifest(vocabulary=vocab, tracks=(
            AnnotationTrack("v", 4.0, (TimeInterval("jump", 0.0, 2.0),)),))
        write_canonical_gt(manifest, gt)
        pred = tmp_path / "p.jsonl"
        pred.write_text(json.dumps({
            "record": "scores", "video_id": "v", "fps": 1.0,
            "scores": [[0.3], [0.9], [0.8], [0.1]]}) + "\n")
        values = {}
        for metric in ("map", "cap"):
            out = tmp_path / metric
            run("offline", "--gt", gt, "--pred", pred, "--metric", metric,
                "--out-dir", out)
            payload = json.loads((out / f"offline_{metric}.json").read_text())
            values[metric] = payload["mean"]
        assert values["map"] == values["cap"]  # both rounded to 6 decimals

    def test_fps_cross_check(self, tmp_path, worked_gt):
        pred = tmp_path / "pm.jsonl"
        run("baseline", "--gt", worked_gt, "--kind", "pm", "--fps", "2.0",
            "--out", pred)
        assert run("offline", "--gt", worked_gt, "--pred", pred,
                   "--fps", "4.0", "--out-dir", tmp_path / "o") == 1


    def test_duplicate_scores_is_a_located_error(self, tmp_path, worked_gt,
                                                 capsys):
        record = json.dumps({"record": "scores", "video_id": "worked-example",
                             "fps": 1.0, "scores": [[0.0, 0.0]] * 10})
        pred = tmp_path / "p.jsonl"
        pred.write_text(record + "\n" + record + "\n")
        assert run("offline", "--gt", worked_gt, "--pred", pred,
                   "--out-dir", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert (f"{pred}: video 'worked-example': line 2: duplicate frame "
                "scores (first at line 1)") in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_stream_record_for_unknown_video_rejected(self, tmp_path,
                                                      worked_gt, capsys):
        pred = tmp_path / "pm.jsonl"
        run("baseline", "--gt", worked_gt, "--kind", "pm", "--fps", "2.0",
            "--out", pred)
        with pred.open("a") as fh:
            fh.write(json.dumps({"record": "detections", "video_id": "nope",
                                 "events": []}) + "\n")
        assert run("offline", "--gt", worked_gt, "--pred", pred,
                   "--out-dir", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "video 'nope': line 3: predictions for unknown video" in err


class TestBaseline:
    def test_deterministic_outputs(self, tmp_path, worked_gt):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert run("baseline", "--gt", worked_gt, "--kind", "pm",
                       "--seed", "9", "--fps", "2.0", "--out", path) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", ["pm", "all-bg"])
    @pytest.mark.parametrize("fps", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_fps_is_an_error(self, tmp_path, worked_gt, capsys,
                                        kind, fps):
        # 1e308 overflows the 10 s frame count, so nothing is allocated
        out = tmp_path / "p.jsonl"
        assert run("baseline", "--gt", worked_gt, "--kind", kind,
                   f"--fps={fps}", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"fps {float(fps)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["pm", "all-bg"])
    def test_huge_fps_fails_before_allocating(self, tmp_path, worked_gt,
                                              capsys, kind):
        # 1e10 frames for the 10 s video: over the limit, never allocated
        out, codes = tmp_path / "p.jsonl", []
        peak = allocation_peak(lambda: codes.append(run(
            "baseline", "--gt", worked_gt, "--kind", kind, "--fps=1e9",
            "--out", out)))
        assert codes == [1] and peak < 2 ** 20
        assert capsys.readouterr().err == (
            "error: video 'worked-example': 10000000000 frames exceed the "
            f"limit of {MAX_SLOTS} per video at --fps 1000000000.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["pm", "all-bg"])
    def test_huge_duration_fails_before_allocating(self, tmp_path, capsys,
                                                   kind):
        # 2e12 slots at 0.5 s: over the limit, never allocated
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            '{"record": "vocabulary", "classes": ["jump"], '
            '"background": "background"}\n'
            '{"record": "video", "video_id": "long", "duration_s": 1e12, '
            '"intervals": []}\n')
        out, codes = tmp_path / "p.jsonl", []
        peak = allocation_peak(lambda: codes.append(run(
            "baseline", "--gt", gt, "--kind", kind, "--out", out)))
        assert codes == [1] and peak < 2 ** 20
        assert capsys.readouterr().err == (
            "error: video 'long': 2000000000000 slots exceed the limit of "
            f"{MAX_SLOTS} per video at --delta-t 0.5\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["pm", "all-bg"])
    def test_slotless_video_names_the_video_and_the_flag(
            self, tmp_path, capsys, kind):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(ZERO_SLOT_GT)
        out = tmp_path / "p.jsonl"
        assert run("baseline", "--gt", gt, "--kind", kind, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: video 'v1': delta_t 0.5 larger than duration 0.3: zero "
            "slots at --delta-t 0.5\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["pm", "all-bg"])
    def test_frameless_video_names_the_video_and_the_flag(
            self, tmp_path, capsys, kind):
        # one 0.5 s slot, but 0.7 s at 1 fps holds no frame to score
        gt = tmp_path / "gt.jsonl"
        gt.write_text(ZERO_SLOT_GT.replace('"duration_s": 0.3',
                                           '"duration_s": 0.7'))
        out = tmp_path / "p.jsonl"
        assert run("baseline", "--gt", gt, "--kind", kind, "--fps", "1.0",
                   "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: video 'v1': 0.7 s at fps 1.0 is shorter than one frame: "
            "zero frames at --fps 1.0\n")
        assert not out.exists()

    def test_frameless_slot_of_pm_names_the_video_and_the_flag(
            self, tmp_path, capsys):
        # one 0.013 s slot, but 0.013 * (1 / 0.013) floors to 0 frames
        gt = tmp_path / "gt.jsonl"
        gt.write_text(ZERO_SLOT_GT.replace('"duration_s": 0.3',
                                           '"duration_s": 0.013'))
        out = tmp_path / "p.jsonl"
        assert run("baseline", "--gt", gt, "--kind", "pm", "--delta-t",
                   "0.013", "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: video 'v1': 0.013 s at fps 76.92307692307692 is shorter "
            "than one frame: zero frames at --delta-t 0.013\n")
        assert not out.exists()
        assert run("baseline", "--gt", gt, "--kind", "all-bg", "--delta-t",
                   "0.013", "--out", out) == 0  # all-bg writes no scores

    @pytest.mark.parametrize("kind", ["pm", "all-bg"])
    @pytest.mark.parametrize("fps", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_fps_is_one_error_before_any_input(self, tmp_path, capsys,
                                                   kind, fps):
        # the ground truth does not exist: the flag is checked first
        out = tmp_path / "p.jsonl"
        assert run("baseline", "--gt", tmp_path / "missing.jsonl",
                   "--kind", kind, f"--fps={fps}", "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: --fps {float(fps)} must be finite and > 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind,fps,score_fps", [
        ("pm", None, 2.0),          # one frame per 0.5 s slot
        ("all-bg", None, None),     # no scores record at all
        ("pm", "4.0", 4.0),
        ("all-bg", "4.0", 4.0),
    ])
    def test_fps_sets_the_scores_records(self, tmp_path, worked_gt, kind, fps,
                                         score_fps):
        out = tmp_path / "p.jsonl"
        flags = [] if fps is None else ["--fps", fps]
        assert run("baseline", "--gt", worked_gt, "--kind", kind,
                   "--delta-t", "0.5", *flags, "--out", out) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["record"], r["video_id"]) for r in records] == [
            ("decisions", "worked-example")] + (
            [] if score_fps is None else [("scores", "worked-example")])
        assert len(records[0]["labels"]) == 20
        if score_fps is not None:
            assert records[1]["fps"] == score_fps
            assert len(records[1]["scores"]) == 10 * score_fps

    def test_seed_changes_pm_scores(self, tmp_path, worked_gt):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("baseline", "--gt", worked_gt, "--kind", "pm", "--seed", "1",
            "--fps", "2.0", "--out", a)
        run("baseline", "--gt", worked_gt, "--kind", "pm", "--seed", "2",
            "--fps", "2.0", "--out", b)
        assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("delta_t",
                         ["nan", "inf", "-inf", "-1", "0", "1e-300", "5e-7"])
@pytest.mark.parametrize("command", ["evaluate", "baseline"])
def test_bad_delta_t_is_one_error_naming_the_flag(tmp_path, worked_gt,
                                                  worked_pred, capsys,
                                                  command, delta_t):
    out = tmp_path / "out"
    outputs = (["--pred", worked_pred, "--out-dir", out]
               if command == "evaluate" else ["--kind", "pm", "--out", out])
    assert run(command, "--gt", worked_gt, f"--delta-t={delta_t}",
               *outputs) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: --delta-t {float(delta_t)} must be a finite slot size "
        "of at least 1 microsecond"]
    assert "Traceback" not in captured.err and "FAILED" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("label,error", [
    ("background", "line 1: background intervals are implicit, never stored"),
    ("walk", "line 1: unknown label 'walk'"),
    ("", "line 1: interval label must be non-empty"),
])
def test_detection_label_failure_names_its_line(tmp_path, label, error):
    gt, pred, out = tmp_path / "gt.jsonl", tmp_path / "p.jsonl", tmp_path / "o"
    write_canonical_gt(CorpusManifest(
        vocabulary=LabelVocabulary(classes=("jump",)),
        tracks=(AnnotationTrack("v", 2.0, ()),)), gt)
    pred.write_text(json.dumps({
        "record": "detections", "video_id": "v",
        "events": [{"label": label, "start_s": 0.0, "end_s": 1.0}]}) + "\n")
    assert run("evaluate", "--gt", gt, "--pred", pred, "--out-dir", out) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failures"] == [{"video_id": "v", "error": error}]


@pytest.mark.parametrize("record", [
    {"record": "decisions", "video_id": "v1", "delta_t_s": 0.5, "labels": []},
    {"record": "decisions", "video_id": "v1", "delta_t_s": 0.5,
     "labels": ["jump"]},
    {"record": "detections", "video_id": "v1", "events": []},
], ids=["no-decisions", "one-decision", "detections"])
def test_slotless_video_fails_alone_with_its_cause(tmp_path, record):
    gt, pred, out = tmp_path / "gt.jsonl", tmp_path / "p.jsonl", tmp_path / "o"
    gt.write_text(ZERO_SLOT_GT)
    pred.write_text(json.dumps(record) + "\n" + json.dumps(
        {"record": "detections", "video_id": "v0", "events": []}) + "\n")
    assert run("evaluate", "--gt", gt, "--pred", pred, "--out-dir", out) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failures"] == [{
        "video_id": "v1",
        "error": "line 1: delta_t 0.5 larger than duration 0.3: zero slots"}]
    assert list(summary["per_video"]) == ["v0"]


# A valid ground truth and prediction file, one record per line, for the
# mutation fuzz below. The ground truth leaves out the optional
# multi_label, so that no mutation can turn it into another valid value.
FUZZ_GT_RECORDS = (
    {"record": "vocabulary", "classes": ["jump", "run"],
     "background": "background"},
    {"record": "video", "video_id": "a", "duration_s": 2.0,
     "intervals": [{"label": "jump", "start_s": 0.0, "end_s": 1.0}]},
    {"record": "video", "video_id": "b", "duration_s": 2.5, "intervals": []},
    {"record": "video", "video_id": "c", "duration_s": 3.0,
     "intervals": [{"label": "jump", "start_s": 1.0, "end_s": 2.0}]},
)
FUZZ_RECORDS = (
    {"record": "decisions", "video_id": "a", "delta_t_s": 0.5,
     "labels": ["jump", "jump", "background", "run"]},
    {"record": "detections", "video_id": "b",
     "events": [{"label": "run", "start_s": 0.5, "end_s": 1.5},
                {"label": "jump", "start_s": 1.0, "end_s": 2.0}]},
    {"record": "decisions", "video_id": "c", "delta_t_s": 0.5,
     "labels": ["background"] * 2 + ["jump"] * 2 + ["background"] * 2},
)


def _json_paths(value, path=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _json_kind(value):
    return (float if type(value) in (int, float) else type(value))


MUTATIONS = ["wrong type", "non-finite", "bool", "huge", "missing field",
             "unknown kind", "truncated line"]


@st.composite
def mutated_files(draw, records, mutations=MUTATIONS, shortest=0):
    """One of ``records`` mutated once: ``(index, lines)``.

    A truncated line keeps at least ``shortest`` characters; a "long
    video" mutation sets the ``duration_s`` of a video record to 1e12 s.
    """
    index = draw(st.integers(0, len(records) - 1))
    mutation = draw(st.sampled_from(mutations))
    if mutation == "long video":
        index = draw(st.sampled_from(
            [i for i, r in enumerate(records) if r["record"] == "video"]))
    record = copy.deepcopy(records[index])
    lines = [json.dumps(r) for r in records]
    if mutation == "truncated line":
        lines[index] = lines[index][:draw(st.integers(shortest,
                                                      len(lines[index]) - 1))]
        return index, lines
    if mutation == "long video":
        record["duration_s"] = 1e12
    elif mutation == "unknown kind":
        record["record"] = draw(st.sampled_from(["mystery", "scores ", ""]))
    else:
        # the whole record last: sampled_from favours early elements
        paths = list(_json_paths(record))[1:] + [()]
        if mutation == "missing field":
            paths = [p for p in paths if p and isinstance(p[-1], str)]
        path = draw(st.sampled_from(paths))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        if mutation == "missing field":
            del parent[path[-1]]
        else:
            old = parent[path[-1]] if path else record
            if mutation == "wrong type":
                new = draw(st.sampled_from(["text", 7, [], {}, None]).filter(
                    lambda v: _json_kind(v) is not _json_kind(old)))
            else:
                new = draw(st.sampled_from({
                    "non-finite": [float("nan"), float("inf"), -float("inf")],
                    "bool": [True, False],
                    "huge": [1e308, -1e308, 10 ** 400]}[mutation]))
            if path:
                parent[path[-1]] = new
            else:
                record = new
    lines[index] = json.dumps(record)
    return index, lines


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def _evaluate_in_process(gt, pred, out):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run("evaluate", "--gt", gt, "--pred", pred, "--out-dir", out)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def fuzz_clean_run(tmp_path_factory):
    """FUZZ_GT_RECORDS' file and the traces of its clean run."""
    root = tmp_path_factory.mktemp("fuzz")
    gt = _write_lines(root / "gt.jsonl", map(json.dumps, FUZZ_GT_RECORDS))
    pred = _write_lines(root / "clean.jsonl", map(json.dumps, FUZZ_RECORDS))
    code, _, err = _evaluate_in_process(gt, pred, root / "clean")
    assert code == 0, err
    return gt, {p.name: p.read_bytes()
                for p in (root / "clean").glob("*.trace.csv")}


@pytest.mark.parametrize("mode", ["class-aware", "binary"])
def test_plain_list_traces_write_the_same_bytes(tmp_path, monkeypatch, mode):
    # evaluate reads the batch trace as an array, so a plain list of
    # points from a substitute evaluate_grids writes the same files
    gt = _write_lines(tmp_path / "gt.jsonl", map(json.dumps, FUZZ_GT_RECORDS))
    pred = _write_lines(tmp_path / "p.jsonl", map(json.dumps, FUZZ_RECORDS))
    columnar, plain = tmp_path / "columnar", tmp_path / "plain"
    assert run("evaluate", "--gt", gt, "--pred", pred, "--mode", mode,
               "--out-dir", columnar) == 0
    evaluate_grids = cli.evaluate_grids
    monkeypatch.setattr(cli, "evaluate_grids",
                        lambda *args: list(evaluate_grids(*args)))
    assert run("evaluate", "--gt", gt, "--pred", pred, "--mode", mode,
               "--out-dir", plain) == 0
    names = sorted(p.name for p in columnar.iterdir())
    assert names == ["a.trace.csv", "b.trace.csv", "c.trace.csv",
                     "summary.json"]
    assert names == sorted(p.name for p in plain.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (columnar / name).read_bytes()


def check_fails_alone(run_result, out, clean_traces, video_id, path, line):
    """Exit 1 either way: ``video_id`` alone fails and the other traces are
    unchanged, or ``path`` is rejected with one error line located at
    ``line`` and no output file; never a traceback."""
    code, stdout, stderr = run_result
    assert code == 1
    assert "Traceback" not in stdout + stderr
    if (out / "summary.json").exists():
        summary = json.loads((out / "summary.json").read_text())
        [failure] = summary["failures"]
        assert failure["video_id"] == video_id
        # a toolkit error, not the catch-all naming an exception type
        assert not re.match(r"line \d+: \w+(Error|Exception)\b",
                            failure["error"]), failure["error"]
        traces = {p.name: p.read_bytes() for p in out.glob("*.trace.csv")}
        assert traces == {name: data for name, data in clean_traces.items()
                          if name != f"{video_id}.trace.csv"}
        return failure["error"]
    assert stderr.startswith(f"error: {path}, line {line}")
    assert stderr.count("\n") == 1 and stdout == ""
    assert list(out.glob("*")) == []
    return None


@given(mutated_files(FUZZ_RECORDS))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_one_mutated_prediction_record_fails_alone(fuzz_clean_run, case):
    gt, clean_traces = fuzz_clean_run
    index, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        pred = _write_lines(Path(tmp) / "p.jsonl", lines)
        out = Path(tmp) / "out"
        check_fails_alone(_evaluate_in_process(gt, pred, out), out,
                          clean_traces, FUZZ_RECORDS[index]["video_id"],
                          pred, index + 1)


# an emptied ground-truth line would delete the vocabulary, and the error
# would then be located at the next line
@given(mutated_files(FUZZ_GT_RECORDS, MUTATIONS + ["long video"], shortest=1))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_one_mutated_ground_truth_record_fails_alone(fuzz_clean_run, case):
    _, clean_traces = fuzz_clean_run
    index, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        gt = _write_lines(Path(tmp) / "gt.jsonl", lines)
        pred = _write_lines(Path(tmp) / "p.jsonl",
                            map(json.dumps, FUZZ_RECORDS))
        out = Path(tmp) / "out"
        check_fails_alone(_evaluate_in_process(gt, pred, out), out,
                          clean_traces, FUZZ_GT_RECORDS[index].get("video_id"),
                          gt, index + 1)


@pytest.mark.parametrize("delta_t", [1e308, -1e308, 0])
def test_bad_record_delta_t_fails_its_video_alone(fuzz_clean_run, tmp_path,
                                                  delta_t):
    gt, clean_traces = fuzz_clean_run
    records = copy.deepcopy(FUZZ_RECORDS)
    records[0]["delta_t_s"] = delta_t
    pred = _write_lines(tmp_path / "p.jsonl", map(json.dumps, records))
    error = check_fails_alone(
        _evaluate_in_process(gt, pred, tmp_path / "out"), tmp_path / "out",
        clean_traces, "a", pred, 1)
    assert error == (f"line 1: delta_t {delta_t} must be a finite slot size "
                     "of at least 1 microsecond")


class TestConvert:
    def test_activitynet(self, tmp_path, capsys):
        out = tmp_path / "canon.jsonl"
        assert run("convert", "--format", "activitynet",
                   "--in", DATA / "activitynet_fixture.json",
                   "--out", out) == 0
        manifest = load_canonical_gt(out)
        assert len(manifest.tracks) == 2
        assert "warning" in capsys.readouterr().err

    def test_thumos(self, tmp_path):
        out = tmp_path / "canon.jsonl"
        assert run("convert", "--format", "thumos",
                   "--in", DATA / "thumos_fixture",
                   "--durations", DATA / "thumos_fixture" / "durations.txt",
                   "--out", out) == 0
        manifest = load_canonical_gt(out)
        assert {t.video_id for t in manifest.tracks} == {"video_001",
                                                         "video_002"}

    @pytest.mark.parametrize("annotation", [
        '{"label": "jump", "segment": ["x", 2.0]}',
        '{"label": "jump", "segment": [true, 2.0]}',
        '{"label": "jump", "segment": [NaN, 2.0]}',
        '{"label": "jump", "segment": [1.0, Infinity]}',
        '[1.0, 2.0]',
        '{"label": "", "segment": [1.0, 2.0]}',
    ])
    def test_activitynet_bad_annotation_is_a_located_error(
            self, tmp_path, capsys, annotation):
        anet = tmp_path / "anet.json"
        anet.write_text(
            '{"database": {"vid1": {"subset": "validation", "duration": 5.0,'
            ' "annotations": [' + annotation + ']}}}')
        assert run("convert", "--format", "activitynet", "--in", anet,
                   "--out", tmp_path / "c.jsonl") == 1
        err = capsys.readouterr().err
        assert f"{anet}: video 'vid1': annotation needs a 'segment'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("sidecar_row,class_row,where", [
        ("video_001 nan", "video_001 1.0 2.0", "durations.txt, line 1"),
        ("video_001 inf", "video_001 1.0 2.0", "durations.txt, line 1"),
        ("video_001 9.0", "video_001 nan 2.0", "Jump_test.txt, line 1"),
        ("video_001 9.0", "video_001 1.0 -inf", "Jump_test.txt, line 1"),
    ], ids=["sidecar-nan", "sidecar-inf", "class-nan", "class-minus-inf"])
    def test_thumos_non_finite_number_is_a_located_error(
            self, tmp_path, capsys, sidecar_row, class_row, where):
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "Jump_test.txt").write_text(class_row + "\n")
        durations = tmp_path / "durations.txt"
        durations.write_text(sidecar_row + "\n")
        assert run("convert", "--format", "thumos", "--in", ann,
                   "--durations", durations,
                   "--out", tmp_path / "c.jsonl") == 1
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("sidecar_row,class_row,where,message", [
        ("video_001 10", "video_001 5.0 2.0", "Jump_test.txt, line 1",
         "interval [5.0, 2.0) for 'Jump' has zero or negative length"),
        ("video_001 10", "video_001 -1.0 2.0", "Jump_test.txt, line 1",
         "interval start -1.0 < 0"),
        ("video_001 10", "video_001 1.0 20.0", "Jump_test.txt, line 1",
         "video 'video_001': interval [1.0, 20.0) exceeds duration 10.0"),
        ("video_001 -3", "video_001 1.0 2.0", "durations.txt, line 1",
         "video 'video_001': duration -3.0 must be > 0"),
    ], ids=["reversed", "negative-start", "past-duration",
            "negative-duration"])
    def test_thumos_bad_interval_or_duration_is_a_located_error(
            self, tmp_path, capsys, sidecar_row, class_row, where, message):
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "Jump_test.txt").write_text(class_row + "\n")
        durations = tmp_path / "durations.txt"
        durations.write_text(sidecar_row + "\n")
        assert run("convert", "--format", "thumos", "--in", ann,
                   "--durations", durations,
                   "--out", tmp_path / "c.jsonl") == 1
        err = capsys.readouterr().err
        assert f"{where}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("annotations,kind", [
        ("5", "int"), ("null", "NoneType"), ('{"a": 1}', "dict")])
    def test_activitynet_annotations_not_a_list_is_a_located_error(
            self, tmp_path, capsys, annotations, kind):
        anet = tmp_path / "anet.json"
        anet.write_text(
            '{"database": {"vid1": {"subset": "validation", "duration": 5.0,'
            ' "annotations": ' + annotations + '}}}')
        assert run("convert", "--format", "activitynet", "--in", anet,
                   "--out", tmp_path / "c.jsonl") == 1
        assert capsys.readouterr().err == (
            f"error: {anet}: video 'vid1': 'annotations' must be a list, "
            f"not {kind}\n")
        assert not (tmp_path / "c.jsonl").exists()

    def test_thumos_repeated_duration_row_is_a_located_error(self, tmp_path,
                                                             capsys):
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "Jump_test.txt").write_text("v1 1.0 2.0\n")
        durations = tmp_path / "durations.txt"
        durations.write_text("v1 10\n# again\nv1 20\n")
        assert run("convert", "--format", "thumos", "--in", ann,
                   "--durations", durations,
                   "--out", tmp_path / "c.jsonl") == 1
        assert capsys.readouterr().err == (
            f"error: {durations}, line 3: duplicate video id 'v1' "
            "(first at line 1)\n")
        assert not (tmp_path / "c.jsonl").exists()

    def test_activitynet_background_label_is_a_located_error(self, tmp_path,
                                                              capsys):
        anet = tmp_path / "anet.json"
        anet.write_text(
            '{"database": {"vid1": {"subset": "validation", "duration": 5.0,'
            ' "annotations": [{"label": "background", "segment": [1.0, 2.0]}'
            ']}}}')
        assert run("convert", "--format", "activitynet", "--in", anet,
                   "--out", tmp_path / "c.jsonl") == 1
        err = capsys.readouterr().err
        assert (f"{anet}: video 'vid1': label 'background' is the background "
                "label") in err
        assert "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_thumos_background_class_file_is_a_located_error(self, tmp_path,
                                                             capsys):
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "Jump_test.txt").write_text("video_001 1.0 2.0\n")
        (ann / "background.txt").write_text("video_001 3.0 4.0\n")
        durations = tmp_path / "durations.txt"
        durations.write_text("video_001 9.0\n")
        assert run("convert", "--format", "thumos", "--in", ann,
                   "--durations", durations,
                   "--out", tmp_path / "c.jsonl") == 1
        err = capsys.readouterr().err
        assert (f"{ann / 'background.txt'}: class 'background' is the "
                "background label") in err
        assert "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("name,data,line,message", [
        ("anet.json", b"\xff{}", 1, "invalid start byte 0xff"),
        ("anet.json", b'{"database":\r\n {"v": "\xc3"}}', 2,
         "invalid continuation byte 0xc3"),
        ("durations.txt", b"video_001 9.0\rvideo_\xff 1.0\n", 2,
         "invalid start byte 0xff"),
        ("Jump_test.txt", b"video_001 1.0 2.0\n\nvideo_001 \xe2\x82", 3,
         "unexpected end of data 0xe2"),
    ])
    def test_non_utf8_input_is_one_located_error(self, tmp_path, capsys,
                                                 name, data, line, message):
        ann = tmp_path / "ann"
        ann.mkdir()
        files = {"anet.json": tmp_path / "anet.json",
                 "durations.txt": tmp_path / "durations.txt",
                 "Jump_test.txt": ann / "Jump_test.txt"}
        files["durations.txt"].write_text("video_001 9.0\n")
        files["Jump_test.txt"].write_text("video_001 1.0 2.0\n")
        files[name].write_bytes(data)
        if name == "anet.json":
            argv = ["--format", "activitynet", "--in", files[name]]
        else:
            argv = ["--format", "thumos", "--in", ann,
                    "--durations", files["durations.txt"]]
        assert run("convert", *argv, "--out", tmp_path / "c.jsonl") == 1
        assert capsys.readouterr().err == (
            f"error: {files[name]}, line {line}: not UTF-8: {message}\n")
        assert not (tmp_path / "c.jsonl").exists()

    def test_activitynet_json_error_lines_count_every_line_end(
            self, tmp_path, capsys):
        anet = tmp_path / "anet.json"
        anet.write_bytes(b'{"database":\r{},\r\n\n}')
        assert run("convert", "--format", "activitynet", "--in", anet,
                   "--out", tmp_path / "c.jsonl") == 1
        assert capsys.readouterr().err == (
            f"error: {anet}, line 4: invalid JSON: Expecting property name "
            "enclosed in double quotes\n")

    def test_thumos_requires_durations(self, tmp_path):
        assert run("convert", "--format", "thumos",
                   "--in", DATA / "thumos_fixture",
                   "--out", tmp_path / "c.jsonl") == 1


DISK_FULL = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def fails_after(real, calls):
    """``real`` for its first ``calls`` calls, then a full disk."""
    made = []

    def formatter(*args, **kwargs):
        made.append(None)
        if len(made) > calls:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(*args, **kwargs)
    return formatter


def json_with_failing_dumps(calls):
    """The ``json`` module as a module's global, its ``dumps`` failing
    after ``calls`` calls."""
    return SimpleNamespace(**{**vars(json),
                              "dumps": fails_after(json.dumps, calls)})


def read_fifo(path):
    """A started thread that reads ``path`` to its end, and the list it
    appends the bytes to."""
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()),
                              daemon=True)
    reader.start()
    return reader, got


WORKED_GT = DATA / "worked_example.gt.jsonl"
PM_ARGV = ("baseline", "--gt", WORKED_GT, "--kind", "pm", "--fps", "2.0",
           "--out")


def pm_scores(tmp_path):
    assert run(*PM_ARGV, tmp_path / "pm.jsonl") == 0
    return tmp_path / "pm.jsonl"


# each writer's command line in a folder, the output it writes there,
# and the formatter that fails after its first block (cli's json.dumps
# fails at once, as cli formats each file in one block)
FAILING_WRITES = {
    "predictions": (lambda tmp: (*PM_ARGV, tmp / "p.jsonl"), "p.jsonl",
                    formats, "_json_rows",
                    lambda: fails_after(formats._json_rows, 1)),
    "ground truth": (lambda tmp: (
        "convert", "--format", "activitynet", "--in",
        DATA / "activitynet_fixture.json", "--out", tmp / "gt.jsonl"),
        "gt.jsonl", formats, "json", lambda: json_with_failing_dumps(1)),
    "summary": (lambda tmp: (
        "evaluate", "--gt", WORKED_GT, "--pred",
        DATA / "worked_example.pred.jsonl", "--out-dir", tmp),
        "summary.json", cli, "json", lambda: json_with_failing_dumps(0)),
    "offline": (lambda tmp: (
        "offline", "--gt", WORKED_GT, "--pred", pm_scores(tmp),
        "--out-dir", tmp),
        "offline_map.json", cli, "json", lambda: json_with_failing_dumps(0)),
}
# each writer, writing a fixed output to a path
WRITERS = {
    "trace": lambda path: _write_trace(path, [[0.5, 1.0, 1.0, 0.25]] * 3),
    "json": lambda path: cli._write_json(path, {"maia": 0.5, "failures": []}),
    "predictions": lambda path: write_predictions(path, score_matrices=[
        FrameScoreMatrix("v", 2.0, [[0.5, 0.25], [0.0, 1.0]])]),
    "ground truth": lambda path: write_canonical_gt(
        load_canonical_gt(DATA / "worked_example.gt.jsonl"), path),
}


class TestOutputs:
    @pytest.mark.parametrize("old", [None, b"\xff" * 50_000],
                             ids=["new", "rewrite"])
    @pytest.mark.parametrize("case", FAILING_WRITES.values(),
                             ids=FAILING_WRITES)
    def test_failed_write_removes_its_output(self, tmp_path, monkeypatch,
                                             capsys, case, old):
        argv, name, module, formatter, failing = case
        argv, target = argv(tmp_path), tmp_path / name
        if old is not None:
            target.write_bytes(old)
        monkeypatch.setattr(formats, "_BLOCK_ROWS", 2)
        monkeypatch.setattr(module, formatter, failing())
        capsys.readouterr()
        assert run(*argv) == 2
        # after convert's warnings, if any
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"i/o error: {DISK_FULL}"
        assert "Traceback" not in err
        assert not target.exists()

    def test_failed_trace_rewrite_removes_the_old_trace(
            self, tmp_path, monkeypatch, worked_gt, worked_pred):
        # test_trace_write_failing_midway_leaves_no_file covers a new trace
        trace = tmp_path / "worked-example.trace.csv"
        trace.write_bytes(b"\xff" * 50_000)
        monkeypatch.setattr(cli, "_format_rows",
                            fails_after(cli._format_rows, 0))
        assert run("evaluate", "--gt", worked_gt, "--pred", worked_pred,
                   "--out-dir", tmp_path) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failures"] == [{
            "video_id": "worked-example",
            "error": "line 1: cannot write worked-example.trace.csv: "
                     f"{os.strerror(errno.ENOSPC)}"}]
        assert not trace.exists()

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, writer):
        fresh, path = tmp_path / "fresh", tmp_path / "out"
        writer(fresh)
        expected = fresh.read_bytes()
        path.write_bytes(b"\xff" * (2 * len(expected) + 8192))
        path.chmod(0o640)
        os.link(path, tmp_path / "hard")
        (tmp_path / "soft").symlink_to(path)
        before = path.stat()
        writer(path)
        assert path.read_bytes() == expected
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert (tmp_path / "hard").read_bytes() == expected
        path.write_bytes(b"\xff" * (len(expected) + 1))
        writer(tmp_path / "soft")  # writes through the link, as "wb" does
        assert (tmp_path / "soft").is_symlink()
        assert path.read_bytes() == expected
        assert path.stat().st_ino == before.st_ino

    def test_fifo_out_is_only_written(self, tmp_path):
        regular, fifo = tmp_path / "p.jsonl", tmp_path / "fifo"
        assert run(*PM_ARGV, regular) == 0
        os.mkfifo(fifo)
        reader, got = read_fifo(fifo)
        assert run(*PM_ARGV, fifo) == 0
        reader.join(timeout=60)
        assert got == [regular.read_bytes()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)

    def test_failed_write_into_a_fifo_leaves_it(self, tmp_path, monkeypatch,
                                                capsys):
        regular, fifo = tmp_path / "p.jsonl", tmp_path / "fifo"
        assert run(*PM_ARGV, regular) == 0
        os.mkfifo(fifo)
        reader, got = read_fifo(fifo)
        monkeypatch.setattr(formats, "_BLOCK_ROWS", 2)
        monkeypatch.setattr(formats, "_json_rows",
                            fails_after(formats._json_rows, 1))
        assert run(*PM_ARGV, fifo) == 2
        assert capsys.readouterr().err == f"i/o error: {DISK_FULL}\n"
        reader.join(timeout=60)
        assert len(got) == 1 and regular.read_bytes().startswith(got[0])
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
