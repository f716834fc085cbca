"""End-to-end CLI runs: exit codes, output files, determinism."""

import json
from pathlib import Path

import pytest

from oadeval import cli
from oadeval.cli import _write_trace, main
from oadeval.formats import (
    CorpusManifest,
    load_canonical_gt,
    write_canonical_gt,
)
from oadeval.ia import IATracePoint
from oadeval.timeline import AnnotationTrack, LabelVocabulary, TimeInterval

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def worked_gt():
    return DATA / "worked_example.gt.jsonl"


@pytest.fixture
def worked_pred():
    return DATA / "worked_example.pred.jsonl"


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

    def test_seed_changes_pm_scores(self, tmp_path, worked_gt):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("baseline", "--gt", worked_gt, "--kind", "pm", "--seed", "1",
            "--fps", "2.0", "--out", a)
        run("baseline", "--gt", worked_gt, "--kind", "pm", "--seed", "2",
            "--fps", "2.0", "--out", b)
        assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("delta_t", ["nan", "inf", "-inf", "-1", "0", "1e-300"])
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

    def test_thumos_requires_durations(self, tmp_path):
        assert run("convert", "--format", "thumos",
                   "--in", DATA / "thumos_fixture",
                   "--out", tmp_path / "c.jsonl") == 1
