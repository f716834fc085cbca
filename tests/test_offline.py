"""Frame-level mAP / cAP against a brute-force ranking oracle."""

import copy
import json
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oadeval import formats
from oadeval.errors import DegenerateInputError, ValidationError, VocabularyError
from oadeval.formats import load_canonical_gt
from oadeval.ia import evaluate_grids
from oadeval.offline import (
    FrameScoreMatrix,
    frame_cap,
    frame_count,
    frame_map,
    rasterize_frames,
)
from oadeval.timeline import (
    AnnotationTrack,
    IntervalColumns,
    LabelVocabulary,
    TimeInterval,
    discretize,
    events_to_stream,
    seconds_to_us,
)


def brute_force_ap(entries, n_pos_total=None, w=None):
    """Oracle: rank (score, video, frame, is_pos) rows by an explicit sort
    and accumulate precision with plain counting."""
    ranked = sorted(entries, key=lambda e: (-e[0], e[1], e[2]))
    tp = fp = 0
    precisions = []
    for score, video, frame, is_pos in ranked:
        if is_pos:
            tp += 1
        else:
            fp += 1
        if is_pos:
            if w is None:
                precisions.append(tp / (tp + fp))
            else:
                precisions.append(w * tp / (w * tp + fp))
    return sum(precisions) / len(precisions)


def brute_force_frame_labels(track, fps, background="background"):
    """Oracle: every float frame midpoint ``(i - 1/2)/fps`` against every
    interval, the minimum covering interval by (start, label) winning."""
    labels = []
    for i in range(1, frame_count(track.duration_s, fps) + 1):
        mid = (i - 0.5) / fps
        hits = [iv for iv in track.intervals
                if iv.start_us / 1e6 <= mid < iv.end_us / 1e6]
        labels.append(min(hits, key=lambda iv: (iv.start_us, iv.label)).label
                      if hits else background)
    return labels


@st.composite
def multi_label_frame_cases(draw):
    """Overlapping intervals with ends on or next to frame midpoints, at the
    duration, or between the last midpoint and the duration."""
    fps = draw(st.sampled_from([29.97, 25.0, 4.0, 2.0, 1 / 0.333333])
               | st.floats(0.5, 30.0))
    duration_us = draw(st.integers(seconds_to_us(1 / fps) + 1, 20_000_000))
    n = frame_count(duration_us / 1e6, fps)
    special = [duration_us, seconds_to_us((n - 0.5) / fps) + 1]
    for i in draw(st.lists(st.integers(1, max(n, 1)), min_size=1, max_size=6)):
        mid_us = seconds_to_us((i - 0.5) / fps)
        special += [mid_us - 1, mid_us, mid_us, mid_us + 1, seconds_to_us(i / fps)]
    special = st.sampled_from([p for p in special if 0 <= p <= duration_us])
    point = special | special | st.integers(0, duration_us)
    starts = draw(st.lists(point, min_size=1, max_size=3))
    intervals = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.sampled_from(starts) | point)
        end = draw(point)
        if start != end:
            intervals.append(TimeInterval(draw(st.sampled_from(["jump", "run"])),
                                          min(start, end) / 1e6,
                                          max(start, end) / 1e6))
    track = AnnotationTrack("v", duration_us / 1e6, tuple(intervals),
                            multi_label=True)
    return track, fps


def single_video_inputs(scores_by_frame, gt_frame_labels, vocab, fps=1.0,
                        video_id="v"):
    duration = len(gt_frame_labels) / fps
    intervals = [
        TimeInterval(lab, i / fps, (i + 1) / fps)
        for i, lab in enumerate(gt_frame_labels) if lab != vocab.background
    ]
    track = AnnotationTrack(video_id, duration, tuple(intervals))
    matrix = FrameScoreMatrix(video_id, fps, np.array(scores_by_frame, dtype=float))
    return [matrix], [track]


class TestRasterize:
    def test_midpoint_rule_matches_slot_discretizer(self, vocab, worked_track):
        frames = rasterize_frames(worked_track, 2.0, vocab)
        grid = discretize(worked_track.intervals, worked_track.duration_s,
                          0.5, vocab)
        assert frames == [vocab.codes[lab] for lab in grid.labels]

    @given(multi_label_frame_cases())
    @settings(max_examples=200, deadline=None)
    def test_sweep_matches_brute_force_on_overlaps(self, case):
        track, fps = case
        vocab = LabelVocabulary(classes=("jump", "run"))
        assert rasterize_frames(track, fps, vocab) == [
            vocab.codes[lab] for lab in brute_force_frame_labels(track, fps)]

    def test_interval_labels_checked_like_slots(self, vocab):
        # background [0, 2) must not paint over jump frames 3 and 4 of
        # [1, 3); both rasterizers reject it with the same error
        track = AnnotationTrack("v", 4.0, (TimeInterval("background", 0.0, 2.0),
                                           TimeInterval("jump", 1.0, 3.0)),
                                multi_label=True)
        for rasterize in (lambda: rasterize_frames(track, 2.0, vocab),
                          lambda: discretize(track.intervals, 4.0, 0.5, vocab)):
            with pytest.raises(ValidationError) as excinfo:
                rasterize()
            assert type(excinfo.value) is ValidationError
            assert str(excinfo.value) == (
                "background intervals are implicit, never stored")
        walk = AnnotationTrack("w", 4.0, (TimeInterval("walk", 0.0, 2.0),))
        with pytest.raises(VocabularyError, match="unknown label 'walk'"):
            rasterize_frames(walk, 2.0, vocab)

    @pytest.mark.parametrize("entries, error", [
        ((("zz", 3.0), ("bg", 1.0)), (VocabularyError, "unknown label 'zz'")),
        ((("bg", 3.0), ("zz", 1.0)),
         (ValidationError, "background intervals are implicit, never stored")),
    ], ids=["unknown-first", "background-first"])
    def test_label_checks_name_the_same_interval(self, tmp_path, entries,
                                                 error):
        # the first bad label as given, not as sorted, names the error of
        # the reader and of both rasterizers
        raw = [{"label": label, "start_s": start, "end_s": start + 1.0}
               for label, start in entries]
        vocab = LabelVocabulary(classes=("jump",), background="bg")
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps({"record": "vocabulary", "classes": ["jump"],
                                  "background": "bg"}) + "\n"
                      + json.dumps({"record": "video", "video_id": "v",
                                    "duration_s": 10.0, "intervals": raw}))
        with pytest.raises(ValidationError) as excinfo:
            load_canonical_gt(gt)
        assert (type(excinfo.value), str(excinfo.value)) == (
            error[0], f"{gt}, line 2: {error[1]}")
        objects = [TimeInterval(e["label"], e["start_s"], e["end_s"])
                   for e in raw]
        for intervals in (formats._parse_intervals(raw), objects):
            track = AnnotationTrack("v", 10.0, intervals)
            for check in (lambda: discretize(track.columns, 10.0, 0.5, vocab),
                          lambda: rasterize_frames(track, 2.0, vocab)):
                with pytest.raises(ValidationError) as excinfo:
                    check()
                assert (type(excinfo.value), str(excinfo.value)) == error

    def test_columns_are_not_sorted_again(self, tmp_path, monkeypatch):
        # a track's and a parsed list's columns were sorted when built;
        # no rasterizer sorts them again
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps({"record": "vocabulary",
                                  "classes": ["jump", "run"],
                                  "background": "background"}) + "\n"
                      + json.dumps({"record": "video", "video_id": "v",
                                    "duration_s": 10.0, "multi_label": True,
                                    "intervals": [
            {"label": "run", "start_s": 6.0, "end_s": 9.0},
            {"label": "jump", "start_s": 1.0, "end_s": 7.0},
            {"label": "run", "start_s": 1.0, "end_s": 2.5}]}))
        manifest = load_canonical_gt(gt)
        vocab, (track,) = manifest.vocabulary, manifest.tracks
        parsed = formats._parse_intervals([
            {"label": "jump", "start_s": 4.0, "end_s": 5.0},
            {"label": "run", "start_s": 0.5, "end_s": 3.0}], key="events")

        def no_sort(*args, **kwargs):
            raise AssertionError("columns sorted again")
        monkeypatch.setattr(IntervalColumns, "sort", classmethod(no_sort))
        grid = discretize(track.columns, 10.0, 0.5, vocab)
        frames = rasterize_frames(track, 2.0, vocab)
        stream = events_to_stream(parsed, "v", 10.0, 0.5, vocab)
        bg = ("background",)
        assert grid.labels == bg * 2 + ("jump",) * 12 + ("run",) * 4 + bg * 2
        assert frames == grid.codes.tolist()
        assert stream.decisions == (bg + ("run",) * 5 + bg * 2
                                    + ("jump",) * 2 + bg * 10)

    def test_frame_count(self):
        assert frame_count(10.0, 4.0) == 40
        assert frame_count(1.3, 2.0) == 2
        # the product overflows to inf before anything is allocated
        with pytest.raises(ValidationError, match="fps 1e"):
            frame_count(10.0, 1e308)

    def test_zero_frames_is_degenerate(self, vocab):
        # as zero slots are for num_slots: nothing to score or rank
        assert frame_count(1.0, 1.0) == 1
        with pytest.raises(DegenerateInputError, match=re.escape(
                "0.7 s at fps 1.0 is shorter than one frame: zero frames")):
            frame_count(0.7, 1.0)
        with pytest.raises(DegenerateInputError, match="zero frames$"):
            rasterize_frames(AnnotationTrack("v", 0.7), 1.0, vocab)

    @pytest.mark.parametrize("value", [True, np.True_, "4", b"4", None,
                                       [4.0], Fraction(4), Decimal(4)])
    def test_rate_or_duration_that_is_no_number_rejected(self, vocab,
                                                         worked_track, value):
        # as the slot rules name them, before any arithmetic
        fps = re.escape(f"fps {value!r} is not a number") + "$"
        with pytest.raises(ValidationError, match=fps):
            frame_count(10.0, value)
        with pytest.raises(ValidationError, match=fps):
            FrameScoreMatrix("v", value, np.zeros((1, 2)))
        with pytest.raises(ValidationError, match=fps):
            rasterize_frames(worked_track, value, vocab)
        with pytest.raises(ValidationError, match=re.escape(
                f"duration {value!r} is not a number") + "$"):
            frame_count(value, 4.0)

    @pytest.mark.parametrize("duration", [-5.0, -0.5, -1])
    def test_negative_duration_rejected(self, duration):
        # it used to give a negative frame count
        with pytest.raises(ValidationError, match=re.escape(
                f"duration {duration} must be > 0") + "$"):
            frame_count(duration, 1.0)

    def test_numpy_and_int_rates_count_frames(self):
        assert frame_count(np.float64(10.0), np.float32(0.5)) == 5
        assert frame_count(np.int64(10), 4) == 40
        assert FrameScoreMatrix("v", np.int64(2), np.zeros((1, 2))).fps == 2

    @pytest.mark.parametrize("fps", [0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_bad_fps_rejected(self, vocab, worked_track, fps):
        with pytest.raises(ValidationError, match=f"fps {fps}"):
            rasterize_frames(worked_track, fps, vocab)
        with pytest.raises(ValidationError, match=f"fps {fps}"):
            FrameScoreMatrix("v", fps, np.zeros((1, 2)))


class TestFrameMap:
    def test_perfect_ranking_gives_one(self, vocab):
        scores = [[0.9, 0.0], [0.8, 0.0], [0.2, 0.0], [0.1, 0.0]]
        gt = ["jump", "jump", "background", "background"]
        result = frame_map(*single_video_inputs(scores, gt, vocab), vocab)
        assert result.per_class["jump"] == pytest.approx(1.0)
        assert result.skipped_classes == ("run",)
        assert result.mean == pytest.approx(1.0)

    @pytest.mark.parametrize("n_pos,n_neg", [(1, 3), (2, 5), (4, 4)])
    def test_worst_ranking_closed_form(self, vocab, n_pos, n_neg):
        # positives all ranked below negatives: AP = mean_k k / (n_neg + k)
        gt = ["background"] * n_neg + ["jump"] * n_pos
        scores = [[1.0 - 0.01 * i, 0.0] for i in range(n_neg + n_pos)]
        result = frame_map(*single_video_inputs(scores, gt, vocab), vocab)
        closed_form = sum(k / (n_neg + k) for k in range(1, n_pos + 1)) / n_pos
        assert result.per_class["jump"] == pytest.approx(closed_form, abs=1e-12)
        entries = [(scores[i][0], "v", i, gt[i] == "jump") for i in range(len(gt))]
        assert result.per_class["jump"] == pytest.approx(
            brute_force_ap(entries), abs=1e-12)

    def test_pm_style_scores_cannot_saturate(self, vocab, worked_track,
                                             worked_gt_grid):
        """One-hot correct on action frames, one-hot random on background:
        the ranking metrics stay below 1 while IA/wIA sit at 1."""
        rng = np.random.default_rng(0)
        fps = 2.0
        frames = brute_force_frame_labels(worked_track, fps)
        assert rasterize_frames(worked_track, fps, vocab) == [
            vocab.codes[lab] for lab in frames]
        scores = np.zeros((len(frames), 2))
        for i, lab in enumerate(frames):
            if lab == "background":
                scores[i, rng.integers(2)] = 1.0
            else:
                scores[i, vocab.classes.index(lab)] = 1.0
        matrices = [FrameScoreMatrix("worked-example", fps, scores)]
        assert frame_map(matrices, [worked_track], vocab).mean < 1.0
        assert frame_cap(matrices, [worked_track], vocab).mean < 1.0
        trace = evaluate_grids(worked_gt_grid, worked_gt_grid)
        assert all(p.ia == 1.0 and p.wia == 1.0 for p in trace)

    def test_prefix_recomputation_changes_earlier_values(self, vocab):
        """Neither ranking metric is computable from a stream prefix: a
        later high-scoring frame rewrites precision at earlier positives."""
        prefix_scores = [[0.9, 0.0], [0.8, 0.0]]
        prefix_gt = ["background", "jump"]
        full_scores = prefix_scores + [[0.95, 0.0], [0.1, 0.0]]
        full_gt = prefix_gt + ["jump", "background"]
        ap_prefix = frame_map(
            *single_video_inputs(prefix_scores, prefix_gt, vocab), vocab)
        ap_full = frame_map(
            *single_video_inputs(full_scores, full_gt, vocab), vocab)
        # precision at the score-0.8 positive moved from 1/2 to 2/3
        assert ap_prefix.per_class["jump"] == pytest.approx(0.5)
        assert ap_full.per_class["jump"] != pytest.approx(0.5)

    def test_missing_and_unknown_videos_rejected(self, vocab):
        matrices, tracks = single_video_inputs(
            [[1.0, 0.0]], ["jump"], vocab)
        with pytest.raises(ValidationError):
            frame_map(matrices, [], vocab)
        with pytest.raises(ValidationError):
            frame_map([], tracks, vocab)

    def test_row_count_mismatch_rejected(self, vocab):
        track = AnnotationTrack("v", 4.0, (TimeInterval("jump", 0.0, 1.0),))
        matrix = FrameScoreMatrix("v", 1.0, np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            frame_map([matrix], [track], vocab)

    def test_duplicate_matrix_rejected(self, vocab):
        matrices, tracks = single_video_inputs([[1.0, 0.0]], ["jump"], vocab)
        with pytest.raises(ValidationError,
                           match="^duplicate score matrix for 'v'$"):
            frame_map(matrices * 2, tracks, vocab)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_column_count_mismatch_rejected(self, vocab, columns):
        track = AnnotationTrack("v", 4.0, (TimeInterval("jump", 0.0, 1.0),))
        matrix = FrameScoreMatrix("v", 1.0, np.zeros((4, columns)))
        with pytest.raises(ValidationError, match=(
                f"^video 'v': {columns} score columns for 2 classes$")):
            frame_map([matrix], [track], vocab)

    @pytest.mark.parametrize("metric", [frame_map, frame_cap])
    def test_no_ground_truth_frames_rejected(self, vocab, metric):
        track = AnnotationTrack("v", 4.0)
        matrix = FrameScoreMatrix("v", 1.0, np.ones((4, 2)))
        with pytest.raises(ValidationError,
                           match="^no class has ground-truth frames$"):
            metric([matrix], [track], vocab)


class TestFrameScoreMatrix:
    @pytest.mark.parametrize("scores", [np.zeros(3), np.zeros((1, 2, 2)),
                                        0.5])
    def test_scores_must_be_two_dimensional(self, scores):
        with pytest.raises(ValidationError, match=(
                "^scores must be a 2-D frame x class array$")):
            FrameScoreMatrix("v", 1.0, scores)

    def test_scores_are_read_only(self):
        scores = np.zeros((2, 1))
        matrix = FrameScoreMatrix("v", 1.0, scores)
        with pytest.raises(ValueError, match="read-only"):
            matrix.scores[0, 0] = math.nan
        # a float64 array is frozen in place, not copied
        assert matrix.scores is scores
        with pytest.raises(ValueError, match="read-only"):
            scores[1, 0] = 1.0
        assert matrix.scores.tolist() == [[0.0], [0.0]]
        # any other input is converted to a new float64 array first
        listed = [[1, 0], [0, 1]]
        assert FrameScoreMatrix("v", 1.0, listed).scores.dtype == np.float64
        assert listed == [[1, 0], [0, 1]]

    def test_pickled_and_copied_scores_stay_read_only(self):
        matrix = FrameScoreMatrix("v", 2.0, np.arange(6.0).reshape(3, 2))
        for copied in (pickle.loads(pickle.dumps(matrix)),
                       copy.deepcopy(matrix), copy.copy(matrix)):
            assert type(copied) is FrameScoreMatrix
            assert (copied.video_id, copied.fps) == ("v", 2.0)
            assert np.array_equal(copied.scores, matrix.scores)
            with pytest.raises(ValueError, match="read-only"):
                copied.scores[0, 0] = math.nan


class TestFrameCap:
    def test_perfect_ranking_gives_one(self, vocab):
        scores = [[0.9, 0.0], [0.1, 0.0], [0.2, 0.0], [0.15, 0.0]]
        gt = ["jump", "background", "background", "background"]
        result = frame_cap(*single_video_inputs(scores, gt, vocab), vocab)
        assert result.per_class["jump"] == pytest.approx(1.0)

    def test_balanced_class_equals_plain_ap(self, vocab):
        rng = np.random.default_rng(7)
        gt = ["jump"] * 6 + ["background"] * 6
        scores = [[float(rng.random()), 0.0] for _ in gt]
        inputs = single_video_inputs(scores, gt, vocab)
        ap = frame_map(*inputs, vocab).per_class["jump"]
        cap = frame_cap(*inputs, vocab).per_class["jump"]
        assert cap == pytest.approx(ap, abs=1e-12)

    def test_hand_derived_w3_case(self, vocab):
        # 4 frames, one positive ranked second: Prec = 1/2, cPrec = 3/4
        scores = [[0.9, 0.0], [0.8, 0.0], [0.2, 0.0], [0.1, 0.0]]
        gt = ["background", "jump", "background", "background"]
        inputs = single_video_inputs(scores, gt, vocab)
        assert frame_map(*inputs, vocab).per_class["jump"] == pytest.approx(0.5)
        assert frame_cap(*inputs, vocab).per_class["jump"] == pytest.approx(0.75)
        entries = [(scores[i][0], "v", i, gt[i] == "jump") for i in range(4)]
        assert brute_force_ap(entries, w=3.0) == pytest.approx(0.75)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_calibration_never_hurts_when_w_at_least_one(self, data):
        vocab = LabelVocabulary(classes=("jump",))
        n_pos = data.draw(st.integers(1, 6))
        n_neg = data.draw(st.integers(n_pos, 14))  # w >= 1
        labels = ["jump"] * n_pos + ["background"] * n_neg
        scores = [[data.draw(st.floats(0.0, 1.0))] for _ in labels]
        inputs = single_video_inputs(scores, labels, vocab)
        assert (frame_cap(*inputs, vocab).per_class["jump"]
                >= frame_map(*inputs, vocab).per_class["jump"] - 1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_metrics_invariant_to_monotone_transforms(self, data):
        vocab = LabelVocabulary(classes=("jump",))
        labels = data.draw(st.lists(
            st.sampled_from(["jump", "background"]), min_size=2, max_size=12))
        if "jump" not in labels:
            labels[0] = "jump"
        # dyadic scores keep the affine transform exact (injective in floats)
        scores = [[data.draw(st.integers(0, 64)) / 64] for _ in labels]
        transformed = [[3.0 * s[0] + 1.0] for s in scores]
        base = single_video_inputs(scores, labels, vocab)
        scaled = single_video_inputs(transformed, labels, vocab)
        assert frame_map(*base, vocab).per_class["jump"] == pytest.approx(
            frame_map(*scaled, vocab).per_class["jump"], abs=1e-12)
        assert frame_cap(*base, vocab).per_class["jump"] == pytest.approx(
            frame_cap(*scaled, vocab).per_class["jump"], abs=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_random_multivideo_inputs(self, data):
        vocab = LabelVocabulary(classes=("jump", "run"))
        matrices, tracks, entries = [], [], {c: [] for c in vocab.classes}
        n_videos = data.draw(st.integers(1, 3))
        for v in range(n_videos):
            vid = f"v{v}"
            labels = data.draw(st.lists(
                st.sampled_from(["jump", "run", "background"]),
                min_size=1, max_size=8))
            scores = [
                [data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))]
                for _ in labels
            ]
            m, t = single_video_inputs(scores, labels, vocab, video_id=vid)
            matrices += m
            tracks += t
            for i, lab in enumerate(labels):
                for col, cls in enumerate(vocab.classes):
                    entries[cls].append((scores[i][col], vid, i, lab == cls))
        seen = {lab for t in tracks for lab in
                (iv.label for iv in t.intervals)}
        if not seen:
            return
        result = frame_map(matrices, tracks, vocab)
        for cls in seen:
            assert result.per_class[cls] == pytest.approx(
                brute_force_ap(entries[cls]), abs=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_ties_break_by_video_id_then_frame(self, data):
        """Scores from {0, 0.5, 1} tie on most rows, and the videos arrive
        in an unsorted id order: both metrics must keep the oracle's
        (video id, frame) order among tied frames."""
        vocab = LabelVocabulary(classes=("jump", "run"))
        matrices, tracks, entries = [], [], {c: [] for c in vocab.classes}
        ids = data.draw(st.permutations(["v2", "v0", "v1"]))
        for vid in ids[:data.draw(st.integers(1, 3))]:
            labels = data.draw(st.lists(
                st.sampled_from(["jump", "run", "background"]),
                min_size=1, max_size=40))
            scores = [[data.draw(st.sampled_from([0.0, 0.5, 1.0]))
                       for _ in vocab.classes] for _ in labels]
            m, t = single_video_inputs(scores, labels, vocab, video_id=vid)
            matrices += m
            tracks += t
            for i, lab in enumerate(labels):
                for col, cls in enumerate(vocab.classes):
                    entries[cls].append((scores[i][col], vid, i, lab == cls))
        seen = {iv.label for t in tracks for iv in t.intervals}
        if not seen:
            return
        matrices = data.draw(st.permutations(matrices))
        ap = frame_map(matrices, tracks, vocab)
        cap = frame_cap(matrices, tracks, vocab)
        for cls in seen:
            n_pos = sum(e[3] for e in entries[cls])
            n_neg = len(entries[cls]) - n_pos
            w = n_neg / n_pos if n_neg else 1.0  # no negatives: w = 1
            assert ap.per_class[cls] == pytest.approx(
                brute_force_ap(entries[cls]), abs=1e-12)
            assert cap.per_class[cls] == pytest.approx(
                brute_force_ap(entries[cls], w=w), abs=1e-12)
