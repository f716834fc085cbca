"""All-Background and Perfect-Model baseline generators."""

import hashlib
import math
import random
import re

import numpy as np
import pytest

from oadeval.baselines import all_bg, perfect_model, video_rng
from oadeval.errors import ValidationError
from oadeval.formats import write_canonical_gt
from oadeval.ia import evaluate_grids, maia, oracle_ia
from oadeval.offline import frame_map, rasterize_frames
from oadeval.synthetic import _pcg64_draws, synthetic_corpus
from oadeval.timeline import (
    AnnotationTrack,
    LabelVocabulary,
    TimeInterval,
    discretize,
    seconds_to_us,
)
from test_offline import brute_force_frame_labels

BAD_FPS = [0.0, -2.0, math.nan, math.inf, -math.inf]


def scalar_draw_scores(track, fps, vocab, seed):
    """Oracle: one-hot rows filled frame by frame, with one scalar draw
    per background frame."""
    rng = video_rng(seed, track.video_id)
    frame_labels = brute_force_frame_labels(track, fps, vocab.background)
    assert rasterize_frames(track, fps, vocab) == [
        vocab.codes[lab] for lab in frame_labels]
    scores = np.zeros((len(frame_labels), len(vocab.classes)))
    for i, lab in enumerate(frame_labels):
        if lab == vocab.background:
            scores[i, rng.integers(len(vocab.classes))] = 1.0
        else:
            scores[i, vocab.classes.index(lab)] = 1.0
    return scores


class TestAllBg:
    def test_every_decision_is_background(self, vocab, worked_track):
        stream, scores = all_bg(worked_track, 0.5, vocab)
        assert stream.decisions == ("background",) * 20
        assert scores is None

    def test_zero_scores_when_requested(self, vocab, worked_track):
        _, scores = all_bg(worked_track, 0.5, vocab, fps=2.0)
        assert scores.scores.shape == (20, 2)
        assert not scores.scores.any()

    @pytest.mark.parametrize("fps", BAD_FPS)
    def test_non_positive_fps_rejected(self, vocab, worked_track, fps):
        with pytest.raises(ValidationError, match="fps"):
            all_bg(worked_track, 0.5, vocab, fps=fps)

    def test_perfect_on_background_only_video(self, vocab):
        track = AnnotationTrack("empty", 5.0, ())
        stream, _ = all_bg(track, 0.5, vocab)
        gt = discretize((), 5.0, 0.5, vocab)
        assert all(p.ia == 1.0 for p in evaluate_grids(stream.as_grid(), gt))

    def test_worked_example_values(self, vocab, worked_track, worked_gt_grid):
        stream, _ = all_bg(worked_track, 0.5, vocab)
        trace = oracle_ia(stream.as_grid(), worked_gt_grid)
        assert trace[-1].ia == pytest.approx(14 / 20, abs=1e-12)
        assert trace[-1].wia == pytest.approx(6 / 20, abs=1e-12)

    def test_corpus_maia_equals_background_fraction_aggregate(self):
        manifest = synthetic_corpus(seed=11, n_videos=6)
        delta = 0.5
        traces, expected_terms = [], []
        for track in manifest.tracks:
            stream, _ = all_bg(track, delta, manifest.vocabulary)
            gt = discretize(track.intervals, track.duration_s, delta,
                            manifest.vocabulary)
            trace = evaluate_grids(stream.as_grid(), gt)
            traces.append((track.duration_s, [p.ia for p in trace]))
            # independent aggregation: per-prefix background fraction
            bg = 0
            fractions = []
            for j, lab in enumerate(gt.labels, start=1):
                bg += 1 if lab == manifest.vocabulary.background else 0
                fractions.append(bg / j)
            expected_terms.append((delta / track.duration_s) * sum(fractions))
        expected = sum(expected_terms) / len(expected_terms)
        assert maia(traces, delta) == pytest.approx(expected, abs=1e-12)


class TestPerfectModel:
    def test_stream_replays_ground_truth(self, vocab, worked_track,
                                         worked_gt_grid):
        stream, _ = perfect_model(worked_track, 0.5, vocab, seed=0, fps=2.0)
        assert stream.decisions == worked_gt_grid.labels

    def test_saturates_both_metrics_at_every_instant(self, vocab, worked_track,
                                                     worked_gt_grid):
        stream, _ = perfect_model(worked_track, 0.5, vocab, seed=3, fps=2.0)
        trace = evaluate_grids(stream.as_grid(), worked_gt_grid)
        assert all(p.ia == 1.0 and p.wia == 1.0 for p in trace)

    def test_all_action_video_sweeps_everything(self, vocab):
        track = AnnotationTrack("full", 4.0, (TimeInterval("run", 0.0, 4.0),))
        stream, scores = perfect_model(track, 0.5, vocab, seed=0, fps=2.0)
        assert set(stream.decisions) == {"run"}
        result = frame_map([scores], [track], vocab)
        assert result.per_class["run"] == pytest.approx(1.0)

    def test_scores_are_one_hot(self, vocab, worked_track):
        _, scores = perfect_model(worked_track, 0.5, vocab, seed=0, fps=2.0)
        assert scores.scores.shape == (20, 2)
        assert np.array_equal(np.sort(scores.scores, axis=1)[:, -1],
                              np.ones(20))
        assert scores.scores.sum() == 20

    def test_correct_class_scored_on_action_frames(self, vocab, worked_track,
                                                   worked_gt_grid):
        _, scores = perfect_model(worked_track, 0.5, vocab, seed=0, fps=2.0)
        jump = vocab.classes.index("jump")
        for i, lab in enumerate(worked_gt_grid.labels):
            if lab == "jump":
                assert scores.scores[i, jump] == 1.0

    def test_seeded_reproducibility(self, vocab, worked_track):
        _, a = perfect_model(worked_track, 0.5, vocab, seed=42, fps=2.0)
        _, b = perfect_model(worked_track, 0.5, vocab, seed=42, fps=2.0)
        _, c = perfect_model(worked_track, 0.5, vocab, seed=43, fps=2.0)
        assert np.array_equal(a.scores, b.scores)
        assert not np.array_equal(a.scores, c.scores)

    def test_map_below_one_with_background_present(self, vocab, worked_track):
        _, scores = perfect_model(worked_track, 0.5, vocab, seed=0, fps=2.0)
        result = frame_map([scores], [worked_track], vocab)
        assert result.mean < 1.0

    @pytest.mark.parametrize("fps", BAD_FPS)
    def test_bad_fps_rejected(self, vocab, worked_track, fps):
        with pytest.raises(ValidationError, match=f"fps {fps}"):
            perfect_model(worked_track, 0.5, vocab, seed=0, fps=fps)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31])
    @pytest.mark.parametrize("n_classes", [1, 2, 20, 200])
    def test_matches_scalar_draw_oracle(self, seed, n_classes):
        classes = tuple(f"c{i:03d}" for i in range(n_classes))
        vocab = LabelVocabulary(classes=classes)
        tracks = synthetic_corpus(seed=n_classes, n_videos=3, classes=classes,
                                  duration_range=(8.0, 60.0)).tracks
        tracks += (
            AnnotationTrack("no-bg", 7.5, (TimeInterval(classes[-1], 0.0, 7.5),)),
            AnnotationTrack("all-bg", 6.0, ()),
        )
        for track in tracks:
            for fps in (4.0, 29.97):
                _, matrix = perfect_model(track, 0.5, vocab, seed, fps=fps)
                assert matrix.scores.tobytes() == scalar_draw_scores(
                    track, fps, vocab, seed).tobytes()

    def test_empty_vocabulary_rejected(self, worked_track):
        vocab = LabelVocabulary(classes=())
        with pytest.raises(ValidationError):
            perfect_model(worked_track, 0.5, vocab, seed=0, fps=2.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            video_rng(-1, "v")


def generator_corpus(seed, n_videos, classes, duration_range, density_range):
    """Oracle: the tracks of ``synthetic_corpus`` as drawn through a
    ``Generator``, one ``random`` or ``integers`` call per draw."""
    rng = np.random.default_rng(seed)
    (dur_lo, dur_hi), (den_lo, den_hi) = duration_range, density_range
    tracks = []
    for i in range(n_videos):
        duration = round(dur_lo + (dur_hi - dur_lo) * rng.random(), 2)
        duration = round(duration / 0.5) * 0.5
        target = (den_lo + (den_hi - den_lo) * rng.random()) * duration
        intervals = []
        covered = 0.0
        t = round(0.5 + (2.5 - 0.5) * rng.random(), 2)
        while covered < target and t < duration - 1.0:
            seg = round(0.6 + (2.4 - 0.6) * rng.random(), 2)
            seg = min(seg, target - covered + 0.3, duration - t - 0.5)
            label = classes[int(rng.integers(len(classes)))]
            intervals.append(TimeInterval(label, t, round(t + seg, 2)))
            covered += seg
            t = round(t + seg + (1.0 + (4.0 - 1.0) * rng.random()), 2)
        if not intervals:
            label = classes[int(rng.integers(len(classes)))]
            end = min(1.0 + max(0.6, target), duration)
            intervals.append(TimeInterval(label, 1.0, end))
        tracks.append(AnnotationTrack(f"synthetic-{i:03d}", duration,
                                      tuple(intervals)))
    return tuple(tracks)


class TestPcg64Draws:
    SEEDS = [0, 2**31, 2**63, 12345678901234567890, *range(1, 197)]
    BOUNDS = [1, 2, 3, 20, 1000, 3 * 2**30, 2**31, 2**32 - 1]

    def test_draws_are_the_generators(self):
        # 3 * 2**30 rejects about a quarter of its 32-bit draws, and
        # n == 1 reads no word, so the interleavings cover a kept half
        # word across random() calls and a rejection on either half
        for seed in self.SEEDS:
            pattern = random.Random(seed)
            rng = np.random.default_rng(seed)
            draw, integers = _pcg64_draws(seed)
            for _ in range(300):
                if pattern.random() < 0.4:
                    assert draw() == rng.random()
                else:
                    n = pattern.choice(self.BOUNDS)
                    assert integers(n) == int(rng.integers(n))
            assert draw() == rng.random()


class TestSyntheticCorpus:
    @pytest.mark.parametrize("n_classes", [1, 2, 4, 20])
    @pytest.mark.parametrize("duration_range,density_range", [
        ((8.0, 30.0), (0.1, 0.4)), ((4.0, 12.0), (0.05, 0.6)),
        ((30.0, 300.0), (0.5, 0.95)), ((8.0, 30.0), (0.0, 0.0))])
    def test_corpora_are_the_generator_loops(self, n_classes, duration_range,
                                             density_range):
        classes = tuple(f"class{i:02d}" for i in range(n_classes))
        for seed in range(10):
            assert synthetic_corpus(
                seed, n_videos=4, classes=classes,
                duration_range=duration_range,
                density_range=density_range).tracks == generator_corpus(
                seed, 4, classes, duration_range, density_range)

    @pytest.mark.parametrize("classes", [(), []])
    def test_empty_classes_are_named_before_any_draw(self, classes):
        for n_videos in (0, 3):
            with pytest.raises(ValidationError, match=re.escape(
                    f"classes={classes!r} must name at least one class")):
                synthetic_corpus(0, n_videos=n_videos, classes=classes)

    def test_deterministic_and_in_density_band(self):
        a = synthetic_corpus(seed=5)
        b = synthetic_corpus(seed=5)
        assert a.vocabulary == b.vocabulary and a.tracks == b.tracks
        assert len(a.tracks) == 20
        for track in a.tracks:
            assert track.intervals
            grid = discretize(track.intervals, track.duration_s, 0.5,
                              a.vocabulary)
            action = sum(1 for lab in grid.labels
                         if lab != a.vocabulary.background)
            assert 0.0 < action / len(grid) < 0.5

    def test_video_with_no_drawn_action_gets_one(self):
        # a zero density covers its target before any segment is drawn
        manifest = synthetic_corpus(seed=3, n_videos=4,
                                    density_range=(0.0, 0.0))
        for track in manifest.tracks:
            (interval,) = track.intervals
            assert interval.label in manifest.vocabulary.classes
            assert (interval.start_s, interval.end_s) == (1.0, 1.6)

    @pytest.mark.parametrize("duration_range,density_range", [
        ((8.0, 30.0), (0.1, 0.4)), ((4.0, 12.0), (0.05, 0.6)),
        ((30.0, 300.0), (0.5, 0.95)), ((5.0, 5.0), (0.01, 0.02))])
    def test_no_drawn_segment_is_shorter_than_0_3_s(self, duration_range,
                                                    density_range):
        # segments are drawn from [0.6, 2.4] s, and while the loop runs
        # both caps (what is left of the target plus 0.3 s, what is left
        # of the video minus 0.5 s) stay at or above 0.3 s; a capped
        # last segment can be exactly 0.3 s
        lengths = [iv.end_us - iv.start_us
                   for seed in range(60)
                   for track in synthetic_corpus(
                       seed, n_videos=10, duration_range=duration_range,
                       density_range=density_range).tracks
                   for iv in track.intervals]
        assert min(lengths) >= 300_000

    def test_corpora_that_built_before_the_end_cap_are_unchanged(self, tmp_path):
        # sha256 of the canonical files of 80 corpora, the last setting
        # all fallback segments, taken before the fallback was cut at the
        # video's end
        digest = hashlib.sha256()
        path = tmp_path / "gt.jsonl"
        for duration_range, density_range in [
                ((8.0, 30.0), (0.1, 0.4)), ((4.0, 12.0), (0.05, 0.6)),
                ((30.0, 300.0), (0.5, 0.95)), ((8.0, 30.0), (0.0, 0.0))]:
            for seed in range(20):
                write_canonical_gt(synthetic_corpus(
                    seed, n_videos=5, duration_range=duration_range,
                    density_range=density_range), path)
                digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "794dd31dcda79edb4e83fa450a3a98c02bad704dccd2ebaf79b20413ead67947")

    def test_benchmark_corpus_settings_are_unchanged(self, tmp_path):
        # sha256 of one-video corpora at the three corpus settings of the
        # benchmark set-ups (video count, duration range; 20 classes),
        # each video at its duration and density stratum midpoints, taken
        # while each draw went through Generator.uniform
        classes = tuple(f"class{i:02d}" for i in range(20))
        digest = hashlib.sha256()
        path = tmp_path / "gt.jsonl"
        for n_videos, (lo, hi) in [(48, (60.0, 300.0)), (4, (120.0, 600.0)),
                                   (2, (120.0, 600.0))]:
            strata = np.random.default_rng(0).permutation(n_videos).tolist()
            for i, stratum in enumerate(strata):
                duration = lo + (hi - lo) / n_videos * (i + 0.5)
                density = 0.1 + (0.4 - 0.1) / n_videos * (stratum + 0.5)
                for seed in range(3):
                    write_canonical_gt(synthetic_corpus(
                        seed * 1009 + i, n_videos=1, classes=classes,
                        duration_range=(duration, duration),
                        density_range=(density, density)), path)
                    digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "f27a33bcb417be6391c867d2e1066a11f6fbda10a2475db1b32f5b8d6a8e8eaf")

    @pytest.mark.parametrize("low,high", [
        (8.0, 30.0), (0.1, 0.4), (0.5, 2.5), (0.6, 2.4), (1.0, 4.0),
        (60, 300), (5.0, 5.0), (0.0, 0.0), (-3.5, 1e-3), (1e-300, 1e300)])
    def test_draw_rule_is_generator_uniform(self, low, high):
        # synthetic_corpus draws low + (high - low) * random(); a NumPy
        # whose uniform differs from that breaks every seeded corpus
        for seed in (0, 1, 2**31):
            ours, theirs = (np.random.default_rng(seed) for _ in range(2))
            for _ in range(500):
                drawn = low + (high - low) * ours.random()
                assert drawn.hex() == float(theirs.uniform(low, high)).hex()
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("bounds", [
        (0.1, math.inf), (-math.inf, 0.4), (math.inf, math.inf),
        (-math.inf, -math.inf), (math.nan, 0.4), (0.1, math.nan),
        (-1e308, 1e308), (0.4, 0.1), (30.0, 8.0)],
        ids=["inf-high", "inf-low", "inf-both", "-inf-both", "nan-low",
             "nan-high", "overflow", "reversed", "reversed-durations"])
    @pytest.mark.parametrize("name", ["duration_range", "density_range"])
    def test_bad_ranges_are_named_before_any_draw(self, name, bounds):
        # the ranges Generator.uniform refuses, with OverflowError for a
        # bound or difference that is not finite and ValueError for
        # high < low
        with pytest.raises((OverflowError, ValueError)):
            np.random.default_rng(0).uniform(*bounds)
        for n_videos in (0, 3):
            with pytest.raises(ValidationError, match=re.escape(
                    f"{name}={bounds!r} must be finite with low <= high")):
                synthetic_corpus(0, n_videos=n_videos, **{name: bounds})

    @pytest.mark.parametrize("bounds", [("8", "30"), (8.0, None),
                                        (b"8", 30.0)])
    @pytest.mark.parametrize("name", ["duration_range", "density_range"])
    def test_bounds_must_be_real_numbers(self, name, bounds):
        with pytest.raises(TypeError):
            np.random.default_rng(0).uniform(*bounds)
        with pytest.raises(TypeError, match=re.escape(
                f"{name}={bounds!r} must be two real numbers")):
            synthetic_corpus(0, n_videos=1, **{name: bounds})

    @pytest.mark.parametrize("bounds", [
        (np.float32(8.25), np.float32(30.5)), (np.int64(8), np.int64(30)),
        (8, 30.0), (np.float16(8.0), 30)])
    def test_numpy_and_int_bounds_draw_as_floats(self, bounds):
        # uniform takes each bound as a double
        as_float = tuple(map(float, bounds))
        for name in ("duration_range", "density_range"):
            ours = synthetic_corpus(3, n_videos=4, **{name: bounds})
            assert ours.tracks == synthetic_corpus(
                3, n_videos=4, **{name: as_float}).tracks
            assert {type(t.duration_s) for t in ours.tracks} == {float}

    @pytest.mark.parametrize("settings", [
        {"duration_range": (2.0, 4.0), "density_range": (0.05, 0.9)},
        {"duration_range": (1.3, 2.0), "density_range": (0.0, 1.0)},
    ], ids=["short", "shortest"])
    def test_short_videos_hold_every_action(self, settings):
        # the fallback segment is cut at the video's end, never below 0.3 s
        for seed in range(60):
            for track in synthetic_corpus(seed, n_videos=10,
                                          **settings).tracks:
                assert track.intervals
                for iv in track.intervals:
                    assert iv.end_us - iv.start_us >= 300_000
                    assert iv.end_us <= seconds_to_us(track.duration_s)

    def test_too_short_range_is_named(self):
        # seed 0 draws 1.13 s, which snaps to 1.0 s
        with pytest.raises(ValidationError, match=re.escape(
                "duration_range=(1.0, 1.2) drew 1.0 s < 1.3 s")):
            synthetic_corpus(0, duration_range=(1.0, 1.2))
