"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is budgeted to finish in well under two minutes.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from oadeval.baselines import all_bg, perfect_model
from oadeval.errors import CausalityError, EvaluationError, ParseError
from oadeval.formats import (
    build_stream,
    load_activitynet_gt,
    load_canonical_gt,
    load_thumos_gt,
    read_predictions,
    write_canonical_gt,
)
from oadeval.ia import (
    MatchingMode,
    StreamingEvaluator,
    evaluate_grids,
    maia,
    oracle_ia,
)
from oadeval.offline import frame_cap, frame_map
from oadeval.synthetic import synthetic_corpus
from oadeval.timeline import (
    LabelVocabulary,
    PredictionStream,
    SlotGrid,
    discretize,
)

DATA = Path(__file__).parent / "data"
DELTA = 0.5
CORPUS_SEED = 2025  # 20 videos, slot-level action density 0.13..0.37


def report(name):
    print(f"\nACCEPTANCE {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(seed=CORPUS_SEED, n_videos=20)


def corpus_run(manifest, baseline, **kwargs):
    """Evaluate one baseline over the corpus; returns trace pairs + scores."""
    ia_traces, wia_traces, matrices, grids = [], [], [], []
    for track in manifest.tracks:
        gt = discretize(track.intervals, track.duration_s, DELTA,
                        manifest.vocabulary)
        stream, matrix = baseline(track, DELTA, manifest.vocabulary, **kwargs)
        trace = evaluate_grids(stream.as_grid(), gt)
        ia_traces.append((track.duration_s, [p.ia for p in trace]))
        wia_traces.append((track.duration_s, [p.wia for p in trace]))
        matrices.append(matrix)
        grids.append(gt)
    return ia_traces, wia_traces, matrices, grids


def test_oracle_equivalence():
    """Incremental traces equal the brute-force prefix oracle.

    Exhaustive enumeration of every prediction/ground-truth pair over
    two action classes plus background for K <= 6 (597,870 pairs; the
    9^K pair space makes exhaustion beyond that incompatible with the
    runtime budget), randomized supplements for 7 <= K <= 12, and
    10,000 random grids with K <= 500. Equality is exact, which implies
    the required bit-equality after 6-decimal rounding.
    """
    started = time.perf_counter()
    vocab = LabelVocabulary(classes=("a", "b"))
    alphabet = ("a", "b", vocab.background)

    pairs = 0
    for k in range(1, 7):
        grids = [SlotGrid(DELTA, labels, vocab)
                 for labels in itertools.product(alphabet, repeat=k)]
        for gt in grids:
            for pred in grids:
                assert evaluate_grids(pred, gt) == oracle_ia(pred, gt)
                pairs += 1
    assert pairs == sum(9 ** k for k in range(1, 7))

    rng = np.random.default_rng(99)
    for k in range(7, 13):
        for _ in range(2000):
            gt = SlotGrid(DELTA, tuple(rng.choice(alphabet, size=k)), vocab)
            pred = SlotGrid(DELTA, tuple(rng.choice(alphabet, size=k)), vocab)
            mode = MatchingMode.BINARY if rng.integers(2) else MatchingMode.CLASS_AWARE
            assert evaluate_grids(pred, gt, mode) == oracle_ia(pred, gt, mode)
            pairs += 1

    for i in range(10_000):
        k = int(rng.integers(1, 501))
        gt = SlotGrid(DELTA, tuple(rng.choice(alphabet, size=k)), vocab)
        pred = SlotGrid(DELTA, tuple(rng.choice(alphabet, size=k)), vocab)
        mode = MatchingMode.BINARY if i % 2 else MatchingMode.CLASS_AWARE
        engine = evaluate_grids(pred, gt, mode)
        oracle = oracle_ia(pred, gt, mode)
        assert engine == oracle
        assert ([tuple(round(v, 6) for v in p) for p in engine]
                == [tuple(round(v, 6) for v in p) for p in oracle])

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.0f}s"
    report(f"oracle equivalence ({pairs + 10_000} pairs, {elapsed:.0f}s)")


def test_perfect_model_saturation_contrast(corpus):
    """PM reaches maIA = 1 under both weightings while mAP and cAP cannot."""
    ia_traces, wia_traces, matrices, _ = corpus_run(
        corpus, perfect_model, seed=0, fps=2.0)
    unweighted = maia(ia_traces, DELTA)
    weighted = maia(wia_traces, DELTA)
    assert unweighted == pytest.approx(1.0, abs=1e-9)
    assert weighted == pytest.approx(1.0, abs=1e-9)

    tracks = list(corpus.tracks)
    map_result = frame_map(matrices, tracks, corpus.vocabulary)
    cap_result = frame_cap(matrices, tracks, corpus.vocabulary)
    assert map_result.mean < 0.999
    assert cap_result.mean < 0.999
    report(f"saturation contrast (maIA=1.0 vs mAP={map_result.mean:.3f}, "
           f"cAP={cap_result.mean:.3f})")


def test_all_bg_weighting_drop(corpus):
    """All-BG matches the background-fraction aggregate; weighting drops it."""
    ia_traces, wia_traces, _, grids = corpus_run(corpus, all_bg)
    unweighted = maia(ia_traces, DELTA)
    weighted = maia(wia_traces, DELTA)

    # independent aggregate: per-prefix background fraction from raw labels
    terms = []
    for (duration_s, _), gt in zip(ia_traces, grids):
        bg = 0
        fractions = []
        for j, lab in enumerate(gt.labels, start=1):
            bg += 1 if lab == corpus.vocabulary.background else 0
            fractions.append(bg / j)
        terms.append((DELTA / duration_s) * sum(fractions))
    expected = sum(terms) / len(terms)

    assert unweighted == pytest.approx(expected, abs=1e-9)
    assert weighted < unweighted  # action density < 50% on every video
    report(f"all-background weighting drop ({unweighted:.3f} -> {weighted:.3f})")


def test_worked_example_regression():
    """The 20-slot fixture reproduces its frozen golden trace."""
    manifest = load_canonical_gt(DATA / "worked_example.gt.jsonl")
    records, failures = read_predictions(DATA / "worked_example.pred.jsonl",
                                         manifest, ("decisions", "detections"))
    assert failures == {}
    track = manifest.tracks[0]
    _, kind, obj = records[track.video_id]
    stream = build_stream(kind, obj, track, manifest.vocabulary, DELTA)
    gt = discretize(track.intervals, track.duration_s, DELTA,
                    manifest.vocabulary)
    trace = evaluate_grids(stream.as_grid(), gt)

    final = trace[-1]
    assert final.t_s == pytest.approx(10.0)
    assert final.ia == pytest.approx(0.900000, abs=1e-6)
    assert final.weight_w == pytest.approx(14 / 6, abs=1e-6)
    assert final.wia == pytest.approx(0.766667, abs=1e-6)

    golden = (DATA / "worked_example_trace.csv").read_text().strip().splitlines()
    rendered = ["t_s,ia,wia,weight_w"]
    rendered += [f"{p.t_s:.6f},{p.ia:.6f},{p.wia:.6f},{p.weight_w:.6f}"
                 for p in trace]
    assert rendered == golden
    report("worked-example golden trace")


def test_cap_calibration():
    """w = 1 collapses cAP onto mAP; the w = 3 fixture reproduces 0.75."""
    vocab = LabelVocabulary(classes=("jump",))
    from oadeval.offline import FrameScoreMatrix
    from oadeval.timeline import AnnotationTrack, TimeInterval

    balanced_track = AnnotationTrack(
        "balanced", 8.0, (TimeInterval("jump", 0.0, 4.0),))
    rng = np.random.default_rng(5)
    balanced_scores = FrameScoreMatrix("balanced", 1.0, rng.random((8, 1)))
    ap = frame_map([balanced_scores], [balanced_track], vocab)
    cap = frame_cap([balanced_scores], [balanced_track], vocab)
    assert cap.per_class["jump"] == pytest.approx(ap.per_class["jump"], abs=1e-9)

    skewed_track = AnnotationTrack(
        "skewed", 4.0, (TimeInterval("jump", 1.0, 2.0),))
    skewed_scores = FrameScoreMatrix(
        "skewed", 1.0, np.array([[0.9], [0.8], [0.2], [0.1]]))
    assert frame_map([skewed_scores], [skewed_track],
                     vocab).per_class["jump"] == pytest.approx(0.5, abs=1e-12)
    assert frame_cap([skewed_scores], [skewed_track],
                     vocab).per_class["jump"] == pytest.approx(0.75, abs=1e-12)
    report("cAP calibration")


def test_causality():
    """Streaming slot-by-slot equals whole-grid evaluation; revisions raise."""
    vocab = LabelVocabulary(classes=("a", "b"))
    alphabet = ("a", "b", vocab.background)
    rng = np.random.default_rng(123)
    revision_attempts = 0
    revision_rejections = 0
    for case in range(1000):
        k = int(rng.integers(1, 60))
        gt = SlotGrid(DELTA, tuple(rng.choice(alphabet, size=k)), vocab)
        pred_labels = tuple(rng.choice(alphabet, size=k))
        mode = MatchingMode.BINARY if case % 2 else MatchingMode.CLASS_AWARE

        evaluator = StreamingEvaluator(gt, mode)
        stream = PredictionStream(f"case-{case}", DELTA, vocab, num_slots=k)
        for label in pred_labels:
            stream.append(label)
            evaluator.consume(label)
        batch = evaluate_grids(SlotGrid(DELTA, pred_labels, vocab), gt, mode)
        assert evaluator.trace == batch

        past_slot = int(rng.integers(1, k + 1))
        revision_attempts += 1
        try:
            stream.record(past_slot, "a")
        except CausalityError:
            revision_rejections += 1
    assert revision_rejections == revision_attempts
    report(f"causality (1000 cases, {revision_rejections}/{revision_attempts} "
           "revisions rejected)")


def test_format_robustness(tmp_path):
    """Ingestion fixtures behave as specified; round-trip is lossless."""
    # valid fixtures load
    manifest = load_canonical_gt(DATA / "worked_example.gt.jsonl")
    assert len(manifest.tracks) == 1
    anet, anet_report = load_activitynet_gt(DATA / "activitynet_fixture.json")
    assert len(anet.tracks) == 2 and anet_report.videos_skipped == 1
    thumos = load_thumos_gt(DATA / "thumos_fixture",
                            DATA / "thumos_fixture" / "durations.txt")
    assert len(thumos.by_id()["video_001"].intervals) == 2

    # malformed and boundary-violating inputs fail as specified
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"record": "vocabulary"\n')
    with pytest.raises(ParseError):
        load_canonical_gt(bad)
    bad.write_text(
        '{"record": "vocabulary", "classes": ["a"], "background": "bg"}\n'
        '{"record": "video", "video_id": "v", "duration_s": 2.0,'
        ' "intervals": [{"label": "a", "start_s": 1.0, "end_s": 3.0}]}\n')
    with pytest.raises(EvaluationError):
        load_canonical_gt(bad)

    # canonical round-trip, 100 randomized manifests
    rng = np.random.default_rng(7)
    from oadeval.timeline import AnnotationTrack, TimeInterval
    for case in range(100):
        classes = tuple(f"cls{c}" for c in range(int(rng.integers(1, 5))))
        vocab = LabelVocabulary(classes=classes)
        tracks = []
        for v in range(int(rng.integers(1, 6))):
            duration = float(np.round(rng.uniform(2.0, 40.0), 3))
            intervals, t = [], 0.0
            for _ in range(int(rng.integers(0, 4))):
                gap = float(np.round(rng.uniform(0.0, 2.0), 3))
                length = float(np.round(rng.uniform(0.1, 3.0), 3))
                if t + gap + length > duration:
                    break
                intervals.append(TimeInterval(
                    classes[int(rng.integers(len(classes)))],
                    t + gap, t + gap + length))
                t += gap + length
            tracks.append(AnnotationTrack(f"video-{v}", duration,
                                          tuple(intervals)))
        from oadeval.formats import CorpusManifest
        original = CorpusManifest(vocabulary=vocab, tracks=tuple(tracks))
        path = tmp_path / f"rt-{case}.jsonl"
        write_canonical_gt(original, path)
        loaded = load_canonical_gt(path)
        assert loaded.vocabulary == original.vocabulary
        assert loaded.tracks == original.tracks
    report("format robustness")
