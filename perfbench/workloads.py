"""Seeded workloads: input generation, the measured loop, and its checks.

Every workload is a class with the same life cycle:

``setup()``
    generate the seeded corpus through ``oadeval.synthetic`` and the
    timeline types, write it with ``oadeval.formats``, and build whatever
    the measured loop needs. The runner times this (``setup_s``).
``prepare_checks()``
    compute the correctness references, untimed.
``run(seconds, recorder)``
    the closed loop: one step after another until ``seconds`` have
    passed, each step checked against the references outside its timed
    region. Returns a :class:`Measurement`.

Corpus durations and action densities are stratified (video ``i`` of
``n`` lasts exactly the ``(i + 1/2)/n`` point of the duration range, and
each video takes the midpoint of one of ``n`` equal strata of
``synthetic_corpus``'s default density range), so that the work per step
barely changes from one seed to the next; interval placement, classes,
prediction noise and which video carries which corrupt record follow
the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from probe import probe_s
from oadeval import cli
from oadeval.formats import (
    CorpusManifest,
    build_stream,
    iter_prediction_records,
    load_canonical_gt,
    write_canonical_gt,
    write_predictions,
)
from oadeval.ia import MatchingMode, StreamingEvaluator, evaluate_grids, oracle_ia
from oadeval.synthetic import synthetic_corpus
from oadeval.timeline import (
    AnnotationTrack,
    LabelVocabulary,
    PredictionStream,
    SlotGrid,
    discretize,
)

DELTA_T_S = 0.5
CLASSES = tuple(f"class{i:02d}" for i in range(20))  # THUMOS-sized vocabulary
# synthetic_corpus's default action-fraction range: on 2-10 min videos it
# gives 60-65 intervals per video.
DENSITY_RANGE = (0.1, 0.4)
# One pool thread: evaluation is bound by the interpreter lock, and two
# threads handing it back and forth across two shared vCPUs ran slower and
# with several times the run-to-run spread of one.
JOBS = 1


@dataclass
class Measurement:
    """What one measured loop did: step times, work items, outcomes."""

    step_s: list[float] = field(default_factory=list)
    tick_s: array = field(default_factory=lambda: array("d"))  # live_stream
    items_per_step: int = 0
    part_s: dict[str, list[float]] = field(default_factory=dict)
    probe_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def extend(self, other: "Measurement") -> None:
        self.step_s += other.step_s
        self.tick_s += other.tick_s
        self.probe_s += other.probe_s
        self.items_per_step = other.items_per_step
        for name, times in other.part_s.items():
            self.part_s.setdefault(name, []).extend(times)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[:20 - len(self.problems)]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little")])


def stratified_corpus(seed: int, n_videos: int, duration_range,
                      prefix: str) -> CorpusManifest:
    """``n_videos`` synthetic tracks, one duration and one density stratum each.

    Density strata are dealt to duration strata in one fixed shuffled
    order, the same for every seed, so that density is not tied to length
    and the corpus's total work does not move with the seed.
    """
    lo, hi = duration_range
    width = (hi - lo) / n_videos
    d_lo, d_hi = DENSITY_RANGE
    d_width = (d_hi - d_lo) / n_videos
    density_strata = np.random.default_rng(0).permutation(n_videos).tolist()
    tracks = []
    for i, stratum in enumerate(density_strata):
        duration = lo + width * (i + 0.5)
        density = d_lo + d_width * (stratum + 0.5)
        one = synthetic_corpus(
            seed=seed * 1009 + i, n_videos=1, classes=CLASSES,
            duration_range=(duration, duration),
            density_range=(density, density))
        track = one.tracks[0]
        tracks.append(AnnotationTrack(
            video_id=f"{prefix}-{i:03d}", duration_s=track.duration_s,
            intervals=track.intervals))
    return CorpusManifest(vocabulary=LabelVocabulary(classes=CLASSES),
                          tracks=tuple(tracks), source=f"perfbench:{seed}")


def noisy_labels(gt_labels, rng, vocab, flip=0.15) -> list[str]:
    """Ground-truth slot labels with a share ``flip`` replaced at random."""
    choices = (vocab.background,) + vocab.classes
    flips = rng.random(len(gt_labels)) < flip
    picks = rng.integers(len(choices), size=len(gt_labels))
    return [choices[p] if f else lab
            for lab, f, p in zip(gt_labels, flips.tolist(), picks.tolist())]


def noisy_events(track: AnnotationTrack, rng) -> list[dict]:
    """Detector-like events: jittered, sometimes missed, mislabelled or false."""
    events = []
    d = track.duration_s
    for iv in track.intervals:
        if rng.random() < 0.1:
            continue
        label = iv.label if rng.random() >= 0.1 else CLASSES[rng.integers(len(CLASSES))]
        start = min(max(iv.start_s + rng.normal(0, 0.3), 0.0), d - 0.2)
        end = min(max(iv.end_s + rng.normal(0, 0.3), start + 0.1), d)
        events.append({"label": label, "start_s": round(start, 3),
                       "end_s": round(end, 3)})
    for _ in range(len(track.intervals) // 10):
        start = float(rng.uniform(0, d - 2.0))
        events.append({"label": CLASSES[rng.integers(len(CLASSES))],
                       "start_s": round(start, 3),
                       "end_s": round(start + float(rng.uniform(0.5, 2.0)), 3)})
    return events


def _events_grid(events, track, vocab) -> list[str]:
    return reference.slot_labels(
        [(e["label"], e["start_s"], e["end_s"]) for e in events],
        track.duration_s, DELTA_T_S, vocab.background)


def _gt_grid(track, vocab) -> list[str]:
    return reference.slot_labels(
        [(iv.label, iv.start_s, iv.end_s) for iv in track.intervals],
        track.duration_s, DELTA_T_S, vocab.background)


def write_mixed_predictions(path: Path, manifest, seed: int, tag: str):
    """Decisions and detections records, alternating along the durations.

    Returns ``{video_id: (kind, payload)}`` for the valid records, where
    payload is the decision labels or the event list.
    """
    rng = _rng(seed, tag)
    vocab = manifest.vocabulary
    by_duration = sorted(manifest.tracks, key=lambda t: t.duration_s)
    streams, detections, records = [], [], {}
    for i, track in enumerate(by_duration):
        if i % 2 == 0:
            grid = discretize(track.intervals, track.duration_s, DELTA_T_S, vocab)
            labels = noisy_labels(grid.labels, rng, vocab)
            stream = PredictionStream(track.video_id, DELTA_T_S, vocab,
                                      num_slots=len(labels))
            stream.extend(labels)
            streams.append(stream)
            records[track.video_id] = ("decisions", labels)
        else:
            events = noisy_events(track, rng)
            detections.append({"record": "detections",
                               "video_id": track.video_id, "events": events})
            records[track.video_id] = ("detections", events)
    write_predictions(path, streams=streams)
    with open(path, "a", encoding="utf-8") as fh:
        for record in detections:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return records


def _quiet_cli(argv) -> tuple[int, float]:
    """Run one ``oadeval`` command with its console output discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        code = cli.main(argv)
        return code, perf_counter() - t0


def _written_equal(written: float, exact: float) -> bool:
    """Whether ``written`` is ``exact`` rounded to the 6 decimals written."""
    return abs(written - exact) <= 5e-7 + 1e-12


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------

CORRUPTIONS = ("short", "label", "overrun", "duplicate")


class EvaluateDense:
    """``oadeval evaluate`` over a THUMOS-like corpus, one call per step.

    Long untrimmed videos (2-10 min) with many short actions; predictions
    mix decisions and detections records. Four short extra videos carry
    one deliberately corrupt record each, one of every kind, and must fail
    alone; every seed has the same kinds, so that neither the work nor the
    memory of a step moves with the seed.
    """

    # A few videos per call keeps steps short (about 0.2 s): a run then has
    # many steps for its median, and each step shares the host load of the
    # probe that follows it.
    SIZES = {"full": (4, (120.0, 600.0)), "tiny": (4, (20.0, 60.0))}
    N_CORRUPT = len(CORRUPTIONS)
    # per-layer metrics this workload cannot produce (name prefixes)
    BYPASSED = ("offline.", "baselines.", "ia.StreamingEvaluator.",
                "formats.load_scores.", "formats.write_predictions.",
                "cli.cmd_offline.", "cli.cmd_baseline.", "e2e.baseline_",
                "e2e.offline_", "e2e.live_")
    SETUPS_PER_SLICE = 5  # set-ups take tens of ms: more samples for the median

    def __init__(self, seed, scale, workdir: Path):
        self.seed = seed
        self.n_videos, self.durations = self.SIZES[scale]
        self.workdir = workdir

    def setup(self):
        rng = _rng(self.seed, "evaluate_dense.corrupt")
        corpus = stratified_corpus(self.seed, self.n_videos, self.durations, "vid")
        extra = stratified_corpus(self.seed + 7, self.N_CORRUPT, (10.0, 20.0), "bad")
        manifest = CorpusManifest(vocabulary=corpus.vocabulary,
                                  tracks=corpus.tracks + extra.tracks)
        self.vocab = manifest.vocabulary
        self.gt_path = self.workdir / "gt.jsonl"
        self.pred_path = self.workdir / "pred.jsonl"
        self.out_dir = self.workdir / "out"
        write_canonical_gt(manifest, self.gt_path)
        self.records = write_mixed_predictions(self.pred_path, corpus, self.seed,
                                               "evaluate_dense")
        self.tracks = {t.video_id: t for t in manifest.tracks}
        kinds = rng.permutation(self.N_CORRUPT)
        lines = []
        for track, kind in zip(extra.tracks, (CORRUPTIONS[k] for k in kinds)):
            k = len(discretize(track.intervals, track.duration_s, DELTA_T_S,
                               self.vocab))
            labels = [self.vocab.background] * k
            decisions = {"record": "decisions", "video_id": track.video_id,
                         "delta_t_s": DELTA_T_S, "labels": labels}
            if kind == "short":
                decisions["labels"] = labels[:-1]
            elif kind == "label":
                decisions["labels"] = labels[:-1] + ["not-a-class"]
            elif kind == "overrun":
                decisions = {"record": "detections", "video_id": track.video_id,
                             "events": [{"label": CLASSES[0], "start_s": 1.0,
                                         "end_s": track.duration_s + 1.0}]}
            else:
                lines.append(json.dumps(decisions, sort_keys=True))
            lines.append(json.dumps(decisions, sort_keys=True))
        with open(self.pred_path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.corrupt = sorted(t.video_id for t in extra.tracks)
        self.argv = ["evaluate", "--gt", str(self.gt_path),
                     "--pred", str(self.pred_path), "--delta-t", str(DELTA_T_S),
                     "--mode", "class-aware", "--out-dir", str(self.out_dir),
                     "--jobs", str(JOBS)]
        self.slots_per_call = sum(
            reference.to_us(self.tracks[v].duration_s) // reference.to_us(DELTA_T_S)
            for v in self.records)

    def prepare_checks(self):
        """Oracle traces of every valid video, from reference grids, and the
        corpus aggregates ``summary.json`` must report."""
        self.expected = {}
        for vid in sorted(self.records):
            track = self.tracks[vid]
            kind, payload = self.records[vid]
            pred = payload if kind == "decisions" else _events_grid(
                payload, track, self.vocab)
            self.expected[vid] = oracle_ia(
                SlotGrid(DELTA_T_S, tuple(pred), self.vocab),
                SlotGrid(DELTA_T_S, tuple(_gt_grid(track, self.vocab)), self.vocab))
        traces = [(self.tracks[vid].duration_s, trace)
                  for vid, trace in self.expected.items()]
        self.expected_summary = {
            "maia": reference.maia(
                [(d, [p.ia for p in trace]) for d, trace in traces], DELTA_T_S),
            "weighted_maia": reference.maia(
                [(d, [p.wia for p in trace]) for d, trace in traces], DELTA_T_S),
        }
        self.summary_sha = None

    def _check_summary(self, summary) -> list[str]:
        problems = []
        failed = [f["video_id"] for f in summary["failures"]]
        if failed != self.corrupt:
            problems.append(f"failures {failed} != corrupt {self.corrupt}")
        if summary["videos_evaluated"] != len(self.expected):
            problems.append(f"videos_evaluated {summary['videos_evaluated']}")
        for key, value in self.expected_summary.items():
            if not _written_equal(summary[key], value):
                problems.append(f"{key} {summary[key]} != reference {value:.9f}")
        if sorted(summary["per_video"]) != sorted(self.expected):
            problems.append("per_video does not list exactly the valid videos")
            return problems
        for vid, trace in self.expected.items():
            entry = summary["per_video"][vid]
            if (entry["duration_s"] != self.tracks[vid].duration_s
                    or entry["slots"] != len(trace)
                    or not _written_equal(entry["final_ia"], trace[-1].ia)
                    or not _written_equal(entry["final_wia"], trace[-1].wia)):
                problems.append(f"per_video {vid}: {entry} != oracle final "
                                f"{trace[-1]} over {len(trace)} slots")
        return problems

    def _check(self, code: int) -> list[str]:
        problems = []
        if code != 1:
            problems.append(f"evaluate exited {code}, expected 1 (corrupt videos)")
        summary_path = self.out_dir / "summary.json"
        sha = _sha(summary_path)
        if self.summary_sha is None:
            self.summary_sha = sha
            problems += self._check_summary(
                json.loads(summary_path.read_text(encoding="utf-8")))
        elif sha != self.summary_sha:
            problems.append("summary.json bytes differ between repetitions")
        for vid, trace in self.expected.items():
            rows = (self.out_dir / f"{vid}.trace.csv").read_text(
                encoding="utf-8").splitlines()[1:]
            if len(rows) != len(trace):
                problems.append(f"{vid}: {len(rows)} trace rows, expected {len(trace)}")
                continue
            for row, point in zip(rows, trace):
                got = [float(x) for x in row.split(",")]
                if not all(_written_equal(g, e) for g, e in zip(got, point)):
                    problems.append(f"{vid}: trace row {row!r} != oracle {point}")
                    break
        return problems

    def run(self, seconds, recorder=None) -> Measurement:
        m = Measurement(items_per_step=self.slots_per_call)
        input_bytes = self.gt_path.stat().st_size + self.pred_path.stat().st_size
        deadline = perf_counter() + seconds
        while True:
            code, dt = _quiet_cli(self.argv)
            m.step_s.append(dt)
            m.probe_s.append(probe_s())
            m.attempted += 1
            problems = self._check(code)
            if problems:
                m.fail(1, "; ".join(problems))
            if recorder is not None:
                recorder.add("formats.input_bytes", input_bytes)
                recorder.add("cli.trace_bytes", sum(
                    e.stat().st_size for e in os.scandir(self.out_dir)))
            if perf_counter() >= deadline:
                return m


class LiveStream:
    """Concurrent causal evaluators fed one decision per stream per tick.

    A fixed pool of videos is loaded through the file formats once; each
    of the concurrent streams plays one video after another from the
    pool, so a stream's evaluator is replaced as soon as it finishes.
    """

    SIZES = {"full": (32, 48, (60.0, 300.0)), "tiny": (4, 6, (10.0, 30.0))}
    SETUPS_PER_SLICE = 2
    BYPASSED = ("timeline.", "ia.evaluate_grids.", "ia.maia.", "formats.",
                "offline.", "baselines.", "cli.", "e2e.baseline_", "e2e.offline_")
    # One measured step is a batch of ticks, so that every step carries its
    # share of the garbage collections and list growth that single ticks
    # pay only now and then. Per-tick latency is reported separately.
    TICKS_PER_STEP = 256

    def __init__(self, seed, scale, workdir: Path):
        self.seed = seed
        self.n_streams, self.n_pool, self.durations = self.SIZES[scale]
        self.workdir = workdir

    def setup(self):
        corpus = stratified_corpus(self.seed, self.n_pool, self.durations, "live")
        gt_path = self.workdir / "gt.jsonl"
        pred_path = self.workdir / "pred.jsonl"
        write_canonical_gt(corpus, gt_path)
        write_mixed_predictions(pred_path, corpus, self.seed, "live_stream")
        manifest = load_canonical_gt(gt_path)
        tracks = manifest.by_id()
        streams = {}
        for _, kind, obj in iter_prediction_records(pred_path):
            vid = obj["video_id"]
            streams[vid] = build_stream(kind, obj, tracks[vid],
                                        manifest.vocabulary, DELTA_T_S)
        self.pool = []
        for vid in sorted(tracks):
            track = tracks[vid]
            grid = discretize(track.intervals, track.duration_s, DELTA_T_S,
                              manifest.vocabulary)
            self.pool.append((grid, streams[vid].decisions))
        self.evaluators = [StreamingEvaluator(self.pool[s % self.n_pool][0])
                           for s in range(self.n_streams)]

    def prepare_checks(self):
        self.reference = [
            evaluate_grids(SlotGrid(DELTA_T_S, decisions, grid.vocab), grid,
                           MatchingMode.CLASS_AWARE)
            for grid, decisions in self.pool]

    def _verify(self, m: Measurement, evaluator, video: int) -> None:
        trace = evaluator.trace
        expected = self.reference[video][:len(trace)]
        m.attempted += len(trace)
        if trace != expected:
            bad = max(1, sum(a != b for a, b in zip(trace, expected)))
            m.fail(bad, f"pool video {video}: {bad} trace points differ "
                        "from evaluate_grids")

    def run(self, seconds, recorder=None) -> Measurement:
        m = Measurement(items_per_step=self.n_streams * self.TICKS_PER_STEP)
        n_pool = self.n_pool
        videos = [s % n_pool for s in range(self.n_streams)]
        evaluators = self.evaluators
        active = [(ev, iter(self.pool[v][1])) for ev, v in zip(evaluators, videos)]
        ends: dict[int, list[int]] = {}
        for s, v in enumerate(videos):
            ends.setdefault(len(self.pool[v][1]), []).append(s)
        next_video = self.n_streams
        tick = 0
        step = 0.0
        deadline = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            for ev, labels in active:
                ev.consume(next(labels))
            dt = perf_counter() - t0
            m.tick_s.append(dt)
            step += dt
            tick += 1
            for s in ends.pop(tick, ()):
                self._verify(m, evaluators[s], videos[s])
                v = videos[s] = next_video % n_pool
                next_video += 1
                grid, decisions = self.pool[v]
                evaluators[s] = StreamingEvaluator(grid)
                active[s] = (evaluators[s], iter(decisions))
                ends.setdefault(tick + len(decisions), []).append(s)
            if tick % self.TICKS_PER_STEP == 0:
                m.step_s.append(step)
                step = 0.0
                m.probe_s.append(probe_s())
                if perf_counter() >= deadline:
                    break
        for ev, v in zip(evaluators, videos):
            self._verify(m, ev, v)
        # the next run starts from fresh evaluators on the same pool
        self.evaluators = [StreamingEvaluator(self.pool[s % n_pool][0])
                           for s in range(self.n_streams)]
        return m


class OfflineRank:
    """Perfect-Model scores written by ``baseline``, ranked by ``offline``.

    One step is one round: ``oadeval baseline --kind pm --fps`` writes
    score records, then ``oadeval offline`` reads them back for
    ``--metric map`` and for ``--metric cap``.
    """

    SIZES = {"full": (2, (120.0, 600.0)), "tiny": (2, (20.0, 40.0))}
    FPS = 4.0
    SETUPS_PER_SLICE = 4  # set-up takes milliseconds: more samples for its median
    BYPASSED = ("ia.", "formats.build_stream.", "cli.cmd_evaluate.",
                "cli.trace_bytes", "e2e.live_")

    def __init__(self, seed, scale, workdir: Path):
        self.seed = seed
        self.n_videos, self.durations = self.SIZES[scale]
        self.workdir = workdir

    def setup(self):
        self.manifest = stratified_corpus(self.seed, self.n_videos,
                                          self.durations, "rank")
        self.gt_path = self.workdir / "gt.jsonl"
        self.pm_path = self.workdir / "pm.jsonl"
        self.out_dir = self.workdir / "out"
        write_canonical_gt(self.manifest, self.gt_path)
        fps = str(self.FPS)
        gt, pm = str(self.gt_path), str(self.pm_path)
        self.commands = [
            ("baseline_frames",
             ["baseline", "--gt", gt, "--kind", "pm", "--seed", str(self.seed),
              "--delta-t", str(DELTA_T_S), "--fps", fps, "--out", pm]),
            ("offline_frames",
             ["offline", "--gt", gt, "--pred", pm, "--fps", fps,
              "--metric", "map", "--out-dir", str(self.out_dir)]),
            ("offline_frames",
             ["offline", "--gt", gt, "--pred", pm, "--fps", fps,
              "--metric", "cap", "--out-dir", str(self.out_dir)]),
        ]

    def prepare_checks(self):
        tracks = sorted(self.manifest.tracks, key=lambda t: t.video_id)
        vocab = self.manifest.vocabulary
        self.frame_truth = {
            t.video_id: reference.frame_labels(
                [(iv.label, iv.start_s, iv.end_s) for iv in t.intervals],
                t.duration_s, self.FPS, vocab.background)
            for t in tracks}
        self.slot_truth = {t.video_id: _gt_grid(t, vocab) for t in tracks}
        self.frames_per_round = sum(len(v) for v in self.frame_truth.values())
        self.pm_sha = None
        self.expected = None

    def _reference_from_pm(self) -> list[str]:
        """Check the Perfect-Model file, then rank its scores independently."""
        problems = []
        classes = self.manifest.vocabulary.classes
        decisions, scores = {}, {}
        for line in self.pm_path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            target = decisions if rec["record"] == "decisions" else scores
            target[rec["video_id"]] = rec
        labels, columns = [], [[] for _ in classes]
        for vid, truth in self.frame_truth.items():
            if decisions.get(vid, {}).get("labels") != self.slot_truth[vid]:
                problems.append(f"{vid}: Perfect-Model decisions != ground truth")
            rows = scores.get(vid, {}).get("scores", [])
            if len(rows) != len(truth):
                problems.append(f"{vid}: {len(rows)} score rows, expected {len(truth)}")
                continue
            for row, lab in zip(rows, truth):
                hot = [i for i, x in enumerate(row) if x == 1.0]
                if sum(row) != 1.0 or len(hot) != 1 or (
                        lab in classes and classes[hot[0]] != lab):
                    problems.append(f"{vid}: score row {row} for {lab!r}")
                    break
            labels.extend(truth)
            for col, values in zip(columns, zip(*rows)):
                col.extend(values)
        self.expected = {
            metric: reference.ranked_ap(columns, labels, classes,
                                        calibrated=(metric == "cap"))
            for metric in ("map", "cap")}
        return problems

    def _check(self, codes) -> list[str]:
        problems = [f"command {i} exited {c}" for i, c in enumerate(codes) if c]
        sha = _sha(self.pm_path)
        if self.pm_sha is None:
            self.pm_sha = sha
            problems += self._reference_from_pm()
        elif sha != self.pm_sha:
            problems.append("baseline output differs between repetitions")
        for metric, expected in self.expected.items():
            got = json.loads((self.out_dir / f"offline_{metric}.json").read_text(
                encoding="utf-8"))
            if sorted(got["per_class"]) != sorted(expected) or any(
                    abs(got["per_class"][c] - v) > 1e-6 for c, v in expected.items()):
                problems.append(f"{metric}: per-class values differ from reference")
            mean = sum(expected.values()) / len(expected)
            if abs(got["mean"] - mean) > 1e-6:
                problems.append(f"{metric}: mean {got['mean']} != reference {mean}")
        return problems

    def run(self, seconds, recorder=None) -> Measurement:
        m = Measurement(items_per_step=self.frames_per_round)
        gt_bytes = self.gt_path.stat().st_size
        deadline = perf_counter() + seconds
        while True:
            codes, total = [], 0.0
            for part, argv in self.commands:
                code, dt = _quiet_cli(argv)
                codes.append(code)
                total += dt
                m.part_s.setdefault(part, []).append(dt)
            m.step_s.append(total)
            m.probe_s.append(probe_s())
            m.attempted += len(self.commands)
            problems = self._check(codes)
            if problems:
                m.fail(max(1, sum(1 for c in codes if c)), "; ".join(problems))
            if recorder is not None:
                recorder.add("formats.input_bytes",
                             3 * gt_bytes + 2 * self.pm_path.stat().st_size)
            if perf_counter() >= deadline:
                return m


WORKLOADS = {
    "evaluate_dense": EvaluateDense,
    "live_stream": LiveStream,
    "offline_rank": OfflineRank,
}
