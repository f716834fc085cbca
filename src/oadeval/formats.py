"""Annotation and prediction file formats, plus dataset adapters.

The canonical formats are JSON Lines: one self-describing record per
line, streamable and diff-friendly. Field names carry their units
(``start_s``, ``end_s``, ``delta_t_s``, ``fps``).

Ground truth::

    {"record": "vocabulary", "classes": [...], "background": "background"}
    {"record": "video", "video_id": "...", "duration_s": 10.0,
     "intervals": [{"label": "jump", "start_s": 2.0, "end_s": 5.0}],
     "multi_label": false}

Predictions (any mix of record kinds, at most one stream per video)::

    {"record": "decisions", "video_id": "...", "delta_t_s": 0.5,
     "labels": ["background", "jump", ...]}
    {"record": "detections", "video_id": "...",
     "events": [{"label": "jump", "start_s": 2.0, "end_s": 4.0}]}
    {"record": "scores", "video_id": "...", "fps": 2.0,
     "scores": [[0.1, 0.9], ...]}

Structural problems (bad JSON, wrong types, unknown record kinds) raise
:class:`ParseError` with the file location; semantic problems (unknown
labels, bounds) raise validation errors naming the video.
:func:`read_predictions` alone decides which prediction record belongs
to which video, and reports unknown, duplicate and missing records per
video with their line. Adapters for ActivityNet-style JSON and Thumos-style
per-class text files convert external ground truth into the canonical
model; durations for Thumos come from a sidecar table because its
annotation files carry none.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import ParseError, ValidationError
from .offline import FrameScoreMatrix, frame_count
from .timeline import (
    DEFAULT_BACKGROUND,
    AnnotationTrack,
    LabelVocabulary,
    PredictionStream,
    TimeInterval,
    events_to_stream,
    num_slots,
    seconds_to_us,
)


@dataclass(frozen=True)
class CorpusManifest:
    """A vocabulary plus the tracks loaded from one source.

    Construction checks only that video ids are unique. Interval labels
    are checked against the vocabulary where they are read: with their
    line by :func:`load_canonical_gt`, and by the rasterizers
    (:func:`~oadeval.timeline.discretize`,
    :func:`~oadeval.offline.rasterize_frames`) when a track is used.
    """

    vocabulary: LabelVocabulary
    tracks: tuple[AnnotationTrack, ...]
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        seen = set()
        for track in self.tracks:
            if track.video_id in seen:
                raise ValidationError(f"duplicate video id {track.video_id!r}")
            seen.add(track.video_id)

    def by_id(self) -> dict[str, AnnotationTrack]:
        return {t.video_id: t for t in self.tracks}


@dataclass
class LoadReport:
    """Deterministic account of what an adapter skipped or repaired."""

    warnings: list[str] = field(default_factory=list)
    videos_loaded: int = 0
    videos_skipped: int = 0

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def finalize(self) -> "LoadReport":
        self.warnings.sort()
        return self


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# low-level record handling

def _iter_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}",
                             path=str(path), line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object",
                             path=str(path), line=lineno)
        yield lineno, obj


_SCORE_TYPES = {int, float}


def _is_number(value) -> bool:
    """True for a finite int or float; bools and NaN/Infinity are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _require(obj: dict, key: str, types, path, lineno):
    if key not in obj:
        raise ParseError("missing field", path=str(path), line=lineno, field=key)
    value = obj[key]
    if not isinstance(value, types):
        raise ParseError(f"expected {types} but got {type(value).__name__}",
                         path=str(path), line=lineno, field=key)
    if types == (int, float) and not _is_number(value):
        raise ParseError(f"expected a finite number but got {value!r}",
                         path=str(path), line=lineno, field=key)
    return value


def _parse_interval(entry: Any, path, lineno) -> TimeInterval:
    if not isinstance(entry, dict):
        raise ParseError("interval must be an object",
                         path=str(path), line=lineno, field="intervals")
    label = _require(entry, "label", str, path, lineno)
    start = _require(entry, "start_s", (int, float), path, lineno)
    end = _require(entry, "end_s", (int, float), path, lineno)
    return TimeInterval(label=label, start_s=float(start), end_s=float(end))


# ---------------------------------------------------------------------------
# canonical ground truth

def load_canonical_gt(path: str | Path) -> CorpusManifest:
    """Parse a canonical ground-truth file into a validated manifest."""
    vocab = None
    tracks = []
    for lineno, obj in _iter_json_lines(path):
        kind = _require(obj, "record", str, path, lineno)
        if kind == "vocabulary":
            if vocab is not None:
                raise ParseError("duplicate vocabulary record",
                                 path=str(path), line=lineno)
            classes = _require(obj, "classes", list, path, lineno)
            if not all(isinstance(c, str) for c in classes):
                raise ParseError("classes must be strings",
                                 path=str(path), line=lineno, field="classes")
            background = _require(obj, "background", str, path, lineno)
            vocab = LabelVocabulary(classes=tuple(classes), background=background)
        elif kind == "video":
            if vocab is None:
                raise ParseError("vocabulary record must precede video records",
                                 path=str(path), line=lineno)
            video_id = _require(obj, "video_id", str, path, lineno)
            duration = _require(obj, "duration_s", (int, float), path, lineno)
            raw = _require(obj, "intervals", list, path, lineno)
            multi = obj.get("multi_label", False)
            if not isinstance(multi, bool):
                raise ParseError("expected a boolean", path=str(path),
                                 line=lineno, field="multi_label")
            intervals = tuple(_parse_interval(e, path, lineno) for e in raw)
            try:
                for iv in intervals:
                    if not vocab.is_action(iv.label):
                        raise ValidationError(
                            f"video {video_id!r}: background intervals are "
                            "implicit, never stored")
                tracks.append(AnnotationTrack(
                    video_id=video_id, duration_s=float(duration),
                    intervals=intervals, multi_label=multi))
            except ValidationError as exc:
                raise type(exc)(f"{path}, line {lineno}: {exc}") from exc
        else:
            raise ParseError(f"unknown record kind {kind!r}",
                             path=str(path), line=lineno, field="record")
    if vocab is None:
        raise ParseError("no vocabulary record found", path=str(path))
    return CorpusManifest(vocabulary=vocab, tracks=tuple(tracks),
                          source=f"canonical:{file_digest(path)}")


def write_canonical_gt(manifest: CorpusManifest, path: str | Path) -> None:
    lines = [json.dumps({
        "record": "vocabulary",
        "classes": list(manifest.vocabulary.classes),
        "background": manifest.vocabulary.background,
    }, sort_keys=True)]
    for track in manifest.tracks:
        lines.append(json.dumps({
            "record": "video",
            "video_id": track.video_id,
            "duration_s": track.duration_s,
            "intervals": [
                {"label": iv.label, "start_s": iv.start_s, "end_s": iv.end_s}
                for iv in track.intervals
            ],
            "multi_label": track.multi_label,
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# dataset adapters

def load_activitynet_gt(path: str | Path, subset: str = "validation",
                        ) -> tuple[CorpusManifest, LoadReport]:
    """Convert an ActivityNet-style structured annotation file.

    Keeps only videos of the requested subset. Videos without a duration
    are skipped with a warning; segments reaching past the stated
    duration are clamped (such annotations exist in the wild), segments
    left empty by clamping are dropped.
    """
    report = LoadReport()
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=str(path),
                         line=exc.lineno) from exc
    if not isinstance(data, dict) or not isinstance(data.get("database"), dict):
        raise ParseError("expected an object with a 'database' mapping",
                         path=str(path), field="database")

    tracks = []
    labels_seen = set()
    for video_id in sorted(data["database"]):
        entry = data["database"][video_id]
        if not isinstance(entry, dict):
            raise ParseError(f"video {video_id!r} entry must be an object",
                             path=str(path), field="database")
        if entry.get("subset") != subset:
            continue
        duration = entry.get("duration")
        if not _is_number(duration) or duration <= 0:
            report.warn(f"video {video_id!r}: missing or invalid duration; skipped")
            report.videos_skipped += 1
            continue
        intervals = []
        for ann in entry.get("annotations", []):
            if not isinstance(ann, dict):
                ann = {}  # fails the check below, with the video named
            segment = ann.get("segment")
            label = ann.get("label")
            if (not isinstance(segment, (list, tuple)) or len(segment) != 2
                    or not all(map(_is_number, segment))
                    or not isinstance(label, str) or not label):
                raise ParseError(
                    f"video {video_id!r}: annotation needs a 'segment' of two "
                    "finite numbers and a non-empty string 'label'",
                    path=str(path))
            start, end = float(segment[0]), float(segment[1])
            if start < 0:
                report.warn(f"video {video_id!r}: segment start {start} "
                            "clamped to 0")
                start = 0.0
            if end > duration:
                report.warn(f"video {video_id!r}: segment end {end} clamped "
                            f"to duration {duration}")
                end = float(duration)
            if seconds_to_us(end) <= seconds_to_us(start):
                report.warn(f"video {video_id!r}: segment [{segment[0]}, "
                            f"{segment[1]}] empty after clamping; dropped")
                continue
            if label == DEFAULT_BACKGROUND:
                raise ParseError(
                    f"video {video_id!r}: label {label!r} is the background "
                    "label, not an action class", path=str(path))
            intervals.append(TimeInterval(label=label, start_s=start, end_s=end))
            labels_seen.add(label)
        tracks.append(AnnotationTrack(
            video_id=video_id, duration_s=float(duration),
            intervals=tuple(intervals), multi_label=True))
        report.videos_loaded += 1
    if not tracks:
        report.warn(f"no videos found for subset {subset!r}")

    vocab = LabelVocabulary(classes=tuple(sorted(labels_seen)))
    manifest = CorpusManifest(vocabulary=vocab, tracks=tuple(tracks),
                              source=f"activitynet:{file_digest(path)}")
    return manifest, report.finalize()


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _read_duration_table(path: str | Path) -> dict[str, float]:
    durations = {}
    for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'video_id duration_s'",
                             path=str(path), line=lineno)
        try:
            duration = _finite_float(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad duration {parts[1]!r}",
                             path=str(path), line=lineno) from exc
        if duration <= 0:
            raise ParseError(f"video {parts[0]!r}: duration {duration} "
                             "must be > 0", path=str(path), line=lineno)
        durations[parts[0]] = duration
    return durations


def load_thumos_gt(dir_path: str | Path,
                   durations_path: str | Path) -> CorpusManifest:
    """Merge Thumos-style per-class annotation files into one manifest.

    Every ``*.txt`` file in the directory contributes one class (named
    after the file, minus a trailing ``_val``/``_test``); rows are
    ``video_id start_s end_s``. Overlapping rows are kept as-is (tracks
    are multi-label; the discretizer resolves them). Durations come from
    the sidecar table; rows naming a video absent from it are an error.
    """
    dir_path = Path(dir_path)
    durations = _read_duration_table(durations_path)
    sidecar = Path(durations_path).resolve()
    class_files = sorted(p for p in dir_path.glob("*.txt")
                         if p.resolve() != sidecar)
    if not class_files:
        raise ParseError("no per-class .txt annotation files found",
                         path=str(dir_path))

    intervals_by_video: dict[str, list[TimeInterval]] = {}
    classes = []
    for class_file in class_files:
        cls = class_file.stem
        for suffix in ("_val", "_test"):
            if cls.endswith(suffix):
                cls = cls[: -len(suffix)]
        if cls == DEFAULT_BACKGROUND:
            raise ParseError(f"class {cls!r} is the background label, "
                             "not an action class", path=str(class_file))
        classes.append(cls)
        for lineno, line in enumerate(
                class_file.read_text(encoding="utf-8").splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("expected 'video_id start_s end_s'",
                                 path=str(class_file), line=lineno)
            try:
                start, end = _finite_float(parts[1]), _finite_float(parts[2])
            except ValueError as exc:
                raise ParseError(f"bad timestamp in {parts[1:]!r}",
                                 path=str(class_file), line=lineno) from exc
            vid = parts[0]
            try:
                interval = TimeInterval(label=cls, start_s=start, end_s=end)
            except ValidationError as exc:
                raise ParseError(str(exc), path=str(class_file),
                                 line=lineno) from exc
            if (vid in durations
                    and interval.end_us > seconds_to_us(durations[vid])):
                raise ParseError(
                    f"video {vid!r}: interval [{start}, {end}) exceeds "
                    f"duration {durations[vid]}",
                    path=str(class_file), line=lineno)
            intervals_by_video.setdefault(vid, []).append(interval)

    unknown = sorted(set(intervals_by_video) - set(durations))
    if unknown:
        raise ValidationError(
            f"videos missing from the duration table: {unknown}")

    tracks = tuple(
        AnnotationTrack(video_id=vid, duration_s=durations[vid],
                        intervals=tuple(ivs), multi_label=True)
        for vid, ivs in sorted(intervals_by_video.items())
    )
    vocab = LabelVocabulary(classes=tuple(sorted(set(classes))))
    return CorpusManifest(vocabulary=vocab, tracks=tracks,
                          source=f"thumos:{file_digest(durations_path)}")


# ---------------------------------------------------------------------------
# predictions

def iter_prediction_records(path: str | Path,
                            ) -> Iterator[tuple[int, str, dict]]:
    """Yield structurally valid (line, kind, record) prediction entries."""
    for lineno, obj in _iter_json_lines(path):
        kind = _require(obj, "record", str, path, lineno)
        if kind not in ("decisions", "detections", "scores"):
            raise ParseError(f"unknown record kind {kind!r}",
                             path=str(path), line=lineno, field="record")
        _require(obj, "video_id", str, path, lineno)
        yield lineno, kind, obj


def build_stream(kind: str, obj: dict, track: AnnotationTrack,
                 vocab: LabelVocabulary, delta_t_s: float) -> PredictionStream:
    """Validate one decisions/detections record against its track."""
    video_id = obj["video_id"]
    if kind == "decisions":
        record_delta = obj.get("delta_t_s")
        if not _is_number(record_delta):
            raise ValidationError(
                f"video {video_id!r}: decisions record needs numeric delta_t_s")
        if seconds_to_us(float(record_delta)) != seconds_to_us(delta_t_s):
            raise ValidationError(
                f"video {video_id!r}: decisions at delta_t {record_delta} s "
                f"cannot be evaluated at delta_t {delta_t_s} s")
        labels = obj.get("labels")
        if not isinstance(labels, list) or not all(
                isinstance(lab, str) for lab in labels):
            raise ValidationError(
                f"video {video_id!r}: labels must be a list of strings")
        expected = num_slots(track.duration_s, delta_t_s)
        if not labels:
            raise ValidationError(f"video {video_id!r}: missing predictions")
        if len(labels) > expected:
            raise ValidationError(
                f"video {video_id!r}: {len(labels)} decisions exceed the "
                f"{expected} slots of a {track.duration_s} s video")
        if len(labels) < expected:
            raise ValidationError(
                f"video {video_id!r}: {len(labels)} decisions cover only part "
                f"of the {expected}-slot timeline")
        stream = PredictionStream(video_id, delta_t_s, vocab, num_slots=expected)
        stream.extend(labels)
        return stream
    if kind == "detections":
        events = obj.get("events")
        if not isinstance(events, list):
            raise ValidationError(f"video {video_id!r}: events must be a list")
        intervals = []
        for entry in events:
            if (not isinstance(entry, dict)
                    or not isinstance(entry.get("label"), str)
                    or not _is_number(entry.get("start_s"))
                    or not _is_number(entry.get("end_s"))):
                raise ValidationError(
                    f"video {video_id!r}: each event needs a label, "
                    "start_s and end_s")
            intervals.append(TimeInterval(
                label=entry["label"],
                start_s=float(entry["start_s"]), end_s=float(entry["end_s"])))
        return events_to_stream(intervals, video_id, track.duration_s,
                                delta_t_s, vocab)
    raise ValidationError(f"record kind {kind!r} is not a stream")


def build_scores(obj: dict, track: AnnotationTrack,
                 vocab: LabelVocabulary) -> FrameScoreMatrix:
    """Validate one scores record against its track."""
    video_id = obj["video_id"]
    fps = obj.get("fps")
    if not _is_number(fps) or fps <= 0:
        raise ValidationError(f"video {video_id!r}: scores record needs fps > 0")
    rows = obj.get("scores")
    if not isinstance(rows, list):
        raise ValidationError(f"video {video_id!r}: scores must be a list of rows")
    n_classes = len(vocab.classes)
    for row in rows:
        # exact types: bool is an int subclass but never a score
        if (not isinstance(row, list) or len(row) != n_classes
                or not set(map(type, row)) <= _SCORE_TYPES):
            raise ValidationError(
                f"video {video_id!r}: each score row needs {n_classes} numbers")
    expected = frame_count(track.duration_s, float(fps))
    if len(rows) != expected:
        raise ValidationError(
            f"video {video_id!r}: {len(rows)} score rows but a "
            f"{track.duration_s} s video at {fps} fps has {expected} frames")
    try:
        matrix = np.array(rows, dtype=float).reshape(len(rows), n_classes)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValidationError(
            f"video {video_id!r}: score beyond the float range") from exc
    return FrameScoreMatrix(video_id, float(fps), matrix)


def read_predictions(path: str | Path, manifest: CorpusManifest,
                     kinds: tuple[str, ...],
                     ) -> tuple[dict[str, tuple[int, str, dict]],
                                dict[str, str]]:
    """Match a prediction file's records of ``kinds`` to the manifest videos.

    Returns ``(records, failures)``. ``records`` maps each manifest video
    with exactly one record of ``kinds`` to that record as
    ``(line, kind, record)``; records of other kinds are skipped.
    ``failures`` maps every other video id to why it has no usable
    record: a record of any kind names a video absent from the manifest,
    a second record of ``kinds`` names it (the message gives the line of
    that second record), or no record names it at all.
    """
    tracks = manifest.by_id()
    noun = "frame scores" if kinds == ("scores",) else "predictions"
    records: dict[str, tuple[int, str, dict]] = {}
    failures: dict[str, str] = {}
    for lineno, kind, obj in iter_prediction_records(path):
        video_id = obj["video_id"]
        if video_id not in tracks:
            failures.setdefault(
                video_id, f"line {lineno}: predictions for unknown video")
        elif kind not in kinds:
            continue
        elif video_id in records:
            first = records.pop(video_id)[0]
            failures[video_id] = (f"line {lineno}: duplicate {noun} "
                                  f"(first at line {first})")
        elif video_id not in failures:
            records[video_id] = (lineno, kind, obj)
    for video_id in sorted(tracks):
        if video_id not in records and video_id not in failures:
            failures[video_id] = f"missing {noun}"
    return records, failures


def load_scores(path: str | Path, manifest: CorpusManifest,
                ) -> dict[str, FrameScoreMatrix]:
    """Load the frame-score side of a prediction file (for mAP / cAP).

    Any video that :func:`read_predictions` cannot match, or whose scores
    are invalid, fails the whole load.
    """
    records, failures = read_predictions(path, manifest, ("scores",))
    for video_id, message in failures.items():
        raise ValidationError(f"{path}: video {video_id!r}: {message}")
    tracks = manifest.by_id()
    scores: dict[str, FrameScoreMatrix] = {}
    for video_id, (lineno, _, obj) in records.items():
        try:
            scores[video_id] = build_scores(obj, tracks[video_id],
                                            manifest.vocabulary)
        except ValidationError as exc:
            raise type(exc)(f"{path}, line {lineno}: {exc}") from exc
    return scores


def write_predictions(path: str | Path, streams=(), score_matrices=()) -> None:
    """Emit canonical decisions (and scores) records, sorted by video id."""
    lines = []
    for stream in sorted(streams, key=lambda s: s.video_id):
        lines.append(json.dumps({
            "record": "decisions",
            "video_id": stream.video_id,
            "delta_t_s": stream.delta_t_s,
            "labels": list(stream.decisions),
        }, sort_keys=True))
    for matrix in sorted(score_matrices, key=lambda m: m.video_id):
        lines.append(json.dumps({
            "record": "scores",
            "video_id": matrix.video_id,
            "fps": matrix.fps,
            "scores": matrix.scores.tolist(),
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
