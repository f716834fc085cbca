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

Every record passes the same field checks (:func:`_require`,
:func:`_parse_interval`): structural problems (bad JSON, missing fields,
wrong types, non-finite numbers, unknown record kinds) raise
:class:`ParseError` naming the field, with the file and line;
semantic problems (unknown labels, bounds, slot counts) raise
validation errors naming the video. A list of intervals or events, a
record's labels and its score rows are first checked as a whole, with
one type set per column; only when that check fails are the entries
checked one by one, which locates the fault. A valid interval list
becomes :class:`~oadeval.timeline.IntervalColumns` straight from its
numbers, sorted once, with no object per interval
(:func:`_parse_intervals`); its labels, ends and overlaps are then
checked a column at a time too, and the entries are read as
:class:`TimeInterval` objects only to name a fault.
A prediction record's own checks
(:func:`build_stream`, :func:`build_scores`) leave the line to the
caller, which knows it.
:func:`read_predictions` alone decides which prediction record belongs
to which video, and reports unknown, duplicate and missing records per
video with their line. :func:`write_predictions` writes each record as
``json.dumps(..., sort_keys=True)`` does, byte for byte; a score matrix
goes out a block of rows at a time, each block's cells gathered from a
table that holds the text of each distinct value once. Every file the
toolkit writes goes through :func:`open_output`, which rewrites it in
place, and empties and removes it if the write fails. Adapters for
ActivityNet-style JSON and Thumos-style per-class text files convert
external ground truth into the canonical model; durations for Thumos
come from a sidecar table because its annotation files carry none.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import stat
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import EvaluationError, ParseError, ValidationError
from .offline import FrameScoreMatrix, frame_count
from .timeline import (
    DEFAULT_BACKGROUND,
    US_PER_S,
    AnnotationTrack,
    IntervalColumns,
    LabelVocabulary,
    PredictionStream,
    TimeInterval,
    check_ends,
    events_to_stream,
    num_slots,
    seconds_to_us,
    slot_us,
)


@dataclass(frozen=True)
class CorpusManifest:
    """A vocabulary plus the tracks loaded from one source.

    Construction checks only that video ids are unique. Interval labels
    are checked against the vocabulary where they are read, by one rule
    (:meth:`~oadeval.timeline.IntervalColumns.class_codes`): with their
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# low-level record handling

def _read_text(path: str | Path) -> tuple[bytes, str]:
    """A file's bytes, read once, and their UTF-8 text.

    ``"\\r\\n"`` and ``"\\r"`` in the text become ``"\\n"``, as
    :meth:`Path.read_text` translates them, and a line ends only at
    ``"\\n"``: the other line boundaries of :meth:`str.splitlines`, such
    as U+2028, are characters like any other, as they are in a JSON
    string. Bytes that are not UTF-8 raise a :class:`ParseError` on the
    line of the first bad byte.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[:exc.start].decode("utf-8"))
        raise ParseError(f"not UTF-8: {exc.reason} {data[exc.start]:#04x}",
                         path=str(path), line=before.count("\n") + 1
                         ) from exc
    return data, _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    # most files hold no "\r", and one search costs about 1% of two replaces
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _iter_records(path: str, text: str, kinds: tuple[str, ...],
                  ) -> Iterator[tuple[int, str, dict]]:
    """``(line, kind, record)`` of each non-blank line of ``text``.

    Each line must be a JSON object whose ``record`` field is a string
    among ``kinds``; anything else is a :class:`ParseError` on its line.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}",
                             path=path, line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object",
                             path=path, line=lineno)
        kind = _require(obj, "record", str, path, lineno)
        if kind not in kinds:
            raise ParseError(f"unknown record kind {kind!r}",
                             path=path, line=lineno, field="record")
        yield lineno, kind, obj


# exact types: bool is an int subclass but never a number here
_NUMBER_TYPES = {int, float}


def _is_number(value) -> bool:
    """True for a finite int or float; bools and NaN/Infinity are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# what _require's type error calls each accepted ``types``
_KINDS = {str: "a string", list: "a list", (int, float): "a number"}


def _require(obj: dict, key: str, types, path=None, lineno=None):
    """``obj[key]`` if it is one of ``types``, else a :class:`ParseError`.

    ``types`` is one of ``str``, ``list`` or ``(int, float)``, and the
    type error names it in words. ``(int, float)`` means a finite
    number: bools, NaN and infinities fail, and the error shows at most
    40 characters of the value. A missing ``path`` or ``lineno`` is left
    out of the message.
    """
    if key not in obj:
        raise ParseError("missing field", path=path, line=lineno, field=key)
    value = obj[key]
    if not isinstance(value, types):
        raise ParseError(
            f"expected {_KINDS[types]} but got {type(value).__name__}",
            path=path, line=lineno, field=key)
    if types == (int, float) and not _is_number(value):
        shown = repr(value)
        if len(shown) > 40:
            shown = f"{shown[:37]}..."
        raise ParseError(f"expected a finite number but got {shown}",
                         path=path, line=lineno, field=key)
    return value


def _parse_interval(entry: Any, path=None, lineno=None,
                    key="intervals") -> TimeInterval:
    """One ``{"label", "start_s", "end_s"}`` entry of the list ``key``.

    The grammar's one interval rule, for ground-truth ``intervals`` and
    detection ``events`` alike: a non-object entry is a
    :class:`ParseError` on ``key``, a bad field one on that field; the
    :class:`TimeInterval` checks (start >= 0, positive length) follow.
    """
    if not isinstance(entry, dict):
        raise ParseError("interval must be an object",
                         path=path, line=lineno, field=key)
    label = _require(entry, "label", str, path, lineno)
    start = _require(entry, "start_s", (int, float), path, lineno)
    end = _require(entry, "end_s", (int, float), path, lineno)
    return TimeInterval(label=label, start_s=float(start), end_s=float(end))


def _parse_intervals(raw: list, path=None, lineno=None,
                     key="intervals") -> IntervalColumns:
    """Every entry of the list ``key``, as :func:`_parse_interval` parses it.

    The entries become :class:`~oadeval.timeline.IntervalColumns`, with
    no :class:`TimeInterval` object per entry. A list passes
    whole-column checks at once: every entry is an object, every label
    a non-empty ``str``, every time an ``int`` or ``float`` (so not a
    ``bool``); as float64 columns, every start is >= 0 and every end
    times 10**6 is below 2**63, the bound of ``seconds_to_us`` (so every
    time is finite, and ``np.rint`` of each product is the ``round``
    that ``seconds_to_us`` takes, since products of 2**52 and more are
    integers already), and every interval's length is positive in
    microseconds. Every valid list passes them; if any check fails or
    raises, the entries are parsed one by one instead, so the same error
    names the same entry.
    """
    try:
        if set(map(type, raw)) <= {dict}:
            labels = [e["label"] for e in raw]
            times = [e["start_s"] for e in raw], [e["end_s"] for e in raw]
            if (set(map(type, labels)) <= {str} and all(labels)
                    and set(map(type, chain(*times))) <= _NUMBER_TYPES):
                times_s = np.array(times, float)
                # NaN and infinities fail these two checks, in Python
                # floats, before any array arithmetic could warn of them
                if (times_s.min(initial=0) >= 0 and
                        float(times_s.max(initial=0)) * US_PER_S < 2 ** 63):
                    us = np.rint(times_s * US_PER_S).astype(np.int64)
                    if (us[1] - us[0]).min(initial=1) > 0:
                        return IntervalColumns.sort(labels, *us, times_s)
    except (KeyError, OverflowError):  # a missing field, a huge integer
        pass
    return IntervalColumns.of(_parse_interval(e, path, lineno, key)
                              for e in raw)


# ---------------------------------------------------------------------------
# canonical ground truth

def load_canonical_gt(path: str | Path) -> CorpusManifest:
    """Parse a canonical ground-truth file into a validated manifest.

    Every error names the file and line. A repeated ``video_id`` names
    the line of the first record with that id as well.
    """
    path = str(path)
    data, text = _read_text(path)
    vocab = None
    tracks = []
    first_lines: dict[str, int] = {}
    for lineno, kind, obj in _iter_records(path, text, ("vocabulary", "video")):
        try:
            if kind == "vocabulary":
                if vocab is not None:
                    raise ParseError("duplicate vocabulary record",
                                     path=path, line=lineno)
                classes = _require(obj, "classes", list, path, lineno)
                if not all(isinstance(c, str) for c in classes):
                    raise ParseError("classes must be strings",
                                     path=path, line=lineno, field="classes")
                background = _require(obj, "background", str, path, lineno)
                vocab = LabelVocabulary(classes=tuple(classes),
                                        background=background)
            else:
                if vocab is None:
                    raise ParseError(
                        "vocabulary record must precede video records",
                        path=path, line=lineno)
                video_id = _require(obj, "video_id", str, path, lineno)
                if video_id in first_lines:
                    raise ValidationError(
                        f"duplicate video id {video_id!r} "
                        f"(first at line {first_lines[video_id]})")
                duration = _require(obj, "duration_s", (int, float), path,
                                    lineno)
                raw = _require(obj, "intervals", list, path, lineno)
                multi = obj.get("multi_label", False)
                if not isinstance(multi, bool):
                    raise ParseError("expected a boolean", path=path,
                                     line=lineno, field="multi_label")
                intervals = _parse_intervals(raw, path, lineno)
                intervals.class_codes(vocab)  # checked here, with the line
                tracks.append(AnnotationTrack(
                    video_id=video_id, duration_s=float(duration),
                    intervals=intervals, multi_label=multi))
                first_lines[video_id] = lineno
        except ValidationError as exc:
            raise type(exc)(f"{path}, line {lineno}: {exc}") from exc
    if vocab is None:
        raise ParseError("no vocabulary record found", path=path)
    return CorpusManifest(vocabulary=vocab, tracks=tuple(tracks),
                          source=f"canonical:{_digest(data)}")


# an existing output is opened as it is, not cut to zero bytes: on ext4
# that cut makes closing the file start writing its data back at once
_OUTPUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


@contextlib.contextmanager
def open_output(path: str | Path) -> Iterator:
    """A binary file to write an output to, rewritten in place.

    The new bytes go over the old ones from the start of the file, and a
    regular file is then cut to the length written, so it holds exactly
    the new bytes, in the same inode and with the same mode (as a
    truncating ``open(path, "wb")`` leaves them). If the block raises,
    a regular file is cut to zero bytes (after the close, which flushes
    the buffer) and removed, and the error goes on: another hard link,
    or the file a symlink named, is left empty, never holding a mix of
    two runs. A FIFO or a device is only written: it is neither cut nor
    removed.
    """
    out = open(os.open(path, _OUTPUT_FLAGS, 0o666), "wb")
    regular = False
    try:
        with out:
            regular = stat.S_ISREG(os.fstat(out.fileno()).st_mode)
            yield out
            if regular:
                out.truncate()
    except BaseException:
        if regular:
            os.truncate(path, 0)
            os.unlink(path)
        raise


def write_canonical_gt(manifest: CorpusManifest, path: str | Path) -> None:
    vocab = manifest.vocabulary
    records = chain([{"record": "vocabulary", "classes": list(vocab.classes),
                      "background": vocab.background}], ({
        "record": "video",
        "video_id": track.video_id,
        "duration_s": track.duration_s,
        "intervals": [{"label": iv.label, "start_s": iv.start_s,
                       "end_s": iv.end_s} for iv in track.intervals],
        "multi_label": track.multi_label,
    } for track in manifest.tracks))
    with open_output(path) as out:
        for record in records:
            out.write(json.dumps(record, sort_keys=True).encode() + b"\n")


# ---------------------------------------------------------------------------
# dataset adapters

def load_activitynet_gt(path: str | Path, subset: str = "validation",
                        ) -> tuple[CorpusManifest, LoadReport]:
    """Convert an ActivityNet-style structured annotation file.

    Keeps only videos of the requested subset. Videos without a valid
    duration, a number of seconds above 0 and below 2**63 microseconds,
    are skipped with a warning; segments reaching past the stated
    duration are clamped (such annotations exist in the wild), segments
    left empty by clamping are dropped.
    """
    report = LoadReport()
    raw, text = _read_text(path)
    try:
        data = json.loads(text)
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
        # a duration past seconds_to_us's range is invalid too
        if not _is_number(duration) or not 0 < duration * US_PER_S < 2 ** 63:
            report.warn(f"video {video_id!r}: missing or invalid duration; skipped")
            report.videos_skipped += 1
            continue
        annotations = entry.get("annotations", [])
        if not isinstance(annotations, list):
            raise ParseError(
                f"video {video_id!r}: 'annotations' must be a list, not "
                f"{type(annotations).__name__}", path=str(path))
        intervals = []
        for ann in annotations:
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
            # a start past the clamped end is never converted
            if end <= start or seconds_to_us(end) <= seconds_to_us(start):
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
                              source=f"activitynet:{_digest(raw)}")
    return manifest, report.finalize()


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _read_duration_table(path: str | Path, text: str) -> dict[str, float]:
    durations = {}
    first_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'video_id duration_s'",
                             path=str(path), line=lineno)
        if parts[0] in first_lines:
            raise ParseError(f"duplicate video id {parts[0]!r} "
                             f"(first at line {first_lines[parts[0]]})",
                             path=str(path), line=lineno)
        first_lines[parts[0]] = lineno
        try:
            duration = _finite_float(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad duration {parts[1]!r}",
                             path=str(path), line=lineno) from exc
        if not 0 < duration * US_PER_S < 2 ** 63:  # seconds_to_us's range
            raise ParseError(f"video {parts[0]!r}: duration {duration} must "
                             "be > 0 and below 2**63 microseconds",
                             path=str(path), line=lineno)
        durations[parts[0]] = duration
    return durations


def load_thumos_gt(dir_path: str | Path,
                   durations_path: str | Path) -> CorpusManifest:
    """Merge Thumos-style per-class annotation files into one manifest.

    Every ``*.txt`` file in the directory contributes one class (named
    after the file, minus one trailing ``_val`` or ``_test``); rows are
    ``video_id start_s end_s``, and each must end within its video
    (:func:`~oadeval.timeline.check_ends`). Overlapping rows are kept
    as-is (tracks are multi-label; the discretizer resolves them).
    Durations come from the sidecar table, each above 0 and below 2**63
    microseconds; rows naming a video absent from it are an error, which
    names each such video with its first row, and so is a video id the
    sidecar repeats.
    """
    dir_path = Path(dir_path)
    raw, text = _read_text(durations_path)
    durations = _read_duration_table(durations_path, text)
    sidecar = Path(durations_path).resolve()
    class_files = sorted(p for p in dir_path.glob("*.txt")
                         if p.resolve() != sidecar)
    if not class_files:
        raise ParseError("no per-class .txt annotation files found",
                         path=str(dir_path))

    intervals_by_video: dict[str, list[TimeInterval]] = {}
    first_rows: dict[str, str] = {}
    classes = []
    for class_file in class_files:
        cls = re.sub(r"_(val|test)\Z", "", class_file.stem)
        if cls == DEFAULT_BACKGROUND:
            raise ParseError(f"class {cls!r} is the background label, "
                             "not an action class", path=str(class_file))
        classes.append(cls)
        for lineno, line in enumerate(
                _read_text(class_file)[1].split("\n"), start=1):
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
                if vid in durations:
                    check_ends((interval,), durations[vid], vid)
            except ValidationError as exc:
                raise ParseError(str(exc), path=str(class_file),
                                 line=lineno) from exc
            intervals_by_video.setdefault(vid, []).append(interval)
            first_rows.setdefault(vid, f"{class_file}, line {lineno}")

    unknown = sorted(set(intervals_by_video) - set(durations))
    if unknown:
        raise ValidationError(
            f"videos missing from the duration table {durations_path}: "
            + ", ".join(f"{vid!r} (first at {first_rows[vid]})"
                        for vid in unknown))

    tracks = tuple(
        AnnotationTrack(video_id=vid, duration_s=durations[vid],
                        intervals=tuple(ivs), multi_label=True)
        for vid, ivs in sorted(intervals_by_video.items())
    )
    vocab = LabelVocabulary(classes=tuple(sorted(set(classes))))
    return CorpusManifest(vocabulary=vocab, tracks=tracks,
                          source=f"thumos:{_digest(raw)}")


# ---------------------------------------------------------------------------
# predictions

def iter_prediction_records(path: str | Path,
                            ) -> Iterator[tuple[int, str, dict]]:
    """Yield structurally valid (line, kind, record) prediction entries."""
    path = str(path)
    for lineno, kind, obj in _iter_records(
            path, _read_text(path)[1], ("decisions", "detections", "scores")):
        _require(obj, "video_id", str, path, lineno)
        yield lineno, kind, obj


def build_stream(kind: str, obj: dict, track: AnnotationTrack,
                 vocab: LabelVocabulary, delta_t_s: float) -> PredictionStream:
    """Validate one decisions/detections record against its track.

    Fields pass the ground-truth checks (:func:`_require`,
    :func:`_parse_intervals` on the ``events``), so a structural
    fault is a :class:`ParseError` naming the field but no line: the
    caller adds that. A decisions record's ``delta_t_s`` must pass
    :func:`~oadeval.timeline.slot_us` and equal ``delta_t_s`` in
    microseconds, and its ``labels`` must be strings filling exactly the
    :func:`~oadeval.timeline.num_slots` slots of the track.
    """
    video_id = obj["video_id"]
    if kind == "decisions":
        record_delta = _require(obj, "delta_t_s", (int, float))
        if slot_us(record_delta) != slot_us(delta_t_s):
            raise ValidationError(
                f"video {video_id!r}: decisions at delta_t {record_delta} s "
                f"cannot be evaluated at delta_t {delta_t_s} s")
        labels = _require(obj, "labels", list)
        if not set(map(type, labels)) <= {str}:
            raise ParseError("expected a list of strings", field="labels")
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
        intervals = _parse_intervals(_require(obj, "events", list),
                                     key="events")
        return events_to_stream(intervals, video_id, track.duration_s,
                                delta_t_s, vocab)
    raise ValidationError(f"record kind {kind!r} is not a stream")


def build_scores(obj: dict, track: AnnotationTrack,
                 vocab: LabelVocabulary) -> FrameScoreMatrix:
    """Validate one scores record against its track.

    ``fps`` and ``scores`` pass :func:`_require` (a :class:`ParseError`
    naming the field, no line), and ``fps`` then
    :func:`~oadeval.offline.frame_count`, the one fps and frame-count
    rule. Each row must hold one int or float per class, and the rows
    must number exactly the track's frames.
    """
    video_id = obj["video_id"]
    fps = _require(obj, "fps", (int, float))
    expected = frame_count(track.duration_s, float(fps))
    rows = _require(obj, "scores", list)
    n_classes = len(vocab.classes)
    if not (set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {n_classes}
            and set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES):
        raise ValidationError(f"video {video_id!r}: each score row "
                              f"needs {n_classes} numbers")
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
        except EvaluationError as exc:
            raise type(exc)(f"{path}, line {lineno}: {exc}") from exc
    return scores


# rows of a score matrix formatted at a time, which bounds the writer's
# buffers whatever the matrix's length
_BLOCK_ROWS = 4096


def _json_rows(block: np.ndarray) -> bytes:
    """The ``json.dumps`` text of the rows of a 2-D float64 block.

    The rows are joined by ``", "``, with no brackets around them. Each
    distinct bit pattern (so ``-0.0`` and ``0.0`` apart) is formatted
    once, by ``json.dumps`` of the distinct values, into a NUL-padded
    fixed-width table whose rows read ``"\\0" + token + ", \\0"``.
    Gathering a table row per cell lays the block out; the first
    column's cells then open their row with ``"["``, the last column's
    close it with ``"], "`` (the block's last cell with ``"]"``), and
    deleting the NUL bytes leaves the text.
    """
    distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
    tokens = np.array(
        json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "), "S")
    width = tokens.itemsize
    table = np.zeros((len(tokens), width + 4), np.uint8)
    table[:, 1:width + 1] = tokens.view(np.uint8).reshape(-1, width)
    table[:, width + 1:width + 3] = (ord(","), ord(" "))
    cells = table[inverse.reshape(block.shape)]
    cells[:, 0, 0] = ord("[")
    cells[:, -1, width + 1:] = (ord("]"), ord(","), ord(" "))
    cells[-1, -1, width + 2:] = 0
    return cells.tobytes().translate(None, b"\0")


def write_predictions(path: str | Path, streams=(), score_matrices=()) -> None:
    """Emit canonical decisions (and scores) records, sorted by video id.

    Each record is the ``json.dumps(..., sort_keys=True)`` text of its
    fields, one per line. A scores record's matrix is written
    :data:`_BLOCK_ROWS` rows at a time by :func:`_json_rows`, byte for
    byte the text ``json.dumps`` gives its ``tolist()``, so every value
    is its ``float.__repr__``.
    """
    streams = sorted(streams, key=lambda s: s.video_id)
    matrices = sorted(score_matrices, key=lambda m: m.video_id)
    with open_output(path) as out:
        if not streams and not matrices:
            out.write(b"\n")  # a file of no records is one empty line
        for stream in streams:
            out.write(json.dumps({
                "record": "decisions",
                "video_id": stream.video_id,
                "delta_t_s": stream.delta_t_s,
                "labels": list(stream.decisions),
            }, sort_keys=True).encode() + b"\n")
        for matrix in matrices:
            scores = matrix.scores
            # the fields around "scores", in sort_keys order
            head = json.dumps({"fps": matrix.fps, "record": "scores"},
                              sort_keys=True)[:-1]
            tail = json.dumps({"video_id": matrix.video_id})[1:]
            out.write(f'{head}, "scores": '.encode())
            if scores.size:
                out.write(b"[")
                for start in range(0, len(scores), _BLOCK_ROWS):
                    if start:
                        out.write(b", ")
                    out.write(_json_rows(scores[start:start + _BLOCK_ROWS]))
                out.write(b"]")
            else:  # no rows, or rows of no columns
                out.write(json.dumps(scores.tolist()).encode())
            out.write(f", {tail}\n".encode())
