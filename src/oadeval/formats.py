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
:func:`_parse_interval`): structural problems (bad JSON, a key repeated
in one object, missing fields, wrong types, non-finite numbers, unknown
record kinds) raise
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
video with their line. :func:`write_canonical_gt` and
:func:`write_predictions` write each record as
``json.dumps(..., sort_keys=True)`` does, byte for byte; a video
record's text is laid out with no dict per interval, and a score matrix
goes out a block of rows at a time, each block's cells gathered from a
table that holds the text of each distinct value once. The distinct
values come from a sort; each cell finds its own among them by a
binary search when they are few (a Perfect-Model block holds two), or
through an argsort when they are many. :func:`build_scores` converts
the rows of a scores record whose line holds no ``true`` or ``false``,
so no bool, in one ``np.array`` pass, and checks each cell's type in
Python only when that pass gives no matrix of numbers or the line holds
one of those tokens; that per-cell path refuses bools and names every
other fault. Every file the
toolkit writes goes through :func:`open_output`, which rewrites it in
place, and empties and removes it if the write fails. Adapters for
ActivityNet-style JSON and Thumos-style per-class text files convert
external ground truth into the canonical model; durations for Thumos
come from a sidecar table because its annotation files carry none. The
ActivityNet adapter returns its manifest with the sorted list of what it
skipped, clamped or dropped; a manifest's ``source`` digests the bytes
of every file its loader read.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import re
import stat
from collections import Counter
from dataclasses import dataclass
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
                  ) -> Iterator[tuple[int, str, dict, str]]:
    """``(line, kind, record, json_line)`` of each non-blank line of ``text``.

    Each line must be a JSON object whose ``record`` field is a string
    among ``kinds``; anything else is a :class:`ParseError` on its line.
    ``json_line`` is the line's text, which the record was parsed from.

    No object in a line may repeat a key (:func:`_unique_keys`). In
    JSON, one ``:`` outside strings follows each key, so a line holds at
    least as many colons as it writes pairs, and it writes at least as
    many as its objects hold (:func:`_pair_count` counts the record's
    and those of its interval or event entries). When the two counts
    are equal no key repeats, and ``json.loads`` was enough; otherwise
    (a repeated key, a colon in a string, an object elsewhere) the line
    is parsed again with the hook, which names the key or passes.
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
        if line.count(":") != _pair_count(obj):
            obj = json.loads(line, object_pairs_hook=functools.partial(
                _unique_keys, path=path, line=lineno))
        kind = _require(obj, "record", str, path, lineno)
        if kind not in kinds:
            raise ParseError(f"unknown record kind {kind!r}",
                             path=path, line=lineno, field="record")
        yield lineno, kind, obj, line


def _unique_keys(pairs: list, path=None, line=None) -> dict:
    """The object of the JSON ``pairs``, whose keys must not repeat.

    The one repeated-key rule of every reader, an ``object_pairs_hook``:
    where ``json`` would keep the last value of a key, a repeated key is
    a :class:`ParseError` at ``path`` and ``line`` that names it (the
    most repeated, the first of those).
    """
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = Counter(key for key, _ in pairs).most_common(1)[0][0]
        raise ParseError(f"duplicate key {key!r}", path=path, line=line)
    return obj


def _pair_count(record: dict) -> int:
    """The pairs of a record and of the objects among its ``intervals``
    or ``events``, the nested objects of the canonical grammar."""
    entries = record.get("intervals") or record.get("events")
    if type(entries) is not list:
        return len(record)
    return len(record) + sum([len(e) for e in entries if type(e) is dict])


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
    for lineno, kind, obj, _ in _iter_records(path, text,
                                              ("vocabulary", "video")):
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


class _JsonTexts(dict):
    """The ``json.dumps`` text of each value looked up, made on its first
    lookup."""

    def __missing__(self, value) -> str:
        text = self[value] = json.dumps(value)
        return text


def write_canonical_gt(manifest: CorpusManifest, path: str | Path) -> None:
    """Write ``manifest`` as a canonical ground-truth file.

    Each line is byte for byte the ``json.dumps(record, sort_keys=True)``
    text of its record, but only the vocabulary record goes through
    ``json.dumps`` whole: a video record's text is laid out here, its
    keys in sorted order with the ``", "`` and ``": "`` separators. An
    exact ``float`` time or duration is its ``float.__repr__``, which is
    what ``json.dumps`` writes for it (every time and duration of a track
    is finite); any other number goes through ``json.dumps``, so an int
    or a ``float`` subclass is written, and a value JSON cannot encode
    (a NumPy integer) raises ``TypeError``, as ``json.dumps`` of the
    record would. The video id and ``multi_label`` go through
    ``json.dumps`` too, and each distinct label once per call. Each line
    is written as it is made, inside :func:`open_output`, so a failure
    leaves no file.
    """
    vocab = manifest.vocabulary
    dumps, labels = json.dumps, _JsonTexts()
    with open_output(path) as out:
        out.write(dumps({"record": "vocabulary", "classes": list(vocab.classes),
                         "background": vocab.background},
                        sort_keys=True).encode() + b"\n")
        for track in manifest.tracks:
            # first, as json.dumps formats it first
            duration = track.duration_s
            duration = (repr(duration) if type(duration) is float
                        else dumps(duration))
            intervals = ", ".join([
                f'{{"end_s": {repr(end) if type(end) is float else dumps(end)}'
                f', "label": {labels[iv.label]}, "start_s": '
                f'{repr(start) if type(start) is float else dumps(start)}}}'
                for iv in track.intervals
                for end, start in [(iv.end_s, iv.start_s)]])
            out.write(
                f'{{"duration_s": {duration}, "intervals": [{intervals}], '
                f'"multi_label": {dumps(track.multi_label)}, "record": '
                f'"video", "video_id": {dumps(track.video_id)}}}\n'.encode())


# ---------------------------------------------------------------------------
# dataset adapters

def load_activitynet_gt(path: str | Path, subset: str = "validation",
                        ) -> tuple[CorpusManifest, list[str]]:
    """Convert an ActivityNet-style structured annotation file.

    Keeps only videos of the requested subset. Videos without a valid
    duration, a number of seconds above 0 and below 2**63 microseconds,
    are skipped with a warning; segments reaching past the stated
    duration are clamped (such annotations exist in the wild), segments
    left empty by clamping are dropped. A key repeated in one object,
    such as a video id, is an error naming the file and the key (the
    most repeated, the first of those), where ``json`` would keep only
    its last value.

    Returns ``(manifest, warnings)``: ``warnings`` is the sorted list of
    what was skipped, clamped or dropped, one ``...; skipped`` line per
    skipped video, and ``no videos found for subset ...`` when the
    subset held no video that loaded.
    """
    warnings = []
    raw, text = _read_text(path)
    try:
        data = json.loads(text, object_pairs_hook=functools.partial(
            _unique_keys, path=str(path)))
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
            warnings.append(
                f"video {video_id!r}: missing or invalid duration; skipped")
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
                warnings.append(f"video {video_id!r}: segment start {start} "
                                "clamped to 0")
                start = 0.0
            if end > duration:
                warnings.append(f"video {video_id!r}: segment end {end} "
                                f"clamped to duration {duration}")
                end = float(duration)
            # a start past the clamped end is never converted
            if end <= start or seconds_to_us(end) <= seconds_to_us(start):
                warnings.append(f"video {video_id!r}: segment [{segment[0]}, "
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
    if not tracks:
        warnings.append(f"no videos found for subset {subset!r}")

    vocab = LabelVocabulary(classes=tuple(sorted(labels_seen)))
    manifest = CorpusManifest(vocabulary=vocab, tracks=tuple(tracks),
                              source=f"activitynet:{_digest(raw)}")
    return manifest, sorted(warnings)


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
    (:meth:`~oadeval.timeline.TimeInterval.check_end`). A file whose
    name leaves an empty class (``_test.txt``) or the background label
    is an error naming that file. Overlapping rows are kept
    as-is (tracks are multi-label; the discretizer resolves them).
    Durations come from the sidecar table, each above 0 and below 2**63
    microseconds; rows naming a video absent from it are an error, which
    names each such video with its first row, and so is a video id the
    sidecar repeats.

    The manifest's ``source`` digests the bytes of every file read: the
    sidecar's, then each class file's name and bytes, in read order.
    Each file's byte count goes before its bytes, so two different sets
    of files never make the same stream.
    """
    dir_path = Path(dir_path)
    raw, text = _read_text(durations_path)
    digest = hashlib.sha256(b"%d\n" % len(raw) + raw)
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
        if not cls:
            raise ParseError("the class name is empty", path=str(class_file))
        if cls == DEFAULT_BACKGROUND:
            raise ParseError(f"class {cls!r} is the background label, "
                             "not an action class", path=str(class_file))
        classes.append(cls)
        data, text = _read_text(class_file)
        digest.update(b"%s\0%d\n" % (os.fsencode(class_file.name), len(data))
                      + data)
        for lineno, line in enumerate(text.split("\n"), start=1):
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
                    interval.check_end(durations[vid], vid)
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
                          source=f"thumos:{digest.hexdigest()[:16]}")


# ---------------------------------------------------------------------------
# predictions

def _prediction_records(path: str | Path,
                        ) -> Iterator[tuple[int, str, dict, str]]:
    """``(line, kind, record, json_line)`` of each prediction record, as
    :func:`_iter_records` yields it, once its ``video_id`` is a string."""
    path = str(path)
    for lineno, kind, obj, line in _iter_records(
            path, _read_text(path)[1], ("decisions", "detections", "scores")):
        _require(obj, "video_id", str, path, lineno)
        yield lineno, kind, obj, line


def iter_prediction_records(path: str | Path,
                            ) -> Iterator[tuple[int, str, dict]]:
    """Yield structurally valid (line, kind, record) prediction entries."""
    for lineno, kind, obj, _ in _prediction_records(path):
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


def build_scores(obj: dict, track: AnnotationTrack, vocab: LabelVocabulary,
                 json_line: str | None = None) -> FrameScoreMatrix:
    """Validate one scores record against its track.

    ``fps`` and ``scores`` pass :func:`_require` (a :class:`ParseError`
    naming the field, no line), and ``fps`` then
    :func:`~oadeval.offline.frame_count`, the one fps and frame-count
    rule. Each row must hold one int or float per class, never a bool,
    and the rows must number exactly the track's frames.

    ``json_line``, the text ``obj`` was parsed from, lets the cells skip
    their type walk. A line that holds neither ``true`` nor ``false``
    holds no bool, so its rows convert in one ``np.array`` pass
    (:func:`_number_matrix`); the line costs a search for ``u`` and one
    for ``l``, with a word search only where one of them occurs. Without
    ``json_line``, or when that pass gives no matrix of numbers, each cell's
    type is checked in Python and the checked cells then become floats
    in one ``np.fromiter`` pass, in which an int beyond the float range
    is a :class:`ValidationError`. Bools are refused on that path alone,
    and so is every other fault, with the same text either way. On a
    Perfect-Model record of 1,920 rows of 20 classes (196 KB; CPython
    3.11, NumPy 2.4, a 2-vCPU x86 VM), ``json.loads`` took 2.8 ms, the
    one pass 1.1 ms (the character searches 4 µs, the word searches
    they spare 0.2 ms) and the per-cell path 1.7 ms.
    """
    video_id = obj["video_id"]
    fps = _require(obj, "fps", (int, float))
    expected = frame_count(track.duration_s, float(fps))
    rows = _require(obj, "scores", list)
    n_classes = len(vocab.classes)
    matrix = None
    # no "true" token and no "false" one; each holds a "u" or an "l",
    # whose searches are many times cheaper, and a line of numbers and
    # keys, as the score writer writes it, has neither
    if json_line is not None and (
            "u" not in json_line or "true" not in json_line) and (
            "l" not in json_line or "false" not in json_line):
        matrix = _number_matrix(rows, n_classes)
    if matrix is None and not (
            set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {n_classes}
            and set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES):
        raise ValidationError(f"video {video_id!r}: each score row "
                              f"needs {n_classes} numbers")
    if len(rows) != expected:
        raise ValidationError(
            f"video {video_id!r}: {len(rows)} score rows but a "
            f"{track.duration_s} s video at {fps} fps has {expected} frames")
    if matrix is None:
        try:
            matrix = np.fromiter(chain.from_iterable(rows), float,
                                 len(rows) * n_classes
                                 ).reshape(len(rows), n_classes)
        except OverflowError as exc:  # an integer beyond the float range
            raise ValidationError(
                f"video {video_id!r}: score beyond the float range") from exc
    return FrameScoreMatrix(video_id, float(fps), matrix)


def _number_matrix(rows: list, n_classes: int) -> np.ndarray | None:
    """JSON score rows that hold no bool, as a float64 matrix, or None.

    One ``np.array`` infers a dtype and checks the shape of every cell
    at once. A float or integer array of shape ``(len(rows),
    n_classes)`` holds only ints and floats (bools aside, which the
    caller has ruled out), and ``astype(float)`` rounds each int as
    ``float`` does. A string, ``null``, an object, a nested or ragged
    row, or an int past the integer dtypes gives another dtype or shape,
    or raises: then None leaves the rows to the per-cell check, which
    names the fault.
    """
    try:
        matrix = np.array(rows)
    except (ValueError, TypeError, OverflowError):
        return None
    if matrix.shape != (len(rows), n_classes) or matrix.dtype.kind not in "fiu":
        return None
    return matrix.astype(float, copy=False)


def read_predictions(path: str | Path, manifest: CorpusManifest,
                     kinds: tuple[str, ...],
                     ) -> tuple[dict[str, tuple[int, str, dict, str]],
                                dict[str, str]]:
    """Match a prediction file's records of ``kinds`` to the manifest videos.

    Returns ``(records, failures)``. ``records`` maps each manifest video
    with exactly one record of ``kinds`` to that record as
    ``(line, kind, record, json_line)``, ``json_line`` being the text it
    was parsed from; records of other kinds are skipped.
    ``failures`` maps every other video id to why it has no usable
    record: a record of any kind names a video absent from the manifest,
    a second record of ``kinds`` names it (the message gives the line of
    that second record), or no record names it at all.
    """
    tracks = manifest.by_id()
    noun = "frame scores" if kinds == ("scores",) else "predictions"
    records: dict[str, tuple[int, str, dict, str]] = {}
    failures: dict[str, str] = {}
    for lineno, kind, obj, line in _prediction_records(path):
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
            records[video_id] = (lineno, kind, obj, line)
    for video_id in sorted(tracks):
        if video_id not in records and video_id not in failures:
            failures[video_id] = f"missing {noun}"
    return records, failures


def load_scores(path: str | Path, manifest: CorpusManifest,
                ) -> dict[str, FrameScoreMatrix]:
    """Load the frame-score side of a prediction file (for mAP / cAP).

    Any video that :func:`read_predictions` cannot match, or whose scores
    are invalid, fails the whole load. Each record's line goes to
    :func:`build_scores` with it, so a record without a ``true`` or
    ``false`` token converts in one NumPy pass, and a bool is refused on
    the per-cell path; :func:`build_scores` gives what each path costs.
    """
    records, failures = read_predictions(path, manifest, ("scores",))
    for video_id, message in failures.items():
        raise ValidationError(f"{path}: video {video_id!r}: {message}")
    tracks = manifest.by_id()
    scores: dict[str, FrameScoreMatrix] = {}
    for video_id, (lineno, _, obj, line) in records.items():
        try:
            scores[video_id] = build_scores(obj, tracks[video_id],
                                            manifest.vocabulary, line)
        except EvaluationError as exc:
            raise type(exc)(f"{path}, line {lineno}: {exc}") from exc
    return scores


# rows of a score matrix formatted at a time, which bounds the writer's
# buffers whatever the matrix's length
_BLOCK_ROWS = 4096
# distinct values up to which a block's inverse is a binary search into
# them; past it, the scatter through an argsort is faster (on 2,880x20
# blocks of uniformly drawn values the two cost the same at 4)
_SEARCH_MAX = 4


def _json_rows(block: np.ndarray) -> bytes:
    """The ``json.dumps`` text of the rows of a 2-D float64 block.

    The rows are joined by ``", "``, with no brackets around them. The
    block's distinct bit patterns (so ``-0.0`` and ``0.0`` apart) come
    from one ``np.sort`` and a neighbour mask. Each cell's index among
    them is a ``np.searchsorted`` while they number at most
    :data:`_SEARCH_MAX` (a one-hot block has two), and otherwise the
    running count of the mask scattered through ``np.argsort``. Each
    distinct value is formatted once, by ``json.dumps`` of their list,
    into a NUL-padded fixed-width table whose rows read
    ``"\\0" + token + ", \\0"``. Taking a table row per cell lays the
    block out; the first column's cells then open their row with
    ``"["``, the last column's close it with ``"], "`` (the block's last
    cell with ``"]"``), and deleting the NUL bytes leaves the text.
    """
    bits = block.view(np.int64)
    ordered = np.sort(bits, axis=None)
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    distinct = ordered[first]
    if len(distinct) <= _SEARCH_MAX:
        inverse = np.searchsorted(distinct, bits)
    else:
        inverse = np.empty(bits.size, np.intp)
        inverse[np.argsort(bits, axis=None)] = np.cumsum(first) - 1
        inverse = inverse.reshape(bits.shape)
    tokens = np.array(
        json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "), "S")
    width = tokens.itemsize
    table = np.zeros((len(tokens), width + 4), np.uint8)
    table[:, 1:width + 1] = tokens.view(np.uint8).reshape(-1, width)
    table[:, width + 1:width + 3] = (ord(","), ord(" "))
    cells = np.take(table, inverse, axis=0)
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
    is its ``float.__repr__``. A block costs one sort of its cells and
    a binary search per cell while it holds at most :data:`_SEARCH_MAX`
    distinct values (``baseline`` writes two), or an argsort of its
    cells past that, plus one ``json.dumps`` of its distinct values.
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
