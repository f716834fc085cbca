"""Core timeline types: labels, intervals, tracks, slot grids, streams.

Every video timeline is discretized into fixed-duration slots of length
``delta_t_s``. Slot ``j`` (1-indexed) covers ``[(j-1)*delta_t, j*delta_t)``
and is labeled by the annotation interval covering its midpoint
``(j - 1/2) * delta_t``; a trailing partial slot is dropped, so a grid
always holds exactly ``floor(duration / delta_t)`` slots.

Timestamps are converted to integer microseconds before any slot
arithmetic so boundary comparisons are exact and float noise from
upstream parsers cannot move a midpoint across an interval edge. Each
interval, track and grid converts its own times once, when it is
built, into ``*_us`` fields that take no part in ``==``, ``hash`` or
``repr``. A slot size must round to at least 1 microsecond;
:func:`slot_us` is the one place that rule is checked.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CausalityError, DegenerateInputError, ValidationError, VocabularyError

US_PER_S = 1_000_000

# The most slots (or frames) one video may have: 2**22 covers 24 days at
# 0.5 s or 38.8 h at 1/30 s. Scoring costs a few hundred bytes per slot,
# so this keeps one corrupt duration or rate from sizing a grid without
# limit; :func:`num_slots` and :func:`oadeval.offline.frame_count` check
# it before anything is allocated.
MAX_SLOTS = 2 ** 22

DEFAULT_BACKGROUND = "background"


def seconds_to_us(seconds: float) -> int:
    """Convert seconds to integer microseconds (round half to even).

    NaN and infinite times, including products that overflow to
    infinity, raise :class:`ValidationError`.
    """
    try:
        return round(seconds * US_PER_S)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(
            f"time {seconds} s is not a finite number of microseconds") from exc


def slot_us(delta_t_s: float) -> int:
    """Slot size ``delta_t_s`` in integer microseconds (round half to even).

    The one slot-size rule that every grid, stream, slot count and
    aggregate shares: ``delta_t_s`` must be finite and round to at least
    1 microsecond, so NaN, infinities, zero, negative sizes and sizes
    under half a microsecond raise :class:`ValidationError`.
    """
    delta_us = delta_t_s * US_PER_S
    if not (math.isfinite(delta_us) and round(delta_us) >= 1):
        raise ValidationError(f"delta_t {delta_t_s} must be a finite slot "
                              "size of at least 1 microsecond")
    return round(delta_us)


@dataclass(frozen=True)
class LabelVocabulary:
    """Closed set of action classes plus one distinguished background label.

    Immutable after construction; class names must be unique, non-empty
    and must not collide with the background label. ``codes`` maps each
    label to a small int: background to 0, the classes to 1..C in
    declared order. It is the only membership structure: ``in``,
    :meth:`is_action` and :meth:`require` all read it.
    """

    classes: tuple[str, ...]
    background: str = DEFAULT_BACKGROUND
    codes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        if not self.background:
            raise ValidationError("background label must be non-empty")
        if any(not c for c in classes):
            raise ValidationError("class names must be non-empty")
        if len(set(classes)) != len(classes):
            raise ValidationError("class names must be unique")
        if self.background in classes:
            raise ValidationError(
                f"background label {self.background!r} must not be an action class")
        codes = {self.background: 0}
        codes.update((c, i) for i, c in enumerate(classes, start=1))
        object.__setattr__(self, "codes", codes)

    def __contains__(self, label: str) -> bool:
        return label in self.codes

    def is_action(self, label: str) -> bool:
        """True for an action class, False for background, error otherwise."""
        code = self.codes.get(label)
        if code is None:
            raise VocabularyError(f"unknown label {label!r}")
        return code > 0

    def require(self, label: str) -> str:
        if label not in self.codes:
            raise VocabularyError(f"unknown label {label!r}")
        return label


@dataclass(frozen=True)
class TimeInterval:
    """Labeled, half-open time span ``[start_s, end_s)`` in seconds.

    Background is never stored as an interval; it is whatever the
    intervals leave uncovered.
    """

    label: str
    start_s: float
    end_s: float
    start_us: int = field(init=False, repr=False, compare=False)
    end_us: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.label:
            raise ValidationError("interval label must be non-empty")
        if self.start_s < 0:
            raise ValidationError(f"interval start {self.start_s} < 0")
        object.__setattr__(self, "start_us", seconds_to_us(self.start_s))
        object.__setattr__(self, "end_us", seconds_to_us(self.end_s))
        if self.end_us <= self.start_us:
            raise ValidationError(
                f"interval [{self.start_s}, {self.end_s}) for {self.label!r} "
                "has zero or negative length")


@dataclass(frozen=True)
class AnnotationTrack:
    """Ground truth for one video: its duration and labeled intervals.

    Overlapping intervals are rejected unless the source adapter flags
    the track ``multi_label``; the discretizer then resolves each slot
    deterministically (earliest interval start, then lexicographic label).
    """

    video_id: str
    duration_s: float
    intervals: tuple[TimeInterval, ...] = ()
    multi_label: bool = False
    duration_us: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if not self.video_id:
            raise ValidationError("video_id must be non-empty")
        if self.duration_s <= 0:
            raise ValidationError(
                f"video {self.video_id!r}: duration {self.duration_s} must be > 0")
        object.__setattr__(self, "duration_us", seconds_to_us(self.duration_s))
        for iv in self.intervals:
            if iv.end_us > self.duration_us:
                raise ValidationError(
                    f"video {self.video_id!r}: interval [{iv.start_s}, {iv.end_s}) "
                    f"exceeds duration {self.duration_s}")
        if not self.multi_label:
            by_start = sorted(self.intervals, key=lambda iv: (iv.start_us, iv.label))
            covered_until = -1
            for iv in by_start:
                if iv.start_us < covered_until:
                    raise ValidationError(
                        f"video {self.video_id!r}: interval [{iv.start_s}, {iv.end_s}) "
                        "overlaps an earlier one but track is not multi_label")
                covered_until = max(covered_until, iv.end_us)


@dataclass(frozen=True)
class SlotGrid:
    """Dense per-slot label sequence at resolution ``delta_t_s``.

    ``codes`` holds each slot's class code (``vocab.codes``: background
    0, the classes 1..C), taken once here; it is what both IA engines
    score. Like ``delta_t_us`` it takes no part in ``==``, ``hash`` or
    ``repr``, which the labels already decide.
    """

    delta_t_s: float
    labels: tuple[str, ...]
    vocab: LabelVocabulary
    codes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    delta_t_us: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "delta_t_us", slot_us(self.delta_t_s))
        if not self.labels:
            raise DegenerateInputError("slot grid must hold at least one slot")
        try:
            codes = tuple(map(self.vocab.codes.__getitem__, self.labels))
        except KeyError as exc:
            raise VocabularyError(f"unknown slot label {exc.args[0]!r}") from None
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return len(self.labels)


def num_slots(duration_s: float, delta_t_s: float) -> int:
    """Slot count ``K = floor(duration / delta_t)``, exact in microseconds.

    The one slot-count rule: the duration must be > 0, the slot size
    must pass :func:`slot_us`, and ``K`` must not exceed
    :data:`MAX_SLOTS`. Each failure raises :class:`ValidationError`
    before anything is allocated.
    """
    if duration_s <= 0:
        raise ValidationError(f"duration {duration_s} must be > 0")
    k = seconds_to_us(duration_s) // slot_us(delta_t_s)
    if k > MAX_SLOTS:
        raise ValidationError(
            f"{k} slots exceed the limit of {MAX_SLOTS} per video")
    return k


def paint_midpoints(bounds: Sequence[tuple], mids: Sequence, fill) -> list:
    """Paint each midpoint with the value of the interval covering it.

    ``bounds`` holds ``(start, end, value)`` triples sorted by start then
    label, in the same units as the ascending ``mids``; midpoints no
    interval covers get ``fill``. The values are whatever the caller
    paints: labels for slots, class codes for frames. The midpoints an
    interval covers, ``start <= mid < end``, form one index range found by
    bisection. Painting the intervals in reverse sort order leaves the
    earliest start, then the smallest label, on top wherever they overlap.
    """
    painted = [fill] * len(mids)
    for start, end, value in reversed(bounds):
        lo = bisect_left(mids, start)
        hi = bisect_left(mids, end)
        painted[lo:hi] = [value] * (hi - lo)
    return painted


def check_action_labels(intervals: Iterable[TimeInterval],
                        vocab: LabelVocabulary) -> None:
    """Check that every interval label is an action class.

    Labels are checked in the given order, each once: an unknown one
    raises :class:`VocabularyError`, a background one
    :class:`ValidationError`, since background is whatever the intervals
    leave uncovered.
    """
    for label in dict.fromkeys([iv.label for iv in intervals]):
        if not vocab.is_action(label):
            raise ValidationError("background intervals are implicit, never stored")


def sort_action_intervals(intervals: Iterable[TimeInterval],
                          vocab: LabelVocabulary) -> list[TimeInterval]:
    """Check the labels (:func:`check_action_labels`), then sort them.

    The order, by start and then label, is what :func:`paint_midpoints`
    expects; both rasterizers (slots here, frames in
    :mod:`oadeval.offline`) start from it.
    """
    intervals = tuple(intervals)
    check_action_labels(intervals, vocab)
    return sorted(intervals, key=lambda iv: (iv.start_us, iv.label))


def discretize(intervals: Iterable[TimeInterval], duration_s: float,
               delta_t_s: float, vocab: LabelVocabulary) -> SlotGrid:
    """Rasterize intervals onto a slot grid using the midpoint rule.

    Slot ``j`` takes the label of the interval covering its midpoint
    ``(j - 1/2) * delta_t``; background if none does. When several
    intervals cover the midpoint the earliest start wins, then the
    lexicographically smallest label. Midpoint membership is evaluated
    with doubled-microsecond integer arithmetic, so half-slot offsets
    stay exact even for odd microsecond slot sizes.

    Each interval's slot range is found by bisecting the ascending
    midpoints, so ``K`` slots and ``n`` intervals cost O(K + n log K);
    overlapping intervals also repaint the slots they share. Labels are
    checked by :func:`sort_action_intervals`, the duration, slot size and
    slot count by :func:`num_slots`.
    """
    k = num_slots(duration_s, delta_t_s)
    duration_us = seconds_to_us(duration_s)
    delta_us = slot_us(delta_t_s)
    intervals = sort_action_intervals(intervals, vocab)
    for iv in intervals:
        if iv.end_us > duration_us:
            raise ValidationError(
                f"interval [{iv.start_s}, {iv.end_s}) exceeds duration {duration_s}")
    if k == 0:
        raise DegenerateInputError(
            f"delta_t {delta_t_s} larger than duration {duration_s}: zero slots")

    # twice the slot midpoints, in microseconds: (2j - 1) * delta for j = 1..k
    mids2 = range(delta_us, (2 * k - 1) * delta_us + 1, 2 * delta_us)
    bounds = [(2 * iv.start_us, 2 * iv.end_us, iv.label) for iv in intervals]
    labels = paint_midpoints(bounds, mids2, vocab.background)
    return SlotGrid(delta_t_s=delta_t_s, labels=tuple(labels), vocab=vocab)


class PredictionStream:
    """Append-only causal sequence of per-slot class decisions.

    Decisions are 1-indexed; slot ``j`` may be recorded only once and
    only after slots ``1..j-1``. Revising a past slot or skipping ahead
    raises :class:`CausalityError`.
    """

    def __init__(self, video_id: str, delta_t_s: float, vocab: LabelVocabulary,
                 num_slots: int | None = None):
        if not video_id:
            raise ValidationError("video_id must be non-empty")
        slot_us(delta_t_s)
        if num_slots is not None and num_slots <= 0:
            raise ValidationError("num_slots must be positive when given")
        self.video_id = video_id
        self.delta_t_s = delta_t_s
        self.vocab = vocab
        self.num_slots = num_slots
        self._decisions: list[str] = []

    def __len__(self) -> int:
        return len(self._decisions)

    @property
    def decisions(self) -> tuple[str, ...]:
        return tuple(self._decisions)

    def append(self, label: str) -> int:
        """Record the decision for the next slot; returns its 1-based index."""
        self.vocab.require(label)
        j = len(self._decisions) + 1
        if self.num_slots is not None and j > self.num_slots:
            raise CausalityError(
                f"video {self.video_id!r}: stream is complete at "
                f"{self.num_slots} slots, cannot append slot {j}")
        self._decisions.append(label)
        return j

    def record(self, slot: int, label: str) -> int:
        """Record the decision for slot ``slot`` (must be the next slot)."""
        expected = len(self._decisions) + 1
        if slot < expected:
            raise CausalityError(
                f"video {self.video_id!r}: slot {slot} already decided, "
                "past decisions cannot be revised")
        if slot > expected:
            raise CausalityError(
                f"video {self.video_id!r}: slot {slot} is ahead of the stream "
                f"(next undecided slot is {expected})")
        return self.append(label)

    def extend(self, labels: Iterable[str]) -> None:
        """Append each label in turn, as repeated :meth:`append` would.

        When every label is known and all of them fit, they are checked
        in one set operation and appended at once; otherwise they are
        appended one by one, so the same error is raised at the same
        slot and the valid prefix before it is kept.
        """
        labels = list(labels)
        fits = (self.num_slots is None
                or len(self._decisions) + len(labels) <= self.num_slots)
        if fits and self.vocab.codes.keys() >= set(labels):
            self._decisions.extend(labels)
            return
        for lab in labels:
            self.append(lab)

    def as_grid(self) -> SlotGrid:
        """View the decided prefix as a slot grid."""
        return SlotGrid(delta_t_s=self.delta_t_s, labels=tuple(self._decisions),
                        vocab=self.vocab)


def events_to_stream(detections: Sequence[TimeInterval], video_id: str,
                     duration_s: float, delta_t_s: float,
                     vocab: LabelVocabulary) -> PredictionStream:
    """Discretize timed detection events and replay them as a stream."""
    grid = discretize(detections, duration_s, delta_t_s, vocab)
    stream = PredictionStream(video_id, delta_t_s, vocab, num_slots=len(grid))
    stream.extend(grid.labels)
    return stream
