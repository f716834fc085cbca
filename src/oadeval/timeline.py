"""Core timeline types: labels, intervals, tracks, slot grids, streams.

Every video timeline is discretized into fixed-duration slots of length
``delta_t_s``. Slot ``j`` (1-indexed) covers ``[(j-1)*delta_t, j*delta_t)``
and is labeled by the annotation interval covering its midpoint
``(j - 1/2) * delta_t``; a trailing partial slot is dropped, so a grid
always holds exactly ``floor(duration / delta_t)`` slots.

Timestamps are converted to integer microseconds before any slot
arithmetic so boundary comparisons are exact and float noise from
upstream parsers cannot move a midpoint across an interval edge.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CausalityError, DegenerateInputError, ValidationError, VocabularyError

US_PER_S = 1_000_000

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


@dataclass(frozen=True)
class LabelVocabulary:
    """Closed set of action classes plus one distinguished background label.

    Immutable after construction; class names must be unique, non-empty
    and must not collide with the background label. ``codes`` maps each
    label to a small int: background to 0, the classes to 1..C in
    declared order.
    """

    classes: tuple[str, ...]
    background: str = DEFAULT_BACKGROUND
    _class_set: frozenset = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_class_set", frozenset(classes))
        codes = {self.background: 0}
        codes.update((c, i) for i, c in enumerate(classes, start=1))
        object.__setattr__(self, "codes", codes)

    def __contains__(self, label: str) -> bool:
        return label == self.background or label in self._class_set

    def is_action(self, label: str) -> bool:
        """True for an action class, False for background, error otherwise."""
        if label in self._class_set:
            return True
        if label == self.background:
            return False
        raise VocabularyError(f"unknown label {label!r}")

    def require(self, label: str) -> str:
        if label not in self:
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

    def __post_init__(self):
        if not self.label:
            raise ValidationError("interval label must be non-empty")
        if self.start_s < 0:
            raise ValidationError(f"interval start {self.start_s} < 0")
        if self.end_us <= self.start_us:
            raise ValidationError(
                f"interval [{self.start_s}, {self.end_s}) for {self.label!r} "
                "has zero or negative length")

    @property
    def start_us(self) -> int:
        return seconds_to_us(self.start_s)

    @property
    def end_us(self) -> int:
        return seconds_to_us(self.end_s)


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

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if not self.video_id:
            raise ValidationError("video_id must be non-empty")
        if self.duration_s <= 0:
            raise ValidationError(
                f"video {self.video_id!r}: duration {self.duration_s} must be > 0")
        duration_us = seconds_to_us(self.duration_s)
        for iv in self.intervals:
            if iv.end_us > duration_us:
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

    @property
    def duration_us(self) -> int:
        return seconds_to_us(self.duration_s)


@dataclass(frozen=True)
class SlotGrid:
    """Dense per-slot label sequence at resolution ``delta_t_s``."""

    delta_t_s: float
    labels: tuple[str, ...]
    vocab: LabelVocabulary

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.delta_t_s <= 0:
            raise ValidationError(f"delta_t {self.delta_t_s} must be > 0")
        if not self.labels:
            raise DegenerateInputError("slot grid must hold at least one slot")
        if not self.vocab.codes.keys() >= set(self.labels):
            for lab in self.labels:
                if lab not in self.vocab:
                    raise VocabularyError(f"unknown slot label {lab!r}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def delta_t_us(self) -> int:
        return seconds_to_us(self.delta_t_s)


def num_slots(duration_s: float, delta_t_s: float) -> int:
    """Slot count ``K = floor(duration / delta_t)``, exact in microseconds."""
    if duration_s <= 0:
        raise ValidationError(f"duration {duration_s} must be > 0")
    if delta_t_s <= 0:
        raise ValidationError(f"delta_t {delta_t_s} must be > 0")
    return seconds_to_us(duration_s) // seconds_to_us(delta_t_s)


def paint_midpoints(bounds: Sequence[tuple], mids: Sequence,
                    background: str) -> list[str]:
    """Label each midpoint by the interval covering it, background if none.

    ``bounds`` holds ``(start, end, label)`` triples sorted by start then
    label, in the same units as the ascending ``mids``. The midpoints an
    interval covers, ``start <= mid < end``, form one index range found by
    bisection. Painting the intervals in reverse sort order leaves the
    earliest start, then the smallest label, on top wherever they overlap.
    """
    labels = [background] * len(mids)
    for start, end, label in reversed(bounds):
        lo = bisect_left(mids, start)
        hi = bisect_left(mids, end)
        labels[lo:hi] = [label] * (hi - lo)
    return labels


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
    overlapping intervals also repaint the slots they share.
    """
    intervals = sorted(intervals, key=lambda iv: (iv.start_us, iv.label))
    duration_us = seconds_to_us(duration_s)
    delta_us = seconds_to_us(delta_t_s)
    if duration_us <= 0:
        raise ValidationError(f"duration {duration_s} must be > 0")
    if delta_us <= 0:
        raise ValidationError(f"delta_t {delta_t_s} must be > 0")
    for iv in intervals:
        if not vocab.is_action(iv.label):
            raise ValidationError("background intervals are implicit, never stored")
        if iv.end_us > duration_us:
            raise ValidationError(
                f"interval [{iv.start_s}, {iv.end_s}) exceeds duration {duration_s}")
    k = duration_us // delta_us
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
        if delta_t_s <= 0:
            raise ValidationError(f"delta_t {delta_t_s} must be > 0")
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
