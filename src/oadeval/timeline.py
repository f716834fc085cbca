"""Core timeline types: labels, intervals, tracks, slot grids, streams.

Every video timeline is discretized into fixed-duration slots of length
``delta_t_s``. Slot ``j`` (1-indexed) covers ``[(j-1)*delta_t, j*delta_t)``
and is labeled by the annotation interval covering its midpoint
``(j - 1/2) * delta_t``; a trailing partial slot is dropped, so a grid
always holds exactly ``floor(duration / delta_t)`` slots, and
:func:`num_slots` rejects a video too short for one.

Timestamps are converted to integer microseconds before any slot
arithmetic so boundary comparisons are exact and float noise from
upstream parsers cannot move a midpoint across an interval edge; each
must be below 2**63 microseconds, so it fits int64
(:func:`seconds_to_us`). A list of intervals is held as
:class:`IntervalColumns`: read-only int64 columns of microsecond bounds
and label codes, sorted once, by start and then label, when they are
built, by a parser straight from its numbers or from
:class:`TimeInterval` objects. Each interval, list and grid converts
its own times once, when it is built, into ``*_us`` fields or columns
that take no part in ``==``, ``hash`` or ``repr``; a track keeps its
duration in seconds. A slot size must round to at least 1 microsecond;
:func:`slot_us` is the one place that rule is checked. An interval must
end within its video: that rule is :meth:`TimeInterval.check_end` for
one interval and :meth:`IntervalColumns.check_ends` for a whole list,
which names the first late interval in input order through it.

A grid is its class codes: one read-only NumPy array with background
0 and the classes 1..C. :func:`discretize` takes each interval's slot
range from the columns, with exact integer arithmetic and no sort of
its own, and paints the ranges into that array. ``K`` slots and ``n``
intervals cost O(K + n + S), where ``S`` counts each slot once per
interval covering it: overlapping intervals repaint the slots they
share, and a track without overlaps costs O(K + n). Slot labels are
derived from the codes only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CausalityError, DegenerateInputError, ValidationError, VocabularyError

US_PER_S = 1_000_000

# The most slots (or frames) one video may have: 2**22 covers 24 days at
# 0.5 s or 38.8 h at 1/30 s. Scoring costs a few hundred bytes per slot,
# so this keeps one corrupt duration or rate from sizing a grid without
# limit; :func:`num_slots` and :func:`oadeval.offline.frame_count` check
# it before anything is allocated.
MAX_SLOTS = 2 ** 22

DEFAULT_BACKGROUND = "background"


def _real(value):
    """``value`` as a Python ``int`` or ``float``, before any arithmetic.

    An ``int`` or NumPy integer becomes an ``int`` and a ``float``
    subclass or NumPy float a ``float``, so NumPy scalars neither wrap
    nor lose precision; a bool, as in the file readers, and anything
    else raise ``TypeError``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise TypeError(f"{value!r} is not a number")


def _number(value, name: str):
    """``value`` through :func:`_real`, or a :class:`ValidationError`
    that names it: ``fps '4' is not a number``."""
    try:
        return _real(value)
    except TypeError:
        raise ValidationError(f"{name} {value!r} is not a number") from None


def _check_video_id(video_id) -> None:
    """Refuse a ``video_id`` that is not a non-empty string, the only
    form the canonical files hold."""
    if not isinstance(video_id, str):
        raise ValidationError(f"video_id {video_id!r} must be a string")
    if not video_id:
        raise ValidationError("video_id must be non-empty")


def seconds_to_us(seconds: float) -> int:
    """Convert seconds to integer microseconds (round half to even).

    The one time rule: every time is a finite number of microseconds
    below 2**63 in magnitude, so it fits an int64 column. Other times,
    NaN and infinities among them, raise :class:`ValidationError`. The
    number is checked before the product: an ``int`` or NumPy integer
    is converted exactly, a NumPy float at its own precision, and a
    value that is no number, a bool among them, raises ``TypeError``.
    """
    us = (seconds if type(seconds) is float else _real(seconds)) * US_PER_S
    if not abs(us) < 2 ** 63:
        raise ValidationError(f"time {seconds} s is not a finite number of "
                              "microseconds below 2**63")
    return round(us)


def slot_us(delta_t_s: float) -> int:
    """Slot size ``delta_t_s`` in integer microseconds (round half to even).

    The one slot-size rule that every grid, stream, slot count and
    aggregate shares: ``delta_t_s`` must be finite and round to at least
    1 microsecond, so NaN, infinities, zero, negative sizes and sizes
    under half a microsecond raise :class:`ValidationError`. Its number
    is checked first, as :func:`seconds_to_us` checks a time.
    """
    delta_us = (delta_t_s if type(delta_t_s) is float
                else _real(delta_t_s)) * US_PER_S
    if not (math.isfinite(delta_us) and round(delta_us) >= 1):
        raise ValidationError(f"delta_t {delta_t_s} must be a finite slot "
                              "size of at least 1 microsecond")
    return round(delta_us)


@dataclass(frozen=True)
class LabelVocabulary:
    """Closed set of action classes plus one distinguished background label.

    Immutable after construction; the background label and the class
    names must be non-empty strings, and the class names unique and
    distinct from the background label. ``labels`` holds every label in
    code order: background first, then the classes in declared order.
    ``codes`` maps each label to its index there: background to 0, the
    classes to 1..C. :meth:`code` is the one lookup that turns a label
    into its code or refuses it; :meth:`is_action` and every slot label
    of a grid, stream or evaluator go through it.
    """

    classes: tuple[str, ...]
    background: str = DEFAULT_BACKGROUND
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    codes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            labels = (self.background, *self.classes)
        except TypeError:  # classes that are not a collection
            labels = (None,)
        if isinstance(self.classes, str) or not all(
                isinstance(label, str) for label in labels):
            raise ValidationError("labels must be strings, classes a collection:"
                                  f" {self.classes!r}, {self.background!r}")
        classes = labels[1:]
        if not self.background:
            raise ValidationError("background label must be non-empty")
        if any(not c for c in classes):
            raise ValidationError("class names must be non-empty")
        if len(set(classes)) != len(classes):
            raise ValidationError("class names must be unique")
        if self.background in classes:
            raise ValidationError(
                f"background label {self.background!r} must not be an action class")
        self.__dict__.update(classes=classes, labels=labels,
                             codes={c: i for i, c in enumerate(labels)})

    def __contains__(self, label: str) -> bool:
        try:
            return label in self.codes
        except TypeError:  # an unhashable value is no label
            return False

    def code(self, label: str) -> int:
        """The class code of ``label``: 0 for background, 1..C for a class.

        Any other value, unhashable ones among them, raises
        :class:`VocabularyError` (``unknown label 'walk'``).
        """
        try:
            return self.codes[label]
        except (KeyError, TypeError):
            raise VocabularyError(f"unknown label {label!r}") from None

    def is_action(self, label: str) -> bool:
        """True for an action class, False for background, error otherwise."""
        return self.code(label) > 0


@dataclass(frozen=True, init=False)
class TimeInterval:
    """Labeled, half-open time span ``[start_s, end_s)`` in seconds.

    Background is never stored as an interval; it is whatever the
    intervals leave uncovered. The constructor checks the label, then
    the start against 0, then both times (:func:`seconds_to_us`), then
    the length, and stores the fields straight into the instance
    ``__dict__``, with no ``__setattr__`` call; ``start_us`` and
    ``end_us`` are not arguments, so :func:`dataclasses.replace`
    converts the new times again.
    """

    label: str
    start_s: float
    end_s: float
    start_us: int = field(init=False, repr=False, compare=False)
    end_us: int = field(init=False, repr=False, compare=False)

    def __init__(self, label: str, start_s: float, end_s: float):
        if not isinstance(label, str):
            raise ValidationError(f"interval label {label!r} is not a string")
        if not label:
            raise ValidationError("interval label must be non-empty")
        try:
            if start_s < 0:
                raise ValidationError(f"interval start {start_s} < 0")
            start_us = seconds_to_us(start_s)
            end_us = seconds_to_us(end_s)
        except TypeError:
            raise ValidationError(
                f"interval [{start_s!r}, {end_s!r}) for "
                f"{label!r} has a time that is not a number") from None
        if end_us <= start_us:
            raise ValidationError(
                f"interval [{start_s}, {end_s}) for {label!r} "
                "has zero or negative length")
        # stored one by one, in one order, so that the instances share one
        # key table; dict.update would copy one into each (on CPython
        # 3.11, 360 bytes per interval against 297 here)
        attrs = self.__dict__
        attrs["label"] = label
        attrs["start_s"] = start_s
        attrs["end_s"] = end_s
        attrs["start_us"] = start_us
        attrs["end_us"] = end_us

    def check_end(self, duration_s: float, video_id: str | None = None):
        """Check that the interval ends within its video, ``duration_s``.

        The one interval-end rule, exact in microseconds, in its entry
        form; :meth:`IntervalColumns.check_ends` is its column form. An
        end past the duration raises :class:`ValidationError`, its text
        prefixed with ``video 'v': `` when ``video_id`` is given.
        """
        if self.end_us > seconds_to_us(duration_s):
            where = "" if video_id is None else f"video {video_id!r}: "
            raise ValidationError(f"{where}interval [{self.start_s}, "
                                  f"{self.end_s}) exceeds duration {duration_s}")


@dataclass(frozen=True, eq=False, repr=False)
class IntervalColumns:
    """A list of intervals held as read-only columns, sorted once.

    Row ``i`` is one interval: ``labels[codes[i]]`` over
    ``[start_us[i], end_us[i])``. ``labels`` holds each distinct label
    once, in string order, so sorting by code sorts by label; the rows
    are sorted by start and then label (``np.lexsort``, stable, so
    equal keys keep their input order, as ``sorted`` does), and
    ``order[i]`` is row ``i``'s position in the input. The microsecond
    columns are int64, which holds every time :func:`seconds_to_us`
    accepts. ``times_s`` holds the start and end columns in seconds, as
    parsed; :attr:`intervals` builds the :class:`TimeInterval` tuple
    from them on first read, unless the columns were built from such a
    tuple (:meth:`of`). The rows' class codes in a vocabulary come from
    :meth:`class_codes`, which also checks the labels, and
    :meth:`check_ends` checks the ends; both name a fault in input
    order, through :attr:`intervals`.
    """

    labels: tuple[str, ...]
    codes: np.ndarray
    start_us: np.ndarray
    end_us: np.ndarray
    order: np.ndarray
    times_s: np.ndarray | None = None

    @classmethod
    def sort(cls, labels: list[str], start_us, end_us,
             times_s=None) -> IntervalColumns:
        """Columns of intervals given in input order, sorted here."""
        table = sorted(set(labels))
        rank = dict(zip(table, range(len(table))))
        codes = np.array([rank[label] for label in labels], np.intp)
        order = np.lexsort((codes, start_us))
        columns = [codes[order], start_us[order], end_us[order], order]
        if times_s is not None:
            columns.append(times_s[:, order])
        for column in columns:
            column.flags.writeable = False
        return cls(tuple(table), *columns)

    @classmethod
    def of(cls, intervals: Iterable[TimeInterval]) -> IntervalColumns:
        """``intervals`` as columns: columns as they are, objects sorted here."""
        if isinstance(intervals, cls):
            return intervals
        intervals = tuple(intervals)
        us = [iv.start_us for iv in intervals], [iv.end_us for iv in intervals]
        columns = cls.sort([iv.label for iv in intervals],
                           *np.array(us, np.int64))
        columns.__dict__["intervals"] = intervals
        return columns

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def intervals(self) -> tuple[TimeInterval, ...]:
        """The intervals in input order, built from the columns on first read."""
        rows = np.argsort(self.order)
        return tuple(map(TimeInterval, map(self.labels.__getitem__,
                                           self.codes[rows].tolist()),
                         *self.times_s[:, rows].tolist()))

    def check_ends(self, duration_s: float, video_id: str | None = None):
        """Check that every interval ends within its video, ``duration_s``.

        The column form of :meth:`TimeInterval.check_end`: one
        comparison of the whole end column, O(n). If an end is past the
        duration, the first such interval in input order is named, by
        the entry form, whatever the row order.
        """
        late = self.end_us > seconds_to_us(duration_s)
        if np.count_nonzero(late):
            self.intervals[self.order[late].min()].check_end(duration_s,
                                                             video_id)

    def class_codes(self, vocab: LabelVocabulary) -> np.ndarray:
        """Each row's class code in ``vocab``, an ``intp`` array in row order.

        The one interval-label rule, which both rasterizers and the
        ground-truth reader share. Each distinct label is looked up once,
        so ``n`` rows with ``L`` distinct labels cost O(n + L); only if
        one is not an action class are the labels read in input order,
        each once, to name the first such: an unknown one raises
        :class:`VocabularyError`, a background one
        :class:`ValidationError`, since background is whatever the
        intervals leave uncovered.
        """
        codes = list(map(vocab.codes.get, self.labels))
        if not all(codes):  # an unknown (None) or background (0) label
            for label in dict.fromkeys([iv.label for iv in self.intervals]):
                if not vocab.is_action(label):
                    raise ValidationError(
                        "background intervals are implicit, never stored")
        return np.array(codes, np.intp)[self.codes]


@dataclass(frozen=True, init=False)
class AnnotationTrack:
    """Ground truth for one video: its duration and labeled intervals.

    ``video_id`` must be a non-empty string and ``multi_label`` a bool,
    the forms the canonical files hold. Overlapping intervals are
    rejected unless the source adapter flags the track ``multi_label``;
    the discretizer then resolves each slot deterministically (earliest
    interval start, then lexicographic label).

    ``intervals`` may be :class:`TimeInterval` objects or the
    :class:`IntervalColumns` a parser built. The track keeps them as
    ``columns``, sorted once (O(n log n) for ``n`` intervals, here or
    in the parser) and never again: :func:`discretize` and
    :func:`~oadeval.offline.rasterize_frames` read them in that order.
    Its checks are whole-column comparisons, O(n): every end against
    the duration (:meth:`IntervalColumns.check_ends`), and each start
    against the latest end before it. Only a failed check reads
    ``intervals``, to name the interval at fault: the first in input
    order for an end, in sorted order for an overlap. ``intervals`` is
    the tuple of :class:`TimeInterval` in input order, as given or
    built from the columns on first read; ``==``, ``hash`` and ``repr``
    read it as the dataclass field it is.
    """

    video_id: str
    duration_s: float
    # no default here: a class attribute would hide __getattr__
    intervals: tuple[TimeInterval, ...]
    multi_label: bool
    columns: IntervalColumns = field(init=False, repr=False, compare=False)

    def __init__(self, video_id: str, duration_s: float,
                 intervals: Iterable[TimeInterval] = (),
                 multi_label: bool = False):
        _check_video_id(video_id)
        if not isinstance(multi_label, bool):
            raise ValidationError(f"video {video_id!r}: multi_label "
                                  f"{multi_label!r} must be a bool")
        if _number(duration_s, f"video {video_id!r}: duration") <= 0:
            raise ValidationError(
                f"video {video_id!r}: duration {duration_s} must be > 0")
        seconds_to_us(duration_s)
        cols = IntervalColumns.of(intervals)
        # intervals, not stored, is read from the columns
        self.__dict__.update(video_id=video_id, duration_s=duration_s,
                             multi_label=multi_label, columns=cols)
        cols.check_ends(duration_s, video_id)
        if not multi_label:
            late = cols.start_us[1:] < np.maximum.accumulate(cols.end_us[:-1])
            if np.count_nonzero(late):
                iv = self.intervals[cols.order[late.argmax() + 1]]
                raise ValidationError(
                    f"video {video_id!r}: interval [{iv.start_s}, {iv.end_s}) "
                    "overlaps an earlier one but track is not multi_label")

    def __getattr__(self, name):
        # only a name missing from the instance comes here
        if name != "intervals":
            raise AttributeError(name)
        return self.columns.intervals

    def __reduce__(self):
        # rebuilt through the constructor, so the columns stay read-only
        return AnnotationTrack, (self.video_id, self.duration_s,
                                 self.intervals, self.multi_label)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SlotGrid:
    """Dense per-slot class codes at resolution ``delta_t_s``.

    ``codes`` is the grid: one read-only ``numpy.intp`` array of each
    slot's class code (``vocab.codes``: background 0, the classes 1..C),
    which both IA engines score. ``labels`` is derived from it on first
    use. The constructor takes labels and names the first value that is
    not one, through :meth:`LabelVocabulary.code`;
    :func:`discretize` and :meth:`PredictionStream.as_grid` build grids
    from the codes they hold. ``==`` and ``hash`` compare the slot size,
    the vocabulary and the codes; ``repr`` shows the codes as labels.
    """

    delta_t_s: float
    vocab: LabelVocabulary
    codes: np.ndarray
    delta_t_us: int

    def __init__(self, delta_t_s: float, labels: Iterable[str],
                 vocab: LabelVocabulary):
        labels = tuple(labels)
        slot_us(delta_t_s)  # a bad slot size is reported before any label
        self._hold(delta_t_s, list(map(vocab.code, labels)), vocab)
        self.__dict__["labels"] = labels

    @classmethod
    def _of_codes(cls, delta_t_s: float, codes, vocab: LabelVocabulary,
                  ) -> SlotGrid:
        """A grid over ``codes``, each a code of ``vocab``."""
        grid = cls.__new__(cls)
        grid._hold(delta_t_s, codes, vocab)
        return grid

    def _hold(self, delta_t_s, codes, vocab) -> None:
        if not len(codes):
            raise DegenerateInputError("slot grid must hold at least one slot")
        codes = np.asarray(codes, np.intp)
        codes.flags.writeable = False
        self.__dict__.update(delta_t_s=delta_t_s, vocab=vocab, codes=codes,
                             delta_t_us=slot_us(delta_t_s))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(self.vocab.labels.__getitem__, self.codes.tolist()))

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other):
        return (isinstance(other, SlotGrid) and self.delta_t_s == other.delta_t_s
                and self.vocab == other.vocab
                and np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.delta_t_s, self.vocab, self.codes.tobytes()))

    def __repr__(self) -> str:
        return (f"SlotGrid(delta_t_s={self.delta_t_s!r}, "
                f"labels={self.labels!r}, vocab={self.vocab!r})")

    def __reduce__(self):
        # a pickled or copied array comes back writeable; _hold locks it
        return SlotGrid._of_codes, (self.delta_t_s, self.codes, self.vocab)


def num_slots(duration_s: float, delta_t_s: float) -> int:
    """Slot count ``K = floor(duration / delta_t)``, exact in microseconds.

    The one slot-count rule: the duration must be a number > 0 (as
    :func:`seconds_to_us` takes it, so never a bool), the slot size
    must pass :func:`slot_us`, and ``K`` must be at least 1 and at most
    :data:`MAX_SLOTS`. Each failure raises :class:`ValidationError`
    before anything is allocated; ``K = 0``, a slot longer than the
    video, raises its subclass :class:`DegenerateInputError`, since a
    video without slots has no IA at any instant.
    """
    if _number(duration_s, "duration") <= 0:
        raise ValidationError(f"duration {duration_s} must be > 0")
    k = seconds_to_us(duration_s) // slot_us(delta_t_s)
    if k == 0:
        raise DegenerateInputError(
            f"delta_t {delta_t_s} larger than duration {duration_s}: zero slots")
    if k > MAX_SLOTS:
        raise ValidationError(
            f"{k} slots exceed the limit of {MAX_SLOTS} per video")
    return k


def paint_midpoints(lo, hi, codes, size: int) -> np.ndarray:
    """Paint ``size`` midpoints with the code of the interval covering each.

    Interval ``i``, in the row order of :class:`IntervalColumns` (by
    start, then label), covers the midpoints ``lo[i]`` to ``hi[i] - 1``
    and has the code ``codes[i]``; a range past ``size`` is cut there, as
    a slice is. Midpoints no interval covers hold 0 (background). The
    ranges are painted in reverse order, one slice each, which leaves
    the earliest start, then the smallest label, on top wherever they
    overlap.
    """
    painted = np.zeros(size, np.intp)
    ranges = zip(lo.tolist(), hi.tolist(), codes.tolist())
    for start, stop, code in reversed(list(ranges)):
        painted[start:stop] = code
    return painted


def discretize(intervals: Iterable[TimeInterval] | IntervalColumns,
               duration_s: float, delta_t_s: float,
               vocab: LabelVocabulary) -> SlotGrid:
    """Rasterize intervals onto a slot grid using the midpoint rule.

    Slot ``j`` takes the code of the interval covering its midpoint
    ``(j - 1/2) * delta_t``; background if none does. When several
    intervals cover the midpoint the earliest start wins, then the
    lexicographically smallest label. ``intervals`` may be
    :class:`TimeInterval` objects, which are sorted here, once, or
    :class:`IntervalColumns`, such as a track's ``columns``, which were
    sorted when they were built and are not sorted again.

    The midpoints below a time ``t`` are counted exactly in integer
    microseconds: slot ``j`` has its midpoint below ``t`` when
    ``(2j - 1) * delta < 2t``, so ``t // delta`` slots do, and one more
    when ``t % delta > delta // 2``, capped at ``K``. That is computed
    on a whole column at once in int64, where no term is larger than
    ``t``, so it holds for every time and stays exact at half-slot
    offsets of odd microsecond slot sizes. :func:`paint_midpoints` then
    paints the ranges into a ``K``-slot code array: ``n`` intervals cost
    O(K + n + S), where ``S`` counts each slot once per interval
    covering it, so O(K + n) without overlaps.
    The duration, slot size and slot count are checked first, by
    :func:`num_slots`, then the labels by
    :meth:`IntervalColumns.class_codes` and the ends by
    :meth:`IntervalColumns.check_ends`, each naming the first fault in
    the order the intervals were given.
    """
    k = num_slots(duration_s, delta_t_s)
    delta_us = slot_us(delta_t_s)
    columns = IntervalColumns.of(intervals)
    codes = columns.class_codes(vocab)
    columns.check_ends(duration_s)

    # every end is within the duration, so no range passes slot k + 1
    slots, rest = np.divmod((columns.start_us, columns.end_us), delta_us)
    lo, hi = slots + (rest > delta_us // 2)
    return SlotGrid._of_codes(delta_t_s, paint_midpoints(lo, hi, codes, k),
                              vocab)


class PredictionStream:
    """Append-only causal sequence of per-slot class decisions.

    Decisions are 1-indexed; slot ``j`` may be recorded only once and
    only after slots ``1..j-1``. Revising a past slot or skipping ahead
    raises :class:`CausalityError`. A given ``num_slots`` caps the stream:
    a whole count from 1 to :data:`MAX_SLOTS`, the range of
    :func:`num_slots`, as :func:`_real` takes a number, so never a bool.
    """

    def __init__(self, video_id: str, delta_t_s: float, vocab: LabelVocabulary,
                 num_slots: int | None = None):
        _check_video_id(video_id)
        slot_us(delta_t_s)
        if num_slots is not None:
            count = _number(num_slots, "num_slots")
            if count <= 0:
                raise ValidationError("num_slots must be positive when given")
            if count % 1 or not count <= MAX_SLOTS:  # NaN % 1 is NaN, true
                raise ValidationError(f"num_slots {num_slots} must be a "
                                      f"whole count of at most {MAX_SLOTS}")
        self.video_id = video_id
        self.delta_t_s = delta_t_s
        self.vocab = vocab
        self.num_slots = num_slots
        self._codes: list[int] = []

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def decisions(self) -> tuple[str, ...]:
        return tuple(map(self.vocab.labels.__getitem__, self._codes))

    def append(self, label: str) -> int:
        """Record the decision for the next slot; returns its 1-based index."""
        code = self.vocab.code(label)
        j = len(self._codes) + 1
        if self.num_slots is not None and j > self.num_slots:
            raise CausalityError(
                f"video {self.video_id!r}: stream is complete at "
                f"{self.num_slots} slots, cannot append slot {j}")
        self._codes.append(code)
        return j

    def record(self, slot: int, label: str) -> int:
        """Record the decision for slot ``slot`` (must be the next slot)."""
        expected = len(self._codes) + 1
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

        When all of them fit, they are mapped to codes at once, and that
        lookup is their label check; if they do not fit or a value is not
        a label, they are appended one by one, so the same error is
        raised at the same slot and the valid prefix before it is kept.
        """
        labels = list(labels)
        if (self.num_slots is None
                or len(self._codes) + len(labels) <= self.num_slots):
            try:  # the whole list is mapped before any code is added
                self._codes += list(map(self.vocab.codes.__getitem__, labels))
                return
            except (KeyError, TypeError):
                pass
        for lab in labels:
            self.append(lab)

    def as_grid(self) -> SlotGrid:
        """View the decided prefix as a slot grid."""
        return SlotGrid._of_codes(self.delta_t_s, self._codes, self.vocab)


def events_to_stream(detections: Sequence[TimeInterval] | IntervalColumns,
                     video_id: str, duration_s: float, delta_t_s: float,
                     vocab: LabelVocabulary) -> PredictionStream:
    """Discretize timed detection events into a complete stream.

    ``detections`` are :class:`TimeInterval` objects or the columns a
    parser built (:func:`discretize`). The stream takes the grid's codes
    as they are: no label is mapped.
    """
    grid = discretize(detections, duration_s, delta_t_s, vocab)
    stream = PredictionStream(video_id, delta_t_s, vocab, num_slots=len(grid))
    stream._codes = grid.codes.tolist()
    return stream
