"""Legacy frame-level metrics: per-frame mAP and calibrated cAP.

Both metrics rank every frame in the dataset by its per-class confidence
and average a precision value over the ground-truth positive frames, so
neither can be produced from a growing prefix of a stream: adding frames
re-sorts the ranking and rewrites earlier values. They are provided for
comparison against the instantaneous-accuracy protocol.

Precision at a positive's rank is ``TP / (TP + FP)``; the calibrated
variant uses ``cPrec = w*TP / (w*TP + FP)`` where ``w`` is the
dataset-wide negative/positive frame ratio for the class, fixed a priori
over the whole test set. Average precision is the plain mean of the
precision at every positive's rank (all-points interpolation).
Background frames carry no score column; when a method scores them
highly for some class they surface as false positives only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .timeline import (
    MAX_SLOTS,
    AnnotationTrack,
    LabelVocabulary,
    _number,
    paint_midpoints,
)


@dataclass(frozen=True, eq=False)
class FrameScoreMatrix:
    """Per-frame confidence scores, one column per action class.

    Column order follows the vocabulary's class order. ``fps`` must be a
    finite number > 0, kept as given, and the row count must equal
    ``floor(duration * fps)`` of the matching video. ``scores`` is
    read-only, so the scores stay finite after the check made here: a
    float64 array passed in is frozen, not copied, and anything else is
    converted to a new float64 array first. A pickled or copied matrix
    is built again through the constructor, so it is read-only too.
    """

    video_id: str
    fps: float
    scores: np.ndarray

    def __post_init__(self):
        _rate(self.fps)
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 2:
            raise ValidationError("scores must be a 2-D frame x class array")
        if not np.all(np.isfinite(scores)):
            raise ValidationError(
                f"video {self.video_id!r}: scores must be finite")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    def __reduce__(self):
        return FrameScoreMatrix, (self.video_id, self.fps, self.scores)

    @property
    def n_frames(self) -> int:
        return self.scores.shape[0]


@dataclass
class APResult:
    """Per-class average precision plus the mean over scored classes."""

    per_class: dict[str, float]
    mean: float
    skipped_classes: tuple[str, ...] = ()


def _rate(fps: float) -> float:
    """``fps`` as a number (:func:`~oadeval.timeline._real`, so never a
    bool), which must be finite and > 0; else a :class:`ValidationError`."""
    rate = _number(fps, "fps")
    if not 0 < rate < math.inf:
        raise ValidationError(f"fps {fps} must be finite and > 0")
    return rate


def frame_count(duration_s: float, fps: float) -> int:
    """``floor(duration_s * fps)``, the one frame-count rule.

    The fps and the duration must be numbers, as
    :func:`~oadeval.timeline._real` takes them, so never bools. A
    non-finite or non-positive fps, a negative duration, a product that
    overflows, and a count above :data:`~oadeval.timeline.MAX_SLOTS` raise
    :class:`ValidationError` before anything is allocated. Zero frames,
    a video shorter than one frame, raise its subclass
    :class:`DegenerateInputError`, as zero slots do in
    :func:`~oadeval.timeline.num_slots`: such a video has no frame to
    score or rank.
    """
    frames = _rate(fps) * _number(duration_s, "duration")
    if not math.isfinite(frames):
        raise ValidationError(
            f"{duration_s} s at fps {fps} is not a finite frame count")
    n = math.floor(frames)
    if n < 0:  # the fps is > 0
        raise ValidationError(f"duration {duration_s} must be > 0")
    if n == 0:
        raise DegenerateInputError(
            f"{duration_s} s at fps {fps} is shorter than one frame: zero frames")
    if n > MAX_SLOTS:
        raise ValidationError(
            f"{n} frames exceed the limit of {MAX_SLOTS} per video")
    return n


def rasterize_frames(track: AnnotationTrack, fps: float,
                     vocab: LabelVocabulary) -> list[int]:
    """Ground-truth class code per frame, by the frame-midpoint rule.

    Frame ``i`` (1-indexed) covers ``[(i-1)/fps, i/fps)``; it takes the
    ``vocab.codes`` code of the interval covering the midpoint
    ``(i - 1/2)/fps``, 0 (background) if none does, ties resolved as in
    the slot discretizer (earliest start, then label). Midpoints
    and interval bounds are compared as floats in seconds: the track's
    columns, sorted when the track was built, give every bound at once,
    ``numpy.searchsorted`` over the ascending midpoints finds each
    interval's frame range, and the slot discretizer's
    :func:`~oadeval.timeline.paint_midpoints` paints them, so ``N``
    frames and ``n`` intervals cost O(N + n log N + F), where ``F``
    counts each frame once per interval covering it: overlapping
    intervals repaint the frames they share, and without overlaps the
    cost is O(N + n log N). Nothing is sorted here.

    Interval labels are checked first, before the frame count, by the
    slot discretizer's rule
    (:meth:`~oadeval.timeline.IntervalColumns.class_codes`): an unknown
    label raises :class:`~oadeval.errors.VocabularyError` and a
    background interval raises :class:`ValidationError`, so a background
    interval can never mask the action frames it overlaps.
    """
    codes = track.columns.class_codes(vocab)
    mids = (np.arange(1, frame_count(track.duration_s, fps) + 1) - 0.5) / fps
    lo, hi = np.searchsorted(mids, [track.columns.start_us / 1e6,
                                    track.columns.end_us / 1e6])
    return paint_midpoints(lo, hi, codes, len(mids)).tolist()


def _collect(score_matrices, tracks, vocab):
    """Align matrices with tracks and flatten the dataset frame-major.

    Returns the stacked scores and the ground-truth class code of every
    row (``vocab.codes``: 0 for background, column + 1 for a class).
    Rows are stacked in video-id order, then frame order, so a stable
    sort of a score column breaks ties by video id, then frame index.
    """
    by_id = {}
    for m in score_matrices:
        if m.video_id in by_id:
            raise ValidationError(f"duplicate score matrix for {m.video_id!r}")
        by_id[m.video_id] = m
    track_ids = {t.video_id for t in tracks}
    unknown = sorted(set(by_id) - track_ids)
    if unknown:
        raise ValidationError(f"scores reference unknown videos: {unknown}")
    missing = sorted(track_ids - set(by_id))
    if missing:
        raise ValidationError(f"missing scores for videos: {missing}")

    all_scores, all_codes = [np.zeros((0, len(vocab.classes)))], []
    for track in sorted(tracks, key=lambda t: t.video_id):
        m = by_id[track.video_id]
        expected = frame_count(track.duration_s, m.fps)
        if m.n_frames != expected:
            raise ValidationError(
                f"video {track.video_id!r}: {m.n_frames} score rows but "
                f"{track.duration_s} s at {m.fps} fps has {expected} frames")
        if m.scores.shape[1] != len(vocab.classes):
            raise ValidationError(
                f"video {track.video_id!r}: {m.scores.shape[1]} score columns "
                f"for {len(vocab.classes)} classes")
        all_scores.append(m.scores)
        all_codes.extend(rasterize_frames(track, m.fps, vocab))
    return np.concatenate(all_scores), np.array(all_codes, dtype=np.intp)


def _ranked_average_precision(scores, codes, vocab, calibrated):
    per_class: dict[str, float] = {}
    skipped = []
    for col, cls in enumerate(vocab.classes):
        positives = codes == col + 1
        n_pos = np.count_nonzero(positives)
        if n_pos == 0:
            skipped.append(cls)
            continue
        order = np.argsort(-scores[:, col], kind="stable")
        # precision is read at the positives only: the k-th positive in
        # ranking order has TP = k at its rank
        ranks = np.flatnonzero(positives[order]) + 1
        tp = np.arange(1, n_pos + 1)
        fp = ranks - tp
        if calibrated:
            n_neg = len(codes) - n_pos
            # no negatives anywhere: FP is identically zero, so any
            # positive weight yields 1; avoid the 0/0 by using w = 1
            w = n_neg / n_pos if n_neg > 0 else 1.0
            prec = (w * tp) / (w * tp + fp)
        else:
            prec = tp / ranks
        per_class[cls] = float(np.mean(prec))

    if not per_class:
        raise ValidationError("no class has ground-truth frames")
    mean = sum(per_class.values()) / len(per_class)
    return APResult(per_class=per_class, mean=mean,
                    skipped_classes=tuple(skipped))


def frame_map(score_matrices, tracks, vocab: LabelVocabulary) -> APResult:
    """Per-frame mean average precision over the dataset ranking.

    Frames are ranked per class by descending score with a stable sort
    of the stacked rows, so ties keep row order: video id, then frame
    index. Classes without ground-truth frames are excluded from the
    mean and listed in :attr:`APResult.skipped_classes`.
    """
    return _ranked_average_precision(*_collect(score_matrices, tracks, vocab),
                                     vocab=vocab, calibrated=False)


def frame_cap(score_matrices, tracks, vocab: LabelVocabulary) -> APResult:
    """Calibrated average precision on the same ranking as `frame_map`."""
    return _ranked_average_precision(*_collect(score_matrices, tracks, vocab),
                                     vocab=vocab, calibrated=True)
