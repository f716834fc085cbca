"""Analytic baseline predictors: All-Background and the Perfect Model.

All-Background never leaves the background class and calibrates how far
plain accuracy can get on an unbalanced timeline. The Perfect Model is
the ceiling probe: its slot decisions replay the ground truth exactly,
so any metric that treats background as a first-class category must
award it a perfect score at every instant. Its frame score matrix, in
contrast, mimics the established methods it stands in for: action
frames score 1 for the correct class, background frames score 1 for a
seeded random action class, because the score format has no background
column. Ranking metrics consequently stay below their maximum on any
video containing background, which is the whole point of the probe.

Randomness comes from a PCG64 generator seeded per video with
``base_seed XOR crc32(video_id)``, so corpus runs are reproducible
across platforms and videos can be generated in parallel.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ValidationError
from .offline import FrameScoreMatrix, frame_count, rasterize_frames
from .timeline import (
    AnnotationTrack,
    LabelVocabulary,
    PredictionStream,
    discretize,
    events_to_stream,
)


def video_rng(base_seed: int, video_id: str) -> np.random.Generator:
    """Per-video generator: reproducible and independent across videos."""
    if base_seed < 0:
        raise ValidationError(f"seed {base_seed} must be >= 0")
    return np.random.Generator(
        np.random.PCG64(base_seed ^ zlib.crc32(video_id.encode("utf-8"))))


def all_bg(track: AnnotationTrack, delta_t_s: float, vocab: LabelVocabulary,
           fps: float | None = None,
           ) -> tuple[PredictionStream, FrameScoreMatrix | None]:
    """Background decision on every slot; zero scores when ``fps`` is given."""
    stream = events_to_stream((), track.video_id, track.duration_s,
                              delta_t_s, vocab)
    if fps is None:
        return stream, None
    shape = (frame_count(track.duration_s, fps), len(vocab.classes))
    return stream, FrameScoreMatrix(track.video_id, fps, np.zeros(shape))


def perfect_model(track: AnnotationTrack, delta_t_s: float,
                  vocab: LabelVocabulary, seed: int,
                  fps: float | None = None,
                  ) -> tuple[PredictionStream, FrameScoreMatrix]:
    """Ceiling probe: ground-truth slot decisions plus one-hot frame scores.

    ``fps`` defaults to one frame per slot. Scores are one-hot on the
    true class for action frames and on a uniformly random action class
    for background frames: one draw from the per-video seeded generator
    per background frame, in frame order.
    """
    if not vocab.classes:
        raise ValidationError("vocabulary needs at least one action class")
    grid = discretize(track.intervals, track.duration_s, delta_t_s, vocab)
    stream = PredictionStream(track.video_id, delta_t_s, vocab,
                              num_slots=len(grid))
    stream.extend(grid.labels)

    if fps is None:
        fps = 1.0 / delta_t_s
    rng = video_rng(seed, track.video_id)
    cols = np.array(rasterize_frames(track, fps, vocab), dtype=np.intp) - 1
    background = cols < 0
    cols[background] = rng.integers(len(vocab.classes),
                                    size=np.count_nonzero(background))
    scores = np.zeros((len(cols), len(vocab.classes)))
    scores[np.arange(len(cols)), cols] = 1.0
    return stream, FrameScoreMatrix(track.video_id, fps, scores)
