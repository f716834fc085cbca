"""Seeded synthetic corpora for desk-scale metric experiments.

Real dataset runs need the original annotations and model outputs; the
structural claims (saturation of the streaming metrics, weighting
behavior on unbalanced timelines) are checked on corpora built here.
"""

from __future__ import annotations

import numpy as np

from .formats import CorpusManifest
from .timeline import AnnotationTrack, LabelVocabulary, TimeInterval

DEFAULT_CLASSES = ("clap", "jump", "run", "wave")


def synthetic_corpus(seed: int, n_videos: int = 20,
                     classes: tuple[str, ...] = DEFAULT_CLASSES,
                     duration_range: tuple[float, float] = (8.0, 30.0),
                     density_range: tuple[float, float] = (0.1, 0.4),
                     snap_duration_s: float = 0.5,
                     ) -> CorpusManifest:
    """Random untrimmed-video ground truth with controlled action density.

    Each video draws a duration and a target action fraction, then
    alternates background gaps with action segments of random classes
    until the target is covered. Densities well below one half keep the
    corpora as unbalanced as the datasets this protocol targets.

    Durations snap to multiples of ``snap_duration_s`` (pass 0 to keep
    raw durations) so that evaluation at that slot size covers whole
    timelines with no trailing remainder.
    """
    rng = np.random.default_rng(seed)
    vocab = LabelVocabulary(classes=tuple(classes))
    tracks = []
    for i in range(n_videos):
        duration = round(float(rng.uniform(*duration_range)), 2)
        if snap_duration_s:
            duration = round(duration / snap_duration_s) * snap_duration_s
        target = float(rng.uniform(*density_range)) * duration
        intervals = []
        covered = 0.0
        t = round(float(rng.uniform(0.5, 2.5)), 2)
        while covered < target and t < duration - 1.0:
            seg = round(float(rng.uniform(0.6, 2.4)), 2)
            seg = min(seg, target - covered + 0.3, duration - t - 0.5)
            label = classes[int(rng.integers(len(classes)))]
            intervals.append(TimeInterval(label, round(t, 2), round(t + seg, 2)))
            covered += seg
            t = round(t + seg + float(rng.uniform(1.0, 4.0)), 2)
        if not intervals:
            # guarantee at least one action segment per video
            label = classes[int(rng.integers(len(classes)))]
            intervals.append(TimeInterval(label, 1.0, 1.0 + max(0.6, target)))
        tracks.append(AnnotationTrack(
            video_id=f"synthetic-{i:03d}", duration_s=duration,
            intervals=tuple(intervals)))
    return CorpusManifest(vocabulary=vocab, tracks=tuple(tracks),
                          source=f"synthetic:seed={seed}")
