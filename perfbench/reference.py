"""Independent reference computations for the benchmark's correctness gate.

Nothing here calls into the toolkit's rasterizers or ranking code: a
later optimisation of those modules is checked against these plain
re-statements of the documented rules (docs/formats.md, the module
docstrings of ``timeline`` and ``offline``).
"""

from __future__ import annotations

import math

import numpy as np

US_PER_S = 1_000_000


def to_us(seconds: float) -> int:
    return round(seconds * US_PER_S)


def slot_labels(intervals, duration_s, delta_t_s, background):
    """Slot-midpoint rasterization of ``(label, start_s, end_s)`` triples.

    Slot ``j`` (1-based) takes the label of the interval whose
    ``[start, end)`` covers its midpoint, compared in doubled integer
    microseconds; earliest start, then smallest label, wins ties.
    """
    delta_us = to_us(delta_t_s)
    k = to_us(duration_s) // delta_us
    mid2 = (2 * np.arange(1, k + 1, dtype=np.int64) - 1) * delta_us
    labels = np.full(k, background, dtype=object)
    taken = np.zeros(k, dtype=bool)
    for label, start_s, end_s in sorted(intervals,
                                        key=lambda iv: (to_us(iv[1]), iv[0])):
        hit = ~taken & (mid2 >= 2 * to_us(start_s)) & (mid2 < 2 * to_us(end_s))
        labels[hit] = label
        taken |= hit
    return labels.tolist()


def frame_labels(intervals, duration_s, fps, background):
    """Frame-midpoint rasterization: frame ``i`` sits at ``(i - 1/2)/fps``."""
    n = math.floor(duration_s * fps)
    mids = (np.arange(1, n + 1) - 0.5) / fps
    labels = np.full(n, background, dtype=object)
    taken = np.zeros(n, dtype=bool)
    for label, start_s, end_s in sorted(intervals,
                                        key=lambda iv: (to_us(iv[1]), iv[0])):
        hit = ~taken & (mids >= to_us(start_s) / 1e6) & (mids < to_us(end_s) / 1e6)
        labels[hit] = label
        taken |= hit
    return labels.tolist()


def maia(per_video, delta_t_s):
    """Corpus mean of ``(dt / T_i) * sum_j values_i[j]`` over ``(T_i, values_i)``
    pairs: the documented maIA (or weighted maIA, given wIA values)."""
    return sum(delta_t_s / duration_s * sum(values)
               for duration_s, values in per_video) / len(per_video)


def ranked_ap(columns, labels, classes, calibrated):
    """Per-class (calibrated) average precision over one dataset ranking.

    ``columns[c]`` holds class ``c``'s score for every frame in
    video-major order and ``labels`` the matching ground truth; ties in
    score keep that order, which is the documented video-then-frame
    tie-break. Returns ``{class: AP}`` for classes with positives.
    """
    out = {}
    n = len(labels)
    for cls, col in zip(classes, columns):
        n_pos = sum(1 for lab in labels if lab == cls)
        if n_pos == 0:
            continue
        n_neg = n - n_pos
        w = n_neg / n_pos if n_neg > 0 else 1.0
        order = sorted(range(n), key=lambda i: -col[i])
        tp = fp = 0
        total = 0.0
        for i in order:
            if labels[i] == cls:
                tp += 1
                total += (w * tp) / (w * tp + fp) if calibrated else tp / (tp + fp)
            else:
                fp += 1
        out[cls] = total / n_pos
    return out
