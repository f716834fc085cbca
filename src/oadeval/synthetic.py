"""Seeded synthetic corpora for desk-scale metric experiments.

Real dataset runs need the original annotations and model outputs; the
structural claims (saturation of the streaming metrics, weighting
behavior on unbalanced timelines) are checked on corpora built here.
"""

from __future__ import annotations

import itertools
import math
from numbers import Real

import numpy as np

from .errors import ValidationError
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

    A video that draws no segment gets one from 1.0 s, cut at the
    video's end, so every video needs at least 1.3 s: a shorter one
    raises :class:`ValidationError` naming ``duration_range``. So does a
    range with a bound that is not finite, a difference that is not, or
    ``high < low``, for either range, before anything is drawn.

    Draws read the raw 64-bit words of ``np.random.PCG64(seed)`` and
    reproduce ``np.random.default_rng(seed)``'s ``random`` and
    ``integers`` bit for bit (:func:`_pcg64_draws`). Each uniform value
    is ``low + (high - low) * random()``, the arithmetic of
    ``Generator.uniform`` without its per-call checks, so a seed gives
    the same corpus as it did through ``uniform``. An empty ``classes``
    raises :class:`ValidationError` before anything is drawn.
    """
    dur_lo, dur_span = _checked_range("duration_range", duration_range)
    den_lo, den_span = _checked_range("density_range", density_range)
    vocab = LabelVocabulary(classes=tuple(classes))
    if not vocab.classes:
        raise ValidationError(f"{classes=} must name at least one class")
    draw, integers = _pcg64_draws(seed)
    tracks = []
    for i in range(n_videos):
        duration = round(dur_lo + dur_span * draw(), 2)
        if snap_duration_s:
            duration = round(duration / snap_duration_s) * snap_duration_s
        # the fallback segment below needs 0.3 s after 1.0 s
        if duration < 1.3:
            raise ValidationError(f"{duration_range=} drew {duration} s < 1.3 s")
        target = (den_lo + den_span * draw()) * duration
        intervals = []
        covered = 0.0
        t = round(0.5 + (2.5 - 0.5) * draw(), 2)
        while covered < target and t < duration - 1.0:
            seg = round(0.6 + (2.4 - 0.6) * draw(), 2)
            seg = min(seg, target - covered + 0.3, duration - t - 0.5)
            label = classes[integers(len(classes))]
            # t is already rounded to 2 places
            intervals.append(TimeInterval(label, t, round(t + seg, 2)))
            covered += seg
            t = round(t + seg + (1.0 + (4.0 - 1.0) * draw()), 2)
        if not intervals:
            # guarantee at least one action segment per video, cut at its end
            label = classes[integers(len(classes))]
            end = min(1.0 + max(0.6, target), duration)
            intervals.append(TimeInterval(label, 1.0, end))
        tracks.append(AnnotationTrack(
            video_id=f"synthetic-{i:03d}", duration_s=duration,
            intervals=tuple(intervals)))
    return CorpusManifest(vocabulary=vocab, tracks=tuple(tracks),
                          source=f"synthetic:seed={seed}")


def _pcg64_draws(seed):
    """``(random, integers)`` closures that draw as ``default_rng(seed)``.

    ``random()`` is ``Generator.random()``: the top 53 bits of one raw
    PCG64 word over ``2**53``. ``integers(n)``, for ``n`` from 1 to
    ``2**32 - 1``, is ``int(Generator.integers(n))``: Lemire's bounded
    method on 32-bit draws, the low half of a fresh word first and its
    high half kept for the next draw, as PCG64's ``next_uint32`` does;
    ``n == 1`` gives 0 and reads no word. Words are read in chunks; the
    bit generator is local, so what a chunk over-draws is never seen.
    """
    bitgen = np.random.PCG64(seed)
    words = itertools.chain.from_iterable(
        iter(lambda: bitgen.random_raw(64).tolist(), None))
    spare = []  # the unused high half of the last word integers read

    def random():
        return (next(words) >> 11) * (1.0 / 9007199254740992.0)

    def integers(n):
        if n == 1:
            return 0
        threshold = (0x100000000 - n) % n
        while True:
            if spare:
                m = spare.pop() * n
            else:
                word = next(words)
                spare.append(word >> 32)
                m = (word & 0xFFFFFFFF) * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    return random, integers


def _checked_range(name: str, bounds) -> tuple[float, float]:
    """``(low, high - low)`` of a uniform range, as ``uniform`` takes them.

    A bound that is not a real number, a string among them, raises
    ``TypeError``, as in ``Generator.uniform``. That raises
    ``OverflowError`` for a bound or a difference that is not finite
    and ``ValueError`` for ``high < low``; those ranges raise
    :class:`ValidationError` naming ``name`` here.
    """
    low, high = bounds
    if not (isinstance(low, Real) and isinstance(high, Real)):
        raise TypeError(f"{name}={bounds!r} must be two real numbers")
    low, span = float(low), float(high) - float(low)
    if not 0 <= span < math.inf:
        raise ValidationError(f"{name}={bounds!r} must be finite with "
                              "low <= high")
    return low, span
