"""Instantaneous accuracy: incremental, causal slot-level evaluation.

For a prediction/ground-truth slot pair consumed at instant ``t' = j*dt``
the engine maintains five integer counters and emits, in O(1) per slot:

    IA(t')  = (tp + tn) / K'
    wIA(t') = (w * tp + (1/w) * tn) / K'      with  w = N' / P'

where ``K' = floor(t'/dt)`` is the slots consumed so far, ``tp`` counts
correct action slots, ``tn`` correct background slots, and ``P'``/``N'``
the ground-truth action/background slots seen. While either ground-truth
count is still zero the ratio is undefined and ``w`` falls back to 1,
which keeps wIA bounded in [0, 1] and lets a perfect predictor score 1
at every instant.

Both engines score the vocabulary's small-int class codes (background 0,
classes 1..C), which every :class:`~oadeval.timeline.SlotGrid` takes once
at construction as ``grid.codes``. :class:`StreamingEvaluator` reads the
ground truth's codes; each decision then costs one dict lookup and a few
integer adds, O(1) per slot. :func:`update` is the same step on label strings
and explicit :class:`MetricState` values, and shares the trace-point
arithmetic with the evaluator. :func:`evaluate_grids` scores two
completed grids at once: the counters are prefix sums, taken with NumPy.
Every value is one float division of two exact integers, so the prefix
sums match the streaming engine bit for bit up to
:data:`EXACT_PREFIX_SLOTS` slots; longer grids are replayed through
:class:`StreamingEvaluator`.

Only the seen prefix ever enters a value: the metric is causal by
construction, and :func:`oracle_ia` re-derives every instant from scratch
(full prefix enumeration) to verify both engines bit-for-bit.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInputError, ValidationError, VocabularyError
from .timeline import LabelVocabulary, SlotGrid, seconds_to_us


class MatchingMode(enum.Enum):
    """How a predicted action is credited against a ground-truth action.

    CLASS_AWARE requires the exact class; BINARY credits any action
    class on an action slot. Background is matched literally either way.
    """

    CLASS_AWARE = "class-aware"
    BINARY = "binary"


class MetricState(NamedTuple):
    """Running counters after consuming ``k_prime`` slots."""

    k_prime: int = 0
    tp_count: int = 0
    tn_count: int = 0
    gt_action_count: int = 0
    gt_background_count: int = 0


class IATracePoint(NamedTuple):
    """IA/wIA values at one evaluation instant ``t_s = j * delta_t``."""

    t_s: float
    ia: float
    wia: float
    weight_w: float


def update(state: MetricState, predicted: str, truth: str,
           vocab: LabelVocabulary, delta_t_s: float,
           mode: MatchingMode = MatchingMode.CLASS_AWARE,
           ) -> tuple[MetricState, IATracePoint]:
    """Consume one slot decision and return the new state plus trace point.

    ``tp`` increments when the truth is an action and the prediction
    matches it under ``mode``; ``tn`` increments when both sides are
    background. Unknown labels raise a vocabulary error.
    """
    truth_is_action = vocab.is_action(truth)
    pred_is_action = vocab.is_action(predicted)

    k = state.k_prime + 1
    tp = state.tp_count
    tn = state.tn_count
    p = state.gt_action_count
    n = state.gt_background_count
    if truth_is_action:
        p += 1
        if pred_is_action and (mode is MatchingMode.BINARY or predicted == truth):
            tp += 1
    else:
        n += 1
        if not pred_is_action:
            tn += 1

    return MetricState(k, tp, tn, p, n), _trace_point(k, tp, tn, p, n, delta_t_s)


# tuple.__new__ skips the namedtuple's Python-level __new__ on the hot path
_new_point = tuple.__new__


def _trace_point(k: int, tp: int, tn: int, p: int, n: int,
                 delta_t_s: float) -> IATracePoint:
    # wIA is evaluated over a common integer denominator,
    #   (N'^2*tp + P'^2*tn) / (N'*P'*K')  ==  (w*tp + tn/w) / K',
    # so only one float rounding happens: a perfect prefix scores 1.0
    # exactly and the numerator can never exceed the denominator.
    ia = (tp + tn) / k
    if p > 0 and n > 0:
        return _new_point(IATracePoint, (k * delta_t_s, ia,
                          (n * n * tp + p * p * tn) / (n * p * k), n / p))
    return _new_point(IATracePoint, (k * delta_t_s, ia, ia, 1.0))


class StreamingEvaluator:
    """Single-writer per-video evaluator fed one decision at a time.

    Ground truth for the video is fixed up front as its grid's class
    codes; predictions arrive causally and each :meth:`consume`
    yields the trace point for the slot just decided. :attr:`state` reads
    and assigns the counters as a :class:`MetricState`.
    """

    def __init__(self, grid_gt: SlotGrid,
                 mode: MatchingMode = MatchingMode.CLASS_AWARE):
        self._grid_gt = grid_gt
        self.mode = mode
        self._codes = grid_gt.vocab.codes
        self._truth = grid_gt.codes
        self._delta_t_s = grid_gt.delta_t_s
        # slots seen, true positives, true negatives, ground-truth actions;
        # ground-truth background is k - p
        self._k = self._tp = self._tn = self._p = 0
        self.trace: list[IATracePoint] = []

    @property
    def grid_gt(self) -> SlotGrid:
        """The ground truth, read-only: its codes are taken once."""
        return self._grid_gt

    @property
    def state(self) -> MetricState:
        k, p = self._k, self._p
        return MetricState(k, self._tp, self._tn, p, k - p)

    @state.setter
    def state(self, state: MetricState) -> None:
        k, tp, tn, p, n = state
        if k != p + n:
            raise ValidationError(
                f"state counts {p} action + {n} background slots "
                f"but k_prime is {k}")
        self._k, self._tp, self._tn, self._p = k, tp, tn, p

    def consume(self, predicted: str) -> IATracePoint:
        k = self._k
        truth = self._truth
        if k >= len(truth):
            raise ValidationError(f"all {len(truth)} slots already evaluated")
        pred = self._codes.get(predicted)
        if pred is None:
            raise VocabularyError(f"unknown label {predicted!r}")
        t = truth[k]
        self._k = k = k + 1
        if t:
            self._p += 1
            if pred == t or (pred and self.mode is MatchingMode.BINARY):
                self._tp += 1
        elif not pred:
            self._tn += 1
        p = self._p
        point = _trace_point(k, self._tp, self._tn, p, k - p, self._delta_t_s)
        self.trace.append(point)
        return point


def _check_grids(grid_pred: SlotGrid, grid_gt: SlotGrid) -> None:
    if grid_pred.vocab != grid_gt.vocab:
        raise ValidationError("prediction and ground-truth grids use "
                              "different vocabularies")
    if grid_pred.delta_t_us != grid_gt.delta_t_us:
        raise ValidationError(
            f"slot size mismatch: prediction {grid_pred.delta_t_s} s "
            f"vs ground truth {grid_gt.delta_t_s} s")
    if len(grid_pred) != len(grid_gt):
        raise ValidationError(
            f"slot count mismatch: prediction {len(grid_pred)} "
            f"vs ground truth {len(grid_gt)}")


# Largest grid whose prefix-sum trace is exact. Every value is a quotient
# of non-negative integers: IA = (tp+tn)/K' and w = N'/P' have both sides
# <= K', and wIA = (N'^2*tp + P'^2*tn)/(N'*P'*K') has, since tp <= P' and
# tn <= N', a numerator <= N'*P'*(N'+P') = N'*P'*K' <= K*floor(K*K/4).
# While that bound is <= 2**53, int64 holds every term and float64
# represents it exactly, so each division is the correctly rounded
# quotient of the same exact integers that update() divides.
# K*(K*K//4) <= 2**53 holds up to K = 330,280 (45.9 h at 0.5 s slots).
EXACT_PREFIX_SLOTS = 330_280


def _prefix_sum_trace(grid_pred: SlotGrid, grid_gt: SlotGrid,
                      mode: MatchingMode) -> list[IATracePoint]:
    k = len(grid_gt)
    pred = np.fromiter(grid_pred.codes, np.int64, k)
    truth = np.fromiter(grid_gt.codes, np.int64, k)
    truth_action = truth > 0
    if mode is MatchingMode.BINARY:
        tp_flags = truth_action & (pred > 0)
    else:
        tp_flags = truth_action & (pred == truth)
    tn_flags = (truth == 0) & (pred == 0)

    seen = np.arange(1, k + 1, dtype=np.int64)
    tp = np.cumsum(tp_flags, dtype=np.int64)
    tn = np.cumsum(tn_flags, dtype=np.int64)
    p = np.cumsum(truth_action, dtype=np.int64)
    n = seen - p
    both = (p > 0) & (n > 0)
    ia = (tp + tn) / seen
    wia = np.where(both, (n * n * tp + p * p * tn)
                   / np.where(both, n * p * seen, 1), ia)
    w = np.where(both, n / np.maximum(p, 1), 1.0)
    t_s = seen * grid_gt.delta_t_s
    return list(map(IATracePoint._make, zip(
        t_s.tolist(), ia.tolist(), wia.tolist(), w.tolist())))


def evaluate_grids(grid_pred: SlotGrid, grid_gt: SlotGrid,
                   mode: MatchingMode = MatchingMode.CLASS_AWARE,
                   ) -> list[IATracePoint]:
    """Trace two completed grids; equals feeding a :class:`StreamingEvaluator`.

    Grids of up to :data:`EXACT_PREFIX_SLOTS` slots are scored by prefix
    sums over class codes; longer ones are replayed slot by slot.
    """
    _check_grids(grid_pred, grid_gt)
    if len(grid_gt) <= EXACT_PREFIX_SLOTS:
        return _prefix_sum_trace(grid_pred, grid_gt, mode)
    evaluator = StreamingEvaluator(grid_gt, mode)
    for label in grid_pred.labels:
        evaluator.consume(label)
    return evaluator.trace


def _k_prime_at(grid: SlotGrid, t_prime_s: float) -> int:
    t_us = seconds_to_us(t_prime_s)
    if t_us <= 0:
        raise DegenerateInputError(f"evaluation instant {t_prime_s} s must be > 0")
    k = t_us // grid.delta_t_us
    if k == 0:
        raise DegenerateInputError(
            f"evaluation instant {t_prime_s} s precedes the first slot "
            f"boundary ({grid.delta_t_s} s)")
    if k > len(grid):
        raise ValidationError(
            f"evaluation instant {t_prime_s} s lies beyond the "
            f"{len(grid)}-slot grid")
    return k


def ia_at(grid_pred: SlotGrid, grid_gt: SlotGrid, t_prime_s: float,
          mode: MatchingMode = MatchingMode.CLASS_AWARE) -> float:
    """IA over slots ``1..floor(t'/dt)``; equals replaying the prefix."""
    _check_grids(grid_pred, grid_gt)
    k = _k_prime_at(grid_gt, t_prime_s)
    return evaluate_grids(grid_pred, grid_gt, mode)[k - 1].ia


def wia_at(grid_pred: SlotGrid, grid_gt: SlotGrid, t_prime_s: float,
           mode: MatchingMode = MatchingMode.CLASS_AWARE) -> float:
    """Weighted IA over slots ``1..floor(t'/dt)``."""
    _check_grids(grid_pred, grid_gt)
    k = _k_prime_at(grid_gt, t_prime_s)
    return evaluate_grids(grid_pred, grid_gt, mode)[k - 1].wia


def weight_trace(grid_gt: SlotGrid) -> list[tuple[float, float]]:
    """Per-instant dynamic weight ``w(t')`` over the ground-truth grid.

    ``w`` is the background/action ratio of the seen prefix, with the
    fallback to 1 while either count is zero. Depends on ground truth
    only, never on predictions: it is the ``weight_w`` column of the
    ground truth scored against itself.
    """
    return [(p.t_s, p.weight_w) for p in evaluate_grids(grid_gt, grid_gt)]


def maia(per_video_traces: Iterable[tuple[float, Sequence[float]]],
         delta_t_s: float) -> float:
    """Mean average instantaneous accuracy over a corpus.

    Each entry pairs a video duration ``T_i`` with its per-instant value
    sequence (one value per slot, ``floor(T_i/dt)`` of them); the result
    is ``mean_i ( (dt / T_i) * sum_j values_i[j] )``. The ``dt/T_i``
    factor is applied as written, so a constant trace on a duration that
    is not a slot multiple averages slightly below the constant. Pass an
    IA trace for the unweighted aggregate, a wIA trace for the weighted
    one.
    """
    delta_us = seconds_to_us(delta_t_s)
    if delta_us <= 0:
        raise ValidationError(f"delta_t {delta_t_s} must be > 0")
    totals = []
    for duration_s, values in per_video_traces:
        expected = seconds_to_us(duration_s) // delta_us
        if len(values) != expected:
            raise ValidationError(
                f"trace holds {len(values)} values but a {duration_s} s video "
                f"at delta_t {delta_t_s} s has {expected} slots")
        totals.append((delta_t_s / duration_s) * sum(values))
    if not totals:
        raise DegenerateInputError("maia needs at least one video trace")
    return sum(totals) / len(totals)


def oracle_ia(grid_pred: SlotGrid, grid_gt: SlotGrid,
              mode: MatchingMode = MatchingMode.CLASS_AWARE,
              ) -> list[IATracePoint]:
    """Brute-force reference: recompute every instant from scratch.

    For each prefix length the counters are re-accumulated over all its
    slots (O(K^2) work overall) with no state carried between instants.
    Results must match :func:`evaluate_grids` bit for bit.
    """
    _check_grids(grid_pred, grid_gt)
    vocab = grid_gt.vocab
    delta_t_s = grid_gt.delta_t_s
    class_aware = mode is MatchingMode.CLASS_AWARE

    truth_action = [vocab.is_action(t) for t in grid_gt.labels]
    pred_action = [vocab.is_action(pr) for pr in grid_pred.labels]
    tp_flags = []
    tn_flags = []
    for pr, t, t_act, pr_act in zip(grid_pred.labels, grid_gt.labels,
                                    truth_action, pred_action):
        tp_flags.append(1 if t_act and pr_act and (pr == t or not class_aware) else 0)
        tn_flags.append(1 if not t_act and not pr_act else 0)

    trace = []
    for k in range(1, len(grid_gt) + 1):
        tp = sum(tp_flags[:k])
        tn = sum(tn_flags[:k])
        p = sum(truth_action[:k])
        n = k - p
        ia = (tp + tn) / k
        if p > 0 and n > 0:
            w = n / p
            wia = (n * n * tp + p * p * tn) / (n * p * k)
        else:
            w = 1.0
            wia = ia
        trace.append(IATracePoint(t_s=k * delta_t_s, ia=ia, wia=wia, weight_w=w))
    return trace
