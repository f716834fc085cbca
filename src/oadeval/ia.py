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
classes 1..C), which are what a :class:`~oadeval.timeline.SlotGrid` is:
``grid.codes`` is one read-only NumPy array, and its labels are derived
only when asked for. :class:`StreamingEvaluator` takes the ground truth's
codes once, as Python ints; each decision then costs one list index
(which is also the check that slots remain), one dict lookup and a few
integer adds on slotted attributes, O(1) per slot. :func:`evaluate_grids`
scores two completed grids at once: the counters are prefix sums over
both code arrays, one NumPy ``cumsum`` of their stacked flags. Every value is one
float division of two exact integers, so the prefix sums match the
streaming engine bit for bit up to
:data:`EXACT_PREFIX_SLOTS` slots; longer grids are replayed through
:class:`StreamingEvaluator`. Its result is an :class:`IATrace`: one
read-only ``(K, 4)`` float64 array whose columns are the four
:class:`IATracePoint` fields, so writers and aggregates read whole
columns while indexing and iteration still yield points.

Only the seen prefix ever enters a value: the metric is causal by
construction, and :func:`oracle_ia` re-derives every instant from scratch
to verify both engines bit-for-bit: it builds one flag byte per slot from
the labels, not the codes, and recounts each prefix with
``bytearray.count``.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .timeline import SlotGrid, num_slots, seconds_to_us


class MatchingMode(enum.Enum):
    """How a predicted action is credited against a ground-truth action.

    CLASS_AWARE requires the exact class; BINARY credits any action
    class on an action slot. Background is matched literally either way.
    Every engine takes its mode through ``MatchingMode(mode)``, so a
    member or its value (``"binary"``) selects the same mode, and any
    other value raises :class:`ValidationError` naming it.
    """

    CLASS_AWARE = "class-aware"
    BINARY = "binary"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"unknown matching mode {value!r}")


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


# tuple.__new__ skips the namedtuple's Python-level __new__ on the hot path
_new_point = tuple.__new__


class IATrace(Sequence):
    """A read-only sequence of :class:`IATracePoint` over one float64 array.

    ``rows`` has shape ``(K, 4)`` with the columns ``t_s, ia, wia,
    weight_w`` and is not writeable; a float64 array passed in is taken
    as is, not copied, and made read-only. Indexing and iteration yield
    points of Python floats, a slice is an :class:`IATrace` over a view,
    and ``+`` concatenates. A trace equals another with equal rows, and
    any sequence of 4-tuples equal to its list of points;
    ``numpy.asarray`` returns ``rows`` itself.
    """

    __slots__ = ("rows",)
    __hash__ = None

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise ValidationError(
                f"a trace needs shape (K, 4), got {rows.shape}")
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IATrace(self.rows[index])
        return _new_point(IATracePoint,
                          self.rows[operator.index(index)].tolist())

    def __iter__(self):
        return map(_new_point, repeat(IATracePoint), self.rows.tolist())

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)

    def __add__(self, other):
        if not isinstance(other, IATrace):
            return NotImplemented
        return IATrace(np.concatenate((self.rows, other.rows)))

    def __eq__(self, other):
        if isinstance(other, IATrace):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, Sequence):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"IATrace({self.rows!r})"


class StreamingEvaluator:
    """Single-writer per-video evaluator fed one decision at a time.

    Ground truth for the video is fixed up front as its grid's class
    codes; predictions arrive causally and each :meth:`consume`
    yields the trace point for the slot just decided. :attr:`state` reads
    and assigns the counters as a :class:`MetricState`; :attr:`grid_gt`
    and :attr:`mode` are read-only. The class is slotted: an instance
    has no ``__dict__`` and takes no other attribute, while weak
    references, ``pickle`` and ``copy.deepcopy`` work, so a live
    evaluation can be checkpointed and carried on.
    """

    __slots__ = ("_grid_gt", "_mode", "_codes", "_truth", "_delta_t_s",
                 "_k", "_tp", "_tn", "_p", "trace", "__weakref__")

    def __init__(self, grid_gt: SlotGrid,
                 mode: MatchingMode = MatchingMode.CLASS_AWARE):
        self._grid_gt = grid_gt
        self._mode = MatchingMode(mode)
        self._codes = grid_gt.vocab.codes
        # Python ints: indexing the array would make a NumPy scalar per slot
        self._truth = grid_gt.codes.tolist()
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
    def mode(self) -> MatchingMode:
        """The matching mode, read-only: it is checked once, when given."""
        return self._mode

    @property
    def state(self) -> MetricState:
        k, p = self._k, self._p
        return MetricState(k, self._tp, self._tn, p, k - p)

    @state.setter
    def state(self, state: MetricState) -> None:
        """Assign counters that some prefix of the ground truth can have.

        ``k_prime`` is at most the grid's length, the action and
        background counts are those of its first ``k_prime`` slots, and
        ``tp_count`` and ``tn_count`` lie within them.
        """
        k, tp, tn, p, n = state
        if k != p + n:
            raise ValidationError(
                f"state counts {p} action + {n} background slots "
                f"but k_prime is {k}")
        truth = self._truth
        if not (0 <= k <= len(truth) and p == k - truth[:k].count(0)
                and 0 <= tp <= p and 0 <= tn <= n):
            raise ValidationError(f"no prefix of the {len(truth)} "
                                  f"ground-truth slots has {state}")
        self._k, self._tp, self._tn, self._p = k, tp, tn, p

    def consume(self, predicted: str) -> IATracePoint:
        """Score the decision ``predicted`` for the next slot.

        Returns the trace point of that slot and appends it to
        :attr:`trace`. Once every slot is scored, a call raises
        :class:`ValidationError`; before that, a ``predicted`` that is
        not a label of the vocabulary raises :class:`VocabularyError`,
        through :meth:`~oadeval.timeline.LabelVocabulary.code`. A call
        that raises changes nothing: neither the counters nor the trace.
        """
        k = self._k
        # the truth lookup is the completion check: k never drops below 0
        try:
            t = self._truth[k]
            pred = self._codes[predicted]
        except IndexError:
            raise ValidationError(f"all {len(self._truth)} slots already "
                                  "evaluated") from None
        except (KeyError, TypeError):
            pred = self._grid_gt.vocab.code(predicted)  # raises: not a label
        self._k = k = k + 1
        tp, tn, p = self._tp, self._tn, self._p
        if t:
            self._p = p = p + 1
            if pred == t or (pred and self._mode is MatchingMode.BINARY):
                self._tp = tp = tp + 1
        elif not pred:
            self._tn = tn = tn + 1
        n = k - p
        # wIA is evaluated over a common integer denominator,
        #   (N'^2*tp + P'^2*tn) / (N'*P'*K')  ==  (w*tp + tn/w) / K',
        # so only one float rounding happens: a perfect prefix scores 1.0
        # exactly and the numerator can never exceed the denominator.
        ia = (tp + tn) / k
        if p > 0 and n > 0:
            point = _new_point(IATracePoint, (k * self._delta_t_s, ia,
                               (n * n * tp + p * p * tn) / (n * p * k), n / p))
        else:
            point = _new_point(IATracePoint, (k * self._delta_t_s, ia, ia, 1.0))
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
# quotient of the same exact integers that consume() divides.
# K*(K*K//4) <= 2**53 holds up to K = 330,280 (45.9 h at 0.5 s slots).
EXACT_PREFIX_SLOTS = 330_280


def _prefix_sum_trace(grid_pred: SlotGrid, grid_gt: SlotGrid,
                      mode: MatchingMode) -> IATrace:
    pred, truth = grid_pred.codes, grid_gt.codes
    truth_action = truth > 0
    hit = pred > 0 if mode is MatchingMode.BINARY else pred == truth
    # one int64 cumsum over the stacked true-positive, true-negative and
    # ground-truth-action flags (codes are >= 0, so truth | pred == 0
    # marks background on both sides)
    tp, tn, p = np.array((truth_action & hit, (truth | pred) == 0,
                          truth_action), dtype=np.int64).cumsum(axis=1)
    seen = np.arange(1, len(truth) + 1, dtype=np.int64)
    n = seen - p
    # n * p * seen is zero exactly where a ground-truth count is zero,
    # and there wIA falls back to IA and w to 1
    den = n * p * seen
    both = den > 0
    ia = (tp + tn) / seen
    wia = np.divide(n * n * tp + p * p * tn, den, out=ia.copy(), where=both)
    w = np.divide(n, p, out=np.ones_like(ia), where=both)
    return IATrace(np.column_stack((seen * grid_gt.delta_t_s, ia, wia, w)))


def evaluate_grids(grid_pred: SlotGrid, grid_gt: SlotGrid,
                   mode: MatchingMode = MatchingMode.CLASS_AWARE,
                   ) -> IATrace:
    """Trace two completed grids; equals feeding a :class:`StreamingEvaluator`.

    Grids of up to :data:`EXACT_PREFIX_SLOTS` slots are scored by prefix
    sums over class codes; longer ones are replayed slot by slot. Either
    way the result is an :class:`IATrace`, equal to the evaluator's
    ``trace`` list point for point; its ``rows`` columns are what batch
    writers and :func:`maia` read.
    """
    mode = MatchingMode(mode)
    _check_grids(grid_pred, grid_gt)
    if len(grid_gt) <= EXACT_PREFIX_SLOTS:
        return _prefix_sum_trace(grid_pred, grid_gt, mode)
    evaluator = StreamingEvaluator(grid_gt, mode)
    for label in grid_pred.labels:
        evaluator.consume(label)
    return IATrace(evaluator.trace)


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
    trace = evaluate_grids(grid_pred, grid_gt, mode)
    return trace[_k_prime_at(grid_gt, t_prime_s) - 1].ia


def wia_at(grid_pred: SlotGrid, grid_gt: SlotGrid, t_prime_s: float,
           mode: MatchingMode = MatchingMode.CLASS_AWARE) -> float:
    """Weighted IA over slots ``1..floor(t'/dt)``."""
    trace = evaluate_grids(grid_pred, grid_gt, mode)
    return trace[_k_prime_at(grid_gt, t_prime_s) - 1].wia


def weight_trace(grid_gt: SlotGrid) -> list[tuple[float, float]]:
    """Per-instant dynamic weight ``w(t')`` over the ground-truth grid.

    ``w`` is the background/action ratio of the seen prefix, with the
    fallback to 1 while either count is zero. Depends on ground truth
    only, never on predictions: it is the ``weight_w`` column of the
    ground truth scored against itself.
    """
    rows = evaluate_grids(grid_gt, grid_gt).rows
    return list(zip(rows[:, 0].tolist(), rows[:, 3].tolist()))


def maia(per_video_traces: Iterable[tuple[float, Sequence[float]]],
         delta_t_s: float) -> float:
    """Mean average instantaneous accuracy over a corpus.

    Each entry pairs a video duration ``T_i`` with its per-instant value
    sequence (one value per slot, ``floor(T_i/dt)`` of them); the result
    is ``mean_i ( (dt / T_i) * sum_j values_i[j] )``. The ``dt/T_i``
    factor is applied as written, so a constant trace on a duration that
    is not a slot multiple averages slightly below the constant. Pass an
    IA trace for the unweighted aggregate, a wIA trace for the weighted
    one. Each video's slot count comes from
    :func:`~oadeval.timeline.num_slots`, so a duration that is not > 0
    raises its :class:`ValidationError`, and a video shorter than one
    slot, which has no IA to average, its :class:`DegenerateInputError`.
    """
    totals = []
    for duration_s, values in per_video_traces:
        expected = num_slots(duration_s, delta_t_s)
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

    The flags come from the grids' labels and ``vocab.is_action``, never
    from class codes, as one byte per slot: true positive, true negative
    and ground-truth action. For each prefix length ``k`` the counters
    are recounted over all its slots with ``flags.count(1, 0, k)``
    (O(K^2) work overall, O(K) memory), with no running total, no NumPy
    and no state carried between instants. Results must match
    :func:`evaluate_grids` bit for bit.
    """
    class_aware = MatchingMode(mode) is MatchingMode.CLASS_AWARE
    _check_grids(grid_pred, grid_gt)
    is_action = grid_gt.vocab.is_action
    tp_flags, tn_flags, truth_action = bytearray(), bytearray(), bytearray()
    for pr, t in zip(grid_pred.labels, grid_gt.labels):
        t_act, pr_act = is_action(t), is_action(pr)
        tp_flags.append(t_act and pr_act and (pr == t or not class_aware))
        tn_flags.append(not (t_act or pr_act))
        truth_action.append(t_act)

    trace = []
    for k in range(1, len(grid_gt) + 1):
        tp = tp_flags.count(1, 0, k)
        tn = tn_flags.count(1, 0, k)
        p = truth_action.count(1, 0, k)
        n = k - p
        ia = (tp + tn) / k
        if p > 0 and n > 0:
            w = n / p
            wia = (n * n * tp + p * p * tn) / (n * p * k)
        else:
            w = 1.0
            wia = ia
        trace.append(IATracePoint(k * grid_gt.delta_t_s, ia, wia, w))
    return trace
