"""Instantaneous-accuracy engine: examples, invariants, oracle equivalence."""

import copy
import itertools
import pickle
import re
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oadeval import ia
from oadeval.errors import DegenerateInputError, ValidationError, VocabularyError
from oadeval.ia import (
    EXACT_PREFIX_SLOTS,
    IATrace,
    IATracePoint,
    MatchingMode,
    MetricState,
    StreamingEvaluator,
    evaluate_grids,
    ia_at,
    maia,
    oracle_ia,
    weight_trace,
    wia_at,
)
from oadeval.timeline import LabelVocabulary, SlotGrid, num_slots

DATA = Path(__file__).parent / "data"

# Worked-example aggregates, exact fractions derived by per-prefix counting
# (see golden trace fixture); floats must agree to 1e-9.
WORKED_MAIA = Fraction(2136028417, 2327925600)       # ~0.917567
WORKED_WEIGHTED_MAIA = Fraction(2069757167, 2327925600)  # ~0.889099

LABELS = ("jump", "run", "background")


def make_grid(labels, vocab, delta=0.5):
    return SlotGrid(delta_t_s=delta, labels=tuple(labels), vocab=vocab)


def grid_pairs(max_k=40, classes=("jump", "run")):
    """Strategy: (pred_grid, gt_grid) sharing vocabulary and slot size."""
    vocab = LabelVocabulary(classes=classes)
    alphabet = st.sampled_from(classes + (vocab.background,))

    def build(labels_pair):
        pred, gt = labels_pair
        return make_grid(pred, vocab), make_grid(gt, vocab)

    return st.integers(1, max_k).flatmap(
        lambda k: st.tuples(
            st.lists(alphabet, min_size=k, max_size=k),
            st.lists(alphabet, min_size=k, max_size=k),
        )
    ).map(build)


class TestConsume:
    def test_fresh_tp(self, vocab):
        evaluator = StreamingEvaluator(make_grid(["jump"], vocab))
        pt = evaluator.consume("jump")
        assert evaluator.state == MetricState(1, 1, 0, 1, 0)
        assert pt == IATracePoint(0.5, 1.0, 1.0, 1.0)

    def test_mode_contrast_on_wrong_class(self, vocab):
        gt = make_grid(["run"], vocab)
        pt = StreamingEvaluator(gt, MatchingMode.BINARY).consume("jump")
        assert pt.ia == 1.0
        pt = StreamingEvaluator(gt, MatchingMode.CLASS_AWARE).consume("jump")
        assert pt.ia == 0.0

    def test_unknown_label_raises(self, vocab):
        with pytest.raises(VocabularyError):
            StreamingEvaluator(make_grid(["jump"], vocab)).consume("walk")
        with pytest.raises(VocabularyError):  # no ground truth holds one
            make_grid(["walk"], vocab)

    def test_worked_example_final_values(self, worked_pred_grid, worked_gt_grid):
        evaluator = StreamingEvaluator(worked_gt_grid)
        for pred in worked_pred_grid.labels:
            pt = evaluator.consume(pred)
        assert evaluator.state == MetricState(20, 4, 14, 6, 14)
        assert pt == oracle_ia(worked_pred_grid, worked_gt_grid)[-1]
        assert pt.ia == pytest.approx(0.90, abs=1e-12)
        assert pt.weight_w == pytest.approx(14 / 6, abs=1e-12)
        assert pt.wia == pytest.approx(46 / 60, abs=1e-12)


class TestIaAt:
    def test_identical_grids(self, worked_gt_grid):
        for t in (0.5, 3.7, 10.0):
            assert ia_at(worked_gt_grid, worked_gt_grid, t) == 1.0

    def test_all_background_pair(self, vocab):
        g = make_grid(["background"] * 8, vocab)
        assert ia_at(g, g, 4.0) == 1.0

    def test_worked_example_prefix(self, worked_pred_grid, worked_gt_grid):
        assert ia_at(worked_pred_grid, worked_gt_grid, 3.0) == 1.0
        assert ia_at(worked_pred_grid, worked_gt_grid, 10.0) == pytest.approx(0.9)

    def test_degenerate_instants(self, worked_pred_grid, worked_gt_grid):
        with pytest.raises(DegenerateInputError):
            ia_at(worked_pred_grid, worked_gt_grid, 0.0)
        with pytest.raises(DegenerateInputError):
            ia_at(worked_pred_grid, worked_gt_grid, 0.3)  # before first boundary
        with pytest.raises(ValidationError):
            ia_at(worked_pred_grid, worked_gt_grid, 11.0)

    def test_mismatched_grids(self, vocab, worked_gt_grid):
        short = make_grid(["background"] * 3, vocab)
        with pytest.raises(ValidationError):
            ia_at(short, worked_gt_grid, 1.0)
        other_delta = make_grid(["background"] * 20, vocab, delta=0.25)
        with pytest.raises(ValidationError):
            ia_at(other_delta, worked_gt_grid, 1.0)


class TestWiaAt:
    def test_perfect_prediction_saturates_exactly(self, vocab):
        gt = make_grid(["jump"] * 3 + ["background"] * 5, vocab)
        assert wia_at(gt, gt, 4.0) == 1.0

    def test_all_background_gt_falls_back(self, vocab):
        g = make_grid(["background"] * 6, vocab)
        assert wia_at(g, g, 3.0) == 1.0

    def test_worked_example(self, worked_pred_grid, worked_gt_grid):
        assert wia_at(worked_pred_grid, worked_gt_grid, 10.0) == pytest.approx(
            46 / 60, abs=1e-12)


class TestWeightTrace:
    def test_all_background_fallback(self, vocab):
        g = make_grid(["background"] * 4, vocab)
        assert [w for _, w in weight_trace(g)] == [1.0] * 4

    def test_counting_example(self, vocab):
        g = make_grid(["background", "jump", "background", "background"], vocab)
        assert [w for _, w in weight_trace(g)] == [1.0, 1.0, 2.0, 3.0]

    def test_worked_example_final_weight(self, worked_gt_grid):
        trace = weight_trace(worked_gt_grid)
        assert trace[-1] == (10.0, pytest.approx(14 / 6))


class TestMaia:
    def test_constant_trace(self):
        assert maia([(10.0, [0.75] * 20)], 0.5) == pytest.approx(0.75)

    def test_mean_of_two_videos(self):
        assert maia([(5.0, [1.0] * 10), (5.0, [0.0] * 10)], 0.5) == pytest.approx(0.5)

    def test_worked_example_aggregates(self, worked_pred_grid, worked_gt_grid):
        trace = evaluate_grids(worked_pred_grid, worked_gt_grid)
        unweighted = maia([(10.0, [p.ia for p in trace])], 0.5)
        weighted = maia([(10.0, [p.wia for p in trace])], 0.5)
        assert unweighted == pytest.approx(float(WORKED_MAIA), abs=1e-9)
        assert weighted == pytest.approx(float(WORKED_WEIGHTED_MAIA), abs=1e-9)

    def test_remainder_shrinks_constant_trace(self):
        # 1.3 s at 0.5 s -> 2 slots; dt/T * 2 = 10/13
        assert maia([(1.3, [1.0, 1.0])], 0.5) == pytest.approx(1.0 / 1.3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DegenerateInputError):
            maia([], 0.5)

    def test_wrong_trace_length_rejected(self):
        with pytest.raises(ValidationError):
            maia([(10.0, [1.0] * 19)], 0.5)

    @pytest.mark.parametrize("duration", [0.0, -1.0, -0.0])
    def test_non_positive_duration_rejected(self, duration):
        # the slot count comes from num_slots, never a division by zero or
        # a negative count
        with pytest.raises(ValidationError,
                           match=f"^duration {duration} must be > 0$"):
            maia([(5.0, [1.0] * 10), (duration, [])], 0.5)

    @pytest.mark.parametrize("duration", ["5", True, None])
    def test_duration_that_is_no_number_rejected(self, duration):
        with pytest.raises(ValidationError, match=re.escape(
                f"duration {duration!r} is not a number") + "$"):
            maia([(duration, [1.0])], 0.5)


def _slice_sum_oracle(grid_pred, grid_gt, mode=MatchingMode.CLASS_AWARE):
    """Reference for :func:`oracle_ia`: the same flags as lists, each
    prefix's counters summed over a freshly copied slice. The grid checks,
    which the two share, are left out."""
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


def bits(points):
    """Each value of each point as its exact float64 bits."""
    return [tuple(map(float.hex, point)) for point in points]


class TestOracle:
    @pytest.mark.parametrize("mode", list(MatchingMode))
    def test_equals_the_slice_sum_oracle_on_every_small_pair(self, vocab,
                                                             mode):
        pairs = 0
        for k in range(1, 5):
            grids = [make_grid(labels, vocab)
                     for labels in itertools.product(LABELS, repeat=k)]
            for gt in grids:
                for pred in grids:
                    points = oracle_ia(pred, gt, mode)
                    assert bits(points) == bits(_slice_sum_oracle(pred, gt,
                                                                  mode))
                    assert all(type(p) is IATracePoint for p in points)
                    pairs += 1
        assert pairs == sum(9 ** k for k in range(1, 5))

    def test_equals_the_slice_sum_oracle_on_random_grids(self):
        vocab = LabelVocabulary(classes=("a", "b", "c"))
        alphabet = ("a", "b", "c", vocab.background)
        rng = np.random.default_rng(16)
        for i in range(120):
            k = int(rng.integers(1, 301))
            # unbalanced ground truth on every other grid
            weights = [0.05, 0.05, 0.05, 0.85] if i % 2 else None
            gt = make_grid(rng.choice(alphabet, size=k, p=weights), vocab)
            pred = make_grid(rng.choice(alphabet, size=k), vocab)
            for mode in MatchingMode:
                assert bits(oracle_ia(pred, gt, mode)) == bits(
                    _slice_sum_oracle(pred, gt, mode))

    def test_worked_example_trace_matches_golden_file(self, worked_pred_grid,
                                                      worked_gt_grid):
        rows = (DATA / "worked_example_trace.csv").read_text().strip().splitlines()
        assert rows[0] == "t_s,ia,wia,weight_w"
        trace = oracle_ia(worked_pred_grid, worked_gt_grid)
        assert len(trace) == len(rows) - 1
        for pt, row in zip(trace, rows[1:]):
            assert f"{pt.t_s:.6f},{pt.ia:.6f},{pt.wia:.6f},{pt.weight_w:.6f}" == row
        assert trace[-1].ia == pytest.approx(0.90, abs=1e-12)

    def test_identical_grids_all_ones(self, worked_gt_grid):
        assert all(p.ia == 1.0 and p.wia == 1.0
                   for p in oracle_ia(worked_gt_grid, worked_gt_grid))

    def test_grids_of_different_vocabularies_rejected(self, vocab):
        other = LabelVocabulary(classes=("jump",))
        pred = make_grid(["jump", "background"], other)
        gt = make_grid(["jump", "background"], vocab)
        for engine in (evaluate_grids, oracle_ia):
            with pytest.raises(ValidationError, match=(
                    "^prediction and ground-truth grids use different "
                    "vocabularies$")):
                engine(pred, gt)

    @given(grid_pairs(), st.sampled_from(list(MatchingMode)))
    @settings(max_examples=300, deadline=None)
    def test_incremental_engine_is_bit_equal(self, pair, mode):
        pred, gt = pair
        assert evaluate_grids(pred, gt, mode) == oracle_ia(pred, gt, mode)
        assert weight_trace(gt) == [(p.t_s, p.weight_w)
                                    for p in oracle_ia(gt, gt)]


class TestProperties:
    @given(grid_pairs(), st.sampled_from(list(MatchingMode)))
    @settings(max_examples=200, deadline=None)
    def test_values_bounded(self, pair, mode):
        for pt in evaluate_grids(*pair, mode):
            assert 0.0 <= pt.ia <= 1.0
            assert 0.0 <= pt.wia <= 1.0
            assert pt.weight_w > 0.0

    @given(grid_pairs())
    @settings(max_examples=200, deadline=None)
    def test_perfect_prediction_saturates_everywhere(self, pair):
        _, gt = pair
        assert all(pt.ia == 1.0 and pt.wia == 1.0 for pt in evaluate_grids(gt, gt))

    @given(grid_pairs())
    @settings(max_examples=200, deadline=None)
    def test_all_background_prediction_tracks_gt_fraction(self, pair):
        _, gt = pair
        vocab = gt.vocab
        all_bg = make_grid([vocab.background] * len(gt), vocab, gt.delta_t_s)
        trace_ca = evaluate_grids(all_bg, gt, MatchingMode.CLASS_AWARE)
        trace_bin = evaluate_grids(all_bg, gt, MatchingMode.BINARY)
        assert trace_ca == trace_bin
        bg_seen = 0
        for j, (truth, pt) in enumerate(zip(gt.labels, trace_ca), start=1):
            bg_seen += 0 if vocab.is_action(truth) else 1
            assert pt.ia == bg_seen / j

    @given(grid_pairs())
    @settings(max_examples=200, deadline=None)
    def test_counters_monotone_and_consistent(self, pair):
        pred, gt = pair
        evaluator = StreamingEvaluator(gt)
        state = evaluator.state
        for predicted in pred.labels:
            evaluator.consume(predicted)
            new = evaluator.state
            assert new.k_prime == state.k_prime + 1
            assert new.tp_count >= state.tp_count
            assert new.tn_count >= state.tn_count
            assert new.tp_count <= new.gt_action_count
            assert new.tn_count <= new.gt_background_count
            assert new.gt_action_count + new.gt_background_count == new.k_prime
            state = new

    @given(grid_pairs(), st.sampled_from(list(MatchingMode)))
    @settings(max_examples=200, deadline=None)
    def test_streaming_equals_batch(self, pair, mode):
        pred, gt = pair
        evaluator = StreamingEvaluator(gt, mode)
        for label in pred.labels:
            evaluator.consume(label)
        assert evaluator.trace == evaluate_grids(pred, gt, mode)

    @given(grid_pairs())
    @settings(max_examples=200, deadline=None)
    def test_binary_mode_dominates_class_aware(self, pair):
        pred, gt = pair
        for pt_bin, pt_ca in zip(evaluate_grids(pred, gt, MatchingMode.BINARY),
                                 evaluate_grids(pred, gt, MatchingMode.CLASS_AWARE)):
            assert pt_bin.ia >= pt_ca.ia


class TestStreamingEvaluator:
    def test_unknown_prediction_leaves_state_and_trace(self, vocab):
        gt = make_grid(["jump", "background", "run"], vocab)
        evaluator = StreamingEvaluator(gt)
        evaluator.consume("jump")
        state, trace = evaluator.state, list(evaluator.trace)
        with pytest.raises(VocabularyError) as exc:
            evaluator.consume("swim")
        assert str(exc.value) == "unknown label 'swim'"
        assert evaluator.state == state
        assert evaluator.trace == trace
        assert evaluator.consume("background") == replay(
            make_grid(["jump", "background"], vocab),
            make_grid(["jump", "background"], vocab))[-1]

    def test_consume_past_the_end_is_checked_before_the_label(self, vocab):
        gt = make_grid(["jump", "background"], vocab)
        evaluator = StreamingEvaluator(gt)
        evaluator.consume("jump")
        evaluator.consume("run")
        state, trace = evaluator.state, list(evaluator.trace)
        for label in ("jump", "swim"):
            with pytest.raises(ValidationError) as exc:
                evaluator.consume(label)
            assert type(exc.value) is ValidationError
            assert str(exc.value) == "all 2 slots already evaluated"
            assert evaluator.state == state
            assert evaluator.trace == trace

    def test_state_rejects_counts_that_do_not_add_up(self, vocab):
        evaluator = StreamingEvaluator(make_grid(["jump"], vocab))
        with pytest.raises(ValidationError):
            evaluator.state = MetricState(2, 0, 0, 1, 0)
        assert evaluator.state == MetricState()

    # every state below adds up (k_prime = actions + background) on the
    # 2-slot grid ["jump", "background"], yet no prefix of it has them
    @pytest.mark.parametrize("state", [
        MetricState(7, 0, 0, 3, 4),  # k_prime past the grid
        MetricState(-1, 0, 0, 0, -1),  # k_prime below 0
        MetricState(1, 0, 1, 0, 1),  # the first slot is an action
        MetricState(2, 0, 0, 2, 0),  # the second is background
        MetricState(1, 5, -3, 1, 0),  # more true positives than actions
        MetricState(1, -1, 0, 1, 0),  # negative true positives
        MetricState(2, 0, 2, 1, 1),  # more true negatives than background
        MetricState(2, 1, -1, 1, 1),  # negative true negatives
    ])
    def test_state_rejects_counts_no_prefix_can_have(self, vocab, state):
        evaluator = StreamingEvaluator(make_grid(["jump", "background"],
                                                 vocab))
        evaluator.consume("jump")
        with pytest.raises(ValidationError, match=re.escape(
                f"no prefix of the 2 ground-truth slots has {state!r}") + "$"):
            evaluator.state = state
        assert evaluator.state == MetricState(1, 1, 0, 1, 0)
        assert evaluator.consume("background") == IATracePoint(
            1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("state,point", [
        (MetricState(0, 0, 0, 0, 0), IATracePoint(0.5, 0.0, 0.0, 1.0)),
        (MetricState(1, 0, 0, 1, 0), IATracePoint(1.0, 0.0, 0.0, 1.0)),
        (MetricState(1, 1, 0, 1, 0), IATracePoint(1.0, 0.5, 0.5, 1.0)),
    ])
    def test_state_of_a_prefix_is_assigned(self, vocab, state, point):
        evaluator = StreamingEvaluator(make_grid(["jump", "background"],
                                                 vocab))
        evaluator.state = state
        assert evaluator.state == state
        assert evaluator.consume("run") == point

    def test_consume_returns_points_of_python_floats(self, vocab):
        gt = make_grid(["jump", "background", "run", "run"], vocab)
        evaluator = StreamingEvaluator(gt)
        points = [evaluator.consume(label)
                  for label in ("jump", "run", "background", "run")]
        assert all(type(p) is IATracePoint for p in points)
        assert all(type(v) is float for p in points for v in p)
        assert points == oracle_ia(make_grid(["jump", "run", "background",
                                              "run"], vocab), gt)

    def test_ground_truth_is_read_only(self, vocab):
        gt = make_grid(["jump"], vocab)
        evaluator = StreamingEvaluator(gt)
        with pytest.raises(AttributeError):
            evaluator.grid_gt = make_grid(["run"], vocab)
        assert evaluator.grid_gt is gt

    def test_mode_is_read_only(self, vocab):
        evaluator = StreamingEvaluator(make_grid(["run"], vocab), "binary")
        with pytest.raises(AttributeError):
            evaluator.mode = MatchingMode.CLASS_AWARE
        assert evaluator.mode is MatchingMode.BINARY
        assert evaluator.consume("jump").ia == 1.0

    def test_slotted_instances_take_weak_references_only(self, vocab):
        evaluator = StreamingEvaluator(make_grid(["jump"], vocab))
        assert weakref.ref(evaluator)() is evaluator
        assert not hasattr(evaluator, "__dict__")
        with pytest.raises(AttributeError):
            evaluator.checkpoint = 1
        assert evaluator.consume("jump") == IATracePoint(0.5, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("mode", list(MatchingMode))
    @pytest.mark.parametrize("checkpoint", [
        lambda evaluator: pickle.loads(pickle.dumps(evaluator)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_checkpoint_halfway_carries_on(self, vocab, mode, checkpoint):
        gt = make_grid(["background", "jump", "jump", "run", "run",
                        "background", "jump", "background"], vocab)
        pred = make_grid(["background", "jump", "run", "run", "jump",
                          "jump", "background", "background"], vocab)
        evaluator = StreamingEvaluator(gt, mode)
        for label in pred.labels[:4]:
            evaluator.consume(label)
        state, trace = evaluator.state, bits(evaluator.trace)
        copied = checkpoint(evaluator)
        assert type(copied) is StreamingEvaluator
        assert copied.mode is mode and copied.grid_gt == gt
        assert copied.state == state and bits(copied.trace) == trace
        for label in pred.labels[4:]:
            copied.consume(label)
        assert evaluator.state == state and bits(evaluator.trace) == trace
        for label in pred.labels[4:]:
            evaluator.consume(label)
        expected = bits(oracle_ia(pred, gt, mode))
        assert bits(copied.trace) == bits(evaluator.trace) == expected
        with pytest.raises(ValidationError, match="^all 8 slots already "):
            copied.consume("jump")

    @given(grid_pairs(max_k=12), st.sampled_from(list(MatchingMode)),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_failed_calls_under_random_interleavings_change_nothing(
            self, pair, mode, data):
        # each extra call is made before the decision for slot `at`
        # (after the last one when at == K): an unknown label before the
        # end, and any label, known or not, past it
        pred, gt = pair
        k = len(gt)
        unknown = st.sampled_from(["swim", "", "Jump", "background ", None])
        extra = data.draw(st.lists(st.integers(0, k).flatmap(
            lambda at: st.tuples(st.just(at), unknown if at < k else
                                 st.one_of(unknown, st.sampled_from(
                                     pred.labels)))), max_size=2 * k + 2))
        before = {}
        for at, label in extra:
            before.setdefault(at, []).append(label)
        expected = oracle_ia(pred, gt, mode)
        evaluator = StreamingEvaluator(gt, mode)
        for at in range(k + 1):
            for label in before.get(at, ()):
                state, trace = evaluator.state, bits(evaluator.trace)
                with pytest.raises(ValidationError) as exc:
                    evaluator.consume(label)
                if at == k:
                    assert type(exc.value) is ValidationError
                    assert str(exc.value) == f"all {k} slots already evaluated"
                else:
                    assert type(exc.value) is VocabularyError
                    assert str(exc.value) == f"unknown label {label!r}"
                assert evaluator.state == state
                assert bits(evaluator.trace) == trace
            if at < k:
                point = evaluator.consume(pred.labels[at])
                assert bits([point]) == bits(expected[at:at + 1])
        assert bits(evaluator.trace) == bits(expected)

    @given(grid_pairs(), st.sampled_from(list(MatchingMode)))
    @settings(max_examples=300, deadline=None)
    def test_consume_equals_oracle_bit_for_bit(self, pair, mode):
        pred, gt = pair
        evaluator = StreamingEvaluator(gt, mode)
        expected = oracle_ia(pred, gt, mode)
        bg = gt.vocab.background
        seen = []
        for predicted, truth, point in zip(pred.labels, gt.labels, expected):
            assert evaluator.consume(predicted) == point
            seen.append((predicted, truth))
            actions = sum(t != bg for _, t in seen)
            assert evaluator.state == MetricState(
                len(seen),
                sum(t != bg != pr and (pr == t or mode is MatchingMode.BINARY)
                    for pr, t in seen),
                sum(t == bg == pr for pr, t in seen),
                actions, len(seen) - actions)
        assert ([tuple(map(float.hex, p)) for p in evaluator.trace]
                == [tuple(map(float.hex, p)) for p in expected])



class TestModeByValue:
    """Every engine and the oracle take a mode's value as the member."""

    @pytest.mark.parametrize("mode", list(MatchingMode))
    def test_value_scores_as_the_member(self, vocab, mode):
        gt = make_grid(["jump", "jump"], vocab)
        pred = make_grid(["run", "run"], vocab)
        expected = oracle_ia(pred, gt, mode)
        assert expected[-1].ia == (mode is MatchingMode.BINARY)
        expected = bits(expected)
        assert bits(oracle_ia(pred, gt, mode.value)) == expected
        assert bits(evaluate_grids(pred, gt, mode.value)) == expected
        assert bits(replay(pred, gt, mode.value)) == expected
        assert StreamingEvaluator(gt, mode.value).mode is mode

    @pytest.mark.parametrize("value", ["bogus", "BINARY", None, 1,
                                       ["binary"]])
    def test_other_values_are_rejected_naming_them(self, vocab, value):
        gt = make_grid(["jump", "jump"], vocab)
        message = "^" + re.escape(f"unknown matching mode {value!r}") + "$"
        for call in (MatchingMode,
                     lambda mode: StreamingEvaluator(gt, mode),
                     lambda mode: evaluate_grids(gt, gt, mode),
                     lambda mode: oracle_ia(gt, gt, mode)):
            with pytest.raises(ValidationError, match=message):
                call(value)


def replay(pred, gt, mode=MatchingMode.CLASS_AWARE):
    evaluator = StreamingEvaluator(gt, mode)
    for label in pred.labels:
        evaluator.consume(label)
    return evaluator.trace


class TestExactPrefixBound:
    """The prefix-sum engine runs exactly up to its bound, replays beyond."""

    def test_bound_is_the_largest_exact_grid(self):
        k = EXACT_PREFIX_SLOTS
        assert k * (k * k // 4) <= 2**53 < (k + 1) * ((k + 1) ** 2 // 4)

    @pytest.mark.parametrize("wrong_every", [None, 3])
    def test_balanced_worst_case_at_the_bound(self, vocab, monkeypatch,
                                              wrong_every):
        # N' = P' = K/2 at the end, so N'*P'*K' reaches K**3/4; a perfect
        # prediction makes the last numerator K**3/4 too, and predicting
        # "run" on every third action slot makes it differ from the
        # denominator
        k = EXACT_PREFIX_SLOTS
        gt_labels = ("jump", "background") * (k // 2)
        pred_labels = list(gt_labels)
        if wrong_every:
            pred_labels[::2 * wrong_every] = ["run"] * len(
                pred_labels[::2 * wrong_every])
        gt = make_grid(gt_labels, vocab)
        pred = make_grid(pred_labels, vocab)
        expected = replay(pred, gt)
        used = []
        prefix_sum_trace = ia._prefix_sum_trace
        monkeypatch.setattr(ia, "_prefix_sum_trace",
                            lambda *a: used.append(1) or prefix_sum_trace(*a))
        assert evaluate_grids(pred, gt) == expected
        assert used == [1]
        assert (expected[-1].wia == 1.0) == (wrong_every is None)

    def test_one_slot_past_the_bound_replays(self, vocab, monkeypatch):
        def refuse(*args):
            raise AssertionError("prefix sums used past the exact bound")

        monkeypatch.setattr(ia, "_prefix_sum_trace", refuse)
        k = EXACT_PREFIX_SLOTS + 1
        assert num_slots(k * 0.5, 0.5) == k  # within the slot-count limit
        gt = make_grid(("jump", "background") * (k // 2) + ("jump",), vocab)
        trace = evaluate_grids(gt, gt, MatchingMode.BINARY)
        assert isinstance(trace, IATrace)
        assert trace == replay(gt, gt, MatchingMode.BINARY)
        assert len(trace) == k
        assert trace[-1] == IATracePoint(k * 0.5, 1.0, 1.0,
                                         (k // 2) / (k // 2 + 1))


class TestIATrace:
    """The batch trace is one read-only array that still reads as points."""

    @pytest.fixture
    def pair(self, vocab):
        gt = make_grid(["background", "jump", "jump", "run", "background"],
                       vocab)
        pred = make_grid(["background", "jump", "run", "run", "jump"], vocab)
        return pred, gt

    def test_columnar_rows(self, pair):
        trace = evaluate_grids(*pair)
        assert isinstance(trace, IATrace)
        assert trace.rows.shape == (5, 4) and trace.rows.dtype == np.float64
        assert np.asarray(trace) is trace.rows
        assert trace.rows.tolist() == [list(p) for p in oracle_ia(*pair)]

    @pytest.mark.parametrize("mode", list(MatchingMode))
    def test_equals_oracle_lists_both_ways(self, pair, mode):
        trace = evaluate_grids(*pair, mode)
        expected = oracle_ia(*pair, mode)
        assert trace == expected and expected == trace
        assert not (trace != expected) and not (expected != trace)
        assert trace == tuple(expected)
        assert trace != expected[:-1] and expected[:-1] != trace
        wrong = expected[:-1] + [expected[-1]._replace(ia=0.0)]
        assert trace != wrong and wrong != trace
        assert trace != [list(p) for p in expected]  # rows are not points
        assert trace != "t_s,ia,wia,weight_w" and trace != 4

    def test_slices_and_concatenation_are_traces(self, pair):
        trace = evaluate_grids(*pair)
        points = oracle_ia(*pair)
        for part in (trace[1:3], trace[:-1], trace[::-1], trace[5:]):
            assert isinstance(part, IATrace)
        assert trace[1:3] == points[1:3] and trace[::-1] == points[::-1]
        shifted = trace[:1] + trace[:-1]
        assert isinstance(shifted, IATrace)
        assert shifted == points[:1] + points[:-1]
        assert trace[:2] + trace[2:] == trace
        assert trace[-1] == points[-1] and trace[-5] == points[0]
        with pytest.raises(IndexError):
            trace[5]
        with pytest.raises(TypeError):
            trace + points

    def test_values_are_python_floats(self, pair):
        trace = evaluate_grids(*pair)
        points = [trace[0], trace[-1], *trace]
        assert all(type(p) is IATracePoint for p in points)
        assert all(type(v) is float for p in points for v in p)
        assert type(trace[2].wia) is float

    def test_rows_refuse_assignment(self, pair):
        trace = evaluate_grids(*pair)
        with pytest.raises(ValueError, match="read-only"):
            trace.rows[0, 1] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            trace[1:].rows[:] = 0.0
        with pytest.raises(TypeError):
            hash(trace)

    def test_repr_shows_the_rows(self, pair):
        trace = evaluate_grids(*pair)
        assert repr(trace) == f"IATrace({trace.rows!r})"
        assert repr(IATrace([[0.5, 1.0, 1.0, 1.0]])) == (
            "IATrace(array([[0.5, 1. , 1. , 1. ]]))")

    def test_built_from_points(self, pair):
        points = oracle_ia(*pair)
        trace = IATrace(points)
        assert trace == points and trace == evaluate_grids(*pair)
        empty = IATrace(np.zeros((0, 4)))
        assert len(empty) == 0 and empty == [] and trace[5:] == empty
        for bad in ([], np.zeros((2, 3)), points[0]):
            with pytest.raises(ValidationError, match="shape"):
                IATrace(bad)
