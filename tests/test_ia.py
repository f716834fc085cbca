"""Instantaneous-accuracy engine: examples, invariants, oracle equivalence."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oadeval import ia
from oadeval.errors import DegenerateInputError, ValidationError, VocabularyError
from oadeval.ia import (
    EXACT_PREFIX_SLOTS,
    IATracePoint,
    MatchingMode,
    MetricState,
    StreamingEvaluator,
    evaluate_grids,
    ia_at,
    maia,
    oracle_ia,
    update,
    weight_trace,
    wia_at,
)
from oadeval.timeline import LabelVocabulary, SlotGrid

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


class TestUpdate:
    def test_fresh_tp(self, vocab):
        state, pt = update(MetricState(), "jump", "jump", vocab, 0.5)
        assert state == MetricState(1, 1, 0, 1, 0)
        assert pt == IATracePoint(0.5, 1.0, 1.0, 1.0)

    def test_mode_contrast_on_wrong_class(self, vocab):
        _, pt = update(MetricState(), "jump", "run", vocab, 0.5,
                       MatchingMode.BINARY)
        assert pt.ia == 1.0
        _, pt = update(MetricState(), "jump", "run", vocab, 0.5,
                       MatchingMode.CLASS_AWARE)
        assert pt.ia == 0.0

    def test_unknown_label_raises(self, vocab):
        with pytest.raises(VocabularyError):
            update(MetricState(), "walk", "jump", vocab, 0.5)
        with pytest.raises(VocabularyError):
            update(MetricState(), "jump", "walk", vocab, 0.5)

    def test_worked_example_final_values(self, worked_pred_grid, worked_gt_grid):
        state = MetricState()
        for pred, truth in zip(worked_pred_grid.labels, worked_gt_grid.labels):
            state, pt = update(state, pred, truth, worked_gt_grid.vocab, 0.5)
        assert state == MetricState(20, 4, 14, 6, 14)
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


class TestOracle:
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
        state = MetricState()
        for predicted, truth in zip(pred.labels, gt.labels):
            new, _ = update(state, predicted, truth, gt.vocab, gt.delta_t_s)
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

    def test_ground_truth_is_read_only(self, vocab):
        gt = make_grid(["jump"], vocab)
        evaluator = StreamingEvaluator(gt)
        with pytest.raises(AttributeError):
            evaluator.grid_gt = make_grid(["run"], vocab)
        assert evaluator.grid_gt is gt

    @given(grid_pairs(), st.sampled_from(list(MatchingMode)))
    @settings(max_examples=300, deadline=None)
    def test_consume_equals_chained_update(self, pair, mode):
        pred, gt = pair
        evaluator = StreamingEvaluator(gt, mode)
        state = MetricState()
        expected = []
        for predicted, truth in zip(pred.labels, gt.labels):
            state, point = update(state, predicted, truth, gt.vocab,
                                  gt.delta_t_s, mode)
            expected.append(point)
            assert evaluator.consume(predicted) == point
            assert evaluator.state == state
        assert ([tuple(map(float.hex, p)) for p in evaluator.trace]
                == [tuple(map(float.hex, p)) for p in expected])


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
        gt = make_grid(("jump", "background") * (k // 2) + ("jump",), vocab)
        trace = evaluate_grids(gt, gt, MatchingMode.BINARY)
        assert len(trace) == k
        assert trace[-1] == IATracePoint(k * 0.5, 1.0, 1.0,
                                         (k // 2) / (k // 2 + 1))
