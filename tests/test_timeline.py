"""Timeline types and the interval -> slot discretizer."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oadeval.errors import (
    CausalityError,
    DegenerateInputError,
    EvaluationError,
    ValidationError,
    VocabularyError,
)
from oadeval.timeline import (
    AnnotationTrack,
    LabelVocabulary,
    PredictionStream,
    SlotGrid,
    TimeInterval,
    discretize,
    events_to_stream,
    num_slots,
    seconds_to_us,
)


def midpoint_labels(intervals, duration_s, delta_t_s, background="background"):
    """Independent oracle: label every slot by enumerating midpoints in floats.

    Kept deliberately naive (float arithmetic, no sorting tricks) so it
    shares nothing with the production discretizer beyond the rule
    itself. Only used on inputs without overlap or microsecond-boundary
    coincidences.
    """
    k = math.floor(round(duration_s * 1e6) / round(delta_t_s * 1e6))
    labels = []
    for j in range(1, k + 1):
        mid = (j - 0.5) * delta_t_s
        hits = [iv for iv in intervals if iv.start_s <= mid < iv.end_s]
        labels.append(min(hits, key=lambda iv: (iv.start_s, iv.label)).label
                      if hits else background)
    return labels


def brute_force_slot_labels(intervals, duration_s, delta_t_s,
                            background="background"):
    """Oracle for overlapping input: every midpoint against every interval.

    Works in doubled microseconds, so odd-microsecond slot sizes keep
    their half-microsecond midpoints exact, and takes the minimum of the
    covering intervals by (start, label).
    """
    delta_us = seconds_to_us(delta_t_s)
    k = seconds_to_us(duration_s) // delta_us
    labels = []
    for j in range(1, k + 1):
        mid2 = (2 * j - 1) * delta_us
        hits = [iv for iv in intervals
                if 2 * iv.start_us <= mid2 < 2 * iv.end_us]
        labels.append(min(hits, key=lambda iv: (iv.start_us, iv.label)).label
                      if hits else background)
    return labels


@st.composite
def multi_label_slot_cases(draw):
    """Overlapping intervals whose ends sit on or near slot midpoints and
    boundaries, at odd-microsecond and tiny slot sizes."""
    delta_us = seconds_to_us(draw(st.sampled_from([0.5, 0.333333, 0.000013])
                                  | st.floats(0.00001, 2.0)))
    k = draw(st.integers(1, 40))
    # a partial trailing slot puts the duration past the last midpoint
    duration_us = k * delta_us + draw(st.integers(0, delta_us - 1))
    special = [duration_us, (2 * k - 1) * delta_us // 2 + 1]
    for j in draw(st.lists(st.integers(0, k), max_size=6)):
        special += [j * delta_us, (2 * j - 1) * delta_us // 2,
                    ((2 * j - 1) * delta_us + 1) // 2]
    point = (st.sampled_from([p for p in special if 0 <= p <= duration_us])
             | st.integers(0, duration_us))
    starts = draw(st.lists(point, min_size=1, max_size=3))
    intervals = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.sampled_from(starts) | point)
        end = draw(point)
        if start != end:
            intervals.append(TimeInterval(draw(st.sampled_from(["jump", "run"])),
                                          min(start, end) / 1e6,
                                          max(start, end) / 1e6))
    return intervals, duration_us / 1e6, delta_us / 1e6


class TestLabelVocabulary:
    def test_membership_and_action_split(self, vocab):
        assert "jump" in vocab and "background" in vocab
        assert vocab.is_action("jump") and not vocab.is_action("background")
        assert "walk" not in vocab

    def test_unknown_label_raises(self, vocab):
        with pytest.raises(VocabularyError):
            vocab.is_action("walk")
        with pytest.raises(VocabularyError):
            vocab.require("walk")

    @pytest.mark.parametrize("classes,background", [
        (("jump", "jump"), "background"),   # duplicate class
        (("jump", ""), "background"),       # empty class name
        (("jump",), ""),                    # empty background
        (("jump", "background"), "background"),  # background inside classes
    ])
    def test_invalid_vocabularies_rejected(self, classes, background):
        with pytest.raises(ValidationError):
            LabelVocabulary(classes=classes, background=background)

    def test_codes_background_zero_then_declared_order(self):
        vocab = LabelVocabulary(classes=("run", "jump"), background="bg")
        assert vocab.codes == {"bg": 0, "run": 1, "jump": 2}
        twin = LabelVocabulary(classes=("run", "jump"), background="bg")
        assert vocab == twin and hash(vocab) == hash(twin)


class TestTimeInterval:
    def test_zero_or_negative_length_rejected(self):
        with pytest.raises(ValidationError):
            TimeInterval("jump", 2.0, 2.0)
        with pytest.raises(ValidationError):
            TimeInterval("jump", 3.0, 2.0)
        with pytest.raises(ValidationError):
            TimeInterval("jump", -1.0, 2.0)

    def test_microsecond_conversion_absorbs_float_noise(self):
        iv = TimeInterval("jump", 0.1 + 0.2, 1.0)
        assert iv.start_us == 300_000

    def test_microsecond_fields_change_nothing_visible(self):
        iv = TimeInterval("jump", 1.0, 2.0)
        assert repr(iv) == "TimeInterval(label='jump', start_s=1.0, end_s=2.0)"
        assert iv == TimeInterval("jump", 1.0, 2.0)
        moved = dataclasses.replace(iv, start_s=1.5)
        assert (moved.start_us, moved.end_us) == (1_500_000, 2_000_000)
        track = AnnotationTrack("v", 0.1 + 0.2, ())
        assert track.duration_us == 300_000
        assert "duration_us" not in repr(track)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf, 1e305])
    def test_non_finite_time_rejected(self, seconds):
        with pytest.raises(ValidationError, match="not a finite number"):
            seconds_to_us(seconds)
        with pytest.raises(ValidationError):
            TimeInterval("jump", seconds, 2.0)


class TestAnnotationTrack:
    def test_interval_beyond_duration_rejected(self):
        with pytest.raises(ValidationError):
            AnnotationTrack("v", 5.0, (TimeInterval("jump", 2.0, 6.0),))

    def test_overlap_needs_multi_label_flag(self):
        ivs = (TimeInterval("jump", 0.0, 3.0), TimeInterval("run", 2.0, 4.0))
        with pytest.raises(ValidationError):
            AnnotationTrack("v", 5.0, ivs)
        track = AnnotationTrack("v", 5.0, ivs, multi_label=True)
        assert len(track.intervals) == 2

    def test_non_adjacent_overlap_detected(self):
        ivs = (TimeInterval("jump", 0.0, 5.0),
               TimeInterval("run", 1.0, 2.0),
               TimeInterval("run", 3.0, 4.0))
        with pytest.raises(ValidationError):
            AnnotationTrack("v", 6.0, ivs)

    def test_touching_intervals_are_not_overlap(self):
        track = AnnotationTrack("v", 5.0, (TimeInterval("jump", 0.0, 2.0),
                                           TimeInterval("run", 2.0, 4.0)))
        assert len(track.intervals) == 2


class TestDiscretize:
    def test_empty_annotation_all_background(self, vocab):
        grid = discretize([], 10.0, 0.5, vocab)
        assert grid.labels == ("background",) * 20

    def test_worked_example_slots(self, vocab):
        intervals = [TimeInterval("jump", 2.0, 5.0)]
        expected = midpoint_labels(intervals, 10.0, 0.5)
        assert expected[4:10] == ["jump"] * 6 and expected.count("jump") == 6
        grid = discretize(intervals, 10.0, 0.5, vocab)
        assert list(grid.labels) == expected

    def test_sub_slot_interval_is_lost(self, vocab):
        intervals = [TimeInterval("jump", 2.0, 2.1)]
        expected = midpoint_labels(intervals, 10.0, 0.5)
        assert expected == ["background"] * 20
        grid = discretize(intervals, 10.0, 0.5, vocab)
        assert list(grid.labels) == expected

    def test_overlap_tie_break_earliest_start_then_label(self, vocab):
        a = TimeInterval("run", 0.0, 2.0)
        b = TimeInterval("jump", 1.0, 3.0)
        grid = discretize([b, a], 3.0, 1.0, vocab)
        # midpoints 0.5, 1.5, 2.5: run wins slot 2 by earlier start
        assert grid.labels == ("run", "run", "jump")
        c = TimeInterval("jump", 0.0, 2.0)
        grid = discretize([a, c], 3.0, 1.0, vocab)
        assert grid.labels[:2] == ("jump", "jump")  # same start, lexicographic

    def test_interval_exceeding_duration_rejected(self, vocab):
        with pytest.raises(ValidationError):
            discretize([TimeInterval("jump", 0.0, 11.0)], 10.0, 0.5, vocab)

    def test_background_interval_rejected(self, vocab):
        with pytest.raises(ValidationError):
            discretize([TimeInterval("background", 0.0, 1.0)], 10.0, 0.5, vocab)

    def test_zero_slots_is_degenerate(self, vocab):
        with pytest.raises(DegenerateInputError):
            discretize([], 1.0, 1.5, vocab)

    def test_delta_equal_to_duration_gives_one_slot(self, vocab):
        grid = discretize([TimeInterval("jump", 0.0, 1.0)], 1.0, 1.0, vocab)
        assert grid.labels == ("jump",)

    @given(duration=st.floats(0.1, 1000.0), delta=st.floats(0.01, 10.0))
    def test_slot_count_is_floor_of_ratio(self, duration, delta):
        d_us, dt_us = seconds_to_us(duration), seconds_to_us(delta)
        if d_us // dt_us == 0:
            return
        assert num_slots(duration, delta) == d_us // dt_us

    @given(st.data())
    @settings(max_examples=200)
    def test_boundary_tiling_round_trips(self, data):
        """Intervals tiling exact slot boundaries reproduce labels slot-for-slot."""
        delta = data.draw(st.sampled_from([0.25, 0.5, 1.0, 0.3]))
        labels = data.draw(st.lists(
            st.sampled_from(["jump", "run", "background"]), min_size=1, max_size=30))
        vocab = LabelVocabulary(classes=("jump", "run"))
        intervals = [
            TimeInterval(lab, j * delta, (j + 1) * delta)
            for j, lab in enumerate(labels) if lab != "background"
        ]
        grid = discretize(intervals, len(labels) * delta, delta, vocab)
        assert list(grid.labels) == labels

    @given(multi_label_slot_cases())
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_brute_force_on_overlaps(self, case):
        intervals, duration, delta = case
        vocab = LabelVocabulary(classes=("jump", "run"))
        grid = discretize(intervals, duration, delta, vocab)
        assert list(grid.labels) == brute_force_slot_labels(
            intervals, duration, delta)
        assert grid.codes == tuple(vocab.codes[lab] for lab in grid.labels)

    def test_determinism(self, vocab):
        intervals = [TimeInterval("jump", 1.0, 4.0), TimeInterval("run", 5.0, 7.0)]
        a = discretize(intervals, 10.0, 0.5, vocab)
        b = discretize(list(reversed(intervals)), 10.0, 0.5, vocab)
        assert a == b


@st.composite
def labels_maybe_unknown(draw):
    """Known labels of the conftest vocabulary; half the time one unknown."""
    labels = draw(st.lists(st.sampled_from(["jump", "run", "background"]),
                           max_size=12))
    if draw(st.booleans()):
        labels.insert(draw(st.integers(0, len(labels))),
                      draw(st.sampled_from(["walk", "Jump", ""])))
    return labels


def outcome(call):
    """``None`` if ``call`` returns, else the class and text of its error."""
    try:
        call()
    except EvaluationError as exc:
        return type(exc), str(exc)
    return None


class TestSlotGrid:
    def test_length_and_vocab_enforced(self, vocab):
        with pytest.raises(VocabularyError):
            SlotGrid(0.5, ("walk",), vocab)
        with pytest.raises(DegenerateInputError):
            SlotGrid(0.5, (), vocab)

    def test_codes_and_delta_t_us_change_nothing_visible(self, vocab):
        a = SlotGrid(0.1 + 0.2, ("jump", "background"), vocab)
        b = SlotGrid(0.1 + 0.2, ["jump", "background"], vocab)
        assert a == b and hash(a) == hash(b)
        assert a.delta_t_us == 300_000
        assert repr(a) == (f"SlotGrid(delta_t_s={0.1 + 0.2!r}, "
                           f"labels=('jump', 'background'), vocab={vocab!r})")

    @given(labels_maybe_unknown())
    @settings(deadline=None)
    def test_label_check_names_the_first_unknown_label(self, labels):
        vocab = LabelVocabulary(classes=("jump", "run"))
        if not labels:
            return
        unknown = [lab for lab in labels if lab not in vocab]
        expected = (VocabularyError, f"unknown slot label {unknown[0]!r}"
                    ) if unknown else None
        assert outcome(lambda: SlotGrid(0.5, labels, vocab)) == expected
        if not unknown:
            grid = SlotGrid(0.5, labels, vocab)
            assert grid.codes == tuple(vocab.codes[lab] for lab in labels)


class TestPredictionStream:
    def test_append_only_ordering(self, vocab):
        s = PredictionStream("v", 0.5, vocab)
        assert s.record(1, "jump") == 1
        assert s.record(2, "background") == 2
        assert s.decisions == ("jump", "background")

    def test_revision_rejected(self, vocab):
        s = PredictionStream("v", 0.5, vocab)
        s.append("jump")
        with pytest.raises(CausalityError):
            s.record(1, "run")

    def test_lookahead_rejected(self, vocab):
        s = PredictionStream("v", 0.5, vocab)
        with pytest.raises(CausalityError):
            s.record(2, "jump")

    def test_append_beyond_capacity_rejected(self, vocab):
        s = PredictionStream("v", 0.5, vocab, num_slots=1)
        s.append("jump")
        with pytest.raises(CausalityError):
            s.append("jump")

    def test_unknown_label_rejected(self, vocab):
        s = PredictionStream("v", 0.5, vocab)
        with pytest.raises(VocabularyError):
            s.append("walk")

    @given(before=st.lists(st.sampled_from(["jump", "background"]), max_size=4),
           labels=labels_maybe_unknown(),
           capacity=st.none() | st.integers(1, 10))
    @settings(deadline=None)
    def test_extend_equals_repeated_append(self, before, labels, capacity):
        vocab = LabelVocabulary(classes=("jump", "run"))
        streams = [PredictionStream("v", 0.5, vocab, num_slots=capacity)
                   for _ in range(2)]
        for s in streams:
            for lab in before[:capacity]:
                s.append(lab)
        bulk, one_by_one = streams

        def append_each():
            for lab in labels:
                one_by_one.append(lab)

        assert outcome(lambda: bulk.extend(iter(labels))) == outcome(append_each)
        assert bulk.decisions == one_by_one.decisions
        if bulk.decisions:
            assert bulk.as_grid().codes == tuple(
                vocab.codes[lab] for lab in bulk.decisions)


class TestEventsToStream:
    def test_empty_detections(self, vocab):
        s = events_to_stream([], "v", 1.0, 0.5, vocab)
        assert s.decisions == ("background", "background")

    def test_full_coverage(self, vocab):
        s = events_to_stream([TimeInterval("run", 0.0, 1.0)], "v", 1.0, 0.5, vocab)
        assert s.decisions == ("run", "run")

    def test_partial_coverage_midpoint_rule(self, vocab):
        detections = [TimeInterval("run", 0.0, 0.3)]
        expected = midpoint_labels(detections, 1.0, 0.5)
        assert expected == ["run", "background"]
        s = events_to_stream(detections, "v", 1.0, 0.5, vocab)
        assert list(s.decisions) == expected
