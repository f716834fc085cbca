"""Timeline types and the interval -> slot discretizer."""

import copy
import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oadeval.errors import (
    CausalityError,
    DegenerateInputError,
    EvaluationError,
    ValidationError,
    VocabularyError,
)
from oadeval.baselines import all_bg, perfect_model
from oadeval.formats import build_scores, build_stream
from oadeval.ia import StreamingEvaluator, evaluate_grids, ia_at, maia, oracle_ia
from oadeval.offline import frame_count, rasterize_frames
from oadeval.timeline import (
    MAX_SLOTS,
    AnnotationTrack,
    IntervalColumns,
    LabelVocabulary,
    PredictionStream,
    SlotGrid,
    TimeInterval,
    check_ends,
    discretize,
    events_to_stream,
    num_slots,
    seconds_to_us,
    slot_us,
)
from test_offline import brute_force_frame_labels


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


def draw_intervals(draw, points, tail):
    """Up to 10 intervals between drawn points, some of them ending in
    ``tail``, with three overlapping labels."""
    intervals = []
    for _ in range(draw(st.integers(0, 10))):
        start, end = draw(points), draw(points | tail)
        if start != end:
            intervals.append(TimeInterval(
                draw(st.sampled_from(["jump", "run", "walk"])),
                min(start, end) / 1e6, max(start, end) / 1e6))
    return intervals


@st.composite
def odd_microsecond_slot_cases(draw):
    """Overlapping multi-label intervals on slots of an odd number of
    microseconds, whose midpoints fall on half microseconds; ends may lie
    past the last midpoint, in the trailing partial slot."""
    delta_us = 2 * draw(st.integers(0, 50_000)) + 1
    k = draw(st.integers(1, 30))
    duration_us = k * delta_us + draw(st.integers(0, delta_us - 1))
    near = [t + e for j in range(k + 1)
            for t in (j * delta_us, (2 * j - 1) * delta_us // 2) for e in (0, 1)]
    points = (st.sampled_from([t for t in near if 0 <= t <= duration_us])
              | st.integers(0, duration_us))
    last_mid = (2 * k - 1) * delta_us // 2
    intervals = draw_intervals(draw, points,
                               st.integers(last_mid + 1, duration_us))
    track = AnnotationTrack("v", duration_us / 1e6, tuple(intervals),
                            multi_label=True)
    return track, delta_us / 1e6


@st.composite
def odd_microsecond_frame_cases(draw):
    """The same for frames of an odd number of microseconds: bounds on, or
    a microsecond either side of, frame midpoints, and ends past the last."""
    frame_us = 2 * draw(st.integers(1, 200_000)) + 1
    fps = 1e6 / frame_us
    duration_us = (draw(st.integers(1, 30)) * frame_us
                   + draw(st.integers(0, frame_us - 1)))
    # floor(duration * fps) in floats, as frame_count takes it: one frame
    # of exactly frame_us can fall just short of 1 and hold no frame
    mids = [seconds_to_us((i - 0.5) / fps)
            for i in range(1, math.floor(duration_us / 1e6 * fps) + 1)]
    near = [t + e for t in mids for e in (-1, 0, 1)] + [0, duration_us]
    points = (st.sampled_from([t for t in near if 0 <= t <= duration_us])
              | st.integers(0, duration_us))
    last_mid = mids[-1] if mids else 0
    intervals = draw_intervals(draw, points,
                               st.integers(last_mid, duration_us))
    track = AnnotationTrack("v", duration_us / 1e6, tuple(intervals),
                            multi_label=True)
    return track, fps


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

    @given(classes=st.lists(st.text(min_size=1, max_size=2), unique=True,
                            max_size=4),
           background=st.text(min_size=1, max_size=2),
           other=st.text(max_size=2))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_lookups_match_classes_and_background(self, classes, background,
                                                  other):
        assume(background not in classes)
        vocab = LabelVocabulary(classes=tuple(classes), background=background)
        for label in [*classes, background, other, ""]:
            known = label in classes or label == background
            assert (label in vocab) == known
            unknown = (VocabularyError, f"unknown label {label!r}")
            assert outcome(lambda: vocab.is_action(label)) == (
                None if known else unknown)
            assert outcome(lambda: vocab.require(label)) == (
                None if known else unknown)
            if known:
                assert vocab.is_action(label) == (label in classes)
                assert vocab.require(label) == label

    def test_codes_background_zero_then_declared_order(self):
        vocab = LabelVocabulary(classes=("run", "jump"), background="bg")
        assert vocab.codes == {"bg": 0, "run": 1, "jump": 2}
        twin = LabelVocabulary(classes=("run", "jump"), background="bg")
        assert vocab == twin and hash(vocab) == hash(twin)

    def test_only_classes_and_background_are_arguments(self):
        vocab = LabelVocabulary(classes=["run", "jump"], background="bg")
        assert repr(vocab) == ("LabelVocabulary(classes=('run', 'jump'), "
                               "background='bg')")
        for name in ("labels", "codes"):
            with pytest.raises(TypeError):
                LabelVocabulary(classes=("run",), **{name: ()})
        # a copied vocabulary decodes codes to the same labels
        copied = pickle.loads(pickle.dumps(vocab))
        stream = PredictionStream("v", 0.5, copied)
        stream.extend(["jump", "bg", "run"])
        assert stream.as_grid().codes.tolist() == [2, 0, 1]
        assert stream.as_grid().labels == stream.decisions == (
            "jump", "bg", "run")


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

    def test_times_fit_int64_in_microseconds(self):
        # the largest float whose product with 10**6 is below 2**63, and
        # the next one up; ints likewise, on either side of the bound
        below = math.nextafter(2 ** 63 / 1e6, 0)
        while below * 1e6 >= 2 ** 63:
            below = math.nextafter(below, 0)
        above = math.nextafter(below, math.inf)
        for seconds in (below, -below, 2 ** 63 // 10 ** 6):
            assert abs(seconds_to_us(seconds)) < 2 ** 63
        assert seconds_to_us(below) == round(below * 1e6)
        for seconds in (above, -above, 2 ** 63 // 10 ** 6 + 1, 10 ** 400):
            with pytest.raises(ValidationError, match=re.escape(
                    f"time {seconds} s is not a finite number of "
                    "microseconds below 2**63")):
                seconds_to_us(seconds)


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

    def test_empty_video_id_rejected(self):
        with pytest.raises(ValidationError,
                           match="^video_id must be non-empty$"):
            AnnotationTrack("", 5.0)

    def test_touching_intervals_are_not_overlap(self):
        track = AnnotationTrack("v", 5.0, (TimeInterval("jump", 0.0, 2.0),
                                           TimeInterval("run", 2.0, 4.0)))
        assert len(track.intervals) == 2

    @given(st.lists(st.tuples(st.sampled_from(["run", "jump", "Jump"]),
                              st.integers(0, 12), st.integers(1, 4)),
                    max_size=8), st.booleans())
    @settings(max_examples=300)
    def test_column_checks_match_the_object_loop(self, drawn, multi_label):
        # the checks as loops over the objects: every end in input order,
        # then each start against the latest end before it, by (start, label)
        intervals = tuple(TimeInterval(label, start / 2, (start + length) / 2)
                          for label, start, length in drawn)

        def loop():
            check_ends(intervals, 6.0, "v")
            covered_until = -1
            for iv in sorted(intervals, key=lambda iv: (iv.start_us, iv.label)):
                if not multi_label and iv.start_us < covered_until:
                    raise ValidationError(
                        f"video 'v': interval [{iv.start_s}, {iv.end_s}) "
                        "overlaps an earlier one but track is not multi_label")
                covered_until = max(covered_until, iv.end_us)

        expected = outcome(loop)
        assert outcome(lambda: AnnotationTrack(
            "v", 6.0, intervals, multi_label)) == expected
        if expected is None:
            track = AnnotationTrack("v", 6.0, intervals, multi_label)
            assert track.columns.rows() == sorted(
                intervals, key=lambda iv: (iv.start_us, iv.label))
            assert track.intervals == intervals

    def test_pickled_track_keeps_read_only_columns(self):
        track = AnnotationTrack("v", 5.0, (TimeInterval("run", 2.0, 4.0),
                                           TimeInterval("jump", 0.0, 2.0)))
        for copied in (pickle.loads(pickle.dumps(track)), copy.deepcopy(track),
                       copy.copy(track)):
            assert copied == track and repr(copied) == repr(track)
            assert not copied.columns.start_us.flags.writeable


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
        with pytest.raises(ValidationError,
                           match="^background intervals are implicit"):
            discretize([TimeInterval("background", 0.0, 1.0)], 10.0, 0.5, vocab)

    def test_labels_checked_in_given_order(self, vocab):
        # the first bad label as given, not as sorted, names the error
        late_walk = TimeInterval("walk", 5.0, 6.0)
        early_background = TimeInterval("background", 0.0, 1.0)
        assert outcome(lambda: discretize(
            [late_walk, early_background], 10.0, 0.5, vocab)) == (
            VocabularyError, "unknown label 'walk'")

    def test_zero_slots_is_degenerate(self, vocab):
        with pytest.raises(DegenerateInputError):
            discretize([], 1.0, 1.5, vocab)
        # the slot count is checked before any label or end
        for bad in (TimeInterval("walk", 0.0, 0.1), TimeInterval("jump", 0.0, 9.0)):
            with pytest.raises(DegenerateInputError, match="zero slots$"):
                discretize([bad], 1.0, 1.5, vocab)

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
        assert grid.codes.tolist() == [vocab.codes[lab] for lab in grid.labels]

    def test_determinism(self, vocab):
        intervals = [TimeInterval("jump", 1.0, 4.0), TimeInterval("run", 5.0, 7.0)]
        a = discretize(intervals, 10.0, 0.5, vocab)
        b = discretize(list(reversed(intervals)), 10.0, 0.5, vocab)
        assert a == b

    def test_times_past_int64_are_rejected(self):
        # 9.9e12 s is 9.9e18 us, past int64's 9.22e18: neither an interval
        # nor a duration that long reaches the slot arithmetic
        vocab = LabelVocabulary(classes=("a",))
        with pytest.raises(ValidationError, match=re.escape(
                "time 9900000000000.0 s is not a finite number of "
                "microseconds below 2**63")):
            TimeInterval("a", 9.2e12, 9.9e12)
        with pytest.raises(ValidationError, match="below 2"):
            discretize([], 1e13, 1e8, vocab)

    def test_range_terms_past_int64_are_exact(self):
        # every end in microseconds fits int64 (5e18 < 9.22e18), but twice
        # it does not: midpoints (j - 1/2) * 1e8 s from j = 40,001 to 50,000
        vocab = LabelVocabulary(classes=("a",))
        grid = discretize([TimeInterval("a", 4e12, 5e12)], 6e12, 1e8, vocab)
        assert np.flatnonzero(grid.codes).tolist() == list(range(40_000, 50_000))

    def test_int64_ranges_only_where_every_term_fits(self):
        # 2 * duration_us + delta_us crosses 2**63 between these durations,
        # which no term of the slot ranges reaches: each slot on either
        # side as the oracle has it
        vocab = LabelVocabulary(classes=("a",))
        delta_s = 2 ** 61 / 1e6
        edge_s = (2 ** 63 - slot_us(delta_s)) / 2e6
        sides = set()
        for steps in range(-3, 4):
            duration_s = edge_s + steps * math.ulp(edge_s)
            sides.add(2 * seconds_to_us(duration_s) + slot_us(delta_s) > 2 ** 63)
            intervals = [TimeInterval("a", delta_s / 4, duration_s)]
            grid = discretize(intervals, duration_s, delta_s, vocab)
            assert list(grid.labels) == brute_force_slot_labels(
                intervals, duration_s, delta_s) == ["a"]
        assert sides == {False, True}

    @given(odd_microsecond_slot_cases())
    @settings(max_examples=300)
    def test_painted_codes_match_brute_force_at_odd_microseconds(self, case):
        track, delta = case
        vocab = LabelVocabulary(classes=("jump", "run", "walk"))
        grid = discretize(track.intervals, track.duration_s, delta, vocab)
        expected = brute_force_slot_labels(track.intervals, track.duration_s,
                                           delta)
        assert grid.codes.tolist() == [vocab.codes[lab] for lab in expected]
        assert list(grid.labels) == expected

    @given(odd_microsecond_frame_cases())
    @settings(max_examples=300)
    def test_painted_frames_match_brute_force_at_odd_microseconds(self, case):
        track, fps = case
        vocab = LabelVocabulary(classes=("jump", "run", "walk"))
        if math.floor(track.duration_s * fps) == 0:
            with pytest.raises(DegenerateInputError, match="zero frames$"):
                rasterize_frames(track, fps, vocab)
            return
        assert rasterize_frames(track, fps, vocab) == [
            vocab.codes[lab] for lab in brute_force_frame_labels(track, fps)]

    def test_codes_hold_more_than_255_classes(self):
        vocab = LabelVocabulary(classes=tuple(f"c{i}" for i in range(300)))
        intervals = [TimeInterval("c299", 0.0, 1.0), TimeInterval("c0", 1.0, 2.0)]
        grid = discretize(intervals, 3.0, 0.5, vocab)
        assert grid.codes.tolist() == [300, 300, 1, 1, 0, 0]
        assert grid.labels == ("c299",) * 2 + ("c0",) * 2 + ("background",) * 2
        assert SlotGrid(0.5, grid.labels, vocab) == grid
        assert rasterize_frames(AnnotationTrack("v", 3.0, tuple(intervals)),
                                2.0, vocab) == [300, 300, 1, 1, 0, 0]
        assert evaluate_grids(grid, grid) == oracle_ia(grid, grid)


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


class TestCheckEnds:
    LATE = TimeInterval("jump", 1.0, 20.0)
    TEXT = "interval [1.0, 20.0) exceeds duration 10.0"

    def test_one_rule_two_texts(self, vocab):
        assert outcome(lambda: check_ends([self.LATE], 10.0)) == (
            ValidationError, self.TEXT)
        assert outcome(lambda: check_ends([self.LATE], 10.0, "v")) == (
            ValidationError, f"video 'v': {self.TEXT}")
        assert outcome(lambda: discretize([self.LATE], 10.0, 0.5, vocab)) == (
            ValidationError, self.TEXT)
        assert outcome(lambda: AnnotationTrack("v", 10.0, (self.LATE,))) == (
            ValidationError, f"video 'v': {self.TEXT}")

    def test_ends_are_checked_in_the_order_given(self, vocab):
        # a track checks its input order, discretize its paint order
        run_late = TimeInterval("run", 5.0, 12.0)
        intervals = (run_late, self.LATE)
        assert outcome(lambda: check_ends(intervals, 10.0)) == (
            ValidationError, "interval [5.0, 12.0) exceeds duration 10.0")
        assert outcome(lambda: AnnotationTrack(
            "v", 10.0, intervals, multi_label=True)) == (
            ValidationError,
            "video 'v': interval [5.0, 12.0) exceeds duration 10.0")
        assert outcome(lambda: discretize(intervals, 10.0, 0.5, vocab)) == (
            ValidationError, self.TEXT)

    def test_ends_compare_in_microseconds(self):
        # 10.0000004 s is 10,000,000 us, the duration itself
        assert check_ends([TimeInterval("jump", 9.0, 10.0000004)], 10.0) is None
        assert outcome(lambda: check_ends(
            [TimeInterval("jump", 9.0, 10.000001)], 10.0)) == (
            ValidationError, "interval [9.0, 10.000001) exceeds duration 10.0")


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

    def test_every_builder_gives_the_same_grid(self, vocab):
        labels = ["run", "run", "background", "jump", "jump", "background"]
        intervals = [TimeInterval("run", 0.0, 1.0), TimeInterval("jump", 1.5, 2.5)]
        stream = PredictionStream("v", 0.5, vocab)
        stream.extend(labels)
        one_by_one = PredictionStream("v", 0.5, vocab, num_slots=6)
        for lab in labels:
            one_by_one.append(lab)
        grids = [SlotGrid(0.5, labels, vocab),
                 discretize(intervals, 3.0, 0.5, vocab),
                 stream.as_grid(), one_by_one.as_grid(),
                 events_to_stream(intervals, "v", 3.0, 0.5, vocab).as_grid()]
        # the painted grids score without deriving their labels
        evaluate_grids(grids[2], grids[1])
        assert all("labels" not in vars(g) for g in grids[1:])
        for grid in grids:
            assert grid == grids[0] and hash(grid) == hash(grids[0])
            assert repr(grid) == (
                "SlotGrid(delta_t_s=0.5, labels=('run', 'run', 'background', "
                f"'jump', 'jump', 'background'), vocab={vocab!r})")
            assert grid.codes.tolist() == [2, 2, 0, 1, 1, 0]
            assert grid.labels == tuple(labels) and len(grid) == 6
        assert grids[0] != SlotGrid(0.25, labels, vocab)
        assert grids[0] != SlotGrid(0.5, labels[:-1], vocab)
        assert grids[0] != SlotGrid(0.5, labels, LabelVocabulary(("jump", "run",
                                                                  "walk")))
        assert grids[0] != tuple(labels)

    def test_codes_are_read_only(self, vocab):
        for grid in (SlotGrid(0.5, ("jump", "run"), vocab),
                     discretize([TimeInterval("jump", 0.0, 0.5)], 1.0, 0.5, vocab)):
            with pytest.raises(ValueError, match="read-only"):
                grid.codes[0] = 0
            with pytest.raises(AttributeError):
                grid.codes = np.zeros(2, np.uint8)
            assert grid.codes.tolist()[0] == vocab.codes["jump"]

    def test_pickled_and_copied_codes_stay_read_only(self, vocab):
        grid = discretize([TimeInterval("jump", 0.0, 0.5)], 1.0, 0.5, vocab)
        for copied in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid),
                       copy.copy(grid)):
            assert type(copied) is SlotGrid
            assert copied == grid and hash(copied) == hash(grid)
            assert repr(copied) == repr(grid)
            with pytest.raises(ValueError, match="read-only"):
                copied.codes[0] = 0
            assert copied.codes.tolist() == grid.codes.tolist()

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
            assert grid.codes.tolist() == [vocab.codes[lab] for lab in labels]


def _ia_at_on_own_grid(delta_t_s, vocab):
    grid = SlotGrid(delta_t_s, ("jump",) * 10, vocab)
    return ia_at(grid, grid, 1e-5)


# every entry point that takes a slot size, on a 10 us timeline
SLOT_SIZE_CALLS = {
    "SlotGrid": lambda d, vocab: SlotGrid(d, ("jump",), vocab),
    "PredictionStream": lambda d, vocab: PredictionStream("v", d, vocab),
    "num_slots": lambda d, vocab: num_slots(1e-5, d),
    "discretize": lambda d, vocab: discretize((), 1e-5, d, vocab),
    "events_to_stream": lambda d, vocab: events_to_stream((), "v", 1e-5, d,
                                                          vocab),
    "maia": lambda d, vocab: maia([(1e-5, [1.0] * 10)], d),
    "ia_at": _ia_at_on_own_grid,
}


class TestSlotSize:
    # 5e-7 s is half a microsecond, which rounds half to even to 0
    @pytest.mark.parametrize("delta_t", [math.nan, math.inf, -math.inf, -1,
                                         0, 1e-7, 5e-7])
    @pytest.mark.parametrize("call", SLOT_SIZE_CALLS.values(),
                             ids=SLOT_SIZE_CALLS.keys())
    def test_one_rule_one_error(self, vocab, call, delta_t):
        expected = (ValidationError, f"delta_t {delta_t} must be a finite "
                    "slot size of at least 1 microsecond")
        assert outcome(lambda: slot_us(delta_t)) == expected
        assert outcome(lambda: call(delta_t, vocab)) == expected

    @pytest.mark.parametrize("call", SLOT_SIZE_CALLS.values(),
                             ids=SLOT_SIZE_CALLS.keys())
    def test_one_microsecond_is_accepted(self, vocab, call):
        assert outcome(lambda: call(1e-6, vocab)) is None

    def test_microseconds_and_overflow(self, vocab):
        assert slot_us(1e-6) == 1 and slot_us(0.1 + 0.2) == 300_000
        assert SlotGrid(1e-6, ("jump",), vocab).delta_t_us == 1
        assert num_slots(1e-5, 1e-6) == 10
        with pytest.raises(ValidationError, match="at least 1 microsecond"):
            slot_us(1e308)


def allocation_peak(call):
    """Peak bytes traced while ``call()`` runs; its error is swallowed."""
    tracemalloc.start()
    try:
        outcome(call)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


HUGE_S = 1e12  # 2e12 slots at 0.5 s
SHORT_S = 0.3  # no slot at 0.5 s
# every entry point that sizes a grid from a duration, called on one
SLOT_COUNT_CALLS = {
    "num_slots": lambda d, vocab: num_slots(d, 0.5),
    "discretize": lambda d, vocab: discretize((), d, 0.5, vocab),
    "events_to_stream": lambda d, vocab: events_to_stream((), "v", d, 0.5,
                                                          vocab),
    "maia": lambda d, vocab: maia([(d, [])], 0.5),
    "build_stream decisions": lambda d, vocab: build_stream(
        "decisions", {"video_id": "v", "delta_t_s": 0.5, "labels": ["jump"]},
        AnnotationTrack("v", d), vocab, 0.5),
    "build_stream no decisions": lambda d, vocab: build_stream(
        "decisions", {"video_id": "v", "delta_t_s": 0.5, "labels": []},
        AnnotationTrack("v", d), vocab, 0.5),
    "build_stream detections": lambda d, vocab: build_stream(
        "detections", {"video_id": "v", "events": []},
        AnnotationTrack("v", d), vocab, 0.5),
    "all_bg": lambda d, vocab: all_bg(AnnotationTrack("v", d), 0.5, vocab),
    "perfect_model": lambda d, vocab: perfect_model(
        AnnotationTrack("v", d), 0.5, vocab, 0, fps=2.0),
}
# every entry point that sizes a score matrix from a rate, at 1e9 fps
FRAME_COUNT_CALLS = {
    "frame_count": lambda vocab: frame_count(10.0, 1e9),
    "build_scores": lambda vocab: build_scores(
        {"video_id": "v", "fps": 1e9, "scores": []},
        AnnotationTrack("v", 10.0), vocab),
    "all_bg": lambda vocab: all_bg(AnnotationTrack("v", 10.0), 0.5, vocab,
                                   fps=1e9),
    "perfect_model": lambda vocab: perfect_model(
        AnnotationTrack("v", 10.0), 0.5, vocab, 0, fps=1e9),
}


class TestSlotCount:
    @pytest.mark.parametrize("call", SLOT_COUNT_CALLS.values(),
                             ids=SLOT_COUNT_CALLS.keys())
    def test_slot_limit_fails_before_allocating(self, vocab, call):
        assert outcome(lambda: call(HUGE_S, vocab)) == (
            ValidationError, f"2000000000000 slots exceed the limit of "
            f"{MAX_SLOTS} per video")
        assert allocation_peak(lambda: call(HUGE_S, vocab)) < 2 ** 20

    @pytest.mark.parametrize("call", SLOT_COUNT_CALLS.values(),
                             ids=SLOT_COUNT_CALLS.keys())
    def test_zero_slots_fail_alike(self, vocab, call):
        # a slotless video has no IA at all: maia may not average it in
        assert outcome(lambda: call(SHORT_S, vocab)) == (
            DegenerateInputError,
            "delta_t 0.5 larger than duration 0.3: zero slots")

    @pytest.mark.parametrize("call", FRAME_COUNT_CALLS.values(),
                             ids=FRAME_COUNT_CALLS.keys())
    def test_frame_limit_fails_before_allocating(self, vocab, call):
        assert outcome(lambda: call(vocab)) == (
            ValidationError, f"10000000000 frames exceed the limit of "
            f"{MAX_SLOTS} per video")
        assert allocation_peak(lambda: call(vocab)) < 2 ** 20

    def test_the_limit_itself_is_allowed(self):
        # 1 us slots and 1 fps frames: counts equal to the durations in
        # us and s, so nothing is allocated to probe the edge
        assert num_slots(MAX_SLOTS / 1e6, 1e-6) == MAX_SLOTS
        assert frame_count(MAX_SLOTS + 0.5, 1.0) == MAX_SLOTS
        with pytest.raises(ValidationError, match=f"^{MAX_SLOTS + 1} slots"):
            num_slots((MAX_SLOTS + 1) / 1e6, 1e-6)
        with pytest.raises(ValidationError, match=f"^{MAX_SLOTS + 1} frames"):
            frame_count(MAX_SLOTS + 1, 1.0)


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

    def test_empty_video_id_rejected(self, vocab):
        with pytest.raises(ValidationError,
                           match="^video_id must be non-empty$"):
            PredictionStream("", 0.5, vocab)

    @pytest.mark.parametrize("num_slots", [0, -1])
    def test_non_positive_slot_count_rejected(self, vocab, num_slots):
        with pytest.raises(ValidationError,
                           match="^num_slots must be positive when given$"):
            PredictionStream("v", 0.5, vocab, num_slots=num_slots)

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
            assert bulk.as_grid().codes.tolist() == [
                vocab.codes[lab] for lab in bulk.decisions]


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
