"""Shared fixtures: the 20-slot worked example used across the suite,
and the suite's hypothesis profile.

A 10 s video at delta_t = 0.5 s; ground truth has one "jump" interval
on [2.0, 5.0) (slots 5-10), the predictor reports "jump" on [2.0, 4.0)
(slots 5-8) and background elsewhere.
"""

import pytest
from hypothesis import settings

from oadeval.timeline import (
    AnnotationTrack,
    LabelVocabulary,
    TimeInterval,
    discretize,
)

DELTA_T = 0.5
DURATION = 10.0

# every property test draws the same examples on every run, however long
# each one takes; a test's own @settings still sets its max_examples
settings.register_profile("default", derandomize=True, deadline=None)
settings.load_profile("default")


@pytest.fixture
def vocab():
    return LabelVocabulary(classes=("jump", "run"))


@pytest.fixture
def worked_track():
    return AnnotationTrack(
        video_id="worked-example",
        duration_s=DURATION,
        intervals=(TimeInterval("jump", 2.0, 5.0),),
    )


@pytest.fixture
def worked_gt_grid(vocab, worked_track):
    return discretize(worked_track.intervals, DURATION, DELTA_T, vocab)


@pytest.fixture
def worked_pred_grid(vocab):
    return discretize([TimeInterval("jump", 2.0, 4.0)], DURATION, DELTA_T, vocab)
