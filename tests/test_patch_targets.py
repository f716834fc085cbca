"""The toolkit still offers what the benchmark reaches into.

``perfbench/tracer.py`` wraps the toolkit's functions where their callers
look them up, by name, and the benchmark's gate test corrupts a
``StreamingEvaluator`` through its ``state`` attribute. A refactor that
moves or renames one of those functions, or stops honouring an assigned
state, fails here with the entry at fault named, besides failing the
benchmark's own tests in ``perfbench/test_smoke.py``, which the same
``pytest`` run collects. The tracer is read and executed here, never
imported from its package or written to.
"""

import importlib
import types
from pathlib import Path

import pytest

from oadeval.ia import IATracePoint, MetricState, StreamingEvaluator
from oadeval.timeline import (
    AnnotationTrack,
    LabelVocabulary,
    SlotGrid,
    TimeInterval,
    discretize,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_patches():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module.PATCHES


PATCHES = _load_patches()


def test_patch_list_is_not_empty():
    assert len(PATCHES) > 0


@pytest.mark.parametrize(
    "module_name,class_name,attr",
    [entry[:3] for entry in PATCHES],
    ids=[".".join(filter(None, entry[:3])) for entry in PATCHES])
def test_patch_target_resolves(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None))


def test_discretize_counter_sizes_interval_columns():
    # the CLI and the baselines pass discretize a track's columns, and the
    # traced runs count them with len()
    vocab = LabelVocabulary(classes=("jump",))
    track = AnnotationTrack("v", 4.0, (TimeInterval("jump", 1.0, 2.0),
                                       TimeInterval("jump", 3.0, 3.5)))
    grid = discretize(track.columns, 4.0, 0.5, vocab)
    counters = {entry[4] for entry in PATCHES
                if entry[3] == "timeline.discretize"}
    assert counters
    for counter in counters:
        assert counter((track.columns, 4.0, 0.5, vocab), {}, grid) == {
            "slots": 8, "intervals": 2}


def test_assigned_streaming_state_is_honoured():
    # what the gate test's patch does: zero tp and tn after three slots
    vocab = LabelVocabulary(classes=("jump",))
    labels = ("jump", "background", "jump", "background", "jump")
    grid = SlotGrid(delta_t_s=0.5, labels=labels, vocab=vocab)
    evaluator = StreamingEvaluator(grid)
    for label in labels[:3]:
        evaluator.consume(label)
    state = evaluator.state
    assert state == MetricState(3, 2, 1, 2, 1)
    forgotten = MetricState(*state[:1], 0, 0, *state[3:])
    evaluator.state = forgotten
    assert evaluator.state == forgotten
    assert evaluator.consume(labels[3]) == IATracePoint(2.0, 0.25, 0.25, 1.0)
    assert evaluator.state == MetricState(4, 0, 1, 2, 2)
