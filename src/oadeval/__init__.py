"""Streaming evaluation toolkit for online action detection.

Core pieces: timeline discretization (`timeline`), the instantaneous
accuracy engine with its brute-force oracle (`ia`), legacy frame-level
AP metrics (`offline`), analytic baselines (`baselines`), annotation and
prediction file formats (`formats`), and the command-line front end
(`cli`).
"""

from .errors import (
    CausalityError,
    DegenerateInputError,
    EvaluationError,
    ParseError,
    ValidationError,
    VocabularyError,
)
from .ia import (
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
from .timeline import (
    DEFAULT_BACKGROUND,
    AnnotationTrack,
    LabelVocabulary,
    PredictionStream,
    SlotGrid,
    TimeInterval,
    discretize,
    events_to_stream,
    num_slots,
)

__version__ = "0.1.0"
