"""Span recorder that times the toolkit's public functions from outside.

:class:`SpanRecorder` wraps each function named in :data:`PATCHES`
where its callers look it up (a module global or a class attribute),
records one span per call (name, start, end, parent) in flat arrays,
and restores the originals on :meth:`SpanRecorder.uninstall`.

Parent links follow the calling thread's open spans. A span opened on a
worker thread with nothing open there (``cmd_evaluate``'s thread pool)
takes as parent the innermost span open on the thread that created the
recorder, which is the command waiting on that pool. Appends happen
under a lock, so the recorder is safe for those worker threads.
"""

from __future__ import annotations

import functools
import importlib
import threading
from array import array
from time import perf_counter

import numpy as np


def _count_slots(args, kwargs, result):
    return {"slots": len(result)}


def _count_discretize(args, kwargs, result):
    # every caller passes a sized collection of intervals
    intervals = args[0] if args else kwargs["intervals"]
    return {"slots": len(result), "intervals": len(intervals)}


def _count_frames(args, kwargs, result):
    return {"frames": len(result)}


def _count_pm_frames(args, kwargs, result):
    return {"frames": result[1].n_frames}


# (module, class or None, attribute, span name, counter) -- every place a
# caller looks the function up, so internal calls are timed as well.
PATCHES = (
    ("oadeval.timeline", None, "discretize", "timeline.discretize",
     _count_discretize),
    ("oadeval.cli", None, "discretize", "timeline.discretize", _count_discretize),
    ("oadeval.baselines", None, "discretize", "timeline.discretize",
     _count_discretize),
    ("oadeval.timeline", "PredictionStream", "extend",
     "timeline.PredictionStream.extend", None),
    ("oadeval.ia", None, "evaluate_grids", "ia.evaluate_grids", _count_slots),
    ("oadeval.cli", None, "evaluate_grids", "ia.evaluate_grids", _count_slots),
    ("oadeval.cli", None, "maia", "ia.maia", None),
    ("oadeval.ia", "StreamingEvaluator", "consume",
     "ia.StreamingEvaluator.consume", None),
    ("oadeval.cli", None, "load_canonical_gt", "formats.load_canonical_gt", None),
    ("oadeval.formats", None, "build_stream", "formats.build_stream", None),
    ("oadeval.cli", None, "build_stream", "formats.build_stream", None),
    ("oadeval.cli", None, "load_scores", "formats.load_scores", None),
    ("oadeval.cli", None, "write_predictions", "formats.write_predictions", None),
    ("oadeval.offline", None, "rasterize_frames", "offline.rasterize_frames",
     _count_frames),
    ("oadeval.baselines", None, "rasterize_frames", "offline.rasterize_frames",
     _count_frames),
    ("oadeval.cli", None, "frame_map", "offline.frame_map", None),
    ("oadeval.cli", None, "frame_cap", "offline.frame_cap", None),
    ("oadeval.cli", None, "perfect_model", "baselines.perfect_model",
     _count_pm_frames),
    ("oadeval.cli", None, "cmd_evaluate", "cli.cmd_evaluate", None),
    ("oadeval.cli", None, "cmd_offline", "cli.cmd_offline", None),
    ("oadeval.cli", None, "cmd_baseline", "cli.cmd_baseline", None),
)


class SpanRecorder:
    """In-memory span store plus the patch set that feeds it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._stack()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name, fn, counter):
        with self._lock:
            nid = self._name_ids.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root and stack is not root else -1
            with self._lock:
                sid = len(self.start)
                self.name_id.append(nid)
                self.parent.append(parent)
                self.start.append(perf_counter())
                self.end.append(float("nan"))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                with self._lock:
                    self.end[sid] = perf_counter()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.add(f"{name}.{key}", value)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every patch target; a missing one is an error, so that a
        renamed or moved function cannot read as a layer with no work."""
        for module_name, class_name, attr, name, counter in PATCHES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.uninstall()
                target = ".".join(filter(None, (module_name, class_name, attr)))
                raise LookupError(f"patch target {target} not found")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, plus the name table, as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, and call count.

        Self time is a span's duration minus the union of its children's
        intervals, so children that ran concurrently on pool threads are
        not subtracted twice.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        n = len(self.names)
        inclusive = np.bincount(a["name_id"], weights=dur, minlength=n)
        calls = np.bincount(a["name_id"], minlength=n)
        self_s = inclusive.copy()
        children: dict[int, list[int]] = {}
        for sid in np.flatnonzero(a["parent"] >= 0).tolist():
            children.setdefault(int(a["parent"][sid]), []).append(sid)
        for sid, kids in children.items():
            self_s[a["name_id"][sid]] -= _union_length(
                [(a["start"][c], a["end"][c]) for c in kids],
                a["start"][sid], a["end"][sid])
        return ({name: float(inclusive[i]) for i, name in enumerate(self.names)},
                {name: float(self_s[i]) for i, name in enumerate(self.names)},
                {name: int(calls[i]) for i, name in enumerate(self.names)})


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
