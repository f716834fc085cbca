"""Command-line front end: evaluate, offline, baseline, convert.

Outputs are deterministic: identical inputs and flags produce
byte-identical trace files and summaries. Exit codes: 0 on success,
1 for validation/parse failures, 2 for I/O failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .baselines import all_bg, perfect_model
from .errors import EvaluationError, ValidationError
from .formats import (
    build_stream,
    load_activitynet_gt,
    load_canonical_gt,
    load_scores,
    load_thumos_gt,
    read_predictions,
    write_canonical_gt,
    write_predictions,
)
from .ia import MatchingMode, evaluate_grids, maia
from .offline import frame_cap, frame_count, frame_map
from .timeline import discretize, num_slots, slot_us

TRACE_HEADER = "t_s,ia,wia,weight_w"


def _safe_filename(video_id: str) -> str:
    return re.sub(r"[^\w.-]", "_", video_id)


@functools.cache
def _text_words() -> np.ndarray:
    """Four ASCII bytes per uint32, the pieces of a ``"%.6f"`` value.

    Built on the first trace written, so commands that write none do
    not hold the table.

    ``v < 10**4`` is at ``v`` zero-padded, at ``_HIGH + v`` space-padded
    and blank for 0, and at ``_ALONE + v`` space-padded; ``v < 1000`` is
    at ``_POINT + v`` as ``".ddd"`` and at ``_LAST[c] + v`` as ``"ddd"``
    and the separator that follows column ``c`` of a trace row.
    """
    quad = np.arange(10_000, dtype=np.int16)[:, None]
    digits = (quad // np.array([1000, 100, 10, 1], np.int16) % 10
              + ord("0")).astype(np.uint8)
    triple = digits[:1000, 1:]
    return np.concatenate([
        digits,
        np.where(quad < [1000, 100, 10, 1], ord(" "), digits),
        np.where(quad < [1000, 100, 10, 0], ord(" "), digits),
        np.insert(triple, 0, ord("."), axis=1),
        np.insert(triple, 3, ord(","), axis=1),
        np.insert(triple, 3, ord("\n"), axis=1),
    ]).view(np.uint32).ravel()


_HIGH, _ALONE, _POINT = 10_000, 20_000, 30_000
_LAST = np.array([31_000, 31_000, 31_000, 32_000])
_BLOCK_ROWS = 4096


def _format_rows(rows: np.ndarray) -> bytes:
    """``b"%.6f,%.6f,%.6f,%.6f\\n"`` of each row of a ``(n, 4)`` block.

    ``%.6f`` writes ``x * 10**6`` rounded half to even from the exact
    binary value. ``np.rint`` of the float product rounds it the same
    way unless the product lands on a tie ``k + 1/2``: the product is
    correctly rounded, and every tie below 2**52 is a float, so rounding
    can land on a tie but never cross one. Such values, those whose
    product may round to ``10**14`` or more, and negative or non-finite
    ones are left to ``"%.6f"``, which formats their rows whole. Every
    other value is four words of :func:`_text_words`, two for the integer part
    and two for the decimals and the separator; the spaces that pad the
    integer part are then deleted.
    """
    x = rows.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e6
        fast = ~np.signbit(x) & (y < 1e14 - 1) & (y - np.floor(y) != 0.5)
    n = np.rint(np.where(fast, y, 0.0)).astype(np.int64)
    whole = n // 1_000_000
    frac = n - 1_000_000 * whole
    high = whole // 10_000
    point = frac // 1000
    last = (frac - 1000 * point).reshape(-1, 4) + _LAST
    words = np.column_stack((
        high + _HIGH, whole - 10_000 * high + (high == 0) * _ALONE,
        point + _POINT, last.ravel()))
    text = _text_words()[words].tobytes()
    pieces, start = [], 0
    for r in dict.fromkeys((np.flatnonzero(~fast) // 4).tolist()):
        pieces += (text[start * 64:r * 64].translate(None, b" "),
                   b"%.6f,%.6f,%.6f,%.6f\n" % tuple(rows[r].tolist()))
        start = r + 1
    pieces.append(text[start * 64:].translate(None, b" "))
    return b"".join(pieces)


def _write_trace(path: Path, trace) -> None:
    # an IATrace, its rows or a list of points alike, in fixed-size
    # blocks so that the formatting buffers do not grow with the trace;
    # a write that fails removes the file it began
    rows = np.asarray(trace, np.float64).reshape(-1, 4)
    out = open(path, "wb")
    try:
        with out:
            out.write(f"{TRACE_HEADER}\n".encode())
            for start in range(0, len(rows), _BLOCK_ROWS):
                out.write(_format_rows(rows[start:start + _BLOCK_ROWS]))
    except BaseException:
        path.unlink()
        raise


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _check_delta_t(delta_t_s: float) -> None:
    """Fail on a ``--delta-t`` that :func:`slot_us` rejects, naming the flag."""
    try:
        slot_us(delta_t_s)
    except ValidationError:
        raise EvaluationError(f"--delta-t {delta_t_s} must be a finite slot "
                              "size of at least 1 microsecond") from None


def _check_fps(fps: float | None) -> None:
    """Fail on an ``--fps`` that :func:`frame_count` rejects, naming the flag."""
    if fps is not None and not 0 < fps < math.inf:
        raise EvaluationError(f"--fps {fps} must be finite and > 0")


def cmd_evaluate(args) -> int:
    _check_delta_t(args.delta_t)
    manifest = load_canonical_gt(args.gt)
    mode = MatchingMode(args.mode)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tracks = manifest.by_id()
    records, failures = read_predictions(args.pred, manifest,
                                         ("decisions", "detections"))
    per_video = {}
    ia_traces, wia_traces = [], []
    # trace names written so far, casefolded, as a case-insensitive file
    # system would compare them, each with the video that wrote it
    written = {}
    for vid in sorted(records):
        lineno, kind, obj = records[vid]
        track = tracks[vid]
        name = f"{_safe_filename(vid)}.trace.csv"
        if name.casefold() in written:
            failures[vid] = (f"line {lineno}: trace file {name} would overwrite "
                             f"that of video {written[name.casefold()]!r}")
            continue
        try:
            stream = build_stream(kind, obj, track, manifest.vocabulary,
                                  args.delta_t)
            gt_grid = discretize(track.intervals, track.duration_s,
                                 args.delta_t, manifest.vocabulary)
            rows = np.asarray(evaluate_grids(stream.as_grid(), gt_grid, mode),
                              np.float64)
        except EvaluationError as exc:
            failures[vid] = f"line {lineno}: {exc}"
            continue
        except Exception as exc:  # any other fault fails only this video
            named = ": ".join(filter(None, (type(exc).__name__, str(exc))))
            failures[vid] = f"line {lineno}: {named}"
            continue
        try:
            _write_trace(out_dir / name, rows)
        except OSError as exc:
            failures[vid] = (f"line {lineno}: cannot write {name}: "
                             f"{exc.strerror or exc}")
            continue
        written[name.casefold()] = vid
        # Python floats: round() of an np.float64 rounds another way
        ia_values, wia_values = rows[:, 1].tolist(), rows[:, 2].tolist()
        ia_traces.append((track.duration_s, ia_values))
        wia_traces.append((track.duration_s, wia_values))
        per_video[vid] = {
            "duration_s": track.duration_s,
            "slots": len(rows),
            "final_ia": round(ia_values[-1], 6),
            "final_wia": round(wia_values[-1], 6),
        }

    summary = {
        "delta_t_s": args.delta_t,
        "mode": mode.value,
        "videos_evaluated": len(per_video),
        "failures": [{"video_id": vid, "error": failures[vid]}
                     for vid in sorted(failures)],
        "maia": round(maia(ia_traces, args.delta_t), 6) if per_video else None,
        "weighted_maia": (round(maia(wia_traces, args.delta_t), 6)
                          if per_video else None),
        "per_video": per_video,
    }
    _write_json(out_dir / "summary.json", summary)

    print(f"evaluated {len(per_video)}/{len(tracks)} videos "
          f"(delta_t={args.delta_t}s, mode={mode.value})")
    if per_video:
        print(f"maIA          {summary['maia']:.6f}")
        print(f"weighted maIA {summary['weighted_maia']:.6f}")
    for entry in summary["failures"]:
        print(f"FAILED {entry['video_id']}: {entry['error']}", file=sys.stderr)
    return 1 if failures else 0


def cmd_offline(args) -> int:
    manifest = load_canonical_gt(args.gt)
    scores = load_scores(args.pred, manifest)
    if args.fps is not None:
        for matrix in scores.values():
            if matrix.fps != args.fps:
                raise EvaluationError(
                    f"video {matrix.video_id!r}: scores at {matrix.fps} fps "
                    f"but --fps {args.fps} was requested")
    compute = frame_map if args.metric == "map" else frame_cap
    result = compute(list(scores.values()), list(manifest.tracks),
                     manifest.vocabulary)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "metric": args.metric,
        "mean": round(result.mean, 6),
        "per_class": {c: round(v, 6)
                      for c, v in sorted(result.per_class.items())},
        "skipped_classes": sorted(result.skipped_classes),
    }
    _write_json(out_dir / f"offline_{args.metric}.json", payload)

    name = "AP" if args.metric == "map" else "cAP"
    for cls in sorted(result.per_class):
        print(f"{cls:30s} {name} {result.per_class[cls]:.6f}")
    for cls in sorted(result.skipped_classes):
        print(f"{cls:30s} {name} -  (no ground-truth frames)", file=sys.stderr)
    print(f"{'mean':30s} {name} {result.mean:.6f}")
    return 0


def cmd_baseline(args) -> int:
    _check_delta_t(args.delta_t)
    _check_fps(args.fps)
    manifest = load_canonical_gt(args.gt)
    baseline = (all_bg if args.kind == "all-bg"
                else functools.partial(perfect_model, seed=args.seed))
    streams, matrices = [], []
    limits = [("--delta-t", args.delta_t, num_slots)]
    if args.fps is not None:
        limits.insert(0, ("--fps", args.fps, frame_count))
    for track in sorted(manifest.tracks, key=lambda t: t.video_id):
        for flag, value, count in limits:
            try:
                count(track.duration_s, value)
            except ValidationError as exc:
                raise EvaluationError(f"video {track.video_id!r}: {exc} "
                                      f"at {flag} {value}") from None
        stream, matrix = baseline(track, args.delta_t, manifest.vocabulary,
                                  fps=args.fps)
        streams.append(stream)
        if matrix is not None:
            matrices.append(matrix)
    write_predictions(args.out, streams=streams, score_matrices=matrices)
    print(f"wrote {args.kind} predictions for {len(streams)} videos "
          f"to {args.out}")
    return 0


def cmd_convert(args) -> int:
    if args.format == "activitynet":
        manifest, report = load_activitynet_gt(args.input, subset=args.subset)
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    else:
        if args.durations is None:
            raise EvaluationError(
                "--durations is required for the thumos format")
        manifest = load_thumos_gt(args.input, args.durations)
    write_canonical_gt(manifest, args.out)
    print(f"wrote {len(manifest.tracks)} videos, "
          f"{len(manifest.vocabulary.classes)} classes to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oadeval",
        description="Streaming evaluation for online action detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate",
                       help="per-video IA/wIA traces plus corpus maIA")
    p.add_argument("--gt", required=True, help="canonical ground-truth file")
    p.add_argument("--pred", required=True, help="canonical prediction file")
    p.add_argument("--delta-t", type=float, default=0.5,
                   help="slot duration in seconds (default 0.5)")
    p.add_argument("--mode", choices=[m.value for m in MatchingMode],
                   default=MatchingMode.CLASS_AWARE.value)
    p.add_argument("--out-dir", default="oadeval_out")
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored; videos are evaluated one after another")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("offline", help="legacy frame-level mAP / cAP")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True,
                   help="prediction file containing scores records")
    p.add_argument("--fps", type=float, default=None,
                   help="expected fps of the score blocks (cross-check)")
    p.add_argument("--metric", choices=["map", "cap"], default="map")
    p.add_argument("--out-dir", default="oadeval_out")
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("baseline",
                       help="emit All-Background or Perfect-Model predictions")
    p.add_argument("--gt", required=True)
    p.add_argument("--kind", choices=["all-bg", "pm"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta-t", type=float, default=0.5)
    p.add_argument("--fps", type=float, default=None,
                   help="frame rate of the scores records; without it "
                   "pm scores one frame per slot and all-bg writes none")
    p.add_argument("--out", required=True, help="prediction file to write")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("convert", help="convert external ground truth")
    p.add_argument("--format", choices=["activitynet", "thumos"],
                   required=True)
    p.add_argument("--in", dest="input", required=True,
                   help="annotation file (activitynet) or directory (thumos)")
    p.add_argument("--out", required=True, help="canonical file to write")
    p.add_argument("--subset", default="validation",
                   help="activitynet subset to keep")
    p.add_argument("--durations", default=None,
                   help="thumos sidecar table: 'video_id duration_s' rows")
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
