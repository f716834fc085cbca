"""Command-line front end: evaluate, offline, baseline, convert.

Outputs are deterministic: identical inputs and flags produce
byte-identical trace files and summaries. Exit codes: 0 on success,
1 for validation/parse failures, 2 for I/O failures.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from itertools import chain
from pathlib import Path

from .baselines import all_bg, perfect_model
from .errors import EvaluationError
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
from .offline import frame_cap, frame_map
from .timeline import US_PER_S, discretize, seconds_to_us

TRACE_HEADER = "t_s,ia,wia,weight_w"


def _safe_filename(video_id: str) -> str:
    return re.sub(r"[^\w.-]", "_", video_id)


def _write_trace(path: Path, trace) -> None:
    # one %-format over the whole trace; "%.6f" writes the same digits
    # as f"{x:.6f}"
    row = "%.6f,%.6f,%.6f,%.6f\n"
    body = (row * len(trace)) % tuple(chain.from_iterable(trace))
    path.write_text(f"{TRACE_HEADER}\n{body}", encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _check_delta_t(delta_t_s: float) -> None:
    """Fail on a ``--delta-t`` that is not finite or rounds to under 1 us."""
    if not (math.isfinite(delta_t_s * US_PER_S)
            and seconds_to_us(delta_t_s) >= 1):
        raise EvaluationError(f"--delta-t {delta_t_s} must be a finite slot "
                              "size of at least 1 microsecond")


def cmd_evaluate(args) -> int:
    _check_delta_t(args.delta_t)
    manifest = load_canonical_gt(args.gt)
    mode = MatchingMode(args.mode)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tracks = manifest.by_id()
    records, failures = read_predictions(args.pred, manifest,
                                         ("decisions", "detections"))
    results = {}
    for vid in sorted(records):
        lineno, kind, obj = records[vid]
        track = tracks[vid]
        try:
            stream = build_stream(kind, obj, track, manifest.vocabulary,
                                  args.delta_t)
            gt_grid = discretize(track.intervals, track.duration_s,
                                 args.delta_t, manifest.vocabulary)
            trace = evaluate_grids(stream.as_grid(), gt_grid, mode)
        except EvaluationError as exc:
            failures[vid] = f"line {lineno}: {exc}"
            continue
        except Exception as exc:  # any other fault fails only this video
            named = ": ".join(filter(None, (type(exc).__name__, str(exc))))
            failures[vid] = f"line {lineno}: {named}"
            continue
        _write_trace(out_dir / f"{_safe_filename(vid)}.trace.csv", trace)
        results[vid] = track, trace

    per_video = {}
    ia_traces, wia_traces = [], []
    for vid in sorted(results):
        track, trace = results[vid]
        ia_traces.append((track.duration_s, [p.ia for p in trace]))
        wia_traces.append((track.duration_s, [p.wia for p in trace]))
        per_video[vid] = {
            "duration_s": track.duration_s,
            "slots": len(trace),
            "final_ia": round(trace[-1].ia, 6),
            "final_wia": round(trace[-1].wia, 6),
        }

    summary = {
        "delta_t_s": args.delta_t,
        "mode": mode.value,
        "videos_evaluated": len(results),
        "failures": [{"video_id": vid, "error": failures[vid]}
                     for vid in sorted(failures)],
        "maia": round(maia(ia_traces, args.delta_t), 6) if results else None,
        "weighted_maia": (round(maia(wia_traces, args.delta_t), 6)
                          if results else None),
        "per_video": per_video,
    }
    _write_json(out_dir / "summary.json", summary)

    print(f"evaluated {len(results)}/{len(tracks)} videos "
          f"(delta_t={args.delta_t}s, mode={mode.value})")
    if results:
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
    manifest = load_canonical_gt(args.gt)
    streams, matrices = [], []
    for track in sorted(manifest.tracks, key=lambda t: t.video_id):
        if args.kind == "all-bg":
            stream, matrix = all_bg(track, args.delta_t, manifest.vocabulary,
                                    fps=args.fps)
        else:
            stream, matrix = perfect_model(track, args.delta_t,
                                           manifest.vocabulary, args.seed,
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
                   help="also emit frame scores at this rate")
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
