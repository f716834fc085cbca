#!/usr/bin/env python3
"""Compare every metric on the analytic baselines over a synthetic corpus.

Reproduces, at desk scale, the structural story behind the streaming
protocol: the Perfect Model saturates maIA under both weightings while
the ranking metrics stay well below their maximum, and All-Background
collapses once the dynamic weighting kicks in.

Usage::

    python3 scripts/metric_comparison.py [--seed 2025] [--pm-seed 0]
        [--n-videos 20] [--delta-t 0.5] [--fps 2.0] [--out-dir DIR]
"""

import argparse
import json
from pathlib import Path

from oadeval.baselines import all_bg, perfect_model
from oadeval.ia import evaluate_grids, maia
from oadeval.offline import frame_cap, frame_map
from oadeval.synthetic import synthetic_corpus
from oadeval.timeline import discretize


def corpus_metrics(manifest, baseline, delta_t, **kwargs):
    ia_traces, wia_traces, matrices = [], [], []
    for track in manifest.tracks:
        gt = discretize(track.columns, track.duration_s, delta_t,
                        manifest.vocabulary)
        stream, matrix = baseline(track, delta_t, manifest.vocabulary, **kwargs)
        rows = evaluate_grids(stream.as_grid(), gt).rows
        ia_traces.append((track.duration_s, rows[:, 1].tolist()))
        wia_traces.append((track.duration_s, rows[:, 2].tolist()))
        matrices.append(matrix)
    tracks = list(manifest.tracks)
    return {
        "mAP": frame_map(matrices, tracks, manifest.vocabulary).mean,
        "cAP": frame_cap(matrices, tracks, manifest.vocabulary).mean,
        "maIA": maia(ia_traces, delta_t),
        "weighted maIA": maia(wia_traces, delta_t),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2025,
                        help="corpus generator seed")
    parser.add_argument("--pm-seed", type=int, default=0,
                        help="perfect-model score seed")
    parser.add_argument("--n-videos", type=int, default=20)
    parser.add_argument("--delta-t", type=float, default=0.5)
    parser.add_argument("--fps", type=float, default=2.0)
    parser.add_argument("--out-dir", default=None,
                        help="also dump the table as JSON here")
    args = parser.parse_args()

    manifest = synthetic_corpus(seed=args.seed, n_videos=args.n_videos)
    results = {
        "All-BG": corpus_metrics(manifest, all_bg, args.delta_t, fps=args.fps),
        "PM": corpus_metrics(manifest, perfect_model, args.delta_t,
                             seed=args.pm_seed, fps=args.fps),
    }

    print(f"synthetic corpus: {args.n_videos} videos, seed {args.seed}, "
          f"delta_t {args.delta_t}s, fps {args.fps}")
    header = f"{'metric':<18}" + "".join(f"{name:>10}" for name in results)
    print(header)
    print("-" * len(header))
    for metric in ("mAP", "cAP", "maIA", "weighted maIA"):
        row = f"{metric + ' (%)':<18}"
        row += "".join(f"{100 * results[name][metric]:>10.1f}"
                       for name in results)
        print(row)

    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {name: {k: round(v, 6) for k, v in vals.items()}
                   for name, vals in results.items()}
        (out_dir / "metric_comparison.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"\nwrote {out_dir / 'metric_comparison.json'}")


if __name__ == "__main__":
    main()
