#!/usr/bin/env python3
"""oadeval benchmark: run one workload, check it, print one result line.

    python3 perfbench/run.py --workload evaluate_dense --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The toolkit is imported from ``src/`` of
the same checkout; without it the run exits with code 2 and no result.
Inputs are generated from ``--seed`` under ``.perfbench_work/`` and
removed afterwards; a traced run leaves its spans there as
``spans-<workload>.npz``.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` measures the first half of ``--seconds`` untraced and the
second half with every public function in ``tracer.PATCHES`` wrapped,
and prints the per-layer metrics, normalised per step of the traced
half. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import probe

ROOT = Path(__file__).resolve().parent.parent
SLICES = 10  # measured-loop slices, each preceded by timed set-ups


def _import_toolkit() -> bool:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import oadeval
    except ImportError as exc:
        print(f"cannot import oadeval from {src}: {exc}", file=sys.stderr)
        return False
    if not Path(oadeval.__file__).resolve().is_relative_to(src):
        print(f"oadeval resolved outside {src}", file=sys.stderr)
        return False
    return True


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ref_s(seconds: float, probe_seconds: float) -> float:
    """``seconds`` on the reference host, given the probe run right after."""
    return seconds * probe.REF_S / probe_seconds


def end_to_end(m, setup_ref_s) -> dict[str, float]:
    """The bounded metrics: each must hold steady on a shared host.

    Co-tenant load on a shared host slows stretches of a run, sometimes
    all of it, by up to 2x; raw medians then move by 15-50% from run to
    run. Every timed operation (a step, a set-up) is therefore followed
    by the probe loop and scaled to a reference host on which the probe
    takes ``probe.REF_S``: the probe shares the operation's slowdown but
    none of the program's code. Throughput is items per median scaled
    step time and ``setup_s`` the median scaled set-up time.
    """
    steps = [ref_s(t, p) for t, p in zip(m.step_s, m.probe_s, strict=True)]
    return {
        "items_per_ref_s": m.items_per_step / statistics.median(steps),
        "setup_s": statistics.median(setup_ref_s),
        "peak_rss_mb": _rss_mb(),
    }


def per_layer(recorder, traced, untraced) -> dict[str, float]:
    """Per-step span times, self times, call counts and layer counters.

    The ``e2e.`` entries describe the untraced half of the run in plain
    wall-clock terms: throughput at the 5th-percentile step and on
    average, median and tail step time with their sample count, the same
    for single ticks on ``live_stream``, and the probe time. They move
    with host load too much to carry a bound.
    """
    steps = len(traced.step_s)
    inclusive, self_s, calls = recorder.totals()
    values = {}
    for name in recorder.names:
        values[f"{name}.s"] = inclusive[name] / steps
        values[f"{name}.self_s"] = self_s[name] / steps
        values[f"{name}.calls"] = calls[name] / steps
    for key, total in recorder.counts.items():
        values[key] = total / steps
    plain = np.asarray(untraced.step_s)
    values["e2e.items_per_s_p5"] = (untraced.items_per_step
                                    / float(np.percentile(plain, 5)))
    values["e2e.items_per_s_mean"] = untraced.items_per_step * len(plain) / plain.sum()
    values["e2e.step_ms_p50"] = float(np.percentile(plain, 50)) * 1e3
    values["e2e.step_ms_p99"] = float(np.percentile(plain, 99)) * 1e3
    values["e2e.steps"] = len(plain)
    if len(untraced.tick_s):
        ticks = np.asarray(untraced.tick_s)
        values["e2e.live_tick_ms_p50"] = float(np.percentile(ticks, 50)) * 1e3
        values["e2e.live_tick_ms_p99"] = float(np.percentile(ticks, 99)) * 1e3
        values["e2e.live_ticks"] = len(ticks)
    for part, times in untraced.part_s.items():
        values[f"e2e.{part}_per_s"] = (untraced.items_per_step
                                       / float(np.median(times)))
    values["e2e.peak_rss_mb"] = _rss_mb()
    values["e2e.probe_ms_p50"] = float(np.median(untraced.probe_s)) * 1e3
    values["trace.steps"] = steps
    values["trace.overhead_ratio"] = (float(np.median(traced.step_s))
                                      / float(np.median(plain)))
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not _import_toolkit():
        return 2

    from tracer import SpanRecorder
    from workloads import WORKLOADS, Measurement

    base = ROOT / ".perfbench_work"
    workdir = base / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        workload.setup()  # warm-up: imports and lazy set-up, untimed
        workload.prepare_checks()
        if args.trace:
            gc.collect()
            untraced = workload.run(args.seconds / 2)
            recorder = SpanRecorder()
            recorder.install()
            try:
                traced = workload.run(args.seconds / 2, recorder)
            finally:
                recorder.uninstall()
            recorder.save(base / f"spans-{args.workload}.npz")
            runs = (untraced, traced)
            values = per_layer(recorder, traced, untraced)
            wanted = spec["per_layer"]
        else:
            # set-up is timed between slices of the measured loop, so its
            # median samples the same stretch of host load as the steps
            measured = Measurement()
            setup_ref_s = []
            for _ in range(SLICES):
                for _ in range(workload.SETUPS_PER_SLICE):
                    gc.collect()
                    t0 = perf_counter()
                    workload.setup()
                    elapsed = perf_counter() - t0
                    setup_ref_s.append(ref_s(elapsed, probe.probe_s()))
                gc.collect()
                measured.extend(workload.run(args.seconds / SLICES))
            runs = (measured,)
            values = end_to_end(measured, setup_ref_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for problem in r.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    # only a layer the workload declares bypassed may report 0
    missing = [m["name"] for m in wanted if not values.get(m["name"])
               and not m["name"].startswith(workload.BYPASSED)]
    for name in missing:
        print(f"check failed: metric {name} is 0 but its layer is not "
              "declared bypassed", file=sys.stderr)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
