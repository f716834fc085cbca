"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py run PARENT CHANGE --workload live_stream \
        --pairs 10 --seed-base 23201 --out pairs.jsonl
    python3 scripts/bench_pairs.py summary pairs.jsonl

``run`` reads ``command``, ``run_seconds`` and the end-to-end metrics
from ``BENCHMARK.json``, which must be the same in both checkouts, as
must every file under its ``paths``. Pair ``i`` runs the command with
``--workload W --seed SEED_BASE+i --seconds RUN_SECONDS --trace 0`` in
each checkout, the parent first in even pairs and the change first in
odd ones. Each run's last line of standard output (its JSON result) is
appended to ``--out`` as it finishes, after one header line, so an
interrupted run keeps every finished one. Then it prints the summary.

``summary`` prints, for each end-to-end metric, each side's median and
quartiles (``statistics.quantiles``, exclusive method), the change's
wins out of the pairs (ties count for neither side), the parent's
interquartile range (IQR), whether the change's median is worse than
the parent's by more than the metric's bound, and whether a gain may be
claimed: at least ten pairs, wins in at least nine tenths of them, and
a median gap in the better direction larger than the parent's IQR. A
metric whose parent IQR is wider than its bound, as a share of the
parent's median, is reported as unresolved against the bound, not as
within it or past it, unless every change run reads better than every
parent run. It also counts, per side, the runs that were not correct
and the failed operations out of those attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _benchmark_spec(parent: Path, change: Path) -> dict:
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if (parent / "BENCHMARK.json").read_bytes() != (
            change / "BENCHMARK.json").read_bytes():
        raise SystemExit("error: BENCHMARK.json differs between the checkouts")
    for top in spec["paths"]:
        names = {p.relative_to(side) for side in (parent, change)
                 for p in (side / top).rglob("*") if p.is_file()
                 and "__pycache__" not in p.parts}
        for name in sorted(names):
            a, b = parent / name, change / name
            if not (a.is_file() and b.is_file()
                    and a.read_bytes() == b.read_bytes()):
                raise SystemExit(
                    f"error: benchmark file {name} differs between the checkouts")
    return spec


def _run_once(checkout: Path, command, workload: str, seed: int,
              seconds) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()}"}
    try:
        return {"result": json.loads(proc.stdout.splitlines()[-1])}
    except (IndexError, json.JSONDecodeError):
        return {"error": f"no JSON result line: {proc.stdout.strip()!r}"}


def run_pairs(args) -> None:
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = _benchmark_spec(checkouts["parent"], checkouts["change"])
    seconds = spec["run_seconds"]
    with open(args.out, "w", encoding="utf-8") as out:
        header = {"record": "pairs", "workload": args.workload,
                  "seconds": seconds, "end_to_end": spec["end_to_end"],
                  **{side: str(path) for side, path in checkouts.items()}}
        out.write(json.dumps(header) + "\n")
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                line = {"record": "run", "pair": pair, "seed": seed,
                        "side": side, "first": position == 0,
                        **_run_once(checkouts[side], spec["command"],
                                    args.workload, seed, seconds)}
                out.write(json.dumps(line) + "\n")
                out.flush()
                print(f"pair {pair} seed {seed} {side}: "
                      f"{'error' if 'error' in line else 'done'}",
                      file=sys.stderr)


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.6g}"


def _spread(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{_fmt(median)} [{_fmt(q1)}, {_fmt(q3)}]"


def summarize(lines) -> list[str]:
    """The summary of a ``run`` output file's lines, one text line each."""
    records = [json.loads(line) for line in lines if line.strip()]
    header, runs = records[0], records[1:]
    by_pair = {}
    for r in runs:
        if "result" in r:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    seeds = sorted({r["seed"] for r in runs}) or ["none"]
    report = [f"{header['workload']}: {len(runs)} runs of "
              f"{header['seconds']} s, seeds {seeds[0]}-{seeds[-1]}, "
              f"{len(pairs)} complete pairs"]
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        results = [r["result"] for r in mine if "result" in r]
        bad = len(mine) - sum(r["correct"] for r in results)
        report.append(
            f"  {side}: {bad} of {len(mine)} runs not correct, "
            f"{sum(r['failed'] for r in results)} of "
            f"{sum(r['attempted'] for r in results)} operations failed")
    for metric in header["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        report.append(f"{name} ({metric['unit']}, {metric['better']} is "
                      "better):")
        if len(pairs) < 2:
            report.append("  too few complete pairs to summarize")
            continue
        for side in SIDES:
            report.append(f"  {side}: {_spread(values[side])}")
        parent, change = (statistics.median(values[s]) for s in SIDES)
        q1, _, q3 = statistics.quantiles(values["parent"], n=4)
        iqr = q3 - q1
        gain = (change - parent) if higher else (parent - change)
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        change_pct = (f"{(change - parent) / parent:+.1%}" if parent
                      else "n/a")
        report.append(f"  change {change_pct}, better in {wins}/{len(pairs)} "
                      f"pairs; parent IQR {_fmt(iqr)}, median gain "
                      f"{_fmt(gain)}")
        worse = -gain / parent if parent else 0.0
        spread = iqr / abs(parent) if parent else 0.0
        better_throughout = (
            min(values["change"]) > max(values["parent"]) if higher
            else max(values["change"]) < min(values["parent"]))
        if spread > metric["bound"] and not better_throughout:
            verdict = f"unresolved, parent IQR {spread:.1%} of its median"
        elif worse > metric["bound"]:
            verdict = f"worse by {worse:.1%}, past the bound"
        else:
            verdict = "within it"
        report.append(f"  bound {metric['bound']:.0%}: {verdict}")
        holds = len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and gain > iqr
        report.append("  gain rule (>= 10 pairs, >= 9/10 wins, median gain "
                      f"> parent IQR): {'holds' if holds else 'does not hold'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the pairs, then summarize")
    run.add_argument("parent", type=Path, help="checkout of the parent")
    run.add_argument("change", type=Path, help="checkout of the change")
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed-base", type=int, required=True)
    run.add_argument("--out", type=Path, required=True,
                     help="JSON Lines file for the raw result lines")
    summary = commands.add_parser("summary", help="summarize a run's file")
    summary.add_argument("raw", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        run_pairs(args)
    raw = args.out if args.command == "run" else args.raw
    print("\n".join(summarize(raw.read_text(encoding="utf-8").splitlines())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
