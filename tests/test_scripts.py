"""The README's scripts run end to end at a small size."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60)


def test_make_synthetic_corpus(tmp_path):
    out = tmp_path / "gt.jsonl"
    proc = run_script("make_synthetic_corpus.py", "--n-videos", 2, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "wrote 2 videos" in proc.stdout
    assert out.exists()


def test_metric_comparison_pm_saturates_maia(tmp_path):
    proc = run_script("metric_comparison.py", "--n-videos", 2,
                      "--out-dir", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    table = json.loads((tmp_path / "metric_comparison.json").read_text())
    assert table["PM"]["maIA"] == 1.0
    assert table["PM"]["weighted maIA"] == 1.0
    assert table["PM"]["mAP"] < 1.0


# nine lines hold code: the import, the def, the four lines of the two
# statements that span lines, the return, the class and its assignment
CODE_SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # and a trailing one


def f(x):
    """A function docstring."""
    y = (x +
         1)
    s = """a string that is
not a docstring"""
    return y, s


class C:
    "a class docstring"

    z = 1
'''


def test_code_lines_counts_only_lines_that_hold_code(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(CODE_SAMPLE)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "b.py").write_text("x = 1\n\n\n# done\n")
    (package / "a.py").write_text('"""Only a docstring."""\n')
    proc = run_script("code_lines.py", sample, package)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"     9 {sample}",
        f"     0 {package / 'a.py'}",
        f"     1 {package / 'b.py'}",
        "    10 total",
    ]


def snapshot_files(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_cli_snapshot_is_the_same_twice(tmp_path):
    a, b = tmp_path / "a", tmp_path / "nested" / "b"
    for out in (a, b):
        proc = run_script("cli_snapshot.py", out)
        assert proc.returncode == 0, proc.stderr
    files = snapshot_files(a)
    assert files == snapshot_files(b)
    # every command leaves its exit code and output, the slotless video too
    assert files[Path("01-evaluate-worked-class-aware/exit")] == b"0\n"
    assert files[Path("33-baseline-corrupt-pm/stderr")] == (
        b"error: video 'tiny': delta_t 0.5 larger than duration 0.3: zero "
        b"slots at --delta-t 0.5\n")
    assert run_script("cli_snapshot.py", a).returncode != 0  # not empty


E2E = [{"name": "items_per_ref_s", "unit": "1/ref_s", "better": "higher",
        "bound": 0.25},
       {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def bench_result(items, setup, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"items_per_ref_s": {"value": items, "unit": "1/ref_s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_bench_pairs_summary_of_fixed_result_lines(tmp_path):
    # the change wins pairs 0-8 on throughput and loses pair 9; its set-up
    # is 30% slower in every pair; pair 10 lacks a parent result
    lines = [{"record": "pairs", "workload": "w", "seconds": 30,
              "end_to_end": E2E, "parent": "p", "change": "c"}]
    for pair in range(10):
        for side, items, setup in (("parent", 100 + pair, 1.0),
                                   ("change", 120 + pair if pair < 9 else 100,
                                    1.3)):
            lines.append({"record": "run", "pair": pair, "seed": 7 + pair,
                          "side": side, "first": side == "parent",
                          "result": bench_result(
                              items, setup, correct=pair != 3
                              or side == "parent",
                              failed=2 * (pair == 3 and side == "change"))})
    lines.append({"record": "run", "pair": 10, "seed": 17, "side": "parent",
                  "first": True, "error": "exit 2: cannot import oadeval"})
    lines.append({"record": "run", "pair": 10, "seed": 17, "side": "change",
                  "first": False, "result": bench_result(130, 1.3)})
    raw = tmp_path / "pairs.jsonl"
    raw.write_text("".join(json.dumps(line) + "\n" for line in lines))
    proc = run_script("bench_pairs.py", "summary", raw)
    assert proc.returncode == 0, proc.stderr
    # exclusive quartiles of 100..109 are 101.75 and 107.25: IQR 5.5
    assert proc.stdout.splitlines() == [
        "w: 22 runs of 30 s, seeds 7-17, 10 complete pairs",
        "  parent: 1 of 11 runs not correct, 0 of 1000 operations failed",
        "  change: 1 of 11 runs not correct, 2 of 1100 operations failed",
        "items_per_ref_s (1/ref_s, higher is better):",
        "  parent: 104.5 [101.75, 107.25]",
        "  change: 123.5 [120.75, 126.25]",
        "  change +18.2%, better in 9/10 pairs; parent IQR 5.5, "
        "median gain 19",
        "  bound 25%: within it",
        "  gain rule (>= 10 pairs, >= 9/10 wins, median gain > parent IQR): "
        "holds",
        "setup_s (s, lower is better):",
        "  parent: 1 [1, 1]",
        "  change: 1.3 [1.3, 1.3]",
        "  change +30.0%, better in 0/10 pairs; parent IQR 0, "
        "median gain -0.3",
        "  bound 25%: worse by 30.0%, past the bound",
        "  gain rule (>= 10 pairs, >= 9/10 wins, median gain > parent IQR): "
        "does not hold",
    ]


# the same stub in both checkouts: it logs each call and reports the
# throughput in its checkout's VALUE file
STUB_RUN = '''import json, sys
from pathlib import Path
with open(sys.argv[1], "a") as log:
    log.write(json.dumps([Path.cwd().name, sys.argv[2:]]) + "\\n")
value = float(Path("VALUE").read_text())
print("a line before the result")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "items_per_ref_s": {"value": value, "unit": "1/ref_s"},
    "setup_s": {"value": 1.0, "unit": "s"}}}))
'''


def stub_checkout(root, value, log):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "VALUE").write_text(str(value))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py", str(log)],
        "paths": ["perfbench"], "run_seconds": 2, "end_to_end": E2E}))
    return root


def test_bench_pairs_alternates_sides_on_stub_checkouts(tmp_path):
    log = tmp_path / "calls.log"
    parent = stub_checkout(tmp_path / "parent", 100, log)
    change = stub_checkout(tmp_path / "change", 110, log)
    raw = tmp_path / "pairs.jsonl"
    proc = run_script("bench_pairs.py", "run", parent, change, "--workload",
                      "w", "--pairs", 3, "--seed-base", 40, "--out", raw)
    assert proc.returncode == 0, proc.stderr
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [side for side, _ in calls] == ["parent", "change", "change",
                                           "parent", "parent", "change"]
    assert calls[2][1] == ["--workload", "w", "--seed", "41", "--seconds",
                           "2", "--trace", "0"]
    runs = [json.loads(line) for line in raw.read_text().splitlines()][1:]
    assert [(r["pair"], r["seed"], r["side"], r["first"]) for r in runs] == [
        (0, 40, "parent", True), (0, 40, "change", False),
        (1, 41, "change", True), (1, 41, "parent", False),
        (2, 42, "parent", True), (2, 42, "change", False)]
    assert runs[0]["result"]["metrics"]["items_per_ref_s"]["value"] == 100
    assert "  change +10.0%, better in 3/3 pairs; parent IQR 0, " \
        "median gain 10" in proc.stdout.splitlines()
    assert "does not hold" in proc.stdout  # fewer than ten pairs


def test_bench_pairs_refuses_checkouts_with_different_benchmarks(tmp_path):
    log = tmp_path / "calls.log"
    parent = stub_checkout(tmp_path / "parent", 100, log)
    change = stub_checkout(tmp_path / "change", 110, log)
    (change / "perfbench" / "extra.py").write_text("")
    proc = run_script("bench_pairs.py", "run", parent, change, "--workload",
                      "w", "--pairs", 1, "--seed-base", 1, "--out",
                      tmp_path / "pairs.jsonl")
    assert proc.returncode == 1
    assert proc.stderr == ("error: benchmark file perfbench/extra.py differs "
                           "between the checkouts\n")
    assert not log.exists()
