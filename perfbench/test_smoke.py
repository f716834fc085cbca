"""Smoke tests for the benchmark: tiny inputs, correctness gate on.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced through the command
line, and the gate is shown to catch a deliberately wrong program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_gate(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", 3, "--seconds", 1,
                     "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_toolkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", 1,
                     "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _measure(name, tmp_path):
    import workloads

    workload = workloads.WORKLOADS[name](5, "tiny", tmp_path)
    workload.setup()
    workload.prepare_checks()
    return workload.run(0.01)


def test_gate_catches_wrong_evaluate_traces(tmp_path, monkeypatch):
    import oadeval.cli
    from oadeval.ia import evaluate_grids

    def off_by_one_slot(grid_pred, grid_gt, mode):
        trace = evaluate_grids(grid_pred, grid_gt, mode)
        return trace[:1] + trace[:-1]

    monkeypatch.setattr(oadeval.cli, "evaluate_grids", off_by_one_slot)
    assert _measure("evaluate_dense", tmp_path).failed > 0


def test_gate_catches_wrong_aggregate(tmp_path, monkeypatch):
    import oadeval.cli
    from oadeval.ia import maia

    monkeypatch.setattr(oadeval.cli, "maia",
                        lambda traces, delta_t_s: maia(traces, delta_t_s) + 1e-4)
    assert _measure("evaluate_dense", tmp_path).failed > 0


def test_gate_catches_wrong_streaming_state(tmp_path, monkeypatch):
    from oadeval.ia import MetricState, StreamingEvaluator

    original = StreamingEvaluator.consume

    def forgetful(self, predicted):
        point = original(self, predicted)
        if self.state.k_prime == 3:
            self.state = MetricState(*self.state[:1], 0, 0, *self.state[3:])
        return point

    monkeypatch.setattr(StreamingEvaluator, "consume", forgetful)
    assert _measure("live_stream", tmp_path).failed > 0


def test_gate_catches_wrong_ranking(tmp_path, monkeypatch):
    import oadeval.offline

    original = oadeval.offline.rasterize_frames

    def shifted(track, fps, vocab):
        labels = original(track, fps, vocab)
        return labels[1:] + labels[:1]

    monkeypatch.setattr(oadeval.offline, "rasterize_frames", shifted)
    assert _measure("offline_rank", tmp_path).failed > 0


def test_tracer_refuses_a_missing_patch_target(monkeypatch):
    import oadeval.cli
    from tracer import SpanRecorder

    original = oadeval.cli.discretize
    monkeypatch.delattr(oadeval.cli, "frame_cap")
    with pytest.raises(LookupError, match="oadeval.cli.frame_cap"):
        SpanRecorder().install()
    assert oadeval.cli.discretize is original


def test_zero_outside_the_bypass_list_fails_the_traced_run(monkeypatch, capsys):
    import run
    import workloads

    monkeypatch.setattr(workloads.EvaluateDense, "BYPASSED", ())
    assert run.main(["--workload", "evaluate_dense", "--seed", "3", "--seconds",
                     "1", "--trace", "1", "--scale", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0
