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
