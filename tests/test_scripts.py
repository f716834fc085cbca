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
