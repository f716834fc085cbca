#!/usr/bin/env python3
"""Record what a fixed catalogue of ``oadeval`` commands prints and writes.

Each command runs in-process through ``oadeval.cli.main``, from inside
``OUT_DIR`` and on relative paths, so no message holds the location of
the tree. ``OUT_DIR/inputs`` holds what the commands read: the fixtures
of ``tests/data``, a seeded synthetic corpus, and a corpus of corrupt
records (a slotless video among them). Each command then gets a folder
``OUT_DIR/NN-name`` with its ``exit`` code, ``stdout``, ``stderr`` and,
under ``out/``, the files it wrote. Two versions of the package compare
by snapshotting each and diffing the trees::

    PYTHONPATH=src python3 scripts/cli_snapshot.py /tmp/snap-new
    PYTHONPATH=../old/src python3 scripts/cli_snapshot.py /tmp/snap-old
    diff -r /tmp/snap-old /tmp/snap-new
"""

import argparse
import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

from oadeval.cli import main as oadeval_main
from oadeval.formats import write_canonical_gt
from oadeval.synthetic import synthetic_corpus

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

CORRUPT_GT = """\
{"record": "vocabulary", "classes": ["jump", "run"], "background": "background"}
{"record": "video", "video_id": "good", "duration_s": 4.0, "intervals": [{"label": "jump", "start_s": 1.0, "end_s": 2.0}]}
{"record": "video", "video_id": "label", "duration_s": 3.0, "intervals": []}
{"record": "video", "video_id": "missing", "duration_s": 2.0, "intervals": []}
{"record": "video", "video_id": "overrun", "duration_s": 3.0, "intervals": []}
{"record": "video", "video_id": "short", "duration_s": 3.0, "intervals": []}
{"record": "video", "video_id": "tiny", "duration_s": 0.3, "intervals": []}
{"record": "video", "video_id": "tiny-events", "duration_s": 0.3, "intervals": []}
"""
CORRUPT_PRED = """\
{"record": "decisions", "video_id": "good", "delta_t_s": 0.5, "labels": ["background", "background", "jump", "jump", "background", "run", "background", "background"]}
{"record": "decisions", "video_id": "label", "delta_t_s": 0.5, "labels": ["jump", "walk", "run", "run", "run", "run"]}
{"record": "detections", "video_id": "overrun", "events": [{"label": "run", "start_s": 1.0, "end_s": 4.0}]}
{"record": "decisions", "video_id": "short", "delta_t_s": 0.5, "labels": ["run", "run", "run", "run", "run"]}
{"record": "decisions", "video_id": "tiny", "delta_t_s": 0.5, "labels": []}
{"record": "detections", "video_id": "tiny-events", "events": []}
{"record": "decisions", "video_id": "ghost", "delta_t_s": 0.5, "labels": ["run"]}
{"record": "decisions", "video_id": "short", "delta_t_s": 0.5, "labels": ["run"]}
"""
THUMOS_FILES = {
    "Jump_val_test.txt": "v1 1.0 2.0\n",
    "Jump_test_val.txt": "v1 2.5 3.0\nv2 0.0 1.5\n",
    "Run_val.txt": "v2 2.0 4.0\n",
}
THUMOS_DURATIONS = "v1 5.0\nv2 4.0\n"
THUMOS_PAST_END = {"Jump_test.txt": "v1 1.0 2.0\nv1 3.0 9.0\n"}

GT = {"worked": "inputs/worked.gt.jsonl", "synthetic": "inputs/synthetic.gt.jsonl",
      "corrupt": "inputs/corrupt.gt.jsonl"}


def write_inputs(inputs: Path) -> None:
    inputs.mkdir()
    shutil.copy(DATA / "worked_example.gt.jsonl", inputs / "worked.gt.jsonl")
    shutil.copy(DATA / "worked_example.pred.jsonl", inputs / "worked.pred.jsonl")
    shutil.copy(DATA / "activitynet_fixture.json", inputs / "activitynet.json")
    shutil.copytree(DATA / "thumos_fixture", inputs / "thumos")
    write_canonical_gt(synthetic_corpus(seed=2025, n_videos=6),
                       inputs / "synthetic.gt.jsonl")
    (inputs / "corrupt.gt.jsonl").write_text(CORRUPT_GT)
    (inputs / "corrupt.pred.jsonl").write_text(CORRUPT_PRED)
    for name, files in (("thumos-suffixes", THUMOS_FILES),
                        ("thumos-past-end", THUMOS_PAST_END)):
        (inputs / name).mkdir()
        for file_name, text in files.items():
            (inputs / name / file_name).write_text(text)
    (inputs / "thumos-durations.txt").write_text(THUMOS_DURATIONS)


def folder(n: int, name: str) -> str:
    return f"{n:02d}-{name}"


def catalogue():
    """``(name, argv)`` per command, in order; ``{out}`` stands for the
    command's own ``out`` folder."""
    commands = []
    for mode in ("class-aware", "binary"):
        commands.append((f"evaluate-worked-{mode}", [
            "evaluate", "--gt", GT["worked"], "--pred", "inputs/worked.pred.jsonl",
            "--mode", mode, "--out-dir", "{out}"]))
    commands.append(("evaluate-worked-quarter-slots", [
        "evaluate", "--gt", GT["worked"], "--pred", "inputs/worked.pred.jsonl",
        "--delta-t", "0.25", "--out-dir", "{out}"]))
    for corpus in ("worked", "synthetic"):
        for kind, fps in (("pm", None), ("pm", "2.0"), ("all-bg", "4.0")):
            flags = [] if fps is None else ["--fps", fps]
            tag = f"{corpus}-{kind}-{fps or 'slots'}"
            commands.append((f"baseline-{tag}", [
                "baseline", "--gt", GT[corpus], "--kind", kind, "--seed", "3",
                *flags, "--out", "{out}/pred.jsonl"]))
            pred = f"{folder(len(commands), commands[-1][0])}/out/pred.jsonl"
            commands.append((f"evaluate-{tag}", [
                "evaluate", "--gt", GT[corpus], "--pred", pred,
                "--out-dir", "{out}"]))
            for metric in ("map", "cap"):
                commands.append((f"offline-{metric}-{tag}", [
                    "offline", "--gt", GT[corpus], "--pred", pred,
                    "--metric", metric, "--out-dir", "{out}"]))
    commands += [
        ("convert-thumos", [
            "convert", "--format", "thumos", "--in", "inputs/thumos",
            "--durations", "inputs/thumos/durations.txt",
            "--out", "{out}/gt.jsonl"]),
        ("convert-activitynet", [
            "convert", "--format", "activitynet", "--in",
            "inputs/activitynet.json", "--out", "{out}/gt.jsonl"]),
        ("convert-thumos-suffixes", [
            "convert", "--format", "thumos", "--in", "inputs/thumos-suffixes",
            "--durations", "inputs/thumos-durations.txt",
            "--out", "{out}/gt.jsonl"]),
        ("convert-thumos-past-end", [
            "convert", "--format", "thumos", "--in", "inputs/thumos-past-end",
            "--durations", "inputs/thumos-durations.txt",
            "--out", "{out}/gt.jsonl"]),
        ("evaluate-corrupt", [
            "evaluate", "--gt", GT["corrupt"], "--pred",
            "inputs/corrupt.pred.jsonl", "--out-dir", "{out}"]),
        ("baseline-corrupt-pm", [
            "baseline", "--gt", GT["corrupt"], "--kind", "pm",
            "--out", "{out}/pred.jsonl"]),
        ("baseline-corrupt-all-bg-4.0", [
            "baseline", "--gt", GT["corrupt"], "--kind", "all-bg", "--fps",
            "4.0", "--out", "{out}/pred.jsonl"]),
        ("evaluate-bad-delta-t", [
            "evaluate", "--gt", GT["worked"], "--pred", "inputs/worked.pred.jsonl",
            "--delta-t", "nan", "--out-dir", "{out}"]),
    ]
    return commands


def run(argv):
    """Exit code, stdout and stderr of one in-process command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = oadeval_main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", metavar="OUT_DIR",
                        help="empty or new folder for the snapshot")
    args = parser.parse_args()
    root = Path(args.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        sys.exit(f"{root} is not empty")
    os.chdir(root)
    write_inputs(Path("inputs"))
    commands = catalogue()
    for n, (name, argv) in enumerate(commands, start=1):
        here = Path(folder(n, name))
        (here / "out").mkdir(parents=True)
        argv = [a.replace("{out}", f"{here}/out") for a in argv]
        code, out, err = run(argv)
        (here / "argv").write_text(" ".join(argv) + "\n")
        (here / "exit").write_text(f"{code}\n")
        (here / "stdout").write_text(out, encoding="utf-8")
        (here / "stderr").write_text(err, encoding="utf-8")
    print(f"ran {len(commands)} commands into {root}")


if __name__ == "__main__":
    main()
