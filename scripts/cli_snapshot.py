#!/usr/bin/env python3
"""Record what a fixed catalogue of ``oadeval`` commands prints and writes.

Each command runs in-process through ``oadeval.cli.main``, from inside
``OUT_DIR`` and on relative paths, so no message holds the location of
the tree. ``OUT_DIR/inputs`` holds what the commands read: the fixtures
of ``tests/data``, a seeded synthetic corpus, a corpus of corrupt
records (a slotless video among them), a video shorter than one frame,
and one video per interval fault: each fault is read once as detection
events and once as ground truth, in a file of its own, since the first
fault fails a whole ground-truth load. A list with two intervals past
the video's end is read both ways too, and so are a Thumos class file
whose name leaves an empty class and an ActivityNet file that repeats a
video id. Each command then gets a folder
``OUT_DIR/NN-name`` with its ``exit`` code, ``stdout``, ``stderr`` and,
under ``out/``, the files it wrote. The last commands come in pairs
whose second command (``rerun-...``) writes over the longer outputs of
the first, in the first one's ``out/``, so the snapshot also holds files
rewritten in place. Two ``offline`` commands with a bad ``--fps``
follow, one of them on a missing prediction file. Then ``offline
--metric map`` and ``cap`` rank score records whose cells are ints, ints
past int64, or floats on a line that holds a ``"true"`` (a video id), and
``offline --metric map`` refuses a record with a ``true`` cell. Then
comes the benchmark's score round trip on a video longer than one block
of the score writer (``formats._BLOCK_ROWS`` frames): ``baseline --kind
pm`` and ``--kind all-bg`` at ``--fps 4.0``, then ``offline --metric
map`` and ``cap`` on the Perfect-Model file. Last, ``convert`` writes
labels and video ids that need JSON escapes (a quote, a backslash,
non-ASCII letters), from ActivityNet and from Thumos, and each kind of
record, and an interval or event entry, repeats a key once in a file of
its own; a file whose ids and labels hold colons repeats none. Then
``convert`` reads an ActivityNet file that gives every warning kind, in
three subsets: in one, starts are clamped to 0, ends to the duration,
segments left empty are dropped and videos without a valid duration
skipped, several to a video; in another, the only video is skipped and
no video is found; the third holds no video at all. Two
versions of the package
compare by snapshotting each and diffing the trees::

    PYTHONPATH=src python3 scripts/cli_snapshot.py /tmp/snap-new
    PYTHONPATH=../old/src python3 scripts/cli_snapshot.py /tmp/snap-old
    diff -r /tmp/snap-old /tmp/snap-new
"""

import argparse
import contextlib
import io
import json
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
# One video per interval fault: its entries (JSON text), which the
# ground truth of that name holds and which the detections record of the
# video of that name carries. Each list holds a valid entry as well.
VALID_ENTRY = '{"label": "jump", "start_s": 0.5, "end_s": 1.0}'
INTERVAL_FAULTS = {
    "negative-start": '{"label": "jump", "start_s": -1.0, "end_s": 1.0}',
    "zero-length": '{"label": "jump", "start_s": 2.0, "end_s": 2.0000004}',
    "start-2-53-us": '{"label": "jump", "start_s": 9007199254.740992, '
                     '"end_s": 9007199255.740992}',
    "huge-integer": '{"label": "jump", "start_s": 1.0, "end_s": 1' + "0" * 400 + "}",
    "unknown-label": '{"label": "walk", "start_s": 2.0, "end_s": 3.0}',
    "background-label": '{"label": "background", "start_s": 2.0, "end_s": 3.0}',
    "past-the-end": '{"label": "run", "start_s": 3.0, "end_s": 5.0}',
    "overlap": '{"label": "run", "start_s": 0.75, "end_s": 3.0}',
    "empty-label": '{"label": "", "start_s": 2.0, "end_s": 3.0}',
    "infinite-end": '{"label": "jump", "start_s": 2.0, "end_s": Infinity}',
    "nan-start": '{"label": "jump", "start_s": NaN, "end_s": 3.0}',
    "product-overflow": '{"label": "jump", "start_s": 2.0, "end_s": 1e305}',
    "past-int64": '{"label": "jump", "start_s": 2.0, "end_s": 1e13}',
}
VOCAB_LINE = ('{"record": "vocabulary", "classes": ["jump", "run"], '
              '"background": "background"}\n')


def video_line(video_id: str, entries: str, multi_label="false",
               duration="4.0") -> str:
    return (f'{{"record": "video", "video_id": "{video_id}", "duration_s": '
            f'{duration}, "intervals": [{entries}], "multi_label": '
            f'{multi_label}}}\n')


# the videos of every fault, without intervals, then tracks whose
# intervals overlap, unsorted, with tied starts and one past 2**53 us
FAULT_GT = VOCAB_LINE + "".join(
    video_line(name, "") for name in INTERVAL_FAULTS) + "".join([
        video_line("multi", '{"label": "run", "start_s": 2.0, "end_s": 3.5}, '
                   '{"label": "jump", "start_s": 0.25, "end_s": 2.75}, '
                   '{"label": "jump", "start_s": 2.0, "end_s": 2.5}, '
                   '{"label": "run", "start_s": 0.25, "end_s": 0.5}', "true"),
        video_line("nested", '{"label": "run", "start_s": 0.0, "end_s": 4.0}, '
                   '{"label": "jump", "start_s": 1.2, "end_s": 1.9}', "true",
                   "4.3")])
FAULT_PRED = "".join(
    f'{{"record": "detections", "video_id": "{name}", "events": '
    f'[{VALID_ENTRY}, {entry}]}}\n' for name, entry in INTERVAL_FAULTS.items())
FRAMELESS_GT = VOCAB_LINE + video_line("v0", VALID_ENTRY) + video_line(
    "v1", "", duration="0.7")
# one 0.013 s slot, but 0.013 * (1 / 0.013) < 1: pm's one frame per slot
# leaves it without a frame
FRAMELESS_SLOT_GT = FRAMELESS_GT.replace('"duration_s": 0.7', '"duration_s": 0.013')
THUMOS_FILES = {
    "Jump_val_test.txt": "v1 1.0 2.0\n",
    "Jump_test_val.txt": "v1 2.5 3.0\nv2 0.0 1.5\n",
    "Run_val.txt": "v2 2.0 4.0\n",
}
THUMOS_DURATIONS = "v1 5.0\nv2 4.0\n"
THUMOS_PAST_END = {"Jump_test.txt": "v1 1.0 2.0\nv1 3.0 9.0\n"}
# a class file name that leaves an empty class, with rows and without
THUMOS_EMPTY_CLASS = {"Jump_test.txt": "v1 1.0 2.0\n",
                      "_test.txt": "v1 2.5 3.0\n"}
THUMOS_EMPTY_CLASS_NO_ROWS = {"Jump_test.txt": "v1 1.0 2.0\n", "_val.txt": ""}
# two intervals past the 4 s end, the later-starting one first: read as
# ground truth and as detection events
TWO_PAST_END = ('{"label": "run", "start_s": 3.0, "end_s": 5.0}, '
                '{"label": "jump", "start_s": 1.0, "end_s": 4.5}')
# every warning load_activitynet_gt gives: per segment, in videos that
# hold several, and per video, in the "validation" subset; a "training"
# subset whose one video is skipped, so no video is found; and no
# "testing" subset at all
ACTIVITYNET_WARNINGS = {"database": {
    "b-clamped": {"subset": "validation", "duration": 6.0, "annotations": [
        {"label": "jump", "segment": [4.0, 7.5]},
        {"label": "run", "segment": [-0.5, 2.0]},
        {"label": "jump", "segment": [-2.0, -1.0]},
        {"label": "run", "segment": [6.5, 8.0]},
        {"label": "run", "segment": [2.0, 2.0000004]},
        {"label": "jump", "segment": [1.0, 3.0]}]},
    "a-no-duration": {"subset": "validation", "annotations": [
        {"label": "jump", "segment": [1.0, 2.0]}]},
    "c-zero-duration": {"subset": "validation", "duration": 0.0},
    "d-string-duration": {"subset": "validation", "duration": "5.0"},
    "e-past-int64": {"subset": "validation", "duration": 1e13},
    "f-dropped-only": {"subset": "validation", "duration": 3.0,
                       "annotations": [{"label": "run",
                                        "segment": [3.5, 4.0]}]},
    "g-training": {"subset": "training", "duration": -1.0}}}
ACTIVITYNET_REPEATED_ID = (
    '{"database": {"a": {"subset": "validation", "duration": 5.0, '
    '"annotations": [{"label": "x", "segment": [1.0, 2.0]}]}, '
    '"a": {"subset": "validation", "duration": 5.0}}}')

# score records that take the per-cell checks or integer cells: a video
# id holding "true", int cells, and ints past int64 and uint64
INT_SCORES_GT = VOCAB_LINE + "".join([
    video_line("true-story", VALID_ENTRY, duration="2.0"),
    video_line("ints", '{"label": "run", "start_s": 0.0, "end_s": 1.0}',
               duration="2.0"),
    video_line("wide-ints", '{"label": "jump", "start_s": 1.0, "end_s": 2.0}, '
               '{"label": "run", "start_s": 0.0, "end_s": 0.5}', "true",
               "2.0")])
INT_SCORES = {
    "true-story": "[[0.1, 0.9], [0.8, 0.2], [0.7, 0.3], [0.4, 0.6]]",
    "ints": "[[0, 3], [1, 2], [2, 1], [3, 0]]",
    "wide-ints": f"[[{2 ** 64}, 0], [{2 ** 63}, 1], [{-2 ** 63 - 1}, 2], "
                 f"[0, {2 ** 64 - 1}]]",
}
INT_SCORES_PRED = "".join(
    f'{{"record": "scores", "video_id": "{video_id}", "fps": 2.0, '
    f'"scores": {rows}}}\n' for video_id, rows in INT_SCORES.items())
BOOL_CELL_PRED = INT_SCORES_PRED.replace("[1, 2]", "[1, true]")

# labels and video ids that need JSON escapes, in each convert format
ACTIVITYNET_ESCAPES = {"database": {
    'v"\u00e9\\1': {"subset": "validation", "duration": 5.0, "annotations": [
        {"label": 'saut "haut" \\ \u00e9', "segment": [1.0, 2.0]},
        {"label": "\u65e5\u672c", "segment": [2.5, 4.0]}]},
    "v\u2028\t2": {"subset": "validation", "duration": 3.0, "annotations": [
        {"label": "\u65e5\u672c", "segment": [0.5, 1.0]}]}}}
THUMOS_ESCAPES = {"Saut\u00e9_test.txt": 'v"1 1.0 2.0\nv\\2 0.5 1.5\n',
                  'Say "hi"_val.txt': "v\u00e93 0.0 1.0\n",
                  "Back\\slash_val.txt": 'v"1 3.0 4.0\n',
                  "durations.txt": 'v"1 5.0\nv\\2 4.0\nv\u00e93 2.0\n'}
# a key given twice in one object of each kind of record, in the ground
# truth or in the predictions for it; json alone would keep the second
REPEATED_GT = VOCAB_LINE + video_line("v", VALID_ENTRY)
REPEATED_DECISIONS = ('{"record": "decisions", "video_id": "v", "delta_t_s": '
                      '0.5, "labels": ["background", "jump", "background", '
                      '"background", "background", "background", '
                      '"background", "background"]}\n')
REPEATED_SCORES = ('{"record": "scores", "video_id": "v", "fps": 1.0, '
                   '"scores": [[0.25, 0.75], [0.5, 0.5], [1.0, 0.0], '
                   '[0.0, 1.0]]}\n')
REPEATED_KEYS = {
    # name: (ground truth, predictions), each a file's text
    "vocabulary": (REPEATED_GT.replace('"background"}', '"background", '
                                       '"classes": ["jump", "run"]}'),
                   REPEATED_DECISIONS),
    "video": (REPEATED_GT.replace(', "multi_label"',
                                  ', "intervals": [], "multi_label"'),
              REPEATED_DECISIONS),
    "interval": (REPEATED_GT.replace('"end_s": 1.0}',
                                     '"end_s": 1.0, "end_s": 3.0}'),
                 REPEATED_DECISIONS),
    "decisions": (REPEATED_GT, REPEATED_DECISIONS.replace(
        '"video_id": "v"', '"video_id": "v", "video_id": "v"')),
    "detections": (REPEATED_GT, '{"record": "detections", "video_id": "v", '
                   f'"events": [{VALID_ENTRY}], "events": []}}\n'),
    "event": (REPEATED_GT, '{"record": "detections", "video_id": "v", '
              '"events": [{"label": "jump", "start_s": 0.5, "start_s": 0.0, '
              '"end_s": 1.0}]}\n'),
    "scores": (REPEATED_GT, REPEATED_SCORES.replace(
        '"fps": 1.0', '"fps": 1.0, "fps": 1.0')),
    # colons in ids and labels only: no key repeats
    "none-colons": (REPEATED_GT.replace('"v"', '"v:1"').replace(
        '"jump"', '"jump:high"'), REPEATED_DECISIONS.replace(
        '"v"', '"v:1"').replace('"jump"', '"jump:high"')),
}

GT = {"worked": "inputs/worked.gt.jsonl", "synthetic": "inputs/synthetic.gt.jsonl",
      "corrupt": "inputs/corrupt.gt.jsonl", "long": "inputs/long.gt.jsonl"}


def write_inputs(inputs: Path) -> None:
    inputs.mkdir()
    shutil.copy(DATA / "worked_example.gt.jsonl", inputs / "worked.gt.jsonl")
    shutil.copy(DATA / "worked_example.pred.jsonl", inputs / "worked.pred.jsonl")
    shutil.copy(DATA / "activitynet_fixture.json", inputs / "activitynet.json")
    shutil.copytree(DATA / "thumos_fixture", inputs / "thumos")
    write_canonical_gt(synthetic_corpus(seed=2025, n_videos=6),
                       inputs / "synthetic.gt.jsonl")
    # one video of more than 4,096 frames at 4 fps
    write_canonical_gt(synthetic_corpus(seed=2026, n_videos=1,
                                        duration_range=(1030.0, 1040.0)),
                       inputs / "long.gt.jsonl")
    (inputs / "corrupt.gt.jsonl").write_text(CORRUPT_GT)
    (inputs / "corrupt.pred.jsonl").write_text(CORRUPT_PRED)
    for name, files in (("thumos-suffixes", THUMOS_FILES),
                        ("thumos-past-end", THUMOS_PAST_END),
                        ("thumos-empty-class", THUMOS_EMPTY_CLASS),
                        ("thumos-empty-class-no-rows",
                         THUMOS_EMPTY_CLASS_NO_ROWS)):
        (inputs / name).mkdir()
        for file_name, text in files.items():
            (inputs / name / file_name).write_text(text)
    (inputs / "thumos-durations.txt").write_text(THUMOS_DURATIONS)
    (inputs / "faults.gt.jsonl").write_text(FAULT_GT)
    (inputs / "faults.pred.jsonl").write_text(FAULT_PRED)
    (inputs / "frameless.gt.jsonl").write_text(FRAMELESS_GT)
    (inputs / "frameless-slot.gt.jsonl").write_text(FRAMELESS_SLOT_GT)
    for name, entry in INTERVAL_FAULTS.items():
        (inputs / f"fault-{name}.gt.jsonl").write_text(
            VOCAB_LINE + video_line(name, f"{VALID_ENTRY}, {entry}"))
    (inputs / "two-past-end.gt.jsonl").write_text(
        VOCAB_LINE + video_line("two-past-end", TWO_PAST_END, "true"))
    (inputs / "two-past-end-events.gt.jsonl").write_text(
        VOCAB_LINE + video_line("two-past-end", ""))
    (inputs / "two-past-end.pred.jsonl").write_text(
        '{"record": "detections", "video_id": "two-past-end", "events": '
        f'[{TWO_PAST_END}]}}\n')
    (inputs / "activitynet-repeated-id.json").write_text(
        ACTIVITYNET_REPEATED_ID)
    (inputs / "int-scores.gt.jsonl").write_text(INT_SCORES_GT)
    (inputs / "int-scores.pred.jsonl").write_text(INT_SCORES_PRED)
    (inputs / "bool-cell.pred.jsonl").write_text(BOOL_CELL_PRED)
    (inputs / "activitynet-escapes.json").write_text(
        json.dumps(ACTIVITYNET_ESCAPES))
    (inputs / "activitynet-warnings.json").write_text(
        json.dumps(ACTIVITYNET_WARNINGS))
    (inputs / "thumos-escapes").mkdir()
    for file_name, text in THUMOS_ESCAPES.items():
        (inputs / "thumos-escapes" / file_name).write_text(text,
                                                           encoding="utf-8")
    for name, (gt, pred) in REPEATED_KEYS.items():
        (inputs / f"repeated-{name}.gt.jsonl").write_text(gt)
        (inputs / f"repeated-{name}.pred.jsonl").write_text(pred)


def folder(n: int, name: str) -> str:
    return f"{n:02d}-{name}"


def catalogue():
    """``(name, argv)`` per command, in order; ``{out}`` stands for the
    command's own ``out`` folder and ``{prev}`` for that of the command
    before it."""
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
        ("evaluate-fault-events", [
            "evaluate", "--gt", "inputs/faults.gt.jsonl", "--pred",
            "inputs/faults.pred.jsonl", "--out-dir", "{out}"]),
        ("baseline-faults-pm-2.0", [
            "baseline", "--gt", "inputs/faults.gt.jsonl", "--kind", "pm",
            "--fps", "2.0", "--out", "{out}/pred.jsonl"]),
    ]
    pred = f"{folder(len(commands), commands[-1][0])}/out/pred.jsonl"
    commands.append(("offline-map-faults-pm-2.0", [
        "offline", "--gt", "inputs/faults.gt.jsonl", "--pred", pred,
        "--metric", "map", "--out-dir", "{out}"]))
    for name in INTERVAL_FAULTS:
        commands.append((f"evaluate-fault-gt-{name}", [
            "evaluate", "--gt", f"inputs/fault-{name}.gt.jsonl", "--pred",
            "inputs/faults.pred.jsonl", "--out-dir", "{out}"]))
    for kind in ("pm", "all-bg"):
        commands.append((f"baseline-frameless-{kind}-1.0", [
            "baseline", "--gt", "inputs/frameless.gt.jsonl", "--kind", kind,
            "--fps", "1.0", "--out", "{out}/pred.jsonl"]))
    commands.append(("baseline-frameless-slot-pm", [
        "baseline", "--gt", "inputs/frameless-slot.gt.jsonl", "--kind", "pm",
        "--delta-t", "0.013", "--out", "{out}/pred.jsonl"]))
    # pairs of commands: the second rewrites the longer outputs of the
    # first, in its folder
    worked = ["--gt", GT["worked"], "--pred", "inputs/worked.pred.jsonl"]
    synthetic = ["baseline", "--gt", GT["synthetic"], "--seed", "3"]
    done = {name: folder(n, name) for n, (name, _) in enumerate(commands, 1)}
    scores = f"{done['baseline-synthetic-pm-2.0']}/out/pred.jsonl"
    worked_scores = f"{done['baseline-worked-pm-2.0']}/out/pred.jsonl"
    for first, rerun in [
            (("evaluate-worked-quarter-slots-again", [
                "evaluate", *worked, "--delta-t", "0.25", "--out-dir", "{out}"]),
             ("rerun-evaluate-worked-binary", [
                 "evaluate", *worked, "--delta-t", "0.5", "--mode", "binary",
                 "--out-dir", "{prev}"])),
            (("baseline-synthetic-all-bg-4.0-again", [
                *synthetic, "--kind", "all-bg", "--fps", "4.0",
                "--out", "{out}/pred.jsonl"]),
             ("rerun-baseline-synthetic-pm-2.0", [
                 *synthetic, "--kind", "pm", "--fps", "2.0",
                 "--out", "{prev}/pred.jsonl"])),
            (("convert-thumos-suffixes-again", [
                "convert", "--format", "thumos", "--in", "inputs/thumos-suffixes",
                "--durations", "inputs/thumos-durations.txt",
                "--out", "{out}/gt.jsonl"]),
             ("rerun-convert-activitynet", [
                 "convert", "--format", "activitynet", "--in",
                 "inputs/activitynet.json", "--out", "{prev}/gt.jsonl"])),
            (("offline-map-synthetic-pm-2.0-again", [
                "offline", "--gt", GT["synthetic"], "--pred", scores,
                "--metric", "map", "--out-dir", "{out}"]),
             ("rerun-offline-map-worked-pm-2.0", [
                 "offline", "--gt", GT["worked"], "--pred", worked_scores,
                 "--metric", "map", "--out-dir", "{prev}"]))]:
        commands += [first, rerun]
    for gt in ("two-past-end", "two-past-end-events"):
        commands.append((f"evaluate-{gt}", [
            "evaluate", "--gt", f"inputs/{gt}.gt.jsonl", "--pred",
            "inputs/two-past-end.pred.jsonl", "--out-dir", "{out}"]))
    for name in ("thumos-empty-class", "thumos-empty-class-no-rows"):
        commands.append((f"convert-{name}", [
            "convert", "--format", "thumos", "--in", f"inputs/{name}",
            "--durations", "inputs/thumos-durations.txt",
            "--out", "{out}/gt.jsonl"]))
    commands.append(("convert-activitynet-repeated-id", [
        "convert", "--format", "activitynet", "--in",
        "inputs/activitynet-repeated-id.json", "--out", "{out}/gt.jsonl"]))
    # a bad --fps, with a prediction file that is missing and one that is not
    for fps, pred in (("nan", "inputs/missing.pred.jsonl"),
                      ("-1", worked_scores)):
        commands.append((f"offline-bad-fps-{fps}", [
            "offline", "--gt", GT["worked"], "--pred", pred, "--fps", fps,
            "--out-dir", "{out}"]))
    for metric, pred in (("map", "int-scores"), ("cap", "int-scores"),
                         ("map", "bool-cell")):
        commands.append((f"offline-{metric}-{pred}", [
            "offline", "--gt", "inputs/int-scores.gt.jsonl", "--pred",
            f"inputs/{pred}.pred.jsonl", "--metric", metric,
            "--out-dir", "{out}"]))
    # the benchmark's score round trip, past one block of score rows
    for kind in ("pm", "all-bg"):
        commands.append((f"baseline-long-{kind}-4.0", [
            "baseline", "--gt", GT["long"], "--kind", kind, "--seed", "3",
            "--fps", "4.0", "--out", "{out}/pred.jsonl"]))
    pred = f"{folder(len(commands) - 1, commands[-2][0])}/out/pred.jsonl"
    for metric in ("map", "cap"):
        commands.append((f"offline-{metric}-long-pm-4.0", [
            "offline", "--gt", GT["long"], "--pred", pred, "--fps", "4.0",
            "--metric", metric, "--out-dir", "{out}"]))
    commands += [
        ("convert-activitynet-escapes", [
            "convert", "--format", "activitynet", "--in",
            "inputs/activitynet-escapes.json", "--out", "{out}/gt.jsonl"]),
        ("convert-thumos-escapes", [
            "convert", "--format", "thumos", "--in", "inputs/thumos-escapes",
            "--durations", "inputs/thumos-escapes/durations.txt",
            "--out", "{out}/gt.jsonl"])]
    for name in REPEATED_KEYS:
        files = ["--gt", f"inputs/repeated-{name}.gt.jsonl",
                 "--pred", f"inputs/repeated-{name}.pred.jsonl"]
        commands.append((f"repeated-key-{name}", [
            "offline", *files, "--metric", "map", "--out-dir", "{out}"]
            if name == "scores" else
            ["evaluate", *files, "--out-dir", "{out}"]))
    for subset in ("validation", "training", "testing"):
        commands.append((f"convert-activitynet-warnings-{subset}", [
            "convert", "--format", "activitynet", "--in",
            "inputs/activitynet-warnings.json", "--subset", subset,
            "--out", "{out}/gt.jsonl"]))
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
        argv = [a.replace("{out}", f"{here}/out").replace(
            "{prev}", f"{folder(n - 1, commands[n - 2][0])}/out") for a in argv]
        code, out, err = run(argv)
        (here / "argv").write_text(" ".join(argv) + "\n")
        (here / "exit").write_text(f"{code}\n")
        (here / "stdout").write_text(out, encoding="utf-8")
        (here / "stderr").write_text(err, encoding="utf-8")
    print(f"ran {len(commands)} commands into {root}")


if __name__ == "__main__":
    main()
