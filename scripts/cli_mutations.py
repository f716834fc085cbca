#!/usr/bin/env python3
"""Record what ``oadeval`` prints and writes on a fixed set of mutated inputs.

A sibling of ``cli_snapshot.py``, for the error paths. One seed derives
``CASES`` cases, spread in turn over ``evaluate``, ``offline``,
``baseline`` and ``convert``. Each case takes small valid inputs (a
3-video ground truth, its ``decisions``/``detections`` and ``scores``
records, an ActivityNet file and a Thumos folder), mutates one input
file one to three times with the mutation kinds of ``tests/test_cli.py``
(a value of the wrong type, a non-finite number, a bool, a huge number,
a missing field, an unknown record kind, a truncated line, a key given
twice in one object, and a video of 1e12 s) and runs one command on it, in-process through
``oadeval.cli.main``, from inside ``OUT_DIR`` and on relative paths.
The cases depend only on the seed, never on the package, so two
versions of the package run the same cases.

Each command has a file ``OUT_DIR/<command>.txt`` with one block per
case: the mutations, the argument list, the exit code, standard output
and error, the class and text of any exception that escaped ``main``,
any warning, and every file the command wrote. ``OUT_DIR/inputs`` holds
the inputs before mutation. Two versions of the package compare by
running each and diffing the trees::

    PYTHONPATH=src python3 scripts/cli_mutations.py /tmp/mut-new
    PYTHONPATH=../old/src python3 scripts/cli_mutations.py /tmp/mut-old
    diff -r /tmp/mut-old /tmp/mut-new
"""

import argparse
import contextlib
import copy
import io
import json
import os
import random
import shutil
import sys
import warnings
from pathlib import Path

from oadeval.cli import main as oadeval_main

SEED = 24
CASES = 4000
COMMANDS = ("evaluate", "offline", "baseline", "convert")

# the ground truth leaves out the optional multi_label, so that no
# mutation turns it into another valid value
GT_RECORDS = (
    {"record": "vocabulary", "classes": ["jump", "run"],
     "background": "background"},
    {"record": "video", "video_id": "a", "duration_s": 2.0,
     "intervals": [{"label": "jump", "start_s": 0.0, "end_s": 1.0}]},
    {"record": "video", "video_id": "b", "duration_s": 2.5, "intervals": []},
    {"record": "video", "video_id": "c", "duration_s": 3.0,
     "intervals": [{"label": "jump", "start_s": 1.0, "end_s": 2.0},
                   {"label": "run", "start_s": 2.0, "end_s": 2.5}]},
)
PRED_RECORDS = (
    {"record": "decisions", "video_id": "a", "delta_t_s": 0.5,
     "labels": ["jump", "jump", "background", "run"]},
    {"record": "detections", "video_id": "b",
     "events": [{"label": "run", "start_s": 0.5, "end_s": 1.5},
                {"label": "jump", "start_s": 1.0, "end_s": 2.0}]},
    {"record": "decisions", "video_id": "c", "delta_t_s": 0.5,
     "labels": ["background"] * 2 + ["jump"] * 2 + ["run", "background"]},
)
# frames at 2 fps: 4, 5 and 6 of them
SCORES_RECORDS = (
    {"record": "scores", "video_id": "a", "fps": 2.0,
     "scores": [[0.9, 0.1], [0.7, 0.2], [0.1, 0.3], [0.2, 0.8]]},
    {"record": "scores", "video_id": "b", "fps": 2.0,
     "scores": [[0.1, 0.2], [0.3, 0.6], [0.2, 0.9], [0.5, 0.4], [0.0, 0.1]]},
    {"record": "scores", "video_id": "c", "fps": 2.0,
     "scores": [[0.1, 0.0], [0.2, 0.1], [0.8, 0.3], [0.6, 0.2], [0.3, 0.7],
                [0.1, 0.2]]},
)
ACTIVITYNET = {"database": {
    "v1": {"subset": "validation", "duration": 5.0,
           "annotations": [{"label": "jump", "segment": [1.0, 5.0]}]},
    "v2": {"subset": "validation", "duration": 4.0,
           "annotations": [{"label": "run", "segment": [0.5, 2.0]},
                           {"label": "jump", "segment": [2.5, 3.0]}]},
    "v3": {"subset": "training", "duration": 3.0, "annotations": []}}}
THUMOS = {"Jump_test.txt": "v1 1.0 5.0\nv2 0.5 2.0\n",
          "Run_val.txt": "v2 1.0 4.0\n",
          "durations.txt": "v1 5.0\nv2 4.0\n"}

MUTATIONS = ("wrong type", "non-finite", "bool", "huge", "missing field",
             "unknown kind", "truncated line", "repeated key")
# the output of a command, which these small inputs keep far below this,
# is recorded whole up to this size and cut there beyond it
MAX_RECORDED = 1 << 16


def json_paths(value, path=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from json_paths(child, path + (key,))


def at(value, path):
    """The part of a JSON value at ``path``."""
    for key in path:
        value = value[key]
    return value


def cut_short(rng, text: str) -> str:
    """``text`` cut at a random point, so that at least one character goes."""
    return text[:rng.randrange(max(len(text), 1))]


def json_kind(value):
    return float if type(value) in (int, float) else type(value)


def mutated_value(rng, mutation, old):
    """A JSON value of the ``mutation`` kind, to put in place of ``old``."""
    if mutation == "wrong type":
        return rng.choice([v for v in ("text", 7, [], {}, None)
                           if json_kind(v) is not json_kind(old)])
    return rng.choice({"non-finite": [float("nan"), float("inf"),
                                      -float("inf")],
                       "bool": [True, False],
                       "huge": [1e308, -1e308, 10 ** 400]}[mutation])


class Repeated(dict):
    """An object whose JSON text (:func:`dumps`) gives one of its keys a
    second time, after its pairs: ``extra`` is that ``(key, value)``."""

    def __init__(self, pairs, extra):
        super().__init__(pairs)
        self.extra = extra


def dumps(value) -> str:
    """``json.dumps(value)``, but each :class:`Repeated` object in it
    written with its repeated key."""
    if isinstance(value, Repeated):
        pairs = [*value.items(), value.extra]
        return "{" + ", ".join(f"{json.dumps(key)}: {dumps(item)}"
                               for key, item in pairs) + "}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {dumps(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    return json.dumps(value)


def mutated_json(rng, value, mutation):
    """``(value, note)``: ``value`` with one position mutated (in place
    unless the whole value is replaced) and where."""
    paths = list(json_paths(value))
    if mutation == "repeated key":
        paths = [p for p in paths if at(value, p)
                 and isinstance(at(value, p), dict)]
        if not paths:
            return value, "no key to repeat"
        path = rng.choice(paths)
        obj = at(value, path)
        key = rng.choice(list(obj))
        # the value it has, which json reads as if the key were given
        # once, or one of another type
        again = (obj[key] if rng.random() < 0.5
                 else mutated_value(rng, "wrong type", obj[key]))
        where = "".join(f"[{k!r}]" for k in (*path, key))
        note = f"{where} again = {json.dumps(again)[:40]}"
        new = Repeated(obj, (key, again))
        if not path:
            return new, note
        at(value, path[:-1])[path[-1]] = new
        return value, note
    if mutation == "missing field":
        paths = [p for p in paths if p and isinstance(p[-1], str)]
        if not paths:
            return value, "no field to remove"
    path = rng.choice(paths)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    where = "".join(f"[{key!r}]" for key in path) or "the whole value"
    if mutation == "missing field":
        del parent[path[-1]]
        return value, f"{where} removed"
    new = mutated_value(rng, mutation, parent[path[-1]] if path else value)
    note = f"{where} = {json.dumps(new)[:40]}"
    if not path:
        return new, note
    parent[path[-1]] = new
    return value, note


def mutated_lines(rng, records, mutations):
    """``(lines, notes)``: the JSON Lines of ``records``, one to three
    mutations applied, each to one record."""
    records = copy.deepcopy(list(records))
    notes, cuts = [], []
    for _ in range(rng.randint(1, 3)):
        index = rng.randrange(len(records))
        mutation = rng.choice(mutations)
        if mutation == "truncated line":
            cuts.append(index)
            note = "cut short"
        elif mutation in ("unknown kind", "long video"):
            videos = [i for i, r in enumerate(records)
                      if isinstance(r, dict) and r.get("record") == "video"]
            if mutation == "long video" and videos:
                index = rng.choice(videos)
            if not isinstance(records[index], dict):
                note = f"{mutation}: not an object"
            elif mutation == "long video":
                records[index]["duration_s"] = 1e12
                note = "duration_s = 1e12"
            else:
                kind = rng.choice(["mystery", "scores ", ""])
                records[index]["record"] = kind
                note = f"record = {kind!r}"
        else:
            records[index], note = mutated_json(rng, records[index], mutation)
        notes.append(f"line {index + 1}: {mutation}: {note}")
    lines = [dumps(r) for r in records]
    for index in cuts:
        lines[index] = cut_short(rng, lines[index])
    return lines, notes


def mutated_thumos(rng):
    """``(files, notes)``: the Thumos folder with one to three of its
    lines mutated, in one token each or cut short."""
    files = dict(THUMOS)
    notes = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(files))
        lines = files[name].splitlines() or [""]
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        mutation = rng.choice([m for m in MUTATIONS
                               if m not in ("unknown kind", "repeated key")])
        if mutation == "truncated line" or not tokens:
            lines[i] = cut_short(rng, lines[i])
            mutation = "truncated line"
        else:
            j = rng.randrange(len(tokens))
            if mutation == "missing field":
                del tokens[j]
            else:  # the value as JSON spells it: "NaN", "1e+308", "null"...
                try:
                    old = json.loads(tokens[j])
                except ValueError:  # a video id
                    old = tokens[j]
                tokens[j] = json.dumps(mutated_value(rng, mutation, old))
            lines[i] = " ".join(tokens)
        files[name] = "\n".join(lines) + "\n"
        notes.append(f"{name} line {i + 1}: {mutation}")
    return files, notes


def write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def clean_files():
    """The inputs before mutation, by their path under a case's folder."""
    return {"gt.jsonl": [json.dumps(r) for r in GT_RECORDS],
            "pred.jsonl": [json.dumps(r) for r in PRED_RECORDS],
            "scores.jsonl": [json.dumps(r) for r in SCORES_RECORDS],
            "anet.json": [json.dumps(ACTIVITYNET)],
            **{f"thumos/{name}": text.splitlines()
               for name, text in THUMOS.items()}}


def make_case(rng, command: str, work: Path):
    """Write one case's inputs under ``work``: ``(argv, notes)``."""
    files = clean_files()
    if command == "convert":
        if rng.random() < 0.5:
            mutation = rng.choice([m for m in MUTATIONS
                                   if m != "unknown kind"])
            text = json.dumps(ACTIVITYNET)
            if mutation == "truncated line":
                files["anet.json"] = [cut_short(rng, text)]
                notes = ["anet.json: truncated line"]
            else:
                doc, note = mutated_json(rng, copy.deepcopy(ACTIVITYNET),
                                         mutation)
                files["anet.json"] = [dumps(doc)]
                notes = [f"anet.json: {mutation}: {note}"]
            argv = ["convert", "--format", "activitynet",
                    "--in", f"{work}/anet.json"]
        else:
            thumos, notes = mutated_thumos(rng)
            files.update({f"thumos/{name}": text.splitlines()
                          for name, text in thumos.items()})
            argv = ["convert", "--format", "thumos", "--in", f"{work}/thumos",
                    "--durations", f"{work}/thumos/durations.txt"]
        argv += ["--out", f"{work}/out/gt.jsonl"]
    else:
        pred = {"evaluate": "pred.jsonl", "offline": "scores.jsonl",
                "baseline": None}[command]
        target = "gt.jsonl" if pred is None or rng.random() < 0.5 else pred
        records = {"gt.jsonl": GT_RECORDS, "pred.jsonl": PRED_RECORDS,
                   "scores.jsonl": SCORES_RECORDS}[target]
        mutations = MUTATIONS + ("long video",) * (target == "gt.jsonl")
        files[target], notes = mutated_lines(rng, records, mutations)
        notes = [f"{target} {note}" for note in notes]
        argv = [command, "--gt", f"{work}/gt.jsonl"]
        if command == "evaluate":
            argv += ["--pred", f"{work}/pred.jsonl",
                     "--mode", rng.choice(["class-aware", "binary"]),
                     "--out-dir", f"{work}/out"]
        elif command == "offline":
            argv += ["--pred", f"{work}/scores.jsonl",
                     "--metric", rng.choice(["map", "cap"]),
                     *rng.choice([[], ["--fps", "2.0"]]),
                     "--out-dir", f"{work}/out"]
        else:
            argv += ["--kind", rng.choice(["pm", "all-bg"]),
                     "--seed", "3", *rng.choice([[], ["--fps", "2.0"]]),
                     "--out", f"{work}/out/pred.jsonl"]
    (work / "thumos").mkdir(parents=True)
    (work / "out").mkdir()
    for name, lines in files.items():
        write_lines(work / name, lines)
    return argv, notes


def run(argv):
    """What one in-process command returned, printed and warned."""
    stdout, stderr = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = oadeval_main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code
        except Exception as exc:  # a fault to see in the diff, not to hide
            code, escaped = None, f"{type(exc).__name__}: {exc}"
    found = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, stdout.getvalue(), stderr.getvalue(), escaped, found


def record(n: int, command: str, argv, notes, result, out: Path) -> str:
    """The text block of one case."""
    code, stdout, stderr, escaped, found = result
    parts = [f"== case {n:04d} {command}", *(f"mutation: {note}"
                                             for note in notes),
             "argv: " + " ".join(argv), f"exit: {code}"]
    if escaped is not None:
        parts.append(f"escaped: {escaped}")
    parts += [f"python warning: {w}" for w in found]
    parts += ["--- stdout", stdout.rstrip("\n"), "--- stderr",
              stderr.rstrip("\n")]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        parts.append(f"--- {path.relative_to(out.parent)} ({len(data)} bytes)")
        parts.append(data[:MAX_RECORDED].decode("utf-8", "backslashreplace")
                     .rstrip("\n"))
    return "\n".join(parts) + "\n"


def snapshot(root: Path, cases: int = CASES) -> None:
    """Run the first ``cases`` cases into ``root``, an empty folder."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        sys.exit(f"{root} is not empty")
    here = Path.cwd()
    os.chdir(root)
    try:
        for name, lines in clean_files().items():
            (Path("inputs") / name).parent.mkdir(parents=True, exist_ok=True)
            write_lines(Path("inputs") / name, lines)
        rng = random.Random(SEED)
        work = Path("work")
        logs = {command: open(f"{command}.txt", "w", encoding="utf-8",
                              errors="backslashreplace")
                for command in COMMANDS}
        with contextlib.ExitStack() as stack:
            for log in logs.values():
                stack.enter_context(log)
            for n in range(cases):
                command = COMMANDS[n % len(COMMANDS)]
                argv, notes = make_case(rng, command, work)
                logs[command].write(record(n, command, argv, notes,
                                           run(argv), work / "out"))
                shutil.rmtree(work)
    finally:
        os.chdir(here)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", metavar="OUT_DIR",
                        help="empty or new folder for the record")
    args = parser.parse_args()
    snapshot(Path(args.out_dir))
    print(f"ran {CASES} cases into {args.out_dir}")


if __name__ == "__main__":
    main()
