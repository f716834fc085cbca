"""Count the lines of Python source that hold code.

A line holds code when a token other than a comment starts or runs
across it and it is not part of a docstring (the leading string of a
module, class or function body). Blank lines, comment lines and
docstrings are left out.

    python3 scripts/code_lines.py src/oadeval
    python3 scripts/code_lines.py src/oadeval/cli.py src/oadeval/ia.py

Each PATH is a ``.py`` file or a directory searched recursively for
them. Prints one ``count path`` line per file, in path order, and then
the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def python_files(paths) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="+", metavar="PATH")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
