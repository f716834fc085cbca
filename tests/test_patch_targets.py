"""Every function the benchmark's span recorder wraps still exists.

``perfbench/tracer.py`` wraps the toolkit's functions where their callers
look them up, by name. A refactor that moves or renames one of them
would otherwise fail only the traced benchmark run, which this suite
does not start. The tracer is read and executed here, never imported
from its package or written to.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_patches():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module.PATCHES


PATCHES = _load_patches()


def test_patch_list_is_not_empty():
    assert len(PATCHES) > 0


@pytest.mark.parametrize(
    "module_name,class_name,attr",
    [entry[:3] for entry in PATCHES],
    ids=[".".join(filter(None, entry[:3])) for entry in PATCHES])
def test_patch_target_resolves(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None))
