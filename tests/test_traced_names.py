"""The names the benchmark's tracer patches still exist.

``perfbench/tracer.py`` wraps every ``(module, path)`` of its
``TARGETS`` and reads the canonicalization and weight caches; the
benchmark's own tests call ``fg_integral`` with ``f_override=`` and
``pipeline.hat_scalar(s, g, cap)``, and compare the ``canonicalize``
bindings of ``balg`` and ``liews``; its worker calls
``pipeline.lie_pair``.  A refactor that renames one of them breaks the
benchmark, which these tests do not run, so they check the names here.
``TARGETS`` is read from the tracer's source; nothing of ``perfbench``
is imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from lmo_kernel import balg, diagrams, liews, pipeline

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module, path", _targets())
def test_traced_target_resolves(module, path):
    mod = importlib.import_module(f"lmo_kernel.{module}")
    if "." in path:
        # methods are patched in the class's own namespace
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(mod, cls_name))[attr])
    else:
        assert callable(getattr(mod, path))


def test_traced_caches_and_bindings_exist():
    assert isinstance(diagrams._CANON_CACHE, dict)
    assert isinstance(liews._WEIGHT_CACHE, dict)
    assert balg.canonicalize is liews.canonicalize is diagrams.canonicalize
    assert "f_override" in inspect.signature(balg.fg_integral).parameters


def test_called_names_exist():
    assert list(inspect.signature(pipeline.hat_scalar).parameters) == \
        ["s", "g", "cap"]
    assert callable(pipeline.lie_pair)
