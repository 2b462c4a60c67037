"""The benchmark's tracer wraps package functions by name; each must exist.

``perfbench/tracer.py`` reports a missing function as absent and leaves
its per-layer metrics out, so a rename in the package would silently
drop them.  The list is read from the tracer's source, not imported:
nothing in ``perfbench/`` is executed or written.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no WRAPPED list")


def test_every_traced_function_exists():
    wrapped = _wrapped()
    assert wrapped
    missing = [f"{mod}.{fn}" for mod, fn in wrapped
               if not callable(getattr(importlib.import_module(
                   f"choquard_lab.{mod}"), fn, None))]
    assert not missing
