"""The traced benchmark run wraps numerkit's entry points by name, and its
solve timing reads ``build_engines(p)[0].pde2``: an API cut that drops either
would break the traced run without failing any other test."""

import ast
import importlib
from pathlib import Path

from numerkit import verify
from numerkit.pde import Pde2Spec

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _entry_points() -> dict:
    """``ENTRY_POINTS`` of the tracing module, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS in {TRACING}")


def test_traced_entry_points_resolve():
    missing = [f"{module}.{name}" for module, names in _entry_points().values()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing


def test_engine_pde2_is_a_spec():
    for product in verify.default_suite():
        assert isinstance(verify.build_engines(product)[0].pde2, Pde2Spec)
