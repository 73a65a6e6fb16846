"""The benchmark driver reads numerkit's modules by attribute, the traced run
wraps their entry points by name, and its solve timing reads
``build_engines(p)[0].pde2``: an API cut that drops any of them would break
the benchmark without failing any other test."""

import ast
import importlib
from pathlib import Path

from numerkit import verify
from numerkit.pde import Pde2Spec

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACING = BENCHMARK / "tracing.py"
RUNNER = BENCHMARK / "run.py"


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


def test_runner_reads_only_what_exists():
    # every numerkit name the driver imports or reads as module.attribute,
    # found in its syntax tree so that the driver is never imported
    tree = ast.parse(RUNNER.read_text())
    modules, wanted = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numerkit":
            modules.update((a.asname or a.name, f"numerkit.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numerkit."):
            wanted.update((node.module, a.name) for a in node.names)
    wanted.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in modules)
    assert {"cli", "model", "montecarlo", "pde", "verify"} <= set(modules)
    assert {("numerkit.errors", "PricingError"), ("numerkit.montecarlo", "McSpec"),
            ("numerkit.pde", "GridSpec")} <= wanted
    missing = sorted(f"{module}.{name}" for module, name in wanted
                     if not hasattr(importlib.import_module(module), name))
    assert not missing
