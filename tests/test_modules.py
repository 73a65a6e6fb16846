"""Module boundaries inside ``src/numerkit``: no module reads an underscore
name of another numerkit module, by attribute (``ratecurve._b``) or by
import (``from .ratecurve import _b``).  A decision that two modules need
belongs behind a public name of one of them.  Tests and the benchmark are
outside this rule."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "numerkit"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(source: str) -> list:
    """(line, "module.name") of each underscore name of a numerkit module
    that ``source``, a module of the package, reads.  The package imports
    its modules relatively (``from . import ratecurve``); the absolute
    ``from numerkit... import`` is read the same way."""
    tree = ast.parse(source)
    modules = {}  # local name -> the numerkit module it is bound to
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not node.level and module.split(".")[0] != "numerkit":
            continue
        module = module.removeprefix("numerkit").lstrip(".")
        for alias in node.names:
            if _private(alias.name):
                out.append((node.lineno, f"{module or 'numerkit'}.{alias.name}"))
            elif not module:
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            out.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    assert _private_reads(path.read_text()) == []


def test_guard_sees_every_form_of_read():
    source = "\n".join([
        "from __future__ import annotations",
        "from . import ratecurve, products as pr",
        "from .ratecurve import _b, b_factor",
        "from numerkit.montecarlo import _psd_root",
        "x = ratecurve._series(1.0, ratecurve._INT_B) + ratecurve.b_factor",
        "y = pr._private(ratecurve.__name__), self._own",
    ])
    assert _private_reads(source) == [
        (3, "ratecurve._b"), (4, "montecarlo._psd_root"),
        (5, "ratecurve._INT_B"), (5, "ratecurve._series"),
        (6, "products._private")]
