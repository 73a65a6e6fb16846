"""Module boundaries inside ``src/numerkit``: no module reads an underscore
name of another numerkit module, by attribute (``ratecurve._b``) or by
import (``from .ratecurve import _b``).  A decision that two modules need
belongs behind a public name of one of them.  Likewise only ``pde`` imports
``scipy.integrate``: every time integral goes through ``pde.integral``, so
no second integrator can disagree with it.  Tests and the benchmark are
outside these rules."""

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


def _integrate_imports(source: str) -> list:
    """(line, name) of each import of scipy.integrate or of a name in it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name == "scipy.integrate" or name.startswith("scipy.integrate.")]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_only_pde_imports_scipy_integrate(path):
    found = _integrate_imports(path.read_text())
    assert bool(found) == (path.stem == "pde"), found


def test_integrate_guard_sees_every_form_of_import():
    source = "\n".join([
        "import scipy.integrate",
        "import scipy.integrate as si, numpy",
        "from scipy import integrate, linalg",
        "from scipy.integrate import quad",
        "from scipy.linalg import solve",
    ])
    assert _integrate_imports(source) == [
        (1, "scipy.integrate"), (2, "scipy.integrate"),
        (3, "scipy.integrate"), (4, "scipy.integrate.quad")]
