"""README's Library example imports from the package what it documents as
public, and every spec field it names is a field of that spec, so neither
can drift from the docs."""

import ast
import dataclasses
import re
from pathlib import Path

from numerkit.pde import Pde1Spec, Pde2Spec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_imports_resolve():
    block = re.search(r"^from numerkit import \(.*?\)$", README.read_text(),
                      re.M | re.S).group(0)
    (statement,) = ast.parse(block).body
    names = [alias.name for alias in statement.names]
    namespace = {}
    exec(block, namespace)
    assert names and all(name in namespace for name in names)


def test_named_spec_fields_exist():
    fields = {cls.__name__: {f.name for f in dataclasses.fields(cls)}
              for cls in (Pde1Spec, Pde2Spec)}
    named = re.findall(r"`(Pde[12]Spec)\.(\w+)", README.read_text())
    missing = [f"{cls}.{name}" for cls, name in named if name not in fields[cls]]
    assert named and not missing, missing
