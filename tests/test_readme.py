"""README's Library example imports from the package what it documents as
public, so the top-level names cannot drift from the docs."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_imports_resolve():
    block = re.search(r"^from numerkit import \(.*?\)$", README.read_text(),
                      re.M | re.S).group(0)
    (statement,) = ast.parse(block).body
    names = [alias.name for alias in statement.names]
    namespace = {}
    exec(block, namespace)
    assert names and all(name in namespace for name in names)
