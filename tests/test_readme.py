"""README's Library example imports from the package what it documents as
public, every spec field it names is a field of that spec, and each of its
command-line examples that writes an input file runs and exits 0, so none
of them can drift from the docs."""

import ast
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from numerkit.cli import main
from numerkit.pde import Pde1Spec, Pde2Spec

README = Path(__file__).resolve().parents[1] / "README.md"
# a shell block of README that writes an input with ``cat > NAME <<'JSON'``
HEREDOC = re.compile(r"^cat > (\S+) <<'JSON'\n(.*?)^JSON\n", re.M | re.S)
EXAMPLES = [block for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                                          re.M | re.S) if HEREDOC.search(block)]


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


def test_examples_found():
    assert [HEREDOC.search(block).group(1) for block in EXAMPLES] == [
        "esop.json", "problem.json", "curve.json"]


@pytest.mark.parametrize("block", EXAMPLES,
                         ids=lambda block: HEREDOC.search(block).group(1))
def test_cli_example_exits_zero(tmp_path, monkeypatch, capsys, block):
    monkeypatch.chdir(tmp_path)
    for name, text in HEREDOC.findall(block):
        (tmp_path / name).write_text(text)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("numerkit ")]
    assert commands
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert capsys.readouterr().out
