"""The public surface: `odosym.__all__`, the README's Python API section, the
help text of every subcommand, and the names the package's modules use."""

import ast
import re
from pathlib import Path

import pytest

import odosym
from odosym.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(odosym.__file__).resolve().parent
SUBCOMMANDS = ("classify", "member", "nc", "nl", "phi", "subst", "verify-paper")


def readme_api_names():
    section = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (node,) = ast.parse(block).body
    assert isinstance(node, ast.ImportFrom) and node.module == "odosym"
    return [alias.name for alias in node.names]


def test_all_matches_the_readme_api_section():
    names = readme_api_names()
    assert names == odosym.__all__
    assert len(set(names)) == len(names)


def test_every_public_name_resolves():
    namespace = {}
    exec("from odosym import *", namespace)  # raises on a name odosym lacks
    assert set(odosym.__all__) <= set(namespace)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: odosym {command}")


def _names_read(node):
    """Every name the subtree reads, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_name_has_a_caller_in_the_package():
    # A name that only the tests call belongs in the tests.
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)  # a definition's reads of itself do not count
            used.update(name for name in _names_read(stmt) if name != own)
    assert set(odosym.__all__) - used == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_source_line_is_over_100_characters(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == [], f"{path.name}: lines {long} are over 100 characters"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = set(_names_read(tree))
    if path.name == "__init__.py":  # re-exports are read by `from odosym import *`
        read |= set(odosym.__all__)
    assert sorted(imported - read) == []
