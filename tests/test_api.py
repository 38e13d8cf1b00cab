"""The public surface: `odosym.__all__`, the README's Python API section, and
the help text of every subcommand."""

import ast
import re
from pathlib import Path

import pytest

import odosym
from odosym.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
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
