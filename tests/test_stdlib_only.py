"""The package runs on the standard library alone: `dependencies = []`.

The test extra installs sympy and hypothesis next to the package, so an
import of either in the source would still pass every other test.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "odosym"
MODULES = sorted(SRC.glob("*.py"))


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "intmat", "odometer"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_stdlib_or_odosym(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = sys.stdlib_module_names | {"odosym"}
    assert sorted(set(imported_roots(tree)) - allowed) == []


def test_cli_import_leaves_out_the_dataclasses_machinery():
    # records are plain classes: dataclasses would pull in inspect, ast and
    # dis and build each record's methods with exec on every start-up; and
    # verify-paper lists its sample, so random is not loaded either.  -S keeps
    # site out: a .pth file in site-packages may import any of them first
    unwanted = "{'dataclasses', 'inspect', 'random'}"
    probe = f"import sys, odosym.cli; print(sorted({unwanted} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"
