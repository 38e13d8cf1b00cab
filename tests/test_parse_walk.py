"""The walk that reads a subcommand's command line, held to argparse.

_parse_args walks a line that starts with a subcommand against the flag table
build_parser keeps for it, and hands any line the walk cannot take whole to
the full parser.  The oracle: every argv either gets from the walk exactly the
namespace that build_parser().parse_args gives after the fold, or goes to
argparse.  The corpus is every argv in README, in CI and in tests/, the
benchmark workloads' argv at seeds 0-9, and a derandomized generator of
flag orders, "=" forms, repeated flags, values with a leading minus, values
that look like flags, truncated lines, abbreviations and unknown flags.
"""

import argparse
import ast
import contextlib
import io
import json
import re
import shlex
from collections import Counter
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_shared import bench_module

from odosym import cli
from odosym.cli import _join_flag_values, _walk, build_parser

ROOT = Path(__file__).resolve().parent.parent
TABLES = build_parser().tables
COMMANDS = [*build_parser().commands]


def _full(argv):
    """The full parser's namespace of the folded line, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(_join_flag_values(argv))
        except SystemExit as exc:
            return exc.code


def _route(argv) -> str:
    """"walk" where the walk takes the line, which then reads as the full
    parser's namespace, else "argparse"."""
    table = TABLES.get(argv[0]) if argv else None
    args = None if table is None else _walk(*table, argv[1:])
    if args is None:
        return "argparse"
    assert args == _full(argv), argv
    return "walk"


def readme_argvs():
    text = (ROOT / "README.md").read_text()
    lines = re.findall(r"(?m)^odosym (.*)$", text) + re.findall(r"`odosym ([^`]*)`", text)
    return [shlex.split(line.split("#")[0]) for line in lines if "..." not in line]


def ci_argvs():
    """The workflow's odosym lines, with $RUNNER_TEMP and its one-word variables
    filled in, and the argv lists of its Python steps."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text().replace("\\\n", " ")
    names = dict(re.findall(r"(?m)^\s*(\w+)='([^']*)'$", text), RUNNER_TEMP="tmp")
    out = [json.loads(f"[{m}]") for m in re.findall(r'\[("[^"\]]*"(?:, "[^"\]]*")*)\]', text)]
    for line in text.splitlines():
        line = re.sub(r"\$(\w+)", lambda m: names.get(m[1], m[0]), line)
        try:
            words = shlex.split(line)
        except ValueError:  # a Python line of a heredoc
            continue
        words = words[2:] if words[:1] == ["timeout"] else words
        if words[:1] in (["odosym"], ["check"]):
            words = words[3:] if words[0] == "check" else words[1:]
            argv = [*takewhile(lambda w: w not in (">", "2>", "||"), words)]
            if not any("$" in w for w in argv):
                out.append(argv)
    return out


def argvs_in_tests():
    """Every list or tuple of str constants in tests/ that holds a flag: as it is
    where it starts with a subcommand, else after each subcommand."""
    out = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.List, ast.Tuple)) or not node.elts:
                continue
            words = [getattr(e, "value", None) for e in node.elts]
            if all(isinstance(w, str) for w in words) and any(w[:1] == "-" for w in words):
                out += [words] if words[0] in COMMANDS else [[c, *words] for c in COMMANDS]
    return out


def workload_argvs():
    """The argv of each CLI workload's warm-up and first 200 measured requests
    at seeds 0-9."""
    workloads = bench_module("workloads").WORKLOADS.values()
    return [
        list(r.argv)
        for w in workloads if w.cli
        for seed in range(10)
        for r in w.requests(seed, w.warmup + 200)
    ]


CORPORA = {"README": readme_argvs, "CI": ci_argvs, "tests": argvs_in_tests}


@pytest.mark.parametrize("corpus", CORPORA)
def test_every_written_argv_reads_as_argparse_reads_it(corpus):
    argvs = CORPORA[corpus]()
    routes = Counter(map(_route, argvs))
    assert routes["walk"] > 0 and routes["argparse"] > 0, routes


def test_every_workload_argv_is_walked_to_argparse_namespace():
    # every request of the benchmark takes the walk, and reads as argparse reads it
    assert {_route(argv) for argv in workload_argvs()} == {"walk"}


# good values, each four times, then abbreviations, other flags and values that
# argparse alone reads
INTS = ["4", "-3", "0", " 5"] * 4 + ["x", "", "4.0", "-", "--depth", "-x"]
TEXTS = ["2,0;0,2", "-2,1;0,-3", "-8:8", "1,0", "", "a=b"] * 4 + ["-", "--", "-x", "--base"]
ODD = ["--dep", "--ma", "--ba", "--nm", "--pre", "--bo", "--M=", "-h", "--help", "--version"]
ODD += ["--json", "-b", "--", "patch", "-3"]


@st.composite
def command_lines(draw):
    """A subcommand's required flags and some others in any order, each in the
    space, "=" or bare form with a good or a bad value, maybe cut short."""
    name = draw(st.sampled_from([*TABLES, *TABLES, "subst", "bogus"]))
    flags, _, required = TABLES.get(name, TABLES["phi"])
    names = [f for f, (dest, *_) in flags.items() if dest in required]
    names += draw(st.lists(st.sampled_from([*flags] * 8 + ODD), max_size=4))
    words = [name]
    for flag in draw(st.permutations(names)):
        value = draw(st.sampled_from(INTS if flag in flags and flags[flag][1] is int else TEXTS))
        form = draw(st.sampled_from(["space"] * 3 + ["equals"] * 2 + ["bare"]))
        if flag in flags and not flags[flag][2]:
            form = draw(st.sampled_from(["bare"] * 4 + ["equals", "space"]))
        words += {"space": [flag, value], "equals": [f"{flag}={value}"], "bare": [flag]}[form]
    return words[: draw(st.integers(0, len(words)))] if draw(st.integers(0, 3)) == 0 else words


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command_lines())
def test_generated_lines_read_as_argparse_reads_them(argv):
    _route(argv)


def _parses(monkeypatch, argv):
    """How many argparse parses _parse_args(argv) makes, and what it gives."""
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    try:
        args = cli._parse_args(argv)
    except SystemExit as exc:
        args = exc.code
    monkeypatch.undo()
    return len(calls), args


NC = ["nc", "--base", "2,0;0,2", "--matrix", "0,1;1,0"]


def test_request_lines_take_the_walk_and_others_argparse(monkeypatch, capsys):
    workloads = bench_module("workloads").WORKLOADS.values()
    for argv in [w.requests(0, 1)[0].argv for w in workloads if w.cli]:
        count, args = _parses(monkeypatch, list(argv))
        assert count == 0 and args == _full(list(argv)), argv
    count, args = _parses(monkeypatch, [*NC, "--depth", "3", "--depth=4"])
    assert count == 0 and args.depth == 4  # the last of a repeated flag wins
    for argv in [
        [*NC, "--dep", "4"],  # an abbreviation
        [*NC, "-h"],
        [*NC, "--depth", "x"],
        ["subst", "patch", "--L", "2,0;0,2", "--box", "-8:8"],
    ]:
        count, args = _parses(monkeypatch, argv)
        assert count >= 1 and args == _full(argv), argv
    capsys.readouterr()
