"""The parser's wiring, pinned as structure rather than help text.

Argparse lays out help differently from Python 3.10 to 3.13, so the usage
tests pin the text under one interpreter only.  This file pins what the
text is made of, under every interpreter: each parser's actions in order,
each with its option strings (or dest, for a positional), dest, required
flag, default, type, choices, help and mutually exclusive group (its index
and whether it is required), and each subcommand's help, handler and
command name.  It was recorded from the parser written out one subcommand
at a time.
"""

import argparse

from odosym.cli import build_parser

HELP = ("-h --help", "help", False, argparse.SUPPRESS, None, None,
        "show this help message and exit", None)
VERSION = ("--version", "version", False, argparse.SUPPRESS, None, None,
           "show program's version number and exit", None)
PRETTY = ("--pretty", "pretty", False, False, None, None, "indented JSON", None)
OUT = ("--out", "out", False, None, None, None, "write the report to a file", None)
F = ("--F", "F", False, None, None, None, "fundamental domain, vectors split by ';'", None)
BASE = ("--base", "base", True, None, None, None, None, None)
MATRIX = ("--matrix", "matrix", True, None, None, None, None, None)
PAIR = [
    ("--L", "L", True, None, None, None, None, None),
    ("--M", "M", True, None, None, None, None, None),
    ("--nmax", "nmax", False, 8, "int", None, None, None),
    F,
]
PATCH = [
    ("--box", "box", True, None, None, None, "lo:hi output box", None),
    ("--seed", "seed", False, None, None, None, None, None),
    ("--svg", "svg", False, None, None, None, None, None),
    ("--pgm", "pgm", False, None, None, None, None, None),
]
COMMANDS = ("classify", "member", "nc", "nl", "phi", "subst", "verify-paper")

WIRING = {
    "": [HELP, VERSION, ("command", "command", True, None, None, COMMANDS, None, None)],
    "classify": [
        HELP, ("--matrix", "matrix", True, None, None, None, "rows a,b;c,d", None), PRETTY, OUT,
    ],
    "member": [HELP, BASE, MATRIX, PRETTY, OUT],
    "nc": [
        HELP, BASE, MATRIX, ("--depth", "depth", False, 6, "int", None, None, None), PRETTY, OUT,
    ],
    "nl": [HELP, *PAIR, PRETTY, OUT],
    "phi": [HELP, *PAIR, *PATCH, PRETTY, OUT],
    "subst": [
        HELP,
        ("action", "action", True, None, None, ("patch",), None, None),
        ("--L", "L", False, None, None, None, None, (0, True)),
        ("--subst", "subst", False, None, None, None, "substitution description JSON file",
         (0, True)),
        F,
        *PATCH,
        PRETTY,
        OUT,
    ],
    "verify-paper": [HELP, PRETTY, OUT],
}

SUBCOMMANDS = {
    "classify": ("classify the symmetry group of a base", "cmd_classify"),
    "member": ("decide membership of a matrix", "cmd_member"),
    "nc": ("normalizer-condition certificates", "cmd_nc"),
    "nl": ("subshift symmetry certificate", "cmd_nl"),
    "phi": ("evaluate the sliding-block action", "cmd_phi"),
    "subst": ("substitution patches", "cmd_subst"),
    "verify-paper": ("run the golden verification table", "cmd_verify_paper"),
}


def _wiring(parser):
    groups = parser._mutually_exclusive_groups
    rows = []
    for a in parser._actions:
        group = next(((i, g.required) for i, g in enumerate(groups) if a in g._group_actions), None)
        rows.append((
            " ".join(a.option_strings) or a.dest, a.dest, a.required, a.default,
            getattr(a.type, "__name__", a.type),
            None if a.choices is None else tuple(a.choices), a.help, group,
        ))
    return rows


def test_every_parser_keeps_its_actions():
    ap = build_parser()
    assert {"": _wiring(ap), **{n: _wiring(p) for n, p in ap.commands.items()}} == WIRING


def test_every_subcommand_keeps_its_help_handler_and_name():
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {c.dest: c.help for c in sub._choices_actions}
    got = {
        name: (helps[name], p.get_default("func").__name__, p.get_default("command"), p.prog)
        for name, p in ap.commands.items()
    }
    assert got == {n: (text, func, n, f"odosym {n}") for n, (text, func) in SUBCOMMANDS.items()}
    assert ap.commands is sub.choices and list(ap.commands) == list(COMMANDS)
