"""Command line front end: JSON reports, exit codes, verification harness.

Every request takes one path.  A `cmd_*` function parses its arguments,
computes, and returns an Answer: the echoed inputs, the result payload,
the exit code and, for `phi` and `subst`, the patch to render.  `main`
alone parses the command line, times the request, builds and writes the
report, renders `--svg` and `--pgm`, and maps every error to an exit code.
The parser is built once per process, with a flag table per subcommand
read off its actions.  A command line is walked against its subcommand's
table; a line the walk cannot take whole (help, --version, an abbreviation,
an unknown flag, a missing or bad value, subst, no subcommand) goes to
argparse, so every namespace, help and usage error is argparse's.  `phi`
builds one local rule, each letter mapped straight to its report text.

Exit codes: 0 success or member, 3 definite negative (for nl and phi, M
outside the odometer's group in d = 2), 4 bounded verification
inconclusive (rejected within the tested window), 2 usage,
parse or value error, or a path that cannot be read or written, 1 the
reader closed standard output early.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from itertools import product
from operator import index
from typing import NamedTuple

from . import __version__
from .classify2d import class_to_payload, classify, is_member
from .errors import MatrixParseError
from .intmat import (
    _DIGIT_LIMIT,
    FundamentalDomain,
    IntMatrix,
    _require_expansion,
    _require_product,
    format_matrix,
    format_vector,
    fundamental_domain,
    parse_matrix,
    parse_vector,
    validate_domain,
)
from .odometer import nc_bounded_check, verify_nc_certificate
from .substitution import (
    ConstantShapeSubstitution,
    _fixed_at_origin,
    _require_two_letters,
    box_positions,
    box_rows,
    fixed_point_count,
    fixed_point_patch,
    half_hex,
    k_set,
    recognizability_check,
    sigma_L,
    tau,
    valuation,
)
from .subshift_norm import (
    LocalRule,
    NLCertificate,
    NLRejection,
    _EXACT_REJECTION,
    _fixed_point_image,
    build_local_rule,
    composition_check,
    nl_membership,
)

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


# Every request builds its body fresh, a tree of dicts, lists and tuples of
# ints and strings, so it has no cycle for the encoder to guard against.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def make_report(command: str, inputs: dict, result, patch=None) -> str:
    """The report's canonical body: compact JSON with sorted keys, which
    payload_hash is the sha256 of.

    patch, for phi and subst, is (box, texts): the texts of the letters of the
    cells of the box (lo, hi, d) in position order, as format_vector writes them
    and JSON does inside brackets.  They fill the slots of the box's skeleton,
    which make the result's "patch", a list of (position, letter) pairs.  The
    body is encoded once, with the string "\\x00" in a copy of result as the
    patch, and the skeleton replaces that slot's text, so the encoder never
    walks a patch and result is not changed.
    """
    body = {
        "schema": 1,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "result": result if patch is None else {**result, "patch": "\0"},
    }
    text = _CANONICAL.encode(body)
    if patch is None:
        return text
    # keys sort, so only the seed, schema and version follow the slot: it is the last
    head, _, tail = text.rpartition('"\\u0000"')
    box, texts = patch
    return head + _box_skeleton(*box) % tuple(texts) + tail  # TypeError unless one text a cell


@functools.lru_cache(maxsize=1)
def _box_skeleton(lo: int, hi: int, d: int) -> str:
    """The text of the patch of the box [lo, hi]^d, its cells in lexicographic
    order, with a [%s] per cell for its letter's text.

    Kept across requests: every request of a box writes the same positions
    in the same order.  JSON writes an int as str does, so the text is built
    from rows of coordinate texts, not cell by cell; it holds no other %.
    """
    coords = [str(x) for x in range(lo, hi + 1)]
    rows = []
    for lead in product(coords, repeat=d - 1):
        start = "[[" + ",".join((*lead, ""))  # a cell's text up to its last coordinate
        rows.append(start + f"],[%s]],{start}".join(coords) + "],[%s]]")
    return f"[{','.join(rows)}]"


def emit(canon: str, timing_ms: float, args, table: str | None = None) -> None:
    """Write the report to --out or stdout; a table, if any, replaces it on stdout.

    The report is the canonical body with payload_hash and timing_ms
    appended, so the body is serialized once; --pretty re-indents that text.
    """
    digest = hashlib.sha256(canon.encode()).hexdigest()
    text = f'{canon[:-1]},"payload_hash":"{digest}","timing_ms":{timing_ms}}}'
    if args.pretty:
        text = json.dumps(json.loads(text), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if table is not None:
        print(table)
    elif not args.out:
        print(text)


class Answer(NamedTuple):
    """What a command computed: main turns it into the report, and draws
    the patch, if any, for --svg and --pgm."""

    inputs: dict
    result: object
    code: int = EXIT_OK
    patch: tuple | None = None  # (box, texts), see make_report
    table: str | None = None  # printed in place of the JSON report


def _parse_box(text: str):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise MatrixParseError(f"bad box {text!r}, expected lo:hi", token=text) from None
    if lo > hi:
        raise MatrixParseError(f"empty box {text!r}", token=text)
    return lo, hi


def _parse_domain_arg(base: IntMatrix, text: str | None) -> FundamentalDomain:
    """F of L, the canonical one or --F's text.  Kept across requests in _domains by
    (L's rows, text), least recently used first out while their digits, _held, total over
    _DIGIT_LIMIT: at most one largest F's worth; a miss reads no kept F.  Errors are not kept."""
    global _held
    key = (base.rows, text)
    if (domain := _domains.pop(key, None)) is None:
        reps = None if text is None else [parse_vector(tok) for tok in text.split(";")]
        domain = fundamental_domain(base) if reps is None else validate_domain(base, reps)
        _held += len(domain.reps)
        while _held > _DIGIT_LIMIT:  # the new F stays: it is within the limit alone
            _held -= len(_domains.pop(next(iter(_domains))).reps)
    _domains[key] = domain
    return domain


def _clear_domains() -> None:
    global _held
    _domains.clear()
    _held = 0


_domains, _held = {}, 0  # _parse_domain_arg's F, least recently used first, and their digits
_parse_domain_arg.cache_clear = _clear_domains


def _field(path: str, name: str, build, *values):
    """build(*values); a value of the wrong type or shape raises an error naming the field."""
    try:
        return build(*values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field {name!r}: {exc}") from None


def _vectors(items) -> list:
    return [tuple(map(index, v)) for v in items]


def _image(cells) -> dict:
    return {tuple(map(index, pos)): tuple(map(index, val)) for pos, val in cells}


def _letter(key: str, dim: int) -> tuple:
    """A table key's letter, a vector of dimension dim; its errors name the key."""
    try:
        if len(letter := parse_vector(key)) == dim:
            return letter
        raise ValueError(f"{len(letter)} coordinates, L has dimension {dim}")
    except ValueError as exc:
        raise ValueError(f"key {key!r}: {exc}") from None


def _load_substitution(path: str) -> tuple:
    """(F1, its rule) of a description file, the rule None where "table" is absent: sigma_L."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    if missing := [key for key in ("L", "F1") if key not in data]:
        raise ValueError(f"{path}: missing key {missing[0]!r}")
    if isinstance(data["L"], str):
        base = parse_matrix(data["L"])
    else:
        base = _field(path, "L", IntMatrix, data["L"])
    domain = validate_domain(base, _field(path, "F1", _vectors, data["F1"]))
    table = data.get("table")
    if table is None:
        return domain, None
    if not isinstance(table, dict) or not table:
        raise ValueError(f"{path}: field 'table': expected a non-empty object, got {table!r}")
    images, keys = {}, {}
    for key, cells in table.items():
        letter = _field(path, "table", _letter, key, base.dim)
        if (first := keys.setdefault(letter, key)) != key:
            raise ValueError(f"{path}: field 'table': keys {first!r} and {key!r} are one letter")
        images[letter] = _field(path, f"table.{key}", _image, cells)
    return domain, ConstantShapeSubstitution(domain, images)


# ---------------------------------------------------------------------------
# raster emission
# ---------------------------------------------------------------------------

_PALETTE = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
    "#aa3377", "#bbbbbb", "#222255", "#225555", "#555522",
]


def write_svg(patch: tuple, path: str) -> None:
    """Draw a plane patch (box, texts), box (lo, hi, 2), one square a cell; the
    colours go to the letters in their order as integer vectors, parsed from the texts."""
    (lo, hi, _), texts = patch
    cell = 12  # pixels per lattice cell
    side = hi - lo + 1
    kinds = sorted(set(texts), key=parse_vector)
    color = {a: _PALETTE[i % len(_PALETTE)] for i, a in enumerate(kinds)}
    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side * cell}" height="{side * cell}">'
    ]
    # the texts come x major, as the box's positions; the y axis points up
    for (x, y), a in zip(product(range(side), repeat=2), texts):
        rows.append(
            f'<rect x="{x * cell}" y="{(side - 1 - y) * cell}" width="{cell}" height="{cell}" '
            f'fill="{color[a]}" stroke="#ffffff" stroke-width="1"/>'
        )
    rows.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def write_pgm(patch: tuple, path: str) -> None:
    """Draw a plane patch (box, texts), box (lo, hi, 2), one grey pixel a cell; the
    greys go to the letters as write_svg's colours do."""
    (lo, hi, _), texts = patch
    side = hi - lo + 1
    kinds = sorted(set(texts), key=parse_vector)
    level = {a: str(60 + (195 * i) // max(1, len(kinds) - 1)) for i, a in enumerate(kinds)}
    # the texts come x major, so the row of y is every side-th from y's offset
    grid = [" ".join(map(level.__getitem__, texts[y::side])) for y in reversed(range(side))]
    with open(path, "w") as fh:
        fh.write(f"P2\n{side} {side}\n255\n")
        fh.write("\n".join(grid) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> Answer:
    base = parse_matrix(args.matrix)
    return Answer({"matrix": format_matrix(base)}, class_to_payload(classify(base)))


def cmd_member(args) -> Answer:
    base = parse_matrix(args.base)
    mat = parse_matrix(args.matrix)
    verdict = is_member(base, mat)
    return Answer(
        {"base": format_matrix(base), "matrix": format_matrix(mat)},
        verdict.to_payload(),
        EXIT_OK if verdict.member else EXIT_NEGATIVE,
    )


def cmd_nc(args) -> Answer:
    base = parse_matrix(args.base)
    mat = parse_matrix(args.matrix)
    certs = nc_bounded_check(base, mat, args.depth)
    passes = all(c.present for c in certs)
    return Answer(
        {"base": format_matrix(base), "matrix": format_matrix(mat), "depth": args.depth},
        {"passes": passes, "certificates": [c.to_payload() for c in certs]},
        EXIT_OK if passes else EXIT_NEGATIVE,
    )


def _nl_request(args):
    """Parse L, M and F and run nl_membership on F's kept base, whose inverse the
    conjugate walk reads; the echo of nmax and F, to which _echo adds L and M."""
    base = parse_matrix(args.L)
    mat = parse_matrix(args.M)
    _require_product(base, mat)  # before F is built, which costs |det|
    domain = _parse_domain_arg(base, args.F)
    inputs = {"nmax": args.nmax, "F": [*domain.texts.values()]}
    return domain.base, inputs, nl_membership(domain.base, mat, args.nmax, domain=domain)


def _echo(inputs: dict, payload: dict) -> dict:
    """inputs with L and M echoed by the payload's texts, so each is formatted once."""
    return {**inputs, "L": payload["L"], "M": payload["M"]}


def _rejection_code(outcome: NLRejection) -> int:
    return EXIT_NEGATIVE if outcome.reason == _EXACT_REJECTION else EXIT_INCONCLUSIVE


def cmd_nl(args) -> Answer:
    _, inputs, outcome = _nl_request(args)
    code = EXIT_OK if isinstance(outcome, NLCertificate) else _rejection_code(outcome)
    return Answer(_echo(inputs, payload := outcome.to_payload()), payload, code)


def _seed(s: ConstantShapeSubstitution, given: str | None) -> tuple:
    """The --seed letter, by default the least letter fixed at the origin of its image."""
    if given is not None:
        return parse_vector(given)
    fixed = [a for a in s.alphabet if _fixed_at_origin(s, a)]
    if not fixed:
        raise ValueError("no letter is fixed at the origin of its image, so none can seed")
    return min(fixed)


def cmd_phi(args) -> Answer:
    lo, hi = _parse_box(args.box)
    base, inputs, outcome = _nl_request(args)
    inputs["box"] = args.box
    if isinstance(outcome, NLRejection):
        payload = outcome.to_payload()
        return Answer(_echo(inputs, payload), payload, _rejection_code(outcome))
    # each letter to its report text, so the row pass writes what make_report fills in
    text = outcome.domain.texts
    rule, box = build_local_rule(outcome, text), (lo, hi, base.dim)
    seed = min(rule.per_level[0]) if args.seed is None else parse_vector(args.seed)
    texts = _fixed_point_image(rule, seed, box_rows(*box))
    result = {"certificate": (payload := outcome.to_payload()), "seed": text[seed]}
    return Answer(_echo(inputs, payload), result, patch=(box, texts))


def cmd_subst(args) -> Answer:
    """A box of a rule's fixed point.  sigma_L's (--L, or a --subst file with no
    "table") is its image under M = Id's local rule, which phi's row pass reads
    with no |det|^2 table; a table's letters are walked cell by cell."""
    if args.subst:
        if args.F:
            raise ValueError("--F cannot be given with --subst: the description file sets F1")
        domain, s = _load_substitution(args.subst)
    else:
        domain, s = _parse_domain_arg(parse_matrix(args.L), args.F), None
    text = domain.texts  # sigma_L's letters are these digits
    if s is None:  # sigma_L's checks, in its order, then M = Id's rule, to each letter's text
        _require_two_letters(domain.base)
        _require_expansion(domain.base)
        alphabet = {a: text[a] for a in domain.reps if any(a)}
        rule = LocalRule(domain, IntMatrix.identity(domain.base.dim), 0, (alphabet,))
        seed = min(alphabet) if args.seed is None else parse_vector(args.seed)
    else:
        alphabet, seed = s.alphabet, _seed(s, args.seed)
    box = (*_parse_box(args.box), domain.base.dim)  # after the seed, so its errors come first
    if s is None:
        texts = _fixed_point_image(rule, seed, box_rows(*box))
    else:
        texts = [*map(format_vector, fixed_point_patch(s, seed, box_positions(*box)).values())]
    inputs = {"L": format_matrix(domain.base), "F": [*text.values()], "box": args.box}
    alphabet = [*map(format_vector, sorted(alphabet))]
    result = {"seed": format_vector(seed), "alphabet": alphabet}
    return Answer(inputs, result, patch=(box, texts))


# ---------------------------------------------------------------------------
# the verification harness
# ---------------------------------------------------------------------------


def _paper_checks():
    """The paper's worked examples, one (label, ok, detail, open) row each.

    An open row records where the printed text and the arithmetic part; its
    ok is the evidence for the computed side, so it fails if that breaks.
    """
    for label, text, tag in (
        ("ex-two-id", "2,0;0,2", "full-gl2"),
        ("ex-three-unipotent", "3,3;0,3", "full-gl2"),
        ("ex-real-irrational", "2,-1;1,5", "centralizer-infinite"),
        ("ex-complex", "2,-1;1,3", "centralizer-finite"),
        ("ex-virtually-z", "6,1;0,2", "virtually-z"),
        ("ex-mixed-radical-klein", "2,1;0,3", "klein-four"),
    ):
        got = classify(parse_matrix(text)).tag
        yield f"classify:{label}", got == tag, f"{text} -> {got}", False
    six = ["-1,-1;1,0", "-1,0;0,-1", "0,-1;1,1", "0,1;-1,-1", "1,0;0,1", "1,1;-1,0"]
    got = sorted({format_matrix(m) for m in classify(parse_matrix("2,-1;1,3")).elements})
    yield "classify:ex-complex-six-elements", got == six, got, False
    v = is_member(parse_matrix("2,-1;1,5"), parse_matrix("2,1;-1,-1"))
    yield "member:ex-real-irrational-automorph", v.member, v.reason, False
    conj = format_matrix(classify(parse_matrix("6,1;0,2")).conjugator)
    yield "classify:ex-virtually-z-conjugator", conj == "1,0;4,1", conj, False
    # recorded discrepancy: the printed expectation for 3,1;0,5 is order-two,
    # but the commuting involution 1,-1;0,-1 passes the normalizer condition
    # at every tested depth, making the group klein-four; each certificate is
    # re-checked by the independent checker
    base5, inv = parse_matrix("3,1;0,5"), parse_matrix("1,-1;0,-1")
    certs = nc_bounded_check(base5, inv, 5)
    oracle = all(c.present and verify_nc_certificate(base5, inv, c) for c in certs)
    detail = {
        "printed_expectation": "order-two",
        "computed": classify(base5).tag,
        "involution": format_matrix(inv),
        "involution_passes_nc_depth_5": oracle,
    }
    yield "classify:ex-two-eigenvalues-OPEN", oracle, detail, True

    hh = half_hex()
    # the first five unimodular draws of random.Random(20240) over entries in [-3, 3]
    sample = [*map(parse_matrix, ("2,1;-1,-1", "-3,1;-1,0", "3,2;1,1", "3,-2;1,-1", "0,1;-1,0"))]
    outcomes = [nl_membership(hh.base, m, domain=hh.domain) for m in sample]
    ok = all(isinstance(r, NLCertificate) and r.k == r.n0 == 0 for r in outcomes)
    yield "nl:half-hex-sample", ok, f"{len(sample)} matrices", False
    swap, shear = parse_matrix("0,1;1,0"), parse_matrix("1,1;0,1")
    comp = composition_check(hh.base, swap, shear, box_positions(-6, 6, 2), domain=hh.domain)
    yield "nl:half-hex-composition", comp, "box -6:6", False
    ks = k_set(hh, 4)
    want = {(-1, 0), (-1, 1), (0, -1), (0, 0)}
    # stable_from is None when the set never settles
    ok = set(ks.points) == want and ks.coverage_ok and ks.stable_from in range(1, 5)
    yield "subst:half-hex-kset", ok, ks.to_payload(), False
    for label, s, want in (("half-hex", hh, 3), ("diag24", sigma_L(parse_matrix("2,0;0,4")), 7)):
        count = fixed_point_count(s)
        yield f"subst:{label}-fixed-points", count == want, count, False
    rec = {f"n{n}": recognizability_check(hh, n)[0] for n in (1, 2)}
    yield "subst:half-hex-recognizability", all(rec.values()), rec, False

    # recorded discrepancy: the definition accepts 1,1;0,1 on diag(2,4), which
    # the closing set a,2b;0,d leaves out; the sliding-block oracle is the evidence
    base = parse_matrix("2,0;0,4")
    even = nl_membership(base, parse_matrix("1,2;0,1"))
    odd = nl_membership(base, parse_matrix("1,1;0,1"))
    detail = {
        "even_accepted": isinstance(even, NLCertificate),
        "odd_accepted": isinstance(odd, NLCertificate),
        "closing_set": "a,2b;0,d with a,d unimodular diagonal",
        "odd_in_closing_set": False,
    }
    ok = True
    if isinstance(odd, NLCertificate):
        rule, s = build_local_rule(odd), sigma_L(odd.L, odd.domain)
        region = box_positions(-5, 5, 2)
        image = dict(zip(region, _fixed_point_image(rule, min(s.alphabet), box_rows(-5, 5, 2))))
        oracle = {
            "tau_equivariance_radius_8": all(
                tau(s, odd.M.mul_vec(v)) == rule.per_level[min(valuation(s, v), odd.n0)][tau(s, v)]
                for v in box_positions(-8, 8, 2)
                if v != (0, 0)
            ),
            "fixed_point_mapping": all(image[t] == tau(s, t) for t in image if t != (0, 0)),
            "self_composition": composition_check(base, odd.M, odd.M, box_positions(-4, 4, 2)),
        }
        detail.update(oracle)
        ok = all(oracle.values())
    detail["definition_verdict_matches_closing_set"] = (
        detail["odd_accepted"] == detail["odd_in_closing_set"]
    )
    yield "nl:diag24-odd-upper-OPEN", ok, detail, True


def run_verify_paper() -> dict:
    """The golden table: FAIL where a check is false, else OPEN or PASS."""
    rows = []
    for label, ok, detail, is_open in _paper_checks():
        status = "FAIL" if not ok else "OPEN" if is_open else "PASS"
        rows.append({"label": label, "status": status, "detail": detail})
    rows.sort(key=lambda r: r["label"])
    count = {s: sum(r["status"] == s for r in rows) for s in ("PASS", "OPEN", "FAIL")}
    return {"rows": rows, "failed": count["FAIL"], "open": count["OPEN"], "passed": count["PASS"]}


def cmd_verify_paper(args) -> Answer:
    result = run_verify_paper()
    table = None
    if args.pretty:
        width = max(len(r["label"]) for r in result["rows"]) + 2
        lines = [f"{r['label']:<{width}} {r['status']:<5} {r['detail']}" for r in result["rows"]]
        lines.append(f"passed={result['passed']} open={result['open']} failed={result['failed']}")
        table = "\n".join(lines)
    return Answer({}, result, EXIT_OK if result["failed"] == 0 else EXIT_NEGATIVE, table=table)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _flags(*names, **settings):
    """An adder of one flag per name, each with these settings, that returns their actions."""
    return lambda p: [p.add_argument(name, **settings) for name in names]


def _add_rule(p):  # subst's rule: sigma_L of --L, or a description file
    rule = p.add_mutually_exclusive_group(required=True)
    return [rule.add_argument("--L"),
            rule.add_argument("--subst", help="substitution description JSON file")]


_F = _flags("--F", help="fundamental domain, vectors split by ';'")
_BASE_MATRIX = (_flags("--base", "--matrix", required=True),)  # member and nc
_PAIR = (_flags("--L", "--M", required=True), _flags("--nmax", type=int, default=8), _F)  # nl, phi
_PATCH = (  # phi and subst
    _flags("--box", required=True, help="lo:hi output box"), _flags("--seed", "--svg", "--pgm")
)

# name, help, handler and the adders of its own flags, in the order help lists them
_SUBCOMMANDS = (
    ("classify", "classify the symmetry group of a base", cmd_classify,
     (_flags("--matrix", required=True, help="rows a,b;c,d"),)),
    ("member", "decide membership of a matrix", cmd_member, _BASE_MATRIX),
    ("nc", "normalizer-condition certificates", cmd_nc,
     (*_BASE_MATRIX, _flags("--depth", type=int, default=6))),
    ("nl", "subshift symmetry certificate", cmd_nl, _PAIR),
    ("phi", "evaluate the sliding-block action", cmd_phi, (*_PAIR, *_PATCH)),
    ("subst", "substitution patches", cmd_subst,
     (_flags("action", choices=["patch"]), _add_rule, _F, *_PATCH)),
    ("verify-paper", "run the golden verification table", cmd_verify_paper, ()),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser.  Its commands map each subcommand to its parser; its tables
    map each subcommand with flags alone (all but subst) to what _walk reads, taken
    from the actions add_argument returns: each flag's (dest, type, takes a value),
    the namespace's defaults and the required dests."""
    ap = argparse.ArgumentParser(
        prog="odosym",
        description="Symmetry groups of Z^d odometers and self-similar subshifts",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands, ap.tables = sub.choices, {}
    for name, text, func, adders in _SUBCOMMANDS:
        p = sub.add_parser(name, help=text)
        acts = [a for add in adders for a in add(p)]
        acts += [p.add_argument("--pretty", action="store_true", help="indented JSON"),
                 p.add_argument("--out", help="write the report to a file")]
        p.set_defaults(func=func, command=name)
        if all(a.option_strings for a in acts):
            ap.tables[name] = (
                {s: (a.dest, a.type or str, a.nargs != 0) for a in acts for s in a.option_strings},
                {a.dest: a.default for a in acts} | {"func": func, "command": name},
                {a.dest for a in acts if a.required},
            )
    return ap


def _walk(flags, defaults, required, argv):
    """The namespace of a subcommand's flags, or None where argparse must read them:
    a token outside the table (-h, an abbreviation), "=" on --pretty, a missing
    value or flag, a value its type refuses or that starts with "-" and no digit."""
    given, rest = {}, iter(argv)
    for tok in rest:
        flag, eq, value = tok.partition("=")
        if (entry := flags.get(flag)) is None:
            return None
        dest, convert, takes = entry
        if takes and not eq:
            value = next(rest, "-")
        if eq and not takes or value[:1] == "-" and not value[1:2].isdecimal():  # the fold's rule
            return None
        try:
            given[dest] = convert(value) if takes else True  # a store_true
        except ValueError:
            return None
    return argparse.Namespace(**defaults | given) if given.keys() >= required else None


_FLAG = re.compile(r"--[A-Za-z][\w-]*")


def _join_flag_values(argv):
    """Fold '--box -8:8' into '--box=-8:8', so a value with a leading minus parses."""
    out = []
    for tok in argv:
        # a value with a leading minus: a minus, then a decimal digit
        if out and tok[:1] == "-" and tok[1:2].isdecimal() and _FLAG.fullmatch(out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_args(argv):
    """The namespace of a command line: its subcommand's table walks it, or the full
    parser reads it, flag values folded, where the walk cannot (see _walk) or there
    is no table (--help, --version, subst, an unknown command, none)."""
    ap = build_parser()
    if argv and (table := ap.tables.get(argv[0])) and (args := _walk(*table, argv[1:])):
        return args
    return ap.parse_args(_join_flag_values(argv))


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    clock = time.perf_counter
    started = clock()
    try:
        answer = args.func(args)
        canon = make_report(args.command, answer.inputs, answer.result, answer.patch)
        if answer.patch is not None and (args.svg or args.pgm):
            if (d := answer.patch[0][2]) != 2:
                raise ValueError(f"--svg and --pgm render 2-D patches only, this patch has d = {d}")
            if args.svg:
                write_svg(answer.patch, args.svg)
            if args.pgm:
                write_pgm(answer.patch, args.pgm)
        emit(canon, round((clock() - started) * 1000, 3), args, answer.table)
        sys.stdout.flush()
        return answer.code
    except BrokenPipeError:
        # Point stdout at devnull so the final flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except MatrixParseError as exc:
        print(f"odosym: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        # every OdosymError is a ValueError
        print(f"odosym: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
