import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import types
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_shared import BENCH, bench_module, coordinate_formula

import odosym
from odosym import cli, intmat, subshift_norm, substitution
from odosym.cli import _join_flag_values, build_parser, main, run_verify_paper
from odosym.errors import DomainCardinalityError, NotExpansionError, SizeGuardError
from odosym.intmat import (
    _DIGIT_LIMIT,
    IntMatrix,
    _Record,
    fundamental_domain,
    is_expansion,
    parse_matrix,
    parse_vector,
    validate_domain,
)
from odosym.odometer import NcCertificate
from odosym.subshift_norm import LocalRule, _fixed_point_image, build_local_rule, nl_membership
from odosym.substitution import (
    ConstantShapeSubstitution,
    box_positions,
    box_rows,
    fixed_point_patch,
    half_hex,
    sigma_L,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_classify_command(capsys):
    code, report = run_cli(["classify", "--matrix", "2,1;0,3"], capsys)
    assert code == 0
    assert report["schema"] == 1
    assert report["result"]["branch"] == "klein-four"
    assert report["result"]["finite"] is True
    # D = 148201: the period of sqrt(D) has 787 terms, and the walk stops
    # at its midpoint, the 394th
    code2, report2 = run_cli(["classify", "--matrix", "0,-392;1,387"], capsys)
    assert code2 == 0
    assert report2["result"]["branch"] == "centralizer-infinite"


def test_size_guard_is_usage_error(capsys):
    # the automorph of this base has more digits than the interpreter prints
    started = time.perf_counter()
    code = main(["classify", "--matrix", "-92397,22060;-34713,70124"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("odosym: SizeGuardError: ")
    assert "D'=23350000321" in captured.err
    assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err
    assert "Traceback" not in captured.err
    assert elapsed < 1


def test_member_exit_codes(capsys):
    code, report = run_cli(
        ["member", "--base", "2,-1;1,5", "--matrix", "1,0;0,1"], capsys
    )
    assert code == 0 and report["result"]["member"] is True
    code2, report2 = run_cli(
        ["member", "--base", "3,1;0,5", "--matrix", "1,1;0,1"], capsys
    )
    assert code2 == 3 and report2["result"]["member"] is False
    # 1,1;0,1 fixes the 3-line (1, 0) but moves the 5-line: det[(1, 2), (3, 2)] = -4
    assert report2["result"] == {"member": False, "reason": "unit-eigenlines", "witness": [0, -4]}


def test_member_on_a_base_whose_unit_does_not_print(capsys):
    # classify raises SizeGuardError here, but membership only needs commutes
    base = "-92397,22060;-34713,70124"
    for matrix, want in (("1,0;0,1", 0), ("0,1;1,0", 3)):
        started = time.perf_counter()
        code, report = run_cli(["member", "--base", base, "--matrix", matrix], capsys)
        assert time.perf_counter() - started < 1
        assert code == want
        assert report["result"]["member"] is (want == 0)
        assert report["result"]["reason"] == "centralizer-commutes"
        assert (report["result"]["witness"] == [0]) is (want == 0)


def test_nc_command_and_roundtrip(capsys):
    code, report = run_cli(
        ["nc", "--base", "2,0;0,2", "--matrix", "0,1;1,0", "--depth", "4"], capsys
    )
    assert code == 0
    assert report["result"]["passes"] is True
    certs = [NcCertificate(**c) for c in report["result"]["certificates"]]
    assert [c.m for c in certs] == [1, 2, 3, 4]
    code2, report2 = run_cli(
        ["nc", "--base", "3,1;0,5", "--matrix", "0,1;1,0", "--depth", "4"], capsys
    )
    assert code2 == 3 and report2["result"]["passes"] is False
    # M = 4*Id - L commutes with L, so m(n) = n at every depth
    code3, report3 = run_cli(
        ["nc", "--base", "3,1;0,5", "--matrix", "1,-1;0,-1", "--depth", "12"], capsys
    )
    assert code3 == 0 and report3["result"]["passes"] is True
    certs3 = [NcCertificate(**c) for c in report3["result"]["certificates"]]
    assert [(c.n, c.m) for c in certs3] == [(n, n) for n in range(1, 13)]


def test_nc_depth_below_one_is_usage_error(capsys):
    for depth in ("0", "-2"):
        code = main(["nc", "--base", "2,0;0,2", "--matrix", "0,1;1,0", "--depth", depth])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "DepthError" in captured.err and "depth must be >= 1" in captured.err


def test_nl_command_exit_codes(capsys):
    code, report = run_cli(["nl", "--L", "2,0;0,4", "--M", "1,2;0,1"], capsys)
    assert code == 0 and report["result"]["accepted"] is True
    code2, report2 = run_cli(["nl", "--L", "2,0;0,4", "--M", "1,0;1,1"], capsys)
    assert code2 == 4
    assert report2["result"]["reason"] == "non-integral-conjugate"
    # outside the odometer's group in d = 2: an exact rejection, exit 3, same keys
    code3, report3 = run_cli(["nl", "--L", "3,1;0,5", "--M", "1,1;0,1"], capsys)
    assert code3 == 3 and set(report3["result"]) == set(report2["result"])
    assert report3["result"]["reason"] == "not-odometer-member"
    assert report3["result"]["detail"] == "is_member: unit-eigenlines, witness [0, -4]"
    # d != 2 keeps the bounded verdict: C_n holds 2^-n below the diagonal
    code4, report4 = run_cli(["nl", "--L", "2,0,0;0,2,0;0,0,4", "--M", "1,0,0;0,1,0;1,0,1"], capsys)
    assert code4 == 4 and report4["result"]["reason"] == "non-integral-conjugate"


def test_phi_command(capsys, tmp_path):
    svg = tmp_path / "patch.svg"
    code, report = run_cli(
        [
            "phi",
            "--L", "2,0;0,2",
            "--M", "0,1;1,0",
            "--F", "0,0;1,0;0,1;1,-1",
            "--box", "-4:4",
            "--svg", str(svg),
        ],
        capsys,
    )
    assert code == 0
    assert report["result"]["certificate"]["k"] == 0
    cells = dict()
    for pos, letter in report["result"]["patch"]:
        cells[tuple(pos)] = tuple(letter)
    assert len(cells) == 9 * 9
    assert svg.exists() and svg.read_text().startswith("<svg")


def test_patch_report_lists_every_cell_once_in_position_order(capsys):
    # the patch written from the box's skeleton: every cell of the box once,
    # in position order, with the letter fixed_point_patch gives it, in the
    # canonical text as in the report's pairs
    want = fixed_point_patch(half_hex(), (0, 1), box_positions(-3, 3, 2))
    argv = ["subst", "patch", "--L", "2,0;0,2", "--F", "0,0;1,0;0,1;1,-1", "--seed", "0,1"]
    for box in ("-3:3", "-3:3", "0:0", "-3:-1"):
        code, report = run_cli([*argv, "--box", box], capsys)
        assert code == 0
        lo, hi = map(int, box.split(":"))
        cells = [(tuple(p), tuple(a)) for p, a in report["result"]["patch"]]
        positions = [p for p, _ in cells]
        assert positions == sorted(set(positions)) == box_positions(lo, hi, 2)
        assert cells == [(t, want[t]) for t in positions]
    # make_report fills one text a cell, each written here from its letter,
    # and leaves result as it was; a text short or over is refused
    texts = [",".join(str(x) for x in want[t]) for t in box_positions(-3, 3, 2)]
    result = {"seed": "0,1"}
    canon = cli.make_report("subst", {}, result, ((-3, 3, 2), texts))
    assert result == {"seed": "0,1"}
    body = json.loads(canon)
    assert [(tuple(p), tuple(a)) for p, a in body["result"]["patch"]] == sorted(want.items())
    assert canon == json.dumps(body, sort_keys=True, separators=(",", ":"))
    for wrong in (texts[:-1], [*texts, "0,1"]):
        with pytest.raises(TypeError):
            cli.make_report("subst", {}, result, ((-3, 3, 2), wrong))


def test_a_cached_skeleton_cannot_be_changed_by_a_caller(capsys):
    # the skeleton kept across requests is the patch's text alone, a str,
    # and what a caller does to the result and the texts it passed does
    # not reach the next request on the box
    argv = ["phi", *PHI_PAYLOAD_HASHES["half-hex"][0]]
    cli._box_skeleton.cache_clear()
    assert main(argv) == 0
    first = re.sub(r',"timing_ms":[0-9.e-]+', "", capsys.readouterr().out)
    skeleton = cli._box_skeleton(-6, 6, 2)
    assert type(skeleton) is str
    positions = box_positions(-6, 6, 2)
    assert skeleton.count("%s") == len(positions)
    result, texts = {}, ["1,0"] * len(positions)
    canon = cli.make_report("phi", {}, result, ((-6, 6, 2), texts))
    assert result == {}
    assert json.loads(canon)["result"]["patch"] == [[list(t), [1, 0]] for t in positions]
    result["patch"] = [((99, 99), (9, 9))]
    texts[0] = "9,9"
    texts.clear()
    assert main(argv) == 0
    again = re.sub(r',"timing_ms":[0-9.e-]+', "", capsys.readouterr().out)
    assert cli._box_skeleton.cache_info().hits >= 2
    assert again == first
    assert json.loads(first)["payload_hash"] == PHI_PAYLOAD_HASHES["half-hex"][1]


def _phi_reports(argvs, capsys):
    """Each request's report with timing_ms masked, and its exit code."""
    out = []
    for argv in argvs:
        code = main(list(argv))
        out.append((code, re.sub(r',"timing_ms":[0-9.e-]+', "", capsys.readouterr().out)))
    return out


def test_golden_phi_reports_are_the_same_from_a_cold_and_a_warm_domain_cache(capsys):
    # the benchmark's 64 seed-0 phi requests: each cold (the cache emptied
    # before it), then all again warm, byte for byte, and every patch the
    # recorded one
    workloads = bench_module("workloads")
    requests = workloads.PhiPatch().requests(0, 64)
    golden = json.loads((BENCH / "phi_digests.json").read_text())
    cold = []
    for req in requests:
        cli._parse_domain_arg.cache_clear()
        cold += _phi_reports([req.argv], capsys)
    assert len(cli._domains) == 1
    warm = _phi_reports([req.argv for req in requests], capsys)
    assert len(cli._domains) == len({(r.argv[2], len(r.argv)) for r in requests}) > 1
    assert warm == cold
    for (code, text), want in zip(warm, golden):
        assert code == 0
        assert workloads.patch_digest(json.loads(text)["result"]) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--L", "3", "--M", "-1", "--box", "-5:5"],
        ["phi", "--L", "2,0,0;0,2,0;0,0,2", "--M", "0,1,0;1,0,0;0,0,-1", "--box", "-6:6"],
        ["nl", "--L", "2,0,0;0,2,0;0,0,2", "--M", "0,1,0;1,0,0;0,0,-1"],
    ],
    ids=["phi-1d", "phi-3d", "nl-3d"],
)
def test_a_request_makes_one_faddeev_pass_per_matrix(argv, capsys, monkeypatch):
    # off d = 2, L and M each keep one Faddeev-LeVerrier pass, which the
    # expansion check and every det, adjugate and inverse of the request read
    calls, faddeev = [], intmat._faddeev
    monkeypatch.setattr(intmat, "_faddeev", lambda rows: calls.append(rows) or faddeev(rows))
    cli._parse_domain_arg.cache_clear()
    assert main(argv) == 0
    capsys.readouterr()
    L, M = (parse_matrix(argv[i]).rows for i in (2, 4))
    assert sorted(calls) == sorted([L, M]), calls


@pytest.mark.parametrize(
    ("argv", "texts"),
    [
        (["phi", "--L", "3,0;0,3", "--M", "1,1;0,1", "--box", "-8:8"], 2),
        (["phi", "--L", "2,0;0,4", "--M", "1,1;0,1", "--box", "-8:8"], 10),
    ],
    ids=["scalar-3", "diag-8"],
)
def test_a_phi_request_builds_one_rule_and_formats_each_matrix_once(
    argv, texts, capsys, monkeypatch
):
    # the echo takes L's and M's texts from the certificate, which formats each
    # object once: L, M and each conjugate the walk yields anew (C_0 is M, and a
    # scalar L repeats it); build_local_rule maps the letters straight to texts
    rules, calls = [], []
    monkeypatch.setattr(
        LocalRule, "__init__", lambda self, *a: rules.append(a) or _Record.__init__(self, *a)
    )
    for module in (cli, subshift_norm):
        fmt = module.format_matrix
        monkeypatch.setattr(
            module, "format_matrix", lambda m, fmt=fmt: calls.append(m.rows) or fmt(m)
        )
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(rules) == 1
    assert {type(text) for level in rules[0][3] for text in level.values()} == {str}
    cert = report["result"]["certificate"]
    matrices = [cert["L"], cert["M"], *cert["conjugates"]]
    assert len(calls) == len(set(calls)) == len({*matrices}) == texts, calls
    assert (report["inputs"]["L"], report["inputs"]["M"]) == (cert["L"], cert["M"])


@pytest.mark.parametrize(
    ("argv", "products"),
    [
        (["phi", "--L", "3,0;0,3", "--M", "1,1;0,1", "--box", "-8:8"], 3),
        (["phi", "--L", "2,0;0,4", "--M", "1,1;0,1", "--box", "-8:8"], 24),
    ],
    ids=["scalar-3", "diag-8"],
)
def test_a_phi_request_makes_three_products_a_step_in_the_walk(
    argv, products, capsys, monkeypatch
):
    # a step forms N L, adj(L) (N L) and the check's L N': the scalar base
    # repeats after one step, and diag-8 walks 8 steps to nmax 8
    calls, mul = [], subshift_norm._rows_mul
    monkeypatch.setattr(subshift_norm, "_rows_mul", lambda a, b: calls.append(a) or mul(a, b))
    assert main(argv) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= products, len(calls)


def test_a_bad_domain_raises_the_same_error_on_every_call(capsys):
    argv = ["nl", "--L", "2,0;0,2", "--M", "0,1;1,0", "--F", "0,0;1,0;0,1;2,0"]
    cli._parse_domain_arg.cache_clear()
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] != ""
    assert "DomainCosetCollisionError" in errors[0] and cli._domains == {}
    with pytest.raises(DomainCardinalityError):
        cli._parse_domain_arg(parse_matrix("2,0;0,2"), "0,0;1,0")
    assert cli._domains == {}


def test_the_domain_cache_holds_at_most_one_largest_domain(capsys):
    # 2,0;0,50000 has 100,000 digits, F's limit: about 24 MB with their texts,
    # which the next domain puts out of the cache
    cli._parse_domain_arg.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["nl", "--L", "2,0;0,50000", "--M", "1,0;0,1"]) == 0
        capsys.readouterr()
        held_big = tracemalloc.get_traced_memory()[0] - before
        for L in ("2,0;0,2", "3,0;0,3", "2,0;0,4", "2,0;0,2"):
            assert main(["nl", "--L", L, "--M", "1,0;0,-1"]) == 0
        capsys.readouterr()
        held_small = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept = [len(domain.reps) for domain in cli._domains.values()]
    assert kept == [9, 8, 4] and sum(kept) <= _DIGIT_LIMIT
    assert held_big > 10_000_000 and held_small < 2_000_000, (held_big, held_small)
    # a second largest domain puts out every other one
    big = cli._parse_domain_arg(parse_matrix("50000,0;0,2"), None)
    assert list(cli._domains.values()) == [big]


def test_a_domain_miss_reads_no_kept_domain(monkeypatch):
    # the kept digits are a running total, so a miss costs the same with 2,000
    # domains kept as with none
    class Counting(dict):
        reads = 0

        def _read(self, view):
            Counting.reads += 1
            return view

        def values(self):
            return self._read(super().values())

        def items(self):
            return self._read(super().items())

        def keys(self):
            return self._read(super().keys())

        def __iter__(self):
            return self._read(super().__iter__())

    cli._parse_domain_arg.cache_clear()
    monkeypatch.setattr(cli, "_domains", Counting())
    for k in range(2000):
        cli._parse_domain_arg(parse_matrix(f"2,0;{k},1"), None)
    assert len(cli._domains) == 2000 and cli._held == 4000
    Counting.reads = 0
    domain = cli._parse_domain_arg(parse_matrix("3,0;0,3"), None)
    assert Counting.reads == 0
    assert cli._held == 4009 and list(cli._domains.values())[-1] is domain
    cli._parse_domain_arg.cache_clear()
    assert cli._domains == {} and cli._held == 0
    cli._parse_domain_arg(parse_matrix("2,0;0,2"), None)
    assert cli._held == 4
    cli._parse_domain_arg.cache_clear()  # the module's own dict comes back empty, as _held is


def test_a_caller_cannot_change_a_kept_domain_through_a_report(capsys):
    # F and residue_permutation are lists built per request from the kept
    # domain's texts, which are strs: changing them reaches no later request
    argv = ["phi", *PHI_PAYLOAD_HASHES["half-hex"][0]]
    cli._parse_domain_arg.cache_clear()
    first = _phi_reports([argv], capsys)
    args = cli._parse_args(argv)
    answer = args.func(args)
    answer.inputs["F"].append("9,9")
    answer.inputs["F"][0] = "9,9"
    for pair in answer.result["certificate"]["residue_permutation"]:
        pair[0], pair[1] = "9,9", "9,9"
    answer.result["certificate"]["residue_permutation"].clear()
    assert _phi_reports([argv], capsys) == first
    assert json.loads(first[0][1])["payload_hash"] == PHI_PAYLOAD_HASHES["half-hex"][1]
    assert len(cli._domains) == 1


def test_the_benchmark_clear_caches_empties_the_domain_cache(capsys):
    assert main(["nl", "--L", "3,0;0,3", "--M", "0,1;1,0"]) == 0
    capsys.readouterr()
    assert cli._domains
    bench_module("tracing").clear_caches()
    assert cli._domains == {}
    assert main(["nl", "--L", "3,0;0,3", "--M", "0,1;1,0"]) == 0
    capsys.readouterr()
    assert [len(domain.reps) for domain in cli._domains.values()] == [9]


def test_phi_rejected_matrix_exits_inconclusive(capsys):
    code, report = run_cli(
        ["phi", "--L", "2,0;0,4", "--M", "1,0;1,1", "--box", "-3:3"], capsys
    )
    assert code == 4
    assert report["result"]["accepted"] is False
    # a rejected phi echoes the same inputs as nl, with its box
    assert report["inputs"]["nmax"] == 8
    code, report = run_cli(["phi", "--L", "3,1;0,5", "--M", "1,1;0,1", "--box", "-3:3"], capsys)
    assert code == 3 and report["result"]["reason"] == "not-odometer-member"
    assert "patch" not in report["result"]


def test_subst_command_spec_invocation(capsys, tmp_path):
    pgm = tmp_path / "patch.pgm"
    code, report = run_cli(
        [
            "subst", "patch",
            "--L", "2,0;0,2",
            "--F", "0,0;1,0;0,1;1,-1",
            "--seed", "1,0",
            "--box", "-8:8",
            "--pgm", str(pgm),
        ],
        capsys,
    )
    assert code == 0
    cells = {tuple(p): tuple(a) for p, a in report["result"]["patch"]}
    assert cells[(0, 0)] == (1, 0)
    assert cells[(3, 1)] == (1, -1)
    assert len(cells) == 17 * 17
    assert pgm.read_text().startswith("P2")


@pytest.mark.parametrize("flag", ["--svg", "--pgm"])
@pytest.mark.parametrize(
    "d, argv",
    [
        (1, ["phi", "--L", "5", "--M", "-1", "--box", "-3:3"]),
        (1, ["subst", "patch", "--L", "5", "--box", "-3:3"]),
        (3, ["phi", "--L", "3,0,0;0,3,0;0,0,3", "--M", "0,1,0;1,0,0;0,0,1", "--box", "-1:1"]),
        (3, ["subst", "patch", "--L", "3,0,0;0,3,0;0,0,3", "--box", "-1:1"]),
    ],
)
def test_rendering_needs_a_plane_patch(d, argv, flag, capsys, tmp_path):
    # a 1-D or 3-D patch has no image: usage error naming d, and no file
    image = tmp_path / "patch"
    code = main([*argv, flag, str(image)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"odosym: ValueError: --svg and --pgm render 2-D patches only, this patch has d = {d}\n"
    )
    assert not image.exists()


IMAGE_HASHES = [
    (
        ["phi", "--L", "2,0;0,2", "--M", "0,1;1,0", "--F", "0,0;1,0;0,1;1,-1", "--box", "-4:4"],
        "64fc03f2b7ce4e5cacf9f5ec5f5e7ffd110190463c44445c0ed8cb26e2946703",
        "54f26a123c10129bc82311b0231d7d777cfc91b67c83fa02f90e892844bb018c",
    ),
    (
        ["subst", "patch", "--L", "2,0;0,2", "--F", "0,0;1,0;0,1;1,-1", "--seed", "1,0"]
        + ["--box", "-8:8"],
        "c653055b1afde1bc84660e838492df797923a62d7317ab598e9869a47dc7c92c",
        "db3cd208610449af42095724b4497dd378bbfcef1cf6029e7ee2621e03cb5e4d",
    ),
    # the two above are symmetric under y -> -y; these are not, and the
    # second box is off the origin
    (
        ["phi", "--L", "2,0;0,4", "--M", "1,1;0,1", "--box", "-4:4"],
        "3fd99f7f370a7d09ca2fc9440a0525dff418d7801e620320cbf9d8a37bfa9678",
        "dcd9e077f0a8858e2cde9aedcd6665aeb6ccc0ee3fc5eca39b0f0cac02b10fcb",
    ),
    (
        ["subst", "patch", "--L", "2,0;0,4", "--box", "-2:3"],
        "74f25b797563d4f37aaf2ccb670ec4f505a640ba81c95af435f1e045374966b7",
        "22f6600c56fc594e4d05d094622ba40ae62cd61829000fe5042224d1602d6c25",
    ),
    # a letter of two-digit coordinates: 10,0 comes after 2,0 as a vector,
    # before it as a text, so a colour order taken from the texts shows here
    (
        ["phi", "--L", "11,0;0,2", "--M", "1,0;0,-1", "--box", "-3:3"],
        "01d84988fea300f12d3806e31a65e61793a385f914e97dd6a225bb0f16ea30a4",
        "47417456dc084fe05fceae386a812cc08ee341be15fbabbae290b68c37fc82bb",
    ),
]


def test_every_writer_writes_pinned_bytes(capsys, tmp_path):
    # the --svg and --pgm files, byte for byte, and --pretty as the compact
    # report re-indented, on a report of every command
    svg, pgm = tmp_path / "patch.svg", tmp_path / "patch.pgm"
    for argv, svg_hash, pgm_hash in IMAGE_HASHES:
        assert main([*argv, "--svg", str(svg), "--pgm", str(pgm)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_hash
        assert hashlib.sha256(pgm.read_bytes()).hexdigest() == pgm_hash
    for argv in REPORT_OF_EVERY_COMMAND + PATCH_REPORTS:
        assert main(argv) in (0, 3, 4)
        compact = json.loads(capsys.readouterr().out)
        assert main([*argv, "--pretty"]) in (0, 3, 4)
        pretty = capsys.readouterr().out
        if argv[0] == "verify-paper":  # --pretty prints a table; --out has the JSON
            out = tmp_path / "report.json"
            assert main([*argv, "--pretty", "--out", str(out)]) == 0
            assert capsys.readouterr().out == pretty
            pretty = out.read_text()
        assert pretty.endswith("}\n")
        assert json.loads(pretty).pop("timing_ms") >= 0 and compact.pop("timing_ms") >= 0
        without_timing, found = re.subn(r'\n  "timing_ms": [0-9.e-]+,', "", pretty)
        assert found == 1 and without_timing == json.dumps(compact, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", [["subst", "patch"], ["phi", "--M", "0,1;1,0"]])
def test_empty_seed_is_a_parse_error(command, capsys):
    # an empty --seed names no letter; it is not the default seed
    code = main([*command, "--L", "3,0;0,3", "--box", "-1:1", "--seed", ""])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("odosym: parse error: ")


def test_subst_never_scans_self_similarity(capsys, monkeypatch):
    # the letters come from the rule's own images, whatever the rule
    calls = []
    scan = ConstantShapeSubstitution.is_self_similar

    def counted(s):
        calls.append(s.base)
        return scan(s)

    monkeypatch.setattr(ConstantShapeSubstitution, "is_self_similar", counted)
    code, report = run_cli(["subst", "patch", "--L", "3,0;0,3", "--box", "-2:2"], capsys)
    assert code == 0
    assert len(report["result"]["patch"]) == 25
    assert calls == []


def test_box_guard_is_usage_error_naming_the_limit(capsys):
    # 2003^2 = 4,012,009 cells, over the 4,000,000-cell limit
    started = time.perf_counter()
    code = main(["subst", "patch", "--L", "2,0;0,2", "--box", "-1001:1001"])
    captured = capsys.readouterr()
    assert time.perf_counter() - started < 1
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "odosym: SizeGuardError: the box -1001:1001 in d = 2 has 4012009 cells, "
        "over the limit of 4000000 cells\n"
    )


def test_subst_description_file(capsys, tmp_path):
    desc = tmp_path / "rule.json"
    desc.write_text(
        json.dumps({"L": "2,0;0,2", "F1": [[0, 0], [1, 0], [0, 1], [1, -1]]})
    )
    code, report = run_cli(
        ["subst", "patch", "--subst", str(desc), "--box", "-2:2"], capsys
    )
    assert code == 0
    assert len(report["result"]["alphabet"]) == 3


def test_subst_description_file_excludes_f(capsys, tmp_path):
    # the file sets F1, so a domain given by --F as well would be dropped unread
    desc = tmp_path / "rule.json"
    desc.write_text(json.dumps({"L": "2,0;0,2", "F1": [[0, 0], [1, 0], [0, 1], [1, -1]]}))
    argv = ["subst", "patch", "--subst", str(desc), "--F", "0,0;1,0;0,1;1,1", "--box", "-1:1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "odosym: ValueError: --F cannot be given with --subst: the description file sets F1\n"
    )


def test_subst_description_file_with_table(capsys, tmp_path):
    # explicit table equal to the digit rule: behavior must match
    hh = half_hex()
    table = {
        ",".join(map(str, a)): [[list(f), list(b)] for f, b in sorted(hh.table[a].items())]
        for a in hh.alphabet
    }
    desc = tmp_path / "rule.json"
    desc.write_text(
        json.dumps(
            {"L": [[2, 0], [0, 2]], "F1": [[0, 0], [1, 0], [0, 1], [1, -1]], "table": table}
        )
    )
    code, report = run_cli(
        ["subst", "patch", "--subst", str(desc), "--seed", "1,0", "--box", "-3:3"],
        capsys,
    )
    assert code == 0
    cells = {tuple(p): tuple(a) for p, a in report["result"]["patch"]}
    assert cells[(0, 0)] == (1, 0) and cells[(3, 1)] == (1, -1)


def _two_letter_rule(base, F1, image):
    """Description file data: letters (0,1) and (1,0), image(a, f) at offset f."""
    letters = [(0, 1), (1, 0)]
    table = {
        ",".join(map(str, a)): [[list(f), list(image(a, f))] for f in F1] for a in letters
    }
    return {"L": base, "F1": [list(f) for f in F1], "table": table}


def _swap_letter(a, f):
    return a if f == (0, 0) else (a[1], a[0])


def test_subst_general_rule_must_cover_the_box(capsys, tmp_path):
    quadrant = [(x, y) for x in (0, 1) for y in (0, 1)]
    cases = [
        # supports stay in the positive quadrant: 9 of the 25 cells
        (_two_letter_rule("2,0;0,2", quadrant, _swap_letter), "MarginError", "9 of the 25"),
        (_two_letter_rule("1,0;0,1", [(0, 0)], _swap_letter), "NotExpansionError", "1,0;0,1"),
        (_two_letter_rule("2,0;0,1", [(0, 0), (1, 0)], _swap_letter), "NotExpansionError", "2,0;0,1"),
    ]
    desc = tmp_path / "rule.json"
    for data, error, detail in cases:
        desc.write_text(json.dumps(data))
        code = main(["subst", "patch", "--subst", str(desc), "--box", "-2:2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"odosym: {error}: ") and detail in captured.err
    # a non-expansion base given by --L is rejected too, instead of looping in tau
    assert main(["subst", "patch", "--L", "3,0;0,1", "--box", "-2:2"]) == 2
    assert "NotExpansionError" in capsys.readouterr().err
    # balanced digits reach every cell from the origin; this rule swaps the
    # letter at the origin, so no letter is the origin letter of a fixed point
    square = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    desc.write_text(
        json.dumps(_two_letter_rule("3,0;0,3", square, lambda a, f: a if sum(f) % 2 else a[::-1]))
    )
    assert main(["subst", "patch", "--subst", str(desc), "--box", "-4:4"]) == 2
    assert capsys.readouterr().err == (
        "odosym: ValueError: no letter is fixed at the origin of its image, so none can seed\n"
    )
    for seed, letter in (("0,1", "(0, 1)"), ("1,0", "(1, 0)")):
        assert main(["subst", "patch", "--subst", str(desc), "--seed", seed, "--box", "-4:4"]) == 2
        assert capsys.readouterr().err == (
            f"odosym: ValueError: seed {letter} is not fixed at the origin of its image\n"
        )
    # keeping the origin letter makes a fixed point, whose letters do not
    # depend on the box
    desc.write_text(
        json.dumps(
            _two_letter_rule("3,0;0,3", square, lambda a, f: a if sum(f) % 2 or not any(f) else a[::-1])
        )
    )
    for box in ("-1:1", "-4:4"):
        code, report = run_cli(["subst", "patch", "--subst", str(desc), "--box", box], capsys)
        assert code == 0
        cells = {tuple(p): tuple(a) for p, a in report["result"]["patch"]}
        assert cells[(0, 0)] == (0, 1) and cells[(1, 1)] == (1, 0) and cells[(1, 0)] == (0, 1)
    assert len(cells) == 81


SHEAR = "1,1;0,1"
NOT_AN_EXPANSION = "odosym: NotExpansionError: not an expansion matrix: 1,1;0,1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["nc", "--base", SHEAR, "--matrix", "1,0;0,1"],
        ["member", "--base", SHEAR, "--matrix", "1,0;0,1"],
        ["classify", "--matrix", SHEAR],
        ["nl", "--L", SHEAR, "--M", "1,0;0,1"],
        ["phi", "--L", SHEAR, "--M", "1,0;0,1", "--box", "0:1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_non_expansion_base_is_named_in_one_message(argv, capsys):
    assert main(argv) == 2
    assert tuple(capsys.readouterr()) == ("", NOT_AN_EXPANSION)


def test_a_rule_on_a_non_expansion_base_is_named_in_the_same_message():
    L = parse_matrix(SHEAR)
    with pytest.raises(NotExpansionError) as raised:
        ConstantShapeSubstitution(fundamental_domain(L), {})
    assert f"odosym: NotExpansionError: {raised.value}\n" == NOT_AN_EXPANSION


def test_subst_default_seed_is_the_least_origin_fixed_letter(capsys, tmp_path):
    # (0, 1) writes (1, 0) everywhere, so only (1, 0), the greater letter, is
    # fixed at the origin of its image; with L = -2 Id every digit walk
    # reaches the origin
    def image(a, f):
        return (0, 1) if a == (1, 0) and any(f) else (1, 0)

    quadrant = [(x, y) for x in (0, 1) for y in (0, 1)]
    desc = tmp_path / "rule.json"
    desc.write_text(json.dumps(_two_letter_rule("-2,0;0,-2", quadrant, image)))
    argv = ["subst", "patch", "--subst", str(desc), "--box", "-3:3"]
    code, default = run_cli(argv, capsys)
    assert code == 0 and default["result"]["seed"] == "1,0"
    code, given = run_cli([*argv, "--seed", "1,0"], capsys)
    assert code == 0 and given["result"] == default["result"]
    assert len(default["result"]["patch"]) == 49


def test_subst_quadrant_rule_fails_fast(capsys, tmp_path):
    # the digit walks of the cells off the positive quadrant circle below
    # the origin, so they stay unfilled without building a larger patch
    desc = tmp_path / "rule.json"
    quadrant = [(x, y) for x in (0, 1) for y in (0, 1)]
    desc.write_text(json.dumps(_two_letter_rule("2,0;0,2", quadrant, _swap_letter)))
    tracemalloc.start()
    try:
        code = main(["subst", "patch", "--subst", str(desc), "--box", "-80:80"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("odosym: MarginError: ") and "6561 of the 25921" in err
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "cells",
    [[], [[[x + 2, y], [1, 0]] for x, y in ((0, 0), (1, 0), (0, 1), (1, -1))]],
    ids=["letter-without-image", "image-off-F1"],
)
def test_subst_table_images_must_lie_on_f1(capsys, tmp_path, cells):
    desc = tmp_path / "rule.json"
    F1 = [[0, 0], [1, 0], [0, 1], [1, -1]]
    desc.write_text(json.dumps({"L": "2,0;0,2", "F1": F1, "table": {"1,0": cells}}))
    assert main(["subst", "patch", "--subst", str(desc), "--box", "-1:1"]) == 2
    err = capsys.readouterr().err
    assert err == "odosym: ValueError: image patterns must be supported exactly on F1\n"


def test_subst_general_rule_letters_must_be_in_the_alphabet(capsys, tmp_path):
    quadrant = [(x, y) for x in (0, 1) for y in (0, 1)]
    desc = tmp_path / "rule.json"
    stray = _two_letter_rule("2,0;0,2", quadrant, lambda a, f: (9, 9) if f == (1, 1) else a)
    desc.write_text(json.dumps(stray))
    assert main(["subst", "patch", "--subst", str(desc), "--box", "-1:1"]) == 2
    err = capsys.readouterr().err
    assert err == "odosym: ValueError: the image of (0, 1) uses a letter outside the alphabet\n"
    desc.write_text(json.dumps(_two_letter_rule("2,0;0,2", quadrant, _swap_letter)))
    argv = ["subst", "patch", "--subst", str(desc), "--seed", "5,5", "--box", "-1:1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "odosym: ValueError: seed (5, 5) is not a letter\n"


def test_parse_error_exit_code(capsys):
    code = main(["classify", "--matrix", "2,x;0,3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "argv, error",
    [
        pytest.param(
            ["phi", "--L", "2,0;0,2", "--M", "0,1;1,0", "--F", "0,0;1,0;0,1;1,-1",
             "--box", "-1:1", "--seed", "5,5"],
            "ValueError: seed (5, 5) is not a letter",
            id="phi-seed-not-a-letter",
        ),
        pytest.param(
            ["subst", "patch", "--L", "2,0;0,2", "--F", "0,0;1,0;0,1;1,-1",
             "--seed", "5,5", "--box", "-1:1"],
            "ValueError: seed (5, 5) is not a letter",
            id="subst-seed-not-a-letter",
        ),
        pytest.param(
            ["member", "--base", "2,0;0,2", "--matrix", "2,0;0,1"],
            "ValueError: matrix must be unimodular, det = 2",
            id="member-not-unimodular",
        ),
        pytest.param(
            ["nl", "--L", "2,0;0,4", "--M", "1,2;0,1", "--nmax", "2"],
            "ValueError: n_max must be >= 4",
            id="nl-nmax-too-small",
        ),
        pytest.param(
            ["classify", "--matrix", "2,0;0,2", "--out", "{tmp}"],
            "IsADirectoryError: ",
            id="out-is-a-directory",
        ),
        pytest.param(
            ["classify", "--matrix", "2,0,0;0,2,0;0,0,2"],
            "ValueError: classification is for 2x2 bases",
            id="classify-3x3",
        ),
        pytest.param(
            ["phi", "--L", "2,0;0,2", "--M", "0,1;1,0", "--box", "8"],
            "parse error: bad box '8', expected lo:hi",
            id="box-without-colon",
        ),
        pytest.param(
            ["subst", "patch", "--L", "2,0;0,2", "--box", "3:-3"],
            "parse error: empty box '3:-3'",
            id="box-empty",
        ),
        pytest.param(
            ["member", "--base", "2,0;0,2", "--matrix", "1,0,0;0,1,0;0,0,1"],
            "ValueError: a 2x2 base needs a 2x2 matrix, got 3x3",
            id="member-dims-differ",
        ),
        pytest.param(
            ["nl", "--L", "2,0,0;0,2,0;0,0,2", "--M", "0,1;1,0"],
            "ValueError: cannot multiply a 3x3 matrix by a 2x2 one",
            id="nl-dims-differ",
        ),
        pytest.param(
            ["nc", "--base", "2,0;0,2", "--matrix", "1,0,0;0,1,0;0,0,1"],
            "ValueError: cannot multiply a 2x2 matrix by a 3x3 one",
            id="nc-dims-differ",
        ),
        pytest.param(
            ["phi", "--L", "2,0;0,2", "--M", "1,0,0;0,1,0;0,0,1", "--box", "-1:1"],
            "ValueError: cannot multiply a 2x2 matrix by a 3x3 one",
            id="phi-dims-differ",
        ),
        pytest.param(
            ["nl", "--L", "1,2;2,4", "--M", "1,0;0,1"],
            "SingularMatrixError: fundamental domain needs det != 0",
            id="fundamental-domain-singular",
        ),
        pytest.param(
            ["nl", "--L", "1,2;2,4", "--M", "1,0;0,1", "--F", "0,0;1,0"],
            "SingularMatrixError: fundamental domain needs det != 0",
            id="validate-domain-singular",
        ),
        pytest.param(
            ["nc", "--base", "3,1;0,5", "--matrix", "1,-1;0,-1", "--depth", "1001"],
            "SizeGuardError: depth 1001, over the limit of 1000",
            id="nc-depth-over-the-limit",
        ),
        pytest.param(
            ["nl", "--L", "3,1;0,5", "--M", "1,0;0,1", "--nmax", "1001"],
            "SizeGuardError: nmax 1001, over the limit of 1000",
            id="nl-nmax-over-the-limit",
        ),
        pytest.param(
            ["phi", "--L", "3,1;0,5", "--M", "1,0;0,1", "--nmax", "1001", "--box", "-1:1"],
            "SizeGuardError: nmax 1001, over the limit of 1000",
            id="phi-nmax-over-the-limit",
        ),
    ],
)
def test_value_and_os_errors_are_usage_errors(argv, error, capsys, tmp_path):
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"odosym: {error}")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [["nl"], ["phi", "--box", "-1:1"]], ids=["nl", "phi"])
def test_nmax_at_the_limit_is_answered(command, capsys):
    # 1,000 is allowed (1,001 exits 2 above); M = Id is integral at every level
    argv = [command[0], "--L", "3,1;0,5", "--M", "1,0;0,1", "--nmax", "1000", *command[1:]]
    code, report = run_cli(argv, capsys)
    assert code == 0 and report["inputs"]["nmax"] == 1000
    cert = report["result"] if command == ["nl"] else report["result"]["certificate"]
    assert cert["accepted"] and cert["n_max"] == 1000
    assert cert["conjugates"] == ["1,0;0,1"] * 1001
    if command != ["nl"]:
        cells = [p for p, _ in report["result"]["patch"]]
        assert cells == [[x, y] for x in (-1, 0, 1) for y in (-1, 0, 1)]


def test_usage_error_for_nonexpansion(capsys):
    code = main(["classify", "--matrix", "1,1;0,1"])
    assert code == 2


def test_report_hash_deterministic(capsys):
    _, r1 = run_cli(["classify", "--matrix", "2,-1;1,3"], capsys)
    _, r2 = run_cli(["classify", "--matrix", "2,-1;1,3"], capsys)
    assert r1["payload_hash"] == r2["payload_hash"]
    body1 = {k: v for k, v in r1.items() if k not in ("payload_hash", "timing_ms")}
    body2 = {k: v for k, v in r2.items() if k not in ("payload_hash", "timing_ms")}
    assert body1 == body2


def test_report_json_roundtrip_bit_identical(capsys):
    _, report = run_cli(["nl", "--L", "2,0;0,4", "--M", "1,1;0,1"], capsys)
    text = json.dumps(report, sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text


def test_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["classify", "--matrix", "2,0;0,2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["result"]["branch"] == "full-gl2"


def test_verify_paper_pretty_prints_only_the_table(capsys, tmp_path):
    assert main(["verify-paper", "--pretty"]) == 0
    table = capsys.readouterr().out
    lines = table.splitlines()
    assert len(lines) == 18  # 17 rows and the summary
    assert lines[-1] == "passed=15 open=2 failed=0"
    assert not any(line.lstrip().startswith("{") for line in lines)
    out = tmp_path / "report.json"
    assert main(["verify-paper", "--pretty", "--out", str(out)]) == 0
    assert capsys.readouterr().out == table
    text = out.read_text()
    assert text.startswith('{\n  "command": "verify-paper",\n')
    report = json.loads(text)
    assert report["payload_hash"] == (
        "1df971094f836e6e6e0b7a81f55a8e3a61bed1e02575b1ab216bc63434f75f90"
    )
    assert (report["result"]["passed"], report["result"]["open"]) == (15, 2)


# payload_hash prefixes of classify reports, recorded before is_member and the
# finite/virtually-Z split moved to the unit eigenlines: one base per branch
# and per virtually-Z shape, and the golden-table bases; 0,-392;1,387, whose
# automorph has about 400 digits, was recorded before the Pell walk dropped
# its numerators
CLASSIFY_PAYLOAD_HASHES = {
    "0,-392;1,387": "3e5c4c145123",
    "2,0;0,2": "dbf87088a90a",
    "2,-1;1,5": "90f26407a4c4",
    "2,-1;1,3": "628315ba526f",
    "6,1;0,2": "be5e1327fc33",
    "2,1;0,3": "6c7594d13e21",
    "3,1;0,5": "16e704fa6055",
    "6,4;0,2": "95aecd77d71b",
    "3,1;0,6": "4036fc188746",
    "6,0;0,2": "85edb35418fb",
    "4,1;2,5": "771b910fe1ac",
    "4,2;1,3": "47dba6521afa",
}


@pytest.mark.parametrize("base", sorted(CLASSIFY_PAYLOAD_HASHES))
def test_classify_payload_hash_is_pinned(capsys, base):
    code, report = run_cli(["classify", "--matrix", base], capsys)
    assert code == 0
    assert report["payload_hash"].startswith(CLASSIFY_PAYLOAD_HASHES[base])


def test_classify_payload_hashes_of_drawn_real_irrational_bases(capsys):
    # 300 seeded expansive bases with entries in [-600, 600] and a positive
    # non-square discriminant: centralizer-infinite or full-gl2.  The digest
    # over their payload hashes was recorded before the Pell walk dropped
    # its numerators and the automorph was formatted once
    rng = random.Random(4201)
    bases, digest = set(), hashlib.sha256()
    while len(bases) < 300:
        a, b, c, d = (rng.randint(-600, 600) for _ in range(4))
        disc = (a + d) ** 2 - 4 * (a * d - b * c)
        L = ((a, b), (c, d))
        if disc <= 0 or isqrt(disc) ** 2 == disc or L in bases:
            continue
        if not is_expansion(IntMatrix(L)):
            continue
        bases.add(L)
        code, report = run_cli(["classify", "--matrix", f"{a},{b};{c},{d}"], capsys)
        assert code == 0
        digest.update(report["payload_hash"].encode())
    assert digest.hexdigest() == (
        "0d8cf97323f20eddbda0a15997c6d00fe2c8807b512c1bec2035b6d623be7032"
    )


# payload_hash of phi reports, and the sha256 of their canonical result, for
# the README half-hex example, a scalar base, a window-level (n0 = 1) diagonal
# base, a 3-D base that takes the general d-loop, and two n0 = 2 pairs on
# diag(4, 8).  The results are those of the reports recorded before the 2-D
# kernels; the payload hashes were re-recorded when the echoed inputs gained
# F, which left every result as it was.  The n0 = 2 reports were recorded when
# the window was all of F_{n0}, which took about 4 s a request
PHI_PAYLOAD_HASHES = {
    "half-hex": (
        ["--L", "2,0;0,2", "--M", "0,1;1,0", "--F", "0,0;1,0;0,1;1,-1", "--box", "-6:6"],
        "f4dbed3cb37b9282dcbf96d638a627f982f2eb349a36dc91d802fd70e96a9462",
        "b8308174bc9c86e8df10ae74572f0fd2c509b33013067ba1f44b10ff590d059e",
    ),
    "scalar-3": (
        ["--L", "3,0;0,3", "--M", "1,1;0,1", "--box", "-5:5"],
        "1c8de508eefe88d150db9fdb9cf94f5c81e47aaf3c23bda0cca4bdfa13559b38",
        "5b392217a1a7a43b927f2bb3bd6f2ee5e1934b2db0a05347772e3ceced99756e",
    ),
    "diag-2-4": (
        ["--L", "2,0;0,4", "--M", "1,1;0,1", "--box", "-5:5"],
        "feab926938619e2e63234e77e4c635bd268ac31eedcf33e474de6928d72096b9",
        "5305cf0ecd515d41cf6dfef0d51fb28ff75cacd3517178320d8c480787f2775d",
    ),
    "diag-2-2-4": (
        ["--L", "2,0,0;0,2,0;0,0,4", "--M", "1,0,1;0,1,0;0,0,1", "--box", "-2:2"],
        "6022a940dfc67cd5fe641cb4ce5fb031bfba38be1596233c6d4a29f1f3750794",
        "5d22c132eb5e7c433fa999fcd16584afb6590e13baf95f741962867b078e0591",
    ),
    "diag-4-8-shear": (
        ["--L", "4,0;0,8", "--M", "1,1;0,1", "--box", "-10:10"],
        "4da609d513b440244c6f84e26e1ddab46f84ca3e06faad4d752d80cae63ec98e",
        "2f1d2b75adb489c30e0ca0b92136322f187d3cbafb7895c8ea5747c1d007c460",
    ),
    "diag-4-8-negated-shear": (
        ["--L", "4,0;0,8", "--M", "-1,-1;0,-1", "--box", "-10:10"],
        "8e60e129211b93e081014b90030fbf84e4cb6b9ff34b753ae66444833cad4e46",
        "0b81e7c00fbcba732c69c842c4e8f626af1c0b9e6beff110cc2774cf1eb1a4c9",
    ),
    # CI's 1-D and 3-D smoke reports: the general loops of the row pass
    "d1-3-negated": (
        ["--L", "3", "--M", "-1", "--box", "-200:200"],
        "336dd672ab2ded567c0b9fa1cd63d1528070ad0d07590f2f4d1be1ecfa67edc8",
        "631275afacd670ba13d9311669b7e542b14a00c71a7bad97c8eb946242ead521",
    ),
    "diag-2-2-4-box-3": (
        ["--L", "2,0,0;0,2,0;0,0,4", "--M", "1,0,1;0,1,0;0,0,1", "--box", "-3:3"],
        "90d78ad6248560dcc3c1511c95cbc42b2a9fc23d1290a5d8993208556f2efbd7",
        "4416fdf065a3dd68179a827dac5416de9b4bdcc54581d042b08bb277bb199473",
    ),
    "two-id-3-swap": (
        ["--L", "2,0,0;0,2,0;0,0,2", "--M", "0,1,0;1,0,0;0,0,-1", "--box", "-6:6"],
        "74e61e81c112fa968f21c06b72daa66a9e5a9fa23f488b475cc4369f012e20a5",
        "00561c2b29d2cb611d02d5204797e2cdd272df6cf2ef862860e6d05739d66f9a",
    ),
}


@pytest.mark.parametrize("case", sorted(PHI_PAYLOAD_HASHES))
def test_phi_payload_hash_is_pinned(capsys, case):
    argv, want, want_result = PHI_PAYLOAD_HASHES[case]
    code, report = run_cli(["phi", *argv], capsys)
    assert code == 0
    assert report["payload_hash"] == want
    canon = json.dumps(report["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == want_result


def test_phi_builds_no_sigma_L(capsys, monkeypatch):
    # the rule's levels are the certificate's actions and the one pass reads
    # the domain: with sigma_L's table refused, every pinned phi hash comes out
    def refused(domain):
        raise AssertionError("phi built sigma_L's table")

    monkeypatch.setattr(substitution, "_sigma_table", refused)
    pinned = [(argv, want) for argv, want, _ in PHI_PAYLOAD_HASHES.values()] + [
        (
            ["--L", "3", "--M", "-1", "--box", "-5:5"],
            "e2dc55dc979082eb911cc5251a720cff19daeab22bdb34b6ec6fd0d2426e5efe",
        ),
        (
            ["--L", "8,0;0,16", "--M", "1,1;0,1", "--box", "-3:3"],
            "64bfc5e1d30978f873ff2fbf956839f02cb4d9c16844533494b549f9661a2f68",
        ),
    ]
    for argv, want in pinned:
        code, report = run_cli(["phi", *argv], capsys)
        assert code == 0 and report["payload_hash"] == want, argv
    with pytest.raises(AssertionError, match="sigma_L's table"):
        sigma_L(parse_matrix("3,0;0,3"))


# subst reports recorded when subst built sigma_L's table and walked its
# fixed point cell by cell: d = 1, 2 and 3, a negative det, a non-diagonal
# base, a given F and the same rule from a --subst file with no table; and a
# general rule (CI's cover.json), whose own table the walk still reads
COVER_TABLE = {
    "0,1": [[[0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [1, 0]], [[1, 1], [1, 0]]],
    "1,0": [[[0, 0], [1, 0]], [[0, 1], [0, 1]], [[1, 0], [0, 1]], [[1, 1], [0, 1]]],
}
SUBST_PAYLOAD_HASHES = [
    (
        ["--L", "2,0;0,2", "--F", "0,0;1,0;0,1;1,-1", "--seed", "1,0", "--box", "-8:8"],
        "347ada42716520d44e30d748a0f1fd61e8ea167345d0344c714c99b0b3692198",
    ),
    (
        ["--subst", "{tmp}/hh.json", "--seed", "1,0", "--box", "-8:8"],
        "347ada42716520d44e30d748a0f1fd61e8ea167345d0344c714c99b0b3692198",
    ),
    (
        ["--L", "3", "--box", "-5:5"],
        "7065addf47cd9936ae5b437c414441ef5a177aee16290dfecd65cca06a1d05aa",
    ),
    (
        ["--L", "-3", "--box", "-9:-4"],
        "13bd628ab98cff284010aaa29352d4886bc1ed814ef4459a430a64e6e35c0b50",
    ),
    (
        ["--L", "2,0,0;0,2,0;0,0,4", "--box", "-3:3"],
        "e1952cbc65d62b80839261068a0fa04238c1f4fc2fce71288d2492879da252c7",
    ),
    (
        ["--L", "1,1;-3,1", "--box", "-6:6", "--seed", "0,2"],
        "2f31d718457f56ce14cb7a09caa5e42135cf1f202d4a460308645cff611d19aa",
    ),
    (
        ["--L", "3,0;0,3", "--box", "-100:100"],
        "dac57cac8cfd65e0231ef0cd51bf3aec0e03ff2a3bde5c7af97cfd16cd0324bf",
    ),
    (
        ["--subst", "{tmp}/cover.json", "--box", "-40:40"],
        "84cada1bae3677d4fde1d648d3df20dad8acf24fe4fb0773e56e9c00b156ebfc",
    ),
]


def test_subst_builds_no_sigma_L_table(capsys, monkeypatch, tmp_path):
    # sigma_L's letters come from M = Id's rule, a general rule's from its own
    # table: with sigma_L's table refused, every pinned subst hash comes out
    def refused(domain):
        raise AssertionError("subst built sigma_L's table")

    monkeypatch.setattr(substitution, "_sigma_table", refused)
    hh = {"L": "2,0;0,2", "F1": [[0, 0], [1, 0], [0, 1], [1, -1]]}
    (tmp_path / "hh.json").write_text(json.dumps(hh))
    cover = {"L": "-2,0;0,-2", "F1": [[0, 0], [0, 1], [1, 0], [1, 1]], "table": COVER_TABLE}
    (tmp_path / "cover.json").write_text(json.dumps(cover))
    for argv, want in SUBST_PAYLOAD_HASHES:
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, report = run_cli(["subst", "patch", *argv], capsys)
        assert code == 0 and report["payload_hash"] == want, argv
    with pytest.raises(AssertionError, match="sigma_L's table"):
        sigma_L(parse_matrix("3,0;0,3"))


@pytest.mark.parametrize("twin", ["(1,0)", " 1,0"])
def test_subst_refuses_two_table_keys_of_one_letter(capsys, tmp_path, twin):
    # "1,0" and twin parse to one letter with another image: no key's image is
    # silently dropped, and both keys are named
    table = {**COVER_TABLE, twin: COVER_TABLE["0,1"]}
    desc, F1 = tmp_path / "twin.json", [[0, 0], [0, 1], [1, 0], [1, 1]]
    desc.write_text(json.dumps({"L": "-2,0;0,-2", "F1": F1, "table": table}))
    assert main(["subst", "patch", "--subst", str(desc), "--box", "-2:2"]) == 2
    err = capsys.readouterr().err
    want = f"{desc}: field 'table': keys '1,0' and {twin!r} are one letter"
    assert err == f"odosym: ValueError: {want}\n"


@pytest.mark.parametrize("key, why", [
    ("1,x", "bad integer 'x' at position 2"),
    ("1,0,0", "3 coordinates, L has dimension 2"),
], ids=["not-a-vector", "wrong-length"])
def test_subst_names_a_bad_table_key(capsys, tmp_path, key, why):
    # a key that is not a vector, or not of L's dimension, is refused under
    # the field "table" with the key named, before any image is read
    table = {**COVER_TABLE, key: COVER_TABLE["0,1"]}
    desc, F1 = tmp_path / "key.json", [[0, 0], [0, 1], [1, 0], [1, 1]]
    desc.write_text(json.dumps({"L": "-2,0;0,-2", "F1": F1, "table": table}))
    assert main(["subst", "patch", "--subst", str(desc), "--box", "-2:2"]) == 2
    want = f"{desc}: field 'table': key {key!r}: {why}"
    assert capsys.readouterr().err == f"odosym: ValueError: {want}\n"


def test_phi_builds_no_coset_table(capsys):
    # n0 = 3 and 4: the window decoder's class table would hold 128^3 and
    # 512^4 cosets (the first took 59 s and 1 GB, the second was refused);
    # phi's one pass reads the level off the digit walk instead
    started = time.perf_counter()
    code, report = run_cli(["phi", "--L", "8,0;0,16", "--M", "1,1;0,1", "--box", "-3:3"], capsys)
    assert time.perf_counter() - started < 1
    assert code == 0 and report["result"]["certificate"]["n0"] == 3
    assert report["payload_hash"] == (
        "64bfc5e1d30978f873ff2fbf956839f02cb4d9c16844533494b549f9661a2f68"
    )
    code, report = run_cli(["phi", "--L", "16,0;0,32", "--M", "1,1;0,1", "--box", "-3:3"], capsys)
    assert code == 0 and report["result"]["certificate"]["n0"] == 4
    assert report["payload_hash"] == (
        "961cbc7ceecd012282d46d8308db142a969e4b385f3a0a537d55b465f4f49f78"
    )


# F has |det| digits, over which nl grows linearly: F's limit of 100,000 digits
# holds for every command that builds F, and one over it exits 2 before F is
# built.  No command builds sigma_L's table of |det|^2 cells, whose limit of
# 1,000,000 holds for sigma_L alone
DET_GUARDED = ["nl --L {} --M 1", "phi --L {} --M 1 --box 0:0", "subst patch --L {} --box 0:0"]


def refused_with_peak(capsys, argv):
    """(stderr, tracemalloc peak) of a request that exits 2 with no report."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    return captured.err, peak


@pytest.mark.parametrize("request_", DET_GUARDED, ids=lambda r: r.split()[0])
def test_det_guard_at_and_over_the_limit(capsys, request_):
    if not request_.startswith("phi"):  # nl and subst answer at the limit
        assert main(request_.format(100_000).split()) == 0
        assert len(json.loads(capsys.readouterr().out)["inputs"]["F"]) == 100_000
    # the guard holds for the canonical F and for a given one (--F)
    for over in (request_.format(100_001), request_.format(100_001) + " --F 0;1"):
        err, peak = refused_with_peak(capsys, over.split())
        assert err == (
            "odosym: SizeGuardError: F has |det| = 100001 digits,"
            " over the limit of 100000 digits\n"
        )
        assert peak < 100_000


def test_digit_guard_names_the_interpreter_limit_and_the_request(capsys):
    # C_n = 1,100^n;0,1 on 3,0;0,300: the certificate through nmax 400 holds
    # 801 digits, over a 640-digit int-to-str limit, and through 300 only 601;
    # classify's unit group keeps the message it had before nl shared its guard
    limit = sys.get_int_max_str_digits()
    request = ["--L", "3,0;0,300", "--M", "1,1;0,1", "--nmax"]
    tail = " needs integers of more than 640 digits, the interpreter's int-to-str limit"
    tail += " (sys.get_int_max_str_digits())\n"
    sys.set_int_max_str_digits(640)
    try:
        for argv in (["nl", *request, "400"], ["phi", *request, "400", "--box", "0:0"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                "odosym: SizeGuardError: the certificate of M = 1,1;0,1 on L = 3,0;0,300"
                " through nmax 400" + tail
            )
        assert main(["classify", "--matrix", "-92397,22060;-34713,70124"]) == 2
        err = capsys.readouterr().err
        assert err == "odosym: SizeGuardError: the unit group for D'=23350000321" + tail
        assert main(["nl", *request, "300"]) == 0
        capsys.readouterr()
        sys.set_int_max_str_digits(0)  # no limit: every certificate prints
        assert main(["nl", *request, "400"]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    conjugates = json.loads(capsys.readouterr().out)["result"]["conjugates"]
    assert conjugates[-1] == "1,1" + "00" * 400 + ";0,1"


def test_sigma_L_table_guard_at_and_over_the_limit():
    # |det| 1,000 has a table of 999 images of 1,000 cells; at 1,001 sigma_L
    # refuses before the table is built, with F's 1,001 digits in memory only
    assert len(sigma_L(parse_matrix("1000")).alphabet) == 999
    base = parse_matrix("1001")
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as raised:
            sigma_L(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == (
        "sigma_L's table has |det|^2 = 1001^2 = 1002001 cells, over the limit of 1000000 cells"
    )
    assert peak < 1_000_000


def test_phi_builds_no_table_past_the_table_limit(capsys):
    # phi reads its rule off the certificate and builds no sigma_L, so the
    # |det|^2 table limit that refuses sigma_L at 1,001 does not bound it
    request = DET_GUARDED[1].format(1001).split()
    tracemalloc.start()
    try:
        code = main(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and len(report["inputs"]["F"]) == 1001
    assert report["result"]["seed"] == "1" and report["result"]["patch"] == [[[0], [1]]]
    assert peak < 1_000_000  # the table alone would hold 1001^2 cells


def test_subst_builds_no_table_past_the_table_limit(capsys):
    # subst reads sigma_L's fixed point as M = Id's image, as phi reads its
    # own, so it answers past the table limit: at |det| 1,001 in 1-D, and on
    # 40,0;0,30, whose table would hold 1,200^2 cells
    tracemalloc.start()
    try:
        code = main(DET_GUARDED[2].format(1001).split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and len(report["inputs"]["F"]) == 1001
    assert report["result"]["seed"] == "1" and report["result"]["patch"] == [[[0], [1]]]
    assert len(report["result"]["alphabet"]) == 1000
    assert peak < 1_000_000  # the table alone would hold 1001^2 cells
    code, report = run_cli(["subst", "patch", "--L", "40,0;0,30", "--box", "-8:8"], capsys)
    assert code == 0 and len(report["result"]["alphabet"]) == 1199
    cells = {tuple(p): tuple(a) for p, a in report["result"]["patch"]}
    # only the origin of the box lies in L(Z^2): every other cell holds its digit
    assert cells.pop((0, 0)) == (0, 1)
    assert all(a == (x % 40, y % 30) for (x, y), a in cells.items())


@pytest.mark.parametrize(
    "argv, error",
    [
        (["nl", "--L", "-1,10000000000;3,4", "--M", "0,-1;1,0"], "|det| = 30000000004 digits"),
        (
            ["nl", "--L", "1,-5,0;1000000000000000000,1,-2;4,7,-2", "--M", "1,0,0;0,1,0;0,0,1"],
            "|det| = 9999999999999999948 digits",
        ),
        (["phi", "--L", "-2,10000000;2,1", "--M", "1,0;0,1", "--box", "0:0"], "|det| = 20000002"),
        (["nl", "--L", "1000000000", "--M", "1,0;0,1"], "cannot multiply a 1x1 matrix by a 2x2"),
    ],
    ids=["nl-2x2", "nl-3x3", "phi-2x2", "nl-sizes-differ"],
)
def test_large_det_requests_exit_2_at_once(capsys, argv, error):
    # each of these raised MemoryError or OverflowError, or ran for minutes
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 3
    err = capsys.readouterr().err
    assert err.startswith("odosym: ") and err.count("\n") == 1 and error in err


def test_phi_echoes_the_domain_it_used(capsys):
    # two domains give two patches, so the inputs must tell them apart
    argv = ["phi", "--L", "2,0;0,2", "--M", "0,1;1,0", "--box", "0:1"]
    _, default = run_cli(argv, capsys)
    _, given = run_cli([*argv, "--F", "0,0;1,0;0,1;1,-1"], capsys)
    assert default["result"]["patch"] != given["result"]["patch"]
    assert default["inputs"]["F"] == ["0,0", "0,1", "1,0", "1,1"]
    assert given["inputs"]["F"] == ["0,0", "1,0", "0,1", "1,-1"]


def test_compact_report_is_the_hashed_body_plus_hash_and_timing(capsys, tmp_path):
    argv = ["phi", *PHI_PAYLOAD_HASHES["diag-2-4"][0]]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.count("\n") == 1 and ", " not in text
    report = json.loads(text)
    assert list(report)[-2:] == ["payload_hash", "timing_ms"]
    body = {k: v for k, v in report.items() if k not in ("payload_hash", "timing_ms")}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert text.startswith(canon[:-1] + ",")
    assert hashlib.sha256(canon.encode()).hexdigest() == report["payload_hash"]
    # --out writes the same bytes but the timing; --pretty indents the same report
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    written = out.read_text()
    assert written.endswith("}\n") and written.count("\n") == 1
    assert written[: len(canon) - 1] == text[: len(canon) - 1]
    assert main([*argv, "--pretty"]) == 0
    pretty = capsys.readouterr().out
    assert pretty.startswith('{\n  "command": "phi",\n')
    again = json.loads(pretty)
    assert again.pop("timing_ms") >= 0 and report.pop("timing_ms") >= 0
    assert again == report


REPORT_OF_EVERY_COMMAND = [
    ["classify", "--matrix", "2,-1;1,5"],
    ["member", "--base", "3,1;0,5", "--matrix", "1,1;0,1"],
    ["nc", "--base", "2,0;0,2", "--matrix", "0,1;1,0", "--depth", "4"],
    ["nl", "--L", "2,0;0,4", "--M", "1,1;0,1"],
    ["nl", "--L", "2,0;0,4", "--M", "1,0;1,1"],
    ["phi", *PHI_PAYLOAD_HASHES["half-hex"][0]],
    ["phi", *PHI_PAYLOAD_HASHES["diag-2-2-4"][0]],
    ["subst", "patch", "--L", "2,0;0,2", "--F", "0,0;1,0;0,1;1,-1", "--box", "-4:4"],
    ["verify-paper"],
]

HH_F = ["--F", "0,0;1,0;0,1;1,-1"]

# patches written from the box skeleton: d = 1 and d = 3, a one-cell box, an
# all-negative box, a box met twice in a row (the cache hits) and two boxes
# in turn (each request misses the one-entry cache)
PATCH_REPORTS = [
    ["phi", "--L", "3", "--M", "-1", "--box", "-5:5"],
    ["subst", "patch", "--L", "3", "--box", "-5:5"],
    ["subst", "patch", "--L", "-3", "--box", "-9:-4"],
    ["phi", "--L", "2,0,0;0,2,0;0,0,4", "--M", "1,0,1;0,1,0;0,0,1", "--box", "-3:3"],
    ["subst", "patch", "--L", "2,0,0;0,2,0;0,0,4", "--box", "-3:3"],
    ["phi", "--L", "2,0;0,2", "--M", "0,1;1,0", *HH_F, "--box", "0:0"],
    ["subst", "patch", "--L", "2,0;0,4", "--box", "0:0"],
    ["phi", "--L", "3,0;0,3", "--M", "1,1;0,1", "--box", "-6:-2"],
    ["phi", "--L", "3,0;0,3", "--M", "1,1;0,1", "--box", "-6:-2"],
    ["phi", "--L", "2,0;0,2", "--M", "0,1;1,0", *HH_F, "--box", "-4:4"],
    ["subst", "patch", "--L", "2,0;0,4", "--box", "-2:3"],
    ["phi", "--L", "2,0;0,4", "--M", "1,1;0,1", "--box", "-4:4"],
    ["subst", "patch", "--L", "2,0;0,4", "--box", "-2:3"],
]


def patch_cells(command, inputs, result):
    """The (position, letter) pairs of a patch report's box, from its inputs and
    seed by routes the CLI does not take: phi's letters by the coordinate
    formula, subst's by walking sigma_L's table."""
    base, (lo, hi) = parse_matrix(inputs["L"]), map(int, inputs["box"].split(":"))
    domain = validate_domain(base, [parse_vector(f) for f in inputs["F"]])
    seed, positions = parse_vector(result["seed"]), box_positions(lo, hi, base.dim)
    if command == "phi":
        cert = nl_membership(base, parse_matrix(inputs["M"]), inputs["nmax"], domain=domain)
        letter = coordinate_formula(cert, seed, positions)
    else:
        letter = fixed_point_patch(sigma_L(base, domain), seed, positions)
    return [(t, letter[t]) for t in positions]


def test_report_text_is_what_the_guarded_encoder_writes(capsys, monkeypatch):
    # make_report skips the encoder's cycle guard and writes a patch from its
    # box's skeleton and the texts the command passed; the body rebuilt from
    # its arguments, with their tuples and the (position, letter) pairs of
    # letters computed here from the inputs, encodes to the same bytes with
    # the guard on, and the report printed carries that text's hash
    seen = []
    make = cli.make_report

    def recorded(command, inputs, result, patch=None):
        before = json.dumps(result, sort_keys=True)
        canon = make(command, inputs, result, patch)
        assert json.dumps(result, sort_keys=True) == before  # result is not changed
        if patch is not None:
            (lo, hi, d), texts = patch
            cells = patch_cells(command, inputs, result)
            assert [t for t, _ in cells] == box_positions(lo, hi, d) and len(texts) == len(cells)
            result = {**result, "patch": cells}
        body = {
            "schema": 1,
            "version": odosym.__version__,
            "command": command,
            "inputs": inputs,
            "result": result,
        }
        seen.append((command, body, canon))
        return canon

    monkeypatch.setattr(cli, "make_report", recorded)
    cli._box_skeleton.cache_clear()
    for argv in REPORT_OF_EVERY_COMMAND + PATCH_REPORTS:
        assert main(argv) in (0, 3, 4)
        printed = json.loads(capsys.readouterr().out)["payload_hash"]
        assert printed == hashlib.sha256(seen[-1][2].encode()).hexdigest()
    commands = {command for command, _, _ in seen}
    assert commands == {"classify", "member", "nc", "nl", "phi", "subst", "verify-paper"}
    assert len(seen) == len(REPORT_OF_EVERY_COMMAND + PATCH_REPORTS)
    for _, body, canon in seen:
        assert canon == json.dumps(body, sort_keys=True, separators=(",", ":"))
    # each patch request reads its box's skeleton once, for the text: the
    # read missed on 12 of the 16 and hit on 4
    info = cli._box_skeleton.cache_info()
    assert (info.misses, info.hits) == (12, 4)
    patches = [body["result"]["patch"] for _, body, _ in seen if "patch" in body["result"]]
    assert len(patches) == 3 + len(PATCH_REPORTS)
    assert {len(p[0][0]) for p in patches} == {1, 2, 3}
    one_d = seen[len(REPORT_OF_EVERY_COMMAND)][2]
    assert hashlib.sha256(one_d.encode()).hexdigest() == (
        "e2dc55dc979082eb911cc5251a720cff19daeab22bdb34b6ec6fd0d2426e5efe"
    )


def test_each_report_is_one_encode(capsys, monkeypatch):
    # make_report encodes its body once, with or without a patch: the patch's
    # slot is filled in that one text, not spliced between encoded pieces
    encodes, per_report = [], []
    encode, make = cli._CANONICAL.encode, cli.make_report

    def counted(obj):
        encodes.append(obj)
        return encode(obj)

    def recorded(command, inputs, result, patch=None):
        before = len(encodes)
        canon = make(command, inputs, result, patch)
        per_report.append((command, patch is not None, len(encodes) - before))
        return canon

    monkeypatch.setattr(cli._CANONICAL, "encode", counted)
    monkeypatch.setattr(cli, "make_report", recorded)
    for argv in REPORT_OF_EVERY_COMMAND + PATCH_REPORTS:
        assert main(argv) in (0, 3, 4)
        capsys.readouterr()
    assert len(per_report) == len(REPORT_OF_EVERY_COMMAND + PATCH_REPORTS)
    assert {n for _, _, n in per_report} == {1}
    assert {with_patch for _, with_patch, _ in per_report} == {True, False}
    assert len(encodes) == len(per_report)


# phi and subst --L requests on d = 1, 2 and 3, canonical and --F domains;
# each draw adds a box and a seed, one of the domain's nonzero digits
RANDOM_PATCH_REQUESTS = [
    ("phi", "3", ["--M", "-1"], None),
    ("phi", "-5", ["--M", "-1"], None),
    ("subst", "3", [], None),
    ("subst", "-4", [], None),
    ("phi", "2,0;0,2", ["--M", "0,1;1,0"], "0,0;1,0;0,1;1,-1"),
    ("phi", "2,0;0,4", ["--M", "1,1;0,1"], None),
    ("phi", "2,-1;1,3", ["--M", "0,-1;1,1"], None),
    ("phi", "11,0;0,2", ["--M", "1,0;0,-1"], None),
    ("subst", "2,0;0,2", [], "0,0;1,0;0,1;1,-1"),
    ("subst", "3,0;0,3", [], None),
    ("phi", "2,0,0;0,2,0;0,0,4", ["--M", "1,0,1;0,1,0;0,0,1"], None),
    ("subst", "2,0,0;0,2,0;0,0,2", [], None),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_random_patch_reports_are_what_the_guarded_encoder_writes(data):
    command, L, extra, F = data.draw(st.sampled_from(RANDOM_PATCH_REQUESTS))
    base = parse_matrix(L)
    lo = data.draw(st.integers(-8, 4))
    hi = lo + data.draw(st.integers(0, 2 if base.dim == 3 else 6))
    domain = fundamental_domain(base)
    if F is not None:
        domain = validate_domain(base, [parse_vector(f) for f in F.split(";")])
    seed = data.draw(st.sampled_from([r for r in domain.reps if any(r)]))
    argv = [command, *(["patch"] if command == "subst" else []), "--L", L, *extra]
    argv += [*(["--F", F] if F else []), "--box", f"{lo}:{hi}"]
    argv += ["--seed", ",".join(map(str, seed))]
    args = cli._parse_args(argv)
    answer = args.func(args)
    canon = cli.make_report(command, answer.inputs, answer.result, answer.patch)
    cells = patch_cells(command, answer.inputs, answer.result)
    assert [t for t, _ in cells] == box_positions(lo, hi, base.dim)
    body = {
        "schema": 1,
        "version": odosym.__version__,
        "command": command,
        "inputs": answer.inputs,
        "result": {**answer.result, "patch": cells},
    }
    assert canon == json.dumps(body, sort_keys=True, separators=(",", ":")), argv


# the text rule on d = 1, 2 and 3, canonical and --F domains, n0 = 0, 1 and 2,
# a given seed, and letters of one and of two digits
TEXT_RULE_REQUESTS = [
    ["--L", "3", "--M", "-1", "--box", "-20:20"],
    ["--L", "-5", "--M", "-1", "--box", "-12:12", "--seed", "3"],
    ["--L", "2,0;0,2", "--M", "0,1;1,0", *HH_F, "--box", "-6:6"],
    ["--L", "2,0;0,2", "--M", "1,1;0,1", "--F", "0,0;-1,0;0,3;1,1", "--box", "-5:5"],
    ["--L", "3,0;0,3", "--M", "1,1;0,1", "--box", "-6:6", "--seed", "2,2"],
    ["--L", "2,0;0,4", "--M", "1,1;0,1", "--box", "-6:6"],
    ["--L", "4,0;0,8", "--M", "1,1;0,1", "--box", "-4:4"],
    ["--L", "2,-1;1,3", "--M", "0,-1;1,1", "--box", "-5:5"],
    ["--L", "11,0;0,2", "--M", "1,0;0,-1", "--box", "-3:3"],
    ["--L", "2,0,0;0,2,0;0,0,4", "--M", "1,0,1;0,1,0;0,0,1", "--box", "-3:3"],
    ["--L", "2,0,0;0,2,0;0,0,2", "--M", "0,1,0;1,0,0;0,0,-1", "--box", "-2:2"]
    + ["--F", "0,0,0;1,0,0;0,1,0;0,0,1;1,1,0;1,0,1;0,1,1;-1,1,1"],
]


def test_the_text_rule_writes_the_letter_rule_patch_formatted():
    # phi's rule maps each letter to its report text, and the row pass writes
    # those: the patch is the letter rule's, each letter formatted, and the
    # letter rule's is the coordinate formula's
    reached = set()
    for argv in TEXT_RULE_REQUESTS:
        args = cli._parse_args(["phi", *argv])
        answer = cli.cmd_phi(args)
        (lo, hi, d), texts = answer.patch
        base = parse_matrix(args.L)
        domain = fundamental_domain(base)
        if args.F is not None:
            domain = validate_domain(base, [parse_vector(f) for f in args.F.split(";")])
        cert = nl_membership(base, parse_matrix(args.M), domain=domain)
        rule = build_local_rule(cert)
        seed = min(rule.per_level[0]) if args.seed is None else parse_vector(args.seed)
        letters = _fixed_point_image(rule, seed, box_rows(lo, hi, d))
        assert texts == [",".join(str(x) for x in a) for a in letters], argv
        formula = coordinate_formula(cert, seed, box_positions(lo, hi, d))
        assert letters == list(formula.values()), argv
        assert answer.result["seed"] == ",".join(map(str, seed))
        reached.add((d, cert.n0, args.F is not None))
    assert {(1, 0), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)} <= {(d, n0) for d, n0, _ in reached}
    assert {(2, 0, True), (3, 0, True)} <= reached


def test_verify_paper_harness():
    result = run_verify_paper()
    assert result["failed"] == 0
    assert result["open"] == 2
    labels = {r["label"] for r in result["rows"]}
    assert "nl:diag24-odd-upper-OPEN" in labels
    assert "classify:ex-two-eigenvalues-OPEN" in labels
    assert result["rows"] == sorted(result["rows"], key=lambda r: r["label"])


def test_verify_paper_command_exit(capsys):
    code, report = run_cli(["verify-paper"], capsys)
    assert code == 0
    assert report["result"]["failed"] == 0


def _statuses(result):
    return {r["label"]: r["status"] for r in result["rows"]}


def test_verify_paper_fails_a_row_whose_check_breaks(capsys, monkeypatch):
    # one rule for every row: FAIL when its check is false, else OPEN or PASS;
    # an OPEN row fails too when the evidence for its computed side breaks
    clean = _statuses(run_verify_paper())
    real_classify, real_compose = cli.classify, cli.composition_check

    def wrong_tag(base):
        if cli.format_matrix(base) == "2,0;0,2":
            return types.SimpleNamespace(tag="order-two")
        return real_classify(base)

    def no_diag24_composition(base, *args, **kwargs):
        return cli.format_matrix(base) != "2,0;0,4" and real_compose(base, *args, **kwargs)

    cases = [
        ("classify", wrong_tag, "classify:ex-two-id"),
        ("verify_nc_certificate", lambda *args: False, "classify:ex-two-eigenvalues-OPEN"),
        ("composition_check", no_diag24_composition, "nl:diag24-odd-upper-OPEN"),
    ]
    for name, fake, label in cases:
        with monkeypatch.context() as patched:
            patched.setattr(cli, name, fake)
            result = run_verify_paper()
            code, report = run_cli(["verify-paper"], capsys)
        assert _statuses(result) == {**clean, label: "FAIL"}
        assert (result["failed"], code, report["result"]) == (1, 3, result)


def _child_env():
    # the child imports the same odosym as this process, installed or not
    src = os.path.dirname(os.path.dirname(odosym.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "odosym.cli", "--version"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0


def test_closed_output_pipe_exits_quietly():
    # stdout is a pipe whose read end is closed before the child starts,
    # as when `odosym nc ... | head -c 50` has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "odosym.cli", "nc", "--base", "3,1;0,5",
             "--matrix", "1,-1;0,-1", "--depth", "12"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    assert main(["classify", "--matrix", "2,0;0,2"]) == 0
    assert main(["nc", "--base", "2,0;0,2", "--matrix", "0,1;1,0", "--depth", "2"]) == 0
    capsys.readouterr()
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


PHI = ["phi", "--L", "2,0;0,2", "--M", "0,1;1,0", "--box", "0:1"]


LEADING_MINUS = [
    ("--matrix", ["classify", "--matrix", "-2,1;0,-3"]),
    ("--base", ["member", "--base", "-2,0;0,-2", "--matrix", "0,1;1,0"]),
    ("--L", ["phi", "--L", "-2,0;0,-2", "--M", "0,1;1,0", "--box", "0:1"]),
    ("--M", ["phi", "--L", "2,0;0,2", "--M", "-1,0;0,-1", "--box", "0:1"]),
    ("--F", PHI + ["--F", "-1,0;0,0;0,1;1,-1"]),
    ("--seed", PHI + ["--seed", "-1,0"]),
    ("--box", PHI[:-1] + ["-8:8"]),
    ("--depth", ["nc", "--base", "2,0;0,2", "--matrix", "0,1;1,0", "--depth", "-2"]),
    ("--nmax", ["nl", "--L", "2,0;0,4", "--M", "1,2;0,1", "--nmax", "-4"]),
]


@pytest.mark.parametrize("flag, argv", LEADING_MINUS, ids=[f for f, _ in LEADING_MINUS])
def test_leading_minus_value_parses_like_equals_form(flag, argv):
    i = argv.index(flag)
    joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
    folded = build_parser().parse_args(_join_flag_values(argv))
    assert folded == build_parser().parse_args(joined)
    value = getattr(folded, flag[2:])
    assert str(value) == argv[i + 1] and str(value).startswith("-")
    # main's route: the subcommand's own parser, after the same folding
    assert cli._parse_args(argv) == folded


# Recorded from the full parser, build_parser().parse_args, with COLUMNS=80.
# A usage error found by the subcommand's parser names the subcommand; one
# found after it (unknown tokens) names the program.
TOP_USAGE = (
    "usage: odosym [-h] [--version]\n"
    "              {classify,member,nc,nl,phi,subst,verify-paper} ...\n"
)
NC_USAGE = (
    "usage: odosym nc [-h] --base BASE --matrix MATRIX [--depth DEPTH] [--pretty]\n"
    "                 [--out OUT]\n"
)
PRETTY_OUT = (
    "  --pretty         indented JSON\n"
    "  --out OUT        write the report to a file\n"
)
PAIR_HELP = (
    "  -h, --help   show this help message and exit\n"
    "  --L L\n"
    "  --M M\n"
    "  --nmax NMAX\n"
    "  --F F        fundamental domain, vectors split by ';'\n"
)
NC = ["nc", "--base", "2,0;0,2", "--matrix", "1,0;0,1"]
USAGE_TABLE = [
    pytest.param(
        [*NC, "--bogus", "1"], 2, "",
        TOP_USAGE + "odosym: error: unrecognized arguments: --bogus 1\n",
        id="unknown-flag",
    ),
    pytest.param(
        [*NC, "stray"], 2, "", TOP_USAGE + "odosym: error: unrecognized arguments: stray\n",
        id="stray-positional",
    ),
    pytest.param(
        NC[:3], 2, "",
        NC_USAGE + "odosym nc: error: the following arguments are required: --matrix\n",
        id="missing-flag",
    ),
    pytest.param(
        ["frobnicate"], 2, "",
        # Python 3.10.13 to 3.13.0 quote the choices, 3.13.13 does not
        tuple(
            TOP_USAGE + "odosym: error: argument command: invalid choice: 'frobnicate' "
            f"(choose from {', '.join(choices)})\n"
            for choices in (
                ("'classify'", "'member'", "'nc'", "'nl'", "'phi'", "'subst'", "'verify-paper'"),
                ("classify", "member", "nc", "nl", "phi", "subst", "verify-paper"),
            )
        ),
        id="bad-subcommand",
    ),
    pytest.param(
        ["classify", "--help"], 0,
        "usage: odosym classify [-h] --matrix MATRIX [--pretty] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --matrix MATRIX  rows a,b;c,d\n" + PRETTY_OUT,
        "",
        id="classify-help",
    ),
    pytest.param(
        ["member", "--help"], 0,
        "usage: odosym member [-h] --base BASE --matrix MATRIX [--pretty] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --base BASE\n"
        "  --matrix MATRIX\n" + PRETTY_OUT,
        "",
        id="member-help",
    ),
    pytest.param(
        ["nc", "--help"], 0,
        NC_USAGE + "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --base BASE\n"
        "  --matrix MATRIX\n"
        "  --depth DEPTH\n" + PRETTY_OUT,
        "",
        id="nc-help",
    ),
    pytest.param(
        ["nl", "--help"], 0,
        "usage: odosym nl [-h] --L L --M M [--nmax NMAX] [--F F] [--pretty] [--out OUT]\n"
        "\n"
        "options:\n" + PAIR_HELP +
        "  --pretty     indented JSON\n"
        "  --out OUT    write the report to a file\n",
        "",
        id="nl-help",
    ),
    pytest.param(
        ["phi", "--help"], 0,
        "usage: odosym phi [-h] --L L --M M [--nmax NMAX] [--F F] --box BOX\n"
        "                  [--seed SEED] [--svg SVG] [--pgm PGM] [--pretty] [--out OUT]\n"
        "\n"
        "options:\n" + PAIR_HELP +
        "  --box BOX    lo:hi output box\n"
        "  --seed SEED\n"
        "  --svg SVG\n"
        "  --pgm PGM\n"
        "  --pretty     indented JSON\n"
        "  --out OUT    write the report to a file\n",
        "",
        id="phi-help",
    ),
    pytest.param(
        ["subst", "--help"], 0,
        "usage: odosym subst [-h] (--L L | --subst SUBST) [--F F] --box BOX\n"
        "                    [--seed SEED] [--svg SVG] [--pgm PGM] [--pretty]\n"
        "                    [--out OUT]\n"
        "                    {patch}\n"
        "\n"
        "positional arguments:\n"
        "  {patch}\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --L L\n"
        "  --subst SUBST  substitution description JSON file\n"
        "  --F F          fundamental domain, vectors split by ';'\n"
        "  --box BOX      lo:hi output box\n"
        "  --seed SEED\n"
        "  --svg SVG\n"
        "  --pgm PGM\n"
        "  --pretty       indented JSON\n"
        "  --out OUT      write the report to a file\n",
        "",
        id="subst-help",
    ),
    pytest.param(
        ["verify-paper", "--help"], 0,
        "usage: odosym verify-paper [-h] [--pretty] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    indented JSON\n"
        "  --out OUT   write the report to a file\n",
        "",
        id="verify-paper-help",
    ),
    pytest.param(["--version"], 0, "0.1.0\n", "", id="version"),
    pytest.param(
        ["nc", "--version"], 2, "",
        NC_USAGE + "odosym nc: error: the following arguments are required: --base, --matrix\n",
        id="nc-version",
    ),
    pytest.param(
        [], 2, "", TOP_USAGE + "odosym: error: the following arguments are required: command\n",
        id="empty",
    ),
]


def test_a_subcommand_line_is_parsed_by_its_own_parser_alone(capsys, monkeypatch):
    monkeypatch.setattr(build_parser(), "parse_args", lambda *a: pytest.fail("full parse"))
    assert main(["nc", "--base", "2,0;0,2", "--matrix", "0,1;1,0", "--depth", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "nc"


@pytest.mark.parametrize("argv, code, out, err", USAGE_TABLE)
def test_usage_output_is_byte_identical(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    with pytest.raises(SystemExit) as done:
        main(list(argv))
    captured = capsys.readouterr()
    assert (done.value.code, captured.out) == (code, out)
    assert captured.err in ((err,) if isinstance(err, str) else err)


def readme_cli_examples():
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    examples = []
    for line in block.strip().splitlines():
        command, comment = line.split("#", 1)
        words = shlex.split(command)
        assert words[0] == "odosym"
        examples.append((words[1:], int(re.match(r" exit (\d)", comment).group(1))))
    return examples


def test_json_flag_is_a_usage_error(capsys):
    for argv, _ in readme_cli_examples():
        with pytest.raises(SystemExit) as done:
            main(argv + ["--json"])
        assert done.value.code == 2, argv
        assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_readme_cli_examples_exit_as_documented(capsys):
    examples = readme_cli_examples()
    assert {argv[0] for argv, _ in examples} == {
        "classify", "member", "nc", "nl", "phi", "subst", "verify-paper"
    }
    for argv, want in examples:
        assert main(argv) == want, argv
        captured = capsys.readouterr()
        assert (captured.err == "") == (want != 2), argv


HH_F1 = [[0, 0], [1, 0], [0, 1], [1, -1]]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"F1": HH_F1}, "missing key 'L'"),
        ({"L": "2,0;0,2"}, "missing key 'F1'"),
        ([["2,0;0,2"]], "expected a JSON object, got list"),
        ({"L": 5, "F1": HH_F1}, "field 'L': object of type 'int' has no len()"),
        (
            {"L": [[2, 0], [0, 2.5]], "F1": HH_F1},
            "field 'L': 'float' object cannot be interpreted as an integer",
        ),
        ({"L": "2,0;0,2", "F1": 7}, "field 'F1': 'int' object is not iterable"),
        (
            {"L": "2,0;0,2", "F1": HH_F1, "table": 5},
            "field 'table': expected a non-empty object, got 5",
        ),
        (
            {"L": "2,0;0,2", "F1": HH_F1, "table": {}},
            "field 'table': expected a non-empty object, got {}",
        ),
        (
            {"L": "2,0;0,2", "F1": HH_F1, "table": {"1,0": 3}},
            "field 'table.1,0': 'int' object is not iterable",
        ),
        ({"L": [[2, 0]], "F1": HH_F1}, "field 'L': IntMatrix must be square with dim >= 1"),
    ],
    ids=[
        "no-L", "no-F1", "not-an-object", "L-int", "L-float-entry", "F1-int",
        "table-int", "table-empty", "table-entry-int", "L-not-square",
    ],
)
def test_subst_file_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path, data, message):
    desc = tmp_path / "rule.json"
    desc.write_text(json.dumps(data))
    code = main(["subst", "patch", "--subst", str(desc), "--box", "-1:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"odosym: ValueError: {desc}: {message}\n"
