"""Oracles for the phi kernels: the coordinate formula of the local rule, the
per-cell walk the row pass replaced, and the memoized fixed-point descent,
cold and warm, in d = 1, 2 and 3."""

import json
import random
from itertools import combinations, count, product
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from tests_shared import (
    bench_module,
    ci_argvs,
    class_table,
    coordinate_formula,
    per_cell_image,
    phi_fixed_point_mismatches,
    rand_unimodular_steps,
    readme_argvs,
    scale,
    substitute,
    table_level,
    unimodular_inverse,
    window_cells,
)

from odosym.cli import main
from odosym.errors import WindowError, WrongBranchError
from odosym.intmat import (
    FundamentalDomain,
    HnfBasis,
    IntMatrix,
    format_matrix,
    fundamental_domain,
    is_expansion,
    parse_matrix,
    validate_domain,
)
from odosym.substitution import (
    ConstantShapeSubstitution,
    _fixed_point_reader,
    box_positions,
    box_rows,
    fixed_point_patch,
    sigma_L,
    supports,
    tau,
    valuation,
)
from odosym import cli, subshift_norm, substitution
from odosym.subshift_norm import (
    LocalRule,
    NLCertificate,
    _fixed_point_image,
    _truncated_level,
    _window,
    apply_endomorphism,
    build_local_rule,
    nl_membership,
    pullback_positions,
)

TWO = scale(IntMatrix.identity(2), 2)
HH_DOMAIN = validate_domain(TWO, [(0, 0), (1, 0), (0, 1), (1, -1)])
UNIMODULAR_4 = [
    IntMatrix((r[:2], r[2:]))
    for r in product(range(-4, 5), repeat=4)
    if r[0] * r[3] - r[1] * r[2] in (1, -1)
]


def box(radius, d=2):
    return [tuple(t) for t in product(range(-radius, radius + 1), repeat=d)]


def phi_traffic_pairs():
    """(L, domain, M) for every pair of the 10 bases the phi benchmark draws:
    half-hex and 3,0;0,3 with every unimodular M of entries in [-4, 4], and
    diag(+-2, +-4), diag(+-4, +-2) with their odd shears."""
    out = [(TWO, HH_DOMAIN, m) for m in UNIMODULAR_4]
    three = scale(IntMatrix.identity(2), 3)
    out += [(three, fundamental_domain(three), m) for m in UNIMODULAR_4]
    for sa, sb, s1, s2, b in product((1, -1), (1, -1), (1, -1), (1, -1), range(-7, 8, 2)):
        for L, M in (
            (IntMatrix(((2 * sa, 0), (0, 4 * sb))), IntMatrix(((s1, b), (0, s2)))),
            (IntMatrix(((4 * sa, 0), (0, 2 * sb))), IntMatrix(((s1, 0), (b, s2)))),
        ):
            out.append((L, fundamental_domain(L), M))
    return out


def random_pairs():
    """Accepted pairs on 30 random 2x2 expansions with 3 <= |det| <= 8,
    with every accepted M of entries in [-2, 2]."""
    rng = random.Random(17)
    small = [m for m in UNIMODULAR_4 if m.max_abs() <= 2]
    out, bases = [], set()
    while len(bases) < 30:
        L = IntMatrix(((rng.randint(-4, 4), rng.randint(-4, 4)), (rng.randint(-4, 4), rng.randint(-4, 4))))
        if L in bases or not 3 <= abs(L.det()) <= 8 or not is_expansion(L):
            continue
        bases.add(L)
        domain = fundamental_domain(L)
        out += [
            (L, domain, m)
            for m in small
            if isinstance(nl_membership(L, m, domain=domain), NLCertificate)
        ]
    return out


def three_d_pairs():
    """2*Id_3 (every M at n0 = 0) and diag(2, 2, 4) with a shear at n0 = 1."""
    out = []
    scalar = scale(IntMatrix.identity(3), 2)
    rng = random.Random(3)
    for _ in range(4):
        out.append((scalar, fundamental_domain(scalar), rand_unimodular_steps(rng, d=3)))
    diag = IntMatrix(((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    for m in (((1, 0, 1), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, -1, 3), (0, 0, -1))):
        out.append((diag, fundamental_domain(diag), IntMatrix(m)))
    return out


def n0_two_pairs():
    """diag(4, 8) with the shear and the negated shear, both at n0 = 2."""
    L = IntMatrix(((4, 0), (0, 8)))
    return [(L, fundamental_domain(L), IntMatrix(m)) for m in (((1, 1), (0, 1)), ((-1, -1), (0, -1)))]


def run_cells(runs):
    """The cells of runs along the last axis, each (first cell, length), in order."""
    return [(*t[:-1], t[-1] + j) for t, n in runs for j in range(n)]


def evaluate_phi(cert, seed, runs, rule=None):
    """The rule, built from cert unless given, and its image of the fixed
    point on the cells of the runs by both routes, which must agree: the
    one pass, which gives one letter per cell in run order, and the patch
    route (pull the cells back, build the fixed point's patch on every
    window cell, evaluate the rule on it)."""
    rule = build_local_rule(cert) if rule is None else rule
    region = run_cells(runs)
    letters = _fixed_point_image(rule, seed, runs)
    assert len(letters) == len(region)
    image = dict(zip(region, letters))
    sources, cells = pullback_positions(rule, region)
    patch = fixed_point_patch(sigma_L(cert.L, cert.domain), seed, cells)
    assert apply_endomorphism(rule, patch, sources) == image
    return rule, image


def test_phi_matches_the_coordinate_formula_cold_and_warm():
    cases = []
    for L, domain, M in phi_traffic_pairs() + random_pairs() + three_d_pairs() + n0_two_pairs():
        cert = nl_membership(L, M, domain=domain)
        assert isinstance(cert, NLCertificate), (L, M)
        letters = sorted(sigma_L(L, domain).alphabet)
        seed = letters[len(cases) % len(letters)]
        radius = 6 if L.dim == 2 else 3
        cases.append((cert, seed, box_rows(-radius, radius, L.dim)))
    reached = set()
    rules, cold = [], []
    for cert, seed, runs in cases:
        rule, image = evaluate_phi(cert, seed, runs)
        assert image == coordinate_formula(cert, seed, run_cells(runs)), (cert.L, cert.M)
        reached.add((cert.L.dim, rule.n0))
        rules.append(rule)
        cold.append(image)
    # every kernel's 2-D and d = 3 path, with and without the window decode,
    # and a window of five cells in 2-D
    assert reached == {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)}
    # warm: each rule again; and a second request, which builds its own
    # levels from the certificate's actions, equal but not the same dicts,
    # as build_local_rule keeps nothing across requests
    assert [evaluate_phi(*case, rule)[1] for case, rule in zip(cases, rules)] == cold
    again = [evaluate_phi(*case) for case in cases]
    assert [image for _, image in again] == cold
    for (rule, _), first in zip(again, rules):
        assert rule == first
        assert all(a is not b for a, b in zip(rule.per_level, first.per_level))


def test_one_pass_image_matches_the_patch_route():
    # the patch route: pull the region back, build the fixed point's patch on
    # every window cell, evaluate the rule on it and sort the image; the one
    # pass must list the same (t, letter) pairs, on boxes around and away
    # from the origin, for every seed
    rng = random.Random(29)
    hh = [(TWO, HH_DOMAIN, m) for m in rng.sample(UNIMODULAR_4, 6)]
    three = scale(IntMatrix.identity(2), 3)
    scalar = [(three, fundamental_domain(three), m) for m in rng.sample(UNIMODULAR_4, 6)]
    diag = rng.sample(phi_traffic_pairs()[2 * len(UNIMODULAR_4):], 8)
    reached = set()
    for L, domain, M in hh + scalar + diag + n0_two_pairs() + three_d_pairs():
        rule, s = build_local_rule(nl_membership(L, M, domain=domain)), sigma_L(L, domain)
        reached.add((L.dim, rule.n0))
        width = 7 if L.dim == 2 else 3
        corners = [(-(width // 2),) * L.dim]
        corners += [tuple(rng.randint(-40, 40) for _ in range(L.dim)) for _ in range(2)]
        # the three boxes in one region, so each seed builds one frame
        region = sorted({t for c in corners for t in product(*(range(x, x + width) for x in c))})
        for seed in sorted(s.alphabet):
            sources, cells = pullback_positions(rule, region)
            patch = fixed_point_patch(s, seed, cells)
            image = apply_endomorphism(rule, patch, sources)
            want = [image[t] for t in region]
            runs = [(t, 1) for t in region]
            assert _fixed_point_image(rule, seed, runs) == want, (L, M, seed, corners)
    assert reached == {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)}


def two_boxes(d, corner):
    """A box around the origin and one off-centre box at corner."""
    width = 7 if d == 2 else 3
    out = box(width // 2, d)
    out += list(product(*(range(c, c + width) for c in corner)))
    return out


def test_on_the_fixed_point_the_window_decodes_the_truncated_valuation():
    # the lemma the one pass rests on: on the fixed point, the window's level
    # at u is the valuation of u truncated at n0, and n0 at the origin
    frames = {}
    for L, domain, M in phi_traffic_pairs() + n0_two_pairs() + three_d_pairs():
        cert = nl_membership(L, M, domain=domain)
        frames.setdefault((L, domain, cert.n0), cert)
    assert {n0 for _, _, n0 in frames} == {0, 1, 2}
    for (L, domain, n0), cert in frames.items():
        s = sigma_L(L, domain)
        pairs = _window(s.domain, n0)
        region = two_boxes(s.dim, (23, -17, 9)[: s.dim])
        cells = {tuple(map(add, u, f)) for u in region for f in window_cells(pairs, s.dim)}
        for seed in sorted(s.alphabet):
            patch = fixed_point_patch(s, seed, cells)
            for u in region:
                want = min(valuation(s, u), n0) if any(u) else n0
                assert _truncated_level(s.domain, pairs, patch, u) == want, (cert.L, n0, seed, u)


def test_the_one_pass_reads_no_window(monkeypatch, capsys):
    # the image is computed by the patch route first; then the one pass must
    # give it with the window, its decode and the reader refused, and so must
    # odosym phi at n0 = 2
    hh = [(TWO, HH_DOMAIN, m) for m in UNIMODULAR_4[:2]]
    diag = [p for p in phi_traffic_pairs() if p[0].rows == ((2, 0), (0, 4))][:2]
    cases, reached = [], set()
    for L, domain, M in hh + diag + n0_two_pairs() + three_d_pairs()[-2:]:
        cert = nl_membership(L, M, domain=domain)
        rule, s = build_local_rule(cert), sigma_L(L, domain)
        reached.add((L.dim, rule.n0))
        for seed in sorted(s.alphabet):
            region = two_boxes(L.dim, (-31, 12, 5)[: L.dim])
            sources, cells = pullback_positions(rule, region)
            patch = fixed_point_patch(s, seed, cells)
            image = apply_endomorphism(rule, patch, sources)
            cases.append((cert, seed, region, [image[t] for t in region]))
    assert reached == {(2, 0), (2, 1), (2, 2), (3, 1)}

    def refused(*args):
        raise AssertionError("the one pass read a window")

    for name in ("_window", "_truncated_level"):
        monkeypatch.setattr(subshift_norm, name, refused)
    monkeypatch.setattr(substitution, "_fixed_point_reader", refused)
    for cert, seed, region, want in cases:
        rule = build_local_rule(cert)
        assert _fixed_point_image(rule, seed, [(t, 1) for t in region]) == want, (cert.L, seed)
    assert main(["phi", "--L", "4,0;0,8", "--M", "1,1;0,1", "--box", "-10:10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload_hash"] == (
        "4da609d513b440244c6f84e26e1ddab46f84ca3e06faad4d752d80cae63ec98e"
    )


# ---------------------------------------------------------------------------
# the row pass against the per-cell walk
# ---------------------------------------------------------------------------


def row_pass_pairs():
    """(L, M) over d = 1, 2 and 3 and n0 = 0 to 3: negative dets, the
    non-diagonal Hermite bases 2,1;0,3, 0,3;1,0 and 1,1;-3,1, and the
    n0 = 2 and 3 shears."""
    one = [("3", "-1"), ("-5", "-1"), ("4", "1"), ("7", "-1")]
    two = [
        ("2,0;0,2", "0,1;1,0"),
        ("3,0;0,3", "2,1;1,1"),
        ("2,0;0,4", "1,1;0,1"),
        ("-2,0;0,4", "-1,-1;0,1"),
        ("4,0;0,-2", "-1,0;-1,-1"),
        ("2,1;0,3", "-1,2;0,1"),
        ("0,3;1,0", "-1,0;1,-1"),
        ("1,1;-3,1", "-1,0;0,-1"),
        ("4,0;0,8", "1,1;0,1"),
        ("8,0;0,16", "-1,-1;0,-1"),
    ]
    three = [
        ("2,0,0;0,2,0;0,0,2", "0,1,0;1,0,0;0,0,-1"),
        ("2,0,0;0,2,0;0,0,4", "1,0,1;0,1,0;0,0,1"),
        ("2,0,0;0,2,0;0,0,4", "1,0,0;0,-1,3;0,0,-1"),
    ]
    # 2 Id_4 with a signed permutation: the generic loop beyond d = 3
    four = [("2,0,0,0;0,2,0,0;0,0,2,0;0,0,0,2", "0,0,1,0;-1,0,0,0;0,0,0,1;0,-1,0,0")]
    return [(parse_matrix(L), parse_matrix(M)) for L, M in one + two + three + four]


def row_period(rule):
    """The least P >= 1 with P M^{-1} e_d in L(Z^d): a run's digit period."""
    step = tuple(r[-1] for r in rule.m_inv.rows)
    return next(
        p for p in count(1) if rule.domain.hnf_basis.contains(tuple(p * x for x in step))
    )


def deep_runs(rule, rng):
    """Runs whose walked class descends at least 4 levels: from and to the
    origin, |det|^4 + 1 cells wide (|det|^3 + 1 past |det| = 9, none past
    32), so two of their cells have sources in L^4(Z^d); and runs from
    M L^k v, whose first source is L^k v, for k = 0..6 and v off L(Z^d)."""
    L, d, det = rule.domain.base, rule.domain.base.dim, abs(rule.domain.base.det())
    width = det**4 + 1 if det <= 9 else det**3 + 1
    runs = [] if det > 32 else [((0,) * d, width), ((0,) * (d - 1) + (1 - width,), width)]
    m = unimodular_inverse(rule.m_inv)
    for k in range(7):
        v = rng.choice([f for f in rule.domain.reps if any(f)])
        v = tuple(x + det * rng.randint(-3, 3) for x in v)
        runs.append((m.mul_vec((L**k).mul_vec(v)), rng.choice([2, det + 1, 3 * det + 2])))
    return runs


def test_the_row_pass_matches_the_per_cell_walk():
    # runs of widths below, equal to and above the digit period P, each
    # through the origin, starting or ending there, and off it; boxes of one
    # cell, off the origin and around it; scattered runs of one; runs whose
    # walked class descends 4 levels or more (deep_runs); and one box's rows
    # in shuffled order, since the pass shares each level's letters between
    # runs through a table that must not depend on their order
    rng = random.Random(35)
    reached, periods = set(), set()
    for L, M in row_pass_pairs():
        cert = nl_membership(L, M)
        assert isinstance(cert, NLCertificate), (L, M)
        rule, d = build_local_rule(cert), L.dim
        period = row_period(rule)
        assert abs(L.det()) % period == 0
        reached.add((d, rule.n0))
        periods.add(period)
        runs = []
        for width in sorted({1, max(period - 1, 1), period, period + 1, 2 * period + 3}):
            far = tuple(rng.randint(-60, 60) for _ in range(d))
            for last in (-(width // 2), 0, 1 - width):  # through, from and to the origin
                runs.append(((0,) * (d - 1) + (last,), width))
            runs.append((far, width))
        for lo, hi in ((0, 0), (7, 7), (-9, -9), (5, 9), (-4, -1), (-3, 3)):
            runs += box_rows(lo, hi, d)
        runs += [(tuple(rng.randint(-40, 40) for _ in range(d)), 1) for _ in range(25)]
        deep, level4 = deep_runs(rule, rng), L**4
        sources = [rule.m_inv.mul_vec(t) for t in run_cells(deep[:2])]
        assert abs(L.det()) > 32 or sum(level4.solve_exact(u) is not None for u in sources) >= 4
        shuffled = box_rows(-4, 4, d) if d < 4 else box_rows(-2, 2, d)
        rng.shuffle(shuffled)
        letters = sorted(rule.per_level[0])
        for seed in (letters[0], letters[-1]):
            for case in (runs, deep, shuffled):
                got = _fixed_point_image(rule, seed, case)
                assert got == per_cell_image(rule, seed, run_cells(case)), (L, M, seed)
        for lo, hi in ((0, 0), (5, 9), (-3, 3), (1, 0)):
            box_runs = box_rows(lo, hi, d)
            assert run_cells(box_runs) == box_positions(lo, hi, d)
            assert all(n >= 1 for _, n in box_runs)  # the pass reads runs of one cell or more
        # an empty box has no rows, and the pass no cells
        assert box_rows(1, 0, d) == [] and box_rows(3, -3, d) == []
        assert _fixed_point_image(rule, letters[0], []) == []
    assert reached == {(1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (4, 0)}
    # P = 1 on 0,3;1,0, where M^{-1} e_2 = (0, -1) lies in L(Z^2)
    assert periods == {1, 2, 3, 4, 5, 6, 7, 8, 16}


def test_the_row_pass_reads_a_few_keys_per_level_not_per_cell(monkeypatch):
    # reduce_vec calls inside the pass alone: the walked class is read level
    # by level, and each (level, first key, count) once per call.  The cell
    # by cell descent read 330 keys on the 1-D row and 1,217 and 1,145 on
    # the 3-D boxes; the bounds are 60 and 2 per row (338)
    cases = [
        ("3", "-1", (-200, 200, 1), 60),
        ("2,0,0;0,2,0;0,0,2", "0,1,0;1,0,0;0,0,-1", (-6, 6, 3), 338),
        ("2,0,0;0,2,0;0,0,4", "1,0,1;0,1,0;0,0,1", (-6, 6, 3), 338),
    ]
    reduce, calls = HnfBasis.reduce_vec, []
    for L, M, box, bound in cases:
        rule = build_local_rule(nl_membership(parse_matrix(L), parse_matrix(M)))
        rows, seed = box_rows(*box), min(rule.per_level[0])
        with monkeypatch.context() as patched:
            patched.setattr(HnfBasis, "reduce_vec", lambda h, v: calls.append(v) or reduce(h, v))
            calls.clear()
            got = _fixed_point_image(rule, seed, rows)
            assert 0 < len(calls) <= bound, (L, M, len(calls))
        assert got == per_cell_image(rule, seed, run_cells(rows)), (L, M)


def digit_of_route(c, domain):
    """_residue_action's pairs read through domain.digit_of(c.mul_vec(f)), its d != 2 route."""
    return tuple(sorted((f, domain.digit_of(c.mul_vec(f))) for f in domain.reps if any(f)))


def test_the_in_line_key_reads_every_phi_traffic_conjugate_like_digit_of():
    # every distinct conjugate of every pair of the 10 phi-patch bases, the
    # benchmark's 240 seed-0 requests among them
    conjugates = 0
    for L, domain, M in phi_traffic_pairs():
        cert = nl_membership(L, M, domain=domain)
        assert isinstance(cert, NLCertificate), (L, M)
        for c in set(cert.conjugates):
            assert subshift_norm._residue_action(c, domain) == digit_of_route(c, domain), (L, M, c)
            conjugates += 1
    assert conjugates == 3024


SIX = st.integers(-6, 6)
ENTRY = st.integers(-10**6, 10**6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.tuples(st.tuples(SIX, SIX), st.tuples(SIX, SIX)),
    st.tuples(st.tuples(ENTRY, ENTRY), st.tuples(ENTRY, ENTRY)),
    st.integers(0, 2**16),
)
@example(((2, 1), (0, 4)), ((1, 1), (0, 1)), 0)  # HNF rows ((1, 0), (4, 8)): h00 = 1, h10 = 4
@example(((2, 1), (0, 4)), ((3, -5), (7, 2)), 9)  # the same base, F moved by lattice vectors
@example(((1, 2), (-3, 1)), ((0, -1), (1, 0)), 5)  # HNF rows ((1, 0), (4, 7))
@example(((2, 0), (0, 4)), ((1, 3), (0, -1)), 0)
def test_the_in_line_key_matches_digit_of_on_random_expansions(rows, c, shift):
    # F is the HNF box (shift 0) or a transversal with its nonzero reps moved
    # by lattice vectors L z, z in [-3, 3]^2, so the key-to-digit table is not
    # the identity; c is any integer matrix
    L = IntMatrix(rows)
    assume(is_expansion(L))
    reps, rng = fundamental_domain(L).reps, random.Random(shift)
    if shift:
        moves = [L.mul_vec((rng.randint(-3, 3), rng.randint(-3, 3))) for _ in reps]
        reps = [tuple(map(add, f, z)) if any(f) else f for f, z in zip(reps, moves)]
    c, domain = IntMatrix(c), validate_domain(L, reps)
    assert subshift_norm._residue_action(c, domain) == digit_of_route(c, domain)


@pytest.mark.parametrize(
    "L, domain, M",
    [
        (parse_matrix("2,0;0,4"), None, parse_matrix("1,3;0,-1")),  # diag-8, n0 = 1
        (TWO, HH_DOMAIN, parse_matrix("2,1;1,1")),  # half-hex
        (parse_matrix("2,1;0,4"), None, parse_matrix("1,1;0,1")),  # HNF rows ((1, 0), (4, 8))
    ],
    ids=["diag-8", "half-hex", "2,1;0,4"],
)
def test_a_2d_certificate_reduces_no_vector(monkeypatch, L, domain, M):
    # each class's digit action forms its keys in line: no HnfBasis.reduce_vec call
    domain = fundamental_domain(L) if domain is None else domain
    with monkeypatch.context() as patched:
        patched.setattr(HnfBasis, "reduce_vec", lambda h, v: pytest.fail(f"reduce_vec({v})"))
        cert = nl_membership(L, M, domain=domain)
    assert isinstance(cert, NLCertificate) and cert.k == 0, (L, M)
    assert all(a == digit_of_route(c, domain) for a, c in zip(cert.actions, cert.conjugates))


# sigma_L on d = 1, 2 and 3: negative dets, the non-diagonal bases 2,1;0,4,
# 0,3;1,0 and 1,1;-3,1, and two given domains
SIGMA_CASES = [
    ("3", None),
    ("-4", None),
    ("2,0;0,2", "0,0;1,0;0,1;1,-1"),
    ("2,1;0,4", None),
    ("0,3;1,0", None),
    ("1,1;-3,1", None),
    ("-2,0;0,-2", "0,0;-1,0;0,1;1,-1"),
    ("2,1,0;0,2,1;1,0,2", None),
]


@pytest.mark.parametrize("L, F", SIGMA_CASES, ids=[L for L, _ in SIGMA_CASES])
def test_subst_reads_sigma_L_as_the_identity_row_pass(L, F, capsys, tmp_path):
    # odosym subst reads sigma_L's fixed point as the image of M = Id's rule,
    # with no table.  For every seed, on a box around the origin and one off
    # it, its letters are fixed_point_patch's on sigma_L's table; they satisfy
    # X(L j + f) = image(X(j))[f] wherever both cells lie in the box, and
    # iterated substitution of the seed writes them on F_n; a --subst file
    # with no table gives the report of --L and --F
    base = parse_matrix(L)
    if F is None:
        domain = fundamental_domain(base)
    else:
        domain = validate_domain(base, [tuple(map(int, v.split(","))) for v in F.split(";")])
    s, d, det = sigma_L(base, domain), base.dim, abs(base.det())
    desc = tmp_path / "rule.json"
    desc.write_text(json.dumps({"L": L, "F1": [list(f) for f in domain.reps]}))
    met = 0
    for seed in sorted(s.alphabet):
        tree = {(0,) * d: seed}
        while len(tree) * det <= 2000:
            tree = substitute(s, tree)
        for lo, hi in ((-5, 5), (3, 8)) if d < 3 else ((-2, 2), (1, 3)):
            argv = ["subst", "patch", "--box", f"{lo}:{hi}", "--seed", ",".join(map(str, seed))]
            reports = []
            for rule in (["--L", L, *(["--F", F] if F else [])], ["--subst", str(desc)]):
                assert main([*argv, *rule]) == 0
                reports.append(json.loads(capsys.readouterr().out))
            assert reports[0]["payload_hash"] == reports[1]["payload_hash"]
            cells = {tuple(p): tuple(a) for p, a in reports[0]["result"]["patch"]}
            region = box_positions(lo, hi, d)
            assert list(cells) == region
            assert cells == fixed_point_patch(s, seed, region), (L, seed, lo)
            for j, a in cells.items():
                for pos, b in substitute(s, {j: a}).items():
                    assert cells.get(pos, b) == b, (L, seed, j)
            for pos, b in tree.items():
                assert cells.get(pos, b) == b, (L, seed, pos)
            met += len(cells.keys() & tree.keys())
    assert met > 2 * len(s.alphabet)


def small_unimodular(d):
    """Unimodular matrices of entries in [-1, 1] (2-D), +-1 (1-D), and in
    3-D +-Id, a coordinate swap and a shear."""
    if d == 2:
        return [m for m in UNIMODULAR_4 if m.max_abs() <= 1]
    if d == 1:
        return [IntMatrix(((1,),)), IntMatrix(((-1,),))]
    ident = IntMatrix.identity(3)
    swap = IntMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    return [ident, -ident, swap, IntMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1)))]


def test_rule_levels_are_sigma_L_letters_on_the_sweep_frames():
    # build_local_rule reads level v off the certificate's actions; before,
    # it wrote tau(sigma_L, C_v a) for each letter a.  The two agree at every
    # level of each (base, n0) pair of the decoder sweep, through the
    # certificate's n0 too, on every accepted M of small entries
    frames = sweep_frames()
    assert len(frames) == 248
    rules, levels = 0, set()
    for s, n0 in frames:
        for M in small_unimodular(s.dim):
            cert = nl_membership(s.base, M, domain=s.domain)
            if not isinstance(cert, NLCertificate):
                continue
            rule = build_local_rule(cert)
            rules += 1
            for v in range(max(n0, cert.n0) + 1):
                levels.add(v)
                c = cert.conjugates[v]
                want = {a: tau(s, c.mul_vec(a)) for a in sorted(s.alphabet)}
                assert dict(cert.actions[v]) == want, (s.base, M, v)
                if v <= cert.n0:
                    assert rule.per_level[v] == want, (s.base, M, v)
    assert rules > 248 and levels == {0, 1, 2}


@st.composite
def sigma_bases(draw):
    """sigma_L of a random expansion: 2x2 with 3 <= |det| <= 8, or a 3x3
    triangular expansion conjugated by a random unimodular matrix."""
    if draw(st.booleans()):
        entries = st.integers(-4, 4)
        L = draw(
            st.builds(lambda a, b, c, d: IntMatrix(((a, b), (c, d))), entries, entries, entries, entries)
            .filter(lambda L: 3 <= abs(L.det()) <= 8 and is_expansion(L))
        )
    else:
        diag = draw(st.lists(st.sampled_from((-3, -2, 2, 3)), min_size=3, max_size=3))
        up = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
        t = IntMatrix(((diag[0], up[0], up[1]), (0, diag[1], up[2]), (0, 0, diag[2])))
        u = rand_unimodular_steps(random.Random(draw(st.integers(0, 10**6))), d=3, steps=3)
        L = u * t * unimodular_inverse(u)
    return sigma_L(L)


def _follows_the_digits(s):
    """The self-similar shape read cell by cell: letters are the nonzero
    digits, each image keeps its letter at the origin and writes the digit
    everywhere else."""
    digits = {f for f in s.domain.reps if any(f)}
    return s.alphabet == digits and all(
        s.table[a][f] == (a if not any(f) else f) for a in s.alphabet for f in s.domain.reps
    )


@settings(max_examples=40, deadline=None)
@given(s=sigma_bases(), data=st.data())
def test_only_the_digit_table_is_self_similar(s, data):
    assert s.is_self_similar() and _follows_the_digits(s)
    letters = sorted(s.alphabet)
    a = data.draw(st.sampled_from(letters))
    # one image cell, then one origin letter, holds another letter
    for f in (data.draw(st.sampled_from(letters)), s.dim * (0,)):
        table = {x: dict(img) for x, img in s.table.items()}
        table[a][f] = data.draw(st.sampled_from([b for b in letters if b != table[a][f]]))
        doctored = ConstantShapeSubstitution(s.domain, table)
        assert not doctored.is_self_similar()
    # a general rule over the nonzero digits, as a --subst file gives it, is
    # self-similar exactly when it writes the digit table
    table = {
        x: {f: data.draw(st.sampled_from(letters)) for f in s.domain.reps} for x in letters
    }
    general = ConstantShapeSubstitution(s.domain, table)
    assert general.is_self_similar() == _follows_the_digits(general)


@settings(max_examples=40, deadline=None)
@given(s=sigma_bases(), data=st.data())
def test_fixed_point_descent_ignores_order_and_type(s, data):
    region = box(3 if s.dim == 2 else 2, s.dim)
    seed = data.draw(st.sampled_from(sorted(s.alphabet)))
    expected = {p: seed if not any(p) else tau(s, p) for p in region}
    shuffled = list(region)
    data.draw(st.randoms(use_true_random=False)).shuffle(shuffled)
    assert fixed_point_patch(s, seed, shuffled) == expected
    assert fixed_point_patch(s, seed, [list(p) for p in shuffled]) == expected
    assert fixed_point_patch(s, seed, reversed(region)) == expected


@settings(max_examples=60, deadline=None)
@given(
    s=sigma_bases().filter(lambda s: s.dim == 2),
    corner=st.tuples(st.integers(-9, 0), st.integers(-9, 0)),
    size=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    data=st.data(),
)
def test_planar_descent_agrees_with_solve_exact(s, corner, size, data):
    # a deep cell (HNF key 0) lies in L(Z^2): adj(L) pos / det(L), the
    # division of the 2-D row pass's descent, is exact
    L, basis = s.base, s.domain.hnf_basis
    det, ((a, b), (c, d)) = L._inverse
    region = list(product(*(range(lo, lo + n) for lo, n in zip(corner, size))))
    data.draw(st.randoms(use_true_random=False)).shuffle(region)
    deep = [p for p in region if not any(basis.reduce_vec(p))]
    for x, y in deep:
        assert ((a * x + b * y) // det, (c * x + d * y) // det) == L.solve_exact((x, y))
    # the walk steps from a cell at an unforced offset (for sigma_L, a cell
    # of L(Z^2): offset 0) to its source, and its memo keeps those cells, so
    # a later read stops at the first one an earlier walk met: read in region
    # order, each cell takes the steps of this oracle
    seed = data.draw(st.sampled_from(sorted(s.alphabet)))
    steps = []

    class Steps(dict):
        def __getitem__(self, key):
            steps.append(key)
            return super().__getitem__(key)

    dom = s.domain
    counted = FundamentalDomain(dom.base, dom.reps, dom.hnf_basis, Steps(dom._rep_of_key))
    walker = ConstantShapeSubstitution(counted, s.table)
    letter_at = _fixed_point_reader(walker, seed)
    walked, want, got = {(0, 0)}, [], []
    for p in region:
        before = len(steps)
        assert letter_at(p) == (tau(s, p) if any(p) else seed)
        got.append(len(steps) - before)
        n = 0
        while not any(basis.reduce_vec(p)) and p not in walked:
            walked.add(p)
            n += 1
            p = L.solve_exact(p)
        want.append(n)
    assert got == want
    assert fixed_point_patch(walker, seed, region) == {
        p: tau(s, p) if any(p) else seed for p in region
    }


# ---------------------------------------------------------------------------
# the window S of the level decode
# ---------------------------------------------------------------------------


def window_s(s, n0):
    """{0} and L^v f for v < n0, f either of the two least nonzero digits."""
    cells = {(0,) * s.dim}
    for f in sorted(f for f in s.domain.reps if any(f))[:2]:
        for _ in range(n0):
            cells.add(f)
            f = s.base.mul_vec(f)
    return tuple(sorted(cells))


def check_window(s, n0, radius):
    """S separates every two cosets of different level on a cell forced in
    both, and on every window of the fixed points, one per letter, around
    the box of the radius, the direct decode agrees with the class tables
    of S and of all of F_{n0}."""
    pairs = _window(s.domain, n0)
    window = window_cells(pairs, s.dim)
    assert window == window_s(s, n0)
    full_window = tuple(sorted(supports(s, n0)[n0]))
    assert set(window) <= set(full_window)
    full = class_table(s, n0, full_window)
    table = class_table(s, n0, window)
    assert table == tuple(
        (c, level, {f: a for f, a in forced.items() if f in window}) for c, level, forced in full
    )
    if len(s.alphabet) > 1:
        for (_, level1, forced1), (_, level2, forced2) in combinations(table, 2):
            if level1 != level2:
                assert any(forced1[f] != forced2[f] for f in forced1.keys() & forced2.keys())
    positions = box(radius, s.dim)
    cells = {tuple(map(add, u, f)) for u in positions for f in full_window}
    for seed in sorted(s.alphabet):
        patch = fixed_point_patch(s, seed, cells)
        for u in positions:
            level = _truncated_level(s.domain, pairs, patch, u)
            assert level == table_level(window, table, patch, u)
            assert level == table_level(full_window, full, patch, u)
            if len(s.alphabet) > 1:
                assert level == (min(valuation(s, u), n0) if any(u) else n0)


def window_bases():
    """sigma_L of the 10 phi-patch bases and of two d = 1 bases."""
    bases = {(L, domain) for L, domain, _ in phi_traffic_pairs()}
    out = [sigma_L(L, domain) for L, domain in sorted(bases, key=str)]
    assert len(out) == 10
    return out + [sigma_L(IntMatrix(((3,),))), sigma_L(IntMatrix(((-5,),)))]


@pytest.mark.parametrize("n0", [1, 2])
@pytest.mark.parametrize("s", window_bases(), ids=lambda s: str(s.base))
def test_window_separates_levels_and_decodes_like_the_full_window(s, n0):
    assert len(window_cells(_window(s.domain, n0), s.dim)) == 2 * n0 + 1
    check_window(s, n0, 4 if s.dim == 2 else 12)


@settings(max_examples=25, deadline=None)
@given(s=sigma_bases(), data=st.data())
def test_window_of_random_bases(s, data):
    # the full table has |det|^(2 n0) entries to compare, so a 3-D base with
    # |det| > 8 is checked at n0 = 1 only
    n0 = data.draw(st.sampled_from((1, 2) if abs(s.base.det()) <= 8 else (1,)))
    check_window(s, n0, 3 if s.dim == 2 else 1)


@pytest.mark.parametrize("n0", [1, 2])
def test_one_letter_base_has_no_frame_and_decodes_alike(n0):
    # |det| = 2 leaves a single letter: no cell tells two levels apart, so
    # sigma_L refuses the base; a one-letter rule still decodes every window
    # of its fixed point through S like the class tables do, and never
    # raises WindowError
    L = IntMatrix(((1, 1), (-1, 1)))
    domain = fundamental_domain(L)
    with pytest.raises(WrongBranchError, match="alphabet too small"):
        sigma_L(L, domain)
    (zero, f), (letter,) = domain.reps, [f for f in domain.reps if any(f)]
    s = ConstantShapeSubstitution(domain, {letter: {zero: f, f: f}})
    assert len(window_cells(_window(s.domain, n0), 2)) == n0 + 1
    check_window(s, n0, 3)


# ---------------------------------------------------------------------------
# the direct decoder against the class table, on every pattern of a window
# ---------------------------------------------------------------------------


def decoded(decode, *args):
    """The level decode returns, or WindowError's class where it raises."""
    try:
        return decode(*args)
    except WindowError:
        return WindowError


def sweep_frames():
    """(sigma_L, n0) with at most 5 ** 5 patterns over the alphabet and one
    junk letter: every 2-D expansion of entries in [-2, 2] and |det| >= 3 at
    n0 = 1 (|det| 3 to 8), those of |det| 3 at n0 = 2 too, and the d = 1
    bases 3, -5 and 4 and a 3-D base of |det| 3 at n0 = 1 and 2."""
    frames = []
    for rows in product(range(-2, 3), repeat=4):
        L = IntMatrix((rows[:2], rows[2:]))
        if abs(L.det()) >= 3 and is_expansion(L):
            frames += [(sigma_L(L), n0) for n0 in ((1, 2) if abs(L.det()) == 3 else (1,))]
    for L in (((3,),), ((-5,),), ((4,),), ((0, 0, 3), (1, 0, 0), (0, 1, 0))):
        frames += [(sigma_L(IntMatrix(L)), n0) for n0 in (1, 2)]
    return frames


def test_the_direct_decoder_agrees_with_the_class_table_on_every_pattern():
    # every pattern of S over the alphabet and a junk letter, unhashable so
    # no decoder may hash a letter, decodes to the same level or raises
    # WindowError in both
    junk, patterns = ["junk"], 0
    for s, n0 in sweep_frames():
        pairs = _window(s.domain, n0)
        window = window_cells(pairs, s.dim)
        table, origin = class_table(s, n0, window), (0,) * s.dim
        levels = set()
        for letters in product([*sorted(s.alphabet), junk], repeat=len(window)):
            patch = dict(zip(window, letters))
            level = decoded(_truncated_level, s.domain, pairs, patch, origin)
            assert level == decoded(table_level, window, table, patch, origin), (s.base, n0)
            levels.add(level)
        assert levels == {*range(n0 + 1), WindowError}, (s.base, n0)
        patterns += (len(s.alphabet) + 1) ** len(window)
    assert patterns == 35_342


# ---------------------------------------------------------------------------
# off the origin, phi's patch is sigma_L's fixed point
# ---------------------------------------------------------------------------


def _writes_no_file(argv):
    """argv without --svg, --pgm and --out and their values."""
    out, words = [], iter(argv)
    for word in words:
        if word in ("--svg", "--pgm", "--out"):
            next(words)
        else:
            out.append(word)
    return out


def test_phi_off_the_origin_is_the_fixed_point_on_written_and_benchmark_requests():
    # C_p maps L(Z^d) onto itself, so M L^p Z^d = L^p Z^d and phi(x)_t = x_t for
    # t != 0 of valuation p <= nmax: README's and CI's phi requests (cells past
    # nmax's valuation, as on the box 1000:1063, left out) and the seed-0 stream
    written = [
        _writes_no_file(a)
        for a in readme_argvs() + ci_argvs()
        if a[:1] == ["phi"] and {"--L", "--M", "--box"} <= {*a}
    ]
    stream = [list(r.argv) for r in bench_module("workloads").PhiPatch().requests(0, 64)]
    accepted = 0
    for argv in written + stream:
        mismatches = phi_fixed_point_mismatches(argv)
        assert not mismatches, (argv, mismatches[:3])
        accepted += mismatches is not None
    assert len(written) >= 15 and accepted >= len(stream) + 12, (len(written), accepted)


def test_phi_off_the_origin_is_the_fixed_point_on_random_bases():
    # 120 2-D expansions with entries in [-4, 4] and |det| >= 3, with 30 unimodular
    # M of entries in [-2, 2] each (169 accepted); 24 3-D diagonal bases with entries
    # in +-{2, 3, 4}, with 8 products of one to three elementary steps each
    rng = random.Random(3)
    small = [m for m in UNIMODULAR_4 if m.max_abs() <= 2]
    requests = []
    while len(requests) < 120 * 30:
        L = IntMatrix([[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)])
        if abs(L.det()) >= 3 and is_expansion(L):
            requests += [(L, m, "-6:6") for m in rng.sample(small, 30)]
    while len(requests) < 120 * 30 + 24 * 8:
        diag = [rng.choice([2, -2, 3, -3, 4, -4]) for _ in range(3)]
        L = IntMatrix([[diag[i] if i == j else 0 for j in range(3)] for i in range(3)])
        steps = [rng.randint(1, 3) for _ in range(8)]
        requests += [(L, rand_unimodular_steps(rng, d=3, steps=n), "-3:3") for n in steps]
    accepted = []
    for L, M, box in requests:
        argv = ["phi", "--L", format_matrix(L), "--M", format_matrix(M), "--box", box]
        mismatches = phi_fixed_point_mismatches(argv)
        assert not mismatches, (argv, mismatches[:3])
        if mismatches is not None:
            accepted.append((L.dim, nl_membership(L, M).n0))
    assert {(2, 0), (2, 1), (3, 0), (3, 1)} <= {*accepted} and len(accepted) >= 190, accepted


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--L", "3,0;0,3", "--M", "0,1;1,0", "--box", "-8:8"],
        ["phi", "--L", "2,0;0,4", "--M", "1,1;0,1", "--box", "-8:8"],
        ["phi", "--L", "4,0;0,8", "--M", "1,1;0,1", "--box", "-10:10"],
        ["phi", "--L", "2,0,0;0,2,0;0,0,4", "--M", "1,0,1;0,1,0;0,0,1", "--box", "-3:3"],
    ],
    ids=["n0-0", "n0-1", "n0-2", "3d-n0-1"],
)
def test_a_rule_with_two_letters_swapped_at_any_level_fails_the_fixed_point_oracle(
    argv, monkeypatch
):
    L, M, (lo, hi) = parse_matrix(argv[2]), parse_matrix(argv[4]), map(int, argv[-1].split(":"))
    n0, letters, build = nl_membership(L, M).n0, sorted(sigma_L(L).alphabet), cli.build_local_rule
    assert phi_fixed_point_mismatches(argv) == []
    for v in range(n0 + 1):
        # a letter the box reads at level v: the seed, at the origin, at n0; else an a
        # whose cell M L^v a lies in the box
        in_box = (a for a in letters if all(lo <= x <= hi for x in M.mul_vec((L**v).mul_vec(a))))
        a = letters[0] if v == n0 else next(in_box)
        b = next(x for x in letters if x != a)

        def swapped(cert, text=None, v=v, a=a, b=b):
            rule = build(cert, text)
            level = {**rule.per_level[v], a: rule.per_level[v][b], b: rule.per_level[v][a]}
            levels = (*rule.per_level[:v], level, *rule.per_level[v + 1 :])
            return LocalRule(rule.domain, rule.m_inv, rule.n0, levels)

        monkeypatch.setattr(cli, "build_local_rule", swapped)
        assert phi_fixed_point_mismatches(argv), (argv, v, a, b)
        monkeypatch.undo()
