"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Corrected golden row: the printed table expects an order-two group for the
base 3,1;0,5.  That is wrong: 1,-1;0,-1 = 4*Id - L is a polynomial in L, so
it commutes with L, is unimodular and squares to the identity, and it
passes the normalizer condition at every depth.  The row therefore asserts
the Klein four-group {Id, -Id, 1,-1;0,-1, -1,1;0,1}.  verify-paper keeps
the printed expectation as an OPEN row.  See README, "Known issues".
"""

import random
import time
from itertools import product

from tests_shared import (
    ConstantBase,
    fiber_points,
    kappa_embed,
    nc_passes,
    rand_unimodular_small,
    rand_unimodular_steps,
    substitute,
    unimodular_inverse,
)

from odosym.classify2d import (
    CentralizerFinite,
    CentralizerInfinite,
    KleinFour,
    VirtuallyZ,
    classify,
    is_member,
)
from odosym.intmat import IntMatrix, parse_matrix
from odosym.odometer import nc_bounded_check
from odosym.substitution import (
    fixed_point_count,
    fixed_point_patch,
    half_hex,
    k_set,
    recognizability_check,
    sigma_L,
    supports,
    tau,
    valuation,
)
from odosym.subshift_norm import (
    NLCertificate,
    apply_endomorphism,
    build_local_rule,
    composition_check,
    nl_membership,
    pullback_positions,
)

GOLDEN = [
    parse_matrix("2,0;0,2"),
    parse_matrix("3,3;0,3"),
    parse_matrix("2,-1;1,5"),
    parse_matrix("2,-1;1,3"),
    parse_matrix("6,1;0,2"),
    parse_matrix("3,1;0,5"),
    parse_matrix("2,1;0,3"),
]

ID2 = IntMatrix.identity(2)


def _report(number, ok, detail=""):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")


def box(radius):
    return [tuple(t) for t in product(range(-radius, radius + 1), repeat=2)]


def test_criterion_1_golden_classification_table():
    t0 = time.perf_counter()
    failures = []

    cls_inf = classify(parse_matrix("2,-1;1,5"))
    if not isinstance(cls_inf, CentralizerInfinite):
        failures.append("2,-1;1,5 expected infinite centralizer")
    if not is_member(parse_matrix("2,-1;1,5"), parse_matrix("2,1;-1,-1")).member:
        failures.append("2,1;-1,-1 expected member for 2,-1;1,5")

    cls_fin = classify(parse_matrix("2,-1;1,3"))
    rot = parse_matrix("1,1;-1,0")
    six = {rot, rot * rot, -rot, -(rot * rot), ID2, -ID2}
    if not (isinstance(cls_fin, CentralizerFinite) and set(cls_fin.elements) == six):
        failures.append("2,-1;1,3 expected the six printed centralizer elements")

    cls_vz = classify(parse_matrix("6,1;0,2"))
    if not (
        isinstance(cls_vz, VirtuallyZ)
        and cls_vz.conjugator == parse_matrix("1,0;4,1")
    ):
        failures.append("6,1;0,2 expected virtually-Z with conjugator 1,0;4,1")

    cls5 = classify(parse_matrix("3,1;0,5"))
    inv = parse_matrix("1,-1;0,-1")
    klein = {ID2, -ID2, inv, -inv}
    if not (isinstance(cls5, KleinFour) and set(cls5.elements) == klein):
        failures.append(
            "3,1;0,5 expected klein-four {Id, -Id, 1,-1;0,-1, -1,1;0,1}, "
            f"computed {cls5.tag}"
        )

    cls6 = classify(parse_matrix("2,1;0,3"))
    if not isinstance(cls6, KleinFour):
        failures.append("2,1;0,3 expected klein-four")

    for text in ("2,0;0,2", "3,3;0,3"):
        if classify(parse_matrix(text)).tag != "full-gl2":
            failures.append(f"{text} expected the full group")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(1, ok, f"golden table, {elapsed:.3f}s" + (f"; {failures}" if failures else ""))
    assert elapsed < 1.0
    assert not failures, failures


def test_criterion_2_oracle_agreement():
    t0 = time.perf_counter()
    mats = [
        IntMatrix(((a, b), (c, d)))
        for a, b, c, d in product(range(-3, 4), repeat=4)
        if a * d - b * c in (1, -1)
    ]
    disagreements = []
    for L in GOLDEN:
        for M in mats:
            oracle = all(c.present for c in nc_bounded_check(L, M, 5))
            if is_member(L, M).member != oracle:
                disagreements.append((L.rows, M.rows))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 30.0
    _report(
        2,
        ok,
        f"{len(mats)} matrices x {len(GOLDEN)} bases, depth 5, "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s",
    )
    assert elapsed < 30.0
    assert disagreements == []


def _sample_nc_passers(L, rng, count):
    out = []
    attempts = 0
    while len(out) < count and attempts < 40 * count:
        attempts += 1
        if rng.random() < 0.5:
            m = IntMatrix(
                ((rng.randint(-4, 4), rng.randint(-4, 4)),
                 (rng.randint(-4, 4), rng.randint(-4, 4)))
            )
        else:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            m = IntMatrix.identity(2).scale(a) + L.scale(b) + (L * L).scale(c)
        if nc_passes(L, m, 4):
            out.append(m)
    while len(out) < count:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        out.append(IntMatrix.identity(2).scale(a) + L.scale(b))
    return out


def test_criterion_3_nc_ring_closure():
    t0 = time.perf_counter()
    rng = random.Random(101)
    bad = 0
    for L in GOLDEN:
        passers = _sample_nc_passers(L, rng, 400)
        for i in range(0, 400, 2):
            m1, m2 = passers[i], passers[i + 1]
            if not nc_passes(L, m1 + m2, 4):
                bad += 1
            if not nc_passes(L, m1 * m2, 4):
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    _report(3, ok, f"200 pairs per base, {bad} closure failures, {elapsed:.1f}s")
    assert elapsed < 10.0
    assert bad == 0


def test_criterion_4_half_hex_normalizer():
    t0 = time.perf_counter()
    hh = half_hex()
    rng = random.Random(202)
    bad = []
    for _ in range(50):
        m = rand_unimodular_small(rng, 3)
        out = nl_membership(hh.base, m, domain=hh.domain)
        if not isinstance(out, NLCertificate) or out.k != 0 or out.n0 != 0:
            bad.append(m.rows)
    comp_bad = 0
    for _ in range(20):
        m1 = rand_unimodular_small(rng, 2)
        m2 = rand_unimodular_small(rng, 2)
        if not composition_check(hh.base, m1, m2, box(6), domain=hh.domain):
            comp_bad += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and comp_bad == 0 and elapsed < 20.0
    _report(
        4,
        ok,
        f"50 certificates (k=0, n0=0), 20 compositions on radius-6 box, {elapsed:.1f}s",
    )
    assert elapsed < 20.0
    assert bad == [] and comp_bad == 0


def test_criterion_5_fixed_points_and_recognizability():
    t0 = time.perf_counter()
    hh = half_hex()
    s24 = sigma_L(parse_matrix("2,0;0,4"))
    ok_counts = fixed_point_count(hh) == 3 and fixed_point_count(s24) == 7

    ok_invariance = True
    for s in (hh, s24):
        levels = supports(s, 3)
        for seed in sorted(s.alphabet):
            patch = {(0, 0): seed}
            for _ in range(3):
                patch = substitute(s, patch)
            if patch != fixed_point_patch(s, seed, levels[3]):
                ok_invariance = False

    rec1, _ = recognizability_check(hh, 1)
    rec2, _ = recognizability_check(hh, 2)

    orbit_letters, _ = fiber_points(hh, (0, 0), 6)
    orbit_letters2, _ = fiber_points(hh, (1, 0), 6)
    non_orbit = kappa_embed((42, 42), ConstantBase(hh.base), 6)
    non_orbit_letters, note = fiber_points(hh, non_orbit, 6)
    ok_fibers = (
        len(orbit_letters) == 3
        and len(orbit_letters2) == 3
        and len(non_orbit_letters) == 1
        and "exact at tested depth" in note
    )
    elapsed = time.perf_counter() - t0
    ok = ok_counts and ok_invariance and rec1 and rec2 and ok_fibers and elapsed < 10.0
    _report(
        5,
        ok,
        f"fixed points 3/7, invariance through three steps, recognizability, "
        f"fibers 3/1, {elapsed:.1f}s",
    )
    assert elapsed < 10.0
    assert ok_counts and ok_invariance and rec1 and rec2 and ok_fibers


def test_criterion_6_k_set_and_covering():
    t0 = time.perf_counter()
    ks = k_set(half_hex(), 4)
    ok = (
        set(ks.points) == {(0, 0), (-1, 0), (0, -1), (-1, 1)}
        and ks.stable_from is not None
        and ks.stable_from <= 4
        and ks.coverage_ok
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(6, ok, f"{ks.to_payload()}, {elapsed:.1f}s")
    assert elapsed < 5.0
    assert ok


def test_criterion_7_discrepancy_report():
    t0 = time.perf_counter()
    base = parse_matrix("2,0;0,4")
    even = nl_membership(base, parse_matrix("1,2;0,1"))
    assert isinstance(even, NLCertificate)

    odd = nl_membership(base, parse_matrix("1,1;0,1"))
    accepted = isinstance(odd, NLCertificate)
    tau_ok = fp_ok = comp_ok = None
    if accepted:
        rule, s = build_local_rule(odd), sigma_L(odd.L, odd.domain)
        tau_ok = True
        for v in box(8):
            if v == (0, 0):
                continue
            level = min(valuation(s, v), odd.n0)
            if tau(s, odd.M.mul_vec(v)) != rule.per_level[level][tau(s, v)]:
                tau_ok = False
        region = box(5)
        sources, cells = pullback_positions(rule, region)
        patch = fixed_point_patch(s, min(s.alphabet), cells)
        image = apply_endomorphism(rule, patch, sources)
        fp_ok = all(image[t] == tau(s, t) for t in region if t != (0, 0))
        comp_ok = composition_check(base, odd.M, odd.M, box(4))
    in_closing_set = False  # 1,1;0,1 is not of the shape a,2b;0,d
    self_consistent = accepted == (tau_ok and fp_ok and comp_ok)
    elapsed = time.perf_counter() - t0
    ok = self_consistent and elapsed < 5.0
    print(
        "[criterion 7] OPEN row: definition verdict "
        f"{'member' if accepted else 'non-member'}; closing-set verdict "
        f"{'member' if in_closing_set else 'non-member'}; "
        f"match={accepted == in_closing_set}; oracle: tau-equivariance={tau_ok}, "
        f"fixed-point-mapping={fp_ok}, self-composition={comp_ok}"
    )
    _report(7, ok, f"oracle self-consistent, {elapsed:.1f}s")
    assert elapsed < 5.0
    assert self_consistent


def test_criterion_8_conjugation_covariance():
    t0 = time.perf_counter()
    rng = random.Random(303)
    bad = []
    for L in GOLDEN:
        base_cls = classify(L)
        for _ in range(20):
            U = rand_unimodular_steps(rng)
            Ui = unimodular_inverse(U)
            Lc = U * L * Ui
            cls_c = classify(Lc)
            if cls_c.tag != base_cls.tag:
                bad.append((L.rows, U.rows, "tag"))
                continue
            if isinstance(base_cls, (CentralizerFinite, KleinFour)):
                if set(cls_c.elements) != {U * m * Ui for m in base_cls.elements}:
                    bad.append((L.rows, U.rows, "elements"))
            for g in base_cls.generators():
                if not is_member(Lc, U * g * Ui).member:
                    bad.append((L.rows, U.rows, "generator"))
            for g in cls_c.generators():
                if not is_member(L, Ui * g * U).member:
                    bad.append((L.rows, U.rows, "generator-back"))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _report(8, ok, f"20 conjugations per base, {len(bad)} mismatches, {elapsed:.1f}s")
    assert bad == []
