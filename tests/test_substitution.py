import json
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from tests_shared import scale, substitute

from odosym import cli, substitution
from odosym.errors import DomainValidationError, SizeGuardError, WrongBranchError
from odosym.intmat import IntMatrix, fundamental_domain, hnf, is_expansion, parse_matrix
from odosym.substitution import (
    ConstantShapeSubstitution,
    box_positions,
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

TWO = scale(IntMatrix.identity(2), 2)

# the printed half-hex rule, letters 0, 1, 2 in display coordinates:
#   0 at (0,1), 1 at (1,-1), 2 at (1,0); the origin keeps the letter
LETTER = {0: (0, 1), 1: (1, -1), 2: (1, 0)}
PRINTED_TABLE = {
    0: {(0, 0): 0, (1, 0): 2, (0, 1): 0, (1, -1): 1},
    1: {(0, 0): 1, (1, 0): 2, (0, 1): 0, (1, -1): 1},
    2: {(0, 0): 2, (1, 0): 2, (0, 1): 0, (1, -1): 1},
}


def box(radius, d=2):
    return [tuple(t) for t in product(range(-radius, radius + 1), repeat=d)]


# ---------------------------------------------------------------------------
# the rule itself
# ---------------------------------------------------------------------------


def test_sigma_matches_printed_half_hex_table():
    hh = half_hex()
    assert sorted(hh.alphabet) == sorted(LETTER.values())
    for name, img in PRINTED_TABLE.items():
        a = LETTER[name]
        got = hh.image(a)
        for pos, letter_name in img.items():
            assert got[pos] == LETTER[letter_name]


def test_sigma_box_domain_alphabet_size():
    s = sigma_L(parse_matrix("2,0;0,4"))
    assert len(s.alphabet) == 7


def test_sigma_small_determinant_rejected():
    with pytest.raises(WrongBranchError):
        sigma_L(IntMatrix(((2,),)))


def test_every_letter_needs_an_image():
    hh = half_hex()
    table = {a: hh.image(a) for a in hh.alphabet if a != (1, 0)}
    with pytest.raises(ValueError, match=r"no image pattern for letter \(1, 0\)"):
        ConstantShapeSubstitution(domain=hh.domain, alphabet=hh.alphabet, table=table)


def test_every_image_belongs_to_a_letter():
    s = sigma_L(parse_matrix("3,0;0,3"))
    table = {**s.table, (5, 5): s.image(min(s.alphabet))}
    with pytest.raises(ValueError, match=r"an image for \(5, 5\), outside the alphabet"):
        ConstantShapeSubstitution(domain=s.domain, alphabet=s.alphabet, table=table)


def test_a_domain_of_another_base_is_refused(tmp_path):
    # a rule reads its base off its domain, so supports lift by the base tau
    # reduces against, and L f has first digit f.  A record that kept L beside
    # F read tau(s, (0, 3)) = (0, 3) with F of 3,1;0,3 under 3 Id; sigma_L
    # re-validates that F under 3 Id, where it is no transversal
    L, other = parse_matrix("3,0;0,3"), fundamental_domain(parse_matrix("3,1;0,3"))
    with pytest.raises(DomainValidationError, match=r"\(0, 0\) and \(0, 3\) are congruent"):
        sigma_L(L, other)
    assert tau(sigma_L(L), (0, 3)) == (0, 1)
    cross = [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]
    letters = {"0,1": [1, 0], "1,0": [0, 1]}  # each letter writes the other off the origin
    table = {a: [[f, b[::-1] if f == [0, 0] else b] for f in cross] for a, b in letters.items()}
    (tmp_path / "rule.json").write_text(json.dumps({"L": "2,1;-1,2", "F1": cross, "table": table}))
    from_file = cli._load_substitution(str(tmp_path / "rule.json"))[1]
    foreign = sigma_L(L, fundamental_domain(parse_matrix("3,0;0,-3")))
    for s in (sigma_L(L), foreign, sigma_L(parse_matrix("3,1;0,3")), half_hex(), from_file):
        assert s.base is s.domain.base
        assert all(tau(s, s.base.mul_vec(f)) == f for f in s.domain.reps if any(f)), s.base
    # sigma_L still re-validates a foreign F into a domain of its own base
    s = sigma_L(L, fundamental_domain(parse_matrix("3,0;0,-3")))
    assert s.domain.base == L and s.domain == fundamental_domain(L)
    assert s == sigma_L(L)


def test_sigma_self_similarity_flag():
    assert half_hex().is_self_similar()


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


def test_supports_examples():
    hh = half_hex()
    levels = supports(hh, 2)
    assert isinstance(levels, tuple) and len(levels) == 3
    assert levels[0] == frozenset({(0, 0)})
    assert levels[1] == frozenset({(0, 0), (1, 0), (0, 1), (1, -1)})
    f2 = levels[2]
    assert len(f2) == 16
    assert {(0, 0), (0, 3), (3, 0), (3, -3)} <= f2


def test_supports_are_fundamental_domains():
    hh = half_hex()
    levels = supports(hh, 3)
    for n in (1, 2, 3):
        basis = hnf(hh.base**n)
        pts = sorted(levels[n])
        assert len(pts) == 4**n
        keys = {basis.reduce_vec(p) for p in pts}
        assert len(keys) == 4**n


def test_supports_guard():
    hh = half_hex()
    with pytest.raises(SizeGuardError):
        supports(hh, 15)
    # 4^11 = 4,194,304 is the least power of 4 over the limit; the message
    # names both, and the guard trips before any level is built
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as err:
            supports(hh, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "|F_11| = 4^11 = 4194304 cells, over the limit of 4000000 cells"
    assert peak < 100_000


# the least cube side over the 4,000,000-cell limit: 2001^2 and 159^3 cells
@pytest.mark.parametrize("d, side", [(2, 2001), (3, 159)])
def test_box_guard_names_the_limit_and_builds_nothing(monkeypatch, d, side):
    assert (side - 1) ** d <= 4_000_000 < side**d
    built = []
    monkeypatch.setattr(substitution, "product", lambda *a, **k: built.append(a) or iter(()))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as err:
            box_positions(-1, side - 2, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"the box -1:{side - 2} in d = {d} has {side**d} cells, over the limit of 4000000 cells"
    )
    assert built == [] and peak < 100_000
    # one side less is within the limit, and reaches the cell product
    assert box_positions(-1, side - 3, d) == []
    assert built == [(range(-1, side - 2),)]
    # a box with lo > hi has no cells and passes the guard, where
    # (hi - lo + 1)^2 would be 8,994,001
    assert box_positions(3000, 0, 2) == []


# ---------------------------------------------------------------------------
# digits
# ---------------------------------------------------------------------------


def test_tau_examples():
    hh = half_hex()
    assert tau(hh, (1, 0)) == (1, 0)
    assert tau(hh, (2, 0)) == (1, 0)
    assert tau(hh, (3, 1)) == (1, -1)
    with pytest.raises(ValueError):
        tau(hh, (0, 0))


def test_tau_self_similarity():
    hh = half_hex()
    for v in box(6):
        if v == (0, 0):
            continue
        lv = tuple(2 * x for x in v)
        assert tau(hh, lv) == tau(hh, v)
        assert valuation(hh, lv) == valuation(hh, v) + 1


def test_fixed_point_patch_on_f1():
    hh = half_hex()
    p = fixed_point_patch(hh, (1, 0), supports(hh, 1)[1])
    assert p[(0, 0)] == (1, 0)
    assert p[(1, 0)] == (1, 0)
    assert p[(0, 1)] == (0, 1)
    assert p[(1, -1)] == (1, -1)


def test_fixed_points_need_the_self_similar_family():
    # every letter writes the least letter a at each nonzero digit, so the
    # fixed point seeded by a is constant, but the digits of sigma_L are not:
    # fixed_point_patch reads the rule's own letters, recognizability_check
    # takes sigma_L only
    L = parse_matrix("3,0;0,3")
    domain = fundamental_domain(L)
    digits = [f for f in domain.reps if any(f)]
    a = min(digits)
    table = {x: {f: a if any(f) else x for f in domain.reps} for x in digits}
    s = ConstantShapeSubstitution(domain=domain, alphabet=frozenset(digits), table=table)
    assert not s.is_self_similar()
    iterated = substitute(s, substitute(s, {(0, 0): a}))
    by_digits = fixed_point_patch(sigma_L(L, domain), a, box(2))
    wrong = [p for p in box(2) if p in iterated and iterated[p] != by_digits[p]]
    assert wrong[:3] == [(0, 2), (1, 0), (1, 1)]
    got = fixed_point_patch(s, a, box(2))
    assert got == {p: a for p in box(2)}
    assert all(got[p] == iterated[p] for p in box(2) if p in iterated)
    b = max(digits)
    assert fixed_point_patch(s, b, box(2)) == {**got, (0, 0): b}
    with pytest.raises(WrongBranchError, match="self-similar"):
        recognizability_check(s, 1)


def test_fixed_point_counts():
    assert fixed_point_count(half_hex()) == 3
    assert fixed_point_count(sigma_L(parse_matrix("2,0;0,4"))) == 7


def test_fixed_point_invariance_through_three_steps():
    for s in (half_hex(), sigma_L(parse_matrix("2,0;0,4"))):
        levels = supports(s, 3)
        for seed in sorted(s.alphabet):
            patch = {(0,) * s.dim: seed}
            for _ in range(3):
                patch = substitute(s, patch)
            expected = fixed_point_patch(s, seed, levels[3])
            assert patch == expected


# ---------------------------------------------------------------------------
# substitute
# ---------------------------------------------------------------------------


def test_substitute_single_letter():
    hh = half_hex()
    img = substitute(hh, {(0, 0): (0, 1)})
    assert img.keys() == supports(hh, 1)[1]
    assert img[(0, 0)] == (0, 1)


def test_substitute_twice_is_composed_rule():
    # direct two-level expansion computed by hand from the printed table
    hh = half_hex()
    twice = substitute(hh, substitute(hh, {(0, 0): LETTER[0]}))
    by_hand = {}
    for f1, name1 in PRINTED_TABLE[0].items():
        base = (2 * f1[0], 2 * f1[1])
        for f0, name0 in PRINTED_TABLE[name1].items():
            by_hand[(base[0] + f0[0], base[1] + f0[1])] = LETTER[name0]
    assert len(by_hand) == 16
    assert twice == by_hand


def test_substitute_shifts_commute():
    hh = half_hex()
    p = fixed_point_patch(hh, (1, 0), box(4))
    img = substitute(hh, p)
    # letter at L(j)+f only depends on p at j
    for j, a in p.items():
        for f, b in hh.image(a).items():
            pos = (2 * j[0] + f[0], 2 * j[1] + f[1])
            assert img[pos] == b


# ---------------------------------------------------------------------------
# covering rest set
# ---------------------------------------------------------------------------


def test_k_set_half_hex():
    ks = k_set(half_hex(), 4)
    assert set(ks.points) == {(0, 0), (-1, 0), (0, -1), (-1, 1)}
    assert ks.stable_from is not None and ks.stable_from <= 4
    assert ks.coverage_ok and ks.coverage_radius == 8


def test_k_set_dimension_one():
    s = sigma_L(IntMatrix(((3,),)))
    ks = k_set(s, 4)
    assert set(ks.points) == {(0,), (-1,)}
    assert ks.coverage_ok


def test_k_set_contains_zero():
    bases = [TWO, parse_matrix("2,0;0,4"), parse_matrix("2,-1;1,3")]
    for L in bases:
        ks = k_set(sigma_L(L), 3)
        assert (0,) * 2 in ks.points


def small_sigma_bases():
    """sigma_L of half-hex, four 1-D bases and twelve random 2x2 expansions,
    all with 3 <= |det| <= 6."""
    rng = random.Random(4)
    out = [half_hex()] + [sigma_L(IntMatrix(((c,),))) for c in (3, -4, 5, -6)]
    bases = set()
    while len(bases) < 12:
        L = IntMatrix(((rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-3, 3), rng.randint(-3, 3))))
        if 3 <= abs(L.det()) <= 6 and is_expansion(L) and L not in bases:
            bases.add(L)
            out.append(sigma_L(L))
    return out


def iterate(s, patch, n):
    """substitute applied n times."""
    for _ in range(n):
        patch = substitute(s, patch)
    return patch


def k_radius(L, digits):
    """A sup-norm radius holding every x = L^m x + f, f in F_m: such x is
    -sum_{i >= 1} L^{-i} d_i with digits d_i, and sum_i ||L^{-i}|| is bounded
    by (||L^{-1}|| + ... + ||L^{-k}||) / (1 - ||L^{-k}||) once ||L^{-k}|| < 1."""
    inv = [[Fraction(x, L.det()) for x in r] for r in L.adjugate().rows]
    power, total = inv, Fraction(0)
    while True:
        norm = max(sum(abs(x) for x in r) for r in power)
        total += norm
        if norm < 1:
            break
        power = [[sum(a * b for a, b in zip(r, c)) for c in zip(*inv)] for r in power]
    return int(max(max(map(abs, d)) for d in digits) * total / (1 - norm))


def k_set_by_iteration(s, m_max):
    """(points, stable_from, coverage_ok) of k_set from iterated patches.

    x is in K_m iff m steps of the rule from one letter at x cover x again,
    that is x - L^m x lies on substitute^m of one letter at the origin; the
    translates L^n K + F_n are substitute^n of letters on K.
    """
    seed = min(s.alphabet)
    zero = (0,) * s.dim
    radius = k_radius(s.base, s.domain.reps)
    stages, points = [], set()
    for m in range(1, m_max + 1):
        lm = s.base**m
        support = iterate(s, {zero: seed}, m)
        points |= {
            x
            for x in box(radius, s.dim)
            if tuple(a - b for a, b in zip(x, lm.mul_vec(x))) in support
        }
        stages.append(set(points))
    stable = [m for m in range(1, m_max) if stages[m - 1] == stages[-1]]
    depth = m_max + 1
    while abs(s.base.det()) ** depth < 32**s.dim:
        depth += 1
    covered, patch = set(), {k: seed for k in points}
    for _ in range(depth + 1):
        covered |= patch.keys()
        patch = substitute(s, patch)
    return points, stable[0] if stable else None, covered >= set(box(8, s.dim))


def test_k_set_matches_iterated_patches():
    reports = []
    for s in small_sigma_bases():
        for m_max in (2, 3):
            ks = k_set(s, m_max)
            assert (ks.points, ks.stable_from, ks.coverage_ok) == k_set_by_iteration(s, m_max), s.base
            reports.append(ks)
    # the sample reaches more than the zero point and both stable_from shapes
    assert any(len(ks.points) > 1 for ks in reports)
    assert {ks.stable_from is None for ks in reports} == {True, False}


# ---------------------------------------------------------------------------
# recognizability
# ---------------------------------------------------------------------------


def recognizable_by_iteration(s, n, size=1000):
    """Brute force on the legal patches substitute^k(a), |det|^k >= size, for
    the least and the largest letter a: do
    equal F_n windows sit only at positions congruent mod L^n(Z^d)?

    Returns the verdict and the coset of every window seen.
    """
    zero = (0,) * s.dim
    fn = sorted(iterate(s, {zero: min(s.alphabet)}, n))
    basis = hnf(s.base**n)
    k = 1
    while abs(s.base.det()) ** k < size:
        k += 1
    coset_of = {}
    for a in (min(s.alphabet), max(s.alphabet)):
        q = iterate(s, {zero: a}, k)
        for p in q:
            window = tuple(q.get(tuple(map(add, p, f))) for f in fn)
            if None not in window:
                if coset_of.setdefault(window, basis.reduce_vec(p)) != basis.reduce_vec(p):
                    return False, coset_of
    return True, coset_of


def test_recognizability_matches_iterated_patches():
    for s in small_sigma_bases():
        for n in (1, 2):
            verdict, coset_of = recognizable_by_iteration(s, n)
            assert recognizability_check(s, n) == (verdict, None), s.base
            assert len(set(coset_of.values())) > 1
            # the fixed point's windows on the box are legal, with the same cosets
            fn = sorted(iterate(s, {(0,) * s.dim: min(s.alphabet)}, n))
            basis = hnf(s.base**n)
            region = box(6, s.dim)
            cells = fixed_point_patch(
                s, min(s.alphabet), {tuple(map(add, p, f)) for p in region for f in fn}
            )
            for p in region:
                window = tuple(cells[tuple(map(add, p, f))] for f in fn)
                assert coset_of.get(window, basis.reduce_vec(p)) == basis.reduce_vec(p)


def test_recognizability_half_hex():
    hh = half_hex()
    ok1, cx1 = recognizability_check(hh, 1)
    ok2, cx2 = recognizability_check(hh, 2)
    assert ok1 and cx1 is None
    assert ok2 and cx2 is None

