import random
from itertools import product

import pytest

from odosym.errors import SizeGuardError, WrongBranchError
from odosym.intmat import IntMatrix, fundamental_domain, hnf, parse_matrix
from odosym.substitution import (
    ConstantShapeSubstitution,
    fixed_point_count,
    fixed_point_patch,
    half_hex,
    k_set,
    recognizability_check,
    sigma_L,
    substitute,
    supports,
    tau,
    valuation,
)

TWO = IntMatrix.scalar(2, 2)

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
        ConstantShapeSubstitution(base=hh.base, domain=hh.domain, alphabet=hh.alphabet, table=table)


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
    # fixed point seeded by a is constant, but the digits of sigma_L are not
    L = parse_matrix("3,0;0,3")
    domain = fundamental_domain(L)
    digits = [f for f in domain.reps if any(f)]
    a = min(digits)
    table = {x: {f: a if any(f) else x for f in domain.reps} for x in digits}
    s = ConstantShapeSubstitution(base=L, domain=domain, alphabet=frozenset(digits), table=table)
    assert not s.is_self_similar()
    iterated = substitute(s, substitute(s, {(0, 0): a}))
    by_digits = fixed_point_patch(sigma_L(L, domain), a, box(2))
    wrong = [p for p in box(2) if p in iterated and iterated[p] != by_digits[p]]
    assert wrong[:3] == [(0, 2), (1, 0), (1, 1)]
    with pytest.raises(WrongBranchError, match="self-similar"):
        fixed_point_patch(s, a, box(2))
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


# ---------------------------------------------------------------------------
# recognizability
# ---------------------------------------------------------------------------


def test_recognizability_half_hex():
    hh = half_hex()
    ok1, cx1 = recognizability_check(hh, 1)
    ok2, cx2 = recognizability_check(hh, 2)
    assert ok1 and cx1 is None
    assert ok2 and cx2 is None

