import random
from itertools import product

import pytest
from tests_shared import (
    brute_force_centralizer,
    centralizer,
    commutes,
    nc_passes,
    rand_unimodular_small,
    rand_unimodular_steps,
    unimodular_inverse,
)

from odosym.classify2d import (
    CentralizerFinite,
    CentralizerInfinite,
    FullGL2,
    KleinFour,
    OrderTwo,
    VirtuallyZ,
    _eigenvector,
    _triangular_form,
    classify,
    is_member,
)
from odosym.errors import NotExpansionError
from odosym.intmat import IntMatrix, integer_eigenvalues, is_expansion, parse_matrix

ID2 = IntMatrix.identity(2)

GOLDEN = {
    "two-id": parse_matrix("2,0;0,2"),
    "three-unipotent": parse_matrix("3,3;0,3"),
    "real-irrational": parse_matrix("2,-1;1,5"),
    "complex": parse_matrix("2,-1;1,3"),
    "upper-virtually-z": parse_matrix("6,1;0,2"),
    "two-eigenvalues": parse_matrix("3,1;0,5"),
    "mixed-radical": parse_matrix("2,1;0,3"),
}


# ---------------------------------------------------------------------------
# golden branches
# ---------------------------------------------------------------------------


def test_full_group_branch():
    assert isinstance(classify(GOLDEN["two-id"]), FullGL2)
    assert isinstance(classify(GOLDEN["three-unipotent"]), FullGL2)


def test_complex_finite_centralizer_exact_set():
    cls = classify(GOLDEN["complex"])
    assert isinstance(cls, CentralizerFinite)
    rot = parse_matrix("1,1;-1,0")
    rot2 = rot * rot
    expected = {rot, rot2, -rot, -rot2, ID2, -ID2}
    assert set(cls.elements) == expected
    assert set(cls.elements) == set(brute_force_centralizer(GOLDEN["complex"], 4))


def test_real_irrational_infinite_centralizer():
    L = GOLDEN["real-irrational"]
    cls = classify(L)
    assert isinstance(cls, CentralizerInfinite)
    g = cls.automorph
    assert commutes(L, g) and g.det() in (1, -1)
    assert g not in (ID2, -ID2)
    # the reference matrix is recovered from the generator
    ref = parse_matrix("2,1;-1,-1")
    assert is_member(L, ref).member
    assert ref in (g, -g, unimodular_inverse(g), -unimodular_inverse(g))


def test_real_irrational_generator_vs_bruteforce_minimal():
    L = GOLDEN["real-irrational"]
    cls = classify(L)
    nontrivial = [
        m
        for m in brute_force_centralizer(L, 60)
        if m not in (ID2, -ID2)
    ]
    min_entry = min(m.max_abs() for m in nontrivial)
    assert cls.automorph.max_abs() == min_entry


def test_virtually_z_conjugator():
    cls = classify(GOLDEN["upper-virtually-z"])
    assert isinstance(cls, VirtuallyZ)
    assert cls.conjugator == parse_matrix("1,0;4,1")
    assert cls.k is None  # all upper triangular unimodular matrices
    # conjugation carries members to upper triangular matrices
    p = cls.conjugator
    pi = unimodular_inverse(p)
    g = cls.generator
    assert (p * g * pi).rows[1][0] == 0
    assert is_member(GOLDEN["upper-virtually-z"], g).member


def test_two_integer_eigenvalues_branch_is_klein_four():
    # the commuting involution 1,-1;0,-1 passes the normalizer condition at
    # every depth, so the group strictly contains {Id, -Id}
    L = GOLDEN["two-eigenvalues"]
    inv = parse_matrix("1,-1;0,-1")
    assert commutes(L, inv) and inv * inv == ID2
    assert nc_passes(L, inv, 6)
    cls = classify(L)
    assert isinstance(cls, KleinFour)
    assert inv in cls.elements


def test_mixed_radical_klein_four():
    cls = classify(GOLDEN["mixed-radical"])
    assert isinstance(cls, KleinFour)
    assert parse_matrix("1,-2;0,-1") in cls.elements


def test_klein_four_members_square_to_identity():
    for key in ("two-eigenvalues", "mixed-radical"):
        cls = classify(GOLDEN[key])
        for m in cls.elements:
            assert m * m == ID2


def test_order_two_branch_exists():
    # 2q = 2 not divisible by p - s = -3
    L = parse_matrix("2,1;0,5")
    cls = classify(L)
    assert isinstance(cls, OrderTwo)
    assert not is_member(L, parse_matrix("1,1;0,1")).member


def param_family_members(L, cls, m):
    """The four explicit one-parameter families of the q = k (p - s) branch."""
    k = cls.k
    raw = (
        ((1 - m * k, -m * k * k), (m, 1 + m * k)),
        ((1 - m * k, 2 * k - m * k * k), (m, m * k - 1)),
        ((-1 - m * k, -2 * k - m * k * k), (m, 1 + m * k)),
        ((-1 - m * k, -m * k * k), (m, -1 + m * k)),
    )
    w = _triangular_form(L)[0]
    return tuple(w * IntMatrix(rows) * unimodular_inverse(w) for rows in raw)


def test_param_family_branch():
    L = parse_matrix("6,4;0,2")
    cls = classify(L)
    assert isinstance(cls, VirtuallyZ)
    assert cls.k == 1
    assert cls.generator == parse_matrix("0,-1;1,2")
    for m in (-2, -1, 0, 1, 2, 5):
        for member in param_family_members(L, cls, m):
            assert member.det() in (1, -1)
            assert is_member(L, member).member
    # the generator has infinite order: parabolic and not the identity
    g = cls.generator
    assert g.trace() == 2 and g != ID2


def test_virtually_z_family_wrong_branch():
    # q not divisible by p - s, a diagonal base, and a complex spectrum
    for L in (GOLDEN["upper-virtually-z"], parse_matrix("6,0;0,2")):
        cls = classify(L)
        assert isinstance(cls, VirtuallyZ) and cls.k is None, L.rows
    assert not hasattr(classify(GOLDEN["complex"]), "k")


def test_diagonal_mixed_radical_is_virtually_z():
    # diag(6, 2): members are the lower triangular unimodular matrices
    L = parse_matrix("6,0;0,2")
    cls = classify(L)
    assert isinstance(cls, VirtuallyZ)
    assert is_member(L, parse_matrix("1,0;5,1")).member
    assert not is_member(L, parse_matrix("1,1;0,1")).member
    assert nc_passes(L, parse_matrix("1,0;5,1"), 4)
    assert not nc_passes(L, parse_matrix("1,1;0,1"), 4)


def test_nonexpansion_rejected():
    with pytest.raises(NotExpansionError):
        classify(parse_matrix("1,1;0,1"))
    with pytest.raises(NotExpansionError):
        is_member(parse_matrix("1,1;0,1"), ID2)


def test_is_member_requires_unimodular():
    with pytest.raises(ValueError):
        is_member(GOLDEN["two-id"], parse_matrix("2,0;0,1"))


def test_is_member_examples():
    assert is_member(GOLDEN["real-irrational"], parse_matrix("2,1;-1,-1")).member
    for L in GOLDEN.values():
        assert is_member(L, ID2).member
    assert not is_member(GOLDEN["two-eigenvalues"], parse_matrix("1,1;0,1")).member


# ---------------------------------------------------------------------------
# centralizer operation
# ---------------------------------------------------------------------------


def test_centralizer_examples():
    assert isinstance(centralizer(GOLDEN["two-id"]), FullGL2)
    c = centralizer(GOLDEN["complex"])
    assert isinstance(c, CentralizerFinite) and len(c.elements) == 6
    ci = centralizer(GOLDEN["real-irrational"])
    assert isinstance(ci, CentralizerInfinite)


def test_centralizer_finite_matches_bruteforce():
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        L = IntMatrix(
            ((rng.randint(-4, 6), rng.randint(-4, 4)),
             (rng.randint(-4, 4), rng.randint(-4, 6)))
        )
        if not is_expansion(L):
            continue
        tr, det = L.trace(), L.det()
        disc = tr * tr - 4 * det
        if disc >= 0 and int(disc**0.5 + 0.5) ** 2 != disc:
            continue  # infinite branch
        if L.rows[0][1] == 0 and L.rows[1][0] == 0 and L.rows[0][0] == L.rows[1][1]:
            continue  # scalar: full group
        c = centralizer(L)
        assert isinstance(c, CentralizerFinite)
        assert set(c.elements) == set(brute_force_centralizer(L, 40))
        checked += 1


def test_centralizer_integer_spectrum_finite():
    c = centralizer(parse_matrix("3,1;0,5"))
    assert isinstance(c, CentralizerFinite)
    assert len(c.elements) == 4  # the Klein four involutions


def test_eigenvector_matrix_normalization():
    # 3,0;1,5 at t = 3: the first candidate (q, t - p) vanishes
    for L in (parse_matrix("4,1;2,5"), parse_matrix("3,0;1,5")):
        for t in integer_eigenvalues(L):
            col = _eigenvector(L, t)
            from math import gcd

            assert gcd(col[0], col[1]) == 1
            lead = col[0] if col[0] != 0 else col[1]
            assert lead > 0
            assert L.mul_vec(col) == (t * col[0], t * col[1])
    assert _eigenvector(parse_matrix("3,0;1,5"), 3) == (2, -1)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def sample_members(L, rng, count):
    cls = classify(L)
    gens = [g for g in cls.generators()]
    out = []
    for _ in range(count):
        m = ID2
        for _ in range(rng.randint(1, 4)):
            g = rng.choice(gens)
            if rng.random() < 0.5:
                g = unimodular_inverse(g)
            m = m * g
        out.append(m)
    return out


def test_group_closure_of_member_sets():
    rng = random.Random(31)
    for L in GOLDEN.values():
        members = sample_members(L, rng, 400)
        for m in members:
            assert is_member(L, m).member
            assert is_member(L, unimodular_inverse(m)).member
        for i in range(0, 400, 2):
            assert is_member(L, members[i] * members[i + 1]).member


def test_generators_pass_nc_depth_4():
    for L in GOLDEN.values():
        for g in classify(L).generators():
            assert g.det() in (1, -1)
            assert nc_passes(L, g, 4)


VIRTUALLY_Z_CASES = [
    parse_matrix("6,1;0,2"),   # relation branch, conjugator from gcd data
    parse_matrix("6,4;0,2"),   # parameterized family, k = 1
    parse_matrix("3,1;0,6"),   # all upper triangular in the given basis
    parse_matrix("6,0;0,2"),   # diagonal, members lower triangular
    parse_matrix("4,1;2,5"),   # non-triangular with integer eigenvalues
]


def test_virtually_z_conjugator_maps_members_to_upper_triangular():
    rng = random.Random(47)
    for L in VIRTUALLY_Z_CASES:
        cls = classify(L)
        assert isinstance(cls, VirtuallyZ)
        c = cls.conjugator
        ci = unimodular_inverse(c)
        members = sample_members(L, rng, 30)
        for m in members:
            assert (c * m * ci).rows[1][0] == 0
        # and conversely conjugated unipotents are members
        for b in (-3, 1, 7):
            m = ci * IntMatrix(((1, b), (0, 1))) * c
            assert is_member(L, m).member


def test_derived_witness_is_a_member_commutator():
    for L in VIRTUALLY_Z_CASES:
        cls = classify(L)
        w = cls.derived_witness
        assert is_member(L, w).member
        assert nc_passes(L, w, 4)
        assert w.trace() == 2 and w != ID2  # parabolic, infinite order
        # witness = [a, b] for the conjugated unipotent and sign matrix
        c = cls.conjugator
        ci = unimodular_inverse(c)
        a = ci * IntMatrix(((1, 1), (0, 1))) * c
        b = ci * IntMatrix(((-1, 0), (0, 1))) * c
        assert is_member(L, a).member and is_member(L, b).member
        comm = a * b * unimodular_inverse(a) * unimodular_inverse(b)
        assert comm == w


def test_conjugation_covariance_of_classify():
    rng = random.Random(37)
    for L in GOLDEN.values():
        base_cls = classify(L)
        for _ in range(6):
            U = rand_unimodular_steps(rng)
            Ui = unimodular_inverse(U)
            Lc = U * L * Ui
            cls_c = classify(Lc)
            assert cls_c.tag == base_cls.tag
            if isinstance(base_cls, (CentralizerFinite, KleinFour)):
                assert set(cls_c.elements) == {U * m * Ui for m in base_cls.elements}
            for _ in range(10):
                M = rand_unimodular_small(rng, 2)
                assert is_member(L, M).member == is_member(Lc, U * M * Ui).member


def test_classify_total_on_small_expansions():
    tags = {
        "full-gl2",
        "centralizer-finite",
        "centralizer-infinite",
        "klein-four",
        "order-two",
        "virtually-z",
    }
    count = 0
    for a, b, c, d in product(range(-6, 7), repeat=4):
        L = IntMatrix(((a, b), (c, d)))
        if not is_expansion(L):
            continue
        count += 1
        assert classify(L).tag in tags
    assert count > 3000
