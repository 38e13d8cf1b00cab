"""The digit kernel (`solve_exact`, `valuation`, `tau`) against oracles
that never call it: iterated substitution for the fixed-point patches and
Hermite-form membership of the lattices L^p(Z^d) for valuations."""

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from tests_shared import substitute

from odosym.errors import MarginError, SingularMatrixError
from odosym.intmat import (
    IntMatrix,
    fundamental_domain,
    hnf,
    is_expansion,
    parse_matrix,
    validate_domain,
    vec_add,
    vec_sub,
)
from odosym.substitution import (
    ConstantShapeSubstitution,
    fixed_point_patch,
    half_hex,
    sigma_L,
    supports,
    tau,
    valuation,
)

# A negative determinant, non-diagonal bases and a 3x3 base, besides the
# random ones below.
FIXED_BASES = [
    "3,1;0,5", "1,2;-2,1", "0,-3;1,0", "2,1;1,-2", "1,-3;1,1", "2,1,0;0,2,1;1,0,2"
]
PATCH_CELLS = 1500  # largest |F_n| built per base


def random_expansion(rng, d, bound, max_det):
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        m = IntMatrix(rows)
        if 3 <= abs(m.det()) <= max_det and is_expansion(m):
            return m


def kernel_cases():
    rng = random.Random(20231018)
    cases = [(text, sigma_L(parse_matrix(text))) for text in FIXED_BASES]
    cases.append(("half-hex", half_hex()))
    for k in range(6):
        m = random_expansion(rng, 2, 4, 12)
        cases.append((f"rand2-{k}", sigma_L(m)))
    for k in range(3):
        m = random_expansion(rng, 3, 2, 8)
        cases.append((f"rand3-{k}", sigma_L(m)))
    return cases


CASES = kernel_cases()
IDS = [name for name, _ in CASES]


def test_cases_cover_the_required_shapes():
    bases = [s.base for _, s in CASES]
    assert any(b.det() < 0 for b in bases)
    off_diagonal = [(i, j) for i in range(3) for j in range(3) if i != j]
    assert any(any(b.rows[i][j] for i, j in off_diagonal if max(i, j) < b.dim) for b in bases)
    assert {b.dim for b in bases} == {2, 3}
    assert "half-hex" in IDS


@pytest.mark.parametrize("s", [s for _, s in CASES], ids=IDS)
def test_fixed_point_patch_is_iterated_substitution(s):
    det = abs(s.base.det())
    n = 1
    while det ** (n + 1) <= PATCH_CELLS:
        n += 1
    region = supports(s, n)[n]
    for seed in sorted(s.alphabet)[:2]:
        iterated = {(0,) * s.dim: seed}
        for _ in range(n):
            iterated = substitute(s, iterated)
        assert iterated.keys() == region
        assert fixed_point_patch(s, seed, region) == iterated


def random_rule(rng, d, det):
    """A general rule: a random expansion with the given |det|, digits moved by
    random vectors of L(Z^d), two or three letters with random images, and
    the least letter fixed at the origin of its image."""
    while True:
        base = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        if abs(base.det()) == det and is_expansion(base):
            break
    moves = [base.mul_vec([rng.randint(-1, 1) for _ in range(d)]) for _ in range(d)]
    reps = [f if not any(f) else vec_add(f, rng.choice(moves)) for f in fundamental_domain(base).reps]
    domain = validate_domain(base, reps)
    letters = [(k,) for k in range(rng.randint(2, 3))]
    table = {a: {f: rng.choice(letters) for f in reps} for a in letters}
    table[letters[0]][(0,) * d] = letters[0]
    return ConstantShapeSubstitution(domain, table), letters[0]


@pytest.mark.parametrize("d, det", [(d, det) for d in (2, 3) for det in range(2, 7)])
@pytest.mark.parametrize("k", range(2))
def test_general_rule_letters_follow_the_rule(k, d, det):
    s, seed = random_rule(random.Random(20260000 + 10 * k + 2 * det + d), d, det)
    iterated = {(0,) * d: seed}
    while len(iterated) * det <= PATCH_CELLS:
        iterated = substitute(s, iterated)
    assert fixed_point_patch(s, seed, iterated) == iterated
    # a box, one cell at a time: a cell either has its letter or none
    region = list(product(range(-4 if d == 2 else -2, 5 if d == 2 else 3), repeat=d))
    filled = {}
    for p in region:
        try:
            filled.update(fixed_point_patch(s, seed, [p]))
        except MarginError:
            pass
    assert filled.keys() >= {p for p in region if p in iterated}
    for j, a in filled.items():
        lj = s.base.mul_vec(j)
        for f, b in s.table[a].items():
            assert filled.get(vec_add(lj, f), b) == b
    if len(filled) == len(region):
        assert fixed_point_patch(s, seed, region) == filled
    else:
        with pytest.raises(MarginError, match=f" {len(filled)} of the {len(region)} "):
            fixed_point_patch(s, seed, region)


def _oracle_valuation(L, v, cap=60):
    """Largest p with v in L^p(Z^d); the lattices decrease, so scan up."""
    p = 0
    while hnf(L ** (p + 1)).contains(v):
        p += 1
        assert p < cap, "oracle scan did not terminate"
    return p


@pytest.mark.parametrize("s", [s for _, s in CASES], ids=IDS)
def test_valuation_and_tau_match_hnf_membership(s):
    L = s.base
    rng = random.Random(7)
    # small vectors plus deep multiples L^k(v), so high valuations occur
    samples = [v for v in product(range(-3, 4), repeat=s.dim) if any(v)]
    for _ in range(40):
        v = tuple(rng.randint(-9, 9) for _ in range(s.dim))
        if any(v):
            samples.append((L ** rng.randint(1, 4)).mul_vec(v))
    for v in samples:
        p = _oracle_valuation(L, v)
        assert valuation(s, v) == p
        digit = tau(s, v)
        assert digit in s.domain.reps and any(digit)
        # v = L^p(f) + L^{p+1}(z): the digit is fixed mod L^{p+1}(Z^d)
        rest = tuple(a - b for a, b in zip(v, (L**p).mul_vec(digit)))
        assert hnf(L ** (p + 1)).contains(rest)


@pytest.mark.parametrize("d, bound", [(2, 4), (3, 3)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduce_first_tau_on_random_bases(d, bound, data):
    # tau reduces mod L(Z^d) before it solves; the oracle is membership in
    # the Hermite basis of L^{p+1}(Z^d), which never calls solve_exact
    entries = data.draw(
        st.lists(st.integers(-bound, bound), min_size=d * d, max_size=d * d)
    )
    L = IntMatrix([entries[i * d : (i + 1) * d] for i in range(d)])
    assume(abs(L.det()) >= 3 and is_expansion(L))
    s = sigma_L(L)
    k = data.draw(st.integers(0, 3))
    v = (L**k).mul_vec(data.draw(st.tuples(*[st.integers(-40, 40)] * d).filter(any)))
    p = valuation(s, v)
    digit = tau(s, v)
    assert p >= k
    assert digit in s.alphabet  # the letters are the nonzero digits
    assert hnf(L ** (p + 1)).contains(vec_sub(v, (L**p).mul_vec(digit)))


@pytest.mark.parametrize("s", [s for _, s in CASES], ids=IDS)
def test_solve_exact_agrees_with_lattice_membership(s):
    L = s.base
    lattice = hnf(L)
    for v in product(range(-4, 5), repeat=s.dim):
        x = L.solve_exact(v)
        if lattice.contains(v):
            assert x is not None and L.mul_vec(x) == v
        else:
            assert x is None


def test_solve_exact_on_a_singular_matrix_raises_every_time():
    m = parse_matrix("2,4;1,2")
    for _ in range(2):  # a failed solve must not leave cached inverse data behind
        with pytest.raises(SingularMatrixError):
            m.solve_exact((2, 1))


@pytest.mark.parametrize("v", [(1,), (1, 2, 3)])
def test_wrong_vector_length_raises(v):
    m = parse_matrix("3,1;0,5")
    with pytest.raises(ValueError):
        m.mul_vec(v)
    with pytest.raises(ValueError):
        m.solve_exact(v)


@pytest.mark.parametrize("fn", [tau, valuation])
def test_digit_maps_raise_at_the_origin(fn):
    with pytest.raises(ValueError, match="undefined at the origin"):
        fn(half_hex(), (0, 0))


def test_domain_membership_set_is_outside_equality():
    hh = half_hex()
    again = validate_domain(hh.base, hh.domain.reps)
    assert again == hh.domain
