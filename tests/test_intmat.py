import random
import re as regex
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Poly, Rational, Symbol, factorint, im, re
from tests_shared import ROOT, count_matrix_builds, parse_matrix_per_token, scale

from odosym.errors import (
    DomainCardinalityError,
    DomainCosetCollisionError,
    DomainMissingZeroError,
    DomainValidationError,
    MatrixParseError,
    SingularMatrixError,
    SizeGuardError,
)
from odosym import intmat
from odosym.intmat import (
    HnfBasis,
    IntMatrix,
    char_poly,
    format_matrix,
    fundamental_domain,
    hnf,
    integer_eigenvalues,
    is_expansion,
    parse_matrix,
    parse_vector,
    rad_divides,
    validate_domain,
)

ID2 = IntMatrix.identity(2)


def rand_matrix(rng, d, lo=-5, hi=5):
    return IntMatrix(
        [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]
    )


def rand_unimodular(rng, d=2, steps=6):
    m = IntMatrix.identity(d)
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        rows = [list(r) for r in m.rows]
        c = rng.choice([-2, -1, 1, 2])
        for k in range(d):
            rows[i][k] += c * rows[j][k]
        m = IntMatrix(rows)
        if rng.random() < 0.3:
            m = -m
    return m


# ---------------------------------------------------------------------------
# adjugate
# ---------------------------------------------------------------------------


def test_adjugate_examples():
    assert scale(IntMatrix.identity(2), 2).adjugate() == scale(IntMatrix.identity(2), 2)
    assert ID2.adjugate() == ID2
    m = parse_matrix("2,-1;1,3")
    a = m.adjugate()
    assert a == parse_matrix("3,1;-1,2")
    assert a * m == scale(IntMatrix.identity(2), 7)


def test_adjugate_identity_random():
    # sympy is the oracle: when det = 0, adj*M = det*Id does not fix adj, so
    # singular matrices, forced here by a repeated row, are checked against it too
    rng = random.Random(1)
    singular = 0
    for _ in range(80):
        d = rng.choice([1, 2, 3, 4])
        m = rand_matrix(rng, d)
        if d > 1 and rng.random() < 0.25:
            m = IntMatrix(m.rows[:-1] + m.rows[-2:-1])
        det = m.det()
        singular += det == 0
        a = m.adjugate()
        assert a * m == scale(IntMatrix.identity(d), det)
        assert m * a == scale(IntMatrix.identity(d), det)
        assert Matrix(m.rows).adjugate() == Matrix(a.rows), m.rows
        # the rows-level kernel, which the odometer walk reads, on its own
        kernel_det, kernel_adj = intmat._det_adj(m.rows)
        assert kernel_det == Matrix(m.rows).det(), m.rows
        assert Matrix(m.rows).adjugate() == Matrix(kernel_adj), m.rows
    assert singular >= 10


def test_inv_unimodular_is_the_inverse_and_builds_one_matrix(monkeypatch):
    # products of elementary matrices, a row negated in about half of them, so
    # both determinants come up in every d
    rng = random.Random(4)
    built, seen = count_matrix_builds(monkeypatch), set()
    for _ in range(160):
        d = rng.choice([1, 2, 3, 4])
        u = rand_unimodular(rng, d) if d > 1 else IntMatrix.identity(1)
        if rng.random() < 0.5:
            u = IntMatrix((tuple(-x for x in u.rows[0]),) + u.rows[1:])
        built.clear()
        inv = intmat._inv_unimodular(u)
        assert len(built) == 1, (u.rows, built)
        assert u * inv == IntMatrix.identity(d) == inv * u, u.rows
        seen.add((d, u.det()))
    assert seen == {(d, det) for d in (1, 2, 3, 4) for det in (1, -1)}


def test_inverse_takes_one_faddeev_pass_in_dim_3_and_4(monkeypatch):
    # det and adj come from one Faddeev-LeVerrier pass, kept on the matrix, and
    # _inv_unimodular reads that pair: no pass of its own, at either determinant
    calls, faddeev = [], intmat._faddeev
    monkeypatch.setattr(intmat, "_faddeev", lambda rows: calls.append(rows) or faddeev(rows))
    rng, seen = random.Random(44), set()
    for _ in range(40):
        d = rng.choice([3, 4])
        u = rand_unimodular(rng, d)
        if rng.random() < 0.5:
            u = IntMatrix((tuple(-x for x in u.rows[0]),) + u.rows[1:])
        rows = [[rng.choice([0, rng.randint(-4, 4)]) for _ in range(d)] for _ in range(d)]
        calls.clear()
        if Matrix(rows).det() == 0:
            with pytest.raises(SingularMatrixError):
                IntMatrix(rows)._inverse
        else:
            det, adj = IntMatrix(rows)._inverse
            assert det == Matrix(rows).det() and Matrix(adj) == Matrix(rows).adjugate()
        assert len(calls) == 1, rows
        calls.clear()
        inv = intmat._inv_unimodular(u)
        assert len(calls) == 1, (u.rows, len(calls))
        assert u * inv == IntMatrix.identity(d) == inv * u, u.rows
        seen.add((d, u.det()))
    assert seen == {(d, det) for d in (3, 4) for det in (1, -1)}


def test_det_against_sympy():
    # d = 2 has its closed form; every other d, 1 and 3 among them, takes the
    # last Faddeev-LeVerrier coefficient, here on sparse and singular matrices
    rng = random.Random(3)
    for _ in range(200):
        d = rng.choice([1, 2, 3, 4])
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(d)] for _ in range(d)]
        assert IntMatrix(rows).det() == Matrix(rows).det(), rows


def test_char_poly_matches_det_and_trace():
    # det is itself read off the last coefficient, so the oracle is sympy,
    # which computes every coefficient by its own method (Berkowitz)
    rng = random.Random(2)
    for _ in range(80):
        d = rng.choice([1, 2, 3, 4])
        m = rand_matrix(rng, d)
        assert char_poly(m) == Matrix(m.rows).charpoly().all_coeffs(), m.rows


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------


def radical_oracle(n):
    rad = 1
    for p in factorint(abs(n)):
        rad *= p
    return rad


def test_rad_divides_examples():
    assert rad_divides(12, 6) and rad_divides(12, 18) and rad_divides(12, -30)
    assert not rad_divides(12, 4) and not rad_divides(12, 9)
    assert rad_divides(-8, 2) and not rad_divides(-8, 3)
    assert rad_divides(11, 11) and rad_divides(11, 0) and not rad_divides(11, 12)
    # 2^40 3^20 1000003: high powers and a large prime, rad = 6000018
    n = 2**40 * 3**20 * 1000003
    assert rad_divides(n, 6000018) and not rad_divides(n, 2000006)
    # det of 1000000000001,7;3,1000000000009 (about 1e24) against its trace
    det = 1000000000001 * 1000000000009 - 21
    assert radical_oracle(det) == 2 * 41 * 6097560975670731707317
    assert not rad_divides(det, 2000000000010)
    assert rad_divides(det, 2 * 41 * 6097560975670731707317 * 5)


@pytest.mark.parametrize("n", [0, 1, -1])
def test_rad_divides_edge_cases(n):
    # rad(+-1) = 1 divides everything; rad(0) is undefined
    if n == 0:
        with pytest.raises(ValueError):
            rad_divides(n, 6)
    else:
        assert all(rad_divides(n, t) for t in (-7, 0, 1, 5))


_PRIMES = (2, 3, 5, 7, 11, 13, 101, 1000003)


@given(
    st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=8),
    st.lists(st.sampled_from(_PRIMES), max_size=8),
    st.integers(-50, 50),
    st.sampled_from((1, -1)),
)
def test_rad_divides_matches_factorint(n_primes, t_primes, k, sign):
    n = sign
    for p in n_primes:
        n *= p
    t = k
    for p in t_primes:
        t *= p
    assert rad_divides(n, t) == (t % radical_oracle(n) == 0)


# ---------------------------------------------------------------------------
# hnf
# ---------------------------------------------------------------------------


def test_hnf_examples():
    assert hnf(parse_matrix("1,2;0,1")).matrix == ID2
    assert hnf(parse_matrix("2,0;0,2")).matrix == parse_matrix("2,0;0,2")
    h = hnf(parse_matrix("0,2;3,0"))
    assert abs(h.matrix.det()) == 6


def test_hnf_lattice_equality_bruteforce():
    # membership oracle over a box: same lattice as the source columns
    m = parse_matrix("0,2;3,0")
    h = hnf(m)
    for v in product(range(-6, 7), repeat=2):
        in_src = any(
            tuple(m.mul_vec((a, b))) == v for a in range(-9, 10) for b in range(-9, 10)
        )
        assert h.contains(v) == in_src


def test_hnf_convention_and_idempotence():
    rng = random.Random(3)
    for _ in range(60):
        m = rand_matrix(rng, rng.choice([1, 2, 3]))
        if m.det() == 0:
            continue
        h = hnf(m).matrix
        d = h.dim
        for i in range(d):
            assert h.rows[i][i] > 0
            for j in range(d):
                if j > i:
                    assert h.rows[i][j] == 0
                elif j < i:
                    assert 0 <= h.rows[i][j] < h.rows[i][i]
        assert hnf(h).matrix == h
        assert abs(h.det()) == abs(m.det())


def test_hnf_invariant_under_unimodular_column_change():
    rng = random.Random(4)
    for _ in range(50):
        m = rand_matrix(rng, 2)
        if m.det() == 0:
            continue
        u = rand_unimodular(rng, 2)
        assert hnf(m * u).matrix == hnf(m).matrix


def test_hnf_singular_rejected():
    with pytest.raises(SingularMatrixError):
        hnf(parse_matrix("1,2;2,4"))


# ---------------------------------------------------------------------------
# fundamental domains
# ---------------------------------------------------------------------------


def test_fundamental_domain_examples():
    f = fundamental_domain(scale(IntMatrix.identity(2), 2))
    assert set(f.reps) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    f2 = fundamental_domain(parse_matrix("2,0;0,4"))
    assert set(f2.reps) == {(a, b) for a in range(2) for b in range(4)}
    f3 = fundamental_domain(parse_matrix("2,-1;1,3"))
    assert len(f3.reps) == 7
    assert (0, 0) in f3.reps
    basis = hnf(parse_matrix("2,-1;1,3"))
    for i, a in enumerate(f3.reps):
        for b in f3.reps[i + 1 :]:
            assert not basis.contains(tuple(x - y for x, y in zip(a, b)))


def test_fundamental_domain_passes_validate_random():
    rng = random.Random(6)
    checked = 0
    while checked < 40:
        m = rand_matrix(rng, 2, -4, 4)
        if m.det() == 0 or abs(m.det()) > 30:
            continue
        f = fundamental_domain(m)
        v = validate_domain(m, f.reps)
        assert set(v.reps) == set(f.reps)
        checked += 1


def test_fundamental_domain_is_hashable():
    L = parse_matrix("2,-1;1,3")
    a, b = fundamental_domain(L), fundamental_domain(L)
    v = validate_domain(L, a.reps)
    assert a is not b and a == b == v
    assert hash(a) == hash(b) == hash(v)
    assert {a: "domain"}[v] == "domain"
    two = scale(IntMatrix.identity(2), 2)
    box = fundamental_domain(two)
    hh = validate_domain(two, [(0, 0), (1, 0), (0, 1), (1, -1)])
    assert box != hh and len({box, hh, fundamental_domain(two)}) == 2


def test_validate_domain_half_hex_and_errors():
    two = scale(IntMatrix.identity(2), 2)
    hh = validate_domain(two, [(0, 0), (1, 0), (0, 1), (1, -1)])
    assert len(hh.reps) == 4
    validate_domain(two, [(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(DomainCosetCollisionError):
        validate_domain(two, [(0, 0), (2, 0), (0, 1), (1, 1)])
    with pytest.raises(DomainCardinalityError):
        validate_domain(two, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(DomainMissingZeroError):
        validate_domain(two, [(1, 1), (1, 0), (0, 1), (2, 2)])
    with pytest.raises(DomainValidationError, match="2 coordinates"):
        validate_domain(two, [(0, 0), (1, 0), (0, 1, 0), (1, 1)])


def test_domain_guard_names_the_limit_before_hnf(monkeypatch):
    # F has |det| digits: a base with 100,001 digits raises, given F or not,
    # before hnf or box_reps runs; 100,000 digits are built
    big = IntMatrix(((11, 0), (0, 9091)))
    at_limit = IntMatrix(((100, 0), (0, 1000)))
    assert len(fundamental_domain(at_limit).reps) == 100_000
    assert len(validate_domain(at_limit, fundamental_domain(at_limit).reps).reps) == 100_000

    def refused(m):
        raise AssertionError("hnf ran")

    monkeypatch.setattr(intmat, "hnf", refused)
    for build in (lambda: fundamental_domain(big), lambda: validate_domain(big, [(0, 0)])):
        with pytest.raises(SizeGuardError) as err:
            build()
        assert str(err.value) == (
            "F has |det| = 100001 digits, over the limit of 100000 digits"
        )
    with pytest.raises(SingularMatrixError):
        fundamental_domain(IntMatrix(((1, 2), (2, 4))))


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix(((2.5, 0), (0, 3))),
        lambda: IntMatrix(((2, 0), (0, "3"))),
        lambda: IntMatrix(((2, 0), (0, 3.0))),
        lambda: validate_domain(IntMatrix(((2, 0), (0, 2))), [(0, 0), (1, 0), (0, 1), (1.0, 1)]),
    ],
    ids=["float-entry", "str-entry", "integral-float-entry", "float-domain"],
)
def test_entries_must_be_exact_integers(build):
    # int() would truncate 2.5 to 2 and read '3' as 3
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix(((1, 2),)), "must be square"),
        (lambda: ID2 ** -1, "only nonnegative integer powers"),
        (lambda: ID2 * IntMatrix.identity(3), "cannot multiply a 2x2 matrix by a 3x3 one"),
        # subtraction used to zip the rows and drop the extra ones
        (lambda: IntMatrix.identity(3) - ID2, "cannot subtract a 3x3 matrix and a 2x2 one"),
        (lambda: ID2 - IntMatrix.identity(3), "cannot subtract a 2x2 matrix and a 3x3 one"),
        (lambda: integer_eigenvalues(IntMatrix.identity(3)), "for 2x2 matrices"),
    ],
    ids=["not-square", "negative-power", "dims-differ", "sub-dims-differ", "sub-dims-differ-2x2",
         "eigenvalues-3x3"],
)
def test_shape_and_power_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "a", [parse_matrix("2,-1;1,3"), parse_matrix("0,-3;1,2"), parse_matrix("1,2,0;-1,0,3;2,1,1")]
)
def test_power_is_repeated_product(a):
    want = IntMatrix.identity(a.dim)
    for n in range(13):
        assert a**n == want, n
        want = want * a


def test_entrywise_operands_must_be_matrices():
    # as with *, a non-matrix operand is handed back to Python, which raises;
    # IntMatrix has no +, so a sum of matrices raises too
    for build in (lambda: ID2 - 1, lambda: ID2 - None, lambda: 1 - ID2, lambda: ID2 + ID2):
        with pytest.raises(TypeError):
            build()


def split(v, domain):
    """(digit, quotient) with v = L(quotient) + digit, as tau reads them."""
    digit = domain.digit_of(v)
    return digit, domain.base.solve_exact(tuple(x - y for x, y in zip(v, digit)))


# ---------------------------------------------------------------------------
# 2-D kernels against reference loops: the closed forms of mul_vec and the
# product, and reduce_vec's one loop
# ---------------------------------------------------------------------------

BIG = st.integers(-10**30, 10**30)


def _apply_reference(rows, v):
    return tuple(sum(rows[i][k] * v[k] for k in range(len(v))) for i in range(len(rows)))


def _mul_reference(a, b):
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def _reduce_reference(h, v):
    w = list(v)
    for i in range(len(h)):
        q = w[i] // h[i][i]
        for k in range(i, len(h)):
            w[k] -= q * h[k][i]
    return tuple(w)


@given(st.lists(BIG, min_size=4, max_size=4), st.lists(BIG, min_size=4, max_size=4),
       st.lists(BIG, min_size=2, max_size=2))
def test_2d_kernels_match_the_general_loop(a, b, v):
    ma, mb = IntMatrix((a[:2], a[2:])), IntMatrix((b[:2], b[2:]))
    assert ma.mul_vec(tuple(v)) == _apply_reference(ma.rows, v)
    assert (ma * mb).rows == _mul_reference(ma.rows, mb.rows)
    with pytest.raises(ValueError):
        ma.mul_vec((1, 2, 3))


@given(st.integers(1, 10**30), st.integers(1, 10**30), BIG, BIG, BIG)
def test_2d_reduce_vec_matches_the_general_loop(h00, h11, h10, x, y):
    h = ((h00, 0), (h10 % h11, h11))
    basis = HnfBasis(IntMatrix(h))
    got = basis.reduce_vec((x, y))
    assert got == _reduce_reference(h, (x, y))
    assert 0 <= got[0] < h00 and 0 <= got[1] < h11
    # x - got is in the lattice: solve against the basis exactly
    assert IntMatrix(h).solve_exact((x - got[0], y - got[1])) is not None


def test_reduce_examples():
    two = scale(IntMatrix.identity(2), 2)
    hh = validate_domain(two, [(0, 0), (1, 0), (0, 1), (1, -1)])
    assert split((3, 1), hh) == ((1, -1), (1, 1))
    assert split((0, 0), hh) == ((0, 0), (0, 0))
    box = fundamental_domain(parse_matrix("2,0;0,4"))
    assert split((5, 2), box) == ((1, 2), (2, 0))


def test_reduce_is_bijection_on_box():
    rng = random.Random(7)
    for _ in range(10):
        m = rand_matrix(rng, 2, -3, 3)
        if m.det() == 0 or abs(m.det()) > 12:
            continue
        f = fundamental_domain(m)
        seen = set()
        for v in product(range(-5, 6), repeat=2):
            digit, quot = split(v, f)
            assert digit in f.reps
            assert tuple(m.mul_vec(quot)) == tuple(
                x - y for x, y in zip(v, digit)
            )
            assert (digit, quot) not in seen
            seen.add((digit, quot))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_integer_eigenvalues_examples():
    assert integer_eigenvalues(parse_matrix("3,1;0,5")) == [3, 5]
    assert integer_eigenvalues(parse_matrix("2,-1;1,3")) == []
    assert integer_eigenvalues(ID2) == [1, 1]


def _triangular_conjugates():
    """Matrices U T U^{-1}, T upper triangular: integer eigenvalues, square discriminant."""
    small = st.integers(-9, 9)
    shears = st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), max_size=4)

    def build(l1, l2, b, steps):
        m = IntMatrix(((l1, b), (0, l2)))
        for lower, k in steps:
            u = IntMatrix(((1, 0), (k, 1)) if lower else ((1, k), (0, 1)))
            m = u * m * IntMatrix(((1, 0), (-k, 1)) if lower else ((1, -k), (0, 1)))
        return m

    return st.builds(build, small, small, small, shears)


@settings(max_examples=300, deadline=None)
@given(
    m=st.one_of(
        st.lists(st.integers(-20, 20), min_size=4, max_size=4).map(
            lambda e: IntMatrix((e[:2], e[2:]))
        ),
        _triangular_conjugates(),
    )
)
def test_integer_eigenvalues_against_sympy_roots(m):
    # sympy's roots of the characteristic polynomial, with multiplicity, are
    # the oracle: the answer lists them when all are integers, else nothing
    roots = Matrix(m.rows).eigenvals()
    listed = sorted(int(r) for r, k in roots.items() for _ in range(k) if r.is_integer)
    assert integer_eigenvalues(m) == (listed if len(listed) == 2 else [])


def test_is_expansion_examples():
    assert is_expansion(scale(IntMatrix.identity(2), 2))
    assert not is_expansion(parse_matrix("1,1;0,1"))
    assert is_expansion(parse_matrix("2,-1;1,3"))
    assert is_expansion(parse_matrix("0,2;3,0"))  # eigenvalues +-sqrt(6)
    assert not is_expansion(parse_matrix("0,1;1,0"))
    assert not is_expansion(parse_matrix("3,0;0,1"))


def test_is_expansion_dim3():
    assert is_expansion(IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert is_expansion(IntMatrix([[0, 0, -2], [1, 0, 0], [0, 1, 0]]))
    assert not is_expansion(IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]]))
    assert not is_expansion(IntMatrix([[2, 0, 0], [0, 0, -1], [0, 1, 0]]))


def _outside_unit_circle(x1, x2, y1, y2):
    """True / False when the box [x1, x2] x [y1, y2] lies outside / inside the
    closed unit disk, None when it meets the circle: exact rational arithmetic."""
    near = lambda lo, hi: 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    if near(x1, x2) ** 2 + near(y1, y2) ** 2 > 1:
        return True
    if max(x1 * x1, x2 * x2) + max(y1 * y1, y2 * y2) < 1:
        return False
    return None


def _expansion_oracle(m):
    """Every root of the characteristic polynomial has modulus > 1, decided by
    sympy's exact root isolation (test-only oracle)."""
    x = Symbol("x")
    coeffs = char_poly(m)
    chi = Poly(coeffs, x)
    # the moduli of the roots multiply to |chi(0)|
    if abs(coeffs[-1]) <= 1:
        return False
    # a common root w of chi and its reversal is 1/z for a root z: one of them
    # has modulus <= 1, and this catches every root on the unit circle
    if chi.gcd(Poly(coeffs[::-1], x)).degree() > 0:
        return False
    eps = None
    while True:
        real, cplx = chi.sqf_part().intervals(all=True, eps=eps)
        boxes = [(a, b, 0, 0) for (a, b), _ in real]
        boxes += [(re(lo), re(hi), im(lo), im(hi)) for (lo, hi), _ in cplx]
        verdicts = [_outside_unit_circle(*box) for box in boxes]
        if None not in verdicts:
            return all(verdicts)
        # no root is on the circle, so refining decides every box
        eps = Rational(1, 16) if eps is None else eps / 16


def test_is_expansion_dim3_against_modulus_oracle():
    # every draw is checked, roots on or near the unit circle included
    rng = random.Random(8)
    seen = set()
    for _ in range(60):
        m = rand_matrix(rng, 3, -3, 3)
        want = _expansion_oracle(m)
        assert is_expansion(m) == want, m.rows
        seen.add(want)
    assert seen == {True, False}
    # roots on the circle (cube roots of unity, +-i), |root| = 2^(1/3), and
    # x^3 - 4x^2 - 4x + 3, whose Schur-Cohn step meets |a0| = |an|
    for rows, want in (
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], False),
        ([[2, 0, 0], [0, 0, -1], [0, 1, 0]], False),
        ([[0, 0, -2], [1, 0, 0], [0, 1, 0]], True),
        ([[0, 0, -3], [1, 0, 4], [0, 1, 4]], False),
    ):
        m = IntMatrix(rows)
        assert is_expansion(m) is _expansion_oracle(m) is want


def test_is_expansion_dim1_takes_the_schur_cohn_route():
    for a in range(-4, 5):
        m = IntMatrix(((a,),))
        assert is_expansion(m) is _expansion_oracle(m) is (abs(a) > 1), a


def test_is_expansion_dim4_against_modulus_oracle():
    rng = random.Random(9)
    seen = set()
    for _ in range(20):
        m = rand_matrix(rng, 4, -2, 2)
        want = _expansion_oracle(m)
        assert is_expansion(m) == want, m.rows
        seen.add(want)
    assert seen == {True, False}


def _companion(*c):
    """The companion matrix of x^d + c[d-1] x^(d-1) + ... + c[0]."""
    d = len(c)
    return IntMatrix([[int(i == j + 1) for j in range(d - 1)] + [-c[i]] for i in range(d)])


def test_is_expansion_off_dim2_rejects_the_unit_circle_and_zero_by_recursion_alone():
    # d != 2 has no pre-check for an eigenvalue 0, 1 or -1: the Schur-Cohn
    # recursion must reject each, and every other root of unity, by itself
    rejected = {
        "p(0) = 0": [
            IntMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 5]]),
            _companion(0, 2, 1),
            IntMatrix([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]),
            _companion(0, 0, 3, 5),
        ],
        "p(1) = 0": [
            IntMatrix([[1, 0, 0], [3, 2, 0], [1, 1, 3]]),
            _companion(-1, 0, 0),  # x^3 - 1
            IntMatrix([[3, 1, 0, 2], [0, 1, 0, 0], [1, 2, -2, 0], [0, 1, 0, 4]]),
            _companion(-1, 0, 0, 0),  # x^4 - 1
        ],
        "p(-1) = 0": [
            IntMatrix([[-1, 0, 0], [3, 2, 0], [1, 1, 3]]),
            _companion(1, 0, 0),  # x^3 + 1
            IntMatrix([[3, 1, 0, 2], [0, -1, 0, 0], [1, 2, -2, 0], [0, 1, 0, 4]]),
            _companion(-2, -1, -1, -1),  # (x + 1)(x - 2)(x^2 + 1)
        ],
        "other roots of unity": [
            _companion(3, 1, 3),  # (x + 3)(x^2 + 1)
            _companion(-2, -1, -1),  # (x - 2)(x^2 + x + 1)
            _companion(1, 0, 0, 0),  # x^4 + 1
            _companion(1, 1, 1, 1),  # the primitive fifth roots of unity
        ],
    }
    for case, mats in rejected.items():
        for m in mats:
            p = char_poly(m)
            at = {x: sum(c * x ** (m.dim - i) for i, c in enumerate(p)) for x in (0, 1, -1)}
            hit = {"p(0) = 0": at[0] == 0, "p(1) = 0": at[1] == 0, "p(-1) = 0": at[-1] == 0}
            assert hit.get(case, not any(hit.values())), (case, m.rows)
            assert is_expansion(m) is _expansion_oracle(m) is False, (case, m.rows)
    # beside them, expansions of the same shapes
    for m in (_companion(3, 0, 0), _companion(2, 0, 0, 0), _companion(7, 1, 0, 3)):
        assert is_expansion(m) is _expansion_oracle(m) is True, m.rows


def test_is_expansion_dim2_closed_form_equals_the_recursion_on_all_small_matrices():
    # every 2x2 matrix with entries in [-7, 7], companion or not: the closed form
    # agrees with the general Schur-Cohn recursion on the reversed polynomial
    count = 0
    for a, b, c, e in product(range(-7, 8), repeat=4):
        m = IntMatrix(((a, b), (c, e)))
        want = intmat._all_roots_in_open_unit_disk(char_poly(m)[::-1])
        assert is_expansion(m) is want, m.rows
        count += want
    assert 0 < count < 15**4


def test_is_expansion_dim2_boundaries_against_modulus_oracle():
    # every x^2 - t x + D with |t| <= 6 and |D| <= 9, as a companion matrix:
    # the closed form |D| > 1 and |t| < |D + 1| meets both of its boundaries
    # here, |D| = 1 and |t| = |D + 1| (an eigenvalue 1 or -1: p(1) = 0 or
    # p(-1) = 0), and also a double root (disc = 0) and |t| = 2
    met = set()
    for t, det in product(range(-6, 7), range(-9, 10)):
        m = IntMatrix(((0, -det), (1, t)))
        want = _expansion_oracle(m)
        assert is_expansion(m) is want, (t, det)
        disc, p1, p_1 = t * t - 4 * det, 1 - t + det, 1 + t + det
        cases = {
            "disc = 0": disc == 0,
            "|t| = 2": abs(t) == 2,
            "p(1) = 0": p1 == 0,
            "p(-1) = 0": p_1 == 0,
            "p(1), p(-1) < 0": p1 < 0 and p_1 < 0,
            "p(1), p(-1) > 0, disc > 0": p1 > 0 and p_1 > 0 and disc > 0,
        }
        met.update((name, want) for name, hit in cases.items() if hit)
    # in the last case both roots lie above 1, below -1 or in (-1, 1); in
    # (-1, 1) their product D is 0, then t = 0 and disc = 0: it always expands
    assert met >= {
        ("disc = 0", True), ("disc = 0", False), ("|t| = 2", True), ("|t| = 2", False),
        ("p(1) = 0", False), ("p(-1) = 0", False), ("p(1), p(-1) < 0", True),
        ("p(1), p(-1) > 0, disc > 0", True),
    }


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------


def test_parse_and_format_roundtrip():
    m = parse_matrix("2,-1;1,3")
    assert m.rows == ((2, -1), (1, 3))
    assert parse_matrix(format_matrix(m)) == m
    assert parse_vector("(3,1)") == (3, 1)
    assert parse_vector("3,1") == (3, 1)


def test_parse_errors_cite_token():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("2,x;1,3")
    assert err.value.token == "x"
    assert err.value.position is not None
    with pytest.raises(MatrixParseError):
        parse_matrix("1,2,3;4,5,6")


def written_matrix_texts() -> dict:
    """Per source, every quoted or backticked text with a digit in it and every value
    of a matrix flag: README, CI and the test files."""
    sources = {
        "README": [ROOT / "README.md"],
        "CI": [ROOT / ".github" / "workflows" / "tests.yml"],
        "tests": sorted((ROOT / "tests").glob("*.py")),
    }
    out = {}
    for name, paths in sources.items():
        texts = set()
        for path in paths:
            text = path.read_text()
            for groups in regex.findall(r'"([^"\n]*)"|\'([^\'\n]*)\'|`([^`\n]*)`', text):
                texts.update(g for g in groups if any(c.isdigit() for c in g))
            texts.update(regex.findall(r"--(?:L|M|base|matrix)[ =]([^\s\"'`]+)", text))
        out[name] = sorted(texts)
    return out


# tokens the generator mixes in: signs, underscores, non-ASCII digits (Arabic-Indic
# three, fullwidth seven), Unicode and ASCII whitespace (\x1c and \x1f, which strip()
# takes and int() does not), and tokens int() refuses
ODD_TOKENS = [
    "+7", "-0", "1_000", "\u0663", "-\uff17", " 4 ", "\t5\n", "\u20036\u2003", "\x1c8", "9\x1f", "",
    " ", "x", "1.5", "--2", "_1", "1__0", "+-1", "2_", "0x10", "\u0663\u0663", "1 2", "(1",
]


def generated_matrix_texts(count: int = 3000) -> list:
    """Derandomized texts of 1 to 4 rows: mostly square rows of integers, with odd
    tokens, rows of another length, a trailing ';' and padding mixed in."""
    rng, out = random.Random(53), []
    for _ in range(count):
        n = rng.randint(1, 4)
        rows = n if rng.random() < 0.8 else rng.randint(1, 5)
        chunks = []
        for _ in range(rows):
            width = n if rng.random() < 0.9 else rng.randint(1, 5)
            tokens = [
                rng.choice(ODD_TOKENS) if rng.random() < 0.08 else str(rng.randint(-30, 30))
                for _ in range(width)
            ]
            chunks.append(",".join(tokens))
        text = ";".join(chunks) + (";" if rng.random() < 0.05 else "")
        pad = rng.choice(["", "", " ", "\t", "\u2003", " \n"])
        out.append(pad + text + rng.choice(["", "", " ", "\n"]))
    return out


def _parsed(parse, text):
    try:
        rows = parse(text).rows
    except MatrixParseError as exc:
        return "error", str(exc), exc.token, exc.position
    assert all(type(x) is int for r in rows for x in r), (text, rows)
    return "matrix", rows


def test_parse_matrix_reads_every_text_as_the_per_token_parser():
    # parse_matrix reads each row with the token reader parse_vector uses, the
    # position carried across rows: the same matrix, or the same error, message,
    # token and position
    corpora = {**written_matrix_texts(), "generator": generated_matrix_texts()}
    for name, texts in corpora.items():
        kinds = set()
        for text in texts:
            want = _parsed(parse_matrix_per_token, text)
            assert _parsed(parse_matrix, text) == want, (name, text)
            kinds.add(want[0] if want[0] == "matrix" else want[1].split(":")[0][:12])
        assert {"matrix", "bad integer "} <= kinds, (name, kinds)
    assert {"not a square"} <= kinds, kinds
