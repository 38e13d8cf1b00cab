import random

import pytest

from odosym.errors import BaseMismatchError, DepthError, NotExpansionError
from odosym.intmat import IntMatrix, parse_matrix
from odosym.odometer import (
    ChainBase,
    ConstantBase,
    NcCertificate,
    OdometerPoint,
    add,
    chain_nc_check,
    epimorphism_digits,
    kappa_embed,
    nc_bounded_check,
    nc_passes,
    nc_search,
    return_time_check,
    universal_chain,
    verify_nc_certificate,
)

TWO = IntMatrix.scalar(2, 2)
SWAP = parse_matrix("0,1;1,0")


def rand_vec(rng, lo=-9, hi=9):
    return (rng.randint(lo, hi), rng.randint(lo, hi))


def rand_unimodular(rng, bound=3):
    while True:
        m = IntMatrix(
            ((rng.randint(-bound, bound), rng.randint(-bound, bound)),
             (rng.randint(-bound, bound), rng.randint(-bound, bound)))
        )
        if m.det() in (1, -1):
            return m


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_kappa_examples():
    base = ConstantBase(TWO)
    assert kappa_embed((0, 0), base, 3).digits == tuple([(0, 0)] * 4)
    p = kappa_embed((3, 1), base, 2)
    assert p.digits == ((0, 0), (1, 1), (3, 1))
    q = kappa_embed((-1, 0), base, 2)
    assert q.digits[1] == (1, 0) and q.digits[2] == (3, 0)


def test_kappa_depth_guard():
    base = ConstantBase(TWO, max_depth=4)
    with pytest.raises(DepthError):
        kappa_embed((1, 0), base, 5)


def test_nonexpansion_base_rejected():
    with pytest.raises(NotExpansionError):
        ConstantBase(parse_matrix("1,1;0,1"))


def test_add_identity_and_carry():
    base = ConstantBase(TWO)
    p = kappa_embed((3, 1), base, 3)
    zero = kappa_embed((0, 0), base, 3)
    assert add(p, zero) == p
    s = add(kappa_embed((1, 0), base, 2), kappa_embed((1, 0), base, 2))
    assert s.digits[1] == (0, 0)
    assert s == kappa_embed((2, 0), base, 2)


def test_add_is_homomorphism_random():
    rng = random.Random(11)
    base = ConstantBase(parse_matrix("2,-1;1,3"))
    for _ in range(40):
        u, v = rand_vec(rng), rand_vec(rng)
        lhs = add(kappa_embed(u, base, 4), kappa_embed(v, base, 4))
        rhs = kappa_embed((u[0] + v[0], u[1] + v[1]), base, 4)
        assert lhs == rhs


def test_add_base_mismatch():
    with pytest.raises(BaseMismatchError):
        add(
            kappa_embed((1, 0), ConstantBase(TWO), 2),
            kappa_embed((1, 0), ConstantBase(TWO), 3),
        )


def test_digit_compatibility_enforced():
    base = ConstantBase(TWO)
    with pytest.raises(ValueError):
        OdometerPoint(base, ((0, 0), (1, 0), (0, 0)))


def test_return_time_check():
    base = ConstantBase(TWO)
    assert return_time_check(base, 1, (1, 1), [(2, 0)])
    assert return_time_check(base, 1, (1, 1), [(1, 0)])
    rng = random.Random(12)
    probes = [rand_vec(rng) for _ in range(30)]
    assert return_time_check(base, 2, (3, 1), probes)
    b2 = ConstantBase(parse_matrix("2,-1;1,3"))
    assert return_time_check(b2, 2, (1, 1), probes)


# ---------------------------------------------------------------------------
# normalizer condition
# ---------------------------------------------------------------------------


def test_nc_search_examples():
    c = nc_search(TWO, SWAP, 3)
    assert c.m == 3
    L = parse_matrix("2,-1;1,3")
    c2 = nc_search(L, parse_matrix("1,1;-1,0"), 2)
    assert c2.m == 2
    c3 = nc_search(parse_matrix("3,1;0,5"), SWAP, 1)
    assert c3.m is None
    assert c3.bound == 8  # d * n * bitlen|det L| = 2 * 1 * 4


def test_nc_certificates_recheck():
    cases = [
        (TWO, SWAP, 3),
        (parse_matrix("2,-1;1,3"), parse_matrix("1,1;-1,0"), 2),
        (parse_matrix("3,1;0,5"), SWAP, 1),
        (parse_matrix("3,1;0,5"), parse_matrix("1,1;0,1"), 2),
        (parse_matrix("6,1;0,2"), parse_matrix("1,0;-8,-1"), 3),
    ]
    for L, M, n in cases:
        assert verify_nc_certificate(L, M, nc_search(L, M, n))


def test_nc_determinism():
    L = parse_matrix("2,1;0,3")
    M = parse_matrix("1,-2;0,-1")
    a = [nc_search(L, M, n) for n in range(1, 5)]
    b = [nc_search(L, M, n) for n in range(1, 5)]
    assert a == b


def test_nc_certificate_forgeries_rejected():
    # least witness is 3 and m* = 2 * 3 * bitlen(4) = 18
    genuine = nc_search(TWO, SWAP, 3)
    assert (genuine.m, genuine.bound) == (3, 18)
    forged = [
        NcCertificate(n=3, m=None, bound=0),
        NcCertificate(n=3, m=None, bound=18),
        NcCertificate(n=3, m=4, bound=18),
        NcCertificate(n=3, m=19, bound=18),
        NcCertificate(n=3, m=3, bound=19),
    ]
    for cert in forged:
        assert not verify_nc_certificate(TWO, SWAP, cert), cert


def test_nc_depth_below_one_rejected():
    for n in (0, -2):
        with pytest.raises(DepthError):
            nc_search(TWO, SWAP, n)
        with pytest.raises(DepthError):
            nc_bounded_check(TWO, SWAP, n)


def _bruteforce_least_witness(L, M, n):
    """Least m with adj(L^n) M L^m == 0 mod det(L^n), or None.

    Walks L^m mod det(L^n) until a state repeats; the states seen before
    the repeat are the preperiod plus one full period, so scanning them
    decides the condition for every m.
    """
    ln = L**n
    mod = abs(ln.det())
    a = ln.adjugate() * M
    seen = {}
    state = IntMatrix.identity(L.dim)
    while state.rows not in seen:
        seen[state.rows] = len(seen)
        if all(x % mod == 0 for r in (a * state).rows for x in r):
            return seen[state.rows]
        state = IntMatrix(tuple(tuple(x % mod for x in r) for r in (state * L).rows))
    return None


def test_nc_search_matches_bruteforce_oracle():
    rng = random.Random(13)
    bases = [TWO, parse_matrix("2,-1;1,3"), parse_matrix("3,1;0,5"), parse_matrix("6,1;0,2")]
    absent = 0
    for L in bases:
        for _ in range(12):
            M = IntMatrix(((rng.randint(-4, 4), rng.randint(-4, 4)),
                           (rng.randint(-4, 4), rng.randint(-4, 4))))
            for n in (1, 2, 3):
                expected = _bruteforce_least_witness(L, M, n)
                assert nc_search(L, M, n).m == expected, (L.rows, M.rows, n)
                absent += expected is None
    assert 0 < absent < 4 * 12 * 3


def test_nc_bounded_examples():
    rng = random.Random(14)
    for _ in range(10):
        M = rand_unimodular(rng)
        certs = nc_bounded_check(TWO, M, 4)
        assert all(c.present for c in certs)
    L5 = parse_matrix("3,1;0,5")
    assert nc_passes(L5, -IntMatrix.identity(2), 4)
    certs = nc_bounded_check(L5, parse_matrix("1,1;0,1"), 4)
    assert not all(c.present for c in certs)


def test_nc_ring_closure_sample():
    rng = random.Random(15)
    for L in (parse_matrix("2,-1;1,3"), parse_matrix("3,1;0,5")):
        passing = []
        while len(passing) < 8:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            M = IntMatrix.scalar(2, a) + L.scale(b)
            if nc_passes(L, M, 3):
                passing.append(M)
        for i in range(0, 8, 2):
            m1, m2 = passing[i], passing[i + 1]
            assert nc_passes(L, m1 + m2, 3)
            assert nc_passes(L, m1 * m2, 3)


def test_commuting_power_implies_nc():
    rng = random.Random(16)
    bases = [parse_matrix("2,-1;1,3"), parse_matrix("2,-1;1,5"), parse_matrix("3,1;0,5")]
    for L in bases:
        for k in (1, 2, 3):
            lk = L**k
            for _ in range(5):
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                M = IntMatrix.scalar(2, a) + lk.scale(b)
                assert M * lk == lk * M
                assert nc_passes(L, M, 3)


def test_nc_conjugation_covariance():
    from tests_shared import rand_unimodular_steps

    rng = random.Random(17)
    L = parse_matrix("3,1;0,5")
    for _ in range(10):
        U = rand_unimodular_steps(rng)
        ui = U.adjugate() if U.det() == 1 else -U.adjugate()
        Lc = U * L * ui
        M = rand_unimodular(rng, 2)
        Mc = U * M * ui
        assert nc_passes(L, M, 3) == nc_passes(Lc, Mc, 3)


# ---------------------------------------------------------------------------
# epimorphism digits
# ---------------------------------------------------------------------------


def test_epimorphism_identity():
    base = ConstantBase(TWO)
    certs = nc_bounded_check(TWO, IntMatrix.identity(2), 3)
    p = kappa_embed((3, 1), base, 3)
    assert epimorphism_digits(IntMatrix.identity(2), p, certs) == p


def test_epimorphism_equivariance_random():
    rng = random.Random(18)
    base = ConstantBase(TWO)
    M = SWAP
    certs = nc_bounded_check(TWO, M, 3)
    for _ in range(25):
        v = rand_vec(rng)
        p = kappa_embed(rand_vec(rng), base, 3)
        lhs = epimorphism_digits(M, add(kappa_embed(v, base, 3), p), certs)
        rhs = add(kappa_embed(M.mul_vec(v), base, 3), epimorphism_digits(M, p, certs))
        assert lhs == rhs


def test_epimorphism_missing_certificate():
    from odosym.errors import MissingCertificateError

    base = ConstantBase(TWO)
    p = kappa_embed((1, 0), base, 3)
    certs = nc_bounded_check(TWO, SWAP, 2)  # level 3 missing
    with pytest.raises(MissingCertificateError):
        epimorphism_digits(SWAP, p, certs)


def test_epimorphism_witness_beyond_depth():
    # for this base the lower unipotent needs the witness m(n) = 2n, so a
    # depth-3 point cannot feed the level-3 output digit
    L = parse_matrix("2,0;0,4")
    M = parse_matrix("1,0;1,1")
    certs = nc_bounded_check(L, M, 3)
    assert [c.m for c in certs] == [2, 4, 6]
    base = ConstantBase(L)
    p = kappa_embed((1, 1), base, 3)
    with pytest.raises(DepthError):
        epimorphism_digits(M, p, certs)
    deep = kappa_embed((1, 1), base, 6)
    out = epimorphism_digits(M, deep, certs, out_depth=3)
    assert out.depth == 3
    assert out.digit(2) == base.level_basis(2).reduce_vec(M.mul_vec(deep.digit(4)))
    assert out.digit(3) == base.level_basis(3).reduce_vec(M.mul_vec(deep.digit(6)))


def test_epimorphism_composition():
    rng = random.Random(19)
    base = ConstantBase(TWO)
    M1, M2 = SWAP, parse_matrix("1,1;0,1")
    c1 = nc_bounded_check(TWO, M1, 3)
    c2 = nc_bounded_check(TWO, M2, 3)
    c12 = nc_bounded_check(TWO, M1 * M2, 3)
    for _ in range(20):
        p = kappa_embed(rand_vec(rng), base, 3)
        lhs = epimorphism_digits(M1, epimorphism_digits(M2, p, c2), c1)
        rhs = epimorphism_digits(M1 * M2, p, c12)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_universal_chain_d1():
    ch = universal_chain(3, 1)
    assert [b.matrix.rows for b in ch.bases] == [((1,),), ((2,),), ((6,),)]


def test_universal_chain_nesting_strict():
    ch = universal_chain(6, 2)
    for a, b in zip(ch.bases, ch.bases[1:]):
        assert a.contains_lattice(b)
        assert a.matrix != b.matrix


def test_universal_chain_nc_demo():
    ch = universal_chain(6, 2)
    for M in (parse_matrix("2,1;1,1"), IntMatrix.identity(2), SWAP):
        for n in (0, 1, 2):
            assert chain_nc_check(ch, M, n).present


def test_chain_base_validation():
    from odosym.intmat import hnf

    good = ChainBase((hnf(IntMatrix.identity(2)), hnf(TWO)))
    assert good.capability() == 1
    with pytest.raises(ValueError):
        ChainBase((hnf(TWO), hnf(IntMatrix.identity(2))))
