import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from tests_shared import ConstantBase, OdometerPoint, add, kappa_embed, nc_passes, scale

from odosym import intmat, odometer
from odosym.errors import DepthError, NotExpansionError, SizeGuardError
from odosym.intmat import IntMatrix, hnf, is_expansion, parse_matrix
from odosym.odometer import (
    NcCertificate,
    _mat_mul_mod,
    nc_bounded_check,
    nc_search,
    verify_nc_certificate,
)

TWO = scale(IntMatrix.identity(2), 2)
SWAP = parse_matrix("0,1;1,0")


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
    base = ConstantBase(TWO)
    with pytest.raises(DepthError):
        kappa_embed((1, 0), base, -1)


def test_kappa_embed_has_no_depth_cap():
    L = parse_matrix("2,-1;1,3")
    base = ConstantBase(L)
    for v in [(3, 1), (-7, 12), (10**15, -(10**14))]:
        p = kappa_embed(v, base, 40)
        assert p.depth == 40
        assert p.digit(40) == hnf(L**40).reduce_vec(v)
        assert p.digit(25) == hnf(L**25).reduce_vec(v)


def test_nonexpansion_base_rejected():
    with pytest.raises(NotExpansionError):
        ConstantBase(parse_matrix("1,1;0,1"))


def test_return_time_check():
    # translating a point of the cylinder [a]_n by m stays in it iff m is in Z_n
    rng = random.Random(12)
    probes = [(2, 0), (1, 0)] + [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(30)]
    for base, level, digit in (
        (ConstantBase(TWO), 1, (1, 1)),
        (ConstantBase(TWO), 2, (3, 1)),
        (ConstantBase(parse_matrix("2,-1;1,3")), 2, (1, 1)),
    ):
        basis = hnf(base.matrix**level)
        a = basis.reduce_vec(digit)
        for m in probes:
            stays = basis.reduce_vec((a[0] + m[0], a[1] + m[1])) == a
            assert stays == basis.contains(m)


def test_digit_compatibility_enforced():
    base = ConstantBase(TWO)
    with pytest.raises(ValueError):
        OdometerPoint(base, ((0, 0), (1, 0), (0, 0)))


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
    # for diag(2,4) the lower unipotent needs the witness m(n) = 2n
    certs = nc_bounded_check(parse_matrix("2,0;0,4"), parse_matrix("1,0;1,1"), 3)
    assert [c.m for c in certs] == [2, 4, 6]


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


def test_depth_guard_names_the_limit_and_builds_nothing(monkeypatch):
    built = []
    real = odometer._doubling_table
    monkeypatch.setattr(odometer, "_doubling_table", lambda *a: built.append(a) or real(*a))
    L5, inv = parse_matrix("3,1;0,5"), parse_matrix("1,-1;0,-1")
    tracemalloc.start()
    try:
        for check in (nc_bounded_check, nc_search):
            with pytest.raises(SizeGuardError) as err:
                check(L5, inv, 1001)
            assert str(err.value) == "depth 1001, over the limit of 1000"
        with pytest.raises(SizeGuardError):
            verify_nc_certificate(L5, inv, NcCertificate(1001, 1001, 8008))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [] and peak < 100_000
    # the limit itself is walked: 2 Id with the swap has m(n) = n at every depth
    certs = nc_bounded_check(TWO, SWAP, 1000)
    assert [c.m for c in certs] == list(range(1, 1001))
    assert len(built) == 1


@pytest.mark.parametrize("base, mat", [("2,0;0,2", "1,0,0;0,1,0;0,0,1"),
                                       ("2,0,0;0,2,0;0,0,2", "0,1;1,0")])
def test_walk_refuses_matrices_of_another_size(base, mat):
    # the message of IntMatrix's product, whose size check the walk keeps;
    # the CLI prints it with exit 2 (test_cli, nc-dims-differ)
    L, M = parse_matrix(base), parse_matrix(mat)
    n, k = L.dim, M.dim
    for check in (nc_bounded_check, nc_search):
        with pytest.raises(ValueError) as err:
            check(L, M, 3)
        assert str(err.value) == f"cannot multiply a {n}x{n} matrix by a {k}x{k} one"
        assert type(err.value) is ValueError


def test_every_walked_certificate_is_rechecked_on_random_bases():
    # random 2x2 and 3x3 expansion bases with unimodular, singular and other M;
    # verify_nc_certificate recomputes each depth without the walk
    rng = random.Random(28)
    kinds = set()
    for d, bases in ((2, 40), (3, 12)):
        walked = 0
        while walked < bases:
            L = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d)))
            if not is_expansion(L):
                continue
            walked += 1
            for _ in range(6):
                M = IntMatrix(tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)))
                certs = nc_bounded_check(L, M, 5)
                assert [c.n for c in certs] == [1, 2, 3, 4, 5]
                assert all(verify_nc_certificate(L, M, c) for c in certs), (L.rows, M.rows)
                kinds.add((d, certs[0].present, certs[-1].present))
    # both sizes reach Present throughout, Absent throughout, and Absent from a later depth
    shapes = ((True, True), (False, False), (True, False))
    assert kinds == {(d, *shape) for d in (2, 3) for shape in shapes}


def test_a_walk_forms_det_and_adj_in_one_faddeev_pass_in_dim_3_and_4(monkeypatch):
    # the expansion test, the walk's expansion check and its det(L) and adj(L)
    # read one Faddeev-LeVerrier pass kept on L: one pass in all, and every
    # certificate the walk writes passes the recheck, which builds L^n without
    # the walk
    calls, faddeev = [], intmat._faddeev
    monkeypatch.setattr(intmat, "_faddeev", lambda rows: calls.append(rows) or faddeev(rows))
    rng, walked, kinds = random.Random(45), {3: 0, 4: 0}, set()
    while min(walked.values()) < 8:
        d = rng.choice([3, 4])
        L = IntMatrix([[rng.randint(-3, 3) + 3 * (i == j) for j in range(d)] for i in range(d)])
        calls.clear()
        if not is_expansion(L):
            continue
        walked[d] += 1
        M = IntMatrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        M = M if walked[d] % 2 else L**4 * M  # L^4 M passes at depths 1..4, m = 0
        certs = nc_bounded_check(L, M, 4)
        assert calls == [L.rows], (L.rows, len(calls))
        # a fresh copy of L makes its own one pass, in the expansion check
        assert nc_bounded_check(IntMatrix(L.rows), M, 4) == certs
        assert calls == [L.rows] * 2, (L.rows, len(calls))
        assert all(verify_nc_certificate(L, M, c) for c in certs), (L.rows, M.rows)
        kinds.add((certs[0].present, certs[-1].present))
    assert kinds >= {(True, True), (False, False)}


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


def test_depth_walk_matches_bruteforce_and_per_depth_search():
    # the walk starts each depth at the previous witness and stops searching
    # after the first Absent; brute force and per-depth searches from m = 0 do neither
    rng = random.Random(18)
    bases = [parse_matrix("6,1;0,2"), parse_matrix("3,1;0,5"), parse_matrix("1,1,0;0,1,1;1,0,2")]
    seen = set()
    for L in bases:
        d = L.dim
        # L commutes with itself; the zero and all-ones matrices are singular
        fixed = [L, scale(IntMatrix.identity(d), 0), IntMatrix(((1,) * d,) * d)]
        for M in fixed + [
            IntMatrix(tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)))
            for _ in range(9)
        ]:
            certs = nc_bounded_check(L, M, 4)
            ms = [c.m for c in certs]
            assert ms == [_bruteforce_least_witness(L, M, n) for n in range(1, 5)], (L.rows, M.rows)
            assert certs == [nc_search(L, M, n) for n in range(1, 5)], (L.rows, M.rows)
            assert all(verify_nc_certificate(L, M, c) for c in certs), (L.rows, M.rows)
            seen.add((M.det() == 0, ms[0] is None, ms[-1] is None))
    # (singular, Absent at depth 1, Absent at depth 4): both kinds of M, Present
    # throughout, Absent throughout, and Absent from a later depth on
    assert {(True, False, False), (False, True, True), (False, False, False)} <= seen
    assert (False, False, True) in seen or (True, False, True) in seen, seen


SMALL = st.integers(-4, 4)
MATRIX_2X2 = st.tuples(st.tuples(SMALL, SMALL), st.tuples(SMALL, SMALL))
ENTRY = st.integers(-(10**30), 10**30)
ROWS_2X2 = st.tuples(st.tuples(ENTRY, ENTRY), st.tuples(ENTRY, ENTRY))


@given(ROWS_2X2, ROWS_2X2, st.integers(1, 10**30))
def test_2d_mat_mul_mod_matches_the_general_loop(a, b, mod):
    # padded with a zero row and column, the 3x3 product is _rows_mul reduced mod `mod`
    def pad(m):
        return tuple(r + (0,) for r in m) + ((0, 0, 0),)

    assert pad(_mat_mul_mod(a, b, mod)) == _mat_mul_mod(pad(a), pad(b), mod)


@settings(max_examples=150, deadline=None)
@given(MATRIX_2X2, MATRIX_2X2)
def test_least_witness_is_monotone_in_depth(rows_l, rows_m):
    # L^-n M L^m = L (L^-(n+1) M L^m): a depth-(n+1) witness is one at depth n
    L, M = IntMatrix(rows_l), IntMatrix(rows_m)
    assume(is_expansion(L))
    ms = [nc_search(L, M, n).m for n in range(1, 6)]
    for shallow, deep in zip(ms, ms[1:]):
        if shallow is None:
            assert deep is None, ms
        elif deep is not None:
            assert shallow <= deep, ms


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
            M = add(scale(IntMatrix.identity(2), a), scale(L, b))
            if nc_passes(L, M, 3):
                passing.append(M)
        for i in range(0, 8, 2):
            m1, m2 = passing[i], passing[i + 1]
            assert nc_passes(L, add(m1, m2), 3)
            assert nc_passes(L, m1 * m2, 3)


def test_commuting_power_implies_nc():
    rng = random.Random(16)
    bases = [parse_matrix("2,-1;1,3"), parse_matrix("2,-1;1,5"), parse_matrix("3,1;0,5")]
    for L in bases:
        for k in (1, 2, 3):
            lk = L**k
            for _ in range(5):
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                M = add(scale(IntMatrix.identity(2), a), scale(lk, b))
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
