"""The one centralizer route of classify2d against independent oracles.

For a non-scalar 2x2 L, with g = gcd(q, r, p - s) and A = (L - s Id)/g,
the unimodular matrices commuting with L are the a Id + y A whose
x = 2a + y trace(A) solves x^2 - D' y^2 = +-4, D' = disc(L)/g^2.  The
oracles here are sympy's diop_DN, the least-y scan and the bounded
finite enumeration that the route replaced, and brute force over
bounded entries.
"""

import random
import sys
import time
from collections import Counter
from itertools import count, product
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint
from sympy.solvers.diophantine.diophantine import diop_DN
from tests_shared import add, brute_force_centralizer, centralizer, commutes, scale

from odosym import classify2d
from odosym.classify2d import (
    CentralizerFinite,
    CentralizerInfinite,
    FullGL2,
    _order_units,
    _pell_walk,
    _pell_xs,
    _unit_lines,
    classify,
)
from odosym.errors import SizeGuardError
from odosym.intmat import IntMatrix, is_expansion, parse_matrix

ID2 = IntMatrix.identity(2)


def order_data(L):
    """(g, A, D') of the order Z Id + Z A of the non-scalar matrix L."""
    (p, q), (r, s) = L.rows
    g = gcd(q, r, p - s)
    A = IntMatrix((((p - s) // g, q // g), (r // g, 0)))
    return g, A, ((p - s) ** 2 + 4 * q * r) // (g * g)


def unit_xy(L, M):
    """(x, y) with M = a Id + y A and x = 2a + y trace(A); asserts M is of that form."""
    _, A, _ = order_data(L)
    (m11, m12), (m21, m22) = M.rows
    (a11, a12), (a21, _) = A.rows
    y = next(m // a for m, a in ((m12, a12), (m21, a21), (m11 - m22, a11)) if a)
    assert M == add(scale(IntMatrix.identity(2), m22), scale(A, y))
    return M.trace(), y


def cf_pell_pm4_oracle(d, k_bound=4000):
    """The least-y scan the route replaced: minimal y, then minimal x."""
    for y in range(1, k_bound):
        for t in (d * y * y - 4, d * y * y + 4):
            if t >= 0:
                x = isqrt(t)
                if x * x == t:
                    return x, y
    raise AssertionError("oracle exhausted")


def full_period_pell_oracle(d):
    """The walk over a whole continued-fraction period that _pell_walk replaced.

    Returns the least (x, y) and how the half-period walk must end: "norm-4"
    at the first convergent of norm +-4 (the palindrome puts it in the first
    half), "short" for a period of length 1 or 2 (closed by Q = 1 before any
    midpoint test), else "odd" or "even", the parity of the period length.
    """
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p0, p, q0, q = 1, a0, 0, 1
    for k in count(1):
        m = den * a - m
        den = (d - m * m) // den
        if den == 4:
            return (p, q), "norm-4"
        if den == 1:
            return (2 * p, 2 * q), "short" if k <= 2 else ("odd" if k % 2 else "even")
        a = (a0 + m) // den
        p0, p = p, a * p + p0
        q0, q = q, a * q + q0


def sympy_least_pm4(d):
    """Least (x, y), y > 0, of x^2 - d y^2 = +-4 from sympy's diop_DN.

    diop_DN lists one fundamental solution per class; the unit of least y
    is a primitive solution of +-4 or twice the fundamental one of +-1.
    """
    sols = [(abs(x), abs(y)) for n in (4, -4) for x, y in diop_DN(d, n) if y]
    sols += [(2 * abs(x), 2 * abs(y)) for n in (1, -1) for x, y in diop_DN(d, n) if y]
    return min(sols, key=lambda t: (t[1], t[0]))


def companion(d):
    """A matrix with g = 1 and D' = d: [[0, -det], [1, t]], t = d mod 2."""
    t = d % 2
    return IntMatrix(((0, -(t * t - d) // 4), (1, t)))


def finite_enumeration_oracle(L):
    """The bounded enumeration of a finite centralizer that the route replaced.

    The bound on m11 - m22 comes from the determinant constraint
    m11 m22 - (m11 - m22)^2 qr/(p-s)^2 = +-1, definite for a complex
    spectrum and factoring over the integers for a square discriminant.
    """
    (p, q), (r, s) = L.rows
    disc = L.trace() ** 2 - 4 * L.det()
    out = {ID2, -ID2}
    if p == s:
        if q != 0:
            if disc < 0:
                bound = isqrt(abs(q) // max(1, abs(r))) + 1
            else:
                bound = q * q // max(1, isqrt(q * r)) + 1
            for m12 in range(-bound, bound + 1):
                if m12 == 0 or (m12 * r) % q:
                    continue
                m21 = m12 * r // q
                for unit in (1, -1):
                    usq = unit + m12 * m21
                    if usq >= 0 and isqrt(usq) ** 2 == usq:
                        for u in (isqrt(usq), -isqrt(usq)):
                            m = IntMatrix(((u, m12), (m21, u)))
                            if m.det() in (1, -1):
                                out.add(m)
        return out
    if disc < 0:
        dbound = isqrt(4 * (p - s) ** 2 // abs(disc)) + 1
    else:
        dbound = (4 * (p - s) ** 2) // max(1, isqrt(disc)) + 2
    for delta in range(-dbound, dbound + 1):
        if delta == 0 or (q * delta) % (p - s) or (r * delta) % (p - s):
            continue
        m12, m21 = q * delta // (p - s), r * delta // (p - s)
        for unit in (1, -1):
            disc2 = delta * delta + 4 * (unit + m12 * m21)
            if disc2 < 0 or isqrt(disc2) ** 2 != disc2:
                continue
            for num in (-delta + isqrt(disc2), -delta - isqrt(disc2)):
                if num % 2 == 0:
                    m = IntMatrix(((num // 2 + delta, m12), (m21, num // 2)))
                    if m.det() in (1, -1):
                        out.add(m)
    return out


# ---------------------------------------------------------------------------
# the real irrational case: half a continued-fraction period
# ---------------------------------------------------------------------------


def test_unit_route_companion_examples():
    # D' = 5 (direct search): x = 1 and x = 3 both solve at y = 1, and the
    # tie-break takes the smaller entries, then the larger trace
    assert cf_pell_pm4_oracle(5) == (1, 1)
    for text, g, want in (
        ("0,-11;1,7", 1, "-2,-11;1,5"),
        ("4,1;1,3", 1, "0,-1;-1,1"),
        ("5,2;2,3", 2, "0,-1;-1,1"),
    ):
        L = parse_matrix(text)
        assert order_data(L)[::2] == (g, 5)
        m = centralizer(L).automorph
        assert commutes(L, m) and m.det() in (1, -1) and m not in (ID2, -ID2)
        x, y = unit_xy(L, m)
        assert abs(y) == 1 and x * x - 5 in (4, -4)
        assert m == parse_matrix(want)


def test_pell_fundamental_matches_oracles():
    # D' <= 16, the direct search: the scan's least y for every non-square
    # discriminant (D' = trace(A)^2 - 4 det(A) is 0 or 1 mod 4)
    for d in range(2, 17):
        if isqrt(d) ** 2 != d and d % 4 in (0, 1):
            x, y = unit_xy(companion(d), _order_units(companion(d)).automorph)
            assert abs(y) == cf_pell_pm4_oracle(d)[1]
            assert x * x - d * y * y in (4, -4)
    # D' > 16, half a period: exactly the scan's and sympy's least solution
    for d in (21, 29, 53, 61, 173, 293):
        assert _pell_walk(d, 0) == cf_pell_pm4_oracle(d)
    for d in range(17, 3000):
        if isqrt(d) ** 2 != d:
            assert _pell_walk(d, 0) == sympy_least_pm4(d), d


def test_half_period_walk_matches_the_full_period():
    rng = random.Random(16)
    small = [d for d in range(17, 20001) if isqrt(d) ** 2 != d]
    drawn = [d for d in (rng.randint(17, 10**9) for _ in range(2000)) if isqrt(d) ** 2 != d]
    for ds in (small, drawn):
        ends = Counter()
        for d in ds:
            want, end = full_period_pell_oracle(d)
            assert _pell_walk(d, 0) == want, d
            ends[end] += 1
        # both midpoint formulas are reached
        assert ends["odd"] > 0 and ends["even"] > 0, ends


# large D' with short periods: n^2 + c has a unit of y <= 2 for c in +-1, +-4
_SHORT_PERIOD = st.builds(lambda n, c: n * n + c, st.integers(5, 10**6), st.integers(-4, 4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.integers(17, 10**5), st.integers(17, 10**12), _SHORT_PERIOD))
def test_walk_y_has_exactly_one_root(d):
    assume(17 <= d <= 10**12 and isqrt(d) ** 2 != d)
    try:
        x, y = _pell_walk(d, sys.get_int_max_str_digits())
    except SizeGuardError:
        return  # the unit has more digits than the interpreter prints
    # D' y^2 - 4 and D' y^2 + 4 are never both squares for D' > 16 (the only
    # squares 8 apart are 1 and 9, which needs D' y^2 = 5), so x is read off y
    assert _pell_xs(d, y) == [x]
    if d <= 10**5:
        assert (x, y) == sympy_least_pm4(d)


def test_no_digit_limit_calls_no_guard(monkeypatch):
    ds = [d for d in range(17, 400) if isqrt(d) ** 2 != d and d % 4 < 2] + [148201]
    limit = sys.get_int_max_str_digits()
    walks = [_pell_walk(d, limit) for d in ds]
    classes = [_cold_classify(companion(d)) for d in ds]
    calls = []
    guard = classify2d._digit_guard
    monkeypatch.setattr(classify2d, "_digit_guard", lambda *a: calls.append(a) or guard(*a))
    try:
        sys.set_int_max_str_digits(0)
        assert [_pell_walk(d, 0) for d in ds] == walks
        assert [_cold_classify(companion(d)) for d in ds] == classes
    finally:
        sys.set_int_max_str_digits(limit)
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-300, 300)] * 4))
def test_automorph_is_the_least_unit(entries):
    a, b, c, d = entries
    L = IntMatrix(((a, b), (c, d)))
    assume((b, c, a - d) != (0, 0, 0) and is_expansion(L))
    _, _, dp = order_data(L)
    assume(dp > 0 and isqrt(dp) ** 2 != dp)
    m = centralizer(L).automorph
    assert commutes(L, m) and m.det() in (1, -1) and m not in (ID2, -ID2)
    x, y = unit_xy(L, m)
    y = abs(y)
    for k in range(1, min(y, 2000)):
        for t in (dp * k * k - 4, dp * k * k + 4):
            assert t < 0 or isqrt(t) ** 2 != t, (dp, k)
    assert y == sympy_least_pm4(dp)[1]


def test_route_matches_replaced_routes_on_small_bases():
    finite = infinite = 0
    for rows in product(range(-5, 6), repeat=4):
        L = IntMatrix((rows[:2], rows[2:]))
        if (rows[1], rows[2], rows[0] - rows[3]) == (0, 0, 0) or not is_expansion(L):
            continue
        _, _, dp = order_data(L)
        cls = centralizer(L)
        if dp < 0 or (dp > 0 and isqrt(dp) ** 2 == dp):
            assert isinstance(cls, CentralizerFinite)
            assert set(cls.elements) == finite_enumeration_oracle(L)
            finite += 1
        elif dp > 0:
            assert abs(unit_xy(L, cls.automorph)[1]) == cf_pell_pm4_oracle(dp)[1]
            infinite += 1
    assert finite > 2000 and infinite > 2000


# ---------------------------------------------------------------------------
# a repeated eigenvalue: D' = 0
# ---------------------------------------------------------------------------


def test_disc_zero_centralizer_is_unipotent_family():
    rng = random.Random(11)
    bases = [
        IntMatrix((rows[:2], rows[2:]))
        for rows in product(range(-8, 9), repeat=4)
        if (rows[1], rows[2]) != (0, 0)  # disc 0 and q = r = 0 is scalar
        and (rows[0] - rows[3]) ** 2 + 4 * rows[1] * rows[2] == 0
        and is_expansion(IntMatrix((rows[:2], rows[2:])))
    ]
    assert len(bases) == 744
    for L in [parse_matrix("3,1;0,3")] + rng.sample(bases, 11):
        _, A, _ = order_data(L)
        N = A - scale(IntMatrix.identity(2), A.trace() // 2)  # nilpotent
        assert N * N == scale(IntMatrix.identity(2), 0)
        family = {
            e * add(ID2, scale(N, b))
            for b in range(-80, 81)
            for e in (ID2, -ID2)
            if add(ID2, scale(N, b)).max_abs() <= 40
        }
        assert set(brute_force_centralizer(L, 40)) == family
        cls = centralizer(L)
        assert isinstance(cls, CentralizerInfinite)
        assert cls.automorph == add(ID2, N)
        assert isinstance(classify(L), FullGL2)  # rad(t^2) | 2t
    assert centralizer(parse_matrix("3,1;0,3")).automorph == parse_matrix("1,1;0,1")


# ---------------------------------------------------------------------------
# large inputs: exact answers, each under 10 ms warm
# ---------------------------------------------------------------------------


def _best_ms(fn, *args):
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def _cold_classify(L):
    """classify with nothing of L cached."""
    _unit_lines.cache_clear()
    return classify(L)


def test_probe_large_fundamental_unit():
    # D = 148201: the automorph has about 400 digits
    L = parse_matrix("0,-392;1,387")
    cls = classify(L)
    assert isinstance(cls, CentralizerInfinite)
    m = cls.automorph
    assert commutes(L, m) and m.det() in (1, -1)
    x, y = unit_xy(L, m)
    assert (abs(x), abs(y)) == sympy_least_pm4(148201)
    assert _best_ms(_cold_classify, L) < 10


def test_probe_large_determinant():
    # det is about 1e24: the radical test needs no factorization
    L = parse_matrix("1000000000001,7;3,1000000000009")
    rad = 1
    for prime in factorint(L.det()):
        rad *= prime
    assert L.trace() % rad != 0
    # D' = 148 and 12^2 - 148 = -4, so y = 1
    assert classify(L) == CentralizerInfinite(parse_matrix("2,7;3,10"))
    assert _best_ms(_cold_classify, L) < 10


def test_probe_complex_spectrum_with_huge_entry():
    L = parse_matrix("1,100000000000000;-1,1")
    assert classify(L) == CentralizerFinite((-ID2, ID2))
    assert _best_ms(_cold_classify, L) < 10


def test_probe_square_discriminant_with_huge_gap():
    L = parse_matrix("1000000,1;0,3")
    assert centralizer(L) == CentralizerFinite((-ID2, ID2))
    assert set(brute_force_centralizer(L, 6)) == {ID2, -ID2}
    assert _best_ms(centralizer, L) < 10


def test_size_guard_on_a_unit_past_the_half_period():
    # the half-period convergents of D' = 1000000000065 stay under the
    # digit limit, so the walk returns; the unit built from them does not
    d = 1000000000065
    limit = sys.get_int_max_str_digits()
    started = time.perf_counter()
    x, _ = _pell_walk(d, limit)
    assert x >= 10**limit
    with pytest.raises(SizeGuardError) as err:
        centralizer(companion(d))
    assert time.perf_counter() - started < 1
    assert order_data(companion(d))[2] == d
    assert f"D'={d}" in str(err.value)
    assert f"more than {limit} digits" in str(err.value)


def test_size_guard_names_the_limit():
    L = parse_matrix("-92397,22060;-34713,70124")
    started = time.perf_counter()
    with pytest.raises(SizeGuardError) as err:
        centralizer(L)
    assert time.perf_counter() - started < 1
    assert f"D'={order_data(L)[2]}" in str(err.value)
    assert f"more than {sys.get_int_max_str_digits()} digits" in str(err.value)
