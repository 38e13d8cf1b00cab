"""Truncated inverse-limit arithmetic for Z^d odometers.

A constant-base odometer is the inverse limit of Z^d / L^n(Z^d) for an
expansion matrix L.  Digits are stored as canonical HNF-box
representatives at every level, so equality of truncated points is plain
tuple equality.

The normalizer condition at depth n asks for an exponent m with

    adj(L^n) * M * L^m == 0  (mod det(L^n)).

The key facts that make this decidable exactly: the condition is upward
closed in m (multiply by L), and it no longer changes from the
stabilization bound m* = d*n*bitlen|det L| on.  So existence is settled by
one evaluation at m* and the least witness by binary search below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index

from .errors import DepthError, NotExpansionError
from .intmat import IntMatrix, Vec, hnf, is_expansion

# ---------------------------------------------------------------------------
# bases and points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantBase:
    """Levels Z_n = L^n(Z^d) for a fixed expansion matrix L."""

    matrix: IntMatrix

    def __post_init__(self):
        if not is_expansion(self.matrix):
            raise NotExpansionError(f"not an expansion matrix: {self.matrix}")

    @property
    def dim(self) -> int:
        return self.matrix.dim


@dataclass(frozen=True)
class OdometerPoint:
    """Digits g_0..g_N, each the canonical representative mod level n."""

    base: ConstantBase
    digits: tuple[Vec, ...]

    def __post_init__(self):
        # digit n+1 - digit n must lie in Z_n = L^n(Z^d); walk L^n level to level
        power = IntMatrix.identity(self.base.dim)
        for n in range(len(self.digits) - 1):
            diff = tuple(a - b for a, b in zip(self.digits[n + 1], self.digits[n]))
            if power.solve_exact(diff) is None:
                raise ValueError(f"digit compatibility broken between levels {n},{n+1}")
            power = power * self.base.matrix

    @property
    def depth(self) -> int:
        return len(self.digits) - 1

    def digit(self, n: int) -> Vec:
        return self.digits[n]


def kappa_embed(v: Vec, base: ConstantBase, depth: int) -> OdometerPoint:
    """Embed an integer vector: digits are v mod Z_n for n = 0..depth."""
    if depth < 0:
        raise DepthError(f"depth must be >= 0, got {depth}")
    v = tuple(map(index, v))
    power, digits = IntMatrix.identity(base.dim), []
    for _ in range(depth + 1):
        digits.append(hnf(power).reduce_vec(v))
        power = power * base.matrix
    return OdometerPoint(base, tuple(digits))


# ---------------------------------------------------------------------------
# normalizer condition for constant bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NcCertificate:
    """Outcome of the depth-n normalizer-condition search.

    m is the least witness exponent, or None when no exponent works; bound
    is the stabilization bound m* = d*n*bitlen|det L|, past which the
    condition no longer changes, so failing at m* makes Absent exact.
    """

    n: int
    m: int | None
    bound: int

    @property
    def present(self) -> bool:
        return self.m is not None

    def to_payload(self) -> dict:
        return {"n": self.n, "m": self.m, "bound": self.bound}


def _mat_mul_mod(a, b, mod, d):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) % mod for j in range(d))
        for i in range(d)
    )


# One entry per (base, modulus): a fresh `nc` request adds about 5 never
# reused, and a 60-matrix sweep of one base keeps all its hits with 8.
@lru_cache(maxsize=256)
def _doubling_table(rows: tuple, mod: int, bits: int) -> tuple:
    """L^(2^k) mod `mod` for k < bits (bits is fixed by rows and mod)."""
    d = len(rows)
    out = [tuple(tuple(x % mod for x in r) for r in rows)]
    while len(out) < bits:
        out.append(_mat_mul_mod(out[-1], out[-1], mod, d))
    return tuple(out)


def _nc_condition(L: IntMatrix, M: IntMatrix, n: int):
    """(cond, m*) for the depth-n condition adj(L^n) M L^m == 0 mod det(L^n).

    Per prime p dividing det(L), the condition at depth n only depends on
    the lattice L^m(Z^d) + p^a Z^d (a = v_p(det L^n) < n*bitlen|det L|),
    which evolves by a deterministic map on a finite poset and is strictly
    decreasing until stationary, so it is constant from d*a on.  The
    condition is also upward closed in m (multiply by L), so it holds for
    some m iff it holds at m* = d*n*bitlen|det L|.  cond accepts 0 <= m <= m*.
    """
    if n < 1:
        raise DepthError(f"depth n must be >= 1, got {n}")
    if not is_expansion(L):
        raise NotExpansionError(f"not an expansion matrix: {L}")
    d = L.dim
    ln = L**n
    mod = abs(ln.det())
    a = tuple(tuple(x % mod for x in r) for r in (ln.adjugate() * M).rows)
    m_star = d * n * abs(L.det()).bit_length()
    table = _doubling_table(L.rows, mod, m_star.bit_length())

    def cond(m: int) -> bool:
        acc = a
        for k, power in enumerate(table):
            if m >> k & 1:
                acc = _mat_mul_mod(acc, power, mod, d)
        return not any(x for r in acc for x in r)

    return cond, m_star


def nc_search(L: IntMatrix, M: IntMatrix, n: int) -> NcCertificate:
    """Decide the depth-n normalizer condition for an integer matrix M.

    Exact for the fixed n: returns the least witness exponent, found by
    binary search below the stabilization bound m*, or Absent when the
    condition fails at m*.
    """
    cond, m_star = _nc_condition(L, M, n)
    if not cond(m_star):
        return NcCertificate(n=n, m=None, bound=m_star)
    lo, hi = 0, m_star
    while lo < hi:
        mid = (lo + hi) // 2
        if cond(mid):
            hi = mid
        else:
            lo = mid + 1
    return NcCertificate(n=n, m=lo, bound=m_star)


def nc_bounded_check(L: IntMatrix, M: IntMatrix, n_max: int = 6) -> list[NcCertificate]:
    """Certificates for n = 1..n_max; M passes at depth n_max iff all present."""
    if n_max < 1:
        raise DepthError(f"depth must be >= 1, got {n_max}")
    return [nc_search(L, M, n) for n in range(1, n_max + 1)]


def nc_passes(L: IntMatrix, M: IntMatrix, n_max: int = 6) -> bool:
    """True iff the condition holds at every depth 1..n_max; stops at the
    first depth that fails."""
    if n_max < 1:
        raise DepthError(f"depth must be >= 1, got {n_max}")
    return all(nc_search(L, M, n).present for n in range(1, n_max + 1))


def verify_nc_certificate(L: IntMatrix, M: IntMatrix, cert: NcCertificate) -> bool:
    """Re-check a certificate from scratch, recomputing the bound m*."""
    cond, m_star = _nc_condition(L, M, cert.n)
    if cert.bound != m_star:
        return False
    if not cert.present:
        return not cond(m_star)
    if not 0 <= cert.m <= m_star or not cond(cert.m):
        return False
    return cert.m == 0 or not cond(cert.m - 1)
