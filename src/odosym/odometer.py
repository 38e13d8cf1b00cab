"""The normalizer condition for Z^d odometers.

A constant-base odometer is the inverse limit of Z^d / L^n(Z^d) for an
expansion matrix L.  The condition is decided on matrices mod det(L^n)
alone; no truncated point of the inverse limit is built.

The normalizer condition at depth n asks for an exponent m with

    adj(L^n) * M * L^m == 0  (mod det(L^n)),

that is, with L^-n M L^m integral.  It is upward closed in m (multiply by
L).  Per prime p dividing det(L) it only depends on the lattice
L^m(Z^d) + p^a Z^d (a = v_p(det L^n) < n*bitlen|det L|), which evolves by a
deterministic map on a finite poset and strictly decreases until it is
stationary, so it is constant from d*a on.  So the condition no longer
changes from the stabilization bound m* = d*n*bitlen|det L| on, and one
evaluation at m* settles existence.

It is also monotone in n: if L^-(n+1) M L^m is integral, so is
L^-n M L^m = L * L^-(n+1) M L^m.  So the least witnesses grow with depth,
m_n <= m_(n+1), and a depth with no witness (Absent) makes every deeper
depth Absent.  The depth walk uses both facts: it searches depth n upward
from m_(n-1), and from the first Absent depth on it searches no more.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DepthError, SizeGuardError
from .intmat import IntMatrix, _det_adj, _Record, _require_expansion, _require_product, _rows_mul

# ---------------------------------------------------------------------------
# normalizer condition for constant bases
# ---------------------------------------------------------------------------


class NcCertificate(_Record):
    """Outcome of the depth-n normalizer-condition search.

    m is the least witness exponent, or None when no exponent works; bound
    is the stabilization bound m* = d*n*bitlen|det L|, past which the
    condition no longer changes, so failing at m* makes Absent exact.
    """

    n: int
    m: int | None
    bound: int

    def __init__(self, n: int, m: int | None, bound: int):
        # written into the instance dict, past the record's refusing __setattr__:
        # the walk builds one certificate per depth
        fields = self.__dict__
        fields["n"], fields["m"], fields["bound"] = n, m, bound

    @property
    def present(self) -> bool:
        return self.m is not None

    def to_payload(self) -> dict:
        return {"n": self.n, "m": self.m, "bound": self.bound}


def _mat_mul_mod(a, b, mod):
    if len(a) == 2:
        (p, q), (r, s) = a
        (w, x), (y, z) = b
        return (
            ((p * w + q * y) % mod, (p * x + q * z) % mod),
            ((r * w + s * y) % mod, (r * x + s * z) % mod),
        )
    return tuple(tuple(x % mod for x in r) for r in _rows_mul(a, b))


# One entry per (base, modulus): a fresh `nc` request adds one never reused,
# and a 60-matrix sweep of one base hits its walk's entry on every matrix.
@lru_cache(maxsize=256)
def _doubling_table(rows: tuple, mod: int, bits: int) -> tuple:
    """L^(2^k) mod `mod` for k < bits (bits is fixed by rows and mod)."""
    out = [tuple([tuple([x % mod for x in r]) for r in rows])]
    while len(out) < bits:
        out.append(_mat_mul_mod(out[-1], out[-1], mod))
    return tuple(out)


def _times_power(acc, table, m: int, mod: int):
    """acc * L^m mod `mod`, from the doubling table of L."""
    for k, power in enumerate(table):
        if m >> k & 1:
            acc = _mat_mul_mod(acc, power, mod)
    return acc


def _divisible(acc, mod: int) -> bool:
    return not any([x % mod for r in acc for x in r])


# The walk's cost grows about as depth^2.6: on 3,1;0,5 with its commuting
# involution one run took 0.39 s at depth 1,000, 1.1 s at 1,500 and 2.3 s
# at 2,000 (2-core Xeon, Python 3.11).
_DEPTH_LIMIT = 1000


def _check_depth(L: IntMatrix, n: int) -> None:
    if n < 1:
        raise DepthError(f"depth must be >= 1, got {n}")
    if n > _DEPTH_LIMIT:
        raise SizeGuardError(f"depth {n}, over the limit of {_DEPTH_LIMIT}")
    _require_expansion(L)


def nc_bounded_check(L: IntMatrix, M: IntMatrix, n_max: int = 6) -> list[NcCertificate]:
    """Certificates for depths 1..n_max; M passes at depth n_max iff all are present.

    From the first Absent depth on every depth is Absent, so those
    certificates are written down with their bounds m* and no search.  The
    search at depth 1 starts from m = 0 and every later one from the
    previous witness.  acc = adj(L^n) M L^m is carried from depth to depth
    mod det(L)^n_max, which every shallower modulus det(L)^n divides: one
    step in m multiplies it by L on the right, one step in n by adj L on the
    left.  Absent costs one evaluation at m*, and a witness costs one
    multiplication per step above the previous one.  det(L) and adj(L) are the
    closed form in d = 2, else read off the Faddeev pass the expansion check kept.
    """
    _check_depth(L, n_max)
    det, adj = _det_adj(L.rows, L)
    det = abs(det)
    top, width = det**n_max, L.dim * det.bit_length()
    table = _doubling_table(L.rows, top, (width * n_max).bit_length())
    _require_product(L, M)
    # at n = 1; reduced mod top at once, as every modulus divides it
    acc, m, certs = _mat_mul_mod(adj, M.rows, top), 0, []
    for n in range(1, n_max + 1):
        mod, m_star = det**n, width * n
        if not _divisible(acc, mod):
            if not _divisible(_times_power(acc, table, m_star - m, top), mod):
                return certs + [NcCertificate(k, None, width * k) for k in range(n, n_max + 1)]
            acc, m = _mat_mul_mod(acc, table[0], top), m + 1  # acc was not divisible
            while not _divisible(acc, mod):
                acc, m = _mat_mul_mod(acc, table[0], top), m + 1
        certs.append(NcCertificate(n, m, m_star))
        acc = _mat_mul_mod(adj, acc, top)
    return certs


def nc_search(L: IntMatrix, M: IntMatrix, n: int) -> NcCertificate:
    """Decide the depth-n normalizer condition for an integer matrix M: the
    last certificate of nc_bounded_check(L, M, n).  Exact for the fixed n:
    Absent when the condition fails at the stabilization bound m*, else the
    least witness, as the walk's witnesses grow with depth."""
    return nc_bounded_check(L, M, n)[-1]


def verify_nc_certificate(L: IntMatrix, M: IntMatrix, cert: NcCertificate) -> bool:
    """Re-check a certificate from scratch, recomputing L^n and the bound m*.

    Does not use the walk: it evaluates adj(L^n) M L^m at m* for Absent,
    and at the witness and one below it for Present.
    """
    n = cert.n
    _check_depth(L, n)
    ln = L**n
    mod = abs(ln.det())
    a = (ln.adjugate() * M).rows
    m_star = L.dim * n * abs(L.det()).bit_length()
    if cert.bound != m_star:
        return False
    table = _doubling_table(L.rows, mod, m_star.bit_length())

    def cond(m: int) -> bool:
        return _divisible(_times_power(a, table, m, mod), mod)

    if not cert.present:
        return not cond(m_star)
    if not 0 <= cert.m <= m_star or not cond(cert.m):
        return False
    return cert.m == 0 or not cond(cert.m - 1)
