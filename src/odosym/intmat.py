"""Exact integer matrix and lattice arithmetic.

Everything here works over plain Python integers (arbitrary precision).
Floating point is never used: expansion tests, Hermite forms and coset
reductions are all decided by exact sign and divisibility analysis.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd, isqrt
from operator import index, mul, sub

from .errors import (
    DomainCardinalityError,
    DomainCosetCollisionError,
    DomainMissingZeroError,
    DomainValidationError,
    MatrixParseError,
    NotExpansionError,
    SingularMatrixError,
    SizeGuardError,
)

Vec = tuple[int, ...]


# Cells: supports, boxes, coset tables.  Digits: F has |det| of them, and `nl`
# grows about linearly in them: with M = 1,1;0,1 it took 0.05, 0.9 and 1.6 s (25,
# 66 and 103 MB) on 100,0;0,100, 316,0;0,316 and 2,0;0,50000 (2-core Xeon, 3.11).
_CELL_LIMIT = 4_000_000
_DIGIT_LIMIT = 100_000


def _guard(size: int, what: str, unit: str, limit: int = _CELL_LIMIT) -> None:
    """SizeGuardError naming the request, what it counts and the limit, when size is over it."""
    if size > limit:
        raise SizeGuardError(f"{what} {size} {unit}, over the limit of {limit} {unit}")


def _digit_guard(n: int, limit: int, subject) -> None:
    """SizeGuardError naming subject() when |n| has more than limit decimal
    digits, the interpreter's int-to-str limit (0: no limit).  8^limit <
    10^limit, so the bit length clears almost every n before the power of
    ten is formed, and subject is called only to raise."""
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit:
        raise SizeGuardError(
            f"{subject()} needs integers of more than {limit} "
            "digits, the interpreter's int-to-str limit (sys.get_int_max_str_digits())"
        )


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def zero_vec(d: int) -> Vec:
    return (0,) * d


class _Record:
    """Frozen record, built without generated code.

    The names annotated in a subclass body are its fields, in order.  The
    constructor takes them by position or keyword.  ==, hash and repr read
    the fields not named in _uncompared (caches the record carries); ==
    holds only between records of one class, and no attribute can be set
    or deleted.
    """

    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._params = tuple(cls.__annotations__)
        cls._fields = tuple(f for f in cls._params if f not in cls._uncompared)

    def __init__(self, *args, **kwargs):
        cls, params = type(self), self._params
        if len(args) > len(params):
            raise TypeError(f"{cls.__name__} takes {len(params)} fields, got {len(args)}")
        values = dict(zip(params, args))
        for name in params[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{cls.__name__} is missing the field {name!r}")
            values[name] = kwargs.pop(name)
        if kwargs:
            raise TypeError(f"{cls.__name__} got an unexpected field {next(iter(kwargs))!r}")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntMatrix(_Record):
    """Square integer matrix, immutable and hashable."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        d = len(rows)
        if d < 1 or [*map(len, rows)] != [d] * d:
            raise ValueError("IntMatrix must be square with dim >= 1")
        # operator.index takes exact integers only: 2.5 and '3' raise TypeError
        object.__setattr__(self, "rows", tuple([tuple(map(index, r)) for r in rows]))

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.rows)

    def trace(self) -> int:
        return sum([r[i] for i, r in enumerate(self.rows)])

    def det(self) -> int:
        return _det_adj(self.rows, self)[0]

    def max_abs(self) -> int:
        return max(abs(x) for r in self.rows for x in r)

    # -- arithmetic --------------------------------------------------------

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        n, k = self.dim, len(other.rows)
        if k != n:
            raise ValueError(f"cannot subtract a {n}x{n} matrix and a {k}x{k} one")
        return IntMatrix(tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        _require_product(self, other)
        return IntMatrix(_rows_mul(self.rows, other.rows))

    def mul_vec(self, v: Vec) -> Vec:
        return _apply(self.rows, v)

    def __pow__(self, n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("only nonnegative integer powers")
        result, base = IntMatrix.identity(self.dim), self
        while n:
            if n & 1:
                result = result * base
            base, n = base * base, n >> 1
        return result

    def adjugate(self) -> "IntMatrix":
        """Matrix A with A*M = M*A = det(M)*Id."""
        return IntMatrix(_det_adj(self.rows, self)[1])

    @cached_property
    def _pass(self):
        """The kept _faddeev(rows), in d != 2: char_poly and _det_adj read it."""
        return _faddeev(self.rows)

    @cached_property
    def _inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """_det_adj's (det, adjugate rows), kept on the matrix; singular raises."""
        det, adj = _det_adj(self.rows, self)
        if det == 0:
            raise SingularMatrixError("cannot solve with a singular matrix")
        return det, adj

    def solve_exact(self, v: Vec) -> Vec | None:
        """Integer solution x of M x = v, or None if none exists."""
        det, adj = self._inverse
        out = []
        for x in _apply(adj, v):
            q, rem = divmod(x, det)
            if rem:
                return None
            out.append(q)
        return tuple(out)

    def __str__(self) -> str:
        return format_matrix(self)


def _require_product(a: IntMatrix, b: IntMatrix) -> None:
    n, k = len(a.rows), len(b.rows)
    if k != n:
        raise ValueError(f"cannot multiply a {n}x{n} matrix by a {k}x{k} one")


def _inv_unimodular(u: IntMatrix) -> IntMatrix:
    """Inverse of a matrix of determinant +-1, exact over Z, from u's kept inverse."""
    det, adj = u._inverse
    return IntMatrix(adj if det == 1 else [[-x for x in r] for r in adj])


def _apply(rows, v) -> Vec:
    """The product of a square matrix, given by its rows, with v."""
    if len(v) != len(rows):
        raise ValueError(f"vector of length {len(v)} for a matrix of dim {len(rows)}")
    if len(rows) == 2:  # closed form: phi-patch lost 5 % without it (BENCH_38.json)
        (a, b), (c, d) = rows
        x, y = v
        return (a * x + b * y, c * x + d * y)
    return tuple(sum(map(mul, r, v)) for r in rows)


def _rows_mul(a, b):
    """The product of two square matrices of one size, given by their rows."""
    if len(a) == 2:
        (p, q), (r, s) = a
        (e, f), (g, h) = b
        return ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, ra, col)) for col in cols) for ra in a)


def _det_adj(rows, owner: IntMatrix | None = None):
    """(det M, adj M's rows) for M's rows: the closed form in d = 2, else the Faddeev
    pass kept on owner, M's IntMatrix, or a fresh one.  Every route to either reads this."""
    if len(rows) == 2:
        (a, b), (c, e) = rows
        return a * e - b * c, ((e, -b), (-c, a))
    coeffs, adj = owner._pass if owner else _faddeev(rows)
    return (-1) ** len(rows) * coeffs[-1], adj


def _faddeev(rows):
    """Faddeev-LeVerrier: [1, c_1, ..., c_d], the coefficients of det(x*Id - M),
    and the rows of adj M.

    N_0 = Id, N_k = M*N_(k-1) + c_k*Id with c_k = -tr(M*N_(k-1))/k, exact over Z;
    adj M = (-1)^(d-1)*N_(d-1), since M*N_(d-1) = -c_d*Id (Cayley-Hamilton).
    """
    d = len(rows)
    coeffs, n = [1], [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        mn = _rows_mul(rows, n)
        ck, rem = divmod(-sum(mn[i][i] for i in range(d)), k)
        assert rem == 0
        coeffs.append(ck)
        if k < d:
            n = [[x + ck if i == j else x for j, x in enumerate(r)] for i, r in enumerate(mn)]
    sign = (-1) ** (d - 1)
    return coeffs, tuple(tuple(sign * x for x in r) for r in n)


def char_poly(m: IntMatrix) -> list[int]:
    """Coefficients [a_d=1, a_{d-1}, ..., a_0] of det(x*Id - M), from M's kept pass."""
    return list(m._pass[0])


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------


def rad_divides(n: int, t: int) -> bool:
    """True iff every prime dividing n divides t, that is rad(n) | t.

    Strips from n its common factors with t until none is left; no
    factorization, so a 1e24 determinant costs a few gcds.
    """
    if n == 0:
        raise ValueError("rad(0) is undefined")
    while (c := gcd(n, t)) != 1:
        n //= c
    return n in (1, -1)


# ---------------------------------------------------------------------------
# Hermite normal form (column style, lower triangular)
# ---------------------------------------------------------------------------


class HnfBasis(_Record):
    """Canonical basis of a finite-index sublattice of Z^d.

    Convention: columns generate the lattice; the matrix is lower
    triangular with positive diagonal and, within row i, entries left of
    the diagonal reduced into [0, h_ii).
    """

    matrix: IntMatrix

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def reduce_vec(self, v: Vec) -> Vec:
        """Canonical representative of v modulo the lattice."""
        h = self.matrix.rows
        d = len(h)
        w = list(v)
        for i in range(d):
            q = w[i] // h[i][i]
            if q:
                for k in range(i, d):
                    w[k] -= q * h[k][i]
        return tuple(w)

    def contains(self, v: Vec) -> bool:
        return self.reduce_vec(v) == zero_vec(self.dim)

    def box_reps(self) -> list[Vec]:
        """All canonical representatives (the half-open HNF box)."""
        h = self.matrix.rows
        ranges = [range(h[i][i]) for i in range(self.dim)]
        return [tuple(t) for t in product(*ranges)]


def _xgcd(a: int, b: int):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def hnf(m: IntMatrix) -> HnfBasis:
    """Canonical HNF basis of the lattice M(Z^d), by column xgcd elimination."""
    if m.det() == 0:
        raise SingularMatrixError("hnf needs a nonsingular matrix")
    d = m.dim
    cols = [list(c) for c in zip(*m.rows)]
    lower = []
    for i in range(d):
        # of the d - i independent columns left, zero above row i, one is nonzero in row i
        live = [c for c in cols if c[i] != 0]
        piv = live[0]
        for c in live[1:]:
            # column xgcd step: combine piv and c to clear c[i]
            a, b = piv[i], c[i]
            x, y, g = _xgcd(a, b)
            u, v = a // g, b // g
            new_piv = [x * pa + y * ca for pa, ca in zip(piv, c)]
            new_c = [-v * pa + u * ca for pa, ca in zip(piv, c)]
            piv[:] = new_piv
            c[:] = new_c
        if piv[i] < 0:
            piv[:] = [-x for x in piv]
        lower.append(piv)
        cols = [c for c in cols if c is not piv]
    # lower[i] is the column with pivot at row i; reduce off-diagonals.
    for i in range(d):
        for j in range(i):
            q = lower[j][i] // lower[i][i]
            if q:
                for k in range(d):
                    lower[j][k] -= q * lower[i][k]
    mat = IntMatrix(tuple(tuple(lower[j][i] for j in range(d)) for i in range(d)))
    return HnfBasis(mat)


# ---------------------------------------------------------------------------
# fundamental domains
# ---------------------------------------------------------------------------


class FundamentalDomain(_Record):
    """A full set of coset representatives of L(Z^d) in Z^d, with 0 in it."""

    base: IntMatrix
    reps: tuple[Vec, ...]
    hnf_basis: HnfBasis
    _rep_of_key: dict
    _uncompared = ("_rep_of_key",)

    def digit_of(self, v: Vec) -> Vec:
        """The representative of this domain congruent to v."""
        return self._rep_of_key[self.hnf_basis.reduce_vec(v)]

    @cached_property
    def texts(self) -> dict[Vec, str]:
        """Each representative's format_vector text, in the order of reps."""
        return {r: format_vector(r) for r in self.reps}


def _domain_basis(base: IntMatrix) -> HnfBasis:
    """hnf(base), once base is nonsingular and F's |det| digits are within the limit."""
    det = abs(base.det())
    if det == 0:
        raise SingularMatrixError("fundamental domain needs det != 0")
    _guard(det, "F has |det| =", "digits", _DIGIT_LIMIT)
    return hnf(base)


def fundamental_domain(base: IntMatrix) -> FundamentalDomain:
    """Canonical fundamental domain: the half-open HNF box representatives."""
    h = _domain_basis(base)
    reps = sorted(h.box_reps(), key=lambda v: (any(v), v))
    table = {r: r for r in reps}
    return FundamentalDomain(base, tuple(reps), h, table)


def validate_domain(base: IntMatrix, candidates) -> FundamentalDomain:
    """Accepts exactly the full transversals of Z^d / base(Z^d) containing 0."""
    h = _domain_basis(base)
    cands = [tuple(map(index, v)) for v in candidates]
    if any(len(v) != base.dim for v in cands):
        raise DomainValidationError(f"representatives must have {base.dim} coordinates")
    want = abs(base.det())
    if len(cands) != want:
        raise DomainCardinalityError(
            f"expected {want} representatives, got {len(cands)}"
        )
    if zero_vec(base.dim) not in cands:
        raise DomainMissingZeroError("the zero vector must be a representative")
    table = {}
    for v in cands:
        key = h.reduce_vec(v)
        if key in table:
            raise DomainCosetCollisionError(
                f"representatives {table[key]} and {v} are congruent mod the lattice"
            )
        table[key] = v
    return FundamentalDomain(base, tuple(cands), h, table)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def integer_eigenvalues(m: IntMatrix) -> list[int]:
    """Integer roots (with multiplicity) of the characteristic polynomial, 2x2."""
    if m.dim != 2:
        raise ValueError("integer_eigenvalues is for 2x2 matrices")
    t, d = m.trace(), m.det()
    disc = t * t - 4 * d
    if disc < 0:
        return []
    r = isqrt(disc)
    if r * r != disc:
        return []
    return sorted([(t - r) // 2, (t + r) // 2])


def is_expansion(m: IntMatrix) -> bool:
    """True iff every eigenvalue has modulus strictly greater than 1: an exact
    Schur-Cohn test on the reversed characteristic polynomial.  At d = 2 that
    is det*x^2 - tr*x + 1, whose recursion in closed form is Jury's conditions.
    """
    if m.dim == 2:
        (a, b), (c, e) = m.rows
        det = a * e - b * c
        return abs(det) > 1 and abs(a + e) < abs(det + 1)
    return _all_roots_in_open_unit_disk(char_poly(m)[::-1])


def _require_expansion(m: IntMatrix) -> None:
    if not is_expansion(m):
        raise NotExpansionError(f"not an expansion matrix: {m}")


def _all_roots_in_open_unit_disk(c: list[int]) -> bool:
    """True iff c, coefficients highest degree first, has degree len(c) - 1
    and every root in the open unit disk: an exact Schur-Cohn recursion.

    A zero c[0] fails the first step, |a0| >= |an|, and a root on the unit
    circle stays a root of each step (f* vanishes with f there) until one
    fails.  A step that passes leaves a nonzero leading coefficient,
    an^2 - a0^2 > 0, so the degree drops by exactly one.
    """
    while len(c) > 1:
        an, a0 = c[0], c[-1]
        if abs(a0) >= abs(an):
            return False
        # T[f](x) = (an*f(x) - a0*f*(x)) / x has degree one less
        c = [an * c[i] - a0 * c[len(c) - 1 - i] for i in range(len(c) - 1)]
    return True


# ---------------------------------------------------------------------------
# text syntax: rows split by ';', entries by ','
# ---------------------------------------------------------------------------


def _parse_int(token: str, pos: int) -> int:
    tok = token.strip()
    try:
        return int(tok)
    except ValueError:
        raise MatrixParseError(
            f"bad integer {tok!r} at position {pos}", token=tok, position=pos
        ) from None


def parse_matrix(text: str) -> IntMatrix:
    rows = []
    pos = 0
    for chunk in text.strip().split(";"):
        row = []
        for token in chunk.split(","):
            row.append(_parse_int(token, pos))
            pos += len(token) + 1
        rows.append(tuple(row))
    if any([len(r) != len(rows) for r in rows]):
        raise MatrixParseError(f"not a square matrix: {text!r}", token=text, position=0)
    return IntMatrix(rows)


def parse_vector(text: str) -> Vec:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    out = []
    pos = 0
    for token in body.split(","):
        out.append(_parse_int(token, pos))
        pos += len(token) + 1
    return tuple(out)


def format_matrix(m: IntMatrix) -> str:
    return ";".join([",".join(map(str, r)) for r in m.rows])


def format_vector(v: Vec) -> str:
    return ",".join(str(x) for x in v)
