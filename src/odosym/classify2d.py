"""Complete classification of the symmetry group of a constant-base Z^2 odometer.

classify(L) names the group of unimodular matrices satisfying the
normalizer condition for the base L, and is_member(L, M) decides
membership of a single matrix exactly.  Both read one invariant,
_unit_lines.  The odometer splits over the primes p | det L, and M
satisfies the normalizer condition at every depth exactly when it fixes,
at every such p, the part of Z_p^2 where L is invertible.  That part is a
proper line only at a split prime (p | det L, p not dividing trace L),
where it is the eigenline whose eigenvalue is a p-adic unit.  So:

  * rad(det L) divides trace L: no line is required, the group is GL(2,Z).
  * no integer eigenvalue: the required lines are Galois conjugate, M must
    commute with L, and the group is the GL(2,Z) centralizer, finite when
    the spectrum is complex, infinite (fundamental automorph) when it is
    real irrational.
  * integer eigenvalues l1, l2: the l1-line is required iff some prime
    divides l2 but not l1, and likewise for l2.  Two lines give a finite
    group, a Klein four-group or {+-Id}; one line gives the virtually-Z
    stabilizer of a rational line, described in an adapted triangular
    basis of L.

Every centralizer comes from one route, _order_units: the unimodular
matrices commuting with a non-scalar L are the units of the quadratic
order Z Id + Z A, read off the solutions of x^2 - D' y^2 = +-4.  A real
irrational spectrum walks half a continued-fraction period of sqrt(D'),
since the period is a palindrome, with no iteration cap; the answer must
print, so a unit with more digits than sys.get_int_max_str_digits()
raises SizeGuardError.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd, isqrt

from .intmat import (
    IntMatrix,
    _det_adj,
    _digit_guard,
    _inv_unimodular,
    _Record,
    _require_expansion,
    _rows_mul,
    _xgcd,
    format_matrix,
    integer_eigenvalues,
    rad_divides,
)

_ID = IntMatrix.identity(2)
_NEG_ID = -_ID
_SWAP = IntMatrix(((0, 1), (1, 0)))
_SHEAR = IntMatrix(((1, 1), (0, 1)))


# ---------------------------------------------------------------------------
# class descriptions
# ---------------------------------------------------------------------------


class FullGL2(_Record):
    """The whole group GL(2,Z)."""

    tag = "full-gl2"
    finite = False

    def generators(self):
        return (_SWAP, _SHEAR, _NEG_ID)


class _Finite(_Record):
    """A finite group, listed exhaustively: its elements generate it."""

    finite = True

    def generators(self):
        return self.elements


class CentralizerFinite(_Finite):
    """Finite centralizer, listed exhaustively."""

    elements: tuple[IntMatrix, ...]
    tag = "centralizer-finite"


class CentralizerInfinite(_Record):
    """Infinite centralizer: -Id together with a fundamental automorph."""

    automorph: IntMatrix
    tag = "centralizer-infinite"
    finite = False

    def generators(self):
        return (_NEG_ID, self.automorph)


class KleinFour(_Finite):
    """Four involutions (including +-Id), isomorphic to (Z/2Z)^2."""

    elements: tuple[IntMatrix, ...]
    tag = "klein-four"


class OrderTwo(_Finite):
    """Just {Id, -Id}."""

    tag = "order-two"
    elements = (_ID, _NEG_ID)


class VirtuallyZ(_Record):
    """Infinite group with a finite-index Z subgroup.

    conjugator P maps members to upper triangular matrices
    (P M P^{-1}); tri is (p, q, s) of the adapted triangular form of L.
    k is set when q = k (p - s) and the required line is not the first
    adapted axis: the members are then four explicit one-parameter
    families; None means all upper triangular unimodular matrices.
    """

    conjugator: IntMatrix
    k: int | None
    generator: IntMatrix
    tri: tuple[int, int, int]
    derived_witness: IntMatrix
    tag = "virtually-z"
    finite = False

    def generators(self):
        return (_NEG_ID, self.generator)


NormalizerClass = (
    FullGL2 | CentralizerFinite | CentralizerInfinite | KleinFour | OrderTwo | VirtuallyZ
)


class MembershipVerdict(_Record):
    """is_member's answer.

    reason is "full-gl2" (every M, no witness), "centralizer-commutes" (M
    must commute with L; witness holds det(LM - ML)) or "unit-eigenlines"
    (M must fix each required eigenline v; witness holds det[v, M v] for
    each required line).  With a witness, M is a member iff every entry
    is 0.
    """

    member: bool
    reason: str
    witness: tuple | None

    def __init__(self, member: bool, reason: str, witness: tuple | None = None):
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "witness", witness)

    def to_payload(self) -> dict:
        return {
            "member": self.member,
            "reason": self.reason,
            "witness": list(self.witness) if self.witness is not None else None,
        }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _require_expansion_2x2(L: IntMatrix):
    if L.dim != 2:
        raise ValueError("classification is for 2x2 bases")
    _require_expansion(L)


def _primitive(v: tuple[int, int]) -> tuple[int, int]:
    a, b = v
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


def _eigenvector(L: IntMatrix, t: int) -> tuple[int, int]:
    """Primitive integer eigenvector for the integer eigenvalue t."""
    (p, q), (r, s) = L.rows
    # both are eigenvectors, and both vanish only for a scalar L
    v = (q, t - p) if (q, t - p) != (0, 0) else (t - s, r)
    assert v != (0, 0)
    v = _primitive(v)
    assert L.mul_vec(v) == (t * v[0], t * v[1])
    return v


def _extend_unimodular(v: tuple[int, int]) -> IntMatrix:
    """Unimodular matrix whose first column is the primitive vector v."""
    a, b = v
    x, y, g = _xgcd(a, b)
    assert g == 1
    return IntMatrix(((a, -y), (b, x)))


def _triangular_form(L: IntMatrix) -> tuple[IntMatrix, int, int, int]:
    """Adapted basis data (W, p, q, s): W^{-1} L W = (p, q; 0, s)."""
    (p, q), (r, s) = L.rows
    if r == 0:
        return _ID, p, q, s
    if q == 0:
        return _SWAP, s, r, p
    t1, t2 = integer_eigenvalues(L)
    w = _extend_unimodular(_eigenvector(L, t1))
    t = _inv_unimodular(w) * L * w
    assert t.rows[1][0] == 0 and t.rows[0][0] == t1 and t.rows[1][1] == t2
    return w, t.rows[0][0], t.rows[0][1], t.rows[1][1]


# ---------------------------------------------------------------------------
# the centralizer: units of the quadratic order Z Id + Z A
# ---------------------------------------------------------------------------


def _canonical_pick(cands):
    """Deterministic tie-break on rows: small entries, then large trace, then lex."""
    return min(cands, key=lambda r: (max(map(abs, r[0] + r[1])), -r[0][0] - r[1][1], r))


def _candidates_from_solution(L, g, x, y):
    """The rows of the matrices +-(a Id + y A) with 2a + y trace(A) = +-x."""
    (p, q), (r, s) = L.rows
    delta, m12, m21 = (p - s) // g * y, q // g * y, r // g * y
    out = []
    for xs in (x, -x):
        m22 = (xs - delta) // 2
        out.append(((m22 + delta, m12), (m21, m22)))
        out.append(((-m22 - delta, -m12), (-m21, -m22)))
    return out


def _pell_xs(dp: int, y: int) -> list[int]:
    """Every x >= 0 with x^2 - dp y^2 = +-4."""
    n = dp * y * y
    return [x for t in (n - 4, n + 4) if t >= 0 and (x := isqrt(t)) * x == t]


def _unit_group(dp: int, limit: int):
    """_digit_guard's subject: the unit group of D', which it names while D' prints."""
    return lambda: "the unit group for " + (
        f"D'={dp}" if dp.bit_length() <= 3 * limit else f"a {dp.bit_length()}-bit D'"
    )


def _pell_walk(dp: int, limit: int) -> tuple[int, int]:
    """Least (x, y), y > 0, with x^2 - dp y^2 = +-4, for non-square dp > 16.

    Walks the continued fraction of sqrt(dp), complete quotients
    (P_k + sqrt(dp))/Q_k: the convergent A_k/B_k has norm (-1)^(k+1) Q_(k+1)
    and Q_l = 1 closes the period l.  Since 4 < sqrt(dp), a solution with
    gcd(x, y) = 1 is a convergent (Legendre) and any other is twice one of
    norm +-1; unit y values grow by a factor x >= 4, so the first convergent
    of norm +-1 or +-4 gives the fundamental unit.  The period is a
    palindrome, Q_k = Q_(l-k) and P_k = P_(l-k+1) (Perron), so a Q = 4 of
    the second half shows in the first, and the walk stops at the first k
    with Q_k = Q_(k-1) (l = 2k-1) or P_k = P_(k-1) (l = 2k-2), where B_(l-1)
    is B_(k-1)^2 + B_(k-2)^2 for l odd, B_(k-2) (B_(k-1) + B_(k-3)) for l even.
    Only B is tracked: y is read off it, and x is isqrt(dp y^2 + 4), the root
    of x^2 = dp y^2 +- 4 with either sign, as x >= 4 puts (x + 1)^2 past x^2 + 8.
    """
    a0, top = isqrt(dp), 1 << 3 * limit
    m, d, a = 0, 1, a0
    q0, q = 0, 1
    while True:  # q, q0 = B_(k-1), B_(k-2) at P_k = m, Q_k = d
        m_prev, m = m, d * a - m
        d_prev, d = d, (dp - m * m) // d
        if d == 4 or d == 1:
            y = q if d == 4 else 2 * q
            break
        if d == d_prev:
            y = 2 * (q * q + q0 * q0)
            break
        if m == m_prev:  # 2q - a q0 = B_(k-1) + B_(k-3)
            y = 2 * q0 * (2 * q - a * q0)
            break
        if limit and q >= top:  # a q under 8^limit < 10^limit prints
            _digit_guard(q, limit, _unit_group(dp, limit))
        a = (a0 + m) // d
        q0, q = q, a * q + q0
    return isqrt(dp * y * y + 4), y


def _order_units(L: IntMatrix) -> CentralizerFinite | CentralizerInfinite:
    """GL(2,Z) centralizer of a non-scalar 2x2 matrix L.

    With g = gcd(q, r, p - s) and A = (L - s Id)/g, the integer matrices
    commuting with L are the a Id + y A, and such a matrix is unimodular
    exactly when x = 2a + y trace(A) solves x^2 - D' y^2 = +-4, where
    D' = disc(L)/g^2 is the discriminant of A.  Among the infinitely
    many units the automorph is the one of least y > 0.
    """
    (p, q), (r, s) = L.rows
    g = gcd(q, r, p - s)
    dp = ((p - s) ** 2 + 4 * q * r) // (g * g)
    if dp == 0:
        # x = +-2 for every y: the units are +-(Id + N)^y, N = A - trace(A)/2 Id
        # nilpotent, and the first candidate of (2, 1) is Id + N
        return CentralizerInfinite(IntMatrix(_candidates_from_solution(L, g, 2, 1)[0]))
    if dp < 0 or isqrt(dp) ** 2 == dp:
        # finite: D' < 0 forces |D'| y^2 <= 4, and D' = w^2 factors the norm
        # as (x - wy)(x + wy) = +-4, so x + wy divides 4; either way y <= 4
        rows = {_ID.rows, _NEG_ID.rows}
        for y in range(1, 5):
            for x in _pell_xs(dp, y):
                rows.update(_candidates_from_solution(L, g, x, y))
        return CentralizerFinite(_sorted_elements(rows))
    limit = sys.get_int_max_str_digits()
    if dp > 16:
        sols = [_pell_walk(dp, limit)]
    else:
        # 4 >= sqrt(D'), below Legendre's criterion: D' = 0, 1 mod 4 leaves
        # 5, 8, 12 and 13, each solved at y = 1 (D' = 5 twice: x = 1, 3)
        sols = [(x, 1) for x in _pell_xs(dp, 1)]
    best = _canonical_pick([r for sol in sols for r in _candidates_from_solution(L, g, *sol)])
    if limit:
        _digit_guard(max(map(abs, best[0] + best[1])), limit, _unit_group(dp, limit))
    assert _rows_mul(L.rows, best) == _rows_mul(best, L.rows)
    assert _det_adj(best)[0] in (1, -1) and best not in (_ID.rows, _NEG_ID.rows)
    return CentralizerInfinite(IntMatrix(best))


def _sorted_elements(rows_set) -> tuple[IntMatrix, ...]:
    return tuple(IntMatrix(r) for r in sorted(rows_set))


# ---------------------------------------------------------------------------
# the classification
# ---------------------------------------------------------------------------


# Shared by classify and is_member: runs of requests on one base hit it.
@lru_cache(maxsize=64)
def _unit_lines(rows: tuple) -> tuple[tuple[int, int], ...] | str | None:
    """The eigenlines every member must fix: the one invariant of the group.

    None when rad(det L) | trace L (no split prime: GL(2,Z)); "commute"
    for an irrational spectrum, whose two Galois-conjugate lines are both
    required, so members commute with L; otherwise the primitive
    eigenvectors of the required lines, the l1-line being required iff
    some prime divides l2 but not l1 (l1 is then a p-adic unit there).
    """
    L = IntMatrix(rows)
    if rad_divides(L.det(), L.trace()):
        return None
    eig = integer_eigenvalues(L)
    if not eig:
        return "commute"
    t1, t2 = eig
    return tuple(_eigenvector(L, a) for a, b in ((t1, t2), (t2, t1)) if not rad_divides(b, a))


def classify(L: IntMatrix) -> NormalizerClass:
    """Name the group of unimodular matrices admissible for the base L."""
    _require_expansion_2x2(L)
    lines = _unit_lines(L.rows)
    if lines is None:
        return FullGL2()
    if lines == "commute":
        return _order_units(L)
    return _classify_triangular(L, lines)


def _classify_triangular(L: IntMatrix, lines: tuple) -> NormalizerClass:
    """The group for integer eigenvalues, described in the adapted basis."""
    W, p, q, s = _triangular_form(L)
    if len(lines) == 2:
        # M is +-1 on each line: +-Id, and +-the reflection that fixes both
        # lines, (1, 2q/(p - s); 0, -1) in the adapted basis, when integral
        if (2 * q) % (p - s) == 0:
            m = W * IntMatrix(((1, 2 * q // (p - s)), (0, -1))) * _inv_unimodular(W)
            return KleinFour(_sorted_elements({_ID.rows, _NEG_ID.rows, m.rows, (-m).rows}))
        return OrderTwo()
    (v,) = lines
    on_p_line = L.mul_vec(v) == (p * v[0], p * v[1])
    if not on_p_line and q == 0:
        # diagonal: the required line is the second axis, first after a swap
        W, p, s = W * _SWAP, s, p
        on_p_line = True
    if on_p_line:
        # the first adapted axis: members are upper triangular there
        conj, k = _inv_unimodular(W), None
    elif q % (p - s) == 0:
        k = q // (p - s)
        conj = _SWAP * IntMatrix(((1, k), (0, 1))) * _inv_unimodular(W)
    else:
        c = gcd(abs(p - s), abs(q))
        g, h = (p - s) // c, q // c
        e0, f0, gg = _xgcd(h, -g)
        assert gg == 1
        e = e0 % abs(g)
        f = (e * h - 1) // g
        bez = IntMatrix(((e, f), (g, h)))
        assert bez.det() == 1
        conj, k = bez * _inv_unimodular(W), None
    # the generator is the conjugate of (1, 1; 0, 1); its square, the
    # conjugate of (1, 2; 0, 1), lies in the commutator subgroup of the
    # upper triangular unimodular group, the even unipotents
    generator = _inv_unimodular(conj) * _SHEAR * conj
    return VirtuallyZ(
        conjugator=conj, k=k, generator=generator,
        tri=(p, q, s), derived_witness=generator * generator,
    )


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def is_member(L: IntMatrix, M: IntMatrix) -> MembershipVerdict:
    """Exact membership of M in the symmetry group of the base L."""
    _require_expansion_2x2(L)
    if M.dim != 2:
        raise ValueError(f"a 2x2 base needs a 2x2 matrix, got {M.dim}x{M.dim}")
    if (det_m := M.det()) not in (1, -1):
        raise ValueError(f"matrix must be unimodular, det = {det_m}")
    lines = _unit_lines(L.rows)
    if lines is None:
        return MembershipVerdict(True, "full-gl2")
    if lines == "commute":
        # the group is the centralizer itself: no unit has to be built.  The
        # kernel of a nonzero nilpotent LM - ML would be a rational eigenline
        # of L, and there is none here, so M commutes iff the det is 0
        lm, ml = _rows_mul(L.rows, M.rows), _rows_mul(M.rows, L.rows)
        c = _det_adj([[x - y for x, y in zip(r, s)] for r, s in zip(lm, ml)])[0]
        return MembershipVerdict(c == 0, "centralizer-commutes", witness=(c,))
    cross = tuple(a * y - b * x for (a, b) in lines for x, y in (M.mul_vec((a, b)),))
    return MembershipVerdict(not any(cross), "unit-eigenlines", witness=cross)


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------


def class_to_payload(cls: NormalizerClass) -> dict:
    """The class as JSON, each matrix formatted once: named ones share the generators' texts."""
    gens = [format_matrix(m) for m in cls.generators()]
    payload = {"branch": cls.tag, "finite": cls.finite, "generators": gens}
    if cls.finite:
        payload["elements"] = gens
    if isinstance(cls, CentralizerInfinite):
        payload["automorph"] = gens[1]
    if isinstance(cls, VirtuallyZ):
        payload["conjugator"] = format_matrix(cls.conjugator)
        payload["generator"] = gens[1]
        payload["adapted_triangular"] = list(cls.tri)
        if cls.k is None:
            payload["description"] = {"kind": "upper-triangular-unimodular"}
        else:
            payload["description"] = {"kind": "param-family", "k": cls.k}
        payload["derived_witness"] = format_matrix(cls.derived_witness)
    return payload
