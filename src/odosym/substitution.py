"""Constant-shape substitutions and their digit combinatorics.

Letters of the self-similar family built here are the nonzero digits of
the fundamental domain themselves, so patches print as digit vectors and
no arbitrary letter coding is needed.  A patch is a plain dict from
position tuple to letter tuple; supports like the half-hex iterates are
not boxes.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import index, sub

from .errors import MarginError, WrongBranchError
from .intmat import (
    FundamentalDomain,
    IntMatrix,
    Vec,
    _Record,
    _guard,
    _require_expansion,
    fundamental_domain,
    hnf,
    validate_domain,
    vec_add,
    vec_sub,
    zero_vec,
)

Letter = Vec

HALF_HEX_BASE = IntMatrix(((2, 0), (0, 2)))
HALF_HEX_SUPPORT = ((0, 0), (1, 0), (0, 1), (1, -1))


class ConstantShapeSubstitution(_Record):
    """Rule letter -> pattern supported on a fixed fundamental domain, of base L = domain.base;
    the letters are the table's keys."""

    domain: FundamentalDomain
    table: dict

    def __init__(self, domain: FundamentalDomain, table: dict):
        super().__init__(domain, table)
        # tau strips factors of L and would never stop on a non-expansion base
        _require_expansion(self.base)
        support = set(self.domain.reps)
        for letter, image in self.table.items():
            if set(image) != support:
                raise ValueError("image patterns must be supported exactly on F1")
            if not self.alphabet.issuperset(image.values()):
                raise ValueError(f"the image of {letter} uses a letter outside the alphabet")

    @cached_property
    def alphabet(self) -> frozenset:
        return frozenset(self.table)

    @property
    def base(self) -> IntMatrix:
        return self.domain.base

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def _forced(self) -> dict:
        """HNF key -> letter, at each offset where every image writes that letter."""
        keys = self.domain._rep_of_key.items()
        images = {key: {self.table[a][f] for a in self.alphabet} for key, f in keys}
        return {key: letters.pop() for key, letters in images.items() if len(letters) == 1}

    def is_self_similar(self) -> bool:
        """True when letters are the nonzero digits and images follow them."""
        return self.table == _sigma_table(self.domain)


# sigma_L's table has |det| - 1 images of |det| cells, and the support check and
# _forced walk them all: on n Id, sigma_L and one cell of its fixed point took 0.52,
# 2.4 and 16 s (55, 163 and 598 MB) at |det| 1,024, 2,025 and 4,096 (2-core Xeon, 3.11)
_TABLE_LIMIT = 1_000_000


def _sigma_table(domain: FundamentalDomain) -> dict:
    """sigma_L's images: the letter stays at the origin, each other cell holds its digit."""
    det = len(domain.reps)
    _guard(det * det, f"sigma_L's table has |det|^2 = {det}^2 =", "cells", _TABLE_LIMIT)
    zero = zero_vec(domain.base.dim)
    digits = [f for f in domain.reps if f != zero]
    return {a: {zero: a, **{f: f for f in digits}} for a in digits}


def sigma_L(base: IntMatrix, domain: FundamentalDomain | None = None) -> ConstantShapeSubstitution:
    """The self-similar rule: keep the letter at the origin, write the digit
    elsewhere.  Needs |det| >= 3 so the alphabet has at least two letters,
    and |det|^2 table cells within _TABLE_LIMIT (|det| <= 1,000)."""
    _require_two_letters(base)
    if domain is None:
        domain = fundamental_domain(base)
    if domain.base != base:
        domain = validate_domain(base, domain.reps)
    return ConstantShapeSubstitution(domain, _sigma_table(domain))


def _require_two_letters(base: IntMatrix) -> None:
    """Refuses a base of |det| < 3: its nonzero digits, sigma_L's letters, are one or none."""
    if abs(base.det()) < 3:
        raise WrongBranchError(f"|det| = {abs(base.det())} < 3: alphabet too small")


def half_hex() -> ConstantShapeSubstitution:
    """The lattice recoding of the half-hexagon inflation."""
    return sigma_L(HALF_HEX_BASE, validate_domain(HALF_HEX_BASE, HALF_HEX_SUPPORT))


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


def supports(s: ConstantShapeSubstitution, n: int) -> tuple[frozenset, ...]:
    """Supports F_0 = {0}, F_{k+1} = L(F_k) + F_1 of the iterated rule, k <= n."""
    det = abs(s.base.det())
    _guard(det**n, f"|F_{n}| = {det}^{n} =", "cells")
    levels = [frozenset({zero_vec(s.dim)})]
    for _ in range(n):
        lifted = map(s.base.mul_vec, levels[-1])
        levels.append(frozenset(vec_add(lj, f) for lj in lifted for f in s.domain.reps))
    for k, lv in enumerate(levels):
        assert len(lv) == det**k, "supports must have |det|^n points"
    return tuple(levels)


# ---------------------------------------------------------------------------
# digits of positions and fixed points
# ---------------------------------------------------------------------------


def _strip_base(domain: FundamentalDomain, v: Vec, name: str) -> tuple[int, Vec]:
    """(p, w mod L(Z^d)) with v = L^p(w), w not in L(Z^d), L the domain's base;
    solves only in L(Z^d)."""
    if not any(v):
        raise ValueError(f"{name} undefined at the origin")
    reduce, solve = domain.hnf_basis.reduce_vec, domain.base.solve_exact
    p = 0
    while not any(key := reduce(v)):
        v, p = solve(v), p + 1
    return p, key


def valuation(s: ConstantShapeSubstitution, v: Vec) -> int:
    """Largest p with v in L^p(Z^d); v must be nonzero."""
    return _strip_base(s.domain, v, "valuation")[0]


def tau(s: ConstantShapeSubstitution, v: Vec) -> Letter:
    """First nonzero digit of v: v = L^{p+1}(z) + L^p(f) with minimal p."""
    return s.domain._rep_of_key[_strip_base(s.domain, v, "tau")[1]]


def fixed_point_patch(
    s: ConstantShapeSubstitution, seed: Letter, region
) -> dict[Vec, Letter]:
    """Letters of the fixed point with the given origin letter on the region, by
    _fixed_point_reader; a cell whose walk circles raises MarginError."""
    letter_at = _fixed_point_reader(s, seed)
    cells = {pos: letter_at(pos) for pos in (tuple(map(index, p)) for p in region)}
    if None in cells.values():
        filled = sum(letter is not None for letter in cells.values())
        raise MarginError(
            f"the fixed point seeded by {tuple(seed)} fills {filled} of the {len(cells)} requested"
            " cells; the others' digit walks circle without reaching the seed or a forced letter"
        )
    return cells


def _fixed_at_origin(s: ConstantShapeSubstitution, letter: Letter) -> bool:
    """True when the letter is fixed at the origin of its own image, so it seeds a fixed point."""
    return s.table[letter][zero_vec(s.dim)] == letter


def _as_letter(seed: Letter, letters) -> Letter:
    """seed as a tuple, once it is one of the letters."""
    seed = tuple(seed)
    if seed not in letters:
        raise ValueError(f"seed {seed} is not a letter")
    return seed


def _fixed_point_reader(s: ConstantShapeSubstitution, seed: Letter):
    """letter_at(pos): the fixed point's letter at the integer tuple pos, or
    None where the digit walk circles.  The letter at L j + f is table[letter
    at j][f].  An offset f where all images agree (for sigma_L, a nonzero
    digit) forces its letter; other cells walk j = L^{-1}(pos - f) down to a
    forced cell or to the origin, which holds the seed, a letter fixed at the
    origin of its own image.  The walks share a memo of the unforced cells,
    so no cell is walked twice and a walk that comes back to one of its cells
    circles."""
    seed, zero = _as_letter(seed, s.alphabet), zero_vec(s.dim)
    if not _fixed_at_origin(s, seed):
        raise ValueError(f"seed {seed} is not fixed at the origin of its image")
    known, rep_of_key, forced, table = {zero: seed}, s.domain._rep_of_key, s._forced.get, s.table
    reduce, solve = s.domain.hnf_basis.reduce_vec, s.base.solve_exact

    def letter_at(pos):
        walked = None  # (cell, offset, the walked before it) of each unforced cell
        while True:
            if (letter := forced(key := reduce(pos))) is not None:
                break
            if pos in known:  # the origin, an earlier walk's cell, or this walk's: None
                letter = known[pos]
                break
            known[pos] = None
            walked = (pos, f := rep_of_key[key], walked)
            pos = solve(tuple(map(sub, pos, f)))
        while walked:  # innermost first
            pos, f, walked = walked
            known[pos] = letter = None if letter is None else table[letter][f]
        return letter

    return letter_at


def fixed_point_count(s: ConstantShapeSubstitution) -> int:
    """Number of fixed points of the rule.

    A letter fixed at the origin of its own image generates a nested
    sequence of patches, hence a fixed point; distinct seeds give points
    differing at the origin.
    """
    return sum(_fixed_at_origin(s, a) for a in s.alphabet)


# ---------------------------------------------------------------------------
# the covering rest set
# ---------------------------------------------------------------------------


_COVERAGE_RADIUS = 8


class KSetReport(_Record):
    points: frozenset
    stable_from: int | None
    m_max: int
    coverage_ok: bool
    coverage_radius: int
    coverage_depth: int

    def to_payload(self) -> dict:
        return {
            "points": sorted(list(p) for p in self.points),
            "stable_from": self.stable_from,
            "m_max": self.m_max,
            "coverage_ok": self.coverage_ok,
            "coverage_radius": self.coverage_radius,
            "coverage_depth": self.coverage_depth,
        }


def k_set(s: ConstantShapeSubstitution, m_max: int) -> KSetReport:
    """Union over m <= m_max of (Id - L^m)^{-1}(F_m) intersected with Z^d.

    Also reports the first m from which the union stops growing and
    whether translates L^n(K) + F_n, n up to the first depth past m_max
    with |det|^n >= (4 r)^d, cover the test box [-r, r]^d, r = 8.
    """
    cov_depth = m_max + 1
    while abs(s.base.det()) ** cov_depth < (4 * _COVERAGE_RADIUS) ** s.dim:
        cov_depth += 1
    levels = supports(s, cov_depth)
    ident = IntMatrix.identity(s.dim)
    stages = []
    points: set = set()
    for m in range(1, m_max + 1):
        mat = ident - (s.base**m)
        for f in levels[m]:
            x = mat.solve_exact(f)
            if x is not None:
                points.add(x)
        stages.append(frozenset(points))
    # the stages only grow, so those equal to the last are a run at the end
    stable_from = next((m for m in range(1, m_max) if stages[m - 1] == stages[-1]), None)
    covered: set = set()
    for n in range(cov_depth + 1):
        lifted = map((s.base**n).mul_vec, points)
        covered.update(vec_add(lk, f) for lk in lifted for f in levels[n])
    box = box_positions(-_COVERAGE_RADIUS, _COVERAGE_RADIUS, s.dim)
    ok = all(p in covered for p in box)
    return KSetReport(
        points=frozenset(points),
        stable_from=stable_from,
        m_max=m_max,
        coverage_ok=ok,
        coverage_radius=_COVERAGE_RADIUS,
        coverage_depth=cov_depth,
    )


def box_positions(lo: int, hi: int, d: int) -> list[Vec]:
    """The points of the cube [lo, hi]^d, in lexicographic order.

    A cube of more than 4,000,000 cells raises SizeGuardError before any is built.
    """
    _guard(max(hi - lo + 1, 0) ** d, f"the box {lo}:{hi} in d = {d} has", "cells")
    return list(product(range(lo, hi + 1), repeat=d))


def box_rows(lo: int, hi: int, d: int) -> list[tuple[Vec, int]]:
    """The rows of the cube [lo, hi]^d along its last axis, each (first cell, length):
    their cells, row by row, are box_positions' points in its order, and guarded alike."""
    _guard(max(hi - lo + 1, 0) ** d, f"the box {lo}:{hi} in d = {d} has", "cells")
    if hi < lo:
        return []
    return [((*lead, lo), hi - lo + 1) for lead in product(range(lo, hi + 1), repeat=d - 1)]


# ---------------------------------------------------------------------------
# recognizability
# ---------------------------------------------------------------------------


def recognizability_check(s: ConstantShapeSubstitution, n: int) -> tuple[bool, tuple | None]:
    """Windowed check that equal F_n-patches force congruence mod L^n(Z^d).

    Scans the box [-8, 8]^d of the fixed point seeded by the least letter.
    Returns (True, None) or (False, (a, b)) with a counterexample pair.
    Equal windows always force congruent positions for the self-similar
    family, so any counterexample signals an implementation bug; the check
    doubles as a self-test.  Any other rule raises WrongBranchError.
    """
    if not s.is_self_similar():
        raise WrongBranchError("recognizability is checked on the self-similar family only")
    fn = sorted(supports(s, n)[n])
    basis = hnf(s.base**n)
    box = box_positions(-8, 8, s.dim)
    cells = fixed_point_patch(s, min(s.alphabet), {vec_add(a, f) for a in box for f in fn})
    patches: dict = {}
    for a in box:
        sig = tuple(cells[vec_add(a, f)] for f in fn)
        if sig in patches:
            b = patches[sig]
            if not basis.contains(vec_sub(a, b)):
                return False, (a, b)
        else:
            patches[sig] = a
    return True, None
