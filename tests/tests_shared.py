"""Shared random generators and oracles for the test suite (seeded by each test)."""

from itertools import product
from operator import index

from odosym.classify2d import FullGL2, NormalizerClass, _order_units, _require_expansion_2x2
from odosym.errors import DepthError, MarginError, WindowError, WrongBranchError
from odosym.intmat import (
    IntMatrix,
    Vec,
    _apply,
    _Record,
    _require_expansion,
    hnf,
    vec_add,
)
from odosym.odometer import nc_bounded_check
from odosym.subshift_norm import apply_endomorphism, pullback_positions
from odosym.substitution import _strip_base, box_positions, sigma_L, tau, valuation


def commutes(a: IntMatrix, b: IntMatrix) -> bool:
    return a * b == b * a


def scale(m: IntMatrix, c: int) -> IntMatrix:
    """c times m, entry by entry."""
    return IntMatrix(tuple(tuple(c * x for x in r) for r in m.rows))


def add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The entrywise sum of two matrices of one size (vec_add raises on two sizes)."""
    return IntMatrix(tuple(map(vec_add, a.rows, b.rows)))


# the 104 unimodular 2x2 matrices with entries in [-2, 2]
SMALL_UNIMODULAR = [
    IntMatrix(((a, b), (c, d)))
    for a, b, c, d in product(range(-2, 3), repeat=4)
    if a * d - b * c in (1, -1)
]


def count_matrix_builds(monkeypatch) -> list:
    """A list that gets the rows of each IntMatrix built from now on."""
    built, init = [], IntMatrix.__init__

    def counting(self, rows):
        built.append(rows)
        init(self, rows)

    monkeypatch.setattr(IntMatrix, "__init__", counting)
    return built


def rand_unimodular_steps(rng, d=2, steps=6):
    """Random unimodular matrix as a product of elementary operations."""
    m = IntMatrix.identity(d)
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        rows = [list(r) for r in m.rows]
        c = rng.choice([-2, -1, 1, 2])
        for k in range(d):
            rows[i][k] += c * rows[j][k]
        m = IntMatrix(rows)
        if rng.random() < 0.25:
            m = -m
    return m


def rand_unimodular_small(rng, bound=3):
    """Rejection-sampled unimodular matrix with bounded entries."""
    while True:
        m = IntMatrix(
            (
                (rng.randint(-bound, bound), rng.randint(-bound, bound)),
                (rng.randint(-bound, bound), rng.randint(-bound, bound)),
            )
        )
        if m.det() in (1, -1):
            return m


def nc_passes(L, M, n_max):
    """True iff the normalizer condition holds at every depth 1..n_max."""
    return all(c.present for c in nc_bounded_check(L, M, n_max))


def shift(patch, z):
    """The patch of the translated point: new[k] = old[k + z]."""
    return {tuple(a - b for a, b in zip(pos, z)): letter for pos, letter in patch.items()}


def evaluate(rule, patch, region):
    """The rule's image of the patch on the region, pulled back once."""
    return apply_endomorphism(rule, patch, pullback_positions(rule, region)[0])


def centralizer(L: IntMatrix) -> NormalizerClass:
    """GL(2,Z) centralizer of L: full group, finite list, or automorph pair.

    classify reports this group only where the normalizer is the
    centralizer; this query answers it for every base, from the same route.
    """
    _require_expansion_2x2(L)
    (p, q), (r, s) = L.rows
    if q == 0 and r == 0 and p == s:
        return FullGL2()
    return _order_units(L)


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    adj = m.adjugate()
    return adj if m.det() == 1 else -adj


def coordinate_formula(cert, seed, region):
    """Image at t: the digit action of C_v on the letter at u = M^{-1} t, with
    v the valuation of u truncated at n0 (the origin is deeper than n0)."""
    domain = cert.domain
    s = sigma_L(cert.L, domain)
    m_inv = unimodular_inverse(cert.M)
    out = {}
    for t in region:
        u = m_inv.mul_vec(t)
        if any(u):
            level, letter = min(valuation(s, u), cert.n0), tau(s, u)
        else:
            level, letter = cert.n0, seed
        out[t] = domain.digit_of(cert.conjugates[level].mul_vec(letter))
    return out


def brute_force_centralizer(L, bound):
    """Independent oracle: all unimodular commuting matrices, bounded entries.

    Iterates two free entries and solves the commuting relations exactly
    for the rest, so large bounds stay cheap.
    """
    (p, q), (r, s) = L.rows
    out = set()
    if q != 0:
        # m21 = r m12 / q and the second relation fixes m22 from m11
        for m11, m12 in product(range(-bound, bound + 1), repeat=2):
            if (r * m12) % q:
                continue
            m21 = r * m12 // q
            num = q * m11 - m12 * (p - s)
            if num % q:
                continue
            m22 = num // q
            if max(abs(m21), abs(m22)) > bound:
                continue
            m = IntMatrix(((m11, m12), (m21, m22)))
            if m.det() in (1, -1) and commutes(L, m):
                out.add(m)
    else:
        for m11, m21 in product(range(-bound, bound + 1), repeat=2):
            if r != 0:
                if (r * m11 + (s - p) * m21) % r:
                    continue
                m22 = (r * m11 + (s - p) * m21) // r
                m12 = 0
                cand = [(m12, m22)]
            else:
                cand = [
                    (m12, m22)
                    for m12 in range(-bound, bound + 1)
                    for m22 in range(-bound, bound + 1)
                ]
            for m12, m22 in cand:
                if max(abs(m12), abs(m22)) > bound:
                    continue
                m = IntMatrix(((m11, m12), (m21, m22)))
                if m.det() in (1, -1) and commutes(L, m):
                    out.add(m)
    return sorted(out, key=lambda m: m.rows)


# ---------------------------------------------------------------------------
# truncated inverse-limit points, fibers and iterated substitution
# ---------------------------------------------------------------------------


class ConstantBase(_Record):
    """Levels Z_n = L^n(Z^d) for a fixed expansion matrix L."""

    matrix: IntMatrix

    def __init__(self, matrix: IntMatrix):
        _require_expansion(matrix)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.dim


class OdometerPoint(_Record):
    """Digits g_0..g_N, each the canonical representative mod level n."""

    base: ConstantBase
    digits: tuple[Vec, ...]

    def __init__(self, base: ConstantBase, digits: tuple[Vec, ...]):
        super().__init__(base, digits)
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


def fiber_points(s, at, depth: int) -> tuple[frozenset, str]:
    """Letters the projection cannot pin down over the given base point.

    An integer vector a names the orbit point embedding -a: the fiber
    keeps all letters at the coordinate a, so every letter is possible.
    An OdometerPoint is scanned for an integer lift inside the test
    window [-8, 8]^d; with no lift the central letter is forced and the
    count is 1, exact at the tested depth.
    """
    if not s.is_self_similar():
        raise WrongBranchError("fiber analysis needs the self-similar family")
    if isinstance(at, OdometerPoint):
        n = min(depth, at.depth)
        basis = hnf(s.base**n)
        target = at.digit(n)
        lifts = [v for v in box_positions(-8, 8, s.dim) if basis.reduce_vec(v) == target]
        if lifts:
            return frozenset(s.alphabet), f"orbit-like: lift {lifts[0]} in window"
        if not any(target):
            return frozenset(s.alphabet), "all digits zero to tested depth"
        note = f"exact at tested depth {n}, window radius 8"
        return frozenset({tau(s, target)}), note
    a = tuple(map(index, at))
    return frozenset(s.alphabet), f"orbit point: letters at coordinate {a} are free"


def substitute(s, p):
    """One application of the rule: letter at L(j) + f is image(p_j) at f."""
    cells = {}
    for j, a in p.items():
        lj = s.base.mul_vec(j)
        for f, b in s.image(a).items():
            cells[vec_add(lj, f)] = b
    return cells


# ---------------------------------------------------------------------------
# the class-table decoder of the window level, the oracle of _truncated_level
# ---------------------------------------------------------------------------


def class_table(s, n0, window):
    """For each coset of L^{n0}(Z^d): (representative, truncated level, {cell:
    letter}) over the cells of window the coset forces; a cell congruent to 0
    mod L^{n0} is left out, as the coset does not determine its letter."""
    basis = hnf(s.base**n0)
    out = []
    for c in basis.box_reps():
        forced = {}
        for f in window:
            y = vec_add(c, f)
            if not basis.contains(y):
                forced[f] = tau(s, y)
        level = n0 if basis.contains(c) else min(valuation(s, c), n0)
        out.append((c, level, forced))
    return tuple(out)


def table_level(window, table, patch, pos):
    """The level of the first coset of the class table whose forced letters the
    pattern of the window at pos matches; cosets of different level disagree
    on a cell forced in both, so every match has that level."""
    pattern = {f: patch.get(vec_add(pos, f)) for f in window}
    if None in pattern.values():
        raise MarginError(f"window at {pos} leaves the patch support")
    for _, level, forced in table:
        if all(pattern[f] == letter for f, letter in forced.items()):
            return level
    raise WindowError(f"window pattern at {pos} matches no digit coset")


def window_cells(pairs, d):
    """The cells of a window: the origin and every cell of its pairs, sorted."""
    return tuple(sorted({(0,) * d, *(f for pair in pairs for f in pair)}))


# ---------------------------------------------------------------------------
# the per-cell one pass, the oracle of the row pass of _fixed_point_image
# ---------------------------------------------------------------------------


def per_cell_image(rule, seed, region):
    """The letters of the rule's image of the fixed point seeded by seed, one
    per position t of the region and in its order, each by its own digit
    walk: with u = M^{-1} t = L^p w, w not in L(Z^d), the letter at t is
    per_level[min(p, n0)] of w's digit, and the origin holds the seed at n0.
    The 2-D walk is in line (Hermite key and adj(L) u / det(L)), the others
    go through reduce_vec and solve_exact."""
    domain, n0, per_level, m_inv = rule.domain, rule.n0, rule.per_level, rule.m_inv.rows
    seed = tuple(seed)
    if seed not in per_level[n0]:
        raise ValueError(f"seed {seed} is not a letter")
    origin, rep_of_key, out = per_level[n0][seed], domain._rep_of_key, []
    if len(m_inv) == 2:
        (a, b), (c, d) = m_inv
        (h00, _), (h10, h11) = domain.hnf_basis.matrix.rows
        det, ((e, f), (g, h)) = domain.base._inverse
        digits = [rep_of_key[k // h11, k % h11] for k in range(h00 * h11)]
        flat = [[lv.get(w) for w in digits] for lv in per_level]
        for t in region:
            x, y, p = a * t[0] + b * t[1], c * t[0] + d * t[1], 0
            while not (k := x % h00 * h11 + (y - x // h00 * h10) % h11) and (x or y):
                x, y, p = (e * x + f * y) // det, (g * x + h * y) // det, p + 1
            out.append((flat[p] if p < n0 else flat[n0])[k] if x or y else origin)
        return out
    for t in region:
        u = _apply(m_inv, t)
        p, key = _strip_base(domain, u, "tau") if any(u) else (n0, None)
        out.append(per_level[min(p, n0)][rep_of_key[key]] if any(u) else origin)
    return out
