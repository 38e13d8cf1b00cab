"""is_member's one invariant, the unit eigenlines, against the rule it replaced.

is_member asks M to fix every eigenline of L that _unit_lines requires.
The reference here is the older, independent route: move L to its
adapted triangular form T = W^{-1} L W = (p, q; 0, s), pull M into that
basis, and decide by the radicals of p and s:

  * rad(p) | s but not rad(s) | p: the relation
    (p - s)^2 m12 = m21 q^2 + (p - s)(m11 - m22) q;
  * rad(s) | p but not rad(p) | s: m21 = 0 (upper triangular);
  * neither: M is +-Id, or +-(1, 2q/(p - s); 0, -1) when that is integral.

The normalizer-condition oracle is the second, arithmetic check; see
test_cross_validation.py.
"""

import random
from math import gcd

from tests_shared import commutes, rand_unimodular_steps, unimodular_inverse

from odosym.classify2d import _triangular_form, _unit_lines, classify, is_member
from odosym.intmat import IntMatrix, integer_eigenvalues, is_expansion, parse_matrix, rad_divides

ID2 = IntMatrix.identity(2)


def relation_reference(L):
    """The membership rule for base L by the triangular relation, as a function of M."""
    if rad_divides(L.det(), L.trace()):
        return lambda M: True
    if not integer_eigenvalues(L):
        return lambda M: commutes(L, M)
    w, p, q, s = _triangular_form(L)
    w_inv = unimodular_inverse(w)
    p_unit_only = rad_divides(p, s) and not rad_divides(s, p)
    s_unit_only = not rad_divides(p, s) and rad_divides(s, p)

    def member(M):
        (m11, m12), (m21, m22) = (w_inv * M * w).rows
        if p_unit_only:
            return m21 == 0
        if s_unit_only:
            return (p - s) ** 2 * m12 == m21 * q * q + (p - s) * (m11 - m22) * q
        if (m11, m12, m21, m22) in ((1, 0, 0, 1), (-1, 0, 0, -1)):
            return True
        return (2 * q) % (p - s) == 0 and m21 == 0 and m22 == -m11 and m12 == m11 * 2 * q // (p - s)

    return member


def random_unimodular(rng, bound):
    """Unimodular matrix with entries in [-bound, bound]: a random primitive column, extended."""
    while True:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if gcd(a, c) != 1:
            continue
        # a d - b c = 1 from the extended gcd, then shifted by a random multiple of (a, c)
        x0, y0, r0, r1, x1, y1 = 1, 0, a, c, 0, 1
        while r1:
            k = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - k * r1, x1, x0 - k * x1, y1, y0 - k * y1
        d, b = x0 * r0, -y0 * r0  # a x0 + c y0 = r0 = +-1
        t = rng.randint(-3, 3)
        m = IntMatrix(((a, b + t * a), (c, d + t * c)))
        if m.max_abs() <= bound:
            return m if rng.random() < 0.5 else m * IntMatrix(((1, 0), (0, -1)))


def random_bases(rng, count, bound):
    """Random expansion bases, half with entries in [-bound, bound], half with integer spectrum."""
    eig = [-12, -10, -9, -8, -6, -5, -4, -3, -2, 2, 3, 4, 5, 6, 8, 9, 10, 12]
    out = []
    while len(out) < count:
        if len(out) % 2:
            u = rand_unimodular_steps(rng, steps=4)
            t = IntMatrix(((rng.choice(eig), rng.randint(-6, 6)), (0, rng.choice(eig))))
            L = u * t * unimodular_inverse(u)
        else:
            L = IntMatrix(tuple(tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(2)))
        if L.det() != 0 and is_expansion(L):
            out.append(L)
    return out


def group_words(L, rng, count):
    """Products of the group's generators: members, whatever the rule says."""
    gens = list(classify(L).generators())
    out = []
    for _ in range(count):
        m = ID2
        for _ in range(rng.randint(1, 4)):
            g = rng.choice(gens)
            m = m * (g if rng.random() < 0.5 else unimodular_inverse(g))
        out.append(m)
    return out


def sweep(rng, n_bases, per_base, bound):
    """(pairs checked, members among them, disagreements) over random bases."""
    pairs = members = 0
    bad = []
    for L in random_bases(rng, n_bases, bound):
        ref = relation_reference(L)
        mats = [random_unimodular(rng, bound) for _ in range(per_base - per_base // 4)]
        mats += group_words(L, rng, per_base // 4)
        for M in mats:
            got = is_member(L, M).member
            pairs += 1
            members += got
            if got != ref(M):
                bad.append((L.rows, M.rows, got))
    return pairs, members, bad


def test_is_member_agrees_with_triangular_relation_on_random_pairs():
    # 400 bases x 60 matrices; entries up to +-40 on the first half of every base's draws
    pairs, members, bad = sweep(random.Random(1101), 400, 60, 40)
    assert not bad, bad[:5]
    assert pairs >= 20000 and 0 < members < pairs


def test_is_member_agrees_with_triangular_relation_on_small_pairs():
    pairs, members, bad = sweep(random.Random(1102), 100, 40, 4)
    assert not bad, bad[:5]
    assert members > pairs // 4


def test_unit_lines_per_branch():
    assert _unit_lines(parse_matrix("2,0;0,2").rows) is None
    assert _unit_lines(parse_matrix("3,3;0,3").rows) is None
    assert _unit_lines(parse_matrix("2,-1;1,5").rows) == "commute"
    assert _unit_lines(parse_matrix("2,-1;1,3").rows) == "commute"
    # eigenvalues 3, 5: both units at the other's prime, so both lines
    assert _unit_lines(parse_matrix("3,1;0,5").rows) == ((1, 0), (1, 2))
    # eigenvalues 2, 6: rad 2 | 6 but 3 does not divide 2, so only the 2-line
    assert _unit_lines(parse_matrix("6,1;0,2").rows) == ((1, -4),)
    # eigenvalues 3, 6: 3 | 6 but 2 does not divide 3, so only the 3-line
    assert _unit_lines(parse_matrix("3,1;0,6").rows) == ((1, 0),)


def test_unit_lines_are_eigenlines_of_the_spectrum():
    rng = random.Random(1103)
    for L in random_bases(rng, 200, 12):
        lines = _unit_lines(L.rows)
        if not isinstance(lines, tuple):
            continue
        t1, t2 = integer_eigenvalues(L)
        for v in lines:
            lam = next(t for t in (t1, t2) if L.mul_vec(v) == (t * v[0], t * v[1]))
            other = t1 + t2 - lam
            assert gcd(*v) == 1 and not rad_divides(other, lam)

