"""Shared random generators and oracles for the test suite (seeded by each test)."""

from itertools import product

from odosym.intmat import IntMatrix, commutes
from odosym.odometer import nc_bounded_check
from odosym.subshift_norm import apply_endomorphism, pullback_positions


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


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    adj = m.adjugate()
    return adj if m.det() == 1 else -adj


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
