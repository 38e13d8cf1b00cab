"""Randomized cross-validation between the classifier and the bounded oracle.

Membership is a theorem-backed exact decision; the normalizer-condition
check is its independent arithmetic oracle.  For members the condition
must hold at every tested depth.  For non-members it must fail by a depth
read off the verdict: M moves a required eigenline v off itself, and the
condition sees that once the level passes the p-adic valuation of the
deviation c at the split prime p.  On the eigenline branches c is the
witness det[v, M v]; on the centralizer branch, where the required lines
are Galois conjugate, c = det(LM - ML), up to a p-adic unit the product of
the deviations of the two conjugate lines.  A valuation is below the bit
length, so the condition fails by bitlen(|c|) + 1; the largest commutator
entry is not enough there (0,3;-2,-3 with -2,1;-1,0 first fails at depth
7, its commutator -1,9;7,1 has bit length 4).
"""

import random
from itertools import product

from tests_shared import (
    SMALL_UNIMODULAR,
    ConstantBase,
    kappa_embed,
    nc_passes,
    rand_unimodular_small,
    scale,
)

from odosym.classify2d import classify, is_member
from odosym.intmat import IntMatrix, is_expansion, parse_matrix, validate_domain
from odosym.substitution import fixed_point_patch, sigma_L, tau, valuation
from odosym.subshift_norm import (
    NLCertificate,
    apply_endomorphism,
    build_local_rule,
    composition_check,
    nl_membership,
    pullback_positions,
)

def failing_depth(L, M, verdict):
    """Depth by which the condition must fail for a non-member M."""
    assert verdict.reason in ("unit-eigenlines", "centralizer-commutes")
    return max(abs(x) for x in verdict.witness).bit_length() + 1


def assert_oracle_agrees(L, M, member_depth):
    verdict = is_member(L, M)
    if verdict.member:
        assert nc_passes(L, M, member_depth), (L.rows, M.rows, "member failed the oracle")
    else:
        depth = failing_depth(L, M, verdict)
        assert not nc_passes(L, M, depth), (L.rows, M.rows, f"non-member passed through depth {depth}")


def random_expansion(rng, bound=4, det_cap=30):
    while True:
        m = IntMatrix(
            ((rng.randint(-bound, bound), rng.randint(-bound, bound)),
             (rng.randint(-bound, bound), rng.randint(-bound, bound)))
        )
        if abs(m.det()) <= det_cap and is_expansion(m):
            return m


def test_classifier_agrees_with_oracle_on_random_bases():
    rng = random.Random(401)
    bases = [random_expansion(rng) for _ in range(25)]
    for L in bases:
        for M in SMALL_UNIMODULAR:
            assert_oracle_agrees(L, M, 4)


def test_oracle_agreement_on_branch_critical_bases():
    # one base per virtually-Z shape plus a conjugated order-two case
    bases = [
        parse_matrix("6,4;0,2"),   # parameterized family
        parse_matrix("3,1;0,6"),   # adapted upper triangular
        parse_matrix("6,0;0,2"),   # diagonal mixed radicals
        parse_matrix("4,1;2,5"),   # non-triangular integer spectrum
        parse_matrix("4,2;1,3"),   # non-triangular, order-two branch
        parse_matrix("2,1;0,5"),   # order-two branch, triangular
    ]
    for L in bases:
        for M in SMALL_UNIMODULAR:
            assert_oracle_agrees(L, M, 5)


def test_centralizer_failing_depth_comes_from_the_commutator_determinant():
    L, M = parse_matrix("0,3;-2,-3"), parse_matrix("-2,1;-1,0")
    verdict = is_member(L, M)
    assert verdict.reason == "centralizer-commutes" and not verdict.member
    assert verdict.witness == ((L * M - M * L).det(),) == (-64,)
    assert nc_passes(L, M, 6) and not nc_passes(L, M, 7)
    assert failing_depth(L, M, verdict) == 8


def test_branch_coverage_of_random_sweep():
    rng = random.Random(402)
    tags = set()
    for _ in range(300):
        tags.add(classify(random_expansion(rng)).tag)
    assert {"full-gl2", "centralizer-finite", "virtually-z"} <= tags


def test_subshift_machinery_on_skew_base():
    # non-diagonal base: determinant 7, six letters on a skew domain
    L = parse_matrix("2,-1;1,3")
    s = sigma_L(L)
    rot = parse_matrix("1,1;-1,0")  # commutes with the base, order 6
    cert = nl_membership(L, rot)
    assert isinstance(cert, NLCertificate)
    assert cert.k == 0 and cert.n0 == 0
    rule = build_local_rule(cert)
    region = [t for t in product(range(-4, 5), repeat=2)]
    sources, cells = pullback_positions(rule, region)
    for seed in sorted(s.alphabet)[:2]:
        patch = fixed_point_patch(s, seed, cells)
        image = apply_endomorphism(rule, patch, sources)
        for t in region:
            if t != (0, 0):
                assert image[t] == tau(s, t)
    # digit equivariance and the composition law on a small box
    for v in product(range(-5, 6), repeat=2):
        if v == (0, 0):
            continue
        level = min(valuation(s, v), cert.n0)
        assert tau(s, rot.mul_vec(v)) == rule.per_level[level][tau(s, v)]
    assert composition_check(L, rot, rot, region)


def test_half_hex_domain_and_box_domain_give_same_verdicts():
    # the acceptance verdict depends on the base, not on which fundamental
    # domain presents the digit cosets
    rng = random.Random(403)
    two = scale(IntMatrix.identity(2), 2)
    hh_domain = validate_domain(two, [(0, 0), (1, 0), (0, 1), (1, -1)])
    for _ in range(20):
        m = rand_unimodular_small(rng)
        a = nl_membership(two, m, domain=hh_domain)
        b = nl_membership(two, m)
        assert isinstance(a, NLCertificate) == isinstance(b, NLCertificate)
        if isinstance(a, NLCertificate):
            assert (a.k, a.n0) == (b.k, b.n0)


def test_constant_base_deep_digits_match_reductions():
    rng = random.Random(404)
    L = parse_matrix("2,-1;1,3")
    base = ConstantBase(L)
    from odosym.intmat import hnf

    for _ in range(20):
        v = (rng.randint(-40, 40), rng.randint(-40, 40))
        p = kappa_embed(v, base, 5)
        for n in range(6):
            assert p.digit(n) == hnf(L**n).reduce_vec(v)
