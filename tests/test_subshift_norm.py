import random
import time
import tracemalloc
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from tests_shared import (
    SMALL_UNIMODULAR,
    ConstantBase,
    class_table,
    evaluate,
    fiber_points,
    kappa_embed,
    rand_unimodular_small,
    scale,
    shift,
    table_level,
    unimodular_inverse,
    window_cells,
)

from odosym.classify2d import _order_units, is_member
from odosym.errors import (
    DomainValidationError,
    MarginError,
    MissingCertificateError,
    SizeGuardError,
    WindowError,
    WrongBranchError,
)
from odosym.intmat import (
    IntMatrix,
    format_matrix,
    fundamental_domain,
    hnf,
    is_expansion,
    parse_matrix,
    parse_vector,
    validate_domain,
)
from odosym.odometer import nc_bounded_check
from odosym.substitution import (
    fixed_point_patch,
    half_hex,
    sigma_L,
    supports,
    tau,
    valuation,
)
from odosym import intmat, subshift_norm, substitution
from odosym.subshift_norm import (
    NLCertificate,
    NLRejection,
    apply_endomorphism,
    build_local_rule,
    composition_check,
    nl_membership,
    pullback_positions,
)
from odosym.subshift_norm import _conjugates, _truncated_level, _window

TWO = scale(IntMatrix.identity(2), 2)
D24 = parse_matrix("2,0;0,4")
SWAP = parse_matrix("0,1;1,0")
HH_DOMAIN = validate_domain(TWO, [(0, 0), (1, 0), (0, 1), (1, -1)])


def box(radius, d=2):
    return [tuple(t) for t in product(range(-radius, radius + 1), repeat=d)]


# ---------------------------------------------------------------------------
# conjugate powers
# ---------------------------------------------------------------------------


def conjugates(L, M, count):
    """C_0 .. C_{count-1}, each L^{-n} M L^n or None."""
    return list(islice(_conjugates(L, M), count))


def test_conjugates_examples():
    rng = random.Random(51)
    for _ in range(10):
        m = rand_unimodular_small(rng)
        assert conjugates(TWO, m, 4) == [m] * 4
    assert conjugates(D24, parse_matrix("1,1;0,1"), 5) == [
        IntMatrix(((1, 2**n), (0, 1))) for n in range(5)
    ]
    assert conjugates(D24, parse_matrix("1,0;1,1"), 2)[1] is None


def oracle_conjugates(L, M, count):
    """C_0 .. C_{count-1} by the definition, L^{-n} M L^n in exact rationals, each
    an IntMatrix or None: no numerators, no det(L)^n, no repeats looked for."""
    d = L.dim
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(d)]
           for i, row in enumerate(L.rows)]
    for col in range(d):  # Gauss-Jordan on [L | Id]
        piv = next(r for r in range(col, d) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(d):
            if r != col:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    inv = [row[d:] for row in aug]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, colm)) for colm in zip(*b)] for row in a]

    out, c = [], [[Fraction(x) for x in row] for row in M.rows]
    for _ in range(count):
        integral = all(x.denominator == 1 for row in c for x in row)
        out.append(IntMatrix(tuple(tuple(int(x) for x in row) for row in c)) if integral else None)
        c = mul(mul(inv, c), L.rows)
    return out


# (L, M) whose walk repeats: L has a scalar power (L^2 = 3 Id, L^3 = -8 Id, L^4 =
# -4 Id, or L scalar), so C_{n+k} = C_n; and two that never repeat: C_n = 1,2^n;0,1 on 2,0;0,4, and C_n = 1,n;0,-1 on 2,1;0,2, whose square
# is 4 times 1,1;0,1, a U of infinite order
PERIOD_CASES = [
    *[("3,0;0,3", m) for m in ("0,1;1,0", "1,1;0,1", "2,1;1,1")],
    *[("2,0;0,2", m) for m in ("0,-1;1,0", "1,0;3,1")],
    *[("0,3;1,0", m) for m in ("1,0;0,-1", "0,1;1,0", "1,1;0,1", "1,0;0,1")],
    *[("1,1;-3,1", m) for m in ("1,0;0,-1", "0,1;-1,0", "-1,0;0,-1", "1,1;0,1")],
    *[("1,1;-1,1", m) for m in ("0,1;1,0", "1,0;0,-1", "0,-1;1,0", "2,1;1,1")],
    ("3", "-1"),
    ("3", "1"),
    ("2,0,0;0,2,0;0,0,2", "0,1,0;1,0,0;0,0,-1"),
    ("2,0,0;0,2,0;0,0,2", "1,0,1;0,1,0;0,0,1"),
    ("2,0;0,4", "1,1;0,1"),
    ("2,1;0,2", "1,0;0,-1"),
]


@pytest.mark.parametrize("base, m", PERIOD_CASES)
def test_the_walk_matches_the_definition_through_level_40(base, m):
    L, M = parse_matrix(base), parse_matrix(m)
    walk = conjugates(L, M, 41)
    assert walk == oracle_conjugates(L, M, 41), (L, M)
    # a level equal to an earlier one is that level's object, yielded again
    for a, b in product(range(41), repeat=2):
        if a < b and walk[a] is not None and walk[a] == walk[b]:
            assert walk[a] is walk[b], (L, M, a, b)
    distinct = {c for c in walk if c is not None}
    repeats = base not in ("2,0;0,4", "2,1;0,2")
    assert (len(distinct) < 41) == repeats and walk[0] is M


def test_the_walk_stops_at_the_period_of_the_automorph_of_a_base():
    # 2,1;1,3 squares to 5 times 1,1;1,2, and its centralizer's automorph
    # commutes with it: C_n is the automorph at every level, one object
    L = parse_matrix("2,1;1,3")
    automorph = _order_units(L).automorph
    assert automorph * L == L * automorph and automorph.det() in (1, -1)
    walk = conjugates(L, automorph, 41)
    assert walk == oracle_conjugates(L, automorph, 41) == [automorph] * 41
    assert all(c is automorph for c in walk)


PERIOD_BASES = [
    parse_matrix(L)
    for L in ("3,0;0,3", "2,0;0,2", "0,3;1,0", "1,1;-3,1", "1,1;-1,1", "2,1;1,3")
    + ("2,0;0,4", "2,1;0,2")
]
RANGE3 = st.integers(-3, 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(PERIOD_BASES),
    st.tuples(st.tuples(RANGE3, RANGE3), st.tuples(RANGE3, RANGE3)),
    st.sampled_from((4, 8, 40)),
)
def test_nl_payload_is_the_one_the_definition_gives(L, rows, n_max):
    # k, n0, the conjugates and residue_permutation, rebuilt from the exact
    # rational conjugates, whether or not the walk repeats
    M = IntMatrix(rows)
    assume(M.det() in (1, -1))
    domain = fundamental_domain(L)
    out, want = nl_membership(L, M, n_max, domain), reference_membership(L, M, n_max, domain)
    if isinstance(want, str):
        assert isinstance(out, NLRejection), (L, M, n_max)
        exact = not is_member(L, M).member
        assert out.reason == ("not-odometer-member" if exact else want), (L, M, n_max)
        return
    k, n0, action = want
    assert out.to_payload() == {
        "accepted": True,
        "L": format_matrix(L),
        "M": format_matrix(M),
        "n_max": n_max,
        "k": k,
        "n0": n0,
        "conjugates": [
            None if c is None else format_matrix(c) for c in oracle_conjugates(L, M, n_max + 1)
        ],
        "residue_permutation": [
            [",".join(map(str, a)), ",".join(map(str, b))] for a, b in sorted(action.items())
        ],
    }, (L, M, n_max)


def test_certificate_soundness():
    rng = random.Random(52)
    for L in (TWO, D24):
        for _ in range(12):
            m = rand_unimodular_small(rng)
            out = nl_membership(L, m)
            if isinstance(out, NLRejection):
                continue
            for n, c in enumerate(out.conjugates):
                if c is None:
                    continue
                assert (L**n) * c == m * (L**n)
                assert c.det() in (1, -1)


def test_accepted_residue_action_permutes_the_nonzero_digits():
    # nl_membership does not check this: C_{n0} L = L C_{n0+1} with both
    # integral unimodular, so C_{n0} maps L(Z^2) onto itself
    bases = [
        L
        for a, b, d in product((2, -3, 4), (0, 1), (-2, 3, 4, -8))
        if is_expansion(L := IntMatrix(((a, b), (0, d))))
    ]
    ms = [IntMatrix(((s, x), (0, u))) for s, u in product((1, -1), repeat=2) for x in (0, 1, -2, 3)]
    ms += [IntMatrix(((s, 0), (x, u))) for s, u in product((1, -1), repeat=2) for x in (1, -2, 3)]
    ms += [SWAP, parse_matrix("1,1;1,0"), parse_matrix("2,1;1,1")]
    levels = set()
    for L in bases:
        domain = fundamental_domain(L)
        digits = sorted(f for f in domain.reps if any(f))
        for M in ms:
            cert = nl_membership(L, M, domain=domain)
            if isinstance(cert, NLCertificate):
                levels.add(cert.n0)
                assert [a for a, _ in cert.residue_permutation] == digits
                assert sorted(b for _, b in cert.residue_permutation) == digits
    assert levels == {0, 1, 2}


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_nl_membership_examples():
    r = nl_membership(TWO, SWAP)
    assert isinstance(r, NLCertificate) and r.k == 0 and r.n0 == 0
    rng = random.Random(53)
    for _ in range(15):
        m = rand_unimodular_small(rng)
        out = nl_membership(TWO, m)
        assert isinstance(out, NLCertificate)
        assert out.k == 0 and out.n0 == 0
    r2 = nl_membership(D24, parse_matrix("1,2;0,1"))
    assert isinstance(r2, NLCertificate)
    r3 = nl_membership(D24, parse_matrix("1,0;1,1"))
    assert isinstance(r3, NLRejection) and r3.reason == "non-integral-conjugate"


def test_nmax_guard_names_the_limit_and_walks_nothing(monkeypatch):
    L5, ident = parse_matrix("3,1;0,5"), IntMatrix.identity(2)
    walked = []
    real = subshift_norm._conjugates
    monkeypatch.setattr(subshift_norm, "_conjugates", lambda *a: walked.append(a) or real(*a))
    with pytest.raises(SizeGuardError) as err:
        nl_membership(L5, ident, n_max=1001)
    assert str(err.value) == "nmax 1001, over the limit of 1000"
    assert walked == []
    # the limit itself is walked
    cert = nl_membership(L5, ident, n_max=1000)
    assert isinstance(cert, NLCertificate) and len(cert.conjugates) == 1001
    assert len(walked) == 1


def test_a_domain_of_another_base_is_refused_before_the_walk(monkeypatch):
    # the walk reads the domain's base, so a domain of another base is refused
    # with both bases named, and no conjugate is computed; before, nl and the
    # composition check answered with the other base's digit actions
    walked = []
    real = subshift_norm._conjugates
    monkeypatch.setattr(subshift_norm, "_conjugates", lambda *a: walked.append(a) or real(*a))
    three = scale(IntMatrix.identity(2), 3)
    with pytest.raises(DomainValidationError) as err:
        nl_membership(TWO, SWAP, 8, fundamental_domain(D24))
    assert str(err.value) == "F is a domain of base 2,0;0,4, not of L = 2,0;0,2"
    with pytest.raises(DomainValidationError) as err:
        composition_check(TWO, SWAP, SWAP, box(2), domain=fundamental_domain(three))
    assert str(err.value) == "F is a domain of base 3,0;0,3, not of L = 2,0;0,2"
    assert walked == []
    # a domain of an equal base, built from another object, is the base's own
    assert nl_membership(TWO, SWAP, 8, fundamental_domain(parse_matrix("2,0;0,2"))) == (
        nl_membership(TWO, SWAP, 8)
    )
    assert len(walked) == 2 and walked[0][0] is not TWO


def test_nl_rejection_residue_unstable():
    # conjugation by this base swaps the two nonzero digit cosets at every
    # other level, so the digit action never becomes constant
    L = parse_matrix("0,-3;1,0")
    r = nl_membership(L, parse_matrix("1,0;0,-1"))
    assert isinstance(r, NLRejection) and r.reason == "residue-unstable"


def reference_membership(L, M, n_max, domain):
    """nl_membership by the definition: each level's digit action taken from
    its own conjugate, k and n0 the first levels that qualify.  Returns
    (k, n0, action at n0), or the reason a rejection must give."""
    conj = oracle_conjugates(L, M, n_max + 1)
    k = next((s for s in range(n_max + 1) if all(c is not None for c in conj[s:])), None)
    if k is None or k > n_max // 2:
        return "non-integral-conjugate"
    acts = [
        None if c is None else {f: domain.digit_of(c.mul_vec(f)) for f in domain.reps if any(f)}
        for c in conj
    ]
    n0 = next(
        (s for s in range(k, n_max - 1) if all(acts[n] == acts[s] for n in range(s, n_max + 1))),
        None,
    )
    return "residue-unstable" if n0 is None else (k, n0, acts[n0])


def test_nl_membership_matches_the_definition_level_by_level():
    # actions are computed once per class of conjugates mod |det|: the
    # verdict, k, n0 and the action must be those of every level's own C_n
    rng = random.Random(55)
    bases = [TWO, D24, parse_matrix("0,-3;1,0"), parse_matrix("3,1;0,5"), parse_matrix("4,0;0,2")]
    bases += [parse_matrix("2,0;0,12"), parse_matrix("2,1;0,6"), parse_matrix("-2,0;0,8")]
    pairs = [(L, rand_unimodular_small(rng)) for L in bases for _ in range(8)]
    pairs.append((parse_matrix("4,0;0,8"), parse_matrix("1,1;0,1")))  # n0 = 2
    seen = set()
    for (L, m), n_max in product(pairs, (4, 7, 12)):
        domain = fundamental_domain(L)
        out, want = nl_membership(L, m, n_max, domain), reference_membership(L, m, n_max, domain)
        if isinstance(out, NLRejection):
            # the walk rejects, and in d = 2 a non-member is rejected exactly
            exact = not is_member(L, m).member
            assert isinstance(want, str), (L, m, n_max)
            assert out.reason == ("not-odometer-member" if exact else want), (L, m, n_max)
            seen.add(out.reason)
        else:
            assert (out.k, out.n0, dict(out.residue_permutation)) == want, (L, m, n_max)
            seen.add(min(out.n0, 2))
    assert seen == {"non-integral-conjugate", "residue-unstable", "not-odometer-member", 0, 1, 2}


SMALL = st.integers(-4, 4)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(st.tuples(SMALL, SMALL), st.tuples(SMALL, SMALL)), st.sampled_from(SMALL_UNIMODULAR))
@example(((3, 1), (0, 5)), parse_matrix("1,1;0,1"))  # a non-member, witness [0, -4]
@example(((-4, -4), (-4, 2)), parse_matrix("-1,-1;0,1"))  # a member the walk rejects
def test_every_exact_rejection_is_a_non_member_the_walk_rejects(rows, m):
    # a non-member fails the normalizer condition from some depth n1 on, so
    # no C_n with n >= n1 is integral: the walk at nmax 40 rejects it too
    L = IntMatrix(rows)
    assume(is_expansion(L))
    out, verdict = nl_membership(L, m), is_member(L, m)
    if isinstance(out, NLRejection):
        assert (out.reason == "not-odometer-member") == (not verdict.member), (L, m)
    if isinstance(out, NLRejection) and out.reason == "not-odometer-member":
        assert out.detail == f"is_member: {verdict.reason}, witness {list(verdict.witness)}"
        assert [*islice(_conjugates(L, m), 41)][-1] is None, (L, m)


def test_long_nmax_walks_f_once_per_class_mod_det(monkeypatch):
    # C_n = 1,250^n;0,1 on 2,0;0,500: all 1,001 differ, but mod |det| = 1,000
    # they fall in 4 classes (250^n is 1, 250, 500, then 0 from n = 3), so
    # F's 1,000 digits are walked 4 times, not 1,001
    calls = []
    action = subshift_norm._residue_action
    monkeypatch.setattr(subshift_norm, "_residue_action", lambda c, d: calls.append(c) or action(c, d))
    L, shear = parse_matrix("2,0;0,500"), parse_matrix("1,1;0,1")
    cert = nl_membership(L, shear, n_max=1000)
    assert isinstance(cert, NLCertificate) and (cert.k, cert.n0) == (0, 1)
    assert len(set(cert.conjugates)) == 1001
    assert calls == [IntMatrix(((1, 250**n), (0, 1))) for n in range(4)]
    want = reference_membership(L, shear, 12, fundamental_domain(L))
    assert want == (0, 1, dict(cert.residue_permutation))


def test_nl_group_closure():
    rng = random.Random(54)
    accepted = []
    while len(accepted) < 6:
        m = rand_unimodular_small(rng)
        if isinstance(nl_membership(TWO, m), NLCertificate):
            accepted.append(m)
    for i in range(0, 6, 2):
        m1, m2 = accepted[i], accepted[i + 1]
        assert isinstance(nl_membership(TWO, m1 * m2), NLCertificate)
        assert isinstance(nl_membership(TWO, unimodular_inverse(m1)), NLCertificate)
    # the same for the diagonal base on its accepted upper family
    ups = [parse_matrix("1,2;0,1"), parse_matrix("-1,4;0,1"), parse_matrix("1,-2;0,-1")]
    for m1 in ups:
        for m2 in ups:
            assert isinstance(nl_membership(D24, m1 * m2), NLCertificate)
        assert isinstance(nl_membership(D24, unimodular_inverse(m1)), NLCertificate)


def test_nl_requires_unimodular():
    with pytest.raises(ValueError):
        nl_membership(TWO, parse_matrix("2,0;0,1"))


def test_nl_payload_roundtrip():
    # each report, with the domain its inputs name, rebuilds its object, so
    # the payload leaves no other field out; the digit actions are no field:
    # nl_membership hands over its own, and a rebuilt record reads them off
    # its conjugates and domain on first use
    out = nl_membership(D24, parse_matrix("1,2;0,1"))
    p = out.to_payload()
    assert p["accepted"] is True
    rebuilt = NLCertificate(
        L=parse_matrix(p["L"]),
        M=parse_matrix(p["M"]),
        n_max=p["n_max"],
        conjugates=tuple(None if c is None else parse_matrix(c) for c in p["conjugates"]),
        k=p["k"],
        n0=p["n0"],
        residue_permutation=tuple(
            (parse_vector(a), parse_vector(b)) for a, b in p["residue_permutation"]
        ),
        domain=fundamental_domain(D24),
    )
    assert rebuilt == out and "actions" in vars(out) and "actions" not in vars(rebuilt)
    assert rebuilt.actions == out.actions
    assert rebuilt.actions[rebuilt.n0] == rebuilt.residue_permutation
    assert out.actions[out.n0] is out.residue_permutation
    # equal actions are one object, and the record's repr leaves them out
    assert len({id(a) for a in out.actions}) == len(set(out.actions))
    assert len({id(a) for a in rebuilt.actions}) == len(set(rebuilt.actions))
    assert "actions" not in repr(out)
    rej = nl_membership(D24, parse_matrix("1,0;1,1"))
    p = rej.to_payload()
    assert p.pop("accepted") is False
    assert NLRejection(**{**p, "L": parse_matrix(p["L"]), "M": parse_matrix(p["M"])}) == rej


# ---------------------------------------------------------------------------
# local rules
# ---------------------------------------------------------------------------


def test_rule_reads_each_level_action_on_the_certificate_domain(monkeypatch):
    def refused(*args):
        raise AssertionError("build_local_rule walked a digit")

    for L, M, domain, other in (
        (TWO, SWAP, HH_DOMAIN, fundamental_domain(TWO)),
        (D24, parse_matrix("1,1;0,1"), fundamental_domain(D24), None),
    ):
        cert = nl_membership(L, M, domain=domain)
        # the levels are the actions nl_membership handed over with the
        # certificate: no digit is walked again
        with monkeypatch.context() as patched:
            for name in ("tau", "_strip_base", "sigma_L"):
                patched.setattr(substitution, name, refused)
            for name in ("_strip_base", "_residue_action"):
                patched.setattr(subshift_norm, name, refused)
            rule = build_local_rule(cert)
        # level v sends each letter a to sigma_L's letter tau(C_v a), read on
        # the certificate's domain: it permutes the nonzero digits as C_v does
        s = sigma_L(L, domain)
        levels = cert.conjugates[: cert.n0 + 1]
        assert len(rule.per_level) == cert.n0 + 1
        for v, (c, perm) in enumerate(zip(levels, rule.per_level)):
            assert perm == {a: tau(s, c.mul_vec(a)) for a in sorted(s.alphabet)}
            assert perm == {f: domain.digit_of(c.mul_vec(f)) for f in domain.reps if any(f)}
            assert perm == dict(cert.actions[v])
        assert rule.per_level[-1] == dict(cert.residue_permutation)
        # a certificate rebuilt from its fields equals the original and gives its rule
        fields = {f: getattr(cert, f) for f in cert._params}
        assert set(fields) == {
            "L", "M", "n_max", "conjugates", "k", "n0", "residue_permutation", "domain"
        }
        rebuilt = NLCertificate(**fields)
        assert rebuilt == cert and hash(rebuilt) == hash(cert)
        assert build_local_rule(rebuilt).per_level == rule.per_level
        if other is not None:
            # the domain is part of the certificate: on another domain the
            # rule reads that domain's digits
            assert NLCertificate(**{**fields, "domain": other}) != cert
            got = build_local_rule(nl_membership(L, M, domain=other))
            assert got.domain == other
            assert set(got.per_level[0]) == set(other.reps[1:]) != set(domain.reps[1:])


def test_a_certificate_without_a_conjugate_at_a_level_has_no_rule():
    # nl_membership accepts no pair with k > 0, so the gap is built by hand
    # from a real certificate: its level-1 conjugate removed, and k = n0 = 2
    cert = nl_membership(parse_matrix("4,0;0,8"), parse_matrix("1,1;0,1"))
    assert (cert.k, cert.n0) == (0, 2) and None not in cert.conjugates
    fields = {f: getattr(cert, f) for f in cert._params}
    conjugates = (cert.conjugates[0], None, *cert.conjugates[2:])
    gapped = NLCertificate(**{**fields, "conjugates": conjugates, "k": 2})
    with pytest.raises(MissingCertificateError) as raised:
        build_local_rule(gapped)
    assert type(raised.value) is MissingCertificateError
    assert str(raised.value) == "no integral conjugate at level 1"
    assert build_local_rule(cert).n0 == 2


def test_identity_rule_is_identity():
    cert = nl_membership(TWO, IntMatrix.identity(2), domain=HH_DOMAIN)
    rule = build_local_rule(cert)
    assert all(v == k for k, v in rule.per_level[0].items())
    patch = fixed_point_patch(sigma_L(cert.L, cert.domain), (1, 0), box(5))
    out = evaluate(rule, patch, box(3))
    assert all(out[t] == patch[t] for t in box(3))


def test_half_hex_swap_permutation():
    cert = nl_membership(TWO, SWAP, domain=HH_DOMAIN)
    rule = build_local_rule(cert)
    perm = rule.per_level[0]
    assert perm[(1, 0)] == (0, 1)
    assert perm[(0, 1)] == (1, 0)
    assert perm[(1, -1)] == (1, -1)  # (-1,1) is congruent to (1,-1) mod 2Z^2


def test_diag24_even_rule_is_identity_permutation():
    cert = nl_membership(D24, parse_matrix("1,2;0,1"))
    rule = build_local_rule(cert)
    assert cert.n0 == 0
    assert all(v == k for k, v in rule.per_level[0].items())


def test_fixed_point_maps_to_fixed_point():
    for L, M, domain in (
        (TWO, SWAP, HH_DOMAIN),
        (TWO, parse_matrix("1,1;0,1"), HH_DOMAIN),
        (D24, parse_matrix("1,2;0,1"), None),
        (D24, parse_matrix("1,1;0,1"), None),
    ):
        cert = nl_membership(L, M, domain=domain)
        assert isinstance(cert, NLCertificate)
        rule, s = build_local_rule(cert), sigma_L(cert.L, cert.domain)
        region = box(5)
        sources, cells = pullback_positions(rule, region)
        for seed in sorted(s.alphabet):
            patch = fixed_point_patch(s, seed, cells)
            out = apply_endomorphism(rule, patch, sources)
            for t in region:
                if t != (0, 0):
                    assert out[t] == tau(s, t)
            assert out[(0, 0)] == rule.per_level[rule.n0][seed]


def test_equivariance_on_shifted_patches():
    cert = nl_membership(TWO, SWAP, domain=HH_DOMAIN)
    rule, s = build_local_rule(cert), sigma_L(cert.L, cert.domain)
    patch = fixed_point_patch(s, (1, 0), box(14))
    z = (1, 0)
    mz = SWAP.mul_vec(z)
    region = box(4)
    lhs = evaluate(rule, shift(patch, z), region)
    rhs = shift(
        evaluate(rule, patch, [(t[0] + mz[0], t[1] + mz[1]) for t in region]),
        mz,
    )
    assert all(lhs[t] == rhs[t] for t in region)


def test_equivariance_with_nontrivial_window():
    # n0 = 1 here, so the truncated level is decoded from window patterns;
    # coordinate-based levels would evaluate shifted patches wrongly
    M = parse_matrix("1,1;0,1")
    cert = nl_membership(D24, M)
    assert isinstance(cert, NLCertificate) and cert.n0 == 1
    rule, s = build_local_rule(cert), sigma_L(cert.L, cert.domain)
    patch = fixed_point_patch(s, (1, 1), box(40))
    region = box(3)
    for z in ((1, 0), (0, 1), (2, -3), (-1, 2)):
        mz = M.mul_vec(z)
        lhs = evaluate(rule, shift(patch, z), region)
        rhs = shift(
            evaluate(rule, patch, [(t[0] + mz[0], t[1] + mz[1]) for t in region]),
            mz,
        )
        assert all(lhs[t] == rhs[t] for t in region)


def test_composition_mixed_parity_diag24():
    odd = parse_matrix("1,1;0,1")
    even = parse_matrix("1,2;0,1")
    sign = parse_matrix("-1,0;0,1")
    assert composition_check(D24, odd, even, box(3))
    assert composition_check(D24, even, odd, box(3))
    assert composition_check(D24, odd, sign, box(3))


def test_tau_equivariance_of_accepted_matrices():
    cases = [
        (TWO, SWAP, HH_DOMAIN),
        (TWO, parse_matrix("2,1;1,1"), HH_DOMAIN),
        (D24, parse_matrix("1,2;0,1"), None),
        (D24, parse_matrix("1,1;0,1"), None),
    ]
    for L, M, domain in cases:
        cert = nl_membership(L, M, domain=domain)
        assert isinstance(cert, NLCertificate)
        rule, s = build_local_rule(cert), sigma_L(cert.L, cert.domain)
        for v in box(8):
            if v == (0, 0):
                continue
            level = min(valuation(s, v), cert.n0)
            assert tau(s, M.mul_vec(v)) == rule.per_level[level][tau(s, v)]


def test_margin_error():
    cert = nl_membership(TWO, SWAP, domain=HH_DOMAIN)
    rule = build_local_rule(cert)
    patch = fixed_point_patch(sigma_L(cert.L, cert.domain), (1, 0), box(2))
    with pytest.raises(MarginError):
        evaluate(rule, patch, box(8))


def test_composition_of_random_pairs():
    rng = random.Random(55)
    pairs = []
    while len(pairs) < 8:
        m1 = rand_unimodular_small(rng, 2)
        m2 = rand_unimodular_small(rng, 2)
        pairs.append((m1, m2))
    for m1, m2 in pairs:
        assert composition_check(TWO, m1, m2, box(4), domain=HH_DOMAIN)


def test_repetition_law():
    # the fixed-point patch around L^p(f) + L^n(K) + F_n does not depend on p
    hh = half_hex()
    n = 2
    levels = supports(hh, n)
    from odosym.substitution import k_set

    K = k_set(hh, 4).points
    f = (1, 0)
    windows = []
    for p in (3, 4, 5):
        lp = hh.base**p
        anchor = lp.mul_vec(f)
        ln = hh.base**n
        cells = {}
        for k in K:
            base_k = ln.mul_vec(k)
            for fn in levels[n]:
                off = (base_k[0] + fn[0], base_k[1] + fn[1])
                pos = (anchor[0] + off[0], anchor[1] + off[1])
                cells[off] = tau(hh, pos) if pos != (0, 0) else None
        windows.append(cells)
    assert windows[0] == windows[1] == windows[2]


def test_automorphism_triviality_surrogate():
    # the identity matrix admits only the trivial letter action, so its rule
    # reproduces the patch: consistent with the shift maps being the only
    # self-conjugacies
    cert = nl_membership(TWO, IntMatrix.identity(2), domain=HH_DOMAIN)
    rule = build_local_rule(cert)
    patch = fixed_point_patch(sigma_L(cert.L, cert.domain), (0, 1), box(6))
    out = evaluate(rule, patch, box(4))
    assert all(out[t] == patch[t] for t in box(4))


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


def test_fiber_points_orbit():
    hh = half_hex()
    letters, note = fiber_points(hh, (0, 0), 5)
    assert len(letters) == 3
    letters2, _ = fiber_points(hh, (1, 0), 5)
    assert len(letters2) == 3


def test_fiber_points_non_orbit():
    hh = half_hex()
    base = ConstantBase(TWO)
    pt = kappa_embed((42, 42), base, 6)
    # no lift of the level-6 digit lies in the radius-8 window
    letters, note = fiber_points(hh, pt, 6)
    assert len(letters) == 1
    assert "exact at tested depth" in note


def test_fiber_points_orbit_like_point():
    hh = half_hex()
    base = ConstantBase(TWO)
    pt = kappa_embed((-3, 2), base, 6)
    letters, note = fiber_points(hh, pt, 6)
    assert len(letters) == 3 and "lift" in note


def test_fiber_points_needs_self_similar():
    hh = half_hex()
    table = {a: dict(hh.table[a]) for a in hh.alphabet}
    a0 = min(table)
    table[a0] = dict(table[a0])
    table[a0][(1, 0)] = (0, 1)  # a non-digit letter at the (1,0) slot
    from odosym.substitution import ConstantShapeSubstitution

    broken = ConstantShapeSubstitution(domain=hh.domain, table=table)
    with pytest.raises(WrongBranchError):
        fiber_points(broken, (0, 0), 3)


# ---------------------------------------------------------------------------
# defactorization digit: the window decoder reads pi's n-th digit
# ---------------------------------------------------------------------------


def window_coset(s, patch, n):
    """Coset of L^n(Z^d) at the patch origin, read by the class table over
    F_n; the decoder reads that coset's level off its window."""
    table = class_table(s, n, sorted(supports(s, n)[n]))
    matches = [
        (c, level)
        for c, level, forced in table
        if all(patch[f] == letter for f, letter in forced.items())
    ]
    assert len(matches) == 1, f"{len(matches)} cosets match the window"
    (c, level), = matches
    assert _truncated_level(s.domain, _window(s.domain, n), patch, (0,) * s.dim) == level
    return c


def test_pi_factor_box_family():
    from odosym.substitution import sigma_L

    s24 = sigma_L(D24)
    patch = fixed_point_patch(s24, (1, 1), box(10))
    assert window_coset(s24, patch, 1) == (0, 0)
    shifted = shift(patch, (1, 3))
    assert window_coset(s24, shifted, 1) == (1, 3)


def test_pi_factor_fixed_point():
    hh = half_hex()
    patch = fixed_point_patch(hh, (1, 0), box(8))
    for n in (1, 2, 3):
        assert window_coset(hh, patch, n) == (0, 0)


def test_pi_factor_shifted():
    hh = half_hex()
    patch = shift(fixed_point_patch(hh, (1, 0), box(8)), (1, 0))
    assert window_coset(hh, patch, 1) == (1, 0)


def test_pi_factor_random_digits():
    rng = random.Random(56)
    hh = half_hex()
    f2 = sorted(supports(hh, 2)[2])
    basis = hnf(hh.base**2)
    big = fixed_point_patch(hh, (0, 1), box(16))
    for _ in range(8):
        f = rng.choice(f2)
        shifted = shift(big, f)  # S^f zeta^2(xbar) since xbar is fixed
        c = window_coset(hh, shifted, 2)
        assert basis.contains(tuple(a - b for a, b in zip(f, c)))


def test_pi_factor_window_too_small():
    # 1,1;0,1 on the diagonal base stabilizes at n0 = 1, so the decoder reads
    # the window S = {0, f1, f2} around the position, f1 and f2 the two least
    # nonzero digits, and raises MarginError for each missing cell of it
    M = parse_matrix("1,1;0,1")
    cert = nl_membership(D24, M)
    rule, s = build_local_rule(cert), sigma_L(cert.L, cert.domain)
    assert rule.n0 == 1
    # the window is S's one pair (f1, f2), and the rule keeps M^{-1} as data
    f1 = sorted(supports(s, 1)[1])
    pairs = _window(s.domain, 1)
    window = window_cells(pairs, 2)
    assert pairs == (((0, 1), (0, 2)),) and window == ((0, 0), (0, 1), (0, 2))
    assert set(window) < set(f1) and rule.m_inv * M == IntMatrix.identity(2)
    # S separates every pair of cosets of different level, judged on the
    # class table of the whole window F_1
    full = class_table(s, 1, f1)
    pairs_seen = 0
    for (_, level1, forced1), (_, level2, forced2) in product(full, repeat=2):
        if level1 < level2:
            pairs_seen += 1
            common = forced1.keys() & forced2.keys() & set(window)
            assert any(forced1[f] != forced2[f] for f in common)
    assert pairs_seen == 7
    patch = fixed_point_patch(s, min(s.alphabet), box(4))
    u = (1, 2)
    for f in window:
        hole = (u[0] + f[0], u[1] + f[1])
        with pytest.raises(MarginError):
            _truncated_level(s.domain, pairs, {p: a for p, a in patch.items() if p != hole}, u)
    # a cell of F_1 outside S is never read
    outside = {p: a for p, a in patch.items() if p != (u[0] + 1, u[1] + 1)}
    assert _truncated_level(s.domain, pairs, outside, u) == min(valuation(s, u), 1)
    assert table_level(window, class_table(s, 1, window), outside, u) == min(valuation(s, u), 1)
    tiny = fixed_point_patch(s, min(s.alphabet), [(9, 4)])
    with pytest.raises(MarginError):
        _truncated_level(s.domain, pairs, tiny, (9, 4))


def test_the_patch_route_calls_no_hnf_of_the_base_power(monkeypatch):
    # the decoder reads the level off the window: no coset of L^n0(Z^d) is
    # listed, so with its domain given the patch route calls no hnf at all,
    # where the class table called hnf(L^n0) once per evaluation
    calls = []
    real = intmat.hnf
    monkeypatch.setattr(intmat, "hnf", lambda m: calls.append(m) or real(m))
    monkeypatch.setattr(substitution, "hnf", intmat.hnf)
    L, M = parse_matrix("4,0;0,8"), parse_matrix("1,1;0,1")
    domain = fundamental_domain(L)
    assert calls == [L]
    assert composition_check(L, M, M, box(4), domain=domain)
    rule = build_local_rule(nl_membership(L, M, domain=domain))
    assert rule.n0 == 2
    s = sigma_L(L, domain)
    sources, cells = pullback_positions(rule, box(3))
    image = apply_endomorphism(rule, fixed_point_patch(s, min(s.alphabet), cells), sources)
    assert len(image) == len(box(3)) and calls == [L]


def test_the_patch_route_at_n0_3_lists_no_coset():
    # L^3(Z^2) has 2,097,152 cosets here, which a class table would list
    L, M = parse_matrix("8,0;0,16"), parse_matrix("1,1;0,1")
    assert nl_membership(L, M).n0 == 3
    tracemalloc.start()
    try:
        started = time.perf_counter()
        assert composition_check(L, M, M, box(3))
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 10_000_000, (elapsed, peak)


# ---------------------------------------------------------------------------
# the window decoder of the patch route
# ---------------------------------------------------------------------------

# the window-level (n0 = 1) pairs of the phi benchmark, and D24's shear
WINDOW_PAIRS = [
    (IntMatrix(((2 * a, 0), (0, 4 * b))), IntMatrix(((s, 3), (0, -s))))
    for a, b, s in product((1, -1), (1, -1), (1, -1))
] + [
    (IntMatrix(((4 * a, 0), (0, 2 * b))), IntMatrix(((-s, 0), (5, s))))
    for a, b, s in product((1, -1), (1, -1), (1, -1))
] + [(D24, parse_matrix("1,1;0,1"))]


def window_rule(L, M):
    """The rule of M at n0 = 1, sigma_L on its certificate's domain, the
    window's pairs, and the class table of the window's cells."""
    cert = nl_membership(L, M)
    rule, s = build_local_rule(cert), sigma_L(cert.L, cert.domain)
    assert rule.n0 == 1
    pairs = _window(s.domain, 1)
    cells = window_cells(pairs, s.dim)
    return rule, s, pairs, cells, class_table(s, 1, cells)


@pytest.mark.parametrize("L, M", WINDOW_PAIRS, ids=lambda m: str(m))
def test_memoized_decoder_reads_the_valuation(L, M):
    rule, s, pairs, cells, table = window_rule(L, M)
    patch = fixed_point_patch(s, max(s.alphabet), box(10))
    expected = {u: min(valuation(s, u), 1) if any(u) else 1 for u in box(6)}
    assert {u: _truncated_level(s.domain, pairs, patch, u) for u in box(6)} == expected
    assert {u: table_level(cells, table, patch, u) for u in box(6)} == expected
    # the decoder keeps no state: a second pass reads the same levels
    assert {u: _truncated_level(s.domain, pairs, patch, u) for u in box(6)} == expected


def test_margin_error_after_the_pattern_is_memoized():
    # a window that decoded once still raises for each missing cell
    rule, s, pairs, cells, table = window_rule(D24, parse_matrix("1,1;0,1"))
    patch = fixed_point_patch(s, (1, 1), box(8))
    u = (2, 1)
    level = _truncated_level(s.domain, pairs, patch, u)
    assert level == min(valuation(s, u), 1) == table_level(cells, table, patch, u)
    for f in cells:
        hole = (u[0] + f[0], u[1] + f[1])
        holed = {p: a for p, a in patch.items() if p != hole}
        with pytest.raises(MarginError):
            _truncated_level(s.domain, pairs, holed, u)
        with pytest.raises(MarginError):
            table_level(cells, table, holed, u)
    assert _truncated_level(s.domain, pairs, patch, u) == level


def test_doctored_window_raises_every_time():
    rule, s, pairs, cells, table = window_rule(D24, parse_matrix("1,1;0,1"))
    # one letter everywhere: the three cells of S lie in distinct cosets of
    # L(Z^2), so each coset forces at least two distinct digits on them
    flat = {p: (1, 1) for p in box(4)}
    for _ in range(2):
        with pytest.raises(WindowError, match="matches no digit coset"):
            _truncated_level(s.domain, pairs, flat, (0, 0))
        with pytest.raises(WindowError, match="matches no digit coset"):
            table_level(cells, table, flat, (0, 0))
    # a coset leaves at most one window cell free, and that cell may hold
    # anything, unhashable too: a non-letter there still decodes
    patch = fixed_point_patch(s, min(s.alphabet), box(6))
    for u in ((0, 0), (0, 2)):
        level = _truncated_level(s.domain, pairs, patch, u)
        assert level == (1 if u == (0, 0) else 0)
        free = u if level else (u[0], u[1] + 2)  # digit (0, 2) + f2 = (0, 4) is 0
        for junk in [("junk", k) for k in range(50)] + [["junk"], {}]:
            doctored = {**patch, free: junk}
            assert _truncated_level(s.domain, pairs, doctored, u) == level
            assert table_level(cells, table, doctored, u) == level
    # a junk or unhashable letter in a forced cell raises WindowError, not TypeError
    for junk in (("junk",), ["junk"], [0, 2]):
        with pytest.raises(WindowError):
            _truncated_level(s.domain, pairs, {**patch, (0, 2): junk}, (0, 2))
        with pytest.raises(WindowError):
            table_level(cells, table, {**patch, (0, 2): junk}, (0, 2))


@pytest.mark.parametrize("n0", [1, 2])
def test_cosets_of_different_level_disagree_on_a_forced_cell(n0):
    # the class table's first match has the level of every match, and the
    # decoder's first pair that reads other than (f1, f2) is that level:
    # no pattern of the window can match cosets of two different levels
    pairs = 0
    for rows in product(range(-2, 3), repeat=4):
        L = IntMatrix((rows[:2], rows[2:]))
        if abs(L.det()) < 3 or not is_expansion(L):
            continue
        s = sigma_L(L, fundamental_domain(L))
        window = window_cells(_window(s.domain, n0), 2)
        assert len(window) == 2 * n0 + 1
        table = class_table(s, n0, window)
        for (_, level1, forced1), (_, level2, forced2) in product(table, repeat=2):
            if level1 < level2:
                pairs += 1
                assert any(forced1[f] != forced2[f] for f in forced1.keys() & forced2.keys())
    assert pairs


def test_regions_of_lists_evaluate_like_tuples():
    rule, s = window_rule(D24, parse_matrix("1,1;0,1"))[:2]
    region = box(3)
    as_lists = [list(t) for t in region]
    sources, cells = pullback_positions(rule, region)
    assert pullback_positions(rule, as_lists) == (sources, cells)
    seed = min(s.alphabet)
    patch = fixed_point_patch(s, seed, cells)
    assert fixed_point_patch(s, seed, [list(u) for u in cells]) == patch
    image = apply_endomorphism(rule, patch, sources)
    assert evaluate(rule, patch, as_lists) == image
    assert len(image) == len(region)



# int() would truncate (1.9, 0.7) to (1, 0) and answer for that cell
NON_INTEGER_POSITIONS = {
    "fixed_point_patch": lambda hh, rule, patch: fixed_point_patch(hh, (1, 0), [(1.9, 0.7)]),
    "apply_endomorphism": lambda hh, rule, patch: evaluate(rule, patch, [(1.0, 0)]),
    "pullback_positions": lambda hh, rule, patch: pullback_positions(rule, [(1, "0")]),
    "composition_check": lambda hh, rule, patch: composition_check(
        TWO, SWAP, SWAP, [(0.5, 0)], domain=HH_DOMAIN
    ),
    "fiber_points": lambda hh, rule, patch: fiber_points(hh, (1.5, 0), 3),
    "kappa_embed": lambda hh, rule, patch: kappa_embed((1.5, 0), ConstantBase(TWO), 3),
}


@pytest.mark.parametrize("name", NON_INTEGER_POSITIONS)
def test_positions_must_be_exact_integers(name):
    hh = half_hex()
    rule = build_local_rule(nl_membership(TWO, SWAP, domain=HH_DOMAIN))
    patch = fixed_point_patch(hh, (1, 0), box(3))
    with pytest.raises(TypeError):
        NON_INTEGER_POSITIONS[name](hh, rule, patch)


@st.composite
def walk_pairs(draw):
    """(L, M): an expansion L in d = 1, 2 or 3, with entries in [-4, 4] or a
    multiple of Id plus a strictly upper part, and M a product of signed
    elementary and permutation steps, so unimodular."""
    d = draw(st.sampled_from((1, 2, 3)))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        L = [[draw(entry) for _ in range(d)] for _ in range(d)]
    else:
        k = draw(st.sampled_from((-4, -3, -2, 2, 3, 4)))
        L = [[k if i == j else draw(entry) if i < j else 0 for j in range(d)] for i in range(d)]
    L = IntMatrix(L)
    assume(is_expansion(L))
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        elif draw(st.booleans()):
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return L, IntMatrix(rows)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(walk_pairs())
def test_a_conjugate_is_integral_iff_the_nc_witness_is_at_most_its_level(pair):
    # C_n = L^-n M L^n is integral iff depth n's least witness m, with
    # L^-n M L^m integral, is at most n: integrality holds for every m past it
    L, M = pair
    conjugates = [*islice(_conjugates(L, M), 9)]
    certs = nc_bounded_check(L, M, 8)
    for n in range(1, 9):
        m = certs[n - 1].m
        assert (conjugates[n] is not None) == (m is not None and m <= n), (L, M, n, m)
