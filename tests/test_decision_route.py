"""The odometer decision route: is_member and the NC depth walk.

The route's answers are pinned by a digest over a seeded sweep, recorded
before the route moved onto row tuples; the sweep draws with this file's
own generators, so an edit to the shared ones cannot move the digest.  The
route itself is checked to build no IntMatrix between the call and the
answer.
"""

import hashlib
import json
import random
from collections import Counter

from tests_shared import count_matrix_builds

from odosym import subshift_norm
from odosym.classify2d import MembershipVerdict, is_member
from odosym.cli import main
from odosym.intmat import IntMatrix, is_expansion
from odosym.odometer import nc_bounded_check


def _square(rng, d, lo, hi):
    return IntMatrix(tuple(tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(d)))


def _expansive(rng, d, bound):
    while True:
        m = _square(rng, d, -bound, bound)
        if m.det() and is_expansion(m):
            return m


def _unimodular_2d(rng):
    while True:
        m = _square(rng, 2, -3, 3)
        if m.det() in (1, -1):
            return m


def _unimodular_steps(rng, d):
    """A product of elementary matrices, negated a row at a time: det +1 or -1."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(5):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[j] = [-a for a in rows[j]]
    return IntMatrix(rows)


def _certs(L, M, depth):
    return tuple((c.n, c.m, c.bound) for c in nc_bounded_check(L, M, depth))


def test_route_answers_match_their_pinned_digest():
    rng = random.Random(43)
    out, reasons, walks = [], Counter(), Counter()
    for _ in range(3000):
        L, M = _expansive(rng, 2, 6), _unimodular_2d(rng)
        v = is_member(L, M)
        certs = _certs(L, M, rng.randint(1, 8))
        reasons[v.reason] += 1
        walks[2, certs[-1][1] is None] += 1
        out.append((L.rows, M.rows, v.member, v.reason, v.witness, certs))
    for _ in range(300):  # d = 3: the adjugate takes the Faddeev-LeVerrier route
        L, M = _expansive(rng, 3, 3), _unimodular_steps(rng, 3)
        certs = _certs(L, M, rng.randint(1, 8))
        walks[3, certs[-1][1] is None] += 1
        out.append((L.rows, M.rows, certs))
    assert min(reasons[r] for r in ("full-gl2", "centralizer-commutes", "unit-eigenlines")) >= 50
    assert min(walks[d, absent] for d in (2, 3) for absent in (False, True)) >= 10, walks
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    # recorded before the route moved onto row tuples
    assert digest == "afab73532301240854d6ca352b2aab2e902f01b05f0b9c8f0c61fde6aacc7c77", digest


def test_route_builds_no_matrix_after_the_call(monkeypatch):
    # one base per reason, with its unit lines warm; 3,1;0,5 has the commuting
    # involution 1,-1;0,-1 and the shear is not in its group, so the walk of the
    # shear ends Absent and the walk of the involution passes
    cases = [
        (IntMatrix(((2, 0), (0, 2))), "full-gl2"),
        (IntMatrix(((2, -1), (1, 5))), "centralizer-commutes"),
        (IntMatrix(((3, 1), (0, 5))), "unit-eigenlines"),
    ]
    shear, flip = IntMatrix(((1, 1), (0, 1))), IntMatrix(((1, -1), (0, -1)))
    for L, _ in cases:
        is_member(L, shear)
    built = count_matrix_builds(monkeypatch)
    for L, reason in cases:
        for M in (shear, flip):
            assert is_member(L, M).reason == reason
            assert built == [], (L.rows, M.rows, built)
    L = cases[2][0]
    assert nc_bounded_check(L, shear, 6)[-1].m is None
    assert built == []
    assert all(c.present for c in nc_bounded_check(L, flip, 6))
    assert built == []


def test_the_nc_walk_at_nmax_cannot_stand_in_for_is_member_in_d_2(monkeypatch, capsys):
    # 1,256;0,1 moves (0, 1), an eigenline that every member of 2,0;0,3's group
    # fixes, so it is no member and nl rejects it exactly.  Its NC walk passes
    # through depth 8 = nmax, as L^-n M L^m is integral from m = n on while 2^n
    # divides 256, so "Absent by depth nmax" does not see it; and without
    # is_member the conjugate walk calls it residue-unstable only.  A 2-D route
    # through the NC walk alone would lose this exact rejection
    nl = ["nl", "--L", "2,0;0,3", "--M", "1,256;0,1"]
    assert main(nl) == 3
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["reason"] == "not-odometer-member"
    assert result["detail"] == "is_member: unit-eigenlines, witness [0, -256]"
    assert main(["nc", "--base", "2,0;0,3", "--matrix", "1,256;0,1", "--depth", "8"]) == 0
    certs = json.loads(capsys.readouterr().out)["result"]["certificates"]
    assert [(c["n"], c["m"]) for c in certs] == [(n, n) for n in range(1, 9)]
    member = MembershipVerdict(True, "full-gl2")
    monkeypatch.setattr(subshift_norm, "is_member", lambda L, M: member)
    assert main(nl) == 4
    assert json.loads(capsys.readouterr().out)["result"]["reason"] == "residue-unstable"
