"""Symmetry group of the self-similar subshift: membership, local rules.

A unimodular M acts on the subshift when the conjugates C_n = L^{-n} M L^n
are eventually integral unimodular and their action on the nonzero digit
cosets is eventually constant.  Both conditions are verified up to an
explicit bound recorded in the certificate; acceptance is bounded
verification, not a proof for all n.  In d = 2 a rejected M outside the
odometer's group (is_member) is rejected exactly.

The sliding-block realization applies, at each position, the coset
permutation of its truncated digit level: on the fixed point the truncated
valuation, read level by level along the box's rows (phi's route); on any
other patch the level read straight off the window pattern (so shifted
patches evaluate correctly), which only this patch route decodes.  phi's
rule maps each letter straight to its report text (build_local_rule's text).
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import cycle, islice
from operator import add, index

from .classify2d import is_member
from .errors import DomainValidationError, MarginError, MissingCertificateError, SizeGuardError
from .errors import WindowError
from .intmat import (
    FundamentalDomain,
    IntMatrix,
    Vec,
    _Record,
    _apply,
    _digit_guard,
    _inv_unimodular,
    _require_expansion,
    _require_product,
    _rows_mul,
    format_matrix,
    fundamental_domain,
    vec_add,
)
from .substitution import _as_letter, _require_two_letters, _strip_base

# ---------------------------------------------------------------------------
# conjugate powers and certificates
# ---------------------------------------------------------------------------


def _conjugates(L: IntMatrix, M: IntMatrix):
    """C_n = L^{-n} M L^n for n = 0, 1, ..., or None where not integral, L and M of one size:
    C_n on row tuples, or over a run of non-integral levels a numerator N over det(L)^j, whose
    next is adj(L) (N L) over det(L)^{j+1}.  L N' = det(L) N L, asserted each step, certifies
    every level by induction from N_0 = M.  Once C_j equals an earlier C_i, levels i..j-1
    repeat without end, and their objects are yielded again.  Only a new C_n is an IntMatrix."""
    (det, adj), l, m = L._inverse, L.rows, M.rows
    num, scale, levels, first = m, 1, [], {}
    while True:
        c = None
        if scale == 1 or not any([x % scale for r in num for x in r]):
            if scale != 1:  # an integral level ends the run: carry C_n, over 1
                num, scale = tuple([tuple([x // scale for x in r]) for r in num]), 1
            if num in first:
                yield from cycle(levels[first[num] :])
            first[num] = len(levels)
            c = M if num is m else IntMatrix(num)
        levels.append(c)
        yield c
        num, scale = _rows_mul(adj, step := _rows_mul(num, l)), scale * det
        assert _rows_mul(l, num) == tuple([tuple([det * x for x in r]) for r in step])


class NLCertificate(_Record):
    """Bounded evidence that M acts on the subshift of base L.

    conjugates[n] is C_n or None; k is the first level from which every
    recorded conjugate is integral, n0 the first level from which the
    digit-coset action is constant through n_max.  residue_permutation
    maps nonzero digits of domain, which the local rule also reads, to
    nonzero digits: it is actions[n0].
    """

    L: IntMatrix
    M: IntMatrix
    n_max: int
    conjugates: tuple[IntMatrix | None, ...]
    k: int
    n0: int
    residue_permutation: tuple[tuple[Vec, Vec], ...]
    domain: FundamentalDomain

    @cached_property
    def actions(self) -> tuple[tuple[tuple[Vec, Vec], ...] | None, ...]:
        """actions[n], C_n's _residue_action (None below k), read by the local rule;
        no field, as conjugates and domain give them: nl_membership hands over its own."""
        return _level_actions(self.conjugates, self.k, self.domain)

    def to_payload(self) -> dict:
        # a walk that repeats yields its levels' objects again, and C_0 is M: each
        # object is formatted once
        matrices = (self.L, self.M, *self.conjugates)
        digit, distinct = self.domain.texts, {id(c): c for c in matrices if c is not None}
        try:
            text = {key: format_matrix(c) for key, c in distinct.items()}
        except ValueError:  # an entry over the interpreter's int-to-str limit
            top = max(c.max_abs() for c in self.conjugates if c is not None)
            name = f"the certificate of M = {self.M} on L = {self.L} through nmax {self.n_max}"
            _digit_guard(top, sys.get_int_max_str_digits(), lambda: name)
            raise
        return {
            "accepted": True,
            "L": text[id(self.L)],
            "M": text[id(self.M)],
            "n_max": self.n_max,
            "k": self.k,
            "n0": self.n0,
            "conjugates": [None if c is None else text[id(c)] for c in self.conjugates],
            "residue_permutation": [[digit[a], digit[b]] for a, b in self.residue_permutation],
        }


class NLRejection(_Record):
    """Why bounded verification failed: the two failure shapes differ."""

    L: IntMatrix
    M: IntMatrix
    n_max: int
    reason: str  # "non-integral-conjugate", "residue-unstable" or "not-odometer-member"
    detail: str

    def to_payload(self) -> dict:
        return {
            "accepted": False,
            "L": format_matrix(self.L),
            "M": format_matrix(self.M),
            "n_max": self.n_max,
            "reason": self.reason,
            "detail": self.detail,
        }


def _residue_action(c: IntMatrix, domain: FundamentalDomain) -> tuple[tuple[Vec, Vec], ...]:
    """The sorted pairs (f, digit of c f) over the nonzero digits f of domain.  In d = 2
    c f's Hermite key is formed in line, as the row pass forms u's (_fixed_point_image):
    with c = (a, b; c0, d), HNF rows ((h00, 0), (h10, h11)) and x = a f0 + b f1, it is
    (x mod h00, (c0 f0 + d f1 - (x div h00) h10) mod h11), F's digit by _rep_of_key."""
    if len(c.rows) != 2:
        return tuple(sorted((f, domain.digit_of(c.mul_vec(f))) for f in domain.reps if any(f)))
    ((a, b), (c0, d)), ((h00, _), (h10, h11)) = c.rows, domain.hnf_basis.matrix.rows
    rep = domain._rep_of_key
    return tuple(sorted([
        (f, rep[(x := a * f0 + b * f1) % h00, (c0 * f0 + d * f1 - x // h00 * h10) % h11])
        for f in domain.reps for f0, f1 in [f] if f0 or f1
    ]))


def _level_actions(conj: tuple, k: int, domain: FundamentalDomain) -> tuple:
    """Each level's _residue_action, None below k.  C f mod L(Z^d) depends only
    on C mod |det|, the domain's number of digits, as |det| Z^d lies in L(Z^d): one
    action per residue class of conjugates, read once per distinct object, and equal
    actions are one object, so levels compare by id."""
    det, by_class, interned, by_id = len(domain.reps), {}, {}, {}
    for c in conj[k:]:
        if id(c) not in by_id:
            key = tuple([x % det for row in c.rows for x in row])
            if (action := by_class.get(key)) is None:
                action = _residue_action(c, domain)
                action = by_class[key] = interned.setdefault(action, action)
            by_id[id(c)] = action
    return (None,) * k + tuple([by_id[id(c)] for c in conj[k:]])


# The report grows as nmax^2 where C_n grows: a shear on 2,0;0,4 (C_n holds 2^n)
# wrote 160 kB in 0.014 s at nmax 1,000 and 9.7 MB in 0.45 s at 8,000 (2-core Xeon).
_NMAX_LIMIT = 1000
_EXACT_REJECTION = "not-odometer-member"  # the one rejection that is a proof (_rejection)


def nl_membership(
    L: IntMatrix,
    M: IntMatrix,
    n_max: int = 8,
    domain: FundamentalDomain | None = None,
) -> NLCertificate | NLRejection:
    """Bounded verification of the two defining conditions.

    Accepts iff the conjugates C_k..C_{n_max} are all integral unimodular
    for some k <= n_max/2 and the digit-coset action stabilizes at some
    n0 <= n_max - 2 and stays constant through n_max.  An n_max over 1,000
    raises SizeGuardError, and a domain of another base DomainValidationError,
    before any conjugate is computed; the walk reads the domain's base.
    """
    if M.det() not in (1, -1):
        raise ValueError(f"matrix must be unimodular, det = {M.det()}")
    _require_expansion(L)
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    if n_max > _NMAX_LIMIT:
        raise SizeGuardError(f"nmax {n_max}, over the limit of {_NMAX_LIMIT}")
    _require_product(L, M)  # before F is built, which costs |det|
    if domain is None:
        domain = fundamental_domain(L)
    if domain.base.rows != L.rows:
        raise DomainValidationError(f"F is a domain of base {domain.base}, not of L = {L}")
    conj = tuple(islice(_conjugates(domain.base, M), n_max + 1))
    # k: the first level from which every conjugate is integral (n_max + 1: none)
    k = max((n + 1 for n, c in enumerate(conj) if c is None), default=0)
    if k > n_max // 2:
        first_bad = next(n for n, c in enumerate(conj) if c is None)
        tail = "" if k > n_max else f"; integral tail only from level {k}"
        detail = f"conjugate at level {first_bad} is not integral{tail}"
        return _rejection(L, M, n_max, "non-integral-conjugate", detail)
    actions = _level_actions(conj, k, domain)
    n0 = n_max
    while n0 > k and actions[n0 - 1] is actions[-1]:
        n0 -= 1
    if n0 > n_max - 2:
        detail = f"digit action not constant on any window [n0, {n_max}] with n0 <= {n_max - 2}"
        return _rejection(L, M, n_max, "residue-unstable", detail)
    # n0 <= n_max - 2, so C_{n0} L = L C_{n0+1} with both integral
    # unimodular: C_{n0} maps L(Z^d) onto itself and so permutes the
    # nonzero digit cosets
    cert = NLCertificate(L, M, n_max, conj, k, n0, actions[n0], domain)  # in field order
    vars(cert)["actions"] = actions  # the property's cache: the rule walks no digit again
    return cert


def _rejection(L: IntMatrix, M: IntMatrix, n_max: int, reason: str, detail: str):
    """The walk's rejection, exact in d = 2 when M is not in the odometer's group:
    an M that acts has C_n integral from some k on, so m = n passes the normalizer
    condition at every depth n >= k, and at every smaller one: M is a member."""
    if L.dim == 2 and not (verdict := is_member(L, M)).member:
        reason = _EXACT_REJECTION
        detail = f"is_member: {verdict.reason}, witness {list(verdict.witness)}"
    return NLRejection(L, M, n_max, reason, detail)


# ---------------------------------------------------------------------------
# local rules
# ---------------------------------------------------------------------------


class LocalRule(_Record):
    """Sliding-block realization of the action of M on sigma_L's subshift.

    per_level[v] is the permutation of sigma_L's letters, the nonzero digits
    of domain, used at truncated level v: on the fixed point the valuation
    truncated at n0 decides v, and on any other patch the window pattern
    does (see _truncated_level).  Positions deeper than n0 (the origin of a
    fixed point too) use the stabilized permutation.  m_inv is M^{-1},
    which pulls an output position back to its source.
    """

    domain: FundamentalDomain
    m_inv: IntMatrix
    n0: int
    per_level: tuple[dict, ...]


def build_local_rule(cert: NLCertificate, text: dict | None = None) -> LocalRule:
    """The per-level permutations, the certificate's actions[v]: no window is
    read and no sigma_L built.  M L^v a = L^v C_v a, and C_v maps L(Z^d) onto
    itself, so sigma_L's letter there, tau(C_v a), is the digit of C_v a.  A
    certificate with k > 0 has no conjugate at level k - 1 < n0, and is refused.
    With text (phi's), each letter goes straight to its image's text."""
    _require_two_letters(cert.L)
    if cert.k:
        first = cert.conjugates.index(None)
        raise MissingCertificateError(f"no integral conjugate at level {first}")
    acts = cert.actions[: cert.n0 + 1]
    per_level = [{a: text[b] for a, b in act} for act in acts] if text else map(dict, acts)
    return LocalRule(cert.domain, _inv_unimodular(cert.M), cert.n0, tuple(per_level))


def _window(domain: FundamentalDomain, n0: int) -> tuple[tuple[Vec, ...], ...]:
    """The pairs (L^v f1, L^v f2), v < n0, f1 and f2 the two least nonzero digits:
    with the origin, the window S of 2 n0 + 1 cells that decides the truncated level."""
    pairs = [tuple(sorted(f for f in domain.reps if any(f))[:2])] if n0 else []
    while len(pairs) < n0:
        pairs.append(tuple(map(domain.base.mul_vec, pairs[-1])))
    return tuple(pairs)


def _truncated_level(domain: FundamentalDomain, window: tuple, patch: dict, pos: Vec) -> int:
    """Truncated digit level of the pattern of the window at pos: the first v
    whose pair reads other than (f1, f2), or n0 = len(window) if none.

    A coset c = L^v w of L^{n0}(Z^d), v < n0 and w of digit d != 0, writes f at
    L^j f for j < v, digit(d + f) at L^v f, and d at 0 and at L^j f for j > v;
    where digit(d + f) is 0 the cell is free, as such cosets write any letter
    there or none.  d + f1 and d + f2 are not both 0, so c's pair at v reads
    other than (f1, f2).  The patterns that pass are exactly those some coset
    writes on the window; d is tested by equality, so it need not hash.
    """
    at = patch.get
    d, rows = at(pos), [tuple(at(tuple(map(add, pos, f))) for f in pair) for pair in window]
    if d is None or any(None in row for row in rows):
        raise MarginError(f"window at {pos} leaves the patch support")
    v = next((j for j, row in enumerate(rows) if row != window[0]), len(window))
    if v == len(window):
        return v
    if d in domain.reps and any(d):  # d is a letter: sigma_L's are the nonzero digits
        digits = [domain.digit_of(vec_add(d, f)) for f in window[0]]
        deeper = all(a == d for row in rows[v + 1 :] for a in row)
        if deeper and all(a == g or not any(g) for a, g in zip(rows[v], digits)):
            return v
    raise WindowError(f"window pattern at {pos} matches no digit coset")


def _fixed_point_image(rule: LocalRule, seed: Vec, runs) -> list[Vec]:
    """The letters of the rule's image of the fixed point seeded by seed on the
    cells t, t + e_d, ... of runs (first cell t, length >= 1), as box_rows gives a box's
    rows, in run order.  No window is read: with u = M^{-1} t = L^p w, w not in
    L(Z^d), the letter at t is w's digit at level min(p, n0) (as _truncated_level
    decodes it), and the origin holds the seed at n0.  A run is read level by level:
    level l holds n cells, at + i stride, whose u step by s_l (s_0 = M^{-1} e_d), and
    one period of their keys, P_l | det L long (or n), gives their letters in one
    slice.  Its class j of key 0 is level l + 1: u = L^{-1} u_j, s_{l+1} = L^{-1} P_l
    s_l, stride P_l.  s_l depends on no run, and letters, j and P_l only on (l, first
    key, n): each is formed once per call.  One cell walks its descent."""
    domain, n0, per_level, m_inv = rule.domain, rule.n0, rule.per_level, rule.m_inv.rows
    origin, rep_of_key = per_level[n0][_as_letter(seed, per_level[n0])], domain._rep_of_key
    out, end, steps, table = [None] * sum(n for _, n in runs), 0, [tuple(zip(*m_inv))[-1]], {}
    if len(m_inv) == 2:  # in line: u's Hermite key (k0, k1) as k0 h11 + k1, and adj(L) u / det(L)
        ((a, b), (c, d)), ((h00, _), (h10, h11)) = m_inv, domain.hnf_basis.matrix.rows
        det, ((e, f), (g, h)) = domain.base._inverse
        digits = [rep_of_key[k // h11, k % h11] for k in range(h00 * h11)]
        flat = [[lv.get(w) for w in digits] for lv in per_level]  # [level][key]: the image letter
        for (t0, t1), n in runs:
            x, y, at, end, stride, l = a * t0 + b * t1, c * t0 + d * t1, end, end + n, 1, 0
            while n > 1:
                if l == len(steps):  # from level l - 1, whose p is P_{l-1} as n > 1
                    steps.append(((e * sx + f * sy) * p // det, (g * sx + h * sy) * p // det))
                sx, sy = steps[l]
                k = x % h00 * h11 + (y - x // h00 * h10) % h11
                if (hit := table.get((l, k, n))) is None:
                    keys, kx, ky = [k], x + sx, y + sy
                    while len(keys) < n:
                        if (q := kx % h00 * h11 + (ky - kx // h00 * h10) % h11) == k:
                            break
                        keys.append(q)
                        kx, ky = kx + sx, ky + sy
                    row = [*map(flat[min(l, n0)].__getitem__, keys)] * (n // len(keys) + 1)
                    hit = table[l, k, n] = row[:n], keys.index(0) if 0 in keys else -1, len(keys)
                out[at : at + stride * n : stride], j, p = hit
                if j < 0:
                    break
                x, y = x + j * sx, y + j * sy
                x, y, at = (e * x + f * y) // det, (g * x + h * y) // det, at + j * stride
                n, stride, l = (n - j - 1) // p + 1, stride * p, l + 1
            else:  # one cell
                while not (k := x % h00 * h11 + (y - x // h00 * h10) % h11) and (x or y):
                    x, y, l = (e * x + f * y) // det, (g * x + h * y) // det, l + 1
                out[at] = flat[min(l, n0)][k] if x or y else origin
        return out
    reduce, solve, zero = domain.hnf_basis.reduce_vec, domain.base.solve_exact, (0,) * len(m_inv)
    for t, n in runs:
        u, at, end, stride, l = _apply(m_inv, t), end, end + n, 1, 0
        while n > 1:
            if l == len(steps):  # from level l - 1, whose p is P_{l-1} as n > 1
                steps.append(solve([p * x for x in s]))
            s = steps[l]
            if (hit := table.get((l, k := reduce(u), n))) is None:
                keys, v = [k], tuple(map(add, k, s))
                while len(keys) < n and (q := reduce(v)) != k:
                    keys.append(q)
                    v = tuple(map(add, q, s))
                row = [per_level[min(l, n0)].get(rep_of_key[q]) for q in keys]
                row *= n // len(keys) + 1
                hit = table[l, k, n] = row[:n], keys.index(zero) if zero in keys else -1, len(keys)
            out[at : at + stride * n : stride], j, p = hit
            if j < 0:
                break
            u, at = solve([x + j * y for x, y in zip(u, s)]), at + j * stride
            n, stride, l = (n - j - 1) // p + 1, stride * p, l + 1
        else:  # one cell
            p, key = _strip_base(domain, u, "tau") if any(u) else (n0, None)
            out[at] = per_level[min(l + p, n0)][rep_of_key[key]] if any(u) else origin
    return out


def pullback_positions(rule: LocalRule, region) -> tuple[dict[Vec, Vec], set]:
    """(sources, cells) for evaluating the rule on a patch that is not the
    fixed point (_fixed_point_image reads that one with no patch).

    sources maps each position t of the region to u = M^{-1} t, computed
    once per position; cells holds the decoder's window (2 n0 + 1 cells)
    around every source, the positions a patch must cover.
    """
    m_inv = rule.m_inv.rows
    sources = {t: _apply(m_inv, t) for t in (tuple(map(index, t)) for t in region)}
    cells = set(sources.values())
    for pair in _window(rule.domain, rule.n0):
        cells.update(tuple(map(add, u, f)) for f in pair for u in sources.values())
    return sources, cells


def apply_endomorphism(
    rule: LocalRule, patch: dict[Vec, Vec], sources: dict[Vec, Vec]
) -> dict[Vec, Vec]:
    """Evaluate the rule on a patch, at every position of a pulled-back region.

    sources maps each output position t to its source u = M^{-1} t, as
    pullback_positions returns it: the truncated level of the window at u
    picks the permutation applied to the letter at u.  A position whose
    source or window leaves the patch raises a margin error.  On the fixed
    point, _fixed_point_image gives the same image with no patch.
    """
    domain, levels = rule.domain, rule.per_level
    window = _window(domain, rule.n0)  # the decoder reads u too, so patch[u] is there
    return {
        t: levels[_truncated_level(domain, window, patch, u)][patch[u]] for t, u in sources.items()
    }


def composition_check(
    L: IntMatrix,
    M1: IntMatrix,
    M2: IntMatrix,
    region,
    domain: FundamentalDomain | None = None,
) -> bool:
    """The rule of M1 M2 equals rule(M1) after rule(M2) on the region.

    rule(M1 M2) and rule(M2) read the fixed point seeded by the least letter
    in one pass each, on their scattered cells as runs of one; rule(M1)
    reads rule(M2)'s image as a patch.
    """
    certs = [nl_membership(L, m, domain=domain) for m in (M1 * M2, M1, M2)]
    for c in certs:
        if isinstance(c, NLRejection):
            raise ValueError(f"matrix not accepted: {c.to_payload()}")
    rule12, rule1, rule2 = map(build_local_rule, certs)
    seed = min(rule12.per_level[0])
    region = [tuple(map(index, t)) for t in region]
    lhs = dict(zip(region, _fixed_point_image(rule12, seed, [(t, 1) for t in region])))
    sources1, mid = pullback_positions(rule1, lhs)
    mid = list(mid)
    inner = dict(zip(mid, _fixed_point_image(rule2, seed, [(t, 1) for t in mid])))
    return lhs == apply_endomorphism(rule1, inner, sources1)
