"""Request generators and answer checks for the four benchmark workloads.

Every generator is a pure function of the seed: the same seed gives the
same request stream, and a longer stream extends a shorter one (the
warm-up requests are the stream's first entries, the measured ones the
next).  Inputs are drawn without replacement, so no request repeats an
input unless sharing a base is the point of the workload.

The answer checks use only the plain integer arithmetic in this file and
read only the verdict fields of an answer (witness exponents, branch
tags, automorphs, patch cells), never certificate bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product
from math import isqrt
from typing import NamedTuple

Mat = tuple[tuple[int, int], tuple[int, int]]


class Request(NamedTuple):
    """One request: its base, its matrix and, for CLI workloads, the argv."""

    base: Mat
    matrix: Mat | None
    argv: tuple[str, ...] | None
    group: str  # stratum the input was drawn from


# ---------------------------------------------------------------------------
# plain 2x2 integer arithmetic, independent of the package under test
# ---------------------------------------------------------------------------


def det(a: Mat) -> int:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def trace(a: Mat) -> int:
    return a[0][0] + a[1][1]


def mul(a: Mat, b: Mat, mod: int = 0) -> Mat:
    rows = tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )
    if mod:
        rows = tuple(tuple(x % mod for x in r) for r in rows)
    return rows


def adj(a: Mat) -> Mat:
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def power(a: Mat, e: int, mod: int = 0) -> Mat:
    acc: Mat = ((1, 0), (0, 1))
    while e:
        if e & 1:
            acc = mul(acc, a, mod)
        a = mul(a, a, mod)
        e >>= 1
    return acc


def is_expansion(a: Mat) -> bool:
    """Both eigenvalues of modulus > 1, by the sign analysis of x^2 - t x + d."""
    t, d = trace(a), det(a)
    if t * t - 4 * d < 0:
        return d > 1
    at_one, at_minus_one = 1 - t + d, 1 + t + d
    if at_one == 0 or at_minus_one == 0:
        return False
    if at_one < 0 and at_minus_one < 0:
        return True
    return at_one > 0 and at_minus_one > 0 and abs(t) > 2


def radical(n: int) -> int:
    n, r, p = abs(n), 1, 2
    while p * p <= n:
        if n % p == 0:
            r *= p
            while n % p == 0:
                n //= p
        p += 1
    return r * n if n > 1 else r


def fmt(a: Mat) -> str:
    return f"{a[0][0]},{a[0][1]};{a[1][0]},{a[1][1]}"


def parse(text: str) -> Mat:
    (a, b), (c, d) = (tuple(int(x) for x in row.split(",")) for row in text.split(";"))
    return ((a, b), (c, d))


def nc_holds(L: Mat, M: Mat, n: int, m: int) -> bool:
    """adj(L^n) M L^m == 0 (mod det L^n): the depth-n normalizer condition at m."""
    mod = abs(det(L)) ** n
    lhs = mul(mul(adj(power(L, n)), M, mod), power(L, m, mod), mod)
    return all(x == 0 for row in lhs for x in row)


def nc_bound(L: Mat, n: int) -> int:
    """m* = d n bitlen|det L|: from here on the condition is stationary."""
    return 2 * n * abs(det(L)).bit_length()


def _matrices(lo: int, hi: int):
    for a, b, c, d in product(range(lo, hi + 1), repeat=4):
        yield ((a, b), (c, d))


UNIMODULAR_3 = [m for m in _matrices(-3, 3) if det(m) in (1, -1)]
UNIMODULAR_4 = [m for m in _matrices(-4, 4) if det(m) in (1, -1)]


def _strata(pools: dict, count: int, rng: random.Random):
    """Draw `count` items, stratified by pool in proportion to pool size.

    Each pool is shuffled once and consumed in order; the next stratum is
    the one furthest behind its share, so every prefix of the stream has
    the population's mix and draws no item twice.
    """
    keys = sorted(pools)
    total = sum(len(pools[k]) for k in keys)
    order = [rng.sample(pools[k], len(pools[k])) for k in keys]
    used = [0] * len(keys)
    for i in range(count):
        j = max(range(len(keys)), key=lambda j: (len(order[j]) * (i + 1) / total - used[j], -j))
        if used[j] == len(order[j]):
            raise ValueError(f"stratum {keys[j]} exhausted after {used[j]} draws")
        yield keys[j], order[j][used[j]]
        used[j] += 1


def _by_cycle(mats) -> dict:
    """Group bases by (det, trace), which fix the power cycles of the NC search."""
    pools: dict = {}
    for m in mats:
        pools.setdefault((det(m), trace(m)), []).append(m)
    return pools


def answer_line(code, answer) -> str:
    return json.dumps([code, answer], sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """A request stream, how to answer one request, and how to check it."""

    name: str
    cli = True  # requests go through odosym.cli.main
    warmup: int  # requests run before measuring
    block: int  # requests per traced pass
    calibrate_every = 1  # requests between two machine-speed calibrations
    rate: float  # requests per second at the commit that defined the benchmark
    digests: str | None = None  # file of recorded patch digests for the default seed
    answerable = True  # every input has an answer, so a failed request is a wrong one

    def requests(self, seed: int, count: int) -> list[Request]:
        raise NotImplementedError

    def properties(self, reqs: list[Request], codes: dict, failed: int) -> dict:
        """Shares of workload-specific input properties among `reqs`."""
        return {}

    def check(self, req: Request, code: int, answer) -> str | None:
        """None if the answer is right, else what is wrong with it."""
        raise NotImplementedError


class NcCold(Workload):
    """`odosym nc --depth 5` on a fresh expansion base per request."""

    name = "nc-cold"
    warmup = 20
    block = 9
    rate = 100.0
    depth = 5
    BASES = _by_cycle(
        m for m in _matrices(-6, 6) if 2 <= abs(det(m)) <= 10 and is_expansion(m)
    )

    def requests(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for key, base in _strata(self.BASES, count, rng):
            m = rng.choice(UNIMODULAR_3)
            argv = ("nc", "--base", fmt(base), "--matrix", fmt(m), "--depth", str(self.depth))
            out.append(Request(base, m, argv, "det %d trace %d" % key))
        return out

    def check(self, req, code, answer):
        certs = answer["certificates"]
        if [c["n"] for c in certs] != list(range(1, self.depth + 1)):
            return f"certificates do not cover depths 1..{self.depth}"
        for c in certs:
            n, m = c["n"], c["m"]
            if m is None:
                if nc_holds(req.base, req.matrix, n, nc_bound(req.base, n)):
                    return f"depth {n}: Absent, but the condition holds at m*"
            elif not nc_holds(req.base, req.matrix, n, m):
                return f"depth {n}: witness {m} fails the condition"
            elif m > 0 and nc_holds(req.base, req.matrix, n, m - 1):
                return f"depth {n}: witness {m} is not the least"
        passes = all(c["m"] is not None for c in certs)
        if answer["passes"] != passes or code != (0 if passes else 3):
            return f"passes={answer['passes']} with exit {code} disagrees with the certificates"
        return None

    def properties(self, reqs, codes, failed):
        # exit 0 means every depth has a witness; the check ties it to the certificates
        return {"nc_present_share": codes.get(0, 0) / max(1, sum(codes.values()))}


class OracleSweep(Workload):
    """Library cross-validation: is_member plus nc_bounded_check at depth 4."""

    name = "oracle-sweep"
    cli = False
    warmup = 120
    block = 60
    calibrate_every = 10  # a calibration costs about two requests
    rate = 1850.0
    depth = 4
    BASES = _by_cycle(
        m for m in _matrices(-4, 4) if 2 <= abs(det(m)) <= 12 and is_expansion(m)
    )

    def requests(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        blocks = -(-count // self.block)
        out = []
        for key, base in _strata(self.BASES, blocks, rng):
            for m in rng.sample(UNIMODULAR_3, self.block):
                out.append(Request(base, m, None, "det %d trace %d" % key))
        return out[:count]

    def check(self, req, code, answer):
        member, _reason, witnesses = answer
        if member and any(m is None for _n, m in witnesses):
            return "member, but the NC oracle rejects it at depth 4"
        return None


class ClassifyCold(Workload):
    """`odosym classify` on a fresh large base with real irrational spectrum."""

    name = "classify-cold"
    answerable = False  # some bases raise PellDomainError today
    warmup = 20
    block = 10
    rate = 160.0
    entries = 600

    def requests(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        seen, out = set(), []
        while len(out) < count:
            a, b, c, d = (rng.randint(-self.entries, self.entries) for _ in range(4))
            base = ((a, b), (c, d))
            disc = trace(base) ** 2 - 4 * det(base)
            if base in seen or disc <= 0 or isqrt(disc) ** 2 == disc:
                continue
            if not is_expansion(base):
                continue
            seen.add(base)
            group = "pell" if self.pell(base) else "full-gl2"
            out.append(Request(base, None, ("classify", "--matrix", fmt(base)), group))
        return out

    def properties(self, reqs, codes, failed):
        return {
            "pell_share": sum(r.group == "pell" for r in reqs) / len(reqs),
            "failure_share": failed / len(reqs),
        }

    @staticmethod
    def pell(base: Mat) -> bool:
        """True when the base takes the real-irrational (Pell) branch."""
        return trace(base) % radical(det(base)) != 0

    def check(self, req, code, answer):
        want = "centralizer-infinite" if self.pell(req.base) else "full-gl2"
        if answer["branch"] != want:
            return f"branch {answer['branch']}, expected {want}"
        if want == "full-gl2":
            return None
        a = parse(answer["automorph"])
        if det(a) not in (1, -1):
            return "automorph is not unimodular"
        if mul(a, req.base) != mul(req.base, a):
            return "automorph does not commute with the base"
        if a in (((1, 0), (0, 1)), ((-1, 0), (0, -1))):
            return "automorph is +-Id"
        return None


HALF_HEX_F = ((0, 0), (1, 0), (0, 1), (1, -1))


class PhiPatch(Workload):
    """`odosym phi --box -8:8` on accepted (L, M) pairs.

    Each round of eight requests holds three half-hex pairs, three pairs on
    3,0;0,3 (every unimodular M is accepted there, with n0 = 0) and two
    pairs on a diagonal base of determinant +-8 whose rule works at the
    window level (n0 = 1): diag(+-2, +-4) with M = [[+-1, b], [0, +-1]], or
    diag(+-4, +-2) with M = [[+-1, 0], [b, +-1]], b odd.
    """

    name = "phi-patch"
    warmup = 16
    block = 8
    rate = 42.0
    digests = "phi_digests.json"
    box = (-8, 8)
    ROUND = ("half-hex",) * 3 + ("scalar-3",) * 3 + ("diag-8",) * 2

    @staticmethod
    def pairs(kind: str) -> list:
        if kind == "half-hex":
            return [(((2, 0), (0, 2)), m) for m in UNIMODULAR_4]
        if kind == "scalar-3":
            return [(((3, 0), (0, 3)), m) for m in UNIMODULAR_4]
        out = []
        for sa, sb, s1, s2, b in product((1, -1), (1, -1), (1, -1), (1, -1), range(-7, 8, 2)):
            out.append((((2 * sa, 0), (0, 4 * sb)), ((s1, b), (0, s2))))
            out.append((((4 * sa, 0), (0, 2 * sb)), ((s1, 0), (b, s2))))
        return out

    def requests(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        pools = {}
        for kind in sorted(set(self.ROUND)):
            pairs = self.pairs(kind)
            pools[kind] = rng.sample(pairs, len(pairs))
        used = dict.fromkeys(pools, 0)
        out = []
        while len(out) < count:
            for kind in rng.sample(self.ROUND, len(self.ROUND)):
                if used[kind] == len(pools[kind]):
                    raise ValueError(f"phi-patch pool {kind} exhausted")
                base, m = pools[kind][used[kind]]
                used[kind] += 1
                argv = ["phi", "--L", fmt(base), "--M", fmt(m), "--box", "%d:%d" % self.box]
                if kind == "half-hex":
                    argv += ["--F", ";".join(f"{x},{y}" for x, y in HALF_HEX_F)]
                out.append(Request(base, m, tuple(argv), kind))
        return out[:count]

    def properties(self, reqs, codes, failed):
        return {"n0_1_share": sum(r.group == "diag-8" for r in reqs) / len(reqs)}

    @staticmethod
    def letters(req: Request) -> set:
        """The nonzero digits: the half-hex F, else the HNF box of a diagonal base."""
        if req.group == "half-hex":
            return set(HALF_HEX_F[1:])
        (a, _), (_, d) = req.base
        return {(x, y) for x in range(abs(a)) for y in range(abs(d))} - {(0, 0)}

    def check(self, req, code, answer):
        if code != 0:
            return f"accepted pair answered with exit {code}"
        cells = {tuple(p): tuple(a) for p, a in answer["patch"]}
        lo, hi = self.box
        if set(cells) != set(product(range(lo, hi + 1), repeat=2)):
            return "patch does not cover the box"
        if not set(cells.values()) <= self.letters(req):
            return "patch holds a letter that is not a nonzero digit"
        return None


def patch_digest(answer) -> str:
    cells = sorted((tuple(p), tuple(a)) for p, a in answer["patch"])
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (NcCold(), OracleSweep(), ClassifyCold(), PhiPatch())}
