"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

REQUEST_DIGEST = (
    "import hashlib, sys; sys.path.insert(0, 'bench'); import workloads as W; "
    "print(hashlib.sha256(repr([W.WORKLOADS[n].requests(7, 300) for n in sorted(W.WORKLOADS)])"
    ".encode()).hexdigest())"
)


def test_same_seed_gives_identical_requests_across_processes():
    digests = {
        subprocess.run(
            [sys.executable, "-c", REQUEST_DIGEST],
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(digests) == 1


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_requests(name):
    w = W.WORKLOADS[name]
    assert w.requests(3, 200) == w.requests(3, 200)
    assert w.requests(3, 200)[:50] == w.requests(3, 50)
    assert w.requests(3, 200) != w.requests(4, 200)


@pytest.mark.parametrize("name", ["nc-cold", "classify-cold"])
def test_no_base_repeats_in_a_run(name):
    w = W.WORKLOADS[name]
    reqs = w.requests(11, w.warmup + round(20 * w.rate))
    assert len({r.base for r in reqs}) == len(reqs)


def test_oracle_sweep_blocks_share_one_base_with_distinct_matrices():
    w = W.WORKLOADS["oracle-sweep"]
    reqs = w.requests(5, 10 * w.block)
    for start in range(0, len(reqs), w.block):
        block = reqs[start : start + w.block]
        assert len({r.base for r in block}) == 1
        assert len({r.matrix for r in block}) == w.block
    assert len({r.base for r in reqs}) == 10


def test_phi_pairs_have_the_stated_window_level():
    from odosym.intmat import IntMatrix
    from odosym.subshift_norm import NLCertificate, nl_membership

    w = W.WORKLOADS["phi-patch"]
    for kind, n0 in (("diag-8", 1), ("half-hex", 0), ("scalar-3", 0)):
        for base, m in w.pairs(kind)[::7]:
            cert = nl_membership(IntMatrix(base), IntMatrix(m))
            assert isinstance(cert, NLCertificate) and cert.n0 == n0, (kind, base, m)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_and_untraced_runs_agree_and_unwrap(name, monkeypatch):
    before = tracing.originals()
    unwrapped = []
    real = run.Runner.call

    def call(self, args):
        unwrapped.append(all(getattr(o, a) is obj for (o, a), obj in before.items()))
        return real(self, args)

    monkeypatch.setattr(run.Runner, "call", call)
    plain = run.run_workload(name, 2, 0.05, trace=False)
    assert unwrapped and all(unwrapped)
    monkeypatch.undo()
    traced = run.run_workload(name, 2, 0.05, trace=True)
    assert all(getattr(owner, attr) is obj for (owner, attr), obj in before.items())
    assert plain["wrong"] == traced["wrong"] == []
    assert plain["answer_digest"] == traced["answer_digest"]
    assert plain["attempted"] == traced["attempted"]


def test_traced_counts_repeat_exactly():
    first = run.run_workload("phi-patch", 4, 0.1, trace=True)["metrics"]
    second = run.run_workload("phi-patch", 4, 0.1, trace=True)["metrics"]
    for name, (value, unit) in first.items():
        if unit == "count":
            assert second[name][0] == value, name
    assert first["substitution.tau.calls"][0] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = run.run_workload("nc-cold", 1, 0.05, trace=True)["metrics"]
    plain = run.run_workload("nc-cold", 1, 0.05, trace=False)["metrics"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(traced)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted([*plain, "setup_s"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS)


def test_checks_reject_wrong_answers():
    nc = W.WORKLOADS["nc-cold"]
    base, m = ((2, 0), (0, 2)), ((0, 1), (1, 0))
    req = W.Request(base, m, None, "")
    good = {"passes": True, "certificates": [{"n": n, "m": n} for n in range(1, 6)]}
    assert nc.check(req, 0, good) is None
    not_least = {**good, "certificates": [{"n": n, "m": n + 1} for n in range(1, 6)]}
    assert "least" in nc.check(req, 0, not_least)
    absent = {"passes": False, "certificates": [{"n": n, "m": None} for n in range(1, 6)]}
    assert "m*" in nc.check(req, 3, absent)
    assert "disagrees" in nc.check(req, 3, good)

    cc = W.WORKLOADS["classify-cold"]
    base = ((2, -1), (1, 5))
    req = W.Request(base, None, None, "pell")
    assert cc.check(req, 0, {"branch": "centralizer-infinite", "automorph": "2,1;-1,-1"}) is None
    assert "commute" in cc.check(req, 0, {"branch": "centralizer-infinite", "automorph": "1,1;0,1"})
    assert "+-Id" in cc.check(req, 0, {"branch": "centralizer-infinite", "automorph": "1,0;0,1"})
    assert "branch" in cc.check(req, 0, {"branch": "full-gl2"})

    phi = W.WORKLOADS["phi-patch"]
    req = W.Request(((3, 0), (0, 3)), ((1, 0), (0, 1)), None, "scalar-3")
    box = [[[x, y], [1, 1]] for x in range(-8, 9) for y in range(-8, 9)]
    assert phi.check(req, 0, {"patch": box}) is None
    assert "cover" in phi.check(req, 0, {"patch": box[1:]})
    assert "digit" in phi.check(req, 0, {"patch": [[p, [0, 0]] for p, _ in box]})

    oracle = W.WORKLOADS["oracle-sweep"]
    assert oracle.check(None, 0, (True, "full-gl2", [(1, 0), (2, None)])) is not None
    assert oracle.check(None, 0, (False, "klein-four", [(1, None)])) is None


def test_default_seed_phi_patches_match_the_recorded_ones():
    summary = run.run_workload("phi-patch", run.DEFAULT_SEED, 0.5, trace=False)
    assert summary["wrong"] == []
    w = W.WORKLOADS["phi-patch"]
    runner = run.Runner(w, run.DEFAULT_SEED)
    assert len(runner.golden) == 64
    req = w.requests(run.DEFAULT_SEED, 1)[0]
    code, answer, _ = runner.call(runner.prepare(req))
    runner.golden[0] = "0" * 64
    runner.record(0, req, code, W.answer_line(code, answer), answer)
    assert runner.wrong and "recorded patch" in runner.wrong[0]


def test_failed_request_is_wrong_only_where_every_input_has_an_answer():
    for name, wrong in (("nc-cold", 1), ("classify-cold", 0)):
        runner = run.Runner(W.WORKLOADS[name], 1)
        req = W.WORKLOADS[name].requests(1, 1)[0]
        runner.record(0, req, None, W.answer_line(None, None), None)
        assert len(runner.wrong) == wrong, name
