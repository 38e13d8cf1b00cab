"""odosym benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload nc-cold --seed 1 --seconds 20 --trace 0

It imports the package from the `src` directory next to `bench`.

The load is a closed loop with one client in one thread: the next request
is sent when the previous reply arrives, with no think time.  A run is a
fresh process that executes a fixed list of requests once each: the
warm-up requests, then `--seconds` times the workload's reference rate
measured requests, all drawn from `--seed`.  CLI workloads call
`odosym.cli.main(argv)` in-process with stdout captured; exit codes 0, 3
and 4 are answers, while exit code 2 or an escaping exception is a failed
request.  Every answer is checked outside the timed region; a wrong
answer makes the run exit 1 after printing its result.  On workloads whose
inputs all have answers, a failed request counts as a wrong answer too.

With `--trace 0` the run reports the end-to-end metrics, with every time
scaled to a reference machine speed by a calibration loop run between
requests (see `measure`).  With `--trace 1` it runs each block
untraced, then traced with the program's caches emptied, and reports the
per-layer metrics of the traced pass plus `trace_overhead`: traced
throughput over untraced throughput, minus 1.

Before the result line the run prints a summary line with the sample
counts, the workload's input properties and a digest of every answer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, answer_line, nc_holds, patch_digest  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 21
# Time one fresh import of odosym.cli, then, in the same interpreter, a
# fixed piece of pure-Python work (median of three) that tracks the host's
# speed at that moment.
IMPORT_PROBE = """
import time
t = time.perf_counter()
import odosym.cli
took = time.perf_counter() - t
def work():
    t = time.perf_counter()
    sum((x * 7919) % 1009 for x in range(20000))
    sorted({(x * 31) % 997: x for x in range(3000)}.items())
    return time.perf_counter() - t
print(took, sorted(work() for _ in range(3))[1])
"""
# Time of the work in IMPORT_PROBE on the machine the benchmark was
# defined on; each import time is scaled by SETUP_REFERENCE_S / its work time.
SETUP_REFERENCE_S = 0.0022


# Calibration time of reference_work() on the machine the benchmark was
# defined on; end-to-end times are scaled by REFERENCE_MS / calibration.
REFERENCE_MS = 0.7


def reference_work() -> int:
    """A fixed piece of the benchmark's own checking arithmetic.

    Small-matrix powers modulo an integer, a dict and a sort: the kind of
    work the program does, so that host slowdowns hit both alike.
    """
    L, M = ((3, 1), (1, 2)), ((0, 1), (1, 0))
    hits = sum(nc_holds(L, M, n, 37) for n in range(1, 7))
    table = sorted({(x * 7919) % 1009: x for x in range(600)}.items())
    return hits + len(table)


def calibration_ms() -> float:
    """One timing of reference_work(), in milliseconds."""
    start = time.perf_counter()
    reference_work()
    return (time.perf_counter() - start) * 1000


def measure_setup() -> float:
    """Median time to import odosym.cli in a fresh interpreter.

    One unmeasured import first warms the bytecode cache.  Each import is
    scaled by the speed probe run right after it in the same interpreter.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        took, work = map(float, done.stdout.split())
        if i:
            times.append(took * SETUP_REFERENCE_S / work)
    return statistics.median(times)


class Runner:
    """Answers requests for one workload and checks every answer."""

    def __init__(self, workload, seed: int):
        from odosym import classify2d, cli, intmat, odometer

        self.workload = workload
        self.seed = seed
        self.cli, self.classify2d, self.odometer = cli, classify2d, odometer
        self.IntMatrix = intmat.IntMatrix
        self.digest = hashlib.sha256()
        self.wrong: list[str] = []
        self.codes: dict = {}  # exit-code tally of answered requests
        self.golden = {}
        if workload.digests and seed == DEFAULT_SEED:
            with open(os.path.join(HERE, workload.digests)) as fh:
                self.golden = dict(enumerate(json.load(fh)))

    def prepare(self, req):
        """Build the call's arguments outside the timed region."""
        if self.workload.cli:
            return list(req.argv)
        return self.IntMatrix(req.base), self.IntMatrix(req.matrix)

    def call(self, args):
        """(exit code or None, answer, seconds) for one request."""
        clock = time.perf_counter
        if self.workload.cli:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = clock()
                try:
                    code = self.cli.main(args)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    code = None
                took = clock() - start
            if code not in (0, 3, 4):
                return None, None, took
            try:
                return code, json.loads(out.getvalue())["result"], took
            except (ValueError, KeyError):
                return code, None, took
        start = clock()
        try:
            verdict = self.classify2d.is_member(*args)
            certs = self.odometer.nc_bounded_check(*args, self.workload.depth)
        except Exception:
            return None, None, clock() - start
        took = clock() - start
        return 0, (verdict.member, verdict.reason, [(c.n, c.m) for c in certs]), took

    def record(self, index, req, code, line, answer) -> None:
        self.digest.update(line.encode())
        if code is None:
            if self.workload.answerable:
                self.wrong.append(f"request {index} {req.argv or (req.base, req.matrix)}: failed")
            return
        if answer is None:
            problem = f"exit {code} without a JSON report"
        else:
            problem = self.workload.check(req, code, answer)
        if problem is None and index in self.golden and patch_digest(answer) != self.golden[index]:
            problem = "patch differs from the recorded patch for the default seed"
        if problem is not None:
            self.wrong.append(f"request {index} {req.argv or (req.base, req.matrix)}: {problem}")
        self.codes[code] = self.codes.get(code, 0) + 1

    def run(self, calls, first_index: int, tracer=None, record=True):
        """Run (request, arguments) pairs in order.

        Returns the latencies of successful requests, their total time
        with that of failed ones, the number that failed, and every answer
        in canonical form.
        """
        latencies, total, failed, lines = [], 0.0, 0, []
        for offset, (req, args) in enumerate(calls):
            if tracer is not None:
                tracer.begin(first_index + offset)
            code, answer, took = self.call(args)
            if tracer is not None:
                tracer.end()
            total += took
            if code is None:
                failed += 1
            else:
                latencies.append(took)
            lines.append(answer_line(code, answer))
            if record:
                self.record(first_index + offset, req, code, lines[-1], answer)
        return latencies, total, failed, lines


def measure(runner, measured):
    """Run the measured requests untraced, with machine-speed calibration.

    The host's speed drifts by tens of percent within a second, so the
    calibration runs before the first request and after every
    `calibrate_every` requests, and the times of the requests in between
    are scaled by REFERENCE_MS over the mean of the two calibrations that
    enclose them.  Returns scaled latencies of successful requests, the
    scaled total time, the number of failed requests and the calibrations.
    """
    every = runner.workload.calibrate_every
    blocks, calibration = [], [calibration_ms()]
    for start in range(0, len(measured), every):
        calls = ((r, runner.prepare(r)) for r in measured[start : start + every])
        blocks.append(runner.run(calls, runner.workload.warmup + start)[:3])
        calibration.append(calibration_ms())
    latencies, total, failed = [], 0.0, 0
    for (lat, took, nfail), before, after in zip(blocks, calibration, calibration[1:]):
        scale = 2 * REFERENCE_MS / (before + after)
        latencies += [t * scale for t in lat]
        total += took * scale
        failed += nfail
    return latencies, total, failed, calibration


def properties(workload, reqs, runner, failed: int) -> dict:
    """Input properties a caching or branch-specific change can cite."""
    seen, shared = set(), 0
    for r in reqs:
        shared += r.base in seen
        seen.add(r.base)
    return {
        "shared_base_share": shared / len(reqs),
        **workload.properties(reqs, runner.codes, failed),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns the summary and the metrics."""
    workload = WORKLOADS[name]
    count = max(1, round(seconds * workload.rate))
    stream = workload.requests(seed, workload.warmup + count)
    warm, measured = stream[: workload.warmup], stream[workload.warmup :]
    runner = Runner(workload, seed)
    runner.run(((r, runner.prepare(r)) for r in warm), 0)
    runner.codes.clear()

    extra: dict = {}
    if not trace:
        latencies, total, failed, calibration = measure(runner, measured)
        extra["calibration_ms"] = {
            "median": statistics.median(calibration),
            "min": min(calibration),
            "max": max(calibration),
        }
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ms = sorted(t * 1000 for t in latencies)
        metrics = {
            "throughput_rps": (len(ms) / total, "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
            "success_share": (len(ms) / len(measured), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        samples = len(ms)
    else:
        # Each block runs untraced, then, with the program's caches emptied,
        # traced: both passes start with none of the block's inputs cached.
        tracer = tracing.Tracer()
        plain_ok = traced_ok = failed = 0
        plain_s = traced_s = 0.0
        for start in range(0, len(measured), workload.block):
            calls = [(r, runner.prepare(r)) for r in measured[start : start + workload.block]]
            first = workload.warmup + start
            latencies, took, _, plain = runner.run(calls, first, record=False)
            plain_ok, plain_s = plain_ok + len(latencies), plain_s + took
            tracing.clear_caches()
            with tracing.installed(tracer):
                latencies, took, nfail, traced = runner.run(calls, first, tracer)
            traced_ok, traced_s = traced_ok + len(latencies), traced_s + took
            failed += nfail
            if plain != traced:
                runner.wrong.append(f"block at request {first}: traced answers differ")
        metrics = tracer.metrics()
        overhead = (traced_ok / traced_s) / (plain_ok / plain_s) - 1
        metrics["trace_overhead"] = (overhead, "ratio")
        samples = traced_ok
    return {
        "workload": name,
        "seed": seed,
        "attempted": len(measured),
        "failed": failed,
        "samples": samples,
        "p90_tail_samples": samples - int(0.9 * samples),
        "wrong": runner.wrong,
        "answer_digest": runner.digest.hexdigest(),
        "properties": properties(workload, measured, runner, failed),
        "metrics": metrics,
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)

    setup_s = None if args.trace else measure_setup()
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = summary.pop("metrics")
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    for problem in summary["wrong"][:20]:
        print(f"bench: wrong answer: {problem}", file=sys.stderr)
    summary["wrong"] = len(summary["wrong"])
    print(json.dumps(summary, sort_keys=True))
    correct = summary["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
