"""Per-layer tracing from outside the program.

While installed, a Tracer replaces the public function at each layer
boundary with a wrapper that records a span: name, start, end, parent span
and request id.  A function is replaced wherever callers look it up, so
the copies that `from .x import f` binds in other modules are replaced
too; `IntMatrix` construction is traced through the class.  Uninstalling
puts every original object back.

Spans are kept in memory for the current request and folded into totals
when it ends, since a long run makes millions of them.  A layer's self
time is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

CLASSIFY_TAGS = (
    "full-gl2",
    "centralizer-finite",
    "centralizer-infinite",
    "klein-four",
    "order-two",
    "virtually-z",
    "error",
)


def _nc_search_labels(tracer, args, result):
    L, _M, n = args
    return (tracer.first(("nc_search", L.rows, n)),)


def _classify_labels(tracer, args, result):
    return (tracer.first(("classify", args[0].rows)), "error" if result is None else result.tag)


def _apply_endomorphism_labels(tracer, args, result):
    return (f"n0-{args[0].n0}",)


# (module, attribute, span name, labeller): labels split a span's time into
# named parts, such as first and repeated calls for the same key.
TARGETS = (
    ("odosym.cli", "main", "cli.main", None),
    ("odosym.cli", "build_parser", "cli.build_parser", None),
    ("odosym.cli", "make_report", "cli.make_report", None),
    ("odosym.cli", "emit", "cli.emit", None),
    ("odosym.intmat", "IntMatrix.__init__", "intmat.IntMatrix.new", None),
    ("odosym.intmat", "IntMatrix.solve_exact", "intmat.solve_exact", None),
    ("odosym.intmat", "is_expansion", "intmat.is_expansion", None),
    ("odosym.intmat", "hnf", "intmat.hnf", None),
    ("odosym.odometer", "nc_bounded_check", "odometer.nc_bounded_check", None),
    ("odosym.odometer", "nc_search", "odometer.nc_search", _nc_search_labels),
    ("odosym.classify2d", "classify", "classify2d.classify", _classify_labels),
    ("odosym.classify2d", "is_member", "classify2d.is_member", None),
    ("odosym.substitution", "fixed_point_patch", "substitution.fixed_point_patch", None),
    ("odosym.substitution", "tau", "substitution.tau", None),
    ("odosym.substitution", "sigma_L", "substitution.sigma_L", None),
    ("odosym.subshift_norm", "nl_membership", "subshift_norm.nl_membership", None),
    ("odosym.subshift_norm", "build_local_rule", "subshift_norm.build_local_rule", None),
    ("odosym.subshift_norm", "pullback_positions", "subshift_norm.pullback_positions", None),
    (
        "odosym.subshift_norm",
        "apply_endomorphism",
        "subshift_norm.apply_endomorphism",
        _apply_endomorphism_labels,
    ),
)


def _spans(*names):
    return lambda t: sum(t.seconds[n] for n in names) * 1000 / t.requests


def _calls(name):
    return lambda t: t.calls[name] / t.requests


def _self(layer):
    return lambda t: t.self_seconds[layer] * 1000 / t.requests


# Per-layer metrics, each a mean per traced request: (name, unit, value).
METRICS = (
    ("cli.build_parser.ms", "ms", _spans("cli.build_parser")),
    ("cli.report.ms", "ms", _spans("cli.make_report", "cli.emit")),
    ("cli.self.ms", "ms", _self("cli")),
    ("intmat.IntMatrix.new.calls", "count", _calls("intmat.IntMatrix.new")),
    ("intmat.IntMatrix.new.ms", "ms", _spans("intmat.IntMatrix.new")),
    ("intmat.solve_exact.calls", "count", _calls("intmat.solve_exact")),
    ("intmat.solve_exact.ms", "ms", _spans("intmat.solve_exact")),
    ("intmat.is_expansion.calls", "count", _calls("intmat.is_expansion")),
    ("intmat.hnf.calls", "count", _calls("intmat.hnf")),
    ("intmat.self.ms", "ms", _self("intmat")),
    ("odometer.nc_bounded_check.ms", "ms", _spans("odometer.nc_bounded_check")),
    ("odometer.nc_search.calls", "count", _calls("odometer.nc_search")),
    ("odometer.nc_search.first.ms", "ms", _spans("odometer.nc_search.first")),
    ("odometer.nc_search.repeat.ms", "ms", _spans("odometer.nc_search.repeat")),
    ("odometer.self.ms", "ms", _self("odometer")),
    ("classify2d.classify.first.ms", "ms", _spans("classify2d.classify.first")),
    ("classify2d.classify.repeat.ms", "ms", _spans("classify2d.classify.repeat")),
    *(
        (f"classify2d.classify.{tag}.ms", "ms", _spans(f"classify2d.classify.{tag}"))
        for tag in CLASSIFY_TAGS
    ),
    ("classify2d.is_member.ms", "ms", _spans("classify2d.is_member")),
    ("classify2d.self.ms", "ms", _self("classify2d")),
    ("substitution.fixed_point_patch.ms", "ms", _spans("substitution.fixed_point_patch")),
    ("substitution.tau.calls", "count", _calls("substitution.tau")),
    ("substitution.tau.ms", "ms", _spans("substitution.tau")),
    ("substitution.sigma_L.ms", "ms", _spans("substitution.sigma_L")),
    ("substitution.self.ms", "ms", _self("substitution")),
    ("subshift_norm.nl_membership.ms", "ms", _spans("subshift_norm.nl_membership")),
    ("subshift_norm.build_local_rule.ms", "ms", _spans("subshift_norm.build_local_rule")),
    ("subshift_norm.pullback_positions.ms", "ms", _spans("subshift_norm.pullback_positions")),
    (
        "subshift_norm.apply_endomorphism.n0-0.ms",
        "ms",
        _spans("subshift_norm.apply_endomorphism.n0-0"),
    ),
    (
        "subshift_norm.apply_endomorphism.n0-1.ms",
        "ms",
        _spans("subshift_norm.apply_endomorphism.n0-1"),
    ),
    ("subshift_norm.self.ms", "ms", _self("subshift_norm")),
)


class Tracer:
    """Span recorder plus the totals folded from finished requests."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, request, labels]
        self.stack: list[int] = []
        self.request: int | None = None
        self.seconds: dict = defaultdict(float)  # inclusive time per span name
        self.calls: dict = defaultdict(int)
        self.self_seconds: dict = defaultdict(float)  # per layer
        self.requests = 0
        self.seen: set = set()

    def first(self, key) -> str:
        if key in self.seen:
            return "repeat"
        self.seen.add(key)
        return "first"

    def wrap(self, fn, name, labeller):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, ()]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if labeller is not None:
                    span[5] = labeller(self, args, result)

        return traced

    def begin(self, request_id: int) -> None:
        self.request = request_id

    def end(self) -> None:
        """Fold the finished request's spans into the totals."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _req, _labels in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _parent, _req, labels) in enumerate(self.spans):
            took = end - start
            self.seconds[name] += took
            self.calls[name] += 1
            for label in labels:
                self.seconds[f"{name}.{label}"] += took
                self.calls[f"{name}.{label}"] += 1
            self.self_seconds[name.split(".", 1)[0]] += took - child[i]
        self.spans.clear()
        self.requests += 1
        self.request = None

    def metrics(self) -> dict:
        return {name: (value(self), unit) for name, unit, value in METRICS}


def _package_modules():
    return [m for k, m in sys.modules.items() if k == "odosym" or k.startswith("odosym.")]


def clear_caches() -> None:
    """Empty every functools cache in the package."""
    for m in _package_modules():
        for value in list(vars(m).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def originals() -> dict:
    """The object behind every traced attribute, keyed by (owner, attribute)."""
    out = {}
    owners = {modname: importlib.import_module(modname) for modname, *_ in TARGETS}
    modules = _package_modules()
    for modname, attr, _name, _labeller in TARGETS:
        owner = owners[modname]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            out[(cls, attr)] = cls.__dict__[attr]
            continue
        target = getattr(owner, attr)
        for m in modules:
            for key, value in vars(m).items():
                if value is target:
                    out[(m, key)] = value
    return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs; restore the originals after."""
    found = originals()
    wrappers = {}
    for modname, attr, name, labeller in TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        wrappers[id(original)] = tracer.wrap(original, name, labeller)
    try:
        for (owner, attr), original in found.items():
            setattr(owner, attr, wrappers[id(original)])
        yield tracer
    finally:
        for (owner, attr), original in found.items():
            setattr(owner, attr, original)
