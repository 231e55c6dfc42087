"""Spans for the traced run, recorded from outside the package.

`installed(tracer)` rebinds every module attribute that holds one of the
layer functions in LAYER_FUNCTIONS to a wrapper that records a span, then
restores the originals.  Rebinding by identity matters: `from .x import f`
copies the binding, so `fan_align.sample_periodic`, `cone_align.symmetry_mse`,
`cli.align_fan` and the like are separate names for the same function, and
`fan_align._ESTIMATORS` holds the five fan estimators in a table.  Spans stay
in memory; the caller writes them out when the benchmark ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .metrics import is_vp

ESTIMATE = "estimate"  # root span the benchmark opens around each timed call
SETUP = "setup"  # root span around building a workload's inputs

# modules whose attributes may hold a layer function, imported or defined
MODULES = (
    "ctalign",
    "ctalign.registration",
    "ctalign.fan_align",
    "ctalign.cone_align",
    "ctalign.simulate",
    "ctalign.io_cli",
    "ctalign.cli",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(*names):
    """Count of query points: the broadcast size of the coordinate arguments."""

    def count(args, kwargs, result):
        coords = [_arg(args, kwargs, i + 1, n) for i, n in enumerate(names)]
        return {"points": int(np.broadcast(*coords).size)}

    return count


def _fixed_point_iterations(args, kwargs, result):
    return {"iterations": int(result[1])}


def _eta(args, kwargs, result):
    return {"eta": float(_arg(args, kwargs, 2, "eta"))}


def _outer_iterations(args, kwargs, result):
    return {"outer_iterations": int(result.iterations)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.stat(_arg(args, kwargs, 0, "path")).st_size}


# (span name, module, attribute, counter of (args, kwargs, result) or None).
# header_metadata has no metric; its span keeps file reading out of cli.main.self_s.
LAYER_FUNCTIONS = (
    ("registration.sample_periodic", "ctalign.registration", "sample_periodic", _points("s", "beta")),
    ("registration.sample_detector", "ctalign.registration", "sample_detector", _points("u", "v", "beta")),
    ("registration.xcorr_shift_1d", "ctalign.registration", "xcorr_shift_1d", None),
    ("registration.xcorr_shift_s_2d", "ctalign.registration", "xcorr_shift_s_2d", None),
    ("fan_align.reflected_resampling", "ctalign.fan_align", "reflected_resampling", None),
    ("fan_align.symmetry_mse", "ctalign.fan_align", "symmetry_mse", None),
    ("fan_align.fixed_point_shift", "ctalign.fan_align", "fixed_point_shift", _fixed_point_iterations),
    ("fan_align.align", "ctalign.fan_align", "align_fan", None),
    ("cone_align.lambda_eta", "ctalign.cone_align", "lambda_eta", _eta),
    ("cone_align.pi_h_eta", "ctalign.cone_align", "pi_h_eta", None),
    ("cone_align.loss_L", "ctalign.cone_align", "loss_L", None),
    ("cone_align.inner_h", "ctalign.cone_align", "inner_h", None),
    ("cone_align.variable_projection", "ctalign.cone_align", "variable_projection", _outer_iterations),
    ("simulate.fan_project", "ctalign.simulate", "fan_project", None),
    ("simulate.cone_project", "ctalign.simulate", "cone_project", None),
    ("simulate.phantom", "ctalign.simulate", "make_disk_phantom", None),
    ("simulate.phantom", "ctalign.simulate", "make_sphere_phantom", None),
    ("io_cli.read_sinogram", "ctalign.io_cli", "read_sinogram", _file_bytes),
    ("io_cli.write_sinogram", "ctalign.io_cli", "write_sinogram", None),
    ("io_cli.header_metadata", "ctalign.io_cli", "header_metadata", None),
    ("cli.main", "ctalign.cli", "main", None),
)


@dataclass
class Span:
    id: int
    parent: object  # id of the enclosing span, or None for a root
    name: str
    start: float
    end: float = 0.0
    estimate: object = None  # id of the estimate span this span belongs to
    info: dict = field(default_factory=dict)  # counts and labels

    def as_list(self):
        return [self.id, self.parent, self.name, self.start, self.end, self.estimate, self.info]


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, **info):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), None if parent is None else parent.id, name, 0.0, info=info)
        if name == ESTIMATE:
            span.estimate = span.id
        elif parent is not None:
            span.estimate = parent.estimate
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name, **info):
        span = self.begin(name, **info)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.info.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced


@contextmanager
def installed(tracer):
    """Route every call of a layer function through a span of `tracer`."""
    modules = [sys.modules[name] for name in MODULES]
    originals = [(name, getattr(sys.modules[mod], attr), counter) for name, mod, attr, counter in LAYER_FUNCTIONS]
    estimators = sys.modules["ctalign.fan_align"]._ESTIMATORS
    originals += [("fan_align.align", fn, None) for fn in estimators.values()]
    wrappers = {id(fn): tracer.wrap(name, fn, counter) for name, fn, counter in originals}
    restore = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    table = dict(estimators)
    estimators.update({key: wrappers[id(fn)] for key, fn in table.items()})
    try:
        yield tracer
    finally:
        estimators.update(table)
        for module, attr, value in restore:
            setattr(module, attr, value)


def covered(lo, hi, intervals):
    """Length of the part of [lo, hi] that the union of `intervals` covers."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans):
    """{span id: duration minus the part covered by its children}."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id]) for s in spans}


# per-layer metrics of the traced estimate passes: (name, unit)
PASS_METRICS = (
    ("registration.sample_periodic.calls", "count"),
    ("registration.sample_periodic.points", "count"),
    ("registration.sample_periodic.self_s", "s"),
    ("registration.sample_detector.calls", "count"),
    ("registration.sample_detector.points", "count"),
    ("registration.sample_detector.self_s", "s"),
    ("registration.sample_detector.vp_share", "frac"),
    ("registration.xcorr_shift_1d.calls", "count"),
    ("registration.xcorr_shift_1d.self_s", "s"),
    ("registration.xcorr_shift_s_2d.calls", "count"),
    ("registration.xcorr_shift_s_2d.self_s", "s"),
    ("fan_align.reflected_resampling.calls", "count"),
    ("fan_align.reflected_resampling.self_s", "s"),
    ("fan_align.symmetry_mse.calls", "count"),
    ("fan_align.symmetry_mse.self_s", "s"),
    ("fan_align.symmetry_mse.calls_per_estimate", "ratio"),
    ("fan_align.symmetry_mse.fpk_share", "frac"),
    ("fan_align.fixed_point_shift.calls", "count"),
    ("fan_align.fixed_point_shift.iterations", "count"),
    ("fan_align.fixed_point_shift.self_s", "s"),
    ("fan_align.align.self_s", "s"),
    ("cone_align.lambda_eta.calls", "count"),
    ("cone_align.lambda_eta.self_s", "s"),
    ("cone_align.lambda_eta.calls_per_distinct_eta", "ratio"),
    ("cone_align.pi_h_eta.calls", "count"),
    ("cone_align.pi_h_eta.self_s", "s"),
    ("cone_align.loss_L.calls", "count"),
    ("cone_align.loss_L.self_s", "s"),
    ("cone_align.inner_h.calls", "count"),
    ("cone_align.inner_h.self_s", "s"),
    ("cone_align.inner_h.calls_per_vp", "ratio"),
    ("cone_align.variable_projection.outer_iterations", "count"),
    ("cone_align.variable_projection.self_s", "s"),
    ("io_cli.read_sinogram.calls", "count"),
    ("io_cli.read_sinogram.bytes", "B"),
    ("io_cli.read_sinogram.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.untraced_share", "frac"),
)

# per-layer metrics of the traced set-up
SETUP_METRICS = (
    ("simulate.fan_project.self_s", "s"),
    ("simulate.cone_project.self_s", "s"),
    ("simulate.phantom.self_s", "s"),
    ("io_cli.write_sinogram.self_s", "s"),
)


# every per-layer metric of a traced run, in report order
PER_LAYER = PASS_METRICS + SETUP_METRICS + (("trace.overhead_frac", "frac"),)

COUNT_KEYS = ("calls", "points", "iterations", "bytes", "outer_iterations")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_totals(spans):
    """{span name: {"calls", "self_s" and each summed count}} and the self times."""
    own = self_times(spans)
    totals = defaultdict(lambda: defaultdict(float))
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[span.id]
        for key in COUNT_KEYS:
            if key in span.info:
                entry[key] += span.info[key]
    return totals, own


def _plain(totals, names):
    """The `<layer>.<calls|count|self_s>` metrics among names; 0 for a layer without spans."""
    out = {}
    for name in names:
        layer, key = name.rsplit(".", 1)
        if key in COUNT_KEYS:
            out[name] = int(totals[layer][key])
        elif key == "self_s":
            out[name] = totals[layer][key]
    return out


def pass_metrics(spans):
    """PASS_METRICS of one traced pass over a workload's estimates.

    Estimate spans carry a `method` label.  `fan_align.symmetry_mse.fpk_share`
    is symmetry_mse time, children included, over FP_K estimate time;
    `registration.sample_detector.vp_share` is sample_detector self time over
    VP estimate time.
    """
    totals, own = layer_totals(spans)
    estimates = [s for s in spans if s.name == ESTIMATE]
    method = {s.id: s.info.get("method", "") for s in estimates}

    def share(layer, of, inclusive):
        part = sum(
            (s.end - s.start) if inclusive else own[s.id]
            for s in spans
            if s.name == layer and of(method.get(s.estimate, ""))
        )
        whole = sum(s.end - s.start for s in estimates if of(method[s.id]))
        return _ratio(part, whole)

    etas = defaultdict(set)
    for span in spans:
        if span.name == "cone_align.lambda_eta":
            etas[span.estimate].add(span.info["eta"])

    out = _plain(totals, [name for name, _ in PASS_METRICS])
    calls = lambda layer: totals[layer]["calls"]
    out["registration.sample_detector.vp_share"] = share(
        "registration.sample_detector", is_vp, inclusive=False
    )
    out["fan_align.symmetry_mse.calls_per_estimate"] = _ratio(calls("fan_align.symmetry_mse"), len(estimates))
    out["fan_align.symmetry_mse.fpk_share"] = share("fan_align.symmetry_mse", lambda m: m == "FP_K", inclusive=True)
    out["cone_align.lambda_eta.calls_per_distinct_eta"] = _ratio(
        calls("cone_align.lambda_eta"), sum(len(v) for v in etas.values())
    )
    out["cone_align.inner_h.calls_per_vp"] = _ratio(
        calls("cone_align.inner_h"), calls("cone_align.variable_projection")
    )
    out["trace.untraced_share"] = _ratio(sum(own[s.id] for s in estimates), sum(s.end - s.start for s in estimates))
    return out


def setup_metrics(spans):
    """SETUP_METRICS of one traced set-up."""
    return _plain(layer_totals(spans)[0], [name for name, _ in SETUP_METRICS])
