"""One benchmark run: set-up, timed passes, checks, report and result line.

A run builds the workload's inputs SETUP_REPEATS times (setup_s is the
median), then runs passes over the workload's fixed list of calls, one caller
in a closed loop, until --seconds have passed; the last pass always
finishes.  Each timing is the median over the run's calls of one kind, with
its sample count.  The reference kernel (reference.py) runs before the first
call of a pass and after every call; pass_ref, the gated time, sums over the
calls the median of call time / mean reference time around the call, which
cancels the shared host's changing CPU speed.  pass_s is the same sum of raw
wall times, reported but not gated.

--trace 1 instead builds the inputs once under tracing and alternates an
untraced and a traced pass until --seconds have passed.  Counts come from
one traced pass (every traced pass must give the same counts); times are
medians over the traced passes.

Checks that fail the run (`correct: false`): an estimate that differs
between passes, traced passes included; a CLI report that differs from the
library's estimate on the same file; a non-finite estimate; counts that
differ between traced passes.  Estimates are compared by repr, i.e. bit for
bit.

Which end-to-end number each per-layer metric should move:

- fan_align.symmetry_mse.calls_per_estimate, registration.sample_periodic.points:
  fpk_s and fp_s, less so ly_s, 2dr_s and yang_s, on fan-1024; cli_s less
  on cli-256; vp_* on cone-128 not at all.
- registration.xcorr_shift_s_2d.self_s: 2dr_s on fan-1024, vp_2dr_s on cone-128.
- registration.xcorr_shift_1d.*, fan_align.fixed_point_shift.iterations:
  cli_s on cli-256 and vp_fpk_s on cone-128; fan-1024 only slightly.
- cone_align.lambda_eta.calls_per_distinct_eta, registration.sample_detector.points:
  vp_2dr_s and vp_fpk_s on cone-128; no fan workload.
- cone_align.inner_h.calls_per_vp, cone_align.variable_projection.outer_iterations:
  vp_*, converged_frac and eta_err_deg_max on cone-128.
- simulate.*.self_s: setup_s on cone-128 and fan-1024.
- io_cli.read_sinogram.self_s, cli.main.self_s: cli_s on cli-256 only.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, tracing
from .metrics import END_TO_END, Outcome
from .reference import Reference
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 3
EXACT_UNITS = ("count", "B", "ratio")  # per-layer metrics every traced pass must repeat exactly


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ctalign benchmark run")
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=1, help="orders the calls of each pass")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return args


def environment():
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
    }
    env.update(sorted((k, v) for k, v in os.environ.items() if "THREADS" in k))
    return env


@dataclass(frozen=True)
class Timed:
    """One call of a pass: its wall seconds, the mean seconds of the
    reference kernel just before and just after it, and its Outcome."""

    seconds: float
    ref: float
    outcome: Outcome


def run_pass(calls, order, reference, tracer=None):
    """Each call once, in `order`: {index: Timed}."""
    done = {}
    before = reference.sample()
    for i in order:
        call = calls[i]
        span = tracer.begin(tracing.ESTIMATE, method=call.method) if tracer else None
        start = time.perf_counter()
        try:
            raw = call.invoke()
        except Exception as exc:  # a call that raises counts as failed; the run goes on
            raw = exc
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end(span)
        after = reference.sample()
        if isinstance(raw, Exception):
            outcome = Outcome(failure=f"{type(raw).__name__}: {raw}")
        else:
            outcome = call.read(raw)
        done[i] = Timed(seconds, (before + after) / 2.0, outcome)
        before = after
    return done


def _orders(n, seed):
    rng = random.Random(seed)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield order


def measure(calls, seconds, seed, reference):
    passes = []
    orders = _orders(len(calls), seed)
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(calls, next(orders), reference))
    return passes


def measure_traced(calls, seconds, seed, reference):
    """Alternate untraced and traced passes over the same order."""
    untraced, traced, tracers = [], [], []
    orders = _orders(len(calls), seed)
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        order = next(orders)
        untraced.append(run_pass(calls, order, reference))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced.append(run_pass(calls, order, reference, tracer))
        tracers.append(tracer)
    return untraced, traced, tracers


def check_outcomes(calls, passes):
    """Problems with the calls' outcomes, as messages."""
    problems = []
    for i, call in enumerate(calls):
        seen = sorted({repr(p[i].outcome) for p in passes})
        if len(seen) > 1:
            problems.append(f"{call.label}: outcome differs between passes: {seen}")
        outcome = passes[0][i].outcome
        if any(v is not None and not math.isfinite(v) for v in (outcome.h, outcome.eta, outcome.mse)):
            problems.append(f"{call.label}: non-finite outcome {outcome}")
        if call.reference is not None:
            expected = call.reference()
            if repr(expected) != repr(outcome):
                problems.append(f"{call.label}: CLI gives {outcome}, library gives {expected}")
    return problems


def per_call_times(passes, relative=False):
    """{call index: [its wall seconds in each pass]}, or with relative=True
    [its wall seconds / reference seconds in each pass]."""
    times = defaultdict(list)
    for p in passes:
        for i, t in p.items():
            times[i].append(t.seconds / t.ref if relative else t.seconds)
    return times


def _timing(name, samples):
    value, n = metrics.median_n(samples)
    return (name, value, "s", n)


def end_to_end_rows(calls, passes, setup_times):
    """(name, value, unit, sample count) of every end-to-end number."""
    rows = [_timing("setup_s", setup_times)]
    times = per_call_times(passes)
    by_timer, by_kind = defaultdict(list), defaultdict(list)
    for i, samples in sorted(times.items()):
        by_timer[calls[i].timer] += samples
        by_kind[calls[i].method] += samples
    for timer, samples in by_timer.items():
        rows.append(_timing(timer, samples))
        kinds = sorted({c.method for c in calls if c.timer == timer})
        if len(kinds) > 1:
            rows += [_timing(f"{timer}.{k}", by_kind[k]) for k in kinds]
    rows.append(("pass_s", metrics.pass_seconds(times), "s", len(passes)))
    rows.append(("pass_ref", metrics.pass_seconds(per_call_times(passes, relative=True)), "ref", len(passes)))
    rows.append(_timing("ref_s", [t.ref for p in passes for t in p.values()]))
    estimates = [(c.method, passes[0][i].outcome, c.h_true, c.eta_true) for i, c in enumerate(calls) if c.h_true is not None]
    units = {"h_err_px_max": "px", "eta_err_deg_max": "deg", "err_max_tol": "tol"}
    has_vp = any(metrics.is_vp(m) for m, *_ in estimates)
    for name, value in metrics.trust(estimates).items():
        if name != "eta_err_deg_max" or has_vp:
            rows.append((name, value, units.get(name, "frac"), len(estimates)))
    rows.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1))
    return rows


def per_layer_rows(setup_tracer, untraced, traced, tracers):
    """(name, value, unit, sample count) of every per-layer metric, and problems."""
    per_pass = [tracing.pass_metrics(t.spans) for t in tracers]
    values = {}
    problems = []
    for name, unit in tracing.PASS_METRICS:
        samples = [m[name] for m in per_pass]
        if unit in EXACT_UNITS:
            if len(set(samples)) > 1:
                problems.append(f"{name} differs between traced passes: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values.update(tracing.setup_metrics(setup_tracer.spans))
    untraced_ref = metrics.pass_seconds(per_call_times(untraced, relative=True))
    values["trace.overhead_frac"] = metrics.pass_seconds(per_call_times(traced, relative=True)) / untraced_ref - 1.0
    setup_names = {name for name, _ in tracing.SETUP_METRICS}
    rows = [(name, values[name], unit, 1 if name in setup_names else len(tracers)) for name, unit in tracing.PER_LAYER]
    return rows, problems


def profile_notes(values):
    """How the traced profile compares with the expectations of the parent
    commit: symmetry_mse holds >= 90 % of FP_K time, sample_detector
    dominates VP."""
    notes = []
    fpk = values["fan_align.symmetry_mse.fpk_share"]
    if fpk:
        notes.append(f"profile: symmetry_mse holds {fpk:.1%} of FP_K time ({'>=' if fpk >= 0.9 else '<'} 90%)")
    vp = values["registration.sample_detector.vp_share"]
    if vp:
        notes.append(f"profile: sample_detector self time is {vp:.1%} of VP time ({'>' if vp > 0.5 else '<='} 50%)")
    notes.append(f"profile: {values['trace.untraced_share']:.3%} of estimate time is in no layer span")
    return notes


def print_report(title, env, rows, problems, notes):
    print(title)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':48} {'value':>14} {'unit':6} {'n':>5}")
    for name, value, unit, n in rows:
        print(f"{name:48} {value:14.6g} {unit:6} {n:5d}")
    for line in notes:
        print(line)
    for problem in problems:
        print(f"check failed: {problem}")


def run(args):
    build = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            setup_tracer = tracing.Tracer()
            with tracing.installed(setup_tracer), setup_tracer.span(tracing.SETUP):
                calls = build(workdir)
            untraced, traced, tracers = measure_traced(calls, args.seconds, args.seed, Reference())
            passes = untraced + traced
            rows, problems = per_layer_rows(setup_tracer, untraced, traced, tracers)
            names = tracing.PER_LAYER
            notes = profile_notes({name: value for name, value, _, _ in rows})
            record["spans"] = {
                "setup": [s.as_list() for s in setup_tracer.spans],
                "passes": [[s.as_list() for s in t.spans] for t in tracers],
            }
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                calls = None  # let the previous inputs go before building new ones
                start = time.perf_counter()
                calls = build(workdir)
                setup_times.append(time.perf_counter() - start)
            passes = measure(calls, args.seconds, args.seed, Reference())
            rows = end_to_end_rows(calls, passes, setup_times)
            problems, names, notes = [], END_TO_END, []
        problems = check_outcomes(calls, passes) + problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    outcomes = [t.outcome for p in passes for t in p.values()]
    values = {name: value for name, value, _, _ in rows}
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    record.update(
        environment=env,
        passes=len(passes),
        report=rows,
        problems=problems,
        estimates=[{"label": c.label, "method": c.method, **vars(passes[0][i].outcome)} for i, c in enumerate(calls)],
        times={c.label: [p[i].seconds for p in passes] for i, c in enumerate(calls)},
        ref_times={c.label: [p[i].ref for p in passes] for i, c in enumerate(calls)},
        result=result,
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    title = f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} passes={len(passes)}"
    print_report(title, env, rows, problems, notes)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload in turn, each in its own process so peak memory is its own."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run(args)
