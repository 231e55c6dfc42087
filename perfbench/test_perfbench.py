"""Tests of the benchmark's own arithmetic: medians, span self time, the
trust classification at the gate's boundaries, and the wrappers of the
traced run."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics, tracing
from perfbench.metrics import Outcome
from perfbench.tracing import ESTIMATE, Span


def test_median_n_reports_sample_count():
    assert metrics.median_n([9.0, 1.0, 2.0]) == (2.0, 3)
    assert metrics.median_n([10.0, 1.0, 3.0, 2.0]) == (2.5, 4)
    assert metrics.median_n(iter([7.0])) == (7.0, 1)
    with pytest.raises(ValueError):
        metrics.median_n([])


def test_pass_seconds_sums_per_call_medians():
    assert metrics.pass_seconds({0: [1.0, 3.0, 2.0], 1: [0.5, 0.5, 9.0]}) == 2.5


def test_per_call_times_divide_by_reference_when_relative():
    from perfbench.bench import Timed, per_call_times

    passes = [{0: Timed(2.0, 0.5, Outcome()), 1: Timed(1.0, 0.25, Outcome())}, {0: Timed(3.0, 1.0, Outcome())}]
    assert per_call_times(passes) == {0: [2.0, 3.0], 1: [1.0]}
    assert per_call_times(passes, relative=True) == {0: [4.0, 3.0], 1: [4.0]}


def test_reference_sample_is_a_positive_time():
    from perfbench.reference import Reference

    t = Reference().sample()
    assert math.isfinite(t) and 0.0 < t < 10.0


def _span(id, parent, name, start, end, estimate=None, **info):
    return Span(id, parent, name, start, end, estimate, info)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 6.0),  # overlaps a: [1, 6] is covered once
        _span(3, 1, "leaf", 2.0, 3.0),
        _span(4, 0, "c", 9.0, 12.0),  # only [9, 10] lies inside root
    ]
    own = tracing.self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_covered_handles_disjoint_touching_and_outside_intervals():
    assert tracing.covered(0.0, 10.0, []) == 0.0
    assert tracing.covered(0.0, 10.0, [(1.0, 2.0), (2.0, 3.0), (5.0, 6.0)]) == 3.0
    assert tracing.covered(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 0.0


def test_pass_metrics_on_a_hand_built_tree():
    spans = [
        _span(0, None, ESTIMATE, 0.0, 10.0, 0, method="FP_K"),
        _span(1, 0, "fan_align.align", 0.0, 10.0, 0),
        _span(2, 1, "fan_align.symmetry_mse", 1.0, 10.0, 0),
        _span(3, 2, "fan_align.reflected_resampling", 2.0, 9.0, 0),
        _span(4, 3, "registration.sample_periodic", 3.0, 8.0, 0, points=100),
        _span(5, None, ESTIMATE, 20.0, 24.0, 5, method="VP-2DR"),
        _span(6, 5, "cone_align.variable_projection", 20.0, 23.0, 5, outer_iterations=3),
        _span(7, 6, "cone_align.lambda_eta", 20.0, 21.0, 5, eta=0.0),
        _span(8, 7, "registration.sample_detector", 20.0, 21.0, 5, points=50),
        _span(9, 6, "cone_align.lambda_eta", 21.0, 22.0, 5, eta=0.0),
        _span(10, 6, "cone_align.lambda_eta", 22.0, 22.5, 5, eta=0.1),
    ]
    m = tracing.pass_metrics(spans)
    assert m["registration.sample_periodic.calls"] == 1
    assert m["registration.sample_periodic.points"] == 100
    assert m["registration.sample_periodic.self_s"] == 5.0
    assert m["fan_align.symmetry_mse.self_s"] == 2.0
    assert m["fan_align.align.self_s"] == 1.0
    assert m["fan_align.symmetry_mse.calls_per_estimate"] == 0.5
    assert m["fan_align.symmetry_mse.fpk_share"] == 0.9  # 9 s of the 10 s FP_K estimate
    assert m["registration.sample_detector.vp_share"] == 0.25  # 1 s of the 4 s VP estimate
    assert m["cone_align.lambda_eta.calls_per_distinct_eta"] == 1.5  # 3 calls, 2 angles
    assert m["cone_align.variable_projection.outer_iterations"] == 3
    assert m["cone_align.variable_projection.self_s"] == 0.5
    assert m["cone_align.inner_h.calls"] == 0
    assert m["cone_align.inner_h.calls_per_vp"] == 0.0
    assert m["trace.untraced_share"] == pytest.approx(1.0 / 14.0)  # [23, 24] of 14 s
    assert set(m) == {name for name, _ in tracing.PASS_METRICS}


FAN = dict(eta=0.0, converged=True)


@pytest.mark.parametrize(
    "method, outcome, h_true, eta_true, expected",
    [
        ("FP", Outcome(h=0.1, **FAN), 0.0, 0.0, "ok"),
        ("FP", Outcome(h=math.nextafter(0.1, 1.0), **FAN), 0.0, 0.0, "wrong_unflagged"),
        ("2DR", Outcome(h=-0.1, **FAN), 0.0, 0.0, "ok"),
        ("LY", Outcome(h=10.125, **FAN), 10.0, 0.0, "wrong_unflagged"),
        ("Yang", Outcome(h=0.15, **FAN), 0.0, 0.0, "ok"),
        ("Yang", Outcome(h=math.nextafter(0.15, 1.0), **FAN), 0.0, 0.0, "wrong_unflagged"),
        ("FP_K", Outcome(h=0.15, **FAN), 0.0, 0.0, "wrong_unflagged"),
        ("VP-2DR", Outcome(h=0.15, eta=metrics.ETA_TOL_RAD, converged=True), 0.0, 0.0, "ok"),
        ("VP-FP_K", Outcome(h=0.0, eta=math.nextafter(metrics.ETA_TOL_RAD, 1.0), converged=True), 0.0, 0.0,
         "wrong_unflagged"),
        ("VP-FP_K", Outcome(h=math.nextafter(0.15, 1.0), eta=0.0, converged=True), 0.0, 0.0, "wrong_unflagged"),
        ("VP-2DR", Outcome(h=5.0, eta=0.5, converged=False), 0.0, 0.0, "unconverged"),
        ("FP", Outcome(converged=False), 0.0, 0.0, "unconverged"),
        ("FP", Outcome(failure="AmbiguousShiftError: zero"), 0.0, 0.0, "failed"),
    ],
)
def test_classification_at_gate_boundaries(method, outcome, h_true, eta_true, expected):
    assert metrics.classify(method, outcome, h_true, eta_true) == expected


def test_trust_fractions_and_errors():
    estimates = [
        ("FP", Outcome(h=10.0, **FAN), 10.0, 0.0),  # ok
        ("Yang", Outcome(h=10.2, **FAN), 10.0, 0.0),  # wrong, unflagged
        ("VP-2DR", Outcome(h=10.0, eta=0.03, converged=False), 10.0, 0.0),  # flagged
        ("FP_K", Outcome(failure="ValueError: x"), 10.0, 0.0),  # raised
    ]
    t = metrics.trust(estimates)
    assert t["wrong_unflagged_frac"] == 0.25
    assert t["unconverged_frac"] == 0.25
    assert t["failed_frac"] == 0.25
    assert t["converged_frac"] == 0.5
    assert t["returned_frac"] == 0.75
    assert t["honest_frac"] == 0.75
    assert t["h_err_px_max"] == pytest.approx(0.2)
    assert t["eta_err_deg_max"] == pytest.approx(math.degrees(0.03))
    assert t["err_max_tol"] == pytest.approx(0.03 / metrics.ETA_TOL_RAD)


def test_installed_wraps_every_binding_and_restores_them():
    from ctalign import cli, cone_align, fan_align, registration
    from ctalign.core import FanGeometry, Sinogram
    from ctalign.fan_align import FanAlignConfig

    before = (fan_align.sample_periodic, cone_align.symmetry_mse, cli.align_fan, dict(fan_align._ESTIMATORS))
    geom = FanGeometry(2.0, 32, 1.1, 32)
    sino = Sinogram(geom, np.exp(-(geom.s_axis()[None, :] - 0.1) ** 2 * 8.0) * np.ones((32, 1)))
    untraced = fan_align.align_fan(sino, FanAlignConfig(method="FP"))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cone_align.symmetry_mse is not before[1]
        with tracer.span(ESTIMATE, method="FP"):
            traced = fan_align.align_fan(sino, FanAlignConfig(method="FP"))
    assert repr(traced) == repr(untraced)
    names = [s.name for s in tracer.spans]
    assert names.count("fan_align.align") == 2  # align_fan and the estimator table entry
    assert "fan_align.fixed_point_shift" in names
    assert "registration.sample_periodic" in names
    assert all(s.estimate == 0 for s in tracer.spans)
    assert (fan_align.sample_periodic, cone_align.symmetry_mse, cli.align_fan) == before[:3]
    assert fan_align._ESTIMATORS == before[3]
    assert registration.sample_periodic is fan_align.sample_periodic


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert declared == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
