"""The contract between the package and the benchmark's tracer
(perfbench.tracing): every layer function it rebinds exists, a traced run
gives the same result as an untraced one, and every fixed-point solve shows
up as one fan_align.fixed_point_shift span whose iteration count is the one
that call returned."""

import importlib

import pytest

import ctalign.cli  # noqa: F401  (tracing.installed rebinds names in every ctalign module)
from ctalign import (
    FanAlignConfig,
    VPConfig,
    align_fan,
    cone_project,
    fan_project,
    make_disk_phantom,
    make_sphere_phantom,
    variable_projection,
)
from ctalign import fan_align
from conftest import ETA_TRUE, cone_geometry, fan_geometry
from perfbench import tracing
from perfbench.tracing import ESTIMATE

SPAN = "fan_align.fixed_point_shift"


def fan_64():
    return fan_project(make_disk_phantom(1), fan_geometry(64), h=2.5)


def stack_32():
    return cone_project(make_sphere_phantom(1, n_spheres=20), cone_geometry(32), h=2.5, eta=ETA_TRUE)


CASES = {
    "FP": (fan_64, lambda sino: align_fan(sino, FanAlignConfig(method="FP"))),
    "FP_K": (fan_64, lambda sino: align_fan(sino, FanAlignConfig(method="FP_K"))),
    "VP-2DR": (stack_32, lambda stack: variable_projection(stack, VPConfig(inner_method="2dr"))),
    "VP-FP_K": (stack_32, lambda stack: variable_projection(stack, VPConfig(inner_method="fp_k"))),
}


@pytest.mark.parametrize("name, module, attr", [entry[:3] for entry in tracing.LAYER_FUNCTIONS])
def test_every_layer_function_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), name


@pytest.mark.parametrize("method", list(CASES))
def test_traced_run_matches_and_counts_iterations(method, monkeypatch):
    make_data, estimate = CASES[method]
    data = make_data()
    untraced = estimate(data)

    returned = []  # the iteration count of each driver call
    driver = fan_align.fixed_point_shift

    def recording(*args, **kwargs):
        result = driver(*args, **kwargs)
        returned.append(result[1])
        return result

    for name in tracing.MODULES:  # every binding of the driver, as tracing.installed rebinds them
        module = importlib.import_module(name)
        if getattr(module, "fixed_point_shift", None) is driver:
            monkeypatch.setattr(module, "fixed_point_shift", recording)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.span(ESTIMATE, method=method):
            traced = estimate(data)

    assert repr(traced) == repr(untraced)
    assert bool(returned) == (method != "VP-2DR")  # the 2DR inner solve has no fixed point
    assert all(type(iterations) is int for iterations in returned)
    spans = [span.info["iterations"] for span in tracer.spans if span.name == SPAN]
    assert spans == returned
    if not method.startswith("VP"):
        assert returned == [traced.iterations]
