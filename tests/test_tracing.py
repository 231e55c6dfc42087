"""The contract between the package and the benchmark's tracer
(perfbench.tracing): a traced run gives the same result as an untraced one,
and every fixed-point solve shows up as one fan_align.fixed_point_shift span
whose iteration count is the one the driver returned."""

import pytest

import ctalign.cli  # noqa: F401  (tracing.installed rebinds names in every ctalign module)
from ctalign import (
    FanAlignConfig,
    VPConfig,
    align_fp,
    align_fp_k,
    cone_project,
    fan_project,
    make_disk_phantom,
    make_sphere_phantom,
    variable_projection,
)
from ctalign import cone_align, fan_align
from conftest import ETA_TRUE, cone_geometry, fan_geometry
from perfbench import tracing
from perfbench.tracing import ESTIMATE

SPAN = "fan_align.fixed_point_shift"


def fan_64():
    return fan_project(make_disk_phantom(1), fan_geometry(64), h=2.5)


def stack_32():
    return cone_project(make_sphere_phantom(1, n_spheres=20), cone_geometry(32), h=2.5, eta=ETA_TRUE)


CASES = {
    "FP": (fan_64, lambda sino: align_fp(sino, FanAlignConfig())),
    "FP_K": (fan_64, lambda sino: align_fp_k(sino, FanAlignConfig())),
    "VP-FP_K": (stack_32, lambda stack: variable_projection(stack, VPConfig(inner_method="fp_k"))),
}


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

    monkeypatch.setattr(fan_align, "fixed_point_shift", recording)
    monkeypatch.setattr(cone_align, "fixed_point_shift", recording)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.span(ESTIMATE, method=method):
            traced = estimate(data)

    assert repr(traced) == repr(untraced)
    assert returned and all(type(iterations) is int for iterations in returned)
    spans = [span.info["iterations"] for span in tracer.spans if span.name == SPAN]
    assert spans == returned
    if method != "VP-FP_K":
        assert returned == [traced.iterations]
