"""Shared simulation fixtures, reference samplers, the reference zero-padded
peak refinement and a reference sequential median-of-K fixed-point solve.

The reference fan protocol is 256 detector samples x 256 views, source
radius 2, detector half-width tangent to the unit disk, a seeded 30-void
phantom, and a 10-pixel shift; the cone protocol is its 128^3 analogue with
a 1-degree detector rotation on top.  Both are session-scoped: every test
that needs realistic data reuses the same arrays.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ctalign import (
    ConeGeometry,
    FanGeometry,
    cone_project,
    fan_project,
    make_disk_phantom,
    make_sphere_phantom,
    unit_disk_half_width,
)
from ctalign.fan_align import fixed_point_shift, reflect
from ctalign.registration import (
    UPSAMPLE,
    AmbiguousShiftError,
    _axis_weights,
    _beta_weights,
    _lerp,
    xcorr_shift_1d,
)

SOURCE_RADIUS = 2.0
H_TRUE = 10.0
ETA_TRUE = math.radians(1.0)


def fan_case_id(method):
    """Test id of a fan method's case: align_ and the method tag in lower case."""
    return f"align_{method.lower()}"


def fan_geometry(n):
    return FanGeometry(SOURCE_RADIUS, n, unit_disk_half_width(SOURCE_RADIUS), n)


def cone_geometry(n):
    width = unit_disk_half_width(SOURCE_RADIUS)
    return ConeGeometry(SOURCE_RADIUS, n, n, width, width, n)


@pytest.fixture(scope="session")
def ref_phantom():
    return make_disk_phantom(1, n_disks=30)


@pytest.fixture(scope="session")
def ref_geom():
    return fan_geometry(256)


@pytest.fixture(scope="session")
def ref_sino(ref_phantom, ref_geom):
    """Misaligned reference sinogram: h = 10 px, no instability."""
    return fan_project(ref_phantom, ref_geom, h=H_TRUE)


@pytest.fixture(scope="session")
def aligned_sino(ref_phantom, ref_geom):
    return fan_project(ref_phantom, ref_geom, h=0.0)


@pytest.fixture(scope="session")
def ref_stack():
    """Misaligned reference stack: h = 10 px, eta = 1 degree, 128^3."""
    phantom = make_sphere_phantom(1, n_spheres=20)
    return cone_project(phantom, cone_geometry(128), h=H_TRUE, eta=ETA_TRUE)


def _coordinates(*coords):
    """The coordinates as float arrays of at least one dimension (in-place
    arithmetic needs arrays, not scalars) and their broadcast shape."""
    coords = [np.asarray(c, dtype=float) for c in coords]
    return np.atleast_1d(*coords), np.broadcast_shapes(*(c.shape for c in coords))


def _gather(flat, row, corner):
    """flat[row + offset] for a corner (offset, off-grid mask), the index
    taken modulo the size, zero where the corner is off the grid."""
    offset, off = corner
    v = flat.take(row + offset, mode="wrap")
    v[np.broadcast_to(off, v.shape)] = 0.0
    return v


def upper_view(j0, n, stride):
    """The flat offset of the view after the one at flat offset j0, on a periodic axis of n views."""
    j1 = j0 + stride
    j1[j1 >= n * stride] -= n * stride
    return j1


def two_plane_periodic(sino, s, beta):
    """sample_periodic with every axis always read and blended (both view
    planes, both detector neighbours): the reference for its skip of an
    axis whose weight is 0 at every point."""
    (s, beta), shape = _coordinates(s, beta)
    geom = sino.geometry
    flat = sino.values.ravel()
    s0, s1, w = _axis_weights(s, -geom.s_max, geom.pixel_size, geom.n_s, 1)
    j0, t = _beta_weights(beta, geom.n_beta, geom.n_s)
    j1 = upper_view(j0, geom.n_beta, geom.n_s)
    lo = _lerp(_gather(flat, j0, s0), _gather(flat, j0, s1), w)
    hi = _lerp(_gather(flat, j1, s0), _gather(flat, j1, s1), w)
    out = _lerp(lo, hi, t)
    return float(out[0]) if shape == () else out


def two_plane_detector(stack, u, v, beta):
    """sample_detector with every axis always read and blended."""
    (u, v, beta), shape = _coordinates(u, v, beta)
    geom = stack.geometry
    flat = stack.values.ravel()
    u0, u1, wu = _axis_weights(u, -geom.u_max, geom.pixel_size, geom.n_u, 1)
    v0, v1, wv = _axis_weights(v, -geom.v_max, geom.pixel_size_v, geom.n_v, geom.n_u)
    j0, t = _beta_weights(beta, geom.n_beta, geom.n_v * geom.n_u)
    j1 = upper_view(j0, geom.n_beta, geom.n_v * geom.n_u)
    corners = [(iv + iu, offv | offu) for iv, offv in (v0, v1) for iu, offu in (u0, u1)]

    def plane(j):
        c00, c01, c10, c11 = (_gather(flat, j, corner) for corner in corners)
        return _lerp(_lerp(c00, c01, wu), _lerp(c10, c11, wu), wv)

    out = _lerp(plane(j0), plane(j1), t)
    return float(out[0]) if shape == () else out


def shift_columns(values, offset):
    """Each column of a view-major array read at its own view-angle offset:
    out[j, i] = values_i(b_j + offset_i), linear and 2*pi-periodic in the
    view angle, from one (view, weight) pair per column."""
    n, m = values.shape
    k, f = _beta_weights(np.broadcast_to(np.asarray(offset, dtype=float), (m,)), n, 1)
    rows = (np.arange(n)[:, None] + k) % n
    cols = np.arange(m)
    return _lerp(values[rows, cols], values[(rows + 1) % n, cols], f)


def two_stage_periodic(sino, s, beta, view_offset=None, against=None, spectrum=None):
    """sample_periodic with the all-views read (beta=None) in two stages:
    the two-plane read at every stored view, then each column shifted by
    its view offset.  The reference for the blocked all-views read; it
    returns the read itself, so it takes no against and no spectrum."""
    assert against is None and spectrum is None
    if beta is not None:
        return two_plane_periodic(sino, s, beta)
    grid = two_plane_periodic(sino, s, sino.geometry.beta_axis()[:, None])
    return grid if view_offset is None else shift_columns(grid, view_offset)


def two_stage_detector(stack, u, v, beta):
    """sample_detector with the all-views read as the two-plane read at every
    stored view; u and v are 1-D."""
    return two_plane_detector(stack, u, v, stack.geometry.beta_axis()[:, None] if beta is None else beta)


def zero_padded_peak(c):
    """_refined_peak by zero-padding: per row of c, the first argmax of the whole band-limited correlation on the
    1/UPSAMPLE grid, from its spectrum zero-padded to UPSAMPLE times the length (the Nyquist bin of an even length
    split between +/- Nyquist), unwrapped to (-N/2, N/2], in samples.  The reference for the window search, which
    equals it wherever the fine maximum lies within 2 samples of the coarse one."""
    n = c.shape[-1]
    m = n * UPSAMPLE
    spec = np.fft.rfft(c)
    if n % 2 == 0:
        spec[..., n // 2] *= 0.5
    padded = np.zeros(c.shape[:-1] + (m // 2 + 1,), dtype=complex)
    padded[..., : spec.shape[-1]] = spec
    fine = np.fft.irfft(padded, n=m, axis=-1) * UPSAMPLE
    peak = np.argmax(fine, axis=-1)
    peak = np.where(2 * peak > m, peak - m, peak)
    return peak / UPSAMPLE


def lockstep_median_fixed_point(sino, cfg):
    """fixed_point_shift from the cfg.K FP_K starts, returned in the (h, runs)
    shape of sequential_median_fixed_point: each run is (start number, h_j,
    iterations, converged)."""
    h, _, _, runs = fixed_point_shift(sino, cfg)
    return h, runs


def sequential_median_fixed_point(sino, cfg):
    """fixed_point_shift from the cfg.K FP_K starts with its runs one after
    another, each a scalar fixed-point loop on one view that stops when an
    update moves h by less than 0.01 px: the reference for the lockstep
    runs and their exact-zero stop rule.  Start j is at view
    round(j * n_beta / K) mod n_beta."""
    geom = sino.geometry
    runs = []
    for j in range(cfg.K):
        idx = int(round(j * geom.n_beta / cfg.K)) % geom.n_beta
        beta0 = idx * geom.beta_step
        h = 0.0
        try:
            for k in range(1, cfg.max_iter + 1):
                # the stop rule in literals, apart from the package: an update under 0.01 px
                h_new = h + 0.5 * xcorr_shift_1d(sino.values[idx], reflect(sino, h, beta0))
                converged = abs(h_new - h) < 0.01
                h = h_new
                if converged:
                    break
        except AmbiguousShiftError:
            continue
        runs.append((j, h, k, converged))
    if not runs:
        raise AmbiguousShiftError("every fixed-point start failed")
    ordered = sorted(h_j for _, h_j, _, _ in runs)
    return ordered[(len(ordered) - 1) // 2], runs


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the positional
    arguments of each call; returns the list of records."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def traced_peak(fn, *args):
    """(the tracemalloc peak of fn(*args) above what was allocated before, its result)."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        if started:
            tracemalloc.stop()
