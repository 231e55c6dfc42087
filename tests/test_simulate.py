"""Analytic projectors against an independent quadrature oracle and, bit for
bit, against the full-grid line integrals; phantom construction invariants,
and the detector sampler's resampling of a stack under the misalignment map."""

import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from ctalign import (
    ConeGeometry,
    FanGeometry,
    InstabilityModel,
    Phantom3D,
    ProjectionStack,
    cone_line_integral,
    cone_project,
    fan_project,
    make_disk_phantom,
    make_sphere_phantom,
    sample_detector,
    simulate,
    unit_disk_half_width,
)
from conftest import SOURCE_RADIUS, cone_geometry, fan_geometry

# the projectors' error for a shift of at least the width of a 16-pixel detector
OFF_THE_DETECTOR_16 = f"^{re.escape('|h| must be below the detector width, 15 px')}$"

# Frozen oracle: 2e7-point midpoint quadrature of the phantom indicator along
# each ray, computed once with an independent code path (no chord formulas).
# Quadrature residual is below 2e-7 at this density.  A fan phantom is spheres
# at y = 0, the background first; its fan rays are the cone rays at v = 0.
ORACLE_PHANTOM_2D = Phantom3D(
    spheres=(((0.0, 0.0, 0.0), 0.85, 1.0), ((0.3, 0.0, -0.2), 0.1, -1.0), ((-0.4, 0.0, 0.25), 0.15, 0.5)),
)
ORACLE_RAYS_2D = [
    (0.0, 0.0, 1.700000100),
    (0.37, 1.1, 1.340194350),
    (-0.52, 2.9, 1.369995000),
    (0.9, 4.2, 0.442281900),
    (1.1, 5.5, 0.000000000),
]

ORACLE_PHANTOM_3D = Phantom3D(
    spheres=(((0.2, 0.1, -0.3), 0.15, -1.0), ((-0.3, -0.25, 0.2), 0.2, 0.5)),
    cylinder=(0.8, 0.55, 1.0),
)
ORACLE_RAYS_3D = [
    (0.0, 0.0, 0.0, 1.600000050),
    (0.3, 0.2, 1.1, 1.306760895),
    (-0.5, -0.35, 2.9, 1.290536115),
    (0.8, 0.45, 4.2, 0.607053150),
]


# Features the shadow bounds must handle: a disk touching the unit circle
# that holds the source for views near beta = 0 when the source radius is 0.5
# or 0.95, a background that holds it at 0.5, and small and large disks.
EDGE_PHANTOM_2D = Phantom3D(
    spheres=(
        ((0.0, 0.0, 0.0), 0.85, 1.0),
        ((0.7, 0.0, 0.0), 0.3, -1.0),
        ((-0.3, 0.0, 0.5), 0.05, -0.5),
        ((0.0, 0.0, -0.6), 0.12, 2.0),
        ((-0.5, 0.0, -0.3), 0.02, -1.0),
    ),
)
EDGE_PHANTOM_3D = Phantom3D(
    spheres=(((0.7, 0.0, 0.0), 0.3, -1.0), ((-0.3, 0.4, 0.5), 0.05, -0.5), ((0.0, -0.5, -0.6), 0.12, 2.0)),
    cylinder=(0.85, 0.6, 1.0),
)
SOURCE_RADII = [0.5, 0.95, 1.05, 2.0, 10.0]


def half_width(source_radius):
    """Detector half-width: tangent to the unit disk when the source lies outside it."""
    return unit_disk_half_width(source_radius) if source_radius > 1.0 else 1.5


def full_grid_fan(phantom, geom, h):
    """cone_line_integral at every recorded (s - h, v = 0, beta) point."""
    s = geom.s_axis() - h * geom.pixel_size
    return cone_line_integral(phantom, geom.source_radius, s[None, :], 0.0, geom.beta_axis()[:, None])


def full_grid_cone(phantom, geom, h, eta):
    """cone_line_integral at every recorded pixel's true (u, v), view by view."""
    u, v = geom.u_axis() - h * geom.pixel_size, geom.v_axis()
    ut = u[None, :] * math.cos(eta) - v[:, None] * math.sin(eta)
    vt = u[None, :] * math.sin(eta) + v[:, None] * math.cos(eta)
    return np.stack([cone_line_integral(phantom, geom.source_radius, ut, vt, b) for b in geom.beta_axis()])


# The lab-frame per-ray formulas the projectors used before they moved to the
# source frame, kept as a test-only reference: every ray is rebuilt from its
# view angle and every feature is offset from the source in the lab frame.
def lab_ball(out, source, direction, center, radius, density):
    m = [p - c for p, c in zip(source, center)]
    tproj = sum((mi * di for mi, di in zip(m[1:], direction[1:])), m[0] * direction[0])
    under = radius * radius - (sum((mi * mi for mi in m[1:]), m[0] * m[0]) - tproj * tproj)
    out += density * (2.0 * np.sqrt(np.maximum(under, 0.0)))


def disks(phantom):
    """A fan phantom's spheres at y = 0 as disks ((x, z), radius, density) of
    the fan plane, in the order the projectors add them."""
    assert phantom.cylinder is None and all(y == 0.0 for (_, y, _), _, _ in phantom.spheres)
    return [((x, z), radius, density) for (x, _, z), radius, density in phantom.spheres]


def lab_fan(phantom, r, s, beta):
    s, beta = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(beta, dtype=float))
    cosb, sinb = np.cos(beta), np.sin(beta)
    srcx, srcy = r * cosb, r * sinb
    dx, dy = s * sinb - srcx, -s * cosb - srcy
    norm = np.hypot(dx, dy)
    out = np.zeros(s.shape)
    for disk in disks(phantom):
        lab_ball(out, (srcx, srcy), (dx / norm, dy / norm), *disk)
    return out


def lab_cylinder(cylinder, source, direction):
    radius, half_height, _ = cylinder
    (ax, _, az), (dx, dy, dz) = source, direction
    qa = dx * dx + dz * dz
    qb = 2.0 * (ax * dx + az * dz)
    qc = ax * ax + az * az - radius * radius
    root = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    with np.errstate(divide="ignore"):
        slab = half_height / np.abs(dy)
    lo = np.maximum((-qb - root) / (2.0 * qa), -slab)
    hi = np.minimum((-qb + root) / (2.0 * qa), slab)
    return np.maximum(hi - lo, 0.0)


def lab_cone(phantom, r, u, v, beta):
    u, v, beta = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (u, v, beta)))
    cosb, sinb = np.cos(beta), np.sin(beta)
    ax, ay, az = r * cosb, np.zeros_like(cosb), r * sinb
    dx, dy, dz = u * sinb - ax, v - ay, -u * cosb - az
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    source, direction = (ax, ay, az), (dx / norm, dy / norm, dz / norm)
    out = np.zeros(u.shape)
    if phantom.cylinder is not None:
        out += phantom.cylinder[2] * lab_cylinder(phantom.cylinder, source, direction)
    for ball in phantom.spheres:
        lab_ball(out, source, direction, *ball)
    return out


def tangent_columns(r, a, b, y, v, rho):
    """The detector columns u on row v whose rays pass at distance rho from a
    ball centre at depth a, offset b along u and height y in the source frame:
    the roots of |(a, y, b) x (r, v, u)|**2 = rho**2 * (r*r + v*v + u*u), a
    quadratic in u.  At v = y = 0 it is the fan's (a*u - b*r)**2 =
    rho**2 * (r*r + u*u), whose rho = R roots _shadow widens."""
    qa = a * a + y * y - rho * rho
    qb = -2.0 * b * (y * v + a * r)
    qc = b * b * (v * v + r * r) + (a * v - y * r) ** 2 - rho * rho * (r * r + v * v)
    disc = qb * qb - 4.0 * qa * qc
    return [] if qa <= 0.0 or disc < 0.0 else [(-qb + sign * math.sqrt(disc)) / (2.0 * qa) for sign in (-1.0, 1.0)]


def balls_and_cylinder(phantom):
    """The balls ((x, y, z), R) of a phantom and its cylinder or None."""
    return [(c, radius) for c, radius, _ in phantom.spheres], phantom.cylinder


def near_tangent(phantom, r, u, v, beta, band=0.1):
    """Whether each ray from the source at (r, beta) through detector point
    (u, v) passes within band * R of the tangent of some ball of radius R or
    of the cylinder's wall: there the chord amplifies rounding (TestSourceFrame)."""
    balls, cylinder = balls_and_cylinder(phantom)
    u, v, beta = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (u, v, beta)))
    source = np.stack([r * np.cos(beta), np.zeros_like(beta), r * np.sin(beta)], axis=-1)
    direction = np.stack([u * np.sin(beta), v, -u * np.cos(beta)], axis=-1) - source
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    near = np.zeros(u.shape, dtype=bool)
    for center, radius in balls:
        d = np.linalg.norm(np.cross(np.asarray(center) - source, direction), axis=-1)
        near |= np.abs(d - radius) < band * radius
    if cylinder is not None:  # the wall's distance from the axis against that of the line's x-z shadow
        (sx, _, sz), (dx, _, dz) = np.moveaxis(source, -1, 0), np.moveaxis(direction, -1, 0)
        near |= np.abs(np.abs(sx * dz - sz * dx) / np.hypot(dx, dz) - cylinder[0]) < band * cylinder[0]
    return near


class TestFanLineIntegral:
    """Fan rays: cone_line_integral on the row v = 0 of y = 0 spheres."""

    def test_central_chord_of_centered_disk(self):
        ph = Phantom3D(spheres=(((0.0, 0.0, 0.0), 0.5, 1.0),))
        assert cone_line_integral(ph, SOURCE_RADIUS, 0.0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_ray_beyond_tangent_is_zero(self):
        ph = Phantom3D(spheres=(((0.0, 0.0, 0.0), 0.5, 1.0),))
        assert cone_line_integral(ph, SOURCE_RADIUS, 1.1, 0.0, 2.0) == 0.0

    @pytest.mark.parametrize("s,beta,expected", ORACLE_RAYS_2D)
    def test_frozen_quadrature_oracle(self, s, beta, expected):
        got = cone_line_integral(ORACLE_PHANTOM_2D, SOURCE_RADIUS, s, 0.0, beta)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_live_midpoint_quadrature(self):
        """1e5-point midpoint rule along one fresh ray, recomputed in-test."""
        s, beta = 0.21, 3.7
        r = SOURCE_RADIUS
        src = np.array([r * math.cos(beta), r * math.sin(beta)])
        det = np.array([s * math.sin(beta), -s * math.cos(beta)])
        direction = (det - src) / np.linalg.norm(det - src)
        t = 0.5 + (np.arange(100_000) + 0.5) * 3.0 / 100_000
        pts = src[None, :] + t[:, None] * direction[None, :]
        centers, radii, densities = (np.array(column) for column in zip(*disks(ORACLE_PHANTOM_2D)))
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        total = (d2 <= radii[None, :] ** 2) @ densities
        quad = float(total.sum() * 3.0 / 100_000)
        got = cone_line_integral(ORACLE_PHANTOM_2D, SOURCE_RADIUS, s, 0.0, beta)
        assert got == pytest.approx(quad, abs=2e-4)

    @pytest.mark.parametrize("source_radius", [0.0, -1.0, math.nan, math.inf])
    def test_source_radius_must_be_positive_and_finite(self, source_radius):
        with pytest.raises(ValueError, match="source_radius must be positive and finite"):
            cone_line_integral(ORACLE_PHANTOM_2D, source_radius, 0.0, 0.0, 0.0)

    def test_broadcasting(self):
        s = np.linspace(-1.0, 1.0, 5)[None, :]
        beta = np.linspace(0.0, 6.0, 3)[:, None]
        out = cone_line_integral(ORACLE_PHANTOM_2D, SOURCE_RADIUS, s, 0.0, beta)
        assert out.shape == (3, 5)


class TestConeLineIntegral:
    def test_central_chord_of_centered_sphere(self):
        ph = Phantom3D(spheres=(((0.0, 0.0, 0.0), 0.5, 1.0),))
        assert cone_line_integral(ph, SOURCE_RADIUS, 0.0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("u,v,beta,expected", ORACLE_RAYS_3D)
    def test_frozen_quadrature_oracle(self, u, v, beta, expected):
        got = cone_line_integral(ORACLE_PHANTOM_3D, SOURCE_RADIUS, u, v, beta)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_ray_parallel_to_cylinder_wall_region(self):
        # far off-detector ray misses the cylinder entirely
        assert cone_line_integral(ORACLE_PHANTOM_3D, SOURCE_RADIUS, 1.15, 0.0, 0.7) == 0.0

    @pytest.mark.parametrize("source_radius", [0.0, -1.0, math.nan, math.inf])
    def test_source_radius_must_be_positive_and_finite(self, source_radius):
        with pytest.raises(ValueError, match="source_radius must be positive and finite"):
            cone_line_integral(ORACLE_PHANTOM_3D, source_radius, 0.0, 0.0, 0.0)


CYLINDER = (0.8, 0.55, 1.0)  # (radius R, half height hh, density)


class TestCylinderChord:
    """The lone cylinder against closed forms.  The ray from the source
    (r, 0, 0) through the detector point (0, v, 0) meets the axis; at
    distance t from the source it is at x = r - t*r/L, y = t*v/L with
    L = hypot(r, v), so |x| <= R is (r - R)*L/r <= t <= (r + R)*L/r and
    |y| <= hh is |t| <= hh*L/|v|."""

    @pytest.mark.parametrize("source_radius", [2.0, 10.0])
    @pytest.mark.parametrize("v", [0.0, 0.2, -0.2, 0.5, 0.8, 1.0])
    def test_ray_through_the_axis(self, source_radius, v):
        radius, half_height, _ = CYLINDER
        r, length = source_radius, math.hypot(source_radius, v)
        slab = half_height * length / abs(v) if v else math.inf
        want = max(0.0, min((r + radius) * length / r, slab) - (r - radius) * length / r)
        got = cone_line_integral(Phantom3D(spheres=(), cylinder=CYLINDER), r, 0.0, v, 0.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("source_radius", [0.5, 0.95, 2.0, 10.0])
    def test_central_row_is_the_fan_disk(self, source_radius):
        u = np.linspace(-1.5, 1.5, 31)[None, :]
        beta = np.linspace(0.0, 6.0, 7)[:, None]
        got = cone_line_integral(Phantom3D(spheres=(), cylinder=CYLINDER), source_radius, u, 0.0, beta)
        disk = Phantom3D(spheres=(((0.0, 0.0, 0.0), CYLINDER[0], 1.0),))
        want = cone_line_integral(disk, source_radius, u, 0.0, beta)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_source_inside_the_cylinder(self):
        got = cone_line_integral(Phantom3D(spheres=(), cylinder=CYLINDER), 0.5, 0.0, 0.0, 0.0)
        assert got == pytest.approx(2.0 * CYLINDER[0], rel=1e-12, abs=1e-12)


class TestPhantomConstruction:
    def test_disk_outside_unit_disk_rejected(self):
        with pytest.raises(ValueError, match="phantom support must stay inside the unit cylinder"):
            Phantom3D(spheres=(((0.8, 0.0, 0.8), 0.3, 1.0),))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="sphere radii must be positive"):
            Phantom3D(spheres=(((0.0, 0.0, 0.0), -0.1, 1.0),))

    def test_sphere_outside_unit_cylinder_rejected(self):
        with pytest.raises(ValueError):
            Phantom3D(spheres=(((0.95, 0.0, 0.0), 0.2, 1.0),))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Phantom3D(spheres=(((0.0, 0.0, 0.0), 0.85, math.nan),)), "densities must be finite"),
            (lambda: Phantom3D(spheres=(((0.0, 0.0, 0.0), 0.1, -math.inf),)), "densities must be finite"),
            (lambda: Phantom3D(spheres=(), cylinder=(0.8, 0.55, math.nan)), "densities must be finite"),
            (lambda: Phantom3D(spheres=(), cylinder=(1.2, 0.55, 1.0)), "cylinder needs 0 < radius <= 1"),
            (lambda: Phantom3D(spheres=(), cylinder=(0.8, 0.0, 1.0)), "cylinder needs 0 < radius <= 1"),
            (lambda: Phantom3D(spheres=(((0.0, 0.0, 0.0), 0.0, 1.0),)), "sphere radii must be positive"),
        ],
    )
    def test_invalid_features_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: make_disk_phantom(0, n_disks=-1), "n_disks must be an integer of at least 0"),
            (lambda: make_sphere_phantom(0, n_spheres=-1), "n_spheres must be an integer of at least 0"),
            (lambda: make_disk_phantom(1, n_disks=2.5), "n_disks must be an integer of at least 0"),
            (lambda: make_sphere_phantom(1, n_spheres=2.5), "n_spheres must be an integer of at least 0"),
            (lambda: make_disk_phantom(1, n_disks=3.0), "n_disks must be an integer of at least 0"),
        ],
    )
    def test_builder_arguments_checked(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_make_disk_phantom_zero_disks(self):
        ph = make_disk_phantom(0, n_disks=0)
        assert ph.spheres == (((0.0, 0.0, 0.0), 0.85, 1.0),)
        assert ph.cylinder is None

    def test_make_disk_phantom_deterministic(self):
        assert make_disk_phantom(42).spheres == make_disk_phantom(42).spheres

    def test_make_disk_phantom_disjoint_50(self, monkeypatch):
        """Spheres at y = 0, the enclosing one first, then disjoint voids inside it."""
        monkeypatch.setattr(simulate, "_DISK_RADII", (0.01, 0.1))
        background, *voids = make_disk_phantom(1, n_disks=50).spheres
        assert background == ((0.0, 0.0, 0.0), 0.85, 1.0)
        assert len(voids) == 50
        for i in range(len(voids)):
            ((x1, y1, z1), r1, d1) = voids[i]
            assert y1 == 0.0
            assert math.hypot(x1, z1) + r1 <= 0.85 + 1e-12
            assert d1 == -1.0
            for j in range(i + 1, len(voids)):
                (c2, r2, _) = voids[j]
                assert math.dist((x1, y1, z1), c2) > r1 + r2

    def test_make_disk_phantom_impossible_placement(self, monkeypatch):
        monkeypatch.setattr(simulate, "_DISK_RADII", (0.4, 0.4))
        with pytest.raises(ValueError, match="could not place 5 non-overlapping disks"):
            make_disk_phantom(0, n_disks=5)

    def test_unplaceable_phantom_fails_fast(self):
        """Placement gives up after a run of rejected draws, not after a
        budget that grows with the feature count."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="could not place 500 non-overlapping disks: 1000 draws in a row"):
            make_disk_phantom(0, n_disks=500)
        assert time.perf_counter() - start < 5.0

    def test_phantoms_keep_their_random_stream(self, monkeypatch):
        last = make_disk_phantom(1).spheres[-1]
        assert last == ((-0.3646840380209633, 0.0, 0.3997743238543247), 0.04190043581051353, -1.0)
        assert make_sphere_phantom(1).spheres[-1] == (
            (0.3142280282792345, 0.3516894823939615, -0.5996061293159707),
            0.09387679097223511,
            -1.0,
        )
        monkeypatch.setattr(simulate, "_DISK_RADII", (0.01, 0.1))
        dense = make_disk_phantom(1, n_disks=50)
        assert dense.spheres[-1] == ((0.42400624967453476, 0.0, 0.05753133374872293), 0.08960693784563017, -1.0)

    def test_make_sphere_phantom_deterministic_and_disjoint(self):
        ph = make_sphere_phantom(3)
        assert ph.spheres == make_sphere_phantom(3).spheres
        spheres = ph.spheres
        for i in range(len(spheres)):
            (c1, r1, _) = spheres[i]
            assert math.hypot(c1[0], c1[2]) + r1 <= 0.8 + 1e-12
            assert abs(c1[1]) + r1 <= 0.55 + 1e-12
            for j in range(i + 1, len(spheres)):
                (c2, r2, _) = spheres[j]
                assert math.dist(c1, c2) > r1 + r2


class TestInstabilityModel:
    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            InstabilityModel(-0.1)

    def test_formula_at_origin(self):
        # sin(0) + cos(0) + 2 = 3
        assert InstabilityModel(0.01).evaluate(0.0, 0.0, 1.0) == pytest.approx(0.03)

    def test_nonnegative_on_grid(self):
        geom = fan_geometry(64)
        b = InstabilityModel(0.01).evaluate(geom.s_axis()[None, :], geom.beta_axis()[:, None], geom.s_max)
        assert np.all(b >= 0.0)


class TestFanProject:
    def test_instability_added_on_recorded_grid(self):
        geom = fan_geometry(64)
        ph = make_disk_phantom(5, n_disks=10)
        inst = InstabilityModel(0.01)
        clean = fan_project(ph, geom, h=3.0)
        noisy = fan_project(ph, geom, h=3.0, instability=inst)
        expected = inst.evaluate(geom.s_axis()[None, :], geom.beta_axis()[:, None], geom.s_max)
        assert np.allclose(noisy.values - clean.values, expected, atol=1e-12)

    def test_integer_shift_moves_columns(self):
        geom = fan_geometry(64)
        ph = make_disk_phantom(5, n_disks=10)
        g0 = fan_project(ph, geom, h=0.0).values
        g4 = fan_project(ph, geom, h=4.0).values
        assert np.allclose(g4[:, 4:], g0[:, :-4], atol=1e-9)

    def test_linear_in_density(self):
        geom = fan_geometry(32)
        ph = ORACLE_PHANTOM_2D
        doubled = Phantom3D(spheres=tuple((c, r, 2 * d) for c, r, d in ph.spheres))
        assert np.allclose(fan_project(doubled, geom).values, 2.0 * fan_project(ph, geom).values, rtol=1e-13)

    def test_sum_of_phantoms_projects_to_sum(self):
        geom = fan_geometry(32)
        pa = Phantom3D(spheres=(((0.2, 0.0, 0.1), 0.2, 1.0),))
        pb = Phantom3D(spheres=(((-0.3, 0.0, -0.2), 0.25, 0.7),))
        both = Phantom3D(spheres=pa.spheres + pb.spheres)
        assert np.allclose(
            fan_project(both, geom).values,
            fan_project(pa, geom).values + fan_project(pb, geom).values,
            rtol=1e-13,
        )

    def test_deterministic(self):
        geom = fan_geometry(32)
        ph = make_disk_phantom(9, n_disks=8)
        assert np.array_equal(fan_project(ph, geom, h=2.0).values, fan_project(ph, geom, h=2.0).values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
    def test_non_finite_h_rejected(self, h):
        with pytest.raises(ValueError, match="h must be finite"):
            fan_project(make_disk_phantom(9, n_disks=8), fan_geometry(16), h=h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [15.0, -15.0, 1e300])
    def test_shift_off_the_detector_rejected(self, h):
        """|h| of at least the detector width, n - 1 px, moves the whole support off it."""
        with pytest.raises(ValueError, match=OFF_THE_DETECTOR_16):
            fan_project(make_disk_phantom(9, n_disks=8), fan_geometry(16), h=h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [14.9, -14.9])
    def test_shift_just_inside_the_detector_accepted(self, h):
        assert fan_project(make_disk_phantom(9, n_disks=8), fan_geometry(16), h=h).values.shape == (16, 16)

    @pytest.mark.parametrize(
        "n, source_radius, h",
        [(33, r, h) for r in SOURCE_RADII for h in (0.0, 4.0, -7.3, 20.0)]
        + [(17, 2.0, h) for h in (0.0, -7.3, 9.0)]
        + [(256, 2.0, h) for h in (4.0, -7.3, 150.0)],
    )
    def test_equals_full_grid_line_integral(self, n, source_radius, h):
        """Each disk read on its shadow only, bit for bit the full grid; the
        largest shifts push part of the support off the detector."""
        geom = FanGeometry(source_radius, n, half_width(source_radius), n)
        for ph in (EDGE_PHANTOM_2D, make_disk_phantom(2)):
            assert np.array_equal(fan_project(ph, geom, h=h).values, full_grid_fan(ph, geom, h))

    def test_far_source_rounding_stays_inside_the_bound(self):
        """With the source 1e5 away, the full-grid formula's cancellation gives
        a 1e-6 disk nonzero chords beyond its exact shadow and margin."""
        ph = Phantom3D(spheres=(((-0.15, 0.0, -0.18), 1e-6, 0.6), ((0.3, 0.0, 0.1), 0.01, -1.0)))
        geom = FanGeometry(1e5, 75, 0.02, 39)
        assert np.array_equal(fan_project(ph, geom, h=14.8).values, full_grid_fan(ph, geom, 14.8))

    @pytest.mark.parametrize("h", [-2.5, 9.0])
    @pytest.mark.parametrize("source_radius", [0.5, 2.0])
    @pytest.mark.parametrize("block_points", [50, 2000])
    def test_chunks_of_views_join_exactly(self, monkeypatch, block_points, source_radius, h):
        """Chunks of whole views give the full grid: at 50 points each view of
        the background (23 to 33 columns) is a chunk of its own and a small
        disk's chunks hold a few views; at 2000 the background's 96 views fill
        two chunks, the last one short.  h = 9 pushes the background's shadow
        past the last column; at r = 0.5 the source lies inside the background."""
        monkeypatch.setattr(simulate, "_BLOCK_POINTS", block_points)
        geom = FanGeometry(source_radius, 33, half_width(source_radius), 96)
        ph = make_disk_phantom(4)
        want = full_grid_fan(ph, geom, h)
        assert h < 0.0 or np.all(want[:, -1] != 0.0)
        assert np.array_equal(fan_project(ph, geom, h=h).values, want)

    def test_peak_memory_near_the_output(self):
        """Chunks of points bound the working memory: a 1024^2 projection
        allocates at most 1.75 times its output, the output included; the
        container freezes the output without copying it."""
        geom = fan_geometry(1024)
        ph = make_disk_phantom(1)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fan_project(ph, geom, h=40.0).values
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 1.75 * out.nbytes


def equatorial_slice(ph3):
    """The fan phantom seen by the v = 0 fan of a 3D phantom: each sphere
    that meets y = 0 as a y = 0 sphere of its cross-section's radius
    sqrt(R**2 - y**2), and the cylinder as a sphere of its radius, first."""
    spheres = []
    if ph3.cylinder is not None:
        spheres.append(((0.0, 0.0, 0.0), ph3.cylinder[0], ph3.cylinder[2]))
    for (cx, cy, cz), radius, density in ph3.spheres:
        if abs(cy) < radius:
            spheres.append(((cx, 0.0, cz), math.sqrt(radius * radius - cy * cy), density))
    return Phantom3D(spheres=tuple(spheres))


class TestConeProject:
    def test_equatorial_row_equals_fan_projection(self):
        """v = 0 slice of the cone acquisition is exactly the 2D fan problem."""
        geom3 = cone_geometry(33)  # odd row count puts v = 0 on the grid
        ph3 = make_sphere_phantom(4, n_spheres=12)
        stack = cone_project(ph3, geom3, h=0.0, eta=0.0)
        fan = fan_project(equatorial_slice(ph3), geom3.central_fan(), h=0.0)
        mid = geom3.n_v // 2
        assert geom3.v_axis()[mid] == 0.0
        assert np.allclose(stack.values[:, mid, :], fan.values, atol=1e-12)

    def test_eta_bounds_enforced(self):
        geom3 = cone_geometry(8)
        ph3 = make_sphere_phantom(0, n_spheres=2)
        with pytest.raises(ValueError):
            cone_project(ph3, geom3, eta=math.pi / 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
    def test_non_finite_h_rejected(self, h):
        with pytest.raises(ValueError, match="h must be finite"):
            cone_project(make_sphere_phantom(0, n_spheres=2), cone_geometry(8), h=h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [15.0, -15.0, 1e300])
    def test_shift_off_the_detector_rejected(self, h):
        """|h| of at least the detector width, n_u - 1 px, moves the whole support off it."""
        with pytest.raises(ValueError, match=OFF_THE_DETECTOR_16):
            cone_project(make_sphere_phantom(0, n_spheres=2), cone_geometry(16), h=h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [14.9, -14.9])
    def test_shift_just_inside_the_detector_accepted(self, h):
        assert cone_project(make_sphere_phantom(0, n_spheres=2), cone_geometry(16), h=h).values.shape == (16, 16, 16)

    def test_instability_constant_in_v(self):
        geom3 = cone_geometry(16)
        ph3 = make_sphere_phantom(0, n_spheres=3)
        inst = InstabilityModel(0.02)
        diff = cone_project(ph3, geom3, instability=inst).values - cone_project(ph3, geom3).values
        assert np.allclose(diff, diff[:, :1, :], atol=1e-14)
        expected = inst.evaluate(geom3.u_axis()[None, :], geom3.beta_axis()[:, None], geom3.u_max)
        assert np.allclose(diff[:, 0, :], expected, atol=1e-12)

    @pytest.mark.parametrize("cylinder", [True, False], ids=["cylinder", "spheres_only"])
    @pytest.mark.parametrize("eta", [0.0, math.radians(5.0), math.radians(-30.0)])
    @pytest.mark.parametrize("h", [0.0, 3.5, -6.0])
    def test_equals_full_grid_line_integral(self, cylinder, eta, h):
        """Each sphere read on its window only, bit for bit the full views."""
        ph = make_sphere_phantom(4, n_spheres=12)
        if not cylinder:
            ph = Phantom3D(spheres=ph.spheres)
        geom = cone_geometry(17)
        assert np.array_equal(cone_project(ph, geom, h=h, eta=eta).values, full_grid_cone(ph, geom, h, eta))

    @pytest.mark.parametrize("source_radius", SOURCE_RADII)
    def test_equals_full_grid_line_integral_any_source(self, source_radius):
        """Sources inside the cylinder and inside a sphere included."""
        width = half_width(source_radius)
        geom = ConeGeometry(source_radius, 19, 15, width, width, 16)
        for h, eta in ((0.0, 0.0), (-6.0, math.radians(-30.0)), (2.5, math.radians(5.0))):
            got = cone_project(EDGE_PHANTOM_3D, geom, h=h, eta=eta).values
            assert np.array_equal(got, full_grid_cone(EDGE_PHANTOM_3D, geom, h, eta))

    @pytest.mark.parametrize("block_points", [50, 2000])
    def test_chunks_of_views_join_exactly(self, monkeypatch, block_points):
        """Chunks of whole views give the full grid: at 50 points nearly every
        view holds more and is a chunk of its own; at 2000 a chunk spans many
        views and each sphere's last one is short.  h = -6 pushes the large
        sphere's shadow off the detector edge in some views."""
        monkeypatch.setattr(simulate, "_BLOCK_POINTS", block_points)
        geom, h, eta = cone_geometry(24), -6.0, math.radians(-7.0)
        got = cone_project(EDGE_PHANTOM_3D, geom, h=h, eta=eta).values
        assert np.array_equal(got, full_grid_cone(EDGE_PHANTOM_3D, geom, h, eta))

    def test_peak_memory_near_the_output(self):
        """Chunks of points bound the working memory: a 128^3 stack allocates
        at most 1.75 times its output, the output included; the container
        freezes the output without copying it."""
        geom = cone_geometry(128)
        ph = make_sphere_phantom(1)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = cone_project(ph, geom, h=10.0, eta=math.radians(1.0)).values
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 1.75 * out.nbytes

    def test_rotation_mixes_axes(self):
        geom3 = cone_geometry(24)
        ph3 = make_sphere_phantom(2, n_spheres=6)
        plain = cone_project(ph3, geom3, h=0.0, eta=0.0)
        tilted = cone_project(ph3, geom3, h=0.0, eta=math.radians(5.0))
        assert not np.allclose(plain.values, tilted.values, atol=1e-3)


class TestSourceFrame:
    """The source-frame projectors and line integrals against the lab-frame
    reference.  Both frames round R**2 - d**2 to a few ulps of |source -
    centre|**2 <= (r + 1)**2, and the chord 2*sqrt(R**2 - d**2) turns that
    into an error of about eps * (r + 1)**2 / sqrt(R**2 - d**2).  Away from the
    tangents the two agree within 1e-12; on rays just inside a tangent they part
    by that bound instead (up to 1e-10 at r = 10)."""

    @pytest.mark.parametrize("source_radius", [0.5, 2.0])
    def test_fan_line_integral_on_random_rays(self, source_radius):
        rng = np.random.default_rng(7)
        s, beta = rng.uniform(-1.5, 1.5, 4000), rng.uniform(0.0, 2.0 * math.pi, 4000)
        for ph in (EDGE_PHANTOM_2D, make_disk_phantom(1)):
            keep = ~near_tangent(ph, source_radius, s, 0.0, beta)
            got = cone_line_integral(ph, source_radius, s[keep], 0.0, beta[keep])
            np.testing.assert_allclose(got, lab_fan(ph, source_radius, s[keep], beta[keep]), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("source_radius", [0.5, 2.0])
    def test_cone_line_integral_on_random_rays(self, source_radius):
        rng = np.random.default_rng(8)
        u, v, beta = rng.uniform(-1.5, 1.5, 4000), rng.uniform(-1.2, 1.2, 4000), rng.uniform(0.0, 2.0 * math.pi, 4000)
        for ph in (EDGE_PHANTOM_3D, make_sphere_phantom(1)):
            keep = ~near_tangent(ph, source_radius, u, v, beta)
            got = cone_line_integral(ph, source_radius, u[keep], v[keep], beta[keep])
            want = lab_cone(ph, source_radius, u[keep], v[keep], beta[keep])
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("eta", [math.radians(5.0), math.radians(-30.0)])
    def test_tilted_cone_project(self, eta):
        """A rotated detector: every recorded pixel away from a tangent."""
        ph, geom, h = make_sphere_phantom(4, n_spheres=12), cone_geometry(24), 3.5
        u, v = geom.u_axis() - h * geom.pixel_size, geom.v_axis()
        ut = u[None, :] * math.cos(eta) - v[:, None] * math.sin(eta)
        vt = u[None, :] * math.sin(eta) + v[:, None] * math.cos(eta)
        beta = geom.beta_axis()[:, None, None]
        keep = ~near_tangent(ph, geom.source_radius, ut, vt, beta)
        got = cone_project(ph, geom, h=h, eta=eta).values
        want = lab_cone(ph, geom.source_radius, ut, vt, beta)
        assert keep.mean() > 0.5
        np.testing.assert_allclose(got[keep], want[keep], rtol=0.0, atol=1e-12)

    @staticmethod
    def near_tangent_rays(phantom, r, rows):
        """(u, v, beta, half chord) of rays at distance R * (1 -+ 1e-3) from
        each ball's centre or from the cylinder's axis, in 13 views.  Ball rays
        lie on the given rows, as fractions of the row r * y / a of the centre
        at depth a and height y; cylinder rays on the rows 0 and 0.2."""
        balls, cylinder = balls_and_cylinder(phantom)
        rays = []
        for beta, depth in itertools.product(np.linspace(0.1, 6.1, 13), (1e-3, -1e-3)):
            for (x, y, z), radius in balls:
                a, b = r - (x * math.cos(beta) + z * math.sin(beta)), x * math.sin(beta) - z * math.cos(beta)
                rho = radius * (1.0 - depth)
                half = math.sqrt(max(radius * radius - rho * rho, 0.0))
                for v in (row * r * y / a for row in rows):
                    rays += [(u, v, beta, half) for u in tangent_columns(r, a, b, y, v, rho)]
            if cylinder is not None and r > cylinder[0]:  # r * |u| / hypot(r, u) = rho
                rho = cylinder[0] * (1.0 - depth)
                half, u = math.sqrt(max(cylinder[0] ** 2 - rho * rho, 0.0)), rho * r / math.sqrt(r * r - rho * rho)
                rays += [(sign * u, v, beta, half) for sign, v in itertools.product((-1.0, 1.0), (0.0, 0.2))]
        return np.array(rays).T

    @pytest.mark.parametrize("source_radius", [0.5, 2.0])
    def test_near_tangent_rays(self, source_radius):
        """Just outside a tangent both frames read no chord of that ball, and
        agree within 1e-12; just inside, within the rounding bound."""
        r = source_radius
        for ph, rows in ((EDGE_PHANTOM_2D, [0.0]), (EDGE_PHANTOM_3D, [0.0, 0.5, 1.0, 1.5])):
            u, v, beta, half = self.near_tangent_rays(ph, r, rows)
            got = cone_line_integral(ph, r, u, v, beta)
            want = lab_fan(ph, r, u, beta) if ph is EDGE_PHANTOM_2D else lab_cone(ph, r, u, v, beta)
            outside = half == 0.0
            assert outside.sum() >= 50 and (~outside).sum() >= 50
            np.testing.assert_allclose(got[outside], want[outside], rtol=0.0, atol=1e-12)
            bound = 1e-12 + 8.0 * np.finfo(float).eps * (r + 1.0) ** 2 / half[~outside]
            assert np.all(np.abs(got - want)[~outside] <= bound)

    @pytest.mark.parametrize("h, eta", [(0.0, 0.0), (2.5, math.radians(-30.0))])
    def test_cylinder_view_is_the_same_in_every_view(self, h, eta):
        stack = cone_project(Phantom3D(spheres=(), cylinder=CYLINDER), cone_geometry(17), h=h, eta=eta).values
        assert stack[0].max() > 1.0
        assert all(view.tobytes() == stack[0].tobytes() for view in stack)

    @pytest.mark.parametrize("seed, h", [(1, 0.0), (2, 3.5), (3, -6.0)])
    def test_fan_is_the_mid_plane_row_of_cone(self, seed, h):
        """A fan phantom, spheres at y = 0: the v = 0 row of its cone stack
        (odd row count) is its fan sinogram, bit for bit with the background
        as a sphere, and within 1e-12 with the background as a cylinder."""
        spheres = make_disk_phantom(seed)
        ((_, background_radius, density), *voids) = spheres.spheres
        cylinder = Phantom3D(spheres=tuple(voids), cylinder=(background_radius, 0.55, density))
        for n in (33, 65):
            geom = cone_geometry(n)
            mid = geom.n_v // 2
            assert geom.v_axis()[mid] == 0.0
            fan = fan_project(spheres, geom.central_fan(), h=h).values
            assert np.array_equal(cone_project(spheres, geom, h=h).values[:, mid, :], fan)
            got = cone_project(cylinder, geom, h=h).values[:, mid, :]
            np.testing.assert_allclose(got, fan, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [33, 65])
    @pytest.mark.parametrize("h", [0.0, 3.5, -6.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fan_of_any_phantom_is_the_v0_row_of_its_cone(self, seed, h, n):
        """fan_project takes any Phantom3D: a cylinder and spheres off y = 0
        give the v = 0 row of the cone stack bit for bit."""
        ph, geom = make_sphere_phantom(seed), cone_geometry(n)
        mid = geom.n_v // 2
        assert geom.v_axis()[mid] == 0.0
        fan = fan_project(ph, geom.central_fan(), h=h).values
        assert np.array_equal(fan, cone_project(ph, geom, h=h).values[:, mid, :])


def misaligned_grid(geom, h, eta, rotate_first=False):
    """The detector points (uq, vq) that recorded pixel (u, v) reads under a
    shift h (pixels) and an in-plane rotation eta.  Default order, the
    misalignment map: uq + i*vq = ((u - h) + i*v) * exp(i*eta).  With
    rotate_first the rotation acts first, then the shift; a default-order map
    followed by a rotate_first map with (-h, -eta) is the identity."""
    h_u = h * geom.pixel_size
    cose, sine = math.cos(eta), math.sin(eta)
    u = geom.u_axis()[None, :]
    v = geom.v_axis()[:, None]
    if rotate_first:
        return u * cose - v * sine - h_u, u * sine + v * cose
    return (u - h_u) * cose - v * sine, (u - h_u) * sine + v * cose


def resample(stack, h, eta, rotate_first=False):
    """The stack resampled under misaligned_grid by the detector sampler's
    one all-views read: bilinear per view, zero fill off the detector."""
    uq, vq = misaligned_grid(stack.geometry, h, eta, rotate_first)
    return ProjectionStack(stack.geometry, sample_detector(stack, uq, vq, None))


def per_view_resample_shift_rotate(stack, h, eta, rotate_first=False):
    """resample as a loop of one per-point sampler read per stored view: the
    reference for its one all-views read."""
    uq, vq = misaligned_grid(stack.geometry, h, eta, rotate_first)
    values = np.empty_like(stack.values)
    for j, b in enumerate(stack.geometry.beta_axis()):
        values[j] = sample_detector(stack, uq, vq, b)
    return values


class TestResampleShiftRotate:
    """Resampling a stack under a detector shift and rotation, which the
    package does only through sample_detector: its all-views read against
    per-view reads, its exact cases, and its agreement with the projector's
    geometric misalignment."""

    @pytest.mark.parametrize("rotate_first", [False, True])
    @pytest.mark.parametrize("h, eta", [(0.0, 0.0), (3.0, 0.0), (2.5, math.radians(2.0)), (-1.7, -0.3)])
    def test_matches_per_view_reads(self, rotate_first, h, eta):
        stack = cone_project(make_sphere_phantom(3, n_spheres=6), cone_geometry(24))
        out = resample(stack, h, eta, rotate_first=rotate_first)
        want = per_view_resample_shift_rotate(stack, h, eta, rotate_first=rotate_first)
        assert out.values.tobytes() == want.tobytes()

    def test_identity(self, ref_stack):
        out = resample(ref_stack, 0.0, 0.0)
        assert np.array_equal(out.values, ref_stack.values)

    def test_integer_shift_exact_with_zero_fill(self):
        geom3 = cone_geometry(16)
        ph3 = make_sphere_phantom(1, n_spheres=4)
        stack = cone_project(ph3, geom3)
        out = resample(stack, 3.0, 0.0)
        assert np.array_equal(out.values[:, :, 3:], stack.values[:, :, :-3])
        assert np.all(out.values[:, :, :3] == 0.0)

    def test_round_trip_interior(self, ref_stack):
        """Misalign then invert: interior returns to 1e-2 relative (L2)."""
        fwd = resample(ref_stack, 2.5, math.radians(2.0))
        back = resample(fwd, -2.5, math.radians(-2.0), rotate_first=True)
        margin = 12
        inner = (slice(None), slice(margin, -margin), slice(margin, -margin))
        diff = back.values[inner] - ref_stack.values[inner]
        assert np.linalg.norm(diff) <= 1e-2 * np.linalg.norm(ref_stack.values[inner])

    def test_geometry_and_resampling_paths_agree(self):
        """Shift/rotation injected in geometry vs applied by resampling."""
        geom3 = cone_geometry(64)
        ph3 = make_sphere_phantom(6, n_spheres=10)
        aligned = cone_project(ph3, geom3)
        in_geometry = cone_project(ph3, geom3, h=2.0, eta=math.radians(1.0))
        by_resampling = per_view_resample_shift_rotate(aligned, 2.0, math.radians(1.0))
        margin = 8
        inner = (slice(None), slice(margin, -margin), slice(margin, -margin))
        diff = by_resampling[inner] - in_geometry.values[inner]
        assert np.linalg.norm(diff) <= 1e-2 * np.linalg.norm(in_geometry.values[inner])
