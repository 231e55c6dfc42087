"""Analytic projectors against an independent quadrature oracle, phantom
construction invariants, and the resampling path."""

import math

import numpy as np
import pytest

from ctalign import (
    InstabilityModel,
    Phantom2D,
    Phantom3D,
    cone_line_integral,
    cone_project,
    fan_line_integral,
    fan_project,
    make_disk_phantom,
    make_sphere_phantom,
    resample_shift_rotate,
    sample_detector,
)
from conftest import SOURCE_RADIUS, cone_geometry, fan_geometry

# Frozen oracle: 2e7-point midpoint quadrature of the phantom indicator along
# each ray, computed once with an independent code path (no chord formulas).
# Quadrature residual is below 2e-7 at this density.
ORACLE_PHANTOM_2D = Phantom2D(
    disks=(((0.3, -0.2), 0.1, -1.0), ((-0.4, 0.25), 0.15, 0.5)),
    background=((0.0, 0.0), 0.85, 1.0),
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


class TestFanLineIntegral:
    def test_central_chord_of_centered_disk(self):
        ph = Phantom2D(disks=(((0.0, 0.0), 0.5, 1.0),))
        assert fan_line_integral(ph, SOURCE_RADIUS, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_ray_beyond_tangent_is_zero(self):
        ph = Phantom2D(disks=(((0.0, 0.0), 0.5, 1.0),))
        assert fan_line_integral(ph, SOURCE_RADIUS, 1.1, 2.0) == 0.0

    @pytest.mark.parametrize("s,beta,expected", ORACLE_RAYS_2D)
    def test_frozen_quadrature_oracle(self, s, beta, expected):
        got = fan_line_integral(ORACLE_PHANTOM_2D, SOURCE_RADIUS, s, beta)
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
        centers, radii, densities = ORACLE_PHANTOM_2D.component_arrays()
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        total = (d2 <= radii[None, :] ** 2) @ densities
        quad = float(total.sum() * 3.0 / 100_000)
        got = fan_line_integral(ORACLE_PHANTOM_2D, SOURCE_RADIUS, s, beta)
        assert got == pytest.approx(quad, abs=2e-4)

    def test_broadcasting(self):
        s = np.linspace(-1.0, 1.0, 5)[None, :]
        beta = np.linspace(0.0, 6.0, 3)[:, None]
        out = fan_line_integral(ORACLE_PHANTOM_2D, SOURCE_RADIUS, s, beta)
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


class TestPhantomConstruction:
    def test_disk_outside_unit_disk_rejected(self):
        with pytest.raises(ValueError):
            Phantom2D(disks=(((0.8, 0.8), 0.3, 1.0),))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            Phantom2D(disks=(((0.0, 0.0), 0.0, 1.0),))

    def test_sphere_outside_unit_cylinder_rejected(self):
        with pytest.raises(ValueError):
            Phantom3D(spheres=(((0.95, 0.0, 0.0), 0.2, 1.0),))

    def test_make_disk_phantom_zero_disks(self):
        ph = make_disk_phantom(0, n_disks=0)
        assert ph.disks == ()
        assert ph.background is not None

    def test_make_disk_phantom_deterministic(self):
        assert make_disk_phantom(42).disks == make_disk_phantom(42).disks

    def test_make_disk_phantom_disjoint_50(self):
        ph = make_disk_phantom(1, n_disks=50, radius_range=(0.01, 0.1))
        disks = ph.disks
        assert len(disks) == 50
        for i in range(len(disks)):
            (c1, r1, d1) = disks[i]
            assert math.hypot(*c1) + r1 <= 0.85 + 1e-12
            assert d1 == -1.0
            for j in range(i + 1, len(disks)):
                (c2, r2, _) = disks[j]
                assert math.hypot(c1[0] - c2[0], c1[1] - c2[1]) > r1 + r2

    def test_make_disk_phantom_impossible_placement(self):
        with pytest.raises(RuntimeError):
            make_disk_phantom(0, n_disks=5, radius_range=(0.4, 0.4))

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
        doubled = Phantom2D(
            disks=tuple((c, r, 2 * d) for c, r, d in ph.disks),
            background=(ph.background[0], ph.background[1], 2 * ph.background[2]),
        )
        assert np.allclose(fan_project(doubled, geom).values, 2.0 * fan_project(ph, geom).values, rtol=1e-13)

    def test_sum_of_phantoms_projects_to_sum(self):
        geom = fan_geometry(32)
        pa = Phantom2D(disks=(((0.2, 0.1), 0.2, 1.0),))
        pb = Phantom2D(disks=(((-0.3, -0.2), 0.25, 0.7),))
        both = Phantom2D(disks=pa.disks + pb.disks)
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


def equatorial_slice(ph3):
    """The 2D phantom seen by the v = 0 fan of a 3D phantom."""
    disks = []
    for (cx, cy, cz), radius, density in ph3.spheres:
        if abs(cy) < radius:
            disks.append(((cx, cz), math.sqrt(radius * radius - cy * cy), density))
    background = None
    if ph3.cylinder is not None:
        background = ((0.0, 0.0), ph3.cylinder[0], ph3.cylinder[2])
    return Phantom2D(disks=tuple(disks), background=background)


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

    def test_instability_constant_in_v(self):
        geom3 = cone_geometry(16)
        ph3 = make_sphere_phantom(0, n_spheres=3)
        inst = InstabilityModel(0.02)
        diff = cone_project(ph3, geom3, instability=inst).values - cone_project(ph3, geom3).values
        assert np.allclose(diff, diff[:, :1, :], atol=1e-14)
        expected = inst.evaluate(geom3.u_axis()[None, :], geom3.beta_axis()[:, None], geom3.u_max)
        assert np.allclose(diff[:, 0, :], expected, atol=1e-12)

    def test_rotation_mixes_axes(self):
        geom3 = cone_geometry(24)
        ph3 = make_sphere_phantom(2, n_spheres=6)
        plain = cone_project(ph3, geom3, h=0.0, eta=0.0)
        tilted = cone_project(ph3, geom3, h=0.0, eta=math.radians(5.0))
        assert not np.allclose(plain.values, tilted.values, atol=1e-3)


def per_view_resample_shift_rotate(stack, h, eta, rotate_first=False):
    """resample_shift_rotate as a loop of one per-point sampler read per
    stored view: the reference for its one all-views read."""
    geom = stack.geometry
    h_u = geom.px_to_u(h)
    cose, sine = math.cos(eta), math.sin(eta)
    u = geom.u_axis()[None, :]
    v = geom.v_axis()[:, None]
    if rotate_first:
        uq, vq = u * cose - v * sine - h_u, u * sine + v * cose
    else:
        uq, vq = (u - h_u) * cose - v * sine, (u - h_u) * sine + v * cose
    values = np.empty_like(stack.values)
    for j, b in enumerate(geom.beta_axis()):
        values[j] = sample_detector(stack, uq, vq, b)
    return values


class TestResampleShiftRotate:
    @pytest.mark.parametrize("rotate_first", [False, True])
    @pytest.mark.parametrize("h, eta", [(0.0, 0.0), (3.0, 0.0), (2.5, math.radians(2.0)), (-1.7, -0.3)])
    def test_matches_per_view_reads(self, rotate_first, h, eta):
        stack = cone_project(make_sphere_phantom(3, n_spheres=6), cone_geometry(24))
        out = resample_shift_rotate(stack, h, eta, rotate_first=rotate_first)
        want = per_view_resample_shift_rotate(stack, h, eta, rotate_first=rotate_first)
        assert out.values.tobytes() == want.tobytes()

    def test_identity(self, ref_stack):
        out = resample_shift_rotate(ref_stack, 0.0, 0.0)
        assert np.array_equal(out.values, ref_stack.values)

    def test_integer_shift_exact_with_zero_fill(self):
        geom3 = cone_geometry(16)
        ph3 = make_sphere_phantom(1, n_spheres=4)
        stack = cone_project(ph3, geom3)
        out = resample_shift_rotate(stack, 3.0, 0.0)
        assert np.array_equal(out.values[:, :, 3:], stack.values[:, :, :-3])
        assert np.all(out.values[:, :, :3] == 0.0)

    def test_round_trip_interior(self, ref_stack):
        """Misalign then invert: interior returns to 1e-2 relative (L2)."""
        fwd = resample_shift_rotate(ref_stack, 2.5, math.radians(2.0))
        back = resample_shift_rotate(fwd, -2.5, math.radians(-2.0), rotate_first=True)
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
        by_resampling = resample_shift_rotate(aligned, 2.0, math.radians(1.0))
        margin = 8
        inner = (slice(None), slice(margin, -margin), slice(margin, -margin))
        diff = by_resampling.values[inner] - in_geometry.values[inner]
        assert np.linalg.norm(diff) <= 1e-2 * np.linalg.norm(in_geometry.values[inner])
