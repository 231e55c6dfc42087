"""Cone-beam variable projection: tilted resamplings, reduced loss and
gradient, and the full (h, eta) descent against a brute-force grid oracle."""

import math

import numpy as np
import pytest

from ctalign import (
    ConeGeometry,
    FanAlignConfig,
    ProjectionStack,
    Sinogram,
    VPConfig,
    align_2dr,
    align_fp_k,
    cone_line_integral,
    cone_project,
    fan_project,
    inner_h,
    lambda_eta,
    loss_L,
    make_disk_phantom,
    make_sphere_phantom,
    pi_h_eta,
    reduced_gradient,
    reflected_resampling,
    sample_detector,
    unit_disk_half_width,
    variable_projection,
)
from ctalign import cone_align, fan_align
from conftest import (
    ETA_TRUE,
    H_TRUE,
    SOURCE_RADIUS,
    cone_geometry,
    count_calls,
    fan_geometry,
    lockstep_median_fixed_point,
    sequential_median_fixed_point,
    two_plane_detector,
)

INNER = ["2dr", "fp_k"]


@pytest.fixture(scope="module")
def ref_phantom_3d():
    return make_sphere_phantom(1, n_spheres=20)


@pytest.fixture(scope="module")
def aligned_stack(ref_phantom_3d):
    return cone_project(ref_phantom_3d, cone_geometry(128))


@pytest.fixture(scope="module")
def shift_only_stack(ref_phantom_3d):
    """h = 10 px, eta = 0: reduces to the fan problem on the central row."""
    return cone_project(ref_phantom_3d, cone_geometry(128), h=H_TRUE, eta=0.0)


@pytest.fixture(scope="module")
def odd_row_stack():
    """Small stack with an odd row count so v = 0 is a grid row."""
    half = unit_disk_half_width(SOURCE_RADIUS)
    geom = ConeGeometry(SOURCE_RADIUS, 65, 65, half, half, 64)
    return cone_project(make_sphere_phantom(5, n_spheres=14), geom, h=10.0, eta=0.0)


class TestLambdaEta:
    def test_eta_zero_is_central_row(self, odd_row_stack):
        out = lambda_eta(odd_row_stack, 0.0, 0.0)
        assert np.array_equal(out, odd_row_stack.values[:, 32, :])

    def test_h_argument_has_no_effect(self, odd_row_stack):
        a = lambda_eta(odd_row_stack, 0.0, 0.01)
        b = lambda_eta(odd_row_stack, 7.0, 0.01)
        assert np.array_equal(a, b)

    def test_matches_rotated_detector_reprojection(self):
        """Tilted extraction vs an analytically rotated detector."""
        geom = cone_geometry(64)
        ph = make_sphere_phantom(3, n_spheres=10)
        stack = cone_project(ph, geom)
        eta = math.radians(1.0)
        lam = lambda_eta(stack, 0.0, eta)
        q = geom.u_axis()[None, :]
        beta = geom.beta_axis()[:, None]
        oracle = cone_line_integral(ph, SOURCE_RADIUS, q * math.cos(eta), -q * math.sin(eta), beta)
        assert np.linalg.norm(lam - oracle) <= 1e-2 * np.linalg.norm(oracle)


class TestPiHEta:
    def test_equals_lambda_on_aligned_stack(self, aligned_stack):
        lam = lambda_eta(aligned_stack, 0.0, 0.0)
        pi = pi_h_eta(aligned_stack, 0.0, 0.0)
        assert np.linalg.norm(pi - lam) <= 1e-2 * np.linalg.norm(lam)

    def test_equals_lambda_at_true_misalignment(self, ref_stack):
        lam = lambda_eta(ref_stack, H_TRUE, ETA_TRUE)
        pi = pi_h_eta(ref_stack, H_TRUE, ETA_TRUE)
        assert np.linalg.norm(pi - lam) <= 1e-2 * np.linalg.norm(lam)

    def test_beta_independent_input_gives_beta_independent_output(self):
        half = unit_disk_half_width(SOURCE_RADIUS)
        geom = ConeGeometry(SOURCE_RADIUS, 17, 9, half, 0.8 * half, 12)
        rng = np.random.default_rng(2)
        plane = rng.uniform(0.1, 1.0, size=(9, 17))
        stack = ProjectionStack(geom, np.broadcast_to(plane, (12, 9, 17)).copy())
        pi = pi_h_eta(stack, 1.5, 0.05)
        # the angular term varies with beta but samples identical planes
        assert np.allclose(pi, pi[:1, :], atol=1e-12)


class TestViewShiftPath:
    """pi_h_eta reads the tilted detector path on the stored views and then
    shifts each column along beta; it agrees with the full-grid formula, and
    lambda_eta is that read with no shift."""

    @pytest.fixture(scope="class", params=[5, 7, 64, 256])
    def stack(self, request):
        half = unit_disk_half_width(SOURCE_RADIUS)
        geom = ConeGeometry(SOURCE_RADIUS, 33, 9, half, 0.8 * half, request.param)
        rng = np.random.default_rng(request.param)
        return ProjectionStack(geom, rng.uniform(0.5, 2.0, size=(request.param, 9, 33)))

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    @pytest.mark.parametrize("h", [0.0, 2.37, -2.37, 0.6 * 33])
    def test_pi_matches_full_grid_formula(self, stack, h, eta):
        geom = stack.geometry
        q = geom.u_axis()
        h_u = geom.px_to_u(h)
        x = -q + 2.0 * h_u
        beta = geom.beta_axis()[:, None] + math.pi + 2.0 * np.arctan((q - h_u) / geom.source_radius)
        want = sample_detector(stack, x * math.cos(eta), -x * math.sin(eta), beta)
        got = pi_h_eta(stack, h, eta)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(stack.values))

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    def test_lambda_is_the_two_plane_read(self, stack, eta):
        geom = stack.geometry
        q = geom.u_axis()
        want = two_plane_detector(stack, q * math.cos(eta), -q * math.sin(eta), geom.beta_axis()[:, None])
        assert np.array_equal(lambda_eta(stack, 0.0, eta), want)


class TestLossL:
    def test_aligned_loss_at_interpolation_floor(self, aligned_stack):
        energy = float(np.sum(lambda_eta(aligned_stack, 0.0, 0.0) ** 2))
        assert loss_L(aligned_stack, 0.0, 0.0) <= 1e-4 * energy

    def test_truth_beats_offset_probes(self, ref_stack):
        at_truth = loss_L(ref_stack, H_TRUE, ETA_TRUE)
        assert at_truth < loss_L(ref_stack, H_TRUE + 2.0, ETA_TRUE)
        assert at_truth < loss_L(ref_stack, H_TRUE, ETA_TRUE + math.radians(0.5))

    def test_coarse_grid_minimum_near_truth(self, ref_stack):
        best = (math.inf, None, None)
        for eta in np.radians(np.arange(0.0, 2.0 + 1e-9, 0.25)):
            lam = lambda_eta(ref_stack, 0.0, eta)
            for h in np.arange(5.0, 15.0 + 1e-9, 1.0):
                val = float(np.sum((lam - pi_h_eta(ref_stack, h, eta)) ** 2))
                if val < best[0]:
                    best = (val, h, eta)
        assert best[1] == pytest.approx(H_TRUE, abs=0.5)
        assert best[2] == pytest.approx(ETA_TRUE, abs=math.radians(0.25))


class TestInnerH:
    @pytest.mark.parametrize("method", INNER)
    def test_zero_on_aligned_stack(self, method, aligned_stack):
        assert inner_h(aligned_stack, 0.0, VPConfig(inner_method=method)) == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("method", INNER)
    def test_shift_only_misalignment_reduces_to_fan_problem(self, method, shift_only_stack):
        h = inner_h(shift_only_stack, 0.0, VPConfig(inner_method=method))
        assert h == pytest.approx(H_TRUE, abs=0.1)

    @pytest.mark.parametrize("method", INNER)
    def test_recovers_shift_at_true_angle(self, method, ref_stack):
        h = inner_h(ref_stack, ETA_TRUE, VPConfig(inner_method=method))
        assert h == pytest.approx(H_TRUE, abs=0.15)


@pytest.fixture(scope="module")
def small_stack():
    """32^3 stack, h = 2.5 px, eta = 1 degree."""
    return cone_project(make_sphere_phantom(1, n_spheres=20), cone_geometry(32), h=2.5, eta=ETA_TRUE)


def tilted_pair(stack, eta):
    """The fixed_point_shift inputs of the fp_k inner solve at eta."""
    return lambda_eta(stack, 0.0, eta), stack.geometry.central_fan(), cone_align._tilted(stack, eta)


class TestInnerFixedPoint:
    """The fp_k inner solve is the lockstep fixed_point_shift on the tilted
    pair: the same runs as one after another, one reflection per iteration."""

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    def test_equals_sequential_runs(self, small_stack, eta):
        args = tilted_pair(small_stack, eta)
        cfg = FanAlignConfig()
        lockstep = lockstep_median_fixed_point(*args, cfg)
        assert repr(lockstep) == repr(sequential_median_fixed_point(*args, cfg))
        assert inner_h(small_stack, eta, VPConfig(inner_method="fp_k", inner=cfg)) == lockstep[0]

    def test_k_exceeding_view_count_rejected(self, small_stack):
        cfg = VPConfig(inner_method="fp_k", inner=FanAlignConfig(K=small_stack.geometry.n_beta + 1))
        with pytest.raises(ValueError):
            inner_h(small_stack, 0.0, cfg)
        with pytest.raises(ValueError):
            variable_projection(small_stack, cfg)

    def test_one_reflection_and_one_correlation_per_iteration(self, small_stack, monkeypatch):
        eta = 0.02
        args = tilted_pair(small_stack, eta)
        cfg = VPConfig(inner_method="fp_k")
        _, runs = lockstep_median_fixed_point(*args, cfg.inner)
        iterations = [iters for _, _, iters, _ in runs]
        assert max(iterations) < sum(iterations)
        reads = count_calls(monkeypatch, cone_align, "sample_detector")
        correlations = count_calls(monkeypatch, fan_align, "xcorr_shift_rows")
        inner_h(small_stack, eta, cfg, args[0])
        assert len(reads) == len(correlations) == max(iterations)


class TestReducedGradient:
    def test_sign_flips_across_truth(self, ref_stack):
        cfg = VPConfig()
        assert reduced_gradient(ref_stack, ETA_TRUE - 0.005, cfg) < 0.0
        assert reduced_gradient(ref_stack, ETA_TRUE + 0.005, cfg) > 0.0

    def test_smallest_at_truth(self, ref_stack):
        cfg = VPConfig()
        at_truth = abs(reduced_gradient(ref_stack, ETA_TRUE, cfg))
        assert at_truth < abs(reduced_gradient(ref_stack, ETA_TRUE - 0.01, cfg))
        assert at_truth < abs(reduced_gradient(ref_stack, ETA_TRUE + 0.01, cfg))

    def test_step_halving_consistency(self, ref_stack):
        """Near the minimum the finite-difference estimate is already
        converged: halving the step changes it by under 10 percent."""
        at = ETA_TRUE + 0.01
        coarse = reduced_gradient(ref_stack, at, VPConfig())
        fine = reduced_gradient(ref_stack, at, VPConfig(delta_eta=0.0005))
        assert abs(fine - coarse) <= 0.10 * abs(coarse)


def grid_oracle(stack, h_grid, e_grid):
    best = (math.inf, None, None)
    for eta in e_grid:
        lam = lambda_eta(stack, 0.0, eta)
        for h in h_grid:
            val = float(np.sum((lam - pi_h_eta(stack, h, eta)) ** 2))
            if val < best[0]:
                best = (val, h, eta)
    return best


class TestVariableProjection:
    @pytest.mark.parametrize("method", INNER)
    def test_aligned_stack_converges_immediately(self, method, aligned_stack):
        result = variable_projection(aligned_stack, VPConfig(inner_method=method))
        assert result.converged
        assert result.iterations == 1
        assert result.h == pytest.approx(0.0, abs=0.05)
        assert abs(result.eta) <= 2e-4

    @pytest.mark.parametrize("method,tag", [("2dr", "VP-2DR"), ("fp_k", "VP-FP_K")])
    def test_recovers_simulated_truth(self, method, tag, ref_stack):
        result = variable_projection(ref_stack, VPConfig(inner_method=method))
        assert result.method == tag
        assert result.converged
        assert result.iterations <= 5
        assert result.h == pytest.approx(H_TRUE, abs=0.15)
        assert result.eta == pytest.approx(ETA_TRUE, abs=math.radians(0.05))

    @pytest.mark.parametrize("method", INNER)
    def test_matches_grid_argmin(self, method, ref_stack):
        """Coarse-to-fine brute-force minimization of the full loss."""
        _, h1, e1 = grid_oracle(
            ref_stack, np.arange(5.0, 15.0 + 1e-9, 1.0), np.radians(np.arange(0.0, 2.0 + 1e-9, 0.25))
        )
        _, h2, e2 = grid_oracle(
            ref_stack,
            np.arange(h1 - 1.0, h1 + 1.0 + 1e-9, 0.2),
            np.arange(e1 - math.radians(0.25), e1 + math.radians(0.25) + 1e-12, math.radians(0.05)),
        )
        _, h3, e3 = grid_oracle(
            ref_stack,
            np.arange(h2 - 0.2, h2 + 0.2 + 1e-9, 0.04),
            np.arange(e2 - math.radians(0.05), e2 + math.radians(0.05) + 1e-12, math.radians(0.01)),
        )
        result = variable_projection(ref_stack, VPConfig(inner_method=method))
        assert abs(result.h - h3) <= 0.25
        assert abs(result.eta - e3) <= math.radians(0.05)

    def test_descent_is_monotone(self, ref_stack):
        result = variable_projection(ref_stack, VPConfig(eta0=math.radians(0.5)))
        losses = [entry[3] for entry in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_gradient_small_at_convergence(self, ref_stack):
        cfg = VPConfig()
        result = variable_projection(ref_stack, cfg)
        at_final = abs(reduced_gradient(ref_stack, result.eta, cfg))
        assert at_final < abs(reduced_gradient(ref_stack, result.eta - 5 * cfg.tol_eta, cfg))
        assert at_final < abs(reduced_gradient(ref_stack, result.eta + 5 * cfg.tol_eta, cfg))

    @pytest.mark.parametrize("method,fan_aligner", [("2dr", align_2dr), ("fp_k", align_fp_k)])
    def test_consistent_with_fan_estimate_when_untilted(self, method, fan_aligner, odd_row_stack):
        """eta* = 0 data: VP's h agrees with the fan solve on the v = 0 row."""
        vp = variable_projection(odd_row_stack, VPConfig(inner_method=method))
        fan = Sinogram(odd_row_stack.geometry.central_fan(), odd_row_stack.values[:, 32, :])
        assert abs(vp.h - fan_aligner(fan, FanAlignConfig()).h) <= 0.1

    def test_iteration_cap_flags_non_convergence(self, ref_stack):
        result = variable_projection(ref_stack, VPConfig(max_outer=1, eta0=0.1))
        assert not result.converged
        assert result.iterations == 1

    def test_trace_starts_at_eta0_and_ends_at_result(self, ref_stack):
        result = variable_projection(ref_stack, VPConfig())
        assert result.trace[0][0] == 0
        assert result.trace[0][2] == 0.0
        assert result.trace[-1][2] == result.eta


class TestVPConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inner_method": "newton"},
            {"delta_eta": 0.0},
            {"delta_eta": math.inf},
            {"delta_eta": math.nan},
            {"armijo_c": 0.0},
            {"armijo_c": 1.0},
            {"max_outer": 0},
            {"tol_eta": 0.0},
            {"tol_eta": math.inf},
            {"tol_eta": math.nan},
            {"eta0": math.radians(60.0)},
            {"gamma0": 0.0},
            {"gamma0": -1.0},
            {"gamma0": math.nan},
            {"gamma0": math.inf},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VPConfig(**kwargs)


class TestFanIsEtaZeroCone:
    """A stack of identical rows is its fan sinogram at every v, so at
    eta = 0 the tilted pair and the inner solves reduce to the fan ones bit
    for bit."""

    @pytest.fixture(scope="class", params=[1, 2])
    def pair(self, request):
        sino = fan_project(make_disk_phantom(request.param, n_disks=30), fan_geometry(64), h=2.37)
        fan = sino.geometry
        geom = ConeGeometry(fan.source_radius, fan.n_s, 5, fan.s_max, fan.s_max, fan.n_beta)
        stack = ProjectionStack(geom, np.repeat(sino.values[:, None, :], 5, axis=1))
        return sino, stack

    def test_lambda_is_the_sinogram(self, pair):
        sino, stack = pair
        assert np.array_equal(lambda_eta(stack, 0.0, 0.0), sino.values)

    def test_pi_is_the_reflected_resampling(self, pair):
        sino, stack = pair
        assert np.array_equal(pi_h_eta(stack, 1.5, 0.0), reflected_resampling(sino, 1.5))

    @pytest.mark.parametrize("method, fan_aligner", [("2dr", align_2dr), ("fp_k", align_fp_k)])
    def test_inner_solve_is_the_fan_estimate(self, pair, method, fan_aligner):
        sino, stack = pair
        assert inner_h(stack, 0.0, VPConfig(inner_method=method)) == fan_aligner(sino).h
