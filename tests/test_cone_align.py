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
    align_fan,
    cone_line_integral,
    cone_project,
    fan_project,
    inner_h,
    lambda_eta,
    loss_L,
    make_disk_phantom,
    make_sphere_phantom,
    pi_h_eta,
    reflected_resampling,
    sample_detector,
    sample_periodic,
    symmetry_mse,
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
    fan_case_id,
    fan_geometry,
    lockstep_median_fixed_point,
    sequential_median_fixed_point,
    shift_columns,
    two_plane_detector,
    two_stage_detector,
)

INNER = ["2dr", "fp_k"]
# each inner solver with the fan method that runs the same shift solve
INNER_AND_FAN_METHODS = pytest.mark.parametrize(
    "method, fan_method", [pytest.param(m, m.upper(), id=f"{m}-{fan_case_id(m)}") for m in INNER]
)


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
        assert np.array_equal(out.values, odd_row_stack.values[:, 32, :])

    def test_pivoted_read_is_the_true_mid_plane(self):
        """Tilted about (h, 0) at the true (h, eta), the read is the fan
        sinogram of the true mid-plane v = 0 on the shifted detector axis;
        tilted about (0, 0) it reads off the mid-plane."""
        geom = cone_geometry(64)
        ph = make_sphere_phantom(3, n_spheres=10)
        h, eta = 10.0, math.radians(3.0)
        stack = cone_project(ph, geom, h=h, eta=eta)
        q = geom.u_axis()[None, :]
        beta = geom.beta_axis()[:, None]
        oracle = cone_line_integral(ph, SOURCE_RADIUS, q - h * geom.pixel_size, 0.0, beta)
        error = lambda pivot: np.linalg.norm(lambda_eta(stack, pivot, eta).values - oracle)
        assert error(h) <= 2.5e-3 * np.linalg.norm(oracle)
        assert error(0.0) > 2.0 * error(h)

    def test_matches_rotated_detector_reprojection(self):
        """Tilted extraction vs an analytically rotated detector."""
        geom = cone_geometry(64)
        ph = make_sphere_phantom(3, n_spheres=10)
        stack = cone_project(ph, geom)
        eta = math.radians(1.0)
        lam = lambda_eta(stack, 0.0, eta).values
        q = geom.u_axis()[None, :]
        beta = geom.beta_axis()[:, None]
        oracle = cone_line_integral(ph, SOURCE_RADIUS, q * math.cos(eta), -q * math.sin(eta), beta)
        assert np.linalg.norm(lam - oracle) <= 1e-2 * np.linalg.norm(oracle)


class TestPiHEta:
    def test_equals_lambda_on_aligned_stack(self, aligned_stack):
        lam = lambda_eta(aligned_stack, 0.0, 0.0).values
        pi = pi_h_eta(aligned_stack, 0.0, 0.0)
        assert np.linalg.norm(pi - lam) <= 1e-2 * np.linalg.norm(lam)

    def test_equals_lambda_at_true_misalignment(self, ref_stack):
        lam = lambda_eta(ref_stack, H_TRUE, ETA_TRUE).values
        pi = pi_h_eta(ref_stack, H_TRUE, ETA_TRUE)
        assert np.linalg.norm(pi - lam) <= 1e-2 * np.linalg.norm(lam)

    @pytest.mark.parametrize("stack", ["aligned_stack", "ref_stack"])
    @pytest.mark.parametrize("eta", [0.0175, -0.03])
    def test_off_grid_pivot_is_the_trilinear_read_to_interpolation(self, request, stack, eta):
        """Away from h = 0 the bilinear reflection of lambda_eta and the
        trilinear read of the stack along the reflected path differ by
        interpolation only."""
        stack = request.getfixturevalue(stack)
        geom, h = stack.geometry, 3.1
        q, h_u = geom.u_axis(), h * geom.pixel_size
        beta = geom.beta_axis()[:, None] + math.pi + 2.0 * np.arctan((q - h_u) / geom.source_radius)
        trilinear = sample_detector(stack, h_u + (h_u - q) * math.cos(eta), (q - h_u) * math.sin(eta), beta)
        assert np.max(np.abs(pi_h_eta(stack, h, eta) - trilinear)) <= 5e-3 * np.max(stack.values)

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
    """lambda_eta reads the tilted detector path on the stored views, and
    pi_h_eta is the fan reflection of that read: it agrees with the per-point
    formula on the tilted sinogram, and at h = 0, where the reflected path is
    on the detector grid, with the trilinear read of the stack."""

    @pytest.fixture(scope="class", params=[5, 7, 64, 256])
    def stack(self, request):
        half = unit_disk_half_width(SOURCE_RADIUS)
        geom = ConeGeometry(SOURCE_RADIUS, 33, 9, half, 0.8 * half, request.param)
        rng = np.random.default_rng(request.param)
        return ProjectionStack(geom, rng.uniform(0.5, 2.0, size=(request.param, 9, 33)))

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    @pytest.mark.parametrize("h", [0.0, 2.37, -2.37, 0.6 * 33])
    def test_pi_matches_full_grid_formula(self, stack, h, eta):
        """The reflected read of the sinogram tilted about (h, 0), per point."""
        geom = stack.geometry
        q = geom.u_axis()
        h_u = h * geom.pixel_size
        lam = lambda_eta(stack, h, eta)
        beta = geom.beta_axis()[:, None] + math.pi + 2.0 * np.arctan((q - h_u) / geom.source_radius)
        want = sample_periodic(lam, -q + 2.0 * h_u, beta)
        got = pi_h_eta(stack, h, eta)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(stack.values))

    @pytest.mark.parametrize("eta", [0.02, -0.03])
    @pytest.mark.parametrize("h", [2.37, 0.6 * 33])
    def test_pi_is_the_reflection_of_lambda(self, stack, h, eta):
        assert np.array_equal(pi_h_eta(stack, h, eta), reflected_resampling(lambda_eta(stack, h, eta), h))

    @pytest.mark.parametrize("eta", [0.0, 0.02, -0.03, 0.3])
    def test_pi_at_zero_pivot_is_the_trilinear_read(self, stack, eta):
        """At h = 0 the reflected path -q is on the grid of lambda_eta, so
        reading it bilinearly is the trilinear read of the stack along the
        reflected tilted path, each column shifted along the view axis."""
        geom = stack.geometry
        q = geom.u_axis()
        grid = two_plane_detector(stack, -q * math.cos(eta), q * math.sin(eta), geom.beta_axis()[:, None])
        want = shift_columns(grid, math.pi + 2.0 * np.arctan(q / geom.source_radius))
        assert np.array_equal(pi_h_eta(stack, 0.0, eta), want)

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    def test_lambda_is_the_two_plane_read(self, stack, eta):
        geom = stack.geometry
        q = geom.u_axis()
        want = two_plane_detector(stack, q * math.cos(eta), -q * math.sin(eta), geom.beta_axis()[:, None])
        assert np.array_equal(lambda_eta(stack, 0.0, eta).values, want)


class TestAllViewsRead:
    """lambda_eta, one blocked read of every stored view, and pi_h_eta, its
    reflection, equal bit for bit their reference through the two-plane
    read at every stored view."""

    @pytest.fixture(scope="class", params=[16, 32])
    def stack(self, request):
        n = request.param
        return ProjectionStack(cone_geometry(n), np.random.default_rng(n).uniform(0.5, 2.0, size=(n, n, n)))

    @pytest.mark.parametrize("read", [pi_h_eta, lambda_eta])
    @pytest.mark.parametrize("eta", [0.0, 0.02])
    @pytest.mark.parametrize("h", [0.0, 2.37])  # the pivot of the tilted axis
    def test_matches_two_stage_read(self, monkeypatch, stack, read, h, eta):
        values = lambda out: getattr(out, "values", out)  # lambda_eta returns a Sinogram
        got = values(read(stack, h, eta))
        monkeypatch.setattr(cone_align, "sample_detector", two_stage_detector)
        assert np.array_equal(got, values(read(stack, h, eta)))

    @pytest.mark.parametrize("read, h, eta", [(pi_h_eta, math.nan, 0.01), (lambda_eta, 0.0, math.nan)])
    def test_non_finite_input_rejected(self, stack, read, h, eta):
        with pytest.raises(ValueError, match="detector coordinates must be finite"):
            read(stack, h, eta)


class TestLossL:
    def test_aligned_loss_at_interpolation_floor(self, aligned_stack):
        energy = float(np.sum(lambda_eta(aligned_stack, 0.0, 0.0).values ** 2))
        assert loss_L(aligned_stack, 0.0, 0.0) <= 1e-4 * energy

    def test_truth_beats_offset_probes(self, ref_stack):
        at_truth = loss_L(ref_stack, H_TRUE, ETA_TRUE)
        assert at_truth < loss_L(ref_stack, H_TRUE + 2.0, ETA_TRUE)
        assert at_truth < loss_L(ref_stack, H_TRUE, ETA_TRUE + math.radians(0.5))

    def test_coarse_grid_minimum_near_truth(self, ref_stack):
        best = grid_oracle(
            ref_stack, np.arange(5.0, 15.0 + 1e-9, 1.0), np.radians(np.arange(0.0, 2.0 + 1e-9, 0.25))
        )
        assert best[1] == pytest.approx(H_TRUE, abs=0.5)
        assert best[2] == pytest.approx(ETA_TRUE, abs=math.radians(0.25))


class TestInnerH:
    @pytest.mark.parametrize("method", INNER)
    def test_zero_on_aligned_stack(self, method, aligned_stack):
        assert inner_h(aligned_stack, 0.0, VPConfig(inner_method=method))[0] == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("method", INNER)
    def test_shift_only_misalignment_reduces_to_fan_problem(self, method, shift_only_stack):
        h = inner_h(shift_only_stack, 0.0, VPConfig(inner_method=method))[0]
        assert h == pytest.approx(H_TRUE, abs=0.1)

    @pytest.mark.parametrize("method", INNER)
    def test_recovers_shift_at_true_angle(self, method, ref_stack):
        h = inner_h(ref_stack, ETA_TRUE, VPConfig(inner_method=method))[0]
        assert h == pytest.approx(H_TRUE, abs=0.15)


@pytest.fixture(scope="module")
def small_stack():
    """32^3 stack, h = 2.5 px, eta = 1 degree."""
    return cone_project(make_sphere_phantom(1, n_spheres=20), cone_geometry(32), h=2.5, eta=ETA_TRUE)


class TestInnerFixedPoint:
    """The fp_k inner solve is the lockstep fixed_point_shift on the tilted
    sinogram: the same runs as one after another, one stack read per solve
    and one reflection of the tilted sinogram per iteration."""

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    def test_equals_sequential_runs(self, small_stack, eta):
        tilted = lambda_eta(small_stack, 0.0, eta)  # the h-free read of the fp_k inner solve
        cfg = FanAlignConfig()
        lockstep = lockstep_median_fixed_point(tilted, cfg)
        assert repr(lockstep) == repr(sequential_median_fixed_point(tilted, cfg))
        assert inner_h(small_stack, eta, VPConfig(inner_method="fp_k", K=cfg.K, max_iter=cfg.max_iter))[0] == lockstep[0]

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_k_and_max_iter_reach_the_solve(self, small_stack, max_iter):
        """VPConfig's K and max_iter are the FanAlignConfig of the inner solve."""
        tilted = lambda_eta(small_stack, 0.0, 0.02)
        fixed_point = fan_align.fixed_point_shift(tilted, FanAlignConfig(K=1, max_iter=max_iter))[0]
        assert inner_h(small_stack, 0.02, VPConfig(inner_method="fp_k", K=1, max_iter=max_iter))[0] == fixed_point

    def test_k_exceeding_view_count_rejected(self, small_stack):
        cfg = VPConfig(inner_method="fp_k", K=small_stack.geometry.n_beta + 1)
        with pytest.raises(ValueError):
            inner_h(small_stack, 0.0, cfg)
        with pytest.raises(ValueError):
            variable_projection(small_stack, cfg)

    def test_one_reflection_and_one_correlation_per_iteration(self, small_stack, monkeypatch):
        eta = 0.02
        cfg = VPConfig(inner_method="fp_k")
        _, runs = lockstep_median_fixed_point(lambda_eta(small_stack, 0.0, eta), cfg.inner)
        iterations = [iters for _, _, iters, _ in runs]
        assert max(iterations) < sum(iterations)
        reads = count_calls(monkeypatch, cone_align, "sample_detector")
        reflections = count_calls(monkeypatch, fan_align, "sample_periodic")
        correlations = count_calls(monkeypatch, fan_align, "xcorr_shift_rows")
        inner_h(small_stack, eta, cfg)
        assert len(correlations) == max(iterations)
        assert len(reads) == 1  # the h-free read of the stack
        assert len(reflections) == max(iterations)


def fake_reduced_loss(monkeypatch, loss, lam=None):
    """Replace the reduced loss by loss(eta): every inner solve gives h = 0,
    every tilted read is lam and every loss_L is loss(eta); returns the eta
    of each loss_L call, in call order."""
    probed = []

    def fake_loss(stack, h, eta, lam=None):
        probed.append(eta)
        return loss(eta)

    monkeypatch.setattr(cone_align, "inner_h", lambda stack, eta, cfg: (0.0, 0, ""))
    monkeypatch.setattr(cone_align, "lambda_eta", lambda stack, h, eta: lam)
    monkeypatch.setattr(cone_align, "loss_L", fake_loss)
    return probed


def solves_and_reads(monkeypatch, stack, loss, gamma0=cone_align.GAMMA0, **kwargs):
    """VP on the reduced loss loss(eta) of fake_reduced_loss, with GAMMA0 set
    to gamma0: the result, the eta of each inner solve and the (h, eta) of
    each loss_L, in call order."""
    monkeypatch.setattr(cone_align, "GAMMA0", gamma0)
    fake_reduced_loss(monkeypatch, loss, lambda_eta(stack, 0.0, 0.0))
    solves = count_calls(monkeypatch, cone_align, "inner_h")
    reads = count_calls(monkeypatch, cone_align, "loss_L")
    result = variable_projection(stack, VPConfig(**kwargs))
    return result, [args[1] for args in solves], [args[1:3] for args in reads]


def reduced_gradient(stack, eta, cfg=VPConfig()):
    """(gradient, curvature) of the reduced loss at eta as VP takes them: the
    stencil at the inner solve."""
    h, l0, _, _ = cone_align._solve(stack, eta, cfg)
    return cone_align._stencil(stack, h, eta, l0)


def gradient(stack, eta, cfg=VPConfig()):
    return reduced_gradient(stack, eta, cfg)[0]


class TestReducedGradient:
    def test_sign_flips_across_truth(self, ref_stack):
        assert gradient(ref_stack, ETA_TRUE - 0.005) < 0.0
        assert gradient(ref_stack, ETA_TRUE + 0.005) > 0.0

    def test_smallest_at_truth(self, ref_stack):
        at_truth = abs(gradient(ref_stack, ETA_TRUE))
        assert at_truth < abs(gradient(ref_stack, ETA_TRUE - 0.01))
        assert at_truth < abs(gradient(ref_stack, ETA_TRUE + 0.01))

    def test_step_halving_consistency(self, ref_stack, monkeypatch):
        """Near the minimum the finite-difference estimate is already
        converged: halving the step changes it by under 10 percent."""
        at = ETA_TRUE + 0.01
        coarse = gradient(ref_stack, at)
        monkeypatch.setattr(cone_align, "DELTA_ETA", 0.0005)
        fine = gradient(ref_stack, at)
        assert abs(fine - coarse) <= 0.10 * abs(coarse)

    def test_curvature_positive_at_truth(self, ref_stack):
        _, curv = reduced_gradient(ref_stack, ETA_TRUE)
        assert curv > 0.0

    @pytest.mark.parametrize("eta", [ETA_TRUE, ETA_TRUE + 0.01])
    def test_stencil_is_the_pivoted_loss_at_the_centre_solve(self, ref_stack, monkeypatch, eta):
        """The envelope result: h is solved once, at eta, and the stencil is
        loss_L at that h, bit for bit."""
        d = cone_align.DELTA_ETA
        h = inner_h(ref_stack, eta)[0]
        lo, l0, hi = (loss_L(ref_stack, h, eta + k * d) for k in (-1, 0, 1))
        solves = count_calls(monkeypatch, cone_align, "inner_h")
        g, c = reduced_gradient(ref_stack, eta)
        assert [args[1] for args in solves] == [eta]
        assert (g, c) == ((hi - lo) / (2.0 * d), (hi - 2.0 * l0 + lo) / (d * d))

    @pytest.mark.parametrize("eta", [0.1, cone_align.ETA_BOUND, -cone_align.ETA_BOUND])
    def test_one_stencil_of_the_same_three_losses(self, monkeypatch, eta):
        """g and c come from the same three losses, each read once: the
        centre and two central probes, also at the domain edge."""
        calls = fake_reduced_loss(monkeypatch, lambda e: 3.0 * e * e)
        g, c = reduced_gradient(None, eta)
        assert len(calls) == 3
        assert g == pytest.approx(6.0 * eta, rel=1e-9)
        assert c == pytest.approx(6.0, rel=1e-6)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_domain_edge_stencil_reads_past_the_edge(self, small_stack, monkeypatch, sign):
        """At +-ETA_BOUND the stencil is central: loss_L is read at the
        centre and one DELTA_ETA to either side, and the curvature is finite."""
        bound, d = sign * cone_align.ETA_BOUND, cone_align.DELTA_ETA
        reads = count_calls(monkeypatch, cone_align, "loss_L")
        _, c = reduced_gradient(small_stack, bound)
        assert [args[2] for args in reads] == [bound, bound - d, bound + d]
        assert math.isfinite(c)


def grid_oracle(stack, h_grid, e_grid):
    """(loss, h, eta) of the smallest loss_L on the grid: both resamplings
    of each probe are tilted about the same pivot (h, 0)."""
    return min(((loss_L(stack, h, eta), h, eta) for eta in e_grid for h in h_grid), key=lambda best: best[0])


class TestVariableProjection:
    @pytest.mark.parametrize("method", INNER)
    def test_aligned_stack_converges_immediately(self, method, aligned_stack):
        result = variable_projection(aligned_stack, VPConfig(inner_method=method))
        assert result.converged
        assert result.iterations == 0
        assert result.h == pytest.approx(0.0, abs=0.05)
        assert abs(result.eta) <= 2e-4

    @pytest.mark.parametrize("method,tag", [("2dr", "VP-2DR"), ("fp_k", "VP-FP_K")])
    def test_recovers_simulated_truth(self, method, tag, ref_stack):
        result = variable_projection(ref_stack, VPConfig(inner_method=method))
        assert result.method == tag
        assert result.converged
        assert result.iterations <= 3
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

    def test_one_tilted_read_per_solve_and_per_pivot(self, ref_stack, monkeypatch):
        """One h-free read for each inner solve; one read pivoted at (h, 0) for
        each distinct (h, eta): the solved points, and the stencil of each
        accepted point at its centre's h.  The result's mse is the accepted
        point's pivoted read."""
        solved = {}

        def solve(stack, eta, cfg):
            triple = original(stack, eta, cfg)
            solved[eta] = triple[0]
            return triple

        original = cone_align.inner_h
        monkeypatch.setattr(cone_align, "inner_h", solve)
        reads = count_calls(monkeypatch, cone_align, "lambda_eta")
        result = variable_projection(ref_stack, VPConfig())
        d = cone_align.DELTA_ETA
        assert 0.0 not in solved.values()  # so h == 0 marks the h-free reads
        assert [args[2] for args in reads if args[1] == 0.0] == list(solved)
        pivoted = [(args[1], args[2]) for args in reads if args[1] != 0.0]
        centres = [entry[2] for entry in result.trace]
        stencils = {(solved[c], c + k * d) for c in centres for k in (-1, 1)}
        assert not {eta for _, eta in stencils} & set(solved)  # no inner solve at a stencil point
        assert len(pivoted) == len(set(pivoted))
        assert set(pivoted) == {(h, eta) for eta, h in solved.items()} | stencils
        assert result.mse == symmetry_mse(lambda_eta(ref_stack, result.h, result.eta), result.h)

    @pytest.mark.parametrize(
        "max_iter,h,eta,converged",
        [(1, 4.95, 0.021462569841429004, False), (2, 5.0, 0.017342361727816464, False), (3, 5.0, 0.017325725029101735, True)],
    )
    def test_capped_inner_solve_is_unconverged(self, max_iter, h, eta, converged):
        """On the 64^3 stack (sphere seed 1, h = 5 px, eta = 1 degree) the FP_K
        inner solve at the estimate needs 3 updates.  Capped below that, the
        Newton stop still fires, but the result is unconverged: at max_iter 1
        eta is 0.23 degrees off, beyond the 0.05 degree gate.  The cap changes
        no estimate, only the reason, which names the inner solve's."""
        stack = cone_project(make_sphere_phantom(1), cone_geometry(64), h=5.0, eta=ETA_TRUE)
        cfg = VPConfig(inner_method="fp_k", max_iter=max_iter)
        result = variable_projection(stack, cfg)
        reason = "" if converged else f"inner solve: a fixed-point run reached max_iter {max_iter}"
        assert (result.h, result.eta, result.reason, result.converged) == (h, eta, reason, converged)
        assert inner_h(stack, result.eta, cfg)[2] == reason.removeprefix("inner solve: ")

    @pytest.mark.parametrize("method", INNER)
    def test_stack_read_only_through_lambda_eta(self, method, small_stack, monkeypatch):
        """Every reflection, loss and inner solve is a fan operation on a
        lambda_eta read: the stack is read once per (h, eta) read."""
        reads = count_calls(monkeypatch, cone_align, "lambda_eta")
        stack_reads = count_calls(monkeypatch, cone_align, "sample_detector")
        variable_projection(small_stack, VPConfig(inner_method=method))
        assert reads and len(stack_reads) == len(reads)

    def test_descent_is_monotone(self, ref_stack):
        result = variable_projection(ref_stack, VPConfig())
        assert result.iterations >= 1
        losses = [entry[3] for entry in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_gradient_small_at_convergence(self, ref_stack):
        cfg = VPConfig()
        result = variable_projection(ref_stack, cfg)
        at_final = abs(gradient(ref_stack, result.eta, cfg))
        assert at_final < abs(gradient(ref_stack, result.eta - 5 * cfg.tol_eta, cfg))
        assert at_final < abs(gradient(ref_stack, result.eta + 5 * cfg.tol_eta, cfg))

    @INNER_AND_FAN_METHODS
    def test_consistent_with_fan_estimate_when_untilted(self, method, fan_method, odd_row_stack):
        """eta* = 0 data: VP's h agrees with the fan solve on the v = 0 row."""
        vp = variable_projection(odd_row_stack, VPConfig(inner_method=method))
        fan = Sinogram(odd_row_stack.geometry.central_fan(), odd_row_stack.values[:, 32, :])
        assert abs(vp.h - align_fan(fan, FanAlignConfig(method=fan_method)).h) <= 0.1

    def test_iteration_cap_flags_non_convergence(self, ref_stack):
        result = variable_projection(ref_stack, VPConfig(max_outer=1))
        assert (result.converged, result.reason) == (False, "max_outer 1 reached")
        assert result.iterations == 1

    def test_exhausted_line_search_names_itself(self, monkeypatch):
        """With no step halvings left the first line search gives up at the start, unconverged."""
        monkeypatch.setattr(cone_align, "MAX_BACKTRACK", 0)
        stack = cone_project(make_sphere_phantom(1), cone_geometry(32), h=2.0, eta=ETA_TRUE)
        result = variable_projection(stack, VPConfig())
        assert (result.converged, result.reason) == (False, "line search exhausted")
        assert (result.eta, result.iterations) == (0.0, 0)

    def test_trace_starts_at_eta0_and_ends_at_result(self, ref_stack):
        """VP starts at the nominal mounting, eta0 = 0."""
        result = variable_projection(ref_stack, VPConfig())
        assert result.trace[0][0] == 0
        assert result.trace[0][2] == 0.0
        assert result.trace[-1][2] == result.eta


class TestNewtonStep:
    """The outer step on synthetic reduced losses: the Newton step g/c where
    the stencil is convex, GAMMA0 times g elsewhere, Armijo backtracking on
    both, and a stop only on a short Newton step."""

    @pytest.fixture
    def run(self, monkeypatch, small_stack):
        lam = lambda_eta(small_stack, 0.0, 0.0)

        def run(loss, gamma0=cone_align.GAMMA0, **kwargs):
            monkeypatch.setattr(cone_align, "GAMMA0", gamma0)
            probed = fake_reduced_loss(monkeypatch, loss, lam)
            return variable_projection(small_stack, VPConfig(**kwargs)), probed

        return run

    def test_parabola_vertex_in_one_step(self, run):
        vertex = 0.0123
        result, probed = run(lambda e: 2.0 * (e - vertex) ** 2 + 0.5)
        assert abs(result.eta - vertex) <= 1e-12
        assert result.converged
        assert result.iterations == 1
        assert len(probed) == 6  # start and its stencil, vertex and its stencil

    def test_concave_stencil_takes_gamma0_step_and_backtracks(self, run):
        """-e^2 + 10 e^4 translated so that the start 0 is its concave point 0.1."""
        gamma0, d = 4.0, cone_align.DELTA_ETA
        loss = lambda e: -((e + 0.1) ** 2) + 10.0 * (e + 0.1) ** 4
        assert loss(d) - 2.0 * loss(0.0) + loss(-d) < 0.0
        g = (loss(d) - loss(-d)) / (2.0 * d)
        result, probed = run(loss, gamma0=gamma0, max_outer=1)
        trials = probed[3:]
        assert len(trials) == 3
        assert trials == pytest.approx([-gamma0 * g / 2**k for k in range(3)], abs=1e-15)
        assert result.eta == trials[-1]
        assert result.iterations == 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edge_start_takes_the_newton_step(self, run, sign):
        """The stencil at the domain edge is central, so a convex loss takes
        the Newton step from there.  The loss is concave and falls towards
        the edge at the start 0, so its GAMMA0 step is clamped onto the edge."""
        bound, d = sign * cone_align.ETA_BOUND, cone_align.DELTA_ETA
        loss = lambda e: (e - sign * 0.5) ** 2 if abs(e) > 0.1 else 10.0 - sign * e - e * e
        result, probed = run(loss, max_outer=2)
        assert probed[3:6] == [bound, bound - d, bound + d]
        assert probed[6] == pytest.approx(sign * 0.5, abs=1e-9)
        assert result.eta == probed[6]

    @pytest.mark.parametrize("loss", [lambda e: 1.0, lambda e: -1e-9 * (e + 1e-6) ** 2], ids=["flat", "concave"])
    def test_nonpositive_curvature_never_converges(self, run, loss):
        result, _ = run(loss)
        assert not result.converged

    @pytest.mark.parametrize(
        "loss, kwargs",
        [
            (lambda e: 1.0, {}),
            (lambda e: -((e + 0.1) ** 2), {}),
            (lambda e: -e, {}),
            (lambda e: -e, {"gamma0": 1e4}),
            (lambda e: e, {"gamma0": 0.01}),
        ],
        ids=["flat", "concave", "outward-at-edge", "clamped-trials", "inward-to-cap"],
    )
    def test_no_point_solved_or_read_twice(self, small_stack, monkeypatch, loss, kwargs):
        """The zero step of a flat loss re-accepts its point; the concave and
        outward descents clamp their trials onto the edge, at the carried
        point or at the same trial for several halvings; the capped run ends
        on a step.  No eta is solved twice and no (h, eta) read twice.  The
        start is 0: the concave loss is translated, and the GAMMA0 steps of
        the falling lines are clamped onto the edge."""
        _, solved, read = solves_and_reads(monkeypatch, small_stack, loss, **kwargs)
        assert len(set(solved)) == len(solved)
        assert len(set(read)) == len(read)

    def test_capped_run_reads_no_stencil_after_its_last_step(self, small_stack, monkeypatch):
        """A descent run to max_outer = 20: the start and 20 trials are
        solved and read, and 20 central stencils are read; none at the point
        the cap returns."""
        result, solved, read = solves_and_reads(monkeypatch, small_stack, lambda e: e, gamma0=0.01)
        assert not result.converged
        assert result.iterations == 20
        assert (len(solved), len(read)) == (21, 21 + 2 * 20)


@pytest.fixture(scope="module")
def sweep_stacks():
    """The sweep: sphere phantoms 1-5 at N = 64, 96, 128, h = 10*N/128 px,
    eta = 1 degree."""
    return {
        (n, seed): cone_project(make_sphere_phantom(seed), cone_geometry(n), h=10.0 * n / 128, eta=ETA_TRUE)
        for n in (64, 96, 128)
        for seed in range(1, 6)
    }


def test_sweep_within_gate_in_few_steps(sweep_stacks, monkeypatch, capsys):
    """VP on every sweep stack with both inner solvers (30 runs): the gate
    is |h error| <= 0.15 px and |eta error| <= 0.05 degrees.  Runs outside
    it that report converged come from VP reading eta off one detector line:
    the eta error follows the sub-row phase of that line, not the descent (a
    row on v = 0 or a cubic in v does not remove it)."""
    solves = count_calls(monkeypatch, cone_align, "inner_h")
    within = wrong = 0
    iterations = []
    for (n, seed), stack in sweep_stacks.items():
        for method in INNER:
            result = variable_projection(stack, VPConfig(inner_method=method))
            ok = abs(result.h - 10.0 * n / 128) <= 0.15 and abs(result.eta - ETA_TRUE) <= math.radians(0.05)
            within += ok
            wrong += result.converged and not ok
            iterations.append(result.iterations)
    with capsys.disabled():
        print(
            f"\nVP sweep: {within}/{len(iterations)} within the gate, {wrong} wrong but converged, "
            f"{np.mean(iterations):.2f} outer iterations on average, {len(solves)} inner solves"
        )
    assert within >= 20
    assert wrong <= 10
    assert max(iterations) <= 3
    assert len(solves) <= 100


class TestVPConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inner_method": "newton"},
            {"max_outer": 0},
            {"tol_eta": 0.0},
            {"tol_eta": math.inf},
            {"tol_eta": math.nan},
            {"tol_eta": -1e-4},
            {"max_outer": 2.5},
            {"max_outer": 20.0},
            {"K": 0},
            {"K": 2.5},
            {"max_iter": 0},
            {"max_iter": 2.5},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VPConfig(**kwargs)

    def test_integer_max_outer_of_any_integer_type_accepted(self):
        assert VPConfig(max_outer=np.int64(3)).max_outer == 3


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
        assert np.array_equal(lambda_eta(stack, 0.0, 0.0).values, sino.values)

    def test_pi_is_the_reflected_resampling(self, pair):
        sino, stack = pair
        assert np.array_equal(pi_h_eta(stack, 1.5, 0.0), reflected_resampling(sino, 1.5))

    @INNER_AND_FAN_METHODS
    def test_inner_solve_is_the_fan_estimate(self, pair, method, fan_method):
        sino, stack = pair
        fan = align_fan(sino, FanAlignConfig(method=fan_method))
        assert inner_h(stack, 0.0, VPConfig(inner_method=method)) == (fan.h, fan.iterations, fan.reason)
