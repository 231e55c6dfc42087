"""Fan-beam shift estimators: profile identities, each method on clean
analytic data, fixed-point behaviour, and invariance properties."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctalign import (
    AlignmentResult,
    AmbiguousShiftError,
    FanAlignConfig,
    FanGeometry,
    Sinogram,
    align_fan,
    fan_project,
    make_disk_phantom,
    profile_p,
    reflected_resampling,
    sample_periodic,
    symmetry_mse,
    unit_disk_half_width,
    xcorr_shift_1d,
    xcorr_shift_s_2d,
)
from ctalign import fan_align, registration
from ctalign.core import FAN_METHODS
from ctalign.fan_align import fixed_point_shift, reflect
from ctalign.simulate import InstabilityModel
from conftest import (
    H_TRUE,
    SOURCE_RADIUS,
    count_calls,
    fan_case_id,
    fan_geometry,
    lockstep_median_fixed_point,
    sequential_median_fixed_point,
    two_stage_periodic,
)

each_method = pytest.mark.parametrize("method", FAN_METHODS, ids=fan_case_id)


def align(sino, method, **settings):
    """align_fan of the method tag method, with settings on the default config."""
    return align_fan(sino, FanAlignConfig(method=method, **settings))


def reference_solve(sino, cfg):
    """(h, iterations, reason) of the shift solve of cfg.method, composed
    from the public kernels: Yang and LY register the angular sum profile p
    against its reversal, 2DR halves the s shift of the 2D correlation of the
    sinogram with its reflected resampling at h = 0, FP and FP_K are
    fixed_point_shift from one start and from cfg.K starts."""
    if cfg.method in ("Yang", "LY"):
        p = profile_p(sino)
        return 0.5 * xcorr_shift_1d(p, p[::-1]), 0, ""
    if cfg.method == "2DR":
        return 0.5 * xcorr_shift_s_2d(sino.values, reflected_resampling(sino, 0.0)), 0, ""
    return fixed_point_shift(sino, replace(cfg, K=1) if cfg.method == "FP" else cfg)[:3]


def profile_w(sino):
    """Symmetry-reflected profile w_i = sum_j g(-s_i, b_j + pi + 2*atan(s_i/r)):
    for data shifted by h, p(s) ~= w(s - 2h)."""
    return reflected_resampling(sino, 0.0).sum(axis=0)


def shifted_copy(sino, d):
    """Shift detector columns by integer d, zero-filling the vacated edge."""
    grid = np.zeros_like(sino.values)
    if d > 0:
        grid[:, d:] = sino.values[:, :-d]
    elif d < 0:
        grid[:, :d] = sino.values[:, -d:]
    else:
        grid[:] = sino.values
    return Sinogram(sino.geometry, grid)


class TestProfiles:
    def test_constant_sinogram_profiles(self):
        geom = FanGeometry(2.0, 5, 1.0, 4)
        sino = Sinogram(geom, np.ones((4, 5)))
        # every angle contributes 1 per column
        assert np.array_equal(profile_p(sino), np.full(5, 4.0))
        assert np.array_equal(profile_w(sino), np.full(5, 4.0))

    def test_profile_p_even_for_centered_disk(self):
        # rotationally symmetric object: evenness holds to roundoff
        from ctalign import Phantom3D

        geom = fan_geometry(256)
        sino = fan_project(Phantom3D(spheres=(((0.0, 0.0, 0.0), 0.5, 1.0),)), geom)
        p = profile_p(sino)
        assert np.abs(p - p[::-1]).max() <= 1e-6 * p.max()

    def test_profile_p_even_for_offcenter_disk(self):
        # generic aligned object: evenness to view-discretization tolerance
        from ctalign import Phantom3D

        geom = fan_geometry(256)
        sino = fan_project(Phantom3D(spheres=(((0.3, 0.0, -0.2), 0.25, 1.0),)), geom)
        p = profile_p(sino)
        assert np.abs(p - p[::-1]).max() <= 1e-3 * p.max()

    def test_profile_p_not_even_when_shifted(self, ref_sino):
        p = profile_p(ref_sino)
        assert np.abs(p - p[::-1]).max() > 1e-3 * np.abs(p).max()

    def test_profile_w_matches_p_when_aligned(self, aligned_sino):
        p = profile_p(aligned_sino)
        w = profile_w(aligned_sino)
        assert np.abs(w - p).max() <= 1e-3 * np.abs(p).max()

    def test_profile_w_displaced_by_twice_the_shift(self, ref_sino):
        d = xcorr_shift_1d(profile_p(ref_sino), profile_w(ref_sino))
        assert d == pytest.approx(2.0 * H_TRUE, abs=0.1)

    @pytest.mark.parametrize("alpha", [0.0, 0.004, 0.01])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_scan_w_is_p_reversed_so_ly_is_yang(self, seed, alpha):
        """A linear, periodic read in beta keeps each column's sum over the
        full scan, so w is p reversed to rounding and LY returns Yang's h."""
        sino = fan_project(make_disk_phantom(seed, n_disks=30), fan_geometry(256), H_TRUE, InstabilityModel(alpha))
        p = profile_p(sino)
        assert np.max(np.abs(profile_w(sino) - p[::-1])) <= 1.1e-14 * np.max(p)
        assert align(sino, "LY").h == align(sino, "Yang").h


class TestAlignersOnCleanData:
    @each_method
    def test_aligned_input_estimates_zero(self, method, aligned_sino):
        result = align(aligned_sino, method)
        assert result.h == pytest.approx(0.0, abs=0.05)
        assert result.eta == 0.0

    @each_method
    def test_shifted_input_recovers_truth(self, method, ref_sino):
        result = align(ref_sino, method)
        assert result.h == pytest.approx(H_TRUE, abs=0.15)

    def test_method_tags(self, ref_sino):
        tags = {align(ref_sino, method).method for method in FAN_METHODS}
        assert tags == {"Yang", "LY", "2DR", "FP", "FP_K"}

    @each_method
    def test_result_is_the_solve_and_one_mse_read(self, method, monkeypatch):
        """align_fan returns its method's shift solve, (h, iterations,
        reason), and the symmetry MSE read once at that h."""
        sino, cfg = small_fan(alpha=0.01), FanAlignConfig(method=method, K=4)
        h, iterations, reason = reference_solve(sino, cfg)
        want = AlignmentResult(
            h=float(h), eta=0.0, mse=symmetry_mse(sino, h), iterations=iterations, method=method, reason=reason
        )
        reads = count_calls(monkeypatch, fan_align, "symmetry_mse")
        assert repr(align_fan(sino, cfg)) == repr(want)
        assert [h_read for _, h_read in reads] == [h]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            FanAlignConfig(method="simplex")

    @each_method
    def test_huge_data_name_the_overflow(self, method):
        """Finite data so large that the correlation, or Yang's and LY's
        profile before it (1e307), overflows raise a ValueError that names
        it, with no numpy warning first."""
        sino = small_fan()
        for scale in (1e300, 1e307):
            with pytest.raises(ValueError, match="overflow"):
                align(Sinogram(sino.geometry, sino.values * scale), method)


class TestReflectedResampling:
    def test_aligned_resampling_matches_original(self, aligned_sino):
        w2d = reflected_resampling(aligned_sino, 0.0)
        rel = np.linalg.norm(w2d - aligned_sino.values) / np.linalg.norm(aligned_sino.values)
        assert rel <= 1e-2

    def test_at_true_shift_matches_shifted_original(self, ref_sino):
        w2d = reflected_resampling(ref_sino, H_TRUE)
        rel = np.linalg.norm(w2d - ref_sino.values) / np.linalg.norm(ref_sino.values)
        assert rel <= 1e-2


def reflection_at_view_angles(sino, h):
    """reflected_resampling by the full-grid formula: the sampler at the
    2-D array of reflected view angles."""
    geom = sino.geometry
    s = geom.s_axis()
    h_s = h * geom.pixel_size
    beta = geom.beta_axis()[:, None] + math.pi + 2.0 * np.arctan((s - h_s) / geom.source_radius)
    return sample_periodic(sino, -s + 2.0 * h_s, beta)


def on_column_shift(geom):
    """A nonzero shift (px) equal to a detector sample s_i, whose reflected
    column then has a view offset of exactly pi."""
    for s_i in geom.s_axis()[::-1]:
        h = s_i / geom.pixel_size
        if s_i != 0.0 and h * geom.pixel_size == s_i:
            return h
    raise AssertionError("no detector sample survives the pixel round trip")


class TestViewShiftPath:
    """The all-views reflection reads the stored views and then shifts each
    column along beta; it agrees with the full-grid formula."""

    N_S = 33

    @pytest.fixture(scope="class", params=[5, 7, 64, 256])
    def sino(self, request):
        geom = FanGeometry(SOURCE_RADIUS, self.N_S, unit_disk_half_width(SOURCE_RADIUS), request.param)
        return fan_project(make_disk_phantom(1, n_disks=30), geom, h=2.37)

    @pytest.mark.parametrize("h", [0.0, 2.37, -2.37, 0.6 * N_S, "on-column"])
    def test_matches_full_grid_formula(self, sino, h):
        if h == "on-column":
            h = on_column_shift(sino.geometry)
        got = reflected_resampling(sino, h)
        want = reflection_at_view_angles(sino, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(sino.values))


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


class TestAllViewsRead:
    """The all-views reflection, one blocked read, equals bit for bit its
    two-stage reference: the full-grid read at every stored view, then each
    column shifted along the view axis."""

    @pytest.fixture(scope="class", params=[5, 7, 64, 257])
    def sino(self, request):
        geom = FanGeometry(SOURCE_RADIUS, 33, unit_disk_half_width(SOURCE_RADIUS), request.param)
        return fan_project(make_disk_phantom(1, n_disks=30), geom, h=2.37)

    @pytest.mark.parametrize("h", [0.0, 2.37, -2.37, 0.6 * 33])
    def test_matches_two_stage_read(self, monkeypatch, sino, h):
        got = reflected_resampling(sino, h)
        monkeypatch.setattr(fan_align, "sample_periodic", two_stage_periodic)
        assert np.array_equal(got, reflected_resampling(sino, h))

    @pytest.mark.parametrize("h", [0.0, 37.3])
    def test_block_of_one_view_row(self, monkeypatch, h):
        n_s = registration._BLOCK + 11
        geom = FanGeometry(SOURCE_RADIUS, n_s, unit_disk_half_width(SOURCE_RADIUS), 5)
        sino = Sinogram(geom, np.random.default_rng(9).uniform(0.5, 2.0, size=(5, n_s)))
        got = reflected_resampling(sino, h)
        monkeypatch.setattr(fan_align, "sample_periodic", two_stage_periodic)
        assert np.array_equal(got, reflected_resampling(sino, h))

    @pytest.mark.parametrize("h", [0.0, 17.3])
    def test_peak_memory_near_the_output(self, h):
        """No full-size index array or temporary: the read allocates at
        most half its output on top of it."""
        sino = Sinogram(fan_geometry(512), np.random.default_rng(4).uniform(0.5, 2.0, size=(512, 512)))
        peak, out = traced_peak(reflected_resampling, sino, h)
        assert peak <= 1.5 * out.nbytes

    @pytest.mark.parametrize("h", [0.0, 2.37])
    def test_spectrum_is_the_rfft_of_the_read(self, h):
        """The read's rfft along s, taken block by block (16 views each, odd
        width) into given rows, is the rfft of the whole read bit for bit."""
        geom = FanGeometry(SOURCE_RADIUS, 1001, unit_disk_half_width(SOURCE_RADIUS), 53)
        sino = Sinogram(geom, np.random.default_rng(6).uniform(0.5, 2.0, size=(53, 1001)))
        spectrum = np.empty((53, 501), dtype=complex)
        assert reflect(sino, h, spectrum=spectrum) is spectrum
        assert np.array_equal(spectrum, np.fft.rfft(reflected_resampling(sino, h), axis=1))

    def test_2dr_peak_memory_is_its_two_half_spectra(self):
        """2DR builds neither the reflected sinogram nor the whole correlation:
        its two row spectra, about two sinograms, are its one large array."""
        sino = Sinogram(fan_geometry(512), np.random.default_rng(4).uniform(0.5, 2.0, size=(512, 512)))
        peak, _ = traced_peak(align_fan, sino, FanAlignConfig("2DR"))
        assert peak <= 2.5 * sino.values.nbytes

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_shift_rejected(self, sino, h):
        with pytest.raises(ValueError, match="s coordinates must be finite"):
            reflected_resampling(sino, h)


class TestFixedPoint:
    def test_converges_in_one_iteration_when_aligned(self, aligned_sino):
        result = align(aligned_sino, "FP")
        assert result.converged
        assert result.iterations == 1

    def test_converges_quickly_when_shifted(self, ref_sino):
        result = align(ref_sino, "FP")
        assert result.converged
        assert result.iterations <= 5

    def test_self_consistency_at_estimate(self, ref_sino):
        """The returned h is a fixed point: the shift measured there is exactly 0."""
        result = align(ref_sino, "FP")
        assert result.converged
        assert xcorr_shift_1d(ref_sino.values[0], reflect(ref_sino, result.h, 0.0)) == 0.0

    def test_iteration_budget_respected(self, ref_sino):
        result = align(ref_sino, "FP", max_iter=1)
        assert not result.converged
        assert result.iterations == 1

    @pytest.mark.parametrize("method", ["FP", "FP_K"])
    def test_iteration_cap_names_itself(self, method):
        """A fixed-point run stopped by max_iter leaves the result unconverged, and its reason says so."""
        sino = fan_project(make_disk_phantom(0), fan_geometry(32), h=2.0)
        result = align(sino, method, max_iter=1)
        assert (result.converged, result.reason) == (False, "a fixed-point run reached max_iter 1")
        assert fixed_point_shift(sino, FanAlignConfig(K=1 if method == "FP" else 10, max_iter=1))[2] == result.reason


class TestFixedPointMultiStart:
    def test_start_indices_evenly_spaced(self, monkeypatch):
        # rounding of j*n/K, not floor: (7, 3) starts at views 0, 2, 5
        for n_beta, K, starts in ((360, 10, tuple(range(0, 360, 36))), (7, 3, (0, 2, 5))):
            geom = FanGeometry(SOURCE_RADIUS, 16, unit_disk_half_width(SOURCE_RADIUS), n_beta)
            sino = Sinogram(geom, np.random.default_rng(0).random(geom.shape))
            reflects = count_calls(monkeypatch, fan_align, "reflect")
            fixed_point_shift(sino, FanAlignConfig(K=K, max_iter=1))
            beta0 = reflects[0][2].ravel()
            assert tuple(np.rint(beta0 / geom.beta_step).astype(int).tolist()) == starts

    def test_k_exceeding_view_count_rejected(self, ref_sino):
        with pytest.raises(ValueError):
            align(ref_sino, "FP_K", K=ref_sino.geometry.n_beta + 1)

    def test_single_start_equals_plain_fixed_point(self):
        """FP is FP_K with K = 1: the same run, bit for bit, including runs of several iterations."""
        for alpha in (0.0, 0.004, 0.01):
            sino = small_fan(alpha)
            one = align(sino, "FP_K", K=1)
            plain = align(sino, "FP")
            got = [(r.h, r.iterations, r.converged, r.mse) for r in (one, plain)]
            assert repr(got[0]) == repr(got[1])

    def test_corrupted_view_is_outvoted(self, ref_sino):
        grid = ref_sino.values.copy()
        grid[0] = 0.0
        broken = Sinogram(ref_sino.geometry, grid)
        # the start at the zeroed view fails, the median over the rest holds
        result = align(broken, "FP_K", K=10)
        assert result.h == pytest.approx(H_TRUE, abs=0.1)

    def test_all_starts_failing_raises(self, ref_geom):
        sino = Sinogram(ref_geom, np.zeros((ref_geom.n_beta, ref_geom.n_s)))
        with pytest.raises(AmbiguousShiftError):
            align(sino, "FP_K", K=4)


def small_fan(alpha=0.0):
    """64 x 64 fan scan, h = 2.5 px; the FP runs take 2 to 4 iterations."""
    instability = InstabilityModel(alpha) if alpha > 0.0 else None
    return fan_project(make_disk_phantom(1), fan_geometry(64), h=2.5, instability=instability)


class TestLockstepRuns:
    """fixed_point_shift advances its K runs together; each run must end as
    it would alone (sequential_median_fixed_point), bit for bit."""

    @staticmethod
    def both(sino, cfg):
        lockstep, sequential = lockstep_median_fixed_point(sino, cfg), sequential_median_fixed_point(sino, cfg)
        assert repr(lockstep) == repr(sequential)
        return lockstep[1]

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_equals_sequential_runs(self, k):
        self.both(small_fan(), FanAlignConfig(K=k))

    def test_failing_start_is_dropped(self):
        sino = small_fan()
        grid = sino.values.copy()
        grid[0] = 0.0
        runs = self.both(Sinogram(sino.geometry, grid), FanAlignConfig(K=10))
        assert [j for j, _, _, _ in runs] == list(range(1, 10))

    def test_runs_ending_at_different_iterations(self):
        runs = self.both(small_fan(alpha=0.01), FanAlignConfig(K=10))
        assert len({iters for _, _, iters, _ in runs}) > 1

    def test_unconverged_runs_at_the_iteration_cap(self):
        runs = self.both(small_fan(alpha=0.01), FanAlignConfig(K=10, max_iter=2))
        assert {conv for _, _, _, conv in runs} == {True, False}

    def test_one_reflection_and_one_correlation_per_iteration(self, monkeypatch):
        sino = small_fan(alpha=0.01)
        cfg = FanAlignConfig(method="FP_K")
        _, runs = lockstep_median_fixed_point(sino, cfg)
        iterations = [iters for _, _, iters, _ in runs]
        assert max(iterations) < sum(iterations)
        monkeypatch.setattr(fan_align, "symmetry_mse", lambda sino, h: 0.0)  # count the run reads only
        reads = count_calls(monkeypatch, fan_align, "sample_periodic")
        correlations = count_calls(monkeypatch, fan_align, "xcorr_shift_rows")
        result = align_fan(sino, cfg)
        assert result.iterations == len(reads) == len(correlations) == max(iterations)


class TestOneSymmetryRead:
    @each_method
    def test_one_mse_read_at_the_estimate(self, method, ref_sino, monkeypatch):
        reads = count_calls(monkeypatch, fan_align, "symmetry_mse")
        result = align(ref_sino, method)
        assert [h for _, h in reads] == [result.h]
        assert result.mse == symmetry_mse(ref_sino, result.h)
        assert result.trace == ()

    def test_ly_reads_the_reflection_only_for_its_mse(self, ref_sino, monkeypatch):
        """LY registers p against p reversed, which is w on a full scan: its one
        reflected read is the one behind its mse, summed block by block."""
        reads = count_calls(monkeypatch, fan_align, "reflect")
        result = align(ref_sino, "LY")
        assert [h for _, h in reads] == [result.h]


class TestSymmetryMse:
    def test_small_when_aligned(self, aligned_sino):
        assert symmetry_mse(aligned_sino, 0.0) <= 1e-4

    def test_minimized_near_truth(self, ref_sino):
        at_truth = symmetry_mse(ref_sino, H_TRUE)
        assert at_truth <= 1e-4
        assert at_truth < symmetry_mse(ref_sino, H_TRUE + 2.0)
        assert at_truth < symmetry_mse(ref_sino, H_TRUE - 2.0)

    def test_zero_sinogram_rejected(self, ref_geom):
        sino = Sinogram(ref_geom, np.zeros((ref_geom.n_beta, ref_geom.n_s)))
        with pytest.raises(ValueError):
            symmetry_mse(sino, 0.0)

    def test_overflowing_sums_name_the_overflow(self):
        sino = small_fan()
        with pytest.raises(ValueError, match="overflow"):
            symmetry_mse(Sinogram(sino.geometry, sino.values * 1e300), 1.0)

    @pytest.mark.parametrize("method", ["FP", "2DR"], ids=fan_case_id)
    def test_estimates_match_grid_argmin(self, method, ref_sino):
        grid = np.arange(-20.0, 20.0 + 1e-9, 0.05)
        losses = [symmetry_mse(ref_sino, h) for h in grid]
        best = grid[int(np.argmin(losses))]
        result = align(ref_sino, method)
        assert abs(result.h - best) <= 0.25


def block_summed_residual(sino, h):
    """|g - g_reflected(h)|^2 as symmetry_mse and loss_L sum it: the all-views
    reflection read against the stored views."""
    return reflect(sino, h, against=sino.values)[0]


class TestBlockSummedResidual:
    """The all-views reflection read against the stored views sums the
    residual block by block as the blocked read makes the reflection, and
    builds no reflected sinogram."""

    @pytest.fixture(scope="class", params=[(255, 97), (5, registration._BLOCK + 11)], ids=["partial-last-block", "view-per-block"])
    def sino(self, request):
        n_beta, n_s = request.param
        geom = FanGeometry(SOURCE_RADIUS, n_s, unit_disk_half_width(SOURCE_RADIUS), n_beta)
        return Sinogram(geom, np.random.default_rng(n_s).uniform(0.5, 2.0, size=(n_beta, n_s)))

    @pytest.mark.parametrize("h", [0.0, 3.0, 2.37, -7.81, 1e6])
    def test_matches_the_full_reflection(self, sino, h):
        want = np.sum((reflected_resampling(sino, h) - sino.values) ** 2)
        assert block_summed_residual(sino, h) == pytest.approx(want, rel=1e-12)

    def test_against_at_view_angles_sums_the_read(self):
        """reflect at given view angles honours against: one block's sums
        of the read it returns without against."""
        sino = small_fan()
        h, beta = 1.3, np.array([[0.2], [4.1]])
        r = reflect(sino, h, beta)
        a = np.random.default_rng(3).uniform(0.5, 2.0, size=r.shape)
        assert reflect(sino, h, beta, against=a) == (np.vdot(r - a, r - a), np.vdot(a, a))

    def test_off_the_detector_is_exactly_one(self, sino):
        """|g|^2 is summed on the residual's blocks: a reflection that reads
        only zeros gives |g|^2 / |g|^2 with the same float sums."""
        assert symmetry_mse(sino, 1e6) == 1.0

    @pytest.mark.parametrize("h", [0.0, 17.3])
    def test_peak_memory_below_one_sinogram(self, h):
        sino = Sinogram(fan_geometry(512), np.random.default_rng(4).uniform(0.5, 2.0, size=(512, 512)))
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            block_summed_residual(sino, h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < sino.values.nbytes


class TestInvariances:
    @each_method
    def test_translation_equivariance(self, method, aligned_sino):
        shifted = shifted_copy(aligned_sino, 4)
        base = align(aligned_sino, method).h
        moved = align(shifted, method).h
        assert moved - base == pytest.approx(4.0, abs=0.05)

    @each_method
    def test_scale_invariance(self, method, ref_sino):
        scaled = Sinogram(ref_sino.geometry, ref_sino.values * 2.0**7)
        assert align(scaled, method).h == align(ref_sino, method).h

    def test_mse_scale_behaviour(self, ref_sino):
        # normalized objective: overall intensity scale drops out entirely
        scaled = Sinogram(ref_sino.geometry, ref_sino.values * 2.0**7)
        assert symmetry_mse(scaled, H_TRUE) == symmetry_mse(ref_sino, H_TRUE)

    @settings(max_examples=10, deadline=None)
    @given(d=st.integers(min_value=-6, max_value=6))
    def test_fp_translation_property(self, d):
        geom = fan_geometry(96)
        ph = make_disk_phantom(11, n_disks=12)
        sino = fan_project(ph, geom, h=0.0)
        result = align(shifted_copy(sino, d), "FP")
        assert result.h == pytest.approx(float(d), abs=0.05)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"K": 0},
            {"max_iter": 0},
            {"K": 2.5},
            {"max_iter": 2.5},
            {"K": 2.0},
            {"max_iter": math.nan},
            {"max_iter": "20"},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FanAlignConfig(**kwargs)

    def test_counts_of_any_integer_type_accepted(self):
        sino, cfg = small_fan(), FanAlignConfig(method="FP_K", K=np.int64(3), max_iter=np.int32(20))
        assert repr(align_fan(sino, cfg)) == repr(align(sino, "FP_K", K=3))
