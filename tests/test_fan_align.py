"""Fan-beam shift estimators: profile identities, each aligner on clean
analytic data, fixed-point behaviour, and invariance properties."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctalign import (
    AmbiguousShiftError,
    FanAlignConfig,
    FanGeometry,
    Sinogram,
    align_2dr,
    align_fan,
    align_fp,
    align_fp_k,
    align_ly,
    align_yang,
    fan_project,
    make_disk_phantom,
    profile_p,
    profile_w,
    reflected_resampling,
    sample_periodic,
    symmetry_mse,
    unit_disk_half_width,
)
from ctalign import fan_align, registration
from ctalign.fan_align import fp_start_indices
from ctalign.simulate import InstabilityModel
from conftest import (
    H_TRUE,
    SOURCE_RADIUS,
    count_calls,
    fan_geometry,
    lockstep_median_fixed_point,
    sequential_median_fixed_point,
    two_stage_periodic,
)

ALL_ALIGNERS = [align_yang, align_ly, align_2dr, align_fp, align_fp_k]


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
        from ctalign import Phantom2D

        geom = fan_geometry(256)
        sino = fan_project(Phantom2D(disks=(((0.0, 0.0), 0.5, 1.0),)), geom)
        p = profile_p(sino)
        assert np.abs(p - p[::-1]).max() <= 1e-6 * p.max()

    def test_profile_p_even_for_offcenter_disk(self):
        # generic aligned object: evenness to view-discretization tolerance
        from ctalign import Phantom2D

        geom = fan_geometry(256)
        sino = fan_project(Phantom2D(disks=(((0.3, -0.2), 0.25, 1.0),)), geom)
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
        from ctalign import xcorr_shift_1d

        d = xcorr_shift_1d(profile_p(ref_sino), profile_w(ref_sino))
        assert d == pytest.approx(2.0 * H_TRUE, abs=0.1)


class TestAlignersOnCleanData:
    @pytest.mark.parametrize("aligner", ALL_ALIGNERS)
    def test_aligned_input_estimates_zero(self, aligner, aligned_sino):
        result = aligner(aligned_sino, FanAlignConfig())
        assert result.h == pytest.approx(0.0, abs=0.05)
        assert result.eta == 0.0

    @pytest.mark.parametrize("aligner", ALL_ALIGNERS)
    def test_shifted_input_recovers_truth(self, aligner, ref_sino):
        result = aligner(ref_sino, FanAlignConfig())
        assert result.h == pytest.approx(H_TRUE, abs=0.15)

    def test_method_tags(self, ref_sino):
        tags = {f(ref_sino, FanAlignConfig()).method for f in ALL_ALIGNERS}
        assert tags == {"Yang", "LY", "2DR", "FP", "FP_K"}

    def test_dispatch_matches_direct_call(self, ref_sino):
        for name, fn in [("Yang", align_yang), ("LY", align_ly), ("2DR", align_2dr), ("FP", align_fp), ("FP_K", align_fp_k)]:
            via_dispatch = align_fan(ref_sino, FanAlignConfig(method=name))
            assert via_dispatch.h == fn(ref_sino, FanAlignConfig()).h
            assert via_dispatch.method == name

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            FanAlignConfig(method="simplex")


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
    h_s = geom.px_to_s(h)
    beta = geom.beta_axis()[:, None] + math.pi + 2.0 * np.arctan((s - h_s) / geom.source_radius)
    return sample_periodic(sino, -s + 2.0 * h_s, beta)


def on_column_shift(geom):
    """A nonzero shift (px) equal to a detector sample s_i, whose reflected
    column then has a view offset of exactly pi."""
    for s_i in geom.s_axis()[::-1]:
        h = geom.s_to_px(s_i)
        if s_i != 0.0 and geom.px_to_s(h) == s_i:
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
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = reflected_resampling(sino, h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_shift_rejected(self, sino, h):
        with pytest.raises(ValueError, match="s coordinates must be finite"):
            reflected_resampling(sino, h)


class TestFixedPoint:
    def test_converges_in_one_iteration_when_aligned(self, aligned_sino):
        result = align_fp(aligned_sino, FanAlignConfig())
        assert result.converged
        assert result.iterations == 1

    def test_converges_quickly_when_shifted(self, ref_sino):
        result = align_fp(ref_sino, FanAlignConfig())
        assert result.converged
        assert result.iterations <= 5

    def test_self_consistency_at_estimate(self, ref_sino):
        """At the returned h the update map moves by less than tol_h."""
        from ctalign import sample_periodic, xcorr_shift_1d
        from ctalign.fan_align import reflect

        cfg = FanAlignConfig()
        result = align_fp(ref_sino, cfg)
        lam = ref_sino.values[0]
        geom = ref_sino.geometry
        sample = lambda s, b: sample_periodic(ref_sino, s, b)
        pi = reflect(geom, sample, result.h, cfg.beta_index * geom.beta_step)
        assert abs(0.5 * xcorr_shift_1d(lam, pi, cfg.upsample)) < cfg.tol_h

    def test_iteration_budget_respected(self, ref_sino):
        result = align_fp(ref_sino, FanAlignConfig(max_iter=1))
        assert not result.converged
        assert result.iterations == 1

    def test_bad_beta_index_rejected(self, ref_sino):
        with pytest.raises(ValueError):
            align_fp(ref_sino, FanAlignConfig(beta_index=ref_sino.geometry.n_beta))


class TestFixedPointMultiStart:
    def test_start_indices_evenly_spaced(self):
        assert tuple(fp_start_indices(360, 10)) == tuple(range(0, 360, 36))
        # rounding of j*n/K, not floor
        assert tuple(fp_start_indices(7, 3)) == (0, 2, 5)

    def test_k_exceeding_view_count_rejected(self, ref_sino):
        with pytest.raises(ValueError):
            align_fp_k(ref_sino, FanAlignConfig(K=ref_sino.geometry.n_beta + 1))

    def test_single_start_equals_plain_fixed_point(self, ref_sino):
        one = align_fp_k(ref_sino, FanAlignConfig(K=1))
        plain = align_fp(ref_sino, FanAlignConfig())
        assert one.h == plain.h

    def test_corrupted_view_is_outvoted(self, ref_sino):
        grid = ref_sino.values.copy()
        grid[0] = 0.0
        broken = Sinogram(ref_sino.geometry, grid)
        # the start at the zeroed view fails, the median over the rest holds
        result = align_fp_k(broken, FanAlignConfig(K=10))
        assert result.h == pytest.approx(H_TRUE, abs=0.1)

    def test_all_starts_failing_raises(self, ref_geom):
        sino = Sinogram(ref_geom, np.zeros((ref_geom.n_beta, ref_geom.n_s)))
        with pytest.raises(AmbiguousShiftError):
            align_fp_k(sino, FanAlignConfig(K=4))


def small_fan(alpha=0.0):
    """64 x 64 fan scan, h = 2.5 px; the FP runs take 2 to 4 iterations."""
    instability = InstabilityModel(alpha) if alpha > 0.0 else None
    return fan_project(make_disk_phantom(1), fan_geometry(64), h=2.5, instability=instability)


def fan_sampler(sino):
    return lambda s, b: sample_periodic(sino, s, b)


class TestLockstepRuns:
    """fixed_point_shift advances its K runs together; each run must end as
    it would alone (sequential_median_fixed_point), bit for bit."""

    @staticmethod
    def both(sino, cfg):
        args = (sino.values, sino.geometry, fan_sampler(sino), cfg)
        lockstep, sequential = lockstep_median_fixed_point(*args), sequential_median_fixed_point(*args)
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
        _, runs = lockstep_median_fixed_point(sino.values, sino.geometry, fan_sampler(sino), cfg)
        iterations = [iters for _, _, iters, _ in runs]
        assert max(iterations) < sum(iterations)
        monkeypatch.setattr(fan_align, "symmetry_mse", lambda sino, h: 0.0)  # count the run reads only
        reads = count_calls(monkeypatch, fan_align, "sample_periodic")
        correlations = count_calls(monkeypatch, fan_align, "xcorr_shift_rows")
        result = align_fp_k(sino, cfg)
        assert result.iterations == len(reads) == len(correlations) == max(iterations)


class TestOneSymmetryRead:
    @pytest.mark.parametrize("aligner", ALL_ALIGNERS)
    def test_one_mse_read_at_the_estimate(self, aligner, ref_sino, monkeypatch):
        reads = count_calls(monkeypatch, fan_align, "symmetry_mse")
        result = aligner(ref_sino, FanAlignConfig())
        assert [h for _, h in reads] == [result.h]
        assert result.mse == symmetry_mse(ref_sino, result.h)
        assert result.trace == ()


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

    @pytest.mark.parametrize("aligner", [align_fp, align_2dr])
    def test_estimates_match_grid_argmin(self, aligner, ref_sino):
        grid = np.arange(-20.0, 20.0 + 1e-9, 0.05)
        losses = [symmetry_mse(ref_sino, h) for h in grid]
        best = grid[int(np.argmin(losses))]
        result = aligner(ref_sino, FanAlignConfig())
        assert abs(result.h - best) <= 0.25


class TestInvariances:
    @pytest.mark.parametrize("aligner", ALL_ALIGNERS)
    def test_translation_equivariance(self, aligner, aligned_sino):
        shifted = shifted_copy(aligned_sino, 4)
        base = aligner(aligned_sino, FanAlignConfig()).h
        moved = aligner(shifted, FanAlignConfig()).h
        assert moved - base == pytest.approx(4.0, abs=0.05)

    @pytest.mark.parametrize("aligner", ALL_ALIGNERS)
    def test_scale_invariance(self, aligner, ref_sino):
        scaled = Sinogram(ref_sino.geometry, ref_sino.values * 2.0**7)
        assert aligner(scaled, FanAlignConfig()).h == aligner(ref_sino, FanAlignConfig()).h

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
        result = align_fp(shifted_copy(sino, d), FanAlignConfig())
        assert result.h == pytest.approx(float(d), abs=0.05)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"K": 0},
            {"max_iter": 0},
            {"tol_h": 0.0},
            {"tol_h": math.inf},
            {"tol_h": math.nan},
            {"upsample": 0},
            {"beta_index": -1},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FanAlignConfig(**kwargs)
