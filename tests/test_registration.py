"""Sub-pixel cross-correlation kernels and the interpolating samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctalign import (
    AmbiguousShiftError,
    ConeGeometry,
    FanGeometry,
    ProjectionStack,
    Sinogram,
    sample_detector,
    sample_periodic,
    xcorr_shift_1d,
    xcorr_shift_rows,
    xcorr_shift_s_2d,
)
from ctalign import registration
from ctalign.registration import _peak_shift, _spectral_upsample
from conftest import count_calls, two_plane_detector, two_plane_periodic, two_stage_periodic


def bump(n, center, width):
    """Periodized Gaussian; its autocorrelation has a single peak."""
    t = np.arange(n, dtype=float)
    d = (t - center + n / 2) % n - n / 2
    return np.exp(-0.5 * (d / width) ** 2)


def delay(x, d):
    """y(i) = x(i - d) for real d, via an exact spectral phase ramp."""
    n = x.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * k * d / n)).real


class TestXcorr1D:
    def test_identical_inputs_give_zero(self):
        a = bump(64, 20.0, 4.0)
        assert xcorr_shift_1d(a, a) == 0.0

    def test_integer_circular_shift(self):
        a = bump(64, 20.0, 4.0)
        b = np.roll(a, 7)  # b(i) = a(i - 7), so b against a reads +7
        assert xcorr_shift_1d(b, a) == 7.0

    def test_negative_shift(self):
        a = bump(100, 50.0, 5.0)
        assert xcorr_shift_1d(np.roll(a, -9), a) == -9.0

    def test_spectral_shift_2p3(self):
        a = bump(128, 40.0, 6.0)
        assert xcorr_shift_1d(delay(a, 2.3), a) == pytest.approx(2.3, abs=0.05)

    def test_result_range_unwraps(self):
        a = bump(64, 32.0, 3.0)
        d = xcorr_shift_1d(np.roll(a, -20), a)
        assert -32 < d <= 32
        assert d == -20.0

    def test_all_zero_raises(self):
        with pytest.raises(AmbiguousShiftError):
            xcorr_shift_1d(np.zeros(16), np.zeros(16))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xcorr_shift_1d(np.ones(8), np.ones(9))

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError, match="inputs must be 1D with at least 2 samples"):
            xcorr_shift_1d(np.ones((2, 8)), np.ones((2, 8)))

    def test_non_finite_rejected(self):
        a = np.ones(8)
        b = a.copy()
        b[3] = np.nan
        with pytest.raises(ValueError):
            xcorr_shift_1d(a, b)

    @given(
        n=st.integers(16, 128),
        center=st.floats(0.0, 127.0),
        width=st.floats(1.0, 10.0),
        shift=st.integers(-4, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_shifts_exact(self, n, center, width, shift):
        """Compactly supported signal away from the wrap boundary: exact."""
        a = bump(n, center % n, min(width, n / 8))
        assert xcorr_shift_1d(np.roll(a, shift), a) == float(shift)

    @given(
        n=st.integers(8, 96),
        c1=st.floats(0.0, 95.0),
        c2=st.floats(0.0, 95.0),
        w=st.floats(1.0, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, n, c1, c2, w):
        """shift(a, b) == -shift(b, a), up to the n-periodic boundary case."""
        a = bump(n, c1 % n, min(w, n / 6))
        b = bump(n, c2 % n, min(w, n / 6))
        total = xcorr_shift_1d(a, b) + xcorr_shift_1d(b, a)
        assert total == 0.0 or abs(total) == n

    @given(k=st.integers(-6, 12))
    @settings(max_examples=20, deadline=None)
    def test_power_of_two_scaling_bitwise(self, k):
        a = bump(80, 30.0, 4.0)
        b = np.roll(a, 5) + 0.01 * np.sin(np.arange(80.0))
        c = 2.0**k
        assert xcorr_shift_1d(c * a, c * b) == xcorr_shift_1d(a, b)

    def test_generic_scaling_within_resolution(self):
        a = bump(80, 30.0, 4.0)
        b = np.roll(a, 5)
        assert xcorr_shift_1d(3.7 * a, 3.7 * b) == pytest.approx(xcorr_shift_1d(a, b), abs=0.05)


def bump_rows(rng, k, n):
    """k periodized Gaussians at random centres and widths."""
    return np.array([bump(n, rng.uniform(0.0, n), rng.uniform(1.0, n / 6)) for _ in range(k)])


def shifts_1d(a, b):
    """xcorr_shift_1d row by row, NaN where it raises AmbiguousShiftError."""
    out = []
    for x, y in zip(a, b):
        try:
            out.append(xcorr_shift_1d(x, y))
        except AmbiguousShiftError:
            out.append(math.nan)
    return np.array(out)


def same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


class TestXcorrRows:
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("n", [64, 33])
    def test_rows_are_the_1d_shifts(self, k, n):
        rng = np.random.default_rng(100 * k + n + 20)
        a, b = bump_rows(rng, k, n), bump_rows(rng, k, n)
        b[::2] = a[::2] + 1e-3 * rng.normal(size=(len(a[::2]), n))  # small shifts too
        assert same_bits(xcorr_shift_rows(a, b), shifts_1d(a, b))
        assert same_bits(xcorr_shift_rows(b, a), shifts_1d(b, a))

    def test_pinned_half_sample_tie_per_row(self):
        a = bump(9, 0.0, 1.0)
        b = delay(a, 1.525)  # tied peaks at the 1/20-sample shifts 1.5 and 1.55
        rows = xcorr_shift_rows(np.array([a, b, a]), np.array([b, a, a]))
        assert same_bits(rows, [xcorr_shift_1d(a, b), xcorr_shift_1d(b, a), 0.0])
        assert rows[0] + rows[1] == 0.0

    def test_shift_of_exactly_half_the_length(self):
        b = bump_rows(np.random.default_rng(7), 3, 32)
        a = np.roll(b, 16, axis=1)
        for x, y in ((a, b), (b, a)):
            rows = xcorr_shift_rows(x, y)
            assert same_bits(rows, shifts_1d(x, y))
            assert np.all(rows == 16.0)

    def test_zero_row_is_flagged_alone(self):
        rng = np.random.default_rng(3)
        a, b = bump_rows(rng, 4, 48), bump_rows(rng, 4, 48)
        clean = xcorr_shift_rows(a, b)
        a[2] = 0.0
        flagged = xcorr_shift_rows(a, b)
        assert np.isnan(flagged[2])
        keep = [0, 1, 3]
        assert same_bits(flagged[keep], clean[keep])
        with pytest.raises(AmbiguousShiftError):
            xcorr_shift_1d(a[2], b[2])

    def test_non_finite_row_rejected(self):
        a = bump_rows(np.random.default_rng(4), 3, 16)
        b = a.copy()
        b[1, 5] = np.inf
        with pytest.raises(ValueError):
            xcorr_shift_rows(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.ones(8), np.arange(8.0)),  # 1-D: use xcorr_shift_1d
            (np.ones((2, 8)), np.ones((3, 8))),
            (np.ones((2, 8)), np.ones((2, 9))),
            (np.ones((2, 1)), np.ones((2, 1))),
        ],
    )
    def test_bad_shapes_rejected(self, a, b):
        with pytest.raises(ValueError):
            xcorr_shift_rows(a, b)


class TestXcorrS2D:
    def _pair(self, ds, dbeta, n_beta=32, n_s=48):
        base = np.add.outer(bump(n_beta, 10.0, 3.0), bump(n_s, 30.0, 4.0))
        shifted = np.roll(base, (dbeta, ds), axis=(0, 1))
        return shifted, base

    def test_identical_inputs(self):
        a, _ = self._pair(0, 0)
        assert xcorr_shift_s_2d(a, a) == 0.0

    def test_returns_only_s_component(self):
        a, b = self._pair(3, 5)
        assert xcorr_shift_s_2d(a, b) == 3.0

    def test_spectral_shift_4p5(self):
        _, base = self._pair(0, 0)
        shifted = np.roll(delay(base, 4.5), 2, axis=0)
        assert xcorr_shift_s_2d(shifted, base) == pytest.approx(4.5, abs=0.05)

    def test_all_zero_raises(self):
        with pytest.raises(AmbiguousShiftError):
            xcorr_shift_s_2d(np.zeros((4, 8)), np.zeros((4, 8)))

    def test_1d_input_rejected(self):
        with pytest.raises(ValueError):
            xcorr_shift_s_2d(np.ones(8), np.ones(8))

    @pytest.mark.parametrize("shape", [(32, 48), (33, 48), (32, 47), (31, 45)])
    @pytest.mark.parametrize("ds", [3.0, -7.0, 4.5, -2.5])
    def test_real_fft_matches_complex_formula(self, shape, ds):
        """The real-FFT correlation finds the peak of the complex formula."""

        def complex_formula(a, b, upsample):
            corr = np.fft.ifft2(np.fft.fft2(a) * np.conj(np.fft.fft2(b))).real
            row = corr[np.unravel_index(np.argmax(corr), corr.shape)[0]]
            return _peak_shift(_spectral_upsample(row, upsample), upsample)

        rng = np.random.default_rng(int(4 * ds) % 97 + shape[0] + shape[1])
        for _ in range(3):
            b = rng.normal(size=shape)
            a = np.roll(delay(b, ds), 5, axis=0) + 0.1 * rng.normal(size=shape)
            got = xcorr_shift_s_2d(a, b)
            assert got == complex_formula(a, b, 20)
            assert got == pytest.approx(ds, abs=0.05)

    @pytest.mark.parametrize("shape", [(3, 5), (7, 4), (255, 257), (361, 200)])
    def test_correlation_is_the_2d_real_formula_bit_for_bit(self, monkeypatch, shape):
        """The axis-by-axis correlation is irfft2(rfft2(a) * conj(rfft2(b)))
        bit for bit, so neither its peak row nor the shift can drift."""
        rng = np.random.default_rng(shape[0] * shape[1])
        b = rng.normal(size=shape)
        a = np.roll(delay(b, 1.5), 1, axis=0) + 0.1 * rng.normal(size=shape)
        want = np.fft.irfft2(np.fft.rfft2(a) * np.conj(np.fft.rfft2(b)), s=shape)
        inverses, irfft = [], np.fft.irfft

        def recording_irfft(*args, **kwargs):
            inverses.append(irfft(*args, **kwargs))
            return inverses[-1]

        monkeypatch.setattr(np.fft, "irfft", recording_irfft)
        got = xcorr_shift_s_2d(a, b)
        assert np.array_equal(inverses[0], want)
        row = want[np.unravel_index(np.argmax(want), shape)[0]]
        assert got == _peak_shift(_spectral_upsample(row, 20), 20)


def assert_matches_broadcast_copies(sample, data, *coords):
    """sample on the coordinates as given equals, bit for bit, sample on
    broadcast copies of them, and returns a fresh writable array of the
    broadcast shape (a float for 0-d queries)."""
    got = sample(data, *coords)
    copies = [c.copy() for c in np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))]
    want = sample(data, *copies)
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    if shape == ():
        assert type(got) is float and type(want) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        return
    assert got.shape == shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable
    for array in (data.values, *coords, *copies):
        assert not np.shares_memory(got, array)


@pytest.fixture
def small_sino():
    geom = FanGeometry(2.0, 9, 1.0, 12)
    rng = np.random.default_rng(7)
    return Sinogram(geom, rng.uniform(0.5, 2.0, size=(12, 9)))


class TestSamplePeriodic:
    @pytest.mark.parametrize("offset", [None, 0.3])
    def test_against_sums_the_residual_of_the_read(self, small_sino, offset):
        s = small_sino.geometry.s_axis() + 0.37
        read = sample_periodic(small_sino, s, None, offset)
        against = np.random.default_rng(3).uniform(0.5, 2.0, size=read.shape)
        sse, norm = sample_periodic(small_sino, s, None, offset, against=against)
        assert sse == pytest.approx(np.sum((read - against) ** 2), rel=1e-12)
        assert norm == pytest.approx(np.sum(against**2), rel=1e-12)

    def test_against_of_another_shape_rejected(self, small_sino):
        with pytest.raises(ValueError):
            sample_periodic(small_sino, small_sino.geometry.s_axis(), None, against=np.ones((3, 9)))

    def test_empty_query_reads_no_point(self, small_sino):
        empty = np.zeros(0)
        assert sample_periodic(small_sino, empty, empty).shape == (0,)
        assert sample_periodic(small_sino, empty, None).shape == (12, 0)
        assert sample_periodic(small_sino, empty, None, against=np.zeros((12, 0))) == (0.0, 0.0)

    def test_grid_points_bit_exact(self, small_sino):
        geom = small_sino.geometry
        s = geom.s_axis()[None, :]
        beta = geom.beta_axis()[:, None]
        assert np.array_equal(sample_periodic(small_sino, s, beta), small_sino.values)

    def test_beta_periodicity(self, small_sino):
        geom = small_sino.geometry
        beta = geom.beta_axis()[3]
        s = geom.s_axis()[2]
        assert sample_periodic(small_sino, s, beta + 2 * math.pi) == small_sino.values[3, 2]

    def test_beta_midpoint_is_mean(self, small_sino):
        geom = small_sino.geometry
        s = geom.s_axis()[4]
        mid = 2.5 * geom.beta_step
        expected = 0.5 * (small_sino.values[2, 4] + small_sino.values[3, 4])
        assert sample_periodic(small_sino, s, mid) == pytest.approx(expected, rel=1e-12)

    def test_beta_wraps_between_last_and_first_view(self, small_sino):
        geom = small_sino.geometry
        s = geom.s_axis()[1]
        beta = (geom.n_beta - 0.5) * geom.beta_step
        expected = 0.5 * (small_sino.values[-1, 1] + small_sino.values[0, 1])
        assert sample_periodic(small_sino, s, beta) == pytest.approx(expected, rel=1e-12)

    def test_zero_fill_outside_detector(self, small_sino):
        assert sample_periodic(small_sino, 5.0, 0.3) == 0.0
        assert sample_periodic(small_sino, -1.6, 1.0) == 0.0

    def test_scalar_in_scalar_out(self, small_sino):
        out = sample_periodic(small_sino, 0.0, 0.0)
        assert isinstance(out, float)

    def test_non_finite_rejected(self, small_sino):
        with pytest.raises(ValueError):
            sample_periodic(small_sino, math.nan, 0.0)

    def test_non_finite_angle_rejected(self, small_sino):
        with pytest.raises(ValueError):
            sample_periodic(small_sino, 0.0, math.nan)

    @pytest.mark.parametrize(
        "case", ["grid", "grid-full-beta", "off-detector-wrapped", "reflected", "negative-angles", "scalar", "scalar-s"]
    )
    def test_unbroadcast_matches_broadcast_copies(self, small_sino, case):
        geom = small_sino.geometry
        s = geom.s_axis()[None, :]
        beta = geom.beta_axis()[:, None]
        coords = {
            "grid": (s, beta),
            "grid-full-beta": (s, beta + 2 * math.pi + 0.0 * s),
            "off-detector-wrapped": (
                np.linspace(-1.6, 1.6, geom.n_s)[None, :],
                np.linspace(-7.0, 14.0, geom.n_beta)[:, None],
            ),
            "reflected": (-s + 0.3, beta + math.pi + 2.0 * np.arctan((s - 0.15) / geom.source_radius)),
            "negative-angles": (s[0], -beta - 0.05 * s),
            "scalar": (0.3, -0.2),
            "scalar-s": (-0.25, np.array([[-1.0], [0.0], [7.0]])),
        }[case]
        assert_matches_broadcast_copies(sample_periodic, small_sino, *coords)


    @pytest.mark.parametrize("case", ["grid", "grid-wrapped", "near-grid", "reflected", "scalar"])
    def test_single_plane_matches_two_planes(self, small_sino, case):
        """Skipping the upper view plane when every view weight is zero
        changes no value (at most the sign of a zero)."""
        geom = small_sino.geometry
        s = geom.s_axis()[None, :]
        beta = geom.beta_axis()[:, None]
        coords = {
            "grid": (-s + 0.3, beta),
            "grid-wrapped": (np.linspace(-1.6, 1.6, 2 * geom.n_s), beta - 4 * math.pi),
            "near-grid": (s, beta + 1e-12),
            "reflected": (-s + 0.3, beta + math.pi + 2.0 * np.arctan((s - 0.15) / geom.source_radius)),
            "scalar": (0.3, 2 * geom.beta_step),
        }[case]
        assert np.array_equal(sample_periodic(small_sino, *coords), two_plane_periodic(small_sino, *coords))


class TestSampleDetector:
    @pytest.fixture
    def small_stack(self):
        geom = ConeGeometry(2.0, 7, 5, 1.0, 0.8, 6)
        rng = np.random.default_rng(11)
        return ProjectionStack(geom, rng.uniform(0.5, 2.0, size=(6, 5, 7)))

    def test_grid_points_bit_exact(self, small_stack):
        geom = small_stack.geometry
        u = geom.u_axis()[None, None, :]
        v = geom.v_axis()[None, :, None]
        beta = geom.beta_axis()[:, None, None]
        assert np.array_equal(sample_detector(small_stack, u, v, beta), small_stack.values)

    def test_empty_query_reads_no_point(self, small_stack):
        empty = np.zeros(0)
        assert sample_detector(small_stack, empty, empty, empty).shape == (0,)
        assert sample_detector(small_stack, empty, 0.0, None).shape == (6, 0)

    def test_v_outside_is_zero(self, small_stack):
        assert sample_detector(small_stack, 0.0, 2.0, 0.0) == 0.0

    @pytest.mark.parametrize("u, v, beta", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan)])
    def test_non_finite_rejected(self, small_stack, u, v, beta):
        with pytest.raises(ValueError):
            sample_detector(small_stack, u, v, beta)

    @pytest.mark.parametrize("case", ["grid", "off-detector-wrapped", "tilted", "scalar", "scalar-uv"])
    def test_unbroadcast_matches_broadcast_copies(self, small_stack, case):
        geom = small_stack.geometry
        u = geom.u_axis()[None, :]
        beta = geom.beta_axis()[:, None]
        eta = 0.3
        coords = {
            "grid": (u, geom.v_axis()[[0, 1, 2, 3, 4, 0, 1]][None, :], beta - 2 * math.pi),
            "off-detector-wrapped": (
                np.linspace(-1.5, 1.5, geom.n_u)[None, :],
                np.linspace(-1.2, 1.2, geom.n_u)[None, :],
                np.linspace(-7.0, 14.0, geom.n_beta)[:, None],
            ),
            "tilted": (u * math.cos(eta), -u * math.sin(eta), beta + 0.1),
            "scalar": (0.2, -0.1, 7.0),
            "scalar-uv": (0.2, -0.1, np.array([[-1.0], [0.0], [7.0]])),
        }[case]
        assert_matches_broadcast_copies(sample_detector, small_stack, *coords)

    @pytest.mark.parametrize("case", ["grid", "tilted-on-views", "near-grid", "off-view", "scalar"])
    def test_single_plane_matches_two_planes(self, small_stack, case):
        geom = small_stack.geometry
        u = geom.u_axis()[None, :]
        beta = geom.beta_axis()[:, None]
        eta = 0.3
        coords = {
            "grid": (u, geom.v_axis()[[0, 1, 2, 3, 4, 0, 1]][None, :], beta),
            "tilted-on-views": (u * math.cos(eta), -u * math.sin(eta), beta + 2 * math.pi),
            "near-grid": (u, 0.0 * u, beta - 1e-12),
            "off-view": (u * math.cos(eta), -u * math.sin(eta), beta + 0.1),
            "scalar": (0.2, -0.1, geom.beta_step),
        }[case]
        assert np.array_equal(sample_detector(small_stack, *coords), two_plane_detector(small_stack, *coords))

    def test_cell_center_is_corner_mean(self):
        geom = ConeGeometry(2.0, 2, 2, 1.0, 1.0, 2)
        rng = np.random.default_rng(3)
        stack = ProjectionStack(geom, rng.uniform(size=(2, 2, 2)))
        got = sample_detector(stack, 0.0, 0.0, 0.5 * geom.beta_step)
        assert got == pytest.approx(stack.values.mean(), rel=1e-12)


@pytest.mark.filterwarnings("error")
class TestFarOffGrid:
    """A detector coordinate far off the grid reads 0, with no invalid integer cast."""

    @pytest.mark.parametrize("x", [1e300, -1e300])
    @pytest.mark.parametrize("beta", [0.3, None])
    def test_sample_periodic_reads_zero(self, small_sino, x, beta):
        assert np.all(sample_periodic(small_sino, np.array([x]), beta) == 0.0)

    @pytest.mark.parametrize("x", [1e300, -1e300])
    @pytest.mark.parametrize("axis", ["u", "v"])
    @pytest.mark.parametrize("beta", [0.3, None])
    def test_sample_detector_reads_zero(self, x, axis, beta):
        geom = ConeGeometry(2.0, 7, 5, 1.0, 0.8, 6)
        stack = ProjectionStack(geom, np.random.default_rng(11).uniform(0.5, 2.0, size=(6, 5, 7)))
        u, v = (np.array([x]), 0.0) if axis == "u" else (0.0, np.array([x]))
        assert np.all(sample_detector(stack, u, v, beta) == 0.0)


class TestShiftViews:
    """sample_periodic on every stored view (beta=None), each column at its
    own view-angle offset."""

    @pytest.fixture
    def sino(self):
        geom = FanGeometry(2.0, 9, 1.0, 12)
        return Sinogram(geom, np.random.default_rng(5).uniform(0.5, 2.0, size=(12, 9)))

    def test_whole_view_offsets_roll_bit_exactly(self, sino):
        step = 2 * math.pi / 12
        k = np.arange(9) - 4  # negative offsets wrap too
        out = sample_periodic(sino, sino.geometry.s_axis(), None, k * step)
        for i in range(9):
            assert np.array_equal(out[:, i], np.roll(sino.values[:, i], -k[i]))

    def test_half_view_offset_is_neighbour_mean(self, sino):
        out = sample_periodic(sino, sino.geometry.s_axis(), None, np.full(9, 11.5 * 2 * math.pi / 12))
        values = sino.values
        expected = 0.5 * (values[np.arange(12) - 1] + values)  # view j + 11.5 is between j - 1 and j
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    @pytest.mark.parametrize("n_beta", [5, 7, 64, 256])
    def test_matches_sampler_at_shifted_angles(self, n_beta):
        geom = FanGeometry(2.0, 33, 1.0, n_beta)
        sino = Sinogram(geom, np.random.default_rng(n_beta).uniform(0.5, 2.0, size=(n_beta, 33)))
        offset = math.pi + 2.0 * np.arctan((geom.s_axis() - 0.1) / geom.source_radius)
        want = sample_periodic(sino, geom.s_axis(), geom.beta_axis()[:, None] + offset)
        got = sample_periodic(sino, geom.s_axis(), None, offset)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * 2.0)

    def test_fresh_array(self, sino):
        out = sample_periodic(sino, sino.geometry.s_axis(), None, np.zeros(9))
        assert np.array_equal(out, sino.values)
        assert not np.shares_memory(out, sino.values)

    def test_view_offset_needs_all_views(self, sino):
        with pytest.raises(ValueError, match="view_offset needs beta=None"):
            sample_periodic(sino, 0.0, 0.0, 0.1)

    def test_non_finite_view_offset_rejected(self, sino):
        for offset in (math.nan, np.full(9, math.inf)):
            with pytest.raises(ValueError, match="wrap_angle requires finite angles"):
                sample_periodic(sino, sino.geometry.s_axis(), None, offset)


class TestPerPointIsOneView:
    """A query at view angles beta is row 0 of the all-views read with beta
    as the view offsets, bit for bit: stored view 0 sits at angle 0.  The
    detector sampler, whose all-views read takes no offsets, matches its
    two-plane reference on the same queries."""

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_periodic(self, small_sino, on_grid):
        geom = small_sino.geometry
        s = geom.s_axis() + (0.0 if on_grid else 0.3 * geom.pixel_size)
        beta = geom.beta_axis()[:, None] + (0.0 if on_grid else 0.4 * geom.beta_step)
        beta = np.concatenate([beta, beta - 4 * math.pi, beta[::-1] + 2 * math.pi - 1e-12])
        grid = sample_periodic(small_sino, s, beta)
        assert grid.shape == (3 * geom.n_beta, geom.n_s)
        assert grid.tobytes() == sample_periodic(small_sino, s, None, beta)[0].tobytes()
        for b in beta[:, 0]:
            x = s[3] if on_grid else 0.123
            got = sample_periodic(small_sino, x, b)
            assert type(got) is float
            assert got == sample_periodic(small_sino, x, None, b)[0]

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_detector(self, on_grid):
        geom = ConeGeometry(2.0, 7, 5, 1.0, 0.8, 6)
        stack = ProjectionStack(geom, np.random.default_rng(13).uniform(0.5, 2.0, size=(6, 5, 7)))
        u = geom.u_axis() + (0.0 if on_grid else 0.3 * geom.pixel_size)
        v = geom.v_axis()[[0, 1, 2, 3, 4, 0, 1]] + (0.0 if on_grid else 0.6 * geom.pixel_size_v)
        beta = geom.beta_axis()[:, None] + (0.0 if on_grid else 0.4 * geom.beta_step)
        beta = np.concatenate([beta, beta + 2 * math.pi, -beta])
        grid = sample_detector(stack, u, v, beta)
        assert grid.shape == (3 * geom.n_beta, 7)
        assert grid.tobytes() == two_plane_detector(stack, u, v, beta).tobytes()
        for b in beta[:, 0]:
            got = sample_detector(stack, u[2], v[4], b)
            assert type(got) is float
            assert got == two_plane_detector(stack, u[2], v[4], b)


def gathered(gathers):
    """The number of points read by the recorded _gather calls (flat, index, off)."""
    return sum(index.size for _, index, _ in gathers)


class TestZeroWeightAxes:
    """Every read gathers an axis's upper neighbour only where its weight is
    nonzero at some point: each gathered point counts once, so a skipped
    axis halves the count."""

    @pytest.mark.parametrize("s_on_grid", [True, False])
    @pytest.mark.parametrize("beta_on_grid", [True, False])
    def test_periodic_gathers(self, monkeypatch, small_sino, s_on_grid, beta_on_grid):
        geom = small_sino.geometry
        s = geom.s_axis() + (0.0 if s_on_grid else 0.3 * geom.pixel_size)
        beta = geom.beta_axis()[:, None] + (0.0 if beta_on_grid else 0.4 * geom.beta_step)
        gathers = count_calls(monkeypatch, registration, "_gather")
        got = sample_periodic(small_sino, s, beta)
        assert gathered(gathers) == geom.n_beta * geom.n_s * 2 ** ((not s_on_grid) + (not beta_on_grid))
        assert np.array_equal(got, two_plane_periodic(small_sino, s, beta))
        # all views in one block: each detector corner is gathered once on
        # the views, plus one view if adjacent views are blended
        offset = np.full(geom.n_s, 0.0 if beta_on_grid else 0.4 * geom.beta_step)
        gathers.clear()
        got = sample_periodic(small_sino, s, None, offset)
        assert len(gathers) == 2 ** (not s_on_grid)
        assert gathered(gathers) == (geom.n_beta + (not beta_on_grid)) * geom.n_s * 2 ** (not s_on_grid)
        assert np.array_equal(got, two_stage_periodic(small_sino, s, None, offset))

    @pytest.mark.parametrize("u_on_grid", [True, False])
    @pytest.mark.parametrize("v_on_grid", [True, False])
    @pytest.mark.parametrize("beta_on_grid", [True, False])
    def test_detector_gathers(self, monkeypatch, u_on_grid, v_on_grid, beta_on_grid):
        geom = ConeGeometry(2.0, 7, 5, 1.0, 0.8, 6)
        stack = ProjectionStack(geom, np.random.default_rng(11).uniform(0.5, 2.0, size=(6, 5, 7)))
        u = geom.u_axis() + (0.0 if u_on_grid else 0.3 * geom.pixel_size)
        v = geom.v_axis()[[0, 1, 2, 3, 4, 0, 1]] + (0.0 if v_on_grid else 0.6 * geom.pixel_size_v)
        beta = geom.beta_axis()[:, None] + (0.0 if beta_on_grid else 0.4 * geom.beta_step)
        gathers = count_calls(monkeypatch, registration, "_gather")
        got = sample_detector(stack, u, v, beta)
        assert gathered(gathers) == 6 * 7 * 2 ** ((not u_on_grid) + (not v_on_grid) + (not beta_on_grid))
        assert np.array_equal(got, two_plane_detector(stack, u, v, beta))
