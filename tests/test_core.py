"""Geometry containers, angle wrapping, and detector-axis conventions."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctalign import (
    AlignmentResult,
    ConeGeometry,
    FanGeometry,
    ProjectionStack,
    Sinogram,
    unit_disk_half_width,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_full_turn(self):
        assert wrap_angle(TWO_PI) == 0.0

    def test_negative_quarter(self):
        assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_tiny_negative_stays_below_two_pi(self):
        # remainder(-1e-18, 2*pi) rounds up to 2*pi; the wrap must not leak it
        assert 0.0 <= wrap_angle(-1e-18) < TWO_PI

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, TWO_PI, -math.pi]))
        assert np.allclose(out, [0.0, 0.0, math.pi])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            wrap_angle(bad)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_range_and_idempotence(self, beta):
        w = wrap_angle(beta)
        assert 0.0 <= w < TWO_PI
        assert wrap_angle(w) == w

    def test_bitwise_remainder_reference(self):
        # the reference is np.remainder with the 2*pi round-up mapped to 0
        rng = np.random.default_rng(5)
        turns = np.arange(-50, 51) * TWO_PI
        beta = np.concatenate(
            [
                rng.uniform(-100.0, 100.0, 10_000),
                rng.uniform(-1e-15, 1e-15, 1_000),
                turns,
                np.nextafter(turns, np.inf),
                np.nextafter(turns, -np.inf),
                [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
            ]
        )
        reference = np.remainder(beta, TWO_PI)
        reference[reference >= TWO_PI] = 0.0
        assert wrap_angle(beta).tobytes() == reference.tobytes()
        assert wrap_angle(-0.0) == 0.0 and math.copysign(1.0, wrap_angle(-0.0)) == 1.0

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_congruent_modulo_two_pi(self, beta):
        w = wrap_angle(beta)
        k = round((beta - w) / TWO_PI)
        assert beta - w == pytest.approx(k * TWO_PI, abs=1e-9)


class TestDetectorAxis:
    def test_three_samples(self):
        geom = FanGeometry(2.0, 3, 1.0, 4)
        assert np.array_equal(geom.s_axis(), [-1.0, 0.0, 1.0])

    def test_four_samples(self):
        geom = FanGeometry(2.0, 4, 1.0, 4)
        assert np.allclose(geom.s_axis(), [-1.0, -1 / 3, 1 / 3, 1.0])

    @pytest.mark.parametrize("n", [4, 5, 33, 256])
    def test_exact_antisymmetry(self, n):
        """s_i == -s_{n-1-i} bitwise, the property Yang's reversal relies on."""
        axis = FanGeometry(2.0, n, 1.1547, 8).s_axis()
        assert np.array_equal(axis, -axis[::-1])

    def test_unit_disk_half_width_r2(self):
        assert unit_disk_half_width(2.0) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)

    def test_unit_disk_half_width_needs_r_above_1(self):
        with pytest.raises(ValueError):
            unit_disk_half_width(1.0)

    def test_axis_is_read_only(self):
        axis = FanGeometry(2.0, 8, 1.0, 8).s_axis()
        with pytest.raises(ValueError):
            axis[0] = 99.0


# a valid geometry of each kind, by keyword, and its data shape
VALID = {
    FanGeometry: (dict(source_radius=2.0, n_s=8, s_max=1.0, n_beta=6), (6, 8)),
    ConeGeometry: (dict(source_radius=2.0, n_u=8, n_v=5, u_max=1.2, v_max=0.8, n_beta=6), (6, 5, 8)),
}
COUNTS = ("n_s", "n_u", "n_v", "n_beta")
both = pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)


class TestGeometry:
    """The one body of both geometries: its field checks and its view grid."""

    @both
    def test_beta_axis_excludes_endpoint(self, cls):
        geom = cls(**VALID[cls][0])
        beta = geom.beta_axis()
        assert beta[0] == 0.0
        assert beta[-1] < TWO_PI
        assert len(beta) == geom.n_beta
        assert np.allclose(np.diff(beta), geom.beta_step)

    @both
    def test_counts_of_any_integer_type_accepted(self, cls):
        kwargs, shape = VALID[cls]
        counts = {key: np.int64(value) for key, value in kwargs.items() if key in COUNTS} | {"n_beta": np.int32(6)}
        geom = cls(**kwargs | counts)
        assert geom.shape == shape  # views first, then (v,) u or s

    @both
    def test_pixel_size_is_the_axis_step(self, cls):
        """h pixels are h * pixel_size detector units: the step of the s or u axis."""
        geom = cls(**VALID[cls][0])
        axis = geom.s_axis() if cls is FanGeometry else geom.u_axis()
        np.testing.assert_allclose(np.diff(axis), geom.pixel_size, rtol=1e-12)

    @pytest.mark.parametrize(
        "cls, name, value",
        [
            (cls, name, value)
            for cls, (kwargs, _) in VALID.items()
            for name in kwargs
            for value in ((1, 2.5, 64.0, "64") if name in COUNTS else (0.0, -1.0, math.nan, math.inf))
        ],
        ids=lambda arg: arg.__name__ if isinstance(arg, type) else str(arg),
    )
    def test_each_field_checked(self, cls, name, value):
        """Every field of either geometry is checked, with its own message."""
        message = f"{name} must be an integer of at least 2" if name in COUNTS else f"{name} must be positive and finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**VALID[cls][0] | {name: value})


class TestConeGeometry:
    def test_central_fan_matches_equatorial_grid(self):
        geom = ConeGeometry(2.0, 64, 32, 1.2, 0.9, 48)
        fan = geom.central_fan()
        assert fan.n_s == geom.n_u
        assert fan.n_beta == geom.n_beta
        assert fan.s_max == geom.u_max
        assert np.array_equal(fan.s_axis(), geom.u_axis())

    def test_separate_pixel_sizes(self):
        geom = ConeGeometry(2.0, 11, 5, 1.0, 1.0, 8)
        assert geom.pixel_size == pytest.approx(0.2)
        assert geom.pixel_size_v == pytest.approx(0.5)


@pytest.mark.parametrize(
    "cls, geom",
    [(Sinogram, FanGeometry(2.0, 4, 1.0, 3)), (ProjectionStack, ConeGeometry(2.0, 4, 3, 1.0, 1.0, 2))],
    ids=["Sinogram", "ProjectionStack"],
)
class TestContainers:
    def test_shape_enforced(self, cls, geom):
        wrong = (*geom.shape[:-2], geom.shape[-1], geom.shape[-2])  # the last two axes swapped
        message = f"{cls.__name__} values must have shape {geom.shape}, got {wrong}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(geom, np.zeros(wrong))
        cls(geom, np.zeros(geom.shape))  # (n_beta, n_s) and (n_beta, n_v, n_u) are the contract

    def test_rejects_nan(self, cls, geom):
        values = np.zeros(geom.shape)
        values.flat[-2] = math.nan
        with pytest.raises(ValueError, match=f"^{cls.__name__} values must be finite$"):
            cls(geom, values)

    def test_values_read_only(self, cls, geom):
        data = cls(geom, np.ones(geom.shape))
        assert not data.values.flags.writeable
        with pytest.raises(ValueError):
            data.values[(0,) * data.values.ndim] = 2.0

    @pytest.mark.parametrize("name", ["values", "geometry", "new_attribute"])
    def test_attributes_frozen(self, cls, geom, name):
        data = cls(geom, np.ones(geom.shape))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, name, None)

    def test_repr_names_the_class(self, cls, geom):
        assert repr(cls(geom, np.ones(geom.shape))).startswith(f"{cls.__name__}(geometry=")


class TestAlignmentResult:
    def test_valid(self):
        r = AlignmentResult(h=10.0, eta=0.0, mse=1e-5, iterations=3, method="FP")
        assert r.converged
        assert r.reason == ""

    def test_converged_is_derived_from_the_reason(self):
        """The verdict is stored once: converged reads the reason and is no field of its own."""
        reason = "a fixed-point run reached max_iter 1"
        r = AlignmentResult(h=0.0, eta=0.0, mse=0.0, iterations=1, method="FP", reason=reason)
        assert (r.converged, r.reason) == (False, reason)
        assert "converged" not in {f.name for f in dataclasses.fields(AlignmentResult)}
        with pytest.raises(TypeError):
            AlignmentResult(h=0.0, eta=0.0, mse=0.0, iterations=0, method="FP", converged=False)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            AlignmentResult(h=0.0, eta=0.0, mse=0.0, iterations=0, method="simplex")

    def test_negative_mse_rejected(self):
        with pytest.raises(ValueError):
            AlignmentResult(h=0.0, eta=0.0, mse=-1.0, iterations=0, method="FP")

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations must be nonnegative"):
            AlignmentResult(h=0.0, eta=0.0, mse=0.0, iterations=-1, method="FP")

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            AlignmentResult(h=0.0, eta=math.pi / 2, mse=0.0, iterations=0, method="VP-2DR")
