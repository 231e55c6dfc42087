"""Geometry and data containers shared by the simulator and the estimators.

Coordinate conventions used throughout the package:

* 2D (fan beam): the source travels the circle r*(cos b, sin b); the
  effective detector is the line through the origin spanned by
  e_s(b) = (sin b, -cos b), so the detector point of coordinate s at view
  angle b is s*e_s(b).  With this orientation every consistent sinogram
  satisfies g(s, b) = g(-s, b + pi + 2*atan(s/r)).
* 3D (cone beam): the rotation axis is y; the source is r*(cos b, 0, sin b),
  the detector plane through the origin is spanned by
  e_u(b) = (sin b, 0, -cos b) and e_v = (0, 1, 0); the v = 0 slice of a cone
  acquisition is exactly the 2D fan geometry in the (x, z) plane.
* Shifts h are expressed in effective-detector pixels, geom.pixel_size wide
  (2*s_max/(n_s - 1) on the endpoint-inclusive grid): h * geom.pixel_size is
  the shift in s (or u) units.  Millimetres appear only at the CLI layer.

FanGeometry and ConeGeometry share one body, _Geometry, as Sinogram and ProjectionStack share _Data.
"""

import functools
import math
import numbers

import numpy as np
from dataclasses import InitVar, dataclass, field, fields

TWO_PI = 2.0 * math.pi

FAN_METHODS = ("Yang", "LY", "2DR", "FP", "FP_K")
CONE_METHODS = ("VP-2DR", "VP-FP_K")
INNER_METHODS = ("2dr", "fp_k")


def wrap_angle(beta):
    """Reduce an angle (scalar or array, radians) to [0, 2*pi).

    Rejects non-finite input.  Idempotent: wrapping twice equals wrapping
    once.
    """
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise ValueError("wrap_angle requires finite angles")
    # np.remainder bit for bit, as fmod plus remainder's sign fix: ~3x faster
    wrapped = np.fmod(beta, TWO_PI, out=np.empty(beta.shape))
    np.add(wrapped, TWO_PI, out=wrapped, where=wrapped < 0.0)
    # -0.0 becomes 0.0; the shift can round up to 2*pi for tiny negative inputs
    np.copyto(wrapped, 0.0, where=(wrapped == 0.0) | (wrapped >= TWO_PI))
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def positive_finite(name, value):
    """value, which must be positive and finite (else ValueError naming it)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")
    return value


def count_at_least(name, value, least=1):
    """value, which must be an integer, not a bool, no less than least (else ValueError naming it)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}")
    return value


def unit_disk_half_width(source_radius):
    """Detector half-width s_max = r / sqrt(r**2 - 1) tangent to the unit disk.

    This is the smallest effective detector that sees the entire unit-disk
    support; requires source_radius > 1.
    """
    r = float(source_radius)
    if not r > 1.0:
        raise ValueError("unit-disk coverage needs source_radius > 1")
    return r / math.sqrt(r * r - 1.0)


@functools.lru_cache
def _symmetric_axis(half_width, n):
    """Uniform endpoint-inclusive grid on [-half_width, half_width].

    Antisymmetrized so that axis[i] == -axis[n-1-i] bit-exactly; the
    estimators rely on exact reversal about the center.  Memoized: every call
    shares one view of a read-only base, which cannot be made writeable.
    """
    axis = np.linspace(-half_width, half_width, n)
    axis = 0.5 * (axis - axis[::-1])
    axis.flags.writeable = False
    return axis.view()


@dataclass(frozen=True)
class _Geometry:
    """Body of FanGeometry and ConeGeometry: the field checks, each other field positive and finite,
    then each count (int field) an integer of at least 2, and the view grid: n_beta views uniform
    on [0, 2*pi), the endpoint excluded."""

    def __post_init__(self):
        for f in sorted(fields(self), key=lambda f: f.type is int):
            if f.type is int:
                count_at_least(f.name, getattr(self, f.name), 2)
            else:
                positive_finite(f.name, getattr(self, f.name))

    @property
    def beta_step(self):
        return TWO_PI / self.n_beta

    def beta_axis(self):
        return np.arange(self.n_beta) * self.beta_step


@dataclass(frozen=True)
class FanGeometry(_Geometry):
    """Fan-beam acquisition: source circle radius, detector and view grids.

    s samples are uniform endpoint-inclusive on [-s_max, s_max].
    """

    source_radius: float
    n_s: int
    s_max: float
    n_beta: int

    @property
    def shape(self):
        """Shape of the data: (n_beta, n_s)."""
        return (self.n_beta, self.n_s)

    @property
    def pixel_size(self):
        """Effective detector pixel, in s units."""
        return 2.0 * self.s_max / (self.n_s - 1)

    def s_axis(self):
        return _symmetric_axis(self.s_max, self.n_s)


@dataclass(frozen=True)
class ConeGeometry(_Geometry):
    """Cone-beam acquisition: flat detector (u columns, v rows) and view grid.

    u and v are sampled like the fan s-axis (endpoint-inclusive, symmetric);
    the detector center u = v = 0 is a grid point for odd counts and falls
    between the two middle samples for even counts.
    """

    source_radius: float
    n_u: int
    n_v: int
    u_max: float
    v_max: float
    n_beta: int

    @property
    def shape(self):
        """Shape of the data: (n_beta, n_v, n_u)."""
        return (self.n_beta, self.n_v, self.n_u)

    @property
    def pixel_size(self):
        """Detector pixel along u, the axis h is measured on."""
        return 2.0 * self.u_max / (self.n_u - 1)

    @property
    def pixel_size_v(self):
        return 2.0 * self.v_max / (self.n_v - 1)

    def u_axis(self):
        return _symmetric_axis(self.u_max, self.n_u)

    def v_axis(self):
        return _symmetric_axis(self.v_max, self.n_v)

    def central_fan(self):
        """FanGeometry of the equatorial (v = 0) slice."""
        return FanGeometry(self.source_radius, self.n_u, self.u_max, self.n_beta)


@dataclass(frozen=True, eq=False)
class _Data:
    """Body of Sinogram and ProjectionStack: a geometry and a read-only float64 copy of finite values of its shape.
    _fresh=True, for a float64 array its builder hands over and no one else holds, freezes it without the copy."""

    geometry: _Geometry
    values: np.ndarray
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        values = self.values if _fresh else np.array(self.values, dtype=float)
        if values.shape != self.geometry.shape:
            raise ValueError(f"{type(self).__name__} values must have shape {self.geometry.shape}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{type(self).__name__} values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class Sinogram(_Data):
    """Fan-beam line integrals on the (beta, s) grid; values[j, i] = g(s_i, b_j)."""


@dataclass(frozen=True, eq=False)
class ProjectionStack(_Data):
    """Cone-beam projections; values[j, k, i] = g(u_i, v_k, b_j)."""


@dataclass(frozen=True)
class AlignmentResult:
    """Estimated misalignment and diagnostics of one estimator run.

    h is in effective pixels, eta in radians; mse is the symmetry error at
    the estimate.  trace holds the accepted variable-projection descent, one
    (k, h_k, eta_k, loss_k) per step from the start, loss_k the reduced loss;
    the fan estimators record none.  reason names the stop of an iterative method short of its
    tolerance, empty when the estimate is trusted; converged, derived from it, is True when empty.
    """

    h: float
    eta: float
    mse: float
    iterations: int
    method: str
    trace: tuple = field(default_factory=tuple)
    reason: str = ""

    def __post_init__(self):
        if self.method not in FAN_METHODS + CONE_METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not self.mse >= 0.0:
            raise ValueError("mse must be nonnegative")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not -math.pi / 2 < self.eta < math.pi / 2:
            raise ValueError("eta must lie in (-pi/2, pi/2)")

    @property
    def converged(self):
        return not self.reason
