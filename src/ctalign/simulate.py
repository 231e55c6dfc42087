"""Analytic phantoms and exact forward projectors for fan- and cone-beam data.

Misalignment is injected in the geometry: the value recorded at detector
coordinate s is the exact line integral through the true detector point
s - h (and, for cone data, through the in-plane-rotated (u, v)).  This keeps
estimator error free of interpolation error; resample_shift_rotate provides
the separate resampling path used on measured data.

Chord lengths are closed-form: a ray at distance d from the center of a
disk or sphere of radius R intersects it over a length 2*sqrt(R**2 - d**2);
a cylinder's chord is its lateral root interval clipped to its slab.
The line integrals evaluate it for every feature at every point.  The
projectors read each feature only on its shadow, through the same code, so
they skip only density * 0.0 terms and equal the line integrals bit for bit.
"""

import itertools
import math

import numpy as np
from dataclasses import dataclass

from .core import ProjectionStack, Sinogram, positive_finite
from .registration import sample_detector

_BLOCK_POINTS = 1 << 14  # points per block of views in fan_project: bounds its memory
_MARGIN, _SLACK = 2, 1e-12  # shadow widening: samples per side; rounding allowance on R**2 per (r + |c - S|)**2
_MAX_REJECTS = 1000  # rejected draws in a row after which _place gives up
# seeded phantoms: enclosing disk radius (below 1, so the shifted sinogram support stays
# on the detector), sphere radius range, enclosing cylinder (radius, half_height, density)
_DISK_RADIUS, _SPHERE_RADII, _CYLINDER = 0.85, (0.04, 0.12), (0.8, 0.55, 1.0)


@dataclass(frozen=True)
class Phantom2D:
    """Disks with additive densities inside the unit disk.

    disks is a tuple of (center (x, y), radius, density); background, if
    present, is an enclosing (center, radius, density) disk.  Void features
    carry negative density against a positive background; values are summed
    without clipping so projection is exactly linear in density.
    """

    disks: tuple
    background: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "disks", tuple((tuple(map(float, c)), float(r), float(d)) for c, r, d in self.disks))
        if self.background is not None:
            c, r, d = self.background
            object.__setattr__(self, "background", (tuple(map(float, c)), float(r), float(d)))
        for center, radius, density in self._components():
            if not radius > 0:
                raise ValueError("disk radii must be positive")
            if not math.isfinite(density):
                raise ValueError("densities must be finite")
            if math.hypot(*center) + radius > 1.0 + 1e-12:
                raise ValueError("phantom support must stay inside the unit disk")

    def _components(self):
        if self.background is not None:
            yield self.background
        yield from self.disks

    def component_arrays(self):
        """(centers (m, 2), radii (m,), densities (m,)) over background + disks."""
        comps = list(self._components())
        centers = np.array([c for c, _, _ in comps], dtype=float).reshape(-1, 2)
        radii = np.array([r for _, r, _ in comps], dtype=float)
        densities = np.array([d for _, _, d in comps], dtype=float)
        return centers, radii, densities


@dataclass(frozen=True)
class Phantom3D:
    """Spheres inside the unit cylinder (axis y), optional enclosing cylinder.

    spheres is a tuple of (center (x, y, z), radius, density); cylinder, if
    present, is (radius, half_height, density) centered at the origin with
    axis y.
    """

    spheres: tuple
    cylinder: tuple = None

    def __post_init__(self):
        object.__setattr__(
            self, "spheres", tuple((tuple(map(float, c)), float(r), float(d)) for c, r, d in self.spheres)
        )
        if self.cylinder is not None:
            r, hh, d = self.cylinder
            object.__setattr__(self, "cylinder", (float(r), float(hh), float(d)))
            if not (0 < r <= 1.0 and hh > 0):
                raise ValueError("cylinder needs 0 < radius <= 1 and half_height > 0")
            if not math.isfinite(d):
                raise ValueError("densities must be finite")
        for (x, y, z), radius, density in self.spheres:
            if not radius > 0:
                raise ValueError("sphere radii must be positive")
            if not math.isfinite(density):
                raise ValueError("densities must be finite")
            if math.hypot(x, z) + radius > 1.0 + 1e-12 or abs(y) + radius > 1.0 + 1e-12:
                raise ValueError("phantom support must stay inside the unit cylinder")


@dataclass(frozen=True)
class InstabilityModel:
    """Additive beam instability b(s, b) = alpha*(sin(pi*s/(2*s_max)) + cos(b/2) + 2)."""

    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be nonnegative and finite")

    def evaluate(self, s, beta, s_max):
        s = np.asarray(s, dtype=float)
        beta = np.asarray(beta, dtype=float)
        return self.alpha * (np.sin(np.pi * s / (2.0 * s_max)) + np.cos(beta / 2.0) + 2.0)


def _place(seed, n, radius_range, region_radius, half_height=None):
    """Rejection-sample n pairwise-disjoint voids (center, radius, -1.0): disks
    inside a disk of region_radius or, given half_height, spheres inside the cylinder
    of that radius and half height about the y axis (the disk lies in its x-z plane)."""
    lo, hi = radius_range
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError("radius_range must satisfy 0 < lo <= hi < 1")
    kind = "disks" if half_height is None else "spheres"
    if n < 0:
        raise ValueError(f"n_{kind} must be nonnegative")
    rng = np.random.default_rng(seed)
    placed = []
    rejects = 0
    while len(placed) < n:
        if rejects >= _MAX_REJECTS:
            raise ValueError(f"could not place {n} non-overlapping {kind}: {_MAX_REJECTS} draws in a row were rejected")
        rejects += 1
        radius = rng.uniform(lo, hi)
        reach = region_radius - radius
        ymax = math.inf if half_height is None else half_height - radius
        if reach <= 0 or ymax <= 0:
            continue
        # uniform over the admissible center disk
        rho = reach * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x, z = rho * math.cos(phi), rho * math.sin(phi)
        center = (x, z) if half_height is None else (x, rng.uniform(-ymax, ymax), z)
        if all(math.dist(center, c) > radius + r for c, r in placed):
            placed.append((center, radius))
            rejects = 0
    return tuple((center, radius, -1.0) for center, radius in placed)


def make_disk_phantom(seed, n_disks=30, radius_range=(0.02, 0.08)):
    """Seeded random phantom: void disks inside an enclosing solid disk.

    Deterministic for a fixed seed.  Disks are pairwise non-overlapping and
    fully inside the enclosing disk of density 1, each of density -1 so the
    total attenuation inside a void is zero.  Raises ValueError when
    rejection sampling gives up (_MAX_REJECTS rejected draws in a row).
    """
    return Phantom2D(_place(seed, n_disks, radius_range, _DISK_RADIUS), ((0.0, 0.0), _DISK_RADIUS, 1.0))


def make_sphere_phantom(seed, n_spheres=20):
    """Seeded random phantom: void spheres inside an enclosing solid cylinder.

    3D analogue of make_disk_phantom; spheres are pairwise disjoint and fully
    inside the cylinder (axis y, centered at the origin).
    """
    return Phantom3D(_place(seed, n_spheres, _SPHERE_RADII, *_CYLINDER[:2]), _CYLINDER)


def _chord(out, source, direction, center, radius, density, where=...):
    """out[where] += density * the chord that each line (source point, unit
    direction) cuts from the ball: the one chord formula of disks and spheres."""
    m = [p[where] - c for p, c in zip(source, center)]
    d = [q[where] for q in direction]
    tproj = sum((mi * di for mi, di in zip(m[1:], d[1:])), m[0] * d[0])
    under = radius * radius - (sum((mi * mi for mi in m[1:]), m[0] * m[0]) - tproj * tproj)
    out[where] += density * (2.0 * np.sqrt(np.maximum(under, 0.0)))


def _shadow(axis, r, a, b, radius, off=0.0):
    """(first, last) on the increasing detector axis bounding the lines from
    the source, at distance r, that meet a ball at depth a, offset b along the
    axis and off across it: the roots s of (a*s - b*r)**2 = R**2 * (r*r + s*s),
    widened.  The whole axis where the roots bound none."""
    reach2 = radius * radius + _SLACK * (r + np.sqrt(a * a + b * b + off * off)) ** 2
    den = a * a - reach2
    half = np.sqrt(reach2 * np.maximum(a * a + b * b - reach2, 0.0))
    lo = np.where(den > 0.0, r * (a * b - half) / np.where(den > 0.0, den, 1.0), -np.inf)
    hi = np.where(den > 0.0, r * (a * b + half) / np.where(den > 0.0, den, 1.0), np.inf)
    first = np.maximum(np.searchsorted(axis, lo) - _MARGIN, 0)
    return first, np.minimum(np.searchsorted(axis, hi, "right") + _MARGIN, len(axis))


def _fan_sum(phantom, r, s, beta, wheres=None):
    """fan_line_integral as an array, component k read on window wheres[k]."""
    s, beta = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(beta, dtype=float))
    cosb, sinb = np.cos(beta), np.sin(beta)
    srcx, srcy = r * cosb, r * sinb
    dx, dy = s * sinb - srcx, -s * cosb - srcy
    norm = np.hypot(dx, dy)
    source, direction = (srcx, srcy), (dx / norm, dy / norm)
    out = np.zeros(s.shape, dtype=float)
    for ball, where in zip(zip(*phantom.component_arrays()), wheres or itertools.repeat(...)):
        _chord(out, source, direction, *ball, where)
    return out


def fan_line_integral(phantom, source_radius, s, beta):
    """Exact fan-beam line integral of a Phantom2D at coordinates (s, beta).

    The ray runs from the source r*(cos b, sin b) through the detector point
    s*(sin b, -cos b); s and beta broadcast.  Every disk is evaluated at every
    point: the full-grid reference that fan_project equals bit for bit.  Any
    finite source_radius > 0, inside the phantom too; else ValueError.
    """
    out = _fan_sum(phantom, positive_finite("source_radius", float(source_radius)), s, beta)
    return float(out) if out.ndim == 0 else out


def fan_project(phantom, geom, h=0.0, instability=None):
    """Exact misaligned fan-beam sinogram of a Phantom2D.

    h is the detector shift in effective pixels; the value recorded at grid
    coordinate s_i is the exact line integral through true coordinate
    s_i - h (shift applied in the geometry, not by resampling).  The beam
    instability, if given, is added on the recorded grid afterwards.  Each
    disk is read on its shadow only, in blocks of _BLOCK_POINTS points.
    """
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    s_true, beta, r = geom.s_axis() - geom.px_to_s(h), geom.beta_axis(), float(geom.source_radius)
    centers, radii, _ = phantom.component_arrays()
    cosb, sinb = np.cos(beta)[:, None], np.sin(beta)[:, None]
    a, b = r - (centers[:, 0] * cosb + centers[:, 1] * sinb), centers[:, 0] * sinb - centers[:, 1] * cosb
    first, last = _shadow(s_true, r, a, b, radii)
    values = np.empty(geom.shape, dtype=float)
    step = max(1, _BLOCK_POINTS // geom.n_s)
    for j in range(0, geom.n_beta, step):
        rows = slice(j, j + step)  # each disk on the columns of its shadow in any of these views
        wheres = [(..., slice(*cols)) for cols in zip(first[rows].min(axis=0), last[rows].max(axis=0))]
        values[rows] = _fan_sum(phantom, r, s_true[None, :], beta[rows, None], wheres)
    if instability is not None and instability.alpha > 0.0:
        values = values + instability.evaluate(geom.s_axis()[None, :], beta[:, None], geom.s_max)
    return Sinogram(geom, values)


def _cylinder_chords(cylinder, source, direction):
    """Chord that each line (source on the plane y = 0, unit direction) cuts from
    the y-axis cylinder: the lateral roots clipped to the slab |t| <= half_height / |dy|
    (unbounded at dy = 0); a missed or tangent line has root 0, so no chord."""
    radius, half_height, _ = cylinder
    (ax, _, az), (dx, dy, dz) = source, direction
    qa = dx * dx + dz * dz  # (u**2 + r**2) / |ray|**2: positive for r > 0
    qb = 2.0 * (ax * dx + az * dz)
    qc = ax * ax + az * az - radius * radius
    root = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    with np.errstate(divide="ignore"):
        slab = half_height / np.abs(dy)
    lo = np.maximum((-qb - root) / (2.0 * qa), -slab)
    hi = np.minimum((-qb + root) / (2.0 * qa), slab)
    return np.maximum(hi - lo, 0.0)


def _cone_sum(phantom, r, u, v, beta, wheres=None):
    """cone_line_integral as an array, sphere k read on window wheres[k]."""
    u, v, beta = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (u, v, beta)))
    cosb, sinb = np.cos(beta), np.sin(beta)
    ax, ay, az = r * cosb, np.zeros_like(cosb), r * sinb
    dx, dy, dz = u * sinb - ax, v - ay, -u * cosb - az
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    source, direction = (ax, ay, az), (dx / norm, dy / norm, dz / norm)
    out = np.zeros(u.shape, dtype=float)
    if phantom.cylinder is not None:
        out += phantom.cylinder[2] * _cylinder_chords(phantom.cylinder, source, direction)
    for ball, where in zip(phantom.spheres, wheres or itertools.repeat(...)):
        _chord(out, source, direction, *ball, where)
    return out


def cone_line_integral(phantom, source_radius, u, v, beta):
    """Exact cone-beam line integral of a Phantom3D at coordinates (u, v, beta).

    The ray runs from the source r*(cos b, 0, sin b) through the detector
    point u*e_u(b) + v*e_v with e_u(b) = (sin b, 0, -cos b), e_v = (0, 1, 0).
    Every feature at every point: the reference cone_project equals bit for bit.
    Any finite source_radius > 0, inside the phantom too; else ValueError.
    """
    out = _cone_sum(phantom, positive_finite("source_radius", float(source_radius)), u, v, beta)
    return float(out) if out.ndim == 0 else out


def cone_project(phantom, geom, h=0.0, eta=0.0, instability=None):
    """Exact misaligned cone-beam projection stack of a Phantom3D.

    h (effective pixels, u axis) and eta (radians, in-plane detector
    rotation) are applied in the geometry: the value recorded at (u_i, v_k)
    is the line integral through the true detector point
    R_eta @ (u_i - h, v_k).  Instability, if given, is added per (u, beta),
    constant in v.  Each sphere is read on its shadow's rows and columns only.
    """
    if not -math.pi / 2 < eta < math.pi / 2:
        raise ValueError("eta must lie in (-pi/2, pi/2)")
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    u, v, beta = geom.u_axis() - geom.px_to_u(h), geom.v_axis(), geom.beta_axis()
    r = float(geom.source_radius)
    cose, sine = math.cos(eta), math.sin(eta)
    # true detector coordinates seen by recorded pixel (u_i, v_k)
    ut = u[None, :] * cose - v[:, None] * sine
    vt = u[None, :] * sine + v[:, None] * cose
    x, y, z, radii = np.array([(*c, rad) for c, rad, _ in phantom.spheres], dtype=float).reshape(-1, 4).T
    cosb, sinb = np.cos(beta)[:, None], np.sin(beta)[:, None]
    a, b = r - (x * cosb + z * sinb), x * sinb - z * cosb
    # recorded u, v run along cose*e_u + sine*e_v, cose*e_v - sine*e_u
    bu, bv = b * cose + y * sine, y * cose - b * sine
    rows, cols = np.stack(_shadow(v, r, a, bv, radii, bu), axis=-1), np.stack(_shadow(u, r, a, bu, radii, bv), axis=-1)
    values = np.empty((geom.n_beta, geom.n_v, geom.n_u), dtype=float)
    for j, angle in enumerate(beta):  # view by view to bound memory
        values[j] = _cone_sum(phantom, r, ut, vt, angle, [(slice(*k), slice(*i)) for k, i in zip(rows[j], cols[j])])
    if instability is not None and instability.alpha > 0.0:
        bump = instability.evaluate(geom.u_axis()[None, :], beta[:, None], geom.u_max)
        values = values + bump[:, None, :]
    return ProjectionStack(geom, values)


def resample_shift_rotate(stack, h, eta, rotate_first=False):
    """Apply detector shift and in-plane rotation to a stack by resampling.

    With rotate_first=False (default) the view is resampled under the
    misalignment map: out(u, v) = in((u-h)cos(eta) - v sin(eta),
    (u-h)sin(eta) + v cos(eta)).  With rotate_first=True the rotation acts
    first: out(u, v) = in(u cos(eta) - v sin(eta) - h, u sin(eta) + v
    cos(eta)).  A default-order call followed by a rotate_first call with
    (-h, -eta) is an exact inverse map pair, so the round trip differs from
    the original only by interpolation error.  Bilinear per view, zero fill
    off the detector.
    """
    geom = stack.geometry
    h_u = geom.px_to_u(h)
    cose, sine = math.cos(eta), math.sin(eta)
    u = geom.u_axis()[None, :]
    v = geom.v_axis()[:, None]
    if rotate_first:
        uq = u * cose - v * sine - h_u
        vq = u * sine + v * cose
    else:
        uq = (u - h_u) * cose - v * sine
        vq = (u - h_u) * sine + v * cose
    return ProjectionStack(geom, sample_detector(stack, uq, vq, None))
