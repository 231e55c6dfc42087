"""Analytic phantoms and exact forward projectors for fan- and cone-beam data.

Misalignment is injected in the geometry: the value recorded at detector
coordinate s is the exact line integral through the true detector point
s - h (and, for cone data, through the in-plane-rotated (u, v)).  This keeps
estimator error free of interpolation error; resample_shift_rotate provides
the separate resampling path used on measured data.

Chord lengths are closed-form: a ray at distance d from the center of a
disk or sphere of radius R intersects it over a length 2*sqrt(R**2 - d**2).
"""

import math

import numpy as np
from dataclasses import dataclass

from .core import ConeGeometry, FanGeometry, ProjectionStack, Sinogram
from .registration import sample_detector


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
        if not self.alpha >= 0.0:
            raise ValueError("alpha must be nonnegative")

    def evaluate(self, s, beta, s_max):
        s = np.asarray(s, dtype=float)
        beta = np.asarray(beta, dtype=float)
        return self.alpha * (np.sin(np.pi * s / (2.0 * s_max)) + np.cos(beta / 2.0) + 2.0)


def _place(seed, n, radius_range, region_radius, half_height=None):
    """Rejection-sample n pairwise-disjoint disks inside a disk of
    region_radius or, given half_height, n spheres inside the cylinder of that
    radius and half height about the y axis (the disk lies in its x-z plane)."""
    rng = np.random.default_rng(seed)
    lo, hi = radius_range
    kind = "disks" if half_height is None else "spheres"
    max_attempts = 2000 * max(n, 1)
    placed = []
    attempts = 0
    while len(placed) < n:
        if attempts >= max_attempts:
            raise RuntimeError(f"could not place {n} non-overlapping {kind} in {max_attempts} attempts")
        attempts += 1
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
    return placed


def make_disk_phantom(seed, n_disks=30, radius_range=(0.02, 0.08), density=1.0, enclosing_radius=0.85):
    """Seeded random phantom: void disks inside an enclosing solid disk.

    Deterministic for a fixed seed.  Disks are pairwise non-overlapping and
    fully inside the enclosing disk; each carries density -density so the
    total attenuation inside a void is zero.  The enclosing radius is kept
    below 1 so that the shifted sinogram support stays on the detector.

    Raises RuntimeError when rejection sampling cannot satisfy the
    non-overlap constraint within a bounded number of attempts.
    """
    lo, hi = radius_range
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError("radius_range must satisfy 0 < lo <= hi < 1")
    if n_disks < 0:
        raise ValueError("n_disks must be nonnegative")
    if not 0.0 < enclosing_radius <= 1.0:
        raise ValueError("enclosing_radius must lie in (0, 1]")
    placed = _place(seed, n_disks, radius_range, enclosing_radius)
    disks = tuple((center, radius, -density) for center, radius in placed)
    return Phantom2D(disks=disks, background=((0.0, 0.0), enclosing_radius, density))


def make_sphere_phantom(
    seed, n_spheres=20, radius_range=(0.04, 0.12), density=1.0, cylinder_radius=0.8, half_height=0.55
):
    """Seeded random phantom: void spheres inside an enclosing solid cylinder.

    3D analogue of make_disk_phantom; spheres are pairwise disjoint and fully
    inside the cylinder (axis y, centered at the origin).
    """
    lo, hi = radius_range
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError("radius_range must satisfy 0 < lo <= hi < 1")
    if n_spheres < 0:
        raise ValueError("n_spheres must be nonnegative")
    placed = _place(seed, n_spheres, radius_range, cylinder_radius, half_height)
    spheres = tuple((center, radius, -density) for center, radius in placed)
    return Phantom3D(spheres=spheres, cylinder=(cylinder_radius, half_height, density))


def fan_line_integral(phantom, source_radius, s, beta):
    """Exact fan-beam line integral of a Phantom2D at coordinates (s, beta).

    The ray runs from the source r*(cos b, sin b) through the detector point
    s*(sin b, -cos b); s and beta broadcast.  This is the analytic reference
    the sampled projectors and the symmetry tests are built on.
    """
    s, beta = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(beta, dtype=float))
    r = float(source_radius)
    cosb, sinb = np.cos(beta), np.sin(beta)
    srcx, srcy = r * cosb, r * sinb
    detx, dety = s * sinb, -s * cosb
    dx, dy = detx - srcx, dety - srcy
    norm = np.hypot(dx, dy)
    dx, dy = dx / norm, dy / norm
    out = np.zeros(s.shape, dtype=float)
    centers, radii, densities = phantom.component_arrays()
    for (cx, cy), radius, density in zip(centers, radii, densities):
        mx, my = srcx - cx, srcy - cy
        tproj = mx * dx + my * dy
        dist2 = mx * mx + my * my - tproj * tproj
        under = radius * radius - dist2
        chord = 2.0 * np.sqrt(np.maximum(under, 0.0))
        out += density * chord
    if out.ndim == 0:
        return float(out)
    return out


def fan_project(phantom, geom, h=0.0, instability=None):
    """Exact misaligned fan-beam sinogram of a Phantom2D.

    h is the detector shift in effective pixels; the value recorded at grid
    coordinate s_i is the exact line integral through true coordinate
    s_i - h (shift applied in the geometry, not by resampling).  The beam
    instability, if given, is added on the recorded grid afterwards.
    """
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    h_s = geom.px_to_s(h)
    s = geom.s_axis()
    beta = geom.beta_axis()
    values = fan_line_integral(phantom, geom.source_radius, (s - h_s)[None, :], beta[:, None])
    if instability is not None and instability.alpha > 0.0:
        values = values + instability.evaluate(s[None, :], beta[:, None], geom.s_max)
    return Sinogram(geom, values)


def _cylinder_chords(cyl, ax, ay, az, dx, dy, dz):
    """Intersection lengths of unit-direction rays with a y-axis cylinder."""
    radius, half_height, _ = cyl
    # lateral surface: quadratic in the (x, z) plane
    qa = dx * dx + dz * dz
    qb = 2.0 * (ax * dx + az * dz)
    qc = ax * ax + az * az - radius * radius
    tiny = qa < 1e-30
    qa_safe = np.where(tiny, 1.0, qa)
    disc = qb * qb - 4.0 * qa_safe * qc
    root = np.sqrt(np.maximum(disc, 0.0))
    t_lo = (-qb - root) / (2.0 * qa_safe)
    t_hi = (-qb + root) / (2.0 * qa_safe)
    inf = np.inf
    # a ray parallel to the axis is inside laterally iff qc < 0
    t_lo = np.where(tiny, np.where(qc < 0.0, -inf, inf), t_lo)
    t_hi = np.where(tiny, np.where(qc < 0.0, inf, -inf), t_hi)
    miss = (~tiny) & (disc <= 0.0)
    # slab |y| <= half_height
    dy_tiny = np.abs(dy) < 1e-30
    dy_safe = np.where(dy_tiny, 1.0, dy)
    u1 = (-half_height - ay) / dy_safe
    u2 = (half_height - ay) / dy_safe
    u_lo = np.minimum(u1, u2)
    u_hi = np.maximum(u1, u2)
    inside_slab = np.abs(ay) <= half_height
    u_lo = np.where(dy_tiny, np.where(inside_slab, -inf, inf), u_lo)
    u_hi = np.where(dy_tiny, np.where(inside_slab, inf, -inf), u_hi)
    lo = np.maximum(t_lo, u_lo)
    hi = np.minimum(t_hi, u_hi)
    chord = np.maximum(hi - lo, 0.0)
    return np.where(miss, 0.0, chord)


def cone_line_integral(phantom, source_radius, u, v, beta):
    """Exact cone-beam line integral of a Phantom3D at coordinates (u, v, beta).

    The ray runs from the source r*(cos b, 0, sin b) through the detector
    point u*e_u(b) + v*e_v with e_u(b) = (sin b, 0, -cos b), e_v = (0, 1, 0).
    """
    u, v, beta = np.broadcast_arrays(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float), np.asarray(beta, dtype=float)
    )
    r = float(source_radius)
    cosb, sinb = np.cos(beta), np.sin(beta)
    ax, ay, az = r * cosb, np.zeros_like(cosb), r * sinb
    px, py, pz = u * sinb, v * np.ones_like(u), -u * cosb
    dx, dy, dz = px - ax, py - ay, pz - az
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    dx, dy, dz = dx / norm, dy / norm, dz / norm
    out = np.zeros(u.shape, dtype=float)
    if phantom.cylinder is not None:
        out += phantom.cylinder[2] * _cylinder_chords(phantom.cylinder, ax, ay, az, dx, dy, dz)
    for (cx, cy, cz), radius, density in phantom.spheres:
        mx, my, mz = ax - cx, ay - cy, az - cz
        tproj = mx * dx + my * dy + mz * dz
        dist2 = mx * mx + my * my + mz * mz - tproj * tproj
        under = radius * radius - dist2
        out += density * 2.0 * np.sqrt(np.maximum(under, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def cone_project(phantom, geom, h=0.0, eta=0.0, instability=None):
    """Exact misaligned cone-beam projection stack of a Phantom3D.

    h (effective pixels, u axis) and eta (radians, in-plane detector
    rotation) are applied in the geometry: the value recorded at (u_i, v_k)
    is the line integral through the true detector point
    R_eta @ (u_i - h, v_k).  Instability, if given, is added per (u, beta),
    constant in v.
    """
    if not -math.pi / 2 < eta < math.pi / 2:
        raise ValueError("eta must lie in (-pi/2, pi/2)")
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    h_u = geom.px_to_u(h)
    u = geom.u_axis()
    v = geom.v_axis()
    beta = geom.beta_axis()
    cose, sine = math.cos(eta), math.sin(eta)
    # true detector coordinates seen by recorded pixel (u_i, v_k)
    ut = (u[None, :] - h_u) * cose - v[:, None] * sine
    vt = (u[None, :] - h_u) * sine + v[:, None] * cose
    values = np.empty((geom.n_beta, geom.n_v, geom.n_u), dtype=float)
    for j, b in enumerate(beta):  # view by view to bound memory
        values[j] = cone_line_integral(phantom, geom.source_radius, ut, vt, b)
    if instability is not None and instability.alpha > 0.0:
        bump = instability.evaluate(u[None, :], beta[:, None], geom.u_max)
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
