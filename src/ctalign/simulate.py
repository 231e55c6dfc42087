"""Analytic phantoms and exact forward projectors for fan- and cone-beam data.

Misalignment is injected in the geometry: the value recorded at detector
coordinate s is the exact line integral through the true detector point
s - h (and, for cone data, through the in-plane-rotated (u, v)).  This keeps
estimator error free of interpolation error.

Rays are traced in the source frame, that of view 0, with the source at
(r, 0, 0): the ray to detector point (u, v) runs along (-r, v, -u), so the
rays are built once per grid and each view rotates the features by -beta.  A
ray at distance d from the center of a ball of radius R cuts a chord
2*sqrt(R**2 - d**2), which neither reversing the ray nor mirroring it in
y = 0 changes, so rays run along (r, v, u).  A cylinder's chord is its
lateral root interval clipped to its slab; the centred cylinder looks the
same from every view, so it is traced once per stack.  The fan is the v = 0
row of the cone: a fan phantom is a Phantom3D of spheres at y = 0, on which
the cone formulas only add exact zeros.  The line integrals evaluate every
feature at every point; both projectors run one recording path, _project:
it rejects an h not finite or off the n-pixel detector, |h| >= n - 1, shifts
the detector axis by h * pixel_size, evaluates each sphere once per chunk of
at most _BLOCK_POINTS points of its per-view shadow windows, whole views per
chunk, a sphere at y = 0 without its y terms, and adds the instability, so
they skip only exact-zero terms and equal the line integrals bit for bit.
fan_project keeps the v = 0 row.
"""

import math

import numpy as np
from dataclasses import dataclass

from .core import ProjectionStack, Sinogram, count_at_least, positive_finite

_BLOCK_POINTS = 1 << 14  # points per chunk of the projectors' one shadow path: bounds their memory
_MARGIN, _SLACK = 2, 1e-12  # shadow widening: samples per side; rounding allowance on R**2 per (r + |c - S|)**2
_MAX_REJECTS = 1000  # rejected draws in a row after which _place gives up
# seeded phantoms: the fan's enclosing sphere radius (below 1, so the shifted sinogram
# support stays on the detector), disk and sphere radius ranges, enclosing cylinder
# (radius, half_height, density)
_BACKGROUND_RADIUS, _DISK_RADII, _SPHERE_RADII, _CYLINDER = 0.85, (0.02, 0.08), (0.04, 0.12), (0.8, 0.55, 1.0)


@dataclass(frozen=True)
class Phantom3D:
    """Spheres inside the unit cylinder (axis y), optional enclosing cylinder.

    spheres is a tuple of (center (x, y, z), radius, density); cylinder, if
    present, is (radius, half_height, density) centered at the origin with
    axis y.  Void features carry negative density against a positive
    background; values are summed without clipping so projection is exactly
    linear in density.  A fan phantom is spheres at y = 0, background first:
    its fan sinogram is the v = 0 row of its cone stack.
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
    """Rejection-sample n pairwise-disjoint void spheres (center, radius, -1.0)
    inside the cylinder of region_radius and half_height about the y axis or,
    without half_height, at y = 0 inside the disk of region_radius: disks (x, z)."""
    kind = "disks" if half_height is None else "spheres"
    count_at_least(f"n_{kind}", n, 0)
    rng = np.random.default_rng(seed)
    placed = []
    rejects = 0
    while len(placed) < n:
        if rejects >= _MAX_REJECTS:
            raise ValueError(f"could not place {n} non-overlapping {kind}: {_MAX_REJECTS} draws in a row were rejected")
        rejects += 1
        radius = rng.uniform(*radius_range)
        # uniform over the admissible center disk
        rho = (region_radius - radius) * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x, z = rho * math.cos(phi), rho * math.sin(phi)
        y = 0.0 if half_height is None else rng.uniform(radius - half_height, half_height - radius)
        if all(math.dist((x, y, z), c) > radius + r for c, r in placed):
            placed.append(((x, y, z), radius))
            rejects = 0
    return tuple((center, radius, -1.0) for center, radius in placed)


def make_disk_phantom(seed, n_disks=30):
    """Seeded random fan phantom: void disks inside an enclosing solid disk.

    A Phantom3D of spheres at y = 0, the enclosing one of density 1 first,
    then the voids.  Deterministic for a fixed seed.  The voids are pairwise
    non-overlapping and fully inside the enclosing one, each of density -1
    so the total attenuation inside a void is zero.  Raises ValueError when
    rejection sampling gives up (_MAX_REJECTS rejected draws in a row).
    """
    background = ((0.0, 0.0, 0.0), _BACKGROUND_RADIUS, 1.0)
    return Phantom3D((background, *_place(seed, n_disks, _DISK_RADII, _BACKGROUND_RADIUS)))


def make_sphere_phantom(seed, n_spheres=20):
    """Seeded random phantom: void spheres inside an enclosing solid cylinder.

    3D analogue of make_disk_phantom; spheres are pairwise disjoint and fully
    inside the cylinder (axis y, centered at the origin).
    """
    return Phantom3D(_place(seed, n_spheres, _SPHERE_RADII, *_CYLINDER[:2]), _CYLINDER)


def _offsets(r, beta, x, z):
    """(a, b), views first and features last: the source minus each centre (x, ., z) in
    the source frame of view beta, along the source axis and the detector's u axis."""
    cosb, sinb = np.cos(beta)[..., None], np.sin(beta)[..., None]
    return r - (x * cosb + z * sinb), x * sinb - z * cosb


def _rays(r, *axes):
    """Unit directions (r, *axes) / |.| of the lines from the source to the detector points."""
    norm = np.sqrt(sum((c * c for c in axes), r * r))
    return tuple(c / norm for c in (r, *axes))


def _chord(offset, ray, radius):
    """Chord that each line, given by the source minus the ball's centre (offset) and
    its unit direction (ray), cuts from the ball: the one formula of disks and spheres."""
    along = sum((o * d for o, d in zip(offset[1:], ray[1:])), offset[0] * ray[0])
    under = radius * radius - (sum((o * o for o in offset[1:]), offset[0] * offset[0]) - along * along)
    return 2.0 * np.sqrt(np.maximum(under, 0.0))


def _spans(starts, lengths):
    """The indices of the runs [start, start + length) laid end to end."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


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


def _cylinder_chords(cylinder, r, ray):
    """Chord that each line (source (r, 0, 0), unit direction ray) cuts from the
    y-axis cylinder: the lateral roots clipped to the slab |t| <= half_height / |dy|
    (unbounded at dy = 0); a missed or tangent line has root 0, so no chord."""
    radius, half_height, _ = cylinder
    dx, dy, dz = ray
    qa = dx * dx + dz * dz  # r**2 + u**2 over the squared ray length: positive for r > 0
    qb = 2.0 * r * dx
    qc = r * r - radius * radius
    root = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    with np.errstate(divide="ignore"):
        slab = half_height / np.abs(dy)
    lo = np.maximum((-qb - root) / (2.0 * qa), -slab)
    hi = np.minimum((-qb + root) / (2.0 * qa), slab)
    return np.maximum(hi - lo, 0.0)


def _cone_terms(phantom, r, u, v, beta):
    """Rays through (u, v); the spheres' (a, b, y, radius, density) per view beta; the cylinder's image."""
    ray = _rays(r, v, u)
    x, y, z, radii, densities = np.array([(*c, *rd) for c, *rd in phantom.spheres], dtype=float).reshape(-1, 5).T
    image = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    if phantom.cylinder is not None:
        image += phantom.cylinder[2] * _cylinder_chords(phantom.cylinder, r, ray)
    return ray, (*_offsets(r, beta, x, z), y, radii, densities), image


def cone_line_integral(phantom, source_radius, u, v, beta):
    """Exact cone-beam line integral of a Phantom3D at coordinates (u, v, beta).

    The ray runs from the source r*(cos b, 0, sin b) through the detector
    point u*e_u(b) + v*e_v with e_u(b) = (sin b, 0, -cos b), e_v = (0, 1, 0).
    Every feature at every point: the reference cone_project equals bit for bit.
    Any finite source_radius > 0, inside the phantom too; else ValueError.
    """
    r = positive_finite("source_radius", float(source_radius))
    u, v, beta = (np.asarray(c, dtype=float) for c in (u, v, beta))
    ray, (a, b, y, radii, densities), cylinder = _cone_terms(phantom, r, u, v, beta)
    out = cylinder + np.zeros(beta.shape)
    for k, (radius, density) in enumerate(zip(radii, densities)):
        out += density * _chord((a[..., k], y[k], b[..., k]), ray, radius)
    return float(out) if out.ndim == 0 else out


def _project(phantom, geom, h, instability, recorded, u_max, v, eta):
    """The (views, rows, columns) recording of a Phantom3D in geom on the detector axes recorded (u, of half-width
    u_max) and v: pixel (u_i, v_k) reads the line through the true detector point R_eta @ (u_i - h * pixel_size, v_k),
    plus the instability, if given, per (u, beta).  The cylinder's view is computed once and copied into every view;
    each sphere is evaluated only on its shadow's window in each view, in chunks of at most _BLOCK_POINTS points.
    h must be finite and |h| below the detector width, len(recorded) - 1 px, else the support leaves it (ValueError)."""
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    if abs(h) >= len(recorded) - 1:
        raise ValueError(f"|h| must be below the detector width, {len(recorded) - 1} px")
    r, beta, u = float(geom.source_radius), geom.beta_axis(), recorded - h * geom.pixel_size
    cose, sine = math.cos(eta), math.sin(eta)
    # true detector coordinates seen by recorded pixel (u_i, v_k)
    ut = u[None, :] * cose - v[:, None] * sine
    vt = u[None, :] * sine + v[:, None] * cose
    ray, (a, b, y, radii, densities), cylinder = _cone_terms(phantom, r, ut, vt, beta)
    # recorded u, v run along cose*e_u + sine*e_v, cose*e_v - sine*e_u
    bu, bv = b * cose + y * sine, y * cose - b * sine
    rows, cols = np.stack(_shadow(v, r, a, bv, radii, bu), axis=-1), np.stack(_shadow(u, r, a, bu, radii, bv), axis=-1)
    values = np.repeat(cylinder[None], len(beta), axis=0)
    flat, ray, view_size = values.reshape(-1), [d.reshape(-1) for d in ray], cylinder.size
    for k in range(len(radii)):  # sphere k over the union of its windows, in chunks of whole views
        axes = (0, 2) if y[k] == 0.0 else (0, 1, 2)  # a sphere at y = 0: its y terms are exact zeros
        (top, bottom), (left, right) = rows[:, k].T, cols[:, k].T
        heights, sizes = bottom - top, (bottom - top) * (right - left)
        ends, j = np.cumsum(sizes), 0
        while j < len(beta):  # at most _BLOCK_POINTS points, or one view that holds more
            stop = max(j + 1, int(np.searchsorted(ends, ends[j] - sizes[j] + _BLOCK_POINTS, "right")))
            view = np.repeat(np.arange(j, stop), heights[j:stop])  # the view of each window row
            pixels = _spans(_spans(top[j:stop], heights[j:stop]) * len(u) + left[view], right[view] - left[view])
            points = pixels + np.repeat(np.arange(j, stop) * view_size, sizes[j:stop])
            offset = (np.repeat(a[j:stop, k], sizes[j:stop]), y[k], np.repeat(b[j:stop, k], sizes[j:stop]))
            flat[points] += densities[k] * _chord([offset[i] for i in axes], [ray[i][pixels] for i in axes], radii[k])
            j = stop
    if instability is not None and instability.alpha > 0.0:
        values += instability.evaluate(recorded[None, :], beta[:, None], u_max)[:, None, :]
    return values


def fan_project(phantom, geom, h=0.0, instability=None):
    """Exact misaligned fan-beam sinogram of a Phantom3D: the v = 0 row of _project.

    The value recorded at s_i is the exact line integral through s_i - h, h
    in effective pixels (the shift is in the geometry, not a resampling),
    plus the instability, if given.  A fan phantom's spheres lie at y = 0.
    """
    values = _project(phantom, geom, h, instability, geom.s_axis(), geom.s_max, np.zeros(1), 0.0)[:, 0]
    return Sinogram(geom, values, _fresh=True)


def cone_project(phantom, geom, h=0.0, eta=0.0, instability=None):
    """Exact misaligned cone-beam projection stack of a Phantom3D (_project).

    The value recorded at (u_i, v_k) is the line integral through the true
    detector point R_eta @ (u_i - h, v_k): h in effective pixels along u, eta
    the in-plane detector rotation, in (-pi/2, pi/2) rad; the instability is constant in v.
    """
    if not -math.pi / 2 < eta < math.pi / 2:
        raise ValueError("eta must lie in (-pi/2, pi/2)")
    values = _project(phantom, geom, h, instability, geom.u_axis(), geom.u_max, geom.v_axis(), eta)
    return ProjectionStack(geom, values, _fresh=True)
