"""FFT sub-pixel cross-correlation and periodic interpolation kernels.

Shift convention used by every caller: a(i) ~= b(i - d) yields +d.  Circular
correlation is used throughout, matching the 2*pi-periodicity of sinograms in
beta; on the detector axis projections vanish near the edges in well-posed
acquisitions, so the circular/linear distinction is immaterial there.  Shifts
larger than half the signal length wrap and are outside the validity range.
xcorr_shift_rows registers K row pairs with one batched FFT per step and
marks rows whose correlation is identically zero; xcorr_shift_1d is its
one-row case.

The samplers have one read: stored views at detector points, each point at its own view-angle
offset.  Queried on every stored view (beta=None), they read cache-sized blocks of views, each
corner gathered once per block: with no offset (cone_align's tilted read) by one take of its
columns along the views of the (views, detector) table, with offsets (the fan symmetry map) from
the flattened data, adjacent views then blended per column.  Each block goes to the array of the
read, or to running sums of its squared residual against given rows and of those rows: the
symmetry mse builds no reflected sinogram.  A query at given view angles reads stored view 0 with
the angles as offsets.  Weights are built per axis, bitwise as full-grid formulas; an axis whose
weight is zero at every point (a detector axis, or the view axis when every angle is on a stored
view) is not read, nor a corner's zero fill where the corner has no point off the grid.
"""

import numpy as np

from .core import TWO_PI, wrap_angle

UPSAMPLE = 20  # correlation peaks are refined to 1/UPSAMPLE of a sample


class AmbiguousShiftError(ValueError):
    """Cross-correlation is identically zero, or the data have no signal to measure; no shift can be estimated."""


def _spectral_upsample(c, upsample):
    """Band-limited interpolation of a real signal by zero-padding its spectrum.

    Returns c resampled on a grid upsample times finer; the original samples
    are preserved at every upsample-th position.
    """
    n = c.shape[-1]
    m = n * upsample
    spec = np.fft.rfft(c)
    if n % 2 == 0:
        # the Nyquist bin becomes an interior frequency after padding; it
        # must be split between +/- Nyquist, and irfft supplies the conjugate
        spec = spec.copy()
        spec[..., n // 2] *= 0.5
    padded = np.zeros(c.shape[:-1] + (m // 2 + 1,), dtype=complex)
    padded[..., : spec.shape[-1]] = spec
    return np.fft.irfft(padded, n=m, axis=-1) * upsample


def _peak_shift(fine, upsample):
    """Argmax index along the last axis of the upsampled correlation,
    unwrapped to (-N/2, N/2]: one shift per row."""
    m = fine.shape[-1]
    peak = np.argmax(fine, axis=-1)
    peak = np.where(2 * peak > m, peak - m, peak)
    # integer unwrap first, single division after: keeps antisymmetry exact
    return peak / upsample


def _check_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise ValueError("inputs must be finite")
    return a, b


def xcorr_shift_1d(a, b):
    """Displacement d maximizing the circular cross-correlation of a and b.

    Computed in the frequency domain and refined to 1/UPSAMPLE of a sample
    by zero-padding the correlation spectrum.  Sign: a(i) ~= b(i - d) gives
    +d; the result lies in (-N/2, N/2].  Swapping the inputs negates the
    result exactly (modulo N at the N/2 boundary).  The one-row case of
    xcorr_shift_rows.

    Raises AmbiguousShiftError when the correlation is identically zero
    (e.g. an all-zero input).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("inputs must be 1D with at least 2 samples")
    d = xcorr_shift_rows(a[None], b[None])[0]
    if np.isnan(d):
        raise AmbiguousShiftError("zero cross-correlation")
    return float(d)


def xcorr_shift_rows(a, b):
    """xcorr_shift_1d(a[i], b[i]) for every row pair of two (K, n) arrays,
    with one batched FFT per step.

    Returns the K shifts; NaN marks a row whose correlation is identically
    zero (where xcorr_shift_1d raises AmbiguousShiftError), and leaves the
    other rows as they are.  Each row keeps its own canonical input order and
    N/2 rule, so row i equals xcorr_shift_1d(a[i], b[i]) bit for bit.
    """
    a, b = _check_pair(a, b)
    if a.ndim != 2 or a.shape[1] < 2:
        raise ValueError("inputs must be 2D (rows, samples) with at least 2 samples")
    n = a.shape[1]
    # Correlate each pair in one canonical order: rounding can tip a tied peak
    # (true shift halfway between samples) differently in the two orders.
    swap = np.array([x.tobytes() > y.tobytes() for x, y in zip(a, b)], dtype=bool)
    first, second = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
    corr = np.fft.irfft(np.fft.rfft(first) * np.conj(np.fft.rfft(second)), n=n)
    d = _peak_shift(_spectral_upsample(corr, UPSAMPLE), UPSAMPLE)
    d[swap] = 0.0 - d[swap]  # 0.0 - x: no -0.0 for a zero shift
    d[2 * d == -n] = n / 2
    d[~corr.any(axis=1)] = np.nan
    return d


def xcorr_shift_s_2d(a, b):
    """Shift along the last (s) axis of the 2D circular correlation peak.

    The peak is located at integer resolution on the first (beta) axis,
    whose shift is discarded, and refined to 1/UPSAMPLE along s by spectral
    zero-padding of the peak row.  Sign convention as in xcorr_shift_1d.
    The correlation is irfft2(rfft2(a) * conj(rfft2(b))) bit for bit, one axis at a time, in place.
    """
    a, b = _check_pair(a, b)
    if a.ndim != 2 or min(a.shape) < 2:
        raise ValueError("inputs must be 2D with at least 2 samples per axis")
    fa, fb = np.fft.rfft(a, axis=1), np.fft.rfft(b, axis=1)
    for f in (fa, fb):
        np.fft.fft(f, axis=0, out=f)
    fa *= np.conjugate(fb, out=fb)
    corr = np.fft.irfft(np.fft.ifft(fa, axis=0, out=fa), n=a.shape[1], axis=1)
    if not np.any(corr):
        raise AmbiguousShiftError("zero cross-correlation")
    row = corr[np.unravel_index(np.argmax(corr), corr.shape)[0]]
    return float(_peak_shift(_spectral_upsample(row, UPSAMPLE), UPSAMPLE))


_SNAP = 1e-9  # index units; collapses float dirt on exact grid queries


def _axis_weights(coord, origin, step, n, stride):
    """Linear interpolation on one axis with zero fill outside the grid:
    the (flat offset, off-grid mask) of the lower and upper neighbours, and
    the upper neighbour's weight.  stride is the axis's flat-index stride."""
    x = (coord - origin) / step
    np.minimum(np.maximum(x, -2.0, out=x), n + 1.0, out=x)  # off [-1, n] reads 0 anyway; the cast stays valid
    i0 = np.floor(x).astype(int)
    w = x - i0
    # snap to the grid so stored values are reproduced bit-exactly
    hit_lo = w < _SNAP
    hit_hi = w > 1.0 - _SNAP
    w = np.where(hit_lo, 0.0, w)
    i0 = np.where(hit_hi, i0 + 1, i0)
    w = np.where(hit_hi, 0.0, w)
    i1 = i0 + 1
    off0 = (i0 < 0) | (i0 > n - 1)
    off1 = (i1 < 0) | (i1 > n - 1)
    for i in (i0, i1):  # np.clip in place, at a lower fixed cost per call
        np.maximum(i, 0, out=i)
        np.minimum(i, n - 1, out=i)
    return (i0 * stride, off0), (i1 * stride, off1), w


def _beta_weights(beta, n, stride):
    """Periodic linear interpolation on a view axis of n views spaced 2*pi/n
    apart: the lower neighbouring view's flat offset, and the next view's weight."""
    t = wrap_angle(beta)
    t /= TWO_PI / n
    j0 = np.floor(t)
    t -= j0
    hit_hi = t > 1.0 - _SNAP
    np.copyto(t, 0.0, where=(t < _SNAP) | hit_hi)
    j0 = j0.astype(int)
    j0 += hit_hi
    # the wrapped angle is below 2*pi, so j0 <= n: one subtraction is the modulo
    np.subtract(j0, n, out=j0, where=j0 >= n)
    j0 *= stride
    return j0, t


def _lerp(v0, v1, w, out=None):
    """(1 - w) * v0 + w * v1, computed in place in v1 and in out (v0 if None)."""
    out = np.multiply(v0, 1.0 - w, out=v0 if out is None else out)
    v1 *= w
    out += v1
    return out


def _cell(axes, start):
    """The corners (flat offset, off-grid mask) of each point's cell on the
    _axis_weights axes, outermost first, offsets added to start, and the
    weights of the axes they span.  An axis whose weight is 0 at every point
    adds its lower corner only: the upper one would add 0 * v."""
    corners, weights = [(start, None)], []
    for lo, hi, w in axes:
        ends = [lo]
        if w.any():
            ends.append(hi)
            weights.append(w)
        # a bool-array | bool-scalar is ~10x an array | array: the start has no mask
        corners = [(c + e, off if c_off is None else c_off | off) for c, c_off in corners for e, off in ends]
    return corners, weights


def _read(table, rows, cell):
    """The cell's corner values, zero off the grid, lerped innermost axis first: at flat offsets rows + corner
    (modulo the size) of the flat table, or, rows None, at offset corner of each row of the 2-D table."""
    corners, weights = cell
    values = []
    for offset, off in corners:
        values.append(table.take(offset if rows is None else rows + offset, axis=-1, mode="wrap"))
        if off.any():
            np.copyto(values[-1], 0.0, where=off)
    for w in reversed(weights):
        values = [_lerp(values[i], values[i + 1], w) for i in range(0, len(values), 2)]
    return values[0]


_BLOCK = 1 << 14  # output points per block of the all-views read: they stay in cache


def _all_views(flat, n, views, axes, view_offset, against=None):
    """The (views, m) read of the stored views j < views at the m detector points of axes, column i at
    view angle b_j + view_offset_i (b_j if None), which is one (whole views k_i, weight f_i) pair.  Each
    block of views gathers each corner once: with no offset, its columns of the block's rows of the
    (n, stride) table; else on its views plus one, view j + k_i at flat offset (j + k_i)*stride + corner
    (corner < stride: the index modulo is the view modulo), adjacent rows then blended with f_i unless
    every f_i is 0.  Bit for bit the full-grid read; each block goes to the (views, m) array, or, given
    a (views, m) array against, to the sums (|read - against|^2, |against|^2)."""
    m, stride = axes[0][2].size, flat.size // n
    k, blend = 0, False
    if view_offset is not None:
        k, f = _beta_weights(view_offset, n, stride)
        blend = bool(f.any())
    cell = _cell(axes, k)
    rows = max(1, _BLOCK // m)
    out = np.empty((views if against is None else min(rows, views), m))
    sse = norm = 0.0
    for a in range(0, views, rows):
        b = min(a + rows, views)
        if view_offset is None:
            v = _read(flat.reshape(n, stride)[a:b], None, cell)
        else:
            v = _read(flat, np.arange(a * stride, (b + blend) * stride, stride)[:, None], cell)
        if blend:  # v[:-1] is read before v[1:] is scaled
            v = _lerp(v[:-1], v[1:], f, out[a:b] if against is None else out[: b - a])
        elif against is None:
            out[a:b] = v
        if against is not None:
            g = against[a:b]
            v -= g
            sse, norm = sse + np.vdot(v, v), norm + np.vdot(g, g)
    return out if against is None else (float(sse), float(norm))


def _sample(values, specs, message, beta, view_offset, against=None):
    """The samplers' read of values (n views 2*pi/n apart on the first axis)
    at detector coordinates, specs one (coordinate, origin, step, count,
    stride) per axis, outermost first; message: the non-finite error.  A
    query at view angles beta is the all-views read of stored view 0 (at
    angle 0) with view offset beta; against as in sample_periodic."""
    n, flat = values.shape[0], values.ravel()
    views = n
    if beta is not None:
        if view_offset is not None:
            raise ValueError("view_offset needs beta=None")
        views, view_offset = 1, beta
    offset = 0.0 if view_offset is None else view_offset
    *coords, offset = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (*(s[0] for s in specs), offset)))
    shape = offset.shape if beta is not None else (n,) + offset.shape
    if 0 in shape:
        return np.zeros(shape) if against is None else (0.0, 0.0)  # an empty query reads, and checks, no point
    coords = [c.ravel() for c in coords]
    if not all(np.all(np.isfinite(c)) for c in coords):
        raise ValueError(message)
    axes = [_axis_weights(c, *spec[1:]) for c, spec in zip(coords, specs)]
    view_offset = None if view_offset is None else offset.ravel()
    if against is not None:
        return _all_views(flat, n, views, axes, view_offset, np.broadcast_to(against, shape).reshape(views, -1))
    out = _all_views(flat, n, views, axes, view_offset)
    return float(out[0, 0]) if shape == () else out.reshape(shape)


def sample_periodic(sino, s, beta, view_offset=None, against=None):
    """Bilinear sinogram lookup: linear in s (zero outside the detector),
    linear and 2*pi-periodic in beta.  Accepts scalars or broadcastable
    arrays; grid-point queries reproduce stored values bit-exactly.
    beta=None reads every stored view b_j: the (n_beta,) + shape array of
    g(s, b_j + view_offset), view_offset broadcast with s (0 if None).
    Given against (the read's shape), returns (|read - against|^2, |against|^2), summed per block.
    """
    geom = sino.geometry
    specs = [(s, -geom.s_max, geom.pixel_size, geom.n_s, 1)]
    return _sample(sino.values, specs, "s coordinates must be finite", beta, view_offset, against)


def sample_detector(stack, u, v, beta):
    """Trilinear projection-stack lookup: linear with zero fill in u and v,
    linear and periodic in beta.  Scalar or broadcastable array coordinates;
    beta=None reads every stored view b_j: the (n_beta,) + shape array of
    g(u, v, b_j).
    """
    geom = stack.geometry
    specs = [(v, -geom.v_max, geom.pixel_size_v, geom.n_v, geom.n_u), (u, -geom.u_max, geom.pixel_size, geom.n_u, 1)]
    return _sample(stack.values, specs, "detector coordinates must be finite", beta, None)
