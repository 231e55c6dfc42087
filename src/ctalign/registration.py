"""FFT sub-pixel cross-correlation and periodic interpolation kernels.

Shift convention used by every caller: a(i) ~= b(i - d) yields +d.  Circular
correlation is used throughout, matching the 2*pi-periodicity of sinograms in
beta; on the detector axis projections vanish near the edges in well-posed
acquisitions, so the circular/linear distinction is immaterial there.  Shifts
larger than half the signal length wrap and are outside the validity range.
xcorr_shift_rows registers K row pairs with one batched FFT per step and
marks rows whose correlation is identically zero; xcorr_shift_1d is its
one-row case.

The samplers build interpolation weights per axis, on each coordinate's own
shape (a detector row against a column of angles costs n + m, not n*m), and
gather corner values from the flattened data, bitwise as full-grid formulas.
A query whose view angles all fall on stored views reads one view plane, not
two.  shift_views moves each column of a full view grid along the periodic
view axis with one interpolation weight per column: the fan symmetry map on
every view is a read on the stored views plus that shift.
"""

import numpy as np

from .core import TWO_PI, wrap_angle


class AmbiguousShiftError(ValueError):
    """Cross-correlation is identically zero; no shift can be estimated."""


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


def _check_pair(a, b, upsample):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise ValueError("inputs must be finite")
    if int(upsample) != upsample or upsample < 1:
        raise ValueError("upsample must be a positive integer")
    return a, b, int(upsample)


def xcorr_shift_1d(a, b, upsample=20):
    """Displacement d maximizing the circular cross-correlation of a and b.

    Computed in the frequency domain and refined to 1/upsample of a sample
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
    d = xcorr_shift_rows(a[None], b[None], upsample)[0]
    if np.isnan(d):
        raise AmbiguousShiftError("zero cross-correlation")
    return float(d)


def xcorr_shift_rows(a, b, upsample=20):
    """xcorr_shift_1d(a[i], b[i]) for every row pair of two (K, n) arrays,
    with one batched FFT per step.

    Returns the K shifts; NaN marks a row whose correlation is identically
    zero (where xcorr_shift_1d raises AmbiguousShiftError), and leaves the
    other rows as they are.  Each row keeps its own canonical input order and
    N/2 rule, so row i equals xcorr_shift_1d(a[i], b[i]) bit for bit.
    """
    a, b, upsample = _check_pair(a, b, upsample)
    if a.ndim != 2 or a.shape[1] < 2:
        raise ValueError("inputs must be 2D (rows, samples) with at least 2 samples")
    n = a.shape[1]
    # Correlate each pair in one canonical order: rounding can tip a tied peak
    # (true shift halfway between samples) differently in the two orders.
    swap = np.array([x.tobytes() > y.tobytes() for x, y in zip(a, b)], dtype=bool)
    first, second = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
    corr = np.fft.irfft(np.fft.rfft(first) * np.conj(np.fft.rfft(second)), n=n)
    fine = _spectral_upsample(corr, upsample) if upsample > 1 else corr
    d = _peak_shift(fine, upsample)
    d[swap] = 0.0 - d[swap]  # 0.0 - x: no -0.0 for a zero shift
    d[2 * d == -n] = n / 2
    d[~corr.any(axis=1)] = np.nan
    return d


def xcorr_shift_s_2d(a, b, upsample=20):
    """Shift along the last (s) axis of the 2D circular correlation peak.

    The peak is located at integer resolution on the first (beta) axis,
    whose shift is discarded, and refined to 1/upsample along s by spectral
    zero-padding of the peak row.  Sign convention as in xcorr_shift_1d.
    """
    a, b, upsample = _check_pair(a, b, upsample)
    if a.ndim != 2 or min(a.shape) < 2:
        raise ValueError("inputs must be 2D with at least 2 samples per axis")
    corr = np.fft.irfft2(np.fft.rfft2(a) * np.conj(np.fft.rfft2(b)), s=a.shape)
    if not np.any(corr):
        raise AmbiguousShiftError("zero cross-correlation")
    row = corr[np.unravel_index(np.argmax(corr), corr.shape)[0]]
    fine = _spectral_upsample(row, upsample) if upsample > 1 else row
    return float(_peak_shift(fine, upsample))


_SNAP = 1e-9  # index units; collapses float dirt on exact grid queries


def _axis_weights(coord, origin, step, n, stride):
    """Linear interpolation on one axis with zero fill outside the grid:
    the (flat offset, off-grid mask) of the lower and upper neighbours, and
    the upper neighbour's weight.  stride is the axis's flat-index stride."""
    x = (coord - origin) / step
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
    return (np.clip(i0, 0, n - 1, out=i0) * stride, off0), (np.clip(i1, 0, n - 1, out=i1) * stride, off1), w


def _beta_weights(beta, n, stride):
    """Periodic linear interpolation on a view axis of n views spaced 2*pi/n
    apart: flat offsets of the two neighbouring views, and the weight."""
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
    j1 = j0 + 1
    np.subtract(j1, n, out=j1, where=j1 >= n)
    j0 *= stride
    j1 *= stride
    return j0, j1, t


def _coordinates(*coords):
    """The coordinates as float arrays of at least one dimension (in-place
    arithmetic needs arrays, not scalars) and their broadcast shape."""
    coords = [np.asarray(c, dtype=float) for c in coords]
    return np.atleast_1d(*coords), np.broadcast_shapes(*(c.shape for c in coords))


def _gather(flat, row, corner):
    """flat[row + offset] for a corner (offset, off-grid mask), zero where
    the corner is off the grid; a fresh array."""
    offset, off = corner
    v = flat.take(row + offset, mode="clip")  # in range: skip the bounds check
    np.copyto(v, 0.0, where=off)
    return v


def _lerp(v0, v1, w):
    """(1 - w) * v0 + w * v1, computed in place in v0 and v1."""
    v0 *= 1.0 - w
    v1 *= w
    v0 += v1
    return v0


def sample_periodic(sino, s, beta):
    """Bilinear sinogram lookup: linear in s (zero outside the detector),
    linear and 2*pi-periodic in beta.  Accepts scalars or broadcastable
    arrays; grid-point queries reproduce stored values bit-exactly.  When
    every angle is on a stored view the upper view plane is not read.
    """
    (s, beta), shape = _coordinates(s, beta)
    if 0 in shape:
        return np.zeros(shape)  # an empty query reads, and checks, no point
    if not np.all(np.isfinite(s)):
        raise ValueError("s coordinates must be finite")
    geom = sino.geometry
    flat = sino.values.ravel()
    s0, s1, w = _axis_weights(s, -geom.s_max, geom.pixel_size, geom.n_s, 1)
    j0, j1, t = _beta_weights(beta, geom.n_beta, geom.n_s)
    out = _lerp(_gather(flat, j0, s0), _gather(flat, j0, s1), w)
    if t.any():
        out = _lerp(out, _lerp(_gather(flat, j1, s0), _gather(flat, j1, s1), w), t)
    return float(out[0]) if shape == () else out


def sample_detector(stack, u, v, beta):
    """Trilinear projection-stack lookup: linear with zero fill in u and v,
    linear and periodic in beta.  Scalar or broadcastable array coordinates.
    """
    (u, v, beta), shape = _coordinates(u, v, beta)
    if 0 in shape:
        return np.zeros(shape)
    if not np.all(np.isfinite(u)) or not np.all(np.isfinite(v)):
        raise ValueError("detector coordinates must be finite")
    geom = stack.geometry
    flat = stack.values.ravel()
    u0, u1, wu = _axis_weights(u, -geom.u_max, geom.pixel_size, geom.n_u, 1)
    v0, v1, wv = _axis_weights(v, -geom.v_max, geom.pixel_size_v, geom.n_v, geom.n_u)
    j0, j1, t = _beta_weights(beta, geom.n_beta, geom.n_v * geom.n_u)
    corners = [(iv + iu, offv | offu) for iv, offv in (v0, v1) for iu, offu in (u0, u1)]

    def plane(j):
        c00, c01, c10, c11 = (_gather(flat, j, corner) for corner in corners)
        return _lerp(_lerp(c00, c01, wu), _lerp(c10, c11, wu), wv)

    out = plane(j0)
    if t.any():
        out = _lerp(out, plane(j1), t)
    return float(out[0]) if shape == () else out


_VIEW_BLOCK = 32  # views per pass of shift_views: its indices and gathers stay in cache


def shift_views(values, offset):
    """Each column of a view-major array read at its own view-angle offset.

    values[j, i] holds column i at view angle b_j = 2*pi*j/n (n views on
    the first axis); returns out[j, i] = values_i(b_j + offset_i), linear and
    2*pi-periodic in the view angle.  Each column needs one (view index,
    weight) pair, snapped to the grid as in the samplers, so an offset of
    whole views moves stored values bit-exactly.  A fresh array.
    """
    n, m = values.shape
    k, _, f = _beta_weights(offset, n, m)
    k += np.arange(m)
    flat = values.ravel()
    out = np.empty((n, m))
    for j in range(0, n, _VIEW_BLOCK):
        # flat index of view j + k_i of column i; mode="wrap" is the view modulo
        idx = np.arange(j * m, min(j + _VIEW_BLOCK, n) * m, m)[:, None] + k
        lo = flat.take(idx, mode="wrap")
        idx += m
        out[j : j + _VIEW_BLOCK] = _lerp(lo, flat.take(idx, mode="wrap"), f)
    return out
