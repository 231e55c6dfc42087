"""FFT sub-pixel cross-correlation and periodic interpolation kernels.

Shift convention used by every caller: a(i) ~= b(i - d) yields +d.  Circular
correlation is used throughout, matching the 2*pi-periodicity of sinograms in
beta; on the detector axis projections vanish near the edges in well-posed
acquisitions, so the circular/linear distinction is immaterial there.  Shifts
larger than half the signal length wrap and are outside the validity range.
"""

import numpy as np

from .core import wrap_angle


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
    """Argmax index of the upsampled correlation, unwrapped to (-N/2, N/2]."""
    m = fine.shape[-1]
    peak = int(np.argmax(fine))
    if 2 * peak > m:
        peak -= m
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
    result exactly (modulo N at the N/2 boundary).

    Raises AmbiguousShiftError when the correlation is identically zero
    (e.g. an all-zero input).
    """
    a, b, upsample = _check_pair(a, b, upsample)
    if a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("inputs must be 1D with at least 2 samples")
    n = a.shape[0]
    if a.tobytes() > b.tobytes():
        # Correlate in one canonical order: rounding can tip a tied peak
        # (true shift halfway between samples) differently in the two orders.
        d = 0.0 - _shift_1d(b, a, upsample)  # 0.0 - x: no -0.0 for a zero shift
        return n / 2 if 2 * d == -n else d
    return _shift_1d(a, b, upsample)


def _shift_1d(a, b, upsample):
    corr = np.fft.irfft(np.fft.rfft(a) * np.conj(np.fft.rfft(b)), n=a.shape[0])
    if not np.any(corr):
        raise AmbiguousShiftError("zero cross-correlation")
    fine = _spectral_upsample(corr, upsample) if upsample > 1 else corr
    return _peak_shift(fine, upsample)


def xcorr_shift_s_2d(a, b, upsample=20):
    """Shift along the last (s) axis of the 2D circular correlation peak.

    The peak is located at integer resolution on the first (beta) axis,
    whose shift is discarded, and refined to 1/upsample along s by spectral
    zero-padding of the peak row.  Sign convention as in xcorr_shift_1d.
    """
    a, b, upsample = _check_pair(a, b, upsample)
    if a.ndim != 2 or min(a.shape) < 2:
        raise ValueError("inputs must be 2D with at least 2 samples per axis")
    corr = np.fft.ifft2(np.fft.fft2(a) * np.conj(np.fft.fft2(b))).real
    if not np.any(corr):
        raise AmbiguousShiftError("zero cross-correlation")
    row = corr[np.unravel_index(np.argmax(corr), corr.shape)[0]]
    fine = _spectral_upsample(row, upsample) if upsample > 1 else row
    return _peak_shift(fine, upsample)


_SNAP = 1e-9  # index units; collapses float dirt on exact grid queries


def _axis_weights(coord, origin, step, n):
    """Linear interpolation indices/weights with zero fill outside the grid."""
    x = (np.asarray(coord, dtype=float) - origin) / step
    i0 = np.floor(x).astype(int)
    w = x - i0
    # snap to the grid so stored values are reproduced bit-exactly
    hit_lo = w < _SNAP
    hit_hi = w > 1.0 - _SNAP
    w = np.where(hit_lo, 0.0, w)
    i0 = np.where(hit_hi, i0 + 1, i0)
    w = np.where(hit_hi, 0.0, w)
    i1 = i0 + 1
    valid0 = (i0 >= 0) & (i0 <= n - 1)
    valid1 = (i1 >= 0) & (i1 <= n - 1)
    return np.clip(i0, 0, n - 1), np.clip(i1, 0, n - 1), w, valid0, valid1


def _beta_weights(beta, step, n):
    """Periodic linear interpolation indices/weights on the view axis."""
    x = np.asarray(wrap_angle(beta), dtype=float) / step
    j0 = np.floor(x).astype(int)
    t = x - j0
    hit_lo = t < _SNAP
    hit_hi = t > 1.0 - _SNAP
    t = np.where(hit_lo, 0.0, t)
    j0 = np.where(hit_hi, j0 + 1, j0)
    t = np.where(hit_hi, 0.0, t)
    j0 = np.remainder(j0, n)
    j1 = np.remainder(j0 + 1, n)
    return j0, j1, t


def sample_periodic(sino, s, beta):
    """Bilinear sinogram lookup: linear in s (zero outside the detector),
    linear and 2*pi-periodic in beta.  Accepts scalars or broadcastable
    arrays; grid-point queries reproduce stored values bit-exactly.
    """
    s, beta = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(beta, dtype=float))
    if not np.all(np.isfinite(s)):
        raise ValueError("s coordinates must be finite")
    geom = sino.geometry
    g = sino.values
    i0, i1, w, ok0, ok1 = _axis_weights(s, -geom.s_max, geom.pixel_size, geom.n_s)
    j0, j1, t = _beta_weights(beta, geom.beta_step, geom.n_beta)
    v00 = np.where(ok0, g[j0, i0], 0.0)
    v01 = np.where(ok1, g[j0, i1], 0.0)
    v10 = np.where(ok0, g[j1, i0], 0.0)
    v11 = np.where(ok1, g[j1, i1], 0.0)
    out = (1.0 - t) * ((1.0 - w) * v00 + w * v01) + t * ((1.0 - w) * v10 + w * v11)
    if out.ndim == 0:
        return float(out)
    return out


def sample_detector(stack, u, v, beta):
    """Trilinear projection-stack lookup: linear with zero fill in u and v,
    linear and periodic in beta.  Scalar or broadcastable array coordinates.
    """
    u, v, beta = np.broadcast_arrays(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float), np.asarray(beta, dtype=float)
    )
    if not np.all(np.isfinite(u)) or not np.all(np.isfinite(v)):
        raise ValueError("detector coordinates must be finite")
    geom = stack.geometry
    g = stack.values
    iu0, iu1, wu, oku0, oku1 = _axis_weights(u, -geom.u_max, geom.pixel_size, geom.n_u)
    iv0, iv1, wv, okv0, okv1 = _axis_weights(v, -geom.v_max, geom.pixel_size_v, geom.n_v)
    j0, j1, t = _beta_weights(beta, geom.beta_step, geom.n_beta)

    def plane(j):
        v00 = np.where(okv0 & oku0, g[j, iv0, iu0], 0.0)
        v01 = np.where(okv0 & oku1, g[j, iv0, iu1], 0.0)
        v10 = np.where(okv1 & oku0, g[j, iv1, iu0], 0.0)
        v11 = np.where(okv1 & oku1, g[j, iv1, iu1], 0.0)
        return (1.0 - wv) * ((1.0 - wu) * v00 + wu * v01) + wv * ((1.0 - wu) * v10 + wu * v11)

    out = (1.0 - t) * plane(j0) + t * plane(j1)
    if out.ndim == 0:
        return float(out)
    return out
