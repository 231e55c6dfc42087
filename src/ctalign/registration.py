"""FFT sub-pixel cross-correlation and periodic interpolation kernels.

Shift convention used by every caller: a(i) ~= b(i - d) yields +d.  Circular
correlation is used throughout, matching the 2*pi-periodicity of sinograms in
beta; on the detector axis projections vanish near the edges in well-posed
acquisitions, so the circular/linear distinction is immaterial there.  Shifts
larger than half the signal length wrap and are outside the validity range.
xcorr_shift_rows registers K row pairs with one batched FFT per step and
marks rows whose correlation is identically zero; xcorr_shift_1d is its
one-row case; xcorr_shift_s_2d never holds its 2D correlation whole.  Every
peak is refined by _refined_peak, which checks the correlation once:
non-finite inputs, or finite ones so large that the correlation overflows,
raise a ValueError that names the overflow.

The samplers have one read, _sample: stored views at detector points, each point at its own
view-angle offset.  Queried on every stored view (beta=None), it reads cache-sized blocks of views,
each corner gathered once per block: with no offset (cone_align's tilted read) by one take of its
columns along the views of the (views, detector) table, with offsets (the fan symmetry map) from
the flattened data, adjacent views then blended per column.  Each block goes to the array of the
read, or to running sums of its squared residual against given rows and of those rows, which raise
ValueError when they overflow, or through an rfft along the detector into given rows of a spectrum:
neither the symmetry mse nor 2DR builds a reflected sinogram.  A query at given
view angles reads stored view 0 with the angles as offsets; an empty query is a read of no point.
Weights are built per axis, bitwise as full-grid formulas, and one rule reads off the grid: neighbour
indices may fall off it (view n, a detector index past an edge), _read takes every index modulo its
table, and the off-grid mask zeroes every corner off the detector.  An axis whose weight is zero at
every point (a detector axis, or the view axis when every angle is on a stored view) is not read.
"""

import numpy as np

from .core import TWO_PI, wrap_angle

UPSAMPLE = 20  # correlation peaks are refined to 1/UPSAMPLE of a sample


class AmbiguousShiftError(ValueError):
    """Cross-correlation is identically zero, or the data have no signal to measure; no shift can be estimated."""


def _refined_peak(c):
    """Per row of c, the argmax of c band-limited onto a grid UPSAMPLE times finer (its spectrum zero-padded,
    the samples kept), unwrapped to (-N/2, N/2], in samples.  A refined correlation that is not finite, from
    non-finite inputs or from an overflow of huge ones, raises ValueError."""
    n = c.shape[-1]
    m = n * UPSAMPLE
    spec = np.fft.rfft(c)
    if n % 2 == 0:
        # the Nyquist bin becomes an interior frequency after padding; it
        # must be split between +/- Nyquist, and irfft supplies the conjugate
        spec[..., n // 2] *= 0.5
    padded = np.zeros(c.shape[:-1] + (m // 2 + 1,), dtype=complex)
    padded[..., : spec.shape[-1]] = spec
    fine = np.fft.irfft(padded, n=m, axis=-1) * UPSAMPLE
    if not np.isfinite(fine).all():
        raise ValueError("correlation is not finite: the inputs are not finite, or so large that it overflows")
    peak = np.argmax(fine, axis=-1)
    peak = np.where(2 * peak > m, peak - m, peak)
    # integer unwrap first, single division after: keeps antisymmetry exact
    return peak / UPSAMPLE


def _check_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
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


@np.errstate(over="ignore", invalid="ignore")  # overflow shows as a non-finite correlation, raised once
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
    d = _refined_peak(corr)
    d[swap] = 0.0 - d[swap]  # 0.0 - x: no -0.0 for a zero shift
    d[2 * d == -n] = n / 2
    d[~corr.any(axis=1)] = np.nan
    return d


def xcorr_shift_s_2d(a, b):
    """Shift along the last (s) axis of the 2D circular correlation peak.

    The peak is located at integer resolution on the first (beta) axis,
    whose shift is discarded, and refined to 1/UPSAMPLE along s by spectral
    zero-padding of the peak row.  Sign convention as in xcorr_shift_1d.
    The correlation is irfft2(rfft2(a) * conj(rfft2(b))) bit for bit, and is never held whole (_xcorr_peak_s).
    """
    a, b = _check_pair(a, b)
    if a.ndim != 2 or min(a.shape) < 2:
        raise ValueError("inputs must be 2D with at least 2 samples per axis")
    return _xcorr_peak_s(a, lambda spectrum: np.fft.rfft(b, axis=1, out=spectrum))


@np.errstate(over="ignore", invalid="ignore")  # overflow shows as a non-finite correlation, raised once
def _xcorr_peak_s(a, fill_b):
    """xcorr_shift_s_2d of the 2D array a against b, whose row spectrum (rfft along s) fill_b writes into the array
    it is given.  The two row spectra share one array, where the beta-axis FFTs, the product and the inverse beta FFT
    run in place; the s axis is then inverted _BLOCK // n rows at a time into the all-zero check and a running search
    for np.argmax's first maximum in C order (a NaN wins, a tie keeps the earlier), which keeps only the peak row."""
    n = a.shape[1]
    spectra = np.empty((2, a.shape[0], n // 2 + 1), dtype=complex)
    np.fft.rfft(a, axis=1, out=spectra[0])
    fill_b(spectra[1])
    np.fft.fft(spectra, axis=1, out=spectra)
    f = np.multiply(spectra[0], np.conjugate(spectra[1], out=spectra[1]), out=spectra[0])
    np.fft.ifft(f, axis=0, out=f)
    rows, top, peak, nonzero = max(1, _BLOCK // n), None, None, False
    for i in range(0, len(f), rows):
        corr = np.fft.irfft(f[i : i + rows], n=n, axis=1)
        nonzero = nonzero or corr.any()
        k = np.argmax(corr)
        if top is None or np.argmax((top, corr.flat[k])):  # a later block wins only as np.argmax would pick it
            top, peak = corr.flat[k], corr[k // n].copy()
    if not nonzero:
        raise AmbiguousShiftError("zero cross-correlation")
    return float(_refined_peak(peak))


_SNAP = 1e-9  # index units; collapses float dirt on exact grid queries


def _axis_weights(coord, origin, step, n, stride):
    """Linear interpolation on one axis with zero fill outside the grid:
    the (flat offset, off-grid mask) of the lower and upper neighbours, and
    the upper neighbour's weight.  stride is the axis's flat-index stride.
    A neighbour may be off the grid: _read wraps its offset, the mask zeroes it."""
    x = (coord - origin) / step
    np.minimum(np.maximum(x, -2.0, out=x), n + 1.0, out=x)  # off [-1, n] reads 0 anyway; the cast stays valid
    i0 = np.floor(x).astype(int)
    x -= i0
    # snap to the grid so stored values are reproduced bit-exactly
    hit_hi = x > 1.0 - _SNAP
    np.copyto(x, 0.0, where=(x < _SNAP) | hit_hi)
    i0 += hit_hi
    i1 = i0 + 1
    return (i0 * stride, (i0 < 0) | (i0 >= n)), (i1 * stride, (i1 < 0) | (i1 >= n)), x


def _beta_weights(beta, n, stride):
    """Periodic linear interpolation on a view axis of n views spaced 2*pi/n apart: the lower
    neighbouring view's flat offset, up to view n, which _read wraps to view 0, and the next view's weight."""
    t = wrap_angle(beta)
    t /= TWO_PI / n
    j0 = np.floor(t).astype(int)
    t -= j0
    hit_hi = t > 1.0 - _SNAP
    np.copyto(t, 0.0, where=(t < _SNAP) | hit_hi)
    j0 += hit_hi
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
    """The cell's corner values lerped innermost axis first: at flat offsets rows + corner of the flat table, or,
    rows None, at offset corner of each row of the 2-D table, every index modulo what it indexes (the one wrap of the
    samplers), each corner then zeroed where its mask marks it off the grid."""
    corners, weights = cell
    values = []
    for offset, off in corners:
        values.append(table.take(offset if rows is None else rows + offset, axis=-1, mode="wrap"))
        if off.any():
            np.copyto(values[-1], 0.0, where=off)
    for w in reversed(weights):
        values = [_lerp(values[i], values[i + 1], w) for i in range(0, len(values), 2)]
    return values[0]


_BLOCK = 1 << 14  # output points per block of the all-views read and of the 2D correlation: they stay in cache


def _sample(values, specs, message, beta, view_offset, against=None, spectrum=None):
    """The samplers' read of values (n views 2*pi/n apart on the first axis) at m detector points, specs one
    (coordinate, origin, step, count, stride) per axis, outermost first; message: the non-finite error.
    beta=None reads every stored view b_j, column i at angle b_j + view_offset_i (b_j if None), which is
    one (whole views k_i, weight f_i) pair; angles beta read stored view 0 (angle 0) at offsets beta.  Each
    block of views gathers each corner once: with no offset, its columns of the block's rows of the
    (n, stride) table; else on its views plus one, view j + k_i at flat offset (j + k_i)*stride + corner,
    adjacent rows then blended with f_i unless every f_i is 0.  _read's modulo is the view modulo, and off-grid
    corners are masked; an empty query runs the same loop.  Bit for bit the full-grid read.  Returns it; or,
    given against (its shape), the block sums (|read - against|^2, |against|^2), whose overflow raises ValueError;
    or, given spectrum, (views, m//2 + 1) complex rows, spectrum holding each block's rfft along the detector."""
    n, flat = values.shape[0], values.ravel()
    views = n
    if beta is not None:
        if view_offset is not None:
            raise ValueError("view_offset needs beta=None")
        views, view_offset = 1, beta
    offset = 0.0 if view_offset is None else view_offset
    *coords, offset = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (*(s[0] for s in specs), offset)))
    shape = offset.shape if beta is not None else (n,) + offset.shape
    coords = [c.ravel() for c in coords]
    if not all(np.all(np.isfinite(c)) for c in coords):
        raise ValueError(message)
    m, stride = coords[0].size, flat.size // n
    k, blend = 0, False
    if view_offset is not None:
        k, f = _beta_weights(offset.ravel(), n, stride)
        blend = bool(f.any())
    cell = _cell([_axis_weights(c, *spec[1:]) for c, spec in zip(coords, specs)], k)
    rows = max(1, _BLOCK // max(m, 1))
    if against is not None:
        against = np.broadcast_to(against, shape).reshape(views, m)
    whole = against is None and spectrum is None  # the read is the result, not one of its blocks
    out = np.empty((views if whole else min(rows, views), m))
    sse = norm = 0.0
    for a in range(0, views, rows):
        b = min(a + rows, views)
        if view_offset is None:
            v = _read(flat.reshape(n, stride)[a:b], None, cell)
        else:
            v = _read(flat, np.arange(a * stride, (b + blend) * stride, stride)[:, None], cell)
        if blend:  # v[:-1] is read before v[1:] is scaled
            v = _lerp(v[:-1], v[1:], f, out[a:b] if whole else out[: b - a])
        elif whole:
            out[a:b] = v
        if spectrum is not None:
            np.fft.rfft(v, axis=-1, out=spectrum[a:b])
        elif against is not None:
            g = against[a:b]
            v -= g
            sse, norm = sse + np.vdot(v, v), norm + np.vdot(g, g)
    if whole:
        return float(out[0, 0]) if shape == () else out.reshape(shape)
    if spectrum is not None:
        return spectrum
    if not (np.isfinite(sse) and np.isfinite(norm)):
        raise ValueError("residual sums are not finite: the data are so large that they overflow")
    return float(sse), float(norm)


def sample_periodic(sino, s, beta, view_offset=None, against=None, spectrum=None):
    """Bilinear sinogram lookup: linear in s (zero outside the detector),
    linear and 2*pi-periodic in beta.  Accepts scalars or broadcastable
    arrays; grid-point queries reproduce stored values bit-exactly.
    beta=None reads every stored view b_j: the (n_beta,) + shape array of
    g(s, b_j + view_offset), view_offset broadcast with s (0 if None).
    Given against (the read's shape), returns (|read - against|^2, |against|^2), summed per block;
    given spectrum, (n_beta, n_s//2 + 1) complex rows, returns it holding the read's rfft along s, taken per block.
    """
    geom = sino.geometry
    specs = [(s, -geom.s_max, geom.pixel_size, geom.n_s, 1)]
    return _sample(sino.values, specs, "s coordinates must be finite", beta, view_offset, against, spectrum)


def sample_detector(stack, u, v, beta):
    """Trilinear projection-stack lookup: linear with zero fill in u and v,
    linear and periodic in beta.  Scalar or broadcastable array coordinates;
    beta=None reads every stored view b_j: the (n_beta,) + shape array of
    g(u, v, b_j).
    """
    geom = stack.geometry
    specs = [(v, -geom.v_max, geom.pixel_size_v, geom.n_v, geom.n_u), (u, -geom.u_max, geom.pixel_size, geom.n_u, 1)]
    return _sample(stack.values, specs, "detector coordinates must be finite", beta, None)
