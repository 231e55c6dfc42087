"""Fan-beam center-of-rotation estimators built on the sinogram symmetry
condition g(s, b) = g(-s, b + pi + 2*atan(s/r)).

A detector shift h turns that identity into a translation between a
sinogram (or a profile of it) and its symmetry-reflected resampling; each
estimator recovers h as half of a cross-correlation shift:

* Yang: angular sum profile p against its reversal.
* LY:   p against the reflected profile w (linear interpolation in beta).
* 2DR:  the full sinogram against its reflected resampling, 2D correlation.
* FP_K: median of K fixed-point runs h_{k+1} = h_k + shift/2, each on one
        view, started at views spread uniformly over beta and advanced in
        lockstep: each iteration reflects every active run in one sampler
        call and correlates them in one batched call (fixed_point_shift).
* FP:   the one-start case of FP_K, started at the view beta_index.

The symmetry map is written once, in reflect(); cone_align reads the same
map through its tilted detector axis.  On every view at once the map is one
sampler read of every stored view along the reflected detector path, each
detector column at its own view offset pi + 2*atan((s - h)/r), since that
offset depends on the column only.  All h values are in effective detector
pixels.
"""

import math

import numpy as np
from dataclasses import dataclass

from .core import FAN_METHODS, AlignmentResult
from .registration import (
    AmbiguousShiftError,
    sample_periodic,
    xcorr_shift_1d,
    xcorr_shift_rows,
    xcorr_shift_s_2d,
)


@dataclass(frozen=True)
class FanAlignConfig:
    """Knobs shared by the fan estimators.

    method: estimator selected by align_fan (the align_* functions themselves
    ignore it); K: number of FP starts for FP_K; max_iter/tol_h: FP iteration
    cap and convergence threshold in pixels; upsample: sub-pixel registration
    factor; beta_index: starting view of a single FP run.
    """

    method: str = "2DR"
    K: int = 10
    max_iter: int = 20
    tol_h: float = 0.01
    upsample: int = 20
    beta_index: int = 0

    def __post_init__(self):
        if self.method not in FAN_METHODS:
            raise ValueError(f"method must be one of {FAN_METHODS}")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (math.isfinite(self.tol_h) and self.tol_h > 0):
            raise ValueError("tol_h must be positive and finite")
        if self.upsample < 1:
            raise ValueError("upsample must be at least 1")
        if self.beta_index < 0:
            raise ValueError("beta_index must be non-negative")


def reflect(geom, sample, h_px, beta=None):
    """The symmetry map at candidate shift h (pixels), read through a sampler.

    Returns sample(-s + 2h, beta + pi + 2*atan((s - h)/r)) on the detector
    axis s of geom.  sample(x, b) reads the data at detector coordinate x and
    view angle b; beta is a view angle or an array of them.  beta=None takes
    every view b_j of geom and returns the (n_beta, n_s) array
    sample(x, None, offset): the stored views read along the reflected
    detector path x, column i at view angle b_j + offset_i with
    offset_i = pi + 2*atan((s_i - h)/r).
    """
    s = geom.s_axis()
    h_s = geom.px_to_s(h_px)
    x = -s + 2.0 * h_s
    offset = 2.0 * np.arctan((s - h_s) / geom.source_radius)
    if beta is None:
        return sample(x, None, math.pi + offset)
    return sample(x, beta + math.pi + offset)


def reflected_resampling(sino, h_px=0.0):
    """The sinogram resampled through the symmetry map at candidate shift h.

    Returns the array z[j, i] = g(-s_i + 2h, b_j + pi + 2*atan((s_i - h)/r))
    with h in pixels (h = 0 gives the reflection the LY/2DR estimators
    correlate against).  Bilinear sampling, periodic in beta.
    """
    return reflect(sino.geometry, lambda s, b, offset=None: sample_periodic(sino, s, b, offset), h_px)


def profile_p(sino):
    """Angular sum profile p_i = sum_j g(s_i, b_j); even in s for aligned data."""
    return sino.values.sum(axis=0)


def profile_w(sino):
    """Symmetry-reflected profile w_i = sum_j g(-s_i, b_j + pi + 2*atan(s_i/r)).

    For data shifted by h the profiles satisfy p(s) ~= w(s - 2h).
    """
    return reflected_resampling(sino, 0.0).sum(axis=0)


def symmetry_mse(sino, h):
    """Normalized symmetry error |g - g_reflected(h)|_F^2 / |g|_F^2.

    g_reflected is the sinogram resampled through the symmetry map at
    candidate shift h (pixels).  Zero only for perfectly consistent data;
    minimized near the true shift.
    """
    g = sino.values.ravel()
    den = float(np.dot(g, g))
    if den == 0.0:
        raise ValueError("symmetry_mse undefined for an all-zero sinogram")
    residual = reflected_resampling(sino, h).ravel()  # a fresh array: work in place
    residual -= g
    return float(np.dot(residual, residual)) / den


def _result(sino, h, method, iterations=0, converged=True):
    """The fan result at h, with its symmetry MSE; fan results keep no trace."""
    return AlignmentResult(
        h=float(h), eta=0.0, mse=symmetry_mse(sino, h), iterations=iterations, method=method, converged=converged
    )


def align_yang(sino, cfg=FanAlignConfig()):
    """Shift estimate from the angular sum profile against its reversal.

    The reversal is exact on the symmetric detector grid:
    reverse(p)[i] = p[n_s - 1 - i].
    """
    p = profile_p(sino)
    h = 0.5 * xcorr_shift_1d(p, p[::-1], cfg.upsample)
    return _result(sino, h, "Yang")


def align_ly(sino, cfg=FanAlignConfig()):
    """Shift estimate from the angular sum profile against the reflected
    profile w, which is translated by 2h relative to p."""
    p = profile_p(sino)
    w = profile_w(sino)
    h = 0.5 * xcorr_shift_1d(p, w, cfg.upsample)
    return _result(sino, h, "LY")


def align_2dr(sino, cfg=FanAlignConfig()):
    """Shift estimate from the 2D correlation of the sinogram with its
    symmetry-reflected resampling; only the s component of the peak is used,
    the beta component is discarded."""
    z = reflected_resampling(sino, 0.0)
    h = 0.5 * xcorr_shift_s_2d(sino.values, z, cfg.upsample)
    return _result(sino, h, "2DR")


def fp_start_indices(n_beta, K):
    """The K FP starting views, uniformly spread: round(j*n_beta/K) mod n_beta.

    K may not exceed the number of views: the starts would repeat.
    """
    if K > n_beta:
        raise ValueError("K cannot exceed the number of views")
    return [int(round(j * n_beta / K)) % n_beta for j in range(K)]


def fixed_point_shift(lam, geom, sample, starts, cfg):
    """Median of the fixed-point runs h_{k+1} = h_k + shift(lam_j, pi_j(h_k)) / 2
    started from h_0 = 0 at the views j in starts.

    lam holds the reference views, one row per view of geom; sample(x, b)
    reads the data the reflections pi_j(h) are taken from.  The runs advance
    in lockstep, with the values of separate runs: each iteration reflects
    every active run in one sampler call and correlates them in one
    xcorr_shift_rows call.  A run stops when its update drops below cfg.tol_h
    (converged) or after cfg.max_iter updates, and fails when its correlation
    is identically zero (a defective view).  Failed runs are excluded from
    the median; if every run fails, AmbiguousShiftError is raised.  For even
    counts the lower-middle order statistic is taken, avoiding an average of
    two modes.  Returns (h, iterations, runs): the median, the largest
    iteration count, and per returned run (start number, h_j, iterations,
    converged).
    """
    beta0 = np.asarray(starts) * geom.beta_step
    lam = lam[starts]
    h = np.zeros(len(starts))
    runs = [None] * len(starts)
    active = np.arange(len(starts))
    for k in range(1, cfg.max_iter + 1):
        h_old = h[active]
        pi = reflect(geom, sample, h_old[:, None], beta0[active, None])
        h_new = h_old + 0.5 * xcorr_shift_rows(lam[active], pi, cfg.upsample)
        done = np.abs(h_new - h_old) < cfg.tol_h
        h[active] = h_new
        for j, h_j, conv in zip(active.tolist(), h_new.tolist(), done.tolist()):
            if (conv or k == cfg.max_iter) and not math.isnan(h_j):  # NaN: zero correlation, the run fails
                runs[j] = (j, h_j, k, conv)
        active = active[~np.isnan(h_new) & ~done]
        if not active.size:
            break
    runs = [run for run in runs if run is not None]
    if not runs:
        raise AmbiguousShiftError("every fixed-point start failed")
    ordered = sorted(h_j for _, h_j, *_ in runs)
    return ordered[(len(ordered) - 1) // 2], max(iters for _, _, iters, *_ in runs), runs


def _fixed_point(sino, starts, method, cfg):
    """fixed_point_shift on sino from the views in starts, converged if every returned run is."""
    sample = lambda s, b: sample_periodic(sino, s, b)
    h, iterations, runs = fixed_point_shift(sino.values, sino.geometry, sample, starts, cfg)
    return _result(sino, h, method, iterations, all(conv for _, _, _, conv in runs))


def align_fp(sino, cfg=FanAlignConfig()):
    """FP: fixed_point_shift with the one start cfg.beta_index.

    The reference Lambda_i = g(s_i, b_0) is the view itself; each iteration
    correlates it against Pi_k(s_i) = g(-s_i + 2h_k, b_0 + pi +
    2*atan((s_i - h_k)/r)) and advances h by half the measured shift.
    Non-convergence within max_iter is flagged on the result, not fatal.
    """
    if not 0 <= cfg.beta_index < sino.geometry.n_beta:
        raise ValueError("beta_index outside the view range")
    return _fixed_point(sino, [cfg.beta_index], "FP", cfg)


def align_fp_k(sino, cfg=FanAlignConfig()):
    """FP_K: fixed_point_shift from K starts spread uniformly in beta.

    iterations is the largest per-run count; converged, that every returned run did.
    """
    return _fixed_point(sino, fp_start_indices(sino.geometry.n_beta, cfg.K), "FP_K", cfg)


_ESTIMATORS = {
    "Yang": align_yang,
    "LY": align_ly,
    "2DR": align_2dr,
    "FP": align_fp,
    "FP_K": align_fp_k,
}


def align_fan(sino, cfg=FanAlignConfig()):
    """Run the estimator selected by cfg.method."""
    return _ESTIMATORS[cfg.method](sino, cfg)
