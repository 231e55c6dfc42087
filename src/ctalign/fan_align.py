"""Fan-beam center-of-rotation estimators built on the sinogram symmetry
condition g(s, b) = g(-s, b + pi + 2*atan(s/r)).

A detector shift h turns that identity into a translation between a
sinogram (or a profile of it) and its symmetry-reflected resampling; each
estimator recovers h as half of a cross-correlation shift:

* Yang: angular sum profile p against its reversal.
* LY:   p against the reflected profile w, linear in beta.  On a full scan
        each column keeps its sum over the views, so w is p reversed and LY
        is Yang's registration under its own tag.
* 2DR:  the full sinogram against its reflected resampling, 2D correlation.
* FP_K: median of K fixed-point runs h_{k+1} = h_k + shift/2, each on one
        view, started at views spread uniformly over beta and advanced in
        lockstep: each iteration reflects every active run in one read
        and correlates them in one batched call (fixed_point_shift).  A
        run converges when its shift is exactly 0: every shift is on the
        1/20-px grid of the registration kernels (registration.UPSAMPLE).
* FP:   FP_K with K = 1, its one start at view 0.

The symmetry map is written once, in reflect(), and reads a fan Sinogram
through sample_periodic; cone_align applies it and the 2DR and FP_K shift
solves to the tilted sinogram lambda_eta returns.  On every view at once
the map is one read of every stored view along the reflected detector path,
each detector column at its own view offset pi + 2*atan((s - h)/r), since
that offset depends on the column only.  symmetry_sse and symmetry_mse sum
that read's residual block by block and build no reflected sinogram.  All h
values are in effective detector pixels.
"""

import math

import numpy as np
from dataclasses import dataclass, replace

from .core import FAN_METHODS, AlignmentResult, count_at_least
from .registration import (
    AmbiguousShiftError,
    sample_periodic,
    xcorr_shift_1d,
    xcorr_shift_rows,
    xcorr_shift_s_2d,
)


@dataclass(frozen=True)
class FanAlignConfig:
    """Settings of the fan estimators.

    method: estimator selected by align_fan (the align_* functions themselves
    ignore it); K: number of FP_K starts (FP is K = 1); max_iter: cap on the
    updates of each fixed-point run.  Registration is refined to 1/20 px
    (registration.UPSAMPLE), and a run converges at an exactly zero shift.
    """

    method: str = "2DR"
    K: int = 10
    max_iter: int = 20

    def __post_init__(self):
        if self.method not in FAN_METHODS:
            raise ValueError(f"method must be one of {FAN_METHODS}")
        count_at_least("K", self.K)
        count_at_least("max_iter", self.max_iter)


def reflect(sino, h_px, beta=None, against=None):
    """The symmetry map of sino at candidate shift h (pixels).

    Returns g(-s + 2h, beta + pi + 2*atan((s - h)/r)) on the detector axis s,
    read bilinearly and periodic in beta; beta is a view angle or an array
    of them.  beta=None takes every view b_j and returns the (n_beta, n_s)
    array of the stored views read along the reflected detector path x,
    column i at view angle b_j + offset_i with offset_i = pi + 2*atan((s_i - h)/r).
    Given against, an array of that shape, returns sample_periodic's block sums instead.
    """
    geom = sino.geometry
    s = geom.s_axis()
    h_s = geom.px_to_s(h_px)
    x = -s + 2.0 * h_s
    offset = 2.0 * np.arctan((s - h_s) / geom.source_radius)
    if beta is not None:
        return sample_periodic(sino, x, beta + math.pi + offset)
    if against is not None:
        return sample_periodic(sino, x, None, math.pi + offset, against=against)
    return sample_periodic(sino, x, None, math.pi + offset)


def reflected_resampling(sino, h_px=0.0):
    """The sinogram resampled through the symmetry map at candidate shift h.

    Returns the array z[j, i] = g(-s_i + 2h, b_j + pi + 2*atan((s_i - h)/r))
    with h in pixels (h = 0 gives the reflection 2DR correlates against).
    """
    return reflect(sino, h_px)


def profile_p(sino):
    """Angular sum profile p_i = sum_j g(s_i, b_j); even in s for aligned data."""
    return sino.values.sum(axis=0)


def symmetry_sse(sino, h):
    """|g - g_reflected(h)|_F^2, g resampled through the symmetry map at shift h (pixels),
    summed block by block as the blocked read makes the reflection, which is never built whole."""
    return reflect(sino, h, against=sino.values)[0]


def symmetry_mse(sino, h):
    """symmetry_sse(sino, h) / |g|_F^2: zero only for consistent data, minimized near the true shift.
    |g|^2 is summed on the same blocks in the same order: a reflection wholly off the detector gives 1."""
    sse, den = reflect(sino, h, against=sino.values)
    if den == 0.0:
        raise ValueError("symmetry_mse undefined for an all-zero sinogram")
    return sse / den


def _result(sino, h, method, iterations=0, converged=True):
    """The fan result at h, with its symmetry MSE; fan results keep no trace."""
    return AlignmentResult(
        h=float(h), eta=0.0, mse=symmetry_mse(sino, h), iterations=iterations, method=method, converged=converged
    )


def _reversal_shift(sino):
    """Half the shift of the angular sum profile p against its reversal,
    exact on the symmetric detector grid: reverse(p)[i] = p[n_s - 1 - i]."""
    p = profile_p(sino)
    return 0.5 * xcorr_shift_1d(p, p[::-1])


def align_yang(sino, cfg=FanAlignConfig()):
    """Shift estimate from the angular sum profile against its reversal."""
    return _result(sino, _reversal_shift(sino), "Yang")


def align_ly(sino, cfg=FanAlignConfig()):
    """Shift estimate from the angular sum profile p against the reflected
    profile w_i = sum_j g(-s_i, b_j + pi + 2*atan(s_i/r)), translated by 2h
    relative to p.  The read is linear and periodic in beta, so on a full
    scan each column keeps its sum over the views and w is p reversed."""
    return _result(sino, _reversal_shift(sino), "LY")


def shift_2dr(sino):
    """2DR's shift (pixels): half the s component of the 2D correlation peak of
    the sinogram with its reflected resampling at h = 0 (beta is discarded)."""
    return 0.5 * xcorr_shift_s_2d(sino.values, reflected_resampling(sino, 0.0))


def align_2dr(sino, cfg=FanAlignConfig()):
    """Shift estimate from the 2D correlation of the sinogram with its reflection (shift_2dr)."""
    return _result(sino, shift_2dr(sino), "2DR")


def fp_start_indices(n_beta, K):
    """The K FP starting views, uniformly spread: round(j*n_beta/K) mod n_beta.

    K may not exceed the number of views: the starts would repeat.
    """
    if K > n_beta:
        raise ValueError("K cannot exceed the number of views")
    return [int(round(j * n_beta / K)) % n_beta for j in range(K)]


def fixed_point_shift(sino, cfg=FanAlignConfig()):
    """Median of the fixed-point runs h_{k+1} = h_k + shift(g_j, pi_j(h_k)) / 2
    started from h_0 = 0 at the cfg.K views j of fp_start_indices, g_j the
    stored view and pi_j(h) its reflection at shift h.

    The runs advance in lockstep, with the values of separate runs: each
    iteration reflects every active run in one sample_periodic call and
    correlates them in one xcorr_shift_rows call.  A run converges when its
    shift is exactly 0 (h is a fixed point of the update on the 1/20-px
    registration grid, where any other shift moves h by at least 0.025 px),
    stops unconverged after cfg.max_iter updates, and fails
    when its correlation is identically zero (a defective view).  Failed
    runs are excluded from the median; if every run fails,
    AmbiguousShiftError is raised.  For even counts the lower-middle order
    statistic is taken, avoiding an average of two modes.  Returns
    (h, iterations, converged, runs): the median, the largest iteration
    count, whether every returned run converged, and per returned run
    (start number, h_j, iterations, converged).
    """
    geom = sino.geometry
    starts = fp_start_indices(geom.n_beta, cfg.K)
    beta0 = np.asarray(starts) * geom.beta_step
    lam = sino.values[starts]
    n = len(starts)
    h, iterations, converged = np.zeros(n), np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    active = np.arange(n)
    for k in range(1, cfg.max_iter + 1):
        h_old = h[active]
        pi = reflect(sino, h_old[:, None], beta0[active, None])
        shift = xcorr_shift_rows(lam[active], pi)
        h_new = h_old + 0.5 * shift
        done = shift == 0.0
        h[active], iterations[active], converged[active] = h_new, k, done
        active = active[~np.isnan(h_new) & ~done]
        if not active.size:
            break
    state = zip(h.tolist(), iterations.tolist(), converged.tolist())
    runs = [(j, *run) for j, run in enumerate(state) if not math.isnan(run[0])]  # NaN: zero correlation, the run fails
    if not runs:
        raise AmbiguousShiftError("every fixed-point start failed")
    ordered = sorted(h_j for _, h_j, *_ in runs)
    converged = all(conv for *_, conv in runs)
    return ordered[(len(ordered) - 1) // 2], max(iters for _, _, iters, _ in runs), converged, runs


def align_fp(sino, cfg=FanAlignConfig()):
    """FP: fixed_point_shift with K = 1, its one start at view 0.

    The reference Lambda_i = g(s_i, b_0) is the view itself; each iteration
    correlates it against Pi_k(s_i) = g(-s_i + 2h_k, b_0 + pi +
    2*atan((s_i - h_k)/r)) and advances h by half the measured shift.
    Non-convergence within max_iter is flagged on the result, not fatal.
    """
    h, iterations, converged, _ = fixed_point_shift(sino, replace(cfg, K=1))
    return _result(sino, h, "FP", iterations, converged)


def align_fp_k(sino, cfg=FanAlignConfig()):
    """FP_K: fixed_point_shift from K starts spread uniformly in beta; iterations
    is the largest per-run count; converged, that every returned run did."""
    h, iterations, converged, _ = fixed_point_shift(sino, cfg)
    return _result(sino, h, "FP_K", iterations, converged)


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
