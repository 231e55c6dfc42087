"""Fan-beam center-of-rotation estimators built on the sinogram symmetry
condition g(s, b) = g(-s, b + pi + 2*atan(s/r)).

A detector shift h turns that identity into a translation between a
sinogram (or a profile of it) and its symmetry-reflected resampling; each
estimator is a shift solve in _ESTIMATORS that recovers h as half of a
cross-correlation shift, and align_fan runs the one cfg.method names:

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
through sample_periodic; cone_align applies it to the tilted sinogram
lambda_eta returns, and VP's inner 2DR or FP_K solve runs through _ESTIMATORS.
On every view at once the map is one read of every stored view along the
reflected detector path, each detector column at its own view offset
pi + 2*atan((s - h)/r), since that offset depends on the column only.
symmetry_mse and cone_align.loss_L sum that read's residual block by block
and build no reflected sinogram.  All h values are in effective pixels.
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

    method: the estimator align_fan runs; K: number of FP_K starts (FP is
    K = 1); max_iter: cap on the updates of each fixed-point run.
    Registration is refined to 1/20 px (registration.UPSAMPLE), and a run
    converges at an exactly zero shift.
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
    h_s = h_px * geom.pixel_size
    x = -s + 2.0 * h_s
    offset = 2.0 * np.arctan((s - h_s) / geom.source_radius)
    if beta is None:
        return sample_periodic(sino, x, None, math.pi + offset, against=against)
    return sample_periodic(sino, x, beta + math.pi + offset)


def reflected_resampling(sino, h_px=0.0):
    """The sinogram resampled through the symmetry map at candidate shift h.

    Returns the array z[j, i] = g(-s_i + 2h, b_j + pi + 2*atan((s_i - h)/r))
    with h in pixels (h = 0 gives the reflection 2DR correlates against).
    """
    return reflect(sino, h_px)


def profile_p(sino):
    """Angular sum profile p_i = sum_j g(s_i, b_j); even in s for aligned data."""
    return sino.values.sum(axis=0)


def symmetry_mse(sino, h):
    """|g - g_reflected(h)|_F^2 / |g|_F^2 at shift h (pixels): zero only for consistent data, minimized
    near the true shift.  Both sums are taken on the same blocks of the reflected read, which is never
    built whole, in the same order: a reflection wholly off the detector gives 1."""
    sse, den = reflect(sino, h, against=sino.values)
    if den == 0.0:
        raise AmbiguousShiftError("symmetry_mse undefined for an all-zero sinogram")
    return sse / den


def _reversal_shift(sino, cfg):
    """Yang's and LY's solve: half the shift of the angular sum profile p
    against its reversal, exact on the symmetric detector grid:
    reverse(p)[i] = p[n_s - 1 - i].  LY registers p against the reflected
    profile w_i = sum_j g(-s_i, b_j + pi + 2*atan(s_i/r)); the read is linear
    and periodic in beta, so on a full scan each column keeps its sum over
    the views and w is p reversed."""
    p = profile_p(sino)
    return 0.5 * xcorr_shift_1d(p, p[::-1]), 0, ""


def fixed_point_shift(sino, cfg=FanAlignConfig()):
    """Median of the fixed-point runs h_{k+1} = h_k + shift(g_j, pi_j(h_k)) / 2
    started from h_0 = 0 at the cfg.K <= n_beta views j = round(i*n_beta/K) mod n_beta,
    spread uniformly over beta, g_j the stored view and pi_j(h) its reflection at h.

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
    (h, iterations, reason, runs): the median, the largest iteration count, "" if every
    returned run converged, else "a fixed-point run reached max_iter <cfg.max_iter>", and
    per returned run (start number, h_j, iterations, converged).
    """
    geom = sino.geometry
    if cfg.K > geom.n_beta:
        raise ValueError("K cannot exceed the number of views")
    starts = [int(round(j * geom.n_beta / cfg.K)) % geom.n_beta for j in range(cfg.K)]
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
    reason = "" if all(conv for *_, conv in runs) else f"a fixed-point run reached max_iter {cfg.max_iter}"
    return ordered[(len(ordered) - 1) // 2], max(iters for _, _, iters, _ in runs), reason, runs


# each method's shift solve, (sino, cfg) -> (h, iterations, reason), reason "" when trusted; 2DR's h is
# half the s component of the 2D correlation peak of the sinogram with its reflection at h = 0 (beta is
# discarded); FP_K's iterations is the largest per-run count, its reason fixed_point_shift's
_ESTIMATORS = {
    "Yang": _reversal_shift,
    "LY": _reversal_shift,
    "2DR": lambda sino, cfg: (0.5 * xcorr_shift_s_2d(sino.values, reflected_resampling(sino)), 0, ""),
    "FP": lambda sino, cfg: fixed_point_shift(sino, replace(cfg, K=1))[:3],
    "FP_K": lambda sino, cfg: fixed_point_shift(sino, cfg)[:3],
}


def align_fan(sino, cfg=FanAlignConfig()):
    """The fan estimate of the method cfg.method names: its shift solve, and
    the symmetry MSE at that shift.  A fixed-point run that does not converge
    within max_iter is named in the result's reason, not fatal; fan results keep no trace."""
    h, iterations, reason = _ESTIMATORS[cfg.method](sino, cfg)
    return AlignmentResult(
        h=float(h), eta=0.0, mse=symmetry_mse(sino, h), iterations=iterations, method=cfg.method, reason=reason
    )
