"""Cone-beam (h, eta) estimation by variable projection.

The in-plane rotation eta and shift h of the detector are recovered from the
least-squares mismatch of two resamplings of the projection stack along the
detector axis tilted by eta about the rotation-axis image (h, 0):

    Lambda_eta g(q, b) = g(h + (q - h)cos(eta), -(q - h)sin(eta), b)
    Pi_h_eta  g(q, b) = g(h + (h - q)cos(eta), (q - h)sin(eta),
                          b + pi + 2*atan((q - h)/r))

At the true misalignment Lambda is the mid-plane fan sinogram and both
agree (the fan symmetry condition along the true horizontal axis), so
L(h, eta) = |Lambda - Pi|^2 is minimized there.
Pi_h_eta is the fan symmetry map (fan_align.reflect) read along the tilted
detector axis, so the fan estimators are its eta = 0, v = 0 case; Lambda_eta
is the same read of every stored view, unreflected.
The inner variable h is eliminated by the fan 2DR or median-of-K fixed-point
solve at fixed eta on the pair pivoted at 0, which is free of h; the reduced
loss L(h(eta), eta) is descended in eta by safeguarded Newton steps.  Its
gradient is the partial one at the inner optimum (the envelope result of
variable projection; Golub & Pereyra, Inverse Problems 19:R1, 2003), so h
is solved only at the start, trial and accepted points, not on the stencil.
"""

import math

import numpy as np
from dataclasses import dataclass, field

from .core import AlignmentResult, Sinogram
from .fan_align import FanAlignConfig, fixed_point_shift, fp_start_indices, reflect, symmetry_mse
from .registration import sample_detector, xcorr_shift_s_2d

ETA_BOUND = math.radians(45.0)  # far beyond any physical detector mounting error

INNER_METHODS = ("2dr", "fp_k")

MAX_BACKTRACK = 30  # step halvings before a line search gives up


@dataclass(frozen=True)
class VPConfig:
    """Variable-projection knobs.

    inner_method selects the shift solver on the tilted fan pair; eta0 is
    the starting angle (radians); delta_eta the finite-difference step;
    gamma0 the fallback step length per unit gradient, taken instead of the
    Newton step where the curvature is not positive or the stencil is
    one-sided; armijo_c the sufficient-decrease constant of the
    backtracking, which halves the step on each rejection; max_outer caps
    the steps; tol_eta is the Newton step (radians) below which the descent
    stops as converged.  inner carries the fan-solver configuration.
    """

    inner_method: str = "2dr"
    eta0: float = 0.0
    delta_eta: float = 0.001
    gamma0: float = 1.0
    armijo_c: float = 1e-4
    max_outer: int = 20
    tol_eta: float = 1e-4
    inner: FanAlignConfig = field(default_factory=FanAlignConfig)

    def __post_init__(self):
        if self.inner_method not in INNER_METHODS:
            raise ValueError(f"inner_method must be one of {INNER_METHODS}")
        if not (math.isfinite(self.delta_eta) and self.delta_eta > 0):
            raise ValueError("delta_eta must be positive and finite")
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ValueError("gamma0 must be positive and finite")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if not (math.isfinite(self.tol_eta) and self.tol_eta > 0):
            raise ValueError("tol_eta must be positive and finite")
        if not -ETA_BOUND <= self.eta0 <= ETA_BOUND:
            raise ValueError("eta0 outside the search domain")


def _tilted(stack, eta, h_u=0.0):
    """Sampler of the stack along the detector axis tilted by eta about (h_u, 0):
    (x, b) -> g(h_u + (x - h_u)cos(eta), -(x - h_u)sin(eta), b); (x, None, offset)
    reads every stored view b_j at b_j + offset, as registration.sample_detector."""
    cose, sine = math.cos(eta), math.sin(eta)
    pivot = h_u * (1.0 - cose)  # written so that eta = 0 reads x exactly
    return lambda x, b, offset=None: sample_detector(stack, x * cose + pivot, (h_u - x) * sine, b, offset)


def lambda_eta(stack, h, eta):
    """Stack resampled along the axis tilted by eta about (h, 0), h in pixels:
    (q_i, b_j) grid array of g(h + (q - h)cos(eta), -(q - h)sin(eta), b).
    At the true (h, eta) this is the mid-plane fan sinogram.
    """
    geom = stack.geometry
    sample = _tilted(stack, eta, geom.px_to_u(h))
    return sample(geom.u_axis(), None)


def pi_h_eta(stack, h, eta):
    """Symmetry-reflected resampling at candidate shift h (pixels) along the
    axis tilted by eta about (h, 0): (q_i, b_j) grid array of
    g(h + (h - q)cos(eta), (q - h)sin(eta), b + pi + 2*atan((q - h)/r)).
    """
    geom = stack.geometry
    return reflect(geom.central_fan(), _tilted(stack, eta, geom.px_to_u(h)), h)


def loss_L(stack, h, eta, lam=None):
    """Sum of squared differences of the two tilted resamplings at (h, eta);
    lam, if given, is lambda_eta(stack, h, eta)."""
    if lam is None:
        lam = lambda_eta(stack, h, eta)
    pi = pi_h_eta(stack, h, eta)
    return float(np.sum((lam - pi) ** 2))


def inner_h(stack, eta, cfg=VPConfig()):
    """Shift (pixels) minimizing the tilted-pair mismatch at fixed eta.

    The fan estimate on the pair pivoted at 0 (lambda_eta, pi_h_eta at
    h = 0), which is free of h: 2DR correlates the two (their q-shift is
    2h); fp_k takes the median of K fixed-point runs started at rows of
    lambda_eta (fixed_point_shift).
    """
    lam = lambda_eta(stack, 0.0, eta)
    if cfg.inner_method == "2dr":
        return 0.5 * xcorr_shift_s_2d(lam, pi_h_eta(stack, 0.0, eta), cfg.inner.upsample)
    fan = stack.geometry.central_fan()
    starts = fp_start_indices(fan.n_beta, cfg.inner.K)
    return fixed_point_shift(lam, fan, _tilted(stack, eta), starts, cfg.inner)[0]


def _pivoted_loss(stack, h, eta, cache):
    """(loss, lam) of the pair pivoted at (h, 0), lam its lambda_eta; cached per (h, eta)."""
    if (h, eta) not in cache:
        lam = lambda_eta(stack, h, eta)
        cache[h, eta] = (loss_L(stack, h, eta, lam), lam)
    return cache[h, eta]


def _reduced_loss(stack, eta, cfg, cache):
    """(h, loss, lam) at eta, h from the inner solve; cached per eta."""
    if eta not in cache:
        h = inner_h(stack, eta, cfg)
        cache[eta] = (h, *_pivoted_loss(stack, h, eta, cache))
    return cache[eta]


def reduced_gradient(stack, eta, cfg=VPConfig(), cache=None):
    """(gradient, curvature) in eta of the reduced loss L(h(eta), eta).

    Both come from the same three losses L-, L0, L+ at eta - d, eta, eta + d
    (d = cfg.delta_eta), pivoted at the centre's h = h(eta): the partial
    derivatives at the inner optimum, which are the reduced ones (the
    envelope result), so h is solved at eta only.  g = (L+ - L-)/2d and
    c = (L+ - 2 L0 + L-)/d^2; within one step of the search-domain edge the
    stencil is one-sided, g = (L0 - L-)/d or (L+ - L0)/d, and c is nan.
    cache holds the solves per eta and the losses per (h, eta), across calls.
    """
    cache = {} if cache is None else cache
    d = cfg.delta_eta
    h, l0, _ = _reduced_loss(stack, eta, cfg, cache)

    def loss(at):
        return _pivoted_loss(stack, h, at, cache)[0]

    if eta + d > ETA_BOUND:
        return (l0 - loss(eta - d)) / d, math.nan
    if eta - d < -ETA_BOUND:
        return (loss(eta + d) - l0) / d, math.nan
    lo, hi = loss(eta - d), loss(eta + d)
    return (hi - lo) / (2.0 * d), (hi - 2.0 * l0 + lo) / (d * d)


def variable_projection(stack, cfg=VPConfig()):
    """Joint (h, eta) estimate: safeguarded Newton descent on the reduced loss.

    The inner shift is solved at eta0 and at each trial angle (cached per
    eta; the inner solve is deterministic), and held at the centre's value
    across the stencil.  Each outer iteration takes the Newton step g/c, or
    gamma0 times g where c is not positive or the stencil is one-sided; the
    step is halved until the Armijo sufficient-decrease test passes.
    Descent stops as converged, with no new point, once c > 0 and the
    Newton step is below tol_eta.  The iteration cap and backtracking
    exhaustion return the last accepted point, flagged non-converged.

    The result's mse is the fan symmetry MSE of the accepted point's
    lambda_eta, the mid-plane fan sinogram at the estimate.
    """
    cache = {}
    eta = min(max(cfg.eta0, -ETA_BOUND), ETA_BOUND)
    h, current, lam = _reduced_loss(stack, eta, cfg, cache)
    trace = [(0, h, eta, current)]
    converged = False
    iterations = 0
    for k in range(1, cfg.max_outer + 1):
        grad, curv = reduced_gradient(stack, eta, cfg, cache)
        step = grad / curv if curv > 0.0 else cfg.gamma0 * grad
        if curv > 0.0 and abs(step) < cfg.tol_eta:
            converged = True
            break
        for _ in range(MAX_BACKTRACK):
            eta_new = min(max(eta - step, -ETA_BOUND), ETA_BOUND)
            h_new, loss_new, lam_new = _reduced_loss(stack, eta_new, cfg, cache)
            if loss_new <= current - cfg.armijo_c * step * grad:
                break
            step *= 0.5
        else:
            break
        eta, h, current, lam = eta_new, h_new, loss_new, lam_new
        iterations = k
        trace.append((k, h, eta, current))
    method = "VP-2DR" if cfg.inner_method == "2dr" else "VP-FP_K"
    return AlignmentResult(
        h=float(h),
        eta=float(eta),
        mse=symmetry_mse(Sinogram(stack.geometry.central_fan(), lam), h),
        iterations=iterations,
        method=method,
        trace=tuple(trace),
        converged=converged,
    )
