"""Cone-beam (h, eta) estimation by variable projection.

The in-plane rotation eta and shift h of the detector are recovered from the
least-squares mismatch of two resamplings of the projection stack along the
tilted detector axis:

    Lambda_eta g(q, b) = g(q cos(eta), -q sin(eta), b)
    Pi_h_eta  g(q, b) = g((-q + 2h)cos(eta), (q - 2h)sin(eta),
                          b + pi + 2*atan((q - h)/r))

At the true misalignment both agree (the fan symmetry condition along the
true horizontal axis), so L(h, eta) = |Lambda - Pi|^2 is minimized there.
Pi_h_eta is the fan symmetry map (fan_align.reflect) read through the
tilted detector axis, so the fan estimators are the eta = 0, v = 0 case:
the stack is read along the reflected tilted path on the stored views, and
each column is then shifted along the view axis.  Lambda_eta is that read
on the unreflected path, with no shift.
The inner variable h is eliminated by the fan 2DR or median-of-K fixed-point
solve on the tilted pair at fixed eta; the reduced loss L(h(eta), eta) is
descended in eta with finite-difference gradients and Armijo backtracking
(step halved on each rejection).
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
    gamma0/armijo_c control the backtracking line search, which halves the
    step on each rejection; max_outer/tol_eta bound the descent.
    inner carries the fan-solver configuration.
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


def _tilted(stack, eta):
    """Sampler of the stack along the detector axis tilted by eta:
    (x, b) -> g(x cos(eta), -x sin(eta), b)."""
    cose, sine = math.cos(eta), math.sin(eta)
    return lambda x, b: sample_detector(stack, x * cose, -x * sine, b)


def lambda_eta(stack, h, eta):
    """Stack resampled along the tilted horizontal axis: (q_i, b_j) grid array
    of g(q cos(eta), -q sin(eta), b).  Free of h in this parameterization
    (the argument is accepted for signature symmetry with pi_h_eta).
    """
    geom = stack.geometry
    return _tilted(stack, eta)(geom.u_axis()[None, :], geom.beta_axis()[:, None])


def pi_h_eta(stack, h, eta):
    """Symmetry-reflected tilted resampling at candidate shift h (pixels):
    (q_i, b_j) grid array of g((-q + 2h)cos(eta), (q - 2h)sin(eta),
    b + pi + 2*atan((q - h)/r)).
    """
    return reflect(stack.geometry.central_fan(), _tilted(stack, eta), h)


def loss_L(stack, h, eta, lam=None):
    """Sum of squared differences of the two tilted resamplings at (h, eta).

    lam, if given, is lambda_eta(stack, h, eta), which is free of h.
    """
    if lam is None:
        lam = lambda_eta(stack, h, eta)
    pi = pi_h_eta(stack, h, eta)
    return float(np.sum((lam - pi) ** 2))


def inner_h(stack, eta, cfg=VPConfig(), lam=None):
    """Shift (pixels) minimizing the tilted-pair mismatch at fixed eta.

    The fan estimate on the tilted pair (lambda_eta, pi_h_eta): 2DR
    correlates lambda_eta against pi_h_eta at h = 0 (their q-shift is 2h);
    fp_k takes the median of K fixed-point runs started at rows of
    lambda_eta (fixed_point_shift).  lam, if given, is
    lambda_eta(stack, 0.0, eta).
    """
    if lam is None:
        lam = lambda_eta(stack, 0.0, eta)
    if cfg.inner_method == "2dr":
        return 0.5 * xcorr_shift_s_2d(lam, pi_h_eta(stack, 0.0, eta), cfg.inner.upsample)
    fan = stack.geometry.central_fan()
    starts = fp_start_indices(fan.n_beta, cfg.inner.K)
    return fixed_point_shift(lam, fan, _tilted(stack, eta), starts, cfg.inner)[0]


def _reduced_loss(stack, eta, cfg, cache):
    if eta not in cache:
        lam = lambda_eta(stack, 0.0, eta)
        h = inner_h(stack, eta, cfg, lam)
        cache[eta] = (h, loss_L(stack, h, eta, lam))
    return cache[eta]


def reduced_gradient(stack, eta, cfg=VPConfig(), cache=None):
    """d/d eta of the reduced loss L(h(eta), eta) by finite differences.

    Central stencil with step cfg.delta_eta; falls back to a one-sided
    stencil when eta sits within one step of the search-domain edge.
    cache maps eta to (h, loss) of the reduced loss, shared across calls.
    """
    cache = {} if cache is None else cache
    d = cfg.delta_eta
    lo, hi = eta - d, eta + d
    if hi > ETA_BOUND:
        _, l0 = _reduced_loss(stack, eta, cfg, cache)
        _, ll = _reduced_loss(stack, lo, cfg, cache)
        return (l0 - ll) / d
    if lo < -ETA_BOUND:
        _, l0 = _reduced_loss(stack, eta, cfg, cache)
        _, lh = _reduced_loss(stack, hi, cfg, cache)
        return (lh - l0) / d
    _, ll = _reduced_loss(stack, lo, cfg, cache)
    _, lh = _reduced_loss(stack, hi, cfg, cache)
    return (lh - ll) / (2.0 * d)


def variable_projection(stack, cfg=VPConfig()):
    """Joint (h, eta) estimate: gradient descent on the reduced loss.

    Each outer iteration re-solves the inner shift at the probed angles
    (results are cached per eta; the inner solve is deterministic), takes a
    finite-difference gradient step and backtracks with factor 1/2 until the
    Armijo sufficient-decrease test passes.  Descent stops when the eta
    update drops below tol_eta or the iteration cap is reached; backtracking
    exhaustion returns the best point seen, flagged non-converged.

    The result's mse is the fan symmetry MSE of the central tilted fan
    extracted at the final eta.
    """
    cache = {}
    eta = min(max(cfg.eta0, -ETA_BOUND), ETA_BOUND)
    h, current = _reduced_loss(stack, eta, cfg, cache)
    trace = [(0, h, eta, current)]
    gamma0 = cfg.gamma0
    converged = False
    iterations = 0
    for k in range(1, cfg.max_outer + 1):
        grad = reduced_gradient(stack, eta, cfg, cache)
        if grad == 0.0:
            converged = True
            break
        gamma = gamma0
        accepted = False
        for depth in range(MAX_BACKTRACK):
            eta_new = min(max(eta - gamma * grad, -ETA_BOUND), ETA_BOUND)
            h_new, loss_new = _reduced_loss(stack, eta_new, cfg, cache)
            if loss_new <= current - cfg.armijo_c * gamma * grad * grad:
                accepted = True
                break
            gamma *= 0.5
        if not accepted:
            break
        if depth > 10:
            gamma0 = gamma  # warm-start later searches once the scale is known
        step = abs(eta_new - eta)
        eta, h, current = eta_new, h_new, loss_new
        iterations = k
        trace.append((k, h, eta, current))
        if step < cfg.tol_eta:
            converged = True
            break
    method = "VP-2DR" if cfg.inner_method == "2dr" else "VP-FP_K"
    geom = stack.geometry
    fan = Sinogram(geom.central_fan(), lambda_eta(stack, 0.0, eta))
    return AlignmentResult(
        h=float(h),
        eta=float(eta),
        mse=symmetry_mse(fan, h),
        iterations=iterations,
        method=method,
        trace=tuple(trace),
        converged=converged,
    )
