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
The reflection maps the tilted line through (h, 0) onto itself, q to 2h - q, so Pi_h_eta = Pi_h o
Lambda_eta is the fan symmetry map of the tilted sinogram: lambda_eta reads the stack once per read
line into a fan Sinogram of the central fan geometry, and the fan estimators are the eta = 0, v = 0
case.  The inner variable h is eliminated by the fan 2DR or FP_K shift solve of fan_align._ESTIMATORS
at fixed eta on the read pivoted at 0, free of h, which at eta = 0 is the read pivoted at (h, 0) too;
the reduced loss L(h(eta), eta) is descended in eta by safeguarded Newton steps.  Its gradient is the
partial one at the inner optimum (the envelope result of variable projection; Golub & Pereyra, Inverse
Problems 19:R1, 2003), so h is solved only at the start and trial points, not on the stencil.  The
descent carries its accepted point (h, eta, loss, |lam|^2, lam, inner reason); nothing is cached.
"""

import math
from dataclasses import dataclass

from .core import INNER_METHODS, AlignmentResult, Sinogram, count_at_least, positive_finite
from .fan_align import _ESTIMATORS, FanAlignConfig, reflect, reflected_resampling, symmetry_mse
from .registration import sample_detector

ETA_BOUND = math.radians(45.0)  # far beyond any physical detector mounting error

DELTA_ETA = 0.001  # finite-difference step in eta (radians)
GAMMA0 = 1.0  # fallback step per unit gradient where the curvature is not positive
ARMIJO_C = 1e-4  # sufficient-decrease constant of the backtracking
MAX_BACKTRACK = 30  # step halvings before a line search gives up


@dataclass(frozen=True)
class VPConfig:
    """Variable-projection settings.

    inner_method selects the fan shift solver on the tilted sinogram, 2dr or
    fp_k; max_outer caps the steps; tol_eta is the Newton step (radians)
    below which the descent stops as converged; K and max_iter are the fp_k
    start count and per-run update cap.  inner, the FanAlignConfig of the
    inner solve, is derived from these and checks K and max_iter.  The
    descent starts at the nominal mounting, eta = 0.  The stencil step, the
    fallback step and the Armijo constant are DELTA_ETA, GAMMA0 and ARMIJO_C.
    """

    inner_method: str = "2dr"
    max_outer: int = 20
    tol_eta: float = 1e-4
    K: int = 10
    max_iter: int = 20

    def __post_init__(self):
        if self.inner_method not in INNER_METHODS:
            raise ValueError(f"inner_method must be one of {INNER_METHODS}")
        self.inner  # FanAlignConfig checks K and max_iter
        count_at_least("max_outer", self.max_outer)
        positive_finite("tol_eta", self.tol_eta)

    @property
    def inner(self):
        """The FanAlignConfig of the inner solve: method inner_method in upper case."""
        return FanAlignConfig(self.inner_method.upper(), self.K, self.max_iter)


def lambda_eta(stack, h, eta):
    """Stack resampled along the axis tilted by eta about (h, 0), h in pixels:
    the Sinogram of the central fan geometry holding
    g(h + (q - h)cos(eta), -(q - h)sin(eta), b) on the (q_i, b_j) grid.
    At the true (h, eta) this is the mid-plane fan sinogram.
    """
    geom = stack.geometry
    h_u = h * geom.pixel_size
    cose, sine = math.cos(eta), math.sin(eta)
    q = geom.u_axis()
    pivot = h_u * (1.0 - cose)  # written so that eta = 0 reads q exactly
    return Sinogram(geom.central_fan(), sample_detector(stack, q * cose + pivot, (h_u - q) * sine, None), _fresh=True)


def pi_h_eta(stack, h, eta):
    """Symmetry-reflected resampling at candidate shift h (pixels) along the
    axis tilted by eta about (h, 0): the fan reflection at h of
    lam = lambda_eta(stack, h, eta), the (q_i, b_j) grid array of
    lam(2h - q, b + pi + 2*atan((q - h)/r)).
    """
    return reflected_resampling(lambda_eta(stack, h, eta), h)


def loss_L(stack, h, eta):
    """|lam - Pi_h lam|^2 for lam = lambda_eta(stack, h, eta), the sum of squared differences of the two
    tilted resamplings at (h, eta).  It is summed block by block; the reflection is never built whole."""
    lam = lambda_eta(stack, h, eta)
    return reflect(lam, h, against=lam.values)[0]


def inner_h(stack, eta, cfg=VPConfig(), lam=None):
    """(h, iterations, reason) at fixed eta, h the shift (pixels) minimizing the tilted-pair mismatch: the
    fan shift solve fan_align._ESTIMATORS holds for cfg.inner's method, run on the read pivoted at 0, which
    is free of h: lam = lambda_eta(stack, 0.0, eta), read here if not given."""
    inner = cfg.inner
    return _ESTIMATORS[inner.method](lambda_eta(stack, 0.0, eta) if lam is None else lam, inner)


def _solve(stack, eta, cfg):
    """(h, loss, norm, lam, reason) at eta: the inner solve's h and reason, its read lam pivoted at (h, 0)
    and the sums (loss, |lam|^2) of lam's one reflect.  At eta = 0 the pivot and v are 0 whatever h is:
    lam is the inner solve's h-free read, bit for bit, and is not read again."""
    lam = lambda_eta(stack, 0.0, eta)
    h, _, reason = inner_h(stack, eta, cfg, lam)
    if eta != 0.0:
        lam = lambda_eta(stack, h, eta)
    return h, *reflect(lam, h, against=lam.values), lam, reason


def _stencil(stack, h, eta, l0):
    """(gradient, curvature) in eta of the reduced loss at h, the inner solve
    at eta, and l0 = L(h, eta): the central differences of l0 and loss_L at
    h, eta -+ DELTA_ETA (the envelope result), also at the search-domain
    edge, where the stencil reads just past it."""
    lo, hi = loss_L(stack, h, eta - DELTA_ETA), loss_L(stack, h, eta + DELTA_ETA)
    return (hi - lo) / (2.0 * DELTA_ETA), (hi - 2.0 * l0 + lo) / (DELTA_ETA * DELTA_ETA)


def variable_projection(stack, cfg=VPConfig()):
    """Joint (h, eta) estimate: safeguarded Newton descent on the reduced loss.

    The loop carries its accepted point (h, eta, loss, |lam|^2, lam) and its inner solve's reason,
    starting at eta = 0.  The inner shift is solved there and at each new trial angle, and held at
    the centre's value across the stencil, which is read once per accepted angle.  Each outer
    iteration takes the Newton step g/c, or GAMMA0 times g where c is not positive; the step is
    halved until the Armijo sufficient-decrease test (constant ARMIJO_C) passes.  Trials are clamped
    to [-ETA_BOUND, ETA_BOUND]; one that the clamp puts on the angle in hand (the carried point's or
    the last rejected trial's) reuses that solve.  Each stop returns the last accepted point and its
    reason: the Newton stop, once c > 0 and the step is below tol_eta, "" or "inner solve: " and the
    accepted point's inner reason; backtracking exhaustion "line search exhausted"; the cap "max_outer <n> reached".

    The result's mse is the fan symmetry MSE of lam, the mid-plane fan sinogram at the estimate:
    the accepted loss over |lam|^2, from the one reflect of lam (symmetry_mse raises if lam is all zero).
    """
    eta = 0.0
    h, current, norm, lam, inner_reason = _solve(stack, eta, cfg)
    trace = [(0, h, eta, current)]
    reason = f"max_outer {cfg.max_outer} reached"
    moved = True
    for k in range(1, cfg.max_outer + 1):
        if moved:
            grad, curv = _stencil(stack, h, eta, current)
        step = grad / curv if curv > 0.0 else GAMMA0 * grad
        if curv > 0.0 and abs(step) < cfg.tol_eta:
            reason = "inner solve: " + inner_reason if inner_reason else ""
            break
        at, trial = eta, (h, current, norm, lam, inner_reason)
        for _ in range(MAX_BACKTRACK):
            eta_new = min(max(eta - step, -ETA_BOUND), ETA_BOUND)
            if eta_new != at:
                at, trial = eta_new, _solve(stack, eta_new, cfg)
            if trial[1] <= current - ARMIJO_C * step * grad:
                break
            step *= 0.5
        else:
            reason = "line search exhausted"
            break
        moved = eta_new != eta
        eta, (h, current, norm, lam, inner_reason) = eta_new, trial
        trace.append((k, h, eta, current))
    return AlignmentResult(
        h=float(h),
        eta=float(eta),
        mse=current / norm if norm else symmetry_mse(lam, h),
        iterations=len(trace) - 1,
        method="VP-" + cfg.inner.method,
        trace=tuple(trace),
        reason=reason,
    )
