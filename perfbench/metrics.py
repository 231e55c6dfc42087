"""Outcomes of calls, their classification against the acceptance gate, and
the end-to-end metrics of a run."""

import math
import statistics
from dataclasses import dataclass

# acceptance-gate tolerances (tests/test_acceptance.py criteria 1 and 3)
H_TOL_PX = 0.1
H_TOL_PX_YANG = 0.15
H_TOL_PX_VP = 0.15
ETA_TOL_RAD = math.radians(0.05)

# the metrics of the result line (the last line printed) with --trace 0: (name, unit).
# Every workload reports each of them and none is ever 0, so the trust
# counts of the report appear here as the complementary fractions.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("err_max_tol", "tol"),
    ("converged_frac", "frac"),
    ("returned_frac", "frac"),
    ("honest_frac", "frac"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Outcome:
    """What one call gave: an estimate, a metric value, or a failure."""

    h: float | None = None
    eta: float | None = None
    converged: bool | None = None
    mse: float | None = None
    failure: str | None = None


def median_n(values):
    """(median, sample count) of a non-empty sequence of numbers."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def is_vp(method):
    return method.startswith("VP-")


def tolerances(method):
    """(h tolerance in px, eta tolerance in rad or None) of the gate for a method."""
    if is_vp(method):
        return H_TOL_PX_VP, ETA_TOL_RAD
    return (H_TOL_PX_YANG if method == "Yang" else H_TOL_PX), None


def classify(method, outcome, h_true, eta_true):
    """One of "failed", "unconverged", "wrong_unflagged" or "ok".

    An estimate is wrong when it reports converged but misses the gate:
    |h - h_true| > tolerance, or for VP |eta - eta_true| > 0.05 deg.  The
    comparison is the gate's own `<=`, so an error equal to the tolerance
    passes.
    """
    if outcome.failure is not None:
        return "failed"
    if not outcome.converged:
        return "unconverged"
    h_tol, eta_tol = tolerances(method)
    within = abs(outcome.h - h_true) <= h_tol
    if eta_tol is not None:
        within = within and abs(outcome.eta - eta_true) <= eta_tol
    return "ok" if within else "wrong_unflagged"


def trust(estimates):
    """Trust metrics over (method, outcome, h_true, eta_true) estimates.

    Returns {name: value}: the fractions of estimates in each class, the
    largest h and eta errors, and err_max_tol, the largest error in units of
    the method's gate tolerance.
    """
    n = len(estimates)
    classes = [classify(*e) for e in estimates]
    returned = [(m, o, h, eta) for m, o, h, eta in estimates if o.h is not None]
    h_err = [abs(o.h - h) for _, o, h, _ in returned]
    eta_err = [abs(o.eta - eta) for m, o, _, eta in returned if is_vp(m)]
    in_tol = []
    for m, o, h, eta in returned:
        h_tol, eta_tol = tolerances(m)
        in_tol.append(max(abs(o.h - h) / h_tol, abs(o.eta - eta) / eta_tol if eta_tol else 0.0))
    frac = lambda cls: classes.count(cls) / n
    return {
        "h_err_px_max": max(h_err, default=0.0),
        "eta_err_deg_max": math.degrees(max(eta_err, default=0.0)),
        "err_max_tol": max(in_tol, default=0.0),
        "unconverged_frac": frac("unconverged"),
        "failed_frac": frac("failed"),
        "wrong_unflagged_frac": frac("wrong_unflagged"),
        "converged_frac": frac("ok") + frac("wrong_unflagged"),
        "returned_frac": 1.0 - frac("failed"),
        "honest_frac": 1.0 - frac("wrong_unflagged"),
    }


def pass_seconds(times):
    """Time of one pass: the sum over calls of each call's median time.

    times maps a call to its time in each pass, in wall seconds or in
    reference-kernel times (bench.per_call_times).
    """
    return sum(statistics.median(t) for t in times.values())
