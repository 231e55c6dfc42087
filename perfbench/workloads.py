"""The benchmark's workloads: inputs built in set-up and a fixed list of calls.

A workload function builds its inputs (phantoms, projections, input files)
and returns the list of Calls one pass runs.  The inputs are the same for
every --seed: the trust numbers of a run then compare with any other run,
and a later change can diff its estimates against this one's.  The seed
orders the calls of each pass.

Calls reach the package through module attributes (`fan_align.align_fan`,
not a copied binding), so the traced run's wrappers see them.
"""

import contextlib
import io
import math
from dataclasses import dataclass
from functools import partial

from ctalign import cli, cone_align, fan_align, io_cli, simulate
from ctalign.cone_align import VPConfig
from ctalign.core import ConeGeometry, FanGeometry, unit_disk_half_width
from ctalign.fan_align import FanAlignConfig
from ctalign.simulate import InstabilityModel

from .metrics import Outcome

SOURCE_RADIUS = 2.0
FAN_TIMERS = {"Yang": "yang_s", "LY": "ly_s", "2DR": "2dr_s", "FP": "fp_s", "FP_K": "fpk_s"}
CLI_METHODS = {"yang": "Yang", "ly": "LY", "2dr": "2DR", "fp": "FP", "fpk": "FP_K"}


@dataclass(frozen=True)
class Call:
    """One entry of a pass.

    invoke() is the timed part and returns what the entry point returned;
    read() turns that into an Outcome.  method is the estimator tag, or
    "metric" for a call that estimates nothing; timer names the end-to-end
    timing the call feeds.  reference(), when set, computes the same Outcome
    through the library, to check the CLI's output against.
    """

    label: str
    method: str
    timer: str
    invoke: object
    read: object
    h_true: float | None = None
    eta_true: float = 0.0
    reference: object = None


def _fan_geometry(n):
    return FanGeometry(SOURCE_RADIUS, n, unit_disk_half_width(SOURCE_RADIUS), n)


def _result_outcome(result):
    return Outcome(h=result.h, eta=result.eta, converged=result.converged)


def _align_fan(sino, cfg):
    return fan_align.align_fan(sino, cfg)


def _variable_projection(stack, cfg):
    return cone_align.variable_projection(stack, cfg)


def fan_1024(workdir):
    """Fan scans of 1024 pixels x 1024 views, h = 10*N/256 px, no
    instability, three phantoms, all five methods per scan."""
    n = 1024
    h = 10.0 * n / 256
    geom = _fan_geometry(n)
    calls = []
    for seed in (1, 2, 3):
        sino = simulate.fan_project(simulate.make_disk_phantom(seed), geom, h=h)
        for method, timer in FAN_TIMERS.items():
            cfg = FanAlignConfig(method=method)
            calls.append(
                Call(f"{method} phantom {seed}", method, timer, partial(_align_fan, sino, cfg), _result_outcome, h)
            )
    return calls


def cone_128(workdir):
    """128^3 cone stacks, h = 10 px, eta = 1 deg, sphere phantoms 1-3, both
    inner solvers.  Phantom 2 ends `converged: false` at the parent commit
    and stays in."""
    n = 128
    h = 10.0
    eta = math.radians(1.0)
    width = unit_disk_half_width(SOURCE_RADIUS)
    geom = ConeGeometry(SOURCE_RADIUS, n, n, width, width, n)
    calls = []
    for seed in (1, 2, 3):
        stack = simulate.cone_project(simulate.make_sphere_phantom(seed), geom, h=h, eta=eta)
        for inner, method, timer in (("2dr", "VP-2DR", "vp_2dr_s"), ("fp_k", "VP-FP_K", "vp_fpk_s")):
            cfg = VPConfig(inner_method=inner)
            calls.append(
                Call(
                    f"{method} spheres {seed}",
                    method,
                    timer,
                    partial(_variable_projection, stack, cfg),
                    _result_outcome,
                    h,
                    eta,
                )
            )
    return calls


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_outcome(raw):
    """Outcome of a `key: value` report; exit 3/4 is a failure, exit 2 an
    unconverged (or ambiguous, report-less) estimate."""
    code, text = raw
    if code not in (0, 2):
        return Outcome(failure=f"exit {code}")
    report = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    if report.get("command") == "metric":
        return Outcome(mse=float(report["mse"]))
    if "h_px" not in report:
        return Outcome(converged=False)
    return Outcome(h=float(report["h_px"]), eta=float(report["eta_rad"]), converged=report["converged"] == "true")


def _library_align(path, method):
    return _result_outcome(fan_align.align_fan(io_cli.read_sinogram(path), FanAlignConfig(method=method)))


def _library_metric(path, h):
    return Outcome(mse=fan_align.symmetry_mse(io_cli.read_sinogram(path), h))


def cli_256(workdir):
    """.sino files of 256 pixels x 256 views at instability alpha in
    {0, 0.004, 0.01}, h = 10 px, each run through the in-process CLI with
    align-fan for all five methods and with metric at the true h."""
    n = 256
    h = 10.0
    geom = _fan_geometry(n)
    phantom = simulate.make_disk_phantom(1)
    calls = []
    for alpha in (0.0, 0.004, 0.01):
        instability = InstabilityModel(alpha) if alpha > 0.0 else None
        sino = simulate.fan_project(phantom, geom, h=h, instability=instability)
        path = workdir / f"alpha{alpha}.sino"
        io_cli.write_sinogram(path, sino)
        for flag, method in CLI_METHODS.items():
            argv = ["align-fan", "--input", str(path), "--method", flag]
            calls.append(
                Call(
                    f"align-fan {flag} alpha {alpha}",
                    method,
                    "cli_s",
                    partial(_cli, argv),
                    _cli_outcome,
                    h,
                    reference=partial(_library_align, path, method),
                )
            )
        argv = ["metric", "--input", str(path), "--h", repr(h)]
        calls.append(
            Call(
                f"metric alpha {alpha}",
                "metric",
                "cli_s",
                partial(_cli, argv),
                _cli_outcome,
                reference=partial(_library_metric, path, h),
            )
        )
    return calls


WORKLOADS = {"fan-1024": fan_1024, "cone-128": cone_128, "cli-256": cli_256}
