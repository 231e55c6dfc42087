"""Command-line surface: simulate data, run estimators, evaluate metrics,
emit plot-ready sweep tables.

Subcommands: simulate, align-fan, align-cone, metric, sweep; a call declares
only the subcommand it runs.  Every option is declared once, in
io_cli.RUN_OPTIONS, and can come from a flag or from a `key: value` config
file (--config); explicit flags win over the file, the file wins over
built-in defaults.  Angles need an explicit unit suffix (`10deg`,
`0.02rad`); internally everything is radians.  Exit codes: 0 success, 2
estimator non-convergence (the report's reason line says which stop fired)
or failure, 3 I/O or file-format error, 4 invalid configuration.
"""

import argparse
import math
import re
import sys
import time
from dataclasses import fields
from functools import partial

from pathlib import Path

from .cone_align import VPConfig, lambda_eta, variable_projection
from .core import FAN_METHODS, ConeGeometry, FanGeometry, ProjectionStack, Sinogram, unit_disk_half_width
from .fan_align import FanAlignConfig, align_fan, symmetry_mse
from .io_cli import (
    RUN_OPTIONS,
    ConfigError,
    FormatError,
    RunConfig,
    decode_ascii,
    format_lines,
    format_value,
    geometry_fields,
    header_field,
    parse_angle,
    parse_bool,
    positive_float,
    read_sinogram,
    write_sinogram,
    write_truth,
)
from .registration import AmbiguousShiftError
from .simulate import InstabilityModel, cone_project, fan_project, make_disk_phantom, make_sphere_phantom

# flags not spelled --<key with dashes>
_FLAGS = {"K": "--k", "output": "--out"}
# the FanAlignConfig settings each fan shift solver reads besides its method
_READS = {"FP": {"max_iter"}, "FP_K": {"K", "max_iter"}}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 4)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -1e-3 or -1deg for a flag; no ctalign flag starts with -<digit> or -.<digit>
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ConfigError(message)


def _options(args):
    """The run options: the config file's entries, then the flags that were set."""
    options = RunConfig()
    if args.config is not None:
        options = RunConfig.parse(decode_ascii(Path(args.config).read_bytes(), ConfigError, "config file"))
        for key in options:
            if args.subcommand not in RUN_OPTIONS[key].commands:
                raise ConfigError(f"config key {key!r} does not apply to {args.subcommand}")
    options.update((key, getattr(args, key)) for key in RUN_OPTIONS if getattr(args, key, None) is not None)
    return options


def _config(cls, options):
    """cls from the options named like its fields; cls supplies every default."""
    return cls(**{f.name: options[f.name] for f in fields(cls) if f.name in options})


def _config_echo(command, config):
    """cfg_<key> pairs of the options of command that config holds, in table order, K and
    max_iter only if its fan shift solver (its own or, for VP, inner's) reads them; angles in radians."""
    unread = {"K", "max_iter"} - _READS.get(getattr(config, "inner", config).method, set())
    return [
        (f"cfg_{key}_rad" if option.parse is parse_angle else f"cfg_{key}", getattr(config, key))
        for key, option in RUN_OPTIONS.items()
        if command in option.commands and key not in unread and hasattr(config, key)
    ]


def _emit_report(pairs, report_path):
    text = format_lines(pairs)
    sys.stdout.write(text)
    if report_path is not None:
        Path(report_path).write_text(text, encoding="utf-8")


def _scene(options, mode):
    """(phantom, geometry) of a run: the seeded phantom of mode fan or cone and its n-sample, n-view geometry,
    whose detector, n - 1 px wide, just covers the unit disk; the projectors reject an |h| that wide."""
    n, seed, source_radius = options.get("n", 256), options.get("seed", 0), options.get("source_radius", 2.0)
    counts = [options["features"]] if "features" in options else []  # the builders hold the default counts
    width = unit_disk_half_width(source_radius)
    if mode == "fan":
        return make_disk_phantom(seed, *counts), FanGeometry(source_radius, n, width, n)
    return make_sphere_phantom(seed, *counts), ConeGeometry(source_radius, n, n, width, width, n)


def cmd_simulate(options):
    mode = options.get("mode")
    if mode is None:
        raise ConfigError("simulate needs --mode fan or --mode cone")
    n, h, seed = options.get("n", 256), options.get("h", 0.0), options.get("seed", 0)
    eta = options.get("eta", 0.0)
    alpha = options.get("alpha", 0.0)
    out = options.get("output", f"{mode}_n{n}_seed{seed}.sino")
    instability = InstabilityModel(alpha)
    if mode == "fan" and eta != 0.0:
        raise ConfigError("--eta applies to cone simulations only")
    phantom, geom = _scene(options, mode)
    project = fan_project if mode == "fan" else partial(cone_project, eta=eta)
    data = project(phantom, geom, h=h, instability=instability)
    write_sinogram(out, data, sidecar=options.get("sidecar", False), pixel_size_mm=options.get("pixel_size_mm"))
    truth = str(out) + ".truth"
    write_truth(
        truth,
        kind=mode,
        h_px=h,
        eta_rad=eta,
        alpha=alpha,
        seed=seed,
        features=sum(density < 0.0 for _, _, density in phantom.spheres),
        source_radius=geom.source_radius,
    )
    print(f"wrote: {out}")
    print(f"wrote: {truth}")
    return 0


def cmd_align(command, options):
    input_path = options.get("input")
    if input_path is None:
        raise ConfigError("an input file is required (--input)")
    data, meta = read_sinogram(input_path, with_header=True)
    pixel_size_mm = header_field(meta, "pixel_size_mm", positive_float) if "pixel_size_mm" in meta else None
    # each command's container, config type, estimator (looked up per call) and wrong-kind message
    container, config_type, estimator, wrong_kind = {
        "align-fan": (Sinogram, FanAlignConfig, align_fan, "fan data; this file holds a cone stack"),
        "align-cone": (ProjectionStack, VPConfig, variable_projection, "cone data; this file holds a fan sinogram"),
    }[command]
    if not isinstance(data, container):
        raise ConfigError(f"{command} needs {wrong_kind}")
    config = _config(config_type, options)
    start = time.perf_counter()
    result = estimator(data, config)
    seconds = time.perf_counter() - start

    pairs = [("command", command), ("input", str(input_path)), ("method", result.method), ("h_px", result.h)]
    if pixel_size_mm is not None:
        pairs.append(("h_mm", result.h * pixel_size_mm))
    pairs += [
        ("eta_deg", math.degrees(result.eta)),
        ("eta_rad", result.eta),
        ("iterations", result.iterations),
        ("mse", result.mse),
        ("converged", result.converged),
    ]
    if result.reason:
        pairs.append(("reason", result.reason))
    pairs.append(("seconds", float(f"{seconds:.3f}")))
    pairs += geometry_fields(data.geometry)
    pairs += _config_echo(command, config)
    _emit_report(pairs, options.get("report"))
    return 0 if result.converged else 2


def cmd_metric(options):
    input_path = options.get("input")
    if input_path is None:
        raise ConfigError("an input file is required (--input)")
    h = options.get("h", 0.0)
    if not math.isfinite(h):
        raise ConfigError("h must be finite")
    eta = options.get("eta", 0.0)
    data = read_sinogram(input_path)
    if isinstance(data, Sinogram):
        if eta != 0.0:
            raise ConfigError("--eta applies to cone data only")
        fan = data
    else:
        fan = lambda_eta(data, h, eta)  # the mid-plane pivoted at h, as in the mse variable_projection reports
    mse = symmetry_mse(fan, h)
    pairs = [("command", "metric"), ("input", str(input_path)), ("h_px", h), ("eta_rad", eta), ("mse", mse)]
    _emit_report(pairs, options.get("report"))
    return 0


def cmd_sweep(options):
    h = options.get("h", 10.0)
    alphas = options.get("alphas", [0.0, 0.002, 0.004, 0.006, 0.008, 0.01])
    methods = options.get("methods", FAN_METHODS)
    if not alphas or not methods:
        raise ConfigError("sweep needs at least one alpha and one method")
    instabilities = [InstabilityModel(alpha) for alpha in alphas]
    configs = [FanAlignConfig(method=method) for method in methods]
    phantom, geom = _scene(options, "fan")
    lines = ["alpha,method,abs_error_px,seconds"]
    for instability in instabilities:
        sino = fan_project(phantom, geom, h=h, instability=instability)
        for config in configs:
            start = time.perf_counter()
            result = align_fan(sino, config)
            seconds = time.perf_counter() - start
            error = format_value(abs(result.h - h))
            lines.append(f"{format_value(instability.alpha)},{result.method},{error},{seconds:.3f}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out = options.get("output")
    if out is not None:
        Path(out).write_text(text, encoding="ascii")
        print(f"wrote: {out}")
    return 0


# subcommand: (function of the run options, help)
_COMMANDS = {
    "simulate": (cmd_simulate, "generate misaligned data plus a ground-truth sidecar"),
    "align-fan": (partial(cmd_align, "align-fan"), "estimate the shift of a fan data file"),
    "align-cone": (partial(cmd_align, "align-cone"), "estimate shift and rotation of a cone data file"),
    "metric": (cmd_metric, "symmetry MSE of a data file at a candidate (h, eta)"),
    "sweep": (cmd_sweep, "error table over an instability grid, CSV output"),
}


def build_parser(command=None):
    """The ctalign parser, declaring only the subcommand command if it names one, else all five."""
    parser = _Parser(prog="ctalign", description="Fan/cone-beam detector misalignment estimation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command in [command] if command in _COMMANDS else _COMMANDS:
        func, about = _COMMANDS[command]
        p = sub.add_parser(command, help=about)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key: value config file; flags override it")
        for key, option in RUN_OPTIONS.items():
            if command in option.commands:
                flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
                if option.parse is parse_bool:  # a flag without a value that sets its option
                    p.add_argument(flag, dest=key, help=option.help, action="store_const", const=True)
                else:
                    p.add_argument(flag, dest=key, help=option.help, type=option.parse)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(_options(args))
    except AmbiguousShiftError as exc:  # a ValueError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        # invariant violations from validated types are configuration problems
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
