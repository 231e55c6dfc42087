"""Command-line surface: simulate data, run estimators, evaluate metrics,
emit plot-ready sweep tables.

Subcommands: simulate, align-fan, align-cone, metric, sweep.  Options can
come from a `key: value` config file (--config); explicit flags win over the
file, the file wins over built-in defaults.  Angles on the command line need
an explicit unit suffix (`10deg`, `0.02rad`); internally everything is
radians.  Exit codes: 0 success, 2 estimator non-convergence or failure,
3 I/O or file-format error, 4 invalid configuration.
"""

import argparse
import math
import sys
import time

from pathlib import Path

from .cone_align import VPConfig, lambda_eta, variable_projection
from .core import ConeGeometry, FanGeometry, Sinogram, unit_disk_half_width
from .fan_align import FanAlignConfig, align_fan, symmetry_mse
from .io_cli import (
    ConfigError,
    FormatError,
    RunConfig,
    header_metadata,
    parse_angle,
    read_sinogram,
    write_sinogram,
    write_truth,
)
from .registration import AmbiguousShiftError
from .simulate import InstabilityModel, cone_project, fan_project, make_disk_phantom, make_sphere_phantom

# command-line spellings of the estimator tags
_FAN_METHODS = {"yang": "Yang", "ly": "LY", "2dr": "2DR", "fp": "FP", "fpk": "FP_K", "fp_k": "FP_K"}
_INNER_METHODS = {"2dr": "2dr", "fpk": "fp_k", "fp_k": "fp_k"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 4)."""

    def error(self, message):
        raise ConfigError(message)


def _load_config(args):
    if getattr(args, "config", None) is None:
        return RunConfig()
    return RunConfig.from_file(args.config)


def _resolve(args, cfg, key, default):
    """Flag > config file > default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in cfg:
        return cfg.get(key)
    return default


def _resolve_angle(args, cfg, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return parse_angle(value)
    if key in cfg:
        return cfg.get(key)  # config values are parsed to radians on load
    return default


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_report(pairs, report_path):
    text = "".join(f"{k}: {_fmt(v)}\n" for k, v in pairs)
    sys.stdout.write(text)
    if report_path is not None:
        Path(report_path).write_text(text, encoding="ascii")


def _given(args, cfg, keys):
    """{key: value} for each of keys that a flag or the config file set; the
    config dataclasses supply every default."""
    values = {key: _resolve(args, cfg, key, None) for key in keys}
    return {key: value for key, value in values.items() if value is not None}


def _fan_config(args, cfg, method_tag):
    keys = ("K", "max_iter", "tol_h", "upsample", "beta_index")
    return FanAlignConfig(method=method_tag, **_given(args, cfg, keys))


def cmd_simulate(args):
    cfg = _load_config(args)
    mode = _resolve(args, cfg, "mode", None)
    if mode not in ("fan", "cone"):
        raise ConfigError("simulate needs --mode fan or --mode cone")
    n = int(_resolve(args, cfg, "n", 256))
    h = float(_resolve(args, cfg, "h", 0.0))
    eta = _resolve_angle(args, cfg, "eta", 0.0)
    alpha = float(_resolve(args, cfg, "alpha", 0.0))
    seed = int(_resolve(args, cfg, "seed", 0))
    source_radius = float(_resolve(args, cfg, "source_radius", 2.0))
    features = _resolve(args, cfg, "features", None)
    sidecar = bool(_resolve(args, cfg, "sidecar", False))
    pixel_size_mm = _resolve(args, cfg, "pixel_size_mm", None)
    out = _resolve(args, cfg, "output", None)
    if out is None:
        out = f"{mode}_n{n}_seed{seed}.sino"
    instability = InstabilityModel(alpha) if alpha > 0.0 else None
    width = unit_disk_half_width(source_radius)
    if mode == "fan":
        if eta != 0.0:
            raise ConfigError("--eta applies to cone simulations only")
        phantom = make_disk_phantom(seed, n_disks=int(features) if features is not None else 30)
        geom = FanGeometry(source_radius, n, width, n)
        data = fan_project(phantom, geom, h=h, instability=instability)
    else:
        phantom = make_sphere_phantom(seed, n_spheres=int(features) if features is not None else 20)
        geom = ConeGeometry(source_radius, n, n, width, width, n)
        data = cone_project(phantom, geom, h=h, eta=eta, instability=instability)
    write_sinogram(out, data, sidecar=sidecar, pixel_size_mm=pixel_size_mm)
    truth = str(out) + ".truth"
    write_truth(
        truth,
        kind=mode,
        h_px=h,
        eta_rad=eta,
        alpha=alpha,
        seed=seed,
        features=len(phantom.disks) if mode == "fan" else len(phantom.spheres),
        source_radius=source_radius,
    )
    print(f"wrote: {out}")
    print(f"wrote: {truth}")
    return 0


def _geometry_echo(geom):
    if isinstance(geom, FanGeometry):
        return [
            ("n_s", geom.n_s),
            ("n_beta", geom.n_beta),
            ("s_max", float(geom.s_max)),
            ("source_radius", float(geom.source_radius)),
        ]
    return [
        ("n_u", geom.n_u),
        ("n_v", geom.n_v),
        ("n_beta", geom.n_beta),
        ("u_max", float(geom.u_max)),
        ("v_max", float(geom.v_max)),
        ("source_radius", float(geom.source_radius)),
    ]


def cmd_align(args):
    cfg = _load_config(args)
    input_path = _resolve(args, cfg, "input", None)
    if input_path is None:
        raise ConfigError("an input file is required (--input)")
    report_path = _resolve(args, cfg, "report", None)
    data = read_sinogram(input_path)
    meta = header_metadata(input_path)
    pixel_size_mm = float(meta["pixel_size_mm"]) if "pixel_size_mm" in meta else None

    if args.mode == "fan":
        if not isinstance(data, Sinogram):
            raise ConfigError("align-fan needs fan data; this file holds a cone stack")
        method_cli = str(_resolve(args, cfg, "method", "2dr")).lower()
        if method_cli not in _FAN_METHODS:
            raise ConfigError(f"unknown fan method {method_cli!r}")
        fan_cfg = _fan_config(args, cfg, _FAN_METHODS[method_cli])
        start = time.perf_counter()
        result = align_fan(data, fan_cfg)
        seconds = time.perf_counter() - start
        config_echo = [
            ("cfg_method", fan_cfg.method),
            ("cfg_K", fan_cfg.K),
            ("cfg_max_iter", fan_cfg.max_iter),
            ("cfg_tol_h", fan_cfg.tol_h),
            ("cfg_upsample", fan_cfg.upsample),
            ("cfg_beta_index", fan_cfg.beta_index),
        ]
    else:
        if isinstance(data, Sinogram):
            raise ConfigError("align-cone needs cone data; this file holds a fan sinogram")
        inner_cli = str(_resolve(args, cfg, "inner_method", "2dr")).lower()
        if inner_cli not in _INNER_METHODS:
            raise ConfigError(f"unknown inner method {inner_cli!r}")
        vp_keys = _given(args, cfg, ("delta_eta", "gamma0", "armijo_c", "max_outer", "tol_eta"))
        eta0 = _resolve_angle(args, cfg, "eta0", None)
        if eta0 is not None:
            vp_keys["eta0"] = eta0
        vp_cfg = VPConfig(inner_method=_INNER_METHODS[inner_cli], inner=_fan_config(args, cfg, "2DR"), **vp_keys)
        start = time.perf_counter()
        result = variable_projection(data, vp_cfg)
        seconds = time.perf_counter() - start
        config_echo = [
            ("cfg_inner_method", vp_cfg.inner_method),
            ("cfg_eta0_rad", vp_cfg.eta0),
            ("cfg_delta_eta", vp_cfg.delta_eta),
            ("cfg_gamma0", vp_cfg.gamma0),
            ("cfg_armijo_c", vp_cfg.armijo_c),
            ("cfg_max_outer", vp_cfg.max_outer),
            ("cfg_tol_eta", vp_cfg.tol_eta),
            ("cfg_K", vp_cfg.inner.K),
            ("cfg_max_iter", vp_cfg.inner.max_iter),
            ("cfg_tol_h", vp_cfg.inner.tol_h),
            ("cfg_upsample", vp_cfg.inner.upsample),
        ]

    pairs = [
        ("command", "align-fan" if args.mode == "fan" else "align-cone"),
        ("input", str(input_path)),
        ("method", result.method),
        ("h_px", result.h),
    ]
    if pixel_size_mm is not None:
        pairs.append(("h_mm", result.h * pixel_size_mm))
    pairs += [
        ("eta_deg", math.degrees(result.eta)),
        ("eta_rad", result.eta),
        ("iterations", result.iterations),
        ("mse", result.mse),
        ("converged", result.converged),
        ("seconds", float(f"{seconds:.3f}")),
    ]
    pairs += _geometry_echo(data.geometry)
    pairs += config_echo
    _emit_report(pairs, report_path)
    return 0 if result.converged else 2


def cmd_metric(args):
    cfg = _load_config(args)
    input_path = _resolve(args, cfg, "input", None)
    if input_path is None:
        raise ConfigError("an input file is required (--input)")
    h = float(_resolve(args, cfg, "h", 0.0))
    eta = _resolve_angle(args, cfg, "eta", 0.0)
    data = read_sinogram(input_path)
    if isinstance(data, Sinogram):
        if eta != 0.0:
            raise ConfigError("--eta applies to cone data only")
        fan = data
    else:
        fan = Sinogram(data.geometry.central_fan(), lambda_eta(data, 0.0, eta))
    mse = symmetry_mse(fan, h)
    _emit_report(
        [
            ("command", "metric"),
            ("input", str(input_path)),
            ("h_px", h),
            ("eta_rad", eta),
            ("mse", mse),
        ],
        _resolve(args, cfg, "report", None),
    )
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    n = int(_resolve(args, cfg, "n", 256))
    seed = int(_resolve(args, cfg, "seed", 0))
    h = float(_resolve(args, cfg, "h", 10.0))
    features = int(_resolve(args, cfg, "features", 30))
    source_radius = float(_resolve(args, cfg, "source_radius", 2.0))
    alphas_text = str(_resolve(args, cfg, "alphas", "0,0.002,0.004,0.006,0.008,0.01"))
    methods_text = str(_resolve(args, cfg, "methods", "yang,ly,2dr,fp,fpk"))
    out = _resolve(args, cfg, "output", None)
    try:
        alphas = [float(a) for a in alphas_text.split(",") if a.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse alpha list {alphas_text!r}") from None
    methods = []
    for name in methods_text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name not in _FAN_METHODS:
            raise ConfigError(f"unknown fan method {name!r}")
        methods.append(name)
    if not alphas or not methods:
        raise ConfigError("sweep needs at least one alpha and one method")

    phantom = make_disk_phantom(seed, n_disks=features)
    geom = FanGeometry(source_radius, n, unit_disk_half_width(source_radius), n)
    lines = ["alpha,method,abs_error_px,seconds"]
    for alpha in alphas:
        instability = InstabilityModel(alpha) if alpha > 0.0 else None
        sino = fan_project(phantom, geom, h=h, instability=instability)
        for name in methods:
            fan_cfg = _fan_config(args, cfg, _FAN_METHODS[name])
            start = time.perf_counter()
            result = align_fan(sino, fan_cfg)
            seconds = time.perf_counter() - start
            lines.append(f"{_fmt(float(alpha))},{result.method},{_fmt(abs(result.h - h))},{seconds:.3f}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not None:
        Path(out).write_text(text, encoding="ascii")
        print(f"wrote: {out}")
    return 0


def build_parser():
    parser = _Parser(prog="ctalign", description="Fan/cone-beam detector misalignment estimation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="key: value config file; flags override it")
        p.add_argument("--report", help="also write the report to this file")

    p = sub.add_parser("simulate", help="generate misaligned data plus a ground-truth sidecar")
    add_common(p)
    p.add_argument("--mode", choices=("fan", "cone"))
    p.add_argument("--n", type=int, help="detector pixels = views (and rows for cone)")
    p.add_argument("--h", type=float, help="detector shift in effective pixels")
    p.add_argument("--eta", help="in-plane rotation with unit suffix, e.g. 1deg (cone only)")
    p.add_argument("--alpha", type=float, help="beam instability amplitude")
    p.add_argument("--seed", type=int)
    p.add_argument("--features", type=int, help="number of random voids in the phantom")
    p.add_argument("--source-radius", dest="source_radius", type=float)
    p.add_argument("--pixel-size-mm", dest="pixel_size_mm", type=float)
    p.add_argument("--sidecar", action="store_true", default=None, help="write payload to a sibling .raw file")
    p.add_argument("--out", dest="output")
    p.set_defaults(func=cmd_simulate)

    for mode, name in (("fan", "align-fan"), ("cone", "align-cone")):
        p = sub.add_parser(name, help=f"estimate misalignment of a {mode} data file")
        add_common(p)
        p.add_argument("--input", required=False)
        if mode == "fan":
            p.add_argument("--method", choices=sorted(_FAN_METHODS), help="estimator (default 2dr)")
        else:
            p.add_argument(
                "--inner-method", dest="inner_method", choices=sorted(_INNER_METHODS), help="inner shift solver"
            )
            p.add_argument("--eta0", help="starting angle with unit suffix")
            p.add_argument("--delta-eta", dest="delta_eta", type=float)
            p.add_argument("--gamma0", type=float)
            p.add_argument("--armijo-c", dest="armijo_c", type=float)
            p.add_argument("--max-outer", dest="max_outer", type=int)
            p.add_argument("--tol-eta", dest="tol_eta", type=float)
        p.add_argument("--k", dest="K", type=int, help="FP_K start count")
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--tol-h", dest="tol_h", type=float)
        p.add_argument("--upsample", type=int)
        if mode == "fan":
            p.add_argument("--beta-index", dest="beta_index", type=int)
        p.set_defaults(func=cmd_align, mode=mode)

    p = sub.add_parser("metric", help="symmetry MSE of a data file at a candidate (h, eta)")
    add_common(p)
    p.add_argument("--input", required=False)
    p.add_argument("--h", type=float, help="candidate shift in effective pixels")
    p.add_argument("--eta", help="candidate rotation with unit suffix (cone only)")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("sweep", help="error table over an instability grid, CSV output")
    add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--h", type=float)
    p.add_argument("--features", type=int)
    p.add_argument("--source-radius", dest="source_radius", type=float)
    p.add_argument("--alphas", help="comma-separated instability amplitudes")
    p.add_argument("--methods", help="comma-separated estimator names")
    p.add_argument("--out", dest="output")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AmbiguousShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # invariant violations from validated types are configuration problems
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
