"""File formats and run configuration.

Data files carry an ASCII `key: value` header describing a fan sinogram or a
cone projection stack, followed by a raw little-endian float32 payload,
either in the same file after a blank line (single-file mode) or in a
sibling file named by a `payload` header key (sidecar mode).  Headers are
greppable text; all in-memory computation is double precision, float32 is
only the storage type.
"""

import math

import numpy as np
from pathlib import Path

from .core import ConeGeometry, FanGeometry, ProjectionStack, Sinogram

FORMAT_VERSION = 1


class FormatError(Exception):
    """Base for data-file problems (CLI exit code 3)."""


class HeaderFormatError(FormatError):
    """Missing, unparseable, or invariant-violating header fields."""


class UnknownDtypeError(FormatError):
    """value_dtype other than float32."""


class ShapeMismatchError(FormatError):
    """Payload byte length disagrees with the declared shape."""


class PayloadValueError(FormatError):
    """Payload contains NaN or Inf."""


class ConfigError(Exception):
    """Invalid run configuration or CLI usage (exit code 4)."""


def _format_number(x):
    """Shortest text that round-trips the float exactly."""
    return repr(float(x))


def _header_lines(obj, pixel_size_mm=None, payload_name=None):
    geom = obj.geometry
    lines = [("format_version", str(FORMAT_VERSION))]
    if isinstance(obj, Sinogram):
        lines += [
            ("kind", "fan"),
            ("n_s", str(geom.n_s)),
            ("n_beta", str(geom.n_beta)),
            ("s_max", _format_number(geom.s_max)),
            ("source_radius", _format_number(geom.source_radius)),
        ]
    else:
        lines += [
            ("kind", "cone"),
            ("n_u", str(geom.n_u)),
            ("n_v", str(geom.n_v)),
            ("n_beta", str(geom.n_beta)),
            ("u_max", _format_number(geom.u_max)),
            ("v_max", _format_number(geom.v_max)),
            ("source_radius", _format_number(geom.source_radius)),
        ]
    if pixel_size_mm is not None:
        lines.append(("pixel_size_mm", _format_number(pixel_size_mm)))
    lines += [
        ("value_dtype", "float32"),
        ("byte_order", "little-endian"),
        ("layout", "row-major view-outermost"),
    ]
    if payload_name is not None:
        lines.append(("payload", payload_name))
    return "".join(f"{k}: {v}\n" for k, v in lines)


def write_sinogram(path, obj, sidecar=False, pixel_size_mm=None):
    """Write a Sinogram or ProjectionStack.

    sidecar=False puts header and payload in one file separated by a blank
    line; sidecar=True writes the header to `path` and the raw payload to
    `path + '.raw'`, recording the payload file name in the header.
    """
    path = Path(path)
    payload = np.ascontiguousarray(obj.values, dtype="<f4").tobytes()
    if sidecar:
        payload_name = path.name + ".raw"
        header = _header_lines(obj, pixel_size_mm, payload_name)
        path.write_text(header, encoding="ascii")
        (path.parent / payload_name).write_bytes(payload)
    else:
        header = _header_lines(obj, pixel_size_mm)
        path.write_bytes(header.encode("ascii") + b"\n" + payload)
    return path


def _parse_header(text):
    entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if ":" not in line:
            raise HeaderFormatError(f"header line {lineno} is not 'key: value': {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in entries:
            raise HeaderFormatError(f"duplicate header key {key!r}")
        entries[key] = value.strip()
    return entries


def _decode_header(header_bytes):
    try:
        return header_bytes.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderFormatError(f"header is not ASCII text: {exc}") from None


def _header_int(entries, key):
    try:
        return int(entries[key])
    except KeyError:
        raise HeaderFormatError(f"missing header key {key!r}") from None
    except ValueError:
        raise HeaderFormatError(f"header key {key!r} is not an integer: {entries[key]!r}") from None


def _header_float(entries, key):
    try:
        value = float(entries[key])
    except KeyError:
        raise HeaderFormatError(f"missing header key {key!r}") from None
    except ValueError:
        raise HeaderFormatError(f"header key {key!r} is not a number: {entries[key]!r}") from None
    if not math.isfinite(value):
        raise HeaderFormatError(f"header key {key!r} must be finite")
    return value


def read_sinogram(path):
    """Read a data file back into a Sinogram or ProjectionStack.

    Raises HeaderFormatError / UnknownDtypeError / ShapeMismatchError /
    PayloadValueError for the distinct failure modes; the round trip with
    write_sinogram is byte-exact.
    """
    path = Path(path)
    blob = path.read_bytes()
    sep = blob.find(b"\n\n")
    if sep >= 0:
        header_bytes, payload = blob[:sep + 1], blob[sep + 2:]
    else:
        header_bytes, payload = blob, b""
    entries = _parse_header(_decode_header(header_bytes))
    if _header_int(entries, "format_version") != FORMAT_VERSION:
        raise HeaderFormatError(f"unsupported format_version {entries['format_version']}")
    dtype = entries.get("value_dtype", "")
    if dtype != "float32":
        raise UnknownDtypeError(f"unsupported value_dtype {dtype!r}")
    if entries.get("byte_order", "") != "little-endian":
        raise HeaderFormatError(f"unsupported byte_order {entries.get('byte_order')!r}")
    if "payload" in entries:
        payload_path = path.parent / entries["payload"]
        try:
            payload = payload_path.read_bytes()
        except OSError as exc:
            raise ShapeMismatchError(f"cannot read payload file {payload_path}: {exc}") from None
    kind = entries.get("kind")
    if kind == "fan":
        shape = (_header_int(entries, "n_beta"), _header_int(entries, "n_s"))
        try:
            geom = FanGeometry(
                source_radius=_header_float(entries, "source_radius"),
                n_s=shape[1],
                s_max=_header_float(entries, "s_max"),
                n_beta=shape[0],
            )
        except ValueError as exc:
            raise HeaderFormatError(f"invalid fan geometry: {exc}") from None
    elif kind == "cone":
        shape = (_header_int(entries, "n_beta"), _header_int(entries, "n_v"), _header_int(entries, "n_u"))
        try:
            geom = ConeGeometry(
                source_radius=_header_float(entries, "source_radius"),
                n_u=shape[2],
                n_v=shape[1],
                u_max=_header_float(entries, "u_max"),
                v_max=_header_float(entries, "v_max"),
                n_beta=shape[0],
            )
        except ValueError as exc:
            raise HeaderFormatError(f"invalid cone geometry: {exc}") from None
    else:
        raise HeaderFormatError(f"kind must be 'fan' or 'cone', got {kind!r}")
    expected = int(np.prod(shape)) * 4
    if len(payload) != expected:
        raise ShapeMismatchError(f"payload is {len(payload)} bytes, shape {shape} needs {expected}")
    values = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(float)
    if not np.all(np.isfinite(values)):
        raise PayloadValueError("payload contains NaN or Inf")
    if kind == "fan":
        return Sinogram(geom, values)
    return ProjectionStack(geom, values)


def header_metadata(path):
    """Parsed header entries of a data file, without loading the payload:
    the file is read up to the blank line that ends the header."""
    head = bytearray()
    with open(path, "rb") as f:
        while chunk := f.read(4096):
            start = max(len(head) - 1, 0)  # a separator may straddle two chunks
            head += chunk
            sep = head.find(b"\n\n", start)
            if sep >= 0:
                del head[sep + 1 :]
                break
    return _parse_header(_decode_header(head))


def write_truth(path, kind, h_px, eta_rad, alpha, seed, features, source_radius):
    """Ground-truth sidecar written next to simulated data."""
    lines = [
        ("kind", kind),
        ("h_px", _format_number(h_px)),
        ("eta_rad", _format_number(eta_rad)),
        ("alpha", _format_number(alpha)),
        ("seed", str(int(seed))),
        ("features", str(int(features))),
        ("source_radius", _format_number(source_radius)),
    ]
    Path(path).write_text("".join(f"{k}: {v}\n" for k, v in lines), encoding="ascii")


def read_truth(path):
    entries = _parse_header(Path(path).read_text(encoding="ascii"))
    return {
        "kind": entries["kind"],
        "h_px": float(entries["h_px"]),
        "eta_rad": float(entries["eta_rad"]),
        "alpha": float(entries["alpha"]),
        "seed": int(entries["seed"]),
        "features": int(entries["features"]),
        "source_radius": float(entries["source_radius"]),
    }


def parse_angle(text):
    """Angle with a mandatory unit suffix: '1deg', '-0.5 deg', '0.0175rad'."""
    raw = str(text).strip()
    for suffix, scale in (("deg", math.pi / 180.0), ("rad", 1.0)):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            try:
                return float(number) * scale
            except ValueError:
                raise ConfigError(f"cannot parse angle value {text!r}") from None
    raise ConfigError(f"angle {text!r} needs a 'deg' or 'rad' suffix")


def _parse_bool(text):
    value = str(text).strip().lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


# every key a run configuration file may carry, with its parser
RUN_CONFIG_KEYS = {
    "input": str,
    "output": str,
    "report": str,
    "seed": int,
    "mode": str,
    "n": int,
    "h": float,
    "eta": parse_angle,
    "alpha": float,
    "features": int,
    "sidecar": _parse_bool,
    "source_radius": float,
    "pixel_size_mm": float,
    "method": str,
    "K": int,
    "max_iter": int,
    "tol_h": float,
    "upsample": int,
    "beta_index": int,
    "inner_method": str,
    "eta0": parse_angle,
    "delta_eta": float,
    "gamma0": float,
    "armijo_c": float,
    "max_outer": int,
    "tol_eta": float,
    "alphas": str,
    "methods": str,
}


class RunConfig:
    """Validated `key: value` run configuration; unknown keys are rejected."""

    def __init__(self, entries=None):
        self.entries = dict(entries or {})

    @classmethod
    def parse(cls, text):
        entries = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if ":" not in stripped:
                raise ConfigError(f"config line {lineno} is not 'key: value': {line!r}")
            key, value = stripped.split(":", 1)
            key = key.strip()
            if key not in RUN_CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                entries[key] = RUN_CONFIG_KEYS[key](value.strip())
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for config key {key!r}: {exc}") from None
        return cls(entries)

    @classmethod
    def from_file(cls, path):
        return cls.parse(Path(path).read_text(encoding="ascii"))

    def get(self, key, default=None):
        return self.entries.get(key, default)

    def __contains__(self, key):
        return key in self.entries
