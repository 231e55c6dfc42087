"""File formats and run configuration.

Data files carry an ASCII `key: value` header describing a fan sinogram or a
cone projection stack, followed by a raw little-endian float32 payload,
either in the same file after a blank line (single-file mode) or in a
sibling file named by a `payload` header key (sidecar mode).  Headers are
greppable text; all in-memory computation is double precision, float32 is
only the storage type.  A file that is not valid data raises FormatError.

Each `key: value` format is one table of keys and parsers, its lines read by
one reader, _parse_header: KINDS holds the geometry header keys of each data
kind, FIXED_HEADER the values every data header carries, TRUTH_KEYS the
ground-truth sidecar, and RUN_OPTIONS every option of the command line and
its config files.
"""

import argparse
import math
from collections import namedtuple

import numpy as np
from pathlib import Path

from .core import FAN_METHODS, INNER_METHODS, ConeGeometry, FanGeometry, ProjectionStack, Sinogram

FORMAT_VERSION = 1


class FormatError(Exception):
    """A data file or .truth sidecar that does not hold valid data (CLI exit code 3); the message names why."""


class ConfigError(argparse.ArgumentTypeError):
    """Invalid run configuration or CLI usage (exit code 4); argparse reports
    one raised by a flag's parser under the flag's name."""


def format_value(value):
    """Text of a value in a `key: value` line: floats as the shortest text
    that round-trips exactly, booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_lines(pairs):
    return "".join(f"{key}: {format_value(value)}\n" for key, value in pairs)


def positive_float(text):
    """float(text), which must be positive and finite (else ValueError)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{text!r} is not positive and finite")
    return value


def nonnegative_int(text):
    """int(text), which must not be negative (else ValueError)."""
    if (value := int(text)) < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def grid_size(text):
    """int(text), which must be at least 2, the fewest samples of an axis (else ValueError)."""
    if (value := int(text)) < 2:
        raise ValueError(f"{text!r} is less than 2")
    return value


# each data kind: its geometry, its container, and the geometry's header keys
# in file order with their parsers; the keys are the geometry's field names
KINDS = {
    "fan": (FanGeometry, Sinogram, {"n_s": int, "n_beta": int, "s_max": float, "source_radius": float}),
    "cone": (
        ConeGeometry,
        ProjectionStack,
        {"n_u": int, "n_v": int, "n_beta": int, "u_max": float, "v_max": float, "source_radius": float},
    ),
}


# the header values every data file carries: written as they are, checked on read
FIXED_HEADER = {"value_dtype": "float32", "byte_order": "little-endian", "layout": "row-major view-outermost"}


def _kind(obj):
    return "fan" if isinstance(obj, (Sinogram, FanGeometry)) else "cone"


def geometry_fields(geom):
    """(key, value) pairs of the geometry's header keys, in file order."""
    return [(key, parse(getattr(geom, key))) for key, parse in KINDS[_kind(geom)][2].items()]


def write_sinogram(path, obj, sidecar=False, pixel_size_mm=None):
    """Write a Sinogram or ProjectionStack.

    sidecar=False puts header and payload in one file separated by a blank
    line; sidecar=True writes the header to `path` and the raw payload to
    `path + '.raw'`, recording the payload file name in the header.  A
    pixel_size_mm that is not positive and finite, a non-ASCII sidecar payload
    name or a value beyond float32 is a ValueError, raised before any write.
    """
    path = Path(path)
    pairs = [("format_version", FORMAT_VERSION), ("kind", _kind(obj)), *geometry_fields(obj.geometry)]
    if pixel_size_mm is not None:
        pairs.append(("pixel_size_mm", positive_float(pixel_size_mm)))
    pairs += FIXED_HEADER.items()
    payload_name = path.name + ".raw"
    if sidecar:
        if not payload_name.isascii():
            raise ValueError(f"sidecar payload name {payload_name!r} is not ASCII")
        pairs.append(("payload", payload_name))
    header = format_lines(pairs).encode("ascii")
    with np.errstate(over="ignore"):  # an overflow casts to Inf, rejected below
        values = np.ascontiguousarray(obj.values, dtype="<f4")
    if not np.all(np.isfinite(values)):
        raise ValueError("values overflow the float32 payload")
    payload = values.tobytes()
    if sidecar:
        path.write_bytes(header)
        (path.parent / payload_name).write_bytes(payload)
    else:
        path.write_bytes(header + b"\n" + payload)
    return path


def _parse_header(text, error=FormatError, noun="header"):
    """The entries of `key: value` lines, as text; blank and `#` lines are
    skipped.  A line without a colon or a repeated key raises error."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if ":" not in line:
            raise error(f"{noun} line {lineno} is not 'key: value': {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in entries:
            raise error(f"duplicate {noun} key {key!r}")
        entries[key] = value.strip()
    return entries


def decode_ascii(raw, error=FormatError, noun="header"):
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise error(f"{noun} is not ASCII text: {exc}") from None


def header_field(entries, key, parse):
    """entries[key] read by parse; FormatError if missing or unreadable."""
    if key not in entries:
        raise FormatError(f"missing header key {key!r}")
    try:
        return parse(entries[key])
    except ValueError:
        raise FormatError(f"bad value for header key {key!r}: {entries[key]!r}") from None


def read_sinogram(path, with_header=False):
    """Read a data file back into a Sinogram or ProjectionStack; with_header: (data, header entries).

    A file that is not valid data raises one FormatError, its message naming
    the failure (header, payload length, NaN or Inf); the round trip with
    write_sinogram is byte-exact.  value_dtype, byte_order and layout must hold
    their FIXED_HEADER values.  A `payload` key must name a file next to
    the header: a bare file name, not a path.
    """
    path = Path(path)
    blob = path.read_bytes()
    sep = blob.find(b"\n\n")
    if sep >= 0:
        header_bytes, payload = blob[:sep + 1], blob[sep + 2:]
    else:
        header_bytes, payload = blob, b""
    entries = _parse_header(decode_ascii(header_bytes))
    if header_field(entries, "format_version", int) != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {entries['format_version']}")
    for key, fixed in FIXED_HEADER.items():
        if (value := entries.get(key)) != fixed:
            raise FormatError(f"unsupported {key} {value!r}")
    if "payload" in entries:
        name = entries["payload"]
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise FormatError(f"payload must be a file name next to the header, got {name!r}")
        payload_path = path.parent / name
        try:
            payload = payload_path.read_bytes()
        except OSError as exc:
            raise FormatError(f"cannot read payload file {payload_path}: {exc}") from None
    kind = entries.get("kind")
    if kind not in KINDS:
        raise FormatError(f"kind must be 'fan' or 'cone', got {kind!r}")
    geometry, container, keys = KINDS[kind]
    try:
        geom = geometry(**{key: header_field(entries, key, parse) for key, parse in keys.items()})
    except ValueError as exc:
        raise FormatError(f"invalid {kind} geometry: {exc}") from None
    expected = math.prod(geom.shape) * 4
    if len(payload) != expected:
        raise FormatError(f"payload is {len(payload)} bytes, shape {geom.shape} needs {expected}")
    values = np.frombuffer(payload, dtype="<f4").reshape(geom.shape)
    if not np.all(np.isfinite(values)):
        raise FormatError("payload contains NaN or Inf")
    data = container(geom, values)  # the container holds the one float64 copy
    return (data, entries) if with_header else data


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
    return _parse_header(decode_ascii(head))


# the keys of the ground-truth sidecar written next to simulated data, in
# file order, with their parsers
TRUTH_KEYS = {
    "kind": str,
    "h_px": float,
    "eta_rad": float,
    "alpha": float,
    "seed": int,
    "features": int,
    "source_radius": float,
}


def write_truth(path, **truth):
    """Ground-truth sidecar: truth holds a value for every TRUTH_KEYS key."""
    text = format_lines((key, parse(truth[key])) for key, parse in TRUTH_KEYS.items())
    Path(path).write_text(text, encoding="ascii")


def read_truth(path):
    entries = _parse_header(decode_ascii(Path(path).read_bytes()))
    return {key: header_field(entries, key, parse) for key, parse in TRUTH_KEYS.items()}


def parse_angle(text):
    """Angle with a mandatory unit suffix: '1deg', '-0.5 deg', '0.0175rad'."""
    raw = str(text).strip()
    for suffix, scale in (("deg", math.pi / 180.0), ("rad", 1.0)):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            try:
                angle = float(number) * scale
            except ValueError:
                raise ConfigError(f"cannot parse angle value {text!r}") from None
            if not math.isfinite(angle):
                raise ConfigError(f"angle {text!r} must be finite")
            return angle
    raise ConfigError(f"angle {text!r} needs a 'deg' or 'rad' suffix")


def _choice(spellings):
    """Parser of one of the keys of spellings, to the value it spells."""

    def parse_choice(text):
        if text not in spellings:
            raise ConfigError(f"{text!r} is not one of {', '.join(spellings)}")
        return spellings[text]

    return parse_choice


parse_bool = _choice({"true": True, "false": False})


def _method(tags):
    """Case-insensitive parser of an estimator tag; 'fpk' also spells fp_k."""
    spellings = {tag.lower(): tag for tag in tags}
    choose = _choice({**spellings, "fpk": spellings["fp_k"]})
    return lambda text: choose(text.lower())


def _list(parse):
    """Parser of a comma-separated list of parse values; blank items are skipped."""

    def parse_list(text):
        return [parse(item.strip()) for item in text.split(",") if item.strip()]

    return parse_list


Option = namedtuple("Option", "parse commands help")

_ALIGN = ("align-fan", "align-cone")
_MAKE = ("simulate", "sweep")

# every run option, in config-echo order: the parser shared by its flag and
# its config-file key, the subcommands that take it as a flag, the flag help
RUN_OPTIONS = {
    "input": Option(str, (*_ALIGN, "metric"), "data file to read"),
    "output": Option(str, _MAKE, "file to write"),
    "report": Option(str, (*_ALIGN, "metric"), "also write the report to this file"),
    "seed": Option(nonnegative_int, _MAKE, "phantom seed"),
    "mode": Option(_choice({kind: kind for kind in KINDS}), ("simulate",), "fan or cone"),
    "n": Option(grid_size, _MAKE, "detector pixels = views (and rows for cone)"),
    "h": Option(float, ("simulate", "metric", "sweep"), "detector shift in effective pixels"),
    "eta": Option(parse_angle, ("simulate", "metric"), "in-plane rotation with unit suffix, e.g. 1deg (cone only)"),
    "alpha": Option(float, ("simulate",), "beam instability amplitude"),
    "features": Option(nonnegative_int, _MAKE, "number of random voids in the phantom"),
    "sidecar": Option(parse_bool, ("simulate",), "write the payload to a sibling .raw file"),
    "source_radius": Option(float, _MAKE, "source circle radius; the object fits in the unit disk"),
    "pixel_size_mm": Option(positive_float, ("simulate",), "detector pixel size recorded in the header"),
    "method": Option(_method(FAN_METHODS), ("align-fan",), "estimator: yang, ly, 2dr, fp or fpk (default 2dr)"),
    "inner_method": Option(_method(INNER_METHODS), ("align-cone",), "inner shift solver: 2dr or fpk"),
    "max_outer": Option(int, ("align-cone",), "outer iteration cap"),
    "tol_eta": Option(parse_angle, ("align-cone",), "Newton step in eta below which VP stops, with unit suffix"),
    "K": Option(int, _ALIGN, "FP_K start count"),
    "max_iter": Option(int, _ALIGN, "fixed-point iteration cap"),
    "alphas": Option(_list(float), ("sweep",), "comma-separated instability amplitudes"),
    "methods": Option(_list(_method(FAN_METHODS)), ("sweep",), "comma-separated estimator names"),
}


class RunConfig(dict):
    """Validated `key: value` run configuration; unknown and repeated keys are rejected."""

    @classmethod
    def parse(cls, text):
        entries = cls()
        for key, value in _parse_header(text, ConfigError, "config").items():
            if key not in RUN_OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                entries[key] = RUN_OPTIONS[key].parse(value)
            except (TypeError, ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for config key {key!r}: {exc}") from None
        return entries
