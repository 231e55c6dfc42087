"""File format round trips, config parsing, and the command-line surface
(exit codes, reports, determinism)."""

import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctalign import (
    ConeGeometry,
    FanGeometry,
    ProjectionStack,
    Sinogram,
    read_sinogram,
    symmetry_mse,
    write_sinogram,
)
from ctalign import cli, simulate
from ctalign.cli import build_parser, main
from ctalign.io_cli import (
    ConfigError,
    FormatError,
    RunConfig,
    header_metadata,
    parse_angle,
    read_truth,
    write_truth,
)
from ctalign import io_cli
from conftest import SOURCE_RADIUS


def exactly(message):
    """pytest.raises match= pattern of exactly this message."""
    return f"^{re.escape(message)}$"


def small_sino():
    geom = FanGeometry(SOURCE_RADIUS, 16, 1.0, 8)
    rng = np.random.default_rng(0)
    # float32-representable payload so the round trip is bit-exact
    values = rng.uniform(0.0, 2.0, size=(8, 16)).astype(np.float32).astype(float)
    return Sinogram(geom, values)


def small_stack():
    geom = ConeGeometry(SOURCE_RADIUS, 9, 7, 1.0, 0.8, 6)
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 2.0, size=(6, 7, 9)).astype(np.float32).astype(float)
    return ProjectionStack(geom, values)


class TestSinogramFiles:
    def test_fan_round_trip_bit_identical(self, tmp_path):
        sino = small_sino()
        path = tmp_path / "fan.sino"
        write_sinogram(path, sino)
        back = read_sinogram(path)
        assert isinstance(back, Sinogram)
        assert back.geometry == sino.geometry
        assert np.array_equal(back.values, sino.values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        sino = small_sino()
        a, b = tmp_path / "a.sino", tmp_path / "b.sino"
        write_sinogram(a, sino)
        write_sinogram(b, read_sinogram(a))
        assert a.read_bytes() == b.read_bytes()

    def test_cone_round_trip(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "cone.sino"
        write_sinogram(path, stack)
        back = read_sinogram(path)
        assert isinstance(back, ProjectionStack)
        assert back.geometry == stack.geometry
        assert np.array_equal(back.values, stack.values)

    def test_sidecar_mode(self, tmp_path):
        sino = small_sino()
        path = tmp_path / "fan.sino"
        write_sinogram(path, sino, sidecar=True)
        assert (tmp_path / "fan.sino.raw").exists()
        back = read_sinogram(path)
        assert np.array_equal(back.values, sino.values)

    def test_pixel_size_survives_round_trip(self, tmp_path):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino(), pixel_size_mm=0.127)
        assert float(header_metadata(path)["pixel_size_mm"]) == 0.127

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_read_with_header_gives_the_header_entries(self, tmp_path, sidecar):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino(), sidecar=sidecar, pixel_size_mm=0.127)
        data, entries = read_sinogram(path, with_header=True)
        assert np.array_equal(data.values, read_sinogram(path).values)
        assert entries == header_metadata(path)

    @pytest.mark.parametrize("pixel_size_mm", [0.0, -2.0, math.nan, math.inf])
    @pytest.mark.parametrize("sidecar", [False, True])
    def test_bad_pixel_size_rejected_before_writing(self, tmp_path, pixel_size_mm, sidecar):
        with pytest.raises(ValueError):
            write_sinogram(tmp_path / "fan.sino", small_sino(), sidecar=sidecar, pixel_size_mm=pixel_size_mm)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [1e39, -1e39])
    @pytest.mark.parametrize("make", [small_sino, small_stack], ids=["fan", "cone"])
    @pytest.mark.parametrize("sidecar", [False, True])
    def test_float32_overflow_rejected_before_writing(self, tmp_path, value, make, sidecar):
        """A finite value beyond float32 would be stored as Inf, which read_sinogram rejects;
        the largest float32 is written and read back."""
        data = make()
        values = data.values.copy()
        values.flat[3] = value
        with pytest.raises(ValueError, match=exactly("values overflow the float32 payload")):
            write_sinogram(tmp_path / "x.sino", type(data)(data.geometry, values), sidecar=sidecar)
        assert list(tmp_path.iterdir()) == []
        values.flat[3] = math.copysign(np.finfo(np.float32).max, value)
        write_sinogram(tmp_path / "x.sino", type(data)(data.geometry, values), sidecar=sidecar)
        assert np.array_equal(read_sinogram(tmp_path / "x.sino").values, values)

    @pytest.mark.parametrize("layout", ["inline", "inline-long-header", "sidecar", "header-only"])
    def test_header_metadata_matches_whole_file_parse(self, tmp_path, layout):
        """The entries equal those parsed from the text before the file's first blank line,
        also for a header that fills 4 KB and for a file with no payload."""
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino(), sidecar=layout == "sidecar", pixel_size_mm=0.127)
        if layout == "inline-long-header":
            header, payload = path.read_bytes().split(b"\n\n", 1)
            path.write_bytes(header + b"\ncomment: " + b"x" * (4095 - len(header) - 10) + b"\n\n" + payload)
        elif layout == "header-only":
            path.write_bytes(path.read_bytes().split(b"\n\n", 1)[0] + b"\n")
        blob = path.read_bytes()
        sep = blob.find(b"\n\n")
        want = io_cli._parse_header((blob[: sep + 1] if sep >= 0 else blob).decode("ascii"))
        assert header_metadata(path) == want
        assert want["pixel_size_mm"] == "0.127"

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino())
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match=exactly("payload is 504 bytes, shape (8, 16) needs 512")):
            read_sinogram(path)

    def test_zero_sample_count_rejected(self, tmp_path):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino())
        text = path.read_bytes()
        path.write_bytes(text.replace(b"n_s: 16", b"n_s: 0"))
        with pytest.raises(FormatError, match=exactly("invalid fan geometry: n_s must be an integer of at least 2")):
            read_sinogram(path)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino())
        path.write_bytes(path.read_bytes().replace(b"value_dtype: float32", b"value_dtype: float64"))
        with pytest.raises(FormatError, match=exactly("unsupported value_dtype 'float64'")):
            read_sinogram(path)

    def test_nan_payload_rejected(self, tmp_path):
        sino = small_sino()
        path = tmp_path / "fan.sino"
        write_sinogram(path, sino)
        blob = bytearray(path.read_bytes())
        payload_at = blob.index(b"\n\n") + 2
        blob[payload_at : payload_at + 4] = np.float32("nan").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=exactly("payload contains NaN or Inf")):
            read_sinogram(path)

    @pytest.mark.parametrize("sidecar", [False, True])
    @pytest.mark.parametrize("make", [small_sino, small_stack])
    def test_values_are_the_float32_payload_read_only(self, tmp_path, make, sidecar):
        path = tmp_path / "d.sino"
        write_sinogram(path, make(), sidecar=sidecar)
        blob = (tmp_path / "d.sino.raw").read_bytes() if sidecar else path.read_bytes().split(b"\n\n", 1)[1]
        payload = np.frombuffer(blob, dtype="<f4")
        values = read_sinogram(path).values
        assert values.dtype == np.float64
        assert np.array_equal(values.ravel().view(np.uint64), payload.astype(np.float64).view(np.uint64))
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make,command", [(small_sino, "align-fan"), (small_stack, "metric")])
    def test_non_finite_payload_rejected_and_exits_3(self, tmp_path, capsys, bad, make, command):
        path = tmp_path / "d.sino"
        write_sinogram(path, make())
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.float32(bad).tobytes()  # the last value
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=exactly("payload contains NaN or Inf")):
            read_sinogram(path)
        assert main([command, "--input", str(path)]) == 3
        assert capsys.readouterr().err == "error: payload contains NaN or Inf\n"

    def test_duplicate_header_key_rejected(self, tmp_path):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino())
        path.write_bytes(path.read_bytes().replace(b"n_beta: 8\n", b"n_beta: 8\nn_beta: 8\n"))
        with pytest.raises(FormatError, match=exactly("duplicate header key 'n_beta'")):
            read_sinogram(path)

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_comment_lines_in_header_are_skipped(self, tmp_path, sidecar):
        sino = small_sino()
        path = tmp_path / "fan.sino"
        write_sinogram(path, sino, sidecar=sidecar)
        path.write_bytes(b"# written by hand\n" + path.read_bytes().replace(b"n_beta: 8\n", b"n_beta: 8\n  # n_beta: 9\n"))
        back = read_sinogram(path)
        assert back.geometry == sino.geometry
        assert np.array_equal(back.values, sino.values)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b"kind: fan", b"kind: f\xe4n", "header is not ASCII text"),
            (b"format_version: 1", b"format_version: 2", "unsupported format_version 2"),
            (b"byte_order: little-endian", b"byte_order: big-endian", "unsupported byte_order 'big-endian'"),
            (b"kind: fan", b"kind: helix", "kind must be 'fan' or 'cone', got 'helix'"),
            (b"layout: row-major view-outermost", b"layout: column-major", "unsupported layout 'column-major'"),
            (b"layout: row-major view-outermost\n", b"", "unsupported layout None"),
        ],
        ids=["non-ascii", "format-version", "byte-order", "kind", "layout", "layout-missing"],
    )
    def test_bad_header_rejected_and_exits_3(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino())
        path.write_bytes(path.read_bytes().replace(old, new))
        with pytest.raises(FormatError, match=message):
            read_sinogram(path)
        assert main(["align-fan", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_missing_sidecar_payload(self, tmp_path):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino(), sidecar=True)
        raw = tmp_path / "fan.sino.raw"
        raw.unlink()
        message = f"cannot read payload file {raw}: [Errno 2] No such file or directory: '{raw}'"
        with pytest.raises(FormatError, match=exactly(message)):
            read_sinogram(path)

    def test_payload_may_name_another_sibling_file(self, tmp_path):
        path = tmp_path / "fan.sino"
        write_sinogram(path, small_sino(), sidecar=True)
        (tmp_path / "fan.sino.raw").rename(tmp_path / "data.raw")
        path.write_bytes(path.read_bytes().replace(b"payload: fan.sino.raw", b"payload: data.raw"))
        assert np.array_equal(read_sinogram(path).values, small_sino().values)

    @pytest.mark.parametrize("given", ["absolute", "parent", "subdirectory"])
    def test_payload_must_be_a_sibling_file_name(self, tmp_path, capsys, given):
        """A payload key that names a path, not a file next to the header, is
        a header error (exit 3), even where that path holds a valid payload."""
        (tmp_path / "sub" / "deeper").mkdir(parents=True)
        path = tmp_path / "sub" / "fan.sino"
        write_sinogram(path, small_sino(), sidecar=True)
        raw = (tmp_path / "sub" / "fan.sino.raw").read_bytes()
        (tmp_path / "elsewhere.raw").write_bytes(raw)
        (tmp_path / "sub" / "deeper" / "fan.sino.raw").write_bytes(raw)
        name = {
            "absolute": str(tmp_path / "elsewhere.raw"),
            "parent": "../elsewhere.raw",
            "subdirectory": "deeper/fan.sino.raw",
        }[given]
        path.write_bytes(path.read_bytes().replace(b"payload: fan.sino.raw", f"payload: {name}".encode()))
        with pytest.raises(FormatError, match=exactly(f"payload must be a file name next to the header, got {name!r}")):
            read_sinogram(path)
        assert main(["metric", "--input", str(path)]) == 3
        assert capsys.readouterr().out == ""

    def test_non_ascii_sidecar_payload_name_rejected_before_writing(self, tmp_path, capsys):
        path = tmp_path / "sc\u00e4n.sino"
        with pytest.raises(ValueError, match="sidecar payload name 'sc\u00e4n.sino.raw' is not ASCII"):
            write_sinogram(path, small_sino(), sidecar=True)
        assert list(tmp_path.iterdir()) == []
        assert main(["simulate", "--mode", "fan", "--n", "16", "--features", "3", "--sidecar", "--out", str(path)]) == 4
        assert capsys.readouterr() == ("", "error: sidecar payload name 'sc\u00e4n.sino.raw' is not ASCII\n")
        assert list(tmp_path.iterdir()) == []
        write_sinogram(path, small_sino())  # a single file names no payload
        assert np.array_equal(read_sinogram(path).values, small_sino().values)

    def test_truth_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "x.truth"
        write_truth(path, kind="cone", h_px=10.0, eta_rad=0.5, alpha=0.01, seed=7, features=20, source_radius=2.0)
        truth = read_truth(path)
        assert truth["kind"] == "cone"
        assert float(truth["h_px"]) == 10.0
        assert float(truth["eta_rad"]) == 0.5
        assert int(truth["seed"]) == 7

    def test_non_ascii_truth_sidecar_is_a_header_error(self, tmp_path):
        path = tmp_path / "x.truth"
        write_truth(path, kind="cone", h_px=10.0, eta_rad=0.5, alpha=0.01, seed=7, features=20, source_radius=2.0)
        path.write_bytes(path.read_bytes().replace(b"kind: cone", b"kind: c\xf6ne"))
        at = path.read_bytes().index(b"\xf6")
        message = f"header is not ASCII text: 'ascii' codec can't decode byte 0xf6 in position {at}: ordinal not in range(128)"
        with pytest.raises(FormatError, match=exactly(message)):
            read_truth(path)


class TestRunConfig:
    def test_parse_with_comments_and_blanks(self):
        cfg = RunConfig.parse("# comment\n\nmode: fan\nn: 128\nh: 10.0\neta: 1deg\n")
        assert cfg.get("mode") == "fan"
        assert cfg.get("n") == 128
        assert cfg.get("h") == 10.0
        assert cfg.get("eta") == pytest.approx(math.radians(1.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("wavelength: 1.0\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("n: many\n")

    def test_line_grammar_checked_before_values(self):
        with pytest.raises(ConfigError, match="config line 2 is not 'key: value'"):
            RunConfig.parse("n: many\nno colon here\n")
        with pytest.raises(ConfigError, match="duplicate config key 'wavelength'"):
            RunConfig.parse("wavelength: 1\nwavelength: 2\n")

    def test_booleans(self):
        assert RunConfig.parse("sidecar: true\n").get("sidecar") is True
        assert RunConfig.parse("sidecar: false\n").get("sidecar") is False
        for text in ("maybe", "yes", "1", "True"):
            with pytest.raises(ConfigError, match=f"bad value for config key 'sidecar': '{text}' is not one of true, false"):
                RunConfig.parse(f"sidecar: {text}\n")

    @pytest.mark.parametrize(
        "text,expected",
        [("1deg", math.radians(1.0)), ("-0.5deg", math.radians(-0.5)), ("0.02rad", 0.02), ("0 rad", 0.0)],
    )
    def test_parse_angle(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected)

    def test_angle_without_unit_rejected(self):
        with pytest.raises(ConfigError):
            parse_angle("1.0")

    def test_unparseable_angle_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse angle value 'xdeg'"):
            parse_angle("xdeg")

    @pytest.mark.parametrize("text", ["infdeg", "-inf deg", "nanrad", "1e400deg"])
    def test_non_finite_angle_rejected(self, text):
        with pytest.raises(ConfigError, match=repr(text)):
            parse_angle(text)


def report_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(key)


@pytest.fixture(scope="module")
def cli_fan_files(tmp_path_factory):
    """Simulated fan data via the CLI: aligned and h = 10, n = 256."""
    root = tmp_path_factory.mktemp("clifan")
    aligned = str(root / "aligned.sino")
    shifted = str(root / "shifted.sino")
    assert main(["simulate", "--mode", "fan", "--n", "256", "--h", "0", "--seed", "1", "--out", aligned]) == 0
    assert main(["simulate", "--mode", "fan", "--n", "256", "--h", "10", "--seed", "1", "--out", shifted]) == 0
    return aligned, shifted


class TestCliSimulate:
    def test_writes_data_and_truth(self, tmp_path, capsys):
        out = str(tmp_path / "f.sino")
        rc = main(["simulate", "--mode", "fan", "--n", "64", "--h", "10", "--alpha", "0", "--seed", "1", "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert f"wrote: {out}" in printed
        truth = read_truth(out + ".truth")
        assert float(truth["h_px"]) == 10.0
        assert truth["kind"] == "fan"
        assert read_sinogram(out).geometry.n_s == 64

    @pytest.mark.parametrize("mode, voids", [("fan", 30), ("cone", 20)])
    @pytest.mark.parametrize("features", [None, 3])
    def test_truth_features_count_the_voids(self, tmp_path, mode, voids, features):
        """A fan phantom's enclosing sphere is no feature: features counts the
        spheres of negative density in both modes, default counts included."""
        out = str(tmp_path / "x.sino")
        argv = ["simulate", "--mode", mode, "--n", "16", "--out", out]
        assert main(argv if features is None else [*argv, "--features", str(features)]) == 0
        assert read_truth(out + ".truth")["features"] == (voids if features is None else features)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.sino"), str(tmp_path / "b.sino")
        for out in (a, b):
            main(["simulate", "--mode", "fan", "--n", "64", "--h", "3", "--seed", "5", "--out", out])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_eta_on_fan_rejected(self, tmp_path):
        rc = main(["simulate", "--mode", "fan", "--n", "32", "--eta", "1deg", "--out", str(tmp_path / "x.sino")])
        assert rc == 4

    def test_missing_mode_rejected(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x.sino")]) == 4

    @pytest.mark.parametrize("alpha", ["-0.5", "nan", "inf"])
    def test_bad_alpha_rejected_and_nothing_written(self, tmp_path, capsys, alpha):
        rc = main(["simulate", "--mode", "fan", "--n", "32", "--alpha", alpha, "--out", str(tmp_path / "x.sino")])
        assert rc == 4
        assert capsys.readouterr().err == "error: alpha must be nonnegative and finite\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["fan", "cone"])
    def test_float32_overflow_exits_4_and_nothing_written(self, tmp_path, capsys, mode):
        """At alpha = 1e39 the float32 payload would hold Inf, which align-fan and align-cone reject."""
        assert main(["simulate", "--mode", mode, "--n", "16", "--alpha", "1e39", "--out", str(tmp_path / "x.sino")]) == 4
        assert capsys.readouterr() == ("", "error: values overflow the float32 payload\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["simulate", "--mode", "fan"], ["sweep"]], ids=["simulate", "sweep"])
    def test_unplaceable_phantom_exits_4_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv):
        """Features that cannot be placed are a configuration error.  Disks of
        radius 0.4 make 5 of them unplaceable in a few milliseconds."""
        monkeypatch.setattr(simulate, "_DISK_RADII", (0.4, 0.4))
        rc = main(argv + ["--n", "32", "--features", "5", "--out", str(tmp_path / "x.sino")])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: could not place 5 non-overlapping disks: 1000 draws in a row were rejected\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["fan", "cone"])
    @pytest.mark.parametrize("h", ["inf", "nan"])
    def test_non_finite_h_rejected_and_nothing_written(self, tmp_path, capsys, mode, h):
        assert main(["simulate", "--mode", mode, "--n", "16", "--h", h, "--out", str(tmp_path / "x.sino")]) == 4
        assert capsys.readouterr().err == "error: h must be finite\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", ["1e300", "-15", "15"])
    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--mode", "fan"], ["simulate", "--mode", "cone"], ["sweep", "--alphas", "0", "--methods", "yang"]],
        ids=["simulate-fan", "simulate-cone", "sweep"],
    )
    def test_shift_off_the_detector_rejected_and_nothing_written(self, tmp_path, capsys, argv, h):
        """A finite |h| of at least the detector width, n - 1 px, moves the whole support off it."""
        assert main([*argv, "--n", "16", "--h", h, "--out", str(tmp_path / "x.sino")]) == 4
        assert capsys.readouterr() == ("", "error: |h| must be below the detector width, 15 px\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["fan", "cone"])
    def test_shift_just_inside_the_detector_accepted(self, tmp_path, mode):
        assert main(["simulate", "--mode", mode, "--n", "16", "--h", "-14.9", "--out", str(tmp_path / "x.sino")]) == 0

    @pytest.mark.parametrize("argv", [["--pixel-size-mm", "-2"], ["--pixel-size-mm", "0"], ["--config", "px.cfg"]])
    def test_bad_pixel_size_rejected_and_nothing_written(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "px.cfg").write_text("pixel_size_mm: nan\n")
        assert main(["simulate", "--mode", "fan", "--n", "32", "--out", "x.sino", *argv]) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["px.cfg"]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_report_flag_rejected_and_nothing_written(self, tmp_path, monkeypatch, command):
        # simulate and sweep write no report, so they take no --report flag
        monkeypatch.chdir(tmp_path)
        argv = ["--mode", "fan"] if command == "simulate" else []
        assert main([command, *argv, "--n", "32", "--report", "r.txt", "--out", "f.sino"]) == 4
        assert list(tmp_path.iterdir()) == []

    def test_report_config_key_rejected_and_nothing_written(self, tmp_path, monkeypatch, capsys):
        """A config key is scoped like its flag: simulate takes no report."""
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("mode: fan\nn: 32\nreport: r.txt\noutput: f.sino\n")
        assert main(["simulate", "--config", "run.cfg"]) == 4
        assert capsys.readouterr() == ("", "error: config key 'report' does not apply to simulate\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    FLAG = "argument --features: invalid nonnegative_int value:"

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["simulate", "--mode", "fan", "--features", "-1"], None, f"{FLAG} '-1'"),
            (["simulate", "--mode", "cone", "--features", "-1"], None, f"{FLAG} '-1'"),
            (["sweep", "--features", "-2", "--alphas", "0"], None, f"{FLAG} '-2'"),
            (["simulate", "--mode", "cone"], "features: -1\n", "bad value for config key 'features': '-1' is negative"),
            (["sweep", "--alphas", "0"], "features: -2\n", "bad value for config key 'features': '-2' is negative"),
            (["simulate", "--mode", "fan", "--seed", "-1"], None, "argument --seed: invalid nonnegative_int value: '-1'"),
            (["sweep", "--seed", "-1", "--alphas", "0"], None, "argument --seed: invalid nonnegative_int value: '-1'"),
            (["simulate", "--mode", "fan"], "seed: -1\n", "bad value for config key 'seed': '-1' is negative"),
        ],
    )
    def test_negative_feature_count_rejected_and_nothing_written(
        self, tmp_path, monkeypatch, capsys, argv, config, message
    ):
        """A negative feature count or seed is rejected; the error names the
        option as it was given, not n_disks, n_spheres or numpy's seed."""
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path("run.cfg").write_text(config)
            argv = [*argv, "--config", "run.cfg"]
        assert main([*argv, "--n", "16", "--out", "f.sino"]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["run.cfg"])

    N_FLAG = "argument --n: invalid grid_size value:"

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["simulate", "--mode", "fan", "--n", "1"], None, f"{N_FLAG} '1'"),
            (["simulate", "--mode", "cone", "--n", "1"], None, f"{N_FLAG} '1'"),
            (["sweep", "--n", "1", "--alphas", "0"], None, f"{N_FLAG} '1'"),
            (["simulate", "--mode", "cone"], "n: 0\n", "bad value for config key 'n': '0' is less than 2"),
            (["sweep", "--alphas", "0"], "n: 1\n", "bad value for config key 'n': '1' is less than 2"),
        ],
    )
    def test_grid_size_below_two_rejected_and_nothing_written(
        self, tmp_path, monkeypatch, capsys, argv, config, message
    ):
        """The error names the option as it was given, not n_s or n_u."""
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path("run.cfg").write_text(config)
            argv = [*argv, "--config", "run.cfg"]
        assert main([*argv, "--out", "f.sino"]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["run.cfg"])

    def test_non_ascii_config_rejected_and_nothing_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_bytes(b"mode: fan\nn: 32\nm\xe4de: fan\n")
        assert main(["simulate", "--config", "run.cfg"]) == 4
        assert capsys.readouterr() == (
            "",
            "error: config file is not ASCII text: 'ascii' codec can't decode byte 0xe4 in position 17:"
            " ordinal not in range(128)\n",
        )
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


class TestCliAlignFan:
    @pytest.mark.parametrize("method", ["yang", "ly", "2dr", "fp", "fpk"])
    def test_aligned_input_reports_zero(self, method, cli_fan_files, capsys):
        aligned, _ = cli_fan_files
        rc = main(["align-fan", "--input", aligned, "--method", method])
        assert rc == 0
        out = capsys.readouterr().out
        assert abs(float(report_value(out, "h_px"))) <= 0.05
        assert report_value(out, "converged") == "true"

    def test_shifted_input_in_window(self, cli_fan_files, capsys):
        _, shifted = cli_fan_files
        rc = main(["align-fan", "--input", shifted, "--method", "2dr"])
        assert rc == 0
        h = float(report_value(capsys.readouterr().out, "h_px"))
        assert 9.9 <= h <= 10.1

    def test_report_file_matches_stdout(self, cli_fan_files, tmp_path, capsys):
        _, shifted = cli_fan_files
        report = tmp_path / "r.txt"
        rc = main(["align-fan", "--input", shifted, "--method", "yang", "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert report.read_text() == out

    def test_non_convergence_exit_code(self, cli_fan_files, capsys):
        _, shifted = cli_fan_files
        rc = main(["align-fan", "--input", shifted, "--method", "fp", "--max-iter", "1"])
        assert rc == 2
        assert report_value(capsys.readouterr().out, "converged") == "false"

    @pytest.mark.parametrize("method", ["fp", "fpk"])
    def test_iteration_cap_names_itself(self, tmp_path, capsys, method):
        out = str(tmp_path / "fan.sino")
        assert main(["simulate", "--mode", "fan", "--n", "32", "--h", "2", "--out", out]) == 0
        capsys.readouterr()
        assert main(["align-fan", "--input", out, "--method", method, "--max-iter", "1"]) == 2
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("converged: false")
        assert lines[at + 1] == "reason: a fixed-point run reached max_iter 1"

    @pytest.mark.parametrize(
        "command,key,value",
        [
            pytest.param("align-fan", "tol_h", "0.01", id="tol_h-0.01"),
            pytest.param("align-fan", "upsample", "20", id="upsample-20"),
            pytest.param("align-fan", "beta_index", "0", id="beta_index-0"),
            pytest.param("align-cone", "eta0", "0.3rad", id="eta0-0.3rad"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_removed_fixed_point_option_rejected(self, cli_fan_files, tmp_path, capsys, command, key, value, source):
        """FP stops at an exact fixed point on the 1/20-px grid from view 0,
        and VP starts at eta = 0: no tolerance, registration factor, start
        view or start angle is an option.  The options are rejected before
        the input is read."""
        _, shifted = cli_fan_files
        if source == "flag":
            flag = "--" + key.replace("_", "-")
            extra, error = [flag, value], f"error: unrecognized arguments: {flag} {value}\n"
        else:
            (tmp_path / "run.cfg").write_text(f"{key}: {value}\n")
            extra, error = ["--config", str(tmp_path / "run.cfg")], f"error: unknown config key {key!r}\n"
        assert main([command, "--input", shifted, *extra]) == 4
        assert capsys.readouterr() == ("", error)

    def test_pixel_size_gives_millimetres(self, tmp_path, capsys):
        out = str(tmp_path / "p.sino")
        main(["simulate", "--mode", "fan", "--n", "128", "--h", "10", "--seed", "1", "--pixel-size-mm", "0.2", "--out", out])
        capsys.readouterr()
        assert main(["align-fan", "--input", out, "--method", "fp"]) == 0
        text = capsys.readouterr().out
        assert float(report_value(text, "h_mm")) == pytest.approx(0.2 * float(report_value(text, "h_px")), rel=1e-12)

    def test_header_parsed_once(self, tmp_path, capsys, monkeypatch):
        """h_mm comes from the one header parse that reads the data."""
        path = tmp_path / "p.sino"
        write_sinogram(path, small_sino(), pixel_size_mm=0.2)
        parses, parse = [], io_cli._parse_header
        monkeypatch.setattr(io_cli, "_parse_header", lambda text: parses.append(text) or parse(text))
        assert main(["align-fan", "--input", str(path), "--method", "yang"]) == 0
        assert len(parses) == 1
        text = capsys.readouterr().out
        assert float(report_value(text, "h_mm")) == pytest.approx(0.2 * float(report_value(text, "h_px")), rel=1e-12)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-0.2"])
    def test_bad_header_pixel_size_is_a_format_error(self, tmp_path, capsys, value):
        path = tmp_path / "p.sino"
        write_sinogram(path, small_sino(), pixel_size_mm=0.2)
        path.write_bytes(path.read_bytes().replace(b"pixel_size_mm: 0.2", b"pixel_size_mm: " + value.encode()))
        assert main(["align-fan", "--input", str(path), "--method", "2dr"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("spelling,tag", [("FP", "FP"), ("Yang", "Yang"), ("FPK", "FP_K"), ("fp_K", "FP_K")])
    def test_method_names_are_case_insensitive(self, cli_fan_files, capsys, spelling, tag):
        _, shifted = cli_fan_files
        assert main(["align-fan", "--input", shifted, "--method", spelling]) == 0
        assert report_value(capsys.readouterr().out, "method") == tag

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "c.sino")
        main(["simulate", "--mode", "cone", "--n", "24", "--seed", "0", "--features", "4", "--out", out])
        capsys.readouterr()
        assert main(["align-fan", "--input", out]) == 4
        assert capsys.readouterr() == ("", "error: align-fan needs fan data; this file holds a cone stack\n")

    def test_missing_input_file(self, tmp_path):
        assert main(["align-fan", "--input", str(tmp_path / "ghost.sino")]) == 3

    def test_corrupt_file_no_partial_report(self, tmp_path):
        bad = tmp_path / "bad.sino"
        bad.write_bytes(b"format_version: 1\nkind: fan\n\n\x00\x00")
        report = tmp_path / "r.txt"
        assert main(["align-fan", "--input", str(bad), "--report", str(report)]) == 3
        assert not report.exists()

    def test_unknown_method_rejected(self, cli_fan_files):
        _, shifted = cli_fan_files
        assert main(["align-fan", "--input", shifted, "--method", "simplex"]) == 4

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        out = str(tmp_path / "cfg.sino")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode: fan\nn: 64\nh: 5.0\nseed: 2\noutput: {out}\n")
        assert main(["simulate", "--config", str(cfg), "--h", "10"]) == 0
        truth = read_truth(out + ".truth")
        assert float(truth["h_px"]) == 10.0  # flag beats config
        assert read_sinogram(out).geometry.n_s == 64  # config fills the rest

    def test_bad_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode: fan\nvoltage: 3\n")
        assert main(["simulate", "--config", str(cfg)]) == 4

    def test_duplicate_config_key_rejected(self, cli_fan_files, tmp_path, capsys):
        """A repeated key is an error, not the last value silently winning."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method: fp\nmethod: yang\n")
        assert main(["align-fan", "--input", cli_fan_files[1], "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate config key 'method'\n"

    @pytest.mark.parametrize(
        "run, message",
        [(m, "zero cross-correlation") for m in ("yang", "ly", "2dr")]
        + [(m, "every fixed-point start failed") for m in ("fp", "fpk")]
        + [(run, "symmetry_mse undefined for an all-zero sinogram") for run in ("metric fan", "metric cone")],
    )
    def test_all_zero_data_exits_2(self, tmp_path, capsys, run, message):
        """Data with no signal to measure is an ambiguous registration (exit 2)
        for every fan estimator and for metric, on fan and cone data."""
        fan = Sinogram(FanGeometry(SOURCE_RADIUS, 16, 1.0, 16), np.zeros((16, 16)))
        cone = ProjectionStack(ConeGeometry(SOURCE_RADIUS, 12, 12, 1.0, 1.0, 12), np.zeros((12, 12, 12)))
        data, args = {
            "metric fan": (fan, ["metric", "--h", "0"]),
            "metric cone": (cone, ["metric", "--eta", "1deg"]),
        }.get(run, (fan, ["align-fan", "--method", run]))
        path = tmp_path / "zero.sino"
        write_sinogram(path, data)
        assert main([*args, "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCliAlignCone:
    def test_simulate_then_recover(self, tmp_path, capsys):
        out = str(tmp_path / "cone.sino")
        rc = main(["simulate", "--mode", "cone", "--n", "128", "--h", "10", "--eta", "1deg", "--seed", "1", "--out", out])
        assert rc == 0
        capsys.readouterr()
        rc = main(["align-cone", "--input", out, "--inner-method", "2dr"])
        assert rc == 0
        text = capsys.readouterr().out
        assert float(report_value(text, "h_px")) == pytest.approx(10.0, abs=0.15)
        assert float(report_value(text, "eta_deg")) == pytest.approx(1.0, abs=0.05)
        assert report_value(text, "method") == "VP-2DR"

    def test_capped_inner_solve_exits_2(self, tmp_path, capsys):
        """A VP run whose FP_K inner solve at the estimate stops at max_iter is
        unconverged (exit 2) and names the inner stop, here at max_iter 1 with
        eta 0.23 degrees off the truth; at max_iter 3 that solve converges."""
        out = str(tmp_path / "cone.sino")
        assert main(["simulate", "--mode", "cone", "--n", "64", "--h", "5", "--eta", "1deg", "--seed", "1", "--out", out]) == 0
        capsys.readouterr()
        assert main(["align-cone", "--input", out, "--inner-method", "fpk", "--max-iter", "1"]) == 2
        text = capsys.readouterr().out
        assert report_value(text, "converged") == "false"
        assert report_value(text, "reason") == "inner solve: a fixed-point run reached max_iter 1"
        assert float(report_value(text, "eta_deg")) == pytest.approx(1.2297, abs=1e-4)
        assert main(["align-cone", "--input", out, "--inner-method", "fpk", "--max-iter", "2"]) == 2
        assert report_value(capsys.readouterr().out, "reason") == "inner solve: a fixed-point run reached max_iter 2"
        assert main(["align-cone", "--input", out, "--inner-method", "fpk", "--max-iter", "3"]) == 0
        text = capsys.readouterr().out
        assert report_value(text, "converged") == "true"
        assert "reason:" not in text

    def test_iteration_cap_exits_2_and_names_itself(self, tmp_path, capsys):
        """The reason line follows the converged line."""
        out = str(tmp_path / "cone.sino")
        assert main(["simulate", "--mode", "cone", "--n", "32", "--h", "2", "--eta", "1deg", "--out", out]) == 0
        capsys.readouterr()
        assert main(["align-cone", "--input", out, "--max-outer", "1"]) == 2
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("converged: false")
        assert lines[at + 1] == "reason: max_outer 1 reached"

    def test_fan_file_rejected(self, cli_fan_files, capsys):
        aligned, _ = cli_fan_files
        assert main(["align-cone", "--input", aligned]) == 4
        assert capsys.readouterr() == ("", "error: align-cone needs cone data; this file holds a fan sinogram\n")

    def test_more_fpk_starts_than_views_rejected(self, tmp_path):
        out = str(tmp_path / "c.sino")
        main(["simulate", "--mode", "cone", "--n", "24", "--seed", "0", "--features", "4", "--out", out])
        n_beta = read_sinogram(out).geometry.n_beta
        assert main(["align-cone", "--input", out, "--inner-method", "fpk", "--k", str(n_beta + 1)]) == 4

    @pytest.mark.parametrize("key", ["tol_eta"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_eta_step_rejected(self, tmp_path, capsys, key, value):
        """The error names the option as it was given: its flag, or its config key."""
        out = str(tmp_path / "c.sino")
        main(["simulate", "--mode", "cone", "--n", "24", "--h", "2", "--eta", "1deg", "--features", "4", "--out", out])
        capsys.readouterr()
        flag = "--" + key.replace("_", "-")
        assert main(["align-cone", "--input", out, flag, value + "rad"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err
        assert "must be finite" in captured.err
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}: {value}rad\n")
        assert main(["align-cone", "--input", out, "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("key", ["tol_eta"])
    @pytest.mark.parametrize("value", ["1e-3rad", "0.05deg", "0.002"])
    def test_eta_step_needs_a_unit_suffix(self, tmp_path, capsys, key, value):
        """The eta step is an angle: a suffixed value is echoed in radians, a bare number is rejected."""
        out = str(tmp_path / "c.sino")
        main(["simulate", "--mode", "cone", "--n", "24", "--h", "2", "--eta", "1deg", "--features", "4", "--out", out])
        capsys.readouterr()
        code = main(["align-cone", "--input", out, "--" + key.replace("_", "-"), value])
        captured = capsys.readouterr()
        if value == "0.002":
            assert code == 4
            assert f"argument --{key.replace('_', '-')}: " in captured.err
            assert "needs a 'deg' or 'rad' suffix" in captured.err
        else:
            assert code in (0, 2)  # ran: converged or not
            assert float(report_value(captured.out, f"cfg_{key}_rad")) == parse_angle(value)

    @pytest.mark.parametrize("line", ["method: yang", "h: 5"])
    def test_config_key_of_another_command_rejected(self, tmp_path, capsys, line):
        """A config key is scoped like its flag: align-cone takes no method
        or h, and runs nothing when its config file sets one."""
        out = str(tmp_path / "c.sino")
        main(["simulate", "--mode", "cone", "--n", "24", "--seed", "0", "--features", "4", "--out", out])
        capsys.readouterr()
        config = tmp_path / "run.cfg"
        config.write_text(f"max_outer: 2\n{line}\n")
        assert main(["align-cone", "--input", out, "--config", str(config)]) == 4
        key = line.split(":")[0]
        assert capsys.readouterr() == ("", f"error: config key {key!r} does not apply to align-cone\n")


class TestCliMetric:
    def test_fan_metric_matches_library(self, cli_fan_files, capsys):
        _, shifted = cli_fan_files
        rc = main(["metric", "--input", shifted, "--h", "10"])
        assert rc == 0
        reported = float(report_value(capsys.readouterr().out, "mse"))
        assert reported == pytest.approx(symmetry_mse(read_sinogram(shifted), 10.0), rel=1e-12)

    def test_eta_on_fan_rejected(self, cli_fan_files):
        _, shifted = cli_fan_files
        assert main(["metric", "--input", shifted, "--eta", "1deg"]) == 4

    @pytest.mark.filterwarnings("error")
    def test_far_off_detector_shift_reflects_to_zero(self, cli_fan_files, capsys):
        """Every reflected read falls off the detector, so the mse is |g|^2/|g|^2."""
        _, shifted = cli_fan_files
        assert main(["metric", "--input", shifted, "--h", "1e300"]) == 0
        assert report_value(capsys.readouterr().out, "mse") == "1.0"

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("h", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["fan", "cone"])
    def test_non_finite_h_rejected(self, cli_fan_files, tmp_path, capsys, kind, h, given):
        data = cli_fan_files[1]
        if kind == "cone":
            data = str(tmp_path / "cone.sino")
            assert main(["simulate", "--mode", "cone", "--n", "16", "--features", "4", "--out", data]) == 0
            capsys.readouterr()
        argv = ["metric", "--input", data]
        if given == "flag":
            argv += ["--h", h]
        else:
            (tmp_path / "run.cfg").write_text(f"h: {h}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 4
        assert capsys.readouterr() == ("", "error: h must be finite\n")

    @pytest.mark.parametrize("inner", ["2dr", "fpk"])
    def test_cone_metric_matches_align_cone(self, tmp_path, capsys, inner):
        """The cone metric reads the mid-plane pivoted at h, as the estimate's mse."""
        out = str(tmp_path / "cone.sino")
        assert main(["simulate", "--mode", "cone", "--n", "48", "--h", "4", "--eta", "1deg", "--out", out]) == 0
        capsys.readouterr()
        assert main(["align-cone", "--input", out, "--inner-method", inner]) == 0
        text = capsys.readouterr().out
        h, eta = report_value(text, "h_px"), report_value(text, "eta_rad")
        assert float(h) != 0.0 and float(eta) != 0.0
        assert main(["metric", "--input", out, "--h", h, "--eta", eta + "rad"]) == 0
        assert report_value(capsys.readouterr().out, "mse") == report_value(text, "mse")


class TestCliNegativeValues:
    def test_exponent_and_unit_values_are_not_flags(self, tmp_path, capsys):
        """argparse's own negative-number pattern takes each of these values
        for a flag."""
        out = str(tmp_path / "c.sino")
        argv = ["--mode", "cone", "--n", "24", "--h", "2", "--features", "4", "--out", out]
        assert main(["simulate", *argv, "--eta", "-1deg"]) == 0
        assert float(read_truth(out + ".truth")["eta_rad"]) == pytest.approx(math.radians(-1.0))
        capsys.readouterr()
        assert main(["metric", "--input", out, "--h", "-1e-3"]) == 0
        assert report_value(capsys.readouterr().out, "h_px") == "-0.001"
        assert main(["metric", "--input", out, "--eta", "-1e-3rad"]) == 0
        assert report_value(capsys.readouterr().out, "eta_rad") == "-0.001"


class TestCliSweep:
    def run_sweep(self, out=None):
        argv = ["sweep", "--n", "128", "--seed", "1", "--h", "10",
                "--alphas", "0,0.01", "--methods", "yang,ly,2dr,fp,fpk"]
        if out:
            argv += ["--out", out]
        return main(argv)

    def test_csv_shape_and_accuracy(self, capsys):
        assert self.run_sweep() == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,method,abs_error_px,seconds"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        clean = {r[1]: float(r[2]) for r in rows if float(r[0]) == 0.0}
        assert set(clean) == {"Yang", "LY", "2DR", "FP", "FP_K"}
        assert all(err <= 0.1 for err in clean.values())
        noisy = {r[1]: float(r[2]) for r in rows if float(r[0]) == 0.01}
        for method, err in noisy.items():
            assert err >= clean[method] - 1e-12

    @pytest.mark.parametrize("alphas", ["-1,nan", "0,-1", "nan"])
    def test_bad_alpha_rejected_before_any_row(self, capsys, alphas):
        assert main(["sweep", "--n", "32", "--features", "5", f"--alphas={alphas}", "--methods", "yang"]) == 4
        assert capsys.readouterr().out == ""

    def test_rerun_identical_apart_from_timing(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run_sweep(str(a))
        self.run_sweep(str(b))
        capsys.readouterr()
        strip = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
        assert strip(a) == strip(b)


FAN_HEADER = (
    b"format_version: 1\nkind: fan\nn_s: 16\nn_beta: 8\ns_max: 1.0\nsource_radius: 2.0\npixel_size_mm: 0.127\n"
    b"value_dtype: float32\nbyte_order: little-endian\nlayout: row-major view-outermost\n"
)
CONE_HEADER = (
    b"format_version: 1\nkind: cone\nn_u: 9\nn_v: 7\nn_beta: 6\nu_max: 1.0\nv_max: 0.8\nsource_radius: 2.0\n"
    b"value_dtype: float32\nbyte_order: little-endian\nlayout: row-major view-outermost\npayload: c.sino.raw\n"
)
TRUTH_FILE = (
    b"kind: cone\nh_px: -2.5\neta_rad: 0.017453292519943295\nalpha: 0.004\nseed: 7\nfeatures: 20\n"
    b"source_radius: 2.0\n"
)


class TestFileKeyTables:
    """The data header and the truth sidecar keep their exact bytes: key
    order, number text and layout are pinned here."""

    def test_fan_file_bytes(self, tmp_path):
        path, sino = tmp_path / "f.sino", small_sino()
        write_sinogram(path, sino, pixel_size_mm=0.127)
        assert path.read_bytes() == FAN_HEADER + b"\n" + sino.values.astype("<f4").tobytes()

    def test_cone_sidecar_bytes(self, tmp_path):
        path, stack = tmp_path / "c.sino", small_stack()
        write_sinogram(path, stack, sidecar=True)
        assert path.read_bytes() == CONE_HEADER
        assert (tmp_path / "c.sino.raw").read_bytes() == stack.values.astype("<f4").tobytes()

    def test_truth_bytes_and_types(self, tmp_path):
        path = tmp_path / "x.truth"
        truth = dict(kind="cone", h_px=-2.5, eta_rad=math.radians(1.0), alpha=0.004, seed=7, features=20)
        truth["source_radius"] = 2.0
        write_truth(path, **truth)
        assert path.read_bytes() == TRUTH_FILE
        back = read_truth(path)
        assert back == truth
        assert [type(v) for v in back.values()] == [str, float, float, float, int, int, float]

    def test_truth_missing_key_is_a_format_error(self, tmp_path):
        path = tmp_path / "x.truth"
        path.write_bytes(TRUTH_FILE.replace(b"seed: 7\n", b""))
        with pytest.raises(FormatError, match=exactly("missing header key 'seed'")):
            read_truth(path)


# per run option: a value for its flag and a different one for the config file
OPTION_SAMPLES = {
    "input": ("a.sino", "b.sino"),
    "output": ("o.sino", "p.sino"),
    "report": ("r.txt", "s.txt"),
    "seed": ("3", "4"),
    "mode": ("cone", "fan"),
    "n": ("32", "64"),
    "h": ("2.5", "7"),
    "eta": ("1deg", "0.02rad"),
    "alpha": ("0.01", "0"),
    "features": ("4", "9"),
    "sidecar": ("true", "false"),
    "source_radius": ("2.5", "3"),
    "pixel_size_mm": ("0.2", "1e-3"),
    "method": ("FPK", "ly"),
    "inner_method": ("fpk", "2dr"),
    "max_outer": ("3", "30"),
    "tol_eta": ("0.001rad", "1e-6rad"),
    "K": ("3", "12"),
    "max_iter": ("7", "50"),
    "alphas": ("0,0.01", "0.004"),
    "methods": ("yang, FP_K", "2dr"),
}


def _flag_argv(key, value):
    flag = {"K": "--k", "output": "--out"}.get(key, "--" + key.replace("_", "-"))
    return [flag] if key == "sidecar" else [flag, value]


class TestRunOptionTable:
    """Every run option goes through one parser, whether it comes from its
    flag or from its config-file key, and the flag wins over the file."""

    def test_every_option_has_samples(self):
        assert set(OPTION_SAMPLES) == set(io_cli.RUN_OPTIONS)

    @pytest.mark.parametrize(
        "command,key", [(c, k) for k, option in io_cli.RUN_OPTIONS.items() for c in option.commands]
    )
    def test_flag_equals_config_line_and_wins(self, tmp_path, command, key):
        flag_value, file_value = OPTION_SAMPLES[key]
        same, other = tmp_path / "same.cfg", tmp_path / "other.cfg"
        same.write_text(f"{key}: {flag_value}\n")
        other.write_text(f"{key}: {file_value}\n")
        parser = build_parser()

        def options(*argv):
            return cli._options(parser.parse_args([command, *argv]))

        from_flag = options(*_flag_argv(key, flag_value))
        assert set(from_flag) == {key}
        assert options("--config", str(same)) == from_flag
        assert options("--config", str(other)) != from_flag
        assert options("--config", str(other), *_flag_argv(key, flag_value)) == from_flag

    def test_method_spellings_map_to_tags(self):
        parser = build_parser()
        argv = ["sweep", "--methods", "Yang,LY,2dr,fp,fpk,FP_K"]
        assert cli._options(parser.parse_args(argv))["methods"] == ["Yang", "LY", "2DR", "FP", "FP_K", "FP_K"]
        argv = ["align-cone", "--inner-method", "FPK"]
        assert cli._options(parser.parse_args(argv))["inner_method"] == "fp_k"


# per kind of fan method: only FP and FP_K read max_iter, only FP_K reads K
FAN_REPORT_KEYS = {
    kind: [
        "command", "input", "method", "h_px", "eta_deg", "eta_rad", "iterations", "mse", "converged", "seconds",
        "n_s", "n_beta", "s_max", "source_radius",
        "cfg_method", *echo,
    ]
    for kind, echo in {"one-pass": [], "FP": ["cfg_max_iter"], "FP_K": ["cfg_K", "cfg_max_iter"]}.items()
}  # fmt: skip
CONE_REPORT_KEYS = [
    "command", "input", "method", "h_px", "eta_deg", "eta_rad", "iterations", "mse", "converged", "seconds",
    "n_u", "n_v", "n_beta", "u_max", "v_max", "source_radius",
    "cfg_inner_method", "cfg_max_outer", "cfg_tol_eta_rad",
]  # fmt: skip
CONE_FPK_REPORT_KEYS = CONE_REPORT_KEYS + ["cfg_K", "cfg_max_iter"]  # only the fp_k inner solver reads them


def with_h_mm(keys):
    return keys[: keys.index("h_px") + 1] + ["h_mm"] + keys[keys.index("h_px") + 1 :]


class TestReportKeys:
    """The align reports keep their key sequence; the config echo follows the
    run-option table order, so reordering the table fails here."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("reports")
        for name, argv in {
            "fan": ["--mode", "fan", "--n", "32", "--h", "2", "--features", "5"],
            "fan_px": ["--mode", "fan", "--n", "32", "--h", "2", "--features", "5", "--pixel-size-mm", "0.2"],
            "cone": ["--mode", "cone", "--n", "20", "--h", "1", "--eta", "1deg", "--features", "3"],
            "cone_px": ["--mode", "cone", "--n", "20", "--features", "3", "--pixel-size-mm", "0.5", "--sidecar"],
        }.items():
            assert main(["simulate", *argv, "--out", str(root / f"{name}.sino")]) == 0
        return root

    def report(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) in (0, 2)
        out = capsys.readouterr().out
        return [line.split(":", 1)[0] for line in out.splitlines()], out

    def test_align_fan_default(self, root, capsys):
        keys, out = self.report(capsys, ["align-fan", "--input", str(root / "fan.sino")])
        assert keys == FAN_REPORT_KEYS["one-pass"]
        assert report_value(out, "cfg_method") == "2DR"

    def test_align_fan_config_and_flag(self, root, capsys):
        """The flag wins over the file; FP (K = 1) echoes max_iter, FP_K echoes K and max_iter."""
        cfg = root / "fan.cfg"
        for method, tag, echo in (("fp", "FP", ["FP", "9"]), ("fpk", "FP_K", ["FP_K", "4", "9"])):
            cfg.write_text(f"input: {root / 'fan.sino'}\nmethod: {method}\nK: 7\nmax_iter: 9\n")
            keys, out = self.report(capsys, ["align-fan", "--config", str(cfg), "--k", "4"])
            assert keys == FAN_REPORT_KEYS[tag]
            assert [report_value(out, k) for k in keys if k.startswith("cfg_")] == echo

    @pytest.mark.parametrize("method", ["yang", "ly", "2dr"])
    def test_align_fan_one_pass_echoes_no_fixed_point_setting(self, root, capsys, method):
        """--k and --max-iter do nothing under Yang, LY and 2DR, so the
        report does not echo them as if they had been used."""
        runs = []
        for k, max_iter in (("1", "1"), ("50", "3")):
            argv = ["align-fan", "--input", str(root / "fan.sino"), "--method", method, "--k", k]
            keys, out = self.report(capsys, [*argv, "--max-iter", max_iter])
            assert keys == FAN_REPORT_KEYS["one-pass"]
            runs.append([report_value(out, key) for key in ("h_px", "iterations", "mse")])
        assert runs[0] == runs[1]

    def test_align_fan_pixel_size(self, root, capsys):
        keys, _ = self.report(capsys, ["align-fan", "--input", str(root / "fan_px.sino"), "--method", "fp"])
        assert keys == with_h_mm(FAN_REPORT_KEYS["FP"])

    def test_align_cone_default(self, root, capsys):
        keys, out = self.report(capsys, ["align-cone", "--input", str(root / "cone.sino")])
        assert keys == CONE_REPORT_KEYS
        assert report_value(out, "cfg_inner_method") == "2dr"

    def test_align_cone_config_and_flag(self, root, capsys):
        cfg = root / "cone.cfg"
        cfg.write_text(f"input: {root / 'cone.sino'}\ninner_method: FPK\ntol_eta: 0.3deg\nK: 5\nmax_outer: 9\n")
        keys, out = self.report(capsys, ["align-cone", "--config", str(cfg), "--max-outer", "4"])
        assert keys == CONE_FPK_REPORT_KEYS
        got = [report_value(out, k) for k in ("cfg_inner_method", "cfg_tol_eta_rad", "cfg_K", "cfg_max_outer")]
        assert got == ["fp_k", repr(math.radians(0.3)), "5", "4"]

    def test_align_cone_2dr_echoes_no_fp_k_setting(self, root, capsys):
        """--k and --max-iter do nothing under the 2dr inner solver, so the
        report does not echo them as if they had been used."""
        runs = []
        for k, max_iter in (("1", "1"), ("50", "60")):
            argv = ["align-cone", "--input", str(root / "cone.sino"), "--inner-method", "2dr", "--k", k]
            keys, out = self.report(capsys, [*argv, "--max-iter", max_iter])
            assert keys == CONE_REPORT_KEYS
            runs.append([report_value(out, key) for key in ("h_px", "eta_rad", "iterations", "mse")])
        assert runs[0] == runs[1]

    def test_align_cone_pixel_size(self, root, capsys):
        keys, _ = self.report(capsys, ["align-cone", "--input", str(root / "cone_px.sino")])
        assert keys == with_h_mm(CONE_REPORT_KEYS)

    @pytest.mark.parametrize("command", ["align-fan", "metric"])
    def test_report_file_is_stdout_for_a_non_ascii_input_path(self, tmp_path, capsys, command):
        data, report = tmp_path / "sc\u00e4n.sino", tmp_path / "rep.txt"
        assert main(["simulate", "--mode", "fan", "--n", "64", "--h", "2", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main([command, "--input", str(data), "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert f"input: {data}\n" in out
        assert report.read_text(encoding="utf-8") == out


MAIN_HELP = """\
usage: ctalign [-h] {simulate,align-fan,align-cone,metric,sweep} ...

Fan/cone-beam detector misalignment estimation.

positional arguments:
  {simulate,align-fan,align-cone,metric,sweep}
    simulate            generate misaligned data plus a ground-truth sidecar
    align-fan           estimate the shift of a fan data file
    align-cone          estimate shift and rotation of a cone data file
    metric              symmetry MSE of a data file at a candidate (h, eta)
    sweep               error table over an instability grid, CSV output

options:
  -h, --help            show this help message and exit
"""
ALIGN_FAN_HELP = """\
usage: ctalign align-fan [-h] [--config CONFIG] [--input INPUT]
                         [--report REPORT] [--method METHOD] [--k K]
                         [--max-iter MAX_ITER]

options:
  -h, --help           show this help message and exit
  --config CONFIG      key: value config file; flags override it
  --input INPUT        data file to read
  --report REPORT      also write the report to this file
  --method METHOD      estimator: yang, ly, 2dr, fp or fpk (default 2dr)
  --k K                FP_K start count
  --max-iter MAX_ITER  fixed-point iteration cap
"""
METRIC_HELP = """\
usage: ctalign metric [-h] [--config CONFIG] [--input INPUT] [--report REPORT]
                      [--h H] [--eta ETA]

options:
  -h, --help       show this help message and exit
  --config CONFIG  key: value config file; flags override it
  --input INPUT    data file to read
  --report REPORT  also write the report to this file
  --h H            detector shift in effective pixels
  --eta ETA        in-plane rotation with unit suffix, e.g. 1deg (cone only)
"""

# argv: (SystemExit code or None, return code or None, stdout, stderr), at an 80-column terminal
CLI_TEXTS = {
    (): (None, 4, "", "error: the following arguments are required: subcommand\n"),
    ("bogus",): (
        None,
        4,
        "",
        "error: argument subcommand: invalid choice: 'bogus' "
        "(choose from 'simulate', 'align-fan', 'align-cone', 'metric', 'sweep')\n",
    ),
    ("--help",): (0, None, MAIN_HELP, ""),
    ("-h", "align-fan"): (0, None, MAIN_HELP, ""),
    ("align-fan", "--help"): (0, None, ALIGN_FAN_HELP, ""),
    ("metric", "-h"): (0, None, METRIC_HELP, ""),
    ("align-fan", "--bogus"): (None, 4, "", "error: unrecognized arguments: --bogus\n"),
    ("sweep", "--h"): (None, 4, "", "error: argument --h: expected one argument\n"),
    ("align-cone", "--tol-eta", "1"): (None, 4, "", "error: argument --tol-eta: angle '1' needs a 'deg' or 'rad' suffix\n"),
    ("simulate", "--mode", "x"): (None, 4, "", "error: argument --mode: 'x' is not one of fan, cone\n"),
    ("align-fan", "--meth", "yang"): (None, 4, "", "error: an input file is required (--input)\n"),
}


class TestCliTexts:
    """Help, usage and error texts are pinned byte for byte, whichever
    subparsers a call declares."""

    @pytest.mark.parametrize("argv", list(CLI_TEXTS), ids=" ".join)
    def test_exact_output_and_exit(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        exit_code, return_code, out, err = CLI_TEXTS[argv]
        if exit_code is None:
            assert main(list(argv)) == return_code
        else:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == exit_code
        assert capsys.readouterr() == (out, err)


class TestProcessExitCodes:
    """`python -m ctalign.cli` exits with the code main returns."""

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["align-fan", "--bogus"], 4), (["align-fan", "--input", "missing.sino"], 3)],
        ids=["help", "unknown-flag", "missing-input"],
    )
    def test_exit_code(self, tmp_path, argv, code):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "ctalign.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == code, done.stderr
        assert done.stderr.startswith("error: ") == (code != 0)


# add_argument calls a main call of each subcommand makes; 46 declare all five
DECLARATIONS = {"simulate": 14, "align-fan": 8, "align-cone": 10, "metric": 7, "sweep": 11}
# bare, each subcommand but sweep fails with exit 4 before any work
CONFIG_ERRORS = {"sweep": ["--alphas", ""]}


@pytest.fixture
def declarations(monkeypatch):
    """The running count of argparse add_argument calls."""
    count = [0]
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        count[0] += 1
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    return count


def subparser_options(parser, command):
    sub = parser._subparsers._group_actions[0].choices[command]
    return [(a.option_strings, a.dest, a.type, a.const, a.help) for a in sub._actions]


class TestParserDeclarations:
    """A call declares only the subparser it runs, and declares it again on
    every call: nothing is cached across calls."""

    @pytest.mark.parametrize("command", list(DECLARATIONS))
    def test_a_call_declares_its_subcommand_only(self, declarations, capsys, command):
        for _ in range(2):
            assert main([command, *CONFIG_ERRORS.get(command, [])]) == 4
        assert declarations[0] == 2 * DECLARATIONS[command]

    def test_main_reads_sys_argv(self, declarations, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["ctalign", "metric", "--bogus"])
        assert main() == 4
        assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"
        assert declarations[0] == DECLARATIONS["metric"]

    def test_full_parser_declares_every_subcommand(self, declarations):
        build_parser()
        assert declarations[0] == 46 == 1 + sum(DECLARATIONS.values()) - len(DECLARATIONS)

    @pytest.mark.parametrize("command", list(DECLARATIONS))
    def test_subparser_options_equal_the_full_parsers(self, command):
        parser = build_parser(command)
        assert list(parser._subparsers._group_actions[0].choices) == [command]
        assert subparser_options(parser, command) == subparser_options(build_parser(), command)
