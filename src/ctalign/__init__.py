"""Detector misalignment estimation for fan- and cone-beam CT.

Estimates the horizontal detector shift h (in effective pixels) and, for
cone-beam data, the in-plane detector rotation eta directly from projection
data, using the redundancy of a full-circle acquisition: every consistent
fan sinogram satisfies g(s, b) = g(-s, b + pi + 2*atan(s/r)).  Ships an
analytic simulator for validation and a CLI (`ctalign`) around both.
"""

from .cone_align import (
    VPConfig,
    inner_h,
    lambda_eta,
    loss_L,
    pi_h_eta,
    variable_projection,
)
from .core import (
    AlignmentResult,
    ConeGeometry,
    FanGeometry,
    ProjectionStack,
    Sinogram,
    unit_disk_half_width,
    wrap_angle,
)
from .fan_align import (
    FanAlignConfig,
    align_fan,
    profile_p,
    reflected_resampling,
    symmetry_mse,
)
from .io_cli import (
    ConfigError,
    FormatError,
    RunConfig,
    read_sinogram,
    write_sinogram,
)
from .registration import (
    AmbiguousShiftError,
    sample_detector,
    sample_periodic,
    xcorr_shift_1d,
    xcorr_shift_rows,
    xcorr_shift_s_2d,
)
from .simulate import (
    InstabilityModel,
    Phantom3D,
    cone_line_integral,
    cone_project,
    fan_project,
    make_disk_phantom,
    make_sphere_phantom,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "AmbiguousShiftError",
    "ConeGeometry",
    "ConfigError",
    "FanAlignConfig",
    "FanGeometry",
    "FormatError",
    "InstabilityModel",
    "Phantom3D",
    "ProjectionStack",
    "RunConfig",
    "Sinogram",
    "VPConfig",
    "align_fan",
    "cone_line_integral",
    "cone_project",
    "fan_project",
    "inner_h",
    "lambda_eta",
    "loss_L",
    "make_disk_phantom",
    "make_sphere_phantom",
    "pi_h_eta",
    "profile_p",
    "read_sinogram",
    "reflected_resampling",
    "sample_detector",
    "sample_periodic",
    "symmetry_mse",
    "unit_disk_half_width",
    "variable_projection",
    "wrap_angle",
    "write_sinogram",
    "xcorr_shift_1d",
    "xcorr_shift_rows",
    "xcorr_shift_s_2d",
]
