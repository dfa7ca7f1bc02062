"""hexdrop: exact node dropping in hexagonal cells and the closed-form
density of path loss with log-normal shadowing."""

from .density import (
    DensityModel,
    exponent_merge_identity,
    pathloss_pdf,
    shadowed_cdf,
    shadowed_pdf,
    shadowed_pdf_conv,
)
from .geometry import CellGeometry, CellShape, point_in_shape, shape_area, shape_vertices
from .numerics import (
    ArcsineGaussParams,
    NonConvergenceError,
    SeriesDivergenceError,
    adaptive_simpson,
    arcsine_gauss_integral,
    q_function,
)
from .pathloss import PathLossParams, mean_pathloss
from .presets import (
    BUILTIN_PRESETS,
    ChannelPreset,
    UnknownPresetError,
    load_preset,
    preset_names,
    validate_cell_radius,
)
from .radial import radial_cdf, radial_pdf
from .rng import GENERATOR_LABEL, VariateStream
from .sampler import marginal_x_cdf, sample_points, sample_x, sample_y_given_x
from .verify import (
    DropTable,
    VerifyReport,
    ks_test,
    run_drop,
    run_verification,
    spatial_chi_square,
)

__version__ = "0.1.0"

__all__ = [
    "ArcsineGaussParams",
    "BUILTIN_PRESETS",
    "CellGeometry",
    "CellShape",
    "ChannelPreset",
    "DensityModel",
    "DropTable",
    "GENERATOR_LABEL",
    "NonConvergenceError",
    "PathLossParams",
    "SeriesDivergenceError",
    "UnknownPresetError",
    "VariateStream",
    "VerifyReport",
    "adaptive_simpson",
    "arcsine_gauss_integral",
    "exponent_merge_identity",
    "ks_test",
    "load_preset",
    "marginal_x_cdf",
    "mean_pathloss",
    "pathloss_pdf",
    "point_in_shape",
    "preset_names",
    "q_function",
    "radial_cdf",
    "radial_pdf",
    "run_drop",
    "run_verification",
    "sample_points",
    "sample_x",
    "sample_y_given_x",
    "shadowed_cdf",
    "shadowed_pdf",
    "shadowed_pdf_conv",
    "shape_area",
    "shape_vertices",
    "spatial_chi_square",
    "validate_cell_radius",
]
