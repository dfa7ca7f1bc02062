"""hexdrop: exact node dropping in hexagonal cells and the closed-form
density of path loss with log-normal shadowing."""

from .density import (
    DensityModel,
    pathloss_pdf,
    radial_cdf,
    radial_pdf,
    shadowed_cdf,
    shadowed_pdf,
    shadowed_pdf_conv,
)
from .geometry import CellGeometry, CellShape, marginal_x_cdf, point_in_shape, sample_points, sample_x
from .numerics import (
    ArcsineGaussParams,
    NonConvergenceError,
    SeriesDivergenceError,
    arcsine_gauss_integral,
)
from .pathloss import PathLossParams
from .presets import UnknownPresetError, load_preset
from .rng import VariateStream
from .verify import ks_test, run_drop, spatial_chi_square

__version__ = "0.1.0"

__all__ = [
    "ArcsineGaussParams",
    "CellGeometry",
    "CellShape",
    "DensityModel",
    "NonConvergenceError",
    "PathLossParams",
    "SeriesDivergenceError",
    "UnknownPresetError",
    "VariateStream",
    "arcsine_gauss_integral",
    "ks_test",
    "load_preset",
    "marginal_x_cdf",
    "pathloss_pdf",
    "point_in_shape",
    "radial_cdf",
    "radial_pdf",
    "run_drop",
    "sample_points",
    "sample_x",
    "shadowed_cdf",
    "shadowed_pdf",
    "shadowed_pdf_conv",
    "spatial_chi_square",
]
