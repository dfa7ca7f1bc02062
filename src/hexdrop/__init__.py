"""hexdrop: exact node dropping in hexagonal cells and the closed-form
density of path loss with log-normal shadowing."""

from .density import (
    DensityModel,
    pathloss_pdf,
    shadowed_cdf,
    shadowed_pdf,
    shadowed_pdf_conv,
)
from .geometry import CellGeometry, CellShape, point_in_shape
from .numerics import (
    ArcsineGaussParams,
    NonConvergenceError,
    SeriesDivergenceError,
    arcsine_gauss_integral,
)
from .pathloss import PathLossParams
from .presets import UnknownPresetError, load_preset
from .radial import radial_cdf, radial_pdf
from .rng import VariateStream
from .sampler import marginal_x_cdf, sample_points, sample_x
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
