import os
import subprocess
import sys
from pathlib import Path

import hexdrop

PUBLIC = [
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


def test_public_names():
    assert sorted(hexdrop.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(hexdrop, name) is not None


def test_cli_import_exposes_the_modules():
    # bench/tracing.py reaches the layers as attributes of the package
    env = dict(os.environ, PYTHONPATH=str(Path(hexdrop.__file__).resolve().parents[1]))
    code = (
        "import hexdrop, hexdrop.cli; "
        "print(all(hasattr(hexdrop, m) for m in ('rng', 'presets', 'geometry', 'density', 'verify')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"
