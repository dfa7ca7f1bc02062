"""Distance law between the base station and a uniform drop.

For a uniform drop in a 60 degree sector of side L (and therefore for the
rhombus and the full hexagon, which repeat that sector), the polar joint
density is 4r/(sqrt(3) L^2) and the separation r has the marginal

    f(r) = 4 pi r / (3 sqrt(3) L^2)                      0 <= r <= sqrt(3)L/2
    f(r) = 8 r / (sqrt(3) L^2) * (asin(sqrt(3)L/(2r)) - pi/3)
                                                         sqrt(3)L/2 <= r <= L

with the breakpoint at the inscribed radius sqrt(3)L/2.
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)


def _check_side(side: float) -> float:
    if not side > 0.0:
        raise ValueError(f"side must be positive, got {side}")
    return float(side)


def radial_pdf(side: float, r):
    """Marginal density of the separation r; zero beyond r = L."""
    L = _check_side(side)
    arr = np.asarray(r, dtype=float)
    if (arr < 0.0).any():
        raise ValueError("r must be nonnegative")
    knee = SQRT3 * L / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = (
            8.0
            * arr
            / (SQRT3 * L * L)
            * (np.arcsin(np.clip(knee / np.where(arr > 0.0, arr, 1.0), -1.0, 1.0)) - math.pi / 3.0)
        )
    pdf = np.select(
        [arr <= knee, arr <= L],
        [4.0 * math.pi * arr / (3.0 * SQRT3 * L * L), outer],
        default=0.0,
    )
    return float(pdf) if np.ndim(r) == 0 else pdf


def radial_cdf(side: float, r):
    """CDF of the separation.

    The inner piece integrates to 2 pi r^2 / (3 sqrt(3) L^2); the outer
    piece uses the antiderivative of r*(asin(c/r) - pi/3),

        (r^2/2) asin(c/r) + (c/2) sqrt(r^2 - c^2) - pi r^2 / 6,

    which the tests cross-check against adaptive quadrature.
    """
    L = _check_side(side)
    arr = np.asarray(r, dtype=float)
    c = SQRT3 * L / 2.0
    inner_mass = math.pi / (2.0 * SQRT3)  # CDF at the breakpoint

    rs = np.clip(arr, c, L)
    with np.errstate(invalid="ignore"):
        g = (
            0.5 * rs * rs * np.arcsin(np.clip(c / rs, -1.0, 1.0))
            + 0.5 * c * np.sqrt(np.maximum(rs * rs - c * c, 0.0))
            - math.pi * rs * rs / 6.0
        )
    g_knee = math.pi * L * L / 16.0
    outer = inner_mass + (8.0 / (SQRT3 * L * L)) * (g - g_knee)

    cdf = np.select(
        [arr <= 0.0, arr <= c, arr <= L],
        [0.0, 2.0 * math.pi * arr * arr / (3.0 * SQRT3 * L * L), outer],
        default=1.0,
    )
    return float(cdf) if np.ndim(r) == 0 else cdf
