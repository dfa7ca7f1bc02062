"""Cell contours: canonical vertex placement and membership tests.

The three supported contours are an equilateral triangle (60 degree
sector), a 120 degree rhombus (two sectors) and the full hexagon.  They
are placed so that every sampling expression in :mod:`hexdrop.sampler`
holds as written: the triangle has its base on the x-axis, the hexagon
is flat-side-up and centred on the base station, and the rhombus is the
0-120 degree pair of hexagon sectors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)


class CellShape(str, enum.Enum):
    TRIANGLE60 = "triangle60"
    RHOMBUS120 = "rhombus120"
    HEXAGON = "hexagon"


@dataclass(frozen=True)
class CellGeometry:
    """A cell contour: shape tag plus side length in metres."""

    shape: CellShape
    side: float

    def __post_init__(self):
        object.__setattr__(self, "shape", CellShape(self.shape))
        object.__setattr__(self, "side", float(self.side))
        if not (math.isfinite(self.side) and self.side > 0.0):
            raise ValueError(f"side must be positive and finite, got {self.side}")


def shape_vertices(geom: CellGeometry) -> np.ndarray:
    """Vertex list in counter-clockwise order, shape (n, 2)."""
    L = geom.side
    h = SQRT3 * L / 2.0
    if geom.shape is CellShape.TRIANGLE60:
        pts = [(0.0, 0.0), (L, 0.0), (L / 2.0, h)]
    elif geom.shape is CellShape.RHOMBUS120:
        pts = [(0.0, 0.0), (L, 0.0), (L / 2.0, h), (-L / 2.0, h)]
    else:
        pts = [
            (L, 0.0),
            (L / 2.0, h),
            (-L / 2.0, h),
            (-L, 0.0),
            (-L / 2.0, -h),
            (L / 2.0, -h),
        ]
    return np.array(pts, dtype=float)


def x_range(geom: CellGeometry) -> tuple[float, float]:
    """Closed range of x covered by the contour."""
    L = geom.side
    if geom.shape is CellShape.TRIANGLE60:
        return 0.0, L
    if geom.shape is CellShape.RHOMBUS120:
        return -L / 2.0, L
    return -L, L


def chord_y_bounds(geom: CellGeometry, x):
    """Lower and upper y of the vertical chord at abscissa x.

    x may be a scalar or an array inside :func:`x_range`; the bounds
    collapse to a point at extreme vertices.
    """
    x = np.asarray(x, dtype=float)
    L = geom.side
    h = SQRT3 * L / 2.0
    if geom.shape is CellShape.TRIANGLE60:
        lo = np.zeros_like(x)
        hi = SQRT3 * np.minimum(x, L - x)
    elif geom.shape is CellShape.RHOMBUS120:
        lo = np.where(x < 0.0, -SQRT3 * x, 0.0)
        hi = np.where(x <= L / 2.0, h, SQRT3 * (L - x))
    else:
        half = np.where(np.abs(x) <= L / 2.0, h, SQRT3 * (L - np.abs(x)))
        lo, hi = -half, half
    return lo, hi


def point_in_shape(geom: CellGeometry, p) -> bool | np.ndarray:
    """Half-plane membership against the contour edges.

    Boundary points count as inside; a relative slack of 1e-12 * side**2
    absorbs the rounding of points constructed on an edge.  Accepts a
    single (x, y) pair or an (n, 2) array.
    """
    pts = np.asarray(p, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    verts = shape_vertices(geom)
    eps = 1e-12 * geom.side * geom.side
    inside = np.ones(len(pts), dtype=bool)
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cross = (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax)
        inside &= cross >= -eps
    return bool(inside[0]) if scalar else inside
