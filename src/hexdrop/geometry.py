"""Cell contours and exact uniform position sampling inside them.

The three supported contours are an equilateral triangle (60 degree
sector), a 120 degree rhombus (two sectors) and the full hexagon.  They
are placed so that every sampling expression below holds as written:
the triangle has its base on the x-axis, the hexagon is flat-side-up and
centred on the base station, and the rhombus is the 0-120 degree pair of
hexagon sectors.

Points are generated by inverse-transform sampling: the x coordinate is
drawn through the piecewise inverse of its marginal CDF, then y is drawn
uniformly on the vertical chord at that x.  The piecewise inverses below
follow from the uniform joint density 1/area; each piece agrees with its
neighbour at the junction, so the inverse is continuous on (0, 1).

Each shape is stated in three places only: its vertices, its chord
bounds and its inverse marginal.  The marginal CDF is derived from the
first two, so it holds for every shape alike.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .rng import VariateStream

SQRT3 = math.sqrt(3.0)

# Rows per block of every n-length pass over a drop (sampling, the KS test,
# the spatial bins, the CSV writer): the temporaries of a pass stay a few
# blocks long however many terminals are dropped.
BLOCK = 65536


def check_side(side: float) -> float:
    """The cell side as a float; raises ValueError unless it and sqrt(3) times it are positive and finite."""
    side = float(side)
    if not (math.isfinite(side) and side > 0.0):
        raise ValueError(f"side must be positive and finite, got {side}")
    if math.isinf(SQRT3 * side):
        raise ValueError(f"side {side} is too large: sqrt(3) * side overflows")
    return side


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
        object.__setattr__(self, "side", check_side(self.side))


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


def chord_y_bounds(geom: CellGeometry, x):
    """Lower and upper y of the vertical chord at abscissa x.

    x may be a scalar or an array between the extreme vertex abscissae;
    the bounds collapse to a point at extreme vertices.  A bound that
    follows two edges is the minimum or maximum of their lines, so no branch
    depends on x, and it equals the edge-by-edge bound bit for bit: rounding
    is monotone, and a flat edge's h = fl(sqrt(3) * (L/2)) is the value of
    the sloped edge's line where the two meet.
    """
    x = np.asarray(x, dtype=float)
    L = geom.side
    h = SQRT3 * L / 2.0
    if geom.shape is CellShape.TRIANGLE60:
        lo = np.zeros_like(x)
        hi = SQRT3 * np.minimum(x, L - x)
    elif geom.shape is CellShape.RHOMBUS120:
        # 0 - y, not -y: at x = +0.0 both operands are then +0.0, whichever one a tie keeps
        lo = np.maximum(0.0 - SQRT3 * x, 0.0)
        # L - x reaches 1.5 L, where sqrt(3) (L - x) can overflow; capped at L,
        # whose product check_side keeps finite, it still lies at or above h
        hi = np.minimum(SQRT3 * np.minimum(L - x, L), h)
    else:
        hi = np.minimum(SQRT3 * (L - np.abs(x)), h)
        lo = -hi
    return lo, hi


def point_in_shape(geom: CellGeometry, p) -> bool | np.ndarray:
    """Half-plane membership against the contour edges.

    The test runs in units of the side, against the unit cell, so no side
    overflows it.  Boundary points count as inside; a slack of 1e-12
    absorbs the rounding of points constructed on an edge.  Accepts a
    single (x, y) pair or an (n, 2) array.
    """
    pts = np.asarray(p, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts) / geom.side
    verts = shape_vertices(CellGeometry(geom.shape, 1.0))
    inside = np.ones(len(pts), dtype=bool)
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cross = (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax)
        inside &= cross >= -1e-12
    return bool(inside[0]) if scalar else inside


def sample_x(geom: CellGeometry, u):
    """Inverse marginal CDF of the x coordinate.

    Piecewise inverses (side L, variate u):

    * triangle60:  L*sqrt(u/2)                 for u <= 1/2
                   L*(1 - sqrt((1-u)/2))       for u >= 1/2
    * rhombus120:  (L/2)*(2*sqrt(u) - 1)       for u <= 1/4
                   L*(u - 1/4)                 for 1/4 <= u <= 3/4
                   L*(1 - sqrt(1-u))           for u >= 3/4
    * hexagon:     L*(sqrt(3u/2) - 1)          for u <= 1/6
                   (3L/4)*(2u - 1)             for 1/6 <= u <= 5/6
                   L*(1 - sqrt(3(1-u)/2))      for u >= 5/6

    Each piece is evaluated on every lane, multiplied by its lane's mask
    (0 or 1) and the products are summed, so no branch depends on u.  The
    off-piece products are +-0.0, and no piece is -0.0 on its own interval,
    so the sum equals the formulas above bit for bit.  The outer pieces
    share one square root: min(u, 1 - u) is u below 1/2 and the exact 1 - u
    above it.

    Scalar or array u; raises ValueError outside the open unit interval.
    """
    arr = np.asarray(u, dtype=float)
    if not ((arr > 0.0) & (arr < 1.0)).all():
        raise ValueError("uniform variate must lie strictly inside (0, 1)")
    L = geom.side
    # the factor under the outer pieces' root, the two junctions, the lower
    # piece as a function of that root and the middle piece as one of u
    c, a, b, lower, middle = {
        CellShape.TRIANGLE60: (0.5, 0.5, 0.5, lambda r: L * r, None),
        CellShape.RHOMBUS120: (
            1.0, 0.25, 0.75, lambda r: (L / 2.0) * (2.0 * r - 1.0), lambda v: L * (v - 0.25)
        ),
        CellShape.HEXAGON: (
            1.5, 1.0 / 6.0, 5.0 / 6.0, lambda r: L * (r - 1.0), lambda v: 0.75 * L * (2.0 * v - 1.0)
        ),
    }[geom.shape]
    v = np.atleast_1d(arr)
    r = np.minimum(v, 1.0 - v)
    r *= c
    np.sqrt(r, out=r)
    x = lower(r)
    x *= v <= a
    np.subtract(1.0, r, out=r)  # the upper piece, L * (1 - r), for every shape
    r *= L
    r *= v > b
    x += r
    if middle is not None:
        r = middle(v)
        r *= (v > a) & (v <= b)
        x += r
    return float(x[0]) if np.ndim(u) == 0 else x


def sample_points(geom: CellGeometry, stream: VariateStream, n: int) -> np.ndarray:
    """n uniform points as an (n, 2) array: x from n x-uniforms through
    :func:`sample_x`, then y = lo + (hi - lo) * u on the chord at x from n
    y-uniforms, drawn in that order so that a seed fixes the result.

    Each column is filled BLOCK rows at a time, and the x-uniforms are
    freed before the y-uniforms are drawn.
    """
    u = stream.uniforms(n)
    xy = np.empty((len(u), 2))
    for a in range(0, len(u), BLOCK):
        rows = slice(a, a + BLOCK)
        xy[rows, 0] = sample_x(geom, u[rows])
    del u
    u = stream.uniforms(n)
    for a in range(0, len(u), BLOCK):
        rows = slice(a, a + BLOCK)
        lo, hi = chord_y_bounds(geom, xy[rows, 0])
        xy[rows, 1] = lo + (hi - lo) * u[rows]
    return xy


def marginal_x_cdf(geom: CellGeometry, x):
    """CDF of the x coordinate: the integral of chord width over area.

    The chord width is linear between consecutive vertex abscissae, so the
    integral is a sum of whole trapezoids plus the partial one ending at x.
    Both come from one expression, so the CDF is exactly 0.0 at and below
    the leftmost vertex and exactly 1.0 at and above the rightmost one; a
    NaN x gives NaN.
    """
    arr = np.asarray(x, dtype=float)
    knots = np.unique(shape_vertices(geom)[:, 0])
    lo, hi = chord_y_bounds(geom, knots)
    width = hi - lo
    run = np.diff(knots)
    slope = np.diff(width) / run

    def trapezoid(i, dx):  # area over [knots[i], knots[i] + dx]
        return dx * (width[i] + slope[i] * dx / 2.0)

    cum = np.concatenate([[0.0], np.cumsum(trapezoid(np.arange(len(run)), run))])
    i = np.zeros(arr.shape, dtype=np.intp)  # the piece holding x
    for k in knots[1:-1]:
        i += arr >= k
    cdf = (cum[i] + trapezoid(i, np.clip(arr, knots[0], knots[-1]) - knots[i])) / cum[-1]
    return float(cdf) if np.ndim(x) == 0 else cdf
