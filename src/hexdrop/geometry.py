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


def chord_y_bounds(geom: CellGeometry, x, out=None):
    """Lower and upper y of the vertical chord at abscissa x.

    x may be a scalar or an array between the extreme vertex abscissae;
    the bounds collapse to a point at extreme vertices.  A bound that
    follows two edges is the minimum or maximum of their lines, so no branch
    depends on x, and it equals the edge-by-edge bound bit for bit: rounding
    is monotone, and a flat edge's h = fl(sqrt(3) * (L/2)) is the value of
    the sloped edge's line where the two meet.

    out, if given, is a pair (lo, hi) of float arrays of x's shape that
    receive the bounds, as with a two-output numpy ufunc; each bound is
    formed in place in its own array, so the call allocates nothing.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = (np.empty_like(x), np.empty_like(x)) if out is None else out
    L = geom.side
    h = SQRT3 * L / 2.0
    if geom.shape is CellShape.TRIANGLE60:
        lo.fill(0.0)
        np.minimum(x, np.subtract(L, x, out=hi), out=hi)
        hi *= SQRT3
    elif geom.shape is CellShape.RHOMBUS120:
        # 0 - y, not -y: at x = +0.0 both operands are then +0.0, whichever one a tie keeps
        np.maximum(np.subtract(0.0, np.multiply(SQRT3, x, out=lo), out=lo), 0.0, out=lo)
        # L - x reaches 1.5 L, where sqrt(3) (L - x) can overflow; capped at L,
        # whose product check_side keeps finite, it still lies at or above h
        np.minimum(np.subtract(L, x, out=hi), L, out=hi)
        hi *= SQRT3
        np.minimum(hi, h, out=hi)
    else:
        np.subtract(L, np.abs(x, out=hi), out=hi)
        hi *= SQRT3
        np.minimum(hi, h, out=hi)
        np.negative(hi, out=lo)
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


def sample_x(geom: CellGeometry, u, out=None):
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
    out, if given, is a pair (x, work) of float arrays of u's shape: x is
    formed in place in out[0], which is returned, while out[1] holds the
    shared root and then the middle piece, so the call allocates no float
    array, only the 1-byte masks.
    """
    arr = np.asarray(u, dtype=float)
    if not (np.min(arr, initial=0.5) > 0.0 and np.max(arr, initial=0.5) < 1.0):  # NaN fails both
        raise ValueError("uniform variate must lie strictly inside (0, 1)")
    L = geom.side
    # the factor under the outer pieces' root and the two junctions
    c, a, b = {
        CellShape.TRIANGLE60: (0.5, 0.5, 0.5),
        CellShape.RHOMBUS120: (1.0, 0.25, 0.75),
        CellShape.HEXAGON: (1.5, 1.0 / 6.0, 5.0 / 6.0),
    }[geom.shape]
    v = np.atleast_1d(arr)
    x, r = (np.empty_like(v), np.empty_like(v)) if out is None else out
    np.minimum(v, np.subtract(1.0, v, out=r), out=r)
    r *= c
    np.sqrt(r, out=r)
    # the lower piece as a function of the root
    if geom.shape is CellShape.TRIANGLE60:
        np.multiply(L, r, out=x)  # L r
    elif geom.shape is CellShape.RHOMBUS120:
        np.subtract(np.multiply(2.0, r, out=x), 1.0, out=x)  # (L/2)(2r - 1)
        x *= L / 2.0
    else:
        np.subtract(r, 1.0, out=x)  # L (r - 1)
        x *= L
    x *= v <= a
    np.subtract(1.0, r, out=r)  # the upper piece, L * (1 - r), for every shape
    r *= L
    r *= v > b
    x += r
    if geom.shape is not CellShape.TRIANGLE60:  # the middle piece, a function of u
        if geom.shape is CellShape.RHOMBUS120:
            np.subtract(v, 0.25, out=r)  # L (u - 1/4)
            r *= L
        else:
            np.subtract(np.multiply(2.0, v, out=r), 1.0, out=r)  # (3L/4)(2u - 1)
            r *= 0.75 * L
        r *= v > a  # a product by each mask has the bits of one by their conjunction
        r *= v <= b
        x += r
    return float(x[0]) if np.ndim(u) == 0 else x


def sample_points(geom: CellGeometry, stream: VariateStream, n: int) -> np.ndarray:
    """n uniform points as an (n, 2) array: x from n x-uniforms through
    :func:`sample_x`, then y = lo + (hi - lo) * u on the chord at x from n
    y-uniforms, drawn in that order so that a seed fixes the result.

    Each column is filled BLOCK rows at a time.  A block's uniforms are
    drawn into one buffer, and the kernels work in two more (out=), all
    three allocated once per call, so the call holds three blocks beside
    the result.  Each block's :meth:`VariateStream.uniforms` call redraws
    its own exact zeros (probability 2**-53 per draw), so the positions
    differ from those of two n-draw calls only where a zero is drawn.
    """
    xy = np.empty((n, 2))
    m = min(n, BLOCK)
    u, w1, w2 = np.empty(m), np.empty(m), np.empty(m)
    for s in range(0, n, BLOCK):
        k = min(BLOCK, n - s)
        xy[s : s + k, 0] = sample_x(geom, stream.uniforms(k, out=u[:k]), out=(w1[:k], w2[:k]))
    for s in range(0, n, BLOCK):
        k = min(BLOCK, n - s)
        lo, hi = chord_y_bounds(geom, xy[s : s + k, 0], out=(w1[:k], w2[:k]))
        hi -= lo
        hi *= stream.uniforms(k, out=u[:k])
        hi += lo  # lo + (hi - lo) u
        xy[s : s + k, 1] = hi
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
