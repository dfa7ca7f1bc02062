import math

import numpy as np
import pytest
from scipy import integrate

from hexdrop import (
    CellGeometry,
    CellShape,
    VariateStream,
    marginal_x_cdf,
    point_in_shape,
    sample_points,
    sample_x,
)
from hexdrop.geometry import sample_y_given_x, shape_vertices, x_range

from conftest import ALL_SHAPES
from test_geometry import _chord_from_edges, shoelace

SQRT3 = math.sqrt(3.0)

# the closed-form inverse pieces, written out so junction agreement is
# checked formula against formula
PIECES = {
    CellShape.TRIANGLE60: [
        (0.5, lambda u, L: L * math.sqrt(u / 2.0), lambda u, L: L * (1 - math.sqrt((1 - u) / 2.0))),
    ],
    CellShape.RHOMBUS120: [
        (0.25, lambda u, L: L / 2.0 * (2.0 * math.sqrt(u) - 1.0), lambda u, L: L * (u - 0.25)),
        (0.75, lambda u, L: L * (u - 0.25), lambda u, L: L * (1.0 - math.sqrt(1.0 - u))),
    ],
    CellShape.HEXAGON: [
        (1.0 / 6.0, lambda u, L: L * (math.sqrt(1.5 * u) - 1.0), lambda u, L: 0.75 * L * (2.0 * u - 1.0)),
        (5.0 / 6.0, lambda u, L: 0.75 * L * (2.0 * u - 1.0), lambda u, L: L * (1.0 - math.sqrt(1.5 * (1.0 - u)))),
    ],
}


@pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.5])
def test_sample_x_rejects_closed_interval(u):
    with pytest.raises(ValueError):
        sample_x(CellGeometry(CellShape.HEXAGON, 1.0), u)


def test_sample_x_known_values():
    tri = CellGeometry(CellShape.TRIANGLE60, 1.0)
    assert sample_x(tri, 0.125) == pytest.approx(0.25, abs=1e-15)
    rho = CellGeometry(CellShape.RHOMBUS120, 1.0)
    assert sample_x(rho, 0.25) == pytest.approx(0.0, abs=1e-15)
    assert sample_x(rho, 0.75) == pytest.approx(0.5, abs=1e-15)
    hexa = CellGeometry(CellShape.HEXAGON, 1.0)
    assert sample_x(hexa, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert sample_x(hexa, 1.0 / 6.0) == pytest.approx(-0.5, abs=1e-14)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("side", [1.0, 730.0])
def test_piece_boundary_continuity(shape, side):
    for u_star, left, right in PIECES[shape]:
        assert abs(left(u_star, side) - right(u_star, side)) <= 1e-12 * side
        assert abs(sample_x(CellGeometry(shape, side), u_star) - left(u_star, side)) <= 1e-12 * side


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_sample_x_strictly_increasing(shape):
    geom = CellGeometry(shape, 1.0)
    u = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
    x = sample_x(geom, u)
    assert (np.diff(x) > 0.0).all()


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_cdf_round_trip(shape):
    geom = CellGeometry(shape, 1.0)
    u = VariateStream(31).uniforms(1000)
    x = sample_x(geom, u)
    assert np.max(np.abs(marginal_x_cdf(geom, x) - u)) < 1e-10


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_marginal_matches_chord_quadrature(shape):
    """The analytic marginal CDF equals the integral of chord width / area."""
    L = 1.3
    geom = CellGeometry(shape, L)
    lo_x, hi_x = x_range(geom)
    area = shoelace(shape_vertices(geom))
    kinks = [-L, -L / 2.0, 0.0, L / 2.0, L]

    def width(x):
        lo, hi = _chord_from_edges(geom, x)
        return (hi - lo) / area

    for x in np.linspace(lo_x + 1e-6, hi_x, 23):
        pts = [k for k in kinks if lo_x < k < x]
        ref, err = integrate.quad(width, lo_x, x, points=pts, epsabs=1e-12, limit=200)
        assert marginal_x_cdf(geom, x) == pytest.approx(ref, abs=1e-9)


def test_sample_y_examples():
    tri = CellGeometry(CellShape.TRIANGLE60, 1.0)
    assert sample_y_given_x(tri, 0.5, 0.5) == pytest.approx(SQRT3 / 4.0, abs=1e-15)
    hexa = CellGeometry(CellShape.HEXAGON, 1.0)
    assert sample_y_given_x(hexa, 0.0, 1e-12) == pytest.approx(-SQRT3 / 2.0, abs=1e-9)
    assert sample_y_given_x(hexa, 0.0, 1.0 - 1e-12) == pytest.approx(SQRT3 / 2.0, abs=1e-9)
    # slanted-edge chord at x0 = 0.9: half-width sqrt(3)*0.1
    hi = sample_y_given_x(hexa, 0.9, 1.0 - 1e-12)
    assert hi == pytest.approx(SQRT3 * 0.1, abs=1e-9)


def test_sample_y_rejects_x_outside_range():
    with pytest.raises(ValueError):
        sample_y_given_x(CellGeometry(CellShape.TRIANGLE60, 1.0), 1.2, 0.5)
    with pytest.raises(ValueError):
        sample_y_given_x(CellGeometry(CellShape.HEXAGON, 1.0), -1.01, 0.5)


def test_rhombus_conditional_supports():
    rho = CellGeometry(CellShape.RHOMBUS120, 1.0)
    # left wing: lower bound is +sqrt(3)|x0|, upper is the top edge
    y_lo = sample_y_given_x(rho, -0.25, 1e-15)
    y_hi = sample_y_given_x(rho, -0.25, 1.0 - 1e-15)
    assert y_lo == pytest.approx(SQRT3 * 0.25, abs=1e-12)
    assert y_hi == pytest.approx(SQRT3 / 2.0, abs=1e-12)
    # right wing: chord collapses toward the far vertex
    assert sample_y_given_x(rho, 0.9, 1.0 - 1e-15) == pytest.approx(SQRT3 * 0.1, abs=1e-12)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_points_contained_and_scalar_path_agrees(shape):
    geom = CellGeometry(shape, 2.5)
    stream = VariateStream(9)
    pts = sample_points(geom, stream, 20_000)
    assert point_in_shape(geom, pts).all()
    # one point from the scalar inverses matches a one-point array drop
    ux, uy = VariateStream(9).uniforms(2)
    x = sample_x(geom, float(ux))
    y = sample_y_given_x(geom, x, float(uy))
    assert isinstance(x, float) and isinstance(y, float)
    assert (x, y) == tuple(sample_points(geom, VariateStream(9), 1)[0])
    assert point_in_shape(geom, (x, y))


def test_hexagon_statistics():
    geom = CellGeometry(CellShape.HEXAGON, 1.0)
    pts = sample_points(geom, VariateStream(42), 100_000)
    n = len(pts)
    # symmetry: the x mean is 0 within 3 sigma/sqrt(n); Var(X) = 5/24
    sigma_x = math.sqrt(5.0 / 24.0)
    assert abs(pts[:, 0].mean()) < 3.0 * sigma_x / math.sqrt(n)
    # inscribed-circle content: pi/(2 sqrt(3)) of the samples
    frac = np.mean(np.hypot(pts[:, 0], pts[:, 1]) <= SQRT3 / 2.0)
    assert frac == pytest.approx(math.pi / (2.0 * SQRT3), abs=0.003)
