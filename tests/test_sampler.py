import math
import tracemalloc
import warnings

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
from hexdrop.geometry import BLOCK, check_side, chord_y_bounds, shape_vertices

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


def _reference_x(shape, L, u):
    # the docstring's piecewise inverses, each piece picked by np.select or np.where
    if shape is CellShape.TRIANGLE60:
        return np.where(u <= 0.5, L * np.sqrt(u / 2.0), L * (1.0 - np.sqrt((1.0 - u) / 2.0)))
    if shape is CellShape.RHOMBUS120:
        return np.select(
            [u <= 0.25, u <= 0.75],
            [(L / 2.0) * (2.0 * np.sqrt(u) - 1.0), L * (u - 0.25)],
            default=L * (1.0 - np.sqrt(1.0 - u)),
        )
    return np.select(
        [u <= 1.0 / 6.0, u <= 5.0 / 6.0],
        [L * (np.sqrt(1.5 * u) - 1.0), 0.75 * L * (2.0 * u - 1.0)],
        default=L * (1.0 - np.sqrt(1.5 * (1.0 - u))),
    )


def _reference_bounds(shape, L, x):
    # the chord bounds edge by edge, each picked by np.where
    h = SQRT3 * L / 2.0
    if shape is CellShape.TRIANGLE60:
        return np.zeros_like(x), SQRT3 * np.minimum(x, L - x)
    if shape is CellShape.RHOMBUS120:
        return np.where(x < 0.0, -SQRT3 * x, 0.0), np.where(x <= L / 2.0, h, SQRT3 * (L - x))
    half = np.where(np.abs(x) <= L / 2.0, h, SQRT3 * (L - np.abs(x)))
    return -half, half


def _bits(v):
    # int64 views, so that +0.0 and -0.0 differ
    return np.asarray(v, dtype=float).view(np.int64)


JUNCTIONS = np.array([1.0 / 6.0, 0.25, 0.5, 0.75, 5.0 / 6.0])


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("side", [1.0, 300.0, 1000.0, 1732.5])
def test_branch_free_kernels_are_bit_identical_to_the_piecewise_formulas(shape, side):
    geom = CellGeometry(shape, side)
    edges = np.concatenate([JUNCTIONS, np.nextafter(JUNCTIONS, 0.0), np.nextafter(JUNCTIONS, 1.0)])
    ends = [5e-324, 2.0**-53, 1e-300, np.nextafter(1.0, 0.0)]
    u = np.concatenate([VariateStream(29).uniforms(1_000_000), edges, ends])
    x = sample_x(geom, u)
    assert np.array_equal(_bits(x), _bits(_reference_x(shape, side, u)))
    vertices = np.unique(shape_vertices(geom)[:, 0])
    at = np.concatenate(
        [x, vertices, np.nextafter(vertices, -np.inf), np.nextafter(vertices, np.inf), [0.0, -0.0]]
    )
    for new, ref in zip(chord_y_bounds(geom, at), _reference_bounds(shape, side, at)):
        assert np.array_equal(_bits(new), _bits(ref))
    # scalars: a float from sample_x, a 0-d pair from chord_y_bounds
    for v in np.concatenate([edges, ends]):
        got = sample_x(geom, float(v))
        assert type(got) is float
        assert _bits(got) == _bits(_reference_x(shape, side, np.array([v])))[0]
    for v in np.concatenate([vertices, [0.0, -0.0, side / 2.0, -side / 2.0]]):
        for new, ref in zip(chord_y_bounds(geom, float(v)), _reference_bounds(shape, side, np.array([v]))):
            assert np.ndim(new) == 0 and _bits(new) == _bits(ref)[0]


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_kernels_give_the_same_bits_into_out_buffers(shape):
    # out= changes only where a kernel forms its result
    geom = CellGeometry(shape, 1000.0)
    u = np.concatenate([VariateStream(3).uniforms(5000), JUNCTIONS, np.nextafter(JUNCTIONS, 0.0)])
    pair = np.full(len(u), np.nan), np.full(len(u), np.nan)
    x = sample_x(geom, u)
    into = sample_x(geom, u, out=pair)
    assert into is pair[0] and np.array_equal(_bits(into), _bits(x))
    lo, hi = chord_y_bounds(geom, x)
    into = chord_y_bounds(geom, x, out=pair)
    assert into[0] is pair[0] and into[1] is pair[1]
    assert np.array_equal(_bits(into[0]), _bits(lo)) and np.array_equal(_bits(into[1]), _bits(hi))
    for i in (0, 1, 5000, len(u) - 1):
        assert _bits(sample_x(geom, float(u[i]))) == _bits(x)[i]
        assert [_bits(v) for v in chord_y_bounds(geom, float(x[i]))] == [_bits(lo)[i], _bits(hi)[i]]


@pytest.mark.parametrize("n", [3 * BLOCK + 7, 10 * BLOCK])
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_sample_points_holds_a_fixed_number_of_blocks(shape, n):
    # beside the 16 n bytes of positions, a drop holds its three block
    # buffers and a 1-byte mask (3.26 blocks measured), whatever n is
    geom = CellGeometry(shape, 1000.0)
    tracemalloc.start()
    try:
        sample_points(geom, VariateStream(1), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 16 * n <= 4 * 8 * BLOCK, f"{(peak - 16 * n) / (8 * BLOCK):.2f} blocks"


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
    """The marginal CDF equals the integral of chord width / area, exact at the ends."""
    for L in (1.0, 1.3, 730.0, 3500.0):
        geom = CellGeometry(shape, L)
        xs = shape_vertices(geom)[:, 0]
        lo_x, hi_x = float(xs.min()), float(xs.max())
        area = shoelace(shape_vertices(geom))
        kinks = [-L, -L / 2.0, 0.0, L / 2.0, L]

        def width(x):
            lo, hi = _chord_from_edges(geom, x)
            return (hi - lo) / area

        for x in np.linspace(lo_x + 1e-6, hi_x, 23):
            pts = [k for k in kinks if lo_x < k < x]
            ref, err = integrate.quad(width, lo_x, x, points=pts, epsabs=1e-12, limit=200)
            assert marginal_x_cdf(geom, x) == pytest.approx(ref, abs=1e-9)

        for x in (lo_x, lo_x - 1e-9 * L, lo_x - L, -np.inf):
            assert marginal_x_cdf(geom, x) == 0.0
        for x in (hi_x, hi_x + 1e-9 * L, hi_x + L, np.inf):
            assert marginal_x_cdf(geom, x) == 1.0
        assert (np.diff(marginal_x_cdf(geom, np.linspace(lo_x, hi_x, 100_001))) >= 0.0).all()


def test_sample_y_examples():
    tri = CellGeometry(CellShape.TRIANGLE60, 1.0)
    lo, hi = chord_y_bounds(tri, 0.5)
    assert (lo, hi) == (0.0, pytest.approx(SQRT3 / 2.0, abs=1e-15))
    hexa = CellGeometry(CellShape.HEXAGON, 1.0)
    assert chord_y_bounds(hexa, 0.0) == (-SQRT3 / 2.0, SQRT3 / 2.0)
    # slanted-edge chord at x0 = 0.9: half-width sqrt(3)*0.1
    lo, hi = chord_y_bounds(hexa, 0.9)
    assert (lo, hi) == (pytest.approx(-SQRT3 * 0.1, abs=1e-15), pytest.approx(SQRT3 * 0.1, abs=1e-15))


def test_rhombus_conditional_supports():
    rho = CellGeometry(CellShape.RHOMBUS120, 1.0)
    # left wing: lower bound is +sqrt(3)|x0|, upper is the top edge
    y_lo, y_hi = chord_y_bounds(rho, -0.25)
    assert y_lo == pytest.approx(SQRT3 * 0.25, abs=1e-15)
    assert y_hi == SQRT3 / 2.0
    # right wing: chord collapses toward the far vertex
    assert chord_y_bounds(rho, 0.9) == (0.0, pytest.approx(SQRT3 * 0.1, abs=1e-15))


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_points_contained_and_scalar_path_agrees(shape):
    geom = CellGeometry(shape, 2.5)
    stream = VariateStream(9)
    pts = sample_points(geom, stream, 20_000)
    assert point_in_shape(geom, pts).all()
    # one point from the scalar inverses matches a one-point array drop
    ux, uy = VariateStream(9).uniforms(2)
    x = sample_x(geom, float(ux))
    lo, hi = chord_y_bounds(geom, x)
    y = float(lo + (hi - lo) * float(uy))
    assert isinstance(x, float)
    assert (x, y) == tuple(sample_points(geom, VariateStream(9), 1)[0])
    assert point_in_shape(geom, (x, y))


# the largest side whose sqrt(3) * side check_side keeps finite
LARGEST_SIDE = 1.0378986153331002e308


@pytest.mark.parametrize("side", [7e307, LARGEST_SIDE])
def test_rhombus_drop_at_a_huge_side_warns_nothing(side):
    # sqrt(3) (L - x) passes the float range near x = -L/2 from about 6.9e307;
    # the upper chord bound caps L - x before that product
    assert check_side(LARGEST_SIDE) == LARGEST_SIDE
    with pytest.raises(ValueError, match="too large"):
        check_side(math.nextafter(LARGEST_SIDE, math.inf))
    geom = CellGeometry(CellShape.RHOMBUS120, side)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = sample_points(geom, VariateStream(4), 20_000)
        assert chord_y_bounds(geom, -side / 2.0)[1] == SQRT3 * side / 2.0
    assert np.isfinite(pts).all() and point_in_shape(geom, pts).all()


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
