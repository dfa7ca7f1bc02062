import math
import warnings

import numpy as np
import pytest

from hexdrop import (
    CellGeometry,
    CellShape,
    DensityModel,
    load_preset,
    point_in_shape,
    radial_cdf,
    radial_pdf,
)
from hexdrop.geometry import chord_y_bounds, shape_vertices
from hexdrop.presets import validate_cell_radius

from conftest import ALL_SHAPES

SQRT3 = math.sqrt(3.0)


def shoelace(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_canonical_vertices_unit_side():
    tri = shape_vertices(CellGeometry(CellShape.TRIANGLE60, 1.0))
    assert np.allclose(tri, [(0, 0), (1, 0), (0.5, SQRT3 / 2)])
    rho = shape_vertices(CellGeometry(CellShape.RHOMBUS120, 1.0))
    assert np.allclose(rho, [(0, 0), (1, 0), (0.5, SQRT3 / 2), (-0.5, SQRT3 / 2)])
    hexa = shape_vertices(CellGeometry(CellShape.HEXAGON, 1.0))
    assert np.allclose(np.hypot(hexa[:, 0], hexa[:, 1]), 1.0)
    assert {tuple(v) for v in hexa} >= {(1.0, 0.0), (-1.0, 0.0)}


def test_point_in_shape_examples():
    hexa = CellGeometry(CellShape.HEXAGON, 1.0)
    assert point_in_shape(hexa, (0.0, 0.0))
    assert not point_in_shape(hexa, (1.001, 0.0))
    tri = CellGeometry(CellShape.TRIANGLE60, 1.0)
    assert point_in_shape(tri, (0.5, SQRT3 / 2))  # apex vertex on the boundary
    assert not point_in_shape(tri, (0.5, SQRT3 / 2 + 1e-9))


def test_point_in_shape_at_a_huge_side():
    # the test runs in units of the side: at 1e200 no cross product overflows
    L = 1e200
    hexa = CellGeometry(CellShape.HEXAGON, L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert point_in_shape(hexa, (0.0, 0.0))
        assert not point_in_shape(hexa, (1.001 * L, 0.0))


def test_point_in_shape_vectorized():
    hexa = CellGeometry(CellShape.HEXAGON, 1.0)
    pts = np.array([[0.0, 0.0], [0.9, 0.0], [0.9, 0.5], [-2.0, 0.0]])
    assert point_in_shape(hexa, pts).tolist() == [True, True, False, False]


def _chord_from_edges(geom, x):
    """Chord bounds recomputed from raw segment intersections."""
    verts = shape_vertices(geom)
    n = len(verts)
    ys = []
    for i in range(n):
        (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % n]
        if min(x1, x2) - 1e-15 <= x <= max(x1, x2) + 1e-15 and x1 != x2:
            t = (x - x1) / (x2 - x1)
            if -1e-12 <= t <= 1 + 1e-12:
                ys.append(y1 + t * (y2 - y1))
    return min(ys), max(ys)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_chord_bounds_match_edge_intersections(shape):
    geom = CellGeometry(shape, 1.7)
    xs = shape_vertices(geom)[:, 0]
    lo_x, hi_x = xs.min(), xs.max()
    for x in np.linspace(lo_x + 1e-6, hi_x - 1e-6, 37):
        lo, hi = chord_y_bounds(geom, x)
        elo, ehi = _chord_from_edges(geom, x)
        assert lo == pytest.approx(elo, abs=1e-12)
        assert hi == pytest.approx(ehi, abs=1e-12)


def _side_owners(side):
    # every owner of a cell side applies the one rule, with the one message
    preset = load_preset("urban-macro")
    return [
        lambda: CellGeometry(CellShape.HEXAGON, side),
        lambda: DensityModel(side, preset.pathloss_params()),
        lambda: radial_pdf(side, 5.0),
        lambda: radial_cdf(side, 5.0),
        lambda: validate_cell_radius(preset, side),
    ]


@pytest.mark.parametrize("side", [0.0, -1.0, float("nan"), float("inf")])
def test_invalid_side_rejected(side):
    for check in _side_owners(side):
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == f"side must be positive and finite, got {side}"


def test_side_whose_height_overflows_rejected():
    # sqrt(3) * side stays finite up to sys.float_info.max / sqrt(3), about 1.0379e308
    for check in _side_owners(1.04e308):
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == "side 1.04e+308 is too large: sqrt(3) * side overflows"
    assert CellGeometry("hexagon", 1.03e308).side == 1.03e308
