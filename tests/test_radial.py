import math

import numpy as np
import pytest
from scipy import integrate

from hexdrop import (
    CellGeometry,
    VariateStream,
    ks_test,
    radial_cdf,
    radial_pdf,
    sample_points,
)

from conftest import ALL_SHAPES

SQRT3 = math.sqrt(3.0)


def test_radial_pdf_endpoints_and_knee():
    assert radial_pdf(1.0, 0.0) == 0.0
    assert radial_pdf(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert radial_pdf(1.0, 1.2) == 0.0
    # both branch formulas at the inscribed radius
    knee = SQRT3 / 2.0
    inner = 4.0 * math.pi * knee / (3.0 * SQRT3)
    outer = 8.0 * knee / SQRT3 * (math.asin(SQRT3 / (2.0 * knee)) - math.pi / 3.0)
    assert inner == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)
    assert abs(inner - outer) <= 1e-12 * inner
    assert radial_pdf(1.0, knee) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)
    with pytest.raises(ValueError):
        radial_pdf(1.0, -0.1)


@pytest.mark.parametrize("side", [1.0, 250.0, 3500.0])
def test_radial_pdf_normalizes(side):
    val, err = integrate.quad(
        lambda r: radial_pdf(side, r), 0.0, side, points=[SQRT3 * side / 2.0], limit=200
    )
    assert val == pytest.approx(1.0, abs=1e-9)


def test_radial_cdf_values():
    assert radial_cdf(1.0, 0.0) == 0.0
    assert radial_cdf(1.0, SQRT3 / 2.0) == pytest.approx(math.pi / (2.0 * SQRT3), rel=1e-14)
    assert radial_cdf(1.0, 0.3) == pytest.approx(0.10882796185405307, rel=1e-13)
    assert radial_cdf(1.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert radial_cdf(1.0, 5.0) == 1.0


def test_radial_cdf_monotone():
    r = np.linspace(0.0, 1.2, 2000)
    assert (np.diff(radial_cdf(1.0, r)) >= 0.0).all()


@pytest.mark.parametrize("side", [1.0, 640.0])
def test_radial_cdf_matches_quadrature(side):
    """The outer-branch antiderivative against direct quadrature."""
    rng = np.random.default_rng(3)
    for r in rng.uniform(0.05 * side, side, 20):
        ref, _ = integrate.quad(
            lambda t: radial_pdf(side, t), 0.0, r, points=[SQRT3 * side / 2.0], limit=200
        )
        assert radial_cdf(side, r) == pytest.approx(ref, abs=1e-10)


def test_radial_scale_covariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        L = rng.uniform(0.2, 3000.0)
        r = rng.uniform(0.0, L)
        lhs = radial_pdf(L, r)
        rhs = radial_pdf(1.0, r / L) / L
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_sampled_radii_follow_radial_law(shape):
    """The separation law is the same for the sector, rhombus and hexagon."""
    geom = CellGeometry(shape, 1.0)
    pts = sample_points(geom, VariateStream(17), 20_000)
    r = np.hypot(pts[:, 0], pts[:, 1])
    res = ks_test(r, lambda v: radial_cdf(1.0, v))
    assert res.passed, res
