import math

import numpy as np
import pytest

from hexdrop import PathLossParams
from hexdrop.pathloss import mean_pathloss


def test_parameter_validation():
    with pytest.raises(ValueError):
        PathLossParams(alpha=80.0, beta=0.0, r0=35.0, sigma_psi=10.0)
    with pytest.raises(ValueError):
        PathLossParams(alpha=80.0, beta=35.0, r0=-1.0, sigma_psi=10.0)
    with pytest.raises(ValueError):
        PathLossParams(alpha=80.0, beta=35.0, r0=35.0, sigma_psi=-0.1)
    with pytest.raises(ValueError):
        PathLossParams.from_intercept(31.5, -35.0, 35.0, 10.0)


def test_mean_pathloss_anchors():
    p = PathLossParams(alpha=80.0, beta=35.0, r0=35.0, sigma_psi=10.0)
    assert mean_pathloss(p, 35.0) == pytest.approx(80.0, rel=1e-15)
    assert mean_pathloss(p, 350.0) == pytest.approx(80.0 + 35.0, rel=1e-14)
    with pytest.raises(ValueError):
        mean_pathloss(p, 0.0)
    with pytest.raises(ValueError):
        mean_pathloss(p, -10.0)


def test_decade_slope_exact():
    p = PathLossParams(alpha=64.0, beta=26.0, r0=20.0, sigma_psi=4.0)
    rng = np.random.default_rng(0)
    for r in rng.uniform(1.0, 5000.0, 50):
        assert mean_pathloss(p, r) - mean_pathloss(p, r / 10.0) == pytest.approx(26.0, rel=1e-12)


def test_from_intercept_values():
    p = PathLossParams.from_intercept(31.5, 35.0, 35.0, 10.0)
    assert p.alpha == pytest.approx(85.54238155225966, rel=1e-14)
    assert mean_pathloss(p, 35.0) == pytest.approx(p.alpha, rel=1e-15)
    p = PathLossParams.from_intercept(30.18, 26.0, 20.0, 4.0)
    assert p.alpha == pytest.approx(64.00677988726352, rel=1e-14)
    assert PathLossParams.from_intercept(0.0, 10.0, 1.0, 0.0).alpha == 0.0


def test_urban_macro_at_kilometre():
    p = PathLossParams.from_intercept(34.5, 35.0, 35.0, 10.0)
    assert mean_pathloss(p, 1000.0) == pytest.approx(139.5, rel=1e-12)


def test_intercept_round_trip_and_invariance():
    rng = np.random.default_rng(12)
    for _ in range(30):
        ap = rng.uniform(10.0, 60.0)
        beta = rng.uniform(15.0, 45.0)
        r0 = rng.uniform(1.0, 100.0)
        p = PathLossParams.from_intercept(ap, beta, r0, 5.0)
        assert p.alpha - p.beta * math.log10(p.r0) == pytest.approx(ap, rel=1e-12)
        # the (alpha, r0) split leaves the mean loss untouched
        r = rng.uniform(1.0, 4000.0)
        direct = ap + beta * math.log10(r)
        assert mean_pathloss(p, r) == pytest.approx(direct, rel=1e-12)
