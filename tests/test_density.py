import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from hexdrop import (
    ArcsineGaussParams,
    CellGeometry,
    CellShape,
    DensityModel,
    PathLossParams,
    arcsine_gauss_integral,
    marginal_x_cdf,
    pathloss_pdf,
    radial_cdf,
    radial_pdf,
    shadowed_cdf,
    shadowed_pdf,
    shadowed_pdf_conv,
)
from hexdrop.density import (
    GAUSS_REACH,
    _cdf_table,
    _whole_window_pass,
    shadowed_pdf_conv_grid,
    shadowed_pdf_grid,
)
from hexdrop.numerics import GK_BATCH

from conftest import PRESET_CASES, preset_model

SQRT3 = math.sqrt(3.0)
LN10 = math.log(10.0)


def test_model_validation():
    pl = PathLossParams.from_intercept(34.5, 35.0, 35.0, 10.0)
    with pytest.raises(ValueError):
        DensityModel(side=40.0, pathloss=pl)  # r0 = 35 m outside inscribed circle
    with pytest.raises(ValueError):
        DensityModel(side=-100.0, pathloss=pl)
    m = DensityModel(side=1000.0, pathloss=pl)
    assert m.knee_loss_db < m.max_loss_db


# ----------------------------------------------------------- shadow-free pdf


@pytest.mark.parametrize("name,side", PRESET_CASES)
def test_pathloss_pdf_support_edges(name, side):
    m = preset_model(name, side)
    assert pathloss_pdf(m, m.max_loss_db) == pytest.approx(0.0, abs=1e-15)
    assert pathloss_pdf(m, m.max_loss_db + 0.1) == 0.0
    assert pathloss_pdf(m, m.max_loss_db + 500.0) == 0.0


def test_pathloss_pdf_branch_continuity():
    # at the knee the arcsine argument is exactly 1, so the middle branch
    # carries asin(1) = pi/2; both branches then reduce to the same value
    m = preset_model("urban-macro", 1000.0)
    p = m.pathloss
    knee = m.knee_loss_db
    t = 10.0 ** (2.0 * (knee - p.alpha) / p.beta)
    inner = 4.0 * math.pi * p.r0**2 * LN10 / (3.0 * SQRT3 * m.side**2 * p.beta) * t
    outer = (
        8.0 * p.r0**2 * LN10 / (SQRT3 * m.side**2 * p.beta)
        * t
        * (math.asin(1.0) - math.pi / 3.0)
    )
    # analytically both equal pi*ln10/(sqrt(3)*beta)
    assert inner == pytest.approx(math.pi * LN10 / (SQRT3 * p.beta), rel=1e-12)
    assert abs(inner - outer) <= 1e-12 * inner
    assert pathloss_pdf(m, knee) == pytest.approx(inner, rel=1e-12)
    # evaluating the middle branch a hair above the knee stays continuous
    # at the square-root rate the true density has there
    delta = 1e-9 * p.beta
    assert pathloss_pdf(m, knee + delta) == pytest.approx(inner, rel=1e-3)


@pytest.mark.parametrize("name,side", PRESET_CASES)
def test_pathloss_pdf_normalizes(name, side):
    m = preset_model(name, side)
    lo = m.knee_loss_db - 5.0 * m.pathloss.beta  # truncated mass < 1e-10
    val, err = integrate.quad(
        lambda w: pathloss_pdf(m, w), lo, m.max_loss_db, points=[m.knee_loss_db], limit=300
    )
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("name,side", PRESET_CASES)
def test_pathloss_pdf_change_of_variables(name, side):
    """Density transported from the radial law: f_W(w) = f_R(r) * dr/dw."""
    m = preset_model(name, side)
    p = m.pathloss
    rng = np.random.default_rng(6)
    w = rng.uniform(m.knee_loss_db - 2.0 * p.beta, m.max_loss_db, 100)
    r = p.r0 * 10.0 ** ((w - p.alpha) / p.beta)
    from hexdrop import radial_pdf

    expected = radial_pdf(m.side, r) * r * LN10 / p.beta
    got = pathloss_pdf(m, w)
    assert np.max(np.abs(got - expected) / expected) < 1e-12


@pytest.mark.parametrize("side", [1.0, 250.0])
def test_radial_law_limits(side):
    # r = 0, the inscribed radius c, L and beyond; the single expression's
    # c/0 and r*inf hazards raise no RuntimeWarning, which pytest would raise
    c = SQRT3 * side / 2.0
    above = np.nextafter(side, math.inf)
    r = np.array([0.0, c, side, above, math.inf])
    pdf, cdf = radial_pdf(side, r), radial_cdf(side, r)
    assert pdf[0] == 0.0 and pdf[3] == 0.0 and pdf[4] == 0.0
    assert pdf[1] == pytest.approx(4.0 * math.pi * c / (3.0 * SQRT3 * side * side), rel=1e-15)
    assert abs(pdf[2]) <= 1e-15 / side  # asin(sqrt(3)/2) - pi/3 is rounding
    assert cdf[0] == 0.0 and cdf[3] == 1.0 and cdf[4] == 1.0
    assert cdf[1] == pytest.approx(math.pi / (2.0 * SQRT3), rel=1e-15)
    assert cdf[2] == 1.0
    assert [radial_pdf(side, float(x)) for x in r] == list(pdf)
    assert [radial_cdf(side, float(x)) for x in r] == list(cdf)


@pytest.mark.parametrize("name,side", PRESET_CASES)
def test_pathloss_pdf_limits(name, side):
    # w = -inf (r = 0), the knee, max and beyond, up to +inf
    m = preset_model(name, side)
    p = m.pathloss
    top = m.max_loss_db
    w = np.array([-math.inf, m.knee_loss_db, top, np.nextafter(top, math.inf), top + 1e6, math.inf])
    pdf = pathloss_pdf(m, w)
    assert pdf[0] == 0.0
    assert pdf[1] == pytest.approx(math.pi * LN10 / (SQRT3 * p.beta), rel=1e-14)
    assert abs(pdf[2]) <= 1e-12 * pdf[1]
    assert list(pdf[3:]) == [0.0, 0.0, 0.0]
    assert [pathloss_pdf(m, float(x)) for x in w] == list(pdf)


def _mp_relative_errors(got, want):
    mpmath = pytest.importorskip("mpmath")
    return [float(abs(mpmath.mpf(g) / v - 1)) for g, v in zip(got, want)]


@pytest.mark.parametrize("side", [1.0, 250.0, 1000.0])
def test_radial_law_against_mpmath(side):
    # 40-digit references at the float arguments; radial_pdf cancels in
    # asin(c/r) - pi/3 as r nears L, so it is gated up to L(1 - 1e-4)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    L = mp.mpf(side)
    c = mp.sqrt(3) * L / 2
    r = np.concatenate([np.linspace(0.0, side, 401)[1:], side * (1.0 - np.logspace(-4, -1, 50))])

    def bracket(x):
        return mp.pi / 6 if x <= c else mp.asin(c / x) - mp.pi / 3

    def g(x):  # the antiderivative of x * bracket(x) from 0
        return x * x / 2 * bracket(x) + (c / 2 * mp.sqrt(x * x - c * c) if x > c else 0)

    cdf_ref = [8 / (mp.sqrt(3) * L * L) * g(x) for x in map(mp.mpf, r)]
    assert max(_mp_relative_errors(radial_cdf(side, r), cdf_ref)) <= 1e-14
    r = r[r <= side * (1.0 - 1e-4)]
    pdf_ref = [8 * x / (mp.sqrt(3) * L * L) * bracket(x) for x in map(mp.mpf, r)]
    assert max(_mp_relative_errors(radial_pdf(side, r), pdf_ref)) <= 2e-12


@pytest.mark.parametrize("name,side", [("urban-macro", 1000.0), ("urban-micro-los", 250.0)])
def test_pathloss_pdf_against_mpmath(name, side):
    # knee - 80 dB to max - 0.05 dB, the float model constants taken as exact
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    m = preset_model(name, side)
    p = m.pathloss
    L, beta = mp.mpf(side), mp.mpf(p.beta)
    c = mp.sqrt(3) * L / 2
    w = np.linspace(m.knee_loss_db - 80.0, m.max_loss_db - 0.05, 601)
    ref = []
    for x in w:
        r = p.r0 * mp.power(10, (mp.mpf(x) - p.alpha) / beta)
        law = mp.pi / 6 if r <= c else mp.asin(c / r) - mp.pi / 3
        ref.append(8 * r * r * mp.log(10) / (mp.sqrt(3) * L * L * beta) * law)
    assert max(_mp_relative_errors(pathloss_pdf(m, w), ref)) <= 2e-13


# ------------------------------------------------------------ closed form


def test_sigma_zero_rejected():
    pl = PathLossParams.from_intercept(34.5, 35.0, 35.0, 0.0)
    m = DensityModel(side=1000.0, pathloss=pl)
    with pytest.raises(ValueError):
        shadowed_pdf(m, 140.0)
    with pytest.raises(ValueError):
        shadowed_pdf_conv(m, 140.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_shadowed_pdf_rejects_a_tol_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        shadowed_pdf(preset_model("urban-macro", 1000.0), 140.0, tol=tol)


@pytest.mark.parametrize("name,side", [("urban-macro", 1000.0), ("urban-micro-los", 250.0)])
def test_closed_form_matches_convolution(name, side):
    m = preset_model(name, side)
    sig = m.pathloss.sigma_psi
    for l in np.linspace(m.knee_loss_db - 3.0 * sig, m.max_loss_db + 3.0 * sig, 20):
        closed = shadowed_pdf(m, float(l), tol=1e-14)
        conv = shadowed_pdf_conv(m, float(l), tol=1e-13)
        assert closed == pytest.approx(conv, rel=1e-6)


# shadowed_pdf_conv at 12 evenly spaced losses from knee - 3 sigma to
# max + 6 sigma, as the Gauss-Kronrod loop gives them; each is within
# 1.3e-14 of the closed form at tol 1e-14
PINNED_ORACLE = {
    ("urban-micro-los", 250.0): [
        0.024448620540136124, 0.04247903347248725, 0.06298363540985277, 0.06740433645358772,
        0.04486254687594119, 0.016851154686153832, 0.0033783001931175284, 0.00035024914167982365,
        1.8433373389083488e-05, 4.868099702039541e-07, 6.401842477691578e-09, 4.1694517124784167e-11,
    ],
    ("urban-macro", 1000.0): [
        0.005256657449261549, 0.013525002435229668, 0.02641074788719923, 0.0336028789386394,
        0.025045617679224298, 0.010268594906555925, 0.002234280292230217, 0.0002526545332167024,
        1.466017586224236e-05, 4.329407151651793e-07, 6.471737275123424e-09, 4.878216657368018e-11,
    ],
}


@pytest.mark.parametrize("name,side", list(PINNED_ORACLE))
def test_oracle_pinned_values(name, side):
    m = preset_model(name, side)
    sig = m.pathloss.sigma_psi
    grid = np.linspace(m.knee_loss_db - 3.0 * sig, m.max_loss_db + 6.0 * sig, 12)
    got = [shadowed_pdf_conv(m, float(l)) for l in grid]
    assert got == pytest.approx(PINNED_ORACLE[name, side], rel=1e-14, abs=0.0)


def _quad_convolution(m, l):
    """Shadowed density at l: scipy's quad of the Gaussian against
    pathloss_pdf, split at the knee and the maximum, and at l +- 10 sigma so
    that a narrow Gaussian is not stepped over, to epsrel 1e-12."""
    sig = m.pathloss.sigma_psi

    def integrand(w):
        d = (l - w) / sig
        return math.exp(-0.5 * d * d) / (math.sqrt(2.0 * math.pi) * sig) * pathloss_pdf(m, w)

    top = m.max_loss_db  # pathloss_pdf vanishes above
    spike = {c for c in (l - 10.0 * sig, l + 10.0 * sig) if c < top}
    edges = [-math.inf, *sorted({m.knee_loss_db, top} | spike)]
    pieces = zip(edges[:-1], edges[1:])
    return sum(integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0] for a, b in pieces)


@pytest.mark.parametrize("name,side", [("urban-micro-los", 250.0), ("urban-macro", 1000.0)])
def test_upper_tail_matches_quad_convolution(name, side):
    # every 0.1 dB from max + 3 sigma to the end of the default pdf range at
    # max + 6 sigma, where the density is orders of magnitude below the
    # integral's absolute tolerance; then every sigma / 2 on to max + 16
    # sigma, past where the integral's window once left the interval; the
    # convolution oracle over the default range
    m = preset_model(name, side)
    sig = m.pathloss.sigma_psi
    default_range = m.max_loss_db + 3.0 * sig + 0.1 * np.arange(round(3.0 * sig / 0.1) + 1)
    far = m.max_loss_db + sig * np.arange(6.5, 16.01, 0.5)
    ref = np.array([_quad_convolution(m, l) for l in np.concatenate([default_range, far])])
    worst = max(abs(shadowed_pdf(m, l) / r - 1.0) for l, r in zip(np.concatenate([default_range, far]), ref))
    assert worst <= 1e-8
    assert np.abs(shadowed_pdf_conv_grid(m, default_range) / ref[: default_range.size] - 1.0).max() <= 1e-8


@pytest.mark.parametrize("sigma", [0.1, 1.0])
@pytest.mark.parametrize("name,side", [("urban-macro", 1000.0), ("urban-micro-los", 250.0)])
def test_small_sigma_matches_quad_convolution(name, side, sigma):
    # over the default pdf range, where a Gaussian this narrow is a spike
    # that an unsplit quad from -inf misses; the closed form and the oracle
    pre = preset_model(name, side).pathloss
    m = DensityModel(side, PathLossParams(pre.alpha, pre.beta, pre.r0, sigma))
    lo = m.knee_loss_db - max(6.0 * sigma, 2.5 * pre.beta)
    grid = np.linspace(lo, m.max_loss_db + 6.0 * sigma, 25)
    ref = np.array([_quad_convolution(m, l) for l in grid])
    for l, r in zip(grid, ref):
        assert shadowed_pdf(m, l) == pytest.approx(r, rel=1e-10, abs=0.0)
    assert shadowed_pdf_conv_grid(m, grid) == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("sigma", [32.0, 64.0, 200.0])
def test_large_sigma_matches_quad_convolution(sigma):
    # the square-completion shift 2 ln10 sigma^2 / beta puts the integral's
    # interval ever further above zero as sigma grows (by 26 sigma at 200 dB)
    pre = preset_model("urban-macro", 1000.0).pathloss
    m = DensityModel(1000.0, PathLossParams(pre.alpha, pre.beta, pre.r0, sigma))
    lo = m.knee_loss_db - max(6.0 * sigma, 2.5 * pre.beta)
    for l in np.linspace(lo, m.max_loss_db + 6.0 * sigma, 13):
        assert shadowed_pdf(m, l) == pytest.approx(_quad_convolution(m, l), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("name,side", PRESET_CASES)
def test_closed_form_normalizes(name, side):
    m = preset_model(name, side)
    p = m.pathloss
    lo = m.knee_loss_db - 4.5 * p.beta - 8.0 * p.sigma_psi
    hi = m.max_loss_db + 8.0 * p.sigma_psi
    val, err = integrate.quad(
        lambda l: shadowed_pdf(m, l),
        lo,
        hi,
        points=[m.knee_loss_db, m.max_loss_db],
        limit=400,
    )
    assert val == pytest.approx(1.0, abs=1e-6)


def test_oracle_normalizes():
    m = preset_model("suburban-macro", 1000.0)
    p = m.pathloss
    lo = m.knee_loss_db - 4.5 * p.beta - 8.0 * p.sigma_psi
    hi = m.max_loss_db + 8.0 * p.sigma_psi
    grid = np.linspace(lo, hi, 601)  # composite Simpson, even panel count
    f = np.array([shadowed_pdf_conv(m, float(x), tol=1e-11) for x in grid])
    h = grid[1] - grid[0]
    mass = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_degenerate_sigma_reduces_to_pathloss_pdf():
    pre = preset_model("urban-macro", 1000.0).pathloss
    m = DensityModel(1000.0, PathLossParams(pre.alpha, pre.beta, pre.r0, 1e-6))
    for l in np.linspace(m.knee_loss_db + 0.01, m.max_loss_db - 0.01, 40):
        assert shadowed_pdf(m, float(l)) == pytest.approx(
            pathloss_pdf(m, float(l)), rel=1e-4
        )


# ------------------------------------------------------------ identity


def exponent_merge_identity(model: DensityModel, l: float, tau: float) -> tuple[float, float]:
    """Both sides of the square-completion step that merges the decade
    exponential with the Gaussian kernel:

        10^(2(l-tau-alpha)/beta) * exp(-tau^2 / (2 sigma^2))
          = exp(2 ln10 (ln10 sigma^2 + beta (l-alpha)) / beta^2)
            * exp(-(tau + 2 ln10 sigma^2 / beta)^2 / (2 sigma^2))

    Returned as (lhs, rhs) so callers can assert their agreement.
    """
    p = model.pathloss
    if not p.sigma_psi > 0.0:
        raise ValueError("shadowing deviation must be positive")
    sig2 = p.sigma_psi * p.sigma_psi
    lhs = 10.0 ** (2.0 * (l - tau - p.alpha) / p.beta) * math.exp(-tau * tau / (2.0 * sig2))
    shift = 2.0 * LN10 * sig2 / p.beta
    rhs = math.exp(2.0 * LN10 * (LN10 * sig2 + p.beta * (l - p.alpha)) / (p.beta * p.beta)) * math.exp(
        -((tau + shift) ** 2) / (2.0 * sig2)
    )
    return lhs, rhs


def test_exponent_identity_at_zero_shift():
    m = preset_model("urban-macro", 1000.0)
    l = 150.0
    lhs, rhs = exponent_merge_identity(m, l, 0.0)
    assert lhs == pytest.approx(10.0 ** (2.0 * (l - m.pathloss.alpha) / m.pathloss.beta), rel=1e-14)
    assert rhs == pytest.approx(lhs, rel=1e-13)


def test_exponent_identity_specific_point():
    pl = PathLossParams(alpha=100.0, beta=35.0, r0=35.0, sigma_psi=10.0)
    m = DensityModel(1000.0, pl)
    lhs, rhs = exponent_merge_identity(m, 150.0, 5.0)  # l - alpha = 50
    assert abs(lhs - rhs) / lhs < 1e-12


def test_exponent_identity_random():
    m = preset_model("suburban-macro", 1000.0)
    sig = m.pathloss.sigma_psi
    rng = np.random.default_rng(13)
    ls = rng.uniform(m.knee_loss_db, m.max_loss_db, 1000)
    taus = rng.uniform(-3.0 * sig, 3.0 * sig, 1000)
    worst = 0.0
    for l, tau in zip(ls, taus):
        lhs, rhs = exponent_merge_identity(m, float(l), float(tau))
        worst = max(worst, abs(lhs - rhs) / lhs)
    assert worst < 1e-12


# ------------------------------------------------------------ cdf


def test_cdf_monotone_and_saturates():
    m = preset_model("urban-micro-nlos", 250.0)
    sig = m.pathloss.sigma_psi
    grid = np.linspace(m.knee_loss_db - 6.0 * sig, m.max_loss_db + 8.0 * sig, 1000)
    vals = shadowed_cdf(m, grid)
    assert (np.diff(vals) >= 0.0).all()
    assert shadowed_cdf(m, m.max_loss_db + 8.0 * sig) == pytest.approx(1.0, abs=1e-6)
    assert shadowed_cdf(m, m.knee_loss_db - 4.5 * m.pathloss.beta - 8.0 * sig) == pytest.approx(
        0.0, abs=1e-9
    )


@pytest.mark.parametrize("name, side", [("urban-micro-los", 250.0), ("urban-macro", 1000.0)])
def test_cdf_table_error_bound(name, side):
    # the documented bound: the default 3001-node table, read by linear
    # interpolation, stays within 5e-6 of a 12001-node table at its nodes
    m = preset_model(name, side)
    fine_grid, fine_cum = _cdf_table(m, 12001)
    err = np.max(np.abs(shadowed_cdf(m, fine_grid) - fine_cum))
    assert err < 5e-6


def test_cdf_median_against_independent_convolution():
    """CDF cross-check by integrating in the other order: the shadowing
    kernel against the distance-law CDF (which never touches the closed
    form or its quadrature)."""
    m = preset_model("urban-macro", 1000.0)
    p = m.pathloss
    sig = p.sigma_psi
    grid = np.linspace(m.knee_loss_db - 6.0 * sig, m.max_loss_db + 6.0 * sig, 4001)
    vals = shadowed_cdf(m, grid)
    l_med = float(np.interp(0.5, vals, grid))

    def oracle_cdf(l):
        def f(tau):
            r = p.r0 * 10.0 ** ((l - tau - p.alpha) / p.beta)
            return (
                math.exp(-0.5 * (tau / sig) ** 2)
                / (math.sqrt(2.0 * math.pi) * sig)
                * radial_cdf(m.side, r)
            )

        val, err = integrate.quad(f, -9.5 * sig, 9.5 * sig, epsabs=1e-12, limit=300)
        return val

    assert oracle_cdf(l_med) == pytest.approx(0.5, abs=1e-6)


NAN_CASES = {
    "radial_pdf": lambda m, v: radial_pdf(m.side, v),
    "radial_cdf": lambda m, v: radial_cdf(m.side, v),
    "pathloss_pdf": pathloss_pdf,
    "marginal_x_cdf": lambda m, v: marginal_x_cdf(CellGeometry(CellShape.HEXAGON, m.side), v),
    "shadowed_pdf": shadowed_pdf,
    "shadowed_cdf": shadowed_cdf,
    "shadowed_pdf_conv": shadowed_pdf_conv,
}


@pytest.mark.parametrize("name", list(NAN_CASES))
def test_nan_in_gives_nan_out(name):
    # no branch default may turn a NaN argument into a density or a probability
    assert math.isnan(NAN_CASES[name](preset_model("urban-macro", 1000.0), math.nan))


@pytest.mark.parametrize("name,side", PRESET_CASES)
def test_grid_matches_one_point_calls(name, side):
    # over the default pdf range, in three adaptive loops; one point at a
    # time, each integral has a loop of its own
    m = preset_model(name, side)
    p = m.pathloss
    grid = np.linspace(m.knee_loss_db - max(6.0 * p.sigma_psi, 2.5 * p.beta), m.max_loss_db + 6.0 * p.sigma_psi,
                       2 * GK_BATCH + 3)
    one = np.array([shadowed_pdf(m, float(l)) for l in grid])
    assert np.abs(shadowed_pdf_grid(m, grid) / one - 1.0).max() <= 2e-15


def _sigma_model(name, side, sigma):
    pre = preset_model(name, side).pathloss
    return DensityModel(side, PathLossParams(pre.alpha, pre.beta, pre.r0, sigma))


def _windows(m, grid):
    """mu and the unclipped window ends z_max/sqrt2 and z_knee/sqrt2 of each
    loss, formed as shadowed_pdf_grid forms them, and whether GAUSS_REACH
    leaves the window whole."""
    p = m.pathloss
    mu = grid - p.alpha + 2.0 * LN10 * p.sigma_psi**2 / p.beta
    bottom = (mu - p.beta * math.log10(m.side / p.r0)) / p.sigma_psi / math.sqrt(2.0)
    top = (mu - p.beta * math.log10(SQRT3 * m.side / (2.0 * p.r0))) / p.sigma_psi / math.sqrt(2.0)
    lo = np.maximum(bottom, -GAUSS_REACH)
    whole = (lo == bottom) & (top <= np.maximum(lo, 0.0) + GAUSS_REACH)
    return mu, bottom, top, whole


def _losses_at(m, bottom):
    """The losses whose window starts at z_max/sqrt2 = bottom."""
    p = m.pathloss
    shift = p.alpha - 2.0 * LN10 * p.sigma_psi**2 / p.beta + p.beta * math.log10(m.side / p.r0)
    return shift + math.sqrt(2.0) * p.sigma_psi * np.asarray(bottom)


@pytest.mark.parametrize("sigma", [0.1, 1.0, 4.0, 10.0])
@pytest.mark.parametrize("name,side", PRESET_CASES)
def test_whole_window_pass_matches_per_point_integrals(name, side, sigma):
    # the shared first pass, in the arcsine's exponent, against the adaptive
    # loop of arcsine_gauss_integral on each point's own window, over the
    # default pdf range; at 0.1 dB the Gaussian is too narrow for 4 panels
    # and the pass rejects every whole window
    m = _sigma_model(name, side, sigma)
    p = m.pathloss
    grid = np.linspace(m.knee_loss_db - max(6.0 * sigma, 2.5 * p.beta), m.max_loss_db + 6.0 * sigma, 401)
    mu, bottom, top, whole = _windows(m, grid)
    value, passed = _whole_window_pass(m, top[whole], 1e-12)
    assert whole.any() and passed.any() == (sigma > 0.1)
    scale, slope = SQRT3 * side / (2.0 * p.r0), -math.sqrt(2.0) * sigma / p.beta
    for v, u, a, b in zip(value[passed], mu[whole][passed], bottom[whole][passed], top[whole][passed]):
        ref = arcsine_gauss_integral(ArcsineGaussParams(scale, u / p.beta, slope, a, b), tol=1e-12)
        assert v == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_rejected_whole_windows_match_quad_convolution():
    # at sigma 0.1 dB the whole windows lie where z_max/sqrt2 is in [-9.5, -6];
    # the shared pass rejects them all, and the adaptive loop gives the density
    m = _sigma_model("urban-macro", 1000.0, 0.1)
    grid = _losses_at(m, np.linspace(-9.4, -6.1, 12))
    _, _, top, whole = _windows(m, grid)
    assert whole.all() and not _whole_window_pass(m, top, 1e-12)[1].any()
    ref = np.array([_quad_convolution(m, l) for l in grid])
    assert shadowed_pdf_grid(m, grid) == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("sigma,fallback", [(4.0, 0), (0.1, 12)])
def test_arcsine_gauss_integral_runs_once_per_grid(monkeypatch, sigma, fallback):
    # once per call, with no element when the shared pass takes every point,
    # so that a trace of the call always shows the adaptive loop
    m = _sigma_model("urban-micro-los", 250.0, sigma)
    grid = _losses_at(m, np.linspace(-9.4, -6.1, 12))
    assert _windows(m, grid)[3].all()
    sizes = []

    def counted(params, **kwargs):
        sizes.append(np.size(params.lo))
        return arcsine_gauss_integral(params, **kwargs)

    monkeypatch.setattr("hexdrop.density.arcsine_gauss_integral", counted)
    shadowed_pdf_grid(m, grid)
    assert sizes == [fallback]
    clipped = _losses_at(m, -9.52)  # z_max/sqrt2 below -9.5, z_knee/sqrt2 above it
    _, _, top, whole = _windows(m, np.array([clipped]))
    assert top[0] > -GAUSS_REACH and not whole[0]
    shadowed_pdf_grid(m, np.array([clipped, math.nan]))  # and a point with no window
    assert sizes == [fallback, 1]


def test_grid_overflow_names_the_first_point_out_of_range():
    m = preset_model("urban-macro", 1000.0)
    grid = np.array([120.0, math.nan, 130.0, 5000.0, 5500.0, 6000.0, math.inf])
    with pytest.raises(ValueError, match=r"^loss 5500\.0 dB at sigma 10\.0 dB .* \(OverflowError\); .* is 139\.5 dB$"):
        shadowed_pdf_grid(m, grid)
    got = shadowed_pdf_grid(m, grid[:4])
    assert math.isnan(got[1]) and np.all(got[[0, 2]] > 0.0) and got[3] == 0.0


def test_grid_memory_does_not_grow_with_the_grid():
    # the integrals run GK_BATCH points at a time, so the first pass of
    # each loop evaluates at most BLOCK abscissae whatever the grid length
    m = preset_model("urban-micro-los", 250.0)
    shadowed_pdf_grid(m, np.array([90.0]))
    for n in (3 * GK_BATCH, 9 * GK_BATCH):
        tracemalloc.start()
        try:
            shadowed_pdf_grid(m, np.linspace(50.0, 140.0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.mark.parametrize("name,side", PRESET_CASES)
def test_oracle_grid_matches_one_point_calls(name, side):
    # about 6 segments per point over the default pdf range, so three or
    # four Gauss-Kronrod loops; each segment keeps the panels of a loop of
    # its own and each point its summation order, up to the rounding of the
    # matrix-vector product in the last rows of a call
    m = preset_model(name, side)
    p = m.pathloss
    grid = np.linspace(m.knee_loss_db - max(6.0 * p.sigma_psi, 2.5 * p.beta), m.max_loss_db + 6.0 * p.sigma_psi,
                       GK_BATCH // 2 + 3)
    one = np.array([shadowed_pdf_conv(m, float(l)) for l in grid])
    assert np.abs(shadowed_pdf_conv_grid(m, grid) / one - 1.0).max() <= 2e-15


def test_oracle_grid_nan_point_leaves_the_others():
    m = preset_model("urban-macro", 1000.0)
    got = shadowed_pdf_conv_grid(m, [math.nan, 120.0])
    assert math.isnan(got[0]) and got[1] == shadowed_pdf_conv(m, 120.0) > 0.0


def test_oracle_memory_does_not_grow_with_the_grid():
    # the integrand runs GK_BATCH segments per loop, about GK_BATCH / 5
    # points on this grid, so these grids take 3 and 10 loops; only the
    # segment arrays, a few floats per segment, grow with the grid
    m = preset_model("urban-micro-los", 250.0)
    shadowed_pdf_conv_grid(m, np.array([90.0]))
    for n in (3 * GK_BATCH // 5, 2 * GK_BATCH):
        tracemalloc.start()
        try:
            shadowed_pdf_conv_grid(m, np.linspace(50.0, 140.0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.mark.parametrize("name,side", [("urban-micro-los", 250.0), ("urban-macro", 1000.0)])
def test_oracle_just_above_the_knee_and_a_landmark(name, side):
    # with the landmark tau = 0 or tau = peak a hair below t_knee = l - knee,
    # a plain segment would end on the square-root cusp and never converge;
    # the cusp segment absorbs the landmark instead
    m = preset_model(name, side)
    p = m.pathloss
    peak = -2.0 * LN10 * p.sigma_psi**2 / p.beta
    grid = np.array([m.knee_loss_db + c + d for c in (0.0, peak) for d in (1e-14, 1e-13, 1e-12, 1e-11)])
    oracle = shadowed_pdf_conv_grid(m, grid)
    assert np.abs(oracle / shadowed_pdf_grid(m, grid, tol=1e-14) - 1.0).max() <= 2e-12

