import math

import numpy as np
import pytest
from scipy import integrate

from hexdrop import (
    ArcsineGaussParams,
    NonConvergenceError,
    SeriesDivergenceError,
    arcsine_gauss_integral,
    load_preset,
)
from hexdrop.numerics import (
    GK_MAX_PANELS,
    GK_PANELS,
    GK_BATCH,
    MAX_DEPTH,
    _log_asin_taylor_coeff,
    _log_erfc,
    _series_value,
    gauss_kronrod,
    q_function,
)

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------- Q function


def test_q_basics():
    assert q_function(0.0) == pytest.approx(0.5, rel=1e-15)
    rng = np.random.default_rng(5)
    for x in rng.normal(size=40) * 3.0:
        assert q_function(float(x)) + q_function(float(-x)) == pytest.approx(1.0, abs=1e-14)


def test_q_five_percent_point():
    assert q_function(1.6448536269514722) == pytest.approx(0.05, abs=1e-7)


def test_q_of_an_array_is_the_float_q_bit_for_bit():
    z = np.concatenate([np.random.default_rng(6).normal(size=2000) * 10.0, [0.0, -0.0, 1e-300, 40.0, np.inf, -np.inf]])
    q = q_function(z)
    assert np.array_equal(q.view(np.int64), np.array([q_function(float(v)) for v in z]).view(np.int64))
    assert np.array_equal(q_function(z.reshape(2, -1)), q.reshape(2, -1))
    assert type(q_function(np.float64(1.5))) is float


def test_q_matches_normal_tail_quadrature():
    phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    for x in np.linspace(-6.0, 6.0, 25):
        ref, err = integrate.quad(phi, x, np.inf)
        assert q_function(x) == pytest.approx(ref, abs=1e-10)


# ------------------------------------------------------------- quadrature


def gauss_kronrod_one(f, lo, hi, tol):
    # one integral of f(x) over [lo, hi] through the array form
    return gauss_kronrod(lambda x, k: f(x), np.array([lo]), np.array([hi]), tol)[0]


def test_gauss_kronrod_exact_on_degree_22_in_one_pass():
    # K15 is exact to degree 22 and G7 only to 13: the first pass is
    # accepted on the pair's gap and already carries the exact value
    poly = np.polynomial.Polynomial(np.random.default_rng(22).normal(size=23))
    exact = poly.integ()(1.0) - poly.integ()(0.0)
    calls = []
    val = gauss_kronrod_one(lambda x: (calls.append(x.shape), poly(x))[1], 0.0, 1.0, 1e-6)
    assert calls == [(4, 15)]
    assert val == pytest.approx(exact, rel=1e-14)


def test_gauss_kronrod_gaussian():
    val = gauss_kronrod_one(lambda x: np.exp(-x * x), 0.0, 8.0, 1e-13)
    assert abs(val - SQRT_PI / 2.0) <= 1e-13


def test_gauss_kronrod_edge_cases():
    assert gauss_kronrod_one(np.sin, 1.0, 1.0, 1e-10) == 0.0
    with pytest.raises(ValueError):
        gauss_kronrod_one(np.sin, 0.0, 1.0, 0.0)


# The loop's caps and its sums per integral; the test_simpson_* names are
# kept from when the loop also ran an adaptive Simpson rule.


def test_simpson_depth_cap_signals_failure():
    # a jump never meets its panel's share of tol: the round cap ends it
    # after MAX_DEPTH bisections, with at most the first pass's panels at once
    calls = []
    step = lambda x: (calls.append(x.shape[0]), np.where(x < 1.0 / math.e, 0.0, 1.0))[1]
    with pytest.raises(NonConvergenceError):
        gauss_kronrod_one(step, 0.0, 1.0, 1e-13)
    assert len(calls) == MAX_DEPTH + 1 and max(calls) <= GK_PANELS


def test_simpson_panel_cap_signals_failure():
    # noise fails on every panel: the panel cap ends it before memory grows
    noise, calls = np.random.default_rng(0), []
    with pytest.raises(NonConvergenceError):
        gauss_kronrod_one(lambda x: (calls.append(x.shape[0]), noise.random(x.shape))[1], 0.0, 1.0, 1e-13)
    assert max(calls) <= GK_MAX_PANELS and len(calls) <= 11


def test_simpson_interleaved_owners_match_separate_calls():
    # segments of three integrals in mixed order, summed per integral by
    # bincount as the oracle sums its segments per point: each total is the
    # one a call of its own gives, to the rounding of the matrix-vector
    # product, which BLAS may round differently by row
    lo = np.array([0.0, 2.0, -1.0, 0.5, 3.0, -0.5])
    hi = np.array([0.5, 3.0, -0.5, 2.0, 4.0, 0.0])
    owner = np.array([0, 1, 2, 0, 1, 2])
    f = lambda x, k: np.exp(-x * x) * np.cos(3.0 * x)
    val = np.bincount(owner, gauss_kronrod(f, lo, hi, 1e-13), 3)
    one = [gauss_kronrod(f, lo[owner == k], hi[owner == k], 1e-13).sum() for k in range(3)]
    assert val == pytest.approx(one, rel=1e-14, abs=1e-16)


def test_simpson_panel_cap_is_per_integral():
    # integral 3 of 400 is noise: the others stay open for a round or two,
    # far past GK_MAX_PANELS in all, and the error names integral 3's interval
    lo, noise = np.arange(400.0), np.random.default_rng(0)
    f = lambda x, k: np.where((k == 3)[:, None], noise.random(x.shape), np.cos(40.0 * x))
    calls = []
    with pytest.raises(NonConvergenceError, match=r"on \[3\.0, 4\.0\]: "):
        gauss_kronrod(lambda x, k: (calls.append(x.shape[0]), f(x, k))[1], lo, lo + 1.0, 1e-13)
    assert max(calls) > GK_MAX_PANELS


def test_gauss_kronrod_caps_signal_failure():
    # a jump in integral 2 of 50 smooth ones: the others close on the first
    # pass, and the round cap ends the jump's own panels after MAX_DEPTH
    # bisections, naming its interval
    lo, calls = np.arange(50.0), []
    f = lambda x, k: np.where((k == 2)[:, None], np.where(x < 2.0 + 1.0 / math.e, 0.0, 1.0), np.cos(x))
    with pytest.raises(NonConvergenceError, match=r"on \[2\.0, 3\.0\]: "):
        gauss_kronrod(lambda x, k: (calls.append(x.shape[0]), f(x, k))[1], lo, lo + 1.0, 1e-13)
    assert len(calls) == MAX_DEPTH + 1 and calls[0] == 50 * GK_PANELS and max(calls[1:]) <= GK_PANELS


def test_gauss_kronrod_batch_caps_panels_per_integral():
    # 2000 integrals of an oscillation, bisected twice: GK_BATCH of them per
    # loop, so GK_BATCH * GK_PANELS first-pass panels and then far more than
    # GK_MAX_PANELS open at once in all, but only 16 per integral
    lo = np.linspace(-4.0, 3.0, 2000)
    calls = []
    val = gauss_kronrod(lambda x, k: (calls.append(x.shape[0]), np.cos(40.0 * x))[1], lo, lo + 1.0, 1e-13)
    assert calls[0] == GK_BATCH * GK_PANELS and max(calls) > GK_MAX_PANELS
    assert np.abs(val - (np.sin(40.0 * (lo + 1.0)) - np.sin(40.0 * lo)) / 40.0).max() <= 1e-14


def test_gauss_kronrod_batch_names_the_integral_that_fails():
    # integral 7 of 2000, in the first loop, and then integral GK_BATCH + 7,
    # in the second, is noise; the others are smooth and converge, and the
    # error names the noisy integral's interval
    lo, noise = np.arange(2000.0), np.random.default_rng(0)
    for bad in (7, GK_BATCH + 7):
        f = lambda x, k: np.where((k == bad)[:, None], noise.random(x.shape), np.cos(x))
        with pytest.raises(NonConvergenceError, match=rf"on \[{bad}\.0, {bad + 1}\.0\]: "):
            gauss_kronrod(f, lo, lo + 1.0, 1e-13)


def test_gauss_kronrod_batch_matches_one_at_a_time():
    # GK_BATCH + 20 integrals, 12 of zero width, so two loops: each one what
    # a call of its own gives, its index k included, to the rounding of the
    # matrix-vector product, which BLAS may round differently in the last
    # rows of a call
    rng = np.random.default_rng(17)
    lo = rng.uniform(-3.0, 3.0, GK_BATCH + 20)
    hi = np.where(np.arange(lo.size) % 97 == 1, lo, lo + rng.uniform(0.0, 4.0, lo.size))
    assert np.count_nonzero(hi > lo) > GK_BATCH
    f = lambda x, k: np.sin((1.0 + 0.001 * k[:, None]) * x) * np.exp(-x * x)
    val = gauss_kronrod(f, lo, hi, 1e-13)
    one = [gauss_kronrod(lambda x, k: f(x, k + i), lo[i : i + 1], hi[i : i + 1], 1e-13)[0] for i in range(lo.size)]
    assert val[1] == 0.0 and val == pytest.approx(one, rel=1e-14, abs=1e-16)


# ------------------------------------------------- Gaussian-arcsine integral


def _quad_reference(p, tol=1e-14):
    f = lambda x: math.exp(-x * x) * math.asin(min(1.0, p.scale * 10.0 ** (-(p.offset + p.slope * x))))
    val, err = integrate.quad(f, p.lo, p.hi, epsabs=tol, limit=500)
    return val


LOG_ERFC_POINTS = [*np.linspace(0.0, 60.0, 601), math.nextafter(26.0, -math.inf), 26.0,
                   math.nextafter(26.0, math.inf), 1e3, 1e5]


def test_log_erfc_against_mpmath():
    # math.erfc below 26 and the asymptotic series from 26 on, both within
    # 1e-15 * max(1, s^2) of a 40-digit reference: rounding s^2 alone costs
    # about 1.1e-16 * s^2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s in map(float, LOG_ERFC_POINTS):
            err = abs(mpmath.log(mpmath.erfc(s)) - _log_erfc(s))
            assert err <= 1e-15 * max(1.0, s * s), s


def test_zero_scale_gives_zero():
    p = ArcsineGaussParams(scale=0.0, offset=0.3, slope=0.5, lo=-1.0, hi=1.0)
    assert arcsine_gauss_integral(p, "quadrature") == 0.0
    assert arcsine_gauss_integral(p, "series") == 0.0


def test_zero_slope_analytic():
    p = ArcsineGaussParams(scale=0.6, offset=0.2, slope=0.0, lo=-0.5, hi=1.5)
    expected = math.asin(0.6 * 10.0**-0.2) * (SQRT_PI / 2.0) * (math.erf(1.5) - math.erf(-0.5))
    assert arcsine_gauss_integral(p, "quadrature") == pytest.approx(expected, rel=1e-12)
    assert arcsine_gauss_integral(p, "series") == pytest.approx(expected, rel=1e-12)


def test_series_matches_quadrature_spec_point():
    p = ArcsineGaussParams(scale=1.0, offset=0.5, slope=0.2, lo=-1.0, hi=2.0)
    ref = _quad_reference(p)
    assert arcsine_gauss_integral(p, "series", tol=1e-13) == pytest.approx(ref, abs=1e-8)
    assert arcsine_gauss_integral(p, "quadrature", tol=1e-12) == pytest.approx(ref, abs=1e-10)


def random_admissible(rng):
    """Random parameters with arcsine argument <= 0.99 on the interval."""
    slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0)
    lo = rng.uniform(-2.5, 1.5)
    hi = lo + rng.uniform(0.3, 3.5)
    arg_max = rng.uniform(0.05, 0.99)
    # the argument is monotone, so pin its maximum at the relevant endpoint
    x_peak = lo if slope > 0 else hi
    offset = -slope * x_peak
    return ArcsineGaussParams(scale=arg_max, offset=offset, slope=slope, lo=lo, hi=hi)


def test_series_matches_quadrature_random():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        p = random_admissible(rng)
        ref = arcsine_gauss_integral(p, "quadrature", tol=1e-13)
        val = arcsine_gauss_integral(p, "series", tol=1e-13)
        assert abs(val - ref) <= 1e-8 * max(1.0, abs(ref))


def test_argument_above_one_rejected():
    # the second argument, 10^400, overflows a float
    for scale, offset in ((1.2, 0.0), (1.0, -400.0)):
        p = ArcsineGaussParams(scale=scale, offset=offset, slope=0.5, lo=-1.0, hi=1.0)
        with pytest.raises(ValueError):
            arcsine_gauss_integral(p, "quadrature")
        with pytest.raises(ValueError):
            arcsine_gauss_integral(p, "series")


def test_argument_rounding_clamped():
    p = ArcsineGaussParams(scale=1.0 + 1e-13, offset=0.0, slope=0.1, lo=0.0, hi=1.0)
    val = arcsine_gauss_integral(p, "quadrature")
    assert math.isfinite(val) and val > 0.0


def test_param_validation():
    with pytest.raises(ValueError):
        ArcsineGaussParams(scale=1.0, offset=0.0, slope=0.1, lo=1.0, hi=0.0)
    with pytest.raises(ValueError):
        ArcsineGaussParams(scale=-0.5, offset=0.0, slope=0.1, lo=0.0, hi=1.0)
    p = ArcsineGaussParams(scale=0.5, offset=0.0, slope=0.1, lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        arcsine_gauss_integral(p, method="trapezoid")


def _array_params(slope=0.2, **changed):
    # three integrals whose arguments peak at 0.794, 1 and 0.9995: a plain
    # one, a cusp, and one past 0.999 in the cusp variable; at lo for a
    # positive slope, at hi for a negative one
    lo, hi = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 2.0, 0.5])
    offset = -slope * np.where(slope > 0.0, lo, hi) - np.log10([0.794328, 1.0, 0.9995])
    return ArcsineGaussParams(**dict(dict(scale=1.0, offset=offset, slope=slope, lo=lo, hi=hi), **changed))


@pytest.mark.parametrize("slope", [0.2, -0.2])
def test_array_params_give_one_integral_per_element(slope):
    p = _array_params(slope)
    val = arcsine_gauss_integral(p, "quadrature", tol=1e-13)
    assert val.shape == (3,)
    for i in range(3):
        one = ArcsineGaussParams(p.scale, float(p.offset[i]), p.slope, float(p.lo[i]), float(p.hi[i]))
        assert val[i] == pytest.approx(arcsine_gauss_integral(one, "quadrature", tol=1e-13), rel=1e-14)
        assert val[i] == pytest.approx(_quad_reference(one), abs=1e-10)


def test_array_params_checked_element_by_element():
    with pytest.raises(ValueError, match=r"^lo=2\.0 exceeds hi=1\.5$"):
        _array_params(lo=np.array([-1.0, 2.0, 3.0]), hi=np.array([1.0, 1.5, 2.0]))
    # the second element's argument reaches 1.2 at lo, the third's 10^400.2
    with pytest.raises(ValueError, match=r"exceeds 1 on the interval \(max 1\.2\)$"):
        arcsine_gauss_integral(_array_params(offset=np.array([0.3, 0.2 - math.log10(1.2), 0.2])))
    with pytest.raises(ValueError, match="^arcsine argument overflows on the interval$"):
        arcsine_gauss_integral(_array_params(offset=np.array([0.3, 0.2, -400.0])))


def test_series_rejects_array_params():
    with pytest.raises(ValueError, match="'series' with scalar"):
        arcsine_gauss_integral(_array_params(), "series")


def test_series_divergence_signalled():
    # argument slightly above 1 bypassing the public-domain check
    p = ArcsineGaussParams(scale=1.05, offset=0.0, slope=1e-3, lo=-1.0, hi=1.0)
    with pytest.raises(SeriesDivergenceError):
        _series_value(p, tol=1e-15)


def test_series_cap_raises_instead_of_returning_partial_sum():
    # the integral shadowed_pdf needs for urban-macro at side 1000 m and
    # l = 140 dB: the argument reaches 1 at hi, and 500 terms leave the sum
    # 4.1e-5 (relative) short of the quadrature
    m = load_preset("urban-macro").density_model(1000.0)
    pl, l = m.pathloss, 140.0
    mu = l - pl.alpha + 2.0 * math.log(10.0) * pl.sigma_psi**2 / pl.beta
    z_max = (mu - pl.beta * math.log10(m.side / pl.r0)) / pl.sigma_psi
    z_knee = (mu - pl.beta * math.log10(math.sqrt(3.0) * m.side / (2.0 * pl.r0))) / pl.sigma_psi
    p = ArcsineGaussParams(
        scale=math.sqrt(3.0) * m.side / (2.0 * pl.r0),
        offset=mu / pl.beta,
        slope=-math.sqrt(2.0) * pl.sigma_psi / pl.beta,
        lo=z_max / math.sqrt(2.0),
        hi=z_knee / math.sqrt(2.0),
    )
    assert math.isfinite(arcsine_gauss_integral(p, "quadrature"))
    with pytest.raises(SeriesDivergenceError, match="500 terms"):
        arcsine_gauss_integral(p, "series")


# ------------------------------------------------------- series coefficients


def coeff(n):
    return math.exp(_log_asin_taylor_coeff(n))


def test_coefficients_against_asin_taylor():
    """The series sums the arcsine Taylor coefficients (2n)!/(4^n (n!)^2 (2n+1))."""
    coeffs = [1.0, 1.0 / 6.0, 3.0 / 40.0, 15.0 / 336.0, 105.0 / 3456.0]
    for n, c in enumerate(coeffs):
        assert coeff(n) == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("y", [0.1, 0.3, 0.5])
def test_coefficients_reconstruct_asin(y):
    total = sum(coeff(n) * y ** (2 * n + 1) for n in range(40))
    assert total == pytest.approx(math.asin(y), rel=1e-12)


def test_coefficient_ratio_limit():
    # term ratio tends to y^2: radius of convergence |y| <= 1, and at y = 1
    # the terms decay only polynomially
    for y, limit in [(1.0, 1.0), (0.5, 0.25)]:
        r = coeff(200) / coeff(199) * y * y
        assert r == pytest.approx(limit, abs=0.02)
        assert r < 1.0


def test_coefficients_large_n_finite():
    c = coeff(120)
    assert 0.0 < c < coeff(119)
