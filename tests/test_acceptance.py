"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from hexdrop import (
    ArcsineGaussParams,
    CellGeometry,
    CellShape,
    VariateStream,
    arcsine_gauss_integral,
    ks_test,
    marginal_x_cdf,
    pathloss_pdf,
    point_in_shape,
    radial_cdf,
    radial_pdf,
    run_drop,
    sample_points,
    sample_x,
    shadowed_cdf,
    shadowed_pdf,
    shadowed_pdf_conv,
    spatial_chi_square,
)
from hexdrop.density import DensityModel
from hexdrop.pathloss import PathLossParams

from conftest import ALL_SHAPES, PRESET_CASES, preset_model
from test_density import exponent_merge_identity
from test_numerics import random_admissible
from test_sampler import PIECES

SQRT3 = math.sqrt(3.0)
LN10 = math.log(10.0)


def _report(number: int, label: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number:2d} [{label}]: {status} ({time.perf_counter() - started:.2f}s)")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_sampler_exactness():
    t0 = time.perf_counter()
    ok = True
    for shape in ALL_SHAPES:
        geom = CellGeometry(shape, 1.0)
        u = VariateStream(101).uniforms(1000)
        x = sample_x(geom, u)
        ok &= float(np.max(np.abs(marginal_x_cdf(geom, x) - u))) < 1e-10
        for u_star, left, right in PIECES[shape]:
            ok &= abs(left(u_star, 1.0) - right(u_star, 1.0)) <= 1e-12
    _report(1, "inverse-CDF round trip and piece continuity", ok, t0)


def test_criterion_02_spatial_uniformity():
    t0 = time.perf_counter()
    geom = CellGeometry(CellShape.HEXAGON, 1.0)
    pts = sample_points(geom, VariateStream(0), 100_000)
    chi2 = spatial_chi_square(geom, pts, significance=1e-3)
    contained = bool(point_in_shape(geom, pts).all())
    _report(2, "chi-square over 96 equal-area bins + containment", chi2.passed and contained, t0)


def test_criterion_03_radial_density():
    t0 = time.perf_counter()
    L = 1.0
    norm, _ = integrate.quad(lambda r: radial_pdf(L, r), 0.0, L, points=[SQRT3 / 2.0], limit=200)
    ok = abs(norm - 1.0) < 1e-9

    knee = SQRT3 * L / 2.0
    inner = 4.0 * math.pi * knee / (3.0 * SQRT3 * L * L)
    outer = 8.0 * knee / (SQRT3 * L * L) * (math.asin(SQRT3 * L / (2.0 * knee)) - math.pi / 3.0)
    target = 2.0 * math.pi / (3.0 * L)
    ok &= abs(inner - target) <= 1e-12 * target
    ok &= abs(outer - target) <= 1e-12 * target

    pts = sample_points(CellGeometry(CellShape.HEXAGON, L), VariateStream(0), 100_000)
    r = np.hypot(pts[:, 0], pts[:, 1])
    ok &= ks_test(r, lambda v: radial_cdf(L, v)).passed
    _report(3, "radial law: normalization, knee continuity, KS", ok, t0)


def test_criterion_04_pathloss_density():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(44)
    for name, side in PRESET_CASES:
        m = preset_model(name, side)
        p = m.pathloss
        lo = m.knee_loss_db - 5.0 * p.beta  # truncated tail mass < 1e-10
        norm, _ = integrate.quad(
            lambda w: pathloss_pdf(m, w), lo, m.max_loss_db, points=[m.knee_loss_db], limit=300
        )
        ok &= abs(norm - 1.0) < 1e-8
        w = rng.uniform(m.knee_loss_db - 2.0 * p.beta, m.max_loss_db, 100)
        r = p.r0 * 10.0 ** ((w - p.alpha) / p.beta)
        transported = radial_pdf(m.side, r) * r * LN10 / p.beta
        ok &= float(np.max(np.abs(pathloss_pdf(m, w) - transported) / transported)) < 1e-12
    _report(4, "shadow-free density: normalization + change of variables", ok, t0)


def test_criterion_05_closed_form_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for name, side in PRESET_CASES:
        m = preset_model(name, side)
        sig = m.pathloss.sigma_psi
        grid = np.linspace(m.knee_loss_db - 3.0 * sig, m.max_loss_db + 3.0 * sig, 100)
        for l in grid:
            closed = shadowed_pdf(m, float(l), tol=1e-14)
            conv = shadowed_pdf_conv(m, float(l), tol=1e-13)
            worst = max(worst, abs(closed - conv) / conv)
    _report(5, f"closed form vs convolution oracle (max rel {worst:.2e})", worst < 1e-6, t0)


def test_criterion_06_exponent_identity():
    t0 = time.perf_counter()
    m = preset_model("urban-macro", 1000.0)
    sig = m.pathloss.sigma_psi
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(1000):
        l = rng.uniform(m.knee_loss_db, m.max_loss_db)
        tau = rng.uniform(-3.0 * sig, 3.0 * sig)
        lhs, rhs = exponent_merge_identity(m, l, tau)
        worst = max(worst, abs(lhs - rhs) / lhs)
    _report(6, f"exponent-merge identity (max rel {worst:.2e})", worst < 1e-12, t0)


def test_criterion_07_degenerate_shadowing():
    t0 = time.perf_counter()
    base = preset_model("urban-macro", 1000.0).pathloss
    m = DensityModel(1000.0, PathLossParams(base.alpha, base.beta, base.r0, 1e-6))
    worst = 0.0
    for l in np.linspace(m.knee_loss_db + 0.01, m.max_loss_db - 0.01, 200):
        ref = pathloss_pdf(m, float(l))
        worst = max(worst, abs(shadowed_pdf(m, float(l)) - ref) / ref)
    _report(7, f"sigma -> 0 limit (max rel {worst:.2e})", worst < 1e-4, t0)


def test_criterion_08_series_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        p = random_admissible(rng)
        quad_val = arcsine_gauss_integral(p, "quadrature", tol=1e-13)
        series_val = arcsine_gauss_integral(p, "series", tol=1e-13)
        worst = max(worst, abs(series_val - quad_val) / max(1.0, abs(quad_val)))
    ok = worst <= 1e-8

    flat = ArcsineGaussParams(scale=0.8, offset=0.1, slope=0.0, lo=-0.7, hi=1.9)
    analytic = (
        math.asin(0.8 * 10.0**-0.1)
        * math.sqrt(math.pi)
        / 2.0
        * (math.erf(1.9) - math.erf(-0.7))
    )
    for method in ("quadrature", "series"):
        ok &= abs(arcsine_gauss_integral(flat, method) - analytic) <= 1e-12 * abs(analytic)
    _report(8, f"series vs quadrature (max {worst:.2e})", ok, t0)


def test_criterion_09_ten_thousand_terminal_drops():
    started = time.perf_counter()
    ok = True
    for name, side in PRESET_CASES:
        t0 = time.perf_counter()
        m = preset_model(name, side)
        geom = CellGeometry(CellShape.HEXAGON, side)
        table = run_drop(geom, m.pathloss, 10_000, seed=0)
        res = ks_test(table.lp, lambda v: shadowed_cdf(m, v))
        ok &= res.passed and res.critical == pytest.approx(0.01628, rel=1e-3)
        print(
            f"    {name}: ks={res.statistic:.5f} crit={res.critical:.5f} "
            f"({time.perf_counter() - t0:.2f}s)"
        )
    _report(9, "10k-terminal drops match the closed-form CDF", ok, started)


def test_criterion_10_sentinels():
    t0 = time.perf_counter()
    m = preset_model("suburban-macro", 1000.0)
    geom = CellGeometry(CellShape.HEXAGON, 1000.0)
    table = run_drop(geom, m.pathloss, 10_000, seed=0)
    shifted = ks_test(table.lp + 1.0, lambda v: shadowed_cdf(m, v))
    ok = not shifted.passed

    pts = sample_points(CellGeometry(CellShape.HEXAGON, 1.0), VariateStream(0), 100_000)
    pts[:, 1] = 0.0
    ok &= not spatial_chi_square(CellGeometry(CellShape.HEXAGON, 1.0), pts).passed
    _report(10, "corrupted runs are rejected", ok, t0)
