"""Loss densities for a uniform drop around a central base station.

All of them rest on the distance law.  For a uniform drop in a 60 degree
sector of side L (and therefore for the rhombus and the full hexagon,
which repeat that sector), the polar joint density is 4r/(sqrt(3) L^2).
Every angle of the sector counts within the inscribed radius c =
sqrt(3)L/2, and beyond it those with r cos(theta) <= c (theta from the
sector's axis), which gives f(r) = 4 pi r / (3 sqrt(3) L^2) on the disc
and 8 r / (sqrt(3) L^2) * (asin(c/r) - pi/3) on the ring c <= r <= L.
With pi/6 for the bracket on the disc, the law is one expression over a
clamped arcsine step (:func:`radial_pdf`, :func:`radial_cdf`):

    f(r) = 8 r / (sqrt(3) L^2) * (pi/6 if r <= c else asin(min(c/r, 1)) - pi/3)

Two densities are exposed for the loss between the base station and a
uniformly dropped mobile:

* :func:`pathloss_pdf` - the distance-driven component alone, obtained
  from the radial law by the change of variables r = r0 * 10^((w-alpha)/beta);
* :func:`shadowed_pdf` - the loss with log-normal shadowing added, as a
  closed form whose only numerical step is a Gaussian-arcsine integral.

:func:`shadowed_pdf_conv` and :func:`shadowed_pdf_conv_grid` evaluate the
same shadowed density by brute force (numerical convolution of the Gaussian
with the piecewise loss density) and serve as the oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import check_side
from .numerics import (
    _G7_WEIGHTS,
    _GK_EDGES,
    _GK_NODES,
    _K15_WEIGHTS,
    GK_BATCH,
    GK_PANELS,
    GK_ROUNDING,
    ArcsineGaussParams,
    arcsine_gauss_integral,
    gauss_kronrod,
    q_function,
)
from .pathloss import PathLossParams

SQRT3 = math.sqrt(3.0)
LN10 = math.log(10.0)

# Standard-normal mass beyond 9.5 sigma is ~1e-42; integration windows in
# the shadowing dimension are clipped there.
GAUSS_REACH = 9.5

# The distance-driven density has an exponential lower tail with rate
# 2*ln10/beta per dB; 4.5*beta below its knee the remaining mass is ~1e-9.
LOWER_TAIL_DECADES = 4.5

# Nodes of the cumulative table behind shadowed_cdf; odd, so that
# Simpson panels tile the grid.
CDF_POINTS = 3001


def _arc_excess(ratio, disc):
    """pi/6 where disc holds, asin(min(ratio, 1)) - pi/3 elsewhere: the
    distance law's bracket.  Each caller decides disc in its own variable."""
    return np.where(disc, math.pi / 6.0, np.arcsin(np.minimum(ratio, 1.0)) - math.pi / 3.0)


def radial_pdf(side: float, r):
    """Marginal density of the separation r; zero beyond r = L, NaN at NaN."""
    L = check_side(side)
    arr = np.asarray(r, dtype=float)
    if (arr < 0.0).any():
        raise ValueError("r must be nonnegative")
    c = SQRT3 * L / 2.0
    with np.errstate(divide="ignore"):
        pdf = np.where(arr > L, 0.0, 8.0 * arr / (SQRT3 * L * L) * _arc_excess(c / arr, arr <= c))
    return float(pdf) if np.ndim(r) == 0 else pdf


def radial_cdf(side: float, r):
    """CDF of the separation, 8/(sqrt(3) L^2) * g(r) for r clipped to [0, L]:

        g(r) = (r^2/2) (asin(c/r) - pi/3) + (c/2) sqrt(max(r^2 - c^2, 0))

    integrates r times the law's bracket from 0, and with pi/6 for the
    bracket it is pi r^2 / 12 on the disc; the tests cross-check it against
    adaptive quadrature.  1 from L up, NaN at NaN.
    """
    L = check_side(side)
    arr = np.asarray(r, dtype=float)
    c = SQRT3 * L / 2.0
    rs = np.clip(arr, 0.0, L)
    with np.errstate(divide="ignore"):
        g = 0.5 * rs * rs * _arc_excess(c / rs, rs <= c) + 0.5 * c * np.sqrt(np.maximum(rs * rs - c * c, 0.0))
    cdf = np.where(arr > L, 1.0, np.minimum(8.0 / (SQRT3 * L * L) * g, 1.0))  # g(L) rounds up by an ulp
    return float(cdf) if np.ndim(r) == 0 else cdf


@dataclass(frozen=True)
class DensityModel:
    """Cell side length plus loss parameters, fixing both densities.

    The support constants are the mean losses at the inscribed radius
    (knee_loss_db, where the radial law changes branch) and at the cell
    vertex distance (max_loss_db, beyond which the shadow-free density
    vanishes).  The close-in distance must sit inside the inscribed
    circle so that knee < max.
    """

    side: float
    pathloss: PathLossParams

    def __post_init__(self):
        check_side(self.side)
        if not self.pathloss.r0 < SQRT3 * self.side / 2.0:
            raise ValueError(
                f"close-in distance {self.pathloss.r0} m must be smaller than "
                f"the inscribed radius {SQRT3 * self.side / 2.0:.6g} m"
            )

    @property
    def knee_loss_db(self) -> float:
        p = self.pathloss
        return p.alpha + p.beta * math.log10(SQRT3 * self.side / (2.0 * p.r0))

    @property
    def max_loss_db(self) -> float:
        p = self.pathloss
        return p.alpha + p.beta * math.log10(self.side / p.r0)


def pathloss_pdf(model: DensityModel, w):
    """Density of the shadow-free loss, per dB: the radial law carried to dB
    by r = r0 * 10^((w-alpha)/beta), so f_W(w) = f_R(r) * r * ln10 / beta,

        (8 r^2 ln10 / (sqrt(3) L^2 beta)) * (asin(sqrt(3) L / (2r)) - pi/3),

    with pi/6 for the bracket at and below the knee, 0 above max and NaN
    at NaN.  The branch is decided in w, at the knee where the convolution
    oracle splits its segments.  Accepts the full real line; the support
    extends to -inf because the distance law is extrapolated below the
    close-in distance, where the remaining mass is negligible for r0 much
    smaller than L.
    """
    p = model.pathloss
    arr = np.asarray(w, dtype=float)
    L = model.side
    with np.errstate(divide="ignore", over="ignore"):
        r = p.r0 * 10.0 ** ((arr - p.alpha) / p.beta)
        law = r * r * _arc_excess(SQRT3 * L / (2.0 * r), arr <= model.knee_loss_db)
    pdf = np.where(arr > model.max_loss_db, 0.0, (8.0 * LN10 / (SQRT3 * L * L * p.beta)) * law)
    return float(pdf) if np.ndim(w) == 0 else pdf


def shadowed_pdf(model: DensityModel, l: float, tol: float = 1e-12) -> float:
    """Closed-form density of loss plus shadowing at l dB, per dB.

    With mu = l - alpha + 2*ln10*sigma^2/beta (the excess loss shifted by
    the square-completion offset) and its distances in sigma from the
    maximum mean loss and from the knee, z_max = (mu - beta*log10(L/r0))
    / sigma and z_knee = (mu - beta*log10(sqrt(3)L/(2 r0))) / sigma > z_max,

        f(l) = K(l) * [ pi*Q(z_knee) - (2 pi / 3)*Q(z_max)
                        + (2/sqrt(pi)) * I ]
        K(l) = (4 r0^2 ln10 / (sqrt(3) L^2 beta))
               * 10^(2*(ln10*sigma^2 + beta*(l-alpha)) / beta^2)
        I    = int_{z_max/sqrt2}^{z_knee/sqrt2} exp(-v^2)
               * asin(sqrt(3) L / (2 r0 10^((mu - sqrt(2) sigma v)/beta))) dv

    The integral runs by Gauss-Kronrod quadrature, as in
    :func:`hexdrop.numerics.arcsine_gauss_integral`: the arcsine argument
    reaches 1 at the upper limit, where the series closed form decays only
    polynomially.  The integration window starts at max(z_max/sqrt2, -9.5)
    and ends at most 9.5 past max(start, 0): beyond that the Gaussian factor
    is below e^-90 of its largest value in the window, negligible next to
    the Q terms however far into the upper tail, and the evaluation stays
    stable for vanishing sigma.  Raises ValueError, naming l, sigma and
    beta, when mu or K(l) leaves the floating-point range; NaN gives NaN.
    A one-point call of :func:`shadowed_pdf_grid`, which tabulates whole
    grids at once.
    """
    return float(shadowed_pdf_grid(model, [l], tol)[0])


def shadowed_pdf_grid(model: DensityModel, l, tol: float = 1e-12) -> np.ndarray:
    """:func:`shadowed_pdf` at each loss of the 1-D array l.  mu, K(l), z_max
    and z_knee are formed for all points at once.  The integrals whose window
    is the whole [z_max, z_knee]/sqrt2, unclipped by GAUSS_REACH, share one
    first Gauss-Kronrod pass (:func:`_whole_window_pass`); the clipped ones,
    and those with a panel that pass rejects, go to one call of
    :func:`hexdrop.numerics.arcsine_gauss_integral` and its adaptive loop,
    made even when no point needs it.  The ValueError names the first finite
    l whose mu or K(l) is not finite, with the error that Python's float
    arithmetic meets there."""
    p = model.pathloss
    sigma = p.sigma_psi
    if not sigma > 0.0:
        raise ValueError("shadowing deviation must be positive")
    L2 = model.side * model.side

    def mu_prefactor(l):  # on floats, ArithmeticError out of range; on arrays, inf
        mu = l - p.alpha + 2.0 * LN10 * sigma**2 / p.beta
        return mu, (4.0 * p.r0 * p.r0 * LN10 / (SQRT3 * L2 * p.beta)) * 10.0 ** (
            2.0 * (LN10 * sigma * sigma + p.beta * (l - p.alpha)) / (p.beta * p.beta)
        )

    l = np.atleast_1d(np.asarray(l, dtype=float))
    with np.errstate(all="ignore"):
        first = l[0] if l.size else math.nan  # where a term without l is out of range
        try:
            mu, prefactor = mu_prefactor(l)
            wrong = l[np.isfinite(l) & ~(np.isfinite(mu) & np.isfinite(prefactor))]
            if wrong.size:
                first = float(wrong[0])
                mu_prefactor(first)  # Python's float arithmetic names the error,
                raise OverflowError  # or reaches inf without one
        except ArithmeticError as exc:
            raise ValueError(
                f"loss {first} dB at sigma {sigma} dB and beta {p.beta} dB/decade is outside "
                f"the floating-point range of the closed form ({type(exc).__name__}); "
                f"the model's maximum mean loss is {model.max_loss_db:.6g} dB"
            ) from None
        z_max = (mu - p.beta * math.log10(model.side / p.r0)) / sigma
        z_knee = (mu - p.beta * math.log10(SQRT3 * model.side / (2.0 * p.r0))) / sigma
        bottom, top = z_max / math.sqrt(2.0), z_knee / math.sqrt(2.0)
        lo = np.maximum(bottom, -GAUSS_REACH)
        hi = np.minimum(top, np.maximum(lo, 0.0) + GAUSS_REACH)
        integral = np.zeros_like(l)
        rest = hi > lo  # the windows left to the adaptive loop
        whole = np.flatnonzero(rest & (lo == bottom) & (hi == top))
        integral[whole], passed = _whole_window_pass(model, top[whole], tol)
        rest[whole[passed]] = False
        k = np.flatnonzero(rest)
        params = ArcsineGaussParams(
            SQRT3 * model.side / (2.0 * p.r0), mu[k] / p.beta, -math.sqrt(2.0) * sigma / p.beta, lo[k], hi[k]
        )
        integral[k] = arcsine_gauss_integral(params, tol=tol)
        q_knee, q_max = q_function(z_knee), q_function(z_max)
        bracket = math.pi * q_knee - (2.0 * math.pi / 3.0) * q_max + (2.0 / math.sqrt(math.pi)) * integral
        return prefactor * bracket


def _whole_window_pass(model: DensityModel, top: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The first Gauss-Kronrod pass of the closed form's integral I over its
    whole window [z_max, z_knee]/sqrt2, for the points whose window tops are
    top = z_knee/sqrt2.

    In the arcsine's own exponent t = mu/beta + slope*v, slope =
    -sqrt2 sigma/beta, every such window is [t_knee, t_max] =
    [log10(sqrt(3)L/(2 r0)), log10(L/r0)].  With t = t_knee + s^2, which
    removes the square-root cusp at t_knee, I runs over s in
    [0, sqrt(t_max - t_knee)] on the same GK_PANELS equal panels for every
    point, so the factor 2s asin(min(sqrt(3)L/(2 r0) 10^-t, 1)) / |slope|
    is formed once, on the 15 * GK_PANELS nodes, and each point multiplies
    it by its Gaussian exp(-v^2), v = top + s^2/slope.  GK_BATCH points at a
    time, so a block holds at most BLOCK values.  The nodes are the leading
    axis, so each panel's K15 and G7 sums add the nodes in their order,
    whatever the number of points.  Returns each point's K15 total and
    whether every panel passed the first-round test of the adaptive loop:
    |K - G| within tol/GK_PANELS or within GK_ROUNDING * |K|.
    """
    p = model.pathloss
    slope = -math.sqrt(2.0) * p.sigma_psi / p.beta
    scale = SQRT3 * model.side / (2.0 * p.r0)
    t_knee = math.log10(scale)
    edges = math.sqrt(math.log10(model.side / p.r0) - t_knee) * _GK_EDGES
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (edges[:-1] + half) + half * _GK_NODES[:, None]  # node by panel
    arc = (2.0 * s * np.arcsin(np.minimum(scale * 10.0 ** -(t_knee + s * s), 1.0)) / abs(slope))[:, :, None]
    below = (s * s / slope)[:, :, None]
    value, passed = np.empty(top.size), np.empty(top.size, dtype=bool)
    for a in range(0, top.size, GK_BATCH):
        rows = slice(a, a + GK_BATCH)
        fx = below + top[rows]
        np.square(fx, out=fx)
        np.exp(np.negative(fx, out=fx), out=fx)
        fx *= arc
        kronrod = half[:, None] * (fx * _K15_WEIGHTS[:, None, None]).sum(axis=0)
        err = np.abs(kronrod - half[:, None] * (fx * _G7_WEIGHTS[:, None, None]).sum(axis=0))
        value[rows] = kronrod.sum(axis=0)
        passed[rows] = ((err <= tol / GK_PANELS) | (err <= GK_ROUNDING * np.abs(kronrod))).all(axis=0)
    return value, passed


def shadowed_pdf_conv(model: DensityModel, l: float, tol: float = 1e-13) -> float:
    """Brute-force shadowed density: convolve the Gaussian with the
    shadow-free density by adaptive Gauss-Kronrod quadrature.

    The integrand in the shadowing variable tau is
    gaussian(tau) * pathloss_pdf(l - tau); it vanishes for
    tau < l - max_loss, switches branch at tau = l - knee and decays under
    the Gaussian envelope beyond +-9.5 sigma.  The integration range is
    split at those points (plus a few Gaussian landmarks, so the adaptive
    rule cannot step over a narrow bump) and each segment integrated to the
    absolute tolerance tol, shared over its width.  The shadow-free density
    has a square-root cusp where its arcsine argument reaches 1 (at
    tau = l - knee); the segment ending there, which absorbs any landmark
    within 1e-6 sigma below it, is integrated in the variable
    s = sqrt(t_knee - tau), which removes the cusp.  This is direct
    convolution in tau, not the closed form's Gaussian-arcsine integral in
    v.  A sigma so small that the Gaussian's peak overflows raises
    ValueError; NaN gives NaN.  A one-point call of
    :func:`shadowed_pdf_conv_grid`.
    """
    return float(shadowed_pdf_conv_grid(model, [l], tol)[0])


def shadowed_pdf_conv_grid(model: DensityModel, l, tol: float = 1e-13) -> np.ndarray:
    """:func:`shadowed_pdf_conv` at each loss of the 1-D array l: every
    point's segments go to one call of :func:`hexdrop.numerics.gauss_kronrod`,
    one integral each, and are summed per point in their order."""
    p = model.pathloss
    sigma = p.sigma_psi
    if not sigma > 0.0:
        raise ValueError("shadowing deviation must be positive")
    if not math.isfinite(1.0 / (math.sqrt(2.0 * math.pi) * sigma)):
        raise ValueError(f"shadowing deviation {sigma} dB is too small for the convolution oracle: "
                         "the Gaussian's peak 1/(sqrt(2 pi) sigma) overflows")
    l = np.atleast_1d(np.asarray(l, dtype=float))
    t_low = l - model.max_loss_db  # below: shadow-free density is zero
    t_knee = l - model.knee_loss_db
    reach = GAUSS_REACH * sigma
    upper = np.maximum(t_knee, 0.0) + reach
    # drift of the Gaussian-exponential product peak in the circular branch
    peak = -2.0 * LN10 * sigma * sigma / p.beta
    marks = np.array([[-reach, -6 * sigma, -3 * sigma, peak, 0.0, 3 * sigma, 6 * sigma, reach]])
    # a landmark just below the knee would end a plain segment on the cusp
    marks = np.where((marks > t_knee[:, None] - 1e-6 * sigma) & (marks < t_knee[:, None]), np.nan, marks)
    cuts = np.column_stack([t_low, t_knee, upper, marks])
    inside = (cuts >= np.maximum(t_low, -reach - abs(peak))[:, None]) & (cuts <= upper[:, None])
    cuts = np.sort(np.where(inside, cuts, np.nan), axis=1)  # NaN last, so b > a skips it and repeats
    point, j = np.nonzero(cuts[:, 1:] > cuts[:, :-1])  # a NaN point has only NaN cuts, so no segment
    a, b = cuts[point, j], cuts[point, j + 1]
    knee = b == t_knee[point]
    lo, hi = np.where(knee, 0.0, a), np.where(knee, np.sqrt(np.maximum(t_knee[point] - a, 0.0)), b)

    def f(x, k):  # on knee segments, tau = t_knee - s^2 makes the cusp smooth in s
        bend, at = knee[k, None], point[k, None]
        tau = np.where(bend, t_knee[at] - x * x, x)
        with np.errstate(over="ignore"):  # (tau/sigma)^2 = inf for a tiny sigma, and exp(-inf) = 0
            gauss = np.exp(-0.5 * (tau / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
        return np.where(bend, 2.0 * x, 1.0) * (gauss * pathloss_pdf(model, l[at] - tau))

    out = np.bincount(point, gauss_kronrod(f, lo, hi, tol), l.size)
    return np.where(np.isnan(l), np.nan, out)


@lru_cache(maxsize=8)
def _cdf_table(model: DensityModel, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense cumulative table of the closed-form shadowed density.

    Composite Simpson over a grid wide enough that the truncated mass is
    below 1e-9 on both sides (4.5 decades of the exponential lower tail
    plus 8 sigma of Gaussian spread).  points must be odd, so that the
    Simpson panels tile the grid.
    """
    p = model.pathloss
    lower = model.knee_loss_db - LOWER_TAIL_DECADES * p.beta - 8.0 * p.sigma_psi
    upper = model.max_loss_db + 8.0 * p.sigma_psi
    grid = np.linspace(lower, upper, points)
    f = shadowed_pdf_grid(model, grid)
    h = grid[1] - grid[0]
    f0, f1, f2 = f[:-2:2], f[1::2], f[2::2]
    cum = np.empty_like(grid)
    cum[0] = 0.0
    # Simpson over each point pair: the even points close a full panel,
    # the odd points take the quadratic sub-panel through (f0, f1, f2).
    cum[2::2] = np.cumsum(h * (f0 + 4.0 * f1 + f2) / 3.0)
    cum[1::2] = cum[:-2:2] + h * (5.0 * f0 + 8.0 * f1 - f2) / 12.0
    return grid, cum


def shadowed_cdf(model: DensityModel, l):
    """CDF of the shadowed loss, by quadrature of the closed form.

    Backed by a cached cumulative table so repeated and vectorised calls
    (KS tests evaluate it at every sample) stay cheap; with CDF_POINTS
    nodes, linear interpolation keeps the error below 5e-6 for the
    builtin presets.  Tends to 0 well below the support knee and reaches
    1 within 1e-6 by 8 sigma above the maximum mean loss.
    """
    grid, cum = _cdf_table(model, CDF_POINTS)
    vals = np.interp(np.asarray(l, dtype=float), grid, cum)
    return float(vals) if np.ndim(l) == 0 else vals
