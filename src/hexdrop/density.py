"""Loss densities for a uniform drop around a central base station.

All of them rest on the distance law.  For a uniform drop in a 60 degree
sector of side L (and therefore for the rhombus and the full hexagon,
which repeat that sector), the polar joint density is 4r/(sqrt(3) L^2)
and the separation r has the marginal

    f(r) = 4 pi r / (3 sqrt(3) L^2)                      0 <= r <= sqrt(3)L/2
    f(r) = 8 r / (sqrt(3) L^2) * (asin(sqrt(3)L/(2r)) - pi/3)
                                                         sqrt(3)L/2 <= r <= L

with the breakpoint at the inscribed radius sqrt(3)L/2
(:func:`radial_pdf`, :func:`radial_cdf`).  Two densities are exposed
for the loss between the base station and a uniformly dropped mobile:

* :func:`pathloss_pdf` - the distance-driven component alone, obtained
  from the radial law by the change of variables r = r0 * 10^((w-alpha)/beta);
* :func:`shadowed_pdf` - the loss with log-normal shadowing added, as a
  closed form whose only numerical step is a Gaussian-arcsine integral.

:func:`shadowed_pdf_conv` evaluates the same shadowed density by brute
force (numerical convolution of the Gaussian with the piecewise loss
density) and serves as the oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import ArcsineGaussParams, adaptive_simpson, arcsine_gauss_integral, cusp_simpson, q_function
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


def _check_side(side: float) -> float:
    if not side > 0.0:
        raise ValueError(f"side must be positive, got {side}")
    return float(side)


def radial_pdf(side: float, r):
    """Marginal density of the separation r; zero beyond r = L."""
    L = _check_side(side)
    arr = np.asarray(r, dtype=float)
    if (arr < 0.0).any():
        raise ValueError("r must be nonnegative")
    knee = SQRT3 * L / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = (
            8.0
            * arr
            / (SQRT3 * L * L)
            * (np.arcsin(np.clip(knee / np.where(arr > 0.0, arr, 1.0), -1.0, 1.0)) - math.pi / 3.0)
        )
    pdf = np.select(
        [arr <= knee, arr <= L],
        [4.0 * math.pi * arr / (3.0 * SQRT3 * L * L), outer],
        default=0.0,
    )
    return float(pdf) if np.ndim(r) == 0 else pdf


def radial_cdf(side: float, r):
    """CDF of the separation.

    The inner piece integrates to 2 pi r^2 / (3 sqrt(3) L^2); the outer
    piece uses the antiderivative of r*(asin(c/r) - pi/3),

        (r^2/2) asin(c/r) + (c/2) sqrt(r^2 - c^2) - pi r^2 / 6,

    which the tests cross-check against adaptive quadrature.
    """
    L = _check_side(side)
    arr = np.asarray(r, dtype=float)
    c = SQRT3 * L / 2.0
    inner_mass = math.pi / (2.0 * SQRT3)  # CDF at the breakpoint

    rs = np.clip(arr, c, L)
    with np.errstate(invalid="ignore"):
        g = (
            0.5 * rs * rs * np.arcsin(np.clip(c / rs, -1.0, 1.0))
            + 0.5 * c * np.sqrt(np.maximum(rs * rs - c * c, 0.0))
            - math.pi * rs * rs / 6.0
        )
    g_knee = math.pi * L * L / 16.0
    outer = inner_mass + (8.0 / (SQRT3 * L * L)) * (g - g_knee)

    cdf = np.select(
        [arr <= 0.0, arr <= c, arr <= L],
        [0.0, 2.0 * math.pi * arr * arr / (3.0 * SQRT3 * L * L), outer],
        default=1.0,
    )
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
        if not (math.isfinite(self.side) and self.side > 0.0):
            raise ValueError(f"side must be positive and finite, got {self.side}")
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
    """Density of the shadow-free loss, per dB.

    Piecewise in w (alpha, beta, r0 from the model, side L):

    * w <= knee:        (4 pi r0^2 ln10 / (3 sqrt(3) L^2 beta)) * 10^(2(w-alpha)/beta)
    * knee <= w <= max: (8 r0^2 ln10 / (sqrt(3) L^2 beta)) * 10^(2(w-alpha)/beta)
                        * (asin(sqrt(3) L / (2 r0 10^((w-alpha)/beta))) - pi/3)
    * w > max:          0

    Accepts the full real line; the support extends to -inf because the
    distance law is extrapolated below the close-in distance, where the
    remaining mass is negligible for r0 much smaller than L.
    """
    p = model.pathloss
    arr = np.atleast_1d(np.asarray(w, dtype=float))
    out = np.zeros_like(arr)
    knee, top = model.knee_loss_db, model.max_loss_db
    L2 = model.side * model.side
    base = p.r0 * p.r0 * LN10 / (L2 * p.beta)

    inner = arr <= knee
    if inner.any():
        out[inner] = (4.0 * math.pi / (3.0 * SQRT3)) * base * 10.0 ** (
            2.0 * (arr[inner] - p.alpha) / p.beta
        )
    mid = (arr > knee) & (arr <= top)
    if mid.any():
        ratio = SQRT3 * model.side / (2.0 * p.r0 * 10.0 ** ((arr[mid] - p.alpha) / p.beta))
        out[mid] = (
            (8.0 / SQRT3)
            * base
            * 10.0 ** (2.0 * (arr[mid] - p.alpha) / p.beta)
            * (np.arcsin(np.clip(ratio, -1.0, 1.0)) - math.pi / 3.0)
        )
    return float(out[0]) if np.ndim(w) == 0 else out


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

    The integral runs through :func:`hexdrop.numerics.arcsine_gauss_integral`
    by adaptive quadrature: the arcsine argument reaches 1 at the upper
    limit, where the series closed form decays only polynomially.  The
    limits are clipped to the +-9.5 window where the Gaussian factor is
    non-negligible, which also keeps the evaluation stable for vanishing
    sigma.
    """
    p = model.pathloss
    sigma = p.sigma_psi
    if not sigma > 0.0:
        raise ValueError("shadowing deviation must be positive")
    mu = l - p.alpha + 2.0 * LN10 * sigma**2 / p.beta
    z_max = (mu - p.beta * math.log10(model.side / p.r0)) / sigma
    z_knee = (mu - p.beta * math.log10(SQRT3 * model.side / (2.0 * p.r0))) / sigma
    L2 = model.side * model.side

    try:
        prefactor = (4.0 * p.r0 * p.r0 * LN10 / (SQRT3 * L2 * p.beta)) * 10.0 ** (
            2.0 * (LN10 * sigma * sigma + p.beta * (l - p.alpha)) / (p.beta * p.beta)
        )
    except OverflowError:
        raise ValueError(
            f"loss {l} dB overflows the closed-form prefactor; the model's maximum "
            f"mean loss is {model.max_loss_db:.6g} dB"
        ) from None

    lo = max(z_max / math.sqrt(2.0), -GAUSS_REACH)
    hi = min(z_knee / math.sqrt(2.0), GAUSS_REACH)
    if hi > lo:
        params = ArcsineGaussParams(
            scale=SQRT3 * model.side / (2.0 * p.r0),
            offset=mu / p.beta,
            slope=-math.sqrt(2.0) * sigma / p.beta,
            lo=lo,
            hi=hi,
        )
        integral = arcsine_gauss_integral(params, tol=tol)
    else:
        integral = 0.0

    bracket = (
        math.pi * q_function(z_knee)
        - (2.0 * math.pi / 3.0) * q_function(z_max)
        + (2.0 / math.sqrt(math.pi)) * integral
    )
    return prefactor * bracket


def shadowed_pdf_conv(model: DensityModel, l: float, tol: float = 1e-13) -> float:
    """Brute-force shadowed density: convolve the Gaussian with the
    shadow-free density by adaptive quadrature.

    The integrand in the shadowing variable tau is
    gaussian(tau) * pathloss_pdf(l - tau); it vanishes for
    tau < l - max_loss, switches branch at tau = l - knee and decays under
    the Gaussian envelope beyond +-9.5 sigma.  The integration range is
    split at those points (plus a few Gaussian landmarks, so the adaptive
    rule cannot step over a narrow bump) and each piece integrated to tol.
    The shadow-free density has a square-root cusp where its arcsine
    argument reaches 1 (at tau = l - knee); the segment ending there is
    integrated in the substituted variable s = sqrt(t_knee - tau), which
    removes the cusp.
    """
    p = model.pathloss
    sigma = p.sigma_psi
    if not sigma > 0.0:
        raise ValueError("shadowing deviation must be positive")

    def integrand(tau: float) -> float:
        gauss = math.exp(-0.5 * (tau / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
        return gauss * float(pathloss_pdf(model, l - tau))

    t_low = l - model.max_loss_db  # below: shadow-free density is zero
    t_knee = l - model.knee_loss_db
    reach = GAUSS_REACH * sigma
    upper = max(t_knee, 0.0) + reach
    # drift of the Gaussian-exponential product peak in the circular branch
    peak = -2.0 * LN10 * sigma * sigma / p.beta

    cuts = {t_low, t_knee, upper}
    for landmark in (-reach, -6 * sigma, -3 * sigma, peak, 0.0, 3 * sigma, 6 * sigma, reach):
        if t_low < landmark < upper:
            cuts.add(landmark)
    grid = sorted(c for c in cuts if max(t_low, -reach - abs(peak)) <= c <= upper)

    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        if b == t_knee:
            total += cusp_simpson(integrand, t_knee, a, tol)
        else:
            total += adaptive_simpson(integrand, a, b, tol)
    return total


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
    f = np.array([shadowed_pdf(model, float(x)) for x in grid])
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
