"""Special functions and integration used by the density evaluators.

Three pieces: the Gaussian tail (Q) function and ln erfc, from the standard
library's math.erfc, one breadth-first adaptive Gauss-Kronrod (G7/K15) loop
on arrays, which both the closed form and the convolution oracle integrate
with (each smooths a square-root cusp by a substitution), and the integral

    I(k, a, b; x1, x2) = int_{x1}^{x2} exp(-x^2) * asin(k * 10^-(a + b x)) dx

evaluated either by Gauss-Kronrod quadrature or by a series closed form
obtained by expanding the arcsine in its Taylor series and integrating the
resulting Gaussian-exponential terms exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .geometry import BLOCK

SQRT_PI = math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)
LN10 = math.log(10.0)

# Arguments this far above 1 are treated as rounding and clamped; anything
# larger is a caller error.
ARG_CLAMP = 1e-12

SERIES_MAX_TERMS = 500
MAX_DEPTH = 48  # cap on the adaptive loop's bisection rounds

# QUADPACK's qk15 pair (Piessens et al., 1983) on [-1, 1]: each node, its
# K15 weight and its G7 weight (zero on the nodes Kronrod added), the
# positive half and then the centre.  K15 is exact for polynomials of
# degree 22, G7 for degree 13.
_KRONROD_HALF = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204, 0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238, 0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014, 0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_GK_CENTRE = (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327)
_GK_NODES, _K15_WEIGHTS, _G7_WEIGHTS = np.array(
    [(-x, wk, wg) for x, wk, wg in _KRONROD_HALF] + [_GK_CENTRE] + list(reversed(_KRONROD_HALF))
).T
GK_PANELS = 4  # panels of the first Gauss-Kronrod pass
GK_BATCH = BLOCK // (GK_PANELS * 15)  # integrals per adaptive loop: at most BLOCK abscissae in its first pass
_GK_EDGES = np.arange(GK_PANELS + 1) / GK_PANELS
# A panel is accepted once |K - G| is within this share of |K| whatever
# its share of tol: the pair then agrees to rounding.
GK_ROUNDING = 1e-14
# Open panels of one integral before the adaptive loop gives up: noise fails
# on every panel, which would otherwise double them each round.
GK_MAX_PANELS = 4096


class NonConvergenceError(RuntimeError):
    """Quadrature hit its depth or panel cap before reaching tolerance."""


class SeriesDivergenceError(NonConvergenceError):
    """The series did not reach its tolerance within SERIES_MAX_TERMS terms."""


def q_function(x):
    """Standard normal tail probability Q(x) = erfc(x/sqrt(2)) / 2 of a float, or of each element of an array.

    An array's erfc values come from one C-level map of math.erfc over the
    list of its x/sqrt(2), so each equals the float's Q bit for bit.
    """
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(x / SQRT2)
    z = np.asarray(x, dtype=float) / SQRT2
    return 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _adapt(f, a: np.ndarray, b: np.ndarray, share: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The loop of :func:`gauss_kronrod` over one batch: panel [a, b] belongs
    to integral owner, numbered from 0 within the batch, whose share of tol
    per unit width is share[owner].  Returns the batch's totals."""
    first = a, b, owner
    total = np.zeros(share.size)
    for _ in range(MAX_DEPTH + 1):
        half = 0.5 * (b - a)
        mid = a + half
        fx = f(mid[:, None] + half[:, None] * _GK_NODES, owner)
        kronrod = half * (fx @ _K15_WEIGHTS)
        err = np.abs(kronrod - half * (fx @ _G7_WEIGHTS))
        done = (err <= share[owner] * (b - a)) | (err <= GK_ROUNDING * np.abs(kronrod))
        total += np.bincount(owner[done], kronrod[done], share.size)
        if done.all():
            return total
        keep = ~done
        left = owner[keep]
        # all open panels bound those of any one integral
        if 2 * left.size > GK_MAX_PANELS and 2 * np.bincount(left).max() > GK_MAX_PANELS:
            break
        a, b, mid = a[keep], b[keep], mid[keep]
        a, b, owner = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([left, left])
    err = err[keep]
    k = left[err.argmax()]  # the integral with the largest open error
    lo, hi = first[0][first[2] == k].min(), first[1][first[2] == k].max()
    raise NonConvergenceError(
        f"Gauss-Kronrod did not reach its tolerance on [{lo}, {hi}]: "
        f"{int(np.count_nonzero(left == k))} panels unresolved, largest error estimate {err.max():.3e}"
    )


def gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Integrate over [lo[k], hi[k]] to absolute tolerance tol, for each k of
    equal-length arrays with lo <= hi.

    f(x, k) maps an array of abscissae, row i belonging to integral k[i], to
    an array of values.  GK_BATCH integrals at a time share one adaptive
    loop, so its first pass evaluates at most BLOCK abscissae.  Each round
    applies the G7/K15 pair to every open panel in one call of f, starting
    from GK_PANELS equal panels per integral, each with its width's share of
    tol; a panel is accepted when |K - G| is within its share, or within
    GK_ROUNDING * |K|, and the others are bisected.  Returns the sums of the
    accepted K15 values.  Raises ValueError unless tol > 0, and
    NonConvergenceError after MAX_DEPTH bisection rounds or past
    GK_MAX_PANELS open panels of one integral.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    total = np.zeros(lo.size)
    need = np.flatnonzero(lo != hi)
    for start in range(0, need.size, GK_BATCH):
        k = need[start : start + GK_BATCH]  # the batch's integrals, indexed 0 to k.size - 1 inside the loop
        edges = lo[k, None] + (hi - lo)[k, None] * _GK_EDGES
        share, owner = tol / (hi - lo)[k], np.repeat(np.arange(k.size), GK_PANELS)
        total[k] = _adapt(lambda x, i: f(x, k[i]), edges[:, :-1].ravel(), edges[:, 1:].ravel(), share, owner)
    return total


@dataclass(frozen=True)
class ArcsineGaussParams:
    """Parameters of the Gaussian-arcsine integral.

    The arcsine argument is scale * 10^-(offset + slope*x); it must stay
    within [0, 1] over [lo, hi], which is checked at the endpoints since
    the argument is monotone in x.  offset, lo and hi may be equal-length
    arrays, one integral per element, checked element by element.
    """

    scale: float
    offset: float | np.ndarray
    slope: float
    lo: float | np.ndarray
    hi: float | np.ndarray

    def __post_init__(self):
        lo, hi = np.broadcast_arrays(self.lo, self.hi)
        if (lo > hi).any():
            raise ValueError(f"lo={lo[lo > hi][0]} exceeds hi={hi[lo > hi][0]}")
        if self.scale < 0.0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")

    def argument(self, x):
        """The arcsine argument at x, a float or an array."""
        return self.scale * 10.0 ** (-(self.offset + self.slope * x))


def _log_asin_taylor_coeff(n: int) -> float:
    # log of (2n)! / (4^n * (n!)^2 * (2n+1)), the asin Taylor coefficient
    return lgamma(2 * n + 1) - 2 * n * math.log(2.0) - 2 * lgamma(n + 1) - math.log(2 * n + 1)


def _log_erfc(s: float) -> float:
    """ln erfc(s) for s >= 0: math.erfc below 26, where erfc(s) is still a normal
    float, and above it the asymptotic series (Abramowitz & Stegun 7.1.23) to k = 7."""
    if s < 26.0:
        return math.log(math.erfc(s))
    t, total = -0.5 / (s * s), 1.0
    for j in (13, 11, 9, 7, 5, 3, 1):  # sum of (2k - 1)!! t^k in Horner form
        total = 1.0 + j * t * total
    return -s * s - math.log(s * SQRT_PI) + math.log(total)


def _amp_erfc_diff(ln_amp: float, xi: float, s1: float, s2: float) -> float:
    """amp * e^(xi^2) * (erfc(s1) - erfc(s2)) without forming e^(xi^2).

    Each product amp*e^(xi^2)*erfc(s) is exp(ln_amp + xi^2 + ln erfc(|s|))
    up to the reflection erfc(-t) = 2 - erfc(t); for admissible parameters
    every exponent here is bounded even though e^(xi^2) alone overflows.
    """
    def tail(s: float) -> float:
        return math.exp(ln_amp + xi * xi + _log_erfc(abs(s)))

    if s1 >= 0.0:
        return tail(s1) - tail(s2)
    if s2 < 0.0:
        return tail(s2) - tail(s1)
    # mixed signs: |xi| is small here, the direct term is safe
    return 2.0 * math.exp(ln_amp + xi * xi) - tail(s1) - tail(s2)


def _series_value(p: ArcsineGaussParams, tol: float) -> float:
    gamma = p.slope * LN10
    ln_y0 = math.log(p.scale) - p.offset * LN10
    total = 0.0
    for n in range(SERIES_MAX_TERMS + 1):
        xi = 0.5 * gamma * (2 * n + 1)
        ln_amp = _log_asin_taylor_coeff(n) + (2 * n + 1) * ln_y0
        term = 0.5 * SQRT_PI * _amp_erfc_diff(ln_amp, xi, p.lo + xi, p.hi + xi)
        total += term
        if n >= 3 and abs(term) < tol * max(abs(total), 1e-300):
            return total
    raise SeriesDivergenceError(
        f"series did not reach tol={tol:g} within {SERIES_MAX_TERMS} terms "
        f"(last term {term:.3e}, partial sum {total:.6g})"
    )


def _quadrature_value(p: ArcsineGaussParams, arg_lo: np.ndarray, arg_hi: np.ndarray, tol: float) -> np.ndarray:
    offset, lo, hi, _ = np.broadcast_arrays(p.offset, p.lo, p.hi, arg_lo)
    # the arcsine derivative blows up at the end where the argument reaches 1:
    # past 0.999 the integral runs in s over [0, sqrt(hi - lo)], x = cusp -/+ s^2
    smooth, up = np.maximum(arg_lo, arg_hi) <= 0.999, arg_hi >= arg_lo
    cusp, sign = np.where(up, hi, lo), np.where(up, -1.0, 1.0)

    def integrand(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        plain = smooth[k, None]
        x = np.where(plain, s, cusp[k, None] + sign[k, None] * (s * s))
        arg = p.scale * 10.0 ** (-(offset[k, None] + p.slope * x))  # p.argument(x) at row k's offset
        return np.where(plain, 1.0, 2.0 * s) * (np.exp(-x * x) * np.arcsin(np.minimum(arg, 1.0)))

    return gauss_kronrod(integrand, np.where(smooth, lo, 0.0), np.where(smooth, hi, np.sqrt(hi - lo)), tol)


def arcsine_gauss_integral(p: ArcsineGaussParams, method: str = "quadrature", tol: float = 1e-12):
    """Evaluate the Gaussian-arcsine integral; for array offset, lo and hi,
    one integral per element (quadrature only, else ValueError).

    method "quadrature" (authoritative path) integrates to absolute tolerance
    tol by Gauss-Kronrod, GK_BATCH elements per adaptive loop; where the
    argument passes 0.999 at an end, in the variable s of x = cusp -/+ s^2,
    since the arcsine has a square-root cusp where its argument reaches 1;
    method "series" sums the Taylor closed form, truncated once the next term
    falls below tol times the partial sum (at least 4 terms).  It converges
    fast while the arcsine argument stays below 1 on the interval; where the
    argument touches 1 its tail is polynomial, and SeriesDivergenceError is
    raised if SERIES_MAX_TERMS terms do not reach tol.  Both methods serve slope 0.
    """
    scalar = np.ndim(p.offset) == np.ndim(p.lo) == np.ndim(p.hi) == 0
    if method != "quadrature" and not (method == "series" and scalar):
        raise ValueError(f"method {method!r} is not 'quadrature', or 'series' with scalar offset, lo and hi")
    if p.scale == 0.0:
        return 0.0 if scalar else np.zeros(np.broadcast(p.offset, p.lo, p.hi).shape)
    with np.errstate(over="ignore"):
        arg_lo, arg_hi = p.argument(np.atleast_1d(p.lo)), p.argument(np.atleast_1d(p.hi))
    top = np.maximum(arg_lo, arg_hi)
    if np.isinf(top).any():
        raise ValueError("arcsine argument overflows on the interval")
    if (top > 1.0 + ARG_CLAMP).any():
        raise ValueError(f"arcsine argument exceeds 1 on the interval (max {top[top > 1.0 + ARG_CLAMP][0]:.6g})")
    arg_lo, arg_hi = np.minimum(arg_lo, 1.0), np.minimum(arg_hi, 1.0)
    if method == "series":
        value = 0.0 if p.lo == p.hi else _series_value(p, tol)
    else:
        value = _quadrature_value(p, arg_lo, arg_hi, tol)
    return np.asarray(value).item() if scalar else value
