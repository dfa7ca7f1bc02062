"""Special functions and integration used by the density evaluators.

Three pieces: the Gaussian tail (Q) function, a recursive adaptive
Simpson integrator (with a variant for a square-root cusp), and the integral

    I(k, a, b; x1, x2) = int_{x1}^{x2} exp(-x^2) * asin(k * 10^-(a + b x)) dx

evaluated either by quadrature or by a series closed form obtained by
expanding the arcsine in its Taylor series and integrating the resulting
Gaussian-exponential terms exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np
from scipy import special

SQRT_PI = math.sqrt(math.pi)
LN10 = math.log(10.0)

# Arguments this far above 1 are treated as rounding and clamped; anything
# larger is a caller error.
ARG_CLAMP = 1e-12

SERIES_MAX_TERMS = 500
MAX_DEPTH = 48  # adaptive Simpson's recursion cap


class NonConvergenceError(RuntimeError):
    """Quadrature hit the recursion-depth cap before reaching tolerance."""


class SeriesDivergenceError(NonConvergenceError):
    """The series did not reach its tolerance within SERIES_MAX_TERMS terms."""


def q_function(x):
    """Standard normal tail probability Q(x) = erfc(x/sqrt(2)) / 2."""
    q = 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(q) if np.ndim(x) == 0 else q


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    # second test: the Richardson correction is at rounding level, so
    # further refinement cannot improve the estimate
    if abs(delta) <= 15.0 * tol or abs(delta) <= 1e-15 * abs(left + right):
        return left + right + delta / 15.0
    if depth <= 0:
        raise NonConvergenceError(
            f"adaptive Simpson did not reach tol on [{a}, {b}] (|delta|={abs(delta):.3e})"
        )
    half = 0.5 * tol
    return _adaptive(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


def adaptive_simpson(f, lo: float, hi: float, tol: float) -> float:
    """Integrate f over [lo, hi] to absolute tolerance tol.

    Classic recursive adaptive Simpson with the 15x Richardson acceptance
    test; exact on cubics at the first level.  Raises NonConvergenceError
    if MAX_DEPTH is reached before the tolerance is met.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    fa, fb = f(lo), f(hi)
    m, fm, whole = _simpson(f, lo, fa, hi, fb)
    return _adaptive(f, lo, fa, hi, fb, m, fm, whole, tol, MAX_DEPTH)


def cusp_simpson(f, cusp: float, other: float, tol: float) -> float:
    """Integrate f over the interval between cusp and other, f having a
    square-root cusp at cusp: x = cusp -/+ s^2 makes it smooth in s."""
    sign = -1.0 if other < cusp else 1.0
    g = lambda s: 2.0 * s * f(cusp + sign * (s * s))
    return adaptive_simpson(g, 0.0, math.sqrt(abs(cusp - other)), tol)


@dataclass(frozen=True)
class ArcsineGaussParams:
    """Parameters of the Gaussian-arcsine integral.

    The arcsine argument is scale * 10^-(offset + slope*x); it must stay
    within [0, 1] over [lo, hi], which is checked at the endpoints since
    the argument is monotone in x.
    """

    scale: float
    offset: float
    slope: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"lo={self.lo} exceeds hi={self.hi}")
        if self.scale < 0.0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")

    def argument(self, x):
        return self.scale * 10.0 ** (-(self.offset + self.slope * np.asarray(x, dtype=float)))


def _checked_endpoint_args(p: ArcsineGaussParams) -> tuple[float, float]:
    a_lo = float(p.argument(p.lo))
    a_hi = float(p.argument(p.hi))
    if max(a_lo, a_hi) > 1.0 + ARG_CLAMP:
        raise ValueError(
            f"arcsine argument exceeds 1 on the interval (max {max(a_lo, a_hi):.6g})"
        )
    return min(a_lo, 1.0), min(a_hi, 1.0)


def _log_asin_taylor_coeff(n: int) -> float:
    # log of (2n)! / (4^n * (n!)^2 * (2n+1)), the asin Taylor coefficient
    return lgamma(2 * n + 1) - 2 * n * math.log(2.0) - 2 * lgamma(n + 1) - math.log(2 * n + 1)


def _amp_erfc_diff(ln_amp: float, xi: float, s1: float, s2: float) -> float:
    """amp * e^(xi^2) * (erfc(s1) - erfc(s2)) without forming e^(xi^2).

    Each product amp*e^(xi^2)*erfc(s) is exp(ln_amp + xi^2 - s^2) * erfcx(|s|)
    up to the reflection erfc(-t) = 2 - erfc(t); for admissible parameters
    every exponent here is bounded even though e^(xi^2) alone overflows.
    """

    def tail(s: float) -> float:
        return math.exp(ln_amp + xi * xi - s * s + math.log(special.erfcx(abs(s))))

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


def _quadrature_value(p: ArcsineGaussParams, arg_lo: float, arg_hi: float, tol: float) -> float:
    def integrand(x: float) -> float:
        a = p.scale * 10.0 ** (-(p.offset + p.slope * x))
        return math.exp(-x * x) * math.asin(min(a, 1.0))

    if max(arg_lo, arg_hi) <= 0.999:
        return adaptive_simpson(integrand, p.lo, p.hi, tol)
    # the arcsine derivative blows up at the end where the argument reaches 1
    cusp, other = (p.hi, p.lo) if arg_hi >= arg_lo else (p.lo, p.hi)
    return cusp_simpson(integrand, cusp, other, tol)


def arcsine_gauss_integral(
    p: ArcsineGaussParams, method: str = "quadrature", tol: float = 1e-12
) -> float:
    """Evaluate the Gaussian-arcsine integral.

    method "quadrature" integrates adaptively (authoritative path); method
    "series" sums the Taylor closed form, truncated once the next term
    falls below tol times the partial sum (at least 4 terms).  It converges
    fast while the arcsine argument stays below 1 on the interval; where the
    argument touches 1 its tail is polynomial, and SeriesDivergenceError is
    raised if SERIES_MAX_TERMS terms do not reach tol.
    """
    if p.scale == 0.0:
        return 0.0
    arg_lo, arg_hi = _checked_endpoint_args(p)
    if p.lo == p.hi:
        return 0.0
    if p.slope == 0.0:
        # constant arcsine factor times the Gaussian mass of the interval
        return math.asin(arg_lo) * 0.5 * SQRT_PI * (special.erf(p.hi) - special.erf(p.lo))
    if method == "quadrature":
        return _quadrature_value(p, arg_lo, arg_hi, tol)
    if method == "series":
        return _series_value(p, tol)
    raise ValueError(f"unknown method {method!r}; expected 'quadrature' or 'series'")
