"""Output checks computed apart from hexdrop.

Nothing here imports hexdrop or compares against a stored output.  The
channel constants are the IEEE 802.20 values the presets carry, the cell
geometry is written from its own inequalities, and the reference density
convolves the Gaussian with the shadow-free loss density derived here from
the radial law and integrated by ``scipy.integrate.quad``.

Each check returns a :class:`Verdict`: how many operations it judged, how
many failed, and every problem that is not the known upper-tail fault.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

SQRT3 = math.sqrt(3.0)
LN10 = math.log(10.0)

# Relative accuracy a density point must reach against the reference.
DENSITY_RTOL = 1e-8
# quad's own relative tolerance; it agrees with the closed form to <= 3e-11
# between knee - 3 sigma and max + 3 sigma.
REFERENCE_EPSREL = 1e-12
# Points above max + UPPER_TAIL_SIGMAS * sigma form the upper tail, where the
# program's absolute integration tolerances are known to miss DENSITY_RTOL.
UPPER_TAIL_SIGMAS = 3.0
# |trapezoid mass - 1| allowed for a curve over the CLI's default range.
MASS_TOL = 1e-3
# Sample statistics must lie within this many standard errors of theory.
STAT_SE = 5.0

SAMPLES_HEADER = "x_m,y_m,r_m,w_db,psi_db,lp_db"
KS_COEFF = 1.628  # asymptotic one-sample KS coefficient at significance 0.01
CHI2_BINS = 96
CHI2_SIGNIFICANCE = 1e-3


@dataclass(frozen=True)
class Channel:
    """Log-distance loss alpha' + beta*log10(r) with Gaussian shadowing."""

    alpha_prime: float
    beta: float
    sigma: float
    r0: float

    def knee_db(self, side: float) -> float:
        return self.alpha_prime + self.beta * math.log10(SQRT3 * side / 2.0)

    def max_db(self, side: float) -> float:
        return self.alpha_prime + self.beta * math.log10(side)

    def default_range(self, side: float) -> tuple[float, float]:
        """The range ``hexdrop pdf`` tabulates when --from/--to are not given."""
        lo = self.knee_db(side) - max(6.0 * self.sigma, 2.5 * self.beta)
        return lo, self.max_db(side) + 6.0 * self.sigma

    def upper_tail_db(self, side: float) -> float:
        return self.max_db(side) + UPPER_TAIL_SIGMAS * self.sigma


# alpha' (dB), beta (dB/decade), sigma (dB), r0 (m): IEEE 802.20 channel models.
CHANNELS = {
    "suburban-macro": Channel(31.5, 35.0, 10.0, 35.0),
    "urban-macro": Channel(34.5, 35.0, 10.0, 35.0),
    "urban-micro-los": Channel(30.18, 26.0, 4.0, 20.0),
}


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _whole(problems: list[str]) -> Verdict:
    """A verdict for an output judged as one operation."""
    return Verdict(attempted=1, failed=1 if problems else 0, problems=problems)


def _near(a: float, b: float, se: float) -> bool:
    return abs(a - b) <= STAT_SE * se


def check_samples_csv(path, channel: Channel, side: float, count: int) -> Verdict:
    """Judge a ``hexdrop sample`` CSV for a hexagon of the given side."""
    problems: list[str] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != SAMPLES_HEADER:
            return _whole([f"header {header!r} != {SAMPLES_HEADER!r}"])
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return _whole([f"unparsable row: {exc}"])
    if data.shape != (count, 6):
        return _whole([f"table shape {data.shape}, expected ({count}, 6)"])
    x, y, r, w, psi, lp = data.T
    L, h = side, SQRT3 * side / 2.0

    slack = 1e-12 * L
    outside = int(np.sum((np.abs(y) > h + slack) | (SQRT3 * np.abs(x) + np.abs(y) > SQRT3 * L + slack)))
    if outside:
        problems.append(f"{outside} points outside the hexagon")
    r_err = np.max(np.abs(r - np.sqrt(x * x + y * y)) / np.maximum(r, 1e-300))
    if not r_err <= 1e-12:
        problems.append(f"r differs from hypot(x, y) by {r_err:.2e} relative")
    alpha = channel.alpha_prime + channel.beta * math.log10(channel.r0)
    w_err = np.max(np.abs(w - (alpha + channel.beta * np.log10(r / channel.r0))))
    if not w_err <= 1e-10:
        problems.append(f"w differs from alpha + beta*log10(r/r0) by {w_err:.2e} dB")
    lp_err = np.max(np.abs(lp - (w + psi)))
    if not lp_err <= 1e-12 * np.max(np.abs(lp)):
        problems.append(f"lp differs from w + psi by {lp_err:.2e} dB")

    n = float(count)
    r2 = r * r
    if not _near(r2.mean(), 5.0 * L * L / 12.0, r2.std() / math.sqrt(n)):
        problems.append(f"mean r^2 {r2.mean():.6g} is not 5L^2/12 = {5 * L * L / 12:.6g}")
    p_in = math.pi / (2.0 * SQRT3)
    share = float(np.mean(r < h))
    if not _near(share, p_in, math.sqrt(p_in * (1.0 - p_in) / n)):
        problems.append(f"share inside the inscribed circle {share:.6f} is not pi/(2 sqrt 3) = {p_in:.6f}")
    s = channel.sigma
    if not _near(psi.mean(), 0.0, s / math.sqrt(n)):
        problems.append(f"psi mean {psi.mean():.4g} dB is not 0")
    if not _near(psi.std(ddof=1), s, s / math.sqrt(2.0 * n)):
        problems.append(f"psi deviation {psi.std(ddof=1):.6g} dB is not {s}")
    return _whole(problems)


def _shadow_free_density(channel: Channel, side: float, w: float) -> float:
    """Density of w = alpha' + beta*log10(r) for r drawn from the radial law."""
    r = 10.0 ** ((w - channel.alpha_prime) / channel.beta)
    c = SQRT3 * side / 2.0
    L2 = side * side
    if r <= c:
        f_r = 4.0 * math.pi * r / (3.0 * SQRT3 * L2)
    elif r <= side:
        f_r = 8.0 * r / (SQRT3 * L2) * (math.asin(min(c / r, 1.0)) - math.pi / 3.0)
    else:
        return 0.0
    return f_r * r * LN10 / channel.beta


def reference_density(channel: Channel, side: float, l: float) -> float:
    """Shadowed loss density at l dB by direct convolution, split at knee and max."""
    s = channel.sigma
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * s)

    def integrand(w: float) -> float:
        d = (l - w) / s
        return norm * math.exp(-0.5 * d * d) * _shadow_free_density(channel, side, w)

    knee, top = channel.knee_db(side), channel.max_db(side)
    total = 0.0
    for a, b in ((-math.inf, knee), (knee, top)):
        total += integrate.quad(integrand, a, b, epsabs=0.0, epsrel=REFERENCE_EPSREL, limit=200)[0]
    return total


def expected_grid(channel: Channel, side: float, step: float) -> np.ndarray:
    lo, hi = channel.default_range(side)
    n = math.ceil((hi - lo) / step + 0.5)
    return lo + step * np.arange(n)


def check_density_csv(
    path, channel: Channel, side: float, step: float, oracle: bool, interior_points: int | None, seed: int
) -> Verdict:
    """Judge a ``hexdrop pdf`` CSV over the default range.

    Every upper-tail point and ``interior_points`` other points, chosen
    from ``seed`` (all of them when None), are compared with the reference;
    a point is one operation and fails when any of its density columns
    misses DENSITY_RTOL.
    """
    header = "l_db,f_closed" + (",f_oracle" if oracle else "")
    with open(path, encoding="utf-8") as fh:
        got = fh.readline().rstrip("\n")
        if got != header:
            return _whole([f"header {got!r} != {header!r}"])
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return _whole([f"unparsable row: {exc}"])
    grid = expected_grid(channel, side, step)
    columns = 3 if oracle else 2
    if data.shape != (len(grid), columns):
        return _whole([f"table shape {data.shape}, expected ({len(grid)}, {columns})"])
    l, curves = data[:, 0], data[:, 1:]

    problems: list[str] = []
    grid_err = np.max(np.abs(l - grid))
    if not grid_err <= 1e-9:
        problems.append(f"loss column is off the default grid by {grid_err:.2e} dB")
    for k in range(curves.shape[1]):
        mass = float(np.sum(0.5 * (curves[1:, k] + curves[:-1, k]) * np.diff(l)))
        if not abs(mass - 1.0) <= MASS_TOL:
            problems.append(f"column {k + 1} has trapezoid mass {mass:.6f}")

    tail_from = channel.upper_tail_db(side)
    interior = [i for i in range(len(l)) if l[i] <= tail_from]
    tail = [i for i in range(len(l)) if l[i] > tail_from]
    if interior_points is not None:
        interior = sorted(random.Random(seed).sample(interior, min(interior_points, len(interior))))
    verdict = Verdict(problems=problems)
    for in_tail, points in ((False, interior), (True, tail)):
        for i in points:
            ref = reference_density(channel, side, float(l[i]))
            worst = float(np.max(np.abs(curves[i] - ref))) / ref
            verdict.attempted += 1
            if not worst <= DENSITY_RTOL:
                verdict.failed += 1
                if not in_tail:
                    problems.append(f"density at {float(l[i])!r} dB is off by {worst:.2e} relative")
    return verdict


def check_verify_report(path, preset: str, shape: str, side: float, count: int, seed: int) -> Verdict:
    """Judge a ``hexdrop verify`` JSON report."""
    try:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return _whole([f"unreadable report: {exc}"])
    problems: list[str] = []
    echoed = {"preset": preset, "shape": shape, "side_m": side, "count": count, "seed": seed}
    for key, want in echoed.items():
        if rep.get(key) != want:
            problems.append(f"report {key}={rep.get(key)!r}, expected {want!r}")
    if rep.get("pass") is not True:
        problems.append(f"report pass={rep.get('pass')!r}")
    try:
        ks, ks_crit = float(rep["ks_statistic"]), float(rep["ks_critical"])
        chi2, chi2_crit = float(rep["chi2_statistic"]), float(rep["chi2_critical"])
        bins = rep["chi2_bins"]
    except (KeyError, TypeError, ValueError) as exc:
        return _whole(problems + [f"report field missing or not a number: {exc}"])
    want_ks = KS_COEFF / math.sqrt(count)
    if not math.isclose(ks_crit, want_ks, rel_tol=1e-12):
        problems.append(f"ks_critical {ks_crit!r} != 1.628/sqrt(n) = {want_ks!r}")
    want_chi2 = float(special.chdtri(CHI2_BINS - 1, CHI2_SIGNIFICANCE))
    if bins != CHI2_BINS or not math.isclose(chi2_crit, want_chi2, rel_tol=1e-12):
        problems.append(f"chi2 over {bins} bins with critical {chi2_crit!r}, expected {CHI2_BINS} and {want_chi2!r}")
    if not 0.0 < ks < ks_crit:
        problems.append(f"ks_statistic {ks!r} not in (0, {ks_crit!r})")
    if not 0.0 <= chi2 < chi2_crit:
        problems.append(f"chi2_statistic {chi2!r} not in [0, {chi2_crit!r})")
    return _whole(problems)
