"""Monte Carlo verification: drops, goodness-of-fit tests, reports.

The pipeline drops n terminals in a cell, computes each row's separation
and losses, then checks the loss sample against the closed-form CDF with
a one-sample KS test and the spatial sample against uniformity with a
chi-square test over equal-area bins.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import special

from .density import DensityModel, shadowed_cdf
from .geometry import CellGeometry, chord_y_bounds, marginal_x_cdf, sample_points
from .pathloss import PathLossParams, mean_pathloss
from .rng import GENERATOR_LABEL, VariateStream

# Asymptotic one-sample KS critical coefficient at significance 0.01.
KS_COEFF_001_LEVEL = 1.628

SPATIAL_BINS_X = 12
SPATIAL_BINS_Y = 8
SPATIAL_SIGNIFICANCE = 1e-3


@dataclass
class DropTable:
    """Columns of one simulated drop, all length n."""

    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    w: np.ndarray
    psi: np.ndarray
    lp: np.ndarray

    def __len__(self) -> int:
        return len(self.x)


def run_drop(geom: CellGeometry, pl: PathLossParams, n: int, seed: int) -> DropTable:
    """Drop n terminals and tabulate (x, y, r, mean loss, shadowing, loss).

    Deterministic for a fixed seed: the stream is consumed as n x-uniforms,
    n y-uniforms, n normals.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    stream = VariateStream(seed)
    xy = sample_points(geom, stream, n)
    r = np.hypot(xy[:, 0], xy[:, 1])
    w = mean_pathloss(pl, r)
    psi = pl.sigma_psi * stream.normals(n)
    return DropTable(x=xy[:, 0], y=xy[:, 1], r=r, w=w, psi=psi, lp=w + psi)


def _write_columns(path: str | Path, header: str, columns) -> None:
    """Write equal-length float columns as CSV rows, each value as repr(float)."""
    values = [np.asarray(c, dtype=float).tolist() for c in columns]
    if len({len(v) for v in values}) != 1:
        raise ValueError(f"columns differ in length: {[len(v) for v in values]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*(map(repr, v) for v in values)):
            fh.write(",".join(row) + "\n")


def write_samples_csv(path: str | Path, table: DropTable) -> None:
    columns = (table.x, table.y, table.r, table.w, table.psi, table.lp)
    _write_columns(path, "x_m,y_m,r_m,w_db,psi_db,lp_db", columns)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical: float
    passed: bool


def ks_test(samples: np.ndarray, cdf) -> KsResult:
    """One-sample KS test at significance 0.01.

    statistic = sup |empirical CDF - cdf|, critical = 1.628/sqrt(n)
    (asymptotic), passed = statistic < critical.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    if n == 0:
        raise ValueError("samples must be nonempty")
    f = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    statistic = float(max(d_plus, d_minus))
    critical = KS_COEFF_001_LEVEL / math.sqrt(n)
    return KsResult(statistic=statistic, critical=critical, passed=statistic < critical)


def equal_area_bin_counts(geom: CellGeometry, xy: np.ndarray) -> np.ndarray:
    """Histogram points into SPATIAL_BINS_X * SPATIAL_BINS_Y equal-probability bins.

    The bins are preimages of a regular grid under (F_X(x), position of y
    inside its chord), the inverse of the sampler's own transform; under
    uniformity each bin carries exactly the same probability, 1/(nx*ny).
    """
    nx, ny = SPATIAL_BINS_X, SPATIAL_BINS_Y
    x, y = xy[:, 0], xy[:, 1]
    u = marginal_x_cdf(geom, x)
    lo, hi = chord_y_bounds(geom, x)
    width = hi - lo
    v = np.where(width > 0.0, (y - lo) / np.where(width > 0.0, width, 1.0), 0.5)
    iu = np.clip((u * nx).astype(int), 0, nx - 1)
    iv = np.clip((v * ny).astype(int), 0, ny - 1)
    return np.bincount(iu * ny + iv, minlength=nx * ny)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    bins: int
    critical: float
    passed: bool


def spatial_chi_square(
    geom: CellGeometry, xy: np.ndarray, significance: float = SPATIAL_SIGNIFICANCE
) -> ChiSquareResult:
    """Chi-square uniformity test over equal-area bins.

    The bins of :func:`equal_area_bin_counts` invert the sampler's own
    transform, so on :func:`hexdrop.geometry.sample_points` output the
    statistic depends only on the stream's uniforms (94.3808 at seed 11
    with 1e4 points, for all three shapes at sides 300 m and 1000 m): it
    tests the generator, not the geometry.  The geometry is checked by
    acceptance criterion 1 and test_marginal_matches_chord_quadrature.
    """
    counts = equal_area_bin_counts(geom, xy)
    n = counts.sum()
    expected = n / counts.size
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    # the chi-square quantile at 1 - significance, as scipy.stats.chi2.ppf
    # computes it, without importing scipy.stats
    critical = float(2.0 * special.gammaincinv((counts.size - 1) / 2, 1.0 - significance))
    return ChiSquareResult(
        statistic=statistic, bins=counts.size, critical=critical, passed=statistic < critical
    )


def write_density_csv(path: str | Path, l: np.ndarray, f_closed: np.ndarray, f_oracle=None) -> None:
    if f_oracle is None:
        _write_columns(path, "l_db,f_closed", (l, f_closed))
    else:
        _write_columns(path, "l_db,f_closed,f_oracle", (l, f_closed, f_oracle))


@dataclass
class VerifyReport:
    preset: str
    shape: str
    side_m: float
    count: int
    seed: int
    ks_statistic: float
    ks_critical: float
    chi2_statistic: float
    chi2_bins: int
    chi2_critical: float
    passed: bool
    generator: str = GENERATOR_LABEL

    def to_json(self) -> str:
        payload = asdict(self)
        payload["pass"] = payload.pop("passed")
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8", newline="\n")


def run_verification(
    geom: CellGeometry,
    model: DensityModel,
    preset_name: str,
    count: int,
    seed: int,
) -> tuple[VerifyReport, DropTable]:
    """Drop terminals, KS-test the losses, chi-square-test the positions."""
    table = run_drop(geom, model.pathloss, count, seed)
    ks = ks_test(table.lp, lambda v: shadowed_cdf(model, v))
    chi2 = spatial_chi_square(geom, np.column_stack([table.x, table.y]))
    report = VerifyReport(
        preset=preset_name,
        shape=geom.shape.value,
        side_m=geom.side,
        count=count,
        seed=seed,
        ks_statistic=ks.statistic,
        ks_critical=ks.critical,
        chi2_statistic=chi2.statistic,
        chi2_bins=chi2.bins,
        chi2_critical=chi2.critical,
        passed=ks.passed and chi2.passed,
    )
    return report, table
