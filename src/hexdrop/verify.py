"""Monte Carlo verification: drops, goodness-of-fit tests, reports.

The pipeline drops n terminals in a cell and fills their losses block by
block, without tabulating the drop; it checks the positions against
uniformity with a chi-square test over equal-area bins, frees them, then
checks the losses against the closed-form CDF with a one-sample KS test.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .density import DensityModel, shadowed_cdf
from .geometry import BLOCK, CellGeometry, chord_y_bounds, marginal_x_cdf, sample_points
from .numerics import NonConvergenceError
from .pathloss import PathLossParams, mean_pathloss
from .rng import GENERATOR_LABEL, VariateStream

# Asymptotic one-sample KS critical coefficient at significance 0.01.
KS_COEFF_001_LEVEL = 1.628

SPATIAL_BINS_X = 12
SPATIAL_BINS_Y = 8
SPATIAL_SIGNIFICANCE = 1e-3

# CSV outputs of at least this many values are printed by orjson: its import
# costs about 7-14 ms and saves about 1 us per value against repr, so it pays
# from about 8 000 values on.
FAST_CSV_MIN_VALUES = 8192


@dataclass
class DropTable:
    """One simulated drop of n terminals.

    Stored: xy, the (n, 2) array of positions that
    :func:`hexdrop.geometry.sample_points` returned (x in column 0, y in
    column 1), and the length-n columns w (mean loss, dB) and psi
    (shadowing, dB).  Derived: r = hypot(x, y) and lp = w + psi, computed
    anew on each access by the same expressions that :func:`run_drop`
    uses, so a drop keeps four float columns in memory.
    """

    xy: np.ndarray
    w: np.ndarray
    psi: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return np.hypot(self.xy[:, 0], self.xy[:, 1])

    @property
    def lp(self) -> np.ndarray:
        return self.w + self.psi

    def __len__(self) -> int:
        return len(self.xy)


def run_drop(geom: CellGeometry, pl: PathLossParams, n: int, seed: int) -> DropTable:
    """Drop n terminals and tabulate positions, r, mean loss, shadowing and loss.

    The positions stay the (n, 2) array from sample_points.  Deterministic
    for a fixed seed: the stream is consumed as n x-uniforms, n y-uniforms,
    n normals.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    stream = VariateStream(seed)
    xy = sample_points(geom, stream, n)
    w = mean_pathloss(pl, np.hypot(xy[:, 0], xy[:, 1]))
    psi = pl.sigma_psi * stream.normals(n)
    return DropTable(xy=xy, w=w, psi=psi)


def _write_columns(path: str | Path, header: str, n: int, columns) -> None:
    """Write n rows of float columns as CSV rows, each value as repr(float).

    ``columns(rows)`` returns the equal-length float columns, one per
    header name, of the rows in the slice ``rows``; it is called once per
    chunk, so a caller can derive a column per chunk rather than hold it
    whole.  Outputs of fewer than FAST_CSV_MIN_VALUES values call repr on
    each value, BLOCK rows per write.  Larger ones are stacked into a new
    (rows, ncols) array BLOCK // 4 rows at a time, which
    :func:`_format_rows` owns and edits, and printed flat, with the same
    bytes.
    """
    if n * (header.count(",") + 1) < FAST_CSV_MIN_VALUES:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for a in range(0, n, BLOCK):
                values = (map(repr, c.tolist()) for c in columns(slice(a, a + BLOCK)))
                fh.write("\n".join(map(",".join, zip(*values))) + "\n")
        return
    # a quarter block: the text takes about 20 bytes per value and is held
    # twice while it is edited; whole blocks raised the peak RSS of sample
    # at 200 000 rows from 51 to 68 MB
    rows = BLOCK // 4
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for a in range(0, n, rows):
            fh.write(_format_rows(np.column_stack(columns(slice(a, a + rows)))))
            fh.write(b"\n")


def _format_rows(chunk: np.ndarray) -> memoryview:
    """The rows of a C-contiguous 2-d float array as CSV lines, without the last newline.

    The function owns chunk and edits it.  The array is printed flat by one
    orjson call, as "[v,v,...,v]"; in a writable copy of that text every
    ncols-th comma becomes a newline, and the copy is returned without its
    brackets.  orjson prints shortest round-trip digits, which are repr's
    wherever repr writes plain decimal: at 0 and at 1e-4 <= |v| < 1e16.
    Every other value (non-finite, 0 < |v| < 1e-4 or |v| >= 1e16, which
    repr writes as nan, inf, 1.5e-05 or 1e+16, with no comma) is set to NaN
    in chunk, and each null printed for one is replaced, in row-major
    order, by repr(v); chunks without such a value skip that pass.
    """
    import orjson  # in function scope: only large CSV writes pay its import

    odd = ~(np.abs(chunk) < 1e16) | (np.abs(chunk) < 1e-4) & (chunk != 0.0)
    patches = tuple(repr(v).encode() for v in chunk[odd].tolist())
    chunk[odd] = np.nan
    text = orjson.dumps(chunk.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
    if patches:  # the digits, signs, dots and brackets that orjson prints hold no "%"
        text = text.replace(b"null", b"%b") % patches
    line = np.frombuffer(text, dtype=np.uint8).copy()
    del text
    line[np.flatnonzero(line == ord(","))[chunk.shape[1] - 1 :: chunk.shape[1]]] = ord("\n")
    return memoryview(line)[1:-1]


def write_samples_csv(path: str | Path, table: DropTable) -> None:
    """Write a drop as CSV rows x, y, r, w, psi, lp, with r and lp formed per chunk."""

    def columns(rows: slice) -> tuple:
        x, y, w, psi = table.xy[rows, 0], table.xy[rows, 1], table.w[rows], table.psi[rows]
        return x, y, np.hypot(x, y), w, psi, w + psi

    _write_columns(path, "x_m,y_m,r_m,w_db,psi_db,lp_db", len(table), columns)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical: float
    passed: bool


def ks_test(samples: np.ndarray, cdf) -> KsResult:
    """One-sample KS test at significance 0.01.

    statistic = sup |empirical CDF - cdf|, critical = 1.628/sqrt(n)
    (asymptotic), passed = statistic < critical.  ``cdf`` is called on
    contiguous slices of the sorted sample, BLOCK values at a time, and
    must return one value per element of its argument.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    if n == 0:
        raise ValueError("samples must be nonempty")
    d = []  # D+ and D- of each block
    for a in range(0, n, BLOCK):
        f = np.asarray(cdf(s[a : a + BLOCK]), dtype=float)
        q = np.arange(a, min(a + BLOCK, n) + 1) / n  # (i - 1)/n and i/n for i = a + 1, ...
        d += [np.max(q[1:] - f), np.max(f - q[:-1])]
    statistic = float(np.max(d))
    critical = KS_COEFF_001_LEVEL / math.sqrt(n)
    return KsResult(statistic=statistic, critical=critical, passed=statistic < critical)


def equal_area_bin_counts(geom: CellGeometry, xy: np.ndarray) -> np.ndarray:
    """Histogram points into SPATIAL_BINS_X * SPATIAL_BINS_Y equal-probability bins.

    The bins are preimages of a regular grid under (F_X(x), position of y
    inside its chord), the inverse of the sampler's own transform; under
    uniformity each bin carries exactly the same probability, 1/(nx*ny).
    The points are binned BLOCK rows at a time.
    """
    counts = np.zeros(SPATIAL_BINS_X * SPATIAL_BINS_Y, dtype=np.intp)
    for a in range(0, len(xy), BLOCK):
        counts += np.bincount(_bin_index(geom, xy[a : a + BLOCK]), minlength=counts.size)
    return counts


def _bin_index(geom: CellGeometry, xy: np.ndarray) -> np.ndarray:
    """The equal-area bin of each point, iu * SPATIAL_BINS_Y + iv.

    u = F_X(x) and v = (y - lo) / (hi - lo), or 0.5 on a chord of zero
    width, are scaled and truncated in place, so a block holds a few arrays
    at a time, and they are freed when the call returns.
    """
    nx, ny = SPATIAL_BINS_X, SPATIAL_BINS_Y
    x = xy[:, 0]
    index = (marginal_x_cdf(geom, x) * nx).astype(int)
    np.clip(index, 0, nx - 1, out=index)
    index *= ny
    lo, width = chord_y_bounds(geom, x)
    width -= lo
    v = np.subtract(xy[:, 1], lo, out=lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        v /= width
    v[~(width > 0.0)] = 0.5
    v *= ny
    iv = v.astype(int)
    np.clip(iv, 0, ny - 1, out=iv)
    index += iv
    return index


def _chi2_isf(q: float, dof: int) -> float:
    """The x with P(X > x) = q for X chi-square with dof degrees of freedom.

    At y = x/2 the survival function Q(dof/2, y) is a finite sum:
    e^-y (1 + y + ... + y^(dof/2 - 1)/(dof/2 - 1)!) for even dof, and
    erfc(sqrt(y)) + e^-y (y^(1/2)/Gamma(3/2) + ... + y^(dof/2 - 1)/Gamma(dof/2))
    for odd dof.  Its last term is twice the density at x.  Newton's method
    on log Q(dof/2, x/2) = log q runs from the Wilson-Hilferty start, for
    0 < q <= 0.5.  At dof 1 to 200 and q from 0.05 down to 1e-6 the result
    is within 1 ulp of the exact quantile.
    """
    from fractions import Fraction
    from statistics import NormalDist  # both in function scope: only verify needs them

    h = 2.0 / (9.0 * dof)
    x = dof * (1.0 - h - NormalDist().inv_cdf(q) * math.sqrt(h)) ** 3
    odd = dof % 2
    for _ in range(32):
        y = 0.5 * x
        term = math.exp(-y) / (math.sqrt(math.pi * y) if odd else 1.0)  # e^-y y^(j-1)/Gamma(j)
        if odd:  # erfc(sqrt(y)) = erfc(s) - term * (y - s^2) to first order, for the rounded root s
            s = math.sqrt(y)
            terms = [math.erfc(s), -term * float(Fraction(y) - Fraction(s) ** 2)]
        else:
            terms = [term]
        j = 1.0 - 0.5 * odd
        while j < 0.5 * dof:
            term *= y / j
            j += 1.0
            terms.append(term)
        sf = math.fsum(terms)
        step = math.log(sf / q) * sf / (0.5 * term)
        x += step
        if abs(step) <= 1e-15 * x:
            return x
    raise NonConvergenceError(f"chi-square quantile at q={q:g}, dof={dof} did not converge (last x {x!r})")


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
    The critical value is the chi-square quantile at 1 - significance with
    bins - 1 degrees of freedom; significance must lie in (0, 0.5].
    """
    if len(xy) == 0:
        raise ValueError("positions must be nonempty")
    if not 0.0 < significance <= 0.5:
        raise ValueError(f"significance must lie in (0, 0.5], got {significance}")
    counts = equal_area_bin_counts(geom, xy)
    n = counts.sum()
    expected = n / counts.size
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    critical = _chi2_isf(significance, counts.size - 1)
    return ChiSquareResult(
        statistic=statistic, bins=counts.size, critical=critical, passed=statistic < critical
    )


def write_density_csv(path: str | Path, l: np.ndarray, f_closed: np.ndarray, f_oracle=None) -> None:
    arrays = [np.asarray(c, dtype=float) for c in (l, f_closed, f_oracle) if c is not None]
    if len({len(c) for c in arrays}) != 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in arrays]}")
    header = ",".join(("l_db", "f_closed", "f_oracle")[: len(arrays)])
    _write_columns(path, header, len(arrays[0]), lambda rows: [c[rows] for c in arrays])


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
) -> VerifyReport:
    """Drop terminals, chi-square-test the positions, KS-test the losses.

    The stream is consumed as in :func:`run_drop` (count x-uniforms, count
    y-uniforms, count normals), so the losses are run_drop(...).lp bit for
    bit, but no DropTable is built: lp is filled BLOCK rows at a time from
    the positions, and the positions are freed before the KS test sorts
    its copy of lp.  At most three float columns per terminal are alive.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    pl = model.pathloss
    stream = VariateStream(seed)
    xy = sample_points(geom, stream, count)
    lp = np.empty(count)
    for a in range(0, count, BLOCK):
        rows = slice(a, a + BLOCK)
        w = mean_pathloss(pl, np.hypot(xy[rows, 0], xy[rows, 1]))
        lp[rows] = w + pl.sigma_psi * stream.normals(len(w))
    chi2 = spatial_chi_square(geom, xy)
    del xy
    ks = ks_test(lp, lambda v: shadowed_cdf(model, v))
    return VerifyReport(
        preset=preset_name, shape=geom.shape.value, side_m=geom.side, count=count, seed=seed,
        ks_statistic=ks.statistic, ks_critical=ks.critical, chi2_statistic=chi2.statistic,
        chi2_bins=chi2.bins, chi2_critical=chi2.critical, passed=ks.passed and chi2.passed,
    )
