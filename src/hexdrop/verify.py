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
from functools import cache
from pathlib import Path

import numpy as np

from .density import DensityModel, shadowed_cdf
from .geometry import BLOCK, SQRT3, CellGeometry, CellShape, point_in_shape, sample_points, shape_vertices
from .pathloss import PathLossParams, mean_pathloss
from .rng import GENERATOR_LABEL, VariateStream

# Asymptotic one-sample KS critical coefficient at significance 0.01.
KS_COEFF_001_LEVEL = 1.628

SPATIAL_BINS = 96
SPATIAL_SIGNIFICANCE = 1e-3
# the chi-square quantile at 1 - SPATIAL_SIGNIFICANCE with SPATIAL_BINS - 1 dof, correctly rounded
SPATIAL_CRITICAL = 143.3435397792313

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
    (shadowing, dB).  Derived: r = :func:`_radius` (x, y) and lp = w + psi,
    computed anew on each access by the same expressions that
    :func:`run_drop` uses, so a drop keeps four float columns in memory.
    """

    xy: np.ndarray
    w: np.ndarray
    psi: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return _radius(self.xy[:, 0], self.xy[:, 1])

    @property
    def lp(self) -> np.ndarray:
        return self.w + self.psi

    def __len__(self) -> int:
        return len(self.xy)


def _radius(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """sqrt(x^2 + y^2) of two columns, in units of 2^e, the power of two just above max(|x|, |y|).

    Scaling by a power of two is exact, so r is np.sqrt(x*x + y*y) bit for
    bit wherever that form neither overflows nor underflows, and r stays
    finite at every side that check_side accepts.  out, if given, is a pair
    (r, work) of float arrays of x's shape: r is formed in out[0], which is
    returned, from |x| there, and work holds |y| and its scaled square, so
    the call allocates nothing.
    """
    r, t = (np.empty_like(x), np.empty_like(y)) if out is None else out
    np.abs(x, out=r)
    np.abs(y, out=t)
    e = math.frexp(max(np.max(r, initial=0.0), np.max(t, initial=0.0)))[1]
    np.ldexp(r, -e, out=r)  # |x| 2^-e, whose square is that of x 2^-e
    r *= r
    np.ldexp(t, -e, out=t)
    t *= t
    r += t
    return np.ldexp(np.sqrt(r, out=r), e, out=r)


def run_drop(geom: CellGeometry, pl: PathLossParams, n: int, seed: int) -> DropTable:
    """Drop n terminals and tabulate positions, mean loss and shadowing.

    The positions stay the (n, 2) array from sample_points, and the mean
    loss is taken at r = :func:`_radius` (x, y).  Deterministic for a fixed
    seed: the stream is consumed as n x-uniforms, n y-uniforms, n normals.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    stream = VariateStream(seed)
    xy = sample_points(geom, stream, n)
    w = mean_pathloss(pl, _radius(xy[:, 0], xy[:, 1]))
    psi = pl.sigma_psi * stream.normals(n)
    return DropTable(xy=xy, w=w, psi=psi)


def _write_columns(path: str | Path, header: str, n: int, columns) -> None:
    """Write n rows of float columns as CSV rows, each value as repr(float).

    ``columns(rows)`` returns the equal-length float columns, one per
    header name, of the rows in the slice ``rows``; it is called once per
    chunk, so a caller can derive a column per chunk rather than hold it
    whole.  The columns are stacked into a new (rows, ncols) array
    BLOCK // 4 rows at a time, which :func:`_format_rows` owns and edits;
    outputs of at least FAST_CSV_MIN_VALUES values are printed by orjson,
    with the same bytes.
    """
    fast = n * (header.count(",") + 1) >= FAST_CSV_MIN_VALUES
    # a quarter block: the text takes about 20 bytes per value and is held
    # twice while it is edited; whole blocks raised the peak RSS of sample
    # at 200 000 rows from 51 to 68 MB
    rows = BLOCK // 4
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for a in range(0, n, rows):
            fh.write(_format_rows(np.column_stack(columns(slice(a, a + rows))), fast))
            fh.write(b"\n")


def _format_rows(chunk: np.ndarray, fast: bool) -> memoryview:
    """The rows of a C-contiguous 2-d float array as CSV lines, without the last newline.

    The array is printed flat as "[v,v,...,v]" by repr, or where fast by
    one orjson call; every ncols-th comma of a writable copy of that text
    becomes a newline, and the copy is returned without its brackets.
    orjson prints shortest round-trip digits, repr's wherever repr writes
    plain decimal: at 0 and at 1e-4 <= |v| < 1e16.  Where fast, every other
    value (non-finite, 0 < |v| < 1e-4 or |v| >= 1e16, which repr writes as
    nan, inf, 1.5e-05 or 1e+16, with no comma) is set to NaN in chunk, which
    the function owns, and each null printed for one is replaced, in
    row-major order, by repr(v); chunks without such a value skip that pass.
    """
    if fast:
        import orjson  # in function scope: only large CSV writes pay its import
        odd = ~(np.abs(chunk) < 1e16) | (np.abs(chunk) < 1e-4) & (chunk != 0.0)
        patches = tuple(repr(v).encode() for v in chunk[odd].tolist())
        chunk[odd] = np.nan
        text = orjson.dumps(chunk.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        if patches:  # the digits, signs, dots and brackets that orjson prints hold no "%"
            text = text.replace(b"null", b"%b") % patches
    else:
        text = ("[" + ",".join(map(repr, chunk.ravel().tolist())) + "]").encode()
    line = np.frombuffer(text, dtype=np.uint8).copy()
    del text
    line[np.flatnonzero(line == ord(","))[chunk.shape[1] - 1 :: chunk.shape[1]]] = ord("\n")
    return memoryview(line)[1:-1]


def write_samples_csv(path: str | Path, table: DropTable) -> None:
    """Write a drop as CSV rows x, y, r, w, psi, lp, with r and lp formed per chunk as DropTable forms them."""

    def columns(rows: slice) -> tuple:
        x, y, w, psi = table.xy[rows, 0], table.xy[rows, 1], table.w[rows], table.psi[rows]
        return x, y, _radius(x, y), w, psi, w + psi

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
    must return one value per element of its argument.  A float64 array
    ``samples`` is sorted in place, which saves a copy of it; pass a copy
    to keep its order.
    """
    s = np.asarray(samples, dtype=float)
    s.sort()
    n = len(s)
    if n == 0:
        raise ValueError("samples must be nonempty")
    steps = np.arange(min(n, BLOCK) + 1, dtype=float)
    q, gap = np.empty(len(steps)), np.empty(len(steps) - 1)  # block buffers
    d = []  # D+ and D- of each block
    for a in range(0, n, BLOCK):
        f = np.asarray(cdf(s[a : a + BLOCK]), dtype=float)
        k = len(f)
        np.add(steps[: k + 1], a, out=q[: k + 1])  # (i - 1)/n and i/n for i = a + 1, ...: exact integers,
        q[: k + 1] /= n  # then divided once, as np.arange(a, a + k + 1) / n is
        d += [np.max(np.subtract(q[1 : k + 1], f, out=gap[:k])), np.max(np.subtract(f, q[:k], out=gap[:k]))]
    statistic = float(np.max(d))
    critical = KS_COEFF_001_LEVEL / math.sqrt(n)
    return KsResult(statistic=statistic, critical=critical, passed=statistic < critical)


@cache
def _lattice(shape: CellShape) -> tuple:
    """(m, a0, b0, cols, inside, bins): the triangles of :func:`lattice_bin_counts`.

    Triangle 2 (row cols + column) + upper lies in row b0 + row and column
    a0 + column, with a margin of one round the shape.  Those whose centroid
    passes :func:`hexdrop.geometry.point_in_shape` tile the shape, bin j
    holds the j-th run of 1, 3 or 6 of them, and any other takes the bin of
    the nearest inside.  The lattice has no scale: one table serves every side.
    """
    m = {CellShape.HEXAGON: 4, CellShape.RHOMBUS120: 12, CellShape.TRIANGLE60: 24}[shape]  # 6m^2, 2m^2, m^2
    unit = CellGeometry(shape, 1.0)
    corners = np.rint(shape_vertices(unit) @ [[m, 0.0], [-m / SQRT3, 2.0 * m / SQRT3]]).astype(int)  # (a, b)
    (a0, b0), (a1, b1) = corners.min(axis=0) - 1, corners.max(axis=0) + 1
    r, c, third = np.meshgrid(np.arange(b0, b1), np.arange(a0, a1), (1.0 / 3.0, 2.0 / 3.0), indexing="ij")
    b, a = (r + third).ravel(), (c + third).ravel()  # a lower triangle's centroid, then an upper one's
    centroid = np.column_stack([(a + 0.5 * b) / m, b * (SQRT3 / 2.0 / m)])
    inside = point_in_shape(unit, centroid)
    own, out, cols = np.flatnonzero(inside), np.flatnonzero(~inside), a1 - a0
    bins = (np.cumsum(inside) - 1) // (own.size // SPATIAL_BINS)
    # the nearest has an edge neighbour outside: the one before or after, or across its base
    rim = own[~(inside[own - 1] & inside[own + 1] & inside[own + np.where(own % 2, 2 * cols - 1, 1 - 2 * cols)])]
    bins[out] = bins[rim[np.argmin(np.hypot(*(centroid[out, None] - centroid[rim]).T), axis=0)]]
    inside.flags.writeable = bins.flags.writeable = False
    return m, a0, b0, cols, inside, bins


def lattice_bin_counts(geom: CellGeometry, xy: np.ndarray) -> np.ndarray:
    """The count of points in each of SPATIAL_BINS equal-area bins, BLOCK rows at a time.

    With h = sqrt(3) L / 2 and m from :func:`_lattice`, a point has lattice
    coordinates b = y m / h and a = x m / L - b / 2: row floor(b) and column
    floor(a) hold a lower and an upper triangle of side L / m, the upper one
    where frac(a) + frac(b) >= 1.  Positions are scaled by 2^-k, 2^k the
    power of two just above L, which is exact and keeps both factors finite
    at every side.  Coordinates off the table or past the float range are
    clipped to it; raises ValueError if a position is not finite.
    """
    m, a0, b0, cols, _, bins = _lattice(geom.shape)
    unit, k = math.frexp(geom.side)  # L = unit 2^k
    per_triangle = np.zeros(bins.size, dtype=np.intp)
    for s in range(0, len(xy), BLOCK):  # clipped, b - b0 and a - a0 are >= 0, where truncation floors
        if not np.isfinite(xy[s : s + BLOCK]).all():
            raise ValueError("positions must be finite")
        with np.errstate(over="ignore"):  # a far position may overflow to +-inf, which is clipped
            b = np.ldexp(xy[s : s + BLOCK, 1], -k)
            b *= m / (SQRT3 * unit / 2.0)
            a = np.ldexp(xy[s : s + BLOCK, 0], -k)
            a *= m / unit
        b -= b0
        np.clip(b, 0.0, bins.size // (2 * cols), out=b)  # before a takes b / 2, so no inf - inf
        a -= a0 + 0.5 * b0
        a -= 0.5 * b
        np.clip(a, 0.0, cols, out=a)
        index = b.astype(np.intp)
        index *= 2 * cols - 1
        index += a.astype(np.intp)
        a += b  # floor(a + b) = floor(a) + floor(b) + upper
        index += a.astype(np.intp)
        per_triangle += np.bincount(np.clip(index, 0, bins.size - 1, out=index), minlength=bins.size)
    return np.bincount(bins, weights=per_triangle, minlength=SPATIAL_BINS).astype(np.intp)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    bins: int
    critical: float
    passed: bool


def spatial_chi_square(
    geom: CellGeometry, xy: np.ndarray, significance: float = SPATIAL_SIGNIFICANCE
) -> ChiSquareResult:
    """Chi-square uniformity test over the equal-area bins of :func:`lattice_bin_counts`.

    The bins are unions of lattice triangles, so they test the geometry and
    not only the generator: at seed 11 with 1e4 points the statistic is
    85.8944 (hexagon), 90.0608 (rhombus) and 80.288 (triangle) at every side.
    The test runs at SPATIAL_SIGNIFICANCE = 1e-3 alone, against SPATIAL_CRITICAL,
    the chi-square quantile at 1 - 1e-3 with bins - 1 = 95 degrees of
    freedom; any other significance raises ValueError.
    """
    if len(xy) == 0:
        raise ValueError("positions must be nonempty")
    if significance != SPATIAL_SIGNIFICANCE:
        raise ValueError(f"significance must be {SPATIAL_SIGNIFICANCE}, got {significance}")
    expected = len(xy) / SPATIAL_BINS
    statistic = float(np.sum((lattice_bin_counts(geom, xy) - expected) ** 2) / expected)
    return ChiSquareResult(
        statistic=statistic, bins=SPATIAL_BINS, critical=SPATIAL_CRITICAL, passed=statistic < SPATIAL_CRITICAL
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
    the positions, and the positions are freed before the KS test sorts lp
    in place.  Each block's r is formed in one block buffer, with the
    block's slice of lp as _radius's work array, and the block's normals
    are drawn into that slice and scaled and shifted there, so the loop
    allocates nothing per block.  At most three float columns per terminal
    are alive.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    pl = model.pathloss
    stream = VariateStream(seed)
    xy = sample_points(geom, stream, count)
    lp = np.empty(count)
    r = np.empty(min(count, BLOCK))
    for a in range(0, count, BLOCK):
        rows = slice(a, a + BLOCK)
        z = lp[rows]
        w = _radius(xy[rows, 0], xy[rows, 1], out=(r[: len(z)], z))
        mean_pathloss(pl, w, out=w)
        stream.normals(len(z), out=z)
        z *= pl.sigma_psi
        z += w  # w + sigma psi
    chi2 = spatial_chi_square(geom, xy)
    del xy
    ks = ks_test(lp, lambda v: shadowed_cdf(model, v))
    return VerifyReport(
        preset=preset_name, shape=geom.shape.value, side_m=geom.side, count=count, seed=seed,
        ks_statistic=ks.statistic, ks_critical=ks.critical, chi2_statistic=chi2.statistic,
        chi2_bins=chi2.bins, chi2_critical=chi2.critical, passed=ks.passed and chi2.passed,
    )
