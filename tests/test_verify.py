import json
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import special

from hexdrop import (
    CellGeometry,
    CellShape,
    VariateStream,
    ks_test,
    load_preset,
    point_in_shape,
    run_drop,
    sample_points,
    shadowed_cdf,
    spatial_chi_square,
)
import hexdrop.geometry as geometry
import hexdrop.verify as verify
from hexdrop.geometry import BLOCK, SQRT3, chord_y_bounds, sample_x, shape_vertices
from hexdrop.pathloss import mean_pathloss
from hexdrop.verify import (
    FAST_CSV_MIN_VALUES,
    VerifyReport,
    lattice_bin_counts,
    run_verification,
    write_density_csv,
    write_samples_csv,
)

from conftest import ALL_SHAPES, PRESET_CASES, preset_model


def _macro():
    preset = load_preset("urban-macro")
    return CellGeometry(CellShape.HEXAGON, 1000.0), preset.pathloss_params()


# ----------------------------------------------------------------- run_drop


def test_run_drop_columns_consistent():
    geom, pl = _macro()
    t = run_drop(geom, pl, 5000, seed=1)
    assert len(t) == 5000
    assert t.xy.shape == (5000, 2)
    assert np.allclose(t.r, np.hypot(t.xy[:, 0], t.xy[:, 1]))
    assert np.allclose(t.lp, t.w + t.psi)
    assert (t.r <= geom.side).all()
    assert point_in_shape(geom, t.xy).all()
    # unbiased shadowing
    sig = pl.sigma_psi
    assert abs(t.psi.mean()) < 3.0 * sig / math.sqrt(len(t))


def test_run_drop_deterministic():
    geom, pl = _macro()
    a = run_drop(geom, pl, 2000, seed=7)
    b = run_drop(geom, pl, 2000, seed=7)
    for col in ("xy", "r", "w", "psi", "lp"):
        assert np.array_equal(getattr(a, col), getattr(b, col))
    c = run_drop(geom, pl, 2000, seed=8)
    assert not np.array_equal(a.lp, c.lp)


def test_run_verification_passes_the_sampled_positions(monkeypatch):
    # the (n, 2) array from sample_points reaches spatial_chi_square uncopied,
    # and each stage is looked up in hexdrop.verify's globals, where
    # bench/tracing.py puts its spans
    sampled, tested, ks_calls, cdf_calls = [], [], [], []

    def sample(*args):
        sampled.append(sample_points(*args))
        return sampled[-1]

    def chi_square(geom, xy):
        tested.append(xy)
        return spatial_chi_square(geom, xy)

    def ks(samples, cdf):
        ks_calls.append(len(samples))
        return ks_test(samples, cdf)

    def cdf_table(model, v):
        cdf_calls.append(len(v))
        return shadowed_cdf(model, v)

    monkeypatch.setattr(verify, "sample_points", sample)
    monkeypatch.setattr(verify, "spatial_chi_square", chi_square)
    monkeypatch.setattr(verify, "ks_test", ks)
    monkeypatch.setattr(verify, "shadowed_cdf", cdf_table)
    geom = CellGeometry(CellShape.HEXAGON, 1000.0)
    run_verification(geom, preset_model("urban-macro", 1000.0), "urban-macro", 500, 3)
    assert len(sampled) == 1 and len(tested) == 1
    assert tested[0] is sampled[0]
    assert ks_calls == [500] and cdf_calls == [500]


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_run_verification_matches_the_drop_table_across_blocks(shape, n):
    # lp is filled block by block from the stream that run_drop draws in
    # one go; the statistics must not move by a single bit
    geom = CellGeometry(shape, 1000.0)
    model = preset_model("suburban-macro", 1000.0)
    report = run_verification(geom, model, "suburban-macro", n, seed=11)
    table = run_drop(geom, model.pathloss, n, seed=11)
    assert report.ks_statistic == ks_test(table.lp, lambda v: shadowed_cdf(model, v)).statistic
    assert report.chi2_statistic == spatial_chi_square(geom, table.xy).statistic
    assert report.count == n


def test_run_verification_rejects_empty():
    geom, _ = _macro()
    with pytest.raises(ValueError, match="sample count must be >= 1, got 0"):
        run_verification(geom, preset_model("urban-macro", 1000.0), "urban-macro", 0, seed=0)


# rows that span two whole blocks and a partial third
ACROSS_BLOCKS = 2 * BLOCK + 3


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_run_drop_matches_one_shot_formulas_across_blocks(shape):
    geom = CellGeometry(shape, 1000.0)
    pl = load_preset("urban-macro").pathloss_params()
    n = ACROSS_BLOCKS
    stream = VariateStream(5)
    x = sample_x(geom, stream.uniforms(n))
    lo, hi = chord_y_bounds(geom, x)
    y = lo + (hi - lo) * stream.uniforms(n)
    r = np.sqrt(x * x + y * y)
    lp = pl.alpha + pl.beta * np.log10(r / pl.r0) + pl.sigma_psi * stream.normals(n)
    t = run_drop(geom, pl, n, seed=5)
    assert np.array_equal(t.xy, np.column_stack([x, y]))
    assert np.array_equal(t.r, r)
    assert np.array_equal(t.lp, lp)


@pytest.mark.parametrize("side", [1.0, 1000.0, 3500.0])
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_radius_is_the_plain_root_bit_for_bit(shape, side):
    # scaling by a power of two is exact, so on a drop _radius is the
    # unscaled np.sqrt(x*x + y*y) to the last bit, whole or block by block
    xy = sample_points(CellGeometry(shape, side), VariateStream(9), ACROSS_BLOCKS)
    x, y = xy[:, 0], xy[:, 1]
    plain = np.sqrt(x * x + y * y)
    assert np.array_equal(verify._radius(x, y), plain)
    blocks = [verify._radius(x[a : a + BLOCK], y[a : a + BLOCK]) for a in range(0, len(x), BLOCK)]
    assert np.array_equal(np.concatenate(blocks), plain)


@pytest.mark.parametrize("side", [1e-300, 1e-310, 1e300, 1.03e308])
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_radius_is_accurate_and_finite_at_extreme_sides(shape, side):
    # against a 50-digit reference, where x*x + y*y would underflow or
    # overflow; at side 1e-310 r is subnormal, where doubles lie 2^-1074
    # apart, far more than 3e-16 of r, so the bound adds that one step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xy = sample_points(CellGeometry(shape, side), VariateStream(4), 2000)
        r = verify._radius(xy[:, 0], xy[:, 1])
    assert np.isfinite(r).all() and (r > 0.0).all()
    with localcontext() as ctx:
        ctx.prec = 50
        for (x, y), v in zip(xy.tolist(), r.tolist()):
            ref = (Decimal(x) ** 2 + Decimal(y) ** 2).sqrt()
            assert abs(Decimal(v) - ref) <= Decimal(3e-16) * ref + Decimal(math.ulp(0.0)), (x, y)


def test_radius_and_mean_loss_give_the_same_bits_into_out_buffers():
    geom, pl = _macro()
    xy = sample_points(geom, VariateStream(9), ACROSS_BLOCKS)
    r = verify._radius(xy[:, 0], xy[:, 1])
    pair = np.full(ACROSS_BLOCKS, np.nan), np.full(ACROSS_BLOCKS, np.nan)
    into = verify._radius(xy[:, 0], xy[:, 1], out=pair)
    assert into is pair[0] and np.array_equal(into, r)
    w = mean_pathloss(pl, r)
    # the radius buffer turns into the loss in place
    assert mean_pathloss(pl, into, out=into) is into and np.array_equal(into, w)
    for i in (0, BLOCK, ACROSS_BLOCKS - 1):
        assert mean_pathloss(pl, float(r[i])) == w[i]


def _stream_with_zeros(zeros: dict, used: list, drawn: list):
    """A VariateStream whose k-th call to the generator's random() returns an
    exact 0.0 at lane zeros[k]; the values each uniforms() call returns go
    to used and those random() returns to drawn."""

    class Stream(VariateStream):
        def __init__(self, seed):
            super().__init__(seed)
            real = self._rng

            class ZerosAt:
                def random(self, k, out=None):
                    u = real.random(k, out=out)
                    if len(drawn) in zeros:
                        u[zeros[len(drawn)]] = 0.0
                    drawn.append(u.copy())
                    return u

                def standard_normal(self, k, out=None):
                    return real.standard_normal(k, out=out)

            self._rng = ZerosAt()

        def uniforms(self, n, out=None):
            u = super().uniforms(n, out=out)
            used.append(u.copy())
            return u

    return Stream


def test_exact_zeros_inside_a_block_are_redrawn_from_the_stream(monkeypatch):
    # an exact 0.0 has probability 2**-53 per draw, so a stub generator puts
    # one at lane 5 of the second x-block (call 1) and one at lane 9 of the
    # third y-block (call 7); each block's uniforms() call redraws its own
    n = 3 * BLOCK + 7
    geom = CellGeometry(CellShape.RHOMBUS120, 1000.0)
    model = preset_model("suburban-macro", 1000.0)
    used, drawn, inverted = [], [], []

    def checked_sample_x(geom, u, out=None):
        inverted.append(float(np.min(u)))
        return sample_x(geom, u, out=out)

    monkeypatch.setattr(geometry, "sample_x", checked_sample_x)
    monkeypatch.setattr(verify, "VariateStream", _stream_with_zeros({1: 5, 7: 9}, used, drawn))
    table = run_drop(geom, model.pathloss, n, seed=11)
    # the x-blocks, then the y-blocks, each zero redrawn by the next call
    assert [len(u) for u in drawn] == [BLOCK, BLOCK, 1, BLOCK, 7, BLOCK, BLOCK, BLOCK, 1, 7]
    assert drawn[1][5] == 0.0 and drawn[7][9] == 0.0
    assert len(inverted) == 4 and min(inverted) > 0.0  # no 0 reaches sample_x
    # every nonzero draw is used once, and only once
    pool = np.concatenate(drawn)
    assert np.array_equal(np.sort(np.concatenate(used)), np.sort(pool[pool != 0.0]))
    assert table.xy[BLOCK + 5, 0] == sample_x(geom, drawn[2][0])
    row = 2 * BLOCK + 9
    lo, hi = chord_y_bounds(geom, table.xy[row, 0])
    assert table.xy[row, 1] == lo + (hi - lo) * drawn[8][0]
    # the drop is deterministic, and run_verification sees the same one
    used.clear()
    drawn.clear()
    again = run_drop(geom, model.pathloss, n, seed=11)
    assert np.array_equal(again.xy, table.xy) and np.array_equal(again.lp, table.lp)
    tested, ranked = [], []

    def chi_square(geom, xy):
        tested.append(xy.copy())
        return spatial_chi_square(geom, xy)

    def ks(samples, cdf):
        result = ks_test(samples, cdf)
        ranked.append(samples.copy())
        return result

    monkeypatch.setattr(verify, "spatial_chi_square", chi_square)
    monkeypatch.setattr(verify, "ks_test", ks)
    used.clear()
    drawn.clear()
    report = run_verification(geom, model, "suburban-macro", n, seed=11)
    assert np.array_equal(tested[0], table.xy)
    assert np.array_equal(ranked[0], np.sort(table.lp))
    assert report.ks_statistic == ks_test(table.lp, lambda v: shadowed_cdf(model, v)).statistic


def test_run_drop_rejects_empty():
    geom, pl = _macro()
    with pytest.raises(ValueError):
        run_drop(geom, pl, 0, seed=0)


def test_samples_csv_bytes_deterministic(tmp_path):
    geom, pl = _macro()
    t = run_drop(geom, pl, 100, seed=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_samples_csv(p1, t)
    write_samples_csv(p2, run_drop(geom, pl, 100, seed=3))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x_m,y_m,r_m,w_db,psi_db,lp_db"


# values that repr writes as nan, inf or with an exponent, and their neighbours
# in plain decimal
CSV_EDGE_VALUES = [
    0.0, -0.0, 1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0), 100.0, 1e15, 2.0**53,
    math.nan, math.inf, -math.inf,
]


def test_csv_rows_match_one_row_at_a_time_across_blocks(tmp_path):
    # the repr path below FAST_CSV_MIN_VALUES values and orjson's above it,
    # over several of its chunks, print every value as repr does
    rng = np.random.default_rng(8)
    out = tmp_path / "d.csv"
    for rows in (FAST_CSV_MIN_VALUES // 3, ACROSS_BLOCKS):
        n = 3 * rows
        values = np.concatenate([
            np.tile(CSV_EDGE_VALUES, 100) * rng.choice([-1.0, 1.0], 100 * len(CSV_EDGE_VALUES)),
            rng.integers(0, 2**64, n // 4, dtype=np.uint64).view(np.float64),  # NaN payloads, subnormals
            rng.normal(0.0, 1e-4, n // 4),
            rng.normal(0.0, 100.0, n),
        ])
        cols = rng.permutation(values)[:n].reshape(3, -1)
        write_density_csv(out, *cols)
        assert out.read_bytes() == _csv_bytes("l_db,f_closed,f_oracle", cols), rows
    # drops whose r and lp are derived per chunk, over 1 to 4 chunks, with
    # values that repr writes with an exponent or sign in one chunk only
    chunk = BLOCK // 4
    for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        xy = rng.uniform(1.0, 1000.0, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
        w = rng.uniform(80.0, 160.0, n)
        psi = rng.uniform(0.5, 20.0, n) * rng.choice([-1.0, 1.0], n)
        a = chunk * (max(n - 3, 0) // chunk)
        psi[a : a + 3] = [1.5e-05, -0.0, 1e16][: n - a]
        table = verify.DropTable(xy=xy, w=w, psi=psi)
        kept = [c.copy() for c in (xy, w, psi)]
        write_samples_csv(out, table)
        cols = (xy[:, 0], xy[:, 1], table.r, w, psi, table.lp)
        assert out.read_bytes() == _csv_bytes("x_m,y_m,r_m,w_db,psi_db,lp_db", cols), n
        assert all(np.array_equal(c, k) for c, k in zip((xy, w, psi), kept)), n


def _csv_bytes(header, cols):
    rows = zip(*(c.tolist() for c in cols))
    return (header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)).encode("utf-8")


def test_write_samples_csv_peak_memory_is_at_most_five_columns(tmp_path):
    # r and lp are derived per chunk, so no column beyond the table's four
    # is built; orjson prints BLOCK // 4 rows at a time, and their text,
    # about 20 bytes per value, is held twice while it is edited (4.45
    # columns measured at 200 000 rows)
    geom, pl = _macro()
    write_samples_csv(tmp_path / "warm.csv", run_drop(geom, pl, 10_000, seed=1))  # imports orjson
    n = 200_000
    table = run_drop(geom, pl, n, seed=7)
    tracemalloc.start()
    try:
        write_samples_csv(tmp_path / "s.csv", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * n, f"peak {peak / 2**20:.1f} MiB, {peak / (8 * n):.2f} columns"


def test_density_csv_rejects_unequal_columns(tmp_path):
    out = tmp_path / "d.csv"
    l = np.linspace(100.0, 110.0, 11)
    with pytest.raises(ValueError):
        write_density_csv(out, l, np.ones(12))
    with pytest.raises(ValueError):
        write_density_csv(out, l, np.ones(11), np.ones(10))
    assert not out.exists()


# ------------------------------------------------------------------ KS test


def test_ks_against_known_cdf():
    u = VariateStream(40).uniforms(10_000)
    res = ks_test(u, lambda v: np.clip(v, 0.0, 1.0))
    assert res.critical == pytest.approx(1.628 / 100.0, rel=1e-12)
    assert res.passed

    shifted = ks_test(u + 0.1, lambda v: np.clip(v, 0.0, 1.0))
    assert not shifted.passed
    assert shifted.statistic > 5.0 * shifted.critical


def test_ks_statistic_matches_one_shot_across_blocks():
    samples = VariateStream(6).normals(ACROSS_BLOCKS)
    seen = []

    def cdf(v):
        seen.append(v.copy())
        return special.ndtr(v)

    res = ks_test(samples, cdf)
    # cdf saw contiguous slices of the sorted sample, in order
    assert [len(v) for v in seen] == [BLOCK, BLOCK, 3]
    s = np.sort(samples)
    assert np.array_equal(np.concatenate(seen), s)
    n = len(s)
    f = special.ndtr(s)
    i = np.arange(1, n + 1)
    assert res.statistic == max(np.max(i / n - f), np.max(f - (i - 1) / n))


def test_ks_sorts_its_array_in_place():
    samples = VariateStream(6).normals(ACROSS_BLOCKS)
    ordered = np.sort(samples)
    res = ks_test(samples, special.ndtr)
    assert np.array_equal(samples, ordered)
    assert res == ks_test(ordered.copy(), special.ndtr)


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_test(np.array([]), lambda v: v)


# ------------------------------------------------------------- spatial test


LATTICE_SIDES = [1.0, 300.0, 1000.0, 1732.5]
TRIANGLES_PER_BIN = {CellShape.HEXAGON: 1, CellShape.RHOMBUS120: 3, CellShape.TRIANGLE60: 6}


def _lattice_triangles(geom):
    # the vertices of every table triangle at the cell's side, counter-clockwise,
    # shape (triangles, 3, 2), from its index 2 (row cols + column) + upper alone
    m, a0, b0, cols, _, bins = verify._lattice(geom.shape)
    i = np.arange(bins.size)
    r, c, up = i // (2 * cols) + b0, i // 2 % cols + a0, i % 2
    # lower (c, r), (c+1, r), (c, r+1); upper (c+1, r), (c+1, r+1), (c, r+1)
    a = np.stack([c + up, c + 1, c], axis=1)
    b = np.stack([r, r + up, r + 1], axis=1)
    return np.stack([(a + 0.5 * b) * (geom.side / m), b * (SQRT3 * geom.side / 2.0 / m)], axis=-1)


def _shoelace(v):
    x, y = v[..., 0], v[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


@pytest.mark.parametrize("side", LATTICE_SIDES)
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_lattice_bins_tile_the_cell_in_equal_areas(shape, side):
    geom = CellGeometry(shape, side)
    *_, inside, bins = verify._lattice(shape)
    k = TRIANGLES_PER_BIN[shape]
    # bin j holds the j-th run of k inside triangles, in table order
    assert np.array_equal(bins[inside], np.arange(96 * k) // k)
    triangles = _lattice_triangles(geom)[inside]
    assert point_in_shape(geom, triangles.reshape(-1, 2)).all()
    # disjoint triangles in the cell whose areas sum to the cell's tile it
    area, cell = _shoelace(triangles), _shoelace(shape_vertices(geom))
    assert math.fsum(area) == pytest.approx(cell, rel=1e-12, abs=0.0)
    assert np.bincount(bins[inside], weights=area) == pytest.approx(np.full(96, cell / 96), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("side", LATTICE_SIDES)
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_lattice_bins_count_points_on_and_just_outside_the_edges(shape, side):
    # every vertex, points along each edge, and each of them one ulp outward
    # along the edge's outer normal: each is counted, in a bin with a triangle
    # that has a vertex within one triangle side of it
    geom = CellGeometry(shape, side)
    m, *_, inside, bins = verify._lattice(shape)
    start = shape_vertices(geom)
    step = np.roll(start, -1, axis=0) - start
    on_edges = start + np.linspace(0.0, 1.0, 25)[:, None, None] * step
    normal = np.broadcast_to(np.column_stack([step[:, 1], -step[:, 0]]), on_edges.shape)
    outward = np.where(normal == 0.0, on_edges, np.nextafter(on_edges, np.copysign(np.inf, normal)))
    pts = np.concatenate([on_edges.reshape(-1, 2), outward.reshape(-1, 2)])
    assert lattice_bin_counts(geom, pts).sum() == len(pts)
    triangles = _lattice_triangles(geom)
    for p in pts:
        (j,) = np.flatnonzero(lattice_bin_counts(geom, p[None]))
        near = np.hypot(*(triangles[inside & (bins == j)] - p).T).min()
        assert near <= side / m * (1.0 + 1e-9), (p, j)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_lattice_bin_counts_match_the_one_shot_formula_across_blocks(shape):
    geom = CellGeometry(shape, 1000.0)
    pts = sample_points(geom, VariateStream(7), ACROSS_BLOCKS)
    m, a0, b0, cols, _, bins = verify._lattice(shape)
    b = pts[:, 1] * (m / (SQRT3 * 1000.0 / 2.0))
    a = pts[:, 0] * (m / 1000.0) - 0.5 * b
    row, col = np.floor(b), np.floor(a)
    upper = (a - col) + (b - row) >= 1.0
    index = (2 * ((row - b0) * cols + col - a0) + upper).astype(int)
    counts = lattice_bin_counts(geom, pts)
    assert counts.sum() == ACROSS_BLOCKS
    assert np.array_equal(counts, np.bincount(bins[index], minlength=96))


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
                                 (math.inf, math.inf)])
def test_lattice_bin_counts_reject_positions_that_are_not_finite(bad):
    # in the last of three blocks: each block is checked
    geom = CellGeometry("hexagon", 1000.0)
    pts = sample_points(geom, VariateStream(7), ACROSS_BLOCKS)
    pts[-1] = bad
    with pytest.raises(ValueError, match="^positions must be finite$"):
        lattice_bin_counts(geom, pts)
    with pytest.raises(ValueError, match="^positions must be finite$"):
        spatial_chi_square(geom, pts)


@pytest.mark.parametrize("point", [(1e10, 0.0), (1e10, 1e10), (-1e10, -1e10)])
def test_lattice_bin_counts_count_a_position_whose_coordinates_overflow(point):
    # at side 1e-300 the lattice coordinates of these finite positions pass
    # the float range; each is clipped to the table and counted once
    geom = CellGeometry("hexagon", 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = lattice_bin_counts(geom, np.array([point]))
    assert counts.sum() == 1


@pytest.mark.parametrize("bad", [(math.nan, 1e10), (1e10, math.inf), (-math.inf, -1e10)])
def test_lattice_bin_counts_reject_positions_that_are_not_finite_at_a_tiny_side(bad):
    with pytest.raises(ValueError, match="^positions must be finite$"):
        lattice_bin_counts(CellGeometry("hexagon", 1e-300), np.array([bad]))


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_lattice_bin_counts_clip_far_positions_without_a_warning(shape):
    # coordinates of +-1e300 are clipped to the table before the cast to int,
    # so they raise no "invalid value encountered in cast" and are counted
    geom = CellGeometry(shape, 1000.0)
    far = np.array([(1e300, 0.0), (-1e300, 0.0), (0.0, 1e300), (0.0, -1e300), (1e300, 1e300), (-1e300, -1e300)])
    pts = np.concatenate([sample_points(geom, VariateStream(7), 1000), far])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = lattice_bin_counts(geom, pts)
        res = spatial_chi_square(geom, pts)
    assert counts.sum() == len(pts)
    assert math.isfinite(res.statistic)


@pytest.mark.parametrize("side", [300.0, 1000.0, 1e-310, 1e300])
@pytest.mark.parametrize(
    "shape, statistic",
    [(CellShape.HEXAGON, 85.8944), (CellShape.RHOMBUS120, 90.0608), (CellShape.TRIANGLE60, 80.288)],
)
def test_spatial_chi_square_statistic_depends_on_the_shape(shape, statistic, side):
    # the seed-11 statistics of the docstring, the same at every side
    geom = CellGeometry(shape, side)
    res = spatial_chi_square(geom, sample_points(geom, VariateStream(11), 10_000))
    assert res.statistic == pytest.approx(statistic, rel=1e-12)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_spatial_chi_square_rejects_a_short_chord(shape, monkeypatch):
    # a chord formula 3% short at the top, wherever the package looks it up;
    # bins that invert the sampler's own transform read 74.4 here and pass
    true_bounds = geometry.chord_y_bounds

    def short(geom, x, out=None):
        lo, hi = true_bounds(geom, x, out=out)
        return lo, lo + 0.97 * (hi - lo)

    for module in (geometry, verify):
        if getattr(module, "chord_y_bounds", None) is true_bounds:
            monkeypatch.setattr(module, "chord_y_bounds", short)
    geom = CellGeometry(shape, 1000.0)
    res = spatial_chi_square(geom, sample_points(geom, VariateStream(5), 100_000))
    assert res.statistic > 4.0 * res.critical, res  # 643, 915 and 1016 against 143.3


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_spatial_chi_square_accepts_uniform(shape):
    geom = CellGeometry(shape, 1.0)
    pts = sample_points(geom, VariateStream(100), 100_000)
    res = spatial_chi_square(geom, pts)
    assert res.bins == 96
    assert res.passed, res


def test_spatial_chi_square_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        spatial_chi_square(CellGeometry(CellShape.HEXAGON, 1.0), np.empty((0, 2)))


@pytest.mark.parametrize("significance", [0.0, 0.6, 1.0, math.nan, 0.05, 0.01])
def test_spatial_chi_square_rejects_a_significance_outside_the_upper_half(significance):
    pts = np.zeros((10, 2))
    with pytest.raises(ValueError, match="significance"):
        spatial_chi_square(CellGeometry(CellShape.HEXAGON, 1.0), pts, significance=significance)


def test_spatial_critical_is_the_correctly_rounded_quantile():
    res = spatial_chi_square(CellGeometry(CellShape.HEXAGON, 1.0), np.zeros((10, 2)))
    assert res.critical == verify.SPATIAL_CRITICAL == 143.3435397792313
    # scipy's quantile reads 1 ulp low
    assert abs(verify.SPATIAL_CRITICAL - special.chdtri(95, 1e-3)) <= math.ulp(verify.SPATIAL_CRITICAL)
    # the x with Q(95/2, x/2) = 1e-3 to 40 digits, rounded once to a float
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q = mpmath.mpf(verify.SPATIAL_SIGNIFICANCE)
        exact = mpmath.findroot(lambda x: mpmath.gammainc(47.5, x / 2, regularized=True) - q, 143.0)
        assert verify.SPATIAL_CRITICAL == float(exact)


def test_spatial_chi_square_rejects_zeroed_y():
    geom = CellGeometry(CellShape.HEXAGON, 1.0)
    pts = sample_points(geom, VariateStream(100), 100_000)
    pts[:, 1] = 0.0
    res = spatial_chi_square(geom, pts)
    assert not res.passed
    assert res.statistic > 10.0 * res.critical


# ------------------------------------------------------------- verification


def test_verify_report_json_round_trip(tmp_path):
    report = VerifyReport(
        preset="urban-macro",
        shape="hexagon",
        side_m=1000.0,
        count=100,
        seed=0,
        ks_statistic=0.01,
        ks_critical=0.02,
        chi2_statistic=90.0,
        chi2_bins=96,
        chi2_critical=143.3,
        passed=True,
    )
    path = tmp_path / "r.json"
    report.write(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["pass"] is True
    assert data["generator"] == "numpy-pcg64"
    assert data["chi2_bins"] == 96
    assert data["preset"] == "urban-macro"


@pytest.mark.parametrize("name,side", PRESET_CASES)
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_verification_passes_for_all_presets_and_shapes(name, side, shape):
    geom = CellGeometry(shape, side)
    model = preset_model(name, side)
    report = run_verification(geom, model, name, count=10_000, seed=0)
    assert report.passed, report
    assert report.count == 10_000
    assert report.ks_statistic < report.ks_critical
    assert report.chi2_statistic < report.chi2_critical


def test_seed_sweep_false_rejection_rate():
    # KS at the 1% level is expected to reject about one seed in a hundred
    geom = CellGeometry(CellShape.HEXAGON, 1000.0)
    model = preset_model("urban-macro", 1000.0)
    passes = 0
    for seed in range(100):
        table = run_drop(geom, model.pathloss, 10_000, seed=seed)
        if ks_test(table.lp, lambda v: shadowed_cdf(model, v)).passed:
            passes += 1
    assert passes >= 95


def test_run_verification_peak_memory_is_at_most_three_and_a_half_columns():
    # no drop table is built: the positions (x, y) and the loss column lp
    # are the only n-length arrays while lp is filled and the bins run; the
    # positions are freed before the KS test sorts lp in place, and every
    # pass works in blocks, so the peak is three columns plus a few blocks
    # (3.33 columns measured, while the bins run)
    geom = CellGeometry(CellShape.RHOMBUS120, 1000.0)
    model = preset_model("suburban-macro", 1000.0)
    # build the cached CDF table and the shape's bin table outside the trace
    run_verification(geom, model, "suburban-macro", 10, seed=3)
    n = 1_000_000
    tracemalloc.start()
    try:
        run_verification(geom, model, "suburban-macro", n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * n, f"peak {peak / 2**20:.1f} MiB, {peak / (8 * n):.2f} columns"
