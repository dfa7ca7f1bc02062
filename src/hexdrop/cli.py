"""Command-line interface: sample, pdf, verify, presets."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .density import DensityModel, shadowed_pdf_conv_grid, shadowed_pdf_grid
from .geometry import CellGeometry, CellShape
from .numerics import NonConvergenceError
from .presets import (
    BUILTIN_PRESETS,
    load_preset,
    read_presets_file,
    validate_cell_radius,
)
from .verify import run_drop, run_verification, write_density_csv, write_samples_csv

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

SHAPES = [s.value for s in CellShape]


def _add_common(p: argparse.ArgumentParser, with_shape: bool = True) -> None:
    p.add_argument("--preset", default="urban-macro", help="channel preset name")
    p.add_argument("--presets-file", default=None, help="JSON preset file overriding the builtins")
    p.add_argument("--side", type=float, required=True, help="cell side length in metres")
    if with_shape:
        p.add_argument("--shape", choices=SHAPES, default="hexagon")
    p.add_argument(
        "--force-radius",
        action="store_true",
        help="only warn when --side is outside the preset's fitted radius range",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexdrop",
        description="Drop mobiles uniformly in a cell and evaluate the shadowed path-loss density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="drop terminals and write a sample CSV")
    _add_common(p)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("pdf", help="tabulate the loss density to CSV")
    _add_common(p, with_shape=False)
    p.add_argument("--from", dest="from_db", type=float, default=None, help="lowest loss in dB")
    p.add_argument("--to", dest="to_db", type=float, default=None, help="highest loss in dB")
    p.add_argument("--step", type=float, default=0.2, help="grid step in dB")
    p.add_argument("--with-oracle", action="store_true", help="add a brute-force convolution column")
    p.add_argument("--gnuplot", action="store_true", help="also write a gnuplot script")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the Monte Carlo verification and write a JSON report")
    _add_common(p)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True, help="output JSON report path")
    p.add_argument("--gnuplot", action="store_true", help="also write sample/curve CSVs and a gnuplot script")

    p = sub.add_parser("presets", help="list the channel presets")
    p.add_argument("--presets-file", default=None)

    return parser


def _resolve_model(args) -> tuple[DensityModel, object]:
    preset = load_preset(args.preset, args.presets_file)
    if not validate_cell_radius(preset, args.side):
        msg = (
            f"side {args.side} m is outside the {preset.name} radius range "
            f"[{preset.cell_radius_min_m}, {preset.cell_radius_max_m}] m"
        )
        if not args.force_radius:
            raise ValueError(msg + " (use --force-radius to proceed)")
        print(f"warning: {msg}", file=sys.stderr)
    return preset.density_model(args.side), preset


def _default_range(model: DensityModel) -> tuple[float, float]:
    # wide enough that the emitted curve carries ~all the mass: the lower
    # tail decays one decade per beta/2 dB, the upper tail is Gaussian
    p = model.pathloss
    lo = model.knee_loss_db - max(6.0 * p.sigma_psi, 2.5 * p.beta)
    hi = model.max_loss_db + 6.0 * p.sigma_psi
    return lo, hi


def _cmd_sample(args) -> int:
    model, _ = _resolve_model(args)
    geom = CellGeometry(CellShape(args.shape), args.side)
    table = run_drop(geom, model.pathloss, args.count, args.seed)
    write_samples_csv(args.out, table)
    return EXIT_OK


def _cmd_pdf(args) -> int:
    model, _ = _resolve_model(args)
    lo, hi = _default_range(model)
    if args.from_db is not None:
        lo = args.from_db
    if args.to_db is not None:
        hi = args.to_db
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise ValueError(f"need a finite --step > 0, got {args.step}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite loss range --from < --to, got [{lo}, {hi}] dB")
    # np.arange's own error for a grid too long to allocate names neither bound
    count = (hi - lo) / args.step + 1.0
    if not count < np.iinfo(np.intp).max / np.dtype(float).itemsize:
        raise ValueError(
            f"the grid --from {lo} --to {hi} --step {args.step} dB has {count:.3g} points, "
            "more than an array can hold"
        )
    grid = np.arange(lo, hi + args.step / 2.0, args.step)
    closed = shadowed_pdf_grid(model, grid)
    oracle = shadowed_pdf_conv_grid(model, grid) if args.with_oracle else None
    write_density_csv(args.out, grid, closed, oracle)
    if args.gnuplot:
        csv_path = Path(args.out)
        plot = f"plot '{csv_path.name}' every ::1 using 1:2 with lines title 'closed form'"
        if args.with_oracle:
            plot += f", '{csv_path.name}' every ::1 using 1:3 with points title 'convolution'"
        _write_gnuplot(csv_path.with_suffix(csv_path.suffix + ".gp"), [], [plot])
    return EXIT_OK


def _write_gnuplot(script: Path, setup: list[str], plot: list[str]) -> None:
    """Write a loss-density gnuplot script: setup lines, axis labels, then plot lines."""
    lines = [
        "set datafile separator ','",
        *setup,
        "set xlabel 'path loss [dB]'",
        "set ylabel 'density [1/dB]'",
        *plot,
    ]
    script.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _cmd_verify(args) -> int:
    model, preset = _resolve_model(args)
    geom = CellGeometry(CellShape(args.shape), args.side)
    report = run_verification(geom, model, preset.name, args.count, args.seed)
    report.write(args.report)
    if args.gnuplot:
        stem = Path(args.report)
        samples_csv = stem.with_name(stem.stem + "_samples.csv")
        curve_csv = stem.with_name(stem.stem + "_curve.csv")
        # the same seed draws the same terminals again, row for row
        write_samples_csv(samples_csv, run_drop(geom, model.pathloss, args.count, args.seed))
        lo, hi = _default_range(model)
        grid = np.linspace(lo, hi, 801)
        write_density_csv(curve_csv, grid, shadowed_pdf_grid(model, grid))
        _write_gnuplot(
            stem.with_suffix(".gp"),
            ["binwidth = 1.0", "bin(x) = binwidth*floor(x/binwidth) + binwidth/2"],
            [
                f"n = {report.count}",
                f"plot '{samples_csv.name}' every ::1 using (bin($6)):(1.0/(n*binwidth)) "
                "smooth freq with boxes title 'simulated', \\",
                f"     '{curve_csv.name}' every ::1 using 1:2 with lines title 'closed form'",
            ],
        )
    if report.count < 5 * report.chi2_bins:
        print(f"warning: n={report.count} expects under 5 terminals in each of {report.chi2_bins} "
              "chi-square bins; the tests have little power at this count", file=sys.stderr)
    print(
        f"{preset.name} {geom.shape.value} side={geom.side} n={report.count} seed={report.seed}: "
        f"ks={report.ks_statistic:.6f} (crit {report.ks_critical:.6f}), "
        f"chi2={report.chi2_statistic:.2f} over {report.chi2_bins} bins (crit {report.chi2_critical:.2f}) "
        f"-> {'PASS' if report.passed else 'FAIL'}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_presets(args) -> int:
    table = BUILTIN_PRESETS if args.presets_file is None else read_presets_file(args.presets_file)
    for p in table.values():
        print(
            f"{p.name}: alpha'={p.alpha_prime_db} dB, beta={p.beta_db_per_decade} dB/decade, "
            f"sigma={p.sigma_psi_db} dB, r0={p.r0_m} m, "
            f"cell radius {p.cell_radius_min_m:g}-{p.cell_radius_max_m:g} m ({p.model_label})"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sample": _cmd_sample,
        "pdf": _cmd_pdf,
        "verify": _cmd_verify,
        "presets": _cmd_presets,
    }
    try:
        return handlers[args.command](args)
    # bad input, an unwritable output path, a request too large for memory or
    # parameters the quadrature cannot resolve are usage errors, not a failed
    # verification
    except (ValueError, OSError, MemoryError, NonConvergenceError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
