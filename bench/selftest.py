"""Self-test of the benchmark's output checks.

Usage (from the repository root): python3 bench/selftest.py

For each workload it runs the command twice with equal arguments and
requires byte-identical outputs (by SHA-256), requires bench/checks.py to
pass the good output with no problem beyond the known upper-tail points,
then writes corrupted copies of it and requires each copy to be rejected
with the problem the corruption should cause.  Prints one line per case
and exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
from run import OUT, digest, run_child
from workloads import WORKLOADS

# The benchmark seed the commands and checks are made from.
SEED = 5


def write_rows(path: Path, header: str, data: np.ndarray) -> None:
    """A CSV in the CLI's format: shortest round-trip reprs, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in data.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def read_rows(path: Path) -> tuple[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def _relossed(channel: checks.Channel, x, y, psi) -> np.ndarray:
    """Sample columns for points (x, y) and shadowing psi, consistent with each other."""
    r = np.hypot(x, y)
    w = channel.alpha_prime + channel.beta * np.log10(r)
    return np.column_stack([x, y, r, w, psi, w + psi])


def sample_corruptions(workload, data: np.ndarray):
    """(name, header, rows, expected problem substrings) per corrupted samples CSV."""
    ch, L = workload.channel, workload.side
    x, y, psi = data[:, 0], data[:, 1], data[:, 4]
    header = checks.SAMPLES_HEADER

    def edited(col: int, k: int, factor: float = 1.0, shift: float = 0.0) -> np.ndarray:
        d = data.copy()
        d[k, col] = d[k, col] * factor + shift
        return d

    moved_x = x.copy()
    moved_x[3] = 1.001 * L  # beyond the vertex at (L, 0)
    moved_y = y.copy()
    moved_y[3] = 0.0
    yield "point moved outside the cell", header, _relossed(ch, moved_x, moved_y, psi), ["outside the hexagon"]
    yield "r scaled by 1 + 1e-9 in one row", header, edited(2, 7, factor=1 + 1e-9), ["hypot"]
    yield "w shifted by 1e-6 dB in one row", header, edited(3, 7, shift=1e-6), ["w differs"]
    yield "lp shifted by 1e-6 dB in one row", header, edited(5, 7, shift=1e-6), ["lp differs"]
    yield "points pulled 1 % toward the centre", header, _relossed(ch, 0.99 * x, 0.99 * y, psi), [
        "mean r^2",
        "inscribed circle",
    ]
    yield "psi shifted by 0.2 dB", header, _relossed(ch, x, y, psi + 0.2), ["psi mean"]
    yield "psi scaled by 1.02", header, _relossed(ch, x, y, 1.02 * psi), ["psi deviation"]
    yield "last row dropped", header, data[:-1], ["table shape"]
    yield "header renamed", header.replace("lp_db", "loss_db"), data, ["header"]


def density_corruptions(workload, data: np.ndarray):
    """(name, header, rows, expected problem substrings) per corrupted density CSV."""
    header = "l_db,f_closed" + (",f_oracle" if workload.oracle else "")
    for col in range(1, data.shape[1]):
        name = header.split(",")[col]
        d = data.copy()
        d[:, col] *= 1 + 1e-6
        yield f"{name} scaled by 1 + 1e-6", header, d, ["off by"]
        d = data.copy()
        d[:, col] *= 1.01
        yield f"{name} scaled by 1.01", header, d, ["trapezoid mass"]
    d = data.copy()
    d[:, 0] += 1e-6
    yield "loss column shifted by 1e-6 dB", header, d, ["default grid"]
    yield "last row dropped", header, data[:-1], ["table shape"]
    yield "header renamed", header.replace("l_db", "loss_db"), data, ["header"]


def report_corruptions(rep: dict):
    """(name, report, expected problem substrings) per corrupted verify report."""

    def edited(**changes) -> dict:
        return {**rep, **changes}

    yield "pass flag flipped", edited(**{"pass": False}), ["pass="]
    yield "seed changed", edited(seed=rep["seed"] + 1), ["seed="]
    yield "shape changed", edited(shape="hexagon"), ["shape="]
    yield "count changed", edited(count=rep["count"] - 1), ["count="]
    yield "ks_critical scaled by 1 + 1e-9", edited(ks_critical=rep["ks_critical"] * (1 + 1e-9)), ["ks_critical"]
    yield "chi2_critical scaled by 0.9", edited(chi2_critical=rep["chi2_critical"] * 0.9), ["chi2 over"]
    yield "ks_statistic above critical", edited(ks_statistic=1.01 * rep["ks_critical"]), ["ks_statistic"]
    yield "chi2_statistic above critical", edited(chi2_statistic=1.01 * rep["chi2_critical"]), ["chi2_statistic"]
    yield "ks_statistic missing", {k: v for k, v in rep.items() if k != "ks_statistic"}, ["missing"]


def rejected(verdict: checks.Verdict, good: checks.Verdict, expected: list[str]) -> tuple[bool, str]:
    """Whether a corrupted output failed with every expected problem."""
    missing = [e for e in expected if not any(e in p for p in verdict.problems)]
    more_failed = verdict.failed > good.failed or verdict.failed == verdict.attempted
    ok = not missing and more_failed
    shown = verdict.problems[0] if verdict.problems else "no problem reported"
    return ok, shown if ok else f"missing {missing}; failed {verdict.failed}/{verdict.attempted}; {shown}"


def test_workload(workload, seed: int, work: Path) -> list[tuple[bool, str]]:
    results = []
    outs = [work / f"{workload.name}-{k}-{workload.output_name}" for k in range(2)]
    for k, out in enumerate(outs):
        code = run_child(workload.argv(seed, out), work / f"{workload.name}-{k}").code
        if code != 0:
            return [(False, f"{workload.name}: command exited with {code}")]
    a, b = digest(outs[0]), digest(outs[1])
    results.append((a == b, f"{workload.name}: two runs with equal arguments, sha256 {a[:16]} and {b[:16]}"))

    good = workload.judge(outs[0], seed)
    tail = "" if workload.command != "pdf" else f", {good.failed} upper-tail points missed"
    results.append((not good.problems, f"{workload.name}: good output passes ({good.attempted} operations{tail})"))

    corrupt = work / f"{workload.name}-corrupt-{workload.output_name}"
    if workload.command == "verify":
        rep = json.loads(outs[0].read_text(encoding="utf-8"))
        for name, bad, expected in report_corruptions(rep):
            corrupt.write_text(json.dumps(bad), encoding="utf-8")
            ok, why = rejected(workload.judge(corrupt, seed), good, expected)
            results.append((ok, f"{workload.name}: {name} -> {why}"))
        return results

    header, data = read_rows(outs[0])
    cases = sample_corruptions(workload, data) if workload.command == "sample" else density_corruptions(workload, data)
    for name, bad_header, bad, expected in cases:
        write_rows(corrupt, bad_header, bad)
        ok, why = rejected(workload.judge(corrupt, seed), good, expected)
        results.append((ok, f"{workload.name}: {name} -> {why}"))
    return results


def main() -> int:
    if not Path("src/hexdrop/cli.py").is_file():
        print("error: run from the root of a hexdrop checkout (src/hexdrop/cli.py not found)", file=sys.stderr)
        return 2
    work = OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = 0
    for workload in WORKLOADS.values():
        for ok, line in test_workload(workload, SEED, work):
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {line}", flush=True)
    shutil.rmtree(work)
    print(f"{failures} of the cases failed" if failures else "every case holds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
