"""The four benchmark workloads: one hexdrop CLI command each.

A workload turns the benchmark seed into the command's arguments, names
the count of items its work phase handles, and judges the command's output
with :mod:`checks`.  Every round of a run repeats the same command, so the
same seed always gives the same inputs and the same output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import checks

# ``hexdrop verify`` KS-tests at significance 0.01, so about one seed in a
# hundred fails by chance on a correct program.  CLI seeds 0..63 all pass for
# the verify-mc drop (seeds 0..177 were run; only 65 and 130 fail, both on KS).
VERIFY_SEEDS = 64

# Interior density points compared with the quad reference in each pdf-closed
# run; all upper-tail points are compared as well.
PDF_CLOSED_INTERIOR_POINTS = 300


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sample", "pdf" or "verify"
    preset: str
    side: float
    shape: str = "hexagon"
    count: int = 0
    step: float = 0.0
    oracle: bool = False

    @property
    def channel(self) -> checks.Channel:
        return checks.CHANNELS[self.preset]

    @property
    def output_name(self) -> str:
        return {"sample": "samples.csv", "pdf": "density.csv", "verify": "report.json"}[self.command]

    def cli_seed(self, seed: int) -> int:
        """The --seed the command gets; numpy's generator takes no negative seed."""
        return seed % (VERIFY_SEEDS if self.command == "verify" else 2**32)

    def argv(self, seed: int, out: Path) -> list[str]:
        """The CLI arguments; ``out`` is where the command writes its output."""
        args = [self.command, "--preset", self.preset, "--side", repr(self.side)]
        if self.command == "pdf":
            args += ["--step", repr(self.step), "--out", str(out)]
            return args + (["--with-oracle"] if self.oracle else [])
        args += ["--shape", self.shape, "--count", str(self.count), "--seed", str(self.cli_seed(seed))]
        return args + (["--out", str(out)] if self.command == "sample" else ["--report", str(out)])

    def items(self) -> int:
        """Rows written, density points or terminals verified by one command."""
        if self.command == "pdf":
            return len(checks.expected_grid(self.channel, self.side, self.step))
        return self.count

    def judge(self, out: Path, seed: int) -> checks.Verdict:
        if self.command == "sample":
            return checks.check_samples_csv(out, self.channel, self.side, self.count)
        if self.command == "verify":
            return checks.check_verify_report(
                out, self.preset, self.shape, self.side, self.count, self.cli_seed(seed)
            )
        interior = None if self.oracle else PDF_CLOSED_INTERIOR_POINTS
        return checks.check_density_csv(out, self.channel, self.side, self.step, self.oracle, interior, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sample-csv", "sample", "urban-macro", 1000.0, count=200_000),
        Workload("pdf-closed", "pdf", "urban-micro-los", 250.0, step=0.01),
        Workload("pdf-oracle", "pdf", "urban-macro", 1000.0, step=2.0, oracle=True),
        Workload("verify-mc", "verify", "suburban-macro", 1000.0, shape="rhombus120", count=2_000_000),
    )
}
