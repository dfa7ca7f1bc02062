"""Benchmark of the hexdrop CLI: four workloads, end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round spawns a fresh interpreter that imports ``hexdrop.cli`` from
``src`` and runs one CLI command (bench/child.py).  With ``--trace 0`` a run
repeats whole rounds of the workload's command for about S seconds (at least
three) and reports the medians of the end-to-end metrics over the rounds,
with each phase's time scaled to a reference processor speed (SpeedProbe).
With ``--trace 1`` it alternates untraced rounds with traced replays
(bench/tracing.py) and reports the per-layer metrics.
Either way the first round's output is judged by bench/checks.py and every
later output must have the same bytes.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import math
import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import Verdict
from tracing import PER_LAYER, ROOT
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
TRACER = BENCH / "tracing.py"
OUT = Path(".bench_out")

MIN_ROUNDS = 3
END_TO_END = ("wall_s", "setup_s", "items_per_s", "peak_rss_mb")

# Every command runs on one processor, with the speed probe beside it; the
# parent's poll of a traced child's memory runs on the others.
CPUS = sorted(os.sched_getaffinity(0))
COMMAND_CPU = CPUS[0]
OTHER_CPUS = set(CPUS[1:]) or {COMMAND_CPU}

# The speed probe's loop formats 450 floats with repr and unmarshals the
# code of 200 small functions: the interpreter's work in writing a CSV and
# in an import.  It takes 0.8 ms to 1.2 ms on the 2-vCPU machine of the
# README's figures; times are scaled to a processor on which it takes 1 ms.
PROBE_FLOATS = [k * 1.1e-3 for k in range(450)]
PROBE_CODE = marshal.dumps(
    compile(
        "".join(f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a + k for k in b if k] or {{'k': a}}\n" for i in range(200)),
        "probe",
        "exec",
    )
)
REFERENCE_LOOP_S = 1e-3
PROBE_PERIOD_S = 0.025

RSS_POLL_S = 0.005
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def metric_units() -> dict[str, str]:
    """Unit of every metric, from BENCHMARK.json; its metric names must be this benchmark's."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [m["name"] for m in spec[key]]
        if sorted(listed) != sorted(names):
            raise ValueError(f"BENCHMARK.json {key} lists {listed}, the benchmark measures {list(names)}")
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}


class SpeedProbe:
    """Times a fixed loop on the commands' processor every PROBE_PERIOD_S seconds.

    The shared machine's processors change speed within a second and stay
    fast or slow for minutes, and a command's CPU time follows them.  A loop
    timed on another processor, or before and after the command, does not
    follow the command's processor; one timed on the same processor while
    the command runs does, at the price of about 4 % of that processor.
    """

    def __init__(self):
        self.loops: list[tuple[float, float]] = []  # (start, seconds the loop took)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            t = time.perf_counter()
            [repr(v) for v in PROBE_FLOATS]
            marshal.loads(PROBE_CODE)
            self.loops.append((t, time.perf_counter() - t))

    def scaled(self, t0: float, t1: float) -> float:
        """t1 - t0 at the reference speed, by the median loop time in [t0, t1]."""
        loops = [d for t, d in self.loops if t0 <= t <= t1]
        return (t1 - t0) * REFERENCE_LOOP_S / statistics.median(loops) if loops else math.nan


@dataclass
class Spawn:
    start: float  # time.perf_counter() readings: at the spawn,
    imported: float  # at the end of ``import hexdrop.cli``,
    returned: float  # at the return of ``main(argv)``
    end: float  # and at the exit
    rss_mb: float  # peak resident memory of the child
    code: int
    rss_polled: list[tuple[float, float]] = field(default_factory=list)  # (time, MB), when watched

    @property
    def setup_s(self) -> float:
        return self.imported - self.start

    @property
    def main_s(self) -> float:
        return self.returned - self.imported


def poll_rss(pid: int, samples: list, done: threading.Event) -> None:
    """Append (time, resident MB) of process PID every RSS_POLL_S until DONE."""
    os.sched_setaffinity(0, OTHER_CPUS)
    while not done.wait(RSS_POLL_S):
        t = time.perf_counter()
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                samples.append((t, int(fh.read().split()[1]) * PAGE_MB))
        except (OSError, ValueError, IndexError):
            pass


def spawn(args: list[str], log: Path, watch_rss: bool = False) -> Spawn:
    """Run ``python3 ARGS`` to its end; stdout and stderr go to LOG.out/.err.

    With watch_rss, a thread polls the child's resident memory meanwhile.
    """
    stamp = log.with_suffix(".stamp")
    stamp.unlink(missing_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log.with_suffix(".out")), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(log.with_suffix(".err")), flags, 0o644),
    ]
    argv = [sys.executable, *args]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    polled: list[tuple[float, float]] = []
    if watch_rss:
        done = threading.Event()
        poller = threading.Thread(target=poll_rss, args=(pid, polled, done), daemon=True)
        poller.start()
    _, status, usage = os.wait4(pid, 0)
    t_end = time.perf_counter()
    if watch_rss:
        done.set()
        poller.join()
    code = os.waitstatus_to_exitcode(status)
    try:
        t_import, t_main = map(float, stamp.read_text(encoding="ascii").split())
    except (OSError, ValueError):
        t_import = t_main = math.nan
    if code != 0:
        err = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        print(f"{' '.join(args)} exited with {code}:\n{err[-2000:]}", file=sys.stderr)
    return Spawn(t0, t_import, t_main, t_end, usage.ru_maxrss / 1024.0, code, polled)


def run_child(cli_args: list[str], log: Path) -> Spawn:
    """Run one CLI command in a fresh interpreter through bench/child.py."""
    return spawn([str(CHILD), str(log.with_suffix(".stamp")), *cli_args], log)


def digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Round:
    spawn: Spawn
    digest: str | None
    seconds: float  # time the round took, spawn and hashing included


def command_round(workload, seed: int, work: Path, tag: str, keep: bool) -> Round:
    out = work / f"{tag}-{workload.output_name}"
    t = time.perf_counter()
    s = run_child(workload.argv(seed, out), work / tag)
    d = digest(out)
    if not keep:
        out.unlink(missing_ok=True)
    return Round(s, d, time.perf_counter() - t)


def tally(workload, seed: int, first_output: Path, outputs: list[tuple[int, str | None]]):
    """Judge the first output, then every output as equal to it or failed.

    outputs lists (exit code, digest) per command run.  Returns
    (correct, attempted, failed).
    """
    if first_output.is_file():
        verdict = workload.judge(first_output, seed)
    else:
        verdict = Verdict(1, 1, [f"no output at {first_output}"])
    problems = list(verdict.problems)
    attempted = failed = 0
    for k, (code, d) in enumerate(outputs):
        attempted += verdict.attempted
        if code != 0 or d is None or d != outputs[0][1]:
            failed += verdict.attempted
            problems.append(f"run {k}: exit code {code}, output {'missing' if d is None else d[:12]}")
        else:
            failed += verdict.failed
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return not problems, attempted, failed


def measure_rounds(seconds: float, run_round) -> list:
    """Call run_round() until another one would end past ``seconds``, at least MIN_ROUNDS times."""
    t_start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(len(rounds)))
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(r.seconds for r in rounds) > seconds:
            return rounds


def end_to_end(workload, seed: int, seconds: float, work: Path, units: dict) -> dict:
    with SpeedProbe() as speed:
        rounds = measure_rounds(seconds, lambda k: command_round(workload, seed, work, f"round{k}", keep=k == 0))
    correct, attempted, failed = tally(
        workload,
        seed,
        work / f"round0-{workload.output_name}",
        [(r.spawn.code, r.digest) for r in rounds],
    )
    # Each phase of each round at the reference speed: the setup up to the end
    # of the import, the work phase from there to the exit.
    setup = [speed.scaled(r.spawn.start, r.spawn.imported) for r in rounds]
    work_s = [speed.scaled(r.spawn.imported, r.spawn.end) for r in rounds]
    values = {
        "wall_s": statistics.median(s + w for s, w in zip(setup, work_s)),
        "setup_s": statistics.median(setup),
        "items_per_s": workload.items() * len(rounds) / sum(work_s),
        "peak_rss_mb": statistics.median(r.spawn.rss_mb for r in rounds),
    }
    print(f"{workload.name}: {len(rounds)} rounds, output sha256 {rounds[0].digest}", file=sys.stderr)
    samples = {
        "setup_s": setup,
        "work_s": work_s,
        "raw_setup_s": [r.spawn.setup_s for r in rounds],
        "raw_wall_s": [r.spawn.end - r.spawn.start for r in rounds],
        "probe_loops": len(speed.loops),
    }
    print("samples " + json.dumps(samples), file=sys.stderr)
    return {
        "correct": correct and all(math.isfinite(v) for v in values.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def resident_growth_mb(span: list, polled: list[tuple[float, float]]) -> float:
    """Growth of a traced child's resident memory during one span, over its value at the start.

    Exact when the span raised the child's peak (ru_maxrss); otherwise the
    largest value of the parent's poll within the span.
    """
    _name, start, end, _parent, _root, a = span
    if a["hwm1_mb"] > a["hwm0_mb"]:
        peak = a["hwm1_mb"]
    else:
        peak = max([a["rss1_mb"]] + [mb for t, mb in polled if start <= t <= end])
    return peak - a["rss0_mb"]


@dataclass
class TracedRound:
    plain: Round
    traced: dict  # what bench/tracing.py wrote
    traced_digest: str | None
    seconds: float


def traced(workload, seed: int, seconds: float, work: Path, units: dict) -> dict:
    def run_pair(k: int) -> TracedRound:
        t = time.perf_counter()
        plain = command_round(workload, seed, work, f"plain{k}", keep=k == 0)
        out = work / f"traced{k}-{workload.output_name}"
        spec = {
            "argv": workload.argv(seed, out),
            "preset": workload.preset,
            "side": workload.side,
            "seed": seed,
            "probe_dir": str(work),
            "out": str(work / f"traced{k}.json"),
        }
        spec_path = work / f"traced{k}-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        s = spawn([str(TRACER), str(spec_path)], work / f"traced{k}", watch_rss=True)
        result = json.loads(Path(spec["out"]).read_text(encoding="utf-8")) if s.code == 0 else {}
        for name, value in result.get("metrics", {}).items():
            if isinstance(value, dict):  # memory growth, from the spans it names
                spans = result["spans"]
                result["metrics"][name] = max(resident_growth_mb(spans[i], s.rss_polled) for i in value["spans"])
        d = digest(out)
        out.unlink(missing_ok=True)
        return TracedRound(plain, result, d, time.perf_counter() - t)

    with SpeedProbe() as speed:
        pairs = measure_rounds(seconds, run_pair)
    outputs = []
    for p in pairs:
        outputs.append((p.plain.spawn.code, p.plain.digest))
        outputs.append((p.traced.get("code", -1), p.traced_digest))
    correct, attempted, failed = tally(workload, seed, work / f"plain0-{workload.output_name}", outputs)

    results = [p.traced for p in pairs if p.traced]
    metrics = {}
    for name in PER_LAYER:
        values = [r["metrics"][name] for r in results if name in r["metrics"]]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": units[name]}
    # The call of main(argv), traced over untraced, each at the reference speed.
    ratios = []
    for p in pairs:
        if p.traced:
            root = next(s for s in p.traced["spans"] if s[0] == ROOT)
            plain = p.plain.spawn
            ratios.append(speed.scaled(root[1], root[2]) / speed.scaled(plain.imported, plain.returned))
    summary = {
        "workload": workload.name,
        "seed": seed,
        "untraced_main_s": statistics.median(p.plain.spawn.main_s for p in pairs),
        "tracing_overhead": statistics.median(ratios) - 1.0 if ratios else math.nan,
        "command_spans": statistics.median_low(r["command_spans"] for r in results) if results else 0,
        "span_coverage": statistics.median(r["coverage"] for r in results) if results else math.nan,
        "source": results[0]["source"] if results else {},
        "rounds": results,
    }
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps(summary), encoding="utf-8")
    print(
        f"{workload.name}: {len(pairs)} traced rounds; spans cover {summary['span_coverage']:.4f} of main(), "
        f"{summary['command_spans']} spans add {summary['tracing_overhead']:+.4f} to it; spans in {trace_file}",
        file=sys.stderr,
    )
    return {
        "correct": correct and len(metrics) == len(PER_LAYER),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/hexdrop/cli.py").is_file():
        print("error: run from the root of a hexdrop checkout (src/hexdrop/cli.py not found)", file=sys.stderr)
        return 2
    try:
        units = metric_units()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.sched_setaffinity(0, {COMMAND_CPU})  # the children and the speed probe inherit it

    # One untimed command first, so compiled bytecode and the page cache are
    # warm as they are for a user's second command.
    if run_child(["presets"], work / "warmup").code != 0:
        print("error: `hexdrop presets` failed; nothing to measure", file=sys.stderr)
        return 1
    run = traced if args.trace else end_to_end
    result = run(workload, args.seed, args.seconds, work, units)
    shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
