"""Traced replay of one hexdrop CLI command, for the per-layer metrics.

Usage: python3 bench/tracing.py SPEC_JSON

SPEC_JSON is a JSON object with keys ``argv`` (the CLI arguments),
``preset``, ``side``, ``seed``, ``probe_dir`` and ``out`` (where the result
is written).  The child times ``import hexdrop.cli``, wraps the public
functions of each module where their callers look them up, and runs
``main(argv)`` under a root span, so every call into a layer gets a span
with its name, start, end and parent.  Spans are kept in memory and written
to ``out`` with the metrics when the child ends.

A layer the command does not call is measured by a probe: a fixed, small
call of the same public function after the command, under its own root
span.  Each metric records whether it came from the command or a probe.

The child does not poll its own memory, which would put a thread beside
the timed calls.  A span of a memory metric records the resident size and
the peak (``ru_maxrss``) at its start and end, and names itself in place of
the value; bench/run.py, which polls the child from another processor,
turns it into the growth of resident memory during the span.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

# name: (span, kind, probe group); units are in BENCHMARK.json.  Kinds:
#   seconds      summed span time          first   the first span's time
#   self         summed span time less that of their child spans
#   per_n        items (attr n) per second  per_call calls per second
#   per_tail     calls with attr tail per second
#   rss_mb       the spans, for the parent  bytes   largest attr bytes
PER_LAYER = {
    "cli.import_s": ("cli.import", "seconds", None),
    "rng.uniforms_per_s": ("rng.uniforms", "per_n", "drop"),
    "rng.normals_per_s": ("rng.normals", "per_n", "drop"),
    "sampler.sample_points_per_s": ("sampler.sample_points", "per_n", "drop"),
    "pathloss.mean_pathloss_per_s": ("pathloss.mean_pathloss", "per_n", "drop"),
    "verify.run_drop_s": ("verify.run_drop", "seconds", "drop"),
    "verify.run_drop_rss_mb": ("verify.run_drop", "rss_mb", "drop"),
    "verify.write_samples_csv_s": ("verify.write_samples_csv", "seconds", "samples_csv"),
    "verify.write_samples_csv_rss_mb": ("verify.write_samples_csv", "rss_mb", "samples_csv"),
    "verify.write_samples_csv_bytes": ("verify.write_samples_csv", "bytes", "samples_csv"),
    "verify.ks_test_s": ("verify.ks_test", "self", "verification"),
    "verify.spatial_chi_square_s": ("verify.spatial_chi_square", "seconds", "verification"),
    "density.shadowed_cdf_cold_s": ("density.shadowed_cdf", "first", "verification"),
    "density.shadowed_pdf_per_s": ("density.shadowed_pdf", "per_call", "density"),
    "density.shadowed_pdf_upper_tail_per_s": ("density.shadowed_pdf", "per_tail", "density"),
    "numerics.arcsine_gauss_integral_per_s": ("numerics.arcsine_gauss_integral", "per_call", "density"),
    "verify.write_density_csv_s": ("verify.write_density_csv", "seconds", "density"),
    "density.shadowed_pdf_conv_per_s": ("density.shadowed_pdf_conv", "per_call", "oracle"),
    "density.shadowed_pdf_conv_upper_tail_per_s": ("density.shadowed_pdf_conv", "per_tail", "oracle"),
}

ROOT = "cli.main"
PROBE_DROP_N = 1_000_000
PROBE_SAMPLES_N = 20_000
PROBE_VERIFY_N = 200_000
PROBE_DENSITY_POINTS = 201
PROBE_ORACLE_POINTS = 13


class Tracer:
    """Spans as [name, start, end, parent, root, attrs] rows, in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][4] if parent is not None else idx
        self.spans.append([name, time.perf_counter(), None, parent, root, {} if attrs is None else attrs])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, describe=None, rss: bool = False, output_bytes: bool = False):
        """fn with a span around every call; describe(*args) gives span attributes."""

        def traced(*args, **kwargs):
            attrs = describe(*args) if describe else {}
            if rss:
                attrs["rss0_mb"], attrs["hwm0_mb"] = _rss_mb(), _hwm_mb()
            idx = self.begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
                if rss:
                    attrs["rss1_mb"], attrs["hwm1_mb"] = _rss_mb(), _hwm_mb()
            if output_bytes:
                attrs["bytes"] = os.path.getsize(args[0])
            return result

        traced.__wrapped__ = fn
        return traced


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def _hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _install(tracer: Tracer, hexdrop) -> None:
    """Wrap each layer's public functions where the program looks them up."""
    cli, verify, density = hexdrop.cli, hexdrop.verify, hexdrop.density

    def tail(model, l, *rest):
        p = model.pathloss
        return {"tail": l > model.max_loss_db + 3.0 * p.sigma_psi}

    stream = hexdrop.rng.VariateStream
    stream.uniforms = tracer.wrap(stream.uniforms, "rng.uniforms", lambda self, n: {"n": int(n)})
    stream.normals = tracer.wrap(stream.normals, "rng.normals", lambda self, n: {"n": int(n)})
    wrapped = {
        "load_preset": tracer.wrap(cli.load_preset, "presets.load_preset"),
        "run_drop": tracer.wrap(verify.run_drop, "verify.run_drop", rss=True),
        "run_verification": tracer.wrap(verify.run_verification, "verify.run_verification"),
        "write_samples_csv": tracer.wrap(
            verify.write_samples_csv, "verify.write_samples_csv", rss=True, output_bytes=True
        ),
        "write_density_csv": tracer.wrap(verify.write_density_csv, "verify.write_density_csv"),
        "sample_points": tracer.wrap(
            verify.sample_points, "sampler.sample_points", lambda g, s, n: {"n": int(n)}
        ),
        "mean_pathloss": tracer.wrap(
            verify.mean_pathloss, "pathloss.mean_pathloss", lambda p, r: {"n": int(getattr(r, "size", 1))}
        ),
        "ks_test": tracer.wrap(verify.ks_test, "verify.ks_test"),
        "spatial_chi_square": tracer.wrap(verify.spatial_chi_square, "verify.spatial_chi_square"),
        "shadowed_cdf": tracer.wrap(verify.shadowed_cdf, "density.shadowed_cdf"),
        "shadowed_pdf": tracer.wrap(density.shadowed_pdf, "density.shadowed_pdf", tail),
        "shadowed_pdf_conv": tracer.wrap(density.shadowed_pdf_conv, "density.shadowed_pdf_conv", tail),
        "arcsine_gauss_integral": tracer.wrap(
            density.arcsine_gauss_integral, "numerics.arcsine_gauss_integral"
        ),
    }
    for module in (cli, verify, density):
        for name, fn in wrapped.items():
            if hasattr(module, name):
                setattr(module, name, fn)


def _probe(tracer: Tracer, hexdrop, group: str, spec: dict) -> None:
    """Call one group of layers that the command did not reach."""
    verify, density = hexdrop.verify, hexdrop.density
    preset = hexdrop.presets.load_preset(spec["preset"])
    model = preset.density_model(spec["side"])
    geom = hexdrop.geometry.CellGeometry("hexagon", spec["side"])
    p = model.pathloss
    lo = model.knee_loss_db - max(6.0 * p.sigma_psi, 2.5 * p.beta)
    hi = model.max_loss_db + 6.0 * p.sigma_psi
    probe_dir = Path(spec["probe_dir"])
    idx = tracer.begin("probe:" + group)
    if group == "drop":
        verify.run_drop(geom, p, PROBE_DROP_N, spec["seed"])
    elif group == "samples_csv":
        table = verify.run_drop.__wrapped__(geom, p, PROBE_SAMPLES_N, spec["seed"])
        verify.write_samples_csv(probe_dir / "probe_samples.csv", table)
    elif group == "verification":
        rhombus = hexdrop.geometry.CellGeometry("rhombus120", spec["side"])
        verify.run_verification(rhombus, model, preset.name, PROBE_VERIFY_N, spec["seed"])
    elif group == "density":
        import numpy as np

        grid = np.linspace(lo, hi, PROBE_DENSITY_POINTS)
        closed = np.array([density.shadowed_pdf(model, float(l)) for l in grid])
        verify.write_density_csv(probe_dir / "probe_density.csv", grid, closed)
    elif group == "oracle":
        for l in [lo + (hi - lo) * k / (PROBE_ORACLE_POINTS - 1) for k in range(PROBE_ORACLE_POINTS)]:
            density.shadowed_pdf_conv(model, l)
    tracer.end(idx)


def _value(spans: list[list], picked: list[int], kind: str) -> float | None:
    """One metric from the spans at indices ``picked``, or None when they do not define it."""
    rows = [spans[i] for i in picked]
    dur = [s[2] - s[1] for s in rows]
    if kind == "seconds":
        return sum(dur) if rows else None
    if kind == "self":
        parents = set(picked)
        children = sum(s[2] - s[1] for s in spans if s[3] in parents)
        return sum(dur) - children if rows else None
    if kind == "first":
        return dur[0] if rows else None
    if kind == "rss_mb":
        return {"spans": picked} if rows else None
    if kind == "bytes":
        return float(max(s[5]["bytes"] for s in rows)) if rows else None
    if kind == "per_tail":
        dur = [d for d, s in zip(dur, rows) if s[5]["tail"]]
        work = len(dur)
    elif kind == "per_n":
        work = sum(s[5]["n"] for s in rows)
    else:
        work = len(rows)
    return work / sum(dur) if dur and sum(dur) > 0.0 else None


def _under(spans: list[list], name: str, root: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s[0] == name and spans[s[4]][0] == root]


def layer_metrics(tracer: Tracer, run_probe) -> tuple[dict, dict]:
    """Every per-layer metric, from the command's spans or else from a probe.

    run_probe(group) adds that probe's spans to the tracer.  Returns
    (metrics, source), source naming "command" or "probe:<group>" per metric.
    """
    metrics, source = {}, {}
    for name, (span, kind, group) in PER_LAYER.items():
        root = "cli.import" if group is None else ROOT
        value = _value(tracer.spans, _under(tracer.spans, span, root), kind)
        if value is None and group is not None:
            root = "probe:" + group
            if not any(s[0] == root for s in tracer.spans):
                run_probe(group)
            value = _value(tracer.spans, _under(tracer.spans, span, root), kind)
        if value is not None:
            metrics[name] = value
            source[name] = "command" if root in ("cli.import", ROOT) else root
    return metrics, source


def coverage(spans: list[list]) -> float:
    """Share of the command's span that its direct child spans cover."""
    idx = next(i for i, s in enumerate(spans) if s[0] == ROOT)
    total = spans[idx][2] - spans[idx][1]
    covered = sum(s[2] - s[1] for s in spans if s[3] == idx)
    return covered / total


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = Tracer()
    idx = tracer.begin("cli.import")
    import hexdrop.cli

    tracer.end(idx)
    _install(tracer, sys.modules["hexdrop"])
    idx = tracer.begin(ROOT, {"argv": spec["argv"]})
    code = hexdrop.cli.main(spec["argv"])
    tracer.end(idx)

    hexdrop = sys.modules["hexdrop"]
    metrics, source = layer_metrics(tracer, lambda group: _probe(tracer, hexdrop, group, spec))
    result = {
        "code": code,
        "coverage": coverage(tracer.spans),
        "command_spans": sum(1 for s in tracer.spans if tracer.spans[s[4]][0] == ROOT),
        "metrics": metrics,
        "source": source,
        "spans": tracer.spans,
    }
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if len(metrics) == len(PER_LAYER) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
