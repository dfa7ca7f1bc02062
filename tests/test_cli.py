import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hexdrop
from hexdrop.cli import main


def run(argv):
    return main(argv)


def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("suburban-macro", "urban-macro", "urban-micro-nlos", "urban-micro-los"):
        assert name in out
    assert "COST-231 Hata-Model" in out


def test_sample_happy_path(tmp_path):
    out = tmp_path / "s.csv"
    argv = [
        "sample", "--shape", "hexagon", "--side", "1000", "--count", "500",
        "--seed", "42", "--out", str(out),
    ]
    assert run(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_m,y_m,r_m,w_db,psi_db,lp_db"
    assert len(lines) == 501

    # byte-for-byte determinism of a repeated invocation
    out2 = tmp_path / "s2.csv"
    run(argv[:-1] + [str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_sample_unknown_preset(tmp_path, capsys):
    code = run(["sample", "--preset", "bogus", "--side", "1000", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_sample_out_of_range_side(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["sample", "--preset", "urban-macro", "--side", "100", "--count", "10", "--out", str(out)]
    assert run(argv) == 2
    assert not out.exists()
    assert run(argv + ["--force-radius"]) == 0
    assert "warning" in capsys.readouterr().err
    assert out.exists()


def test_sample_rejects_bad_shape(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--shape", "circle", "--side", "1000", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_pdf_explicit_range(tmp_path):
    out = tmp_path / "d.csv"
    code = run([
        "pdf", "--preset", "urban-macro", "--side", "1000",
        "--from", "60", "--to", "200", "--step", "0.5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "l_db,f_closed"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    l, f = data[:, 0], data[:, 1]
    assert (np.diff(l) > 0).all()
    assert (f >= 0).all()
    # the range covers the bulk of the support: trapezoid mass near 1
    assert np.trapezoid(f, l) == pytest.approx(1.0, abs=1e-3)


def test_pdf_default_range_mass(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["pdf", "--preset", "urban-micro-los", "--side", "250", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-3)


def test_pdf_with_oracle_column(tmp_path):
    out = tmp_path / "d.csv"
    code = run([
        "pdf", "--preset", "urban-micro-los", "--side", "250",
        "--from", "85", "--to", "95", "--step", "1.0", "--with-oracle", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "l_db,f_closed,f_oracle"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(data[:, 1], data[:, 2], rtol=1e-6)


def test_pdf_gnuplot_script(tmp_path):
    out = tmp_path / "d.csv"
    code = run([
        "pdf", "--preset", "urban-macro", "--side", "1000",
        "--from", "120", "--to", "150", "--step", "1.0", "--gnuplot", "--out", str(out),
    ])
    assert code == 0
    script = tmp_path / "d.csv.gp"
    assert script.exists()
    assert "d.csv" in script.read_text(encoding="utf-8")


def test_pdf_bad_range(tmp_path, capsys):
    code = run([
        "pdf", "--preset", "urban-macro", "--side", "1000",
        "--from", "200", "--to", "100", "--out", str(tmp_path / "d.csv"),
    ])
    assert code == 2


def test_verify_end_to_end(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    argv = [
        "verify", "--preset", "suburban-macro", "--side", "1000",
        "--count", "10000", "--seed", "7", "--report", str(report_path),
    ]
    assert run(argv) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["pass"] is True
    assert report["preset"] == "suburban-macro"
    assert report["count"] == 10000
    assert report["seed"] == 7
    assert report["ks_statistic"] < report["ks_critical"]
    assert "PASS" in capsys.readouterr().out

    # identical invocation writes identical bytes
    report2 = tmp_path / "r2.json"
    run(argv[:-1] + [str(report2)])
    a = json.loads(report_path.read_text(encoding="utf-8"))
    b = json.loads(report2.read_text(encoding="utf-8"))
    assert a == b


def test_verify_exit_code_on_statistical_rejection(tmp_path):
    # seed 38 is one of the ~1% of seeds the 0.01-level KS test rejects;
    # the verification must then report failure through the exit code
    report_path = tmp_path / "r.json"
    code = run([
        "verify", "--preset", "urban-macro", "--side", "1000",
        "--count", "10000", "--seed", "38", "--report", str(report_path),
    ])
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["pass"] is False
    assert report["ks_statistic"] > report["ks_critical"]


def test_verify_gnuplot_outputs(tmp_path):
    report_path = tmp_path / "v.json"
    code = run([
        "verify", "--preset", "urban-micro-los", "--side", "250",
        "--count", "2000", "--seed", "1", "--report", str(report_path), "--gnuplot",
    ])
    assert code == 0
    assert (tmp_path / "v_samples.csv").exists()
    assert (tmp_path / "v_curve.csv").exists()
    assert (tmp_path / "v.gp").exists()


# SHA-256 of the files each command writes, recorded with Python 3.11.7,
# numpy 2.4.6 and scipy 1.17.1.  Outputs are byte-identical for the same
# arguments, so any change to these bytes is a change of behaviour.
GOLDEN = [
    (
        ["sample", "--side", "1000", "--count", "500", "--seed", "42", "--out", "sample.csv"],
        {"sample.csv": "3cc39ea192689055091ac6bc40331c0b7da5fca33fb62a3ce14db43010d486ad"},
    ),
    (
        ["pdf", "--preset", "urban-macro", "--side", "1000", "--from", "120", "--to", "150",
         "--step", "1", "--out", "pdf.csv"],
        {"pdf.csv": "96c45dbcc8726623e9f3f255ea55e0c917f99badda4d3c103837e6a557532b47"},
    ),
    (
        ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95",
         "--step", "1", "--with-oracle", "--out", "pdf.csv"],
        {"pdf.csv": "15408785df580527fce2d5301bdabd244a8d110725f82011cc50a19cbf3a03f8"},
    ),
    (
        ["verify", "--side", "1000", "--count", "2000", "--seed", "3", "--gnuplot",
         "--report", "report.json"],
        {
            "report.json": "705e5f095222cb95437b359a001a376296cb224a1252502b4d5ec1c147b1b80f",
            "report_samples.csv": "fd8884e624c126be75067675912a7bd1243b9e000628cb1ba0a132fd52d8d0cc",
            "report_curve.csv": "55bb36f2ba52ea0aabbb3cc02a42610d40104988d0b5026602f251d68b24e11c",
            "report.gp": "eb48bf548960d5ffe97254e4bccd04bbe300ea3375e83cfcca32fa174e2724b2",
        },
    ),
    (
        ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95",
         "--step", "1", "--with-oracle", "--gnuplot", "--out", "pdf.csv"],
        {
            "pdf.csv": "15408785df580527fce2d5301bdabd244a8d110725f82011cc50a19cbf3a03f8",
            "pdf.csv.gp": "4b67b43ee2a4b9526e007a5db9345de59a164e0baee816b7831d21b2d0cc79de",
        },
    ),
    (
        ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95",
         "--step", "1", "--gnuplot", "--out", "pdf.csv"],
        {
            "pdf.csv": "98cf72a8ce1fea281b4865928d9dfba5875f4a35b50d9c6a43ddd53ee7ad8302",
            "pdf.csv.gp": "69998c9d5125a26045846dd5724b331278e5a6687618e9bc67a846f6f145b33e",
        },
    ),
    (
        ["sample", "--shape", "triangle60", "--side", "1000", "--count", "500", "--seed", "7",
         "--out", "sample.csv"],
        {"sample.csv": "369e085c705b756df40cd19ce773e9cb0a5e5028a6a9a20b72e32adf38cbef48"},
    ),
    (
        ["verify", "--shape", "rhombus120", "--side", "1000", "--count", "2000", "--seed", "3",
         "--gnuplot", "--report", "report.json"],
        {
            "report.json": "8b484b2974451f020b9e7334053ad11562b6d76ee138d73126e2459df60acccd",
            "report_samples.csv": "25dd7062d2e18f82bafad5d5fdbc674450c71ff39b9d9936685644715f93049d",
            "report_curve.csv": "55bb36f2ba52ea0aabbb3cc02a42610d40104988d0b5026602f251d68b24e11c",
            "report.gp": "eb48bf548960d5ffe97254e4bccd04bbe300ea3375e83cfcca32fa174e2724b2",
        },
    ),
]


@pytest.mark.parametrize("argv, digests", GOLDEN, ids=[g[0][0] + str(i) for i, g in enumerate(GOLDEN)])
def test_golden_bytes(tmp_path, monkeypatch, argv, digests):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests


def test_cli_import_skips_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(hexdrop.__file__).resolve().parents[1]))
    code = "import sys, hexdrop.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


_GOOD_PRESET = {
    "name": "x", "alpha_prime_db": 34.5, "beta_db_per_decade": 35.0, "sigma_psi_db": 10.0,
    "r0_m": 35.0, "cell_radius_min_m": 600.0, "cell_radius_max_m": 3500.0, "model_label": "m",
}
BAD_PRESET_FILES = {
    "missing": None,
    "not-a-list": {"a": 1},
    "entry-not-object": [1],
    "missing-keys": [{"name": "x"}],
    "unknown-key": [dict(_GOOD_PRESET, extra=1)],
    "string-number": [dict(_GOOD_PRESET, alpha_prime_db="34.5")],
    "bool-number": [dict(_GOOD_PRESET, r0_m=True)],
    "nan-number": [dict(_GOOD_PRESET, alpha_prime_db=float("nan"))],
    "duplicate-name": [_GOOD_PRESET, dict(_GOOD_PRESET, beta_db_per_decade=30.0)],
}


@pytest.mark.parametrize("command", ["presets", "sample"])
@pytest.mark.parametrize("case", list(BAD_PRESET_FILES))
def test_bad_presets_file_is_usage_error(tmp_path, capsys, command, case):
    path = tmp_path / "presets.json"
    if BAD_PRESET_FILES[case] is not None:
        path.write_text(json.dumps(BAD_PRESET_FILES[case]), encoding="utf-8")
    argv = [command, "--presets-file", str(path)]
    if command == "sample":
        argv += ["--preset", "x", "--side", "1000", "--count", "10", "--out", str(tmp_path / "s.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_output_in_missing_directory_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run(["sample", "--side", "1000", "--count", "10", "--out", str(missing / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    argv = ["verify", "--side", "1000", "--count", "100", "--report", str(missing / "r.json")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, max_loss",
    [
        (["--preset", "urban-macro", "--side", "1000", "--from", "100", "--to", "6000", "--step", "100"],
         "139.5"),
        (["--side", "1e300", "--force-radius"], "10534.5"),
    ],
)
def test_pdf_prefactor_overflow_is_usage_error(tmp_path, capsys, argv, max_loss):
    assert run(["pdf", *argv, "--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: loss ") and f"maximum mean loss is {max_loss} dB" in err


def test_pdf_infinite_side_is_usage_error(tmp_path, capsys):
    assert run(["pdf", "--side", "inf", "--force-radius", "--out", str(tmp_path / "d.csv")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: side must be positive and finite, got inf"


def test_memory_error_is_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(hexdrop.cli, "run_drop", exhausted)
    assert run(["sample", "--side", "1000", "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_side_out_of_preset_range_is_not_an_unknown_preset():
    args = hexdrop.cli._build_parser().parse_args(["sample", "--side", "100", "--out", "s.csv"])
    with pytest.raises(ValueError, match="outside the urban-macro radius range") as exc:
        hexdrop.cli._resolve_model(args)
    assert not isinstance(exc.value, hexdrop.UnknownPresetError)


def test_traced_replay_reports_every_layer(tmp_path):
    """bench/tracing.py replays a CLI command with spans around the public
    functions it wraps; it exits 0 only when every per-layer metric of
    BENCHMARK.json is measured, which breaks if a wrapped name or call
    shape moves."""
    repo = Path(__file__).resolve().parents[1]
    spec = {
        "argv": [
            "pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95",
            "--step", "1", "--with-oracle", "--out", str(tmp_path / "pdf.csv"),
        ],
        "preset": "urban-micro-los",
        "side": 250.0,
        "seed": 1,
        "probe_dir": str(tmp_path),
        "out": str(tmp_path / "trace.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/tracing.py", str(spec_path)], cwd=repo, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    assert result["code"] == 0
    declared = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
