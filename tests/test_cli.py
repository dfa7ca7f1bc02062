import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

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
    assert trapezoid(f, l) == pytest.approx(1.0, abs=1e-3)


def test_pdf_default_range_mass(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["pdf", "--preset", "urban-micro-los", "--side", "250", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-3)


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


@pytest.mark.parametrize("shape", ["hexagon", "rhombus120", "triangle60"])
def test_verify_gnuplot_samples_match_the_sample_command(tmp_path, shape):
    # verify redraws the drop for its sample CSV from the same seed, so the
    # file is the one that sample writes for the same terminals
    common = ["--preset", "urban-micro-los", "--side", "250", "--shape", shape, "--count", "3000",
              "--seed", "9"]
    assert run(["verify", *common, "--report", str(tmp_path / "v.json"), "--gnuplot"]) == 0
    assert run(["sample", *common, "--out", str(tmp_path / "s.csv")]) == 0
    assert (tmp_path / "v_samples.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()


def test_verify_warns_below_five_terminals_per_bin(tmp_path, capsys):
    # 96 chi-square bins expect 5 terminals each from 480 on; below that a
    # warning goes to stderr, while stdout, the report and the exit code
    # stay what they were
    for count in (1, 479, 480):
        report_path = tmp_path / f"r{count}.json"
        argv = ["verify", "--side", "1000", "--count", str(count), "--seed", "3", "--report", str(report_path)]
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"urban-macro hexagon side=1000.0 n={count} seed=3: ks=")
        assert out.endswith("-> PASS\n") and out.count("\n") == 1
        warned = err.startswith(f"warning: n={count} expects under 5 terminals in each of 96 chi-square bins")
        assert warned == (count < 480) and err.count("\n") == (count < 480)
        assert json.loads(report_path.read_text(encoding="utf-8"))["count"] == count


# SHA-256 of the files each command writes, recorded with Python 3.11.7,
# numpy 2.4.6 and scipy 1.17.1.  Outputs are byte-identical for the same
# arguments, so any change to these bytes is a change of behaviour.
GOLDEN = [
    (
        ["sample", "--side", "1000", "--count", "500", "--seed", "42", "--out", "sample.csv"],
        {"sample.csv": "0c0bc23c0fab7ddbc5f5c3a81c52249221d1de1af842de4cef585ffb48fb71ac"},
    ),
    (
        ["pdf", "--preset", "urban-macro", "--side", "1000", "--from", "120", "--to", "150",
         "--step", "1", "--out", "pdf.csv"],
        {"pdf.csv": "d6f4c0996cc35fc03233f25bc98c43878856e5b466b0683bbaff1ae708572afa"},
    ),
    (
        ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95",
         "--step", "1", "--with-oracle", "--out", "pdf.csv"],
        {"pdf.csv": "98b3b18e5a29afff8058c36f1663007d6f98cebb211dc2827e875d2dd84ec967"},
    ),
    (
        ["verify", "--side", "1000", "--count", "2000", "--seed", "3", "--gnuplot",
         "--report", "report.json"],
        {
            "report.json": "d64acdf0ce01da5b8a5a3c93eaab7e61368f4ab1e6f32236c44d8f21d38c52e0",
            "report_samples.csv": "3a053c2f36f169b039d3fde2725d3dcbdd8bd6c66c8099b9fb35b90a13f6ec4f",
            "report_curve.csv": "611510d8cf803ff594cd371624a85f8fd826e6876d86b6181fc7e8ba833f5026",
            "report.gp": "eb48bf548960d5ffe97254e4bccd04bbe300ea3375e83cfcca32fa174e2724b2",
        },
    ),
    (
        ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95",
         "--step", "1", "--with-oracle", "--gnuplot", "--out", "pdf.csv"],
        {
            "pdf.csv": "98b3b18e5a29afff8058c36f1663007d6f98cebb211dc2827e875d2dd84ec967",
            "pdf.csv.gp": "4b67b43ee2a4b9526e007a5db9345de59a164e0baee816b7831d21b2d0cc79de",
        },
    ),
    (
        ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95",
         "--step", "1", "--gnuplot", "--out", "pdf.csv"],
        {
            "pdf.csv": "6fe1d7f7154b77d01770e15a5236dbb7c32ad614ec670379e35a3925f1c21112",
            "pdf.csv.gp": "69998c9d5125a26045846dd5724b331278e5a6687618e9bc67a846f6f145b33e",
        },
    ),
    (
        ["sample", "--shape", "triangle60", "--side", "1000", "--count", "500", "--seed", "7",
         "--out", "sample.csv"],
        {"sample.csv": "50ccdc1c3cd1005de45b4acf7ef2d9f51a03dcae62f95769a6907d7a27b1b7c3"},
    ),
    (
        ["verify", "--shape", "rhombus120", "--side", "1000", "--count", "2000", "--seed", "3",
         "--gnuplot", "--report", "report.json"],
        {
            "report.json": "229ff2e788b55359bb5f319d38d351f284994c8bc0c030f59ada559d651eb8b9",
            "report_samples.csv": "da3a2987d6cc4bffdb0eb33b0d02e7e1cc3c7225437eb1a07ac54d2ed05d9694",
            "report_curve.csv": "611510d8cf803ff594cd371624a85f8fd826e6876d86b6181fc7e8ba833f5026",
            "report.gp": "eb48bf548960d5ffe97254e4bccd04bbe300ea3375e83cfcca32fa174e2724b2",
        },
    ),
    (
        ["verify", "--shape", "triangle60", "--side", "1000", "--count", "2000", "--seed", "3",
         "--gnuplot", "--report", "report.json"],
        {
            "report.json": "205f4937ecf81dc1f1f2befb5c410876af757411c3c9d5ba4817f05cbd90b004",
            "report_samples.csv": "ec161a8a2a733dc8b105c4d3e5268bbbce92d49775485e7ac908e5b7664a8c68",
            "report_curve.csv": "611510d8cf803ff594cd371624a85f8fd826e6876d86b6181fc7e8ba833f5026",
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


NO_SCIPY_COMMANDS = [
    ["presets"],
    ["pdf", "--preset", "urban-micro-los", "--side", "250", "--step", "1", "--out", "pdf.csv"],
    ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95", "--step", "1",
     "--with-oracle", "--out", "oracle.csv"],
    ["sample", "--side", "1000", "--count", "500", "--out", "sample.csv"],
    ["verify", "--side", "1000", "--count", "2000", "--report", "report.json"],
    # 12 000 values, at least FAST_CSV_MIN_VALUES: the only command here that loads orjson
    ["sample", "--side", "1000", "--count", "2000", "--out", "sample.csv"],
]


def test_cli_runs_without_scipy(tmp_path):
    # in a fresh interpreter: neither the import nor any command loads scipy,
    # and only a CSV write of FAST_CSV_MIN_VALUES values or more loads orjson
    env = dict(os.environ, PYTHONPATH=str(Path(hexdrop.__file__).resolve().parents[1]))
    code = f"""
import sys
from hexdrop.cli import main
loaded = lambda: ("scipy" in sys.modules, "orjson" in sys.modules)
seen = [("import", *loaded())]
for argv in {NO_SCIPY_COMMANDS!r}:
    seen.append((argv[0], main(argv), *loaded()))
print(seen)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True,
                         check=True)
    orjson_after = [False] * (len(NO_SCIPY_COMMANDS) - 1) + [True]
    expected = [("import", False, False)] + [
        (argv[0], 0, False, orjson) for argv, orjson in zip(NO_SCIPY_COMMANDS, orjson_after)
    ]
    assert out.stdout.splitlines()[-1] == str(expected)


SCIPY_BLOCKED_COMMANDS = [
    ["presets"],
    ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95", "--step", "1",
     "--with-oracle", "--out", "oracle.csv"],
    ["sample", "--side", "1000", "--count", "2000", "--out", "sample.csv"],
    ["verify", "--side", "1000", "--count", "2000", "--report", "report.json", "--gnuplot"],
]


def test_series_and_cli_run_with_scipy_blocked(tmp_path):
    # in a fresh interpreter where importing scipy fails: the series closed
    # form at test_series_matches_quadrature_spec_point's parameters gives
    # this interpreter's value, and every command exits 0
    env = dict(os.environ, PYTHONPATH=str(Path(hexdrop.__file__).resolve().parents[1]))
    p = dict(scale=1.0, offset=0.5, slope=0.2, lo=-1.0, hi=2.0)
    code = f"""
import sys
sys.modules["scipy"] = None
from hexdrop import ArcsineGaussParams, arcsine_gauss_integral
from hexdrop.cli import main
print(repr(arcsine_gauss_integral(ArcsineGaussParams(**{p!r}), "series", tol=1e-13)))
print([main(argv) for argv in {SCIPY_BLOCKED_COMMANDS!r}])
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    series = hexdrop.arcsine_gauss_integral(hexdrop.ArcsineGaussParams(**p), "series", tol=1e-13)
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == (repr(series), str([0] * len(SCIPY_BLOCKED_COMMANDS)))


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
    "negative-r0": [dict(_GOOD_PRESET, r0_m=-1)],
    "negative-beta": [dict(_GOOD_PRESET, beta_db_per_decade=-3)],
    "radius-min-above-max": [dict(_GOOD_PRESET, cell_radius_min_m=5000, cell_radius_max_m=100)],
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


def test_sample_at_a_huge_side_writes_finite_radii(tmp_path):
    # x*x + y*y overflows at side 1e300; r is formed in units of a power of
    # two, so every row stays finite and r agrees with hypot
    out = tmp_path / "s.csv"
    assert run(["sample", "--side", "1e300", "--force-radius", "--count", "100", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (100, 6) and np.isfinite(rows).all()
    hypot = np.hypot(rows[:, 0], rows[:, 1])
    assert (np.abs(rows[:, 2] - hypot) <= 3e-16 * hypot).all()


@pytest.mark.parametrize("side", ["inf", "nan", "-5"])
def test_sample_invalid_side_is_usage_error(tmp_path, capsys, side):
    assert run(["sample", "--side", side, "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: side must be positive and finite, got {float(side)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--count", "5", "--out"],
        ["pdf", "--out"],
        ["verify", "--count", "100", "--report"],
    ],
)
def test_side_whose_height_overflows_is_usage_error(tmp_path, capsys, argv):
    # sqrt(3) * side overflows above sys.float_info.max / sqrt(3), about 1.0379e308
    out = tmp_path / "out"
    assert run([*argv, str(out), "--side", "1.04e308", "--force-radius"]) == 2
    assert capsys.readouterr().err == "error: side 1.04e+308 is too large: sqrt(3) * side overflows\n"
    assert not out.exists()


def _preset_file(tmp_path, **fields):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([dict(_GOOD_PRESET, **fields)]), encoding="utf-8")
    return ["--presets-file", str(path), "--preset", "x"]


def test_pdf_tiny_beta_is_usage_error(tmp_path, capsys):
    argv = ["pdf", *_preset_file(tmp_path, beta_db_per_decade=1e-300), "--side", "1000", "--step", "1"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: loss ") and "beta 1e-300 dB/decade" in err
    assert "(ZeroDivisionError)" in err and "maximum mean loss is 34.5 dB" in err


def test_verify_huge_sigma_is_usage_error(tmp_path, capsys):
    argv = ["verify", *_preset_file(tmp_path, sigma_psi_db=1e200), "--side", "1000", "--count", "100"]
    assert run(argv + ["--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: loss ") and "sigma 1e+200 dB" in err
    assert "(OverflowError)" in err and "maximum mean loss is 139.5 dB" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--from", "100", "--to", "inf", "--step", "1"],
         "need a finite loss range --from < --to, got [100.0, inf] dB"),
        (["--step", "inf"], "need a finite --step > 0, got inf"),
        (["--from", "100", "--to", "1e300", "--step", "1"],
         "the grid --from 100.0 --to 1e+300 --step 1.0 dB has 1e+300 points, more than an array can hold"),
        (["--from", "100", "--to", "200", "--step", "1e-300"],
         "the grid --from 100.0 --to 200.0 --step 1e-300 dB has 1e+302 points, more than an array can hold"),
    ],
    ids=["infinite-to", "infinite-step", "too-wide", "too-fine"],
)
def test_pdf_nonfinite_grid_is_usage_error(tmp_path, capsys, argv, message):
    assert run(["pdf", "--side", "1000", *argv, "--out", str(tmp_path / "d.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pdf_collapsed_default_range_names_the_range(tmp_path, capsys):
    argv = ["pdf", *_preset_file(tmp_path, alpha_prime_db=1e308), "--side", "1000"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: need a finite loss range --from < --to, got [1e+308, 1e+308] dB\n"


def test_sample_negative_seed_is_usage_error(tmp_path, capsys):
    assert run(["sample", "--side", "1000", "--seed", "-1", "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


def test_memory_error_is_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(hexdrop.cli, "run_drop", exhausted)
    assert run(["sample", "--side", "1000", "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_verify_memory_error_is_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(hexdrop.verify, "sample_points", exhausted)
    assert run(["verify", "--side", "1000", "--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert not (tmp_path / "r.json").exists()


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


@pytest.mark.parametrize("sigma, code", [(1e-15, 0), (1e-155, 0), (1e-320, 2)])
def test_oracle_at_a_vanishing_sigma(tmp_path, capsys, sigma, code):
    # at 1e-15 dB the oracle's Gaussian is a spike that the landmark tau = 0
    # pins down, and at 1e-155 dB (tau/sigma)^2 overflows to inf and the
    # Gaussian to 0 without a RuntimeWarning, which pytest would raise: both
    # give the shadow-free density; at a subnormal 1e-320 dB the Gaussian's
    # peak overflows, and the oracle says so before it integrates
    path = tmp_path / "presets.json"
    path.write_text(json.dumps([dict(_GOOD_PRESET, sigma_psi_db=sigma)]), encoding="utf-8")
    argv = ["pdf", "--preset", "x", "--presets-file", str(path), "--side", "1000",
            "--from", "130", "--to", "139", "--step", "1", "--with-oracle", "--out", str(tmp_path / "d.csv")]
    assert run(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: shadowing deviation 1e-320 dB is too small for the convolution oracle: "
                       "the Gaussian's peak 1/(sqrt(2 pi) sigma) overflows\n")
        return
    assert err == ""
    l, _, oracle = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1).T
    model = hexdrop.load_preset("x", tmp_path / "presets.json").density_model(1000.0)
    assert np.abs(oracle / hexdrop.pathloss_pdf(model, l) - 1.0).max() <= 1e-15


def test_oracle_non_convergence_is_usage_error(tmp_path, capsys, monkeypatch):
    def unresolved(*args):
        raise hexdrop.NonConvergenceError("Gauss-Kronrod did not reach its tolerance on [0.0, 1.0]")

    monkeypatch.setattr(hexdrop.cli, "shadowed_pdf_conv_grid", unresolved)
    argv = ["pdf", "--preset", "urban-micro-los", "--side", "250", "--from", "85", "--to", "95",
            "--with-oracle", "--out", str(tmp_path / "d.csv")]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: Gauss-Kronrod did not reach its tolerance on [0.0, 1.0]\n"
