import json

import numpy as np
import pytest

from slmcoint import EmpiricalSeries, ingest_ckc_csv, ckc_analysis
from slmcoint.cli import main as cli_main


def _write_ckc(path, n=59, noise=1e-3, quadratic=True, seed=0):
    """Synthetic country file: log(gdp) a slow random walk with drift,
    log(co2) an exact polynomial in log(gdp) plus tiny noise."""
    rng = np.random.default_rng(seed)
    years = np.arange(1950, 1950 + n)
    lg = 9.0 + 0.02 * np.arange(n) + 0.01 * np.cumsum(rng.standard_normal(n))
    if quadratic:
        lz = -40.0 + 9.0 * lg - 0.47 * lg ** 2 + noise * rng.standard_normal(n)
    else:
        lz = -3.0 + 0.45 * lg + noise * rng.standard_normal(n)
    with open(path, "w", newline="\n") as fh:
        fh.write("year,gdp,co2\n")
        for i in range(n):
            fh.write(f"{years[i]},{float(np.exp(lg[i]))!r},{float(np.exp(lz[i]))!r}\n")
    return path


# ------------------------------------------------------------------ ingest

def test_ingest_counts_rows(tmp_path):
    path = _write_ckc(tmp_path / "c.csv")
    series = ingest_ckc_csv(path, country="Synthia")
    assert len(series) == 59
    assert series.country == "Synthia"


def test_ingest_rejects_nonpositive_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("year,gdp,co2\n1950,100.0,1.0\n1951,0.0,1.1\n")
    with pytest.raises(ValueError, match="row 2"):
        ingest_ckc_csv(path)


def test_ingest_rejects_year_gap(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("year,gdp,co2\n1950,100.0,1.0\n1952,101.0,1.1\n")
    with pytest.raises(ValueError, match="year"):
        ingest_ckc_csv(path)


def test_ingest_rejects_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("year,gdp\n1950,100.0\n")
    with pytest.raises(ValueError, match="co2"):
        ingest_ckc_csv(path)


def test_ingest_export_roundtrip(tmp_path):
    path = _write_ckc(tmp_path / "c.csv")
    series = ingest_ckc_csv(path)
    out = tmp_path / "copy.csv"
    series.to_csv(out)
    again = ingest_ckc_csv(out)
    assert np.array_equal(series.years, again.years)
    assert np.array_equal(series.gdp, again.gdp)
    assert np.array_equal(series.co2, again.co2)


# ---------------------------------------------------------------- analysis

@pytest.fixture(scope="module")
def quadratic_report(tmp_path_factory):
    path = _write_ckc(tmp_path_factory.mktemp("ckc") / "q.csv", noise=1e-3)
    series = ingest_ckc_csv(path, country="Synthia")
    return ckc_analysis(series, quad_cells=1024)


def test_ckc_report_structure(quadratic_report):
    rep = quadratic_report
    assert set(rep["fits"]) == {"log_gdp", "log_co2"}
    assert rep["fits"]["log_gdp"]["arfima"]["lambda_hat"] == 0.0
    # 2 hypotheses x 2 bandwidth rules x 3 block rules
    assert len(rep["p_values"]) == 12
    for row in rep["p_values"]:
        assert 0.0 < row["p_value"] <= 1.0


def test_ckc_quadratic_data_prefers_quadratic(tmp_path):
    # on data generated exactly under the quadratic link, the misspecified
    # linear statistic dwarfs the quadratic one in every cell; the p-value
    # ordering is weak (never reversed, strict where the subsample
    # distribution has room above the full statistic)
    path = _write_ckc(tmp_path / "q200.csv", n=200, noise=0.02)
    rows = ckc_analysis(ingest_ckc_csv(path), quad_cells=1024)["p_values"]
    strict = 0
    for he in (-0.5, -1.0):
        for coef in (2.0, 4.0, 6.0):
            lin = next(r for r in rows if r["hypothesis"] == "linear"
                       and r["bandwidth_exponent"] == he and r["block_coef"] == coef)
            qua = next(r for r in rows if r["hypothesis"] == "quadratic"
                       and r["bandwidth_exponent"] == he and r["block_coef"] == coef)
            assert lin["t_normalized"] > 10 * qua["t_normalized"]
            assert qua["p_value"] >= lin["p_value"]
            strict += qua["p_value"] > lin["p_value"]
    assert strict >= 1


# --------------------------------------------------------------------- CLI

def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--n", "50", "--d", "0.2", "--lam", "0.3",
            "--memory", "slm", "--seed", "9"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["arguments"]["seed"] == 9


def test_cli_simulate_rejects_nan_rho(tmp_path, capsys):
    assert cli_main(["simulate", "--n", "50", "--rho", "nan",
                     "--out", str(tmp_path / "sim")]) == 2
    assert "noise parameter rho must be finite" in capsys.readouterr().err
    assert not (tmp_path / "sim" / "path.csv").exists()


def test_cli_estimate_and_spec_test(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--n", "150", "--memory", "short",
                     "--seed", "3", "--out", str(sim)]) == 0
    est = tmp_path / "est"
    assert cli_main(["estimate", "--data", str(sim / "path.csv"),
                     "--bandwidth-rule", "n^-1/3", "--out", str(est)]) == 0
    lines = (est / "estimate.csv").read_text().splitlines()
    assert lines[0] == "x,fhat,sigma2hat,local_mass,ci_lo,ci_hi"
    assert len(lines) == 101
    st = tmp_path / "st"
    assert cli_main(["spec-test", "--data", str(sim / "path.csv"),
                     "--family", "linear", "--memory", "short",
                     "--block-rule", "2", "--quad-cells", "512",
                     "--out", str(st)]) == 0
    payload = json.loads((st / "spec_test.json").read_text())
    assert 0.0 < payload["p_value"] <= 1.0


def test_cli_estimate_rejects_empty_cell(tmp_path, capsys):
    data = tmp_path / "gap.csv"
    data.write_text("x,y\n0.0,1.0\n0.5,\n1.0,2.0\n1.5,2.5\n")
    assert cli_main(["estimate", "--data", str(data), "--bandwidth", "0.8",
                     "--out", str(tmp_path / "est")]) == 2
    err = capsys.readouterr().err
    assert "1 NaN or inf value(s) in summed columns" in err
    assert "fitted values must be defined" not in err


def test_cli_estimate_rejects_zero_bandwidth(tmp_path, capsys):
    # an explicit 0 is a value, not "use the rule"
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n0.0,1.0\n0.5,1.5\n1.0,2.0\n1.5,2.5\n")
    assert cli_main(["estimate", "--data", str(data), "--bandwidth", "0",
                     "--out", str(tmp_path / "est")]) == 2
    assert "bandwidth h must be finite and > 0, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1.5", "0", "-0.2", "nan"])
def test_cli_estimate_rejects_alpha_outside_unit_interval(tmp_path, capsys, alpha):
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n0.0,1.0\n0.5,1.5\n1.0,2.0\n1.5,2.5\n")
    assert cli_main(["estimate", "--data", str(data), "--bandwidth", "0.8",
                     "--alpha", alpha, "--out", str(tmp_path / "est")]) == 2
    assert "alpha must be in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "est" / "estimate.csv").exists()


@pytest.mark.parametrize("column, flags, message", [
    ("x", [], "non-finite input: 1 NaN or inf value(s) in x"),
    ("y", [], "non-finite input: 1 NaN or inf value(s) in y"),
    (None, ["--bandwidth", "nan"], "bandwidth h must be finite and > 0, got nan"),
    (None, ["--bandwidth", "0"], "bandwidth h must be finite and > 0, got 0.0"),
    (None, ["--block-size", "0"], "block size must satisfy 2 <= b <= n, got 0"),
    (None, ["--block-size", "1"], "block size must satisfy 2 <= b <= n, got 1"),
    (None, ["--block-rule", "0.1"], "block size must satisfy 2 <= b <= n, got 1"),
    (None, ["--lam", "0"], "semi-long memory requires lam > 0, got 0.0"),
], ids=["x", "y", "bandwidth-nan", "bandwidth-0", "block-size-0", "block-size-1",
        "block-rule-0.1", "lam-0"])
def test_cli_spec_test_rejects_empty_cell(tmp_path, capfd, column, flags, message):
    # capfd, not capsys: LAPACK writes its complaints to the process's stderr
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.standard_normal(100))
    y = x + 0.2 * rng.standard_normal(100)
    cells = [[repr(float(a)), repr(float(b))] for a, b in zip(x, y)]
    if column is not None:
        cells[40][0 if column == "x" else 1] = ""
    data = tmp_path / "gap.csv"
    data.write_text("x,y\n" + "".join(",".join(row) + "\n" for row in cells))
    assert cli_main(["spec-test", "--data", str(data), "--memory", "slm",
                     "--d", "0.1", "--quad-cells", "256", *flags,
                     "--out", str(tmp_path / "st")]) == 2
    out, err = capfd.readouterr()
    assert message in err
    assert "DLASCL" not in out + err and "p_value" not in out


def _cli_block_values(tmp_path, flags):
    rng = np.random.default_rng(6)
    x = np.cumsum(rng.standard_normal(200))
    y = x + 0.2 * rng.standard_normal(200)
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                      for a, b in zip(x, y)))
    out = tmp_path / "st"
    assert cli_main(["spec-test", "--data", str(data), "--memory", "slm",
                     "--d", "0.1", "--block-size", "28", "--quad-cells", "256",
                     *flags, "--out", str(out)]) == 0
    return json.loads((out / "spec_test.json").read_text())


@pytest.mark.parametrize("flags, key, full, block", [
    (["--bandwidth", "2.0"], "h", 2.0, 2.0),
    (["--bandwidth-rule", "n^-1/5"], "h", 200 ** -0.2, 28 ** -0.2),
    (["--lam", "2.0"], "lam", 2.0, 2.0),
    (["--lambda-rule", "n^-1/5"], "lam", 200 ** -0.2, 28 ** -0.2),
], ids=["bandwidth", "bandwidth-rule", "lam", "lambda-rule"])
def test_cli_spec_test_block_values(tmp_path, flags, key, full, block):
    # a rule n^a maps to b^a at block scale; an explicit value is held fixed
    payload = _cli_block_values(tmp_path, flags)
    assert payload["block_size"] == 28
    assert payload[key] == full
    assert payload[key + "_b"] == block


def test_cli_fit_artfima(tmp_path):
    rng = np.random.default_rng(4)
    data = tmp_path / "series.csv"
    z = np.cumsum(rng.standard_normal(300))
    with open(data, "w") as fh:
        fh.write("value\n")
        for v in z:
            fh.write(f"{float(v)!r}\n")
    out = tmp_path / "fit"
    assert cli_main(["fit-artfima", "--data", str(data), "--model", "arfima",
                     "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["model"] == "arfima00"


def test_cli_mc_runs_config(tmp_path):
    cfg = {
        "study_kind": "estimation", "n": 100, "replications": 4,
        "chunk_size": 2, "d_values": [0.1], "memory_settings": ["SLM3"],
        "bandwidth_exponents": ["n^-1/3"], "master_seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "mc"
    assert cli_main(["mc", "--config", str(cfg_path), "--out", str(out),
                     "--threads", "1"]) == 0
    assert (out / "bias.csv").exists()
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("change, message", [
    ({"replicatons": 4}, "unknown study config field(s): replicatons"),
    ({"variance_mode": "centered", "min_window_count": 2},
     "unknown study config field(s): min_window_count, variance_mode"),
    ({"memory_settings": ["SLM9"]}, "['SLM1', 'SLM2', 'SLM3', 'SLM4']"),
    ({"memory_settings": [{"rule": "SLM9"}]},
     "unknown SLM rule 'SLM9'; choose from ['SLM1', 'SLM2', 'SLM3', 'SLM4']"),
])
def test_cli_mc_rejects_bad_config(tmp_path, capsys, change, message):
    cfg = {
        "study_kind": "estimation", "n": 100, "replications": 4,
        "d_values": [0.1], "memory_settings": ["SLM3"],
        "bandwidth_exponents": ["n^-1/3"], **change,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["mc", "--config", str(cfg_path),
                     "--out", str(tmp_path / "mc")]) == 2
    assert message in capsys.readouterr().err


def test_cli_ckc_end_to_end(tmp_path, capsys):
    data = _write_ckc(tmp_path / "c.csv")
    out = tmp_path / "ckc"
    assert cli_main(["ckc", "--data", str(data), "--country", "Synthia",
                     "--quad-cells", "512", "--out", str(out)]) == 0
    report = json.loads((out / "ckc_report.json").read_text())
    assert report["country"] == "Synthia"
    assert capsys.readouterr().out.count("quadratic") == 6


def test_cli_validation_exit_codes(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,gdp,co2\n1950,1.0,0.0\n")
    assert cli_main(["ckc", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nope.csv"
    assert cli_main(["estimate", "--data", str(missing),
                     "--out", str(tmp_path / "o2")]) == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    # a long constant-x stretch makes most block fits singular, which the
    # subsampler reports as a numerical failure (exit 3)
    rng = np.random.default_rng(12)
    x = np.cumsum(rng.standard_normal(100))
    x[20:80] = x[19] + 1.0
    y = x + 0.1 * rng.standard_normal(100)
    data = tmp_path / "flat.csv"
    with open(data, "w") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(x, y):
            fh.write(f"{float(xv)!r},{float(yv)!r}\n")
    code = cli_main(["spec-test", "--data", str(data), "--family", "linear",
                     "--memory", "short", "--block-size", "10",
                     "--quad-cells", "256", "--out", str(tmp_path / "o3")])
    assert code == 3


def test_cli_unknown_flag_hard_error():
    with pytest.raises(SystemExit) as err:
        cli_main(["simulate", "--n", "10", "--out", "/tmp/x", "--bogus"])
    assert err.value.code == 2


def test_cli_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as err:
        cli_main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("simulate", "estimate", "spec-test", "fit-artfima", "mc", "ckc"):
        assert cmd in out
