import hashlib
import json

import numpy as np
import pytest

from slmcoint import EmpiricalSeries, ingest_ckc_csv, ckc_analysis, cli, spec_test
from slmcoint.cli import main as cli_main
from slmcoint.mc import _fmt, read_csv, write_csv
from slmcoint.whittle import fit_artfima00


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
    out = write_csv(tmp_path / "copy.csv", ("year", "gdp", "co2"),
                    ([_fmt(v) for v in row]
                     for row in zip(series.years, series.gdp, series.co2)))
    again = ingest_ckc_csv(out)
    assert np.array_equal(series.years, again.years)
    assert np.array_equal(series.gdp, again.gdp)
    assert np.array_equal(series.co2, again.co2)


def test_ingest_rejects_fractional_year(tmp_path):
    path = tmp_path / "year.csv"
    path.write_text("year,gdp,co2\n1950,100.0,1.0\n1950.5,101.0,1.1\n")
    with pytest.raises(ValueError, match=r"row 2: year 1950.5 is not a whole number"):
        ingest_ckc_csv(path)


# ------------------------------------------------------------------ reader

def test_read_csv_matches_genfromtxt(tmp_path):
    # names are stripped, extra columns are not read, an empty cell is NaN
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-5, 5, (40, 3))
    cells = [[repr(float(v)) for v in row] for row in rows]
    cells[7][1] = ""
    cells[9][0] = f"{rows[9, 0]:.6e}"
    path = tmp_path / "xy.csv"
    path.write_text(" x , y ,k\n" + "".join(",".join(r) + "\n" for r in cells))
    want = np.genfromtxt(path, delimiter=",", names=True)
    got = read_csv(path, ("y", "x"))
    assert list(got) == ["y", "x"]
    for name in ("x", "y"):
        assert np.array_equal(got[name], want[name], equal_nan=True)
    assert np.isnan(got["y"][7])
    assert list(read_csv(path)) == ["x", "y", "k"]


def test_read_csv_single_row_is_one_dimensional(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("x,y\n0.5,1.5\n")
    got = read_csv(path, ("x", "y"))
    assert got["x"].shape == (1,) and got["y"].tolist() == [1.5]


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("x,y\n", "no data rows"),
    ("x\n0.5\n", "missing column(s) ['y']"),
    ("0.5,1.0\n0.6,1.1\n", "the first row 0.5,1.0 is data"),
    ("x,y\n0.5,1.0\n0.6,abc\n",
     "row 2: could not convert string to float: 'abc' in column 'y'"),
    ("x,y\n0.5,1.0\n0.6\n", "row 2: no cell in column 'y'"),
], ids=["empty", "header-only", "missing-column", "headerless", "non-numeric",
        "short-row"])
def test_read_csv_rejects_bad_file(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_csv(path, ("x", "y"))
    assert str(err.value).startswith(f"{path}: {message}")


# ---------------------------------------------------------------- analysis

@pytest.fixture(scope="module")
def quadratic_report(tmp_path_factory):
    path = _write_ckc(tmp_path_factory.mktemp("ckc") / "q.csv", noise=1e-3)
    series = ingest_ckc_csv(path, country="Synthia")
    return ckc_analysis(series)


def test_ckc_report_structure(quadratic_report):
    rep = quadratic_report
    assert set(rep["fits"]) == {"log_gdp", "log_co2"}
    assert rep["fits"]["log_gdp"]["arfima"]["lambda_hat"] == 0.0
    # 2 hypotheses x 2 bandwidth rules x 3 block rules
    assert len(rep["p_values"]) == 12
    for row in rep["p_values"]:
        assert 0.0 < row["p_value"] <= 1.0


def test_ckc_computes_each_statistic_once(tmp_path, monkeypatch):
    # one fit and one full-sample statistic per (hypothesis, bandwidth),
    # calibrated against all three block rules
    calls = []
    t_statistic = spec_test.t_statistic

    def counted(*args, **kwargs):
        calls.append(args[4])  # the bandwidth h
        return t_statistic(*args, **kwargs)

    monkeypatch.setattr(spec_test, "t_statistic", counted)
    report = ckc_analysis(ingest_ckc_csv(_write_ckc(tmp_path / "c.csv")))
    assert calls == [59.0 ** -0.5, 59.0 ** -1.0] * 2
    assert len(report["p_values"]) == 12


def test_ckc_quadratic_data_prefers_quadratic(tmp_path):
    # on data generated exactly under the quadratic link, the misspecified
    # linear statistic dwarfs the quadratic one in every cell; the p-value
    # ordering is weak (never reversed, strict where the subsample
    # distribution has room above the full statistic)
    path = _write_ckc(tmp_path / "q200.csv", n=200, noise=0.02)
    rows = ckc_analysis(ingest_ckc_csv(path))["p_values"]
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
    args = ["simulate", "--n", "50", "--d", "0.2", "--lam", "0.3", "--seed", "9"]
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
    assert cli_main(["simulate", "--n", "150", "--seed", "3", "--out", str(sim)]) == 0
    assert "memory_kind" not in json.loads((sim / "run.json").read_text())["spec"]
    est = tmp_path / "est"
    assert cli_main(["estimate", "--data", str(sim / "path.csv"),
                     "--bandwidth", "n^-1/3", "--out", str(est)]) == 0
    lines = (est / "estimate.csv").read_text().splitlines()
    assert lines[0] == "x,fhat,sigma2hat,local_mass,ci_lo,ci_hi"
    assert len(lines) == 101
    st = tmp_path / "st"
    # --lam 0 is long memory, which takes 0 <= d < 1/2
    assert cli_main(["spec-test", "--data", str(sim / "path.csv"),
                     "--family", "linear", "--lam", "0", "--d", "0.2",
                     "--block-rule", "2", "--out", str(st)]) == 0
    payload = json.loads((st / "spec_test.json").read_text())
    assert 0.0 < payload["p_value"] <= 1.0
    assert payload["lam"] == payload["lam_b"] == 0.0 and "memory_kind" not in payload


@pytest.mark.parametrize("support", ["1,2,3", "abc", "1", "5,-5", "2,2"])
def test_cli_spec_test_rejects_bad_weight_support(tmp_path, capsys, support):
    # the option's own error, not one that blames the data file
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n" + "".join(f"{0.1 * i!r},{0.2 * i!r}\n" for i in range(50)))
    with pytest.raises(SystemExit) as err:
        cli_main(["spec-test", "--data", str(data), "--weight-support", support,
                  "--out", str(tmp_path / "st")])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert (f"argument --weight-support: expected two numbers a,b with a < b, "
            f"got {support!r}") in message
    assert str(data) not in message
    assert not (tmp_path / "st").exists()


def test_cli_spec_test_weight_support_forms_agree(tmp_path, capsys):
    # a separate value that starts with '-' is the value of the option, as
    # it is after '='; the help text names both forms
    data = tmp_path / "xy.csv"
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.standard_normal(100))
    y = 1.0 + x + 0.3 * rng.standard_normal(100)
    data.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n"
                                      for a, b in zip(x.tolist(), y.tolist())))
    outputs = []
    for form in (["--weight-support", "-50,50"], ["--weight-support=-50,50"]):
        out = tmp_path / f"st{len(outputs)}"
        assert cli_main(["spec-test", "--data", str(data), *form, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["arguments"]["weight_support"] == [-50.0, 50.0]
        outputs.append(((out / "spec_test.json").read_text(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    with pytest.raises(SystemExit) as err:
        cli_main(["spec-test", "--help"])
    assert err.value.code == 0
    assert "--weight-support=a,b" in " ".join(capsys.readouterr().out.split())


def test_cli_estimate_rejects_empty_cell(tmp_path, capsys):
    data = tmp_path / "gap.csv"
    data.write_text("x,y\n0.0,1.0\n0.5,\n1.0,2.0\n1.5,2.5\n")
    assert cli_main(["estimate", "--data", str(data), "--bandwidth", "0.8",
                     "--out", str(tmp_path / "est")]) == 2
    err = capsys.readouterr().err
    assert "1 NaN or inf value(s) in summed columns" in err
    assert "fitted values must be defined" not in err


def test_cli_internal_key_error_is_not_a_validation_error(tmp_path, monkeypatch, capsys):
    # exit 2 means bad input; a KeyError inside a command is a bug and propagates
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n0.0,1.0\n0.5,1.5\n1.0,2.0\n1.5,2.5\n")

    def broken(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(cli, "kernel_estimate", broken)
    with pytest.raises(KeyError):
        cli_main(["estimate", "--data", str(data), "--bandwidth", "0.8",
                  "--out", str(tmp_path / "est")])
    # a missing column is bad input, whatever the command does with it
    data.write_text("x\n0.0\n0.5\n")
    assert cli_main(["estimate", "--data", str(data), "--bandwidth", "0.8",
                     "--out", str(tmp_path / "est")]) == 2
    assert f"error: {data}: missing column(s) ['y']" in capsys.readouterr().err


def test_cli_estimate_rejects_zero_bandwidth(tmp_path, capsys):
    # an explicit 0 is a value, not "use the rule"
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n0.0,1.0\n0.5,1.5\n1.0,2.0\n1.5,2.5\n")
    assert cli_main(["estimate", "--data", str(data), "--bandwidth", "0",
                     "--out", str(tmp_path / "est")]) == 2
    assert "bandwidth h must be finite and > 0, got 0.0" in capsys.readouterr().err


def test_cli_estimate_rejects_a_response_whose_variance_overflows(tmp_path, capsys):
    # every cell is finite, but y * y is not: the error names y's range,
    # not a non-finite cell of the file
    x = np.linspace(0.0, 1.0, 20)
    data = tmp_path / "huge.csv"
    data.write_text("x,y\n" + "".join(f"{float(a)!r},{1e160 * float(np.sin(a))!r}\n"
                                      for a in x))
    assert cli_main(["estimate", "--data", str(data), "--bandwidth", "0.3",
                     "--out", str(tmp_path / "est")]) == 2
    err = capsys.readouterr().err
    assert (f"error: {data}: the variance of y is out of float range "
            "(max |y| = 8.41e+159); rescale y") in err
    assert "non-finite" not in err
    assert not (tmp_path / "est").exists()


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
    (None, ["--block-size", "0"], "block size must satisfy 2 <= b < n, got b = 0, n = 100"),
    (None, ["--block-size", "1"], "block size must satisfy 2 <= b < n, got b = 1, n = 100"),
    (None, ["--block-rule", "0.1"], "block size must satisfy 2 <= b < n, got b = 1, n = 100"),
    (None, ["--lam", "-0.1"], "tempering parameter lam must be >= 0, got -0.1"),
    # the simulator's memory rule: --lam 0 is long memory
    (None, ["--lam", "0", "--d", "0.7"], "long memory requires 0 <= d < 1/2, got 0.7"),
    (None, ["--lam", "0", "--d", "-0.2"], "long memory requires 0 <= d < 1/2, got -0.2"),
], ids=["x", "y", "bandwidth-nan", "bandwidth-0", "block-size-0", "block-size-1",
        "block-rule-0.1", "lam-negative", "lm-d-0.7", "lm-d-neg"])
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
    assert cli_main(["spec-test", "--data", str(data), "--d", "0.1", *flags,
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
    assert cli_main(["spec-test", "--data", str(data), "--d", "0.1", "--block-size", "28",
                     *flags, "--out", str(out)]) == 0
    return json.loads((out / "spec_test.json").read_text())


@pytest.mark.parametrize("flags, key, full, block", [
    (["--bandwidth", "2.0"], "h", 2.0, 2.0),
    (["--bandwidth", "n^-1/5"], "h", 200 ** -0.2, 28 ** -0.2),
    (["--lam", "2.0"], "lam", 2.0, 2.0),
    (["--lam", "n^-1/5"], "lam", 200 ** -0.2, 28 ** -0.2),
], ids=["bandwidth", "bandwidth-rule", "lam", "lambda-rule"])
def test_cli_spec_test_block_values(tmp_path, flags, key, full, block):
    # a rule n^a maps to b^a at block scale; an explicit value is held fixed
    payload = _cli_block_values(tmp_path, flags)
    assert payload["block_size"] == 28
    assert payload[key] == full
    assert payload[key + "_b"] == block


def test_cli_spec_test_manifest_records_tuning_as_given(tmp_path):
    # a number is recorded as a number and a rule as its text; the default
    # tuning of spec-test is h = lam = n^-1/5
    _cli_block_values(tmp_path, ["--bandwidth", "0.5"])
    arguments = json.loads((tmp_path / "st" / "manifest.json").read_text())["arguments"]
    assert arguments["bandwidth"] == 0.5 and arguments["lam"] == "n^-1/5"
    assert arguments["block_size"] == 28 and arguments["block_coef"] == 1.0
    assert not [name for name in arguments if name.endswith("_rule")]
    assert "block_exponent" not in arguments


@pytest.mark.parametrize("command, flags, message", [
    ("estimate", ["--bandwidth-rule", "n^-1/3"], "unrecognized arguments: --bandwidth-rule"),
    ("spec-test", ["--bandwidth-rule", "n^-1/5"], "unrecognized arguments: --bandwidth-rule"),
    ("spec-test", ["--lambda-rule", "n^-1/5"], "unrecognized arguments: --lambda-rule"),
    ("spec-test", ["--block-exponent", "0.5"], "unrecognized arguments: --block-exponent"),
    ("spec-test", ["--block-size", "20", "--block-rule", "3"],
     "argument --block-rule: not allowed with argument --block-size"),
], ids=["estimate-bandwidth-rule", "bandwidth-rule", "lambda-rule", "block-exponent",
        "block-size-and-rule"])
def test_cli_refuses_a_second_spelling(tmp_path, capsys, command, flags, message):
    # --bandwidth and --lam take a rule themselves, blocks are [c sqrt(n)],
    # and a block size is given one way
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n" + "".join(f"{i},{i % 3}\n" for i in range(40)))
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--data", str(data), *flags, "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_cli_fit_artfima_reads_every_value(tmp_path):
    # the one value column beside an optional year, all 300 values of it
    z = np.cumsum(np.random.default_rng(4).standard_normal(300))
    data = tmp_path / "series.csv"
    data.write_text("year, gdp\n" + "".join(f"{1700 + i},{float(v)!r}\n"
                                             for i, v in enumerate(z)))
    out = tmp_path / "fit"
    assert cli_main(["fit-artfima", "--data", str(data), "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["d_hat"] == fit_artfima00(z).d_hat


@pytest.mark.parametrize("scale", [1e200, 1e-160])
def test_cli_fit_artfima_rejects_out_of_range_scale(tmp_path, capsys, scale):
    z = scale * np.cumsum(np.random.default_rng(4).standard_normal(300))
    data = tmp_path / "series.csv"
    data.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in z))
    out = tmp_path / "fit"
    assert cli_main(["fit-artfima", "--data", str(data), "--out", str(out)]) == 2
    assert "out of float range" in capsys.readouterr().err
    assert not out.exists()


def test_cli_fit_artfima_rejects_series_without_fourier_power(tmp_path, capsys):
    data = tmp_path / "series.csv"
    data.write_text("value\n" + "1.0\n-1.0\n" * 32)
    out = tmp_path / "fit"
    assert cli_main(["fit-artfima", "--data", str(data), "--out", str(out)]) == 2
    assert "no power at any Fourier frequency" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    ("estimate", "x,y\n", "no data rows"),
    ("estimate", "x,y\n0.5,1.0\n",
     "a variance needs at least 2 observations, got 1"),
    ("spec-test", "x,y\n0.5,1.0\n", "block size must satisfy 2 <= b < n, got b = 1, n = 1"),
    ("fit-artfima", "value\n0.5\n", "need at least 32 observations"),
    ("fit-artfima", "".join(f"{float(v)!r}\n" for v in np.linspace(0.0, 1.0, 300) ** 2),
     "the first row 0.0 is data"),
    ("estimate", "x,y\n0.0,1.0\n0.5,abc\n1.0,2.0\n",
     "row 2: could not convert string to float: 'abc'"),
    ("ckc", "year,gdp,co2\n1950,1.0,1.0\n1951,1.1,-1.0\n",
     "row 2: non-positive co2 value"),
], ids=["header-only", "one-row-estimate", "one-row-spec-test", "one-row-fit-artfima",
        "headerless-column", "non-numeric-cell", "ckc-value"])
def test_cli_bad_file_names_it(tmp_path, capsys, command, text, message):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    out = tmp_path / "out"
    assert cli_main([command, "--data", str(data), "--out", str(out)]) == 2
    assert f"error: {data}: {message}" in capsys.readouterr().err
    assert not out.exists()


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


def _command_argv(command, tmp_path, good):
    """Arguments of ``command`` on a file of its own (none for simulate),
    and that file.  Unless ``good``, simulate and mc get a bad value and
    the other commands a file without the column they read."""
    if command == "simulate":
        return ["simulate", "--n", "60", "--rho", "0.5" if good else "nan"], None
    if command == "mc":
        data = tmp_path / "cfg.json"
        data.write_text(json.dumps({
            "study_kind": "estimation", "n": 100, "replications": 2, "d_values": [0.1],
            "memory_settings": ["SLM3"], "bandwidth_exponents": ["n^-1/3"],
            "rho": 0.5 if good else 2.0}))
        return ["mc", "--config", str(data)], data
    data = tmp_path / "data.csv"
    if command == "ckc":
        text = _write_ckc(data).read_text()
    else:
        x = np.cumsum(np.random.default_rng(8).standard_normal(100)).tolist()
        pairs = command != "fit-artfima"
        text = ("x,y\n" if pairs else "value\n") + "".join(
            f"{v!r},{0.5 * v!r}\n" if pairs else f"{v!r}\n" for v in x)
    if not good:  # rename the column the command reads
        old, new = {"ckc": ("co2", "co3"), "fit-artfima": ("value", "year")}.get(
            command, ("y", "z"))
        text = text.replace(old, new, 1)
    data.write_text(text)
    return [command, "--data", str(data)], data


@pytest.mark.parametrize("command", ["simulate", "estimate", "spec-test", "fit-artfima",
                                     "mc", "ckc"])
def test_cli_main_writes_the_manifest_after_success_only(tmp_path, capsys, command):
    # main writes the run record once, after the command: it names the
    # command and hashes exactly the file the command read
    argv, data = _command_argv(command, tmp_path, good=True)
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == manifest["arguments"]["command"] == command
    assert manifest["input_sha256"] == (
        {} if data is None else {data.name: hashlib.sha256(data.read_bytes()).hexdigest()})
    argv, _ = _command_argv(command, tmp_path, good=False)
    failed = tmp_path / "failed"
    assert cli_main([*argv, "--out", str(failed)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not failed.exists()


def test_cli_mc_rejects_zero_threads(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "study_kind": "estimation", "n": 100, "replications": 4, "d_values": [0.1],
        "memory_settings": ["SLM3"], "bandwidth_exponents": ["n^-1/3"]}))
    assert cli_main(["mc", "--config", str(cfg_path), "--out", str(tmp_path / "mc"),
                     "--threads", "0"]) == 2
    assert "threads must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "mc").exists()


def test_cli_mc_rejects_negative_d_under_semi_long_memory(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "study_kind": "estimation", "n": 100, "replications": 4, "d_values": [-0.1],
        "memory_settings": ["SLM3"], "bandwidth_exponents": ["n^-1/3"]}))
    assert cli_main(["mc", "--config", str(cfg_path), "--out", str(tmp_path / "mc")]) == 2
    assert "d_values: a simulated semi-long-memory regressor needs d >= 0" in (
        capsys.readouterr().err)
    assert not (tmp_path / "mc").exists()


def test_cli_mc_reruns_from_study_config(tmp_path):
    # export_study saves the resolved config next to the command manifest;
    # a second run from it reproduces every table byte for byte
    cfg = {
        "study_kind": "size", "n": 100, "replications": 3, "chunk_size": 2,
        "d_values": [0.1], "memory_settings": ["SLM3"],
        "bandwidth_exponents": ["n^-1/5"], "block_rules": [[1.0, 0.5]],
        "nominal_levels": [0.05], "kernel": "gaussian",
        "master_seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli_main(["mc", "--config", str(cfg_path), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["command"] == "mc"
    assert cli_main(["mc", "--config", str(first / "study_config.json"),
                     "--out", str(second)]) == 0
    tables = sorted(p.name for p in first.glob("*.csv"))
    assert "size.csv" in tables and any(t.startswith("histogram_") for t in tables)
    assert tables == sorted(p.name for p in second.glob("*.csv"))
    for name in tables + ["study_config.json"]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("change, message", [
    ({"replicatons": 4}, "unknown study config field(s): replicatons"),
    ({"variance_mode": "centered", "min_window_count": 2},
     "unknown study config field(s): min_window_count, variance_mode"),
    ({"memory_settings": ["SLM9"]}, "['SLM1', 'SLM2', 'SLM3', 'SLM4']"),
    ({"memory_settings": ["SLM1", "SLM9"]},
     "unknown memory setting 'SLM9'; choose lm or one of ['SLM1', 'SLM2', 'SLM3', 'SLM4']"),
    ({"d_values": [0.1, 0.1]}, "d_values repeats 0.1"),
    ({"weight_support": [1, 2, 3]},
     "weight_support must be two values a < b, got [1.0, 2.0, 3.0]"),
    ({"weight_support": [5, -5]},
     "weight_support must be two values a < b, got [5.0, -5.0]"),
    ({"study_kind": "size", "n": 60, "block_rules": [[0.1, 0.5]]},
     "block_rules 0.1n^0.5 gives b = 0 at n = 60; need 2 <= b < n"),
    ({"study_kind": "size", "n": 60, "block_rules": [[1.0, 1.5]]},
     "block_rules 1n^1.5 gives b = 464 at n = 60; need 2 <= b < n"),
    ({"nominal_levels": [0.05, 1.5]}, "nominal_levels must lie in (0, 1), got 1.5"),
    ({"nominal_levels": [0.0]}, "nominal_levels must lie in (0, 1), got 0.0"),
    ({"grid_points": -3}, "grid_points must be >= 1, got -3"),
    ({"grid_points": 0}, "grid_points must be >= 1, got 0"),
    ({"study_kind": "coverage", "eval_points": []},
     "eval_points must be nonempty and finite, got []"),
    ({"study_kind": "coverage", "eval_points": [0.5, float("nan")]},
     "eval_points must be nonempty and finite, got [0.5, nan]"),
    # the sine terms, burn-in and presample are fixed conventions, not fields
    ({"f_terms": -1}, "unknown study config field(s): f_terms"),
    ({"study_kind": "coverage", "alpha": 0.0}, "alpha must be in (0, 1], got 0.0"),
    ({"alpha": 1.5}, "alpha must be in (0, 1], got 1.5"),
    ({"kernel": "triangle"},
     "kernel: unknown kernel 'triangle'; choose from ['epanechnikov', 'gaussian']"),
    ({"n": 100.5}, "n must be an integer, got 100.5"),
    ({"n": 0}, "n must be >= 1, got 0"),
    ({"replications": 2.5}, "replications must be an integer, got 2.5"),
    ({"chunk_size": 1.5}, "chunk_size must be an integer, got 1.5"),
    ({"grid_points": 2.5}, "grid_points must be an integer, got 2.5"),
    # the study_config.json of an older version, written with their defaults
    ({"f_terms": 1000, "burn_in": 1000, "presample": 0},
     "unknown study config field(s): burn_in, f_terms, presample"),
    ({"burn_in": 0.5}, "unknown study config field(s): burn_in"),
    ({"burn_in": -1, "presample": "full"}, "unknown study config field(s): burn_in, presample"),
    ({"master_seed": "7"}, "master_seed must be an integer, got '7'"),
    ({"replications": True}, "replications must be an integer, got True"),
    # the study_config.json of an older version, written with quad_cells
    ({"study_kind": "size", "quad_cells": 1024},
     "unknown study config field(s): quad_cells"),
    ({"memory_settings": [5]}, "tempering schedule must satisfy lam -> 0 and n*lam -> inf "
                               "(exponent in (-1, 0)), got 5"),
    ({"study_kind": "size", "block_rules": [[1.0]]},
     "block_rules entries must be pairs [coef, exponent], got [1.0]"),
    ({"study_kind": "size", "block_rules": [2.0]},
     "block_rules entries must be pairs [coef, exponent], got 2.0"),
    ({"bandwidth_exponents": ["n^-1/0"]}, "power rule 'n^-1/0' divides by zero"),
    # the kind of a config saved by an older version: lam sets the regime
    ({"memory_settings": [{"kind": "slm", "lambda_exponent": -0.2}]},
     "unknown memory setting {'kind': 'slm', 'lambda_exponent': -0.2}; choose lm or one of"),
    # a list field that is not a list used to fail naming no field
    ({"d_values": 5}, "d_values must be a list, got 5"),
    ({"nominal_levels": ["x"]}, "nominal_levels must hold numbers, got 'x'"),
    ({"nominal_levels": [None]}, "nominal_levels must hold numbers, got None"),
    # a named schedule is the one form of a rule: "SLM3", not {"rule": "SLM3"}
    ({"memory_settings": [{"rule": "SLM3"}]},
     "unknown memory setting {'rule': 'SLM3'}; choose lm or one of"),
    # a NaN d used to drop every long-memory row and fail a semi-long one mid-run
    ({"memory_settings": ["lm", "SLM3"], "d_values": [0.1, float("nan")]},
     "d_values must be finite, got [0.1, nan]"),
    ({"d_values": [float("inf")]}, "d_values must be finite, got [inf]"),
    # these two ended in a TypeError traceback and exit 1
    ({"presample": None}, "unknown study config field(s): presample"),
    ({"rho": "x"}, "rho must hold numbers, got 'x'"),
    # JSON true once read as 1.0
    ({"rho": True}, "rho must hold numbers, got True"),
    ({"d_values": [True]}, "d_values must hold numbers, got True"),
    ({"memory_settings": ["short"]},
     "unknown memory setting 'short'; choose lm or one of ['SLM1', 'SLM2', 'SLM3', 'SLM4']"),
    ({"study_kind": "coverage", "alpha": True}, "alpha must hold numbers, got True"),
    ({"study_kind": "coverage", "alpha": "x"}, "alpha must hold numbers, got 'x'"),
    # a number field takes a JSON number, as a count does, not its text
    ({"study_kind": "coverage", "alpha": "0.05"}, "alpha must hold numbers, got '0.05'"),
    ({"rho": "0.5"}, "rho must hold numbers, got '0.5'"),
    ({"d_values": ["0.1"]}, "d_values must hold numbers, got '0.1'"),
    # a label follows from the exponent; an input one once named a histogram
    # file, so "a/b" ran every replication and then failed to export
    ({"study_kind": "size", "memory_settings": [{"lambda_exponent": -0.2, "label": "a/b"}]},
     "unknown memory setting {'lambda_exponent': -0.2, 'label': 'a/b'}; choose lm or one of"),
    # a string was read letter by letter: "unknown memory setting 'S'"
    ({"memory_settings": "SLM3"}, "memory_settings must be a list, got 'SLM3'"),
    ({"bandwidth_exponents": -0.2}, "bandwidth_exponents must be a list, got -0.2"),
    # JSON true once read as the exponent 1.0, a bandwidth h = n
    ({"bandwidth_exponents": [True]}, "cannot parse power rule True"),
    ({"memory_settings": [True]}, "unknown memory setting True; choose lm or one of"),
    # the object form that older versions saved; "n^-0.2" is the one form now
    ({"memory_settings": [{"lambda_exponent": -0.2}]},
     "unknown memory setting {'lambda_exponent': -0.2}; choose lm or one of"),
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
    assert not (tmp_path / "mc").exists()


@pytest.mark.parametrize("inputs, message", [
    (["spec-test", "--block-rule", "inf"], "block_rules must hold finite numbers, got inf"),
    (["spec-test", "--block-rule", "nan"], "block_rules must hold finite numbers, got nan"),
    (["spec-test", "--block-rule", "1e308"],
     "block rule 1e+308n^0.5 gives no finite b at n = 100"),
    (["spec-test", "--bandwidth", "n^400"], "power rule 'n^400' overflows at size 10"),
    (["spec-test", "--lam", "n^400"], "power rule 'n^400' overflows at size 10"),
    (["estimate", "--bandwidth", "n^400"], "power rule 'n^400' overflows at size 100"),
    (["spec-test", "--lam", "n^-400"], "power rule 'n^-400' is 0.0 at size 10"),
    (["estimate", "--bandwidth", "n^-400"], "power rule 'n^-400' is 0.0 at size 100"),
    ({"block_rules": [[float("inf"), 0.5]]}, "block_rules must hold finite numbers, got inf"),
    ({"block_rules": [[float("nan"), 0.5]]}, "block_rules must hold finite numbers, got nan"),
    ({"block_rules": [[True, 0.5]]}, "block_rules must hold numbers, got True"),
    ({"block_rules": [["2", 0.5]]}, "block_rules must hold numbers, got '2'"),
    ({"block_rules": [[1.0, 400]]}, "block rule 1n^400 gives no finite b at n = 100"),
    ({"bandwidth_exponents": [400]}, "power rule 'n^400.0' overflows at size 100"),
    ({"bandwidth_exponents": [-400]}, "power rule 'n^-400.0' is 0.0 at size 100"),
], ids=["block-rule-inf", "block-rule-nan", "block-rule-1e308", "spec-test-bandwidth-n^400",
        "spec-test-lam-n^400", "estimate-bandwidth-n^400", "spec-test-lam-n^-400",
        "estimate-bandwidth-n^-400", "block_rules-Infinity",
        "block_rules-NaN", "block_rules-true", "block_rules-string", "block_rules-n^400",
        "bandwidth_exponents-400", "bandwidth_exponents-minus-400"])
def test_cli_refuses_unusable_tuning(tmp_path, capsys, inputs, message):
    # these escaped as an OverflowError (a traceback and exit 1), failed
    # naming no input, or built (true as the coefficient 1.0); a command
    # line or a size study config, on 100 observations
    if isinstance(inputs, dict):
        data = tmp_path / "cfg.json"
        data.write_text(json.dumps({
            "study_kind": "size", "n": 100, "replications": 2, "d_values": [0.1],
            "memory_settings": ["SLM3"], "bandwidth_exponents": ["n^-1/3"],
            "block_rules": [[1.0, 0.5]], "nominal_levels": [0.05], **inputs}))
        argv = ["mc", "--config", str(data)]
    else:
        data = tmp_path / "xy.csv"
        x = np.cumsum(np.random.default_rng(8).standard_normal(100)).tolist()
        data.write_text("x,y\n" + "".join(f"{v!r},{0.5 * v!r}\n" for v in x))
        argv = [*inputs, "--data", str(data)]
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 2  # an uncaught error raises here
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"study_kind": "size"}, "missing required study config field(s): n, replications, "
                             "d_values, memory_settings, bandwidth_exponents"),
    ({"study_kind": "estimation", "n": 100, "replications": 4, "d_values": [0.1],
      "memory_settings": ["SLM3"]}, "missing required study config field(s): "
                                    "bandwidth_exponents"),
    ([1, 2], "a study config must be a JSON object, got a list"),
    ("size", "a study config must be a JSON object, got a str"),
])
def test_cli_mc_rejects_malformed_config(tmp_path, capsys, payload, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    assert cli_main(["mc", "--config", str(cfg_path),
                     "--out", str(tmp_path / "mc")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "mc").exists()


@pytest.mark.parametrize("command, flag", [("estimate", "--bandwidth"),
                                           ("spec-test", "--bandwidth"),
                                           ("spec-test", "--lam")])
def test_cli_rejects_zero_denominator_rule(tmp_path, capsys, command, flag):
    # the option's own error, before the data file is read
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n" + "".join(f"{i},{i % 3}\n" for i in range(40)))
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--data", str(data), flag, "n^1/0",
                  "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"argument {flag}: power rule 'n^1/0' divides by zero" in message
    assert str(data) not in message


def test_cli_mc_rejects_cells_that_share_a_file_name(tmp_path, capsys):
    # histogram_SLM3_d0.1_h0.2.csv would hold whichever cell was written last
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "study_kind": "size", "n": 120, "replications": 2,
        "d_values": [0.1, 0.1000001], "memory_settings": ["SLM3"],
        "bandwidth_exponents": [-0.2]}))
    assert cli_main(["mc", "--config", str(cfg_path),
                     "--out", str(tmp_path / "mc")]) == 2
    assert ("d_values 0.1 and 0.1000001 both print as 0.1 in output file names"
            in capsys.readouterr().err)
    assert not (tmp_path / "mc").exists()


def test_cli_ckc_end_to_end(tmp_path, capsys):
    data = _write_ckc(tmp_path / "c.csv")
    out = tmp_path / "ckc"
    assert cli_main(["ckc", "--data", str(data), "--country", "Synthia",
                     "--out", str(out)]) == 0
    report = json.loads((out / "ckc_report.json").read_text())
    assert report["country"] == "Synthia"
    assert capsys.readouterr().out.count("quadratic") == 6


@pytest.mark.parametrize("n, b", [(33, 34), (34, 34), (36, 36)])
def test_cli_ckc_rejects_a_block_as_long_as_the_sample(tmp_path, capsys, n, b):
    # the widest block rule, int(6 sqrt(n)), reaches n on these short series
    data = _write_ckc(tmp_path / "c.csv", n=n)
    out = tmp_path / "ckc"
    assert cli_main(["ckc", "--data", str(data), "--out", str(out)]) == 2
    assert (f"block size must satisfy 2 <= b < n, got b = {b}, n = {n}"
            in capsys.readouterr().err)
    assert not (out / "ckc_report.json").exists()


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
                     "--lam", "0", "--block-size", "10",
                     "--out", str(tmp_path / "o3")])
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
