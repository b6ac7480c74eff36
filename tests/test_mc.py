import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slmcoint import (StudyConfig, MemorySetting, BlockRule, SLM_RULES,
                      parse_exponent, run_estimation_study, run_coverage_study,
                      run_size_study, run_study, export_study)
from slmcoint import mc
from slmcoint.mc import write_json


def _tiny(study_kind, **kw):
    base = dict(
        study_kind=study_kind, n=120, replications=6, chunk_size=3,
        d_values=(0.1,), memory_settings=("SLM3",),
        bandwidth_exponents=(-0.2,), master_seed=4242)
    if study_kind == "size":
        base.update(kernel="gaussian", block_rules=((1.0, 0.5),),
                    nominal_levels=(0.05,))
    base.update(kw)
    return StudyConfig(**base)


# ------------------------------------------------------------------- rules

def test_parse_exponent_forms():
    assert parse_exponent("n^-1/3") == pytest.approx(-1.0 / 3.0)
    assert parse_exponent("n^-1/2") == -0.5
    assert parse_exponent("n^-1") == -1.0
    assert parse_exponent(-0.25) == -0.25
    # one spelling per rule: n^a
    for rule in ("h=0.3", "1/n", "1/sqrt(n)"):
        with pytest.raises(ValueError, match=r"cannot parse power rule"):
            parse_exponent(rule)
    with pytest.raises(ValueError, match=r"power rule 'n\^-1/0' divides by zero"):
        parse_exponent("n^-1/0")
    for rule in ("n^inf", "n^1e400", float("nan")):
        with pytest.raises(ValueError, match="has a non-finite exponent"):
            parse_exponent(rule)


def test_memory_setting_labels_and_rules():
    ms = MemorySetting.from_dict("SLM3")
    assert ms.label == "SLM3"
    assert ms.lam(100000) == pytest.approx(100000 ** -0.2)
    assert MemorySetting.from_dict("lm").label == "LM"
    assert MemorySetting.from_dict({"kind": "slm", "lambda_exponent": "n^-1/3"}) \
        == MemorySetting.from_dict("slm1")
    assert MemorySetting.from_dict("slm1").lambda_exponent == SLM_RULES["SLM1"]
    with pytest.raises(TypeError, match="rule"):
        MemorySetting.from_dict({"kind": "slm", "rule": "slm1"})
    with pytest.raises(ValueError):
        MemorySetting.from_dict({"kind": "slm", "lambda_exponent": -1.5})


def test_block_rule_floor():
    assert BlockRule(0.5, 0.5).size(500) == 11
    assert BlockRule(4.0, 0.5).size(500) == 89


def test_block_rule_is_the_square_root_rule():
    # the one block-size rule of the size study, ckc and the CLI: at the
    # default exponent it is the [c sqrt(n)] that ckc computed before
    ns = np.arange(2, 10001)
    for c in (2.0, 4.0, 6.0):
        rule = BlockRule(c)
        assert [rule.size(int(n)) for n in ns] == [int(c * np.sqrt(n)) for n in ns]


def test_config_json_roundtrip(tmp_path):
    config = _tiny("size")
    path = write_json(tmp_path / "cfg.json", config.to_dict())
    again = StudyConfig.from_dict(json.loads(path.read_text()))
    assert again == config


@pytest.mark.parametrize("field, value, message", [
    ("replications", 0, "replications must be >= 1"),
    ("chunk_size", 0, "chunk_size must be >= 1, got 0"),
    ("chunk_size", -2, "chunk_size must be >= 1, got -2"),
])
def test_config_rejects_nonpositive_counts(field, value, message):
    with pytest.raises(ValueError, match=message):
        _tiny("estimation", **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("d_values", (0.1, 0.2, 0.1), "d_values repeats 0.1"),
    ("memory_settings", ("SLM3", {"kind": "slm", "lambda_exponent": -0.2}),
     "memory_settings repeats 'SLM3'"),
    ("bandwidth_exponents", ("n^-1/5", -0.2), "bandwidth_exponents repeats -0.2"),
])
def test_config_rejects_repeated_cell_values(field, value, message):
    # a repeated value would put every replication into its cell twice
    for kind in ("estimation", "size"):
        with pytest.raises(ValueError, match=message):
            _tiny(kind, **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("d_values", (0.1, 0.2, 0.1000001),
     r"d_values 0\.1 and 0\.1000001 both print as 0\.1 in output file names"),
    ("bandwidth_exponents", ("n^-1/5", -0.20000001),
     r"bandwidth_exponents -0\.2 and -0\.20000001 both print as -0\.2 in output"),
])
def test_config_rejects_values_that_print_alike(field, value, message):
    # a size histogram is named by d and the exponent under :g, so these
    # cells would write one file
    for kind in ("estimation", "size"):
        with pytest.raises(ValueError, match=message):
            _tiny(kind, **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("psi", 1.5, r"^\|psi\| < 1 required \(stationary AR error\)$"),
    ("rho", 2, r"^\|rho\| must be <= 1 \(covariance not psd otherwise\)$"),
    ("sigma", -1, r"^sigma must be >= 0$"),
    ("rho", float("nan"), r"^noise parameter rho must be finite, got nan$"),
    ("rho", "x", r"^rho must hold numbers, got 'x'$"),
    ("presample", -3, r"^presample must be 'full' or an integer count >= 0, got -3$"),
    ("presample", None, r"^presample must be 'full' or an integer count >= 0, got None$"),
    # a bool is not a number, as it is not a count
    ("rho", True, r"^rho must hold numbers, got True$"),
    ("d_values", (True,), r"^d_values must hold numbers, got True$"),
])
def test_config_rejects_bad_noise_or_presample(field, value, message):
    # refused when the config is built, not in the first chunk of a study
    # (which at threads > 1 runs in a forked worker)
    for kind in ("estimation", "size"):
        with pytest.raises(ValueError, match=message):
            _tiny(kind, **{field: value})
    config = _tiny("estimation", rho=0, presample="full")
    assert type(config.rho) is float and config.presample == "full"


def test_paths_build_each_spec_once_per_chunk(monkeypatch):
    config = _tiny("estimation", memory_settings=("lm", "SLM3"), d_values=(0.1, 0.2))
    built = []

    class Counted(mc.TemperedProcessSpec):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(mc, "TemperedProcessSpec", Counted)
    assert len(list(mc._paths(config, 0, 6))) == 6
    assert len(built) == len(config.settings_grid()) == 4


def test_settings_grid_skips_invalid_lm_rows():
    # the grid keeps exactly the (setting, d) pairs that _check_memory admits
    config = _tiny("estimation", memory_settings=("lm", "short", "SLM3"),
                   d_values=(0.0, 0.45, 0.8))
    labels = [(ms.label, d) for ms, d in config.settings_grid()]
    assert labels == [("LM", 0.0), ("LM", 0.45), ("SHORT", 0.0),
                      ("SLM3", 0.0), ("SLM3", 0.45), ("SLM3", 0.8)]


def test_config_rejects_negative_d_under_semi_long_memory():
    # no semi-long regressor can be simulated with d < 0, so the pair is
    # refused when the config is built, not in the study's first chunk
    for kind in ("estimation", "size"):
        with pytest.raises(ValueError, match=r"^d_values: a simulated semi-long-memory "
                                             r"regressor needs d >= 0, got -0\.1$"):
            _tiny(kind, d_values=(-0.1, 0.2), memory_settings=("lm", "SLM3"))
    # long and short memory skip a negative d, as long memory skips d >= 1/2
    config = _tiny("estimation", d_values=(-0.1, 0.0), memory_settings=("lm", "short"))
    assert [(ms.label, d) for ms, d in config.settings_grid()] == [("LM", 0.0), ("SHORT", 0.0)]


def test_batch_se_divides_by_the_finite_chunks():
    # an empty chunk (NaN) adds no value, so it must not count in the sqrt(m)
    assert mc._batch_se([1.0, 2.0, np.nan]) == np.std([1.0, 2.0], ddof=1) / np.sqrt(2)
    values = [0.3, 0.1, 0.7, 0.2]
    assert mc._batch_se(values) == np.nanstd(values, ddof=1) / np.sqrt(4)
    assert np.isnan(mc._batch_se([1.0, np.nan]))


# ------------------------------------------------------------- determinism

@pytest.mark.parametrize("config", [
    _tiny("estimation"),
    _tiny("coverage", replications=5, chunk_size=2),
    # 2 block rules x 2 levels, and a chunk size that does not divide R
    _tiny("size", n=100, replications=5, chunk_size=2,
          block_rules=((1.0, 0.5), (2.0, 0.5)), nominal_levels=(0.05, 0.10)),
    # the 3b acceptance cell at R=4: the matrix sizes of the size benchmark
    _tiny("size", n=500, replications=4, chunk_size=2,
          block_rules=((4.0, 0.5),), nominal_levels=(0.01,),
          master_seed=20250808),
], ids=["estimation", "coverage", "size", "size-3b-cell"])
def test_thread_count_invariance(config):
    a = run_study(config, threads=1)
    b = run_study(config, threads=2)
    assert json.dumps(a.tables) == json.dumps(b.tables)
    assert list(a.histograms) == list(b.histograms)
    for key in a.histograms:
        assert np.array_equal(a.histograms[key], b.histograms[key])


@st.composite
def _small_study(draw):
    """A small estimation or coverage config: n 60-150, R 2-6, chunks of
    1-3 replications, one or two settings, d values and bandwidths."""
    kind = draw(st.sampled_from(["estimation", "coverage"]))
    extra = {"grid_points": draw(st.integers(5, 40))} if kind == "estimation" else {
        "eval_points": tuple(draw(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=4))),
        "alpha": draw(st.sampled_from([0.05, 0.1, 1.0]))}
    return StudyConfig(
        study_kind=kind, n=draw(st.integers(60, 150)),
        replications=draw(st.integers(2, 6)), chunk_size=draw(st.integers(1, 3)),
        d_values=tuple(draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]), min_size=1,
                                     max_size=2, unique=True))),
        memory_settings=tuple(draw(st.lists(st.sampled_from(["lm", "SLM1", "SLM3"]),
                                            min_size=1, max_size=2, unique=True))),
        bandwidth_exponents=tuple(draw(st.lists(st.sampled_from([-0.5, -1.0 / 3.0, -0.2]),
                                                min_size=1, max_size=2, unique=True))),
        kernel=draw(st.sampled_from(["epanechnikov", "gaussian"])),
        sigma=draw(st.sampled_from([0.0, 0.2, 1.0])),
        master_seed=draw(st.integers(0, 2 ** 32 - 1)), **extra)


@settings(max_examples=10, deadline=None)
@given(config=_small_study())
def test_thread_count_invariance_property(config):
    a = run_study(config, threads=1)
    b = run_study(config, threads=2)
    assert json.dumps(a.tables) == json.dumps(b.tables)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    asked for and maps in this process, so no worker is forked."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("replications, threads, workers", [
    (6, 8, [2]),  # 2 chunks of 3: 2 workers, not 8
    (6, 2, [2]),
    (7, 2, [2]),  # 3 chunks
    (3, 8, []),   # 1 chunk: no pool
    (6, 1, []),
])
def test_run_chunked_forks_at_most_one_worker_per_chunk(monkeypatch, replications,
                                                         threads, workers):
    monkeypatch.setattr(mc, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    config = _tiny("estimation", replications=replications)
    result = run_study(config, threads=threads)
    assert _RecordingPool.sizes == workers
    assert json.dumps(result.tables) == json.dumps(run_study(config).tables)


@pytest.mark.parametrize("threads", [0, -2])
def test_run_chunked_rejects_fewer_than_one_thread(monkeypatch, threads):
    monkeypatch.setattr(mc, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}$"):
        run_study(_tiny("estimation"), threads=threads)
    assert _RecordingPool.sizes == []


def test_estimation_cell_order_invariance():
    cfg_ab = _tiny("estimation", memory_settings=("lm", "SLM3"),
                   d_values=(0.0, 0.1))
    cfg_ba = _tiny("estimation", memory_settings=("SLM3", "lm"),
                   d_values=(0.1, 0.0))
    a = run_estimation_study(cfg_ab)
    b = run_estimation_study(cfg_ba)
    cell_a = a.cell("rmse", memory="SLM3", d=0.1)
    cell_b = b.cell("rmse", memory="SLM3", d=0.1)
    assert cell_a["value"] == cell_b["value"]


def test_run_study_dispatch():
    res = run_study(_tiny("coverage", replications=4, chunk_size=2))
    assert set(res.tables) == {"coverage", "length"}


@pytest.mark.parametrize("study_kind", ["estimation", "coverage", "size"])
def test_study_without_an_admitted_setting_has_empty_tables(study_kind):
    # long memory admits no d = 0.8, so no replication runs
    config = _tiny(study_kind, memory_settings=("lm",), d_values=(0.8,))
    assert config.settings_grid() == []
    res = run_study(config)
    assert res.tables and all(rows == [] for rows in res.tables.values())


@pytest.mark.parametrize("kernel", ["epanechnikov", "gaussian"])
@pytest.mark.parametrize("study_kind", ["estimation", "coverage"])
def test_chunks_equal_f_evaluated_everywhere(monkeypatch, study_kind, kernel):
    # the chunks evaluate f only where a kernel window reaches; the oracle
    # is the full response f(x) + sigma*u
    config = _tiny(study_kind, n=300, replications=4, chunk_size=4, kernel=kernel,
                   d_values=(0.0, 0.4), memory_settings=("lm", "SLM3"),
                   bandwidth_exponents=(-1.0 / 3.0, -0.2), grid_points=40,
                   eval_points=(0.0, 0.25, 0.5, 0.95, 3.0))
    chunk = {"estimation": mc._estimation_chunk, "coverage": mc._coverage_chunk}[study_kind]
    f = mc.sine_series_interpolator(config.f_terms)
    points = []  # the number of points of each f call

    def counted(x):
        points.append(np.size(x))
        return f(x)

    monkeypatch.setattr(mc, "sine_series_interpolator", lambda terms: counted)
    got = chunk((config, 0, 4))
    reached = sum(points)
    monkeypatch.setattr(mc, "_response",
                        lambda x, u, f, grid, h, kernel, sigma: f(x) + sigma * u)
    want = chunk((config, 0, 4))
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key], equal_nan=True), key
    if kernel == "epanechnikov":  # 5% to 22% of a replication's 1200 observations
        assert reached < 0.5 * (sum(points) - reached)


# --------------------------------------------------------horizon degenerate

def test_estimation_zero_noise_zero_function():
    config = _tiny("estimation", sigma=0.0, f_terms=0, replications=4,
                   chunk_size=2)
    res = run_estimation_study(config)
    for crit in ("bias", "std", "rmse"):
        assert res.tables[crit][0]["value"] == pytest.approx(0.0, abs=1e-15)


def test_coverage_degenerate_alpha_one():
    config = _tiny("coverage", replications=4, chunk_size=2, alpha=1.0)
    res = run_coverage_study(config)
    for row in res.tables["coverage"]:
        assert row["value"] == 0.0
    for row in res.tables["length"]:
        assert row["value"] == pytest.approx(0.0, abs=1e-15) or np.isnan(row["value"])


@pytest.mark.parametrize("alpha", [1.5, 0.0, -0.2])
def test_coverage_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
        run_coverage_study(_tiny("coverage", alpha=alpha))


def test_size_degenerate_zero_noise():
    config = _tiny("size", sigma=0.0, replications=4, chunk_size=2)
    res = run_size_study(config)
    assert res.tables["size"][0]["value"] == 0.0
    k = list(res.histograms)[0]
    assert np.allclose(res.histograms[k], 0.0)


def test_d0_rows_identical_across_memory_settings():
    config = _tiny("estimation", memory_settings=("lm", "SLM1", "SLM3"),
                   d_values=(0.0,), replications=6)
    res = run_estimation_study(config)
    vals = [res.cell("rmse", memory=m, d=0.0)["value"]
            for m in ("LM", "SLM1", "SLM3")]
    assert vals[0] == vals[1] == vals[2]


# ----------------------------------------------------------------- exports

def test_export_and_manifest_roundtrip(tmp_path):
    config = _tiny("size", replications=4, chunk_size=2)
    res = run_size_study(config)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    export_study(res, out1)
    saved = json.loads((out1 / "study_config.json").read_text())
    config2 = StudyConfig.from_dict(saved)
    assert config2 == config
    res2 = run_size_study(config2, threads=2)
    export_study(res2, out2)
    for name in ("size.csv", "study_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    hist = [p.name for p in out1.iterdir() if p.name.startswith("histogram")]
    assert hist
    for name in hist:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_export_header_only_when_no_cells(tmp_path):
    # all requested rows invalid for LM -> empty tables, header-only CSVs
    config = _tiny("estimation", memory_settings=("lm",), d_values=(0.9,),
                   replications=2, chunk_size=2)
    res = run_estimation_study(config)
    export_study(res, tmp_path / "out")
    lines = (tmp_path / "out" / "bias.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("memory,")


def test_estimation_flags_and_fractions():
    config = _tiny("estimation", replications=6)
    row = run_estimation_study(config).tables["std"][0]
    assert 0.0 <= row["zero_mass_frac"] <= 1.0
    assert row["excluded_frac"] >= row["zero_mass_frac"]
    assert row["flagged"] == (row["zero_mass_frac"] > 0.01)
