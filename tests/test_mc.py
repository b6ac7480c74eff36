import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slmcoint import (StudyConfig, BlockRule, SLM_RULES, parse_exponent, run_study,
                      export_study)
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
    # a bool is not a number: JSON true once gave the exponent 1.0, h = n
    for value, shown in ((True, "True"), (False, "False"), (np.True_, "np.True_")):
        with pytest.raises(ValueError, match=rf"^cannot parse power rule {shown}$"):
            parse_exponent(value)


def test_memory_setting_labels_and_rules():
    # an entry is stored as its tempering exponent, None for long memory
    config = _tiny("estimation", memory_settings=("lm", "SLM3", "n^-1/3", -0.3, "slm2"))
    assert config.memory_settings == (None, -0.2, SLM_RULES["SLM1"], -0.3, -0.25)
    assert [spec.lam for spec in config.specs()] == [0.0] + [
        120.0 ** a for a in config.memory_settings[1:]]
    # a saved config writes each exponent by repr, which reads back the same double
    saved = config.to_dict()["memory_settings"]
    assert saved == ["lm", "n^-0.2", "n^-0.3333333333333333", "n^-0.3", "n^-0.25"]
    assert StudyConfig.from_dict(config.to_dict()) == config
    assert dataclasses.replace(config, n=130).memory_settings == config.memory_settings
    # the label follows from the exponent: it is not an input
    assert [mc._memory_label(a) for a in (None, -1 / 3, -0.25, -0.2, -1 / 6, -0.3)] \
        == ["LM", "SLM1", "SLM2", "SLM3", "SLM4", "SLM(n^-0.3)"]
    # the object form of older versions is an unknown setting, as a bool is
    for entry in ({"lambda_exponent": -0.2}, {"kind": "slm"}, {"label": "SLM3"}, True):
        with pytest.raises(ValueError, match=rf"^unknown memory setting {re.escape(repr(entry))};"
                                             r" choose lm or one of \["):
            _tiny("estimation", memory_settings=(entry,))
    for entry in ("n^-3/2", "n^0", 0.5, -1):
        with pytest.raises(ValueError, match=r"^tempering schedule must satisfy lam -> 0 and "
                                             rf"n\*lam -> inf \(exponent in \(-1, 0\)\), "
                                             rf"got {re.escape(repr(entry))}$"):
            _tiny("estimation", memory_settings=(entry,))
    for name in ("short", "slm", "long", "semi_long", "SLM9"):
        with pytest.raises(ValueError, match=rf"^unknown memory setting '{name}'; choose lm "
                                             r"or one of \['SLM1', 'SLM2', 'SLM3', 'SLM4'\]$"):
            _tiny("estimation", memory_settings=(name,))


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
    ("memory_settings", ("SLM3", "n^-0.2"),
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
    ("bandwidth_exponents", (True,), r"^cannot parse power rule True$"),
    ("block_rules", ((float("nan"), 0.5),), r"^block_rules must hold finite numbers, got nan$"),
    # a bool is not a number, as it is not a count
    ("rho", True, r"^rho must hold numbers, got True$"),
    ("d_values", (True,), r"^d_values must hold numbers, got True$"),
    # alpha once kept a bool, and failed on a string with a TypeError
    ("alpha", True, r"^alpha must hold numbers, got True$"),
    ("alpha", "x", r"^alpha must hold numbers, got 'x'$"),
    # a number field takes numbers only, as a count does: not their text
    ("alpha", "0.05", r"^alpha must hold numbers, got '0.05'$"),
    ("rho", "0.5", r"^rho must hold numbers, got '0.5'$"),
    ("d_values", ("0.1",), r"^d_values must hold numbers, got '0.1'$"),
])
def test_config_rejects_bad_noise_or_presample(field, value, message):
    # refused when the config is built, not in the first chunk of a study
    # (which at threads > 1 runs in a forked worker)
    for kind in ("estimation", "size"):
        with pytest.raises(ValueError, match=message):
            _tiny(kind, **{field: value})
    assert type(_tiny("estimation", rho=0).rho) is float


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
    config = _tiny("estimation", memory_settings=("lm", "SLM3"),
                   d_values=(0.0, 0.45, 0.8))
    labels = [(mc._memory_label(a), d) for a, d in config.settings_grid()]
    assert labels == [("LM", 0.0), ("LM", 0.45),
                      ("SLM3", 0.0), ("SLM3", 0.45), ("SLM3", 0.8)]


def test_config_rejects_negative_d_under_semi_long_memory():
    # no semi-long regressor can be simulated with d < 0, so the pair is
    # refused when the config is built, not in the study's first chunk
    for kind in ("estimation", "size"):
        with pytest.raises(ValueError, match=r"^d_values: a simulated semi-long-memory "
                                             r"regressor needs d >= 0, got -0\.1$"):
            _tiny(kind, d_values=(-0.1, 0.2), memory_settings=("lm", "SLM3"))
    # long memory skips a negative d, as it skips d >= 1/2
    config = _tiny("estimation", d_values=(-0.1, 0.0), memory_settings=("lm",))
    assert config.settings_grid() == [(None, 0.0)]


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

    def __init__(self, max_workers, mp_context):
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


def test_study_workers_are_forked(monkeypatch):
    # a worker sees a module global patched in the parent only when it is
    # forked, whatever the platform's default start method
    monkeypatch.setattr(mc, "_MIN_WINDOW_COUNT", 10 ** 9)
    result = run_study(_tiny("estimation"), threads=2)
    assert [row["excluded_frac"] for row in result.tables["rmse"]] == [1.0]


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
    a = run_study(cfg_ab)
    b = run_study(cfg_ba)
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
    f = mc.sine_series_interpolator()
    points = []  # the number of points of each f call

    def counted(x):
        points.append(np.size(x))
        return f(x)

    monkeypatch.setattr(mc, "sine_series_interpolator", lambda: counted)
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

def test_estimation_zero_noise_zero_function(monkeypatch):
    # 0 sine terms are the zero function
    zero = mc.sine_series_interpolator(0)
    monkeypatch.setattr(mc, "sine_series_interpolator", lambda: zero)
    config = _tiny("estimation", sigma=0.0, replications=4, chunk_size=2)
    res = run_study(config)
    for crit in ("bias", "std", "rmse"):
        assert res.tables[crit][0]["value"] == pytest.approx(0.0, abs=1e-15)


def test_coverage_degenerate_alpha_one():
    config = _tiny("coverage", replications=4, chunk_size=2, alpha=1.0)
    res = run_study(config)
    for row in res.tables["coverage"]:
        assert row["value"] == 0.0
    for row in res.tables["length"]:
        assert row["value"] == pytest.approx(0.0, abs=1e-15) or np.isnan(row["value"])


@pytest.mark.parametrize("alpha", [1.5, 0.0, -0.2])
def test_coverage_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
        run_study(_tiny("coverage", alpha=alpha))


def test_size_degenerate_zero_noise():
    config = _tiny("size", sigma=0.0, replications=4, chunk_size=2)
    res = run_study(config)
    assert res.tables["size"][0]["value"] == 0.0
    k = list(res.histograms)[0]
    assert np.allclose(res.histograms[k], 0.0)


def test_d0_rows_identical_across_memory_settings():
    config = _tiny("estimation", memory_settings=("lm", "SLM1", "SLM3"),
                   d_values=(0.0,), replications=6)
    res = run_study(config)
    vals = [res.cell("rmse", memory=m, d=0.0)["value"]
            for m in ("LM", "SLM1", "SLM3")]
    assert vals[0] == vals[1] == vals[2]


# ----------------------------------------------------------------- exports

def test_export_and_manifest_roundtrip(tmp_path):
    config = _tiny("size", replications=4, chunk_size=2)
    res = run_study(config)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    export_study(res, out1)
    saved = json.loads((out1 / "study_config.json").read_text())
    config2 = StudyConfig.from_dict(saved)
    assert config2 == config
    res2 = run_study(config2, threads=2)
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
    res = run_study(config)
    export_study(res, tmp_path / "out")
    lines = (tmp_path / "out" / "bias.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("memory,")


def test_estimation_flags_and_fractions():
    config = _tiny("estimation", replications=6)
    row = run_study(config).tables["std"][0]
    assert 0.0 <= row["zero_mass_frac"] <= 1.0
    assert row["excluded_frac"] >= row["zero_mass_frac"]
    assert row["flagged"] == (row["zero_mass_frac"] > 0.01)
