"""The benchmark's tracer (``perfbench/tracing.py``) wraps library functions
by name from outside the package.  This test installs it on the live library
so that a rename which breaks ``perfbench/run.py --trace 1`` fails here."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import slmcoint as sl

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _spec_test():
    rng = np.random.default_rng(21)
    x = np.cumsum(rng.standard_normal(80))
    y = x + 0.2 * rng.standard_normal(80)
    # through the module attribute, which is what install() replaces
    (result,) = sl.spec_test.run_spec_test(
        x, y, "linear", "n^-0.2", sl.GAUSSIAN,
        sl.spec_test.DEFAULT_WEIGHT_SUPPORT, d=0.1, lam="n^-0.2", blocks=[16],
        quad_cells=256)
    return result


def test_tracer_wraps_live_library(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    plain = _spec_test()
    original = sl.spec_test.run_spec_test
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = _spec_test()
    finally:
        uninstall()
    assert traced.to_dict() == plain.to_dict()
    assert np.array_equal(traced.subsample_by_block, plain.subsample_by_block)
    metrics = tracing.layer_metrics(tracer)
    counts = tracing.count_metrics(metrics)
    assert counts["spec_test.run_spec_test.calls"] == 1
    assert counts["spec_test.subsample_statistics.calls"] == 1
    assert counts["spec_test.subsample_statistics.blocks"] == 80 - 16 + 1
    assert counts["spec_test.t_statistic.calls"] == 1
    assert counts["kernel_regression.kernel.spec_test.calls"] > 0
    for name in ("nls_fit", "sliding_theta", "t_statistic", "subsample_statistics"):
        assert metrics[f"spec_test.{name}.busy_s"]["value"] > 0.0
    assert sl.spec_test.run_spec_test is original
    assert sl.run_spec_test is original


@pytest.mark.parametrize("kind", ["estimation", "size"])
def test_tracer_wraps_study_chunks(monkeypatch, kind):
    # a chunk worker called other than through its module attribute would
    # leave mc.chunks at 0
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    config = sl.StudyConfig(
        study_kind=kind, n=120, replications=5, chunk_size=2, d_values=(0.1,),
        memory_settings=("SLM3",), bandwidth_exponents=(-0.2,),
        master_seed=4242, block_rules=((1.0, 0.5),),
        nominal_levels=(0.05,))
    plain = sl.mc.run_study(config)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = sl.mc.run_study(config)
    finally:
        uninstall()
    assert json.dumps(traced.tables) == json.dumps(plain.tables)
    assert list(traced.histograms) == list(plain.histograms)
    for key in plain.histograms:
        assert np.array_equal(traced.histograms[key], plain.histograms[key])
    metrics = tracing.layer_metrics(tracer)
    assert tracing.count_metrics(metrics)["mc.chunks"] == 3
    assert metrics["mc.study.busy_s"]["value"] > 0.0


def test_tracer_wraps_whittle_fit(monkeypatch):
    # the tracer patches whittle.minimize by name and reads its nit; the fit
    # evaluates no grid, and its profile search makes 23 Newton passes and
    # one objective call, at its optimum
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    rng = np.random.default_rng([31, 4])
    z = sl.whittle.simulate_artfima00(600, d=0.9, lam=0.15, rng=rng)
    plain = sl.whittle.fit_artfima00(z)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = sl.whittle.fit_artfima00(z)
    finally:
        uninstall()
    assert traced.to_dict() == plain.to_dict()
    counts = tracing.count_metrics(tracing.layer_metrics(tracer))
    assert counts["whittle.refine.nit"] == 23
    assert counts["whittle.grid.evals"] == 0
    assert counts["whittle.refine.evals"] == 1


def test_benchmark_selftest_passes():
    # the benchmark's own self-test: traced runs of all four workloads equal
    # untraced ones, and run.py fails without the library; it writes only
    # under the ignored perfbench/out
    run = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "selftest passed" in run.stdout
