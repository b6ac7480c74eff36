"""The benchmark's reference check on a slice of its workloads.

``perfbench/run.py`` compares every output of the four workloads with the
records in ``perfbench/reference``.  This test runs the same comparisons
(``checks.check_studies`` and ``checks.check_item``, at their own
tolerances) on the outputs that are cheap to recompute: the size and
estimation studies at the first two master seeds, all 48 ckc countries and
Whittle pool items 0-39.  A library change that moves a benchmark output
fails here, not only in the benchmark run."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
WHITTLE_ITEMS = range(40)


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``checks`` modules, read only."""
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("workloads"), importlib.import_module("checks")


def _assert_passed(checks):
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures


@pytest.mark.parametrize("workload", ["size", "estimation"])
def test_studies_match_reference(bench, workload):
    wl, ck = bench
    reference = ck.load_reference(workload)
    checks = ck.Checks()
    for mseed in wl.MASTER_SEEDS[:2]:
        configs = wl.study_configs(workload, mseed)
        outputs = wl.run_studies(configs, threads=1)
        ck.check_studies(checks, outputs, reference[str(mseed)],
                         configs[0].replications, f"master seed {mseed}")
    _assert_passed(checks)


def test_ckc_countries_match_reference(bench, tmp_path):
    wl, ck = bench
    reference = ck.load_reference("ckc")
    wl.write_countries(str(tmp_path))
    checks = ck.Checks()
    for index, _ in wl.ckc_pool():
        out = wl.ckc_item(index, str(tmp_path), "test")
        ck.check_item(checks, "ckc", out, reference.get(str(index)), f"country {index}")
    _assert_passed(checks)


def test_whittle_items_match_reference(bench):
    wl, ck = bench
    reference = ck.load_reference("whittle")
    checks = ck.Checks()
    for index in WHITTLE_ITEMS:
        ck.check_item(checks, "whittle", wl.whittle_item(index), reference.get(str(index)),
                      f"item {index}")
    _assert_passed(checks)
