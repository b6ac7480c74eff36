"""Smoke test of ``scripts/identity.py``, the identity gate of speed changes.

Each section's item functions run on one item each, and ``compare`` runs in
a subprocess on the small dumps: against themselves, and against copies
with one leaf moved.  No output value is checked; the test fails when the
library drops or renames a name that the tool uses."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "identity.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    tool = _load_tool()
    tmp = tmp_path_factory.mktemp("identity")
    mseed, (country, n) = tool.MASTER_SEEDS[0], tool.ckc_pool()[0]
    pruned = tool.pruned_tile_items()
    smallest = min(pruned, key=lambda key: pruned[key][0].size)
    sections = {
        "spec": {
            "size": {str(mseed): tool.size_item(mseed)},
            "pruned_tiles": {smallest: tool.pruned_tile_item(*pruned[smallest])},
            "ckc": {str(country): tool.ckc_item(country, n)},
            "spec_test": {"linear|gaussian": tool.spec_test_item("linear", "gaussian")}},
        "nw": {
            "estimation": {str(mseed): tool.estimation_item(mseed)},
            "coverage": {"gaussian": tool.coverage_item("gaussian")},
            "gaussian_estimation": tool.gaussian_estimation(),
            "estimate": {"gaussian|n^-1/5": tool.estimate_item("gaussian", "n^-1/5")},
            "simulate": {"presample-0": tool.simulate_item("presample-0")}},
        "whittle": [tool.whittle_item(0)],
    }
    paths = {}
    for name, data in sections.items():
        paths[name] = str(tmp / f"{name}.json")
        tool.write_json(paths[name], data)
    return paths


def _compare(a, b):
    """compare's exit code and its report per section."""
    run = subprocess.run([sys.executable, SCRIPT, "compare", a, b],
                         capture_output=True, text=True, timeout=120)
    assert run.stderr == ""
    return run.returncode, dict(re.findall(r"^== (\S+): (.*?)(?=^== |\Z)", run.stdout,
                                           flags=re.M | re.S))


def _largest_shift(report):
    return [float(v) for v in re.search(r"largest shift (\S+) abs, (\S+) rel",
                                        report).groups()]


def _first_leaf(tree, wanted):
    """(container, key) of the first leaf of a JSON tree that passes ``wanted``."""
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        found = (_first_leaf(value, wanted) if isinstance(value, (dict, list))
                 else (tree, key) if wanted(value) else None)
        if found:
            return found
    return None


def _edited_copy(path, tmp_path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    out = str(tmp_path / f"edited-{os.path.basename(path)}")
    with open(out, "w") as fh:
        json.dump(data, fh)
    return out


@pytest.mark.parametrize("name", ["spec", "nw", "whittle"])
def test_a_dump_equals_itself(dumps, name):
    code, reports = _compare(dumps[name], dumps[name])
    assert code == 0
    assert reports
    for report in reports.values():
        assert report.startswith("same")
        assert _largest_shift(report) == [0.0, 0.0]


@pytest.mark.parametrize("name", ["spec", "nw", "whittle"])
def test_a_float_scaled_by_1e_12_is_found_in_its_section(dumps, tmp_path, name):
    def is_float(value):
        return isinstance(value, float) and math.isfinite(value) and value != 0.0

    def scale_one_leaf_per_section(data):
        for section in data.values() if isinstance(data, dict) else [data]:
            found = _first_leaf(section, is_float)
            if found:
                container, key = found
                container[key] *= 1.0 + 1e-12
            else:  # a section of CSV text
                container, key = _first_leaf(section, lambda v: isinstance(v, str))
                container[key] += "\n"

    code, reports = _compare(dumps[name], _edited_copy(dumps[name], tmp_path,
                                                       scale_one_leaf_per_section))
    assert code == 1
    for report in reports.values():
        assert report.startswith("differs")
        text_moved = re.search(r"non-numeric leaves: \d+, changed 1\n", report)
        assert text_moved or 0.0 < _largest_shift(report)[1] < 1e-11


def test_changed_p_value_and_start_cell_are_counted(dumps, tmp_path):
    def move_p_value(data):
        data["ckc"][next(iter(data["ckc"]))]["p_values"][0]["p_value"] += 0.01

    code, reports = _compare(dumps["spec"],
                             _edited_copy(dumps["spec"], tmp_path, move_p_value))
    assert code == 1
    assert re.search(r"changed p_value: 1 of \d+", reports["ckc"])
    assert all(report.startswith("same") for name, report in reports.items() if name != "ckc")


def test_statistic_and_block_value_shifts_are_named(dumps, tmp_path):
    def scale_statistics(data):
        data["ckc"][next(iter(data["ckc"]))]["p_values"][0]["t_normalized"] *= 1.0 + 1e-12
        result = next(iter(data["pruned_tiles"].values()))[0]
        result["by_block"][0] *= 1.0 + 1e-12
        result["subsample_values"][-1] *= 1.0 + 1e-12

    code, reports = _compare(dumps["spec"],
                             _edited_copy(dumps["spec"], tmp_path, scale_statistics))
    assert code == 1
    for section, key in [("ckc", "t_normalized"), ("pruned_tiles", "by_block"),
                         ("pruned_tiles", "subsample_values")]:
        rel = float(re.search(rf"{key}: largest shift \S+ abs, (\S+) rel",
                              reports[section]).group(1))
        assert 0.0 < rel < 1e-11


@pytest.mark.parametrize("argv", [[], ["compare", "a.json"], ["dump", "size", "out.json"]])
def test_usage_errors_exit_2(argv):
    run = subprocess.run([sys.executable, SCRIPT, *argv], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 2
    assert "usage:" in run.stderr
