"""The identity gate of speed changes: dump the outputs of the paths a
change may touch, and compare two dumps.

    python3 scripts/identity.py dump {spec,nw,whittle} OUT
    python3 scripts/identity.py compare A B

``dump`` imports the library from the ``src`` of its own checkout and
writes floats by ``repr``, so the dumps of two checkouts are ``cmp``-equal
exactly when every output is bit-identical.  Studies run on 2 workers,
which does not change their results.
- ``spec``: the perfbench size tables and histograms on all 8 master seeds,
  the ``slmcoint ckc`` reports of the 48 pool countries, ``slmcoint
  spec-test`` on one series, and ``run_spec_test`` on pruned node tiles.
- ``nw``: the perfbench estimation tables on all 8 master seeds, coverage
  and Gaussian estimation studies, ``slmcoint estimate`` on one series, and
  the ``path.csv`` of ``slmcoint simulate`` at four settings.
- ``whittle``: both fits of the 256 pool series.

``compare`` prints, per top-level section, the largest absolute and
relative shift over the numeric leaves, of each Whittle estimate and of the
specification statistic and its block values, the changed non-numeric
leaves, the keys on one side only, how many ckc
p-values and size rejection rates changed, and per model how many Whittle
objectives are lower and higher than A's, with the largest rise relative to
max(1, |W|).  It exits 0 when the files are equal leaf for leaf and 1
otherwise.  Either file may be ``perfbench/reference/whittle.json``, which
is only read.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import slmcoint.cli as cli  # noqa: E402
import slmcoint.mc as mc  # noqa: E402
import slmcoint.spec_test as spec_test  # noqa: E402
import slmcoint.whittle as whittle  # noqa: E402
from workloads import (MASTER_SEEDS, WHITTLE_BASE, WHITTLE_POOL, ckc_pool,  # noqa: E402
                       run_studies, study_configs, write_country)

FAMILIES = ("linear", "quadratic")
KERNELS = ("epanechnikov", "gaussian")
WHITTLE_MODELS = ("artfima00", "arfima00")
# shared by the coverage and Gaussian estimation studies
SMALL_STUDY = dict(n=500, d_values=(0.0, 0.2, 0.4), memory_settings=("lm", "SLM1", "SLM3"),
                   bandwidth_exponents=(-1.0 / 3.0, -0.2))


# ----------------------------------------------------------------- writers

def write_json(path, data):
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_xy(path, x, y):
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(x, y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")


def run_cli(argv, name, write_data=None):
    """``slmcoint *argv --data DATA --out OUT`` in a fresh directory, with
    DATA written by ``write_data(DATA)`` (no ``--data`` when it is None);
    returns the text of OUT/``name`` and the captured stdout."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(stdout):
        data, out = os.path.join(workdir, "data.csv"), os.path.join(workdir, "out")
        if write_data is not None:
            write_data(data)
            argv = [*argv, "--data", data]
        code = cli.main([*argv, "--out", out])
        if code != 0:
            raise RuntimeError(f"slmcoint {' '.join(argv)} exited {code}")
        with open(os.path.join(out, name)) as fh:
            return fh.read(), stdout.getvalue()


def tables(config):
    return run_studies([config], threads=2)[0]["tables"]


# -------------------------------------------------------------------- spec

def size_item(mseed):
    return run_studies(study_configs("size", mseed), threads=2)


def ckc_item(country, n):
    text, _ = run_cli(["ckc", "--country", f"C{country}"], "ckc_report.json",
                      lambda path: write_country(path, country, n))
    return json.loads(text)


def write_spec_series(path, n=400, seed=4242):
    """A random-walk regressor with y = 1 + x - 0.05 x^2 + 0.3 e."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n)) * 0.5
    write_xy(path, x, 1.0 + x - 0.05 * x ** 2 + 0.3 * rng.standard_normal(n))


def spec_test_item(family, kernel):
    text, stdout = run_cli(["spec-test", "--family", family, "--kernel", kernel, "--d", "0.1"],
                           "spec_test.json", write_spec_series)
    return {"spec_test": json.loads(text), "stdout": stdout}


def _walk(n, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    return x, x + 0.05 * x ** 2 + 0.3 * rng.standard_normal(n)


def _reach_edge_walk(n, b, quad_cells, seed):
    """A random walk with inner observations moved to exactly h from the
    first and last node of each node tile, and one float step closer, for
    h = n^-1/5 and h_b = b^-1/5; the extremes, and so the nodes, stay."""
    x, y = _walk(n, seed)
    step = spec_test._TILE_FLOATS // n
    values = []
    for h in (n ** -0.2, b ** -0.2):
        domain = spec_test.integration_domain(x, h, spec_test.DEFAULT_WEIGHT_SUPPORT)
        nodes = spec_test._quad_nodes(domain, quad_cells)[0]
        for i in range(0, quad_cells, step):
            values += [nodes[i] - h, np.nextafter(nodes[i] - h, nodes[i])]
        for i in range(step - 1, quad_cells, step):
            values += [nodes[i] + h, np.nextafter(nodes[i] + h, nodes[i])]
    values = [v for v in values if x.min() < v < x.max()]
    inner = [k for k in range(n) if k not in (np.argmin(x), np.argmax(x))]
    x[inner[:len(values)]] = values
    return x, y


def pruned_tile_items():
    """{name|family|kernel: arguments of ``pruned_tile_item``} where node
    tiles reach only part of the observations: a path cut by the weight
    supports +-10 and +-20, a path in two clusters, observations at exactly
    h from the tiles' edge nodes, and a 59-point quadratic CKC-like series."""
    x, y = _walk(400, 4)
    gap_x, gap_y = _walk(300, 41)
    gap_x[150:] += 80.0
    gap_x -= 40.0
    rng = np.random.default_rng(59)
    short_x = 9.0 + 0.02 * np.arange(59) + 0.01 * np.cumsum(rng.standard_normal(59))
    short_y = -40.0 + 9.0 * short_x - 0.47 * short_x ** 2 + 0.01 * rng.standard_normal(59)
    # (name, x, y, families, kernels, weight support, block sizes, cells)
    cases = [("support10", x, y, FAMILIES, KERNELS, (-10.0, 10.0), (22, 89), 1024),
             ("support20", x, y, FAMILIES, KERNELS, (-20.0, 20.0), (22, 89), 1024),
             ("gappy", gap_x, gap_y, FAMILIES, KERNELS, (-100.0, 100.0), (10, 40), 1024),
             ("reach-edge", *_reach_edge_walk(300, 40, 512, 23), FAMILIES, ("epanechnikov",),
              (-100.0, 100.0), (40,), 512),
             ("short-quadratic", short_x, short_y, ("quadratic",), KERNELS,
              (-100.0, 100.0), (15, 30, 46), 2048)]
    return {f"{name}|{family}|{kernel}": (x, y, family, kernel, support, sizes, cells)
            for name, x, y, families, kernels, support, sizes, cells in cases
            for family in families for kernel in kernels}


def pruned_tile_item(x, y, family, kernel, support, sizes, cells):
    """``run_spec_test``: every field and the block-ordered values."""
    results = spec_test.run_spec_test(
        x, y, family, "n^-0.2", kernel, support, 0.1,
        lam="n^-0.2", blocks=sizes, quad_cells=cells)
    return [dict(r.to_dict(), by_block=[float(v) for v in r.subsample_by_block])
            for r in results]


def dump_spec():
    return {"size": {str(mseed): size_item(mseed) for mseed in MASTER_SEEDS},
            "pruned_tiles": {key: pruned_tile_item(*args)
                             for key, args in pruned_tile_items().items()},
            "ckc": {str(country): ckc_item(country, n) for country, n in ckc_pool()},
            "spec_test": {f"{family}|{kernel}": spec_test_item(family, kernel)
                          for family in FAMILIES for kernel in KERNELS}}


# ---------------------------------------------------------------------- nw

def estimation_item(mseed):
    return tables(study_configs("estimation", mseed)[0])


def coverage_item(kernel):
    # 0.0 lies at the edge of the data and 3.0 beyond it, where a window
    # can be empty and the interval undefined
    return tables(mc.StudyConfig(study_kind="coverage", replications=100, kernel=kernel,
                                 eval_points=(0.0, 0.25, 0.5, 0.75, 0.95, 3.0),
                                 **SMALL_STUDY))


def gaussian_estimation():
    return tables(mc.StudyConfig(study_kind="estimation", replications=50,
                                 kernel="gaussian", grid_points=50, **SMALL_STUDY))


def write_nw_series(path, n=500, seed=1919):
    """A random walk scaled onto [-0.5, 1.5], with y = sin(3x) + 0.2 e."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    x = 2.0 * (x - x.min()) / (x.max() - x.min()) - 0.5
    write_xy(path, x, np.sin(3.0 * x) + 0.2 * rng.standard_normal(n))


def estimate_item(kernel, rule):
    text, _ = run_cli(["estimate", "--kernel", kernel, "--bandwidth", rule,
                       "--variance", "centered", "--grid-start", "-1", "--grid-stop", "2",
                       "--grid-points", "151"], "estimate.csv", write_nw_series)
    return text


# ``slmcoint simulate`` options of each simulate item, all at n = 500
SIMULATE_ITEMS = {"defaults": [], "presample-0": ["--presample", "0"],
                  "slm": ["--d", "0.3", "--lam", "0.25"], "psi-0.9": ["--psi", "0.9"]}


def simulate_item(name):
    text, _ = run_cli(["simulate", "--n", "500", *SIMULATE_ITEMS[name]], "path.csv")
    return text


def dump_nw():
    return {"estimation": {str(mseed): estimation_item(mseed) for mseed in MASTER_SEEDS},
            "coverage": {kernel: coverage_item(kernel) for kernel in KERNELS},
            "gaussian_estimation": gaussian_estimation(),
            "estimate": {f"{kernel}|{rule}": estimate_item(kernel, rule)
                         for kernel in KERNELS for rule in ("n^-1/3", "n^-1/5")},
            "simulate": {name: simulate_item(name) for name in SIMULATE_ITEMS}}


# ----------------------------------------------------------------- whittle

def whittle_item(index):
    """Both fits of pool series ``index``."""
    rng = np.random.default_rng([WHITTLE_BASE, 7, index])
    z = whittle.simulate_artfima00(2000, d=1.0, lam=0.12, sigma2=1.0, rng=rng)
    return {"index": index, **{model: getattr(whittle, f"fit_{model}")(z).to_dict()
                               for model in WHITTLE_MODELS}}


def dump_whittle():
    return [whittle_item(index) for index in range(WHITTLE_POOL)]


SECTIONS = {"spec": dump_spec, "nw": dump_nw, "whittle": dump_whittle}


# ----------------------------------------------------------------- compare

MISSING = object()
WHITTLE_FIELDS = ("d_hat", "lambda_hat", "objective")
# the leaves whose largest shift is printed by name
COMPARED = WHITTLE_FIELDS + ("t_normalized", "by_block", "subsample_values")
# ckc p-values, size rejection rates
COUNTED = ("p_value", "value")


def load_sections(path):
    """The top-level sections of a dump.  A Whittle dump, or the benchmark
    reference ``{index: {model: [d_hat, lambda_hat, objective]}}``, is the one
    section ``whittle``: {index: {model: fit}}."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        return {"whittle": {str(item["index"]): {k: v for k, v in item.items() if k != "index"}
                            for item in data}}
    if all(key.isdigit() for key in data):
        return {"whittle": {index: {f"{model}00": dict(zip(WHITTLE_FIELDS, values))
                                    for model, values in fits.items()}
                            for index, fits in data.items()}}
    return data


def leaves(a, b, path=()):
    """(path, a, b) for each leaf of two JSON trees; a side is MISSING where
    only the other holds the key or item."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from leaves(a.get(key, MISSING), b.get(key, MISSING), path + (key,))
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(itertools.zip_longest(a, b, fillvalue=MISSING)):
            yield from leaves(x, y, path + (i,))
    else:
        yield path, a, b


def shift(a, b):
    """|b - a| and |b - a| / |a|, inf where either is undefined."""
    delta = abs(b - a)
    delta = math.inf if math.isnan(delta) else delta
    return delta, delta / abs(a) if a else (math.inf if delta else 0.0)


def compare_section(name, a, b):
    """Print the shift report of one section; returns whether it differs."""
    if MISSING in (a, b):
        print(f"== {name}: only in {'A' if b is MISSING else 'B'}")
        return True
    numeric = changed = other = other_changed = 0
    largest = {None: (0.0, 0.0)}  # leaf name (None: every leaf) -> (abs, rel)
    counted = {key: (set(), set()) for key in COUNTED}  # compared, changed
    objectives = {}  # model -> [lower, higher, largest rise / max(1, |A|)]
    one_sided = {"A": [], "B": []}  # the keys only that file holds
    for path, x, y in leaves(a, b):
        if MISSING in (x, y):
            one_sided["A" if y is MISSING else "B"].append("/".join(map(str, path)))
            continue
        same = repr(x) == repr(y)
        # the leaf, or the list it is an item of, is named by its last key
        cut = max((i + 1 for i, p in enumerate(path) if isinstance(p, str)), default=0)
        key = path[cut - 1] if cut else None
        if key in counted:
            compared, moved = counted[key]
            compared.add(path[:cut])
            if not same:
                moved.add(path[:cut])
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            other, other_changed = other + 1, other_changed + (not same)
            continue
        numeric, changed = numeric + 1, changed + (not same)
        if key == "objective" and cut > 1:
            tally = objectives.setdefault(path[cut - 2], [0, 0, 0.0])
            tally[0], tally[1] = tally[0] + (y < x), tally[1] + (y > x)
            tally[2] = max(tally[2], (y - x) / max(1.0, abs(x)))
        delta = (0.0, 0.0) if same else shift(x, y)
        for k in (None, key) if key in COMPARED else (None,):
            largest[k] = tuple(map(max, largest.get(k, delta), delta))
    differs = bool(changed or other_changed or one_sided["A"] or one_sided["B"])
    print(f"== {name}: {'differs' if differs else 'same'}")
    print(f"  numeric leaves: {numeric}, changed {changed}, "
          f"largest shift {largest[None][0]:.3g} abs, {largest[None][1]:.3g} rel")
    for key in COMPARED:
        if key in largest:
            print(f"  {key}: largest shift {largest[key][0]:.3g} abs, {largest[key][1]:.3g} rel")
    print(f"  non-numeric leaves: {other}, changed {other_changed}")
    for side, paths in one_sided.items():
        shown = " ".join(paths[:3]) + (" ..." if len(paths) > 3 else "")
        print(f"  keys only in {side}: {len(paths)} {shown}".rstrip())
    for key, (compared, moved) in counted.items():
        if compared:
            print(f"  changed {key}: {len(moved)} of {len(compared)}")
    for model, (lower, higher, rise) in sorted(objectives.items()):
        print(f"  {model} objectives: {lower} lower, {higher} higher than A's; "
              f"largest rise {rise:.3g} of max(1, |A|)")
    return differs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    dump = modes.add_parser("dump", help="write one section's outputs as JSON")
    dump.add_argument("section", choices=SECTIONS)
    dump.add_argument("out")
    diff = modes.add_parser("compare", help="report the shifts between two dumps")
    diff.add_argument("a")
    diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        try:
            a, b = load_sections(args.a), load_sections(args.b)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        return int(any([compare_section(name, a.get(name, MISSING), b.get(name, MISSING))
                        for name in sorted(a.keys() | b.keys())]))
    write_json(args.out, SECTIONS[args.section]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
