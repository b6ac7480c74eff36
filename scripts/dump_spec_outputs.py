"""Write every output of the perfbench workloads that run the specification
test as JSON: the tables and histograms of both size configs on all 8 master
seeds, the ``slmcoint ckc`` report of all 48 pool countries, and the
``slmcoint spec-test`` outputs (``spec_test.json`` and the printed line) for
the linear and quadratic families under the Gaussian and Epanechnikov
kernels on one fixed 400-point series, and ``run_spec_test`` on inputs where
the quadrature's node tiles reach only part of the observations (cut weight
supports, a path with a gap, observations at the Epanechnikov reach, a
59-point quadratic series).

Run from the root of a checkout, so that its own ``src`` is imported:

    PYTHONPATH=src python3 scripts/dump_spec_outputs.py spec.json

Floats are written by ``repr``, so the files of two checkouts compare byte
for byte (``cmp a.json b.json``) exactly when every statistic, p-value and
rejection count is bit-identical.  The studies run on 2 workers; their
results do not depend on the worker count.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import slmcoint.cli as cli  # noqa: E402
import slmcoint.mc as mc  # noqa: E402
import slmcoint.spec_test as spec_test  # noqa: E402
from workloads import MASTER_SEEDS, ckc_pool, study_configs, write_country  # noqa: E402


def size_outputs(mseed):
    out = []
    for config in study_configs("size", mseed):
        result = mc.run_study(config, threads=2)
        out.append({
            "tables": result.tables,
            "histograms": {"|".join(repr(k) for k in key): [float(v) for v in values]
                           for key, values in result.histograms.items()},
        })
    return out


def ckc_report(workdir, country, n):
    data = os.path.join(workdir, f"country{country}.csv")
    out = os.path.join(workdir, f"out{country}")
    write_country(data, country, n)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["ckc", "--data", data, "--country", f"C{country}",
                         "--out", out])
    if code != 0:
        raise RuntimeError(f"slmcoint ckc exited {code} on country {country}")
    with open(os.path.join(out, "ckc_report.json")) as fh:
        return json.load(fh)


def write_spec_series(path, n=400, seed=4242):
    """A random-walk regressor with y = 1 + x - 0.05 x^2 + 0.3 e."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n)) * 0.5
    y = 1.0 + x - 0.05 * x ** 2 + 0.3 * rng.standard_normal(n)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(x, y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")


def spec_test_outputs(workdir):
    data = os.path.join(workdir, "spec_series.csv")
    write_spec_series(data)
    out = {}
    for family in ("linear", "quadratic"):
        for kernel in ("gaussian", "epanechnikov"):
            outdir = os.path.join(workdir, f"spec-{family}-{kernel}")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["spec-test", "--data", data, "--family", family,
                                 "--kernel", kernel, "--d", "0.1", "--out", outdir])
            if code != 0:
                raise RuntimeError(f"slmcoint spec-test exited {code} on "
                                   f"{family}/{kernel}")
            with open(os.path.join(outdir, "spec_test.json")) as fh:
                out[f"{family}|{kernel}"] = {"spec_test": json.load(fh),
                                             "stdout": stdout.getvalue()}
    return out


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
        domain = spec_test.integration_domain(x, h, spec_test.uniform_weight())
        nodes = spec_test._quad_nodes(domain, quad_cells)[0]
        for i in range(0, quad_cells, step):
            values += [nodes[i] - h, np.nextafter(nodes[i] - h, nodes[i])]
        for i in range(step - 1, quad_cells, step):
            values += [nodes[i] + h, np.nextafter(nodes[i] + h, nodes[i])]
    values = [v for v in values if x.min() < v < x.max()]
    inner = [k for k in range(n) if k not in (np.argmin(x), np.argmax(x))]
    x[inner[:len(values)]] = values
    return x, y


def pruned_tile_outputs():
    """``run_spec_test`` (every field and the block-ordered values) where
    node tiles reach only part of the observations: a path cut by the weight
    supports +-10 and +-20, a path in two clusters whose middle tiles reach
    no observation, observations at exactly h from the edge nodes of the
    tiles under the Epanechnikov kernel, and a 59-point quadratic series in
    logs with the CKC block sizes."""
    both = ("gaussian", "epanechnikov")
    x, y = _walk(400, 4)
    gap_x, gap_y = _walk(300, 41)
    gap_x[150:] += 80.0
    gap_x -= 40.0
    rng = np.random.default_rng(59)
    short_x = 9.0 + 0.02 * np.arange(59) + 0.01 * np.cumsum(rng.standard_normal(59))
    short_y = -40.0 + 9.0 * short_x - 0.47 * short_x ** 2 + 0.01 * rng.standard_normal(59)
    lq = ("linear", "quadratic")
    # (name, x, y, families, kernels, weight support, block sizes, cells)
    cases = [("support10", x, y, lq, both, (-10.0, 10.0), (22, 89), 1024),
             ("support20", x, y, lq, both, (-20.0, 20.0), (22, 89), 1024),
             ("gappy", gap_x, gap_y, lq, both, (-100.0, 100.0), (10, 40), 1024),
             ("reach-edge", *_reach_edge_walk(300, 40, 512, 23), lq, ("epanechnikov",),
              (-100.0, 100.0), (40,), 512),
             ("short-quadratic", short_x, short_y, ("quadratic",), both,
              (-100.0, 100.0), (15, 30, 46), 2048)]
    out = {}
    for name, x, y, families, kernels, support, sizes, cells in cases:
        n = x.shape[0]
        for family in families:
            for kernel in kernels:
                results = spec_test.run_spec_test(
                    x, y, family, n ** -0.2, kernel, spec_test.uniform_weight(*support),
                    "slm", 0.1, lam=n ** -0.2,
                    blocks=[(b, b ** -0.2, b ** -0.2) for b in sizes], quad_cells=cells)
                out[f"{name}|{family}|{kernel}"] = [
                    dict(r.to_dict(), by_block=[float(v) for v in r.subsample_by_block])
                    for r in results]
    return out


def main(path):
    dump = {"size": {str(mseed): size_outputs(mseed) for mseed in MASTER_SEEDS}}
    dump["pruned_tiles"] = pruned_tile_outputs()
    with tempfile.TemporaryDirectory() as workdir:
        dump["ckc"] = {str(country): ckc_report(workdir, country, n)
                       for country, n in ckc_pool()}
        dump["spec_test"] = spec_test_outputs(workdir)
    with open(path, "w", newline="\n") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
