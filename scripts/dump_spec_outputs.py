"""Write every output of the perfbench workloads that run the specification
test as JSON: the tables and histograms of both size configs on all 8 master
seeds, the ``slmcoint ckc`` report of all 48 pool countries, and the
``slmcoint spec-test`` outputs (``spec_test.json`` and the printed line) for
the linear and quadratic families under the Gaussian and Epanechnikov
kernels on one fixed 400-point series.

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import slmcoint.cli as cli  # noqa: E402
import slmcoint.mc as mc  # noqa: E402
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
    import numpy as np
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


def main(path):
    dump = {"size": {str(mseed): size_outputs(mseed) for mseed in MASTER_SEEDS}}
    with tempfile.TemporaryDirectory() as workdir:
        dump["ckc"] = {str(country): ckc_report(workdir, country, n)
                       for country, n in ckc_pool()}
        dump["spec_test"] = spec_test_outputs(workdir)
    with open(path, "w", newline="\n") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
