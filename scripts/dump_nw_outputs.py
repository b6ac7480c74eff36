"""Write every output of the Nadaraya-Watson paths as JSON: the tables of the
perfbench ``estimation`` config on all 8 master seeds, a coverage study
under each kernel, a Gaussian estimation study, and the ``estimate.csv`` of
``slmcoint estimate`` with the centered variance (whose fitted values sum
at the observations themselves) under each kernel.

Run from the root of a checkout, so that its own ``src`` is imported:

    PYTHONPATH=src python3 scripts/dump_nw_outputs.py nw.json

Floats are written by ``repr``, so the files of two checkouts compare byte
for byte (``cmp a.json b.json``) exactly when every estimate, interval and
fraction is bit-identical.  The studies run on 2 workers; their results do
not depend on the worker count.
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
from workloads import MASTER_SEEDS, study_configs  # noqa: E402

KERNELS = ("epanechnikov", "gaussian")
# shared by the coverage and Gaussian estimation studies
SMALL_STUDY = dict(n=500, d_values=(0.0, 0.2, 0.4), memory_settings=("lm", "SLM1", "SLM3"),
                   bandwidth_exponents=(-1.0 / 3.0, -0.2))


def tables(config):
    return mc.run_study(config, threads=2).tables


def estimation_outputs():
    return {str(mseed): tables(study_configs("estimation", mseed)[0])
            for mseed in MASTER_SEEDS}


def coverage_outputs():
    # 0.0 lies at the edge of the data and 3.0 beyond it, where a window
    # can be empty and the interval undefined
    return {kernel: tables(mc.StudyConfig(
        study_kind="coverage", replications=100, kernel=kernel,
        eval_points=(0.0, 0.25, 0.5, 0.75, 0.95, 3.0), **SMALL_STUDY))
        for kernel in KERNELS}


def gaussian_estimation_outputs():
    return tables(mc.StudyConfig(study_kind="estimation", replications=50,
                                 kernel="gaussian", grid_points=50, **SMALL_STUDY))


def write_series(path, n=500, seed=1919):
    """A random walk scaled onto [-0.5, 1.5], with y = sin(3x) + 0.2 e."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    x = 2.0 * (x - x.min()) / (x.max() - x.min()) - 0.5
    y = np.sin(3.0 * x) + 0.2 * rng.standard_normal(n)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(x, y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")


def estimate_outputs(workdir):
    data = os.path.join(workdir, "series.csv")
    write_series(data)
    out = {}
    for kernel in KERNELS:
        for rule in ("n^-1/3", "n^-1/5"):
            outdir = os.path.join(workdir, f"estimate-{kernel}-{rule[2:].replace('/', '_')}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["estimate", "--data", data, "--kernel", kernel,
                                 "--bandwidth-rule", rule, "--variance", "centered",
                                 "--grid-start", "-1", "--grid-stop", "2",
                                 "--grid-points", "151", "--out", outdir])
            if code != 0:
                raise RuntimeError(f"slmcoint estimate exited {code} on {kernel}/{rule}")
            with open(os.path.join(outdir, "estimate.csv")) as fh:
                out[f"{kernel}|{rule}"] = fh.read()
    return out


def main(path):
    dump = {"estimation": estimation_outputs(),
            "coverage": coverage_outputs(),
            "gaussian_estimation": gaussian_estimation_outputs()}
    with tempfile.TemporaryDirectory() as workdir:
        dump["estimate"] = estimate_outputs(workdir)
    with open(path, "w", newline="\n") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
