"""The four benchmark workloads: inputs made from a seed, the work, and the
outputs that the reference check compares.

Each workload hands the library only generated configs and data.  Library
functions are looked up on their module at call time (``slmcoint.mc.run_study``
and so on), so the tracing wrappers see every call.

- ``estimation`` and ``size`` are Monte Carlo studies.  The seed picks one of
  ``len(MASTER_SEEDS)`` master seeds, whose tables are recorded.
- ``whittle`` and ``ckc`` are lists of items.  Items come from a fixed pool
  whose outputs are recorded; the seed picks the order.  A round is a batch
  of ``batch_size`` items.
"""

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
REFERENCE = os.path.join(ROOT, "perfbench", "reference")

WORKLOADS = ("estimation", "size", "whittle", "ckc")
STUDY_WORKLOADS = ("estimation", "size")

MASTER_SEEDS = tuple(20250808 + 1000 * k for k in range(8))
ESTIMATION_REPS = 100
SIZE_REPS = 50

WHITTLE_POOL = 256
WHITTLE_BATCH = 20
WHITTLE_BASE = 7321
CKC_LENGTHS = (59, 75, 91, 106, 122, 138, 154, 170)
CKC_PER_LENGTH = 6
CKC_BASE = 5417


def import_library():
    if not os.path.isdir(os.path.join(SRC, "slmcoint")):
        raise FileNotFoundError(f"library source not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import slmcoint  # noqa: F401
    import slmcoint.cli  # noqa: F401
    return slmcoint


def master_seed(seed):
    return MASTER_SEEDS[seed % len(MASTER_SEEDS)]


# ------------------------------------------------------------------ studies

def study_configs(workload, mseed):
    """The Table-1 estimation config, or the two acceptance size cells,
    at the benchmark's replication counts."""
    from slmcoint.mc import StudyConfig
    if workload == "estimation":
        return [StudyConfig(
            study_kind="estimation", n=1000, replications=ESTIMATION_REPS,
            d_values=(0.0, 0.2, 0.4), memory_settings=("lm", "SLM1", "SLM3"),
            bandwidth_exponents=(-1.0 / 3.0, -0.2), master_seed=mseed)]
    return [
        StudyConfig(study_kind="size", n=500, replications=SIZE_REPS,
                    d_values=(0.2,), memory_settings=("lm",),
                    bandwidth_exponents=(-1.0 / 3.0,), block_rules=((1.0, 0.5),),
                    nominal_levels=(0.05,), kernel="gaussian", master_seed=mseed),
        StudyConfig(study_kind="size", n=500, replications=SIZE_REPS,
                    d_values=(0.1,), memory_settings=("SLM3",),
                    bandwidth_exponents=(-0.2,), block_rules=((4.0, 0.5),),
                    nominal_levels=(0.01,), kernel="gaussian", master_seed=mseed),
    ]


def study_items(configs):
    return sum(c.replications for c in configs)


def run_studies(configs, threads):
    """Run each study; returns its tables and histograms as JSON data."""
    import slmcoint.mc
    out = []
    for config in configs:
        result = slmcoint.mc.run_study(config, threads=threads)
        out.append({
            "tables": result.tables,
            "histograms": {"|".join(repr(k) for k in key): [float(v) for v in values]
                           for key, values in result.histograms.items()},
        })
    return out


# ------------------------------------------------------------------ whittle

def whittle_item(index):
    """Simulate ARTFIMA(0, 1.0, 0.12, 0) with n=2000 and fit both models
    (one replication of the criterion-6 Monte Carlo)."""
    import numpy as np
    import slmcoint.whittle as w
    rng = np.random.default_rng([WHITTLE_BASE, 7, index])
    z = w.simulate_artfima00(2000, d=1.0, lam=0.12, sigma2=1.0, rng=rng)
    art = w.fit_artfima00(z)
    arf = w.fit_arfima00(z)
    return {"artfima": [art.d_hat, art.lambda_hat, art.objective],
            "arfima": [arf.d_hat, arf.lambda_hat, arf.objective]}


# ---------------------------------------------------------------------- ckc

def ckc_pool():
    """(country id, length) for every pool country, grouped by length."""
    return [(i * CKC_PER_LENGTH + j, n)
            for i, n in enumerate(CKC_LENGTHS) for j in range(CKC_PER_LENGTH)]


def write_country(path, country, n):
    """A synthetic country after the model of demos/ckc_workflow.py:
    log-emissions follow an inverted U in log-GDP."""
    import numpy as np
    rng = np.random.default_rng([CKC_BASE, country])
    years = np.arange(1950, 1950 + n)
    lgdp = 9.0 + 0.02 * np.arange(n) + 0.01 * np.cumsum(rng.standard_normal(n))
    lco2 = -40.0 + 9.0 * lgdp - 0.47 * lgdp ** 2 + 0.02 * rng.standard_normal(n)
    with open(path, "w", newline="\n") as fh:
        fh.write("year,gdp,co2\n")
        for i in range(n):
            fh.write(f"{years[i]},{np.exp(lgdp[i]):.6f},{np.exp(lco2[i]):.6f}\n")


def write_countries(workdir):
    os.makedirs(workdir, exist_ok=True)
    for country, n in ckc_pool():
        write_country(os.path.join(workdir, f"country{country}.csv"), country, n)


def ckc_item(index, workdir, tag):
    """``slmcoint ckc`` on one pool country; returns per p-value row
    [p_value, blocks, *theta_hat]."""
    import slmcoint.cli
    data = os.path.join(workdir, f"country{index}.csv")
    out = os.path.join(workdir, f"out{index}-{tag}")
    code = slmcoint.cli.main(["ckc", "--data", data, "--country", f"C{index}",
                              "--out", out])
    if code != 0:
        raise RuntimeError(f"slmcoint ckc exited {code} on country {index}")
    with open(os.path.join(out, "ckc_report.json")) as fh:
        report = json.load(fh)
    shutil.rmtree(out)
    n = report["n"]
    return [[row["p_value"], n - row["block_size"] + 1] + row["theta_hat"]
            for row in report["p_values"]]


# ------------------------------------------------------------------ batches

def item_order(workload, seed):
    """The seeded order in which pool items are consumed."""
    import numpy as np
    rng = np.random.default_rng(seed)
    if workload == "whittle":
        return [int(i) for i in rng.permutation(WHITTLE_POOL)]
    # one country of every length per round, so each round costs the same
    perms = [rng.permutation(CKC_PER_LENGTH) for _ in CKC_LENGTHS]
    return [i * CKC_PER_LENGTH + int(perms[i][r])
            for r in range(CKC_PER_LENGTH) for i in range(len(CKC_LENGTHS))]


def batch_size(workload):
    return WHITTLE_BATCH if workload == "whittle" else len(CKC_LENGTHS)


def batch(workload, seed, round_index):
    order = item_order(workload, seed)
    size = batch_size(workload)
    return [order[(round_index * size + j) % len(order)] for j in range(size)]


def run_item(workload, index, workdir, tag):
    if workload == "whittle":
        return whittle_item(index)
    return ckc_item(index, workdir, tag)


def pool_item(args):
    workload, index, workdir, tag = args
    return run_item(workload, index, workdir, tag)


def pool_ping(_):
    import time
    time.sleep(0.3)
    return os.getpid()
