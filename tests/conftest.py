"""Shared session fixtures: the heavy Monte Carlo runs used by both the
acceptance suite and the statistical property tests."""

import os

import numpy as np
import pytest

from slmcoint import (StudyConfig, run_estimation_study, run_coverage_study,
                      run_size_study, fit_artfima00, fit_arfima00,
                      simulate_artfima00, periodogram, whittle_objective)
from slmcoint.whittle import ARTFIMA_D_RANGE, ARTFIMA_LAM_RANGE

THREADS = min(2, os.cpu_count() or 1)
MASTER_SEED = 20250808


@pytest.fixture(scope="session")
def table1_study():
    """Estimation-error table at full replication count: LM / SLM1 / SLM3,
    d in {0, 0.2, 0.4}, bandwidths n^-1/3 and n^-1/5, N=1000, R=2000."""
    config = StudyConfig(
        study_kind="estimation", n=1000, replications=2000,
        d_values=(0.0, 0.2, 0.4),
        memory_settings=("lm", "SLM1", "SLM3"),
        bandwidth_exponents=(-1.0 / 3.0, -0.2),
        master_seed=MASTER_SEED)
    return run_estimation_study(config, threads=THREADS)


@pytest.fixture(scope="session")
def coverage_study():
    """Coverage table: LM and SLM3 at d in {0, 0.4}, both bandwidths,
    x in {0.25, 0.5, 0.75, 0.95}, N=1000, R=2000, nominal 95%."""
    config = StudyConfig(
        study_kind="coverage", n=1000, replications=2000,
        d_values=(0.0, 0.4),
        memory_settings=("lm", "SLM3"),
        bandwidth_exponents=(-1.0 / 3.0, -0.2),
        master_seed=MASTER_SEED)
    return run_coverage_study(config, threads=THREADS)


@pytest.fixture(scope="session")
def size_lm_study():
    """Empirical size, LM d=0.2, h=n^-1/3, b=[n^0.5], level 0.05, N=500, R=500,
    uniform weight on [-100, 100], 1024 quadrature cells."""
    config = StudyConfig(
        study_kind="size", n=500, replications=500,
        d_values=(0.2,), memory_settings=("lm",),
        bandwidth_exponents=(-1.0 / 3.0,),
        block_rules=((1.0, 0.5),), nominal_levels=(0.05,),
        weight_support=(-100.0, 100.0),
        kernel="gaussian", master_seed=MASTER_SEED)
    return run_size_study(config, threads=THREADS)


@pytest.fixture(scope="session")
def size_slm_study():
    """Empirical size, SLM3 d=0.1, h=n^-1/5, b=[4n^0.5], level 0.01,
    N=500, R=500, uniform weight on [-100, 100], 1024 quadrature cells."""
    config = StudyConfig(
        study_kind="size", n=500, replications=500,
        d_values=(0.1,), memory_settings=("SLM3",),
        bandwidth_exponents=(-0.2,),
        block_rules=((4.0, 0.5),), nominal_levels=(0.01,),
        weight_support=(-100.0, 100.0),
        kernel="gaussian", master_seed=MASTER_SEED)
    return run_size_study(config, threads=THREADS)


def _whittle_one(rep):
    rng = np.random.default_rng([MASTER_SEED, 7, rep])
    z = simulate_artfima00(2000, d=1.0, lam=0.12, sigma2=1.0, rng=rng)
    art = fit_artfima00(z)
    arf = fit_arfima00(z)
    return {"d_hat": art.d_hat, "lambda_hat": art.lambda_hat,
            "objective": art.objective, "grid_objective": _grid_scan_minimum(z),
            "mse_artfima": art.mse, "mse_arfima": arf.mse}


def _grid_scan_minimum(z):
    """Least objective of z over the ARTFIMA (d, lam) grid the fits once
    started from: d in steps of 0.05 over [-1, 3], 20 log-spaced lam."""
    freqs, pgram = periodogram(z)
    d_grid = np.arange(ARTFIMA_D_RANGE[0], ARTFIMA_D_RANGE[1] + 1e-9, 0.05)
    lam_grid = np.geomspace(*ARTFIMA_LAM_RANGE, 20)
    return float(np.min(whittle_objective(d_grid[:, None], lam_grid, freqs, pgram)))


@pytest.fixture(scope="session")
def whittle_mc():
    """100 Whittle fits (ARTFIMA and ARFIMA) of simulated
    ARTFIMA(0, d=1.0, lam=0.12, 0) noise, n=2000."""
    from concurrent.futures import ProcessPoolExecutor
    if THREADS > 1:
        with ProcessPoolExecutor(max_workers=THREADS) as pool:
            return list(pool.map(_whittle_one, range(100)))
    return [_whittle_one(r) for r in range(100)]
