"""Shared session fixtures: the heavy Monte Carlo runs used by both the
acceptance suite and the statistical property tests."""

import os

import numpy as np
import pytest

from slmcoint import (run_estimation_study, run_coverage_study, run_size_study,
                      fit_artfima00, fit_arfima00, periodogram, whittle_objective)
from slmcoint.whittle import ARTFIMA_D_RANGE, ARTFIMA_LAM_RANGE

import acceptance_configs as acc

THREADS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def table1_study():
    return run_estimation_study(acc.TABLE1, threads=THREADS)


@pytest.fixture(scope="session")
def coverage_study():
    return run_coverage_study(acc.COVERAGE, threads=THREADS)


@pytest.fixture(scope="session")
def size_lm_study():
    return run_size_study(acc.SIZE_LM, threads=THREADS)


@pytest.fixture(scope="session")
def size_slm_study():
    return run_size_study(acc.SIZE_SLM, threads=THREADS)


def _whittle_one(rep):
    z = acc.whittle_series(rep)
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
    """The Whittle fits (ARTFIMA and ARFIMA) of every acceptance series."""
    from concurrent.futures import ProcessPoolExecutor
    reps = range(acc.WHITTLE_REPLICATIONS)
    if THREADS > 1:
        with ProcessPoolExecutor(max_workers=THREADS) as pool:
            return list(pool.map(_whittle_one, reps))
    return [_whittle_one(r) for r in reps]
