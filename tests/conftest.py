"""Shared session fixtures: the heavy Monte Carlo runs used by both the
acceptance suite and the statistical property tests."""

import os

import numpy as np
import pytest

from slmcoint import run_study, periodogram, whittle_objective
from slmcoint.whittle import ARTFIMA_D_RANGE, ARTFIMA_LAM_RANGE

import acceptance_configs as acc

THREADS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def table1_study():
    return run_study(acc.TABLE1, threads=THREADS)


@pytest.fixture(scope="session")
def coverage_study():
    return run_study(acc.COVERAGE, threads=THREADS)


@pytest.fixture(scope="session")
def size_lm_study():
    return run_study(acc.SIZE_LM, threads=THREADS)


@pytest.fixture(scope="session")
def size_slm_study():
    return run_study(acc.SIZE_SLM, threads=THREADS)


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
    return [{"d_hat": art.d_hat, "lambda_hat": art.lambda_hat,
             "objective": art.objective,
             "grid_objective": _grid_scan_minimum(acc.whittle_series(rep)),
             "mse_artfima": art.mse, "mse_arfima": arf.mse}
            for rep, (art, arf) in enumerate(acc.whittle_mc(THREADS))]
