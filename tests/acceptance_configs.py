"""The five full-size acceptance studies, importable by the test fixtures
and by any script that times or reruns the very same studies.

The four Monte Carlo tables are ``StudyConfig``s, run by ``run_study``.
The Whittle Monte Carlo fits both models (``fit_artfima00`` and
``fit_arfima00``) to each of ``WHITTLE_REPLICATIONS`` series
``whittle_series(rep)``.
"""

import numpy as np

from slmcoint import StudyConfig, simulate_artfima00

MASTER_SEED = 20250808

# Estimation-error table at full replication count: LM / SLM1 / SLM3,
# d in {0, 0.2, 0.4}, bandwidths n^-1/3 and n^-1/5, N=1000, R=2000.
TABLE1 = StudyConfig(
    study_kind="estimation", n=1000, replications=2000,
    d_values=(0.0, 0.2, 0.4),
    memory_settings=("lm", "SLM1", "SLM3"),
    bandwidth_exponents=(-1.0 / 3.0, -0.2),
    master_seed=MASTER_SEED)

# Coverage table: LM and SLM3 at d in {0, 0.4}, both bandwidths,
# x in {0.25, 0.5, 0.75, 0.95}, N=1000, R=2000, nominal 95%.
COVERAGE = StudyConfig(
    study_kind="coverage", n=1000, replications=2000,
    d_values=(0.0, 0.4),
    memory_settings=("lm", "SLM3"),
    bandwidth_exponents=(-1.0 / 3.0, -0.2),
    master_seed=MASTER_SEED)

# Empirical size, LM d=0.2, h=n^-1/3, b=[n^0.5], level 0.05, N=500, R=500,
# uniform weight on [-100, 100], 1024 quadrature cells.
SIZE_LM = StudyConfig(
    study_kind="size", n=500, replications=500,
    d_values=(0.2,), memory_settings=("lm",),
    bandwidth_exponents=(-1.0 / 3.0,),
    block_rules=((1.0, 0.5),), nominal_levels=(0.05,),
    weight_support=(-100.0, 100.0),
    kernel="gaussian", master_seed=MASTER_SEED)

# Empirical size, SLM3 d=0.1, h=n^-1/5, b=[4n^0.5], level 0.01, N=500,
# R=500, uniform weight on [-100, 100], 1024 quadrature cells.
SIZE_SLM = StudyConfig(
    study_kind="size", n=500, replications=500,
    d_values=(0.1,), memory_settings=("SLM3",),
    bandwidth_exponents=(-0.2,),
    block_rules=((4.0, 0.5),), nominal_levels=(0.01,),
    weight_support=(-100.0, 100.0),
    kernel="gaussian", master_seed=MASTER_SEED)

WHITTLE_REPLICATIONS = 100


def whittle_series(rep):
    """Replication ``rep`` of the Whittle Monte Carlo: simulated
    ARTFIMA(0, d=1.0, lam=0.12, 0) noise, n=2000."""
    rng = np.random.default_rng([MASTER_SEED, 7, rep])
    return simulate_artfima00(2000, d=1.0, lam=0.12, sigma2=1.0, rng=rng)
