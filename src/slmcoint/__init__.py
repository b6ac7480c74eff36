"""slmcoint: nonparametric cointegrating regression with semi-long-memory
(exponentially tempered) regressors.

Simulation of tempered fractional regressor processes with endogenous
errors, Nadaraya-Watson estimation with pivotal confidence intervals, a
kernel-smoothed L2 specification statistic calibrated by block subsampling,
Whittle fitting of tempered fractional noise, and a Monte Carlo harness
for estimation, coverage, and test-size studies.
"""

__version__ = "0.1.0"

from .processes import (
    TemperedProcessSpec, NoiseConfig, tempered_coeffs,
    simulate_innovations, simulate_regressor, simulate_error_ar1,
    regression_function_sine, sine_series_interpolator, simulate_model,
    scale_dn, innovation_length,
)
from .kernel_regression import (
    EPANECHNIKOV, GAUSSIAN, get_kernel, kernel_estimate,
)
from .spec_test import (
    SubsamplingError, get_family, uniform_weight, nls_fit, t_statistic,
    normalized_statistic, subsample_statistics, subsample_quantile, run_spec_test,
    parse_exponent,
)
from .whittle import (
    periodogram, whittle_objective, profile_sigma2,
    one_step_residuals, fit_artfima00, fit_arfima00, simulate_artfima00,
)
from .mc import (
    BlockRule, StudyConfig, SLM_RULES, run_study, export_study,
)
from .empirical import EmpiricalSeries, ingest_ckc_csv, ckc_analysis
