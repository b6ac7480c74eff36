"""Carbon-Kuznets-curve workflow: annual per-capita GDP and CO2 series,
tempered-model fits for both logged variables, and subsampled specification
tests of linear and quadratic links between them."""

from dataclasses import dataclass

import numpy as np

from .whittle import fit_artfima00, fit_arfima00
from .spec_test import DEFAULT_WEIGHT_SUPPORT, run_spec_test, get_family
from .kernel_regression import GAUSSIAN
from .mc import BlockRule, read_csv

H_EXPONENTS = (-0.5, -1.0)
BLOCK_COEFS = (2.0, 4.0, 6.0)
HYPOTHESES = ("linear", "quadratic")


@dataclass
class EmpiricalSeries:
    """Annual (year, gdp, co2) records for one country; strictly increasing
    gap-free years and strictly positive values (logs must exist)."""

    years: np.ndarray
    gdp: np.ndarray
    co2: np.ndarray
    country: str = ""

    def __post_init__(self):
        years = np.asarray(self.years, dtype=float)
        bad = np.nonzero(~(np.isfinite(years) & (years == np.floor(years))))[0]
        if bad.size:
            raise ValueError(f"row {bad[0] + 1}: year {float(years[bad[0]])!r} "
                             "is not a whole number")
        self.years = years.astype(int)
        self.gdp = np.asarray(self.gdp, dtype=float)
        self.co2 = np.asarray(self.co2, dtype=float)
        n = self.years.shape[0]
        if self.gdp.shape[0] != n or self.co2.shape[0] != n:
            raise ValueError("year, gdp and co2 must have equal length")
        for i in range(1, n):
            if self.years[i] != self.years[i - 1] + 1:
                raise ValueError(
                    f"row {i + 1}: year {self.years[i]} breaks the gap-free "
                    f"sequence after {self.years[i - 1]}")
        for name, arr in (("gdp", self.gdp), ("co2", self.co2)):
            bad = np.nonzero(~(arr > 0))[0]
            if bad.size:
                raise ValueError(f"row {bad[0] + 1}: non-positive {name} value")

    def __len__(self):
        return self.years.shape[0]


def ingest_ckc_csv(path, country=""):
    """Read and validate a `year,gdp,co2` CSV (extra columns ignored)."""
    return EmpiricalSeries(*read_csv(path, ("year", "gdp", "co2")).values(),
                           country=country)


def ckc_analysis(series):
    """Tempered-model fits and specification-test p-values for one country.

    Fits ARTFIMA(0,d,lam,0) and ARFIMA(0,d,0) to log(gdp) and log(co2),
    then tests each hypothesized link z = g(e, theta) + u between
    e = log(gdp) and z = log(co2) (``HYPOTHESES``) for every pair of a
    bandwidth rule h = n^a (``H_EXPONENTS``) and a block rule
    b = [c sqrt(n)] (``BLOCK_COEFS``, through ``BlockRule``), using the
    semi-long-memory normalization with the regressor's fitted (d, lam) and
    the weight's support ``DEFAULT_WEIGHT_SUPPORT``, (-100, 100).  Each
    (hypothesis, bandwidth) pair is one ``run_spec_test`` call: one fit and
    one full-sample statistic, at ``run_spec_test``'s 2048 quadrature cells,
    calibrated against the exact block values of all the block rules.
    The bandwidth is passed as its power rule (h_b = b^a); the fitted
    tempering parameter is a constant, not a schedule, so it is passed as a
    number, held at both scales (p-values are invariant to the common
    factor lam_hat^d_hat in the normalizers).
    """
    n = len(series)
    e = np.log(series.gdp)
    z = np.log(series.co2)
    fits = {name: {"artfima": fit_artfima00(values).to_dict(),
                   "arfima": fit_arfima00(values).to_dict()}
            for name, values in (("log_gdp", e), ("log_co2", z))}
    d_hat = fits["log_gdp"]["artfima"]["d_hat"]
    lam_hat = fits["log_gdp"]["artfima"]["lambda_hat"]
    pvals = []
    sizes = [BlockRule(coef).size(n) for coef in BLOCK_COEFS]
    for hyp in HYPOTHESES:
        family = get_family(hyp)
        for he in H_EXPONENTS:
            results = run_spec_test(e, z, family, f"n^{he!r}", GAUSSIAN,
                                    DEFAULT_WEIGHT_SUPPORT, d=d_hat, lam=lam_hat,
                                    blocks=sizes)
            for coef, res in zip(BLOCK_COEFS, results):
                pvals.append({
                    "hypothesis": family.kind, "bandwidth_rule": f"n^{he!r}",
                    "bandwidth_exponent": he, "block_coef": coef,
                    "block_size": res.block_size, "p_value": res.p_value,
                    "t_normalized": res.t_normalized,
                    "theta_hat": [float(v) for v in res.theta_hat]})
    return {"country": series.country, "n": n, "fits": fits,
            "regressor_d": d_hat, "regressor_lambda": lam_hat,
            "p_values": pvals}
