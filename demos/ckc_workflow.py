"""The Carbon Kuznets Curve workflow on a synthetic country.

Real per-capita GDP / CO2 files are user-supplied (see
data/README.md); this demo builds a synthetic country whose
log-emissions follow an exact inverted-U in log-GDP, then runs the full
pipeline: ingest, tempered-model fits of both logged series, and the
specification-test p-value grid for the linear and quadratic links.
"""

import os
import tempfile

import numpy as np

from slmcoint import ingest_ckc_csv, ckc_analysis


def synth_country(path, n=59, seed=5):
    rng = np.random.default_rng(seed)
    years = np.arange(1950, 1950 + n)
    lgdp = 9.0 + 0.02 * np.arange(n) + 0.01 * np.cumsum(rng.standard_normal(n))
    lco2 = -40.0 + 9.0 * lgdp - 0.47 * lgdp ** 2 + 0.02 * rng.standard_normal(n)
    with open(path, "w", newline="\n") as fh:
        fh.write("year,gdp,co2\n")
        for i in range(n):
            fh.write(f"{years[i]},{np.exp(lgdp[i]):.6f},{np.exp(lco2[i]):.6f}\n")
    return path


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = synth_country(os.path.join(tmp, "synthia.csv"))
        series = ingest_ckc_csv(path, country="Synthia")
    print(f"{series.country}: {len(series)} annual observations "
          f"({series.years[0]}-{series.years[-1]})")

    report = ckc_analysis(series)
    for var in ("log_gdp", "log_co2"):
        art = report["fits"][var]["artfima"]
        arf = report["fits"][var]["arfima"]
        print(f"\n{var}: tempered fit d = {art['d_hat']:.3f}, "
              f"lam = {art['lambda_hat']:.3f}, MSE = {art['mse']:.4f}")
        print(f"{'':9s}plain fractional fit d = {arf['d_hat']:.3f}, "
              f"MSE = {arf['mse']:.4f}")

    print("\np-values of the parametric links (semi-long-memory normalization")
    print("with the regressor's fitted d and lam):")
    print(f"{'hypothesis':<11} {'h rule':<9} {'b':>4} {'p':>8}")
    for row in report["p_values"]:
        print(f"{row['hypothesis']:<11} {row['bandwidth_rule']:<9} "
              f"{row['block_size']:>4} {row['p_value']:8.4f}")
    print("\nwith d_hat near 1 the tempered model is the only applicable one;")
    print("a plain long-memory normalization would need d < 1/2.")


if __name__ == "__main__":
    main()
