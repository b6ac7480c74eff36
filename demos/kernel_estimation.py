"""Nadaraya-Watson estimation of the regression function on one draw,
with pointwise confidence bands and the local-mass diagnostics that decide
where the estimate is defined.
"""

import numpy as np

from slmcoint import (TemperedProcessSpec, NoiseConfig, simulate_model,
                      kernel_estimate, regression_function_sine)


def main():
    n = 1000
    spec = TemperedProcessSpec(d=0.2, lam=n ** -0.2, n=n)
    noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2, seed=11)
    path = simulate_model(spec, noise, f=regression_function_sine)

    h = n ** (-1.0 / 5.0)
    grid = np.linspace(0.0, 1.0, 21)
    est = kernel_estimate(path.x, path.y, grid, h, alpha=0.05)
    ftrue = regression_function_sine(grid)

    print(f"n = {n}, bandwidth h = n^(-1/5) = {h:.4f}, Epanechnikov kernel")
    print(f"{'x':>6} {'true f':>9} {'fhat':>9} {'mass':>7} {'95% interval':>22}")
    for i, x0 in enumerate(grid):
        if est.local_mass[i] > 0:
            print(f"{x0:6.2f} {ftrue[i]:9.4f} {est.fhat[i]:9.4f} "
                  f"{est.local_mass[i]:7.2f} "
                  f"[{est.ci_lo[i]:8.4f}, {est.ci_hi[i]:8.4f}]")
        else:
            print(f"{x0:6.2f} {ftrue[i]:9.4f} {'--':>9} {0.0:7.2f} "
                  f"{'(no data in window)':>22}")
    inside = np.mean(np.abs(est.fhat[est.defined] - ftrue[est.defined]))
    print(f"\nmean |fhat - f| over defined points: {inside:.4f}")
    print("points without kernel mass stay undefined rather than interpolated;")
    print("a nonstationary regressor genuinely skips parts of the line.")


if __name__ == "__main__":
    main()
