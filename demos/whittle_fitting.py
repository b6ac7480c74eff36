"""Whittle estimation of tempered fractional noise, and why the tempered
model out-fits the plain fractional one when memory is strong but damped.
"""

import numpy as np

from slmcoint import simulate_artfima00, fit_artfima00, fit_arfima00


def main():
    rng = np.random.default_rng(21)
    d_true, lam_true = 1.0, 0.12
    z = simulate_artfima00(2000, d=d_true, lam=lam_true, rng=rng)

    art = fit_artfima00(z)
    arf = fit_arfima00(z)

    print(f"simulated tempered fractional noise: d = {d_true}, lam = {lam_true}, n = 2000")
    print()
    print(f"{'model':<22} {'d_hat':>8} {'lam_hat':>9} {'sigma2':>8} {'1-step MSE':>11}")
    print(f"{'tempered (d, lam)':<22} {art.d_hat:8.3f} {art.lambda_hat:9.3f} "
          f"{art.sigma2_hat:8.3f} {art.mse:11.4f}")
    print(f"{'plain fractional':<22} {arf.d_hat:8.3f} {arf.lambda_hat:9.3f} "
          f"{arf.sigma2_hat:8.3f} {arf.mse:11.4f}")
    print()
    print(f"Whittle objective at the optimum: {art.objective:.6f} (tempered), "
          f"{arf.objective:.6f} (plain)")
    print(f"boundary convergence flagged: {art.boundary} (tempered), "
          f"{arf.boundary} (plain; d is capped below 1/2, hence the flag")
    print("and the larger one-step MSE when the true d sits near 1).")


if __name__ == "__main__":
    main()
