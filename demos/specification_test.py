"""Running the subsampled specification test under the null and under a
misspecified parametric family.
"""

import numpy as np

from slmcoint import (TemperedProcessSpec, NoiseConfig, simulate_model, BlockRule,
                      run_spec_test, GAUSSIAN)


def run_case(title, y_builder, n=500, seed=3):
    spec = TemperedProcessSpec(d=0.1, lam=n ** -0.2, n=n, presample=0)
    noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2, seed=seed)
    path = simulate_model(spec, noise)
    y = y_builder(path)
    # one fit and one full-sample statistic, calibrated against blocks of
    # b = [c sqrt(n)] for c = 2 and 4; the rules n^-0.2 give n^-0.2 on the
    # sample and b^-0.2 on its blocks
    sizes = [BlockRule(c).size(n) for c in (2.0, 4.0)]
    results = run_spec_test(
        path.x, y, "linear", h="n^-0.2",
        kernel=GAUSSIAN, support=(-100, 100),
        d=0.1, lam="n^-0.2", blocks=sizes)
    first = results[0]
    print(f"--- {title}")
    print(f"theta_hat = {np.round(first.theta_hat, 4)}")
    print(f"T (raw) = {first.t_raw:.4f}  normalized = {first.t_normalized:.4f}")
    for res in results:
        print(f"subsample blocks: {len(res.subsample_values)} of size {res.block_size}"
              f" (h_b = {res.h_b:.3f}, lam_b = {res.lam_b:.3f})"
              f"  p-value = {res.p_value:.4f}   reject at 5%: {res.reject(0.05)}")
    print()


def main():
    print("Linear null y = x + 0.2 u, tested against the linear family:")
    run_case("data generated under the null",
             lambda p: p.x + 0.2 * p.u)
    print("Same design plus a sin(pi x) deviation (misspecified linear fit):")
    run_case("data generated under a fixed alternative",
             lambda p: p.x + np.sin(np.pi * p.x) + 0.2 * p.u)
    print("Note the documented pathology: the subsampled test over-rejects")
    print("even under the null, so small p-values alone are weak evidence.")


if __name__ == "__main__":
    main()
