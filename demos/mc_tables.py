"""Mini-scale Monte Carlo studies: estimation error, interval coverage and
empirical test size, exported to CSV exactly like the full-scale runs.

The full-scale table reproductions (N=1000, R=2000 and N=500, R=500) run in
the acceptance suite; this demo uses a reduced design so it finishes in
about a minute.
"""

import os
import tempfile

from slmcoint import StudyConfig, run_study, export_study

THREADS = min(2, os.cpu_count() or 1)


def main():
    outdir = tempfile.mkdtemp(prefix="slmcoint_demo_")

    est_cfg = StudyConfig(
        study_kind="estimation", n=500, replications=200,
        d_values=(0.0, 0.4), memory_settings=("lm", "SLM3"),
        bandwidth_exponents=("n^-1/3",), master_seed=1)
    est = run_study(est_cfg, threads=THREADS)
    print("estimation study (N=500, R=200, h = n^-1/3):")
    for row in est.tables["rmse"]:
        print(f"  {row['memory']:>5} d={row['d']:.1f}: RMSE = {row['value']:.4f}"
              f" (mc err {row['mc_error']:.4f}, excluded {row['excluded_frac']:.1%})")
    print()

    cov_cfg = StudyConfig(
        study_kind="coverage", n=500, replications=200,
        d_values=(0.0, 0.4), memory_settings=("lm", "SLM3"),
        bandwidth_exponents=("n^-1/5",), eval_points=(0.5,), master_seed=2)
    cov = run_study(cov_cfg, threads=THREADS)
    print("coverage study at x = 0.5 (nominal 95%):")
    for row in cov.tables["coverage"]:
        print(f"  {row['memory']:>5} d={row['d']:.1f}: coverage = {row['value']:.3f}")
    print()

    size_cfg = StudyConfig(
        study_kind="size", n=300, replications=100,
        d_values=(0.1,), memory_settings=("SLM3",),
        bandwidth_exponents=("n^-1/5",), block_rules=((1.0, 0.5), (4.0, 0.5)),
        nominal_levels=(0.05,), kernel="gaussian", master_seed=3)
    size = run_study(size_cfg, threads=THREADS)
    print("empirical size of the subsampled test (nominal 5%):")
    for row in size.tables["size"]:
        print(f"  b = {row['block_size']:3d}: size = {row['value']:.3f}"
              f"  <- far above nominal, the documented negative finding")
    files = export_study(size, outdir)
    print(f"\nexported {len(files)} files to {outdir}")
    print(f"`slmcoint mc --config {os.path.join(outdir, 'study_config.json')}` "
          "writes them again byte for byte.")


if __name__ == "__main__":
    main()
