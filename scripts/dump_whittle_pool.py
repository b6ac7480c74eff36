"""Write both Whittle fits of every series in the perfbench Whittle pool as
JSON, with the grid cell each refinement started from.

Run from the root of a checkout, so that its own ``src`` is imported:

    PYTHONPATH=src python3 scripts/dump_whittle_pool.py fits.json

Floats are written by ``repr``, so the files of two checkouts compare byte
for byte (``cmp a.json b.json``) exactly when every fit is bit-identical.
It also prints to stderr the mean number of grid cells evaluated per
ARTFIMA and per ARFIMA fit (the objective's cells outside the refinement),
which stays out of the file.  When the files differ, compare them by value:

    python3 scripts/dump_whittle_pool.py --compare a.json b.json

prints the largest |change| of d_hat and lambda_hat and the largest relative
change of the objective over both fits of every series, and the number of
changed grid start cells.  Either file may also be the benchmark's reference,
``perfbench/reference/whittle.json``, which holds no start cells; it is only
read.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(path):
    import numpy as np
    import slmcoint.whittle as whittle
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WHITTLE_BASE, WHITTLE_POOL

    starts = []
    minimize, objective = whittle.minimize, whittle.whittle_objective
    grid_cells, refining = {"artfima00": 0, "arfima00": 0}, [False]

    def recording_minimize(fun, x0, **kwargs):
        starts.append([float(v) for v in x0])
        refining[0] = True
        try:
            return minimize(fun, x0, **kwargs)
        finally:
            refining[0] = False

    def counting_objective(*args, **kwargs):
        # model is the fit the loop below is running
        value = objective(*args, **kwargs)
        if not refining[0]:
            grid_cells[model] += np.size(value)
        return value

    whittle.minimize, whittle.whittle_objective = recording_minimize, counting_objective
    fits = []
    for index in range(WHITTLE_POOL):
        rng = np.random.default_rng([WHITTLE_BASE, 7, index])
        z = whittle.simulate_artfima00(2000, d=1.0, lam=0.12, sigma2=1.0, rng=rng)
        item = {"index": index}
        for model in ("artfima00", "arfima00"):
            item[model] = getattr(whittle, f"fit_{model}")(z).to_dict()
        fits.append(dict(item, grid_starts=starts[-2:]))
    for model, cells in grid_cells.items():
        print(f"{model}: {cells / WHITTLE_POOL:.1f} grid cells per fit", file=sys.stderr)
    with open(path, "w", newline="\n") as fh:
        json.dump(fits, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_fits(path):
    """{(index, model): (d_hat, lambda_hat, objective)} and {index: start
    cells}, from a dump of this script or from the benchmark reference."""
    with open(path) as fh:
        data = json.load(fh)
    fits, starts = {}, {}
    if isinstance(data, dict):  # the reference: {index: {model: [d, lam, obj]}}
        for index, models in data.items():
            for model, values in models.items():
                fits[int(index), model] = tuple(values)
        return fits, starts
    for item in data:
        for model, key in (("artfima", "artfima00"), ("arfima", "arfima00")):
            fit = item[key]
            fits[item["index"], model] = (fit["d_hat"], fit["lambda_hat"], fit["objective"])
        starts[item["index"]] = item["grid_starts"]
    return fits, starts


def compare(path_a, path_b):
    fits_a, starts_a = load_fits(path_a)
    fits_b, starts_b = load_fits(path_b)
    if fits_a.keys() != fits_b.keys():
        raise SystemExit(f"the files hold different fits: {len(fits_a)} and {len(fits_b)}")
    pairs = [(fits_a[key], fits_b[key]) for key in sorted(fits_a)]
    print(f"fits compared: {len(pairs)}")
    print(f"max |delta d_hat|: {max(abs(a[0] - b[0]) for a, b in pairs):.3g}")
    print(f"max |delta lambda_hat|: {max(abs(a[1] - b[1]) for a, b in pairs):.3g}")
    print("max relative delta objective: "
          f"{max(abs(a[2] - b[2]) / abs(a[2]) for a, b in pairs):.3g}")
    common = starts_a.keys() & starts_b.keys()
    if common:
        changed = sum(starts_a[i] != starts_b[i] for i in common)
        print(f"changed start cells: {changed} of {len(common)} series")
    else:
        print("changed start cells: not compared (a file holds no start cells)")


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        compare(*sys.argv[2:4])
    else:
        main(sys.argv[1])
