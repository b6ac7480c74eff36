"""Write both Whittle fits of every series in the perfbench Whittle pool as
JSON, with the grid cell each refinement started from.

Run from the root of a checkout, so that its own ``src`` is imported:

    PYTHONPATH=src python3 scripts/dump_whittle_pool.py fits.json

Floats are written by ``repr``, so the files of two checkouts compare byte
for byte (``cmp a.json b.json``) exactly when every fit is bit-identical.
"""

import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import slmcoint.whittle as whittle  # noqa: E402
from workloads import WHITTLE_BASE, WHITTLE_POOL  # noqa: E402


def main(path):
    starts = []
    minimize = whittle.minimize

    def recording_minimize(fun, x0, **kwargs):
        starts.append([float(v) for v in x0])
        return minimize(fun, x0, **kwargs)

    whittle.minimize = recording_minimize
    fits = []
    for index in range(WHITTLE_POOL):
        rng = np.random.default_rng([WHITTLE_BASE, 7, index])
        z = whittle.simulate_artfima00(2000, d=1.0, lam=0.12, sigma2=1.0, rng=rng)
        fits.append({"index": index,
                     "artfima00": whittle.fit_artfima00(z).to_dict(),
                     "arfima00": whittle.fit_arfima00(z).to_dict(),
                     "grid_starts": starts[-2:]})
    with open(path, "w", newline="\n") as fh:
        json.dump(fits, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
