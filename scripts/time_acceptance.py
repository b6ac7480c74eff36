"""Wall time of the five full-size acceptance studies at 1 and 2 workers.

    python3 scripts/time_acceptance.py --out FILE

The studies are those of ``tests/acceptance_configs.py``: TABLE1,
COVERAGE, SIZE_LM and SIZE_SLM through ``run_study``, and the Whittle
Monte Carlo, ``whittle_mc``, which fits both models to every
``whittle_series(rep)``.  Every run is a fresh interpreter that imports
the library from the ``src`` of this checkout and times the study alone,
not the import.  A round runs each study at both worker counts, 1 then 2
in even rounds and 2 then 1 in odd ones, and there are ``ROUNDS`` rounds.

FILE (JSON) gets each run's seconds with their median and quartiles, and
the platform, CPU count, thread variables and the library facts of
``perfbench/child.py`` (Python, numpy, scipy, BLAS).
It is a record, not a gate: nothing checks the numbers.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 4
STUDIES = ("TABLE1", "COVERAGE", "SIZE_LM", "SIZE_SLM", "WHITTLE")
WORKERS = (1, 2)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(study, workers):
    """Seconds of one run of ``study`` at ``workers`` workers."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import acceptance_configs as acc
    from slmcoint import run_study
    start = time.perf_counter()
    if study == "WHITTLE":
        acc.whittle_mc(workers)
    else:
        run_study(getattr(acc, study), threads=workers)
    return time.perf_counter() - start


def environment():
    sys.path.insert(0, ROOT)
    from perfbench.child import _library_info
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
            **_library_info()}


def summary(seconds):
    import numpy as np
    q1, median, q3 = (float(v) for v in np.percentile(seconds, [25, 50, 75]))
    return {"seconds": seconds, "median": median, "q1": q1, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="the JSON record to write (required)")
    parser.add_argument("--child", nargs=2, metavar=("STUDY", "WORKERS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(run_once(args.child[0], int(args.child[1])))
        return 0
    if not args.out:
        parser.error("--out is required")
    seconds = {study: {w: [] for w in WORKERS} for study in STUDIES}
    for r in range(ROUNDS):
        for study in STUDIES:
            for w in WORKERS if r % 2 == 0 else WORKERS[::-1]:
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--child", study, str(w)],
                    capture_output=True, text=True, check=True)
                seconds[study][w].append(float(done.stdout))
                print(f"round {r} {study} {w}w {seconds[study][w][-1]:.2f} s", flush=True)
    record = {"rounds": ROUNDS, "environment": environment(),
              "studies": {study: {f"{w}w": summary(runs) for w, runs in by_w.items()}
                          for study, by_w in seconds.items()}}
    with open(args.out, "w", newline="\n") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
