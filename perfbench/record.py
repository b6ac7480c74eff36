"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [--workload NAME ...]

Writes perfbench/reference/<workload>.json: the study tables and histograms
for every master seed, and the outputs of every pool item.  Serial runs at
1 worker, untraced.  Re-record only when a change is meant to alter the
outputs, and say so with the change.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


def record(workload):
    if workload in wl.STUDY_WORKLOADS:
        return {str(ms): wl.run_studies(wl.study_configs(workload, ms), threads=1)
                for ms in wl.MASTER_SEEDS}
    if workload == "whittle":
        return {str(i): wl.whittle_item(i) for i in range(wl.WHITTLE_POOL)}
    workdir = os.path.join(wl.OUT, f"work-record-{os.getpid()}")
    wl.write_countries(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return {str(c): wl.ckc_item(c, workdir, "record") for c, _ in wl.ckc_pool()}
    finally:
        shutil.rmtree(workdir)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    args = p.parse_args(argv)
    wl.import_library()
    os.makedirs(wl.REFERENCE, exist_ok=True)
    for workload in args.workload or wl.WORKLOADS:
        payload = record(workload)
        with open(os.path.join(wl.REFERENCE, f"{workload}.json"), "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        print(f"recorded {workload}: {len(payload)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
