"""slmcoint benchmark: one workload per invocation.

    python3 perfbench/run.py --workload estimation --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter (perfbench/child.py), because building the sine table and the
worker pool are costs users pay on every ``slmcoint mc``.  No BLAS or
OpenMP thread variable is set.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced serial run (see perfbench/README.md).  Outputs are
checked against perfbench/reference.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the environment, goes to
perfbench/out/.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_ONLY_CHILDREN = 4
TRACE_ITEM_ROUNDS = 2
DEADLINE_S = 170.0


class Runner:
    """Starts child interpreters and keeps every result they report."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.results = []

    def child(self, mode, **opts):
        tag = f"{os.getpid()}-{len(self.results)}"
        path = os.path.join(wl.OUT, f"child-{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--mode", mode,
               "--seed", str(self.seed), "--result", path]
        for key, value in opts.items():
            cmd += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline passed")
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.DEVNULL,
                              timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child exited {proc.returncode}")
        with open(path) as fh:
            result = json.load(fh)
        os.remove(path)
        self.results.append(result)
        return result


def environment():
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cgroup_cpu_max": None,
           "thread_vars": {k: v for k, v in sorted(os.environ.items())
                           if k.endswith("_NUM_THREADS")}}
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            env["cgroup_cpu_max"] = fh.read().strip()
    except OSError:
        pass
    return env


# ------------------------------------------------------------------ studies

def study_round(runner):
    return {"1w": runner.child("study", threads=1),
            "2w": runner.child("study", threads=2)}


def check_study_round(checks, reference, rnd, label):
    mseed = str(rnd["1w"]["master_seed"])
    reps = rnd["1w"]["items"] // len(rnd["1w"]["outputs"])
    for mode in ("1w", "2w"):
        ck.check_studies(checks, rnd[mode]["outputs"], reference.get(mseed, []),
                         reps, f"{label} {mode}")
    ck.check_identical(checks, rnd["1w"]["outputs"], rnd["2w"]["outputs"],
                       f"{label}: 1-worker and 2-worker tables differ")


def study_rates(rounds):
    ips = [r["1w"]["items"] / r["1w"]["wall_s"] for r in rounds]
    ips2 = [r["2w"]["items"] / r["2w"]["wall_s"] for r in rounds]
    return ips, ips2


# -------------------------------------------------------------------- items

def check_item_rounds(checks, workload, reference, rounds, pooled=True):
    for k, rnd in enumerate(rounds):
        for j, index in enumerate(rnd["indices"]):
            ref = reference.get(str(index))
            label = f"round {k} item {index}"
            ck.check_item(checks, workload, rnd["out_1w"][j], ref, label + " 1w")
            if pooled:
                ck.check_item(checks, workload, rnd["out_2w"][j], ref, label + " 2w")
                ck.check_identical(checks, rnd["out_1w"][j], rnd["out_2w"][j],
                                   label + ": 1-worker and 2-worker outputs differ")


def item_rates(rounds):
    """Items per second over all rounds together, so that every second of
    the run weighs the same."""
    items = sum(len(r["indices"]) for r in rounds)
    ips = [items / sum(sum(r["times_1w"]) for r in rounds)]
    ips2 = [items / sum(r["wall_2w"] for r in rounds)]
    times = [t for r in rounds for t in r["times_1w"]]
    return ips, ips2, times


# ------------------------------------------------------------------ metrics

def end_to_end(runner, seconds, checks, reference):
    workload = runner.workload
    if workload in wl.STUDY_WORKLOADS:
        start = time.monotonic()
        rounds = []
        while True:
            rounds.append(study_round(runner))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
        for k, rnd in enumerate(rounds):
            check_study_round(checks, reference, rnd, f"round {k}")
        ips, ips2 = study_rates(rounds)
        times = []
    else:
        main = runner.child("items", seconds=seconds)
        rounds = main["rounds"]
        check_item_rounds(checks, workload, reference, rounds)
        ips, ips2, times = item_rates(rounds)
    for _ in range(SETUP_ONLY_CHILDREN):
        runner.child("setup")
    setups = [r["setup_s"] for r in runner.results]
    rss = max(max(r["rss_mb"], r["rss_children_mb"]) for r in runner.results)
    metrics = {
        "items_per_s": {"value": statistics.median(ips), "unit": "1/s"},
        "items_per_s_2w": {"value": statistics.median(ips2), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    samples = {"rounds": len(rounds), "items_per_s": ips, "items_per_s_2w": ips2,
               "setup_s": setups}
    extra = {}
    if times:
        extra["item_p50_s"] = (statistics.median(times), "s", len(times))
        if len(times) >= 100:
            p90 = statistics.quantiles(times, n=10)[-1]
            extra["item_p90_s"] = (p90, "s", len(times))
    return metrics, samples, extra


def per_layer(runner, checks, reference):
    workload = runner.workload
    spans = os.path.join(wl.OUT, f"spans-{workload}-seed{runner.seed}.json")
    if workload in wl.STUDY_WORKLOADS:
        rnd = study_round(runner)
        check_study_round(checks, reference, rnd, "round 0")
        traced = runner.child("traced", spans=spans)
        ck.check_identical(checks, traced["outputs"], rnd["1w"]["outputs"],
                           "traced and untraced tables differ")
        ips, ips2 = study_rates([rnd])
        untraced_wall, traced_wall = rnd["1w"]["wall_s"], traced["wall_s"]
    else:
        main = runner.child("items", rounds=TRACE_ITEM_ROUNDS)
        check_item_rounds(checks, workload, reference, main["rounds"])
        traced = runner.child("traced", rounds=TRACE_ITEM_ROUNDS, spans=spans)
        check_item_rounds(checks, workload, reference, traced["rounds"], pooled=False)
        ck.check_identical(checks, [r["out_1w"] for r in traced["rounds"]],
                           [r["out_1w"] for r in main["rounds"]],
                           "traced and untraced outputs differ")
        ips, ips2, _ = item_rates(main["rounds"])
        untraced_wall = sum(sum(r["times_1w"]) for r in main["rounds"])
        traced_wall = sum(sum(r["times_1w"]) for r in traced["rounds"])
    metrics = dict(traced["layers"])
    metrics["scaling_2w"] = {"value": ips2[0] / (2.0 * ips[0]), "unit": "ratio"}
    metrics["trace_overhead_frac"] = {
        "value": (traced_wall - untraced_wall) / untraced_wall, "unit": "share"}
    return metrics, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(wl.SRC, "slmcoint")):
        print(f"error: no library source at {wl.SRC}", file=sys.stderr)
        return 2
    os.makedirs(wl.OUT, exist_ok=True)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    checks = ck.Checks()
    reference = ck.load_reference(args.workload)
    try:
        if args.trace:
            metrics, samples = per_layer(runner, checks, reference)
            extra = {}
        else:
            metrics, samples, extra = end_to_end(runner, args.seconds, checks, reference)
    finally:
        for leftover in glob.glob(os.path.join(wl.OUT, f"child-{os.getpid()}-*.json")):
            os.remove(leftover)
        for workdir in glob.glob(os.path.join(wl.OUT, "work-*")):
            shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env.update(runner.results[0]["library"])

    failed_frac = checks.failed / checks.attempted
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "samples": samples,
              "metrics": metrics,
              "extra": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in extra.items()},
              "checks": {"attempted": checks.attempted, "failed": checks.failed,
                         "failures": checks.failures[:50]}}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(wl.OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, m in metrics.items():
        print(f"{key} {m['value']!r} {m['unit']}")
    for key, (value, unit, n) in extra.items():
        print(f"{key} {value!r} {unit} (n={n})")
    print(f"failed_frac {failed_frac!r} share ({checks.failed} of {checks.attempted})")
    for what in checks.failures[:10]:
        print(f"check failed: {what}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
