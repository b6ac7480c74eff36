"""One fresh interpreter of the benchmark: set up a workload, run one mode of
it, and write the timings and outputs as JSON to ``--result``.

Modes:
  setup   import slmcoint and build the workload's inputs, nothing else
  study   run the estimation or size studies once at ``--threads`` workers
  items   run whittle or ckc rounds, each batch serially and then on a
          2-process pool of the benchmark's own
  traced  the serial work of ``study`` or ``items`` with every layer traced

``setup_s`` runs from ``--t0``, taken by the parent just before it started
this interpreter, to the point before the first timed call.  Both ends
read ``time.monotonic``, one clock for all processes of the machine.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _library_info():
    import numpy as np
    import scipy
    info = {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    return info


def _span(tracer, name):
    """A root span around one timed call, when tracing."""
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _rounds_loop(seconds, rounds, run_round):
    """Run rounds until ``rounds`` are done, or, without a round count,
    while one more round of the average length fits in ``seconds``."""
    start = time.perf_counter()
    done = []
    while True:
        done.append(run_round(len(done)))
        if rounds is not None:
            if len(done) >= rounds:
                return done
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(done) > seconds:
            return done


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--mode", required=True,
                   choices=["setup", "study", "items", "traced"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    import workloads as wl
    wl.import_library()
    workload = args.workload
    result = {"workload": workload, "mode": args.mode, "pid": os.getpid()}
    workdir = None
    if workload in wl.STUDY_WORKLOADS:
        configs = wl.study_configs(workload, wl.master_seed(args.seed))
    else:
        workdir = os.path.join(wl.OUT, f"work-{os.getpid()}")
        if workload == "ckc":
            wl.write_countries(workdir)
    result["setup_s"] = time.monotonic() - args.t0

    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    try:
        if args.mode in ("study", "traced") and workload in wl.STUDY_WORKLOADS:
            threads = 1 if tracer else args.threads
            t = time.perf_counter()
            with _span(tracer, "bench.study"):
                outputs = wl.run_studies(configs, threads)
            result["wall_s"] = time.perf_counter() - t
            result["items"] = wl.study_items(configs)
            result["master_seed"] = configs[0].master_seed
            result["outputs"] = outputs
        elif args.mode in ("items", "traced"):
            result["rounds"] = _run_items(args, wl, workload, workdir, tracer)
    finally:
        if workdir is not None and os.path.isdir(workdir):
            import shutil
            shutil.rmtree(workdir)

    if tracer is not None:
        import tracing
        result["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    result["rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    result["rss_children_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    result["library"] = _library_info()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _run_items(args, wl, workload, workdir, tracer):
    def serial(indices, round_index):
        times, outputs = [], []
        for index in indices:
            t = time.perf_counter()
            with _span(tracer, "bench.item"):
                out = wl.run_item(workload, index, workdir, f"r{round_index}s")
            times.append(time.perf_counter() - t)
            outputs.append(out)
        return times, outputs

    if tracer:
        def traced_round(k):
            indices = wl.batch(workload, args.seed, k)
            times, outputs = serial(indices, k)
            return {"indices": indices, "times_1w": times, "out_1w": outputs}
        return _rounds_loop(args.seconds, args.rounds, traced_round)

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # forked, as the library's own pool and the tier-1 whittle fixture are;
    # the ping makes sure both workers run before the first timed batch
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        pids = set(pool.map(wl.pool_ping, range(2)))

        def run_round(k):
            indices = wl.batch(workload, args.seed, k)
            times, outputs = serial(indices, k)
            jobs = [(workload, i, workdir, f"r{k}p") for i in indices]
            t = time.perf_counter()
            pooled = list(pool.map(wl.pool_item, jobs, chunksize=1))
            wall_2w = time.perf_counter() - t
            return {"indices": indices, "times_1w": times, "out_1w": outputs,
                    "wall_2w": wall_2w, "out_2w": pooled}
        rounds = _rounds_loop(args.seconds, args.rounds, run_round)
    if len(pids) != 2:
        raise RuntimeError(f"expected 2 pool workers, got {len(pids)}")
    return rounds


if __name__ == "__main__":
    sys.exit(main())
