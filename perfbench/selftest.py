"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, on small versions of the four workloads:
1. traced outputs equal untraced outputs bit for bit, so the wrappers change
   no result;
2. every count of the per-layer metrics repeats exactly across two traced
   runs;
3. the self-time arithmetic on a synthetic span tree;
4. run.py exits non-zero without a result line where the library source is
   missing.
Exits 0 when all pass.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def small_work(workload):
    """A callable running a small version of ``workload``."""
    if workload in wl.STUDY_WORKLOADS:
        configs = [dataclasses.replace(c, replications=4, chunk_size=2)
                   for c in wl.study_configs(workload, wl.MASTER_SEEDS[0])]
        return lambda: wl.run_studies(configs, threads=1)
    indices = wl.batch(workload, 0, 0)[:2]
    workdir = os.path.join(wl.OUT, f"work-selftest-{os.getpid()}")
    if workload == "ckc":
        wl.write_countries(workdir)

    def work():
        with contextlib.redirect_stdout(io.StringIO()):
            return [wl.run_item(workload, i, workdir, "selftest") for i in indices]
    return work


def traced(work):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        out = work()
    finally:
        uninstall()
    return out, tracing.count_metrics(tracing.layer_metrics(tracer))


def test_traced_equals_untraced_and_counts_repeat():
    for workload in wl.WORKLOADS:
        work = small_work(workload)
        plain = work()
        out1, counts1 = traced(work)
        out2, counts2 = traced(work)
        after = work()
        assert json.dumps(out1) == json.dumps(plain), f"{workload}: traced output differs"
        assert json.dumps(out2) == json.dumps(plain), f"{workload}: traced output differs"
        assert json.dumps(after) == json.dumps(plain), f"{workload}: uninstall left a change"
        assert counts1 == counts2, f"{workload}: counts differ between traced runs"
        assert any(counts1.values()), f"{workload}: no counts recorded"
        print(f"ok {workload}: {sum(1 for v in counts1.values() if v)} nonzero counts")
    shutil.rmtree(os.path.join(wl.OUT, f"work-selftest-{os.getpid()}"), ignore_errors=True)


def test_self_time_arithmetic():
    # root 0..10 with children A 1..4 (grandchild 2..3) and B 3..6 (overlaps A),
    # plus tracer bookkeeping 7..8 under the root
    spans = [
        ["mc.study", 0.0, 10.0, None],
        ["spec_test.a", 1.0, 4.0, 0],
        ["kernel_regression.kernel", 2.0, 3.0, 1],
        ["spec_test.b", 3.0, 6.0, 0],
        ["trace.count", 7.0, 8.0, 0],
        ["spec_test.a", 8.5, 9.0, 0],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [10.0 - (5.0 + 1.0 + 0.5), 2.0, 1.0, 3.0, 1.0, 0.5], selfs
    busy = tracing.busy_by_name(spans)
    assert busy["mc.study"] == 9.0, busy
    assert busy["spec_test.a"] == 3.5, busy
    layers = tracing.self_by_layer(spans)
    assert layers["mc"] == 3.5 and layers["spec_test"] == 5.5, layers
    assert layers["kernel_regression"] == 1.0 and layers["trace"] == 1.0, layers
    print("ok self-time arithmetic")


def test_fails_without_library():
    bare = os.path.join(wl.OUT, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "whittle",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok bare directory: exit {proc.returncode}")


def main():
    wl.import_library()
    test_self_time_arithmetic()
    test_fails_without_library()
    test_traced_equals_untraced_and_counts_repeat()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
