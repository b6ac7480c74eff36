"""In-memory span tracing of slmcoint from outside the library.

``install(tracer)`` replaces the public functions of each layer with thin
wrappers that open a span around the call and record counts at the same
boundary.  Every module of the package that binds the original function
under some name gets the wrapper, so calls through ``from .x import f``
imports are traced too.  Kernels are traced through a ``Kernel`` subclass
handed out by a patched ``get_kernel``.  Nothing in ``src/slmcoint`` is
edited, and the wrappers pass arguments and results through unchanged.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or ``None`` for a root.  The layer of a span is the part of
its name before the first dot.
"""

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

GAUSSIAN_USEFUL_U = 8.6


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.refining = 0

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def current_layer(self):
        return layer_of(self.spans[self.stack[-1]][0]) if self.stack else "none"


def layer_of(name):
    return name.split(".", 1)[0]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus the part of the span's interval
    that its direct children cover."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = [(max(spans[c][1], start), min(spans[c][2], end))
                   for c in children[i]]
        out.append((end - start) - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def _overhead(spans):
    """Per-span time of the tracer's own bookkeeping spans (layer ``trace``)
    nested anywhere below it."""
    out = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if layer_of(name) == "trace":
            while parent is not None:
                out[parent] += end - start
                parent = spans[parent][3]
    return out


def busy_by_name(spans):
    """Per span name, the summed duration of the spans with no ancestor of
    the same name, less the tracer bookkeeping nested in them."""
    overhead = _overhead(spans)
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out[name] = out.get(name, 0.0) + (end - start - overhead[i])
    return out


def self_by_layer(spans):
    out = {}
    for (name, *_), s in zip(spans, self_times(spans)):
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + s
    return out


# ------------------------------------------------------------------ wrappers

def _modules():
    import slmcoint
    from slmcoint import (cli, empirical, kernel_regression, mc, processes,
                          spec_test, whittle)
    return [slmcoint, cli, empirical, kernel_regression, mc, processes,
            spec_test, whittle]


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _timed_kernel_class(tracer, base):
    class TimedKernel(base):
        def __call__(self, u):
            with tracer.span("kernel_regression.kernel"):
                w = super().__call__(u)
            caller = tracer.current_layer()
            with tracer.span("trace.count"):
                if self.kind == "epanechnikov":
                    useful = int((w != 0).sum())
                else:
                    useful = int((abs(u) <= GAUSSIAN_USEFUL_U).sum())
            key = f"kernel_regression.kernel.{caller}"
            tracer.counts[key + ".calls"] += 1
            tracer.counts[key + ".evals"] += int(w.size)
            tracer.counts[key + ".useful"] += useful
            return w

    return TimedKernel


def install(tracer):
    """Wrap the layer functions; returns a function that undoes it."""
    from slmcoint import kernel_regression, mc, processes, spec_test, whittle

    modules = _modules()
    undo = []

    def patch(module, attr, make):
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make(original))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))

    def spanned(name, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    with tracer.span("trace.count"):
                        after(fn, args, kwargs, result)
                return result
            return wrapper
        return make

    def count_calls(name):
        def after(fn, args, kwargs, result):
            tracer.counts[name + ".calls"] += 1
        return after

    # processes
    def make_interpolator(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("processes.sine_table"):
                evaluate = fn(*args, **kwargs)

            def timed_evaluate(x):
                with tracer.span("processes.f_eval"):
                    out = evaluate(x)
                tracer.counts["processes.f_eval.calls"] += 1
                tracer.counts["processes.f_eval.points"] += int(out.size)
                return out
            return timed_evaluate
        return wrapper

    patch(processes, "sine_series_interpolator", make_interpolator)
    patch(processes, "simulate_regressor",
          spanned("processes.simulate_regressor",
                  count_calls("processes.simulate_regressor")))
    patch(processes, "simulate_innovations", spanned("processes.simulate_innovations"))
    patch(processes, "simulate_error_ar1", spanned("processes.simulate_error_ar1"))

    # kernel_regression
    timed_kernel = _timed_kernel_class(tracer, kernel_regression.Kernel)

    def make_get_kernel(fn):
        def wrapper(name):
            k = fn(name)
            if isinstance(k, timed_kernel):
                return k
            return timed_kernel(k.kind, k.d1, k.k2, k.halfwidth)
        return wrapper

    patch(kernel_regression, "get_kernel", make_get_kernel)

    # spec_test
    def after_subsample(fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        n = len(a["x"])
        blocks = n - int(a["b"]) + 1
        kept = len(result[0]) if a["return_by_block"] else len(result)
        dim = spec_test.get_family(a["family"]).dim
        c = tracer.counts
        c["spec_test.subsample_statistics.calls"] += 1
        c["spec_test.subsample_statistics.blocks"] += blocks
        c["spec_test.subsample_statistics.skipped"] += blocks - kept
        c["spec_test.subsample_statistics.matrix_bytes"] += (
            int(a["quad_cells"]) * (n + 1) * 8 * (2 + dim))

    def after_t_statistic(fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        tracer.counts["spec_test.t_statistic.calls"] += 1
        tracer.counts["spec_test.t_statistic.node_obs"] += (
            int(a["quad_cells"]) * len(a["x"]))

    patch(spec_test, "subsample_statistics",
          spanned("spec_test.subsample_statistics", after_subsample))
    patch(spec_test, "t_statistic", spanned("spec_test.t_statistic", after_t_statistic))
    patch(spec_test, "_sliding_theta", spanned("spec_test.sliding_theta"))
    patch(spec_test, "nls_fit", spanned("spec_test.nls_fit"))
    patch(spec_test, "run_spec_test",
          spanned("spec_test.run_spec_test", count_calls("spec_test.run_spec_test")))

    # whittle
    def make_objective(fn):
        # the hottest wrapper: about 1.8k calls per series, so no context manager
        def wrapper(*args, **kwargs):
            phase = "refine" if tracer.refining else "grid"
            tracer.begin("whittle.objective")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()
                tracer.counts["whittle.objective.calls"] += 1
                tracer.counts[f"whittle.{phase}.evals"] += 1
        return wrapper

    def make_minimize(fn):
        def wrapper(*args, **kwargs):
            tracer.refining += 1
            try:
                with tracer.span("whittle.refine"):
                    result = fn(*args, **kwargs)
            finally:
                tracer.refining -= 1
            tracer.counts["whittle.refine.nit"] += int(result.nit)
            return result
        return wrapper

    def after_fit(fn, args, kwargs, result):
        tracer.counts["whittle.boundary_hits"] += int(bool(result.boundary))

    patch(whittle, "whittle_objective", make_objective)
    patch(whittle, "minimize", make_minimize)
    patch(whittle, "fit_artfima00", spanned("whittle.fit_artfima00", after_fit))
    patch(whittle, "fit_arfima00", spanned("whittle.fit_arfima00", after_fit))
    patch(whittle, "simulate_artfima00", spanned("whittle.simulate_artfima00"))
    patch(whittle, "periodogram", spanned("whittle.periodogram"))
    patch(whittle, "one_step_residuals", spanned("whittle.one_step_residuals"))

    # mc
    def after_chunk(fn, args, kwargs, result):
        tracer.counts["mc.chunks"] += 1

    for attr in ("run_estimation_study", "run_size_study"):
        patch(mc, attr, spanned("mc.study"))
    for attr in ("_estimation_chunk", "_size_chunk"):
        patch(mc, attr, spanned("mc.chunk", after_chunk))

    # empirical and cli
    from slmcoint import cli, empirical
    patch(empirical, "ckc_analysis", spanned("empirical.ckc_analysis"))
    patch(empirical, "ingest_ckc_csv", spanned("empirical.ingest_ckc_csv"))
    patch(cli, "main", spanned("cli.main"))

    def uninstall():
        for mod, name, original in reversed(undo):
            setattr(mod, name, original)

    return uninstall


# ------------------------------------------------------------------- metrics

PER_LAYER = (
    ("processes.sine_table.build_s", "s"),
    ("processes.f_eval.calls", "count"),
    ("processes.f_eval.busy_s", "s"),
    ("processes.f_eval.points", "count"),
    ("processes.simulate_regressor.calls", "count"),
    ("processes.simulate_regressor.busy_s", "s"),
    ("processes.simulate_innovations.busy_s", "s"),
    ("processes.simulate_error_ar1.busy_s", "s"),
    ("kernel_regression.kernel.mc.calls", "count"),
    ("kernel_regression.kernel.mc.busy_s", "s"),
    ("kernel_regression.kernel.mc.evals", "count"),
    ("kernel_regression.kernel.mc.useful_frac", "share"),
    ("kernel_regression.kernel.spec_test.calls", "count"),
    ("kernel_regression.kernel.spec_test.busy_s", "s"),
    ("kernel_regression.kernel.spec_test.evals", "count"),
    ("kernel_regression.kernel.spec_test.useful_frac", "share"),
    ("spec_test.subsample_statistics.calls", "count"),
    ("spec_test.subsample_statistics.busy_s", "s"),
    ("spec_test.subsample_statistics.blocks", "count"),
    ("spec_test.subsample_statistics.skipped", "count"),
    ("spec_test.subsample_statistics.matrix_bytes", "B"),
    ("spec_test.t_statistic.calls", "count"),
    ("spec_test.t_statistic.busy_s", "s"),
    ("spec_test.t_statistic.node_obs", "count"),
    ("spec_test.sliding_theta.busy_s", "s"),
    ("spec_test.nls_fit.busy_s", "s"),
    ("spec_test.run_spec_test.calls", "count"),
    ("spec_test.run_spec_test.busy_s", "s"),
    ("whittle.objective.calls", "count"),
    ("whittle.objective.busy_s", "s"),
    ("whittle.grid.evals", "count"),
    ("whittle.refine.evals", "count"),
    ("whittle.refine.busy_s", "s"),
    ("whittle.refine.nit", "count"),
    ("whittle.boundary_hits", "count"),
    ("whittle.fit_artfima00.busy_s", "s"),
    ("whittle.fit_arfima00.busy_s", "s"),
    ("whittle.simulate_artfima00.busy_s", "s"),
    ("whittle.periodogram.busy_s", "s"),
    ("whittle.one_step_residuals.busy_s", "s"),
    ("mc.study.busy_s", "s"),
    ("mc.self_s", "s"),
    ("mc.chunks", "count"),
    ("empirical.ckc_analysis.busy_s", "s"),
    ("empirical.self_s", "s"),
    ("empirical.ingest_ckc_csv.busy_s", "s"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
)


def _kernel_busy(spans):
    """Kernel span time per layer of the enclosing span."""
    out = {}
    for name, start, end, parent in spans:
        if name == "kernel_regression.kernel" and parent is not None:
            caller = layer_of(spans[parent][0])
            out[caller] = out.get(caller, 0.0) + (end - start)
    return out


def layer_metrics(tracer):
    """Values of every PER_LAYER metric from one traced run."""
    spans, c = tracer.spans, tracer.counts
    busy = busy_by_name(spans)
    selfs = self_by_layer(spans)
    kernel_busy = _kernel_busy(spans)
    out = {}
    for name, unit in PER_LAYER:
        if name == "processes.sine_table.build_s":
            value = busy.get("processes.sine_table", 0.0)
        elif name.startswith("kernel_regression.kernel."):
            caller, field = name.split(".")[2:]
            key = f"kernel_regression.kernel.{caller}"
            if field == "busy_s":
                value = kernel_busy.get(caller, 0.0)
            elif field == "useful_frac":
                evals = c[key + ".evals"]
                value = c[key + ".useful"] / evals if evals else 0.0
            else:
                value = c[f"{key}.{field}"]
        elif name.endswith(".self_s"):
            value = selfs.get(name.split(".")[0], 0.0)
        elif name.endswith(".busy_s"):
            value = busy.get(name[:-len(".busy_s")], 0.0)
        else:
            value = c[name]
        out[name] = {"value": value, "unit": unit}
    return out


def count_metrics(metrics):
    """The metrics that are counts and must repeat exactly."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "B")}
