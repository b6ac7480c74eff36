"""Configuration-driven Monte Carlo studies: estimation error tables,
confidence-interval coverage tables and empirical-size tables for the
subsampled specification test.

Determinism: replication r draws its innovations from a generator seeded by
(master_seed, r) only, innovations are shared across memory settings within
a replication, and accumulation happens in fixed-size chunks combined in
chunk order, so every cell is reproducible bit for bit regardless of thread
count or cell execution order.
"""

import csv
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .processes import (TemperedProcessSpec, NoiseConfig, simulate_innovations,
                        simulate_regressor, simulate_error_ar1, sine_series_interpolator,
                        innovation_length, BURN_IN, _check_memory, _check_simulated_d)
from .kernel_regression import get_kernel, kernel_estimate, _check_count, _reach_mask
from .spec_test import (DEFAULT_WEIGHT_SUPPORT, parse_exponent, run_spec_test,
                        _at_size, _check_support)

SLM_RULES = {"SLM1": -1.0 / 3.0, "SLM2": -0.25, "SLM3": -0.2, "SLM4": -1.0 / 6.0}
_MEMORY_NAMES = {"LM": None, **SLM_RULES}  # memory setting names and their exponents
DEFAULT_BLOCK_RULES = ((0.5, 0.5), (1.0, 0.5), (2.0, 0.5), (4.0, 0.5))
DEFAULT_LEVELS = (0.01, 0.05, 0.10)
_CHUNK_SIZE = 25
_SIZE_QUAD_CELLS = 1024  # the quad_cells of every size study's full-sample statistic
# the integer fields of a study config, each with its least value
_COUNT_FIELDS = {"n": 1, "replications": 1, "chunk_size": 1, "grid_points": 1,
                 "master_seed": None}
_MIN_WINDOW_COUNT = 2  # window observations an estimation pair needs


def _number(field, value):
    """``value`` as a float, or a ValueError that names the config field; a
    bool or a string is not a number."""
    if not isinstance(value, (bool, np.bool_, str)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{field} must hold numbers, got {value!r}")


def _memory_exponent(entry):
    """The tempering exponent a (lam = n^a) of a ``memory_settings`` entry,
    or None for long memory: ``lm``, a name ``SLM1``..``SLM4``, or a rule
    ``n^a`` with -1 < a < 0.  The stored form, None or the number a, reads
    back as itself, since ``dataclasses.replace`` rebuilds a config from it."""
    if entry is None:
        return None
    if isinstance(entry, str):
        key = entry.strip().upper()
        if key in _MEMORY_NAMES:
            return _MEMORY_NAMES[key]
        rule = key.startswith("N^")
    else:  # a number is the exponent; a bool is not a number
        rule = isinstance(entry, (int, float)) and not isinstance(entry, bool)
    if not rule:
        raise ValueError(f"unknown memory setting {entry!r}; choose lm or one of "
                         f"{sorted(SLM_RULES)}")
    exponent = parse_exponent(entry)
    if not -1.0 < exponent < 0.0:
        raise ValueError("tempering schedule must satisfy lam -> 0 and n*lam -> inf "
                         f"(exponent in (-1, 0)), got {entry!r}")
    return exponent


def _memory_label(exponent):
    """``LM``, the name of a schedule ``SLM1``..``SLM4``, or ``SLM(n^a)``:
    the key of a setting's table cells and histogram files."""
    if exponent is None:
        return "LM"
    return next((name for name, a in SLM_RULES.items() if abs(a - exponent) < 1e-12),
                f"SLM(n^{exponent:g})")


@dataclass(frozen=True)
class BlockRule:
    """Block size b = floor(coef * n^exponent), of a finite coef and exponent."""

    coef: float
    exponent: float = 0.5

    def __post_init__(self):
        for name in ("coef", "exponent"):
            value = _number("block_rules", getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"block_rules must hold finite numbers, got {value!r}")
            object.__setattr__(self, name, value)

    def size(self, n):
        try:
            b = self.coef * float(n) ** self.exponent
        except OverflowError:
            b = np.inf
        if not np.isfinite(b):
            raise ValueError(f"block rule {self.label()} gives no finite b at n = {n}")
        return int(b)

    def label(self):
        return f"{self.coef:g}n^{self.exponent:g}"


@dataclass(frozen=True)
class StudyConfig:
    """Monte Carlo study configuration (JSON-serializable).

    Study-specific fields: ``eval_points``/``alpha`` for coverage,
    ``block_rules``/``nominal_levels``/``weight_support`` for size (whose
    full-sample statistics use 1024 quadrature cells; the block values are
    exact), ``grid_points`` for estimation.
    A ``memory_settings`` entry is stored as its tempering exponent, None
    for long memory.  The counts (``_COUNT_FIELDS``) must be integers, and
    the fields typed ``tuple`` lists (or tuples).  Every study simulates
    in-sample shocks only (presample 0) and an error warmed up over
    ``BURN_IN`` steps, under the sine series of the default number of terms.
    """

    study_kind: str
    n: int
    replications: int
    d_values: tuple
    memory_settings: tuple
    bandwidth_exponents: tuple
    rho: float = 0.5
    psi: float = 0.25
    sigma: float = 0.2
    master_seed: int = 20250808
    kernel: str = "epanechnikov"
    grid_points: int = 100
    eval_points: tuple = (0.25, 0.50, 0.75, 0.95)
    alpha: float = 0.05
    block_rules: tuple = DEFAULT_BLOCK_RULES
    nominal_levels: tuple = DEFAULT_LEVELS
    weight_support: tuple = DEFAULT_WEIGHT_SUPPORT
    chunk_size: int = _CHUNK_SIZE

    def __post_init__(self):
        if self.study_kind not in ("estimation", "coverage", "size"):
            raise ValueError("study_kind must be estimation, coverage or size")
        for f in fields(self):
            if f.type is tuple and not isinstance(getattr(self, f.name), (list, tuple)):
                raise ValueError(f"{f.name} must be a list, got {getattr(self, f.name)!r}")
        for name, least in _COUNT_FIELDS.items():
            _check_count(name, getattr(self, name), least)
        object.__setattr__(self, "alpha", _number("alpha", self.alpha))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        try:
            get_kernel(self.kernel)
        except ValueError as exc:
            raise ValueError(f"kernel: {exc}") from None
        for name in ("d_values", "eval_points", "nominal_levels", "weight_support"):
            object.__setattr__(self, name, tuple(_number(name, v) for v in getattr(self, name)))
        for name in ("rho", "psi", "sigma"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        object.__setattr__(self, "memory_settings", tuple(
            _memory_exponent(e) for e in self.memory_settings))
        object.__setattr__(self, "bandwidth_exponents", tuple(
            parse_exponent(e) for e in self.bandwidth_exponents))
        for he in self.bandwidth_exponents:
            # h = n^a; at a block, 2 <= b < n, b^a lies between 1 and n^a
            _at_size(f"n^{he!r}", self.n)
        for br in self.block_rules:
            if not (isinstance(br, BlockRule)
                    or isinstance(br, (list, tuple)) and len(br) == 2):
                raise ValueError("block_rules entries must be pairs [coef, exponent], "
                                 f"got {br!r}")
        object.__setattr__(self, "block_rules", tuple(
            br if isinstance(br, BlockRule) else BlockRule(*br)
            for br in self.block_rules))
        if not all(np.isfinite(self.d_values)):
            raise ValueError(f"d_values must be finite, got {list(self.d_values)}")
        if self.study_kind == "coverage" and not (
                self.eval_points and all(np.isfinite(self.eval_points))):
            raise ValueError("eval_points must be nonempty and finite, "
                             f"got {list(self.eval_points)}")
        _check_support(self.weight_support, "weight_support")
        for level in self.nominal_levels:
            if not 0.0 < level < 1.0:
                raise ValueError(f"nominal_levels must lie in (0, 1), got {level!r}")
        for br in self.block_rules if self.study_kind == "size" else ():
            if not 2 <= br.size(self.n) < self.n:
                raise ValueError(f"block_rules {br.label()} gives b = {br.size(self.n)} "
                                 f"at n = {self.n}; need 2 <= b < n")
        # each value keys its own cells and names its histogram file by its
        # :g form (6 digits): a repeat would count replications twice, and two
        # values that print alike would write one file
        for name, keys in (("d_values", self.d_values),
                           ("memory_settings", [_memory_label(a) for a in self.memory_settings]),
                           ("bandwidth_exponents", self.bandwidth_exponents)):
            printed = [f"{k:g}" if isinstance(k, float) else k for k in keys]
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise ValueError(f"{name} repeats {key!r}")
                if printed[i] in printed[:i]:
                    raise ValueError(f"{name} {keys[printed.index(printed[i])]!r} and "
                                     f"{key!r} both print as {printed[i]} in output file names")
        # a bad noise parameter fails here, not in a study's first chunk,
        # which may run in a forked worker
        self.noise()
        self.specs()

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["memory_settings"] = ["lm" if a is None else f"n^{a!r}"
                                  for a in self.memory_settings]
        out["block_rules"] = [[br.coef, br.exponent] for br in self.block_rules]
        return out

    @classmethod
    def from_dict(cls, payload):
        if not isinstance(payload, dict):
            raise ValueError("a study config must be a JSON object, "
                             f"got a {type(payload).__name__}")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown study config field(s): {', '.join(unknown)}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in payload]
        if missing:
            raise ValueError(f"missing required study config field(s): {', '.join(missing)}")
        try:
            return cls(**payload)
        except TypeError as exc:  # a field value of the wrong JSON type
            raise ValueError(f"study config: {exc}") from None

    def settings_grid(self):
        """The (exponent, d) combinations that the memory rule
        (``_check_memory``) admits: long memory keeps 0 <= d < 1/2.  A
        semi-long d below 0, which no regressor can be simulated with
        (``_check_simulated_d``), is an error, raised when the config is
        built."""
        out = []
        for a in self.memory_settings:
            lam = 0.0 if a is None else float(self.n) ** a
            for d in self.d_values:
                try:
                    _check_memory(d, "lam", lam)
                except ValueError:
                    continue
                _check_simulated_d(d, "d_values")
                out.append((a, d))
        return out

    def specs(self):
        """The ``TemperedProcessSpec`` of every (exponent, d) of
        ``settings_grid()``, in its order: in-sample shocks only."""
        return [TemperedProcessSpec(d=d, lam=0.0 if a is None else float(self.n) ** a,
                                    n=self.n, presample=0)
                for a, d in self.settings_grid()]

    def noise(self):
        """The ``NoiseConfig`` that every replication draws from."""
        return NoiseConfig(rho=self.rho, psi=self.psi, sigma=self.sigma,
                           seed=self.master_seed)


@dataclass
class StudyResult:
    """Study output: one table per criterion, raw histogram data and the
    config, which reproduces every cell bit for bit."""

    tables: dict
    histograms: dict
    config: StudyConfig

    def cell(self, criterion, **keys):
        for row in self.tables[criterion]:
            if all(_match(row.get(k), v) for k, v in keys.items()):
                return row
        raise KeyError(f"no {criterion} cell matching {keys}")


def _match(a, b):
    if isinstance(a, float) and isinstance(b, (int, float)):
        return abs(a - float(b)) < 1e-9
    return a == b


def _paths(config, lo, hi):
    """Yield (x, u) for replications lo..hi-1: x stacks one regressor per
    (setting, d) of ``settings_grid()``, shape (settings, n), and u is the
    error they share.  Replication r draws its innovations once, from a
    generator seeded by (master_seed, r)."""
    specs = config.specs()
    if not specs:
        return
    noise = config.noise()
    length = innovation_length(specs[0])
    for rep in range(lo, hi):
        rng = np.random.default_rng([config.master_seed, rep])
        xi, eps = simulate_innovations(length, noise, rng=rng)
        u = simulate_error_ar1(eps[-(config.n + BURN_IN):], config.psi, n_keep=config.n)
        # the whole stack is built first: the estimation and coverage
        # studies fit all of a replication's paths in one kernel pass
        x = np.stack([simulate_regressor(spec, xi) for spec in specs])
        yield x, u


def _cell_keys(config):
    """(label, d, bandwidth exponent) of every cell, in table order."""
    return [(_memory_label(a), d, he) for a, d in config.settings_grid()
            for he in config.bandwidth_exponents]


def _run_chunked(worker, config, threads):
    """Run ``worker`` on chunks of ``chunk_size`` replications, forking at
    most one of the ``threads`` workers per chunk (by fork, whatever the
    platform's default, so that workers share the parent's state).  Returns
    {cell key: [the cell's accumulator from each chunk, in chunk order]} and
    the chunk sizes."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    r, cs = config.replications, config.chunk_size
    bounds = [(lo, min(lo + cs, r)) for lo in range(0, r, cs)]
    jobs = [(config, lo, hi) for lo, hi in bounds]
    workers = min(threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            payloads = list(pool.map(worker, jobs))
    else:
        payloads = [worker(j) for j in jobs]
    cells = {key: [p[key] for p in payloads] for key in payloads[0]}
    return cells, [hi - lo for lo, hi in bounds]


def _batch_se(values):
    """Standard error from chunk-level statistics, ignoring empty chunks."""
    vals = np.asarray(values, dtype=float)
    n = np.count_nonzero(np.isfinite(vals))
    if n < 2:
        return float("nan")
    return float(np.nanstd(vals, ddof=1) / np.sqrt(n))

# ---------------------------------------------------------------- estimation

def _response(x, u, f, points, h, kernel, sigma):
    """y = f(x) + sigma*u for the stack of paths x, with f evaluated only
    where a kernel window at ``points`` reaches (``_reach_mask``).  Elsewhere
    y is sigma*u, which no window reads, so every fit equals the fit on the
    full response bit for bit."""
    y = np.broadcast_to(sigma * u, x.shape).copy()
    near = _reach_mask(x, points, h, kernel)
    y[near] += f(x[near])
    return y


def _nw_chunk(config, lo, hi, points, statistics, **fit):
    """Per cell, the sum over replications lo..hi-1 of the (statistic,
    point) array that ``statistics(est, f(points))`` gives for each path and
    bandwidth of the ``kernel_estimate`` at ``points`` (keywords ``fit``)."""
    kernel = get_kernel(config.kernel)
    h = np.array([float(config.n) ** he for he in config.bandwidth_exponents])
    f = sine_series_interpolator()
    ftrue = f(points)
    keys = _cell_keys(config)
    acc = 0.0  # (setting, bandwidth, statistic, point); cells in _cell_keys order
    for x, u in _paths(config, lo, hi):
        est = kernel_estimate(x, _response(x, u, f, points, h, kernel, config.sigma),
                              points, h, kernel, **fit)
        acc += statistics(est, ftrue)
    return dict(zip(keys, np.reshape(acc, (len(keys), -1, points.size)) if keys else ()))


def _estimation_statistics(est, ftrue):
    """The summands of ``_estimation_chunk``'s five rows."""
    ok = est.defined & (est.window_count >= _MIN_WINDOW_COUNT)
    e = np.where(ok, est.fhat - ftrue, 0.0)
    return np.stack([ok, e, e * e, ~est.defined, ~ok], axis=-2)


def _estimation_chunk(args):
    """Per cell, a (5, grid_points) array: the count, sum of errors, sum of
    squared errors, zero-mass (undefined) count and excluded count at each
    point."""
    config, lo, hi = args
    return _nw_chunk(config, lo, hi, np.linspace(0.0, 1.0, config.grid_points),
                     _estimation_statistics, variance=None)


def _point_stats(cnt, s1, s2):
    ok = cnt >= 2
    if not np.any(ok):
        return np.nan, np.nan, np.nan
    mean = s1[ok] / cnt[ok]
    var = (s2[ok] - cnt[ok] * mean ** 2) / (cnt[ok] - 1)
    var = np.maximum(var, 0.0)
    bias = float(np.mean(mean))
    std = float(np.mean(np.sqrt(var)))
    rmse = float(np.mean(np.sqrt(s2[ok] / cnt[ok])))
    return bias, std, rmse


def run_estimation_study(config, threads=1):
    """Bias / Std / RMSE of the kernel regression estimator over an
    equally spaced grid on [0, 1], averaged across grid points.

    A (replication, point) pair enters the averages only when its point is
    defined and its kernel window holds at least ``_MIN_WINDOW_COUNT`` (2)
    observations; the zero-mass (undefined) and excluded fractions are
    reported per cell, and cells with more than 1% zero-mass pairs are
    flagged.
    """
    chunks, _ = _run_chunked(_estimation_chunk, config, threads)
    tables = {"bias": [], "std": [], "rmse": []}
    pairs = config.replications * config.grid_points
    for (label, d, he), accs in chunks.items():
        tot = sum(accs)
        chunk_stats = [_point_stats(*acc[:3]) for acc in accs]
        zero_frac = tot[3].sum() / pairs
        base = {"memory": label, "bandwidth_rule": f"n^{he!r}",
                "bandwidth_exponent": he, "d": d,
                "zero_mass_frac": zero_frac, "excluded_frac": tot[4].sum() / pairs,
                "flagged": bool(zero_frac > 0.01)}
        stats = _point_stats(*tot[:3])
        for i, name in enumerate(tables):  # bias, std, rmse
            err = _batch_se([cs[i] for cs in chunk_stats])
            tables[name].append(dict(base, value=stats[i], mc_error=err))
    return StudyResult(tables, {}, config)


# ------------------------------------------------------------------ coverage

def _coverage_statistics(est, ftrue):
    """The summands of ``_coverage_chunk``'s three rows."""
    half = np.where(est.defined, est.half_width, 0.0)
    return np.stack([est.defined, est.defined & (np.abs(est.fhat - ftrue) <= half),
                     2.0 * half], axis=-2)


def _coverage_chunk(args):
    """Per cell, a (3, eval_points) array: the defined count, covered count
    and summed interval length at each point."""
    config, lo, hi = args
    return _nw_chunk(config, lo, hi, np.asarray(config.eval_points), _coverage_statistics,
                     alpha=config.alpha, variance="uncentered")


def run_coverage_study(config, threads=1):
    """Empirical coverage and expected length of the pointwise confidence
    interval at the requested x points.

    Coverage counts a replication as a miss when the point has no kernel
    mass (undefined interval); expected length averages over the defined
    replications.  The intervals use the uncentered local second moment of
    y (``kernel_estimate``'s ``variance="uncentered"``), the convention that
    reproduces the benchmark coverage table.  alpha = 1 is the degenerate
    zero-width interval (coverage 0, length 0).
    """
    chunks, sizes = _run_chunked(_coverage_chunk, config, threads)
    tables = {"coverage": [], "length": []}
    r = config.replications
    for (label, d, he), accs in chunks.items():
        ndef, ncov, slen = sum(accs)
        chunk_cov = [acc[1] / cs for acc, cs in zip(accs, sizes)]
        with np.errstate(invalid="ignore", divide="ignore"):
            chunk_len = [np.where(acc[0] > 0, acc[2] / np.maximum(acc[0], 1), np.nan)
                         for acc in accs]
        for i, x0 in enumerate(config.eval_points):
            base = {"memory": label, "bandwidth_rule": f"n^{he!r}",
                    "bandwidth_exponent": he, "d": d, "x": x0,
                    "defined_frac": ndef[i] / r}
            tables["coverage"].append(dict(
                base, value=ncov[i] / r,
                mc_error=_batch_se([cc[i] for cc in chunk_cov])))
            tables["length"].append(dict(
                base, value=slen[i] / ndef[i] if ndef[i] else np.nan,
                mc_error=_batch_se([cl[i] for cl in chunk_len])))
    return StudyResult(tables, {}, config)


# ---------------------------------------------------------------------- size

def _size_chunk(args):
    """Per cell, one row per replication: the normalized statistic, then 0/1
    for a rejection at each (block rule, level)."""
    config, lo, hi = args
    grid = config.settings_grid()
    sizes = [br.size(config.n) for br in config.block_rules]
    cells = {key: [] for key in _cell_keys(config)}
    for xs, u in _paths(config, lo, hi):
        for (a, d), x in zip(grid, xs):
            y = x + config.sigma * u  # H0: theta = (0, 1)
            lam = 0.0 if a is None else f"n^{a!r}"
            for he in config.bandwidth_exponents:
                results = run_spec_test(x, y, "linear", f"n^{he!r}", config.kernel,
                                        config.weight_support, d, lam, blocks=sizes,
                                        quad_cells=_SIZE_QUAD_CELLS)
                cells[_memory_label(a), d, he].append([results[0].t_normalized] + [
                    res.reject(lv) for res in results for lv in config.nominal_levels])
    return {key: np.array(rows, dtype=float) for key, rows in cells.items()}


def run_size_study(config, threads=1):
    """Empirical size: rejection frequency of the subsampled specification
    test on data generated under the linear null y = x + sigma*u."""
    chunks, sizes = _run_chunked(_size_chunk, config, threads)
    tables = {"size": []}
    histograms = {}
    r = config.replications
    columns = [(br, lv) for br in config.block_rules for lv in config.nominal_levels]
    for key, accs in chunks.items():
        rows = np.concatenate(accs)
        histograms[key] = rows[:, 0]
        label, d, he = key
        for j, (br, lv) in enumerate(columns, start=1):
            rates = [acc[:, j].sum() / cs for acc, cs in zip(accs, sizes)]
            tables["size"].append({
                "memory": label, "bandwidth_rule": f"n^{he!r}",
                "bandwidth_exponent": he, "d": d,
                "block_rule": br.label(), "block_size": br.size(config.n),
                "level": lv, "value": rows[:, j].sum() / r,
                "mc_error": _batch_se(rates)})
    return StudyResult(tables, histograms, config)


def run_study(config, threads=1):
    """Run the study that ``config.study_kind`` names.  Its runner is read
    from the module's globals at each call, so a wrapper set there runs."""
    runner = {"estimation": run_estimation_study,
              "coverage": run_coverage_study,
              "size": run_size_study}[config.study_kind]
    return runner(config, threads=threads)


# -------------------------------------------------------------------- export

_ERROR_COLUMNS = ("memory", "bandwidth_rule", "d", "value", "mc_error",
                  "zero_mass_frac", "excluded_frac")
_COVERAGE_COLUMNS = ("memory", "bandwidth_rule", "d", "x", "value", "mc_error",
                     "defined_frac")
_COLUMNS = {"bias": _ERROR_COLUMNS, "std": _ERROR_COLUMNS, "rmse": _ERROR_COLUMNS,
            "coverage": _COVERAGE_COLUMNS, "length": _COVERAGE_COLUMNS,
            "size": ("memory", "bandwidth_rule", "d", "block_rule", "level",
                     "value", "mc_error")}


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_json(path, payload):
    """Write ``payload`` as JSON with sorted keys, indent 2 and LF line
    ends: the format of every JSON file the package writes."""
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_csv(path, header, rows):
    """Write a CSV of cells that are already formatted, with LF line ends."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return path


def read_csv(path, columns=None):
    """{name: 1-D float array} of the named columns (all when None), in
    their order, from a numeric CSV whose first row names its columns.

    Names are stripped of spaces; a cell is parsed by ``float``, and an
    empty one is NaN (missing), as numpy's text readers read it.  A bad
    file is rejected with a message that names it, and the row."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        header = reader.fieldnames = [name.strip() for name in reader.fieldnames]
        try:
            [float(name) for name in header]
        except ValueError:
            pass
        else:
            raise ValueError(f"{path}: the first row {','.join(header)} is data; "
                             "the file needs a header row naming its columns")
        columns = header if columns is None else list(columns)
        missing = set(columns) - set(header)
        if missing:
            raise ValueError(f"{path}: missing column(s) {sorted(missing)}")
        values = {name: [] for name in columns}
        for i, row in enumerate(reader, start=1):
            for name in columns:
                cell = row[name]
                if cell is None:
                    raise ValueError(f"{path}: row {i}: no cell in column {name!r}")
                try:
                    values[name].append(float(cell) if cell.strip() else np.nan)
                except ValueError as exc:
                    raise ValueError(f"{path}: row {i}: {exc} in column {name!r}") from exc
    if not any(values.values()):
        raise ValueError(f"{path}: no data rows")
    return {name: np.array(cells, dtype=float) for name, cells in values.items()}


def export_study(result, outdir):
    """Write one CSV per criterion, the histogram data and the resolved
    config as ``study_config.json``.

    Output is byte-deterministic given the result, so re-running the study
    from ``study_config.json`` re-exports identical files.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    for criterion, rows in result.tables.items():
        cols = _COLUMNS[criterion]
        written.append(write_csv(
            os.path.join(outdir, f"{criterion}.csv"), cols,
            ([_fmt(row.get(c, "")) for c in cols] for row in rows)))
    for (label, d, he), values in result.histograms.items():
        written.append(write_csv(
            os.path.join(outdir, f"histogram_{label}_d{d:g}_h{-he:g}.csv"),
            ("t_normalized",), ([_fmt(v)] for v in values)))
    written.append(write_json(os.path.join(outdir, "study_config.json"),
                              result.config.to_dict()))
    return written
