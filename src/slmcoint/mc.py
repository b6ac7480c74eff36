"""Configuration-driven Monte Carlo studies: estimation error tables,
confidence-interval coverage tables and empirical-size tables for the
subsampled specification test.

Determinism: replication r draws its innovations from a generator seeded by
(master_seed, r) only, innovations are shared across memory settings within
a replication, and accumulation happens in fixed-size chunks combined in
chunk order, so every cell is reproducible bit for bit regardless of thread
count or cell execution order.
"""

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .processes import (MemoryKind, TemperedProcessSpec, NoiseConfig,
                        simulate_innovations, simulate_regressor,
                        simulate_error_ar1, sine_series_interpolator,
                        innovation_length)
from .kernel_regression import (get_kernel, nw_estimate, kernel_estimate,
                                _normal_quantile)
from .spec_test import (DEFAULT_WEIGHT_SUPPORT, linear_family, uniform_weight,
                        nls_fit, t_statistic, normalized_statistic,
                        subsample_statistics, subsample_quantile)

SLM_RULES = {"SLM1": -1.0 / 3.0, "SLM2": -0.25, "SLM3": -0.2, "SLM4": -1.0 / 6.0}
DEFAULT_BLOCK_RULES = ((0.5, 0.5), (1.0, 0.5), (2.0, 0.5), (4.0, 0.5))
DEFAULT_LEVELS = (0.01, 0.05, 0.10)
_CHUNK_SIZE = 25
_MIN_WINDOW_COUNT = 2  # window observations an estimation pair needs


def _slm_rule(name):
    """Tempering exponent of the named schedule SLM1..SLM4."""
    key = str(name).strip().upper()
    if key not in SLM_RULES:
        raise ValueError(f"unknown SLM rule {name!r}; choose from {sorted(SLM_RULES)}")
    return SLM_RULES[key]


def parse_exponent(value):
    """Exponent a of a power rule n^a, from a number or strings like
    'n^-1/3', '1/sqrt(n)', '1/n'."""
    if isinstance(value, (int, float)):
        return float(value)
    s = str(value).strip().lower().replace(" ", "")
    if s in ("1/sqrt(n)", "n^-1/2"):
        return -0.5
    if s == "1/n":
        return -1.0
    if s.startswith("n^"):
        body = s[2:].strip("{}")
        if "/" in body:
            num, den = body.split("/")
            return float(num) / float(den)
        return float(body)
    raise ValueError(f"cannot parse power rule {value!r}")


@dataclass(frozen=True)
class MemorySetting:
    """Regressor memory setting: the kind plus the tempering schedule
    lam = n^lambda_exponent for semi-long memory."""

    kind: MemoryKind
    lambda_exponent: float = None
    label: str = None

    def __post_init__(self):
        object.__setattr__(self, "kind", MemoryKind.parse(self.kind))
        if self.kind is MemoryKind.SEMI_LONG:
            if self.lambda_exponent is None:
                raise ValueError("semi-long setting needs a lambda exponent")
            if not (-1.0 < self.lambda_exponent < 0.0):
                raise ValueError(
                    "tempering schedule must satisfy lam -> 0 and n*lam -> inf "
                    "(exponent in (-1, 0))")
        if self.label is None:
            if self.kind is MemoryKind.SEMI_LONG:
                for name, expo in SLM_RULES.items():
                    if abs(expo - self.lambda_exponent) < 1e-12:
                        object.__setattr__(self, "label", name)
                        break
                else:
                    object.__setattr__(self, "label", f"SLM(n^{self.lambda_exponent:g})")
            else:
                object.__setattr__(self, "label",
                                   "LM" if self.kind is MemoryKind.LONG else "SHORT")

    def lam(self, n):
        if self.kind is MemoryKind.SEMI_LONG:
            return float(n) ** self.lambda_exponent
        return 0.0

    def to_dict(self):
        return {"kind": self.kind.value, "lambda_exponent": self.lambda_exponent,
                "label": self.label}

    @classmethod
    def from_dict(cls, payload):
        if isinstance(payload, str):
            # a named schedule SLM1..SLM4; a bare "slm" is the memory kind
            if payload[:3].upper() == "SLM" and payload[3:].strip():
                return cls(MemoryKind.SEMI_LONG, _slm_rule(payload))
            return cls(MemoryKind.parse(payload))
        payload = dict(payload)
        rule = payload.pop("rule", None)
        if rule is not None:
            payload.setdefault("lambda_exponent", _slm_rule(rule))
            payload.setdefault("kind", "semi_long")
        if payload.get("lambda_exponent") is not None:
            payload["lambda_exponent"] = parse_exponent(payload["lambda_exponent"])
        return cls(**payload)


@dataclass(frozen=True)
class BlockRule:
    """Block size b = floor(coef * n^exponent)."""

    coef: float
    exponent: float = 0.5

    def size(self, n):
        return int(self.coef * float(n) ** self.exponent)

    def label(self):
        return f"{self.coef:g}n^{self.exponent:g}"


@dataclass(frozen=True)
class StudyConfig:
    """Monte Carlo study configuration (JSON-serializable).

    Study-specific fields: ``eval_points``/``alpha`` for coverage,
    ``block_rules``/``nominal_levels``/``weight_support``/``quad_cells`` for
    size, ``grid_points`` for estimation.  ``presample`` is the shock
    history length used by the simulations (0 = in-sample innovations only,
    the tables' convention; "full" = complete truncated history).
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
    f_terms: int = 1000
    burn_in: int = 1000
    kernel: str = "epanechnikov"
    grid_points: int = 100
    eval_points: tuple = (0.25, 0.50, 0.75, 0.95)
    alpha: float = 0.05
    block_rules: tuple = DEFAULT_BLOCK_RULES
    nominal_levels: tuple = DEFAULT_LEVELS
    weight_support: tuple = DEFAULT_WEIGHT_SUPPORT
    quad_cells: int = 1024
    presample: object = 0
    chunk_size: int = _CHUNK_SIZE

    def __post_init__(self):
        if self.study_kind not in ("estimation", "coverage", "size"):
            raise ValueError("study_kind must be estimation, coverage or size")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        object.__setattr__(self, "d_values", tuple(float(v) for v in self.d_values))
        object.__setattr__(self, "memory_settings", tuple(
            ms if isinstance(ms, MemorySetting) else MemorySetting.from_dict(ms)
            for ms in self.memory_settings))
        object.__setattr__(self, "bandwidth_exponents", tuple(
            parse_exponent(e) for e in self.bandwidth_exponents))
        object.__setattr__(self, "block_rules", tuple(
            br if isinstance(br, BlockRule) else BlockRule(*br)
            for br in self.block_rules))
        object.__setattr__(self, "eval_points", tuple(float(v) for v in self.eval_points))
        object.__setattr__(self, "nominal_levels",
                           tuple(float(v) for v in self.nominal_levels))
        object.__setattr__(self, "weight_support",
                           tuple(float(v) for v in self.weight_support))

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["memory_settings"] = [ms.to_dict() for ms in self.memory_settings]
        out["block_rules"] = [[br.coef, br.exponent] for br in self.block_rules]
        return out

    def to_json(self, path=None):
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is None:
            return payload
        with open(path, "w", newline="\n") as fh:
            fh.write(payload + "\n")

    @classmethod
    def from_dict(cls, payload):
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown study config field(s): {', '.join(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def settings_grid(self):
        """(setting, d) combinations, honoring the memory-kind d ranges:
        long memory rows with d outside [0, 1/2) are skipped."""
        out = []
        for ms in self.memory_settings:
            for d in self.d_values:
                if ms.kind is MemoryKind.LONG and not (0.0 <= d < 0.5):
                    continue
                if ms.kind is MemoryKind.SHORT and d != 0.0:
                    continue
                out.append((ms, d))
        return out

    def spec_for(self, setting, d):
        return TemperedProcessSpec(
            d=d, lam=setting.lam(self.n), n=self.n, memory_kind=setting.kind,
            burn_in=self.burn_in, presample=self.presample)


@dataclass
class StudyResult:
    """Study output: one table per criterion plus raw histogram data and a
    manifest sufficient to reproduce every cell bit for bit."""

    study_kind: str
    tables: dict
    histograms: dict
    config: StudyConfig

    def cell(self, criterion, **keys):
        for row in self.tables[criterion]:
            if all(_match(row.get(k), v) for k, v in keys.items()):
                return row
        raise KeyError(f"no {criterion} cell matching {keys}")

    def manifest(self):
        return self.config.to_dict()


def _match(a, b):
    if isinstance(a, float) and isinstance(b, (int, float)):
        return abs(a - float(b)) < 1e-9
    return a == b


def _paths(config, lo, hi):
    """Yield (setting, d, x, u) for every (setting, d) of replications
    lo..hi-1.  Replication r draws its innovations once, from a generator
    seeded by (master_seed, r), and shares them across the settings."""
    grid = config.settings_grid()
    if not grid:
        return
    noise = NoiseConfig(rho=config.rho, psi=config.psi, sigma=config.sigma,
                        seed=config.master_seed)
    length = innovation_length(config.spec_for(*grid[0]))
    for rep in range(lo, hi):
        rng = np.random.default_rng([config.master_seed, rep])
        xi, eps = simulate_innovations(length, noise, rng=rng)
        u = simulate_error_ar1(eps, config.psi, n_keep=config.n)
        # all of a replication's regressors are built before any is used:
        # building each just before its kernel sums measured 5-10% slower
        # on the estimation study (2-core host)
        xs = [simulate_regressor(config.spec_for(ms, d), xi) for ms, d in grid]
        for (ms, d), x in zip(grid, xs):
            yield ms, d, x, u


def _cell_keys(config):
    """(label, d, bandwidth exponent) of every cell, in table order."""
    return [(ms.label, d, he) for ms, d in config.settings_grid()
            for he in config.bandwidth_exponents]


def _run_chunked(worker, config, threads):
    """Run ``worker`` on chunks of ``chunk_size`` replications.  Returns
    {cell key: [the cell's accumulator from each chunk, in chunk order]}
    and the chunk sizes."""
    r, cs = config.replications, config.chunk_size
    bounds = [(lo, min(lo + cs, r)) for lo in range(0, r, cs)]
    jobs = [(config, lo, hi) for lo, hi in bounds]
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(np.nanstd(vals, ddof=1) / np.sqrt(len(vals)))

# ---------------------------------------------------------------- estimation

def _f_evaluator(config):
    # f_terms = 0 selects the zero regression function
    if config.f_terms == 0:
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return sine_series_interpolator(config.f_terms)


def _estimation_chunk(args):
    """Per cell, a (5, grid_points) array: the count, sum of errors, sum of
    squared errors, zero-mass count and excluded count at each point."""
    config, lo, hi = args
    kernel = get_kernel(config.kernel)
    grid = np.linspace(0.0, 1.0, config.grid_points)
    f = _f_evaluator(config)
    ftrue = f(grid)
    cells = {key: np.zeros((5, config.grid_points)) for key in _cell_keys(config)}
    for ms, d, x, u in _paths(config, lo, hi):
        y = f(x) + config.sigma * u
        for he in config.bandwidth_exponents:
            est = nw_estimate(x, y, grid, float(config.n) ** he, kernel)
            ok = est.defined & (est.window_count >= _MIN_WINDOW_COUNT)
            e = est.fhat[ok] - ftrue[ok]
            acc = cells[ms.label, d, he]
            acc[0, ok] += 1.0
            acc[1, ok] += e
            acc[2, ok] += e * e
            acc[3] += est.local_mass == 0
            acc[4] += ~ok
    return cells


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

    A (replication, point) pair enters the averages only when its kernel
    window holds at least ``_MIN_WINDOW_COUNT`` (2) observations; the
    zero-mass and excluded fractions are reported per cell, and cells with
    more than 1% zero-mass pairs are flagged.
    """
    if config.study_kind != "estimation":
        raise ValueError("config.study_kind must be 'estimation'")
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
    return StudyResult("estimation", tables, {}, config)


# ------------------------------------------------------------------ coverage

def _coverage_chunk(args):
    """Per cell, a (3, eval_points) array: the defined count, covered count
    and summed interval length at each point."""
    config, lo, hi = args
    kernel = get_kernel(config.kernel)
    f = _f_evaluator(config)
    pts = np.asarray(config.eval_points)
    fpts = f(pts)
    cells = {key: np.zeros((3, pts.shape[0])) for key in _cell_keys(config)}
    for ms, d, x, u in _paths(config, lo, hi):
        y = f(x) + config.sigma * u
        for he in config.bandwidth_exponents:
            est = kernel_estimate(x, y, pts, float(config.n) ** he, kernel,
                                  alpha=config.alpha, variance="uncentered")
            ok = est.defined
            half = est.half_width[ok]
            acc = cells[ms.label, d, he]
            acc[0, ok] += 1
            acc[1, ok] += np.abs(est.fhat[ok] - fpts[ok]) <= half
            acc[2, ok] += 2.0 * half
    return cells


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
    if config.study_kind != "coverage":
        raise ValueError("config.study_kind must be 'coverage'")
    # validated, and resolved (with scipy imported) once here: forked
    # workers inherit the cached z instead of each paying the import
    _normal_quantile(config.alpha)
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
    return StudyResult("coverage", tables, {}, config)


# ---------------------------------------------------------------------- size

def _size_chunk(args):
    """Per cell, one row per replication: the normalized statistic, then 0/1
    for a rejection at each (block rule, level)."""
    config, lo, hi = args
    kernel = get_kernel(config.kernel)
    weight = uniform_weight(*config.weight_support)
    family = linear_family()
    cells = {key: [] for key in _cell_keys(config)}
    for ms, d, x, u in _paths(config, lo, hi):
        y = x + config.sigma * u  # H0: theta = (0, 1)
        lam = ms.lam(config.n)
        theta = nls_fit(family, x, y)
        for he in config.bandwidth_exponents:
            h = float(config.n) ** he
            t_raw = t_statistic(x, y, family, theta, h, kernel,
                                weight, config.quad_cells)
            t_norm, _ = normalized_statistic(t_raw, config.n, lam, d, h, ms.kind)
            row = [t_norm]
            for br in config.block_rules:
                b = br.size(config.n)
                vals = subsample_statistics(
                    x, y, family, b, float(b) ** he, ms.lam(b), d, ms.kind, kernel,
                    weight, config.quad_cells)
                row += [t_norm > subsample_quantile(vals, lv)
                        for lv in config.nominal_levels]
            cells[ms.label, d, he].append(row)
    return {key: np.array(rows, dtype=float) for key, rows in cells.items()}


def run_size_study(config, threads=1):
    """Empirical size: rejection frequency of the subsampled specification
    test on data generated under the linear null y = x + sigma*u."""
    if config.study_kind != "size":
        raise ValueError("config.study_kind must be 'size'")
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
    return StudyResult("size", tables, histograms, config)


def run_study(config, threads=1):
    runner = {"estimation": run_estimation_study,
              "coverage": run_coverage_study,
              "size": run_size_study}[config.study_kind]
    return runner(config, threads=threads)


# -------------------------------------------------------------------- export

_COLUMNS = {
    "bias": ("memory", "bandwidth_rule", "d", "value", "mc_error",
             "zero_mass_frac", "excluded_frac"),
    "std": ("memory", "bandwidth_rule", "d", "value", "mc_error",
            "zero_mass_frac", "excluded_frac"),
    "rmse": ("memory", "bandwidth_rule", "d", "value", "mc_error",
             "zero_mass_frac", "excluded_frac"),
    "coverage": ("memory", "bandwidth_rule", "d", "x", "value", "mc_error",
                 "defined_frac"),
    "length": ("memory", "bandwidth_rule", "d", "x", "value", "mc_error",
               "defined_frac"),
    "size": ("memory", "bandwidth_rule", "d", "block_rule", "level", "value",
             "mc_error"),
}


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def export_study(result, outdir):
    """Write one CSV per criterion, histogram data and the JSON manifest.

    Output is byte-deterministic given the result, so re-running a study
    from its manifest re-exports identical files.
    """
    import os
    os.makedirs(outdir, exist_ok=True)
    written = []
    for criterion, rows in result.tables.items():
        cols = _COLUMNS[criterion]
        path = os.path.join(outdir, f"{criterion}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
        written.append(path)
    for (label, d, he), values in result.histograms.items():
        path = os.path.join(outdir, f"histogram_{label}_d{d:g}_h{-he:g}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write("t_normalized\n")
            for v in values:
                fh.write(repr(float(v)) + "\n")
        written.append(path)
    mpath = os.path.join(outdir, "manifest.json")
    with open(mpath, "w", newline="\n") as fh:
        fh.write(json.dumps(result.manifest(), indent=2, sort_keys=True) + "\n")
    written.append(mpath)
    return written
