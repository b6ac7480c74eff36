"""Whittle estimation of ARTFIMA(0, d, lam, 0) and ARFIMA(0, d, 0).

The tempered fractional noise model has spectral density

    f(w) = (sigma^2 / 2 pi) |1 - exp(-(lam + i w))|^{-2 d},

which reduces to ARFIMA(0, d, 0) at lam = 0, and is computed as exp(-d ln m)
from ln m = ln |1 - exp(-(lam + i w))|^2.  Estimation finds the first minimum
of the profile Whittle objective over a coarse (d, lam) grid and refines it by
Nelder-Mead on scalar calls.  The objective is convex in d for each lam, so
each lam column's minimum is found by bisection, one broadcast call over all
columns per step, and confirmed from its neighbours (or, where they cannot
confirm it, by scanning the column); a scalar call takes a short route with
the same operations.
"""

import math
import warnings
from dataclasses import dataclass, asdict
from types import SimpleNamespace

import numpy as np

from .kernel_regression import _check_finite, _check_positive
from .processes import (_TEMPER_LAG_FLOOR, _TEMPER_TRUNC_TOL, _check_memory,
                        fftconvolve, tempered_coeffs)

_TWO_PI = 2.0 * np.pi
ARTFIMA_D_RANGE = (-1.0, 3.0)
ARTFIMA_LAM_RANGE = (1e-6, 2.0)
ARFIMA_D_RANGE = (-0.5 + 1e-6, 0.5 - 1e-6)
_GRID_D_STEP = 0.05
_GRID_LAM_POINTS = 20
_AR_TRUNCATION = 50
# most (d, lam) cells per grid call of the objective (a bisection step, a
# chunk of the confirming windows or of a scanned column): bounds the
# cells x frequencies workspace, and so the peak memory of a fit
_GRID_CHUNK_CELLS = 60
# a window's +-2 cells must exceed its minimum by this, times max(1, |min|),
# to confirm it: far above rounding (about 1e-14), even for W near 0
_GRID_MARGIN = 1e-10
# Nelder-Mead's relative and zero-coordinate initial steps
_NM_STEP = 0.05
_NM_ZERO_STEP = 0.00025


def artfima_spectral_density(d, lam, sigma2, omega):
    """Spectral density of ARTFIMA(0, d, lam, 0) at frequencies in (0, pi]."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0) or np.any(omega > np.pi):
        raise ValueError("omega must lie in (0, pi]")
    _check_memory(None, d, "lam", lam)
    _check_positive("sigma2", sigma2)
    return (sigma2 / _TWO_PI) * np.exp(-d * _log_mod2(lam, np.cos(omega)))


def periodogram(series):
    """Periodogram I(w_j) = |sum_k z_k e^{-i w_j k}|^2 / (2 pi n) at Fourier
    frequencies w_j = 2 pi j / n, j = 1..floor((n-1)/2), of the mean-removed
    1-D series.  A constant series gives zeros (with a warning), as does one
    whose only power is at frequency pi (no warning); a non-finite
    value, or a scale where the squares overflow or lose digits, is rejected."""
    z = np.asarray(series, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"the series must be 1-D, got shape {z.shape}")
    n = z.shape[0]
    if n < 4:
        raise ValueError("need at least 4 observations")
    _check_finite("the series", z)
    z = z - z.mean()
    jmax = (n - 1) // 2
    coeffs = np.fft.rfft(z)[1:jmax + 1]
    with np.errstate(over="ignore"):
        pgram = np.abs(coeffs) ** 2 / (_TWO_PI * n)
    scale, tiny = np.abs(z).max(), np.finfo(float).tiny
    if np.any(np.isinf(pgram) | ((pgram > 0) & (pgram < tiny))) or 0 < scale < np.sqrt(tiny):
        raise ValueError("the periodogram of the series is out of float range "
                         f"(max |z - mean| = {scale:.3g}); rescale the series")
    if scale == 0:
        warnings.warn("constant series: all-zero periodogram", RuntimeWarning)
    freqs = _TWO_PI * np.arange(1, jmax + 1) / n
    return freqs, pgram


def _log_mod2(lam, cos_freqs):
    """ln |1 - e^{-(lam + i w)}|^2 from cos w, computed in place in one array
    (a 0-d one for scalar lam and cos w)."""
    m = np.asarray(np.multiply(2.0 * np.exp(-lam), cos_freqs))
    np.subtract(1.0, m, out=m)
    np.add(m, np.exp(-2.0 * lam), out=m)
    return np.log(m, out=m)


def _cells(v):
    """v with a trailing frequency axis, or a scalar if v is 0-d (so a
    scalar lam gives one 1-D ln m row, and a scalar call the scalar route)."""
    v = np.asarray(v, dtype=float)
    return v[..., None] if v.ndim else v[()]


def whittle_objective(d, lam, freqs, pgram, *, workspace=None, log_mod2=None):
    """Profile-sigma^2 Whittle objective,

    W(d, lam) = ln( mean_j I_j / g_j ) + mean_j ln g_j
              = ln( mean_j I_j exp(d ln m_j) ) - d mean_j ln m_j,

    with m_j = |1 - e^{-(lam+i w_j)}|^2 and g_j = m_j^{-d}, and inf where the
    mean ratio is not finite and > 0.  d and lam broadcast to cells, each
    computed by the same elementwise operations as a scalar call (a float).
    ``log_mod2``, ln m at lam with a trailing frequency axis, stands in for
    lam; ``workspace``, a flat array of at least cells x frequencies floats,
    holds the one such temporary.  Neither keyword changes a value.  A 0-d d
    with a 1-D ln m (the refinement's calls) takes a route with the same
    operations on one row and fewer numpy calls.
    """
    if log_mod2 is None:
        log_mod2 = _log_mod2(_cells(lam), np.cos(freqs))
    if np.ndim(d) == 0 and log_mod2.ndim == 1:
        t = np.multiply(d, log_mod2)
        ratio = np.add.reduce(np.multiply(pgram, np.exp(t, out=t), out=t)) / t.size
        if not 0.0 < ratio < np.inf:
            return math.inf
        # numpy's log, not math.log, which can differ in the last bit
        return float(np.log(ratio) - d * (np.add.reduce(log_mod2) / log_mod2.size))
    shape = np.broadcast_shapes(np.shape(_cells(d)), log_mod2.shape)
    work = np.empty(shape) if workspace is None else workspace[:math.prod(shape)].reshape(shape)
    ratio = np.multiply(_cells(d), log_mod2, out=work)
    ratio = np.mean(np.multiply(pgram, np.exp(ratio, out=ratio), out=ratio), axis=-1)
    ok = np.isfinite(ratio) & (ratio > 0)
    # ln 1 = 0 stands in for a bad ratio, so no log of it is taken
    log_ratio = np.log(np.where(ok, ratio, 1.0))
    return np.where(ok, log_ratio - np.asarray(d) * np.mean(log_mod2, axis=-1), np.inf)


def profile_sigma2(d, lam, freqs, pgram):
    """Innovation variance at the profile optimum: 2 pi mean_j I_j / g_j."""
    return float(_TWO_PI * np.mean(pgram * np.exp(d * _log_mod2(lam, np.cos(freqs)))))


def one_step_residuals(series, d, lam, truncation=_AR_TRUNCATION):
    """In-sample one-step residuals from the truncated AR(infinity) inversion
    of the fitted model, applied to the mean-removed series.

    The AR weights are the coefficients of (1 - e^{-lam} z)^{d}; early
    residuals use the available (shorter) history.
    """
    _check_memory(None, d, "lam", lam)
    z = np.asarray(series, dtype=float)
    _check_finite("the series", z)
    z = z - z.mean()
    return fftconvolve(z, tempered_coeffs(-d, lam, truncation))[:z.shape[0]]


@dataclass
class ArtfimaFit:
    """Whittle fit: parameters, objective value, in-sample one-step MSE and
    optimizer diagnostics.  ``lambda_hat`` is exactly 0 for ARFIMA fits."""

    d_hat: float
    lambda_hat: float
    sigma2_hat: float
    objective: float
    mse: float
    model: str
    boundary: bool
    grid_objective: float

    def to_dict(self):
        return asdict(self)


def minimize(fun, x0, bounds, xatol, fatol, maxiter):
    """Minimize ``fun`` over the box ``bounds`` by Nelder-Mead (Nelder &
    Mead 1965).  Returns ``x``, ``fun`` and the iteration count ``nit``.

    A step-for-step port of the non-adaptive bounded branch of scipy 1.17's
    ``minimize(method="Nelder-Mead")`` with ``maxiter`` and no limit on
    evaluations, so it returns the same floats: 5% (or 0.00025 for a zero
    coordinate) initial steps, an initial simplex reflected at the upper
    bounds and then clipped, every trial point clipped into the box, and a
    stop once both the simplex spread and the spread of its values are
    within ``xatol`` and ``fatol``.
    """
    lo, hi = np.asarray(bounds, dtype=float).T
    x0 = np.clip(np.asarray(x0, dtype=float).ravel(), lo, hi)
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + _NM_STEP) * y[k] if y[k] != 0 else _NM_ZERO_STEP
        sim[k + 1] = y
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.array([fun(v) for v in sim], dtype=float)
    # scipy sorts twice before its first iteration; argsort need not be
    # stable, so the second sort is kept
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        # reflection 1, expansion 2, contraction 1/2 and shrink 1/2
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip(2 * xbar - sim[-1], lo, hi)
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                fxc = fun(xc)
                shrink = not fxc <= fxr
            else:
                xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                fxc = fun(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = fun(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return SimpleNamespace(x=sim[0], fun=np.min(fsim), nit=iterations)


def _grid_minimum(d_grid, log_mod2, freqs, pgram):
    """Row, column and value of the first minimum, in d-major order, of the
    objective over ``d_grid`` x the lam rows of ``log_mod2``: the cell that
    ``np.argmin`` of the whole grid picks, from a fraction of its cells.

    For fixed lam, W(d) = ln mean_j(I_j e^{d l_j}) - d mean_j l_j with
    l_j = ln m_j is a log-mean-exp of affine functions of d less a linear
    term, so convex in d.  Each column's first minimum is found by bisection
    on the sign of W(d_{i+1}) - W(d_i), one broadcast call over all columns
    per step, and then taken as the first minimum of its cells i-2..i+2
    (clipped at the grid ends).  That is the column's first minimum if the
    cells are finite and each +-2 cell inside the grid exceeds their minimum
    by the margin: convexity puts every farther cell above that +-2 cell,
    and rounding cannot close the margin.  Otherwise the column is scanned
    whole.  The start is the least (value, d-major index) over the columns.
    Every call evaluates at most ``_GRID_CHUNK_CELLS`` cells into one
    workspace (see the README on minor faults).
    """
    n_rows, n_cols = d_grid.size, log_mod2.shape[0]
    workspace = np.empty(min(_GRID_CHUNK_CELLS, n_rows * n_cols) * freqs.size)

    def evaluate(rows, columns=slice(None)):
        # rows holds d_grid indices, one column per ln m row of ``columns``
        step = max(1, _GRID_CHUNK_CELLS // rows.shape[1])
        return np.concatenate([
            whittle_objective(d_grid[rows[k:k + step]], None, freqs, pgram,
                              workspace=workspace, log_mod2=log_mod2[columns])
            for k in range(0, len(rows), step)])

    lo, hi = np.zeros(n_cols, dtype=int), np.full(n_cols, n_rows - 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        pair = evaluate(np.minimum(mid + [[0], [1]], n_rows - 1))
        rising = pair[1] >= pair[0]
        lo, hi = np.where(rising | (lo == hi), lo, mid + 1), np.where(rising, mid, hi)
    cols = np.arange(n_cols)
    window = np.clip(lo + np.arange(-2, 3)[:, None], 0, n_rows - 1)
    values = evaluate(window)
    first = np.argmin(values, axis=0)
    row, value = window[first, cols], values[first, cols]
    floor = value + _GRID_MARGIN * np.maximum(1.0, np.abs(value))
    confirmed = (np.isfinite(values).all(axis=0)
                 & ((lo < 2) | (values[0] > floor))
                 & ((lo > n_rows - 3) | (values[-1] > floor)))
    for j in np.flatnonzero(~confirmed):
        column = evaluate(np.arange(n_rows)[:, None], slice(j, j + 1))[:, 0]
        row[j] = np.argmin(column)
        value[j] = column[row[j]]
    j = min(range(n_cols), key=lambda j: (value[j], row[j]))
    return int(row[j]), j, value[j]


def _fit(series, model, d_grid, lam_grid, bounds, maxiter):
    """The grid's first minimum in d-major order (``_grid_minimum``), refined
    by bounded Nelder-Mead; the refinement is kept only if it is no worse
    than the grid.  ``bounds`` holds the (d, lam) ranges, or only d's range
    when lam is fixed at the one point of ``lam_grid``.

    ln m is computed once per fit for the grid's lam rows, and from cos w_j,
    cached for the fit, at each refinement point, whose objective call
    takes the scalar route.
    """
    z = np.asarray(series, dtype=float)
    if z.size < 32:
        raise ValueError("need at least 32 observations for Whittle fitting")
    if np.ptp(z) == 0:
        raise ValueError("degenerate (constant) series")
    freqs, pgram = periodogram(z)
    if not np.any(pgram > 0):
        raise ValueError("the series has no power at any Fourier frequency "
                         "2 pi j / n, j = 1..floor((n-1)/2)")
    cos_freqs = np.cos(freqs)
    grid_log_mod2 = _log_mod2(_cells(lam_grid), cos_freqs)
    row, col, grid_obj = _grid_minimum(d_grid, grid_log_mod2, freqs, pgram)
    start = (d_grid[row], lam_grid[col])[:len(bounds)]
    free_lam = len(bounds) == 2

    def objective(p):
        lam = p[1] if free_lam else lam_grid[0]
        log_mod2 = _log_mod2(lam, cos_freqs) if free_lam else grid_log_mod2[0]
        return whittle_objective(p[0], lam, freqs, pgram, log_mod2=log_mod2)

    res = minimize(objective, np.asarray(start), bounds=bounds, xatol=1e-8, fatol=1e-10,
                   maxiter=maxiter)
    if res.fun <= grid_obj:
        params, obj = [float(v) for v in res.x], float(res.fun)
    else:
        params, obj = [float(v) for v in start], float(grid_obj)
    boundary = any(min(v - lo, hi - v) < 1e-4 for v, (lo, hi) in zip(params, bounds))
    d_hat = params[0]
    lam_hat = params[1] if free_lam else float(lam_grid[0])
    resid = one_step_residuals(z, d_hat, lam_hat)
    return ArtfimaFit(
        d_hat=d_hat, lambda_hat=lam_hat,
        sigma2_hat=profile_sigma2(d_hat, lam_hat, freqs, pgram),
        objective=obj, mse=float(np.mean(resid ** 2)), model=model,
        boundary=bool(boundary), grid_objective=float(grid_obj))


def fit_artfima00(series):
    """Whittle fit of ARTFIMA(0, d, lam, 0) over d in [-1, 3], lam in [1e-6, 2].

    A coarse grid scan (d step 0.05, lam log-spaced) is refined by
    Nelder-Mead; the refined optimum never exceeds the best grid value.
    Convergence onto the parameter bounds is flagged.
    """
    d_grid = np.arange(ARTFIMA_D_RANGE[0], ARTFIMA_D_RANGE[1] + 1e-9, _GRID_D_STEP)
    lam_grid = np.geomspace(ARTFIMA_LAM_RANGE[0], ARTFIMA_LAM_RANGE[1], _GRID_LAM_POINTS)
    return _fit(series, "artfima00", d_grid, lam_grid,
                [ARTFIMA_D_RANGE, ARTFIMA_LAM_RANGE], maxiter=4000)


def fit_arfima00(series):
    """Whittle fit of ARFIMA(0, d, 0) over d in (-1/2, 1/2) with lam = 0."""
    d_grid = np.arange(ARFIMA_D_RANGE[0], ARFIMA_D_RANGE[1] + 1e-9, _GRID_D_STEP / 2)
    return _fit(series, "arfima00", d_grid, np.zeros(1), [ARFIMA_D_RANGE], maxiter=2000)


def simulate_artfima00(n, d, lam, sigma2=1.0, rng=None, truncation=None):
    """Simulate ARTFIMA(0, d, lam, 0) noise via the truncated MA(infinity)
    representation with full pre-sample history."""
    _check_memory(None, d, "lam", lam)
    _check_positive("sigma2", sigma2)
    if rng is None:
        rng = np.random.default_rng()
    if truncation is None:
        truncation = n if lam <= 0 else min(
            4 * n, int(np.ceil(-np.log(_TEMPER_TRUNC_TOL) / lam)) + _TEMPER_LAG_FLOOR)
    phi = tempered_coeffs(d, lam, truncation)
    eps = np.sqrt(sigma2) * rng.standard_normal(n + truncation)
    return fftconvolve(eps, phi)[truncation:truncation + n]
