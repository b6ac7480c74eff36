"""Whittle estimation of ARTFIMA(0, d, lam, 0) and ARFIMA(0, d, 0).

The tempered fractional noise model has spectral density

    f(w) = (sigma^2 / 2 pi) |1 - exp(-(lam + i w))|^{-2 d},

which reduces to ARFIMA(0, d, 0) at lam = 0.  Estimation minimizes the
profile-sigma^2 Whittle objective over a coarse (d, lam) grid, scanned by
broadcast evaluations of the objective over a few d rows at a time, followed
by derivative-free refinement of its scalar case.
"""

import json
import math
import warnings
from dataclasses import dataclass, asdict
from types import SimpleNamespace

import numpy as np

from .kernel_regression import _check_positive
from .processes import _check_memory, fftconvolve, tempered_coeffs

_TWO_PI = 2.0 * np.pi
ARTFIMA_D_RANGE = (-1.0, 3.0)
ARTFIMA_LAM_RANGE = (1e-6, 2.0)
ARFIMA_D_RANGE = (-0.5 + 1e-6, 0.5 - 1e-6)
_GRID_D_STEP = 0.05
_GRID_LAM_POINTS = 20
_AR_TRUNCATION = 50
# (d, lam) cells per broadcast grid evaluation: bounds the cells x frequencies
# workspace (one cell-wide broadcast over the whole grid is no faster)
_GRID_CHUNK_CELLS = 60
# Nelder-Mead's relative and zero-coordinate initial steps
_NM_STEP = 0.05
_NM_ZERO_STEP = 0.00025


def artfima_spectral_density(d, lam, sigma2, omega):
    """Spectral density of ARTFIMA(0, d, lam, 0) at frequencies in (0, pi]."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0) or np.any(omega > np.pi):
        raise ValueError("omega must lie in (0, pi]")
    _check_positive("sigma2", sigma2)
    return (sigma2 / _TWO_PI) * _transfer(d, lam, omega)


def periodogram(series):
    """Periodogram I(w_j) = |sum_k z_k e^{-i w_j k}|^2 / (2 pi n) at Fourier
    frequencies w_j = 2 pi j / n, j = 1..floor((n-1)/2), on the mean-removed
    series.  A constant series yields an all-zero periodogram (flagged with
    a warning); a non-finite value is rejected."""
    z = np.asarray(series, dtype=float)
    n = z.shape[0]
    if n < 4:
        raise ValueError("need at least 4 observations")
    bad = n - np.count_nonzero(np.isfinite(z))
    if bad:
        raise ValueError(f"non-finite input: {bad} NaN or inf value(s) in the series")
    z = z - z.mean()
    jmax = (n - 1) // 2
    coeffs = np.fft.rfft(z)[1:jmax + 1]
    pgram = np.abs(coeffs) ** 2 / (_TWO_PI * n)
    if not np.any(pgram > 0):
        warnings.warn("constant series: all-zero periodogram", RuntimeWarning)
    freqs = _TWO_PI * np.arange(1, jmax + 1) / n
    return freqs, pgram


def _mod2(lam, freqs):
    """|1 - e^{-(lam + i w)}|^2."""
    return 1.0 - 2.0 * np.exp(-lam) * np.cos(freqs) + np.exp(-2.0 * lam)


def _transfer(d, lam, freqs):
    return _mod2(lam, freqs) ** (-d)


def _cells(v):
    """v with a trailing frequency axis, or a scalar if v is 0-d (the
    refinement's calls then skip broadcasting a one-element axis)."""
    v = np.asarray(v, dtype=float)
    return v[..., None] if v.ndim else v[()]


def whittle_objective(d, lam, freqs, pgram, *, workspace=None):
    """Profile-sigma^2 Whittle objective,

    W(d, lam) = ln( mean_j I_j / g_j ) + mean_j ln g_j,

    with g_j the unit-variance transfer |1 - e^{-(lam+i w_j)}|^{-2d}, and
    inf where the mean ratio is not finite and > 0.  d and lam broadcast
    against each other to an array of cells, each computed by the same
    elementwise operations as a scalar call, which returns a float.
    ``workspace``, a flat float array of at least 2 x cells x frequencies
    entries, receives the cells x frequencies temporaries (one is allocated
    when it is omitted); the values do not depend on it.
    """
    d, lam = _cells(d), _cells(lam)
    mod2 = _mod2(lam, freqs)
    shape = np.broadcast_shapes(np.shape(d), mod2.shape)
    size = math.prod(shape)
    if workspace is None:
        workspace = np.empty(2 * size)
    g = np.power(mod2, -d, out=workspace[:size].reshape(shape))
    scratch = workspace[size:2 * size].reshape(shape)
    ratio = np.mean(np.divide(pgram, g, out=scratch), axis=-1)
    mean_log_g = np.mean(np.log(g, out=scratch), axis=-1)
    ok = np.isfinite(ratio) & (ratio > 0)
    # ln 1 = 0 stands in for a bad ratio, so no log of it is taken
    obj = np.where(ok, np.log(np.where(ok, ratio, 1.0)) + mean_log_g, np.inf)
    return float(obj) if obj.ndim == 0 else obj


def profile_sigma2(d, lam, freqs, pgram):
    """Innovation variance at the profile optimum: 2 pi mean_j I_j / g_j."""
    return float(_TWO_PI * np.mean(pgram / _transfer(d, lam, freqs)))


def one_step_residuals(series, d, lam, truncation=_AR_TRUNCATION):
    """In-sample one-step residuals from the truncated AR(infinity) inversion
    of the fitted model, applied to the mean-removed series.

    The AR weights are the coefficients of (1 - e^{-lam} z)^{d}; early
    residuals use the available (shorter) history.
    """
    z = np.asarray(series, dtype=float)
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

    def to_json(self, path=None):
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is None:
            return payload
        with open(path, "w", newline="\n") as fh:
            fh.write(payload + "\n")


def _check_series(series):
    z = np.asarray(series, dtype=float)
    if z.shape[0] < 32:
        raise ValueError("need at least 32 observations for Whittle fitting")
    if np.ptp(z) == 0:
        raise ValueError("degenerate (constant) series")
    return z


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


def _fit(series, model, d_grid, lam_grid, bounds, maxiter):
    """Grid scan (first minimum in d-major order, by broadcast objective
    calls over chunks of d rows) refined by bounded Nelder-Mead; the
    refinement is kept only if it is no worse than the grid.  ``bounds``
    holds the (d, lam) ranges, or only d's range when lam is fixed at the
    one point of ``lam_grid``.

    The chunks share one workspace, allocated once per fit.  With fresh
    ~0.5 MB temporaries per chunk, glibc can hand them back to the OS and
    fault them in again on every chunk, depending on what else holds the
    top of the heap: up to about 6,500 minor faults per n=2000 series, and
    1.4x the time.
    """
    z = _check_series(series)
    freqs, pgram = periodogram(z)
    rows = max(1, _GRID_CHUNK_CELLS // lam_grid.size)
    workspace = np.empty(2 * min(rows, d_grid.size) * lam_grid.size * freqs.size)
    objs = np.concatenate([whittle_objective(d_grid[i:i + rows, None], lam_grid, freqs, pgram,
                                             workspace=workspace)
                           for i in range(0, d_grid.size, rows)])
    i0 = np.unravel_index(np.argmin(objs), objs.shape)
    grid_obj, start = objs[i0], (d_grid[i0[0]], lam_grid[i0[1]])[:len(bounds)]
    free_lam = len(bounds) == 2

    def objective(p):
        return whittle_objective(p[0], p[1] if free_lam else lam_grid[0], freqs, pgram)

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
            4 * n, int(np.ceil(-np.log(1e-12) / lam)) + 50)
    phi = tempered_coeffs(d, lam, truncation)
    eps = np.sqrt(sigma2) * rng.standard_normal(n + truncation)
    return fftconvolve(eps, phi)[truncation:truncation + n]
