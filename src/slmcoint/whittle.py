"""Whittle estimation of ARTFIMA(0, d, lam, 0) and ARFIMA(0, d, 0).

The tempered fractional noise model has spectral density
f(w) = (sigma^2 / 2 pi) |1 - exp(-(lam + i w))|^{-2 d}, which reduces to
ARFIMA(0, d, 0) at lam = 0, and is computed as exp(-d ln m) from
ln m = ln |1 - exp(-(lam + i w))|^2.  The profile Whittle objective is
convex in d for each lam, so Newton finds each lam row's minimum in d from
any start.  Estimation profiles 20 log-spaced lam rows in d by Newton from
the middle of d's range, then runs a secant in ln lam on the slope of the
profile next to the best row.
"""

import math
import warnings
from dataclasses import dataclass, asdict
from types import SimpleNamespace

import numpy as np

from .kernel_regression import _check_finite, _check_positive
from .processes import _check_tempering, _tempered_lag_cap, fftconvolve, tempered_coeffs

_TWO_PI = 2.0 * np.pi
ARTFIMA_D_RANGE = (-1.0, 3.0)
ARTFIMA_LAM_RANGE = (1e-6, 2.0)
ARFIMA_D_RANGE = (-0.5 + 1e-6, 0.5 - 1e-6)
_GRID_LAM_POINTS = 20
_AR_TRUNCATION = 50
# Newton steps in d, and the secant's interval in ln lam, end below these
_NEWTON_TOL = _SECANT_TOL = 1e-10


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


def _sin2_half(freqs):
    """sin^2(w/2), from which ``_log_mod2`` computes ln m."""
    return np.square(np.sin(0.5 * freqs))


def _log_mod2(lam, sin2_half):
    """ln m = ln |1 - e^{-(lam + i w)}|^2, in place in one array (0-d for
    scalar arguments), as m = expm1(-lam)^2 + 4 e^{-lam} sin^2(w/2): unlike
    1 - 2 e^{-lam} cos w + e^{-2 lam}, it does not cancel at low w and lam."""
    m = np.asarray(np.multiply(4.0 * np.exp(-lam), sin2_half))
    np.add(m, np.square(np.expm1(-lam)), out=m)
    return np.log(m, out=m)


def _cells(v):
    """v with a trailing frequency axis, or a scalar if v is 0-d (so a
    scalar lam gives one 1-D ln m row)."""
    v = np.asarray(v, dtype=float)
    return v[..., None] if v.ndim else v[()]


def whittle_objective(d, lam, freqs, pgram):
    """Profile-sigma^2 Whittle objective,

    W(d, lam) = ln( mean_j I_j / g_j ) + mean_j ln g_j
              = ln( mean_j I_j exp(d ln m_j) ) - d mean_j ln m_j,

    with m_j = |1 - e^{-(lam+i w_j)}|^2 and g_j = m_j^{-d}, and inf where the
    mean ratio is not finite and > 0.  d and lam broadcast to cells, each
    computed by the same elementwise operations as a scalar call, which
    returns a float.
    """
    log_mod2 = _log_mod2(_cells(lam), _sin2_half(freqs))
    ratio = np.multiply(_cells(d), log_mod2)
    ratio = np.mean(np.multiply(pgram, np.exp(ratio, out=ratio), out=ratio), axis=-1)
    ok = np.isfinite(ratio) & (ratio > 0)
    # ln 1 = 0 stands in for a bad ratio, so no log of it is taken
    log_ratio = np.log(np.where(ok, ratio, 1.0))
    value = np.where(ok, log_ratio - np.asarray(d) * np.mean(log_mod2, axis=-1), np.inf)
    return float(value) if value.ndim == 0 else value


def profile_sigma2(d, lam, freqs, pgram):
    """Innovation variance at the profile optimum: 2 pi mean_j I_j / g_j."""
    return float(_TWO_PI * np.mean(pgram * np.exp(d * _log_mod2(lam, _sin2_half(freqs)))))


def one_step_residuals(series, d, lam):
    """In-sample one-step residuals of the mean-removed series from the
    fitted model's AR weights, the coefficients of (1 - e^{-lam} z)^{d} up to
    lag ``_AR_TRUNCATION``; early residuals use the shorter history."""
    _check_tempering(d, "lam", lam)
    z = np.asarray(series, dtype=float)
    _check_finite("the series", z)
    z = z - z.mean()
    return fftconvolve(z, tempered_coeffs(-d, lam, _AR_TRUNCATION))[:z.shape[0]]


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

    def to_dict(self):
        return asdict(self)


def _profile_d(weights, log_mod2, d, bounds):
    """Minimize W(d) = ln sum_j(w_j e^{d l_j}) - d mean_j l_j over ``bounds``
    by Newton from ``d``, for each row l of ``log_mod2``.  With a_j = w_j
    e^{d l_j} and S_k = sum_j a_j l_j^k, W' = S_1/S_0 - mean l and W'' =
    S_2/S_0 - (S_1/S_0)^2.  A step is clipped to the bounds (a bound where W'
    points outward is the answer), and one that leaves the sign bracket of
    W' is replaced by its midpoint; a row stops at a step within
    ``_NEWTON_TOL``.  Returns per row that step's d, and W and the shares
    a_j / S_0 where it was taken, and the number of passes.
    """
    low, high = bounds
    d = [min(max(float(v), low), high) for v in d]
    lo, hi, value = [-math.inf] * len(d), [math.inf] * len(d), [0.0] * len(d)
    mean_log = (np.add.reduce(log_mod2, axis=-1) / log_mod2.shape[-1]).tolist()
    shares, active, passes = np.empty(log_mod2.shape), list(range(len(d))), 0
    while active:
        passes += 1
        rows = log_mod2[active] if len(active) < len(d) else log_mod2
        terms = np.multiply(weights, np.exp(np.array([d[i] for i in active])[:, None] * rows))
        sums = zip(np.add.reduce(terms, axis=-1).tolist(),
                   np.einsum("ij,ij->i", terms, rows).tolist(),
                   np.einsum("ij,ij,ij->i", terms, rows, rows).tolist())
        still = []
        for k, (i, (total, first, second)) in enumerate(zip(active, sums)):
            x, lead = d[i], first / total
            slope, curvature = lead - mean_log[i], second / total - lead * lead
            if slope < 0:
                lo[i] = x
            elif slope > 0:
                hi[i] = x
            step = (x if slope == 0 else min(max(x - slope / curvature, low), high)
                    if curvature > 0 else low if slope > 0 else high)
            if abs(step - x) > _NEWTON_TOL and not lo[i] < step < hi[i]:
                step = 0.5 * (max(lo[i], low) + min(hi[i], high))
            d[i] = step
            if abs(step - x) > _NEWTON_TOL:
                still.append(i)
            else:
                shares[i], value[i] = terms[k] / total, math.log(total) - x * mean_log[i]
        active = still
    return d, value, shares, passes


def minimize(freqs, pgram, lam_grid, bounds):
    """Minimize the objective over ``bounds`` (d's range, and lam's if lam
    is free) from the ln m rows of ``lam_grid``, each profiled in d from the
    middle of d's range (``_profile_d``).  The least profile P stands unless
    lam is free and dP/d ln lam, by the envelope theorem lam d (sum_j a_j
    l'_j / S_0 - mean_j l'_j) with l' = d ln m / d lam = -2 e^{-lam}
    (expm1(-lam) + 2 sin^2(w/2)) / m, goes from - to + towards a neighbouring
    row.  Its root is then sought in ln lam, first at the minimum of the
    cubic through both ends' P and slope, then by the Illinois secant (Brent
    1973), each point profiled from the d interpolated between the ends; the
    last point stands if it profiles no higher.  Returns ``x`` = (d, lam),
    ``fun`` (by a scalar objective call) and ``nit``, the number of Newton
    passes.
    """
    sin2_half = _sin2_half(freqs)
    log_mod2 = _log_mod2(_cells(lam_grid), sin2_half)
    weights = pgram / np.mean(pgram)
    start = 0.5 * (bounds[0][0] + bounds[0][1])
    d, profile, shares, nit = _profile_d(weights, log_mod2, [start] * len(lam_grid), bounds[0])
    j = int(np.argmin(profile))
    d_hat, lam_hat = d[j], lam_grid[j]

    def slope(lam, d, shares):
        tempered, shrink = np.exp(-lam), np.expm1(-lam)
        dlog = (-2.0 * tempered * (shrink + 2.0 * sin2_half)
                / (shrink * shrink + 4.0 * tempered * sin2_half))
        return lam * d * (np.einsum("j,j->", shares, dlog) - np.add.reduce(dlog) / dlog.size)

    f = slope(lam_grid[j], d[j], shares[j]) if len(bounds) == 2 else 0.0
    k = j - 1 if f > 0 else j + 1
    g = slope(lam_grid[k], d[k], shares[k]) if f and 0 <= k < lam_grid.size else f
    if g * f < 0:
        (u0, p0, f0, d0), (u1, p1, f1, d1) = sorted(
            [(math.log(lam_grid[i]), profile[i], v, d[i]) for i, v in ((j, f), (k, g))])
        z1 = f0 + f1 - 3.0 * (p1 - p0) / (u1 - u0)
        z2 = math.sqrt(z1 * z1 - f0 * f1)
        u, side = u1 - (u1 - u0) * (f1 + z2 - z1) / (f1 - f0 + 2.0 * z2), 0
        while True:
            (d_u,), (p_u,), (shares_u,), passes = _profile_d(
                weights, _log_mod2(math.exp(u), sin2_half)[None],
                [d0 + (u - u0) / (u1 - u0) * (d1 - d0)], bounds[0])
            nit += passes
            f = slope(math.exp(u), d_u, shares_u)
            if f > 0:  # Illinois: halve the end that stays twice running
                u1, f1, d1, f0, side = u, f, d_u, f0 / 2 if side > 0 else f0, 1
            elif f < 0:
                u0, f0, d0, f1, side = u, f, d_u, f1 / 2 if side < 0 else f1, -1
            if not f or math.isnan(f) or u1 - u0 <= _SECANT_TOL:
                break
            u = (u0 * f1 - u1 * f0) / (f1 - f0)
        if p_u <= profile[j]:
            d_hat, lam_hat = d_u, math.exp(u)
    return SimpleNamespace(x=np.array([d_hat, lam_hat]), nit=nit,
                           fun=whittle_objective(d_hat, lam_hat, freqs, pgram))


def _fit(series, model, lam_grid, bounds):
    """The profile search (``minimize``) over the lam rows of ``lam_grid``.
    ``bounds`` holds the (d, lam) ranges, or d's alone when lam is fixed at
    ``lam_grid``'s one point."""
    z = np.asarray(series, dtype=float)
    if z.size < 32:
        raise ValueError("need at least 32 observations for Whittle fitting")
    if np.ptp(z) == 0:
        raise ValueError("degenerate (constant) series")
    freqs, pgram = periodogram(z)
    if not np.any(pgram > 0):
        raise ValueError("the series has no power at any Fourier frequency "
                         "2 pi j / n, j = 1..floor((n-1)/2)")
    res = minimize(freqs, pgram, lam_grid, bounds)
    d_hat, lam_hat = [float(v) for v in res.x]
    boundary = any(min(v - lo, hi - v) < 1e-4 for v, (lo, hi) in zip((d_hat, lam_hat), bounds))
    resid = one_step_residuals(z, d_hat, lam_hat)
    return ArtfimaFit(
        d_hat=d_hat, lambda_hat=lam_hat, sigma2_hat=profile_sigma2(d_hat, lam_hat, freqs, pgram),
        objective=float(res.fun), mse=float(np.mean(resid ** 2)), model=model,
        boundary=bool(boundary))


def fit_artfima00(series):
    """Whittle fit of ARTFIMA(0, d, lam, 0) over d in [-1, 3], lam in [1e-6, 2],
    by the profile search from 20 log-spaced lam rows; an optimum on the
    parameter bounds is flagged."""
    lam_grid = np.geomspace(ARTFIMA_LAM_RANGE[0], ARTFIMA_LAM_RANGE[1], _GRID_LAM_POINTS)
    return _fit(series, "artfima00", lam_grid, [ARTFIMA_D_RANGE, ARTFIMA_LAM_RANGE])


def fit_arfima00(series):
    """Whittle fit of ARFIMA(0, d, 0) over d in (-1/2, 1/2) with lam = 0."""
    return _fit(series, "arfima00", np.zeros(1), [ARFIMA_D_RANGE])


def simulate_artfima00(n, d, lam, sigma2=1.0, rng=None):
    """Simulate ARTFIMA(0, d, lam, 0) noise via the truncated MA(infinity)
    representation with full pre-sample history."""
    _check_tempering(d, "lam", lam)
    _check_positive("sigma2", sigma2)
    if rng is None:
        rng = np.random.default_rng()
    truncation = n if lam <= 0 else _tempered_lag_cap(lam, 4 * n)
    phi = tempered_coeffs(d, lam, truncation)
    eps = np.sqrt(sigma2) * rng.standard_normal(n + truncation)
    return fftconvolve(eps, phi)[truncation:truncation + n]
