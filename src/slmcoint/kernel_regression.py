"""Nadaraya-Watson regression, residual variance and pointwise confidence bands."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_GAUSS_NORM = 1.0 / np.sqrt(2.0 * np.pi)
_WORKSPACE_ROWS = 512


@dataclass(frozen=True)
class Kernel:
    """Nonnegative kernel integrating to one.

    ``d1`` is int K and ``k2`` is int K^2 (both analytic); ``halfwidth`` is
    the support half-width (inf for the Gaussian).
    """

    kind: str
    d1: float
    k2: float
    halfwidth: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "epanechnikov":
            return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
        return np.exp(-0.5 * u * u) * _GAUSS_NORM


EPANECHNIKOV = Kernel("epanechnikov", d1=1.0, k2=0.6, halfwidth=1.0)
GAUSSIAN = Kernel("gaussian", d1=1.0, k2=1.0 / (2.0 * np.sqrt(np.pi)), halfwidth=np.inf)

_KERNELS = {"epanechnikov": EPANECHNIKOV, "gaussian": GAUSSIAN}


def get_kernel(name):
    if isinstance(name, Kernel):
        return name
    key = str(name).strip().lower()
    if key not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}")
    return _KERNELS[key]


def _check_finite(name, arr):
    """Reject NaN or inf entries of ``arr``, naming the input."""
    bad = arr.size - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise ValueError(f"non-finite input: {bad} NaN or inf value(s) in {name}")


def _check_positive(name, value):
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def kernel_sums(x, points, h, kernel, columns=()):
    """Kernel mass, window count and weighted column sums at each point.

    With u_k = (x_k - p)/h, returns for every point p

        mass[p]    = sum_k K(u_k),
        count[p]   = #{k : |u_k| <= halfwidth},
        sums[c, p] = sum_k K(u_k) * columns[c][k],

    as arrays of shape (len(points),), (len(points),) and
    (len(columns), len(points)).  x is sorted once and each point sums
    only over its window of the sorted sample, found by binary search and
    widened by a relative 1e-12 so that no observation with
    |u_k| <= halfwidth falls outside it; weights and counts are computed
    from the same u_k as a dense evaluation.  For a kernel of unbounded
    support the window is the whole sample.  Sums accumulate in sorted-x
    order per point, chunked over points so that the workspace stays
    within ``_WORKSPACE_ROWS`` rows of the sample.
    """
    _check_positive("bandwidth h", h)
    kernel = get_kernel(kernel)
    x = np.asarray(x, dtype=float)
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("x must be a nonempty 1-D array")
    if points.ndim != 1:
        raise ValueError("points must be 1-D")
    cols = np.asarray(columns, dtype=float) if len(columns) else np.empty((0, x.shape[0]))
    if cols.ndim != 2 or cols.shape[1] != x.shape[0]:
        raise ValueError("every summed column must align with x")
    for name, arr in (("x", x), ("evaluation points", points),
                      ("summed columns (y or residuals)", cols)):
        _check_finite(name, arr)

    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cols = cols[:, order]
    if np.isfinite(kernel.halfwidth):
        reach = kernel.halfwidth * h
        slack = 1e-12 * (np.abs(points) + reach)
        lo = np.searchsorted(xs, points - reach - slack, side="left")
        hi = np.searchsorted(xs, points + reach + slack, side="right")
    else:
        lo = np.zeros(points.shape, dtype=np.intp)
        hi = np.full(points.shape, n, dtype=np.intp)
    length = hi - lo
    ends = np.cumsum(length)
    first = ends - length

    g = points.shape[0]
    mass = np.empty(g)
    count = np.empty(g, dtype=np.intp)
    sums = np.empty((cols.shape[0], g))
    a = 0
    while a < g:
        # a window holds at most n entries, so every chunk takes >= 1 point
        b = int(np.searchsorted(ends, first[a] + _WORKSPACE_ROWS * n, side="right"))
        sel = slice(a, b)
        seg = np.repeat(np.arange(b - a), length[sel])
        idx = np.arange(seg.shape[0]) + np.repeat(lo[sel] - first[sel] + first[a],
                                                  length[sel])
        u = (xs[idx] - np.repeat(points[sel], length[sel])) / h
        w = kernel(u)
        mass[sel] = np.bincount(seg, weights=w, minlength=b - a)
        count[sel] = np.bincount(seg[np.abs(u) <= kernel.halfwidth], minlength=b - a)
        for c in range(cols.shape[0]):
            sums[c, sel] = np.bincount(seg, weights=w * cols[c, idx], minlength=b - a)
        a = b
    return mass, count, sums


@lru_cache(maxsize=16)
def _normal_quantile(alpha):
    """z_{alpha/2}, the upper alpha/2 standard normal quantile.

    scipy is imported here, on first use, so that ``import slmcoint`` needs
    only numpy.  ndtri is the function scipy.stats.norm.ppf evaluates, so
    the two agree bit for bit.  Values are cached: a process that resolves
    z before it forks workers hands them the value, and they never import
    scipy themselves.
    """
    from scipy.special import ndtri
    return ndtri(1.0 - alpha / 2.0)


def ci_half_width(sigma2, mass, kernel, alpha):
    """Half-width z_{alpha/2} * sqrt(sigma2 * intK2 / (mass * intK)) of the
    self-normalized interval; NaN where the mass vanishes."""
    z = _normal_quantile(alpha)
    with np.errstate(invalid="ignore", divide="ignore"):
        return z * np.sqrt(sigma2 * kernel.k2 / (mass * kernel.d1))


def nw_estimate(x, y, grid, h, kernel=EPANECHNIKOV):
    """Nadaraya-Watson estimate on a grid.

    fhat(p) = sum_k y_k K((x_k - p)/h) / sum_k K((x_k - p)/h).  Grid points
    with zero kernel mass are NaN (no data in the window), never silently
    zero.  Returns a KernelEstimate carrying fhat and the unscaled local
    mass sum_k K((x_k - p)/h).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    kernel = get_kernel(kernel)
    mass, _, (sy,) = kernel_sums(x, grid, h, kernel, (y,))
    fhat = np.full(grid.shape, np.nan)
    ok = mass > 0
    fhat[ok] = sy[ok] / mass[ok]
    return KernelEstimate(grid=grid, fhat=fhat, sigma2hat=None,
                          local_mass=mass, bandwidth=float(h), kernel=kernel)


def fitted_values(x, y, h, kernel=EPANECHNIKOV):
    """Leave-in NW fitted values at the observations themselves.

    Observation k contributes to its own fit, so the denominator is always
    positive (K(0) > 0).
    """
    mass, _, (sy,) = kernel_sums(x, x, h, kernel, (y,))
    return sy / mass


def residual_variance(x, y, fhat_at_data, h, kernel, at):
    """Kernel-weighted residual second moment around the fitted values.

    sigma2(p) = sum_k (y_k - fhat(x_k))^2 K((x_k - p)/h) / sum_k K((x_k - p)/h).
    Passing zeros as ``fhat_at_data`` gives the uncentered local second
    moment of y.  NaN where the kernel mass vanishes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fhat_at_data = np.asarray(fhat_at_data, dtype=float)
    if fhat_at_data.shape != y.shape:
        raise ValueError("fhat_at_data must align with the observations")
    if np.any(~np.isfinite(fhat_at_data)):
        raise ValueError("fitted values must be defined at every observation")
    mass, _, (sr2,) = kernel_sums(x, at, h, kernel, ((y - fhat_at_data) ** 2,))
    out = np.full(mass.shape, np.nan)
    ok = mass > 0
    out[ok] = sr2[ok] / mass[ok]
    return out if np.ndim(at) else float(out[0])


def confidence_interval(at, x, y, h, kernel=EPANECHNIKOV, alpha=0.05,
                        fhat_at_data=None):
    """Pointwise self-normalized confidence interval.

    fhat(p) +/- z_{alpha/2} * sqrt( sigma2(p) * intK2 / (local_mass(p) * intK) ),
    where local_mass is the unscaled kernel sum.  By default sigma2 is the
    residual variance around the leave-in fitted curve; a different
    centering can be supplied through ``fhat_at_data``.
    Returns (lo, hi); NaNs where the point has no kernel mass.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    kernel = get_kernel(kernel)
    est = nw_estimate(x, y, np.atleast_1d(at), h, kernel)
    if fhat_at_data is None:
        fhat_at_data = fitted_values(x, y, h, kernel)
    s2 = residual_variance(x, y, fhat_at_data, h, kernel, np.atleast_1d(at))
    half = ci_half_width(s2, est.local_mass, kernel, alpha)
    lo = est.fhat - half
    hi = est.fhat + half
    if np.ndim(at) == 0:
        return float(lo[0]), float(hi[0])
    return lo, hi


@dataclass
class KernelEstimate:
    """Grid of NW estimates with per-point variance and confidence bands.

    Undefined grid points (zero kernel mass) carry NaN entries and are
    written as empty CSV fields.
    """

    grid: np.ndarray
    fhat: np.ndarray
    sigma2hat: np.ndarray
    local_mass: np.ndarray
    bandwidth: float
    kernel: Kernel
    ci_lo: np.ndarray = None
    ci_hi: np.ndarray = None

    @property
    def defined(self):
        return self.local_mass > 0

    def to_csv(self, path):
        def cell(arr, i):
            if arr is None:
                return ""
            v = arr[i]
            return "" if not np.isfinite(v) else repr(float(v))

        with open(path, "w", newline="\n") as fh:
            fh.write("x,fhat,sigma2hat,local_mass,ci_lo,ci_hi\n")
            for i in range(self.grid.shape[0]):
                row = [repr(float(self.grid[i])), cell(self.fhat, i),
                       cell(self.sigma2hat, i), repr(float(self.local_mass[i])),
                       cell(self.ci_lo, i), cell(self.ci_hi, i)]
                fh.write(",".join(row) + "\n")


def kernel_estimate(x, y, grid, h, kernel=EPANECHNIKOV, alpha=None,
                    variance="centered"):
    """Assemble a full KernelEstimate: fit, residual variance, optional bands.

    ``variance="centered"`` uses the leave-in fitted values in the residual
    variance (the plain reading of the estimator); ``"uncentered"`` uses the
    local second moment of y (kernel mass sums, fitted values of zero) as
    in the simulation-study reproduction.
    """
    kernel = get_kernel(kernel)
    est = nw_estimate(x, y, grid, h, kernel)
    if variance is None:
        return est
    if variance == "centered":
        fd = fitted_values(x, y, h, kernel)
    elif variance == "uncentered":
        fd = np.zeros_like(np.asarray(y, dtype=float))
    else:
        raise ValueError("variance must be 'centered', 'uncentered' or None")
    est.sigma2hat = np.atleast_1d(residual_variance(x, y, fd, h, kernel, est.grid))
    if alpha is not None:
        half = ci_half_width(est.sigma2hat, est.local_mass, kernel, alpha)
        est.ci_lo = est.fhat - half
        est.ci_hi = est.fhat + half
    return est
