"""Nadaraya-Watson regression, residual variance and pointwise confidence bands."""

from dataclasses import dataclass

import numpy as np

_GAUSS_NORM = 1.0 / np.sqrt(2.0 * np.pi)
_WORKSPACE_ROWS = 512
# below it a Gaussian mass is subnormal and its weighted mean keeps few bits
_MIN_MASS = np.finfo(float).tiny


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


def _check_count(name, value, least=None, note=""):
    """Reject a non-integer ``value`` (numpy integers pass), or one below ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}{note}, got {value}")


def _check_positive(name, value):
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _window_bounds(points, h, kernel):
    """Lowest and highest x of every (bandwidth, point) window, each of
    shape (bandwidths, points): p -/+ (halfwidth*h + 1e-12*(|p| +
    halfwidth*h)).  The relative 1e-12 widens each window so that no
    observation with |u| <= halfwidth falls outside it.  A kernel of
    unbounded support (halfwidth inf) has the bounds -inf and +inf, so its
    window is the whole path."""
    reach = kernel.halfwidth * h.reshape(-1, 1)
    slack = 1e-12 * (np.abs(points) + reach)
    return points - reach - slack, points + reach + slack


def _reach_mask(x, points, h, kernel):
    """True at the observations of each path that some window reaches.

    Arguments are as in ``kernel_sums``.  An observation is marked when it
    lies in the hull of the window bounds (``_window_bounds``), over every
    point and bandwidth; for a kernel of unbounded support every finite
    observation is marked.  ``kernel_sums`` reads x and the columns only at
    marked observations, so the values elsewhere never matter.
    """
    x = np.asarray(x, dtype=float)
    kernel = get_kernel(kernel)
    lo, hi = _window_bounds(np.atleast_1d(np.asarray(points, dtype=float)),
                           np.asarray(h, dtype=float), kernel)
    return (x >= lo.min(initial=np.inf)) & (x <= hi.max(initial=-np.inf))


def kernel_sums(x, points, h, kernel, columns=()):
    """Kernel mass, window count and weighted column sums at each point.

    With u_k = (x_k - p)/h, returns for every point p

        mass[p]    = sum_k K(u_k),
        count[p]   = #{k : |u_k| <= halfwidth},
        sums[c, p] = sum_k K(u_k) * columns[c][k].

    For one path x of shape (n,), one bandwidth h and g points the arrays
    have shapes (g,), (g,) and (len(columns), g).  A stack of m paths (x of
    shape (m, n)) and a 1-D vector of k bandwidths each add a leading axis,
    so the shapes become (m, k, g), (m, k, g) and (m, k, len(columns), g).
    The points, of shape (g,), are shared by every path, and every column
    has the shape of x.

    Only the observations that some window of their path reaches
    (``_reach_mask``) are read.  They are stably sorted by x, path by path,
    which keeps them in the order a sort of the whole path gives them, and
    each (path, bandwidth, point) sums only over its window of them, found
    by binary search between its bounds (``_window_bounds``); weights and
    counts are computed from the same u_k as a dense evaluation.  For a
    kernel of unbounded support the bounds are infinite, so every
    observation is read and the window is the whole path.  All windows go
    through one ``bincount`` pass, chunked so that the workspace stays
    within ``_WORKSPACE_ROWS`` rows of a path; every window sums in
    sorted-x order, so a batch equals its separate one-path, one-bandwidth
    calls bit for bit.
    """
    kernel = get_kernel(kernel)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if h.ndim > 1 or h.size == 0:
        raise ValueError("h must be one bandwidth or a nonempty 1-D vector of them")
    for value in h.ravel():
        _check_positive("bandwidth h", value)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("x must be a nonempty 1-D array or a 2-D stack of paths")
    if points.ndim != 1:
        raise ValueError(f"points must be 1-D, shared by every path, got shape "
                         f"{points.shape}")
    cols = np.asarray(columns, dtype=float) if len(columns) else np.empty((0,) + x.shape)
    if cols.shape[1:] != x.shape:
        raise ValueError(f"every summed column must align with x, of shape {x.shape}")
    for name, arr in (("x", x), ("evaluation points", points),
                      ("summed columns (y or residuals)", cols)):
        _check_finite(name, arr)

    n = x.shape[-1]
    paths = x.reshape(-1, n)
    m, k, g = paths.shape[0], h.size, points.shape[0]
    # xs holds the observations some window reaches, path after path, each
    # path in stable sorted-x order: the order a stable sort of the whole
    # path gives them, so every window sums the same entries in the same order
    near = _reach_mask(paths, points, h, kernel)
    kept = np.count_nonzero(near, axis=1)
    path_end = np.cumsum(kept)  # each path's first and end entry in xs
    path_first = path_end - kept
    row, col = np.nonzero(near)
    # sorted by path, then by x; lexsort is stable, so ties keep time order
    order = np.lexsort((paths[row, col], row))
    row, col = row[order], col[order]
    xs = paths[row, col]
    # each window's first and end entry in xs
    left, right = _window_bounds(points, h, kernel)
    lo = np.empty((m, k, g), dtype=np.intp)
    hi = np.empty((m, k, g), dtype=np.intp)
    for i, (a, b) in enumerate(zip(path_first, path_end)):
        lo[i] = a + np.searchsorted(xs[a:b], left, side="left")
        hi[i] = a + np.searchsorted(xs[a:b], right, side="right")
    length = (hi - lo).ravel()
    start = lo.ravel()
    # every column at the kept observations, in the order of xs
    c = cols.shape[0]
    cs = cols.reshape(c, m, n)[:, row, col]
    # the point and bandwidth of every (path, bandwidth, point) window
    pts = np.broadcast_to(points, (m, k, g)).ravel()
    hs = np.broadcast_to(h.reshape(k, 1), (m, k, g)).ravel()
    ends = np.cumsum(length)
    first = ends - length

    mass = np.empty(m * k * g)
    count = np.empty(m * k * g, dtype=np.intp)
    sums = np.empty((c, m * k * g))
    a = 0
    while a < m * k * g:
        # a window holds at most n entries, so every chunk takes >= 1 window
        b = int(np.searchsorted(ends, first[a] + _WORKSPACE_ROWS * n, side="right"))
        sel = slice(a, b)
        reps = length[sel]
        seg = np.repeat(np.arange(b - a), reps)
        idx = np.arange(seg.shape[0]) + np.repeat(start[sel] - first[sel] + first[a], reps)
        u = (xs[idx] - np.repeat(pts[sel], reps)) / np.repeat(hs[sel], reps)
        w = kernel(u)
        mass[sel] = np.bincount(seg, weights=w, minlength=b - a)
        count[sel] = np.bincount(seg[np.abs(u) <= kernel.halfwidth], minlength=b - a)
        for j in range(c):
            sums[j, sel] = np.bincount(seg, weights=w * cs[j, idx], minlength=b - a)
        a = b
    lead = x.shape[:-1] + h.shape
    return (mass.reshape(lead + (g,)), count.reshape(lead + (g,)),
            np.moveaxis(sums.reshape((c,) + lead + (g,)), 0, -2))


def _normal_quantile(alpha):
    """z_{alpha/2} = |Phi^-1(alpha/2)| for alpha in (0, 1]: the lower tail
    keeps full precision for small alpha, and alpha = 1 gives z = 0, the
    zero-width interval.  ``statistics`` is imported on first use, so that
    ``import slmcoint`` loads numpy only."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    from statistics import NormalDist
    return abs(NormalDist().inv_cdf(alpha / 2.0))


@dataclass
class KernelEstimate:
    """Grid of NW estimates with per-point variance and confidence bands.

    ``local_mass`` is the unscaled kernel sum and ``window_count`` the
    number of observations in each point's kernel window.  The band is
    fhat -/+ ``half_width``; ``sigma2hat`` and ``half_width`` are None
    when they were not asked for.  A point is defined where its mass is at
    least the smallest normal float; elsewhere (no data in the window, or
    a Gaussian mass so small that its weights keep only a few bits) its
    entries are NaN.  A stack of paths or a vector of bandwidths gives
    every array the leading axes of ``kernel_sums``, and ``bandwidth`` is
    then the vector.
    """

    grid: np.ndarray
    fhat: np.ndarray
    sigma2hat: np.ndarray
    local_mass: np.ndarray
    window_count: np.ndarray
    bandwidth: object
    kernel: Kernel
    half_width: np.ndarray = None

    @property
    def defined(self):
        return self.local_mass >= _MIN_MASS

    @property
    def ci_lo(self):
        return None if self.half_width is None else self.fhat - self.half_width

    @property
    def ci_hi(self):
        return None if self.half_width is None else self.fhat + self.half_width


def kernel_estimate(x, y, grid, h, kernel=EPANECHNIKOV, alpha=None,
                    variance="centered"):
    """Nadaraya-Watson fit, residual variance and optional pointwise bands.

    One ``kernel_sums`` pass over the grid gives, at each point p,

        fhat(p)    = sum_k y_k K_k / sum_k K_k,   K_k = K((x_k - p)/h),
        sigma2(p)  = sum_k r_k^2 K_k / sum_k K_k,
        half_width = z_{alpha/2} * sqrt(sigma2(p) * intK2 / (mass(p) * intK)),

    with mass(p) = sum_k K_k, the unscaled local mass.  Points with a mass
    below the smallest normal float are NaN, never silently zero.
    ``variance="centered"`` takes r_k = y_k - fhat(x_k), the residual around
    the leave-in fitted values (one more pass, over the observations);
    ``"uncentered"`` takes r_k = y_k, the local second moment of y, as in
    the coverage study; None skips the variance and the band.  ``alpha``
    in (0, 1] asks for the band, which needs a variance.

    x and y may be a stack of paths of shape (m, n), with the grid shared by
    every path, and h a 1-D vector of bandwidths, as in ``kernel_sums``; the
    result equals the separate one-path, one-bandwidth fits bit for bit.
    The centered variance takes one path and one bandwidth.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    kernel = get_kernel(kernel)
    h = np.asarray(h, dtype=float)
    # a path with max |y| < 1/2 is scaled up by a power of two, exactly, so
    # that the weighted sums of a tiny response do not underflow; y is never
    # scaled down, which would make its products with a weight near the
    # smallest normal float subnormal
    unit = np.ldexp(1.0, np.minimum(0, np.frexp(np.abs(np.atleast_1d(y)).max(
        axis=-1, initial=0.0, keepdims=True))[1]))
    y = y / unit
    unit = unit.reshape(unit.shape + (1,) * h.ndim)  # over fhat's axes
    if variance is None:
        if alpha is not None:
            raise ValueError(f"alpha={alpha} asks for a band, which variance=None "
                             "does not give; pass variance='centered' or 'uncentered'")
        columns = (y,)
    elif variance == "centered":
        if x.ndim != 1 or h.ndim:
            raise ValueError(f"the centered variance takes one path x of shape (n,) "
                             f"and one bandwidth h, got shapes {x.shape} and {h.shape}")
        # the leave-in fit, whose every mass is at least K(0) > 0
        mass, _, sums = kernel_sums(x, x, h, kernel, (y,))
        columns = (y, (y - sums[0] / mass) ** 2)
    elif variance == "uncentered":
        columns = (y, y * y)
    else:
        raise ValueError("variance must be 'centered', 'uncentered' or None")
    z = None if alpha is None else _normal_quantile(alpha)
    mass, count, sums = kernel_sums(x, grid, h, kernel, columns)
    # fhat and sigma2 where the point is defined, NaN elsewhere
    ratios = np.divide(sums, mass[..., None, :], out=np.full(sums.shape, np.nan),
                       where=mass[..., None, :] >= _MIN_MASS)
    sigma2hat = None if variance is None else ratios[..., 1, :] * unit * unit
    est = KernelEstimate(grid=grid, fhat=ratios[..., 0, :] * unit, sigma2hat=sigma2hat,
                         local_mass=mass, window_count=count,
                         bandwidth=h if h.ndim else float(h), kernel=kernel)
    if z is not None:
        spread = est.sigma2hat * kernel.k2
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            root = np.sqrt(spread / (mass * kernel.d1))
            # a mass near the smallest normal float can overflow the
            # quotient but not its root, which then comes factor by factor
            root = np.where(np.isinf(root), np.sqrt(spread / kernel.d1) / np.sqrt(mass),
                            root)
        est.half_width = z * root
    return est
