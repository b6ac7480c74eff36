"""Kernels and their pair integrals, Nadaraya-Watson regression, residual
variance and pointwise confidence bands."""

import math
from dataclasses import dataclass

import numpy as np

_GAUSS_NORM = 1.0 / np.sqrt(2.0 * np.pi)
# (erf(hi) - erf(lo))/2 rounds to exactly 1.0 once lo <= -6 <= 6 <= hi, as
# erfc(6)/2 = 1.1e-17 is below half the float spacing under 1.0
_ERF_UNIT = 6.0
_erfc = np.frompyfunc(math.erfc, 1, 1)
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

    def pair_integral(self, gap, lo, hi):
        """int_lo^hi K(t - gap/2) K(t + gap/2) dt, elementwise over 1-D
        float arrays of one length.

        With gap = (x_t - x_s)/h, and lo and hi the ends A and B of a weight
        support less the pair's midpoint m, over h, this is the pair
        integral int_A^B K((x_s - v)/h) K((x_t - v)/h) dv over h.  At gap 0
        on the whole line it is ``k2``.

        Gaussian: exp(-gap^2/4) / (2 sqrt(pi)) times (erf(hi) - erf(lo))/2,
        the share of the pair's mass inside the support.  The share is
        exactly 1.0 unless m lies within ``_ERF_UNIT`` bandwidths of an end
        or outside the support, and only those pairs call ``math.erfc``, on
        the side of the support's centre where the difference of the two
        tails keeps its digits.
        Epanechnikov: with delta = |gap|/2 and c = 1 - delta^2, the product
        of the two parabolas integrates to 9/16 [c^2 t - (2c + 4 delta^2)
        t^3/3 + t^5/5] between t_lo = max(lo, delta - 1) and t_hi = min(hi,
        1 - delta), and to 0 where t_lo >= t_hi.
        """
        if self.kind == "epanechnikov":
            delta = 0.5 * np.abs(gap)
            c = 1.0 - delta * delta
            slope = (2.0 * c + 4.0 * delta * delta) / 3.0
            t_lo = np.maximum(lo, delta - 1.0)
            t_hi = np.minimum(hi, 1.0 - delta)

            def antiderivative(t):
                t2 = t * t
                return t * (c * c - t2 * (slope - 0.2 * t2))

            return np.where(t_lo < t_hi,
                            0.5625 * (antiderivative(t_hi) - antiderivative(t_lo)), 0.0)
        out = np.exp(-0.25 * gap * gap) * (0.5 / math.sqrt(math.pi))
        near = np.flatnonzero((lo > -_ERF_UNIT) | (hi < _ERF_UNIT))
        if near.size:
            a, b = lo[near], hi[near]
            upper = a + b < 0.0  # m above the centre: erfc(-hi) - erfc(-lo)
            a, b = np.where(upper, -b, a), np.where(upper, -a, b)
            out[near] *= 0.5 * (_erfc(a) - _erfc(b)).astype(float)
        return out


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
    every array the leading axes of ``kernel_sums``.
    """

    fhat: np.ndarray
    sigma2hat: np.ndarray
    local_mass: np.ndarray
    window_count: np.ndarray
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
    ymax = np.abs(np.atleast_1d(y)).max(axis=-1, initial=0.0, keepdims=True)
    unit = np.ldexp(1.0, np.minimum(0, np.frexp(ymax)[1]))
    y = y / unit
    unit = unit.reshape(unit.shape + (1,) * h.ndim)  # over fhat's axes
    if variance not in (None, "centered", "uncentered"):
        raise ValueError("variance must be 'centered', 'uncentered' or None")
    # a residual is at most 2 max |y| and every weight is below 1, so below
    # this bound no weighted sum of n squares can overflow
    if variance is not None and np.any(
            ymax > np.sqrt(np.finfo(float).max / (4 * max(1, np.atleast_1d(y).shape[-1])))):
        raise ValueError(f"the variance of y is out of float range (max |y| = "
                         f"{float(ymax.max()):.3g}); rescale y")
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
    else:
        columns = (y, y * y)
    z = None if alpha is None else _normal_quantile(alpha)
    mass, count, sums = kernel_sums(x, grid, h, kernel, columns)
    # fhat and sigma2 where the point is defined, NaN elsewhere
    ratios = np.divide(sums, mass[..., None, :], out=np.full(sums.shape, np.nan),
                       where=mass[..., None, :] >= _MIN_MASS)
    sigma2hat = None if variance is None else ratios[..., 1, :] * unit * unit
    est = KernelEstimate(fhat=ratios[..., 0, :] * unit, sigma2hat=sigma2hat,
                         local_mass=mass, window_count=count)
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
