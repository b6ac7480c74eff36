"""Parametric specification testing for the cointegrating regression function.

The statistic integrates squared kernel-smoothed residuals of a fitted
parametric family against a compactly supported weight,

    T = int { sum_k K[(x_k - x)/h] * (y_k - g(x_k, theta_hat)) }^2 pi(x) dx,

normalized by the regressor's partial-sum scale d_N, and calibrated by
recomputing the normalized statistic on all length-b blocks of consecutive
observations (overlapping subsampling).  The tempering parameter lam sets
the memory regime: lam = 0 is long memory (0 <= d < 1/2, d_N = n^{d+1/2})
and lam > 0 semi-long memory (d_N = sqrt(n)/lam^d).

The weight is uniform on a support [A, B], which every entry takes as the
pair (A, B).  The statistic is the quadratic form r'Pr of the residuals r,
with P[s, t] = int_A^B K((x_s - v)/h) K((x_t - v)/h) dv in closed form
(``Kernel.pair_integral``), the L2 fit distance of Haerdle and Mammen
(1993, Ann. Statist. 21, 1926-1947).  Every block value is computed so,
exactly; the full-sample statistic is still taken by midpoint quadrature.
"""

from dataclasses import dataclass, fields
from numbers import Real

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernel_regression import _check_count, _check_finite, _check_positive, get_kernel
from .processes import _check_memory, scale_dn

DEFAULT_QUAD_CELLS = 2048
DEFAULT_WEIGHT_SUPPORT = (-100.0, 100.0)
_DOMAIN_PAD_BANDWIDTHS = 6.0
_MAX_SKIPPED_FRACTION = 0.05
_TILE_FLOATS = 2 ** 14  # kernel values per node tile: 32 rows at n = 500
_LAG_RUN_FLOATS = 4096  # pair integrals per run of lags: 8 lags at n = 500
_DEGREES = {"linear": 1, "quadratic": 2}


class SubsamplingError(RuntimeError):
    """Too many block fits failed for a usable subsample distribution."""


@dataclass(frozen=True)
class ParametricFamily:
    """Polynomial regression family g(x, theta) = sum_{j <= degree} theta_j x^j.

    ``dim`` (= degree + 1), the design matrix and the residuals all follow
    from ``degree``; every fit is closed-form least squares.
    """

    kind: str
    degree: int

    @property
    def dim(self):
        return self.degree + 1

    def basis(self, x):
        return np.vander(np.asarray(x, dtype=float), self.dim, increasing=True)

    def residuals(self, x, y, theta):
        return (np.asarray(y, dtype=float)
                - np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), theta))


def get_family(name):
    if isinstance(name, ParametricFamily):
        return name
    key = str(name).strip().lower()
    if key not in _DEGREES:
        raise ValueError(f"unknown family {name!r}; choose linear or quadratic")
    return ParametricFamily(key, _DEGREES[key])


def _check_support(support, name="weight support"):
    """The weight's support (a, b) as two floats: two numbers a < b (a bool
    or a string is not a number; +-inf pass, NaN fails the comparison)."""
    try:
        a, b = support
        ok = all(isinstance(v, Real) and not isinstance(v, bool) for v in support) and a < b
    except (TypeError, ValueError):
        ok = False
    if not ok:
        shown = list(support) if isinstance(support, tuple) else support
        raise ValueError(f"{name} must be two values a < b, got {shown!r}")
    return float(a), float(b)


def _as_xy(x, y):
    """x and y as 1-D float arrays of equal length holding finite values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x and y must be 1-D of equal length, got shapes "
                         f"{x.shape} and {y.shape}")
    _check_finite("x", x)
    _check_finite("y", y)
    return x, y


def nls_fit(family, x, y):
    """Least-squares fit of the polynomial family g(x, theta): the one
    length-n window of ``_sliding_theta``, its standardized coefficients
    mapped back to raw x.  Numerically singular designs are rejected."""
    family = get_family(family)
    x, y = _as_xy(x, y)
    if x.shape[0] < family.dim:
        raise ValueError("fewer observations than parameters")
    theta, valid, _ = _sliding_theta(x, y, family, x.shape[0])
    if not valid[0]:
        raise ValueError("rank-deficient design for closed-form fit")
    if family.degree == 1:
        return theta[0]
    _, c, s = _standardize(x)
    P = np.polynomial.Polynomial
    raw = P(theta[0])(P([-c / s, 1.0 / s])).coef
    return np.pad(raw, (0, family.dim - raw.size))


def integration_domain(x, h, support):
    """Quadrature interval: the weight's support clipped to the realized
    data range plus a pad of ``_DOMAIN_PAD_BANDWIDTHS`` bandwidths (the
    smoothed residual field is numerically zero further out)."""
    a, b = _check_support(support)
    lo = max(a, float(x.min()) - _DOMAIN_PAD_BANDWIDTHS * h)
    hi = min(b, float(x.max()) + _DOMAIN_PAD_BANDWIDTHS * h)
    return (lo, hi) if lo < hi else (a, b)


def _check_block_size(b, n):
    """Reject b unless an integer with 2 <= b < n: a block of the whole
    sample is the statistic itself."""
    _check_count("block size b", b)
    if not 2 <= b < n:
        raise ValueError(f"block size must satisfy 2 <= b < n, got b = {b}, n = {n}")


def _quad_nodes(domain, quad_cells):
    _check_count("quad_cells", quad_cells, 2)
    lo, hi = domain
    dx = (hi - lo) / quad_cells
    return lo + (np.arange(quad_cells) + 0.5) * dx, dx


def _gaussian_reach(n):
    """The Gaussian reach u_n = sqrt(2 (ln n + 36 ln 10)) in bandwidths:
    exp(-u_n^2 / 2) = 1e-36 / n, so the n weights beyond it add up to less
    than 1e-36 of the kernel's peak weight."""
    return np.sqrt(2.0 * (np.log(n) + 36.0 * np.log(10.0)))


def _node_tiles(x, h, kernel, nodes):
    """Yield (keep, K) over consecutive tiles of the ascending nodes:
    ``keep`` indexes, in time order, the observations within reach of the
    tile's nodes v, and K[k, i] = kernel((x[keep][k] - v[i]) / h).
    The reach is the kernel's half-width, or ``_gaussian_reach(n)`` for the
    Gaussian, widened by a relative 1e-12 as in ``kernel_sums``: every
    Epanechnikov weight left out is exactly 0.0, and every Gaussian one is
    below 1e-36 / n of the peak weight, too small to move the statistic
    unless every node is nearly that far from every observation.  A tile
    holds at most ``_TILE_FLOATS`` kernel values, so that the working
    arrays derived from it stay in cache and none is large enough to be
    mapped afresh per call."""
    n = x.shape[0]
    reach = h * (kernel.halfwidth if np.isfinite(kernel.halfwidth) else _gaussian_reach(n))
    step = max(1, _TILE_FLOATS // n)
    for lo in range(0, nodes.shape[0], step):
        tile = nodes[lo:lo + step]
        pad = reach + 1e-12 * (max(abs(tile[0]), abs(tile[-1])) + reach)
        keep = np.flatnonzero((x >= tile[0] - pad) & (x <= tile[-1] + pad))
        yield keep, kernel((x[keep, None] - tile[None, :]) / h)


def _midpoint_statistic(x, r, h, kernel, support, quad_cells):
    """int { sum_k K[(x_k - v)/h] r_k }^2 dv by the midpoint rule.  Per node
    tile, each node's sum runs along the kept observations (the rest weigh
    too little to move it), and the tile's squared sums add into the result."""
    nodes, dx = _quad_nodes(integration_domain(x, h, support), quad_cells)
    total = 0.0
    for keep, K in _node_tiles(x, h, kernel, nodes):
        if keep.size:
            # sums in observation order, row after row; np.sum's pairwise
            # order would move the statistic's last bits, and numpy sums
            # one column pairwise, so a one-node tile takes a running sum
            terms = K * r[keep, None]
            sums = (np.add.reduce(terms, axis=0) if K.shape[1] > 1
                    else np.cumsum(terms, axis=0)[-1])
            total += np.einsum("i,i->", sums, sums)
    return float(total * dx)


def t_statistic(x, y, family, theta, h, kernel, support, quad_cells=DEFAULT_QUAD_CELLS):
    """Raw specification statistic by composite midpoint quadrature.

    The integrand { sum_k K[(x_k-x)/h] r_k }^2 pi(x) is evaluated on
    ``quad_cells`` midpoint nodes over ``integration_domain``
    (``_midpoint_statistic``).  ``quad_cells`` is 2048 by default, the
    resolution of ``run_spec_test``, the CLI and the empirical workflow; the
    size study passes 1024.  ``support`` is the weight's (A, B).
    """
    _check_positive("bandwidth h", h)
    support = _check_support(support)
    x, y = _as_xy(x, y)
    r = get_family(family).residuals(x, y, np.asarray(theta, dtype=float))
    return _midpoint_statistic(x, r, h, get_kernel(kernel), support, quad_cells)


def normalized_statistic(t_raw, n, lam, d, h):
    """The raw statistic over its normalizer n h / d_N, with d_N the
    regressor's partial-sum scale ``scale_dn(n, lam, d)``;
    returns (T d_N / (n h), n h / d_N)."""
    scale = float(n * h / scale_dn(n, lam, d))
    return t_raw / scale, scale


def _standardize(x):
    """u = (x - c)/s with c the mean and s the standard deviation (1 for
    constant x); returns (u, c, s)."""
    c = float(x.mean())
    s = float(x.std())
    s = s if s > 0 else 1.0
    return (x - c) / s, c, s


def _sliding_theta(x, y, family, b):
    """Closed-form polynomial least squares on every length-b window via
    one cumulative sum of cross products.

    Fits of degree >= 2 run in globally standardized coordinates
    u = (x - mean)/std (same span, far better conditioned when x sits far
    from the origin); the linear fit keeps raw coordinates, where an exact
    null fit cancels exactly.  The returned coefficients pair with the
    powers of the returned u.  Windows with numerically singular normal
    equations are flagged invalid.
    Returns (theta (nb, p) in u-coordinates, valid mask, u).
    """
    n = x.shape[0]
    nb = n - b + 1
    u = x if family.degree == 1 else _standardize(x)[0]
    p = family.dim
    B = family.basis(u)
    # per observation, the cross products B_i B_j (j < p) and B_i y (j = p),
    # summed over every window by one cumulative sum
    prods = B[:, :, None] * np.column_stack([B, y])[:, None, :]
    csum = np.concatenate([np.zeros((1, p, p + 1)), np.cumsum(prods, axis=0)])
    window = csum[b:] - csum[:nb]
    A, rhs_s = window[:, :, :p], window[:, :, p]
    diag = np.sqrt(np.einsum("kii->ki", A))
    diag = np.where(diag > 0, diag, 1.0)
    scaled = A / diag[:, :, None] / diag[:, None, :]
    det = np.linalg.det(scaled)
    valid = np.abs(det) > 1e-12
    theta = np.zeros((nb, p))
    if np.any(valid):
        theta[valid] = np.linalg.solve(A[valid], rhs_s[valid][:, :, None])[:, :, 0]
    return theta, valid, u


def _block_residuals(u, y, theta, b):
    """(blocks, b) residuals y - g(u, theta[t]) of every length-b block t,
    by Horner's rule in place, operation for operation as
    ``ParametricFamily.residuals`` on the block."""
    powers = sliding_window_view(u, b)
    r = np.multiply(powers, theta[:, -1, None])
    for j in range(theta.shape[1] - 2, -1, -1):
        r += theta[:, j, None]
        if j:
            r *= powers
    return np.subtract(sliding_window_view(y, b), r, out=r)


def _pair_statistics(x, r, h, kernel, support):
    """Raw statistic r[t]' P_t r[t] of every block t, exactly: r (blocks, b)
    holds block t's residuals at x[t:t+b] and P_t is the block's part of
    P[s, s'] = int_A^B K((x_s - v)/h) K((x_s' - v)/h) dv, so no n x n
    matrix forms; it costs O(n b^2).

    The lags l < b go in runs of about ``_LAG_RUN_FLOATS // n``: one
    ``Kernel.pair_integral`` call fills the band P[s, s + l] of every lag of
    a run from lag l0, row by row of a (lags, n - l0) array, reading x ahead
    through a sliding window of x padded by its last value (block windows
    never read the pad).  Each lag's part of every block is a slice of one
    sliding window of its band row; the parts of lags l >= 1 count twice, for the
    two halves of the symmetric form, and add into the blocks' values in
    lag order.  The parts are doubled, not the band: a band value times 2
    would round a subnormal product differently."""
    nb, b = r.shape
    n = x.shape[0]
    ahead = sliding_window_view(np.concatenate([x, np.full(b - 1, x[-1])]), n)
    run = max(1, _LAG_RUN_FLOATS // n)
    total = np.zeros(nb)
    for first in range(0, b, run):
        left = x[:n - first]
        right = ahead[first:first + run, :n - first]  # right[k, s] = x[s + first + k]
        mid = 0.5 * (left + right)
        band = kernel.pair_integral(((right - left) / h).ravel(),
                                    ((support[0] - mid) / h).ravel(),
                                    ((support[1] - mid) / h).ravel()).reshape(right.shape)
        # windows[k, t, j] = band[k, t + j] for the nb blocks t
        windows = sliding_window_view(band, b - first, axis=1)
        parts = np.empty((right.shape[0], nb))
        for k, lag in enumerate(range(first, first + right.shape[0])):
            np.einsum("ij,ij,ij->i", r[:, :b - lag], r[:, lag:], windows[k, :, :b - lag],
                      out=parts[k])
        parts[1 if first == 0 else 0:] *= 2.0
        for part in parts:
            total += part
    return total * h


def subsample_statistics(x, y, family, b, h_b, lam_b, d, kernel, support,
                         quad_cells=DEFAULT_QUAD_CELLS, return_by_block=False):
    """Normalized block statistics for all length-b consecutive blocks.

    Each block is refit (``_sliding_theta``), its raw statistic computed
    exactly on the block at the block-scale bandwidth h_b from the pair
    band, taken a run of lags at a time (``_pair_statistics``), and
    normalized with (b, lam_b, h_b), block-scale values that the caller
    states; 2 <= b < n.  ``quad_cells``, the
    resolution of the full-sample statistic, is checked but does not enter
    the block values.  Blocks with a singular design are skipped and
    counted; more than 5% skipped aborts.  Returns the sorted values, or
    with ``return_by_block`` (sorted, block-ordered values, skip count).
    """
    family = get_family(family)
    kernel = get_kernel(kernel)
    support = _check_support(support)
    _check_positive("bandwidth h_b", h_b)
    _check_memory(d, "lam_b", lam_b)
    _check_count("quad_cells", quad_cells, 2)
    x, y = _as_xy(x, y)
    _check_block_size(b, x.shape[0])
    nb = x.shape[0] - b + 1
    theta, valid, u = _sliding_theta(x, y, family, b)
    skipped = int(nb - valid.sum())
    if skipped > _MAX_SKIPPED_FRACTION * nb:
        raise SubsamplingError(
            f"{skipped} of {nb} block fits failed (> {_MAX_SKIPPED_FRACTION:.0%})")
    raw = _pair_statistics(x, _block_residuals(u, y, theta, b), h_b, kernel, support)[valid]
    normalized = normalized_statistic(raw, b, lam_b, d, h_b)[0]
    if return_by_block:
        return np.sort(normalized), normalized, skipped
    return np.sort(normalized)


def subsample_quantile(sorted_values, level):
    """Empirical (1-level) quantile of the subsample distribution
    (smallest order statistic with CDF >= 1-level)."""
    m = sorted_values.shape[0]
    if m == 0:
        raise ValueError("empty subsample distribution")
    idx = max(0, int(np.ceil((1.0 - level) * m)) - 1)
    return float(sorted_values[idx])


@dataclass
class SpecTestResult:
    """Specification test outcome: raw and normalized statistics, the fitted
    parameters, the subsample reference distribution and the p-value."""

    t_raw: float
    t_normalized: float
    normalizer: float
    theta_hat: np.ndarray
    subsample_values: np.ndarray
    p_value: float
    block_size: int
    subsample_by_block: np.ndarray = None
    n_blocks_skipped: int = 0
    h: float = None
    h_b: float = None
    lam: float = None
    lam_b: float = None
    d: float = None

    def reject(self, alpha):
        """Reject iff the normalized statistic exceeds the empirical
        (1-alpha)-quantile of the subsample values."""
        return self.t_normalized > subsample_quantile(self.subsample_values, alpha)

    def to_dict(self):
        """Every field but the block-ordered values."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "subsample_by_block"}
        for name in ("theta_hat", "subsample_values"):
            out[name] = [float(v) for v in np.atleast_1d(out[name])]
        return out


def parse_exponent(value):
    """Exponent a of a power rule n^a, from a number or a string like
    'n^-1/3' or 'n^-0.2'; a bool is not a number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        exponent = float(value)
    else:
        s = str(value).strip().lower().replace(" ", "")
        if not s.startswith("n^"):
            raise ValueError(f"cannot parse power rule {value!r}")
        num, slash, den = s[2:].strip("{}").partition("/")
        try:
            exponent = float(num) / (float(den) if slash else 1.0)
        except ValueError:
            raise ValueError(f"cannot parse power rule {value!r}") from None
        except ZeroDivisionError:
            raise ValueError(f"power rule {value!r} divides by zero") from None
    if not np.isfinite(exponent):
        raise ValueError(f"power rule {value!r} has a non-finite exponent")
    return exponent


def _at_size(value, m):
    """A tuning value at sample size m: a number is held at every size, and
    a power rule 'n^a' gives m^a, which must neither overflow nor be 0."""
    if not isinstance(value, str):
        return value
    try:
        out = float(m) ** parse_exponent(value)
    except OverflowError:
        raise ValueError(f"power rule {value!r} overflows at size {m}") from None
    if out == 0.0:
        raise ValueError(f"power rule {value!r} is 0.0 at size {m}")
    return out


def run_spec_test(x, y, family, h, kernel, support, d, lam, *, blocks,
                  quad_cells=DEFAULT_QUAD_CELLS):
    """Full specification test: one fit and statistic, normalized, then
    subsampled at each block size b, 2 <= b < n, of the nonempty
    ``blocks``; returns one ``SpecTestResult`` per size, in order.

    The bandwidth h and the tempering parameter lam are each a number, held
    at every size, or a power rule 'n^a', which gives n^a on the sample and
    b^a on its length-b blocks; lam = 0 is long memory.  The p-value uses
    add-one smoothing, (1 + #{blocks >= T}) / (1 + #blocks), with ties
    counted as exceedances.  ``support`` is the weight's (A, B).
    """
    if len(blocks) == 0:
        raise ValueError("blocks must hold at least one block size")
    support = _check_support(support)
    x, y = _as_xy(x, y)  # rejects bad x and y before any other work
    n = x.shape[0]
    for b in blocks:
        _check_block_size(b, n)  # before a rule raises b to a power
    theta_hat = nls_fit(family, x, y)
    scaled = [(b, _at_size(h, b), _at_size(lam, b)) for b in blocks]
    h, lam = _at_size(h, n), _at_size(lam, n)
    t_raw = t_statistic(x, y, family, theta_hat, h, kernel, support, quad_cells)
    t_norm, scale = normalized_statistic(t_raw, n, lam, d, h)
    results = []
    for b, h_b, lam_b in scaled:
        sorted_vals, by_block, skipped = subsample_statistics(
            x, y, family, b, h_b, lam_b, d, kernel, support, quad_cells,
            return_by_block=True)
        p_value = (1.0 + np.count_nonzero(sorted_vals >= t_norm)) / (1.0 + sorted_vals.size)
        results.append(SpecTestResult(
            t_raw=t_raw, t_normalized=t_norm, normalizer=scale, theta_hat=theta_hat,
            subsample_values=sorted_vals, p_value=float(p_value), block_size=int(b),
            subsample_by_block=by_block, n_blocks_skipped=skipped,
            h=float(h), h_b=float(h_b), lam=float(lam), lam_b=float(lam_b), d=float(d)))
    return tuple(results)
