"""Parametric specification testing for the cointegrating regression function.

The statistic integrates squared kernel-smoothed residuals of a fitted
parametric family against a compactly supported weight,

    T = int { sum_k K[(x_k - x)/h] * (y_k - g(x_k, theta_hat)) }^2 pi(x) dx,

normalized according to the regressor's memory kind, and calibrated by
recomputing the normalized statistic on all length-b blocks of consecutive
observations (overlapping subsampling).
"""

from dataclasses import dataclass, fields

import numpy as np

from .kernel_regression import _check_finite, _check_positive, get_kernel
from .processes import MemoryKind, _check_memory

DEFAULT_QUAD_CELLS = 2048
DEFAULT_WEIGHT_SUPPORT = (-100.0, 100.0)
_DOMAIN_PAD_BANDWIDTHS = 6.0
_MAX_SKIPPED_FRACTION = 0.05
_TILE_FLOATS = 2 ** 14  # kernel values per node tile: 32 rows at n = 500
_GAUSSIAN_REACH = 40.0  # the Gaussian weight is exactly 0.0 beyond |u| = 38.58
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


def linear_family():
    """g(x, theta) = theta0 + theta1 * x."""
    return ParametricFamily("linear", 1)


def quadratic_family():
    """g(x, theta) = theta0 + theta1 * x + theta2 * x^2."""
    return ParametricFamily("quadratic", 2)


def get_family(name):
    if isinstance(name, ParametricFamily):
        return name
    key = str(name).strip().lower()
    if key not in _DEGREES:
        raise ValueError(f"unknown family {name!r}; choose linear or quadratic")
    return ParametricFamily(key, _DEGREES[key])


@dataclass(frozen=True)
class WeightFunction:
    """Weight pi(x) = 1 on the compact support [a, b], 0 outside."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.b > self.a):
            raise ValueError("weight support must satisfy a < b")


def uniform_weight(a=DEFAULT_WEIGHT_SUPPORT[0], b=DEFAULT_WEIGHT_SUPPORT[1]):
    """pi(x) = 1 on [a, b], 0 outside."""
    return WeightFunction(a=float(a), b=float(b))


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


def integration_domain(x, h, weight):
    """Quadrature interval: weight support clipped to the realized data range
    plus a pad of ``_DOMAIN_PAD_BANDWIDTHS`` bandwidths (the smoothed
    residual field is numerically zero further out)."""
    x = np.asarray(x, dtype=float)
    lo = max(weight.a, float(x.min()) - _DOMAIN_PAD_BANDWIDTHS * h)
    hi = min(weight.b, float(x.max()) + _DOMAIN_PAD_BANDWIDTHS * h)
    if hi <= lo:
        return weight.a, weight.b
    return lo, hi


def _quad_nodes(domain, quad_cells):
    if quad_cells < 2:
        raise ValueError(f"quad_cells must be >= 2, got {quad_cells}")
    lo, hi = domain
    dx = (hi - lo) / quad_cells
    return lo + (np.arange(quad_cells) + 0.5) * dx, dx


def _node_tiles(x, h, kernel, nodes):
    """Yield (rows, keep, K) over consecutive row tiles of the ascending
    nodes: ``keep`` indexes, in time order, the observations within reach of
    the tile's nodes, and K[k, i] = kernel((x[keep][k] - nodes[rows][i]) / h).
    The reach is the kernel's half-width, or ``_GAUSSIAN_REACH`` for the
    Gaussian, widened by a relative 1e-12 as in ``kernel_sums``: every
    observation left out has weight exactly 0.0 at every node of the tile,
    and adding 0.0 leaves a sum unchanged bit for bit.  A tile holds at most
    ``_TILE_FLOATS`` kernel values, so that the working arrays derived from
    it stay in cache and none is large enough to be mapped afresh per call."""
    reach = h * (kernel.halfwidth if np.isfinite(kernel.halfwidth) else _GAUSSIAN_REACH)
    step = max(1, _TILE_FLOATS // x.shape[0])
    for lo in range(0, nodes.shape[0], step):
        rows = slice(lo, lo + step)
        first, last = nodes[rows][0], nodes[rows][-1]
        pad = reach + 1e-12 * (max(abs(first), abs(last)) + reach)
        keep = np.flatnonzero((x >= first - pad) & (x <= last + pad))
        yield rows, keep, kernel((x[keep, None] - nodes[None, rows]) / h)


def t_statistic(x, y, family, theta, h, kernel, weight, quad_cells=DEFAULT_QUAD_CELLS):
    """Raw specification statistic by composite midpoint quadrature.

    The integrand { sum_k K[(x_k-x)/h] r_k }^2 pi(x) is evaluated on
    ``quad_cells`` midpoint nodes over ``integration_domain``: the weight
    support clipped to the data range.  ``quad_cells`` is 2048 by default,
    the resolution of ``run_spec_test``, the CLI and the empirical
    workflow; the size study passes 1024.
    """
    _check_positive("bandwidth h", h)
    family = get_family(family)
    kernel = get_kernel(kernel)
    x, y = _as_xy(x, y)
    r = family.residuals(x, y, np.asarray(theta, dtype=float))
    nodes, dx = _quad_nodes(integration_domain(x, h, weight), quad_cells)
    S = np.empty(quad_cells)
    for rows, keep, K in _node_tiles(x, h, kernel, nodes):
        # over full rows, zeros included: einsum's rounding depends on position
        full = np.zeros((K.shape[1], x.shape[0]))
        full[:, keep] = K.T
        # einsum's own loop, not BLAS: OpenBLAS threads this product and its
        # spinning helper threads make a 2-worker study slower than a serial one
        S[rows] = np.einsum("ij,j->i", full, r)
    return float(np.sum(S * S) * dx)


def normalized_statistic(t_raw, n, lam, d, h, memory_kind):
    """Memory-dependent normalization of the raw statistic.

    long: T * n^{d-1/2} / h; otherwise T / (sqrt(n) lam^d h), where short
    memory is the d = 0 case, T / (sqrt(n) h) (unit long-run variance
    convention).
    """
    kind = MemoryKind.parse(memory_kind)
    _check_memory(kind, d, "lam", lam)
    if kind is MemoryKind.LONG:
        mult = float(n) ** (d - 0.5) / h
        return t_raw * mult, 1.0 / mult
    scale = float(np.sqrt(n) * lam ** d * h)
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


def subsample_statistics(x, y, family, b, h_b, lam_b, d, memory_kind, kernel,
                         weight, quad_cells=DEFAULT_QUAD_CELLS, return_by_block=False):
    """Normalized block statistics for all length-b consecutive blocks.

    Each block is refit (``_sliding_theta``), its raw statistic computed on
    the block at the block-scale bandwidth h_b, and normalized with
    (b, lam_b, h_b), block-scale values that the caller states.  Blocks with
    a singular design are skipped and counted; more than 5% skipped aborts.
    Returns the sorted values (and optionally the block-ordered ones, their
    block indices and the skip count).
    """
    family = get_family(family)
    kernel = get_kernel(kernel)
    kind = MemoryKind.parse(memory_kind)
    _check_positive("bandwidth h_b", h_b)
    _check_memory(kind, d, "lam_b", lam_b)
    x, y = _as_xy(x, y)
    n = x.shape[0]
    if not (2 <= b <= n):
        raise ValueError("block size must satisfy 2 <= b <= n")
    nb = n - b + 1
    domain = integration_domain(x, h_b, weight)
    nodes, dx = _quad_nodes(domain, quad_cells)

    theta, valid, u = _sliding_theta(x, y, family, b)
    # per node tile: y and the basis u^j, weighted by K, summed over every
    # block as differences of one cumulative sum along the kept observations
    # (from a leading 0), held as (column, observation, node)
    cols = np.stack([y] + [u ** j for j in range(family.dim)])
    # squared block sums with the nodes contiguous: the sum over the nodes is
    # then numpy's pairwise sum of a whole row (a running sum across tiles
    # would round differently)
    sq = np.empty((nb, quad_cells))
    for rows, keep, K in _node_tiles(x, h_b, kernel, nodes):
        C = np.zeros((cols.shape[0], keep.size + 1, K.shape[1]))
        np.multiply(K, cols[:, keep, None], out=C[:, 1:])
        np.cumsum(C, axis=1, out=C)
        # C[:, k] for every k = 0..n: the sum over the kept observations
        # before k, which is the sum over all of them (the rest weigh 0.0)
        C = np.take(C, np.searchsorted(keep, np.arange(n + 1)), axis=1)
        D = C[:, b:] - C[:, :nb]
        S = D[0]
        for j in range(family.dim):
            S -= theta[:, j, None] * D[1 + j]
        np.multiply(S, S, out=sq[:, rows])
    raw = np.sum(sq, axis=1)[valid] * dx
    skipped = int(nb - valid.sum())
    order_index = np.nonzero(valid)[0]

    if skipped > _MAX_SKIPPED_FRACTION * nb:
        raise SubsamplingError(
            f"{skipped} of {nb} block fits failed (> {_MAX_SKIPPED_FRACTION:.0%})")
    normalized = normalized_statistic(raw, b, lam_b, d, h_b, kind)[0]
    if return_by_block:
        return np.sort(normalized), normalized, order_index, skipped
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
    block_index: np.ndarray = None
    n_blocks_skipped: int = 0
    memory_kind: str = ""
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
        """Every field but the block-ordered values and their indices."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("subsample_by_block", "block_index")}
        for name in ("theta_hat", "subsample_values"):
            out[name] = [float(v) for v in np.atleast_1d(out[name])]
        return out


def run_spec_test(x, y, family, h, kernel, weight, memory_kind, d, lam=0.0, *,
                  blocks, quad_cells=DEFAULT_QUAD_CELLS):
    """Full specification test: one fit and statistic, normalized, then
    subsampled at each (b, h_b, lam_b) of the nonempty ``blocks``; returns
    one ``SpecTestResult`` per entry, in order.

    The caller states the block-scale tuning values: h_b, and lam_b > 0
    under semi-long memory.  A power rule h = n^a gives h_b = b^a; a fixed
    value is passed unchanged.  The p-value uses add-one smoothing,
    (1 + #{blocks >= T}) / (1 + #blocks), with ties counted as exceedances.
    """
    if len(blocks) == 0:
        raise ValueError("blocks must hold at least one (b, h_b, lam_b)")
    kind = MemoryKind.parse(memory_kind)
    theta_hat = nls_fit(family, x, y)  # rejects bad x and y before any other work
    t_raw = t_statistic(x, y, family, theta_hat, h, kernel, weight, quad_cells)
    t_norm, scale = normalized_statistic(t_raw, len(x), lam, d, h, kind)
    results = []
    for b, h_b, lam_b in blocks:
        sorted_vals, by_block, order_index, skipped = subsample_statistics(
            x, y, family, b, h_b, lam_b, d, kind, kernel, weight, quad_cells,
            return_by_block=True)
        p_value = (1.0 + np.count_nonzero(sorted_vals >= t_norm)) / (1.0 + sorted_vals.size)
        results.append(SpecTestResult(
            t_raw=t_raw, t_normalized=t_norm, normalizer=scale, theta_hat=theta_hat,
            subsample_values=sorted_vals, p_value=float(p_value), block_size=int(b),
            subsample_by_block=by_block, block_index=order_index,
            n_blocks_skipped=skipped, memory_kind=kind.value,
            h=float(h), h_b=float(h_b), lam=float(lam), lam_b=float(lam_b), d=float(d)))
    return tuple(results)
