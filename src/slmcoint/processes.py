"""Simulation of long-memory and tempered (semi-long-memory) regressor processes.

The regressor is a partial sum of moving-average shocks,

    x_k = sum_{s<=k} X(s),      X(s) = sum_{j=0}^{J} phi(j) * xi(s - j),

where phi(j) = b_d(j) under long memory and phi(j) = exp(-lam*j) * b_d(j)
under semi-long memory.  The coefficients b_d(j) are the fractional
(binomial) weights of (1 - z)^{-d}.  Endogeneity between the regressor
innovations xi and the error innovations eps is induced through their
contemporaneous correlation rho.  The truncation J = n + BURN_IN (capped
under tempering), the error's BURN_IN-step warm-up and the
DEFAULT_SINE_TERMS terms of the sine regression function are fixed
reproduction conventions.
"""

from dataclasses import dataclass, asdict, field
from functools import lru_cache

import numpy as np

from .kernel_regression import _check_count

BURN_IN = 1000
DEFAULT_SINE_TERMS = 1000
# nodes of the sine table over one period [-1, 1]
_SINE_RESOLUTION = 200001
_TEMPER_TRUNC_TOL = 1e-12
_TEMPER_LAG_FLOOR = 50


def _check_tempering(d, lam_name, lam):
    """d and the tempering parameter must be finite, with lam >= 0."""
    if not np.isfinite(d):
        raise ValueError(f"memory parameter d must be finite, got {d}")
    if not np.isfinite(lam):
        raise ValueError(f"tempering parameter {lam_name} must be finite, got {lam}")
    if lam < 0:
        raise ValueError(f"tempering parameter {lam_name} must be >= 0, got {lam}")


def _check_memory(d, lam_name, lam):
    """The memory rule: ``_check_tempering``, and lam = 0 (long memory)
    needs 0 <= d < 1/2; lam > 0 is semi-long memory, of any finite d."""
    _check_tempering(d, lam_name, lam)
    if lam == 0.0 and not (0.0 <= d < 0.5):
        raise ValueError(f"long memory requires 0 <= d < 1/2, got {d}")


def _check_simulated_d(d, name):
    """A simulated regressor needs d >= 0 (the statistics take a fitted d of
    either sign); after ``_check_memory`` only lam > 0 gets here with d < 0."""
    if d < 0.0:
        raise ValueError(f"{name}: a simulated semi-long-memory regressor needs d >= 0, "
                         f"got {d}")


@lru_cache(maxsize=64)
def _fast_len(n):
    """Smallest 5-smooth length 2^i 3^j 5^k >= n, the real-FFT length that
    scipy.fft.next_fast_len(n, real=True) picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve(a, b, b_spectrum=None):
    """Full linear convolution of two 1-D float arrays by real FFTs at the
    smallest 5-smooth length that holds it, which is what
    scipy.signal.fftconvolve computes, bit for bit.  A one-tap input is a
    plain product, as in scipy (an FFT would round it).  ``b_spectrum``,
    when given, is ``np.fft.rfft(b, size)`` at that length, kept by a
    caller that convolves many ``a`` of one length with the same ``b``."""
    if a.shape[0] == 1 or b.shape[0] == 1:
        return a * b
    n = a.shape[0] + b.shape[0] - 1
    size = _fast_len(n)
    if b_spectrum is None:
        b_spectrum = np.fft.rfft(b, size)
    return np.fft.irfft(np.fft.rfft(a, size) * b_spectrum, size)[:n]


def tempered_coeffs(d, lam, n_lags):
    """Exponentially tempered fractional coefficients phi(j) = e^{-lam*j} b_d(j)
    for j = 0..n_lags and lam >= 0; lam = 0 gives b_d(j) itself (each factor
    is exactly 1.0).  b_d(j) = Gamma(j+d) / (Gamma(d) Gamma(j+1)), the
    binomial expansion of (1-z)^{-d}, is computed by the stable recursion
    b(0) = 1, b(j) = b(j-1) * (j-1+d) / j, which avoids Gamma overflow and
    is defined for every real d.  For d = 0 the result is the delta
    sequence; d = 1 gives the all-ones (cumulative sum) filter; a negative
    integer d = -m gives the m + 1 coefficients of the polynomial (1-z)^m
    followed by zeros.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    _check_count("n_lags", n_lags, 0)
    out = np.empty(n_lags + 1)
    out[0] = 1.0
    j = np.arange(1, n_lags + 1)
    out[1:] = np.cumprod((j - 1.0 + float(d)) / j)
    return out * np.exp(-lam * np.arange(n_lags + 1))


def _tempered_lag_cap(lam, limit):
    """Truncation lag of a filter tempered by e^{-lam j}: lags beyond
    -ln(tol)/lam are negligible, so the lag is there (plus a small lag
    floor), or ``limit`` if that comes first.  lam * limit is tested before
    any division, so lam = 0, or a subnormal lam whose -ln(tol)/lam would
    overflow, gives ``limit``."""
    reach = -np.log(_TEMPER_TRUNC_TOL)
    if lam * limit < reach:
        return limit
    return min(limit, int(np.ceil(reach / lam)) + _TEMPER_LAG_FLOOR)


@dataclass(frozen=True)
class TemperedProcessSpec:
    """Parameters of a shock/regressor process.

    ``presample`` says whether innovation history feeds the first shock
    X(1): ``"full"`` gives every shock its complete truncated history, and
    0 builds the shocks from in-sample innovations only.  The MA truncation
    lag is derived: n + BURN_IN, capped by ``_tempered_lag_cap``.
    """

    d: float
    lam: float
    n: int
    presample: object = "full"
    truncation: int = field(init=False)

    def __post_init__(self):
        _check_memory(self.d, "lam", self.lam)
        _check_count("n", self.n, 1)
        _check_simulated_d(self.d, "d")
        object.__setattr__(self, "truncation",
                           _tempered_lag_cap(self.lam, self.n + BURN_IN))
        p = self.presample
        if p != "full":
            if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p != 0:
                raise ValueError(f"presample must be 'full' or 0, got {p!r}")
            object.__setattr__(self, "presample", 0)

    @property
    def history_lags(self):
        return self.truncation if self.presample == "full" else 0

    def coefficients(self):
        """The shock filter phi(0..truncation); d = 0 gives the delta sequence."""
        return tempered_coeffs(self.d, self.lam, self.truncation)

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class NoiseConfig:
    """Error-process parameters: corr(xi, eps) = rho, AR(1) coefficient psi,
    error scale sigma, RNG seed."""

    rho: float
    psi: float
    sigma: float
    seed: int

    def __post_init__(self):
        for name in ("rho", "psi", "sigma"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"noise parameter {name} must be finite, got {value}")
        if abs(self.rho) > 1.0:
            raise ValueError("|rho| must be <= 1 (covariance not psd otherwise)")
        if abs(self.psi) >= 1.0:
            raise ValueError("|psi| < 1 required (stationary AR error)")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def to_dict(self):
        return asdict(self)


def simulate_innovations(n_total, noise, rng=None):
    """Draw correlated innovation streams (xi, eps).

    xi is i.i.d. standard normal and eps = rho*xi + sqrt(1-rho^2)*e with e an
    independent standard normal, so both streams have unit variance and
    corr(xi_k, eps_k) = rho.  Deterministic given the seed.
    """
    _check_count("n_total", n_total, 1)
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    xi = rng.standard_normal(n_total)
    e = rng.standard_normal(n_total)
    eps = noise.rho * xi + np.sqrt(1.0 - noise.rho ** 2) * e
    return xi, eps


def simulate_regressor(spec, xi):
    """Partial-sum regressor x_k built from the innovation stream xi.

    The trailing ``spec.n`` entries of xi are the in-sample innovations;
    the ``spec.history_lags`` entries before them supply the pre-sample
    shock history.  Shocks are computed by FFT convolution with the
    (tempered) fractional coefficients, whose spectrum is cached per spec,
    and then cumulated.
    """
    xi = np.asarray(xi, dtype=float)
    hist = spec.history_lags
    need = spec.n + hist
    if xi.shape[0] < need:
        raise ValueError(f"innovation stream too short: need >= {need}, got {xi.shape[0]}")
    phi, spectrum = _shock_filter(spec)
    shocks = fftconvolve(xi[-need:], phi, spectrum)[hist:hist + spec.n]
    return np.cumsum(shocks)


@lru_cache(maxsize=32)
def _shock_filter(spec):
    """The coefficients of ``spec`` and their real-FFT spectrum at the length
    ``fftconvolve`` takes for a stream of n + history_lags innovations, both
    read-only.  A Monte Carlo study simulates many regressors per spec, and
    this is the part they share.

    Trailing zero coefficients (delta case, underflowed tempered tails)
    contribute nothing; trimming them keeps equal-coefficient specs
    bit-identical.
    """
    phi = spec.coefficients()
    nz = np.nonzero(phi)[0]
    phi = phi[:int(nz[-1]) + 1]  # phi[0] = 1.0, so nz is never empty
    spectrum = np.fft.rfft(phi, _fast_len(spec.n + spec.history_lags + phi.shape[0] - 1))
    for arr in (phi, spectrum):
        arr.flags.writeable = False
    return phi, spectrum


def simulate_error_ar1(eps, psi, n_keep=None):
    """AR(1) error u_k = psi*u_{k-1} + eps_k started at zero.

    The recursion runs over the whole eps stream; the last ``n_keep``
    values are returned, so any leading entries act as burn-in and u
    effectively starts from its stationary distribution.
    """
    if abs(psi) >= 1.0:
        raise ValueError("|psi| < 1 required")
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1:
        raise ValueError("eps must be one-dimensional")
    if n_keep is not None and not (1 <= n_keep <= eps.shape[0]):
        raise ValueError("n_keep out of range")
    # numpy has no recursive filter; on Python floats the loop costs about
    # 0.5 ms per 4000 steps and rounds exactly as scipy's lfilter does
    psi = float(psi)
    u, prev = [], 0.0
    for e in eps.tolist():
        prev = e + psi * prev
        u.append(prev)
    u = np.array(u, dtype=float)
    return u if n_keep is None else u[-n_keep:]


def regression_function_sine(x, terms=DEFAULT_SINE_TERMS):
    """Alternating sine-series regression function.

    f(x) = sum_{j=1}^{terms} (-1)^{j+1} sin(j*pi*x) / j^2; the truncation
    error of the infinite series is bounded by sum_{j>terms} j^{-2} < 1/terms.
    0 terms is the zero function.
    """
    _check_count("terms", terms, 0)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = np.zeros_like(xv)
    # chunk the series to bound the (n_points, terms) workspace
    step = max(1, int(2e6 / max(1, xv.size)))
    for lo in range(1, terms + 1, step):
        j = np.arange(lo, min(lo + step, terms + 1), dtype=float)
        signs = np.where(j % 2 == 1, 1.0, -1.0)
        out += np.sin(np.outer(xv, j) * np.pi) @ (signs / j ** 2)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=4)
def _sine_table(terms, resolution):
    """regression_function_sine on linspace(-1, 1, resolution) by one FFT.

    With N = resolution - 1 the nodes are x_k = -1 + 2k/N, where
    (-1)^{j+1} sin(j*pi*x_k) = -sin(2*pi*j*k/N), so
    f(x_k) = -sum_j sin(2*pi*j*k/N) / j^2 = Im(FFT(c))_k with c_j = 1/j^2.
    Frequencies j >= N alias onto j mod N, so folding them there keeps the
    table exact for every (terms, resolution); 0 terms give a table of
    zeros.  The last node x = 1 repeats the first (period 2).
    """
    _check_count("terms", terms, 0)
    _check_count("resolution", resolution, 2)
    period = resolution - 1
    j = np.arange(1, terms + 1)
    c = np.zeros(period)
    np.add.at(c, j % period, 1.0 / j.astype(float) ** 2)
    values = np.fft.fft(c).imag
    grid = np.linspace(-1.0, 1.0, resolution)
    return grid, np.append(values, values[0])


def sine_series_interpolator(terms=DEFAULT_SINE_TERMS):
    """Fast evaluator of regression_function_sine via one-period interpolation.

    The series has period 2, so each point is folded into [-1, 1) and read
    from a table of ``_SINE_RESOLUTION`` nodes by np.interp.  Interpolation
    error is below 2e-4; intended for Monte Carlo harness use where f is
    evaluated millions of times.
    """
    grid, table = _sine_table(terms, _SINE_RESOLUTION)

    def evaluate(x):
        return np.interp(np.mod(np.asarray(x, dtype=float) + 1.0, 2.0) - 1.0, grid, table)

    return evaluate


@dataclass
class SimulatedPath:
    """One model draw: regressor x, error u, response y = f(x) + sigma*u."""

    x: np.ndarray
    u: np.ndarray
    y: np.ndarray


def innovation_length(spec):
    """Canonical innovation draw length 2 (n + BURN_IN).  The regressor
    reads the last n + history_lags <= 2 n + BURN_IN entries of xi.  The
    AR(1) error runs over the last n + BURN_IN entries of eps, from zero
    BURN_IN steps before the sample, and keeps the last n.

    The length depends only on n, so paths simulated under different
    memory settings from the same seed share innovations draw for draw.
    """
    return 2 * (spec.n + BURN_IN)


def simulate_model(spec, noise, f=None, rng=None):
    """Full model draw y_k = f(x_k) + sigma * u_k as a SimulatedPath; f is
    any vectorized function, e.g. an interpolator, and None means f = 0.

    Both innovation streams come from one seeded generator, so endogeneity
    (corr(xi, eps) = rho) holds by construction and re-simulation with the
    same spec/noise reproduces the path bit for bit.
    """
    xi, eps = simulate_innovations(innovation_length(spec), noise, rng=rng)
    x = simulate_regressor(spec, xi)
    u = simulate_error_ar1(eps[-(spec.n + BURN_IN):], noise.psi, n_keep=spec.n)
    fx = np.zeros_like(x) if f is None else np.asarray(f(x), dtype=float)
    y = fx + noise.sigma * u
    return SimulatedPath(x=x, u=u, y=y)


def scale_dn(n, lam, d):
    """Normalization d_N of the partial-sum regressor: n^{d+1/2} under long
    memory (lam = 0) and sqrt(n)/lam^d under semi-long memory (lam > 0).
    (d, lam) must satisfy the memory rule (``_check_memory``)."""
    _check_memory(d, "lam", lam)
    if lam == 0.0:
        return float(n) ** (d + 0.5)
    return np.sqrt(n) / lam ** d
