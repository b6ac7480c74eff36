import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from slmcoint import (EPANECHNIKOV, GAUSSIAN, nw_estimate, fitted_values, residual_variance,
                      kernel_estimate, get_kernel,
                      TemperedProcessSpec, NoiseConfig, simulate_model,
                      sine_series_interpolator)
from slmcoint.kernel_regression import kernel_sums


# ----------------------------------------------------------------- kernels

def test_epanechnikov_peak():
    assert EPANECHNIKOV(0.0) == pytest.approx(0.75)


def test_epanechnikov_outside_support():
    assert EPANECHNIKOV(1.5) == 0.0


def test_gaussian_peak():
    assert GAUSSIAN(0.0) == pytest.approx(0.3989422804014327)


def test_moments_epanechnikov():
    assert EPANECHNIKOV.d1 == pytest.approx(1.0, abs=1e-12)
    assert EPANECHNIKOV.k2 == pytest.approx(0.6, abs=1e-12)


def test_moments_gaussian():
    assert GAUSSIAN.d1 == pytest.approx(1.0, abs=1e-12)
    assert GAUSSIAN.k2 == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)), abs=1e-12)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_moments_match_quadrature(kernel):
    lim = 1.0 if np.isfinite(kernel.halfwidth) else 10.0
    i1 = quad(lambda u: kernel(u), -lim, lim)[0]
    i2 = quad(lambda u: kernel(u) ** 2, -lim, lim)[0]
    assert abs(i1 - kernel.d1) < 1e-8
    assert abs(i2 - kernel.k2) < 1e-8
    assert np.all(kernel(np.linspace(-3, 3, 101)) >= 0)


def test_get_kernel_parse():
    assert get_kernel("gaussian") is GAUSSIAN
    with pytest.raises(ValueError):
        get_kernel("triangle")


# ------------------------------------------------------------- kernel sums

def _dense_sums(x, points, h, kernel, columns):
    mass = np.zeros(len(points))
    count = np.zeros(len(points), dtype=int)
    sums = np.zeros((len(columns), len(points)))
    for i, p in enumerate(points):
        for k in range(len(x)):
            u = (x[k] - p) / h
            w = float(kernel(u))
            mass[i] += w
            count[i] += abs(u) <= kernel.halfwidth
            for c, col in enumerate(columns):
                sums[c, i] += w * col[k]
    return mass, count, sums


@st.composite
def _sums_case(draw):
    """Unsorted samples with ties, points at exactly x +- h (and beyond the
    data, for empty windows), down to a single observation."""
    n = draw(st.integers(1, 30))
    values = st.floats(-120.0, 120.0, allow_nan=False, allow_infinity=False)
    distinct = draw(st.lists(values, min_size=1, max_size=n))
    x = np.array(draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n)))
    h = draw(st.floats(1e-3, 50.0))
    picks = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.sampled_from([-1.0, 0.0, 1.0])),
                          max_size=6))
    points = [x[k] + s * h for k, s in picks]
    points += draw(st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=6))
    y = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return x, np.array(points), h, np.array(y)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
@settings(max_examples=150, deadline=None)
@given(case=_sums_case())
def test_kernel_sums_match_double_loop(kernel, case):
    x, points, h, y = case
    columns = (y, y * y)
    mass, count, sums = kernel_sums(x, points, h, kernel, columns)
    emass, ecount, esums = _dense_sums(x, points, h, kernel, columns)
    assert_allclose(mass, emass, rtol=1e-12, atol=1e-12)
    assert np.array_equal(count, ecount)
    assert_allclose(sums, esums, rtol=1e-12, atol=1e-12)


def test_kernel_sums_boundary_points_count():
    # observations at exactly u = +-1 carry no Epanechnikov weight but count
    x = np.array([0.0, 1.0, 2.0, 2.0, 3.0])
    mass, count, sums = kernel_sums(x, [1.0, 2.0, 10.0], 1.0, EPANECHNIKOV)
    assert_allclose(mass, [0.75, 1.5, 0.0])
    assert count.tolist() == [4, 4, 0]
    assert sums.shape == (0, 3)


def test_kernel_sums_chunks_like_one_pass():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    points = np.linspace(-4, 4, 2000)  # > 512 rows of the sample per chunk
    mass, _, (sy,) = kernel_sums(x, points, 0.7, GAUSSIAN, (y,))
    emass, _, (esy,) = _dense_sums(x, points, 0.7, GAUSSIAN, (y,))
    assert_allclose(mass, emass, rtol=1e-12, atol=1e-12)
    assert_allclose(sy, esy, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bad, match", [
    (dict(x=[0.0, 1.0, np.nan]), "in x"),
    (dict(points=[np.inf]), "in evaluation points"),
    (dict(columns=([1.0, np.nan, 3.0],)), "in summed columns"),
    (dict(h=0.0), "bandwidth"),
    (dict(h=-1.0), "bandwidth"),
    (dict(h=np.nan), "bandwidth"),
    (dict(columns=([1.0, 2.0],)), "align"),
])
def test_kernel_sums_rejects_bad_input(bad, match):
    args = dict(x=[0.0, 1.0, 2.0], points=[0.5], h=0.8, kernel=EPANECHNIKOV,
                columns=([1.0, 2.0, 3.0],))
    args.update(bad)
    with pytest.raises(ValueError, match=match):
        kernel_sums(**args)


def test_nw_rejects_nan_pair():
    # a NaN regressor value is an error, not a silently dropped pair
    with pytest.raises(ValueError, match="non-finite"):
        nw_estimate([0.0, 1.0, np.nan], [1.0, 2.0, 3.0], [0.5], 0.8)


# -------------------------------------------------------------- estimation

def test_nw_constant_response():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 50)
    est = nw_estimate(x, np.full(50, 3.25), np.linspace(0, 1, 11), 0.2)
    ok = est.defined
    assert np.any(ok)
    assert_allclose(est.fhat[ok], 3.25, atol=1e-12)


def test_nw_single_observation():
    est = nw_estimate(np.array([0.0]), np.array([5.0]), np.array([0.0]), 0.5)
    assert est.fhat[0] == pytest.approx(5.0)


def _nw_oracle(x, y, grid, h, kernel):
    fhat = np.full(len(grid), np.nan)
    mass = np.zeros(len(grid))
    for i, p in enumerate(grid):
        num = den = 0.0
        for k in range(len(x)):
            w = float(kernel((x[k] - p) / h))
            num += w * y[k]
            den += w
        mass[i] = den
        if den > 0:
            fhat[i] = num / den
    return fhat, mass


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_nw_matches_double_loop(kernel):
    rng = np.random.default_rng(1)
    x = np.cumsum(rng.standard_normal(100))
    y = np.sin(x) + 0.1 * rng.standard_normal(100)
    grid = np.linspace(x.min(), x.max(), 7)
    est = nw_estimate(x, y, grid, 0.8, kernel)
    fhat, mass = _nw_oracle(x, y, grid, 0.8, kernel)
    assert_allclose(est.fhat, fhat, atol=1e-12)
    assert_allclose(est.local_mass, mass, atol=1e-12)


def test_nw_weights_sum_to_one():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 200)
    grid = np.linspace(-0.5, 0.5, 9)
    h = 0.3
    W = EPANECHNIKOV((x[None, :] - grid[:, None]) / h)
    mass = W.sum(axis=1)
    weights = W / mass[:, None]
    assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)


def test_nw_location_shift():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 80)
    y = rng.standard_normal(80)
    grid = np.linspace(0, 1, 13)
    a = nw_estimate(x, y, grid, 0.15)
    b = nw_estimate(x, y + 4.5, grid, 0.15)
    ok = a.defined
    assert_allclose(b.fhat[ok] - a.fhat[ok], 4.5, atol=1e-12)


def test_nw_undefined_points_flagged():
    x = np.array([0.0, 0.1])
    est = nw_estimate(x, np.array([1.0, 2.0]), np.array([0.05, 50.0]), 0.1)
    assert est.defined[0] and not est.defined[1]
    assert np.isnan(est.fhat[1])


# ------------------------------------------------------- residual variance

def test_residual_variance_zero_for_perfect_fit():
    x = np.linspace(0, 1, 20)
    y = np.full(20, 2.0)
    fhat = fitted_values(x, y, 0.3)
    assert residual_variance(x, y, fhat, 0.3, EPANECHNIKOV, 0.5) \
        == pytest.approx(0.0, abs=1e-24)


def test_residual_variance_constant_residuals():
    x = np.linspace(0, 1, 20)
    y = np.zeros(20)
    fhat = np.full(20, 0.7)  # residuals identically -0.7
    assert residual_variance(x, y, fhat, 0.3, EPANECHNIKOV, 0.5) \
        == pytest.approx(0.49, rel=1e-12)


def test_residual_variance_matches_double_loop():
    rng = np.random.default_rng(4)
    x = np.cumsum(rng.standard_normal(100))
    y = np.cos(x) + 0.3 * rng.standard_normal(100)
    h = 1.1
    fhat = fitted_values(x, y, h)
    at = x.mean()
    got = residual_variance(x, y, fhat, h, EPANECHNIKOV, at)
    num = den = 0.0
    for k in range(100):
        w = float(EPANECHNIKOV((x[k] - at) / h))
        num += w * (y[k] - fhat[k]) ** 2
        den += w
    assert got == pytest.approx(num / den, abs=1e-12)


def test_fitted_values_always_defined():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.standard_normal(500))
    y = rng.standard_normal(500)
    fh = fitted_values(x, y, 0.05)
    assert np.all(np.isfinite(fh))


# ------------------------------------------------------ confidence interval

def test_ci_collapses_at_zero_variance():
    x = np.linspace(0, 1, 30)
    y = np.full(30, 1.5)
    est = kernel_estimate(x, y, 0.5, 0.2, alpha=0.05)
    lo, hi = est.ci_lo[0], est.ci_hi[0]
    assert lo == pytest.approx(1.5, abs=1e-12)
    assert hi == pytest.approx(1.5, abs=1e-12)


def test_ci_halfwidth_formula():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, 100)
    y = np.sin(3 * x) + 0.2 * rng.standard_normal(100)
    h = 0.2
    at = 0.5
    est = kernel_estimate(x, y, at, h, alpha=0.05)
    lo, hi = est.ci_lo[0], est.ci_hi[0]
    fhat = nw_estimate(x, y, np.array([at]), h)
    fd = fitted_values(x, y, h)
    s2 = residual_variance(x, y, fd, h, EPANECHNIKOV, at)
    half = 1.959963984540054 * np.sqrt(s2 * 0.6 / (fhat.local_mass[0] * 1.0))
    assert hi - lo == pytest.approx(2 * half, rel=1e-9)
    assert (lo + hi) / 2 == pytest.approx(fhat.fhat[0], rel=1e-9)


def test_ci_undefined_far_from_data():
    x = np.linspace(0, 1, 30)
    y = x.copy()
    est = kernel_estimate(x, y, 99.0, 0.1, alpha=0.05)
    lo, hi = est.ci_lo[0], est.ci_hi[0]
    assert np.isnan(lo) and np.isnan(hi)


@pytest.mark.parametrize("alpha", [1.5, 0.0, -0.2, np.nan])
def test_ci_rejects_alpha_outside_unit_interval(alpha):
    x = np.linspace(0, 1, 30)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
        kernel_estimate(x, x, 0.5, 0.2, alpha=alpha)


def test_ci_zero_width_at_alpha_one():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 50)
    est = kernel_estimate(x, np.sin(x) + rng.standard_normal(50), [0.3, 0.6],
                          0.2, alpha=1.0)
    assert np.array_equal(est.ci_lo, est.fhat)
    assert np.array_equal(est.ci_hi, est.fhat)


# ----------------------------------------------------------- full estimate

def test_kernel_estimate_csv(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 60)
    y = x ** 2 + 0.05 * rng.standard_normal(60)
    est = kernel_estimate(x, y, np.array([0.2, 0.5, 42.0]), 0.15, alpha=0.05)
    out = tmp_path / "est.csv"
    est.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,fhat,sigma2hat,local_mass,ci_lo,ci_hi"
    assert len(lines) == 4
    # undefined point serializes with empty fields
    assert lines[3].split(",")[1] == ""
    assert float(lines[1].split(",")[1]) == pytest.approx(est.fhat[0])


def test_kernel_estimate_variance_modes():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, 80)
    y = 2.0 + 0.1 * rng.standard_normal(80)
    grid = np.array([0.5])
    centered = kernel_estimate(x, y, grid, 0.2, variance="centered")
    uncentered = kernel_estimate(x, y, grid, 0.2, variance="uncentered")
    # y has mean ~2, so the uncentered second moment is far larger
    assert uncentered.sigma2hat[0] > 10 * centered.sigma2hat[0]
    with pytest.raises(ValueError):
        kernel_estimate(x, y, grid, 0.2, variance="bogus")


_samples = st.integers(1, 40).flatmap(lambda n: st.tuples(
    # few distinct x values, so that tied observations are common
    st.lists(st.integers(-20, 20).map(lambda k: k / 8.0), min_size=n, max_size=n),
    st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(sample=_samples, seed=st.integers(0, 2 ** 32 - 1),
       h=st.floats(0.05, 3.0), kernel=st.sampled_from([EPANECHNIKOV, GAUSSIAN]))
def test_nw_invariant_to_permuting_pairs(sample, seed, h, kernel):
    x, y = (np.array(v) for v in sample)
    perm = np.random.default_rng(seed).permutation(x.shape[0])
    grid = np.linspace(-3.0, 3.0, 13)
    a = nw_estimate(x, y, grid, h, kernel)
    b = nw_estimate(x[perm], y[perm], grid, h, kernel)
    assert np.array_equal(a.window_count, b.window_count)
    assert_allclose(b.local_mass, a.local_mass, rtol=1e-12)
    # tied x are summed in a different order, so allow rounding at the
    # scale of y
    scale = max(np.abs(y).max(), 1e-300)
    assert_allclose(b.fhat, a.fhat, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(sample=_samples, h=st.floats(0.05, 3.0),
       kernel=st.sampled_from([EPANECHNIKOV, GAUSSIAN]))
def test_fhat_identical_across_variance_modes(sample, h, kernel):
    x, y = (np.array(v) for v in sample)
    grid = np.linspace(-3.0, 3.0, 13)
    plain = kernel_estimate(x, y, grid, h, kernel, variance=None)
    for variance in ("centered", "uncentered"):
        est = kernel_estimate(x, y, grid, h, kernel, alpha=0.05, variance=variance)
        assert np.array_equal(est.fhat, plain.fhat, equal_nan=True)
        assert np.array_equal(est.local_mass, plain.local_mass)


def test_stochastic_consistency_rate():
    # average |fhat - f| on [0, 1] falls as N grows (SLM, d = 0.2)
    f = sine_series_interpolator(500)
    grid = np.linspace(0, 1, 100)
    fg = f(grid)
    med = []
    for n in (250, 1000, 4000):
        spec = TemperedProcessSpec(d=0.2, lam=n ** -0.2, n=n,
                                   memory_kind="slm", presample=0)
        errs = []
        for rep in range(500):
            noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2,
                                seed=rep * 7919 + n)
            path = simulate_model(spec, noise, f=f)
            est = nw_estimate(path.x, path.y, grid, n ** (-1.0 / 3.0))
            ok = est.defined
            if np.any(ok):
                errs.append(float(np.mean(np.abs(est.fhat[ok] - fg[ok]))))
        med.append(np.median(errs))
    assert med[0] > med[1] > med[2]
