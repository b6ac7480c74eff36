from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from slmcoint import (EPANECHNIKOV, GAUSSIAN, kernel_estimate, get_kernel,
                      TemperedProcessSpec, NoiseConfig, simulate_model,
                      sine_series_interpolator)
from slmcoint.cli import main as cli_main
from slmcoint import kernel_regression
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


def _sorted_loop_sums(x, points, h, kernel, columns):
    """The double loop in stable sorted-x order, the order in which every
    window of ``kernel_sums`` sums: equal to it bit for bit."""
    order = np.argsort(x, kind="stable")
    mass = np.zeros(len(points))
    count = np.zeros(len(points), dtype=int)
    sums = np.zeros((len(columns), len(points)))
    for i, p in enumerate(points):
        for k in order:
            u = (x[k] - p) / h
            w = float(kernel(u))
            mass[i] += w
            count[i] += abs(u) <= kernel.halfwidth
            for c, col in enumerate(columns):
                sums[c, i] += w * col[k]
    return mass, count, sums


def _assert_equals_sorted_loop(x, points, h, kernel, columns):
    """kernel_sums of a stack of paths (shared points, a vector of
    bandwidths, one row of every column per path) equals the sorted double
    loop of each path and bandwidth."""
    mass, count, sums = kernel_sums(x, points, h, kernel, columns)
    for i in range(x.shape[0]):
        for j in range(h.size):
            cols = [col[i] for col in columns]
            emass, ecount, esums = _sorted_loop_sums(x[i], points, h[j], kernel, cols)
            assert np.array_equal(mass[i, j], emass)
            assert np.array_equal(count[i, j], ecount)
            assert np.array_equal(sums[i, j], esums)
    return mass, count, sums


def test_kernel_sums_reach_edges_equal_sorted_loop():
    # observations at exactly p -/+ h and one float step inside and outside,
    # and at exactly the widened window bounds and one step beyond them
    rng = np.random.default_rng(21)
    points = np.array([0.3, 0.55, 0.7])
    h = np.array([0.1, 0.04])
    values = list(rng.uniform(-0.5, 1.5, 40))
    for p in points:
        for hj in h:
            for edge in (p - hj, p + hj, p - hj - 1e-12 * (abs(p) + hj),
                         p + hj + 1e-12 * (abs(p) + hj)):
                values += [edge, np.nextafter(edge, p), np.nextafter(edge, 2 * edge - p)]
    x = rng.permutation(np.array(values + values[-6:]))  # with ties
    y = rng.standard_normal(x.shape)
    _assert_equals_sorted_loop(x[None], points, h, EPANECHNIKOV, (y[None], y[None] ** 2))
    # the hull of the widest windows: its bounds in, one step beyond out
    lo = points[0] - h[0] - 1e-12 * (abs(points[0]) + h[0])
    hi = points[-1] + h[0] + 1e-12 * (abs(points[-1]) + h[0])
    near = kernel_regression._reach_mask(x, points, h, EPANECHNIKOV)
    assert np.array_equal(near, (x >= lo) & (x <= hi))
    assert near[x == lo].all() and near[x == hi].all()
    assert not near[(x == np.nextafter(lo, -1.0)) | (x == np.nextafter(hi, 2.0))].any()


def test_kernel_sums_grid_outside_data_is_empty():
    rng = np.random.default_rng(22)
    x = rng.uniform(0.0, 1.0, (2, 30))
    y = rng.standard_normal((2, 30))
    h = np.array([0.5, 1.0])
    # no observation in reach; then every observation in the hull of the
    # windows, but none in a window
    for points, reached in (([5.0, 6.0], False), ([-4.0, 5.0], True)):
        points = np.array(points)
        assert kernel_regression._reach_mask(x, points, h, EPANECHNIKOV).all() == reached
        mass, count, sums = _assert_equals_sorted_loop(x, points, h, EPANECHNIKOV, (y,))
        assert not mass.any() and not count.any() and not sums.any()
    # one path wholly in reach and the other wholly out of it
    x[1] += 10.0
    points = np.array([0.2, 0.7])
    near = kernel_regression._reach_mask(x, points, h, EPANECHNIKOV)
    assert near[0].all() and not near[1].any()
    mass, count, _ = _assert_equals_sorted_loop(x, points, h, EPANECHNIKOV, (y,))
    assert mass[0].all() and not mass[1].any() and not count[1].any()


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_kernel_sums_read_columns_only_within_reach(kernel):
    # mc evaluates f only where _reach_mask marks: column values elsewhere
    # must never enter a sum
    rng = np.random.default_rng(24)
    x = rng.standard_normal((4, 200)) + np.arange(4)[:, None]
    points = np.linspace(0.0, 1.0, 25)
    h = np.array([200 ** (-1 / 3), 200 ** -0.2])
    y = rng.standard_normal((4, 200))
    far = ~kernel_regression._reach_mask(x, points, h, kernel)
    assert kernel is GAUSSIAN or far.any()
    got = kernel_sums(x, points, h, kernel, (np.where(far, 1e300, y),))
    for a, b in zip(got, kernel_sums(x, points, h, kernel, (y,))):
        assert np.array_equal(a, b)


def test_kernel_sums_chunks_like_one_pass():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    points = np.linspace(-4, 4, 2000)  # > 512 rows of the sample per chunk
    mass, _, (sy,) = kernel_sums(x, points, 0.7, GAUSSIAN, (y,))
    emass, _, (esy,) = _dense_sums(x, points, 0.7, GAUSSIAN, (y,))
    assert_allclose(mass, emass, rtol=1e-12, atol=1e-12)
    assert_allclose(sy, esy, rtol=1e-12, atol=1e-12)


@st.composite
def _batch_case(draw):
    """A stack of paths of one length (ties within a path), one to three
    mixed bandwidths, points shared by the paths (some at exactly x +- h of
    one of them), and a workspace size for the chunking."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    values = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    x = np.array([draw(st.lists(st.sampled_from(draw(st.lists(values, min_size=1,
                                                              max_size=n))),
                                min_size=n, max_size=n)) for _ in range(m)])
    h = np.array(draw(st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=3)))
    g = draw(st.integers(1, 6))

    def point():
        if draw(st.booleans()):
            return (x[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))]
                    + draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(st.sampled_from(h)))
        return draw(st.floats(-120.0, 120.0))

    points = np.array([point() for _ in range(g)])
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m * n,
                               max_size=m * n))).reshape(m, n)
    rows = draw(st.sampled_from([1, 3, 512]))
    return x, points, h, y, rows


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
@settings(max_examples=100, deadline=None)
@given(case=_batch_case())
def test_kernel_sums_batch_equals_separate_calls(kernel, case):
    x, points, h, y, rows = case
    (m, n), k = x.shape, h.size
    with mock.patch.object(kernel_regression, "_WORKSPACE_ROWS", rows):
        # pins the stable within-path order on ties and uneven kept counts
        mass, count, sums = _assert_equals_sorted_loop(x, points, h, kernel, (y, y * y))
    g = points.shape[0]
    assert mass.shape == count.shape == (m, k, g)
    assert sums.shape == (m, k, 2, g)
    for i in range(m):
        for j in range(k):
            one = kernel_sums(x[i], points, h[j], kernel, (y[i], y[i] * y[i]))
            assert np.array_equal(mass[i, j], one[0])
            assert np.array_equal(count[i, j], one[1])
            assert np.array_equal(sums[i, j], one[2])
            emass, ecount, esums = _dense_sums(x[i], points, h[j], kernel,
                                               (y[i], y[i] * y[i]))
            assert_allclose(mass[i, j], emass, rtol=1e-12, atol=1e-12)
            assert np.array_equal(count[i, j], ecount)
            assert_allclose(sums[i, j], esums, rtol=1e-12, atol=1e-12)


def test_kernel_sums_batch_crosses_chunks():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3))
    y = rng.standard_normal((2, 3))
    h = np.array([0.7, 2.0])
    points = np.linspace(-4, 4, 2000)  # 24,000 entries, > 512 rows of a path
    mass, count, sums = kernel_sums(x, points, h, GAUSSIAN, (y,))
    for i in range(2):
        for j in range(2):
            one = kernel_sums(x[i], points, h[j], GAUSSIAN, (y[i],))
            assert np.array_equal(mass[i, j], one[0])
            assert np.array_equal(count[i, j], one[1])
            assert np.array_equal(sums[i, j], one[2])


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
@settings(max_examples=60, deadline=None)
@given(case=_batch_case())
# a Gaussian mass of 2.3e-308, just above the smallest normal float: the
# band's quotient overflowed (a RuntimeWarning), though its root is 2.3e154
@example(case=(np.array([[0.0] * 5, [27.875] + [0.0] * 4]), np.array([79.375]),
               np.array([1.369140625]), np.array([[0.0] * 5, [4.0] + [0.0] * 4]), 1))
def test_kernel_estimate_stack_equals_separate_calls(kernel, case):
    # the centered variance takes one path and one bandwidth
    x, points, h, y, _ = case
    for variance, alpha in ((None, None), ("uncentered", 0.1)):
        est = kernel_estimate(x, y, points, h, kernel, alpha=alpha, variance=variance)
        assert np.array_equal(est.bandwidth, h)
        for i in range(x.shape[0]):
            for j in range(h.size):
                one = kernel_estimate(x[i], y[i], points, h[j], kernel, alpha=alpha,
                                      variance=variance)
                for name in ("fhat", "sigma2hat", "local_mass", "window_count",
                             "half_width"):
                    a, b = getattr(est, name), getattr(one, name)
                    assert (a is None and b is None) or np.array_equal(
                        a[i, j], b, equal_nan=True), name


def test_kernel_sums_rejects_bad_batch():
    x = np.zeros((2, 3))
    # points are shared by every path, even with one row per path
    for points in (np.zeros((2, 4)), np.zeros((3, 4))):
        with pytest.raises(ValueError, match=r"points must be 1-D, shared by every "
                                             r"path, got shape \(\d, 4\)"):
            kernel_sums(x, points, 0.5, EPANECHNIKOV)
    with pytest.raises(ValueError, match="points must be 1-D"):
        kernel_sums(x[0], np.zeros((1, 4)), 0.5, EPANECHNIKOV)
    # every column has the shape of x, also one row per bandwidth
    for column in (np.zeros((2, 2, 3)), np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match=r"must align with x, of shape \(2, 3\)"):
            kernel_sums(x, [0.0], [0.5, 1.0], EPANECHNIKOV, (column,))
    # the centered variance takes one path and one bandwidth
    for xs, h, shapes in ((x, 0.5, r"\(2, 3\) and \(\)"),
                          (x[0], [0.5, 1.0], r"\(3,\) and \(2,\)"),
                          (x, [0.5], r"\(2, 3\) and \(1,\)")):
        with pytest.raises(ValueError, match=r"the centered variance takes one path x "
                                             r"of shape \(n,\) and one bandwidth h, "
                                             r"got shapes " + shapes):
            kernel_estimate(xs, np.zeros_like(xs), [0.0], h, EPANECHNIKOV)
    with pytest.raises(ValueError, match=r"points must be 1-D, shared by every path, "
                                         r"got shape \(2, 3\)"):
        kernel_estimate(x, x, x, 0.5, variance=None)
    with pytest.raises(ValueError, match="bandwidth h must be finite and > 0, got 0.0"):
        kernel_sums(x, [0.0], [0.5, 0.0], EPANECHNIKOV)
    with pytest.raises(ValueError, match="nonempty 1-D vector"):
        kernel_sums(x, [0.0], np.ones((2, 2)), EPANECHNIKOV)


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
        kernel_estimate([0.0, 1.0, np.nan], [1.0, 2.0, 3.0], [0.5], 0.8, variance=None)


# -------------------------------------------------------------- estimation

def test_nw_constant_response():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 50)
    est = kernel_estimate(x, np.full(50, 3.25), np.linspace(0, 1, 11), 0.2, variance=None)
    ok = est.defined
    assert np.any(ok)
    assert_allclose(est.fhat[ok], 3.25, atol=1e-12)


def test_nw_single_observation():
    est = kernel_estimate(np.array([0.0]), np.array([5.0]), np.array([0.0]), 0.5, variance=None)
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
    est = kernel_estimate(x, y, grid, 0.8, kernel, variance=None)
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
    a = kernel_estimate(x, y, grid, 0.15, variance=None)
    b = kernel_estimate(x, y + 4.5, grid, 0.15, variance=None)
    ok = a.defined
    assert_allclose(b.fhat[ok] - a.fhat[ok], 4.5, atol=1e-12)


def test_nw_undefined_points_flagged():
    x = np.array([0.0, 0.1])
    est = kernel_estimate(x, np.array([1.0, 2.0]), np.array([0.05, 50.0]), 0.1, variance=None)
    assert est.defined[0] and not est.defined[1]
    assert np.isnan(est.fhat[1])


def test_gaussian_fit_undefined_at_subnormal_mass():
    # 38 bandwidths from the data the Gaussian mass is subnormal and the
    # weighted mean (2.99999999...) would come out as exactly 3.0
    est = kernel_estimate([0.0, 0.5], [1.0, 3.0], [0.25, 38.6], 1.0, GAUSSIAN,
                          alpha=0.05, variance="uncentered")
    assert 0.0 < est.local_mass[1] < np.finfo(float).tiny
    assert est.defined.tolist() == [True, False]
    assert np.isnan(est.fhat[1]) and np.isnan(est.sigma2hat[1])
    assert np.isnan(est.half_width[1])
    assert np.isnan(kernel_estimate([0.0, 0.5], [1.0, 3.0], [38.6], 1.0, GAUSSIAN,
                                    variance=None).fhat[0])


# ------------------------------------------------------- residual variance

def _sigma2hat(x, y, h, at, variance="centered"):
    return kernel_estimate(x, y, at, h, variance=variance).sigma2hat[0]


def test_residual_variance_zero_for_perfect_fit():
    x = np.linspace(0, 1, 20)
    y = np.full(20, 2.0)
    assert _sigma2hat(x, y, 0.3, 0.5) == pytest.approx(0.0, abs=1e-24)


def test_residual_variance_constant_residuals():
    # the uncentered variance is the residual variance around a zero fit:
    # y identically -0.7 gives 0.49
    x = np.linspace(0, 1, 20)
    y = np.full(20, -0.7)
    assert _sigma2hat(x, y, 0.3, 0.5, variance="uncentered") \
        == pytest.approx(0.49, rel=1e-12)


def test_residual_variance_matches_double_loop():
    rng = np.random.default_rng(4)
    x = np.cumsum(rng.standard_normal(100))
    y = np.cos(x) + 0.3 * rng.standard_normal(100)
    h = 1.1
    fhat = kernel_estimate(x, y, x, h, variance=None).fhat
    at = x.mean()
    got = _sigma2hat(x, y, h, at)
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
    fh = kernel_estimate(x, y, x, 0.05, variance=None).fhat
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
    fhat = kernel_estimate(x, y, np.array([at]), h, variance=None)
    fd = kernel_estimate(x, y, x, h, variance=None).fhat
    w = [float(EPANECHNIKOV((x[k] - at) / h)) for k in range(100)]
    s2 = sum(w[k] * (y[k] - fd[k]) ** 2 for k in range(100)) / sum(w)
    assert est.sigma2hat[0] == pytest.approx(s2, rel=1e-12)
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
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                    for a, b in zip(x, y)))
    assert cli_main(["estimate", "--data", str(data), "--bandwidth", "0.15",
                     "--grid-start", "0.2", "--grid-stop", "42.0",
                     "--grid-points", "3", "--out", str(tmp_path / "est")]) == 0
    est = kernel_estimate(x, y, np.array([0.2, 21.1, 42.0]), 0.15, alpha=0.05)
    lines = (tmp_path / "est" / "estimate.csv").read_text().splitlines()
    assert lines[0] == "x,fhat,sigma2hat,local_mass,ci_lo,ci_hi"
    assert len(lines) == 4
    # an undefined point is written with empty fields
    assert lines[3] == "42.0,,,0.0,,"
    assert [float(v) for v in lines[1].split(",")] == [
        0.2, est.fhat[0], est.sigma2hat[0], est.local_mass[0], est.ci_lo[0],
        est.ci_hi[0]]


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


def test_kernel_estimate_rejects_alpha_without_variance():
    x = np.linspace(0, 1, 30)
    with pytest.raises(ValueError, match=r"alpha=5\.0 asks for a band, which "
                                         r"variance=None does not give"):
        kernel_estimate(x, x, [0.5], 0.3, alpha=5.0, variance=None)
    assert kernel_estimate(x, x, [0.5], 0.3, variance=None).sigma2hat is None


def test_kernel_estimate_rejects_a_variance_out_of_float_range():
    # a finite response whose squares overflow is refused before any square
    # is formed, by max |y| > sqrt(max float / (4 n)); the fit alone runs
    x = np.linspace(0, 1, 20)
    y = 1e160 * np.sin(x)
    for variance in ("uncentered", "centered"):
        with pytest.raises(ValueError, match=r"^the variance of y is out of float range "
                                             r"\(max \|y\| = 8\.41e\+159\); rescale y$"):
            kernel_estimate(x, y, [0.5], 0.3, variance=variance)
    assert np.all(np.isfinite(kernel_estimate(x, y, [0.5], 0.3, variance=None).fhat))
    # at the bound every sum of squares is finite
    edge = np.full(20, np.sqrt(np.finfo(float).max / 80))
    for variance in ("uncentered", "centered"):
        est = kernel_estimate(x, edge, [0.5], 0.3, alpha=0.05, variance=variance)
        assert np.all(np.isfinite(est.sigma2hat))


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
    a = kernel_estimate(x, y, grid, h, kernel, variance=None)
    b = kernel_estimate(x[perm], y[perm], grid, h, kernel, variance=None)
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


@settings(max_examples=60, deadline=None)
@given(sample=_samples, h=st.floats(0.05, 3.0), c=st.floats(-100.0, 100.0),
       kernel=st.sampled_from([EPANECHNIKOV, GAUSSIAN]))
# at x = 2 the mass is 3.6e-297, a defined point, yet w * c underflowed and
# fhat read 0 in place of c
@example(sample=([0.125], [0.0]), h=0.05078125, c=1.1967107137511787e-29, kernel=GAUSSIAN)
def test_nw_shift_equivariant(sample, h, c, kernel):
    x, y = (np.array(v) for v in sample)
    grid = np.linspace(-3.0, 3.0, 13)
    a = kernel_estimate(x, y, grid, h, kernel, variance=None)
    b = kernel_estimate(x, y + c, grid, h, kernel, variance=None)
    assert np.array_equal(b.defined, a.defined)
    ok = a.defined  # a mass of at least the smallest normal float
    scale = np.abs(y).max() + abs(c)
    assert_allclose(b.fhat[ok], a.fhat[ok] + c, rtol=1e-12, atol=1e-12 * scale)


def test_stochastic_consistency_rate():
    # average |fhat - f| on [0, 1] falls as N grows (SLM, d = 0.2)
    f = sine_series_interpolator(500)
    grid = np.linspace(0, 1, 100)
    fg = f(grid)
    med = []
    for n in (250, 1000, 4000):
        spec = TemperedProcessSpec(d=0.2, lam=n ** -0.2, n=n, presample=0)
        errs = []
        for rep in range(500):
            noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2,
                                seed=rep * 7919 + n)
            path = simulate_model(spec, noise, f=f)
            est = kernel_estimate(path.x, path.y, grid, n ** (-1.0 / 3.0), variance=None)
            ok = est.defined
            if np.any(ok):
                errs.append(float(np.mean(np.abs(est.fhat[ok] - fg[ok]))))
        med.append(np.median(errs))
    assert med[0] > med[1] > med[2]
