import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from slmcoint import (linear_family, quadratic_family, get_family,
                      uniform_weight, nls_fit, t_statistic,
                      normalized_statistic, subsample_statistics, subsample_quantile, run_spec_test,
                      SubsamplingError, GAUSSIAN, EPANECHNIKOV,
                      TemperedProcessSpec, NoiseConfig, simulate_model)
from slmcoint.spec_test import (_GAUSSIAN_REACH, _TILE_FLOATS, _node_tiles, _quad_nodes,
                                _sliding_theta, integration_domain)


# --------------------------------------------------------------------- NLS

def test_nls_linear_interpolation():
    x = np.linspace(0, 5, 40)
    theta = nls_fit(linear_family(), x, 2.0 + 3.0 * x)
    assert_allclose(theta, [2.0, 3.0], atol=1e-10)


def test_nls_quadratic_exact():
    x = np.linspace(-2, 2, 50)
    theta = nls_fit(quadratic_family(), x, 1.0 - 0.5 * x + 0.25 * x * x)
    assert_allclose(theta, [1.0, -0.5, 0.25], atol=1e-10)


def test_nls_matches_normal_equations():
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, 200)
    y = 1.0 + 2.0 * x + rng.standard_normal(200)
    theta = nls_fit(linear_family(), x, y)
    design = np.column_stack([np.ones_like(x), x])
    oracle = np.linalg.solve(design.T @ design, design.T @ y)
    assert_allclose(theta, oracle, atol=1e-10)
    # x on the scale of log per-capita GDP (about 9 to 12), where the raw
    # quadratic design is badly conditioned
    for seed in (31, 32):
        rng = np.random.default_rng(seed)
        x = 9.0 + 3.0 * np.sort(rng.uniform(0, 1, 120)) + 0.05 * rng.standard_normal(120)
        y = -40.0 + 9.0 * x - 0.47 * x * x + 0.05 * rng.standard_normal(120)
        for fam in (linear_family(), quadratic_family()):
            oracle = np.linalg.lstsq(fam.basis(x), y, rcond=None)[0]
            assert_allclose(nls_fit(fam, x, y), oracle, rtol=1e-10)


def test_nls_rank_deficient_rejected():
    x = np.full(10, 2.0)
    with pytest.raises(ValueError):
        nls_fit(linear_family(), x, x)


def test_families_are_polynomials_of_their_degree():
    x = np.array([-1.5, 0.0, 2.0, 3.0])
    theta = np.array([0.5, -2.0, 0.25])
    fam = get_family("quadratic")
    assert (fam.kind, fam.degree, fam.dim) == ("quadratic", 2, 3)
    assert_allclose(fam.basis(x), np.column_stack([np.ones(4), x, x * x]))
    assert_allclose(fam.residuals(x, np.zeros(4), theta),
                    -(0.5 - 2.0 * x + 0.25 * x * x), rtol=1e-15)
    assert get_family("linear") == linear_family()
    with pytest.raises(ValueError, match="choose linear or quadratic"):
        get_family("cubic")


_BAD_INPUT = {  # case: (argument, bad value, message)
    "x": ("x", np.nan, r"non-finite input: 1 NaN or inf value\(s\) in x$"),
    "y": ("y", np.nan, r"non-finite input: 1 NaN or inf value\(s\) in y$"),
    "h-nan": ("h", np.nan, r"bandwidth h must be finite and > 0, got nan$"),
    "h-zero": ("h", 0.0, r"bandwidth h must be finite and > 0, got 0.0$"),
    "h-inf": ("h", np.inf, r"bandwidth h must be finite and > 0, got inf$"),
    "h_b-negative": ("h_b", -1.0, r"bandwidth h_b must be finite and > 0, got -1.0$"),
    "h_b-zero": ("h_b", 0.0, r"bandwidth h_b must be finite and > 0, got 0.0$"),
    "h_b-nan": ("h_b", np.nan, r"bandwidth h_b must be finite and > 0, got nan$"),
    "d-nan": ("d", np.nan, r"memory parameter d must be finite, got nan$"),
    "lam-nan": ("lam", np.nan, r"tempering parameter lam must be finite, got nan$"),
    "lam_b-nan": ("lam_b", np.nan, r"tempering parameter lam_b must be finite, got nan$"),
    "lam_b-zero": ("lam_b", 0.0, r"semi-long memory requires lam_b > 0, got 0.0$"),
    "quad_cells-0": ("quad_cells", 0, r"quad_cells must be >= 2, got 0$"),
    "quad_cells-1": ("quad_cells", 1, r"quad_cells must be >= 2, got 1$"),
}


@pytest.mark.parametrize("case", list(_BAD_INPUT))
def test_spec_test_rejects_nonfinite_input(case):
    # every entry point that takes the bad argument names it in a ValueError
    name, value, match = _BAD_INPUT[case]
    x, y = _draw(40, seed=14)
    v = dict(h=0.5, h_b=0.5, d=0.1, lam=0.4, lam_b=0.4, quad_cells=256)
    if name in ("x", "y"):
        (x if name == "x" else y)[7] = value
    else:
        v[name] = value
    fam, w = linear_family(), uniform_weight()
    calls = {
        ("x", "y"): lambda: nls_fit(fam, x, y),
        ("x", "y", "h", "quad_cells"): lambda: t_statistic(
            x, y, fam, [0.0, 1.0], v["h"], GAUSSIAN, w, v["quad_cells"]),
        ("x", "y", "h_b", "d", "lam_b", "quad_cells"): lambda: subsample_statistics(
            x, y, fam, 10, v["h_b"], v["lam_b"], v["d"], "slm", GAUSSIAN, w,
            v["quad_cells"]),
        ("x", "y", *v): lambda: run_spec_test(
            x, y, fam, v["h"], GAUSSIAN, w, memory_kind="slm", d=v["d"],
            lam=v["lam"], blocks=[(10, v["h_b"], v["lam_b"])],
            quad_cells=v["quad_cells"]),
    }
    for takes, call in calls.items():
        if name in takes:
            with pytest.raises(ValueError, match=match):
                call()


@pytest.mark.parametrize("kind, d, lam, match", [
    ("lm", 0.7, 0.0, r"long memory requires 0 <= d < 1/2, got 0.7$"),
    ("lm", -0.2, 0.0, r"long memory requires 0 <= d < 1/2, got -0.2$"),
    ("lm", 0.2, 0.3, r"long memory requires lam(_b)? = 0, got 0.3$"),
    ("short", 0.3, 0.0, r"short memory requires d = 0, got 0.3$"),
])
def test_spec_test_rejects_memory_the_simulator_rejects(kind, d, lam, match):
    # the statistics and the simulator share one rule per memory kind
    x, y = _draw(40, seed=16)
    with pytest.raises(ValueError, match=match):
        normalized_statistic(1.0, 40, lam, d, 0.5, kind)
    with pytest.raises(ValueError, match=match):
        subsample_statistics(x, y, linear_family(), 10, 0.5, lam, d, kind,
                             GAUSSIAN, uniform_weight(), 256)
    with pytest.raises(ValueError, match=match):
        run_spec_test(x, y, linear_family(), 0.5, GAUSSIAN, uniform_weight(),
                      memory_kind=kind, d=d, lam=lam, blocks=[(10, 0.5, lam)],
                      quad_cells=256)
    with pytest.raises(ValueError, match=match):
        TemperedProcessSpec(d=d, lam=lam, n=40, memory_kind=kind)


def test_spec_test_rejects_unequal_lengths():
    x, y = _draw(40, seed=15)
    with pytest.raises(ValueError, match="equal length"):
        nls_fit(linear_family(), x, y[:-1])
    with pytest.raises(ValueError, match="equal length"):
        subsample_statistics(x[:-1], y, linear_family(), 10, 0.5, 0.4, 0.1,
                             "slm", GAUSSIAN, uniform_weight())


# --------------------------------------------------------------- statistic

def _draw(n=30, seed=1):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    y = x + 0.2 * rng.standard_normal(n)
    return x, y


def test_t_statistic_zero_residuals():
    x, _ = _draw()
    y = np.zeros_like(x)
    theta = nls_fit(linear_family(), x, y)
    t = t_statistic(x, y, linear_family(), theta, 0.5, GAUSSIAN, uniform_weight())
    assert t == 0.0


def test_t_statistic_fine_grid_oracle():
    x, y = _draw(30, seed=2)
    theta = nls_fit(linear_family(), x, y)
    w = uniform_weight(-100, 100)
    t = t_statistic(x, y, linear_family(), theta, 0.7, GAUSSIAN, w, 2048)
    t_fine = t_statistic(x, y, linear_family(), theta, 0.7, GAUSSIAN, w, 20480)
    assert abs(t - t_fine) <= 1e-6 * abs(t_fine)


def test_t_statistic_quad_doubling():
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.standard_normal(1000))
    y = x + 0.2 * rng.standard_normal(1000)
    theta = nls_fit(linear_family(), x, y)
    w = uniform_weight()
    t1 = t_statistic(x, y, linear_family(), theta, 1000 ** -0.2, GAUSSIAN, w, 2048)
    t2 = t_statistic(x, y, linear_family(), theta, 1000 ** -0.2, GAUSSIAN, w, 4096)
    assert abs(t2 - t1) < 1e-6 * abs(t1)


@pytest.mark.parametrize("support", [100.0, 10.0], ids=["pm100", "pm10"])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [linear_family(), quadratic_family()],
                         ids=["linear", "quadratic"])
def test_t_statistic_matches_exactly_rounded_node_sums(family, kernel, support):
    # on the library's nodes, every node sum and the sum of squares taken
    # exactly rounded (math.fsum); +-10 cuts the path, +-100 does not
    x, y = _draw(300, seed=21)
    y = y + 0.05 * x ** 2
    h = 300 ** -0.2
    w = uniform_weight(-support, support)
    theta = nls_fit(family, x, y)
    t = t_statistic(x, y, family, theta, h, kernel, w)
    r = family.residuals(x, y, theta)
    nodes, dx = _quad_nodes(integration_domain(x, h, w), 2048)
    sums = [math.fsum(kernel((x - v) / h) * r) for v in nodes]
    expect = math.fsum(s * s for s in sums) * dx
    assert expect > 0.0
    assert abs(t - expect) <= 1e-13 * expect


def test_t_statistic_nonnegative_and_domain():
    x, y = _draw(50, seed=4)
    theta = nls_fit(linear_family(), x, y)
    t = t_statistic(x, y, linear_family(), theta, 0.4, GAUSSIAN, uniform_weight())
    assert t >= 0.0
    lo, hi = integration_domain(x, 0.4, uniform_weight())
    assert lo >= -100 and hi <= 100
    with pytest.raises(ValueError):
        t_statistic(x, y, linear_family(), theta, 0.4, GAUSSIAN,
                    uniform_weight(), quad_cells=1)


def test_residual_invariance_to_family_shift():
    x, y = _draw(80, seed=5)
    fam = linear_family()
    theta = nls_fit(fam, x, y)
    t0 = t_statistic(x, y, fam, theta, 0.5, GAUSSIAN, uniform_weight())
    y2 = y + (4.0 - 2.5 * x)
    theta2 = nls_fit(fam, x, y2)
    t1 = t_statistic(x, y2, fam, theta2, 0.5, GAUSSIAN, uniform_weight())
    assert t1 == pytest.approx(t0, rel=1e-10, abs=1e-12)


# ----------------------------------------------------------- normalization

def test_normalized_statistic_arithmetic():
    t, scale = normalized_statistic(10.0, 100, 0.0, 0.0, 0.1, "short")
    assert t == pytest.approx(10.0)
    assert scale == pytest.approx(1.0)
    t, _ = normalized_statistic(10.0, 100, 0.0, 0.25, 0.1, "lm")
    assert t == pytest.approx(10.0 * 100 ** -0.25 / 0.1)


def test_normalized_statistic_slm_unit_lambda_matches_short():
    a, _ = normalized_statistic(3.7, 400, 1.0, 0.3, 0.2, "slm")
    b, _ = normalized_statistic(3.7, 400, 0.0, 0.0, 0.2, "short")
    assert a == pytest.approx(b)


@pytest.mark.parametrize("n, lam, h", [(100, 0.0, 0.1), (437, 0.25, 0.37), (59, 0.0, 2.0)])
def test_normalized_statistic_short_is_sqrt_n_h_bit_for_bit(n, lam, h):
    # short memory is the d = 0 case of the semi-long scale: lam^0 = 1.0
    for t in (3.7, np.array([0.0, 1e-300, 2.5, 7e10])):
        got, scale = normalized_statistic(t, n, lam, 0.0, h, "short")
        assert scale == float(np.sqrt(n) * h)
        assert np.array_equal(got, t / float(np.sqrt(n) * h))


def test_normalized_statistic_rejects_slm_lam0():
    with pytest.raises(ValueError):
        normalized_statistic(1.0, 100, 0.0, 0.3, 0.1, "slm")


# -------------------------------------------------------------- subsampling

def test_subsample_single_block_equals_full():
    x, y = _draw(60, seed=6)
    n = x.shape[0]
    h = n ** -0.2
    lam = n ** -0.2
    fam = linear_family()
    vals = subsample_statistics(x, y, fam, n, h, lam, 0.2, "slm", GAUSSIAN,
                                uniform_weight())
    assert vals.shape == (1,)
    theta = nls_fit(fam, x, y)
    t = t_statistic(x, y, fam, theta, h, GAUSSIAN, uniform_weight())
    expect, _ = normalized_statistic(t, n, lam, 0.2, h, "slm")
    assert vals[0] == pytest.approx(expect, rel=1e-9)


def test_subsample_degenerate_zero_data():
    x, _ = _draw(40, seed=7)
    y = np.zeros_like(x)
    vals = subsample_statistics(x, y, linear_family(), 10, 0.5, 0.3, 0.1,
                                "slm", GAUSSIAN, uniform_weight())
    assert_allclose(vals, 0.0)


def test_subsample_matches_per_block_oracle():
    rng = np.random.default_rng(8)
    n, b = 120, 22
    x = np.cumsum(rng.standard_normal(n))
    y = x + 0.2 * rng.standard_normal(n)
    fam = linear_family()
    h_b = b ** -0.2
    lam_b = b ** -0.2
    w = uniform_weight()
    vals, by_block, order, skipped = subsample_statistics(
        x, y, fam, b, h_b, lam_b, 0.1, "slm", GAUSSIAN, w,
        quad_cells=512, return_by_block=True)
    assert skipped == 0
    assert vals.shape == (n - b + 1,)
    # every block integrates over the full path's domain: the block's own
    # node sums, squared and summed on the full path's 512 nodes
    nodes, dx = _quad_nodes(integration_domain(x, h_b, w), 512)
    oracle = []
    for t0 in range(n - b + 1):
        sl = slice(t0, t0 + b)
        r = fam.residuals(x[sl], y[sl], nls_fit(fam, x[sl], y[sl]))
        sums = GAUSSIAN((x[sl][None, :] - nodes[:, None]) / h_b) @ r
        traw = float(np.sum(sums * sums) * dx)
        oracle.append(normalized_statistic(traw, b, lam_b, 0.1, h_b, "slm")[0])
    assert_allclose(by_block, oracle, rtol=1e-9)
    assert_allclose(vals, np.sort(oracle), rtol=1e-9)


def test_subsample_skips_singular_blocks():
    rng = np.random.default_rng(9)
    n, b = 400, 20
    x = np.cumsum(rng.standard_normal(n))
    x[100:120] = x[99] + 1.0  # exactly one all-constant window (block 100)
    y = x + 0.1 * rng.standard_normal(n)
    vals, by_block, order, skipped = subsample_statistics(
        x, y, linear_family(), b, 0.5, 0.4, 0.1, "slm", GAUSSIAN,
        uniform_weight(), quad_cells=256, return_by_block=True)
    assert skipped == 1
    assert vals.shape == (n - b + 1 - 1,)
    assert 100 not in order


def test_subsample_aborts_on_many_failures():
    rng = np.random.default_rng(10)
    n, b = 100, 10
    x = np.cumsum(rng.standard_normal(n))
    x[20:80] = x[19]  # dozens of degenerate windows
    y = x + 0.1 * rng.standard_normal(n)
    with pytest.raises(SubsamplingError):
        subsample_statistics(x, y, linear_family(), b, 0.5, 0.4, 0.1, "slm",
                             GAUSSIAN, uniform_weight(), quad_cells=256)


def test_subsample_quantile_order_statistic():
    vals = np.arange(1.0, 101.0)
    assert subsample_quantile(vals, 0.05) == 95.0
    assert subsample_quantile(vals, 0.5) == 50.0


def test_monotone_p_value():
    vals = np.sort(np.random.default_rng(11).uniform(0, 1, 99))
    def pval(t):
        return (1 + np.count_nonzero(vals >= t)) / (1 + vals.size)
    ts = np.linspace(-0.5, 1.5, 41)
    ps = [pval(t) for t in ts]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


# --------------------------------------------- untiled quadrature oracle
# These two functions take the statistic's node sums over the whole
# (quad_cells x n) kernel matrix.  The library takes them in row tiles of the
# nodes and must equal this form bit for bit: the same elementwise products,
# the same cumulative sums along the observations and the same pairwise sum
# over the nodes.

def _untiled_t_statistic(x, y, family, theta, h, kernel, weight, quad_cells):
    r = family.residuals(x, y, np.asarray(theta, dtype=float))
    nodes, dx = _quad_nodes(integration_domain(x, h, weight), quad_cells)
    K = kernel((x[None, :] - nodes[:, None]) / h)
    S = np.einsum("ij,j->i", K, r)
    return float(np.sum(S * S) * dx)


def _untiled_subsample(x, y, family, b, h_b, lam_b, d, kind, kernel, weight,
                       quad_cells):
    n = x.shape[0]
    nb = n - b + 1
    nodes, dx = _quad_nodes(integration_domain(x, h_b, weight), quad_cells)
    theta, valid, u = _sliding_theta(x, y, family, b)
    K = kernel((x[None, :] - nodes[:, None]) / h_b)
    csum2 = lambda M: np.concatenate(
        [np.zeros((M.shape[0], 1)), np.cumsum(M, axis=1)], axis=1)
    Cy = csum2(K * y[None, :])
    Cb = [csum2(K * (u ** j)[None, :]) for j in range(family.dim)]
    t = np.arange(nb)
    S = Cy[:, t + b] - Cy[:, t]
    for j in range(family.dim):
        S -= theta[:, j][None, :] * (Cb[j][:, t + b] - Cb[j][:, t])
    raw = np.sum(S * S, axis=0) * dx
    raw = raw[valid]
    skipped = int(nb - valid.sum())
    if skipped > 0.05 * nb:
        raise SubsamplingError(f"{skipped} of {nb} block fits failed")
    normalized = (normalized_statistic(raw, b, lam_b, d, h_b, kind)[0]
                  if raw.size else raw)
    return np.sort(normalized), normalized, np.nonzero(valid)[0], skipped


def _assert_tiled_equals_untiled(x, y, family, kernel, weight, quad_cells, blocks):
    n = x.shape[0]
    h = n ** -0.2
    theta = nls_fit(family, x, y)
    assert (t_statistic(x, y, family, theta, h, kernel, weight, quad_cells)
            == _untiled_t_statistic(x, y, family, theta, h, kernel, weight,
                                    quad_cells))
    for b in blocks:
        args = (x, y, family, b, b ** -0.2, b ** -0.2, 0.1, "slm", kernel, weight,
                quad_cells)
        try:
            expect = _untiled_subsample(*args)
        except SubsamplingError:
            with pytest.raises(SubsamplingError):
                subsample_statistics(*args)
            continue
        got = subsample_statistics(*args, return_by_block=True)
        for a, e in zip(got[:3], expect[:3]):
            assert np.array_equal(a, e)
        assert got[3] == expect[3]


def _walk(n, seed, offset=0.0):
    rng = np.random.default_rng(seed)
    x = offset + np.cumsum(rng.standard_normal(n))
    return x, x + 0.05 * (x - offset) ** 2 + 0.3 * rng.standard_normal(n)


# (n, quad_cells): most cell counts are not a multiple of the tile rows, and
# at n = 5 and 17 one tile holds every node
_TILING_CASES = [(5, 2), (17, 100), (64, 1000), (257, 2048), (501, 1024),
                 (600, 2048)]


@pytest.mark.parametrize("n,quad_cells", _TILING_CASES,
                         ids=[f"n{n}-q{q}" for n, q in _TILING_CASES])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [linear_family(), quadratic_family()],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled(family, kernel, n, quad_cells):
    x, y = _walk(n, seed=n)
    blocks = sorted({2, family.dim + 1, n})
    _assert_tiled_equals_untiled(x, y, family, kernel, uniform_weight(),
                                 quad_cells, blocks)


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [linear_family(), quadratic_family()],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_far_from_origin(family, kernel):
    # the quadratic blocks fit in standardized coordinates; the path also
    # runs past the weight's edge at 100, which cuts the domain
    x, y = _walk(300, seed=31, offset=90.0)
    _assert_tiled_equals_untiled(x, y, family, kernel, uniform_weight(), 1000,
                                 [family.dim + 1, 40, 300])


@pytest.mark.parametrize("family", [linear_family(), quadratic_family()],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_with_skipped_blocks(family):
    x, y = _walk(400, seed=9)
    x[100:120] = x[99] + 1.0  # a constant stretch: some block fits are singular
    _, _, _, skipped = _untiled_subsample(x, y, family, 20, 0.5, 0.4, 0.1, "slm",
                                          GAUSSIAN, uniform_weight(), 1024)
    assert skipped >= 1
    _assert_tiled_equals_untiled(x, y, family, GAUSSIAN, uniform_weight(), 1024,
                                 [20])


@pytest.mark.parametrize("family", [linear_family(), quadratic_family()],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_at_epanechnikov_reach(family):
    # observations at exactly h from the first and the last node of node
    # tiles, and one float step closer, for the full-sample h and the block
    # h_b: the edge of the reach a tile keeps
    n, b, quad_cells = 300, 40, 512
    x, y = _walk(n, seed=23)
    step = _TILE_FLOATS // n
    values = []
    for h in (n ** -0.2, b ** -0.2):
        nodes = _quad_nodes(integration_domain(x, h, uniform_weight()), quad_cells)[0]
        for i in range(0, quad_cells, step):
            values += [nodes[i] - h, np.nextafter(nodes[i] - h, nodes[i])]
        for i in range(step - 1, quad_cells, step):
            values += [nodes[i] + h, np.nextafter(nodes[i] + h, nodes[i])]
    values = [v for v in values if x.min() < v < x.max()]
    inner = [k for k in range(n) if k not in (np.argmin(x), np.argmax(x))]
    x[inner[:len(values)]] = values  # the extremes, and so the nodes, stay
    h = n ** -0.2
    nodes = _quad_nodes(integration_domain(x, h, uniform_weight()), quad_cells)[0]
    assert np.count_nonzero(np.abs((x[:, None] - nodes) / h) == 1.0) >= 5
    _assert_tiled_equals_untiled(x, y, family, EPANECHNIKOV, uniform_weight(),
                                 quad_cells, [b])


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [linear_family(), quadratic_family()],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_on_a_gappy_path(family, kernel):
    # two clusters 80 apart: the tiles between them reach no observation
    x, y = _walk(300, seed=41)
    x[150:] += 80.0
    x -= 40.0
    h = 300 ** -0.2
    nodes = _quad_nodes(integration_domain(x, h, uniform_weight()), 1024)[0]
    assert any(keep.size == 0 for _, keep, _ in _node_tiles(x, h, kernel, nodes))
    _assert_tiled_equals_untiled(x, y, family, kernel, uniform_weight(), 1024,
                                 [family.dim + 1, 40, 300])


@pytest.mark.parametrize("support", [10.0, 20.0])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [linear_family(), quadratic_family()],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_with_cut_support(family, kernel, support):
    x, y = _walk(400, seed=4)
    assert x.min() < -support or x.max() > support  # the weight cuts the path
    _assert_tiled_equals_untiled(x, y, family, kernel, uniform_weight(-support, support),
                                 1024, [22, 89])


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
def test_tiled_statistic_equals_untiled_short_quadratic(kernel):
    # a 59-year country series in logs, with the block sizes of its CKC
    # workflow, int(c * sqrt(59)) for c = 2, 4, 6
    rng = np.random.default_rng(59)
    x = 9.0 + 0.02 * np.arange(59) + 0.01 * np.cumsum(rng.standard_normal(59))
    y = -40.0 + 9.0 * x - 0.47 * x ** 2 + 0.01 * rng.standard_normal(59)
    _assert_tiled_equals_untiled(x, y, quadratic_family(), kernel, uniform_weight(),
                                 2048, [15, 30, 46])


def test_gaussian_weight_is_zero_beyond_the_reach():
    # the tiles drop observations further than _GAUSSIAN_REACH bandwidths
    # from every node, so their weight must be exactly 0.0, not just small
    reach = _GAUSSIAN_REACH
    u = np.array([reach, np.nextafter(reach, 0.0), np.nextafter(reach, np.inf),
                  1.5 * reach, 1e150, np.inf])
    assert np.all(GAUSSIAN(u) == 0.0) and np.all(GAUSSIAN(-u) == 0.0)
    assert GAUSSIAN(38.5) > 0.0  # the first exact zero is near 38.58


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_statistic_working_memory():
    # n = 500, b = 22 and 1024 cells, as in the size study: the untiled form
    # peaked at 32.1 MB (blocks) and 13.0 MB (full statistic)
    x, y = _walk(500, seed=14)
    fam = linear_family()
    theta = nls_fit(fam, x, y)
    h, h_b = 500 ** -0.2, 22 ** -0.2
    peak = _traced_peak(lambda: subsample_statistics(
        x, y, fam, 22, h_b, h_b, 0.1, "slm", GAUSSIAN, uniform_weight(), 1024))
    assert peak < 10e6
    peak = _traced_peak(lambda: t_statistic(
        x, y, fam, theta, h, GAUSSIAN, uniform_weight(), 1024))
    assert peak < 3e6


# ------------------------------------------------------------ full test run

def test_run_spec_test_degenerate_null():
    x, _ = _draw(80, seed=12)
    y = np.zeros_like(x)
    (res,) = run_spec_test(x, y, linear_family(), 0.4, GAUSSIAN,
                           uniform_weight(), memory_kind="slm", d=0.1,
                           lam=80 ** -0.2,
                           blocks=[(20, 20 ** (np.log(0.4) / np.log(80)), 20 ** -0.2)])
    assert res.t_raw == 0.0
    assert res.p_value == 1.0


def test_run_spec_test_fields_and_determinism():
    spec = TemperedProcessSpec(d=0.1, lam=200 ** -0.2, n=200,
                               memory_kind="slm", presample=0)
    noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2, seed=13)
    path = simulate_model(spec, noise)
    y = path.x + 0.2 * path.u
    kwargs = dict(memory_kind="slm", d=0.1, lam=200 ** -0.2,
                  blocks=[(28, 28 ** -0.2, 28 ** -0.2)], quad_cells=512)
    (a,) = run_spec_test(path.x, y, linear_family(), 200 ** -0.2, GAUSSIAN,
                         uniform_weight(), **kwargs)
    (b,) = run_spec_test(path.x, y, linear_family(), 200 ** -0.2, GAUSSIAN,
                         uniform_weight(), **kwargs)
    assert a.t_raw == b.t_raw
    assert np.array_equal(a.subsample_values, b.subsample_values)
    assert a.subsample_values.shape == (200 - 28 + 1,)
    assert np.all(np.diff(a.subsample_values) >= 0)
    assert 0.0 < a.p_value <= 1.0
    assert a.h_b == pytest.approx(28 ** -0.2)
    assert a.lam_b == pytest.approx(28 ** -0.2)
    # reject agrees with the quantile rule at a few levels
    for lv in (0.01, 0.05, 0.10):
        expect = a.t_normalized > subsample_quantile(a.subsample_values, lv)
        assert a.reject(lv) == expect
    payload = a.to_dict()
    assert payload["p_value"] == a.p_value
    assert payload["subsample_values"] == list(a.subsample_values)


def _same_result(a, b):
    assert a.to_dict() == b.to_dict()
    for name in ("theta_hat", "subsample_values", "subsample_by_block", "block_index"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("family", ["linear", "quadratic"])
def test_run_spec_test_blocks_equal_separate_calls(family):
    # one fit and one full-sample statistic serve every block size: each
    # result equals the call with its block alone, bit for bit
    rng = np.random.default_rng(23)
    n = 200
    x = np.cumsum(rng.standard_normal(n))
    x[60:70] = x[59]  # a few singular length-8 windows: skipped, not fatal
    y = x + 0.3 * rng.standard_normal(n)
    blocks = [(8, 8 ** -0.2, 8 ** -0.2), (28, 0.5, 0.4), (56, 56 ** -0.2, 56 ** -0.2)]
    kwargs = dict(memory_kind="slm", d=0.1, lam=n ** -0.2, quad_cells=256)
    together = run_spec_test(x, y, family, n ** -0.2, GAUSSIAN, uniform_weight(),
                             blocks=blocks, **kwargs)
    assert [res.block_size for res in together] == [8, 28, 56]
    assert together[0].n_blocks_skipped > 0
    for block, res in zip(blocks, together):
        (alone,) = run_spec_test(x, y, family, n ** -0.2, GAUSSIAN, uniform_weight(),
                                 blocks=[block], **kwargs)
        _same_result(res, alone)


def test_run_spec_test_blocks_propagate_subsampling_error():
    rng = np.random.default_rng(10)
    n = 100
    x = np.cumsum(rng.standard_normal(n))
    x[20:80] = x[19]  # most length-10 windows are flat; no length-70 one is
    y = x + 0.1 * rng.standard_normal(n)
    kwargs = dict(memory_kind="slm", d=0.1, lam=0.4, quad_cells=256)
    good, bad = (70, 0.5, 0.4), (10, 0.5, 0.4)
    run_spec_test(x, y, linear_family(), 0.5, GAUSSIAN, uniform_weight(),
                  blocks=[good], **kwargs)
    for blocks in ([bad], [good, bad], [bad, good]):
        with pytest.raises(SubsamplingError):
            run_spec_test(x, y, linear_family(), 0.5, GAUSSIAN, uniform_weight(),
                          blocks=blocks, **kwargs)
    with pytest.raises(ValueError, match="blocks must hold at least one"):
        run_spec_test(x, y, linear_family(), 0.5, GAUSSIAN, uniform_weight(),
                      blocks=[], **kwargs)


@st.composite
def _spec_case(draw):
    """A short random-walk path, a block size and a noise scale."""
    n = draw(st.integers(40, 80))
    b = draw(st.integers(4, n // 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    noise = draw(st.floats(0.0, 2.0))
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    y = x + noise * rng.standard_normal(n)
    return x, y, b


@settings(max_examples=25, deadline=None)
@given(case=_spec_case())
def test_p_value_counts_block_exceedances(case):
    x, y, b = case
    n = x.size
    (res,) = run_spec_test(x, y, linear_family(), n ** -0.2, GAUSSIAN,
                           uniform_weight(), memory_kind="slm", d=0.1,
                           lam=n ** -0.2, blocks=[(b, b ** -0.2, b ** -0.2)],
                           quad_cells=64)
    m = res.subsample_values.size
    assert m == n - b + 1 - res.n_blocks_skipped
    exceed = sum(1 for v in res.subsample_by_block if v >= res.t_normalized)
    assert res.p_value == (1 + exceed) / (1 + m)
    assert 1.0 / (m + 1) <= res.p_value <= 1.0


@st.composite
def _family_shift_case(draw):
    """A random-walk path, a family, a block size and a member g(x, theta')
    of the family with coefficients in [-2, 2]."""
    family = get_family(draw(st.sampled_from(["linear", "quadratic"])))
    n = draw(st.integers(40, 120))
    b = draw(st.integers(family.dim + 2, n // 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    noise = draw(st.floats(0.1, 2.0))
    shift = draw(st.lists(st.floats(-2.0, 2.0), min_size=family.dim,
                          max_size=family.dim))
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    y = x + noise * rng.standard_normal(n)
    return family, x, y, b, np.array(shift)


@settings(max_examples=25, deadline=None)
@given(case=_family_shift_case())
def test_statistic_invariant_to_family_member(case):
    # the fit absorbs any member of the family, so y and y + g(x, theta')
    # give the same residuals, statistics and (up to near-ties) p-value
    family, x, y, b, shift = case
    n = x.size

    def run(yy):
        (res,) = run_spec_test(x, yy, family, n ** -0.2, GAUSSIAN,
                               uniform_weight(), memory_kind="slm", d=0.1,
                               lam=n ** -0.2, blocks=[(b, b ** -0.2, b ** -0.2)],
                               quad_cells=64)
        return res

    base = run(y)
    moved = run(y + np.polynomial.polynomial.polyval(x, shift))
    # 1e-8 relative; a block value near 0 is a near-perfect fit whose
    # residuals cancel, so it is held to 1e-8 of the largest block value
    tol = 1e-8
    t, blocks = base.t_normalized, base.subsample_by_block
    assert_allclose(moved.t_normalized, t, rtol=tol, atol=0)
    assert np.array_equal(moved.block_index, base.block_index)
    scale = np.max(np.abs(blocks), initial=abs(t))
    assert_allclose(moved.subsample_by_block, blocks, rtol=tol, atol=tol * scale)
    if not np.any(np.abs(blocks - t) <= tol * scale):
        assert moved.p_value == base.p_value


def test_divergence_under_fixed_alternative():
    # deviation m(x) = sin(pi x) on top of the linear null: the median
    # normalized statistic grows with the sample size
    medians = []
    for n in (250, 500, 1000):
        spec = TemperedProcessSpec(d=0.1, lam=n ** -0.2, n=n,
                                   memory_kind="slm", presample=0)
        vals = []
        for rep in range(200):
            noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2,
                                seed=rep * 104729 + n)
            path = simulate_model(spec, noise)
            y = path.x + np.sin(np.pi * path.x) + 0.2 * path.u
            theta = nls_fit(linear_family(), path.x, y)
            t = t_statistic(path.x, y, linear_family(), theta, n ** -0.2,
                            GAUSSIAN, uniform_weight(), quad_cells=512)
            vals.append(normalized_statistic(t, n, n ** -0.2, 0.1,
                                             n ** -0.2, "slm")[0])
        medians.append(np.median(vals))
    assert medians[0] < medians[1] < medians[2]
