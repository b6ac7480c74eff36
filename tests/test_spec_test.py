import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from slmcoint import (get_family, nls_fit, t_statistic,
                      normalized_statistic, subsample_statistics, subsample_quantile, run_spec_test,
                      SubsamplingError, StudyConfig, GAUSSIAN, EPANECHNIKOV,
                      TemperedProcessSpec, NoiseConfig, simulate_model, scale_dn)
from slmcoint import spec_test
from slmcoint.spec_test import (DEFAULT_WEIGHT_SUPPORT as SUPPORT, _gaussian_reach,
                                _TILE_FLOATS, ParametricFamily, _node_tiles,
                                _quad_nodes, _sliding_theta, integration_domain)
from pair_oracle import oracle_pair_matrix


# --------------------------------------------------------------------- NLS

def test_nls_linear_interpolation():
    x = np.linspace(0, 5, 40)
    theta = nls_fit("linear", x, 2.0 + 3.0 * x)
    assert_allclose(theta, [2.0, 3.0], atol=1e-10)


def test_nls_quadratic_exact():
    x = np.linspace(-2, 2, 50)
    theta = nls_fit("quadratic", x, 1.0 - 0.5 * x + 0.25 * x * x)
    assert_allclose(theta, [1.0, -0.5, 0.25], atol=1e-10)


def test_nls_matches_normal_equations():
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, 200)
    y = 1.0 + 2.0 * x + rng.standard_normal(200)
    theta = nls_fit("linear", x, y)
    design = np.column_stack([np.ones_like(x), x])
    oracle = np.linalg.solve(design.T @ design, design.T @ y)
    assert_allclose(theta, oracle, atol=1e-10)
    # x on the scale of log per-capita GDP (about 9 to 12), where the raw
    # quadratic design is badly conditioned
    for seed in (31, 32):
        rng = np.random.default_rng(seed)
        x = 9.0 + 3.0 * np.sort(rng.uniform(0, 1, 120)) + 0.05 * rng.standard_normal(120)
        y = -40.0 + 9.0 * x - 0.47 * x * x + 0.05 * rng.standard_normal(120)
        for fam in (get_family("linear"), get_family("quadratic")):
            oracle = np.linalg.lstsq(fam.basis(x), y, rcond=None)[0]
            assert_allclose(nls_fit(fam, x, y), oracle, rtol=1e-10)


def test_nls_rank_deficient_rejected():
    x = np.full(10, 2.0)
    with pytest.raises(ValueError):
        nls_fit("linear", x, x)


def test_families_are_polynomials_of_their_degree():
    x = np.array([-1.5, 0.0, 2.0, 3.0])
    theta = np.array([0.5, -2.0, 0.25])
    fam = get_family("quadratic")
    assert (fam.kind, fam.degree, fam.dim) == ("quadratic", 2, 3)
    assert_allclose(fam.basis(x), np.column_stack([np.ones(4), x, x * x]))
    assert_allclose(fam.residuals(x, np.zeros(4), theta),
                    -(0.5 - 2.0 * x + 0.25 * x * x), rtol=1e-15)
    assert get_family(" Linear ") == ParametricFamily("linear", 1)
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
    # a power rule that underflows would run as long memory: n^-210 is 0.0
    # at n = 40 but 1e-210 at b = 10
    "lam-zero": ("lam", "n^-210", r"power rule 'n\^-210' is 0.0 at size 40$"),
    "quad_cells-0": ("quad_cells", 0, r"quad_cells must be >= 2, got 0$"),
    "quad_cells-1": ("quad_cells", 1, r"quad_cells must be >= 2, got 1$"),
    "quad_cells-fraction": ("quad_cells", 1024.5,
                            r"quad_cells must be an integer, got 1024.5$"),
    "quad_cells-float": ("quad_cells", 256.0, r"quad_cells must be an integer, got 256.0$"),
    "b-fraction": ("b", 22.5, r"block size b must be an integer, got 22.5$"),
    "b-float": ("b", 22.0, r"block size b must be an integer, got 22.0$"),
    "b-1": ("b", 1, r"block size must satisfy 2 <= b < n, got b = 1, n = 40$"),
    "b-n": ("b", 40, r"block size must satisfy 2 <= b < n, got b = 40, n = 40$"),
    "b-above-n": ("b", 41, r"block size must satisfy 2 <= b < n, got b = 41, n = 40$"),
}


@pytest.mark.parametrize("case", list(_BAD_INPUT))
def test_spec_test_rejects_nonfinite_input(case):
    # every entry point that takes the bad argument names it in a ValueError
    name, value, match = _BAD_INPUT[case]
    x, y = _draw(40, seed=14)
    v = dict(h=0.5, h_b=0.5, d=0.1, lam=0.4, lam_b=0.4, quad_cells=256, b=10)
    if name in ("x", "y"):
        (x if name == "x" else y)[7] = value
    else:
        v[name] = value
    fam, w = "linear", SUPPORT
    calls = {
        ("x", "y"): lambda: nls_fit(fam, x, y),
        ("x", "y", "h", "quad_cells"): lambda: t_statistic(
            x, y, fam, [0.0, 1.0], v["h"], GAUSSIAN, w, v["quad_cells"]),
        ("x", "y", "h_b", "d", "lam_b", "quad_cells", "b"): lambda: subsample_statistics(
            x, y, fam, v["b"], v["h_b"], v["lam_b"], v["d"], GAUSSIAN, w,
            v["quad_cells"]),
        ("x", "y", "h", "d", "lam", "quad_cells", "b"): lambda: run_spec_test(
            x, y, fam, v["h"], GAUSSIAN, w, d=v["d"], lam=v["lam"], blocks=[v["b"]],
            quad_cells=v["quad_cells"]),
    }
    for takes, call in calls.items():
        if name in takes:
            with pytest.raises(ValueError, match=match):
                call()


@pytest.mark.parametrize("regime, d, lam, match", [
    ("lm", 0.7, 0.0, r"long memory requires 0 <= d < 1/2, got 0.7$"),
    ("lm", -0.2, 0.0, r"long memory requires 0 <= d < 1/2, got -0.2$"),
])
def test_spec_test_rejects_memory_the_simulator_rejects(regime, d, lam, match):
    # the statistics and the simulator share one memory rule, whose regime
    # lam sets: lam = 0 is long memory
    assert (lam == 0.0) is (regime == "lm")
    x, y = _draw(40, seed=16)
    with pytest.raises(ValueError, match=match):
        normalized_statistic(1.0, 40, lam, d, 0.5)
    with pytest.raises(ValueError, match=match):
        subsample_statistics(x, y, "linear", 10, 0.5, lam, d,
                             GAUSSIAN, SUPPORT, 256)
    with pytest.raises(ValueError, match=match):
        run_spec_test(x, y, "linear", 0.5, GAUSSIAN, SUPPORT,
                      d=d, lam=lam, blocks=[10], quad_cells=256)
    with pytest.raises(ValueError, match=match):
        TemperedProcessSpec(d=d, lam=lam, n=40)


def test_run_spec_test_rejects_a_long_memory_block_under_tempering():
    # a power rule that underflows to 0.0 once ran silently as long memory:
    # n^-400 is 0.0 at b = 20 and n = 100, and n^-210 at b = 39 and n = 40
    # but not at b = 10; a held lam = 0 is long memory at every size
    for n, lam, blocks, size in ((100, "n^-400", [20], 20), (40, "n^-210", [39, 10], 39),
                                 (40, "n^-210", [10], 40)):
        x, y = _draw(n, seed=16)
        with pytest.raises(ValueError, match=rf"^power rule '{re.escape(lam)}' is 0\.0 "
                                             rf"at size {size}$"):
            run_spec_test(x, y, "linear", 0.5, GAUSSIAN, SUPPORT, d=0.3,
                          lam=lam, blocks=blocks, quad_cells=256)
    (res,) = run_spec_test(x, y, "linear", 0.5, GAUSSIAN, SUPPORT, d=0.1,
                           lam=0.0, blocks=[10], quad_cells=256)
    assert res.lam == res.lam_b == 0.0


def test_reject_and_p_value_differ_at_the_boundary(monkeypatch):
    # reject(alpha), which the size study counts, compares T with the
    # (1 - alpha) quantile of the block values; p_value smooths by one and
    # counts ties as exceedances.  With 100 values of which 5 are >= T (one
    # equal), reject(0.05) holds while p = 6/101 = 0.0594 > 0.05
    x, y = _draw(40, seed=16)
    args = (x, y, "linear", 0.5, GAUSSIAN, SUPPORT)
    (res,) = run_spec_test(*args, d=0.1, lam=0.4, blocks=[10], quad_cells=256)
    t = res.t_normalized
    values = np.concatenate([t - np.arange(95, 0, -1), [t], t + np.arange(1, 5)])
    monkeypatch.setattr(spec_test, "subsample_statistics",
                        lambda *a, **k: (values, values, 0))
    (res,) = run_spec_test(*args, d=0.1, lam=0.4, blocks=[10], quad_cells=256)
    assert res.t_normalized == t
    assert res.reject(0.05) and res.p_value == 6 / 101
    assert round(res.p_value, 4) == 0.0594


def test_block_size_and_quad_cells_accept_numpy_integers():
    x, y = _draw(40, seed=14)
    fam, w = "linear", SUPPORT
    expect = subsample_statistics(x, y, fam, 10, 0.5, 0.4, 0.1, GAUSSIAN, w, 256)
    got = subsample_statistics(x, y, fam, np.int64(10), 0.5, 0.4, 0.1, GAUSSIAN,
                               w, np.int32(256))
    assert np.array_equal(got, expect)
    (res,) = run_spec_test(x, y, fam, 0.5, GAUSSIAN, w, d=0.1, lam=0.4,
                           blocks=[np.int64(10)], quad_cells=np.int64(256))
    assert np.array_equal(res.subsample_values, expect)


def test_p_value_needs_a_block_shorter_than_the_sample():
    # b = n is one block, the whole sample: a p-value from it would compare
    # the statistic with itself, so no entry computes it
    x, y = _draw(40, seed=14)
    message = r"^block size must satisfy 2 <= b < n, got b = 40, n = 40$"
    with pytest.raises(ValueError, match=message):
        subsample_statistics(x, y, "linear", 40, 0.5, 0.4, 0.1,
                             GAUSSIAN, SUPPORT, 256)
    with pytest.raises(ValueError, match=message):
        run_spec_test(x, y, "linear", 0.5, GAUSSIAN, SUPPORT,
                      d=0.1, lam=0.4, blocks=[10, 40], quad_cells=256)


def test_spec_test_rejects_unequal_lengths():
    x, y = _draw(40, seed=15)
    with pytest.raises(ValueError, match="equal length"):
        nls_fit("linear", x, y[:-1])
    with pytest.raises(ValueError, match="equal length"):
        subsample_statistics(x[:-1], y, "linear", 10, 0.5, 0.4, 0.1,
                             GAUSSIAN, SUPPORT)


@pytest.mark.parametrize("support", [(5, -5), (1, 1), (math.nan, 1), (1, 2, 3),
                                     ("a", "b"), (True, 2)],
                         ids=["reversed", "empty", "nan", "three", "strings", "bool"])
def test_weight_support_must_be_two_numbers_in_order(support):
    # a support is two numbers a < b; every entry that takes one, and the
    # size study's config, names it in a ValueError
    x, y = _draw(40, seed=14)
    calls = [
        lambda: t_statistic(x, y, "linear", [0.0, 1.0], 0.5, GAUSSIAN, support, 256),
        lambda: subsample_statistics(x, y, "linear", 10, 0.5, 0.4, 0.1, GAUSSIAN,
                                     support, 256),
        lambda: run_spec_test(x, y, "linear", 0.5, GAUSSIAN, support, d=0.1, lam=0.4,
                              blocks=[10], quad_cells=256),
        lambda: integration_domain(x, 0.5, support),
        lambda: StudyConfig(study_kind="size", n=100, replications=1, d_values=[0.1],
                            memory_settings=["lm"], bandwidth_exponents=[-0.2],
                            weight_support=support),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^weight[ _]support must"):
            call()


def test_weight_support_of_integers_equals_floats():
    x, y = _draw(60, seed=17)
    theta = nls_fit("linear", x, y)
    for support in ((-100, 100), (-2, 3)):
        floats = tuple(float(v) for v in support)
        assert (t_statistic(x, y, "linear", theta, 0.5, GAUSSIAN, support, 256)
                == t_statistic(x, y, "linear", theta, 0.5, GAUSSIAN, floats, 256))
        (ints,) = run_spec_test(x, y, "linear", 0.5, GAUSSIAN, support, d=0.1, lam=0.4,
                                blocks=[12], quad_cells=256)
        (reals,) = run_spec_test(x, y, "linear", 0.5, GAUSSIAN, floats, d=0.1, lam=0.4,
                                 blocks=[12], quad_cells=256)
        _same_result(ints, reals)


# --------------------------------------------------------------- statistic

def _draw(n=30, seed=1):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    y = x + 0.2 * rng.standard_normal(n)
    return x, y


def test_t_statistic_zero_residuals():
    x, _ = _draw()
    y = np.zeros_like(x)
    theta = nls_fit("linear", x, y)
    t = t_statistic(x, y, "linear", theta, 0.5, GAUSSIAN, SUPPORT)
    assert t == 0.0


def test_t_statistic_fine_grid_oracle():
    x, y = _draw(30, seed=2)
    theta = nls_fit("linear", x, y)
    w = (-100, 100)
    t = t_statistic(x, y, "linear", theta, 0.7, GAUSSIAN, w, 2048)
    t_fine = t_statistic(x, y, "linear", theta, 0.7, GAUSSIAN, w, 20480)
    assert abs(t - t_fine) <= 1e-6 * abs(t_fine)


def test_t_statistic_quad_doubling():
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.standard_normal(1000))
    y = x + 0.2 * rng.standard_normal(1000)
    theta = nls_fit("linear", x, y)
    w = SUPPORT
    t1 = t_statistic(x, y, "linear", theta, 1000 ** -0.2, GAUSSIAN, w, 2048)
    t2 = t_statistic(x, y, "linear", theta, 1000 ** -0.2, GAUSSIAN, w, 4096)
    assert abs(t2 - t1) < 1e-6 * abs(t1)


@pytest.mark.parametrize("support", [100.0, 10.0], ids=["pm100", "pm10"])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [get_family("linear"), get_family("quadratic")],
                         ids=["linear", "quadratic"])
def test_t_statistic_matches_exactly_rounded_node_sums(family, kernel, support):
    # on the library's nodes, every node sum and the sum of squares taken
    # exactly rounded (math.fsum); +-10 cuts the path, +-100 does not
    x, y = _draw(300, seed=21)
    y = y + 0.05 * x ** 2
    h = 300 ** -0.2
    w = (-support, support)
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
    theta = nls_fit("linear", x, y)
    t = t_statistic(x, y, "linear", theta, 0.4, GAUSSIAN, SUPPORT)
    assert t >= 0.0
    lo, hi = integration_domain(x, 0.4, SUPPORT)
    assert lo >= -100 and hi <= 100
    with pytest.raises(ValueError):
        t_statistic(x, y, "linear", theta, 0.4, GAUSSIAN,
                    SUPPORT, quad_cells=1)


def test_residual_invariance_to_family_shift():
    x, y = _draw(80, seed=5)
    fam = "linear"
    theta = nls_fit(fam, x, y)
    t0 = t_statistic(x, y, fam, theta, 0.5, GAUSSIAN, SUPPORT)
    y2 = y + (4.0 - 2.5 * x)
    theta2 = nls_fit(fam, x, y2)
    t1 = t_statistic(x, y2, fam, theta2, 0.5, GAUSSIAN, SUPPORT)
    assert t1 == pytest.approx(t0, rel=1e-10, abs=1e-12)


# ----------------------------------------------------------- normalization

def test_normalized_statistic_arithmetic():
    t, scale = normalized_statistic(10.0, 100, 0.0, 0.0, 0.1)
    assert t == pytest.approx(10.0)
    assert scale == pytest.approx(1.0)
    t, _ = normalized_statistic(10.0, 100, 0.0, 0.25, 0.1)
    assert t == pytest.approx(10.0 * 100 ** -0.25 / 0.1)


def test_normalized_statistic_slm_unit_lambda_matches_short():
    # lam = 1 semi-long memory and d = 0 long memory both have d_N = sqrt(n)
    a, _ = normalized_statistic(3.7, 400, 1.0, 0.3, 0.2)
    b, _ = normalized_statistic(3.7, 400, 0.0, 0.0, 0.2)
    assert a == pytest.approx(b)


@pytest.mark.parametrize("n, lam, h", [(100, 0.0, 0.1), (437, 0.25, 0.37), (59, 0.0, 2.0)])
def test_normalized_statistic_short_is_sqrt_n_h_bit_for_bit(n, lam, h):
    # the normalizer is n h / d_N, and at d = 0 d_N is n ** 0.5 under long
    # memory (lam = 0) and np.sqrt(n) under semi-long memory (lam^0 = 1.0)
    dn = float(n) ** 0.5 if lam == 0.0 else np.sqrt(n)
    for t in (3.7, np.array([0.0, 1e-300, 2.5, 7e10])):
        got, scale = normalized_statistic(t, n, lam, 0.0, h)
        assert scale == float(n * h / dn)
        assert np.array_equal(got, t / float(n * h / dn))


@pytest.mark.parametrize("n, lam, d, h, regime", [
    (500, 0.0, 0.3, 0.29, "lm"), (500, 500 ** -0.2, 0.3, 0.29, "slm"),
    (89, 89 ** -0.2, -0.4, 0.41, "slm"), (170, 0.0, 0.0, 1.3, "lm"),
    (2921, 0.0, 0.0, 0.2, "lm")])
def test_normalized_statistic_is_n_h_over_scale_dn_bit_for_bit(n, lam, d, h, regime):
    # the one normalization rule: d_N from scale_dn, normalizer n h / d_N,
    # which is n^{1/2-d} h under long memory (lam = 0) and sqrt(n) lam^d h
    # under semi-long memory
    assert (lam == 0.0) is (regime == "lm")
    dn = float(n) ** (d + 0.5) if regime == "lm" else np.sqrt(n) / lam ** d
    assert scale_dn(n, lam, d) == dn
    scale = float(n * h / scale_dn(n, lam, d))
    t = np.array([0.0, 2.5e-3, 7.0])
    got, normalizer = normalized_statistic(t, n, lam, d, h)
    assert normalizer == scale
    assert np.array_equal(got, t / scale)
    closed = n ** (0.5 - d) * h if regime == "lm" else np.sqrt(n) * lam ** d * h
    assert normalizer == pytest.approx(closed, rel=1e-15)


# -------------------------------------------------------------- subsampling

def test_subsample_degenerate_zero_data():
    x, _ = _draw(40, seed=7)
    y = np.zeros_like(x)
    vals = subsample_statistics(x, y, "linear", 10, 0.5, 0.3, 0.1,
                                GAUSSIAN, SUPPORT)
    assert_allclose(vals, 0.0)


def test_subsample_matches_per_block_oracle():
    rng = np.random.default_rng(8)
    n, b = 120, 22
    x = np.cumsum(rng.standard_normal(n))
    y = x + 0.2 * rng.standard_normal(n)
    fam = get_family("linear")
    h_b = b ** -0.2
    lam_b = b ** -0.2
    w = SUPPORT
    vals, by_block, skipped = subsample_statistics(
        x, y, fam, b, h_b, lam_b, 0.1, GAUSSIAN, w,
        quad_cells=512, return_by_block=True)
    assert skipped == 0
    assert vals.shape == (n - b + 1,)
    # every block refit on its own, its residuals in the quadratic form of
    # the dense pair matrix over the weight's whole support
    pair = oracle_pair_matrix(x, h_b, w)
    oracle = []
    for t0 in range(n - b + 1):
        sl = slice(t0, t0 + b)
        r = fam.residuals(x[sl], y[sl], nls_fit(fam, x[sl], y[sl]))
        oracle.append(normalized_statistic(r @ pair[sl, sl] @ r, b, lam_b, 0.1, h_b)[0])
    assert_allclose(by_block, oracle, rtol=1e-9)
    assert_allclose(vals, np.sort(oracle), rtol=1e-9)


def test_subsample_skips_singular_blocks():
    rng = np.random.default_rng(9)
    n, b = 400, 20
    x = np.cumsum(rng.standard_normal(n))
    x[100:120] = x[99] + 1.0  # exactly one all-constant window (block 100)
    y = x + 0.1 * rng.standard_normal(n)
    args = ("linear", b, 0.5, 0.4, 0.1, GAUSSIAN, SUPPORT, 256)
    vals, by_block, skipped = subsample_statistics(x, y, *args, return_by_block=True)
    assert skipped == 1
    assert vals.shape == (n - b + 1 - 1,)
    # block 100 is the one left out: the others are the blocks of the paths
    # before it (blocks 0-99) and after it (blocks 101-380), in order; block
    # 101 is nearly flat, a near-perfect fit whose value cancels to ~1e-18
    head = subsample_statistics(x[:119], y[:119], *args, return_by_block=True)[1]
    tail = subsample_statistics(x[101:], y[101:], *args, return_by_block=True)[1]
    assert_allclose(by_block, np.concatenate([head, tail]), rtol=1e-9,
                    atol=1e-12 * by_block.max())


def test_subsample_aborts_on_many_failures():
    rng = np.random.default_rng(10)
    n, b = 100, 10
    x = np.cumsum(rng.standard_normal(n))
    x[20:80] = x[19]  # dozens of degenerate windows
    y = x + 0.1 * rng.standard_normal(n)
    with pytest.raises(SubsamplingError):
        subsample_statistics(x, y, "linear", b, 0.5, 0.4, 0.1,
                             GAUSSIAN, SUPPORT, quad_cells=256)


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


# ------------------------------------------- full statistic and block oracles
# The full statistic is taken by midpoint quadrature.  _untiled_statistic
# takes its node sums over the whole (quad_cells x n) kernel matrix; the
# library takes them in row tiles of the nodes and must equal this form bit
# for bit: the same elementwise products, the same running sums along the
# observations and, per tile of _TILE_FLOATS // n nodes, the same sum of
# squares, added tile by tile.  The block values are exact pair-integral
# quadratic forms, checked against the dense pair matrix of pair_oracle.

def _untiled_statistic(x, r, h, kernel, support, quad_cells, tile_floats=_TILE_FLOATS):
    nodes, dx = _quad_nodes(integration_domain(x, h, support), quad_cells)
    K = kernel((x[None, :] - nodes[:, None]) / h)
    sums = np.cumsum(K * r[None, :], axis=1)[:, -1]
    step = max(1, tile_floats // x.shape[0])
    total = np.zeros(1)
    for lo in range(0, quad_cells, step):
        # a fresh array, as the library's: einsum's order of summation can
        # depend on where the data starts in memory
        tile = sums[None, lo:lo + step].copy()
        total += np.einsum("ij,ij->i", tile, tile)
    return total[0] * dx


def _dense_subsample(x, y, family, b, h_b, lam_b, d, kernel, support):
    """Block-ordered normalized values and skip count of
    ``subsample_statistics``, from the library's block fits and the dense
    pair matrix: block t's residuals r in r' P[t:t+b, t:t+b] r.  Also the
    normalized |r|' P[t:t+b, t:t+b] |r|, the scale of the rounding error of
    the form (P >= 0): where the fit leaves residuals that P nearly
    annihilates, such as a block that spans much less than a bandwidth, the
    form cancels and keeps fewer digits than its terms."""
    theta, valid, u = _sliding_theta(x, y, family, b)
    pair = oracle_pair_matrix(x, h_b, support, kernel.kind)
    raw, scale = [], []
    for t in np.flatnonzero(valid):
        sl = slice(t, t + b)
        r = family.residuals(u[sl], y[sl], theta[t])
        raw.append(r @ pair[sl, sl] @ r)
        scale.append(np.abs(r) @ pair[sl, sl] @ np.abs(r))
    normalized, normalizer = normalized_statistic(np.array(raw), b, lam_b, d, h_b)
    return normalized, np.array(scale) / normalizer, int(valid.size - valid.sum())


def _assert_close_to_dense(got, expect, scale):
    """Each value within 1e-12 of its form's rounding scale; a subnormal
    value, a Gaussian tail far outside a cut support, has no relative
    precision left."""
    assert np.all(np.abs(got - expect) <= 1e-12 * scale + np.finfo(float).tiny)


def _assert_tiled_equals_untiled(x, y, family, kernel, support, quad_cells, blocks):
    n = x.shape[0]
    h = n ** -0.2
    theta = nls_fit(family, x, y)
    r = family.residuals(x, y, theta)
    assert (t_statistic(x, y, family, theta, h, kernel, support, quad_cells)
            == _untiled_statistic(x, r, h, kernel, support, quad_cells))
    for b in blocks:
        args = (x, y, family, b, b ** -0.2, b ** -0.2, 0.1, kernel, support)
        by_block, scale, skipped = _dense_subsample(*args)
        if skipped > 0.05 * (n - b + 1):
            with pytest.raises(SubsamplingError):
                subsample_statistics(*args, quad_cells)
            continue
        got = subsample_statistics(*args, quad_cells, return_by_block=True)
        _assert_close_to_dense(got[1], by_block, scale)
        assert np.array_equal(got[0], np.sort(got[1]))
        assert got[2] == skipped


def _walk(n, seed, offset=0.0):
    rng = np.random.default_rng(seed)
    x = offset + np.cumsum(rng.standard_normal(n))
    return x, x + 0.05 * (x - offset) ** 2 + 0.3 * rng.standard_normal(n)


def _gappy_walk(n, seed):
    # two clusters 80 apart
    x, y = _walk(n, seed=seed)
    x[n // 2:] += 80.0
    return x - 40.0, y


# (n, quad_cells): most cell counts are not a multiple of the tile rows, at
# n = 5 and 17 one tile holds every node, and at n = 183 the last tile holds
# one node (2048 = 23 * 89 + 1), as in test_one_node_tiles_equal_untiled
_TILING_CASES = [(5, 2), (17, 100), (64, 1000), (183, 2048), (257, 2048),
                 (501, 1024), (600, 2048)]


@pytest.mark.parametrize("n,quad_cells", _TILING_CASES,
                         ids=[f"n{n}-q{q}" for n, q in _TILING_CASES])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [get_family("linear"), get_family("quadratic")],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled(family, kernel, n, quad_cells):
    x, y = _walk(n, seed=n)
    blocks = sorted({2, family.dim + 1, n - 1})  # n - 1: the longest block
    _assert_tiled_equals_untiled(x, y, family, kernel, SUPPORT,
                                 quad_cells, blocks)


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
def test_one_node_tiles_equal_untiled(monkeypatch, kernel):
    # tiles of one node each sum along the observations as wider tiles do;
    # at h = 2 dozens of observations reach each of the 16 nodes, enough
    # that a pairwise node sum would move the statistic's last bits
    x, y = _walk(300, seed=300)
    family, h = get_family("linear"), 2.0
    theta = nls_fit(family, x, y)
    r = family.residuals(x, y, theta)
    monkeypatch.setattr(spec_test, "_TILE_FLOATS", x.shape[0])
    assert (t_statistic(x, y, family, theta, h, kernel, SUPPORT, 16)
            == _untiled_statistic(x, r, h, kernel, SUPPORT, 16, x.shape[0]))


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [get_family("linear"), get_family("quadratic")],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_far_from_origin(family, kernel):
    # the quadratic blocks fit in standardized coordinates; the path also
    # runs past the weight's edge at 100, which cuts the domain
    x, y = _walk(300, seed=31, offset=90.0)
    _assert_tiled_equals_untiled(x, y, family, kernel, SUPPORT, 1000,
                                 [family.dim + 1, 40, 299])


@pytest.mark.parametrize("family", [get_family("linear"), get_family("quadratic")],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_with_skipped_blocks(family):
    x, y = _walk(400, seed=9)
    x[100:120] = x[99] + 1.0  # a constant stretch: some block fits are singular
    assert not _sliding_theta(x, y, family, 20)[1].all()
    _assert_tiled_equals_untiled(x, y, family, GAUSSIAN, SUPPORT, 1024,
                                 [20])


def _at_reach_edges(x, quad_cells, bandwidths, reach):
    """x with inner observations moved to exactly ``reach`` bandwidths from
    the first and the last node of each node tile, and one float step
    closer, for each bandwidth h: the edge of the reach a tile keeps.  The
    extremes, and so the nodes, stay."""
    n = x.shape[0]
    step = _TILE_FLOATS // n
    values = []
    for h in bandwidths:
        nodes = _quad_nodes(integration_domain(x, h, SUPPORT), quad_cells)[0]
        for i in range(0, quad_cells, step):
            edge = nodes[i] - reach * h
            values += [edge, np.nextafter(edge, nodes[i])]
        for i in range(step - 1, quad_cells, step):
            edge = nodes[i] + reach * h
            values += [edge, np.nextafter(edge, nodes[i])]
    values = [v for v in values if x.min() < v < x.max()]
    inner = [k for k in range(n) if k not in (np.argmin(x), np.argmax(x))]
    x = x.copy()
    x[inner[:len(values)]] = values
    return x


@pytest.mark.parametrize("family", [get_family("linear"), get_family("quadratic")],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_at_epanechnikov_reach(family):
    # the half-width's edge for the full-sample h and the block h_b
    n, b, quad_cells = 300, 40, 512
    x, y = _walk(n, seed=23)
    x = _at_reach_edges(x, quad_cells, (n ** -0.2, b ** -0.2), 1.0)
    h = n ** -0.2
    nodes = _quad_nodes(integration_domain(x, h, SUPPORT), quad_cells)[0]
    assert np.count_nonzero(np.abs((x[:, None] - nodes) / h) == 1.0) >= 5
    _assert_tiled_equals_untiled(x, y, family, EPANECHNIKOV, SUPPORT,
                                 quad_cells, [b])


@pytest.mark.parametrize("family", [get_family("linear"), get_family("quadratic")],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_at_gaussian_reach(family):
    # the edge of _gaussian_reach(n) at the full-sample h, the only one whose
    # sums are tiled; the untiled oracle keeps every observation
    n, quad_cells = 300, 512
    x, y = _walk(n, seed=23)
    h = n ** -0.2
    x = _at_reach_edges(x, quad_cells, (h,), _gaussian_reach(n))
    nodes = _quad_nodes(integration_domain(x, h, SUPPORT), quad_cells)[0]
    reach = _gaussian_reach(n) * h
    assert np.count_nonzero(np.abs(np.abs(x[:, None] - nodes) - reach) <= 1e-12 * reach) >= 5
    _assert_tiled_equals_untiled(x, y, family, GAUSSIAN, SUPPORT, quad_cells, [])


def test_statistic_is_nil_when_no_observation_is_in_reach():
    # two tight clusters 80 apart and two cells: the one tile's nodes lie
    # near +-23, 16 bandwidths or more from every observation, beyond the
    # Gaussian reach of 13.3, so the tile is empty and the statistic 0.0;
    # the untiled form keeps the tail, a positive value below 1e-60
    n, quad_cells, h, support = 200, 2, 1.0, (-np.inf, np.inf)
    x, y = _walk(n, seed=5)
    x = np.where(np.arange(n) < n // 2, -40.0, 40.0) + 0.05 * (x - x.mean())
    family = get_family("linear")
    theta = nls_fit(family, x, y)
    r = family.residuals(x, y, theta)
    nodes = _quad_nodes(integration_domain(x, h, support), quad_cells)[0]
    assert np.min(np.abs(x[:, None] - nodes)) > _gaussian_reach(n) * h
    assert all(keep.size == 0 for keep, _ in _node_tiles(x, h, GAUSSIAN, nodes))
    assert 0.0 <= t_statistic(x, y, family, theta, h, GAUSSIAN, support, quad_cells) < 1e-60
    assert 0.0 < _untiled_statistic(x, r, h, GAUSSIAN, support, quad_cells) < 1e-60


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [get_family("linear"), get_family("quadratic")],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_on_a_gappy_path(family, kernel):
    # two clusters 80 apart: the tiles between them reach no observation
    x, y = _gappy_walk(300, seed=41)
    h = 300 ** -0.2
    nodes = _quad_nodes(integration_domain(x, h, SUPPORT), 1024)[0]
    assert any(keep.size == 0 for keep, _ in _node_tiles(x, h, kernel, nodes))
    _assert_tiled_equals_untiled(x, y, family, kernel, SUPPORT, 1024,
                                 [family.dim + 1, 40, 299])


@pytest.mark.parametrize("support", [10.0, 20.0])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("family", [get_family("linear"), get_family("quadratic")],
                         ids=["linear", "quadratic"])
def test_tiled_statistic_equals_untiled_with_cut_support(family, kernel, support):
    x, y = _walk(400, seed=4)
    assert x.min() < -support or x.max() > support  # the weight cuts the path
    _assert_tiled_equals_untiled(x, y, family, kernel, (-support, support),
                                 1024, [22, 89])


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
def test_tiled_statistic_equals_untiled_short_quadratic(kernel):
    # a 59-year country series in logs, with the block sizes of its CKC
    # workflow, int(c * sqrt(59)) for c = 2, 4, 6
    rng = np.random.default_rng(59)
    x = 9.0 + 0.02 * np.arange(59) + 0.01 * np.cumsum(rng.standard_normal(59))
    y = -40.0 + 9.0 * x - 0.47 * x ** 2 + 0.01 * rng.standard_normal(59)
    _assert_tiled_equals_untiled(x, y, get_family("quadratic"), kernel, SUPPORT,
                                 2048, [15, 30, 46])


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
def test_block_values_beyond_a_cut_support(kernel):
    # blocks 20..40 lie wholly above the support [-10, 10], 5 to 5.5 block
    # bandwidths past its end: a Gaussian pair keeps a tail of its mass
    # inside, about erfc(5)/2 = 8e-13 of it, and an Epanechnikov pair none
    n, b = 120, 20
    h_b = b ** -0.2
    x, y = _walk(n, seed=120)
    x = 8.0 * x / np.max(np.abs(x))  # the rest of the path inside [-8, 8]
    rng = np.random.default_rng(121)
    x[20:60] = 10.0 + 5.0 * h_b + 0.5 * h_b * rng.uniform(size=40)
    y = x + 0.3 * rng.standard_normal(n)
    args = (x, y, get_family("linear"), b, h_b, h_b, 0.1, kernel, (-10, 10))
    got = subsample_statistics(*args, return_by_block=True)[1]
    expect, scale = _dense_subsample(*args)[:2]
    outside = slice(20, 41)
    if kernel is GAUSSIAN:
        assert np.all(got[outside] > 0.0) and np.all(got[outside] < 1e-11 * got.max())
    else:
        assert np.all(got[outside] == 0.0)
    _assert_close_to_dense(got, expect, scale)


@pytest.mark.parametrize("path", ["walk", "gappy"])
@pytest.mark.parametrize("support", [10.0, 100.0])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
def test_block_values_do_not_depend_on_the_lag_runs(monkeypatch, kernel, support, path):
    # runs of 1, 2, 7 and all b lags give the same bits: each lag's band row
    # and block windows are the same whichever run computes them; the
    # support of +-10 puts pairs near its ends, where erfc is called
    n, b = 200, 30
    x, y = _walk(n, seed=17) if path == "walk" else _gappy_walk(n, seed=17)
    assert x.min() < -10.0 or x.max() > 10.0
    args = (x, y, get_family("quadratic"), b, b ** -0.2, b ** -0.2, 0.1, kernel,
            (-support, support))
    values = []
    for lags in (1, 2, 7, b):
        monkeypatch.setattr(spec_test, "_LAG_RUN_FLOATS", lags * n)
        values.append(subsample_statistics(*args, return_by_block=True)[1])
    assert all(np.array_equal(v, values[0]) for v in values[1:])
    expect, scale = _dense_subsample(*args)[:2]
    _assert_close_to_dense(values[0], expect, scale)


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV],
                         ids=["gaussian", "epanechnikov"])
def test_pair_integral_matches_quadrature(kernel):
    # int_lo^hi K(t - g/2) K(t + g/2) dt on uncut, cut and empty ranges;
    # at g = 0 over the whole line it is the kernel's k2
    from scipy.integrate import quad
    gap = np.array([0.0, 0.3, -1.1, 1.9, 2.0, 3.5, 7.0])
    for lo, hi in ((-40.0, 40.0), (-0.4, 1.3), (-7.0, -0.2), (2.5, 9.0), (-12.0, -5.5)):
        got = kernel.pair_integral(gap, np.full(gap.size, lo), np.full(gap.size, hi))
        for g, value in zip(gap, got):
            kinks = [v for v in (g / 2 - 1, g / 2 + 1, -g / 2 - 1, -g / 2 + 1) if lo < v < hi]
            want = quad(lambda t: kernel(t - g / 2) * kernel(t + g / 2), lo, hi,
                        points=kinks or None, limit=200, epsabs=1e-16, epsrel=1e-13)[0]
            assert abs(value - want) <= 1e-14 + 1e-12 * want
    whole = kernel.pair_integral(np.zeros(1), np.full(1, -np.inf), np.full(1, np.inf))
    assert whole[0] == pytest.approx(kernel.k2, rel=1e-15)


@pytest.mark.parametrize("n", [2, 59, 500, 8000, 10 ** 6])
def test_gaussian_reach_bounds_the_dropped_weight(n):
    # the tiles drop observations further than _gaussian_reach(n) bandwidths
    # from every node: each weighs at most 1e-36 / n of the peak, so all n
    # of them less than 1e-36 of one peak weight; a reach 1% shorter would
    # drop heavier ones
    reach = _gaussian_reach(n)
    bound = 1e-36 / n
    assert GAUSSIAN(reach) / GAUSSIAN(0.0) <= bound * (1.0 + 1e-12)
    assert GAUSSIAN(0.99 * reach) / GAUSSIAN(0.0) > bound


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_statistic_working_memory():
    # n = 500, b = 22 and 1024 cells, as in the size study: the untiled
    # midpoint form peaked at 32.1 MB (blocks) and 13.0 MB (full statistic);
    # summed tile by tile, the full statistic peaks at 0.3 MB, and the exact
    # blocks at 0.2 MB
    x, y = _walk(500, seed=14)
    fam = "linear"
    theta = nls_fit(fam, x, y)
    h, h_b = 500 ** -0.2, 22 ** -0.2
    peak = _traced_peak(lambda: subsample_statistics(
        x, y, fam, 22, h_b, h_b, 0.1, GAUSSIAN, SUPPORT, 1024))
    assert peak < 2.5e6
    peak = _traced_peak(lambda: t_statistic(
        x, y, fam, theta, h, GAUSSIAN, SUPPORT, 1024))
    assert peak < 3e6
    # b = 89, the SLM3 size cell: the blocks' residuals take 0.3 MB and a
    # run of lags 8 band rows
    h_b = 89 ** -0.2
    peak = _traced_peak(lambda: subsample_statistics(
        x, y, fam, 89, h_b, h_b, 0.1, GAUSSIAN, SUPPORT, 1024))
    assert peak < 1e6
    # n = 8000 and b = [4 sqrt(n)] = 357: a dense pair matrix would take
    # 512 MB, the blocks' residuals take 22 MB
    x, y = _walk(8000, seed=15)
    h_b = 357 ** -0.2
    peak = _traced_peak(lambda: subsample_statistics(
        x, y, fam, 357, h_b, h_b, 0.1, GAUSSIAN, SUPPORT, 1024))
    assert peak < 64e6


# ------------------------------------------------------------ full test run

def test_run_spec_test_degenerate_null():
    x, _ = _draw(80, seed=12)
    y = np.zeros_like(x)
    # the bandwidth rule through h = 0.4 at n = 80
    (res,) = run_spec_test(x, y, "linear", f"n^{math.log(0.4) / math.log(80)!r}", GAUSSIAN,
                           SUPPORT, d=0.1, lam="n^-0.2", blocks=[20])
    assert res.h == pytest.approx(0.4)
    assert res.t_raw == 0.0
    assert res.p_value == 1.0


def test_run_spec_test_fields_and_determinism():
    spec = TemperedProcessSpec(d=0.1, lam=200 ** -0.2, n=200,
                               presample=0)
    noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2, seed=13)
    path = simulate_model(spec, noise)
    y = path.x + 0.2 * path.u
    kwargs = dict(d=0.1, lam="n^-0.2", blocks=[28], quad_cells=512)
    (a,) = run_spec_test(path.x, y, "linear", "n^-0.2", GAUSSIAN,
                         SUPPORT, **kwargs)
    (b,) = run_spec_test(path.x, y, "linear", "n^-0.2", GAUSSIAN,
                         SUPPORT, **kwargs)
    assert a.t_raw == b.t_raw
    assert np.array_equal(a.subsample_values, b.subsample_values)
    assert a.subsample_values.shape == (200 - 28 + 1,)
    assert np.all(np.diff(a.subsample_values) >= 0)
    assert 0.0 < a.p_value <= 1.0
    assert a.h == a.lam == 200 ** -0.2
    assert a.h_b == a.lam_b == 28 ** -0.2
    # reject agrees with the quantile rule at a few levels
    for lv in (0.01, 0.05, 0.10):
        expect = a.t_normalized > subsample_quantile(a.subsample_values, lv)
        assert a.reject(lv) == expect
    payload = a.to_dict()
    assert payload["p_value"] == a.p_value
    assert payload["subsample_values"] == list(a.subsample_values)


def _same_result(a, b):
    assert a.to_dict() == b.to_dict()
    for name in ("theta_hat", "subsample_values", "subsample_by_block"):
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
    blocks = [8, 28, 56]
    # rules at every size, and numbers held at every size
    for h, lam in (("n^-0.2", "n^-0.2"), (0.5, 0.4)):
        kwargs = dict(d=0.1, lam=lam, quad_cells=256)
        together = run_spec_test(x, y, family, h, GAUSSIAN, SUPPORT,
                                 blocks=blocks, **kwargs)
        assert [res.block_size for res in together] == blocks
        assert together[0].n_blocks_skipped > 0
        for block, res in zip(blocks, together):
            (alone,) = run_spec_test(x, y, family, h, GAUSSIAN, SUPPORT,
                                     blocks=[block], **kwargs)
            _same_result(res, alone)


@pytest.mark.parametrize("family", ["linear", "quadratic"])
def test_run_spec_test_maps_its_rules_to_block_scale(family):
    # a rule n^a is n^a on the sample and b^a on a length-b block, a number
    # is held at both: the results equal the statistic and the block values
    # computed at those values directly, bit for bit
    rng = np.random.default_rng(29)
    n = 120
    x = np.cumsum(rng.standard_normal(n))
    y = x + 0.3 * rng.standard_normal(n)
    fam, w = get_family(family), SUPPORT
    theta = nls_fit(fam, x, y)
    for lam, lam_n, lam_b in (("n^-1/4", n ** -0.25, {15: 15 ** -0.25, 40: 40 ** -0.25}),
                              (0.3, 0.3, {15: 0.3, 40: 0.3})):
        results = run_spec_test(x, y, fam, "n^-1/5", GAUSSIAN, w, d=0.2, lam=lam,
                                blocks=[15, 40], quad_cells=256)
        t_raw = t_statistic(x, y, fam, theta, n ** -0.2, GAUSSIAN, w, 256)
        t_norm, scale = normalized_statistic(t_raw, n, lam_n, 0.2, n ** -0.2)
        for b, res in zip((15, 40), results):
            assert (res.t_raw, res.t_normalized, res.normalizer) == (t_raw, t_norm, scale)
            assert (res.h, res.h_b, res.lam, res.lam_b) == (n ** -0.2, b ** -0.2,
                                                            lam_n, lam_b[b])
            expect = subsample_statistics(x, y, fam, b, b ** -0.2, lam_b[b], 0.2,
                                          GAUSSIAN, w, 256)
            assert np.array_equal(res.subsample_values, expect)


def test_run_spec_test_blocks_propagate_subsampling_error():
    rng = np.random.default_rng(10)
    n = 100
    x = np.cumsum(rng.standard_normal(n))
    x[20:80] = x[19]  # most length-10 windows are flat; no length-70 one is
    y = x + 0.1 * rng.standard_normal(n)
    kwargs = dict(d=0.1, lam=0.4, quad_cells=256)
    good, bad = 70, 10
    run_spec_test(x, y, "linear", 0.5, GAUSSIAN, SUPPORT,
                  blocks=[good], **kwargs)
    for blocks in ([bad], [good, bad], [bad, good]):
        with pytest.raises(SubsamplingError):
            run_spec_test(x, y, "linear", 0.5, GAUSSIAN, SUPPORT,
                          blocks=blocks, **kwargs)
    with pytest.raises(ValueError, match="blocks must hold at least one"):
        run_spec_test(x, y, "linear", 0.5, GAUSSIAN, SUPPORT,
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
    (res,) = run_spec_test(x, y, "linear", "n^-0.2", GAUSSIAN,
                           SUPPORT, d=0.1, lam="n^-0.2", blocks=[b],
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

    def run(yy):
        (res,) = run_spec_test(x, yy, family, "n^-0.2", GAUSSIAN,
                               SUPPORT, d=0.1, lam="n^-0.2", blocks=[b],
                               quad_cells=64)
        return res

    base = run(y)
    moved = run(y + np.polynomial.polynomial.polyval(x, shift))
    # 1e-8 relative; a block value near 0 is a near-perfect fit whose
    # residuals cancel, so it is held to 1e-8 of the largest block value
    tol = 1e-8
    t, blocks = base.t_normalized, base.subsample_by_block
    assert_allclose(moved.t_normalized, t, rtol=tol, atol=0)
    assert moved.n_blocks_skipped == base.n_blocks_skipped
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
                                   presample=0)
        vals = []
        for rep in range(200):
            noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2,
                                seed=rep * 104729 + n)
            path = simulate_model(spec, noise)
            y = path.x + np.sin(np.pi * path.x) + 0.2 * path.u
            theta = nls_fit("linear", path.x, y)
            t = t_statistic(path.x, y, "linear", theta, n ** -0.2,
                            GAUSSIAN, SUPPORT, quad_cells=512)
            vals.append(normalized_statistic(t, n, n ** -0.2, 0.1,
                                             n ** -0.2)[0])
        medians.append(np.median(vals))
    assert medians[0] < medians[1] < medians[2]
