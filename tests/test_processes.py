import json
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from slmcoint import (TemperedProcessSpec, NoiseConfig, tempered_coeffs,
                      simulate_innovations, simulate_regressor,
                      simulate_error_ar1, regression_function_sine,
                      sine_series_interpolator, simulate_model, scale_dn,
                      innovation_length)
from slmcoint.cli import main as cli_main
from slmcoint.processes import _SINE_RESOLUTION, _sine_table, _tempered_lag_cap, fftconvolve
from slmcoint.whittle import simulate_artfima00


# ----------------------------------------------------------- coefficients

def test_frac_coeffs_delta_at_d0():
    assert_allclose(tempered_coeffs(0.0, 0.0, 3), [1.0, 0.0, 0.0, 0.0])


def test_frac_coeffs_hand_recursion():
    # b(2) = 0.3 * 1.3 / 2 = 0.195
    assert_allclose(tempered_coeffs(0.3, 0.0, 2), [1.0, 0.3, 0.195])


def test_frac_coeffs_cumsum_filter_at_d1():
    assert_allclose(tempered_coeffs(1.0, 0.0, 3), [1.0, 1.0, 1.0, 1.0])


def test_frac_coeffs_exact_at_negative_integer():
    # d = -m gives the polynomial (1 - z)^m: the recursion needs no Gamma
    assert np.array_equal(tempered_coeffs(-3, 0.0, 6), [1, -3, 3, -1, 0, 0, 0])
    assert np.array_equal(tempered_coeffs(-1.0, 0.0, 5), [1, -1, 0, 0, 0, 0])


@pytest.mark.parametrize("d", [0.1, 0.3, 0.45, 1.0])
def test_frac_coeffs_match_log_gamma(d):
    j = np.arange(0, 10001)
    got = tempered_coeffs(d, 0.0, 10000)
    expect = np.exp(gammaln(j + d) - gammaln(d) - gammaln(j + 1.0))
    assert_allclose(got, expect, rtol=1e-10)


@pytest.mark.parametrize("d", [0.1, 0.3])
def test_frac_coeffs_tail_asymptotics(d):
    from scipy.special import gamma
    j = 100000
    b = tempered_coeffs(d, 0.0, j)[-1]
    ratio = b * gamma(d) / j ** (d - 1.0)
    assert abs(ratio - 1.0) < 0.01


def test_tempered_reduces_to_fractional_at_lam0():
    j = np.arange(51)
    expect = np.exp(gammaln(j + 0.3) - gammaln(0.3) - gammaln(j + 1.0))
    assert_allclose(tempered_coeffs(0.3, 0.0, 50), expect, rtol=1e-12)


@pytest.mark.parametrize("d", [0.0, 0.3, -0.45, 1.0])
def test_untempered_limits_are_bit_exact(d):
    # lam = 0 multiplies the recursion b(j) = b(j-1) (j-1+d) / j by
    # exp(-0.0 j) = 1.0, and J = 0 is b(0) alone
    j = np.arange(1, 61)
    recursion = np.cumprod(np.concatenate([[1.0], (j - 1.0 + d) / j]))
    assert np.array_equal(tempered_coeffs(d, 0.0, 60), recursion)
    assert np.array_equal(tempered_coeffs(d, 0.0, 0), [1.0])
    assert np.array_equal(tempered_coeffs(d, 0.4, 0), [1.0])


def test_tempered_one_term():
    assert_allclose(tempered_coeffs(0.3, 0.1, 1), [1.0, 0.3 * np.exp(-0.1)])


def test_tempered_sum_tracks_lambda_power():
    # direct summation over j <= 1e6: a(lam) ~ C * lam^{-d} at d = 0.3
    d = 0.3
    ratios = []
    for lam in (0.1, 0.05, 0.025):
        a = tempered_coeffs(d, lam, 10 ** 6).sum()
        ratios.append(a * lam ** d)
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() < 1.02
    # and the limit constant is (lam / (1 - e^-lam))^d -> 1
    assert_allclose(ratios, 1.0, atol=0.02)


@pytest.mark.parametrize("d", [0.3, 1.0])
def test_tempered_sum_scaling_dyadic(d):
    vals = []
    for lam in (0.1, 0.05, 0.025, 0.0125):
        a = TemperedProcessSpec(d=d, lam=lam, n=1000).coefficients().sum()
        vals.append(a * lam ** d)
        # closed form of the untruncated sum: (1 - e^-lam)^{-d}
        assert_allclose(a, (1.0 - np.exp(-lam)) ** (-d), rtol=1e-6)
    vals = np.asarray(vals)
    assert vals.max() / vals.min() < 1.2


# ------------------------------------------------------------- innovations

def test_innovations_independent_case():
    noise = NoiseConfig(rho=0.0, psi=0.0, sigma=1.0, seed=5)
    xi, eps = simulate_innovations(10 ** 5, noise)
    corr = np.corrcoef(xi, eps)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(10 ** 5)


def test_innovations_degenerate_correlation():
    noise = NoiseConfig(rho=1.0, psi=0.0, sigma=1.0, seed=5)
    xi, eps = simulate_innovations(100, noise)
    assert_allclose(xi, eps)


def test_innovations_target_correlation():
    noise = NoiseConfig(rho=0.5, psi=0.0, sigma=1.0, seed=5)
    xi, eps = simulate_innovations(10 ** 5, noise)
    assert abs(np.corrcoef(xi, eps)[0, 1] - 0.5) < 0.01


def test_innovations_reject_bad_rho():
    with pytest.raises(ValueError):
        NoiseConfig(rho=1.5, psi=0.0, sigma=1.0, seed=0)


@pytest.mark.parametrize("field", ["rho", "psi", "sigma"])
def test_noise_rejects_nonfinite(field):
    # each range check is false for NaN, so NaN used to reach the simulators
    values = {"rho": 0.5, "psi": 0.25, "sigma": 1.0, field: np.nan}
    with pytest.raises(ValueError, match=f"noise parameter {field} must be finite, got nan"):
        NoiseConfig(seed=0, **values)


# --------------------------------------------------------------- regressor

def test_regressor_random_walk_at_d0():
    rng = np.random.default_rng(0)
    xi = rng.standard_normal(4000)
    spec = TemperedProcessSpec(d=0.0, lam=0.0, n=100)
    x = simulate_regressor(spec, xi)
    assert_allclose(x, np.cumsum(xi[-100:]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("presample", [0, "full"])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_short_memory_is_lm_at_d0_bit_for_bit(presample, lam):
    # white shocks (d = 0) are the delta filter, trimmed to one tap, at
    # every lam: tempered at d = 0 is long memory at d = 0
    xi = np.random.default_rng(5).standard_normal(3000)
    short = TemperedProcessSpec(d=0.0, lam=lam, n=120, presample=presample)
    lm = TemperedProcessSpec(d=0.0, lam=0.0, n=120, presample=presample)
    x = simulate_regressor(short, xi)
    assert np.array_equal(x, simulate_regressor(lm, xi))
    assert np.array_equal(x, np.cumsum(xi[-120:]))


def test_regressor_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    n = 5
    spec = TemperedProcessSpec(d=0.3, lam=0.1, n=n)
    J = spec.truncation  # the tempering cap, 327
    assert J == int(np.ceil(-np.log(1e-12) / 0.1)) + 50
    xi = rng.standard_normal(n + J)
    x = simulate_regressor(spec, xi)
    phi = tempered_coeffs(0.3, 0.1, J)
    shocks = np.zeros(n)
    for s in range(1, n + 1):
        for j in range(J + 1):
            shocks[s - 1] += phi[j] * xi[J + s - 1 - j]
    assert_allclose(x, np.cumsum(shocks), atol=1e-12)


def test_regressor_fft_vs_double_loop_bigger():
    rng = np.random.default_rng(3)
    n = 100
    spec = TemperedProcessSpec(d=0.4, lam=0.0, n=n)
    J = spec.truncation
    assert J == n + 1000
    xi = rng.standard_normal(n + J)
    x = simulate_regressor(spec, xi)
    phi = tempered_coeffs(0.4, 0.0, J)
    shocks = np.array([phi @ xi[J + s - 1 - np.arange(J + 1)] for s in range(1, n + 1)])
    assert_allclose(x, np.cumsum(shocks), atol=1e-10)


def test_regressor_presample_modes():
    rng = np.random.default_rng(4)
    xi = rng.standard_normal(5000)
    full = TemperedProcessSpec(d=0.4, lam=0.0, n=100)
    none = TemperedProcessSpec(d=0.4, lam=0.0, n=100,
                               presample=0)
    x_full = simulate_regressor(full, xi)
    x_none = simulate_regressor(none, xi)
    assert not np.allclose(x_full, x_none)
    # in-sample-only shocks ignore everything before the last n draws
    xi2 = np.concatenate([np.full(500, 123.0), xi[-100:]])
    assert_allclose(simulate_regressor(none, xi2), x_none)


@pytest.mark.parametrize("spec", [
    TemperedProcessSpec(d=0.3, lam=0.0, n=200),
    TemperedProcessSpec(d=0.3, lam=0.0, n=200, presample=0),
    TemperedProcessSpec(d=0.2, lam=0.05, n=200, presample=0),
    TemperedProcessSpec(d=0.0, lam=0.0, n=200),
    TemperedProcessSpec(d=0.0, lam=0.0, n=1, presample=0),
], ids=["lm-full", "lm-0", "slm-0", "short", "n1"])
def test_regressor_cached_spectrum_equals_fftconvolve(spec):
    # the cached filter spectrum gives the bits of a plain fftconvolve,
    # on the first call and on later calls with other streams
    rng = np.random.default_rng(5)
    phi = spec.coefficients()
    nz = np.nonzero(phi)[0]
    phi = phi[:int(nz[-1]) + 1]
    need = spec.n + spec.history_lags
    for _ in range(3):
        xi = rng.standard_normal(need + 10)
        shocks = fftconvolve(xi[-need:], phi)[spec.history_lags:need]
        assert np.array_equal(simulate_regressor(spec, xi), np.cumsum(shocks))


def test_regressor_rejects_short_stream():
    spec = TemperedProcessSpec(d=0.0, lam=0.0, n=100, presample=0)
    with pytest.raises(ValueError):
        simulate_regressor(spec, np.zeros(50))


# ------------------------------------------------------------------- error

def test_error_ar1_white_noise_case():
    eps = np.arange(10.0)
    assert_allclose(simulate_error_ar1(eps, 0.0), eps)


def test_error_ar1_autocorrelation():
    rng = np.random.default_rng(6)
    eps = rng.standard_normal(200000)
    u = simulate_error_ar1(eps, 0.25, n_keep=150000)
    acf1 = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(acf1 - 0.25) < 0.02


def test_error_ar1_deterministic_probe():
    u = simulate_error_ar1(np.ones(200), 0.25)
    assert_allclose(u[-1], 4.0 / 3.0, rtol=1e-10)


def test_error_ar1_rejects_nonstationary():
    with pytest.raises(ValueError):
        simulate_error_ar1(np.ones(10), 1.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        simulate_error_ar1(np.ones((2, 5)), 0.5)


# --------------------------------------------------------- sine regression

def test_sine_zero_at_integers():
    assert regression_function_sine(0.0) == pytest.approx(0.0, abs=1e-12)
    assert regression_function_sine(1.0) == pytest.approx(0.0, abs=1e-10)


def test_sine_partial_sum_oracle():
    got = regression_function_sine(0.5, terms=10 ** 4)
    oracle = regression_function_sine(0.5, terms=10 ** 6)
    assert abs(got - oracle) < 1e-4


def test_sine_interpolator_matches_exact():
    f = sine_series_interpolator(1000)
    rng = np.random.default_rng(7)
    x = rng.uniform(-50, 50, 200)
    assert_allclose(f(x), regression_function_sine(x, 1000), atol=1e-4)


def test_sine_interpolator_equals_np_interp():
    # the evaluator folds each point into one period and reads the table
    grid, table = _sine_table(1000, _SINE_RESOLUTION)
    f = sine_series_interpolator(1000)
    rng = np.random.default_rng(17)
    probes = [grid, 0.5 * (grid[1:] + grid[:-1]),
              np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
              np.array([1.0, -1.0, 3.0, -3.0, -1e-20]), rng.uniform(-5.0, 5.0, 10 ** 5)]
    for x in probes:
        want = np.interp(np.mod(x + 1.0, 2.0) - 1.0, grid, table)
        assert np.array_equal(f(x), want)
    assert f(0.3) == np.interp(np.mod(1.3, 2.0) - 1.0, grid, table)
    assert np.ndim(f(0.3)) == 0
    assert f(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("terms, resolution", [
    (1000, 20001),  # no aliasing
    (1000, 1001),   # terms == resolution - 1: j = N folds onto 0
    (500, 101),     # every frequency above 100 folds
    (7, 2),         # N = 1: the table is identically zero
    (1, 3),
])
def test_sine_table_matches_series_on_whole_grid(terms, resolution):
    grid, table = _sine_table(terms, resolution)
    assert_allclose(grid, np.linspace(-1.0, 1.0, resolution), rtol=0, atol=0)
    assert_allclose(table, regression_function_sine(grid, terms), rtol=0, atol=1e-13)
    assert table[-1] == table[0]


def test_sine_table_rejects_bad_sizes():
    with pytest.raises(ValueError):
        _sine_table(-1, 11)
    with pytest.raises(ValueError):
        _sine_table(10, 1)


def test_zero_terms_are_the_zero_function():
    _, table = _sine_table(0, 11)
    assert np.array_equal(table, np.zeros(11)) and not np.signbit(table).any()
    x = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(regression_function_sine(x, 0), np.zeros(13))
    assert np.array_equal(sine_series_interpolator(0)(x), np.zeros(13))
    with pytest.raises(ValueError, match="terms must be >= 0"):
        regression_function_sine(x, -1)


def test_cli_simulate_zero_function_flag_is_gone(tmp_path, capsys):
    # nor are the warm-up and the sine terms options: both are fixed at 1000
    for flag in (["--zero-function"], ["--burn-in", "0"], ["--f-terms", "0"]):
        with pytest.raises(SystemExit) as err:
            cli_main(["simulate", "--n", "40", *flag, "--out", str(tmp_path)])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# ------------------------------------------------------------------- model

def _spec_noise(n=200, d=0.2, seed=11):
    spec = TemperedProcessSpec(d=d, lam=n ** -0.2, n=n)
    noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2, seed=seed)
    return spec, noise


def test_model_noiseless():
    spec, _ = _spec_noise()
    noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.0, seed=11)
    path = simulate_model(spec, noise, f=regression_function_sine)
    assert_allclose(path.y, regression_function_sine(path.x), atol=1e-12)


def test_model_pure_error():
    spec, _ = _spec_noise()
    noise = NoiseConfig(rho=0.5, psi=0.25, sigma=1.0, seed=11)
    path = simulate_model(spec, noise)
    assert_allclose(path.y, path.u, atol=1e-12)


def test_model_bitwise_determinism():
    spec, noise = _spec_noise()
    a = simulate_model(spec, noise, f=regression_function_sine)
    b = simulate_model(spec, noise, f=regression_function_sine)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u) \
        and np.array_equal(a.y, b.y)


def test_model_endogeneity_correlates_shocks_and_errors():
    spec = TemperedProcessSpec(d=0.2, lam=10000 ** -0.2, n=10000)
    noise = NoiseConfig(rho=0.5, psi=0.25, sigma=0.2, seed=12)
    path = simulate_model(spec, noise)
    shocks = np.diff(np.concatenate([[0.0], path.x]))
    corr = np.corrcoef(path.u, shocks)[0, 1]
    assert corr > 5.0 / np.sqrt(spec.n)


def test_model_csv_roundtrip(tmp_path):
    # `slmcoint simulate` writes path.csv with repr floats: reading it back
    # gives the simulated arrays exactly
    spec, noise = _spec_noise(n=50)
    path = simulate_model(spec, noise, f=regression_function_sine)
    assert cli_main(["simulate", "--n", "50", "--d", "0.2", "--lam", repr(spec.lam),
                     "--seed", "11", "--out", str(tmp_path)]) == 0
    data = np.genfromtxt(tmp_path / "path.csv", delimiter=",", names=True)
    assert np.array_equal(data["k"], np.arange(1, 51))
    assert np.array_equal(data["x"], path.x) and np.array_equal(data["u"], path.u) \
        and np.array_equal(data["y"], path.y)


def test_innovation_length_shared_across_settings():
    a = TemperedProcessSpec(d=0.0, lam=0.0, n=100)
    b = TemperedProcessSpec(d=2.0, lam=0.3, n=100)
    assert innovation_length(a) == innovation_length(b)


# ------------------------------------------------------------------ scales

def test_scale_dn_short():
    assert scale_dn(100, 0.0, 0.0) == pytest.approx(10.0)


@pytest.mark.parametrize("n", [100, 37, 2000])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_scale_dn_short_is_sqrt_n_bit_for_bit(n, lam):
    # at d = 0 the long-memory scale (lam = 0) is n ** 0.5 and the semi-long
    # one np.sqrt(n), which differ in the last bit at n = 2921 but not here
    assert scale_dn(n, lam, 0.0) == np.sqrt(n) == float(n) ** 0.5


def test_scale_dn_slm_unit_lambda():
    assert scale_dn(100, 1.0, 0.37) == pytest.approx(10.0)


def test_scale_dn_lm():
    assert scale_dn(100, 0.0, 0.25) == pytest.approx(100 ** 0.75)


@pytest.mark.parametrize("lam, d, message", [
    (0.0, 0.5, "0 <= d < 1/2"), (0.0, 0.7, "0 <= d < 1/2"), (0.0, -0.1, "0 <= d < 1/2"),
    (-0.1, 0.2, "lam must be >= 0")])
def test_scale_dn_checks_long_memory_rule(lam, d, message):
    with pytest.raises(ValueError, match=message):
        scale_dn(100, lam, d)


def test_partial_sum_scaling_bounded():
    # x_n / d_N has stable dispersion across n (no trend), per the
    # convergence of the normalized partial sum to Brownian motion
    d = 0.3
    stds = []
    for n in (500, 1000, 2000):
        lam = n ** -0.2
        spec = TemperedProcessSpec(d=d, lam=lam, n=n)
        vals = []
        for rep in range(500):
            rng = np.random.default_rng([rep, 99, n])
            xi = rng.standard_normal(innovation_length(spec))
            x = simulate_regressor(spec, xi)
            vals.append(x[-1] / scale_dn(n, lam, d))
        stds.append(np.std(vals))
    stds = np.asarray(stds)
    assert np.all((stds > 0.7) & (stds < 1.4))
    assert stds.max() / stds.min() < 1.15


# -------------------------------------------------------------- validation

def test_spec_validation_errors():
    with pytest.raises(ValueError, match="long memory requires 0 <= d < 1/2, got 0.6"):
        TemperedProcessSpec(d=0.6, lam=0.0, n=10)
    with pytest.raises(ValueError, match="tempering parameter lam must be >= 0"):
        TemperedProcessSpec(d=0.3, lam=-0.1, n=10)
    with pytest.raises(ValueError):
        NoiseConfig(rho=0.5, psi=1.2, sigma=1.0, seed=0)


@pytest.mark.parametrize("d, lam, message", [
    (np.nan, 0.2, "memory parameter d must be finite, got nan"),
    (0.3, np.nan, "tempering parameter lam must be finite, got nan"),
], ids=["d-nan", "lam-nan"])
def test_spec_rejects_nonfinite_memory(d, lam, message):
    # at the parent, lam=nan ran untempered and d=nan gave NaN coefficients
    with pytest.raises(ValueError, match=message):
        TemperedProcessSpec(d=d, lam=lam, n=10)


def _truncation(lam, d=0.0):
    return TemperedProcessSpec(d=d, lam=lam, n=1000).truncation


def test_spec_truncation_capped_under_tempering():
    # n + 1000, capped at the tempering lag once lam > 0, whatever d
    cap = int(np.ceil(-np.log(1e-12) / 0.5)) + 50
    assert _truncation(0.0, d=0.3) == 2000
    assert _truncation(0.5, d=0.3) == cap
    assert _truncation(1e-9, d=0.3) == 2000
    assert _truncation(0.0) == 2000
    assert _truncation(0.5) == cap


def test_subnormal_lam_truncates_at_the_limit():
    # -ln(tol) / lam overflows at lam = 1e-310; lam * limit, tested first,
    # does not: the spec keeps n + 1000 lags and the simulator 4 n
    assert _tempered_lag_cap(1e-310, 200) == 200 and _tempered_lag_cap(0.0, 200) == 200
    assert _tempered_lag_cap(0.5, 2000) == int(np.ceil(-np.log(1e-12) / 0.5)) + 50
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _truncation(1e-310, d=0.3) == 2000
        z = simulate_artfima00(50, d=0.3, lam=1e-310, rng=np.random.default_rng(0))
    eps = np.random.default_rng(0).standard_normal(250)
    assert np.array_equal(z, fftconvolve(eps, tempered_coeffs(0.3, 1e-310, 200))[200:250])


def test_cli_simulates_a_subnormal_lam(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["simulate", "--n", "60", "--d", "0.3",
                         "--lam", "1e-310", "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "path.csv").exists()


def test_spec_rejects_negative_d_under_semi_long_memory():
    # the statistics take a fitted d of either sign; a simulated semi-long
    # regressor needs d >= 0 (the study grid asks the same rule)
    with pytest.raises(ValueError, match=r"^d: a simulated semi-long-memory regressor "
                                         r"needs d >= 0, got -0\.1$"):
        TemperedProcessSpec(d=-0.1, lam=0.1, n=10)
    assert TemperedProcessSpec(d=0.0, lam=0.1, n=10).d == 0.0


@pytest.mark.parametrize("presample", [2.7, True, None, "abc", "2.5", -3, np.float64(4.0), 7])
def test_spec_rejects_bad_presample(presample):
    # int() once turned 2.7 into 2 and True into 1, and raised a bare
    # TypeError on None and a parse error that did not name presample on "abc";
    # a count of pre-sample lags other than 0 is no longer taken
    with pytest.raises(ValueError, match=r"^presample must be 'full' or 0, got "):
        TemperedProcessSpec(d=0.3, lam=0.0, n=50, presample=presample)


def _spec(**kw):
    return TemperedProcessSpec(**{"d": 0.3, "lam": 0.0, "n": 50, **kw})


@pytest.mark.parametrize("build, message", [
    (lambda: _spec(n=50.5), "n must be an integer, got 50.5"),
    (lambda: _spec(n=True), "n must be an integer, got True"),
    (lambda: _spec(n=0), "n must be >= 1, got 0"),
    (lambda: tempered_coeffs(0.3, 0.0, 4.0), "n_lags must be an integer, got 4.0"),
    (lambda: simulate_innovations(8.0, NoiseConfig(0.5, 0.25, 0.2, 0)),
     "n_total must be an integer, got 8.0"),
    (lambda: regression_function_sine(0.5, terms=2.5), "terms must be an integer, got 2.5"),
    (lambda: _sine_table(10.0, 65), "terms must be an integer, got 10.0"),
    (lambda: _sine_table(10, 65.0), "resolution must be an integer, got 65.0"),
], ids=["n-float", "n-bool", "n-zero", "n_lags",
        "n_total", "terms", "table-terms", "table-resolution"])
def test_counts_must_be_integers(build, message):
    # a fractional count once built a spec with truncation 61.0 and failed
    # later inside numpy; numpy integers are counts
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
    assert _spec(n=np.int64(50)).truncation == 1050
    assert tempered_coeffs(0.3, 0.0, np.int64(4)).shape == (5,)


def test_spec_presample_takes_full_or_a_count():
    for presample, lags in (("full", 1050), (0, 0), (np.int64(0), 0)):
        spec = TemperedProcessSpec(d=0.3, lam=0.0, n=50, presample=presample)
        assert spec.history_lags == lags
    assert type(spec.presample) is int  # a numpy 0 is stored as an int


@pytest.mark.parametrize("presample", ["2.5", "abc", "-3", "Full", "5"])
def test_cli_simulate_rejects_bad_presample(tmp_path, capsys, presample):
    with pytest.raises(SystemExit) as err:
        cli_main(["simulate", "--n", "40", "--presample", presample,
                  "--out", str(tmp_path / "sim")])
    assert err.value.code == 2
    assert (f"argument --presample: invalid choice: {presample!r} (choose from 'full', '0')"
            in capsys.readouterr().err)
    assert not (tmp_path / "sim").exists()


def test_cli_simulate_presample_count(tmp_path):
    assert cli_main(["simulate", "--n", "40", "--presample", "0",
                     "--out", str(tmp_path)]) == 0
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["spec"]["presample"] == 0


def test_spec_truncation_is_derived():
    with pytest.raises(TypeError, match="truncation"):
        TemperedProcessSpec(d=0.3, lam=0.1, n=50, truncation=0)
    with pytest.raises(TypeError, match="burn_in"):
        TemperedProcessSpec(d=0.3, lam=0.1, n=50, burn_in=20)
    spec = TemperedProcessSpec(d=0.3, lam=0.0, n=50)
    assert spec.to_dict() == {"d": 0.3, "lam": 0.0, "n": 50, "presample": "full",
                              "truncation": 1050}
