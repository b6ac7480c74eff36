import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import slmcoint.whittle as whittle
from slmcoint import (periodogram, whittle_objective, profile_sigma2,
                      one_step_residuals, fit_artfima00, fit_arfima00,
                      simulate_artfima00)
from slmcoint.mc import write_json

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------- spectrum

def _shape(d, lam, w):
    """The spectral density over sigma^2 / 2 pi, exp(-d ln m), as the fits
    compute it."""
    return np.exp(-d * whittle._log_mod2(lam, whittle._sin2_half(np.asarray(w, dtype=float))))


def test_spectral_density_strong_tempering_flattens():
    w = np.linspace(0.1, np.pi, 20)
    assert_allclose(_shape(0.7, 50.0, w), 1.0, rtol=1e-12)


def test_spectral_density_complex_modulus_oracle():
    w = np.array([1e-3, 0.1, np.pi / 2, np.pi])
    for d, lam in [(0.3, 0.1), (-0.8, 1e-6), (2.5, 0.12), (1.0, 2.0)]:
        expect = np.abs(1 - np.exp(-(lam + 1j * w))) ** (-2 * d)
        assert_allclose(_shape(d, lam, w), expect, rtol=1e-12)


@pytest.mark.parametrize("d, lam, message", [
    (np.nan, 0.1, "memory parameter d must be finite, got nan"),
    (0.3, np.inf, "tempering parameter lam must be finite, got inf"),
    (0.3, -1.0, "tempering parameter lam must be >= 0, got -1.0"),
], ids=["d-nan", "lam-inf", "lam-negative"])
def test_residuals_reject_bad_parameters(d, lam, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        one_step_residuals(np.random.default_rng(0).standard_normal(64), d, lam)


# -------------------------------------------------------------- periodogram

def test_periodogram_constant_series_zero():
    with pytest.warns(RuntimeWarning):
        freqs, I = periodogram(np.full(32, 5.0))
    assert_allclose(I, 0.0)
    assert freqs.shape == ((32 - 1) // 2,)


def test_fits_reject_series_without_power_at_fourier_frequencies():
    # +1, -1, +1, ... is not constant, but all its power sits at frequency
    # pi, which the Whittle sum leaves out: the periodogram is all zero
    z = np.tile([1.0, -1.0], 32)
    freqs, I = periodogram(z)
    assert not np.any(I)
    for fit in (fit_artfima00, fit_arfima00):
        with pytest.raises(ValueError, match="no power at any Fourier frequency"):
            fit(z)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_series(bad):
    z = np.cumsum(np.random.default_rng(3).standard_normal(64))
    z[10] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fit_artfima00(z)
    with pytest.raises(ValueError, match="non-finite"):
        one_step_residuals(z, 0.4, 0.1)


@pytest.mark.parametrize("shape", [(100, 2), (2, 100), ()])
def test_periodogram_and_fits_reject_non_1d_series(shape):
    z = np.random.default_rng(3).standard_normal(shape)
    message = re.escape(f"the series must be 1-D, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        periodogram(z)
    if shape:  # a 0-d series is too short before it is not 1-D
        for fit in (fit_arfima00, fit_artfima00):
            with pytest.raises(ValueError, match=message):
                fit(z)


@pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
def test_periodogram_out_of_float_range_is_rejected(scale):
    # at 1e200 the periodogram overflows to inf, at 1e-160 it is subnormal,
    # and at 1e-200 it is all zero, as for a constant series
    z = simulate_artfima00(500, d=0.4, lam=0.1, rng=np.random.default_rng(12))
    for call in (periodogram, fit_artfima00, fit_arfima00):
        with pytest.raises(ValueError, match="out of float range.*rescale the series"):
            call(scale * z)
    # a power-of-two rescale into range changes no periodogram bit
    freqs, I = periodogram(z)
    assert np.array_equal(periodogram(2.0 ** 100 * z)[1], 2.0 ** 200 * I)


def test_periodogram_pure_cosine_concentrates():
    n, j0 = 64, 5
    k = np.arange(1, n + 1)
    z = np.cos(TWO_PI * j0 * k / n)
    freqs, I = periodogram(z)
    assert np.argmax(I) == j0 - 1
    others = np.delete(I, j0 - 1)
    assert I[j0 - 1] > 1e6 * others.max()


def test_periodogram_matches_naive_dft():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(16)
    freqs, I = periodogram(z)
    zc = z - z.mean()
    k = np.arange(1, 17)
    for j in range(1, (16 - 1) // 2 + 1):
        w = TWO_PI * j / 16
        direct = abs(np.sum(zc * np.exp(-1j * w * k))) ** 2 / (TWO_PI * 16)
        assert I[j - 1] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_periodogram_parseval():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(256)
    freqs, I = periodogram(z)
    total = I.sum() * (TWO_PI / 256) * 2
    assert total == pytest.approx(np.var(z), rel=0.05)


# ---------------------------------------------------------------- objective

def test_log_mod2_has_no_low_frequency_cancellation():
    # against the complex modulus in 50 digits: the expanded form
    # 1 - 2 e^{-lam} cos w + e^{-2 lam} was off by 1.9e-11 relative at
    # w = 2 pi / 2000 and lam = 1e-6
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    freqs = TWO_PI * np.array([1, 2, 7, 500, 999]) / 2000
    for lam in (0.0, 1e-6, 1e-3, 0.12, 2.0):
        got = whittle._log_mod2(lam, whittle._sin2_half(freqs))
        want = [float(mpmath.log(abs(1 - mpmath.exp(-(lam + 1j * mpmath.mpf(w)))) ** 2))
                for w in freqs]
        assert_allclose(got, want, rtol=4e-15, atol=0)


def test_objective_reduces_to_log_mean_at_d0():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(512)
    freqs, I = periodogram(z)
    w0 = whittle_objective(0.0, 0.5, freqs, I)
    w1 = whittle_objective(0.0, 1.5, freqs, I)
    assert w0 == pytest.approx(np.log(I.mean()), rel=1e-12)
    assert w0 == pytest.approx(w1, rel=1e-12)


def _pow_and_log_objective(d, lam, freqs, I):
    """The objective in its former form, ln mean(I / g) + mean(ln g) with
    g = m**(-d), and m = |1 - e^{-(lam + i w)}|^2 expanded as the library
    computes it."""
    m = np.expm1(-lam) ** 2 + 4.0 * np.exp(-lam) * np.sin(0.5 * freqs) ** 2
    g = m ** (-d)
    return np.log(np.mean(I / g)) + np.mean(np.log(g))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_objective_equals_pow_and_log_form(seed):
    rng = np.random.default_rng([seed, 43])
    z = simulate_artfima00(int(rng.integers(64, 3000)), d=rng.uniform(0.0, 1.5),
                           lam=rng.uniform(0.01, 1.0), rng=rng)
    freqs, I = periodogram(z)
    d = rng.uniform(*whittle.ARTFIMA_D_RANGE, size=40)
    lam = np.exp(rng.uniform(*np.log(whittle.ARTFIMA_LAM_RANGE), size=40))
    lam[:10] = 0.0
    new = np.array([whittle_objective(dv, lv, freqs, I) for dv, lv in zip(d, lam)])
    old = np.array([_pow_and_log_objective(dv, lv, freqs, I) for dv, lv in zip(d, lam)])
    # 1e-12 relative, or absolute for a cell whose objective is near 0
    assert_allclose(new, old, rtol=1e-12, atol=1e-12)
    assert_allclose(whittle_objective(d[:, None], lam, freqs, I),
                    [[_pow_and_log_objective(dv, lv, freqs, I) for lv in lam] for dv in d],
                    rtol=1e-12, atol=1e-12)


def test_objective_at_d0_is_log_mean_exactly():
    z = simulate_artfima00(999, d=0.8, lam=0.2, rng=np.random.default_rng(4))
    freqs, I = periodogram(z)
    lam = np.array([0.0, 1e-6, 0.3, 2.0])
    assert all(whittle_objective(0.0, lv, freqs, I) == np.log(np.mean(I)) for lv in lam)
    assert (whittle_objective(np.zeros((3, 1)), lam, freqs, I) == np.log(np.mean(I))).all()


def test_objective_mean_shift_invariance():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(512)
    f0, I0 = periodogram(z)
    f1, I1 = periodogram(z + 1234.5)
    assert whittle_objective(0.4, 0.1, f0, I0) == pytest.approx(
        whittle_objective(0.4, 0.1, f1, I1), rel=1e-9)


@pytest.mark.parametrize("seed, zero_pgram", [(0, False), (1, False), (2, False),
                                              (3, True)])
def test_objective_broadcast_matches_scalar_calls(seed, zero_pgram):
    rng = np.random.default_rng([seed, 41])
    z = simulate_artfima00(300, d=rng.uniform(0.0, 1.5), lam=rng.uniform(0.01, 1.0),
                           rng=rng)
    freqs, I = periodogram(z)
    if zero_pgram:  # every ratio is 0: every cell is inf
        I = np.zeros_like(I)
    d = rng.uniform(-1.0, 3.0, size=(5, 1))
    d[0, 0] = 1e6  # the transfer overflows to inf and underflows to 0: inf cells
    lam = np.append(rng.uniform(1e-6, 2.0, size=6), np.nan)  # nan: inf cells
    with np.errstate(all="ignore"):
        grid = whittle_objective(d, lam, freqs, I)
        loop = [[whittle_objective(dv, lv, freqs, I) for lv in lam] for dv in d[:, 0]]
    assert grid.shape == (5, 7)
    assert np.isinf(grid[0]).all() and np.isinf(grid[:, -1]).all()
    assert np.isfinite(grid[1:, :-1]).all() != zero_pgram
    assert np.array_equal(grid, np.array(loop))
    # a 0-d or scalar call is a float
    assert type(whittle_objective(np.asarray(d[1, 0]), lam[0], freqs, I)) is float
    assert type(whittle_objective(float(d[1, 0]), np.float64(lam[0]), freqs, I)) is float


def _scalar_scan(z, d_grid, lam_grid):
    """Minimum of a scalar-call loop over the grid."""
    freqs, I = periodogram(z)
    return min(whittle_objective(dv, lv, freqs, I) for dv in d_grid for lv in lam_grid)


def _fit_grids():
    """The ARTFIMA and ARFIMA (d, lam) grids the fits once started from: d
    steps of 0.05 and 0.025 (the last ARTFIMA d, 3 + 3.6e-15, lies outside
    its range), and 20 log-spaced lam."""
    art_d = np.arange(whittle.ARTFIMA_D_RANGE[0], whittle.ARTFIMA_D_RANGE[1] + 1e-9, 0.05)
    art_lam = np.geomspace(*whittle.ARTFIMA_LAM_RANGE, whittle._GRID_LAM_POINTS)
    arf_d = np.arange(whittle.ARFIMA_D_RANGE[0], whittle.ARFIMA_D_RANGE[1] + 1e-9, 0.025)
    return (art_d, art_lam), (arf_d, np.zeros(1))


def _at_most(fit, scan_min):
    """The fit's objective is no higher than a scan's minimum, to rounding."""
    assert fit.objective <= scan_min + 1e-12 * max(1.0, abs(scan_min)), (fit, scan_min)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_fit_grid_matches_scalar_scan(seed):
    rng = np.random.default_rng([seed, 5])
    z = simulate_artfima00(600, d=rng.uniform(0.3, 1.2), lam=rng.uniform(0.05, 0.5),
                           rng=rng)
    for fit, (d_grid, lam_grid) in zip((fit_artfima00, fit_arfima00), _fit_grids()):
        _at_most(fit(z), _scalar_scan(z, d_grid, lam_grid))


def _full_scan(d_grid, lam_grid, freqs, I):
    """Minimum of one broadcast call over the whole grid."""
    with np.errstate(all="ignore"):
        return np.min(whittle_objective(d_grid[:, None], lam_grid, freqs, I))


def _rule_series(kind, n, rng):
    """A unit-variance series of one of the grid-rule test's kinds."""
    if kind == "white":
        z = rng.standard_normal(n)
    elif kind == "double-integrated":
        z = np.cumsum(np.cumsum(rng.standard_normal(n)))
    elif kind == "near-sinusoid":
        z = np.sin(0.7 * np.arange(n)) + 1e-3 * rng.standard_normal(n)
    else:
        z = simulate_artfima00(n, d=1.0, lam=0.12, rng=rng)
    return z / np.std(z)


@pytest.mark.parametrize("kind", ["white", "double-integrated", "near-sinusoid", "artfima"])
def test_fit_grid_rule_matches_full_broadcast_scan(kind):
    # the fits end no higher than the minimum of the old start grid, by one
    # broadcast call, at the CKC lengths and at n = 500 and 2000, at tiny
    # and huge scales
    rng = np.random.default_rng(16)
    for n in (59, 101, 170, 500, 2000):
        for scale in (1e-150, 1e150):
            z = scale * _rule_series(kind, n, rng)
            freqs, I = periodogram(z)
            for fit, (d_grid, lam_grid) in zip((fit_artfima00, fit_arfima00), _fit_grids()):
                _at_most(fit(z), _full_scan(d_grid, lam_grid, freqs, I))


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_fit_objective_equals_scalar_call(seed):
    # the fits pass precomputed ln m rows; a scalar call computes its own
    rng = np.random.default_rng([seed, 5])
    z = simulate_artfima00(600, d=rng.uniform(0.3, 1.2), lam=rng.uniform(0.05, 0.5),
                           rng=rng)
    freqs, I = periodogram(z)
    for fit in (fit_artfima00(z), fit_arfima00(z)):
        assert fit.objective == whittle_objective(fit.d_hat, fit.lambda_hat, freqs, I)
        assert fit.sigma2_hat == profile_sigma2(fit.d_hat, fit.lambda_hat, freqs, I)


def test_profile_sigma2_white_noise():
    rng = np.random.default_rng(4)
    z = 1.3 * rng.standard_normal(4096)
    freqs, I = periodogram(z)
    assert profile_sigma2(0.0, 0.0, freqs, I) == pytest.approx(1.69, rel=0.1)


# ----------------------------------------------------------------- fitting

def test_grid_refinement_within_one_cell():
    rng = np.random.default_rng(5)
    z = simulate_artfima00(1024, d=1.0, lam=0.12, rng=rng)
    freqs, I = periodogram(z)
    fit = fit_artfima00(z)
    d_grid = np.linspace(-1.0, 3.0, 50)
    lam_grid = np.geomspace(1e-6, 2.0, 50)
    best = (np.inf, None, None)
    for dv in d_grid:
        for lv in lam_grid:
            w = whittle_objective(dv, lv, freqs, I)
            if w < best[0]:
                best = (w, dv, lv)
    assert abs(fit.d_hat - best[1]) <= (d_grid[1] - d_grid[0]) + 1e-9
    ratio = lam_grid[1] / lam_grid[0]
    assert best[2] / ratio <= fit.lambda_hat <= best[2] * ratio
    assert fit.objective <= best[0] + 1e-12


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_fits_report_d_inside_its_range(seed):
    # a near-sinusoid pushes the ARTFIMA fit to d's upper bound and the
    # ARFIMA fit to its own; neither reports a d beyond it
    rng = np.random.default_rng(seed)
    z = np.sin(0.7 * np.arange(500)) + 1e-3 * rng.standard_normal(500)
    for fit, (lo, hi) in ((fit_artfima00, whittle.ARTFIMA_D_RANGE),
                          (fit_arfima00, whittle.ARFIMA_D_RANGE)):
        result = fit(z)
        assert lo <= result.d_hat <= hi and result.boundary


def test_white_noise_d_near_zero():
    dhats = []
    for rep in range(100):
        rng = np.random.default_rng([rep, 17])
        z = rng.standard_normal(2000)
        dhats.append(fit_arfima00(z).d_hat)
    assert abs(np.median(dhats)) < 0.1


def test_round_trip_refit():
    rng = np.random.default_rng(6)
    z = simulate_artfima00(4000, d=1.0, lam=0.12, rng=rng)
    fit = fit_artfima00(z)
    rng2 = np.random.default_rng(7)
    z2 = simulate_artfima00(4000, d=fit.d_hat, lam=fit.lambda_hat,
                            sigma2=fit.sigma2_hat, rng=rng2)
    refit = fit_artfima00(z2)
    assert refit.d_hat == pytest.approx(fit.d_hat, abs=0.3)
    assert refit.lambda_hat == pytest.approx(fit.lambda_hat, abs=0.08)


def test_arfima_lambda_exactly_zero():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(256)
    fit = fit_arfima00(z)
    assert fit.lambda_hat == 0.0
    assert fit.model == "arfima00"
    assert fit.sigma2_hat > 0


def test_fit_rejects_degenerate():
    with pytest.raises(ValueError):
        fit_artfima00(np.full(100, 3.0))
    with pytest.raises(ValueError):
        fit_artfima00(np.arange(8.0))


@pytest.mark.parametrize("kwargs, message", [
    ({"d": np.nan}, "memory parameter d must be finite, got nan"),
    ({"lam": np.nan}, "tempering parameter lam must be finite, got nan"),
    ({"lam": -0.1}, "tempering parameter lam must be >= 0, got -0.1"),
    ({"sigma2": -1.0}, "sigma2 must be finite and > 0, got -1.0"),
    ({"sigma2": np.nan}, "sigma2 must be finite and > 0, got nan"),
], ids=["d-nan", "lam-nan", "lam-negative", "sigma2-negative", "sigma2-nan"])
def test_simulate_rejects_bad_parameters(kwargs, message):
    params = {"d": 0.4, "lam": 0.1, "sigma2": 1.0, **kwargs}
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_artfima00(64, rng=np.random.default_rng(0), **params)


def test_one_step_residuals_white_noise_identity():
    rng = np.random.default_rng(9)
    z = rng.standard_normal(64)
    resid = one_step_residuals(z, 0.0, 0.0)
    assert_allclose(resid, z - z.mean(), atol=1e-12)


def test_one_step_residuals_third_difference_at_upper_bound():
    # a bounded ARTFIMA fit can stop at d = 3, where the AR weights are the
    # polynomial (1 - z)^3
    rng = np.random.default_rng(11)
    z = rng.standard_normal(64)
    zc = z - z.mean()
    resid = one_step_residuals(z, 3.0, 0.0)
    assert_allclose(resid[3:], zc[3:] - 3 * zc[2:-1] + 3 * zc[1:-2] - zc[:-3],
                    atol=1e-12)


def test_fit_json_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    z = simulate_artfima00(512, d=0.8, lam=0.15, rng=rng)
    fit = fit_artfima00(z)
    out = write_json(tmp_path / "fit.json", fit.to_dict())
    import json
    payload = json.loads(out.read_text())
    assert payload["d_hat"] == fit.d_hat
    assert payload["model"] == "artfima00"
