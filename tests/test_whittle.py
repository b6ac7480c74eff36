import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import slmcoint.whittle as whittle
from slmcoint import (artfima_spectral_density, periodogram, whittle_objective,
                      profile_sigma2, one_step_residuals, fit_artfima00,
                      fit_arfima00, simulate_artfima00)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------- spectrum

def test_spectral_density_white_noise():
    w = np.linspace(0.1, np.pi, 20)
    assert_allclose(artfima_spectral_density(0.0, 0.3, 2.0, w),
                    2.0 / TWO_PI, rtol=1e-12)


def test_spectral_density_strong_tempering_flattens():
    w = np.linspace(0.1, np.pi, 20)
    f = artfima_spectral_density(0.7, 50.0, 1.0, w)
    assert_allclose(f, 1.0 / TWO_PI, rtol=1e-12)


def test_spectral_density_complex_modulus_oracle():
    d, lam, s2, w = 0.3, 0.1, 1.7, np.pi / 2
    expect = (s2 / TWO_PI) * abs(1 - np.exp(-lam) * (np.cos(w) - 1j * np.sin(w))) ** (-2 * d)
    assert artfima_spectral_density(d, lam, s2, w) == pytest.approx(expect, rel=1e-12)


def test_spectral_density_rejects_zero_frequency():
    with pytest.raises(ValueError):
        artfima_spectral_density(0.3, 0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        artfima_spectral_density(0.3, 0.1, -1.0, 0.5)


# -------------------------------------------------------------- periodogram

def test_periodogram_constant_series_zero():
    with pytest.warns(RuntimeWarning):
        freqs, I = periodogram(np.full(32, 5.0))
    assert_allclose(I, 0.0)
    assert freqs.shape == ((32 - 1) // 2,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_series(bad):
    z = np.cumsum(np.random.default_rng(3).standard_normal(64))
    z[10] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fit_artfima00(z)


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

def test_objective_reduces_to_log_mean_at_d0():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(512)
    freqs, I = periodogram(z)
    w0 = whittle_objective(0.0, 0.5, freqs, I)
    w1 = whittle_objective(0.0, 1.5, freqs, I)
    assert w0 == pytest.approx(np.log(I.mean()), rel=1e-12)
    assert w0 == pytest.approx(w1, rel=1e-12)


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
    """First minimum of a scalar-call loop over the grid, d-major."""
    freqs, I = periodogram(z)
    best, cell = np.inf, None
    for dv in d_grid:
        for lv in lam_grid:
            w = whittle_objective(dv, lv, freqs, I)
            if w < best:
                best, cell = w, (dv, lv)
    return best, cell


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_fit_grid_matches_scalar_scan(seed, monkeypatch):
    starts = []
    real_minimize = whittle.minimize

    def spy(fun, x0, **kwargs):
        starts.append(tuple(x0))
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(whittle, "minimize", spy)
    rng = np.random.default_rng([seed, 5])
    z = simulate_artfima00(600, d=rng.uniform(0.3, 1.2), lam=rng.uniform(0.05, 0.5),
                           rng=rng)
    art_d = np.arange(whittle.ARTFIMA_D_RANGE[0], whittle.ARTFIMA_D_RANGE[1] + 1e-9,
                      whittle._GRID_D_STEP)
    art_lam = np.geomspace(*whittle.ARTFIMA_LAM_RANGE, whittle._GRID_LAM_POINTS)
    arf_d = np.arange(whittle.ARFIMA_D_RANGE[0], whittle.ARFIMA_D_RANGE[1] + 1e-9,
                      whittle._GRID_D_STEP / 2)
    art, arf = fit_artfima00(z), fit_arfima00(z)
    art_obj, art_cell = _scalar_scan(z, art_d, art_lam)
    arf_obj, arf_cell = _scalar_scan(z, arf_d, [0.0])
    assert art.grid_objective == art_obj and arf.grid_objective == arf_obj
    assert starts == [art_cell, arf_cell[:1]]


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
    assert fit.objective <= fit.grid_objective + 1e-12


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
    out = tmp_path / "fit.json"
    fit.to_json(out)
    import json
    payload = json.loads(out.read_text())
    assert payload["d_hat"] == fit.d_hat
    assert payload["model"] == "artfima00"
