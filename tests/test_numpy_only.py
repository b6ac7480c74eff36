"""``import slmcoint`` loads numpy only.  The library's FFT convolution and
AR(1) recursion stand in for scipy's, and each must return exactly scipy's
floats, which these tests compare by ``==``; the stdlib normal quantile
matches scipy's to 1.2e-15 relative.  The Whittle fits' profile search is
held to scipy's bounded Nelder-Mead from the same grid start: an objective at
most 1e-12 max(1, |W|) above it, and d and lam within 1e-7."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize, signal, stats
from scipy.fft import next_fast_len

import slmcoint
import slmcoint.whittle as whittle
from slmcoint.kernel_regression import _normal_quantile
from slmcoint.processes import _fast_len, fftconvolve, simulate_error_ar1


def _env():
    """The environment of a child interpreter that imports this slmcoint."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slmcoint.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_import_loads_no_scipy():
    code = ("import sys, slmcoint, slmcoint.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ------------------------------------------------------------ convolution

@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000, 1024, 1025, 3001 + 4000 - 1, 5000, 65537])
def test_fast_len_matches_scipy(n):
    assert _fast_len(n) == next_fast_len(n, True)


@pytest.mark.parametrize("na, nb", [
    (4000, 3001), (3000, 2001), (2000, 51), (170, 51), (59, 51),
    (4000, 1), (1, 51), (2, 2),
])
def test_fftconvolve_matches_scipy(na, nb):
    rng = np.random.default_rng([na, nb])
    a, b = rng.standard_normal(na), rng.standard_normal(nb)
    got = fftconvolve(a, b)
    assert got.shape == (na + nb - 1,)
    assert np.array_equal(got, signal.fftconvolve(a, b))


@pytest.mark.parametrize("psi", [0.0, 0.25, -0.7, 0.95])
def test_ar1_matches_lfilter(psi):
    eps = np.random.default_rng(3).standard_normal(4000)
    want = signal.lfilter([1.0], [1.0, -psi], eps)
    assert np.array_equal(simulate_error_ar1(eps, psi), want)
    assert np.array_equal(simulate_error_ar1(eps, np.float64(psi), n_keep=1000),
                          want[-1000:])


# -------------------------------------------------------------- quantile

@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2, 0.5, 1e-6, 1.0])
def test_normal_quantile_matches_norm_ppf(alpha):
    # the stdlib inverse (Wichura's AS241) and scipy's ndtri differ by at
    # most 1.2e-15 relative; the lower tail keeps alpha/2 exact, where
    # 1 - alpha/2 would round (3e-12 relative at alpha = 1e-6)
    want = -stats.norm.ppf(alpha / 2.0)
    assert abs(_normal_quantile(alpha) - want) <= 1.2e-15 * want


def test_normal_quantile_edges():
    assert math.copysign(1.0, _normal_quantile(1.0)) == 1.0  # +0.0, not -0.0
    assert _normal_quantile(1.0) == 0.0
    assert _normal_quantile(1e-300) == pytest.approx(37.0658, abs=1e-4)


def test_intervals_run_without_scipy(tmp_path):
    # a coverage study and the estimate command, with any import of scipy
    # made to fail
    code = f"""
import sys
sys.modules["scipy"] = None
from slmcoint import StudyConfig, run_study
from slmcoint.cli import main
config = StudyConfig(study_kind="coverage", n=80, replications=2,
                     d_values=[0.1], memory_settings=["SLM3"],
                     bandwidth_exponents=["n^-1/3"])
length = run_study(config).tables["length"][0]["value"]
assert length > 0, length
out = {str(tmp_path)!r}
assert main(["simulate", "--n", "60", "--out", out + "/sim"]) == 0
assert main(["estimate", "--data", out + "/sim/path.csv", "--alpha", "0.05",
             "--out", out + "/est"]) == 0
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "ok"


# ------------------------------------------------------ Whittle refinement

_FITS = {"artfima00": (whittle.ARTFIMA_D_RANGE, 0.05, True, 4000),
         "arfima00": (whittle.ARFIMA_D_RANGE, 0.025, False, 2000)}


def _scipy_refinement(z, model):
    """(d, lam, objective) of the least cell of a (d, lam) grid scan refined
    by scipy's bounded Nelder-Mead on scalar objective calls, the search the
    fits made before their profile search; the grid cell where it is worse."""
    (d_lo, d_hi), step, free_lam, maxiter = _FITS[model]
    d_grid = np.arange(d_lo, d_hi + 1e-9, step)
    lam_grid = (np.geomspace(*whittle.ARTFIMA_LAM_RANGE, whittle._GRID_LAM_POINTS)
                if free_lam else np.zeros(1))
    freqs, pgram = whittle.periodogram(z)
    objs = whittle.whittle_objective(d_grid[:, None], lam_grid, freqs, pgram)
    row, col = np.unravel_index(np.argmin(objs), objs.shape)
    value = objs[row, col]
    bounds = [(d_lo, d_hi), whittle.ARTFIMA_LAM_RANGE][:1 + free_lam]
    start = np.clip([d_grid[row], lam_grid[col]][:len(bounds)], *np.transpose(bounds))

    def objective(p):
        return whittle.whittle_objective(p[0], p[1] if free_lam else 0.0, freqs, pgram)

    res = optimize.minimize(objective, start, method="Nelder-Mead", bounds=bounds,
                            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": maxiter})
    if res.fun <= value:
        return res.x[0], res.x[1] if free_lam else 0.0, res.fun
    return d_grid[row], lam_grid[col], value


def _assert_within_scipy_gate(z, reference=None):
    """Both fits of z against scipy's refinement: the objective at most
    1e-12 max(1, |W|) above it, and d and lam within 1e-7 of the refinement
    of ``reference`` (z itself by default)."""
    for model in _FITS:
        fit = getattr(whittle, f"fit_{model}")(z)
        obj = _scipy_refinement(z, model)[2]
        d, lam, _ = _scipy_refinement(z if reference is None else reference, model)
        assert fit.objective <= obj + 1e-12 * max(1.0, abs(obj)), model
        assert abs(fit.d_hat - d) <= 1e-7 and abs(fit.lambda_hat - lam) <= 1e-7, model


def _ckc_series(seed, n):
    """log gdp and log co2 after the synthetic countries of the benchmark:
    a slow random walk, and an inverted U of it (flat profiles, d near 1;
    the co2 fits end on lam = 1e-6)."""
    rng = np.random.default_rng([777, seed])
    lgdp = 9.0 + 0.02 * np.arange(n) + 0.01 * np.cumsum(rng.standard_normal(n))
    return lgdp, -40.0 + 9.0 * lgdp - 0.47 * lgdp ** 2 + 0.02 * rng.standard_normal(n)


@pytest.mark.parametrize("seed", [5, 6])
def test_fits_match_scipy_refinement(seed):
    # the pool's model at n = 800; the ARFIMA fits end on d = 1/2 - 1e-6
    rng = np.random.default_rng([seed, 9])
    z = whittle.simulate_artfima00(800, d=0.8, lam=0.2, rng=rng)
    _assert_within_scipy_gate(z)
    assert whittle.fit_arfima00(z).d_hat == whittle.ARFIMA_D_RANGE[1]


@pytest.mark.parametrize("seed, n", [(0, 59), (1, 101), (2, 170), (3, 59)])
def test_ckc_fits_match_scipy_refinement(seed, n):
    lgdp, lco2 = _ckc_series(seed, n)
    _assert_within_scipy_gate(lgdp)
    _assert_within_scipy_gate(lco2)
    fit = whittle.fit_artfima00(lco2)
    assert fit.lambda_hat == whittle.ARTFIMA_LAM_RANGE[0] and fit.boundary


def test_fits_on_the_d_bounds_match_scipy_refinement():
    # a differenced white noise puts both fits on d's lower bound, a
    # near-sinusoid the ARTFIMA fit on d = 3
    rng = np.random.default_rng(3)
    diff = np.diff(rng.standard_normal(600))
    sinus = np.sin(0.7 * np.arange(500)) + 1e-3 * rng.standard_normal(500)
    for z in (diff, sinus):
        _assert_within_scipy_gate(z)
    assert whittle.fit_artfima00(diff).d_hat == whittle.ARTFIMA_D_RANGE[0]
    assert whittle.fit_arfima00(diff).d_hat == whittle.ARFIMA_D_RANGE[0]
    assert whittle.fit_artfima00(sinus).d_hat == whittle.ARTFIMA_D_RANGE[1]


@pytest.mark.parametrize("kind", ["white", "double-integrated", "near-sinusoid"])
@pytest.mark.parametrize("n", [500, 2000])
def test_fits_at_extreme_scales_match_scipy_refinement(kind, n):
    # at 1e+-150, |W| is near 690, and Nelder-Mead, which compares values,
    # resolves d only to about 1e-7 there; the fits, which divide the
    # periodogram by its mean, stand within 1e-7 of its unit-scale fit
    rng = np.random.default_rng([n, 16])
    if kind == "white":
        z = rng.standard_normal(n)
    elif kind == "double-integrated":
        z = np.cumsum(np.cumsum(rng.standard_normal(n)))
    else:
        z = np.sin(0.7 * np.arange(n)) + 1e-3 * rng.standard_normal(n)
    z = z / np.std(z)
    for scale in (1e-150, 1e150):
        _assert_within_scipy_gate(scale * z, reference=z)


def test_search_finds_the_stationary_d_where_nelder_mead_stops_short():
    # a white series of n = 59 fits on lam = 2, where W is flat in d
    # (W'' = 0.034): Nelder-Mead stops 1.5e-7 from the minimum, where the
    # 40-digit W' is 5e-9; the Newton search's d has W' below 1e-15
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    z = np.random.default_rng([59, 16]).standard_normal(59)
    freqs, pgram = whittle.periodogram(z / np.std(z))
    fit = whittle.fit_artfima00(z / np.std(z))
    assert fit.lambda_hat == whittle.ARTFIMA_LAM_RANGE[1]
    lam = mpmath.mpf(fit.lambda_hat)
    ell = [mpmath.log(abs(1 - mpmath.exp(-(lam + 1j * mpmath.mpf(w)))) ** 2) for w in freqs]
    a = [mpmath.mpf(v) * mpmath.exp(mpmath.mpf(fit.d_hat) * v_ell)
         for v, v_ell in zip(pgram, ell)]
    slope = (mpmath.fsum(x * v for x, v in zip(a, ell)) / mpmath.fsum(a)
             - mpmath.fsum(ell) / len(ell))
    assert abs(slope) < 1e-15
    assert fit.objective <= _scipy_refinement(z / np.std(z), "artfima00")[2]
