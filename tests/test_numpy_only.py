"""``import slmcoint`` loads numpy only.  The library's FFT convolution, AR(1)
recursion and bounded Nelder-Mead stand in for scipy's, and each must return
exactly scipy's floats, which these tests compare by ``==``; the stdlib normal
quantile matches scipy's to 1.2e-15 relative."""

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
                     bandwidth_exponents=["n^-1/3"], f_terms=50)
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


# ----------------------------------------------------------- Nelder-Mead

def _scipy_minimize(fun, x0, bounds, xatol, fatol, maxiter):
    return optimize.minimize(fun, x0, method="Nelder-Mead", bounds=bounds,
                             options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})


def _recording(fun):
    calls = []

    def wrapped(x):
        calls.append(np.array(x, dtype=float))
        return fun(x)
    return wrapped, calls


def _rosenbrock(x):
    return float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def _quadratic(x):
    return float((x[0] - 0.3) ** 2)


def _plateaus(x):
    # flat steps: on a step, the inside contraction ties with the worst
    # vertex, and it needs a strict decrease, so the simplex shrinks
    return float(np.sum(np.floor(4.0 * np.abs(x - 0.37)) ** 2))


@pytest.mark.parametrize("fun, x0, bounds, maxiter", [
    (_rosenbrock, [-1.2, 1.0], [(-2.0, 2.0), (-1.0, 3.0)], 4000),
    (_rosenbrock, [0.5, 0.5], [(-2.0, 0.8), (-1.0, 0.6)], 4000),  # optimum off the box
    (_rosenbrock, [2.0, 3.0], [(-2.0, 2.0), (-1.0, 3.0)], 4000),  # start on the upper bounds
    (_rosenbrock, [-1.2, 1.0], [(-2.0, 2.0), (-1.0, 3.0)], 25),   # stopped by maxiter
    (_quadratic, [0.0], [(-0.5, 0.5)], 2000),                    # zero start coordinate
    (_quadratic, [0.5], [(-0.5, 0.5)], 2000),                    # start on the upper bound
    (_plateaus, [1.9, -1.3], [(-2.0, 2.0), (-2.0, 2.0)], 2000),
    (_plateaus, [1.9], [(-2.0, 2.0)], 2000),
])
def test_minimize_matches_scipy_nelder_mead(fun, x0, bounds, maxiter):
    ours, our_calls = _recording(fun)
    theirs, their_calls = _recording(fun)
    kwargs = dict(bounds=bounds, xatol=1e-8, fatol=1e-10, maxiter=maxiter)
    got = whittle.minimize(ours, np.asarray(x0, dtype=float), **kwargs)
    want = _scipy_minimize(theirs, np.asarray(x0, dtype=float), **kwargs)
    assert np.array_equal(got.x, want.x)
    assert got.fun == want.fun
    assert got.nit == want.nit
    assert len(our_calls) == len(their_calls)
    assert all(np.array_equal(a, b) for a, b in zip(our_calls, their_calls))
    if fun is _plateaus:
        # without a shrink an iteration evaluates at most 2 points
        n = len(x0)
        assert len(our_calls) > n + 1 + 2 * (got.nit - 1)


@pytest.mark.parametrize("seed", [5, 6])
def test_fits_match_scipy_refinement(seed, monkeypatch):
    rng = np.random.default_rng([seed, 9])
    z = whittle.simulate_artfima00(800, d=0.8, lam=0.2, rng=rng)
    ours = [whittle.fit_artfima00(z).to_dict(), whittle.fit_arfima00(z).to_dict()]
    monkeypatch.setattr(whittle, "minimize", _scipy_minimize)
    theirs = [whittle.fit_artfima00(z).to_dict(), whittle.fit_arfima00(z).to_dict()]
    assert ours == theirs
