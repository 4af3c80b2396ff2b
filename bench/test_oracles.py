"""Tests of the benchmark's independent references.

Run from the repository root: ``python3 -m pytest bench/test_oracles.py``.
"""

import hashlib

import numpy as np
import pytest
from scipy import integrate

import oracles


def _ar1(rho, chains, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=(chains, n)) * np.sqrt(1.0 - rho * rho)
    x = np.empty((chains, n))
    x[:, 0] = rng.normal(size=chains)
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + eps[:, t]
    return x


def test_bulk_ess_of_iid_draws_is_close_to_the_draw_count():
    draws = np.random.default_rng(1).normal(size=(4, 2000))
    assert oracles.bulk_ess(draws) == pytest.approx(8000, rel=0.1)
    assert oracles.split_rhat(draws) < 1.01


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_bulk_ess_of_ar1_matches_the_closed_form(rho):
    draws = _ar1(rho, chains=4, n=20000, seed=2)
    want = draws.size * (1.0 - rho) / (1.0 + rho)
    assert oracles.bulk_ess(draws) == pytest.approx(want, rel=0.15)
    assert oracles.split_rhat(draws) < 1.01


def test_split_rhat_flags_chains_that_disagree():
    draws = np.random.default_rng(3).normal(size=(4, 1000))
    draws[0] += 1.0
    assert oracles.split_rhat(draws) > 1.1
    trend = np.random.default_rng(4).normal(size=(1, 2000))
    trend += np.linspace(0.0, 3.0, 2000)  # one chain, drifting: halves differ
    assert oracles.split_rhat(trend) > 1.1


@pytest.mark.parametrize("g, mu, phi", [
    (0.0, 0.3, 5.0), (1.0, 0.3, 5.0), (0.0, 0.9, 0.7), (1.0, 0.9, 0.7),
    (0.5, 0.5, 2.0), (0.01, 0.2, 40.0), (0.99, 0.8, 12.0), (1.0, 0.999, 3.0),
])
def test_scipy_logpdf_agrees_with_mpmath(g, mu, phi):
    want = oracles.sltb_logpdf_mpmath(g, mu, phi)
    got = float(oracles.sltb_logpdf_ref(g, mu, phi))
    assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("mu, phi", [(0.3, 5.0), (0.6, 2.5)])
def test_density_integrates_to_one(mu, phi):
    total, _ = integrate.quad(
        lambda g: float(np.exp(oracles.sltb_logpdf_ref(g, mu, phi))), 0.0, 1.0,
        epsabs=1e-12, epsrel=1e-12, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_loglik_is_the_sum_of_row_log_densities():
    rng = np.random.default_rng(5)
    x1 = np.where(rng.uniform(size=30) < 0.5, -1.0, 1.0)
    x2 = rng.normal(size=30)
    X = oracles.design_study(x1, x2)
    y = np.round(rng.uniform(size=30), 1)
    theta = np.array([0.3, -0.2, 0.1, 0.05, np.log(6.0)])
    mu = 1.0 / (1.0 + np.exp(-(X @ theta[:-1])))
    rows = [oracles.sltb_logpdf_mpmath(g, m, 6.0) for g, m in zip(y, mu)]
    assert oracles.loglik_ref(theta, X, y) == pytest.approx(sum(rows), rel=1e-11)


def test_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "input.csv"
    payload = b"a,b\n" + b"1.0,2.0\n" * 50000
    path.write_bytes(payload)
    assert oracles.sha256_file(str(path)) == hashlib.sha256(payload).hexdigest()
