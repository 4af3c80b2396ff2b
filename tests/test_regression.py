"""Regression layer: design building, likelihood summation oracles,
MLE recovery on synthetic data, Wald inference invariances."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.special import expit

import sltb.kernel as kernel
import sltb.regression as regression
from sltb.data import TabularDataset
from sltb.distributions import (
    DEFAULT_L,
    DEFAULT_S,
    BetaMuPhi,
    SltbParams,
    beta_logpdf,
    sltb_log_normalizer_arrays,
    sltb_log_normalizer_partials,
    sltb_logpdf,
)
from sltb.errors import BoundaryError, NumericalError, ValidationError
from sltb.regression import (
    FitResult,
    RegressionSpec,
    build_design,
    fit_mle,
    loglik_beta,
    loglik_sltb,
    mse,
    mse_report,
    predict_mean,
    residuals,
    response_vector,
    score,
    score_information,
)
from sltb.simulation import STUDY_SPEC, SimConfig, gen_dataset


def synth_dataset(n: int, seed: int, *, boundary: bool = False) -> TabularDataset:
    """Two-predictor data from a known truth for recovery tests."""
    rng = kernel.Rng(seed)
    x1 = (rng.uniform(size=n) < 0.5).astype(float)
    x2 = np.asarray(rng.normal(0.0, 1.0, n), dtype=float)
    lp = 0.8 - 1.1 * x1 + 0.5 * x2
    mu = expit(lp)
    phi = 12.0
    y = np.asarray(rng.beta(mu * phi, (1.0 - mu) * phi), dtype=float)
    if boundary:
        y = np.round(y, 1)
    return TabularDataset({"x1": x1, "x2": x2, "y": y})


SPEC2 = RegressionSpec("y", ("x1", "x2"))


# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------

def test_intercept_only_design():
    data = TabularDataset({"y": np.array([0.2, 0.5, 0.9])})
    X, names = build_design(RegressionSpec("y", ()), data)
    assert X.shape == (3, 1)
    assert np.all(X == 1.0)
    assert names == ("(Intercept)",)


def test_factor_treatment_coding():
    data = TabularDataset({
        "y": np.array([0.1, 0.2, 0.3, 0.4]),
        "grp": ["a", "b", "c", "b"],
    })
    X, names = build_design(
        RegressionSpec("y", ("grp",), factors={"grp": "a"}), data)
    assert names == ("(Intercept)", "grpb", "grpc")
    assert np.array_equal(X[:, 1], [0.0, 1.0, 0.0, 1.0])
    assert np.array_equal(X[:, 2], [0.0, 0.0, 1.0, 0.0])


def test_factor_reference_swap_changes_columns():
    data = TabularDataset({
        "y": np.array([0.1, 0.2, 0.3, 0.4]),
        "grp": ["a", "b", "a", "b"],
    })
    _, names_a = build_design(
        RegressionSpec("y", ("grp",), factors={"grp": "a"}), data)
    _, names_b = build_design(
        RegressionSpec("y", ("grp",), factors={"grp": "b"}), data)
    assert names_a == ("(Intercept)", "grpb")
    assert names_b == ("(Intercept)", "grpa")


def test_interaction_columns_are_products():
    data = TabularDataset({
        "y": np.array([0.1, 0.2, 0.3, 0.4]),
        "g": ["no", "yes", "no", "yes"],
        "x": np.array([1.0, 2.0, 3.0, 4.0]),
    })
    X, names = build_design(
        RegressionSpec("y", ("g", "x", "g:x"), factors={"g": "no"}), data)
    assert names == ("(Intercept)", "gyes", "x", "gyes:x")
    assert np.array_equal(X[:, 3], X[:, 1] * X[:, 2])


def test_rank_deficiency_names_aliased_columns():
    data = TabularDataset({
        "y": np.array([0.1, 0.2, 0.3, 0.4]),
        "a": np.array([1.0, 2.0, 3.0, 4.0]),
        "b": np.array([2.0, 4.0, 6.0, 8.0]),
    })
    with pytest.raises(ValidationError, match="aliased"):
        build_design(RegressionSpec("y", ("a", "b")), data)


def test_unknown_column_and_bad_reference():
    data = TabularDataset({"y": np.array([0.1, 0.2]), "g": ["a", "b"]})
    with pytest.raises(ValidationError, match="unknown column"):
        build_design(RegressionSpec("y", ("missing",)), data)
    with pytest.raises(ValidationError, match="reference level"):
        build_design(RegressionSpec("y", ("g",), factors={"g": "zzz"}), data)


def test_response_vector_range_check():
    data = TabularDataset({"y": np.array([0.1, 1.2])})
    with pytest.raises(ValidationError, match="outside"):
        response_vector(RegressionSpec("y", ()), data)


# ---------------------------------------------------------------------------
# likelihoods
# ---------------------------------------------------------------------------

def test_loglik_beta_uniform_single_observation():
    X = np.ones((1, 1))
    theta = np.array([0.0, math.log(2.0)])  # mu = 0.5, phi = 2
    assert loglik_beta(theta, X, np.array([0.37])) == pytest.approx(0.0, abs=1e-12)


def test_loglik_beta_boundary_error_lists_rows():
    X = np.ones((3, 1))
    theta = np.array([0.0, 1.0])
    with pytest.raises(BoundaryError) as err:
        loglik_beta(theta, X, np.array([0.5, 1.0, 0.3]))
    assert err.value.rows == (1,)


def test_loglik_beta_summation_oracle():
    data = synth_dataset(60, seed=11)
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    theta = np.array([0.4, -0.8, 0.3, math.log(7.0)])
    mu = expit(X @ theta[:-1])
    by_rows = sum(
        beta_logpdf(BetaMuPhi(float(m), 7.0), float(v)) for m, v in zip(mu, y))
    assert loglik_beta(theta, X, y) == pytest.approx(by_rows, abs=1e-12)


def test_loglik_sltb_summation_oracle():
    data = synth_dataset(40, seed=3, boundary=True)
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    theta = np.array([0.2, -0.5, 0.4, math.log(9.0)])
    mu = expit(X @ theta[:-1])
    by_rows = sum(
        sltb_logpdf(SltbParams(float(m), 9.0), float(v)) for m, v in zip(mu, y))
    got = loglik_sltb(theta, X, y)
    assert math.isfinite(got)
    assert got == pytest.approx(by_rows, abs=1e-12)


def test_loglik_sltb_near_beta_on_interior_data():
    data = synth_dataset(200, seed=5)
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    theta = np.array([0.8, -1.1, 0.5, math.log(12.0)])
    gap = abs(loglik_sltb(theta, X, y) - loglik_beta(theta, X, y)) / y.size
    assert gap < 1e-6


def test_loglik_sltb_finite_with_boundary_one():
    X = np.ones((2, 1))
    theta = np.array([1.0, math.log(5.0)])
    val = loglik_sltb(theta, X, np.array([0.4, 1.0]))
    assert math.isfinite(val)


def test_loglik_nonfinite_linear_predictor_errors():
    X = np.array([[1.0, np.inf]])
    theta = np.array([0.1, 0.1, 0.0])
    with pytest.raises(NumericalError, match="linear predictor"):
        loglik_sltb(theta, X, np.array([0.5]))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

SCALE_LOCATIONS = [(DEFAULT_S, DEFAULT_L), (1.08, 0.04)]


def mp_row_loglik(lp, eta, y, s, l, family):
    """One row's log-likelihood from its defining formula, in mpmath, with
    the float inputs taken exactly; also returns the normalizer Z."""
    lp, eta, y, s, l = map(mpmath.mpf, (lp, eta, y, s, l))
    mu = 1 / (1 + mpmath.exp(-lp))
    phi = mpmath.exp(eta)
    a, b = mu * phi, (1 - mu) * phi
    if family == "beta":
        x, s, z = y, mpmath.mpf(1), mpmath.mpf(1)
    else:
        x = y / s + l
        z = (mpmath.betainc(a, b, 0, 1 / s + l, regularized=True)
             - mpmath.betainc(a, b, 0, l, regularized=True))
    return ((a - 1) * mpmath.log(x) + (b - 1) * mpmath.log(1 - x)
            - mpmath.log(mpmath.beta(a, b)) - mpmath.log(s) - mpmath.log(z)), z


def mp_row_score(lp, eta, y, s, l, family):
    """(d/d lp, d/d eta) of `mp_row_loglik` at 30 digits, and Z."""
    with mpmath.workdps(30):
        d_lp = mpmath.diff(lambda t: mp_row_loglik(t, eta, y, s, l, family)[0],
                           mpmath.mpf(lp))
        d_eta = mpmath.diff(lambda t: mp_row_loglik(lp, t, y, s, l, family)[0],
                            mpmath.mpf(eta))
        z = mp_row_loglik(lp, eta, y, s, l, family)[1]
        return np.array([float(d_lp), float(d_eta)]), float(z)


def row_theta(mu, phi):
    return np.array([math.log(mu) - math.log1p(-mu), math.log(phi)])


@pytest.mark.parametrize("s, l", SCALE_LOCATIONS)
def test_sltb_score_matches_mpmath_at_the_corners(s, l):
    # one row per point, so theta = (lp, eta) and the score is per row. The
    # normalizer term's rounding, eps in each tail's partials, reaches the
    # score divided by Z and times a and b, which sum to phi: so the floor
    # is about eps (1 + phi)/Z, and 1e-14 (1 + phi)/Z covers it
    for mu in (1e-6, 1e-3, 0.3, 0.97):
        for phi in (1e-2, 1.0, 1e2, 1e4):
            if s != DEFAULT_S and phi == 1e4 and mu < 0.01:
                continue  # Z rounds to 0: the log-likelihood is -inf
            for y in (0.0, 0.02, 0.5, 1.0):
                theta = row_theta(mu, phi)
                y_row = np.array([y])
                assert math.isfinite(loglik_sltb(theta, np.ones((1, 1)), y_row, s, l))
                got = score(theta, np.ones((1, 1)), y_row, "sltb", s, l)
                want, z = mp_row_score(*theta, y, s, l, "sltb")
                tol = 1e-9 * np.maximum(1.0, np.abs(want)) + 1e-14 * (1.0 + phi) / z
                assert np.all(np.abs(got - want) <= tol), (mu, phi, y, got, want)


def test_beta_score_matches_mpmath_at_the_corners():
    for mu in (1e-6, 0.3, 0.97):
        for phi in (1e-2, 1.0, 1e2, 1e4):
            for y in (1e-3, 0.5, 0.999):
                theta = row_theta(mu, phi)
                got = score(theta, np.ones((1, 1)), np.array([y]), "beta")
                want, _ = mp_row_score(*theta, y, 1.0, 0.0, "beta")
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (mu, phi, y)


def richardson_jacobian(f, theta, h=1e-3):
    """Central differences at h and h/2, Richardson-extrapolated; column i
    is the derivative along theta_i (the gradient, for a scalar f)."""
    cols = []
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        d1 = (f(theta + e) - f(theta - e)) / (2.0 * h)
        d2 = (f(theta + e / 2.0) - f(theta - e / 2.0)) / h
        cols.append((4.0 * d2 - d1) / 3.0)
    return np.array(cols).T


@pytest.mark.parametrize("family, s, l", [
    ("sltb", DEFAULT_S, DEFAULT_L), ("sltb", 1.08, 0.04), ("beta", 1.0, 0.0)])
def test_score_matches_richardson_differences(family, s, l):
    data = synth_dataset(150, seed=12, boundary=family == "sltb")
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    if family == "beta":
        y = np.clip(y, 1e-3, 1.0 - 1e-3)
        f = lambda t: loglik_beta(t, X, y)
    else:
        y[:2] = (0.0, 1.0)  # rows at both boundaries
        f = lambda t: loglik_sltb(t, X, y, s, l)
    for theta in (np.array([0.8, -1.1, 0.5, math.log(12.0)]),
                  np.array([-2.0, 3.0, 1.5, math.log(0.5)]),
                  np.array([4.0, -0.5, -2.0, math.log(300.0)])):
        got = score(theta, X, y, family, s, l)
        want = richardson_jacobian(f, theta)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7 * abs(f(theta)))


def test_score_is_nan_past_the_series_term_cap():
    # (s, l) = (1.08, 0.04) and phi 1e6, with the upper tail's mean 2 sd
    # inside the tail: its series would need several thousand terms, past
    # the cap, so the score is NaN, never a truncated sum, while the
    # log-likelihood is finite
    s, l, phi = 1.08, 0.04, 1e6
    eps = (s - 1.0 - l * s) / s
    mu = 1.0 - (eps - 2.0 * math.sqrt(eps * (1.0 - eps) / phi))
    theta = row_theta(mu, phi)
    y = np.array([1.0])
    assert math.isfinite(loglik_sltb(theta, np.ones((1, 1)), y, s, l))
    assert np.isnan(score(theta, np.ones((1, 1)), y, "sltb", s, l)).all()
    assert np.isfinite(sltb_log_normalizer_partials(mu, 1e3, s, l)).all()


@pytest.mark.parametrize("mu", [1e-4, 1.0 - 1e-4])
@pytest.mark.parametrize("phi", [700.0, 1e3])
def test_normalizer_partials_where_the_first_term_ratio_passes_one_over_x(mu, phi):
    # at (1.08, 0.04) a shape of about 0.1 puts the first term ratio c_0 =
    # phi x/(p+1) above 1/x; the term count stays finite there. Z is below
    # e^-30: at phi 700 ln Z is finite and so are the partials and the score,
    # at phi 1e3 ln Z underflows and the partials are not finite, as before
    s, l = 1.08, 0.04
    partials = np.array(sltb_log_normalizer_partials(np.array([mu]), phi, s, l, 2))
    log_z = sltb_log_normalizer_arrays(np.array([mu]), phi, s, l)
    assert np.isfinite(partials).all() == np.isfinite(log_z).all() == (phi < 1e3)
    if phi < 1e3:  # the score is asked for where the log-likelihood is finite
        theta, X, y = row_theta(mu, phi), np.ones((1, 1)), np.array([0.5])
        assert math.isfinite(loglik_sltb(theta, X, y, s, l))
        grad, info = score_information(theta, X, y, "sltb", s, l)
        assert np.isfinite(grad).all() and np.isfinite(info).all()


@pytest.mark.parametrize("n, rep, s, l", [
    (20, 0, DEFAULT_S, DEFAULT_L), (20, 5, DEFAULT_S, DEFAULT_L),
    (400, 1, DEFAULT_S, DEFAULT_L), (20, 0, 1.08, 0.04), (400, 1, 1.08, 0.04)],
    ids=["n20-rep0", "n20-rep5", "n400", "n20-wide", "n400-wide"])
def test_information_matches_richardson_differences_of_the_score(n, rep, s, l):
    # study sets at their fit and off it, at the default and the (1.08, 0.04)
    # window; the gradient half is `score` to the bit
    data = gen_dataset(SimConfig(n=n, reps=rep + 1, base_seed=0), rep)
    X, _ = build_design(STUDY_SPEC, data)
    y = response_vector(STUDY_SPEC, data)
    fitted = fit_mle(STUDY_SPEC, data, s=s, l=l).theta()
    for theta in (fitted, fitted + np.array([0.3, -0.2, 0.1, 0.2, -0.5])):
        grad, info = score_information(theta, X, y, "sltb", s, l)
        assert np.array_equal(grad, score(theta, X, y, "sltb", s, l))
        want = -richardson_jacobian(lambda t: score(t, X, y, "sltb", s, l), theta)
        assert info == pytest.approx(want, rel=1e-7, abs=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("family, s, l, phi", [
    ("beta", 1.0, 0.0, 12.0), ("sltb", DEFAULT_S, DEFAULT_L, 300.0),
    ("sltb", 1.08, 0.04, 300.0)], ids=["beta", "betainc-rows", "betainc-rows-wide"])
def test_information_matches_richardson_differences_off_the_series(family, s, l, phi):
    # the beta family, whose normalizer is 1, and a phi of 300, at which
    # every row's tails come from the `betainc` fallback
    data = synth_dataset(150, seed=12, boundary=family == "sltb")
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    if family == "beta":
        y = np.clip(y, 1e-3, 1.0 - 1e-3)
    else:
        y[:2] = (0.0, 1.0)
    for theta in (np.array([0.8, -1.1, 0.5, math.log(phi)]),
                  np.array([-2.0, 3.0, 1.5, math.log(phi)])):
        grad, info = score_information(theta, X, y, family, s, l)
        assert np.array_equal(grad, score(theta, X, y, family, s, l))
        want = -richardson_jacobian(lambda t: score(t, X, y, family, s, l), theta)
        assert info == pytest.approx(want, rel=1e-7, abs=1e-9 * np.abs(want).max())


_SERIES_MUS = np.concatenate([np.geomspace(1e-5, 0.5, 64),
                              1.0 - np.geomspace(1e-5, 0.5, 64)])


def _richardson_difference(f, x, h):
    """df/dx from central differences at steps h and h/2, extrapolated."""
    central = lambda step: (f(x + step) - f(x - step)) / (2 * step)
    return (4 * central(h / 2) - central(h)) / 3


@pytest.mark.parametrize("s, l, mu, phi", [
    (1.0, 0.0, np.array([0.2, 0.7]), 5.0),
    (1.1, 0.0, np.array([0.2, 0.7]), 5.0),
    (1.08, 0.04, np.array([0.2, 0.7]), 5.0),
    *[(DEFAULT_S, DEFAULT_L, _SERIES_MUS, phi) for phi in (1e-3, 0.1, 5.0, 60.0)],
], ids=["1.0-0.0", "1.1-0.0", "1.08-0.04", "series-phi-1e-3", "series-phi-0.1",
        "series-phi-5", "series-phi-60"])
def test_normalizer_partials_match_differences_of_the_normalizer(s, l, mu, phi):
    # s = 1, l = 0 truncates nothing; l = 0 alone leaves only the upper tail.
    # 128 rows with mu from 1e-5 to 1 - 1e-5 put the normalizer on its
    # series path. Steps are relative to mu, 1 - mu and phi; at phi 1e-3
    # and mu 1e-5, Z is 4e-7, and its rounding alone moves the differences
    # by up to 4e-7 relative
    d_a, d_b = sltb_log_normalizer_partials(mu, phi, s, l)
    log_z = lambda m, f: sltb_log_normalizer_arrays(m, f, s, l)
    d_mu = _richardson_difference(lambda m: log_z(m, phi), mu,
                                  1e-3 * np.minimum(mu, 1.0 - mu))
    d_phi = _richardson_difference(lambda f: log_z(mu, f), phi, 1e-3 * phi)
    # a = mu phi, b = (1 - mu) phi
    assert phi * (d_a - d_b) == pytest.approx(d_mu, rel=1e-6, abs=1e-12)
    assert mu * d_a + (1 - mu) * d_b == pytest.approx(d_phi, rel=1e-6, abs=1e-12)


_WIDE_MUS = np.linspace(0.01, 0.99, 64)
_RESOLVED_MUS = np.concatenate([np.geomspace(1e-3, 0.5, 64),
                                1.0 - np.geomspace(1e-3, 0.5, 64)])


@pytest.mark.parametrize("s, l, mu, phi", [
    (1.0, 0.0, np.array([0.2, 0.7]), 5.0),
    (1.1, 0.0, np.array([0.2, 0.7]), 5.0),
    (1.08, 0.04, np.array([0.2, 0.7]), 5.0),
    (1.08, 0.04, _WIDE_MUS, 12.0),
    (1.08, 0.04, _WIDE_MUS, 300.0),
    *[(DEFAULT_S, DEFAULT_L, _RESOLVED_MUS, phi) for phi in (0.1, 5.0, 60.0)],
], ids=["1.0-0.0", "1.1-0.0", "1.08-0.04", "wide-phi-12", "wide-phi-300",
        "series-phi-0.1", "series-phi-5", "series-phi-60"])
def test_normalizer_second_partials_match_differences_of_the_first(s, l, mu, phi):
    # as above, with the first partials as the function differenced. At
    # phi 300 every row's tails come from `betainc`. The series rows stop at
    # mu 1e-3: nearer 0 and 1 the rounding of 1 - mu moves the first
    # partials' differences by more than 1e-6
    d_a, d_b, d_aa, d_ab, d_bb = sltb_log_normalizer_partials(mu, phi, s, l, 2)
    assert np.array_equal(d_a, sltb_log_normalizer_partials(mu, phi, s, l)[0])
    first = lambda m, f: np.array(sltb_log_normalizer_partials(m, f, s, l))
    d_mu = _richardson_difference(lambda m: first(m, phi), mu,
                                  1e-3 * np.minimum(mu, 1.0 - mu))
    d_phi = _richardson_difference(lambda f: first(mu, f), phi, 1e-3 * phi)
    assert phi * np.array([d_aa - d_ab, d_ab - d_bb]) == pytest.approx(
        d_mu, rel=1e-6, abs=1e-12)
    assert np.array([mu * d_aa + (1 - mu) * d_ab, mu * d_ab + (1 - mu) * d_bb]
                    ) == pytest.approx(d_phi, rel=1e-6, abs=1e-12)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth_fit():
    data = synth_dataset(400, seed=21)
    return data, fit_mle(SPEC2, data, family="sltb")


def test_fit_recovers_truth(synth_fit):
    _, fit = synth_fit
    est = fit.coefficients
    # truth (0.8, -1.1, 0.5), phi=12; n=400 keeps SEs near 0.05-0.1
    assert est[0] == pytest.approx(0.8, abs=0.25)
    assert est[1] == pytest.approx(-1.1, abs=0.25)
    assert est[2] == pytest.approx(0.5, abs=0.2)
    assert fit.phi() == pytest.approx(12.0, rel=0.25)
    assert fit.converged
    assert fit.iterations > 0


def test_fit_inference_shapes_and_ranges(synth_fit):
    _, fit = synth_fit
    k = fit.coefficients.size + 1
    assert fit.vcov.shape == (k, k)
    assert fit.se.shape == (k,)
    assert np.all(fit.se > 0)
    assert np.all((fit.p >= 0.0) & (fit.p <= 1.0))
    assert np.allclose(fit.se, np.sqrt(np.diag(fit.vcov)))
    assert np.allclose(fit.z, fit.theta() / fit.se)


def test_fit_likelihood_ascent(synth_fit):
    _, fit = synth_fit
    trace = np.array(fit.loglik_trace)
    # accepted steps never lose more than numerical noise
    assert np.all(np.diff(trace) > -1e-7)
    assert trace[-1] >= trace[0]


def test_fit_gradient_small_at_optimum(synth_fit):
    data, fit = synth_fit
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    theta = fit.theta()
    g = np.zeros_like(theta)
    for i in range(theta.size):
        step = 1e-6 * (1.0 + abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (loglik_sltb(up, X, y) - loglik_sltb(dn, X, y)) / (2 * step)
    assert np.max(np.abs(g)) / max(1.0, abs(fit.loglik)) < 1e-4


def test_fit_reports_its_evaluations_and_score(synth_fit):
    data, fit = synth_fit
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    # Newton steps on the closed-form information: a few evaluations
    assert fit.iterations < fit.evaluations < 100
    want = np.max(np.abs(score(fit.theta(), X, y))) / max(1.0, abs(fit.loglik))
    assert fit.score_max == pytest.approx(want, rel=1e-6, abs=1e-15)
    assert fit.score_max < 1e-4


def test_fit_at_nondefault_scale_location_matches_the_pinned_fit():
    # the fit of the Nelder-Mead-then-BFGS optimizer this one replaced, on
    # data with four exact 1s; with l = 0.04 both normalizer tails are
    # visible, so the score's series terms matter
    data = synth_dataset(200, seed=43, boundary=True)
    fit = fit_mle(SPEC2, data, family="sltb", s=1.08, l=0.04)
    assert fit.converged
    assert fit.coefficients == pytest.approx(
        [0.8003808030141647, -1.1578443906212375, 0.5143110314933069],
        rel=0.0, abs=1e-6)
    assert fit.log_precision == pytest.approx(2.4741997154385613, rel=0.0, abs=1e-6)
    assert fit.loglik == pytest.approx(118.3693824665674, rel=1e-12)


def test_fit_family_continuity_on_interior_data():
    data = synth_dataset(250, seed=33)
    fs = fit_mle(SPEC2, data, family="sltb")
    fb = fit_mle(SPEC2, data, family="beta")
    assert np.allclose(fs.coefficients, fb.coefficients, atol=1e-3)
    assert fs.log_precision == pytest.approx(fb.log_precision, abs=1e-3)


def test_fit_beta_family_refuses_boundary_rows():
    data = synth_dataset(120, seed=101, boundary=True)
    y = response_vector(SPEC2, data)
    assert np.any(y == 1.0)  # the generator must actually produce a boundary
    with pytest.raises(BoundaryError, match="boundary rows"):
        fit_mle(SPEC2, data, family="beta")


def test_fit_loglik_is_the_public_likelihood_with_exact_ones():
    # the fit's objective takes the response's logs once per fit; its value
    # must stay the public formula's to the bit
    data = synth_dataset(120, seed=101, boundary=True)
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    assert np.any(y == 1.0)
    fit = fit_mle(SPEC2, data, family="sltb")
    assert fit.loglik == loglik_sltb(fit.theta(), X, y)
    # the trace holds the warm start plus one value per iteration
    assert fit.iterations == len(fit.loglik_trace) - 1


def test_fit_reference_swap_flips_sign_and_z():
    rng = kernel.Rng(77)
    n = 300
    g = np.asarray(rng.uniform(size=n) < 0.5)
    x = np.asarray(rng.normal(0.0, 1.0, n))
    mu = expit(0.5 - 0.9 * g.astype(float) + 0.3 * x)
    y = np.asarray(rng.beta(mu * 10, (1 - mu) * 10))
    data = TabularDataset({
        "y": y, "x": x, "g": ["yes" if v else "no" for v in g]})
    spec_no = RegressionSpec("y", ("g", "x"), factors={"g": "no"})
    spec_yes = RegressionSpec("y", ("g", "x"), factors={"g": "yes"})
    f1 = fit_mle(spec_no, data, family="sltb")
    f2 = fit_mle(spec_yes, data, family="sltb")
    i1 = f1.coef_names.index("gyes")
    i2 = f2.coef_names.index("gno")
    assert f1.coefficients[i1] == pytest.approx(-f2.coefficients[i2], abs=2e-4)
    assert f1.z[i1] == pytest.approx(-f2.z[i2], abs=2e-3)
    assert abs(f1.z[i1]) == pytest.approx(abs(f2.z[i2]), abs=2e-3)


def test_fit_shift_invariance_of_slopes():
    data = synth_dataset(250, seed=55)
    shifted = TabularDataset({
        "x1": data.numeric("x1"),
        "x2": data.numeric("x2") + 3.0,
        "y": data.numeric("y"),
    })
    f0 = fit_mle(SPEC2, data, family="sltb")
    f1 = fit_mle(SPEC2, shifted, family="sltb")
    i_x2 = f0.coef_names.index("x2")
    i_int = f0.coef_names.index("(Intercept)")
    assert f1.coefficients[i_x2] == pytest.approx(
        f0.coefficients[i_x2], abs=2e-4)
    assert f1.coefficients[i_int] == pytest.approx(
        f0.coefficients[i_int] - 3.0 * f0.coefficients[i_x2], abs=1e-3)


def test_fit_vcov_stable_under_hessian_step_halving(synth_fit):
    data, fit = synth_fit
    X, _ = build_design(SPEC2, data)
    y = response_vector(SPEC2, data)
    neg_score = lambda t: -score(t, X, y)
    theta = fit.theta()
    h0 = np.finfo(float).eps ** (1.0 / 3.0)
    se1, se2 = (np.sqrt(np.diag(np.linalg.inv(
        kernel.numeric_hessian(neg_score, theta, h=h)))) for h in (h0, h0 / 2.0))
    assert np.allclose(se1, se2, rtol=1e-8, atol=0.0)
    assert np.allclose(se1, fit.se, rtol=1e-8, atol=0.0)
    assert np.allclose(se2, fit.se, rtol=1e-8, atol=0.0)


def test_fit_se_matches_richardson_differences_of_the_score():
    # the Wald information is the central-difference Jacobian of `score`,
    # so the SEs of study fits carry only its rounding and h^2 error
    for n, reps in ((20, 12), (400, 2)):
        cfg = SimConfig(n=n, reps=reps, base_seed=0)
        for rep in range(reps):
            data = gen_dataset(cfg, rep)
            X, _ = build_design(STUDY_SPEC, data)
            y = response_vector(STUDY_SPEC, data)
            fit = fit_mle(STUDY_SPEC, data)
            info = -richardson_jacobian(lambda t: score(t, X, y), fit.theta())
            se = np.sqrt(np.diag(np.linalg.inv(0.5 * (info + info.T))))
            assert fit.se == pytest.approx(se, rel=1e-8, abs=0.0), (n, rep)


def test_fit_names_the_flat_direction_of_a_near_separation(monkeypatch):
    # three exact 1s that the coefficients can push toward mu = 1 without
    # bound: the log-likelihood keeps rising along one direction as its
    # curvature vanishes. The fit says so, naming the coefficients that load
    # on it, within a few evaluations (the BFGS fit it replaced made 66
    # log-likelihood and 64 score calls before its indefinite Hessian)
    data = gen_dataset(SimConfig(n=20, reps=16, base_seed=18003000), 3)
    calls = {"loglik_sltb": 0, "score_information": 0}

    def counted(name):
        inner = getattr(regression, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(regression, name, counted(name))
    with pytest.raises(NumericalError, match="near-zero curvature") as err:
        fit_mle(STUDY_SPEC, data)
    message = str(err.value)
    for name in ("(Intercept)", "x1", "x2", "x1:x2"):
        assert f"{name} " in message
    assert "log_phi" not in message
    assert calls["loglik_sltb"] < 66 and calls["score_information"] < 64


@pytest.mark.parametrize("column", ["x1", "x2"])
def test_fit_does_not_depend_on_covariate_units(column):
    # a covariate in thousandths: the information's raw eigenvalues then
    # differ by 1e6 or more on any data, so a flatness test on them would
    # call this well-posed fit a separation. The coefficient and its SE
    # scale by 1e-3 and nothing else moves
    data = synth_dataset(400, seed=3)
    fit = fit_mle(SPEC2, data)
    columns = {name: data.numeric(name) for name in ("x1", "x2", "y")}
    columns[column] = columns[column] * 1e3
    refit = fit_mle(SPEC2, TabularDataset(columns))
    unit = np.where(np.array(["-", "x1", "x2", "-"]) == column, 1e-3, 1.0)
    assert refit.theta() == pytest.approx(unit * fit.theta(), rel=1e-10, abs=0.0)
    assert refit.se == pytest.approx(unit * fit.se, rel=1e-8, abs=0.0)
    assert refit.loglik == pytest.approx(fit.loglik, rel=1e-13)


def test_fit_unknown_family():
    data = synth_dataset(50, seed=1)
    with pytest.raises(ValidationError, match="family"):
        fit_mle(SPEC2, data, family="gauss")


# ---------------------------------------------------------------------------
# prediction and MSE
# ---------------------------------------------------------------------------

def test_predict_mean_bounds_and_link(synth_fit):
    data, fit = synth_fit
    X, _ = build_design(SPEC2, data)
    pred = predict_mean(fit, X)
    assert np.all((pred >= 0.0) & (pred <= 1.0))
    mu = expit(X @ fit.coefficients)
    assert np.allclose(pred, fit.s * (mu - fit.l), atol=1e-15)


def test_predict_mean_beta_family_is_mu():
    data = synth_dataset(150, seed=9)
    fit = fit_mle(SPEC2, data, family="beta")
    X, _ = build_design(SPEC2, data)
    assert np.allclose(predict_mean(fit, X), expit(X @ fit.coefficients))


def test_mse_report_boundary_subsets():
    data = synth_dataset(200, seed=43, boundary=True)
    fit = fit_mle(SPEC2, data, family="sltb")
    rep = mse_report(fit, SPEC2, data)
    y = response_vector(SPEC2, data)
    r = residuals(fit, SPEC2, data)
    assert rep["overall"] == pytest.approx(float(np.mean(r ** 2)), abs=1e-15)
    assert rep["n_ones"] == int(np.sum(y == 1.0))
    if rep["n_ones"]:
        assert rep["boundary_ones"] == pytest.approx(
            float(np.mean(r[y == 1.0] ** 2)), abs=1e-15)
    assert rep["n"] == 200
    assert mse_report(fit, SPEC2, data, r) == rep  # the residuals passed in
    with pytest.raises(ValidationError):
        mse(fit, SPEC2, data, subset="everything")


def test_mse_nan_on_empty_subset():
    data = synth_dataset(100, seed=7)  # continuous, no exact zeros
    fit = fit_mle(SPEC2, data, family="sltb")
    assert math.isnan(mse(fit, SPEC2, data, subset="boundary_zeros"))


def test_mse_positive_on_data_generated_at_fitted_means(synth_fit):
    data, fit = synth_fit
    X, _ = build_design(SPEC2, data)
    mu_hat = expit(X @ fit.coefficients)
    rng = kernel.Rng(4242)
    phi = fit.phi()
    y_new = np.asarray(rng.beta(mu_hat * phi, (1 - mu_hat) * phi))
    newdata = TabularDataset({
        "x1": data.numeric("x1"), "x2": data.numeric("x2"), "y": y_new})
    got = mse(fit, SPEC2, newdata)
    want = float(np.mean(mu_hat * (1 - mu_hat) / (1 + phi)))
    assert got > 0.0
    assert got == pytest.approx(want, rel=0.25)  # Monte Carlo agreement


def test_fit_runtime_well_under_a_second():
    data = synth_dataset(44, seed=8, boundary=True)
    fit = fit_mle(SPEC2, data, family="sltb")
    assert fit.fit_seconds < 1.0
