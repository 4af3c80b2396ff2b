"""Regression layer: design building, likelihood summation oracles,
MLE recovery on synthetic data, Wald inference invariances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import expit

import sltb.kernel as kernel
from sltb.data import TabularDataset
from sltb.distributions import (
    DEFAULT_L,
    DEFAULT_S,
    BetaMuPhi,
    SltbParams,
    beta_logpdf,
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
)


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
    negll = lambda t: -loglik_sltb(t, X, y)
    theta = fit.theta()
    h0 = np.finfo(float).eps ** (1.0 / 3.0)
    v1 = np.linalg.inv(kernel.numeric_hessian(negll, theta, h=h0))
    v2 = np.linalg.inv(kernel.numeric_hessian(negll, theta, h=h0 / 2.0))
    assert np.allclose(np.sqrt(np.diag(v1)), np.sqrt(np.diag(v2)), rtol=1e-3)
    assert np.allclose(np.sqrt(np.diag(v1)), fit.se, rtol=1e-6)


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
