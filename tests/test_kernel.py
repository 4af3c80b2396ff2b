"""Numeric kernel contracts (Hessian, RNG), the quadrature oracle in
``tests/quadrature.py``, and the accuracy of the scipy.special functions
that the densities and p-values call."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.stats as st
from scipy.special import betainc, betaincinv, gammaln, ndtr
from hypothesis import given
from hypothesis import strategies as hs

import quadrature
from sltb import kernel
from sltb.errors import DomainError, NumericalError

from conftest import bisect_root


# ---------------------------------------------------------------------------
# log-gamma: scipy.special.gammaln, which the densities call
# ---------------------------------------------------------------------------

def test_lgamma_known_values():
    assert gammaln(1.0) == pytest.approx(0.0, abs=1e-15)
    assert gammaln(2.0) == pytest.approx(0.0, abs=1e-15)
    assert gammaln(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)


def test_lgamma_matches_extended_precision():
    mpmath.mp.dps = 50
    for x in [1e-6, 1e-3, 0.2, 1.7, 9.0, 137.5, 1e4, 1e6]:
        want = float(mpmath.loggamma(x))
        got = gammaln(x)
        assert got == pytest.approx(want, rel=1e-13)


def test_lgamma_recurrence():
    for x in [0.5, 1.5, 3.7, 9.2]:
        assert gammaln(x + 1.0) - gammaln(x) == pytest.approx(
            math.log(x), abs=1e-12
        )


@given(hs.floats(min_value=1e-5, max_value=1e5))
def test_lgamma_recurrence_property(x):
    assert gammaln(x + 1.0) - gammaln(x) == pytest.approx(
        math.log(x), rel=1e-10, abs=1e-10
    )


# ---------------------------------------------------------------------------
# regularized incomplete beta I_x(a, b) and its inverse: scipy.special's
# betainc(a, b, x) and betaincinv(a, b, p), which the law functions call
# ---------------------------------------------------------------------------

def test_reg_inc_beta_known_values():
    assert betainc(1.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    # I_x(2,2) = x^2 (3 - 2x)
    assert betainc(2.0, 2.0, 0.3) == pytest.approx(0.216, abs=1e-14)
    assert betainc(1.0, 1.0, 1e-9) == pytest.approx(1e-9, rel=1e-13)
    assert betainc(3.0, 4.0, 0.0) == 0.0
    assert betainc(3.0, 4.0, 1.0) == 1.0


def test_reg_inc_beta_matches_extended_precision():
    mpmath.mp.dps = 40
    cases = [(1e-9, 0.05, 0.45), (1e-9, 2.0, 2.0), (0.3, 8.0, 2.0),
             (0.9999999978, 2.0, 2.0), (0.5, 40.0, 0.04), (0.2, 0.5, 9.0)]
    for x, a, b in cases:
        want = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert betainc(a, b, x) == pytest.approx(want, abs=1e-12)


@given(
    hs.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    hs.floats(min_value=0.05, max_value=80.0),
    hs.floats(min_value=0.05, max_value=80.0),
)
def test_reg_inc_beta_symmetry(x, a, b):
    left = betainc(a, b, x)
    right = 1.0 - betainc(b, a, 1.0 - x)
    assert left == pytest.approx(right, abs=1e-12)


def test_reg_inc_beta_monotone_in_x():
    vals = betainc(2.5, 0.7, np.linspace(0.0, 1.0, 101))
    assert np.all(np.diff(vals) >= 0.0)


def test_inv_reg_inc_beta_known_values():
    assert betaincinv(1.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert betaincinv(2.0, 2.0, 0.216) == pytest.approx(0.3, abs=1e-12)


def test_inv_reg_inc_beta_bisection_oracle():
    # independent root find on betainc itself
    want = bisect_root(lambda v: betainc(2.0, 5.0, v) - 0.975, 0.0, 1.0)
    got = betaincinv(2.0, 5.0, 0.975)
    assert got == pytest.approx(want, abs=1e-12)
    assert betainc(2.0, 5.0, got) == pytest.approx(0.975, abs=1e-13)


@given(
    hs.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    hs.floats(min_value=0.1, max_value=50.0),
    hs.floats(min_value=0.1, max_value=50.0),
)
def test_inv_reg_inc_beta_right_inverse(p, a, b):
    v = float(betaincinv(a, b, p))
    # perturbing a correctly rounded v by one ulp moves the CDF by about
    # pdf(v) * ulp(v), so the attainable tolerance scales with that product
    if 0.0 < v < 1.0:
        log_pdf = ((a - 1.0) * math.log(v) + (b - 1.0) * math.log1p(-v)
                   + gammaln(a + b) - gammaln(a) - gammaln(b))
        cond = math.exp(min(log_pdf, 700.0)) * np.spacing(v)
    else:
        cond = 0.0
    assert betainc(a, b, v) == pytest.approx(p, abs=1e-10 + 16.0 * cond)


def test_inv_reg_inc_beta_monotone_in_p():
    vals = betaincinv(3.0, 1.5, np.linspace(0.0, 1.0, 101))
    assert np.all(np.diff(vals) >= 0.0)


# ---------------------------------------------------------------------------
# standard normal CDF: scipy.special.ndtr, which the Wald p-values call
# ---------------------------------------------------------------------------

def test_std_normal_cdf_known_values():
    assert ndtr(0.0) == pytest.approx(0.5, abs=1e-15)
    assert ndtr(40.0) == pytest.approx(1.0, abs=1e-15)


def test_std_normal_cdf_quadrature_oracle():
    # Phi(1.96) = 1/2 + integral of the density over [0, 1.96]
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    want = 0.5 + quadrature.integrate(density, 0.0, 1.96)
    assert ndtr(1.96) == pytest.approx(want, abs=1e-12)
    mpmath.mp.dps = 40
    assert ndtr(1.96) == pytest.approx(float(mpmath.ncdf(1.96)), abs=1e-14)


def test_std_normal_cdf_symmetry():
    for x in [0.1, 0.7, 1.96, 3.5, 6.0]:
        assert ndtr(-x) == pytest.approx(1.0 - ndtr(x), abs=1e-12)


# ---------------------------------------------------------------------------
# quadrature: the test-only oracle in tests/quadrature.py
# ---------------------------------------------------------------------------

def test_integrate_constant_and_linear():
    assert quadrature.integrate(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert quadrature.integrate(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_integrate_doubling_nodes_stable():
    f = lambda t: math.exp(-t) * math.sin(3.0 * t)
    panels = [0.0, 1.0, 2.0]
    base = quadrature.integrate(f, 0.0, 2.0,
                                quadrature.composite_rule(panels, order=24))
    fine = quadrature.integrate(f, 0.0, 2.0,
                                quadrature.composite_rule(panels, order=48))
    assert abs(base - fine) < 1e-9


def test_integrate_bounds():
    assert quadrature.integrate(lambda t: t, 1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        quadrature.integrate(lambda t: t, 2.0, 1.0)


def test_integrate_nonfinite_integrand():
    with pytest.raises(NumericalError):
        quadrature.integrate(lambda t: float("nan"), 0.0, 1.0)


def test_quadrature_rule_validation():
    with pytest.raises(DomainError):
        quadrature.QuadratureRule(np.array([0.5, 0.2]), np.array([0.1, 0.1]))
    with pytest.raises(DomainError):
        quadrature.QuadratureRule(np.array([0.2, 0.5]), np.array([0.1, -0.1]))


def test_quadrature_weights_sum_to_length():
    rule = quadrature.gauss_legendre(-1.5, 2.5, order=16)
    assert rule.weights.sum() == pytest.approx(4.0, rel=1e-14)
    assert np.all(rule.weights > 0)
    comp = quadrature.composite_rule([0.0, 0.1, 0.9, 1.0], order=8)
    assert comp.weights.sum() == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# numeric Hessian: the central-difference Jacobian of a gradient
# ---------------------------------------------------------------------------

def test_hessian_quadratic():
    grad = lambda v: 2.0 * v  # of v0^2 + v1^2
    h = kernel.numeric_hessian(grad, np.zeros(2))
    assert np.allclose(h, 2.0 * np.eye(2), rtol=0.0, atol=1e-12)


def test_hessian_cross_term():
    grad = lambda v: np.array([v[1], v[0]])  # of v0 * v1
    h = kernel.numeric_hessian(grad, np.array([1.0, 1.0]))
    # a linear gradient leaves only the rounding of its differences
    assert np.allclose(h, np.array([[0.0, 1.0], [1.0, 0.0]]), rtol=0.0,
                       atol=1e-12)


def test_hessian_transcendental_against_analytic():
    # f(x,y) = exp(x) * sin(y) has an analytic Hessian to compare against
    grad = lambda v: math.exp(v[0]) * np.array([math.sin(v[1]), math.cos(v[1])])
    x = np.array([0.3, 1.1])
    want = np.array([
        [math.exp(0.3) * math.sin(1.1), math.exp(0.3) * math.cos(1.1)],
        [math.exp(0.3) * math.cos(1.1), -math.exp(0.3) * math.sin(1.1)],
    ])
    got = kernel.numeric_hessian(grad, x)
    # truncation h^2 and rounding eps/h, both about 4e-11 at h = eps^(1/3)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-10)


def test_hessian_symmetric_and_errors():
    # gradient of v0^3 v1 - v1^2 v0
    grad = lambda v: np.array([3.0 * v[0] ** 2 * v[1] - v[1] ** 2,
                               v[0] ** 3 - 2.0 * v[1] * v[0]])
    h = kernel.numeric_hessian(grad, np.array([0.7, -0.4]))
    assert np.array_equal(h, h.T)
    with pytest.raises(NumericalError, match="coordinate 0"):
        kernel.numeric_hessian(
            lambda v: np.full(2, np.inf if v[0] > 1e-7 else 0.0),
            np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        kernel.numeric_hessian(grad, np.array([0.7, -0.4]), h=-1.0)


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------

def test_rng_determinism_bit_for_bit():
    a = kernel.Rng(12345)
    b = kernel.Rng(12345)
    xs = [a.normal(0, 1) for _ in range(50)] + [a.gamma(2.0, 1.0) for _ in range(50)]
    ys = [b.normal(0, 1) for _ in range(50)] + [b.gamma(2.0, 1.0) for _ in range(50)]
    assert xs == ys
    assert not np.allclose(xs, [kernel.Rng(12346).normal(0, 1) for _ in range(100)])


def test_rng_derived_streams_differ():
    base = 777
    s0 = kernel.Rng(base + 0).normal(0, 1, size=8)
    s1 = kernel.Rng(base + 1).normal(0, 1, size=8)
    assert not np.allclose(s0, s1)


def test_rng_refuses_a_negative_or_non_integer_seed():
    for seed in (-1, np.int64(-3), 1.5):
        with pytest.raises(DomainError, match="nonnegative integer"):
            kernel.Rng(seed)


def test_sample_uniform_degenerate():
    rng = kernel.Rng(1)
    assert rng.uniform(0.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        rng.uniform(1.0, 0.0)


def test_sample_normal_moments():
    rng = kernel.Rng(2024)
    draws = rng.normal(100.0, 15.0, size=10 ** 6)
    assert draws.mean() == pytest.approx(100.0, abs=0.1)
    assert draws.std(ddof=1) == pytest.approx(15.0, abs=0.1)


def test_sample_beta_moments():
    rng = kernel.Rng(99)
    draws = rng.beta(2.0, 2.0, size=10 ** 6)
    assert draws.mean() == pytest.approx(0.5, abs=0.002)
    assert np.all((draws > 0.0) & (draws < 1.0))


def test_sample_beta_ks_against_cdf():
    rng = kernel.Rng(31337)
    draws = rng.beta(2.0, 2.0, size=10 ** 5)
    stat = st.kstest(draws, lambda x: betainc(2.0, 2.0, x)).statistic
    # asymptotic 0.001-level critical value: sqrt(ln(2/alpha)/(2n))
    crit = math.sqrt(math.log(2.0 / 0.001) / (2.0 * draws.size))
    assert stat < crit


def test_sample_beta_extreme_shapes_stay_interior():
    # b ~ 3e-6 puts virtually all mass within one ulp of 1, where the
    # gamma composition rounds to the boundary; draws must still come
    # back strictly interior, deterministically
    r1 = kernel.Rng(77)
    r2 = kernel.Rng(77)
    x1 = np.array([r1.beta(0.33, 2.9e-6) for _ in range(100)])
    x2 = np.array([r2.beta(0.33, 2.9e-6) for _ in range(100)])
    assert np.all((x1 > 0.0) & (x1 < 1.0))
    assert np.array_equal(x1, x2)
    vec = kernel.Rng(8).beta(np.array([2.0, 0.33, 1.2e-6]),
                             np.array([3.0, 2.9e-6, 0.8]))
    assert np.all((vec > 0.0) & (vec < 1.0))


def test_sample_gamma_small_shape():
    rng = kernel.Rng(5)
    draws = rng.gamma(0.8, 2.0, size=200_000)
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(1.6, abs=0.02)
    with pytest.raises(DomainError):
        rng.gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        rng.normal(0.0, 0.0)


def test_rng_requires_integer_seed():
    with pytest.raises(DomainError):
        kernel.Rng(1.5)
