"""Distribution layer: beta in (mu, phi) form and the SLTB law.

The independent oracle for SLTB values is a 50-digit mpmath evaluation of
the defining formula (base beta density at g/s + l, divided by s times
the truncation normalizer), which exercises none of the log-space and
complement algebra used by the implementation.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.stats as st
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as hs

import sltb.kernel as kernel
from sltb import distributions as dist
from sltb.distributions import (
    DEFAULT_L,
    DEFAULT_S,
    BetaMuPhi,
    SltbParams,
    beta_logpdf,
    sl_pdf,
    sltb_cdf,
    sltb_logpdf,
    sltb_mean,
    sltb_pdf,
    sltb_quantile,
    sltb_sample,
    sltb_var,
)
from sltb.errors import BoundaryError, DomainError, NumericalError

from conftest import unit_graded_rule

mpmath.mp.dps = 50


def mp_sltb_logpdf(mu: float, phi: float, s: float, l: float, g: float) -> float:
    """Extended-precision evaluation of the SLTB log-density definition."""
    mu, phi, s, l, g = map(mpmath.mpf, (mu, phi, s, l, g))
    a, b = mu * phi, (1 - mu) * phi
    x = g / s + l
    log_fbeta = (a - 1) * mpmath.log(x) + (b - 1) * mpmath.log(1 - x) \
        - mpmath.log(mpmath.beta(a, b))
    norm = mpmath.betainc(a, b, 0, 1 / s + l, regularized=True) \
        - mpmath.betainc(a, b, 0, l, regularized=True)
    return float(log_fbeta - mpmath.log(s) - mpmath.log(norm))


def mp_normalizer(mu: float, phi: float, s: float, l: float) -> mpmath.mpf:
    mu, phi, s, l = map(mpmath.mpf, (mu, phi, s, l))
    a, b = mu * phi, (1 - mu) * phi
    return mpmath.betainc(a, b, 0, 1 / s + l, regularized=True) \
        - mpmath.betainc(a, b, 0, l, regularized=True)


def normalizer(p: SltbParams) -> float:
    """The package's truncation normalizer, from its log form."""
    return math.exp(dist.sltb_log_normalizer_arrays(p.mu, p.phi, p.s, p.l))


class CountingRng(kernel.Rng):
    """An Rng that counts the beta variates drawn from it, so a test sees
    how many proposals the rejection sampler made."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.drawn = 0

    def beta(self, a, b, size=None):
        self.drawn += 1 if size is None else int(np.prod(size))
        return super().beta(a, b, size)


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------

def test_beta_mu_phi_shape_form():
    p = BetaMuPhi(0.3, 9.0)
    assert p.alpha() == pytest.approx(2.7)
    assert p.beta_shape() == pytest.approx(6.3)
    assert p.mean() == 0.3
    assert p.variance() == pytest.approx(0.3 * 0.7 / 10.0, rel=1e-15)


def test_beta_mu_phi_validation():
    for mu, phi in [(0.0, 1.0), (1.0, 1.0), (-0.2, 1.0), (0.5, 0.0), (0.5, -3.0)]:
        with pytest.raises(DomainError):
            BetaMuPhi(mu, phi)


def test_sltb_params_defaults_and_validation():
    p = SltbParams(0.5, 4.0)
    assert p.s == 1.0 + 10.0 ** -8.5
    assert p.l == 1e-9
    assert p.boundary_safe()
    assert 0.0 < p.l and 1.0 / p.s + p.l < 1.0
    identity = SltbParams(0.5, 4.0, s=1.0, l=0.0)
    assert not identity.boundary_safe()
    with pytest.raises(DomainError):
        SltbParams(0.5, 4.0, s=1.0, l=0.1)  # support pokes past 1
    with pytest.raises(DomainError):
        SltbParams(0.5, 4.0, s=0.5, l=0.0)
    with pytest.raises(DomainError):
        SltbParams(0.5, 4.0, l=-1e-9)
    for s, l in [(math.inf, DEFAULT_L), (math.nan, DEFAULT_L),
                 (DEFAULT_S, math.nan), (DEFAULT_S, math.inf)]:
        with pytest.raises(DomainError, match="scale s|location l"):
            SltbParams(0.5, 4.0, s=s, l=l)


# ---------------------------------------------------------------------------
# beta log-density
# ---------------------------------------------------------------------------

def test_beta_logpdf_uniform_case():
    assert beta_logpdf(BetaMuPhi(0.5, 2.0), 0.3) == pytest.approx(0.0, abs=1e-14)


def test_beta_logpdf_symmetric_case():
    # alpha = beta = 2: pdf 6 y (1-y), at 1/2 equals 1.5
    assert beta_logpdf(BetaMuPhi(0.5, 4.0), 0.5) == pytest.approx(math.log(1.5), abs=1e-14)


def test_beta_logpdf_boundary_failure():
    p = BetaMuPhi(0.5, 4.0)
    for y in [0.0, 1.0, -0.1, 1.1]:
        with pytest.raises(BoundaryError):
            beta_logpdf(p, y)


def test_beta_logpdf_integrates_to_one(graded_rule):
    p = BetaMuPhi(0.37, 6.2)
    total = kernel.integrate(
        lambda y: math.exp(beta_logpdf(p, y)) if 0.0 < y < 1.0 else 0.0,
        0.0, 1.0, graded_rule,
    )
    assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# scale-location density (pre-truncation)
# ---------------------------------------------------------------------------

def test_sl_pdf_uniform_base():
    p = SltbParams(0.5, 2.0)
    for z in [-p.l * p.s, 0.0, 0.3, 1.0, (1.0 - p.l) * p.s]:
        assert sl_pdf(p, z) == pytest.approx(1.0 / p.s, rel=1e-12)


def test_sl_pdf_identity_transform_reduces_to_beta():
    p = SltbParams(0.4, 7.0, s=1.0, l=0.0)
    for z in [0.1, 0.4, 0.93]:
        assert sl_pdf(p, z) == pytest.approx(
            math.exp(beta_logpdf(BetaMuPhi(0.4, 7.0), z)), rel=1e-12
        )


def test_sl_pdf_extended_precision_value():
    p = SltbParams(0.5, 4.0)
    got = sl_pdf(p, 0.5)
    want = float(
        mpmath.mpf(1.5) * (1 - (mpmath.mpf(0.5) / p.s + p.l))
        * (mpmath.mpf(0.5) / p.s + p.l) * 4 / p.s
    )  # 6 x (1-x) / s at x = z/s + l
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(1.5 / p.s, rel=1e-7)  # 1.5 * (1 + O(1e-8))


def test_sl_pdf_support_and_integral():
    p = SltbParams(0.5, 4.0, s=1.08, l=0.04)
    with pytest.raises(DomainError):
        sl_pdf(p, -0.1)
    with pytest.raises(DomainError):
        sl_pdf(p, 1.05)
    lo, hi = -p.l * p.s, (1.0 - p.l) * p.s
    total = kernel.integrate(lambda z: sl_pdf(p, z), lo, hi,
                             kernel.composite_rule(np.linspace(lo, hi, 17), order=40))
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# truncation normalizer
# ---------------------------------------------------------------------------

def test_normalizer_uniform_exact():
    p = SltbParams(0.5, 2.0)
    assert normalizer(p) == pytest.approx(1.0 / p.s, rel=1e-14)


def test_normalizer_identity_is_one():
    assert normalizer(SltbParams(0.5, 4.0, s=1.0, l=0.0)) == 1.0


def test_normalizer_default_tail_negligible():
    p = SltbParams(0.5, 4.0)
    tail = float(1 - mp_normalizer(p.mu, p.phi, p.s, p.l))
    assert 0.0 < tail < 1e-8  # about 1.7e-17 in exact arithmetic
    assert normalizer(p) == pytest.approx(1.0, abs=1e-12)


def test_normalizer_visible_truncation_quadrature_oracle():
    # coarse illustration values make the truncated tails visible
    p = SltbParams(0.5, 4.0, s=1.08, l=0.04)
    lo, hi = -p.l * p.s, (1.0 - p.l) * p.s
    below = kernel.integrate(lambda z: sl_pdf(p, z), lo, 0.0,
                             kernel.gauss_legendre(lo, 0.0, order=40))
    above = kernel.integrate(lambda z: sl_pdf(p, z), 1.0, hi,
                             kernel.gauss_legendre(1.0, hi, order=40))
    assert normalizer(p) == pytest.approx(1.0 - below - above, abs=1e-12)
    assert normalizer(p) == pytest.approx(
        float(mp_normalizer(p.mu, p.phi, p.s, p.l)), abs=1e-13
    )


def test_normalizer_heavy_truncation_small_shapes():
    # small precision puts real beta mass outside the transformed window
    p = SltbParams(0.1, 0.5)
    got = normalizer(p)
    want = float(mp_normalizer(p.mu, p.phi, p.s, p.l))
    assert got == pytest.approx(want, rel=1e-11)
    assert got < 0.99  # truncation genuinely matters here


# ---------------------------------------------------------------------------
# negligible-tail skip: bit for bit the two-tail normalizer
# ---------------------------------------------------------------------------

def two_tail_log_normalizer(mu, phi, s, l):
    """The log-normalizer with both beta tails evaluated on every row: the
    reference that the tail skip must reproduce bit for bit."""
    a, b = mu * phi, (1.0 - mu) * phi
    eps_hi = (s - 1.0 - l * s) / s
    tail = sp.betainc(b, a, eps_hi) + sp.betainc(a, b, l)
    with np.errstate(divide="ignore"):
        return np.log1p(-np.minimum(tail, 1.0))


class BetaincSpy:
    """Stands in for scipy.special in `distributions`, counting the beta
    tails that `betainc` evaluates (the rows its `where` mask selects)."""

    def __init__(self):
        self.evaluated = 0

    def __getattr__(self, name):
        return getattr(sp, name)

    def betainc(self, a, b, x, **kw):
        out = sp.betainc(a, b, x, **kw)
        self.evaluated += int(np.count_nonzero(kw.get("where", np.ones(np.shape(out)))))
        return out


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), f"{np.count_nonzero(~same)} of {same.size} values differ"


def _check_against_two_tails(monkeypatch, mu, phi, s, l, g):
    """Normalizer and log-density equal the two-tail form bit for bit;
    returns whether the normalizer skipped any tail."""
    with monkeypatch.context() as m:
        m.setattr(dist, "sltb_log_normalizer_arrays", two_tail_log_normalizer)
        with np.errstate(all="ignore"):
            want_logpdf = dist.sltb_logpdf_arrays(mu, phi, s, l, g)
    spy = BetaincSpy()
    monkeypatch.setattr(dist, "_sp", spy)
    with np.errstate(all="ignore"):
        got = dist.sltb_log_normalizer_arrays(mu, phi, s, l)
        evaluated = spy.evaluated
        _assert_same_bits(got, two_tail_log_normalizer(mu, phi, s, l))
        _assert_same_bits(dist.sltb_logpdf_arrays(mu, phi, s, l, g), want_logpdf)
    return evaluated < 2 * np.size(got)


def _random_rows(rng, shape):
    """mu log-uniform on [1e-300, 1/2] or 1 - mu on [1e-16, 1/2], with a
    few NaNs (whose gap is NaN, so both tails must be kept), and g uniform
    on [0, 1] with exact 0s and 1s."""
    mu = np.where(rng.random(shape) < 0.5,
                  10.0 ** rng.uniform(-300.0, -0.3, shape),
                  1.0 - 10.0 ** rng.uniform(-16.0, -0.3, shape))
    mu[rng.random(shape) < 0.01] = np.nan
    g = rng.random(shape)
    g[rng.random(shape) < 0.05] = 0.0
    g[rng.random(shape) < 0.05] = 1.0
    return mu, g


_WINDOWS = {"default": (DEFAULT_S, DEFAULT_L), "illustration": (1.08, 0.04),
            "narrow": (1.0 + 1e-6, 1e-7)}


@pytest.mark.parametrize("window, phi_log10, skips", [
    # max(phi)*max(l, eps) < 1e-3: the skip is valid and taken
    ("default", (-3.0, 5.0), True),
    ("default", (-320.0, -3.0), True),
    ("illustration", (-320.0, -3.0), True),
    ("narrow", (-320.0, -3.0), True),
    # phi too large for the window: both tails on every row
    ("default", (-320.0, 22.0), False),
    ("illustration", (-3.0, 5.0), False),
    ("narrow", (-3.0, 5.0), False),
], ids=["default-moderate", "default-tiny", "illustration-tiny", "narrow-tiny",
        "default-wide", "illustration-moderate", "narrow-moderate"])
def test_tail_skip_is_bit_identical_to_two_tails(window, phi_log10, skips,
                                                 monkeypatch):
    s, l = _WINDOWS[window]
    rng = np.random.default_rng(41)
    mu, g = _random_rows(rng, 20000)
    phi = 10.0 ** rng.uniform(*phi_log10, 20000)
    assert _check_against_two_tails(monkeypatch, mu, phi, s, l, g) == skips


@pytest.mark.parametrize("mu_shape, phi_shape, skips", [
    ((dist._SKIP_MIN_ROWS - 1,), (dist._SKIP_MIN_ROWS - 1,), False),
    ((dist._SKIP_MIN_ROWS,), (dist._SKIP_MIN_ROWS,), True),
    ((1340,), (), True),  # one phi for every row, as a coefficient proposal
    ((100, 6), (100, 1), True),  # subjects by delays, as the nonlinear sampler
    ((), (), False),
], ids=["below-row-gate", "at-row-gate", "scalar-phi", "broadcast", "scalar"])
def test_tail_skip_row_gate_and_shapes(mu_shape, phi_shape, skips, monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu, g = _random_rows(rng, mu_shape)
        phi = 10.0 ** rng.uniform(-3.0, 5.0, phi_shape)
        if mu_shape == ():
            mu, phi = float(mu), float(phi)
        taken = _check_against_two_tails(monkeypatch, mu, phi, DEFAULT_S,
                                         DEFAULT_L, g)
        assert taken == skips


# ---------------------------------------------------------------------------
# SLTB log-density
# ---------------------------------------------------------------------------

def test_sltb_logpdf_uniform_boundary_is_zero():
    p = SltbParams(0.5, 2.0)
    assert sltb_logpdf(p, 0.0) == pytest.approx(0.0, abs=1e-10)
    assert sltb_logpdf(p, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_sltb_logpdf_boundary_value_expected_form():
    p = SltbParams(0.5, 4.0)
    want = math.log(6.0 * p.l * (1.0 - p.l)) - math.log(p.s * normalizer(p))
    assert sltb_logpdf(p, 0.0) == pytest.approx(want, rel=1e-12)
    assert sltb_logpdf(p, 0.0) == pytest.approx(math.log(6e-9), abs=1e-6)
    assert sltb_logpdf(p, 0.0) == pytest.approx(
        mp_sltb_logpdf(p.mu, p.phi, p.s, p.l, 0.0), abs=1e-10
    )


def test_sltb_logpdf_extended_precision_grid():
    for mu in [0.2, 0.5, 0.9]:
        for phi in [0.5, 4.0, 50.0]:
            p = SltbParams(mu, phi)
            for g in [0.0, 1e-6, 0.3, 0.999999, 1.0]:
                got = sltb_logpdf(p, g)
                want = mp_sltb_logpdf(mu, phi, p.s, p.l, g)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (mu, phi, g)


def test_sltb_logpdf_matches_sl_pdf_minus_normalizer():
    p = SltbParams(0.5, 4.0, s=1.08, l=0.04)
    for g in [0.0, 0.2, 0.77, 1.0]:
        want = math.log(sl_pdf(p, g)) - math.log(normalizer(p))
        assert sltb_logpdf(p, g) == pytest.approx(want, rel=1e-12)


def test_sltb_logpdf_domain_and_degenerate_guard():
    p = SltbParams(0.5, 4.0)
    with pytest.raises(DomainError):
        sltb_logpdf(p, -0.01)
    with pytest.raises(DomainError):
        sltb_logpdf(p, 1.01)
    identity = SltbParams(0.5, 4.0, s=1.0, l=0.0)
    with pytest.raises(DomainError):
        sltb_logpdf(identity, 0.0)  # would evaluate the beta at its boundary
    assert math.isfinite(sltb_logpdf(identity, 0.4))  # interior still fine


def test_sltb_boundary_finite_on_grid():
    for mu in np.arange(0.1, 0.95, 0.1):
        for phi in [0.5, 2.0, 10.0, 50.0]:
            p = SltbParams(float(mu), float(phi))
            assert math.isfinite(sltb_logpdf(p, 0.0)), (mu, phi)
            assert math.isfinite(sltb_logpdf(p, 1.0)), (mu, phi)


def test_sltb_normalization_on_grid(graded_rule):
    for mu in np.arange(0.1, 0.95, 0.1):
        for phi in [0.5, 2.0, 10.0, 50.0]:
            p = SltbParams(float(mu), float(phi))
            total = kernel.integrate(lambda g: sltb_pdf(p, g), 0.0, 1.0, graded_rule)
            assert total == pytest.approx(1.0, abs=1e-8), (mu, phi)


def test_sltb_converges_to_beta_as_transform_vanishes():
    grid = np.linspace(0.01, 0.99, 197)
    base = np.exp(dist.beta_logpdf_arrays(0.5, 4.0, grid))
    sups = []
    for k in range(4, 9):
        s = 1.0 + 10.0 ** -k * math.sqrt(10.0)
        l = 10.0 ** -(k + 1)
        p = SltbParams(0.5, 4.0, s=s, l=l)
        sups.append(float(np.max(np.abs(sltb_pdf(p, grid) - base))))
    assert all(b < a for a, b in zip(sups, sups[1:])), sups
    assert sups[-1] < 1e-3


# ---------------------------------------------------------------------------
# CDF / quantile
# ---------------------------------------------------------------------------

def test_sltb_cdf_endpoints_and_uniform():
    p = SltbParams(0.5, 2.0)
    assert sltb_cdf(p, 0.0) == 0.0
    assert sltb_cdf(p, 1.0) == 1.0
    assert sltb_cdf(p, 0.25) == pytest.approx(0.25, abs=1e-9)


def test_sltb_cdf_matches_quadrature():
    p = SltbParams(0.3, 7.0)
    for g in [0.05, 0.31, 0.8]:
        mass = kernel.integrate(lambda t: sltb_pdf(p, t), 0.0, g,
                                kernel.composite_rule(
                                    [0.0, 1e-9, 1e-6, 1e-3, g / 2, g], order=48))
        assert sltb_cdf(p, g) == pytest.approx(mass, abs=1e-9)


def test_sltb_quantile_round_trip_example():
    p = SltbParams(0.3, 7.0)
    q = sltb_cdf(p, 0.37)
    assert sltb_quantile(p, q) == pytest.approx(0.37, abs=1e-9)


@given(
    hs.floats(min_value=0.05, max_value=0.95),
    hs.floats(min_value=0.3, max_value=60.0),
    hs.floats(min_value=0.001, max_value=0.999),
)
def test_sltb_cdf_quantile_round_trip_property(mu, phi, q):
    p = SltbParams(mu, phi)
    g = sltb_quantile(p, q)
    assert sltb_cdf(p, g) == pytest.approx(q, abs=1e-9)


def test_sltb_quantile_array_is_the_scalar_calls():
    p = SltbParams(0.3, 7.0)
    q = np.linspace(0.0, 1.0, 201)
    got = sltb_quantile(p, q)
    assert isinstance(got, np.ndarray) and got.shape == q.shape
    assert np.array_equal(got, [sltb_quantile(p, float(v)) for v in q])
    assert isinstance(sltb_quantile(p, 0.25), float)


@pytest.mark.parametrize("s, l", [(DEFAULT_S, DEFAULT_L), (1.08, 0.04)],
                         ids=["default", "illustration"])
def test_sltb_cdf_quantile_round_trip_corners(s, l):
    q = np.array([0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
    for mu in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        for phi in (0.3, 0.5, 1.0, 2.0, 7.0, 20.0, 60.0):
            p = SltbParams(mu, phi, s, l)
            assert sltb_cdf(p, sltb_quantile(p, q)) == pytest.approx(
                q, abs=1e-9), (mu, phi)


def test_cdf_and_quantile_refuse_a_window_without_mass():
    # shapes of 5e-31 put the beta mass within an ulp of 0 and 1, so the
    # log-normalizer is -inf; the median of this symmetric law is 0.5,
    # and neither 0.0 nor NaN may stand in for it
    p = SltbParams(0.5, 1e-30)
    assert dist.sltb_log_normalizer_arrays(p.mu, p.phi, p.s, p.l) == -np.inf
    for law_function in (sltb_cdf, sltb_quantile):
        with pytest.raises(NumericalError, match=r"mu=0\.5, phi=1e-30"):
            law_function(p, 0.5)


def test_sltb_quantile_extremes_and_domain():
    p = SltbParams(0.5, 4.0)
    assert sltb_quantile(p, 0.0) == 0.0
    assert sltb_quantile(p, 1.0) == 1.0
    with pytest.raises(DomainError):
        sltb_quantile(p, -0.1)
    with pytest.raises(DomainError):
        sltb_cdf(p, 1.5)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_reduce_to_beta_at_identity():
    p = SltbParams(0.3, 9.0, s=1.0, l=0.0)
    assert sltb_mean(p) == pytest.approx(0.3, abs=1e-15)
    assert sltb_var(p) == pytest.approx(0.021, abs=1e-15)


def test_mean_default_form():
    p = SltbParams(0.5, 4.0)
    # equal up to association order of the products, one ulp of 0.5
    assert sltb_mean(p) == pytest.approx(0.5 * p.s - p.s * 1e-9, abs=3e-16)


def test_moment_difference_identities():
    # differences against the base beta match the closed forms to 1e-15
    for mu, phi in [(0.5, 4.0), (0.2, 11.0), (0.85, 0.7)]:
        p = SltbParams(mu, phi)
        base = BetaMuPhi(mu, phi)
        mean_diff = sltb_mean(p) - base.mean()
        var_diff = sltb_var(p) - base.variance()
        assert mean_diff == pytest.approx((p.s - 1.0) * mu - p.s * p.l, abs=1e-15)
        assert var_diff == pytest.approx(
            (p.s * p.s - 1.0) * mu * (1.0 - mu) / (phi + 1.0), abs=1e-15
        )


def test_mean_difference_symmetric_case_value():
    # alpha = beta = 2: difference is 10^-8.5 * 0.5 - s * 1e-9, about 5.8e-10
    p = SltbParams(0.5, 4.0)
    want = 10.0 ** -8.5 * 0.5 - p.s * 1e-9
    assert sltb_mean(p) - 0.5 == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sltb_sample_defaults_never_reject():
    p = SltbParams(0.5, 4.0)
    rng = CountingRng(7)
    draws = sltb_sample(p, rng, size=10_000)
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    assert rng.drawn == 10_000  # rejection probability ~1e-17 at defaults


def test_sltb_sample_monte_carlo_moments():
    p = SltbParams(0.5, 4.0)
    rng = kernel.Rng(1234)
    n = 10 ** 6
    draws = sltb_sample(p, rng, size=n)
    se_mean = math.sqrt(sltb_var(p) / n)
    assert draws.mean() == pytest.approx(sltb_mean(p), abs=4 * se_mean)
    # variance of the sample variance for a bounded variable, generous bound
    assert draws.var(ddof=1) == pytest.approx(sltb_var(p), rel=0.01)


def test_sltb_sample_acceptance_matches_normalizer():
    # coarse transform values so rejections actually happen
    p = SltbParams(0.5, 4.0, s=1.08, l=0.04)
    rng = CountingRng(99)
    n = 40_000
    sltb_sample(p, rng, size=n)
    accept_rate = n / rng.drawn
    norm = normalizer(p)
    se = math.sqrt(norm * (1 - norm) / rng.drawn)
    assert accept_rate == pytest.approx(norm, abs=5 * se)


def test_sltb_sample_ks_against_cdf():
    p = SltbParams(0.5, 4.0, s=1.08, l=0.04)
    rng = kernel.Rng(2718)
    draws = sltb_sample(p, rng, size=10 ** 5)
    res = st.kstest(draws, lambda g: sltb_cdf(p, np.asarray(g)))
    assert res.pvalue > 0.001


def test_sltb_sample_deterministic():
    p = SltbParams(0.4, 9.0)
    a = sltb_sample(p, kernel.Rng(5))
    b = sltb_sample(p, kernel.Rng(5))
    assert isinstance(a, float) and 0.0 <= a <= 1.0
    assert a == b
    assert np.array_equal(sltb_sample(p, kernel.Rng(5), size=50),
                          sltb_sample(p, kernel.Rng(5), size=50))


# ---------------------------------------------------------------------------
# default (s, l) audit
# ---------------------------------------------------------------------------

def tune_scale_location(
    mu: float = 0.5,
    phi: float = 4.0,
    grid_points: int = 10_000,
    log10_s_minus_1=(-10.0, -6.0),
    log10_l=(-11.0, -7.0),
    steps: int = 9,
) -> tuple[float, float]:
    """Grid search for (s, l) minimizing the summed squared difference
    between the SLTB and plain beta densities on a fine interior grid.

    This is the audit trail for the default constants: they sit in the
    region where the two densities agree to within floating-point noise.
    """
    g = np.linspace(0.0, 1.0, grid_points + 2)[1:-1]
    base = np.exp(dist.beta_logpdf_arrays(mu, phi, g))
    best = None
    for es in np.linspace(*log10_s_minus_1, steps):
        for el in np.linspace(*log10_l, steps):
            s = 1.0 + 10.0 ** es
            l = 10.0 ** el
            diff = np.exp(dist.sltb_logpdf_arrays(mu, phi, s, l, g)) - base
            score = float(np.sum(diff * diff))
            if best is None or score < best[0]:
                best = (score, s, l)
    return best[1], best[2]


def test_tune_scale_location_agrees_with_defaults_region():
    s, l = tune_scale_location(grid_points=2000, steps=5)
    assert 1.0 + 1e-10 <= s <= 1.0 + 1e-6
    assert 1e-11 <= l <= 1e-7
    # the selected pair keeps the two densities numerically identical
    grid = np.linspace(0.0, 1.0, 1002)[1:-1]
    base = np.exp(dist.beta_logpdf_arrays(0.5, 4.0, grid))
    cand = np.exp(dist.sltb_logpdf_arrays(0.5, 4.0, s, l, grid))
    assert float(np.max(np.abs(cand - base))) < 1e-6


def test_default_constants_near_identity():
    grid = np.linspace(0.0, 1.0, 1002)[1:-1]
    base = np.exp(dist.beta_logpdf_arrays(0.5, 4.0, grid))
    cand = np.exp(dist.sltb_logpdf_arrays(0.5, 4.0, DEFAULT_S, DEFAULT_L, grid))
    assert float(np.max(np.abs(cand - base))) < 1e-6
