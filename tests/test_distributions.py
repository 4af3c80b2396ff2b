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

import quadrature
import sltb.kernel as kernel
from sltb import distributions as dist
from sltb.distributions import (
    DEFAULT_L,
    DEFAULT_S,
    BetaMuPhi,
    SltbParams,
    beta_logpdf,
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


def sl_pdf(p: SltbParams, z: float) -> float:
    """Density of the scale-location transformed variable z = (y - l)*s
    before truncation: (1/s) * f_beta(z/s + l), the quadrature oracle."""
    lo = -p.l * p.s
    hi = (1.0 - p.l) * p.s
    if not (lo - dist._SUPPORT_TOL <= z <= hi + dist._SUPPORT_TOL):
        raise DomainError(f"z={z} outside transformed support [{lo}, {hi}]")
    x = z / p.s + p.l
    a, b = p.alpha(), p.beta_shape()
    if x <= 0.0 or x >= 1.0:
        # exact support endpoint: return the limiting density value
        shape = a if x <= 0.0 else b
        if shape > 1.0:
            return 0.0
        if shape < 1.0:
            return math.inf
        # shape == 1: the x-power vanishes and the other factor tends to 1
        return math.exp(sp.gammaln(a + b) - sp.gammaln(a) - sp.gammaln(b)) / p.s
    return float(np.exp(dist.beta_logpdf_arrays(p.mu, p.phi, x))) / p.s


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


@pytest.mark.parametrize("law", [BetaMuPhi, SltbParams])
def test_phi_without_a_finite_density_is_refused(law):
    for phi in (math.inf, math.nan):
        with pytest.raises(DomainError, match="phi must be finite"):
            law(0.5, phi)
    # a shape below the smallest normal float makes gammaln inf
    tiny = np.finfo(float).tiny
    for mu, phi in [(0.5, 1e-320), (1e-6, 1e-303), (1.0 - 1e-6, 1e-303)]:
        with pytest.raises(NumericalError, match="too small for a finite"):
            law(mu, phi)
    assert law(0.5, 2.0 * tiny).alpha() == tiny
    assert math.isfinite(sltb_logpdf(SltbParams(0.5, 2.0 * tiny), 0.5))


def test_sltb_params_defaults_and_validation():
    p = SltbParams(0.5, 4.0)
    assert p.s == 1.0 + 10.0 ** -8.5
    assert p.l == 1e-9
    dist.check_boundary_window([0.0, 1.0], p.s, p.l)  # g at 0 and 1 is held
    assert 0.0 < p.l and 1.0 / p.s + p.l < 1.0
    identity = SltbParams(0.5, 4.0, s=1.0, l=0.0)
    with pytest.raises(DomainError, match="beta boundary"):
        dist.check_boundary_window([0.0, 1.0], identity.s, identity.l)
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
    total = quadrature.integrate(
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
    total = quadrature.integrate(
        lambda z: sl_pdf(p, z), lo, hi,
        quadrature.composite_rule(np.linspace(lo, hi, 17), order=40))
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
    below = quadrature.integrate(lambda z: sl_pdf(p, z), lo, 0.0,
                                 quadrature.gauss_legendre(lo, 0.0, order=40))
    above = quadrature.integrate(lambda z: sl_pdf(p, z), 1.0, hi,
                                 quadrature.gauss_legendre(1.0, hi, order=40))
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
# series normalizer: the two-betainc form as its oracle
# ---------------------------------------------------------------------------

def two_tail_log_normalizer(mu, phi, s, l):
    """The log-normalizer from both beta tails by `betainc` on every row:
    the form the series normalizer replaces, kept as its oracle."""
    a, b = mu * phi, (1.0 - mu) * phi
    eps_hi = (s - 1.0 - l * s) / s
    tail = sp.betainc(b, a, eps_hi) + sp.betainc(a, b, l)
    with np.errstate(divide="ignore"):
        return np.log1p(-np.minimum(tail, 1.0))


def horner_log_normalizer(mu, phi, s, l):
    """The series log-normalizer in the order of operations of its first
    Horner loop, with the fallback rows on the two-betainc form, kept so
    that the package's shared tail routine can be held to its bits. For
    calls that take the series: at least _SERIES_MIN_ROWS rows and
    max(phi, 1) * max(l, eps) below _SERIES_MAX_RATIO."""
    a, b = mu * phi, (1.0 - mu) * phi
    eps = (s - 1.0 - l * s) / s
    r = max(np.max(phi), 1.0) * max(l, eps)
    n = max(math.ceil(math.log(1e-17 * (1.0 - r)) / math.log(r)), 1)
    ln_b = sp.gammaln(a + b) - sp.gammaln(a) - sp.gammaln(b)
    p = np.array((a, b))
    x = np.array([l, eps]).reshape((2,) + (1,) * a.ndim)
    series = 1.0
    for k in range(n - 2, -1, -1):
        series = series * ((phi + k) * x) / (p + 1.0 + k) + 1.0
    root = (np.power(x, 0.5 * p)
            * np.exp(p[::-1] * (0.5 * np.log1p(-x)) + 0.5 * ln_b))
    tail = root * root * series / p
    tail = tail[0] + tail[1]
    redo = ~((1.0 - tail) * 64.0 >= phi + 4.0)
    tail[redo] = np.minimum(sp.betainc(b, a, eps) + sp.betainc(a, b, l),
                            1.0)[redo]
    return np.log1p(-tail)


def written_out_density_core(mu, phi, s, l, g):
    """ln f_beta(g/s + l) - ln s, written out in the density core's order
    of operations, so that the core can be held to it bit for bit."""
    a, b = mu * phi, (1.0 - mu) * phi
    ln_x, ln_1mx = dist.log_x_pair(g, s, l)[2:]
    return (sp.gammaln(a + b) - sp.gammaln(a) - sp.gammaln(b)
            + (a - 1.0) * ln_x + (b - 1.0) * ln_1mx) - np.log(s)


class BetaincSpy:
    """Stands in for scipy.special in `distributions`, counting the beta
    tails that `betainc` evaluates."""

    def __init__(self):
        self.evaluated = 0

    def __getattr__(self, name):
        return getattr(sp, name)

    def betainc(self, a, b, x):
        out = sp.betainc(a, b, x)
        self.evaluated += int(np.size(out))
        return out


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), f"{np.count_nonzero(~same)} of {same.size} values differ"


# Each form is within 1e-13 of the exact log-normalizer (the mpmath corner
# test below), so the two are within twice that of each other. Where the
# excluded tail underflows, ln Z is below the smallest normal float in size
# and the comparison is absolute.
_FORMS_RTOL = 2e-13
_TINY = np.finfo(float).tiny


def _assert_within_gate(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= np.maximum(_FORMS_RTOL * np.abs(want),
                                                 _TINY)
    ok = close | (got == want) | (np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~ok)
    assert bad.size == 0, (f"{bad.size} of {ok.size} values differ, first "
                           f"{got.flat[bad[0]]!r} against {want.flat[bad[0]]!r}")


def _check_against_two_tails(monkeypatch, mu, phi, s, l, g):
    """The normalizer agrees with the two-betainc form within the accuracy
    gate, and the log-density is the unchanged core minus that normalizer,
    bit for bit; returns how many tails `betainc` evaluated."""
    spy = BetaincSpy()
    monkeypatch.setattr(dist, "_sp", spy)
    with np.errstate(all="ignore"):
        got = dist.sltb_log_normalizer_arrays(mu, phi, s, l)
        evaluated = spy.evaluated
        _assert_within_gate(got, two_tail_log_normalizer(mu, phi, s, l))
        core = written_out_density_core(mu, phi, s, l, g)
        _assert_same_bits(dist.sltb_logpdf_arrays(mu, phi, s, l, g),
                          np.where(np.isfinite(got), core - got, -np.inf))
    return evaluated


def _random_rows(rng, shape):
    """mu log-uniform on [1e-300, 1/2] or 1 - mu on [1e-16, 1/2], with a
    few NaNs, and g uniform on [0, 1] with exact 0s and 1s."""
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


@pytest.mark.parametrize("window, phi_log10, series", [
    # r = max(phi, 1) * max(l, eps) below 1e-3: the series, with `betainc`
    # on the rows where Z < (phi + 4)/64 (nearly all at phi below 1e-3,
    # and all above phi 60) or the series is not finite
    ("default", (-3.0, 5.0), True),
    ("default", (-320.0, -3.0), True),
    ("narrow", (-320.0, -3.0), True),
    ("default", (-3.0, 1.8), True),
    ("narrow", (-3.0, 1.8), True),
    # r not small: `betainc` on every row
    ("illustration", (-320.0, -3.0), False),
    ("default", (-320.0, 22.0), False),
    ("illustration", (-3.0, 5.0), False),
    ("narrow", (-3.0, 5.0), False),
], ids=["default-moderate", "default-tiny", "narrow-tiny", "default-series-phi",
        "narrow-series-phi", "illustration-tiny", "default-wide",
        "illustration-moderate", "narrow-moderate"])
def test_tail_skip_is_bit_identical_to_two_tails(window, phi_log10, series,
                                                 monkeypatch):
    """The series normalizer against the two-betainc form, and the
    log-density bit for bit against its core minus that normalizer."""
    s, l = _WINDOWS[window]
    rng = np.random.default_rng(41)
    mu, g = _random_rows(rng, 20000)
    phi = 10.0 ** rng.uniform(*phi_log10, 20000)
    evaluated = _check_against_two_tails(monkeypatch, mu, phi, s, l, g)
    assert (evaluated < 2 * mu.size) == series


@pytest.mark.parametrize("mu_shape, phi_shape", [((1340,), ()),
                                                ((100, 6), (100, 1))],
                         ids=["hier-linear", "broadcast"])
def test_series_normalizer_keeps_the_bits_of_its_horner_loop(mu_shape,
                                                            phi_shape):
    # 1,340 rows under one phi, as a hier-linear coefficient proposal, and
    # 100 subjects by 6 delays with a phi per subject, as the nonlinear
    # sampler; the last subjects' tiny phi puts their rows on `betainc`
    rng = np.random.default_rng(13)
    for _ in range(20):
        mu = rng.uniform(0.02, 0.98, mu_shape)
        phi = rng.uniform(1.0, 50.0, phi_shape)
        if phi.ndim:
            mu[-3:], phi[-3:] = 1e-6, 1e-3
        with np.errstate(all="ignore"):
            want = horner_log_normalizer(mu, phi, DEFAULT_S, DEFAULT_L)
        _assert_same_bits(
            dist.sltb_log_normalizer_arrays(mu, phi, DEFAULT_S, DEFAULT_L), want)


def _series_rows(n, rng):
    """n rows where the series serves every row: mu in [0.05, 0.95], phi
    in [1, 50] at the default window."""
    return rng.uniform(0.05, 0.95, n), rng.uniform(1.0, 50.0, n)


@pytest.mark.parametrize("kind", ["cancel", "large-phi", "nan"])
def test_series_hands_its_fallback_rows_to_betainc(kind, monkeypatch):
    rng = np.random.default_rng(5)
    mu, phi = _series_rows(300, rng)
    rows = np.array([3, 77, 150, 299])
    if kind == "cancel":  # tails near 1: Z is about 4e-8
        mu[rows], phi[rows] = 1e-6, 1e-3
    elif kind == "large-phi":  # Z < (phi + 4)/64 at any Z
        phi[rows] = [60.5, 1e3, 1e5, 4e5]
    else:
        mu[rows] = np.nan
    g = rng.random(300)
    spy = BetaincSpy()
    monkeypatch.setattr(dist, "_sp", spy)
    got = dist.sltb_log_normalizer_arrays(mu, phi, DEFAULT_S, DEFAULT_L)
    assert spy.evaluated == 2 * rows.size
    want = two_tail_log_normalizer(mu, phi, DEFAULT_S, DEFAULT_L)
    _assert_same_bits(got[rows], want[rows])
    _assert_within_gate(got, want)
    _check_against_two_tails(monkeypatch, mu, phi, DEFAULT_S, DEFAULT_L, g)


@pytest.mark.parametrize("mu_shape, phi_shape, series", [
    ((dist._SERIES_MIN_ROWS - 1,), (dist._SERIES_MIN_ROWS - 1,), False),
    ((dist._SERIES_MIN_ROWS,), (dist._SERIES_MIN_ROWS,), True),
    ((1340,), (), True),  # one phi for every row, as a coefficient proposal
    ((100, 6), (100, 1), True),  # subjects by delays, as the nonlinear sampler
    ((), (), False),
], ids=["below-row-gate", "at-row-gate", "scalar-phi", "broadcast", "scalar"])
def test_tail_skip_row_gate_and_shapes(mu_shape, phi_shape, series, monkeypatch):
    """Calls below _SERIES_MIN_ROWS rows take `betainc`, larger ones the
    series, whatever the shapes of mu and phi."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu = rng.uniform(0.05, 0.95, mu_shape)
        phi = rng.uniform(1.0, 50.0, phi_shape)
        g = rng.random(mu_shape)
        if mu_shape == ():
            mu, phi = float(mu), float(phi)
        evaluated = _check_against_two_tails(monkeypatch, mu, phi, DEFAULT_S,
                                             DEFAULT_L, g)
        assert (evaluated == 0) == series


# ---------------------------------------------------------------------------
# mpmath at the corners: phi from 1e-3 to 1e8, mu from 1e-6 to 1 - 1e-6
# ---------------------------------------------------------------------------

_CORNER_MUS = (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6)
# mpmath's hypergeometric sums do not converge at the illustration window
# past phi 1e4; there r >= 0.04, so `betainc` serves every call anyway
_CORNER_WINDOWS = {"default": (DEFAULT_S, DEFAULT_L, 8),
                   "illustration": (1.08, 0.04, 4)}


def _corners(window):
    s, l, top = _CORNER_WINDOWS[window]
    for phi in (10.0 ** k for k in range(-3, top + 1)):
        for mu in _CORNER_MUS:
            yield SltbParams(mu, phi, s, l)


def mp_log_normalizer(p: SltbParams):
    """50-digit ln Z and the excluded tail I_l(a,b) + I_eps(b,a), from the
    float parameters (eps = 1 - (1/s + l) exactly in their values)."""
    mu, phi, s, l = map(mpmath.mpf, (p.mu, p.phi, p.s, p.l))
    a, b = mu * phi, (1 - mu) * phi
    tail = (mpmath.betainc(a, b, 0, l, regularized=True)
            + mpmath.betainc(b, a, 0, 1 - (1 / s + l), regularized=True))
    if tail < 0.5:
        return mpmath.log1p(-tail), tail
    return mpmath.log(mpmath.betainc(a, b, l, 1 / s + l, regularized=True)), tail


def _rel_error(got: float, want) -> float:
    if not math.isfinite(got):
        return math.inf
    return float(abs((got - want) / want))


@pytest.mark.parametrize("window", list(_CORNER_WINDOWS))
def test_log_normalizer_matches_mpmath_at_the_corners(window):
    # a call of _SERIES_MIN_ROWS rows takes the series path, a scalar call
    # the two-betainc form; the series must be within 1e-13 of mpmath
    # wherever the betainc form is, and no worse than it elsewhere
    for p in _corners(window):
        want, tail = mp_log_normalizer(p)
        rows = dist.sltb_log_normalizer_arrays(
            np.full(dist._SERIES_MIN_ROWS, p.mu), p.phi, p.s, p.l)
        assert np.all(rows == rows[0]) or np.all(np.isnan(rows))
        got = float(rows[0])
        ref = float(two_tail_log_normalizer(p.mu, p.phi, p.s, p.l))
        if tail < _TINY:  # the tail underflows: ln Z is -tail, compare absolutely
            assert abs(got - float(want)) <= _TINY, (p, got, want)
            continue
        err, err_ref = _rel_error(got, want), _rel_error(ref, want)
        assert err <= 1e-13 or err <= err_ref, (p, err, err_ref)


def _has_mass(p: SltbParams) -> bool:
    return math.isfinite(dist.sltb_log_normalizer_arrays(p.mu, p.phi, p.s, p.l))


def _cdf_noise(p: SltbParams) -> float:
    """Absolute rounding error of `sltb_cdf`: a difference of two beta cdf
    values, each good to an ulp of 1, divided by the normalizer Z."""
    return 4.0 * np.finfo(float).eps / normalizer(p)


@pytest.mark.parametrize("window", list(_CORNER_WINDOWS))
def test_cdf_quantile_round_trip_at_the_corners(window):
    q = np.array([1e-3, 0.1, 0.5, 0.9, 0.999])
    checked = 0
    for p in _corners(window):
        if not _has_mass(p):  # refused, as test_cdf_and_quantile_refuse_... checks
            continue
        g = sltb_quantile(p, q)
        # g is good to a few ulps, which moves the cdf by the density times that
        slack = (np.exp(sltb_logpdf(p, g)) * np.maximum(g, DEFAULT_L)
                 * 8 * np.finfo(float).eps)
        assert np.all(np.abs(sltb_cdf(p, g) - q) <= 1e-9 + _cdf_noise(p) + slack), p
        checked += 1
    assert checked >= 45  # of the 84 and 56 corners, all that hold mass


@pytest.mark.parametrize("window", list(_CORNER_WINDOWS))
def test_logpdf_is_the_cdf_derivative_at_the_boundary(window):
    # the one-sided difference of the cdf at g = 0 and g = 1, Richardson-
    # extrapolated, against the density from a series-path call; h is a
    # power of 2 (so 1 - h is exact) well below the scale l*s/max(phi, 1)
    # on which the density varies there
    checked = 0
    for p in _corners(window):
        if not _has_mass(p):
            continue
        h = 2.0 ** math.floor(math.log2(1e-4 * p.l * p.s / max(p.phi, 1.0)))
        for g0, side in ((0.0, 1.0), (1.0, -1.0)):
            base = sltb_cdf(p, g0)
            step = lambda k: side * (sltb_cdf(p, g0 + side * h / k) - base)
            if step(2.0) < 1e7 * _cdf_noise(p):
                continue  # the increment is not resolved to 1e-7
            slope = (4.0 * step(2.0) - step(1.0)) / h
            dens = np.exp(sltb_logpdf(p, np.full(dist._SERIES_MIN_ROWS, g0)))
            assert np.all(dens == dens[0])
            assert dens[0] == pytest.approx(slope, rel=1e-6), (p, g0)
            checked += 1
    assert checked >= 15  # 19 and 27 boundary points resolve


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
            total = quadrature.integrate(lambda g: sltb_pdf(p, g), 0.0, 1.0, graded_rule)
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
        mass = quadrature.integrate(lambda t: sltb_pdf(p, t), 0.0, g,
                                    quadrature.composite_rule(
                                        [0.0, 1e-9, 1e-6, 1e-3, g / 2, g],
                                        order=48))
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


def mp_cdf(p: SltbParams, g: float) -> mpmath.mpf:
    mu, phi, s, l, g = map(mpmath.mpf, (p.mu, p.phi, p.s, p.l, g))
    a, b = mu * phi, (1 - mu) * phi
    lower = lambda x: mpmath.betainc(a, b, 0, x, regularized=True)
    return (lower(g / s + l) - lower(l)) / mp_normalizer(p.mu, p.phi, p.s, p.l)


@pytest.mark.parametrize("p, gs", [
    (SltbParams(0.999, 1e3, 1.08, 0.04), (0.5, 0.9, 0.99)),
    (SltbParams(1e-6, 1e-3), (1e-9, 0.3, 0.5, 1.0 - 1e-9)),
    (SltbParams(1.0 - 1e-6, 1e-3), (1e-9, 0.3, 0.5, 1.0 - 1e-9)),
], ids=["wide-phi-1e3", "default-mu-1e-6", "default-mu-1-1e-6"])
def test_cdf_matches_mpmath_where_the_normalizer_is_small(p, gs):
    # Z is 9.6e-16 in the wide window, where 1 minus the excluded tails
    # keeps no digit of it, and about 4e-8 at the default window, where it
    # keeps eight; the cdf there was all error or 1e-9 relative
    for g in gs:
        want = float(mp_cdf(p, g))
        assert sltb_cdf(p, g) == pytest.approx(want, rel=1e-12), g
        assert sltb_cdf(p, sltb_quantile(p, want)) == pytest.approx(
            want, rel=1e-12), g


@pytest.mark.parametrize("mu", [1e-3, 0.999])
def test_quantile_round_trip_where_the_window_sits_in_a_tail(mu):
    # at (1.08, 0.04) and phi 500, mu 1e-3 leaves F_beta(l) near 1, so the
    # quantile inverts the upper tail 1 - F_beta(l) - q Z, as the cdf does,
    # and keeps the accuracy of the mirrored mu 0.999; from F_beta(l) + q Z
    # its round trip was 4.3e-13 off at q = 0.1
    p = SltbParams(mu, 500.0, 1.08, 0.04)
    q = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    assert sltb_cdf(p, sltb_quantile(p, q)) == pytest.approx(q, rel=5e-14, abs=0.0)


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
