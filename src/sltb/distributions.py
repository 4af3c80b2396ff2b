"""Beta distribution in mean-precision form and its scale-location-truncated
extension (SLTB).

The SLTB law takes y ~ Beta(mu*phi, (1-mu)*phi), pushes it through
z = (y - l)*s, and truncates z to [0, 1].  With the default scale
s = 1 + 10**-8.5 and location l = 1e-9 the density is numerically
indistinguishable from the beta on the interior yet stays finite and
positive at g = 0 and g = 1, which is what lets likelihoods accept
boundary observations.

The truncation normalizer Z = 1 - I_l(a,b) - I_eps(b,a) and its partials
in the beta shapes sum each excluded tail's DLMF 8.17.8 series in one
Horner pass (`_tail_series`); `betainc` still serves small calls, wide
windows, and the rows where a large phi or 1 - tail cancelling would cost
the series its accuracy. The cdf and quantile take Z from complements.

The density, its normalizer and the cdf each have one vectorized
``*_arrays`` core. The public functions take an ``SltbParams`` and a
scalar or array argument, check its domain, and return a float for a
scalar argument and an array otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import BoundaryError, DomainError, NumericalError
from .kernel import Rng

DEFAULT_S = 1.0 + 10.0 ** -8.5
DEFAULT_L = 1e-9

_SUPPORT_TOL = 4.0 * np.finfo(float).eps

# sltb_log_normalizer_arrays sums the tails' DLMF 8.17.8 series on calls of
# at least _SERIES_MIN_ROWS rows whose ratio bound is below _SERIES_MAX_RATIO
# (at most six terms), and `betainc` takes the rest. The series' fixed cost
# is about 30 us a call.
# Normalizer us, betainc -> series (2-core x86, min of 41 x 50 calls), at
# 24/48/96/126/192/252/600 rows: hier-linear regime (phi 38, mu 0.05-0.47)
# 12->28, 17->27, 28->32, 40->32, 48->32, 64->37, 144->48; study (phi 10,
# mu 0.05-0.95) 11->26, 16->28, 27->32, 32->32, 42->31, 55->35, 119->44;
# nonlinear (phi 1-40 per subject, mu 0.02-0.98) 13->35, 15->29, 27->35,
# 33->37, 47->39, 63->44, 136->57.
_SERIES_MIN_ROWS = 128
_SERIES_MAX_RATIO = 1e-3

# most series terms `sltb_log_normalizer_partials` sums for one call
_TERM_CAP = 4000


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaMuPhi:
    """Beta distribution parameterized by mean mu and precision phi.

    Shape form: alpha = mu*phi, beta = (1-mu)*phi, so the mean is mu and
    the variance is mu*(1-mu)/(1+phi).
    """

    mu: float
    phi: float

    def __post_init__(self):
        _check_mu_phi(self.mu, self.phi)

    def alpha(self) -> float:
        return self.mu * self.phi

    def beta_shape(self) -> float:
        return (1.0 - self.mu) * self.phi

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.mu * (1.0 - self.mu) / (1.0 + self.phi)


def _check_mu_phi(mu: float, phi: float) -> None:
    """Refuse a mu outside (0,1) or a non-finite or non-positive phi, and
    (NumericalError) a phi whose beta shape mu*phi or (1-mu)*phi is below
    the smallest normal float, where gammaln is inf and the density NaN."""
    if not (0.0 < mu < 1.0):
        raise DomainError(f"mu must lie in (0,1), got {mu}")
    if not (math.isfinite(phi) and phi > 0.0):
        raise DomainError(f"phi must be finite and positive, got {phi}")
    if min(mu * phi, (1.0 - mu) * phi) < np.finfo(float).tiny:
        raise NumericalError(f"phi={phi} is too small for a finite density "
                             f"at mu={mu}: a beta shape underflows")


def check_scale_location(s: float, l: float) -> None:
    """Refuse a scale s or location l whose transformed support does not
    sit inside the closed unit interval of the base beta: both must be
    finite, with s > 0, l >= 0 and 1/s + l <= 1."""
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"scale s must be finite and positive, got {s}")
    if not (math.isfinite(l) and l >= 0.0):
        raise DomainError(f"location l must be finite and nonnegative, got {l}")
    if 1.0 / s + l > 1.0 + _SUPPORT_TOL:
        raise DomainError(
            f"transformed support exceeds the beta support: 1/s + l = "
            f"{1.0 / s + l} > 1 for s={s}, l={l}")


def check_boundary_window(g, s: float, l: float) -> None:
    """Refuse an s and l that map a response g at 0 or 1 onto the edge of
    the beta support, where the density is 0 or infinite."""
    x = np.asarray(g, dtype=float) / s + l
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise DomainError(
            "boundary evaluation requires l > 0 and 1/s + l < 1; with "
            f"s={s}, l={l} a response at 0 or 1 maps onto the beta boundary")


@dataclass(frozen=True)
class SltbParams:
    """Full parameterization of the SLTB law: (mu, phi) plus scale s and
    location l of the transform z = (y - l)*s.

    The transformed support must sit inside the closed unit interval of
    the base beta:  l >= 0 and 1/s + l <= 1.  Boundary evaluation (g at
    exactly 0 or 1) additionally requires the strict version l > 0 and
    1/s + l < 1 (`check_boundary_window`); params with s = 1, l = 0 are
    legal for interior work and reduce every formula to the plain beta.
    """

    mu: float
    phi: float
    s: float = DEFAULT_S
    l: float = DEFAULT_L

    def __post_init__(self):
        _check_mu_phi(self.mu, self.phi)
        check_scale_location(self.s, self.l)

    def alpha(self) -> float:
        return self.mu * self.phi

    def beta_shape(self) -> float:
        return (1.0 - self.mu) * self.phi


# ---------------------------------------------------------------------------
# vectorized cores
# ---------------------------------------------------------------------------

def _log_inv_beta(a, b):
    """-ln B(a, b) = lnΓ(a+b) - lnΓ(a) - lnΓ(b), the density core's first term."""
    return _sp.gammaln(a + b) - _sp.gammaln(a) - _sp.gammaln(b)


def beta_logpdf_arrays(mu, phi, y):
    """Log-density of Beta(mu*phi, (1-mu)*phi) at interior points, vectorized.

    No domain checking; callers guarantee 0 < y < 1 and 0 < mu < 1.
    """
    a, b = mu * phi, (1.0 - mu) * phi
    return _log_inv_beta(a, b) + (a - 1.0) * np.log(y) + (b - 1.0) * np.log1p(-y)


def log_x_pair(g, s, l):
    """For x = g/s + l, return (x, 1-x, ln x, ln(1-x)) without cancellation.

    1 - x is computed as (s - g - l*s)/s, which stays accurate when g is
    at or near 1 (s - g is then an exact subtraction), and each log picks
    the branch whose argument is the smaller of x and 1-x.
    """
    g = np.asarray(g, dtype=float)
    x = g / s + l
    one_minus = (s - g - l * s) / s
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_x = np.where(x <= 0.5, np.log(x), np.log1p(-one_minus))
        ln_1mx = np.where(one_minus <= 0.5, np.log(one_minus), np.log1p(-x))
    return x, one_minus, ln_x, ln_1mx


def sltb_log_normalizer_arrays(mu, phi, s, l, ln_b=None):
    """ln of the truncation normalizer Z = 1 - I_l(a,b) - I_eps(b,a), with
    shapes a = mu*phi, b = (1-mu)*phi and eps = 1 - (1/s + l).

    `_tail_series` sums each tail. Each term is at most r = max(phi, 1) *
    max(l, eps) times the one before, so n terms, the least n with
    r^n / (1-r) <= 1e-17, sum S to a rounding. ln_b is -ln B(a,b); the
    density passes the one its core computed. `betainc` computes the tails
    of calls of fewer than _SERIES_MIN_ROWS rows, where its fixed cost is
    the larger, of calls whose r is not below _SERIES_MAX_RATIO, and of
    calls with every phi above 60, which the series' fallback rule would
    all reject.
    The normalizer is strictly positive mathematically, but where the
    window holds no representable mass the tails round to 1 and the result
    is -inf. No domain checking.
    """
    a = mu * phi
    b = (1.0 - mu) * phi
    eps = (s - 1.0 - l * s) / s  # 1 - (1/s + l), computed stably
    with np.errstate(all="ignore"):  # rows that go on to `betainc` may overflow
        phi_max = phi.max() if isinstance(phi, np.ndarray) else phi
        r = max(phi_max, 1.0) * max(l, eps)
        if (np.size(a) < _SERIES_MIN_ROWS or not r < _SERIES_MAX_RATIO
                or (phi_max + 4.0 > 64.0 and np.min(phi) + 4.0 > 64.0)):
            tail = _sp.betainc(b, a, eps) + _sp.betainc(a, b, l)
            return np.log1p(-np.minimum(tail, 1.0))
        x = np.array([l, eps]).reshape((2,) + (1,) * a.ndim)
        n = 1 if r == 0.0 else max(
            math.ceil(math.log(1e-17 * (1.0 - r)) / math.log(r)), 1)
        return np.log1p(-_tail_series(np.array((a, b)), phi, x, ln_b, n))


def _tail_series(p, phi, x, ln_b, n, partials=False):
    """The sum of the tails I_x(p,q), q = p[::-1] and p + q = phi, by n
    terms of DLMF 8.17.8; with `partials`, (each tail, the sum, (S_p/S,
    S_q/S, S_pp/S, S_pq/S, S_qq/S)).

    I_x(p,q) = x^p (1-x)^q / (p B(p,q)) * S with S = sum_k t_k, t_0 = 1,
    t_k+1 = t_k c_k, c_k = (p+q+k) x / (p+1+k), all terms positive. Horner
    sums S = 1 + c_0 (1 + c_1 (...)); differentiating each step S_k =
    1 + c_k S_k+1 once and twice gives the partials in the same loop, from
    d ln c_k/dp = (1-q) / ((p+q+k)(p+1+k)), d ln c_k/dq = 1/(p+q+k) and
    their own partials, -(d ln c_k/dp)(1/(p+q+k) + 1/(p+1+k)) in p and
    -1/(p+q+k)^2 in q. ln_b is -ln B(p,q), computed if None, and
    x^p (1-x)^q / B(p,q) is taken as the square of its root, so that x^p
    cannot underflow before the tail does.

    `betainc` recomputes both tails of the rows whose series sum is not
    finite (a shape at 0, NaN or inf) or leaves Z below (phi + 4)/64, and
    caps their sum at 1. The lnΓ difference in ln_b is good to a few ulps
    of lnΓ(phi), and 1 - tail amplifies a tail's error by up to 1/Z, so the
    series' relative error in ln Z grows as (phi + 4)/Z: at most 1.6e-15
    (phi + 4)/Z in an mpmath scan of 13,000 rows with phi from 1e-3 to 100.
    The rule keeps it below 1e-13, and leaves no row with phi above 60 on
    the series.
    """
    q, p1 = p[::-1], p + 1.0
    ln_b = _log_inv_beta(*p) if ln_b is None else ln_b
    series, s_p, s_q, s_pp, s_pq, s_qq = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
    one_q = 1.0 - q if partials else None
    for k in range(n - 2, -1, -1):
        num, den = (phi + k) * x, p1 + k
        if partials:  # dS_k = c_k (S_k+1 d ln c_k + dS_k+1), and once more
            ratio = num / den
            d_p, d_q = one_q / ((phi + k) * den), 1.0 / (phi + k)
            lag = s_p - series / den
            s_pp = ratio * (2.0 * d_p * lag + s_pp)
            s_pq = ratio * (d_p * s_q + d_q * lag + s_pq)
            s_qq = ratio * (2.0 * d_q * s_q + s_qq)
            s_p = ratio * (s_p + d_p * series)
            s_q = ratio * (s_q + series / (phi + k))
        series = series * num / den + 1.0
    root = np.power(x, 0.5 * p) * np.exp(q * (0.5 * np.log1p(-x)) + 0.5 * ln_b)
    tail = root * root * series / p
    total = tail[0] + tail[1]
    phi_max = phi.max() if isinstance(phi, np.ndarray) else phi
    if not total.max() <= 1.0 - (phi_max + 4.0) / 64.0:
        redo = ~((1.0 - total) * 64.0 >= phi + 4.0)
        a, b = p[0][redo], p[1][redo]
        lower, upper = _sp.betainc(a, b, x.flat[0]), _sp.betainc(b, a, x.flat[1])
        total[redo] = np.minimum(lower + upper, 1.0)
        if partials:
            tail[0][redo], tail[1][redo] = lower, upper
    if not partials:
        return total
    return tail, total, tuple(d / series for d in (s_p, s_q, s_pp, s_pq, s_qq))


def sltb_log_normalizer_partials(mu, phi, s, l, polygammas=None):
    """First and second partials of ln Z, Z = 1 - I_l(a,b) - I_eps(b,a), in
    the shapes a = mu*phi and b = (1-mu)*phi, with eps = 1 - (1/s + l), as
    five arrays: d/da, d/db, d2/da2, d2/da db and d2/db2.

    A tail I = I_x(p,q) = x^p (1-x)^q S Γ(p+q) / (Γ(p+1) Γ(q)) has
    d ln I/dp = ln x - psi(p+1) + psi(p+q) + S_p/S and d ln I/dq =
    ln(1-x) - psi(q) + psi(p+q) + S_q/S; its second log-partials are
    psi'(p+q) - psi'(p+1) + S_pp/S - (S_p/S)^2, psi'(p+q) + S_pq/S -
    S_p S_q/S^2 and psi'(p+q) - psi'(q) + S_qq/S - (S_q/S)^2, with the tail
    and the ratios from `_tail_series`. `polygammas` is (psi, psi') of the
    stacked shapes (a, b), as the caller computed them, or None; psi(p+1)
    is psi(p) + 1/p and psi'(p+1) is psi'(p) - 1/p^2, whose rounding, eps/p
    and eps/p^2, reaches the log-likelihood's derivatives in theta times p
    and p^2, below their own floor of eps/Z.

    The term ratios run monotonically from c_0 = phi x/(p+1) toward x, so
    they are at most rho, their larger, from the first term on; where that
    is above h = (1+x)/2, rho = h bounds them from term (phi x - h(p+1))/
    (h - x) on. A term's log-partials grow by at most 1/min(phi, 1) a term,
    so m more terms, the least m with rho^m (1 + (_TERM_CAP + 1/(1-rho)) /
    min(phi, 1)) / (1-rho) <= 1e-17, leave S, S_p and S_q within 1e-17 of
    S, and the second partials within _TERM_CAP/min(phi, 1) times that.
    The call sums the most terms any row needs; a row that needs more than
    _TERM_CAP (x not small, phi large, and the mean just inside the tail)
    is NaN, never a truncated sum. A tail at 0 contributes 0. No domain
    checking; callers guarantee 0 < mu < 1 and finite phi > 0.
    """
    a = np.atleast_1d(mu * phi)
    p = np.array((a, np.atleast_1d((1.0 - mu) * phi)))  # (a, b)
    p1 = p + 1.0
    x = np.array([l, (s - 1.0 - l * s) / s]).reshape((2,) + (1,) * a.ndim)
    with np.errstate(all="ignore"):  # a tail at x = 0 is 0
        h = 0.5 + 0.5 * x
        rho = np.minimum(np.maximum(phi * x / p1, x), h)
        bound = 1.0 + (_TERM_CAP + 1.0 / (1.0 - rho)) / min(np.min(phi), 1.0)
        need = (np.maximum(phi * x - rho * p1, 0.0) / (h - x) + np.maximum(
            np.ceil(np.log(1e-17 * (1.0 - rho) / bound) / np.log(rho)), 0.0))
        n = min(math.ceil(need.max()), _TERM_CAP)
        tail, total, d = _tail_series(p, phi, x, None, n, partials=True)
        if polygammas is None:
            polygammas = (_sp.digamma(p), _sp.zeta(2.0, p))  # psi' = zeta(2, .)
        psi, tri = polygammas
        psi_phi, inv_p = _sp.digamma(phi), 1.0 / p
        g_p = np.log(x) - (psi + inv_p) + psi_phi + d[0]
        g_q = np.log1p(-x) - psi[::-1] + psi_phi + d[1]
        if n < need.max():  # the rows past the cap
            cut = need > n
            g_p, g_q = np.where(cut, np.nan, g_p), np.where(cut, np.nan, g_q)
        live = tail > 0.0
        t_p, t_q = np.where(live, tail * g_p, 0.0), np.where(live, tail * g_q, 0.0)
        inv_z = -1.0 / (1.0 - total)
        l_a, l_b = (t_p[0] + t_q[1]) * inv_z, (t_q[0] + t_p[1]) * inv_z
        tri_phi = _sp.zeta(2.0, phi)
        t_pp = np.where(live, tail * (tri_phi - (tri - inv_p * inv_p) + d[2]
                                      - d[0] * d[0] + g_p * g_p), 0.0)
        t_pq = np.where(live, tail * (tri_phi + d[3] - d[0] * d[1] + g_p * g_q), 0.0)
        t_qq = np.where(live, tail * (tri_phi - tri[::-1] + d[4]
                                      - d[1] * d[1] + g_q * g_q), 0.0)
        return (l_a, l_b, (t_pp[0] + t_qq[1]) * inv_z - l_a * l_a,
                (t_pq[0] + t_pq[1]) * inv_z - l_a * l_b,
                (t_qq[0] + t_pp[1]) * inv_z - l_b * l_b)


def sltb_logpdf_arrays(mu, phi, s, l, g, logs=None):
    """SLTB log-density, vectorized over any broadcastable mix of mu, phi
    and g; s and l are scalars.

    No domain checking; callers guarantee g in [0,1] and that g maps to
    the open beta support (true for any l > 0 with 1/s + l < 1).
    `logs` is ``log_x_pair(g, s, l)[2:]``, the part of the density that
    depends on g alone: a caller that evaluates many (mu, phi) at one g,
    such as a fit's objective, computes it once and passes it in.
    """
    ln_x, ln_1mx = log_x_pair(g, s, l)[2:] if logs is None else logs
    a, b = mu * phi, (1.0 - mu) * phi
    ln_b = _log_inv_beta(a, b)
    core = ln_b + (a - 1.0) * ln_x + (b - 1.0) * ln_1mx - np.log(s)
    log_norm = sltb_log_normalizer_arrays(mu, phi, s, l, ln_b)
    # an underflowed normalizer means the window holds no representable
    # mass; report log 0 there instead of a sign-flipped overflow
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(log_norm), core - log_norm, -np.inf)


def _window(p: SltbParams):
    """(F_beta(l), 1 - F_beta(l), Z) of `p`, with the truncation normalizer
    Z the complement of the larger beta tail less the smaller, so that a
    small Z keeps its digits; a NumericalError where that Z is not
    positive, since no cdf or quantile is defined on a window without mass."""
    a, b, eps = p.alpha(), p.beta_shape(), (p.s - 1.0 - p.l * p.s) / p.s
    f_l, c_l = _sp.betainc(a, b, p.l), _sp.betaincc(a, b, p.l)
    upper = _sp.betainc(b, a, eps)
    norm = float(c_l - upper if f_l >= upper else _sp.betaincc(b, a, eps) - f_l)
    if not norm > 0.0:
        raise NumericalError(
            f"the truncation window [l, 1/s + l] holds no representable "
            f"beta mass at mu={p.mu}, phi={p.phi} (normalizer {norm})")
    return f_l, c_l, norm


def _cdf_arrays(p: SltbParams, g, window):
    """(F_beta(g/s + l) - F_beta(l)) / Z, `window` being `_window(p)`, with
    the numerator a difference of lower-tail values where F_beta(l) < 1/2
    and of upper-tail values (1 - F_beta) above, so that a small Z does not
    cancel it away. Each value is taken at x for x <= 1/2 and at 1 - x
    above, for accuracy at either end. The top of the support maps to
    exactly 1."""
    f_l, c_l, norm = window
    a, b = p.alpha(), p.beta_shape()
    x, one_minus, _, _ = log_x_pair(g, p.s, p.l)
    lower, upper = x <= 0.5, f_l >= 0.5
    args = (np.where(lower, a, b), np.where(lower, b, a),
            np.where(lower, x, np.maximum(one_minus, 0.0)))
    tail = np.where(lower != upper, _sp.betainc(*args), _sp.betaincc(*args))
    num = c_l - tail if upper else tail - f_l
    return np.where(g >= 1.0, 1.0, np.clip(num / norm, 0.0, 1.0))


def _unit_interval(v, name: str) -> np.ndarray:
    """`v` as a float array, refused unless every entry is finite and in [0,1]."""
    arr = np.asarray(v, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)) or np.any(~np.isfinite(arr)):
        raise DomainError(f"{name} must lie in [0,1], got {v!r}")
    return arr


def _shaped_like(v, out):
    """A float for a scalar argument `v`, the array `out` otherwise."""
    return float(out) if np.ndim(v) == 0 else out


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def beta_logpdf(p: BetaMuPhi, y: float) -> float:
    """Beta log-density; rejects boundary points, which is the failure mode
    the SLTB construction exists to fix."""
    if not (0.0 < y < 1.0):
        raise BoundaryError(
            f"beta log-density is undefined at y={y}: the likelihood "
            "degenerates at exact 0 or 1"
        )
    return float(beta_logpdf_arrays(p.mu, p.phi, y))


def sltb_logpdf(p: SltbParams, g):
    """SLTB log-density on the closed interval [0,1], finite at both ends."""
    arr = _unit_interval(g, "g")
    check_boundary_window(arr, p.s, p.l)
    return _shaped_like(g, sltb_logpdf_arrays(p.mu, p.phi, p.s, p.l, arr))


def sltb_pdf(p: SltbParams, g):
    """Density counterpart of sltb_logpdf."""
    return np.exp(sltb_logpdf(p, g))


def sltb_cdf(p: SltbParams, g):
    """CDF of the SLTB law: (F_beta(g/s + l) - F_beta(l)) / normalizer."""
    arr = _unit_interval(g, "g")
    return _shaped_like(g, _cdf_arrays(p, arr, _window(p)))


def sltb_quantile(p: SltbParams, q):
    """Right inverse of sltb_cdf, in closed form: z = (x - l)*s for the
    beta quantile x of F_beta(l) + q*Z, clipped to [0,1] and polished by
    one Newton step on the cdf. Where F_beta(l) >= 1/2, x is the upper
    quantile of 1 - F_beta(l) - q*Z, so that a small Z does not cancel, as
    in the cdf. q = 0 and q = 1 map to 0 and 1."""
    arr = _unit_interval(q, "q")
    a, b = p.alpha(), p.beta_shape()
    window = f_l, c_l, norm = _window(p)
    if f_l < 0.5:
        x = _sp.betaincinv(a, b, np.minimum(f_l + arr * norm, 1.0))
    else:
        x = _sp.betainccinv(a, b, np.maximum(c_l - arr * norm, 0.0))
    g = np.clip((x - p.l) * p.s, 0.0, 1.0)
    with np.errstate(all="ignore"):  # an infinite or zero density skips the step
        step = (_cdf_arrays(p, g, window) - arr) / np.exp(
            sltb_logpdf_arrays(p.mu, p.phi, p.s, p.l, g))
    g = np.where(np.isfinite(step), np.clip(g - step, 0.0, 1.0), g)
    return _shaped_like(q, np.where((arr == 0.0) | (arr == 1.0), arr, g))


def sltb_mean(p: SltbParams) -> float:
    """Mean s*(mu - l) of the SLTB law (stated form; truncation corrections
    at default s, l are below 1e-8 and are deliberately not applied)."""
    return p.s * (p.mu - p.l)


def sltb_var(p: SltbParams) -> float:
    """Variance s^2 * mu*(1-mu)/(phi+1) of the SLTB law (stated form)."""
    return p.s * p.s * p.mu * (1.0 - p.mu) / (p.phi + 1.0)


def sltb_sample(p: SltbParams, rng: Rng, size=None):
    """Rejection sampler: draw y ~ beta, map z = (y - l)*s, keep z in [0,1].

    One float for ``size=None``, else an array of ``size`` draws. The
    acceptance probability equals the normalizer (about 1 - 1e-8 at
    default s, l), so rejections are essentially never observed there.
    """
    n = 1 if size is None else size
    out = np.empty(n, dtype=float)
    filled = 0
    for _ in range(10 ** 6):
        y = rng.beta(p.alpha(), p.beta_shape(), size=n - filled)
        z = (y - p.l) * p.s
        keep = z[(z >= 0.0) & (z <= 1.0)]
        out[filled:filled + keep.size] = keep
        filled += keep.size
        if filled == n:
            break
    else:
        raise NumericalError(
            f"sltb_sample: acceptance rate pathologically small for {p}")
    return float(out[0]) if size is None else out
