"""Beta distribution in mean-precision form and its scale-location-truncated
extension (SLTB).

The SLTB law takes y ~ Beta(mu*phi, (1-mu)*phi), pushes it through
z = (y - l)*s, and truncates z to [0, 1].  With the default scale
s = 1 + 10**-8.5 and location l = 1e-9 the density is numerically
indistinguishable from the beta on the interior yet stays finite and
positive at g = 0 and g = 1, which is what lets likelihoods accept
boundary observations.

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
        if not (0.0 < self.mu < 1.0):
            raise DomainError(f"mu must lie in (0,1), got {self.mu}")
        if not self.phi > 0.0:
            raise DomainError(f"phi must be positive, got {self.phi}")

    def alpha(self) -> float:
        return self.mu * self.phi

    def beta_shape(self) -> float:
        return (1.0 - self.mu) * self.phi

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.mu * (1.0 - self.mu) / (1.0 + self.phi)


@dataclass(frozen=True)
class SltbParams:
    """Full parameterization of the SLTB law: (mu, phi) plus scale s and
    location l of the transform z = (y - l)*s.

    The transformed support must sit inside the closed unit interval of
    the base beta:  l >= 0 and 1/s + l <= 1.  Boundary evaluation (g at
    exactly 0 or 1) additionally requires the strict version l > 0 and
    1/s + l < 1; params with s = 1, l = 0 are legal for interior work and
    reduce every formula to the plain beta.
    """

    mu: float
    phi: float
    s: float = DEFAULT_S
    l: float = DEFAULT_L

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise DomainError(f"mu must lie in (0,1), got {self.mu}")
        if not self.phi > 0.0:
            raise DomainError(f"phi must be positive, got {self.phi}")
        if not self.s > 0.0:
            raise DomainError(f"scale must be positive, got {self.s}")
        if self.l < 0.0:
            raise DomainError(f"location must be nonnegative, got {self.l}")
        if 1.0 / self.s + self.l > 1.0 + _SUPPORT_TOL:
            raise DomainError(
                f"transformed support exceeds the beta support: 1/s + l = "
                f"{1.0 / self.s + self.l} > 1 for s={self.s}, l={self.l}"
            )

    def alpha(self) -> float:
        return self.mu * self.phi

    def beta_shape(self) -> float:
        return (1.0 - self.mu) * self.phi

    def boundary_safe(self) -> bool:
        """True when g in {0,1} maps strictly inside the beta support."""
        return self.l > 0.0 and 1.0 / self.s + self.l < 1.0


# ---------------------------------------------------------------------------
# vectorized cores
# ---------------------------------------------------------------------------

def _beta_log_core(a, b, ln_x, ln_1mx):
    """ln f_beta(x) for shapes (a, b), given ln x and ln(1-x)."""
    return (
        _sp.gammaln(a + b) - _sp.gammaln(a) - _sp.gammaln(b)
        + (a - 1.0) * ln_x + (b - 1.0) * ln_1mx
    )


def beta_logpdf_arrays(mu, phi, y):
    """Log-density of Beta(mu*phi, (1-mu)*phi) at interior points, vectorized.

    No domain checking; callers guarantee 0 < y < 1 and 0 < mu < 1.
    """
    return _beta_log_core(mu * phi, (1.0 - mu) * phi, np.log(y), np.log1p(-y))


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


def sltb_log_normalizer_arrays(mu, phi, s, l):
    """ln of the truncation normalizer F_beta(1/s + l) - F_beta(l).

    Both tails are evaluated in complement form so nothing is lost to
    rounding when s - 1 and l are around 1e-9. The normalizer is strictly
    positive mathematically, but at parameters that put essentially all
    beta mass outside the window (shape parameters near denormal range)
    the excluded tail rounds to 1 and the result underflows to -inf.
    """
    a = mu * phi
    b = (1.0 - mu) * phi
    eps_hi = (s - 1.0 - l * s) / s  # 1 - (1/s + l), computed stably
    tail = _sp.betainc(b, a, eps_hi) + _sp.betainc(a, b, l)
    with np.errstate(divide="ignore"):
        return np.log1p(-np.minimum(tail, 1.0))


def sltb_logpdf_arrays(mu, phi, s, l, g, logs=None):
    """SLTB log-density, vectorized over any broadcastable mix of args.

    No domain checking; callers guarantee g in [0,1] and that g maps to
    the open beta support (true for any l > 0 with 1/s + l < 1).
    `logs` is ``log_x_pair(g, s, l)[2:]``, the part of the density that
    depends on g alone: a caller that evaluates many (mu, phi) at one g,
    such as a fit's objective, computes it once and passes it in.
    """
    ln_x, ln_1mx = log_x_pair(g, s, l)[2:] if logs is None else logs
    core = _beta_log_core(mu * phi, (1.0 - mu) * phi, ln_x, ln_1mx) - np.log(s)
    log_norm = sltb_log_normalizer_arrays(mu, phi, s, l)
    # an underflowed normalizer means the window holds no representable
    # mass; report log 0 there instead of a sign-flipped overflow
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(log_norm), core - log_norm, -np.inf)


def _cdf_arrays(p: SltbParams, g, norm: float):
    """(F_beta(g/s + l) - F_beta(l)) / norm; F_beta(x) is taken from the
    lower tail for x <= 1/2 and from the upper tail above, for accuracy at
    either end. The top of the support maps to exactly 1."""
    a, b = p.alpha(), p.beta_shape()
    x, one_minus, _, _ = log_x_pair(g, p.s, p.l)
    lower = x <= 0.5
    tail = _sp.betainc(np.where(lower, a, b), np.where(lower, b, a),
                       np.where(lower, x, np.maximum(one_minus, 0.0)))
    num = np.where(lower, tail, 1.0 - tail) - _sp.betainc(a, b, p.l)
    return np.where(g >= 1.0, 1.0, np.clip(num / norm, 0.0, 1.0))


def _normalizer(p: SltbParams) -> float:
    """Truncation normalizer Z of `p`; a NumericalError where it underflows,
    since no cdf or quantile is defined on a window without mass."""
    log_norm = float(sltb_log_normalizer_arrays(p.mu, p.phi, p.s, p.l))
    if not np.isfinite(log_norm):
        raise NumericalError(
            f"the truncation window [l, 1/s + l] holds no representable "
            f"beta mass at mu={p.mu}, phi={p.phi} (ln normalizer {log_norm})")
    return math.exp(log_norm)


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


def sl_pdf(p: SltbParams, z: float) -> float:
    """Density of the scale-location transformed variable z = (y - l)*s
    before truncation: (1/s) * f_beta(z/s + l)."""
    lo = -p.l * p.s
    hi = (1.0 - p.l) * p.s
    if not (lo - _SUPPORT_TOL <= z <= hi + _SUPPORT_TOL):
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
        return math.exp(_sp.gammaln(a + b) - _sp.gammaln(a) - _sp.gammaln(b)) / p.s
    return float(np.exp(beta_logpdf_arrays(p.mu, p.phi, x))) / p.s


def sltb_logpdf(p: SltbParams, g):
    """SLTB log-density on the closed interval [0,1], finite at both ends."""
    arr = _unit_interval(g, "g")
    x = arr / p.s + p.l
    if not p.boundary_safe() and (np.any(x <= 0.0) or np.any(x >= 1.0)):
        raise DomainError(
            "boundary evaluation requires l > 0 and 1/s + l < 1; with "
            f"s={p.s}, l={p.l} the point maps onto the beta boundary"
        )
    return _shaped_like(g, sltb_logpdf_arrays(p.mu, p.phi, p.s, p.l, arr))


def sltb_pdf(p: SltbParams, g):
    """Density counterpart of sltb_logpdf."""
    return np.exp(sltb_logpdf(p, g))


def sltb_cdf(p: SltbParams, g):
    """CDF of the SLTB law: (F_beta(g/s + l) - F_beta(l)) / normalizer."""
    arr = _unit_interval(g, "g")
    return _shaped_like(g, _cdf_arrays(p, arr, _normalizer(p)))


def sltb_quantile(p: SltbParams, q):
    """Right inverse of sltb_cdf, in closed form: z = (x - l)*s for the
    beta quantile x of F_beta(l) + q*Z, clipped to [0,1] and polished by
    one Newton step on the cdf. q = 0 and q = 1 map to 0 and 1."""
    arr = _unit_interval(q, "q")
    a, b = p.alpha(), p.beta_shape()
    norm = _normalizer(p)
    target = np.minimum(_sp.betainc(a, b, p.l) + arr * norm, 1.0)
    g = np.clip((_sp.betaincinv(a, b, target) - p.l) * p.s, 0.0, 1.0)
    with np.errstate(all="ignore"):  # an infinite or zero density skips the step
        step = (_cdf_arrays(p, g, norm) - arr) / np.exp(
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
