"""Numeric kernel: the seedable RNG and the central-difference Hessian.

``Rng`` is the package's one source of randomness; every generator and
sampler takes one. ``numeric_hessian`` is the symmetrized
central-difference Jacobian of a gradient. No package code calls it:
``fit_mle`` steps on, and inverts, the closed-form information of
``regression.score_information``. It stays as an exported name, a test
oracle for that information, and a boundary that ``bench/tracing.py``
wraps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NumericalError

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# random number generation
# ---------------------------------------------------------------------------

class Rng:
    """Seedable deterministic random generator.

    Wraps numpy's PCG64 bit generator, a documented 128-bit-state,
    64-bit-output counter-family algorithm whose stream for a given seed
    is identical across runs and platforms.  Instances are single-owner:
    parallel replications must derive their own instance, conventionally
    ``Rng(base_seed + replication_index)``, and never share one.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, mean: float = 0.0, sd: float = 1.0, size=None):
        if not sd > 0:
            raise DomainError(f"sd must be positive, got {sd}")
        return self._gen.normal(mean, sd, size)

    def gamma(self, shape, scale=1.0, size=None):
        if np.any(np.asarray(shape) <= 0):
            raise DomainError(f"gamma shape must be positive, got {shape}")
        if np.any(np.asarray(scale) <= 0):
            raise DomainError(f"gamma scale must be positive, got {scale}")
        return self._gen.gamma(shape, scale, size)

    def beta(self, a, b, size=None):
        """Beta variate composed as G1/(G1+G2) from two gamma draws.

        Draws are guaranteed strictly inside (0, 1).  A shape below about
        1e-5 puts nearly all of the beta mass within one ulp of a
        boundary, where the gamma composition rounds to exactly 0 or 1;
        redrawing a bounded number of times handles occasional underflow,
        and the remainder falls back to inverse-CDF sampling conditioned
        on the representable open interval, which cannot land outside it.
        Scalar shapes with ``size=None`` give one float.
        """
        if np.any(np.asarray(a) <= 0) or np.any(np.asarray(b) <= 0):
            raise DomainError(f"beta shapes must be positive, got a={a}, b={b}")
        g1 = self._gen.gamma(a, 1.0, size)
        g2 = self._gen.gamma(b, 1.0, size)
        out = np.asarray(g1 / (g1 + g2))
        a_full = np.broadcast_to(np.asarray(a, dtype=float), out.shape)
        b_full = np.broadcast_to(np.asarray(b, dtype=float), out.shape)
        for _ in range(1000):
            bad = ~((out > 0.0) & (out < 1.0))
            if not bad.any():
                return out[()]
            r1 = self._gen.gamma(a_full[bad], 1.0)
            r2 = self._gen.gamma(b_full[bad], 1.0)
            out[bad] = r1 / (r1 + r2)
        bad = ~((out > 0.0) & (out < 1.0))
        out[bad] = self._beta_interior_icdf(a_full[bad], b_full[bad])
        return out[()]

    def _beta_interior_icdf(self, a, b):
        """Inverse-CDF beta draw conditioned on the open interval of
        floats, the same law the rejection loop targets."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        x_lo = np.nextafter(0.0, 1.0)
        x_hi = np.nextafter(1.0, 0.0)
        c_lo = _sp.betainc(a, b, x_lo)
        c_hi = _sp.betainc(a, b, x_hi)
        if np.any(c_hi <= c_lo):
            raise NumericalError(
                f"beta({a}, {b}) has no representable interior mass")
        u = c_lo + (c_hi - c_lo) * self._gen.random(a.shape or None)
        return np.clip(_sp.betaincinv(a, b, u), x_lo, x_hi)

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        if hi < lo:
            raise DomainError(f"uniform bounds reversed: [{lo}, {hi}]")
        if hi == lo:
            return lo if size is None else np.full(size, float(lo))
        return lo + (hi - lo) * self._gen.random(size)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def numeric_hessian(grad: Callable, x, h: float | None = None) -> np.ndarray:
    """Hessian as the central-difference Jacobian of ``grad`` (a point to a
    1-d array): column i is (grad(x + h_i e_i) - grad(x - h_i e_i)) / 2h_i
    with h_i = h (1 + |x_i|) and h defaulting to eps**(1/3), the optimum
    for a first difference.  The result is averaged with its transpose.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("numeric_hessian expects a 1-d point")
    if h is None:
        h = _EPS ** (1.0 / 3.0)
    if not h > 0:
        raise DomainError(f"step must be positive, got {h}")
    jac = np.empty((x.size, x.size))
    for i, e in enumerate(np.diag(h * (1.0 + np.abs(x)))):  # rows: h_i e_i
        jac[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * e[i])
        if not np.isfinite(jac[:, i]).all():
            raise NumericalError(
                f"non-finite gradient while differencing coordinate {i}")
    return 0.5 * (jac + jac.T)
