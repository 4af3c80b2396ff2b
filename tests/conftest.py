"""Shared test configuration and oracle helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import quadrature

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection oracle: find x in [lo, hi] with f(x) = 0, f monotone."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f(mid) < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def unit_graded_rule(order: int = 40) -> quadrature.QuadratureRule:
    """Composite rule on [0,1] with panels graded geometrically toward both
    endpoints, resolving the near-boundary spikes of small-shape densities."""
    tiny = [10.0 ** -k for k in range(2, 13)]
    edges = sorted(set([0.0, 1.0] + tiny + [1.0 - t for t in tiny]
                       + list(np.linspace(0.1, 0.9, 9))))
    return quadrature.composite_rule(edges, order=order)


@pytest.fixture
def graded_rule():
    return unit_graded_rule()
