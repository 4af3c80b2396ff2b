"""The shared chain parts: sweep loop, random-walk step, summary."""

import warnings

import numpy as np
import pytest

from sltb.chain import run_sweeps, rw_update, summarize
from sltb.errors import ValidationError
from sltb.kernel import Rng


def _counter_chain(iters, burnin, thin):
    """A chain whose state is its sweep number; block `a` accepts on even
    sweeps, block `b` (two proposals per sweep) accepts once every sweep."""
    seen = []

    def sweep(it):
        seen.append(it)
        return (1 - it % 2, 1)

    draws, rates = run_sweeps(iters, burnin, thin, sweep,
                              lambda: np.array([float(seen[-1])]),
                              {"a": 1, "b": 2})
    return seen, draws, rates


def test_run_sweeps_burns_in_thins_and_counts():
    seen, draws, rates = _counter_chain(iters=13, burnin=3, thin=4)
    assert seen == list(range(1, 14))
    assert draws[:, 0].tolist() == [7.0, 11.0]
    # sweeps 4..13 are counted: five even sweeps, ten proposals of a, 20 of b
    assert rates == {"a": 0.5, "b": 0.5}


@pytest.mark.parametrize("iters, burnin, thin", [
    (10, 10, 1), (10, 12, 1), (10, -1, 1), (10, 2, 0)])
def test_run_sweeps_refuses_bad_lengths(iters, burnin, thin):
    with pytest.raises(ValidationError):
        _counter_chain(iters, burnin, thin)


def test_rw_update_is_one_metropolis_step_per_element():
    x = np.linspace(-3.0, 3.0, 41)

    def lik(p):
        return -0.5 * (p - 1.0) ** 2

    out, new_lik, accept = rw_update(Rng(3), x, 0.2, 0.5, None, lik)
    ref = Rng(3)
    prop = x + ref.normal(0.0, 1.0, x.size) * np.sqrt(0.25)
    log_r = lik(prop) - lik(x) + ((x - 0.2) ** 2 - (prop - 0.2) ** 2) / 1.0
    want = np.log(ref.uniform(size=x.size)) < log_r
    assert 0 < want.sum() < x.size
    assert np.array_equal(accept, want)
    assert np.allclose(out, np.where(want, prop, x), rtol=0, atol=1e-15)
    assert np.allclose(new_lik, lik(out), rtol=0, atol=1e-15)


def test_rw_update_rejects_unusable_proposals():
    # a proposal whose log-likelihood is -inf or NaN is rejected, and its
    # log acceptance ratio (-inf or NaN) raises no floating-point warning
    x = np.array([0.0, 1.0, 2.0])
    cur = np.zeros(3)
    for unusable in (-np.inf, np.nan):
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            out, lik, accept = rw_update(Rng(1), x, 0.0, 1.0, cur,
                                         lambda p: np.full(p.size, unusable))
        assert not accept.any()
        assert np.array_equal(out, x) and np.array_equal(lik, cur)


def test_summarize_warns_on_rates_outside_the_band():
    draws = np.arange(12.0).reshape(6, 2)
    s = summarize(("p", "q"), draws, {"p": 0.5, "q": 0.99})
    assert s.warnings == (
        "block q: post-burn-in acceptance rate 0.990 outside [0.05, 0.95]",)
    assert s.n_draws == 6
    assert s.row("q")["median"] == float(np.median(draws[:, 1]))
