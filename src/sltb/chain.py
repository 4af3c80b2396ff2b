"""The chain parts the hierarchical samplers share: the sweep loop with
burn-in, thinning and acceptance counts, the per-element random-walk
Metropolis step, and the posterior summary. A sampler supplies its own
sweep over its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .kernel import Rng


@dataclass(frozen=True)
class PosteriorSummary:
    names: Tuple[str, ...]
    mean: np.ndarray
    q1: np.ndarray
    median: np.ndarray
    q3: np.ndarray
    q025: np.ndarray
    q975: np.ndarray
    acceptance_rates: Dict[str, float]
    n_draws: int
    warnings: Tuple[str, ...]

    def row(self, name: str) -> Dict[str, float]:
        k = self.names.index(name)
        return {"mean": float(self.mean[k]), "q1": float(self.q1[k]),
                "median": float(self.median[k]), "q3": float(self.q3[k]),
                "q025": float(self.q025[k]), "q975": float(self.q975[k])}


def check_lengths(iters: int, burnin: int, thin: int) -> None:
    """Refuse a chain that keeps no draw, a negative burn-in or a thinning
    step below one."""
    if iters <= burnin:
        raise ValidationError("iters must exceed burnin")
    if burnin < 0 or thin < 1:
        raise ValidationError("burnin must be >= 0 and thin >= 1")


def run_sweeps(iters: int, burnin: int, thin: int,
               sweep: Callable[[int], Sequence[int]],
               state: Callable[[], np.ndarray],
               blocks: Dict[str, int]) -> Tuple[np.ndarray, Dict[str, float]]:
    """Run sweeps 1..iters and keep every `thin`-th one after `burnin`.

    `sweep(it)` makes sweep `it` and returns the accepted count of each
    block, in the order of `blocks`, which maps each block name to the
    proposals it makes per sweep. `state()` returns the current draw row.
    Returns (draws, post-burn-in acceptance rate per block).
    """
    check_lengths(iters, burnin, thin)
    for it in range(1, burnin + 1):
        sweep(it)
    accepted = np.zeros(len(blocks), dtype=np.int64)
    kept = []
    for it in range(burnin + 1, iters + 1):
        accepted += sweep(it)
        if (it - burnin) % thin == 0:
            kept.append(state())
    sweeps = iters - burnin
    rates = {name: float(a / (per * sweeps))
             for (name, per), a in zip(blocks.items(), accepted)}
    return np.asarray(kept), rates


def rw_update(rng: Rng, x: np.ndarray, center: float, var: float,
              cur_lik: Optional[np.ndarray], lik: Callable[[np.ndarray], np.ndarray]
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One random-walk Metropolis step for each element of `x`.

    Each element has prior N(center, var) and proposal variance var/2;
    `lik(values)` returns the per-element log-likelihoods, and `cur_lik`
    holds them at `x` (None computes them). Returns (new x, new
    log-likelihoods, accept mask).
    """
    if cur_lik is None:
        cur_lik = lik(x)
    prop = x + np.asarray(rng.normal(0.0, 1.0, len(x))) * np.sqrt(0.5 * var)
    new_lik = lik(prop)
    log_r = (new_lik - cur_lik
             + ((x - center) ** 2 - (prop - center) ** 2) / (2.0 * var))
    accept = np.log(np.asarray(rng.uniform(size=len(x)))) < log_r
    return (np.where(accept, prop, x), np.where(accept, new_lik, cur_lik),
            accept)


def summarize(cols: Tuple[str, ...], draws: np.ndarray,
              rates: Dict[str, float]) -> PosteriorSummary:
    """Means and quantiles of every column, and one warning per block
    whose rate lies outside [0.05, 0.95]."""
    q = np.quantile(draws, [0.25, 0.5, 0.75, 0.025, 0.975], axis=0)
    warns = tuple(
        f"block {name}: post-burn-in acceptance rate {r:.3f} outside [0.05, 0.95]"
        for name, r in rates.items() if not 0.05 <= r <= 0.95)
    return PosteriorSummary(
        names=cols, mean=draws.mean(axis=0), q1=q[0], median=q[1], q3=q[2],
        q025=q[3], q975=q[4], acceptance_rates=rates, n_draws=draws.shape[0],
        warnings=warns)
