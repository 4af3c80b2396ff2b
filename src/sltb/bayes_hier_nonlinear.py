"""Delay-discounting hierarchy: a hyperbolic value curve with subject-level
psi = ln k and ln phi effects, fitted by Metropolis within Gibbs twice over,
once with the boundary-tolerant likelihood and once with a normal likelihood
as the conventional baseline.

The group layers are conjugate (normal mean, inverse-gamma variance), so
they move by exact Gibbs draws; the subject-level parameters move by
`chain.rw_update`, a random-walk proposal per subject whose variance is
half the current group variance. Each sampler is its sweep over these
blocks plus one call to `chain.run_sweeps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.special import expit

from .chain import PosteriorSummary, run_sweeps, rw_update, summarize
from .data import TabularDataset, round_responses
from .distributions import DEFAULT_L, DEFAULT_S, log_x_pair, sltb_logpdf_arrays
from .errors import NumericalError, ValidationError
from .kernel import Rng
from .regression import ETA_LIMIT

# the chain start's per-subject grids
_PSI_GRID = np.linspace(-12.0, 2.0, 29)
_LN_PHI_GRID = np.linspace(-3.0, 9.0, 49)


@dataclass(frozen=True)
class HyperPriors:
    """Group-layer hyperparameters; the IG priors are IG(a/2, b/2)."""
    mu_psi0: float = -1.0
    lam2_psi0: float = 100.0
    a1: float = 1.0
    b1: float = 0.1
    mu_phi0: float = 1.0
    lam2_phi0: float = 100.0
    a2: float = 1.0
    b2: float = 0.1

    def __post_init__(self):
        if min(self.lam2_psi0, self.a1, self.b1,
               self.lam2_phi0, self.a2, self.b2) <= 0:
            raise ValidationError(
                "prior variances and IG parameters must be positive")


HYPER = HyperPriors()

DEFAULT_DELAYS = (1.0, 7.0, 30.0, 182.0, 365.0, 1825.0)


@dataclass(frozen=True)
class DiscountTruth:
    """Group-layer generating values for the simulation study.

    The log-precision layer is centered low on purpose: noisy responses
    are what separate the two likelihoods, since the normal baseline
    then has to absorb the strongly heteroskedastic beta noise into a
    single residual variance.
    """
    mu_psi: float = -4.87
    sigma2_psi: float = 2.48
    mu_lnphi: float = 1.0
    sigma2_lnphi: float = 0.5

    def __post_init__(self):
        if self.sigma2_psi <= 0 or self.sigma2_lnphi <= 0:
            raise ValidationError("truth variances must be positive")


@dataclass(frozen=True)
class DiscountData:
    """Indifference points, one row per subject, one column per delay."""
    y: np.ndarray
    delays: Tuple[float, ...]
    subject_ids: Tuple[str, ...]

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delays",
                           tuple(float(d) for d in self.delays))
        if y.ndim != 2:
            raise ValidationError("y must be a subjects-by-delays matrix")
        if y.shape != (len(self.subject_ids), len(self.delays)):
            raise ValidationError("y shape must match subjects and delays")
        d = np.asarray(self.delays)
        if d.size and (np.any(d <= 0) or np.any(np.diff(d) <= 0)):
            raise ValidationError("delays must be positive, strictly increasing")
        if y.size and (not np.all(np.isfinite(y))
                       or np.any((y < 0.0) | (y > 1.0))):
            raise ValidationError("responses must lie in [0, 1]")

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def n_delays(self) -> int:
        return len(self.delays)

    def to_table(self) -> TabularDataset:
        i, j = np.meshgrid(np.arange(self.n_subjects),
                           np.arange(self.n_delays), indexing="ij")
        return TabularDataset({
            "subject": tuple(self.subject_ids[k] for k in i.ravel()),
            "delay": np.asarray(self.delays)[j.ravel()],
            "y": self.y.ravel()})


def discount_data_from_table(data: TabularDataset) -> DiscountData:
    """Pivot a long subject/delay/y table into the balanced matrix form."""
    for col in ("subject", "delay", "y"):
        if not data.has_column(col):
            raise ValidationError(f"missing column '{col}'")
    subj = (data.factor("subject") if data.is_factor("subject")
            else tuple(str(float(v)) for v in data.numeric("subject")))
    delay = data.numeric("delay")
    y = data.numeric("y")
    ids = tuple(sorted(set(subj)))
    dvals = tuple(sorted(set(float(d) for d in delay)))
    mat = np.full((len(ids), len(dvals)), np.nan)
    si = {v: k for k, v in enumerate(ids)}
    di = {v: k for k, v in enumerate(dvals)}
    seen = set()
    for sv, dv, yv in zip(subj, delay, y):
        cell = (si[sv], di[float(dv)])
        if cell in seen:
            raise ValidationError(
                f"subject '{sv}' has more than one row at delay {float(dv)!r}")
        seen.add(cell)
        mat[cell] = yv
    if np.any(np.isnan(mat)):
        raise ValidationError("every subject needs a y at every delay")
    return DiscountData(y=mat, delays=dvals, subject_ids=ids)


def discount_mean(psi, D):
    """Subjective value 1/(1 + exp(psi) * D), computed on the logit scale."""
    D = np.asarray(D, dtype=float)
    if np.any(D <= 0):
        raise ValidationError("delays must be positive")
    return expit(-(np.asarray(psi, dtype=float) + np.log(D)))


@dataclass(frozen=True)
class DiscountSample:
    """Generated dataset plus the latent values that produced it."""
    data: DiscountData
    psi: np.ndarray = field(repr=False)
    ln_phi: np.ndarray = field(repr=False)
    truth: DiscountTruth = DiscountTruth()


def gen_discount_data(nsubj: int = 100,
                      delays: Tuple[float, ...] = DEFAULT_DELAYS,
                      truth: DiscountTruth = DiscountTruth(),
                      seed: int = 0,
                      rounding_decimals: Optional[int] = None) -> DiscountSample:
    """Draw subjects from the group layers, then beta responses around the
    hyperbolic curve.

    The default leaves the draws continuous, so both samplers fit data
    whose true law is exactly the beta around the curve. Rounding (e.g.
    to 2 decimals, the resolution of a typical indifference-point task)
    collapses near-boundary cells onto exact 0s and 1s.
    """
    if nsubj < 2:
        raise ValidationError("need at least two subjects")
    if len(delays) < 3:
        raise ValidationError("need at least three delays")
    rng = Rng(seed)
    psi = np.asarray(rng.normal(truth.mu_psi, np.sqrt(truth.sigma2_psi), nsubj))
    ln_phi = np.asarray(
        rng.normal(truth.mu_lnphi, np.sqrt(truth.sigma2_lnphi), nsubj))
    phi = np.exp(ln_phi)[:, None]
    mu = discount_mean(psi[:, None], np.asarray(delays)[None, :])
    y = np.asarray(rng.beta(mu * phi, (1.0 - mu) * phi))
    data = DiscountData(
        y=round_responses(y, rounding_decimals), delays=tuple(delays),
        subject_ids=tuple(f"s{i + 1:03d}" for i in range(nsubj)))
    return DiscountSample(data=data, psi=psi, ln_phi=ln_phi, truth=truth)


# ---------------------------------------------------------------------------
# conditional building blocks
# ---------------------------------------------------------------------------

def normal_conditional(values_sum: float, n: int, sigma2: float,
                       mu0: float, lam2_0: float) -> Tuple[float, float]:
    """Posterior (mean, variance) of a normal mean with known variance."""
    lam_m = 1.0 / (n / sigma2 + 1.0 / lam2_0)
    mu_m = (values_sum / sigma2 + mu0 / lam2_0) * lam_m
    return mu_m, lam_m


def ig_shape_rate(n: int, sq_sum: float, a: float, b: float) -> Tuple[float, float]:
    """Inverse-gamma conditional parameters ((n + a)/2, (sq_sum + b)/2)."""
    return (n + a) / 2.0, (sq_sum + b) / 2.0


def sample_inverse_gamma(rng: Rng, shape: float, rate: float) -> float:
    """IG(shape, rate) via the reciprocal of a gamma draw."""
    if not (shape > 0 and rate > 0):
        raise NumericalError(
            f"inverse-gamma needs positive parameters, got ({shape}, {rate})")
    g = float(rng.gamma(shape, 1.0 / rate))
    while g == 0.0:  # guard: underflow would divide by zero
        g = float(rng.gamma(shape, 1.0 / rate))
    return 1.0 / g


def gibbs_mu(rng: Rng, values: np.ndarray, sigma2: float,
             mu0: float, lam2_0: float) -> float:
    mu_m, lam_m = normal_conditional(
        float(np.sum(values)), len(values), sigma2, mu0, lam2_0)
    return float(rng.normal(mu_m, np.sqrt(lam_m)))


def gibbs_sigma2(rng: Rng, values: np.ndarray, mu: float,
                 a: float, b: float) -> float:
    shape, rate = ig_shape_rate(
        len(values), float(np.sum((values - mu) ** 2)), a, b)
    return sample_inverse_gamma(rng, shape, rate)


def sltb_subject_logliks(psi: np.ndarray, ln_phi: np.ndarray,
                          data: DiscountData, s: float, l: float,
                          logs: Optional[Tuple[np.ndarray, np.ndarray]] = None
                          ) -> np.ndarray:
    """Per-subject log-likelihood sums; -inf rows mark unusable parameters.

    `logs` is ``log_x_pair(data.y, s, l)[2:]``; a chain takes it once
    instead of on every call.
    """
    if data.n_delays == 0:
        return np.zeros(data.n_subjects)
    out = np.full(data.n_subjects, -np.inf)
    usable = np.abs(ln_phi) <= ETA_LIMIT
    mu = discount_mean(psi[:, None], np.asarray(data.delays)[None, :])
    usable &= ((mu > 0.0) & (mu < 1.0)).all(axis=1)
    if not usable.any():
        return out
    rows = sltb_logpdf_arrays(
        mu[usable], np.exp(ln_phi[usable])[:, None], s, l, data.y[usable],
        logs=None if logs is None else (logs[0][usable], logs[1][usable]))
    out[usable] = rows.sum(axis=1)
    return out


def normal_subject_logliks(psi: np.ndarray, sigma2: float,
                            data: DiscountData) -> np.ndarray:
    if data.n_delays == 0:
        return np.zeros(data.n_subjects)
    mu = discount_mean(psi[:, None], np.asarray(data.delays)[None, :])
    resid = data.y - mu
    return (-0.5 * data.n_delays * np.log(2.0 * np.pi * sigma2)
            - (resid ** 2).sum(axis=1) / (2.0 * sigma2))


def mh_update_psi_sltb(rng: Rng, psi: np.ndarray, ln_phi: np.ndarray,
                       data: DiscountData, mu_psi: float, sigma2_psi: float,
                       s: float = DEFAULT_S, l: float = DEFAULT_L,
                       cur_lik: Optional[np.ndarray] = None,
                       logs: Optional[Tuple[np.ndarray, np.ndarray]] = None
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One random-walk sweep over every subject's psi.

    Returns (new psi, new per-subject likelihoods, accept mask). The
    proposal variance is half the group variance. `logs` is passed on to
    `sltb_subject_logliks`.
    """
    return rw_update(rng, psi, mu_psi, sigma2_psi, cur_lik, lambda p:
                     sltb_subject_logliks(p, ln_phi, data, s, l, logs=logs))


def mh_update_lnphi_sltb(rng: Rng, psi: np.ndarray, ln_phi: np.ndarray,
                         data: DiscountData, mu_phi: float, sigma2_phi: float,
                         s: float = DEFAULT_S, l: float = DEFAULT_L,
                         cur_lik: Optional[np.ndarray] = None,
                         logs: Optional[Tuple[np.ndarray, np.ndarray]] = None
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mirror sweep for the per-subject log-precisions."""
    return rw_update(rng, ln_phi, mu_phi, sigma2_phi, cur_lik, lambda p:
                     sltb_subject_logliks(psi, p, data, s, l, logs=logs))


def mh_update_psi_normal(rng: Rng, psi: np.ndarray, sigma2: float,
                         data: DiscountData, mu_psi: float, sigma2_psi: float,
                         cur_lik: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subject sweep under the normal residual likelihood."""
    return rw_update(rng, psi, mu_psi, sigma2_psi, cur_lik,
                     lambda p: normal_subject_logliks(p, sigma2, data))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearChainState:
    psi: np.ndarray
    ln_phi: np.ndarray
    mu_psi: float
    sigma2_psi: float
    mu_phi: float
    sigma2_phi: float
    resid_sigma2: float

    def __post_init__(self):
        if min(self.sigma2_psi, self.sigma2_phi, self.resid_sigma2) <= 0:
            raise ValidationError("variances must be positive")


def _grid_estimates(data: DiscountData, s: float, l: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-subject grid estimates, batched over subjects: each subject's
    best psi on `_PSI_GRID` at ln phi = ln 10, then its best ln phi on
    `_LN_PHI_GRID` at that psi. Returns (psi, ln_phi)."""
    n = data.n_subjects
    logs = log_x_pair(data.y, s, l)[2:]

    def best(grid, loglik):
        ll = np.array([loglik(np.full(n, g)) for g in grid])
        return grid[np.argmax(np.where(np.isfinite(ll), ll, -np.inf), axis=0)]

    psi = best(_PSI_GRID, lambda p: sltb_subject_logliks(
        p, np.full(n, np.log(10.0)), data, s, l, logs))
    return psi, best(_LN_PHI_GRID, lambda p: sltb_subject_logliks(
        psi, p, data, s, l, logs))


def initialize_chain(data: DiscountData, rng: Optional[Rng] = None,
                     s: float = DEFAULT_S, l: float = DEFAULT_L
                     ) -> NonlinearChainState:
    """Empirical start: per-subject grid estimates set the location and
    spread of every layer."""
    if data.n_subjects < 1 or data.n_delays < 1:
        raise ValidationError("initialization needs at least one observation")
    rng = rng if rng is not None else Rng(0)
    psi_hat, ln_phi_hat = _grid_estimates(data, s, l)
    sd_psi = max(float(np.std(psi_hat)), 1e-8)
    sd_phi = max(float(np.std(ln_phi_hat)), 1e-8)
    psi0 = np.asarray(rng.normal(float(np.mean(psi_hat)), sd_psi,
                                 data.n_subjects))
    ln_phi0 = np.asarray(rng.normal(float(np.mean(ln_phi_hat)), sd_phi,
                                    data.n_subjects))
    return NonlinearChainState(
        psi=psi0, ln_phi=ln_phi0,
        mu_psi=float(np.mean(psi_hat)), sigma2_psi=100.0,
        mu_phi=float(np.mean(ln_phi_hat)), sigma2_phi=100.0,
        resid_sigma2=100.0)


# ---------------------------------------------------------------------------
# full samplers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearResult:
    summary: PosteriorSummary
    columns: Tuple[str, ...]
    draws: np.ndarray = field(repr=False)


def sltb_hier_sample(data: DiscountData, priors: HyperPriors = HYPER,
                     iters: int = 20000, burnin: int = 5000, seed: int = 0,
                     thin: int = 5, s: float = DEFAULT_S,
                     l: float = DEFAULT_L) -> NonlinearResult:
    """Six-block sweep: Gibbs on the two group layers, random-walk MH on
    the subject layers, with the boundary-tolerant response likelihood."""
    rng = Rng(seed)
    start = initialize_chain(data, rng, s, l)
    psi, ln_phi = start.psi, start.ln_phi
    mu_psi, sigma2_psi = start.mu_psi, start.sigma2_psi
    mu_phi, sigma2_phi = start.mu_phi, start.sigma2_phi
    logs = log_x_pair(data.y, s, l)[2:]
    lik = sltb_subject_logliks(psi, ln_phi, data, s, l, logs=logs)
    if not np.all(np.isfinite(lik)):
        bad = data.subject_ids[int(np.argmin(np.isfinite(lik)))]
        raise NumericalError(
            f"non-finite starting log-likelihood for subject {bad}")

    def sweep(it):
        nonlocal psi, ln_phi, mu_psi, sigma2_psi, mu_phi, sigma2_phi, lik
        mu_psi = gibbs_mu(rng, psi, sigma2_psi, priors.mu_psi0, priors.lam2_psi0)
        sigma2_psi = gibbs_sigma2(rng, psi, mu_psi, priors.a1, priors.b1)
        psi, lik, a1 = mh_update_psi_sltb(
            rng, psi, ln_phi, data, mu_psi, sigma2_psi, s, l, cur_lik=lik,
            logs=logs)
        mu_phi = gibbs_mu(rng, ln_phi, sigma2_phi, priors.mu_phi0, priors.lam2_phi0)
        sigma2_phi = gibbs_sigma2(rng, ln_phi, mu_phi, priors.a2, priors.b2)
        ln_phi, lik, a2 = mh_update_lnphi_sltb(
            rng, psi, ln_phi, data, mu_phi, sigma2_phi, s, l, cur_lik=lik,
            logs=logs)
        return np.count_nonzero(a1), np.count_nonzero(a2)

    n = data.n_subjects
    draws, rates = run_sweeps(
        iters, burnin, thin, sweep, lambda: np.concatenate(
            [[mu_psi, sigma2_psi, mu_phi, sigma2_phi], psi, ln_phi]),
        {"psi": n, "ln_phi": n})
    cols = ("mu_psi", "sigma2_psi", "mu_phi", "sigma2_phi",
            *(f"psi_{sid}" for sid in data.subject_ids),
            *(f"ln_phi_{sid}" for sid in data.subject_ids))
    return NonlinearResult(
        summary=summarize(cols, draws, rates),
        columns=cols, draws=draws)


def normal_hier_sample(data: DiscountData, priors: HyperPriors = HYPER,
                       iters: int = 20000, burnin: int = 5000, seed: int = 0,
                       thin: int = 5) -> NonlinearResult:
    """Baseline with the same psi hierarchy but normal residuals; the
    residual variance has its own inverse-gamma Gibbs step."""
    if data.n_delays == 0:
        raise ValidationError("the normal sampler needs observations")
    rng = Rng(seed)
    start = initialize_chain(data, rng)
    psi = start.psi
    mu_psi, sigma2_psi = start.mu_psi, start.sigma2_psi
    sigma2 = start.resid_sigma2
    delays = np.asarray(data.delays)

    def sweep(it):
        nonlocal psi, mu_psi, sigma2_psi, sigma2
        mu_psi = gibbs_mu(rng, psi, sigma2_psi, priors.mu_psi0, priors.lam2_psi0)
        sigma2_psi = gibbs_sigma2(rng, psi, mu_psi, priors.a1, priors.b1)
        resid = data.y - discount_mean(psi[:, None], delays[None, :])
        shape, rate = ig_shape_rate(data.y.size, float((resid ** 2).sum()),
                                    priors.a2, priors.b2)
        sigma2 = sample_inverse_gamma(rng, shape, rate)
        psi, _, a = mh_update_psi_normal(
            rng, psi, sigma2, data, mu_psi, sigma2_psi)
        return (np.count_nonzero(a),)

    draws, rates = run_sweeps(
        iters, burnin, thin, sweep,
        lambda: np.concatenate([[mu_psi, sigma2_psi, sigma2], psi]),
        {"psi": data.n_subjects})
    cols = ("mu_psi", "sigma2_psi", "sigma2",
            *(f"psi_{sid}" for sid in data.subject_ids))
    return NonlinearResult(
        summary=summarize(cols, draws, rates),
        columns=cols, draws=draws)
