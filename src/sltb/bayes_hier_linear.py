"""Hierarchical regression with a group random intercept, sampled by
Metropolis within Gibbs.

Model: logit(mu_ij) = x_ij' beta + u_i with a shared log-precision eta,
u_i ~ N(0, sigma^2), beta_k and eta ~ N(0, prior_variance), and
sigma ~ Uniform(0, sigma_upper). The response likelihood is the
boundary-tolerant scale-location-truncated beta, so exact zeros in the
data contribute finite log-density.

Every scalar parameter moves by a random-walk proposal accepted with the
standard ratio; sigma walks on the log scale with the Jacobian term. The
group intercepts are conditionally independent given the rest, so the
u sweep proposes all groups at once and accepts per group.

A sweep re-evaluates the density only where a proposal moves it: a
coefficient's proposal on the rows where its design column is non-zero
(every row for the intercept or a continuous slope), eta's and the
group intercepts' proposals on every row; accepting group intercepts
takes the proposal's rows where the group moved, with no recompute. The
response logs are taken once per chain. Every row equals a full
recompute bit for bit, so the draws do too.

`run_chain` hands its sweep to `chain.run_sweeps`, which keeps the draws
and counts acceptances; the sweep itself adapts the proposal scales in
windows of 100 sweeps during burn-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.special import expit

from .chain import PosteriorSummary, run_sweeps, summarize
from .data import TabularDataset, round_responses
from .distributions import (DEFAULT_L, DEFAULT_S, check_boundary_window,
                            check_scale_location, log_x_pair, sltb_logpdf_arrays)
from .errors import NumericalError, ValidationError
from .kernel import Rng
from .regression import (
    ETA_LIMIT,
    RegressionSpec,
    build_design,
    response_vector,
    warm_start,
)

# study design: medDays slope, gender and grade dummies, grade-gender interactions
HIER_SPEC = RegressionSpec(
    "y", ("medDays", "gender", "grade", "grade:gender"),
    factors={"gender": "F", "grade": "7"})


@dataclass(frozen=True)
class HierLinearModel:
    """Fixed-effect design plus group structure and prior settings."""
    X: np.ndarray
    coef_names: Tuple[str, ...]
    group_index: np.ndarray
    n_groups: int
    group_labels: Tuple[str, ...]
    prior_variance: float = 1e3
    sigma_upper: float = 20.0
    s: float = DEFAULT_S
    l: float = DEFAULT_L

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        gi = np.asarray(self.group_index, dtype=int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "group_index", gi)
        if X.ndim != 2:
            raise ValidationError("design matrix must be two-dimensional")
        if len(self.coef_names) != X.shape[1]:
            raise ValidationError("one name per design column required")
        if gi.shape != (X.shape[0],):
            raise ValidationError("one group index per row required")
        if not np.all(np.isfinite(X)):
            raise ValidationError("design matrix must be finite")
        if self.n_groups < 0 or len(self.group_labels) != self.n_groups:
            raise ValidationError("group_labels must match n_groups")
        if X.shape[0] > 0:
            seen = np.unique(gi)
            if seen[0] != 0 or seen[-1] != self.n_groups - 1 \
                    or len(seen) != self.n_groups:
                raise ValidationError(
                    "group indices must cover every group exactly once")
        if not self.prior_variance > 0:
            raise ValidationError("prior_variance must be positive")
        if not self.sigma_upper > 0:
            raise ValidationError("sigma_upper must be positive")
        check_scale_location(self.s, self.l)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_coefs(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ChainState:
    beta: np.ndarray
    u: np.ndarray
    eta: float
    sigma2: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "u", u)
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(u))
                and np.isfinite(self.eta) and np.isfinite(self.sigma2)):
            raise ValidationError("chain state must be finite")
        if not self.sigma2 > 0:
            raise ValidationError("sigma2 must be positive")


@dataclass
class Tuning:
    """Random-walk scales, one per scalar block. Zero pins a block in place."""
    beta_scales: np.ndarray
    eta_scale: float
    u_scales: np.ndarray
    sigma_scale: float

    def __post_init__(self):
        self.beta_scales = np.asarray(self.beta_scales, dtype=float)
        self.u_scales = np.asarray(self.u_scales, dtype=float)
        bad = (np.any(self.beta_scales < 0) or self.eta_scale < 0
               or np.any(self.u_scales < 0) or self.sigma_scale < 0
               or not np.all(np.isfinite(self.beta_scales))
               or not np.isfinite(self.eta_scale)
               or not np.all(np.isfinite(self.u_scales))
               or not np.isfinite(self.sigma_scale))
        if bad:
            raise ValidationError("proposal scales must be finite and >= 0")

    @staticmethod
    def default(model: HierLinearModel) -> "Tuning":
        return Tuning(beta_scales=np.full(model.n_coefs, 0.2),
                      eta_scale=0.1,
                      u_scales=np.full(model.n_groups, 0.5),
                      sigma_scale=0.3)

    def copy(self) -> "Tuning":
        return Tuning(self.beta_scales.copy(), self.eta_scale,
                      self.u_scales.copy(), self.sigma_scale)


@dataclass(frozen=True)
class HierChainResult:
    summary: PosteriorSummary
    columns: Tuple[str, ...]
    draws: np.ndarray = field(repr=False)
    tuning: Tuning = field(repr=False)


def _safe_rows(lp: np.ndarray, eta: float, y: np.ndarray,
               logs: Tuple[np.ndarray, np.ndarray],
               s: float, l: float) -> np.ndarray:
    """Row log-likelihoods; -inf rows flag proposals to reject, never raise.

    `logs` is ``log_x_pair(y, s, l)[2:]``, taken once per response.
    """
    if y.size == 0:
        return np.zeros(0)
    out = np.full(y.shape, -np.inf)
    if abs(eta) > ETA_LIMIT:
        return out
    mu = expit(lp)
    ok = (mu > 0.0) & (mu < 1.0)
    if ok.all():
        return sltb_logpdf_arrays(mu, np.exp(eta), s, l, y, logs=logs)
    if ok.any():
        out[ok] = sltb_logpdf_arrays(mu[ok], np.exp(eta), s, l, y[ok],
                                     logs=(logs[0][ok], logs[1][ok]))
    return out


def _response(model: HierLinearModel, data: np.ndarray) -> np.ndarray:
    y = np.asarray(data, dtype=float)
    if y.shape != (model.n_rows,):
        raise ValidationError(
            f"response length {y.size} does not match design rows {model.n_rows}")
    return y


def hier_linear_loglik(state: ChainState, model: HierLinearModel,
                       data: np.ndarray) -> float:
    """Total response log-likelihood at the given state."""
    y = _response(model, data)
    if state.beta.shape != (model.n_coefs,) \
            or state.u.shape != (model.n_groups,):
        raise ValidationError(
            "state needs one beta per coefficient and one u per group")
    if model.n_rows == 0:
        return 0.0
    lp = model.X @ state.beta + state.u[model.group_index]
    rows = _safe_rows(lp, state.eta, y, log_x_pair(y, model.s, model.l)[2:],
                      model.s, model.l)
    if not np.all(np.isfinite(rows)):
        bad = int(np.flatnonzero(~np.isfinite(rows))[0])
        raise NumericalError(f"non-finite log-likelihood at row {bad}")
    return float(rows.sum())


class _Work:
    """Mutable sweep scratch; ChainState is the immutable public face.

    `row_sets[j]` holds the rows where coefficient j's design column is
    non-zero (a full slice when that is every row, so nothing is gathered)
    with their responses and response logs.
    """

    def __init__(self, state: ChainState, model: HierLinearModel,
                 y: np.ndarray):
        self.beta = state.beta.copy()
        self.u = state.u.copy()
        self.eta = float(state.eta)
        self.sigma2 = float(state.sigma2)
        self.logs = log_x_pair(y, model.s, model.l)[2:]
        self.row_sets = []
        for j in range(model.n_coefs):
            idx = np.flatnonzero(model.X[:, j] != 0.0)
            if idx.size == y.size:
                idx = slice(None)
            self.row_sets.append(
                (idx, y[idx], (self.logs[0][idx], self.logs[1][idx])))
        self.lp = model.X @ self.beta + self.u[model.group_index]
        self.rows = _safe_rows(self.lp, self.eta, y, self.logs,
                               model.s, model.l)
        self.ll = float(self.rows.sum()) if y.size else 0.0


def _sweep(w: _Work, model: HierLinearModel, y: np.ndarray,
           rng: Rng, tuning: Tuning) -> np.ndarray:
    """One proposal per block; returns each block's accepted count in the
    order coefficients, eta, group intercepts, sigma."""
    k = model.n_coefs
    m = model.n_groups
    vp = model.prior_variance
    s, l = model.s, model.l
    gi = model.group_index
    acc = np.zeros(k + m + 2, dtype=int)

    if k:
        z = np.asarray(rng.normal(0.0, 1.0, k)) * tuning.beta_scales
        lu = np.log(np.asarray(rng.uniform(size=k)))
        for j in range(k):
            bj = w.beta[j]
            bj_new = bj + z[j]
            lp_new = w.lp + model.X[:, j] * z[j]
            # the other rows' lp is lp + 0*z == lp, so their rows stand
            idx, y_j, logs_j = w.row_sets[j]
            rows_new = w.rows.copy()
            rows_new[idx] = _safe_rows(lp_new[idx], w.eta, y_j, logs_j, s, l)
            ll_new = float(rows_new.sum()) if y.size else 0.0
            delta = (ll_new - w.ll) + (bj * bj - bj_new * bj_new) / (2.0 * vp)
            if lu[j] < delta:
                acc[j] = 1
                w.beta[j] = bj_new
                w.lp = lp_new
                w.rows = rows_new
                w.ll = ll_new

    eta_new = w.eta + float(rng.normal(0.0, 1.0)) * tuning.eta_scale
    rows_new = _safe_rows(w.lp, eta_new, y, w.logs, s, l)
    ll_new = float(rows_new.sum()) if y.size else 0.0
    delta = (ll_new - w.ll) + (w.eta ** 2 - eta_new ** 2) / (2.0 * vp)
    if np.log(float(rng.uniform())) < delta:
        acc[k] = 1
        w.eta = eta_new
        w.rows = rows_new
        w.ll = ll_new

    if m:
        z = np.asarray(rng.normal(0.0, 1.0, m)) * tuning.u_scales
        u_new = w.u + z
        prior_delta = (w.u ** 2 - u_new ** 2) / (2.0 * w.sigma2)
        if y.size:
            lp_new = w.lp + z[gi]
            rows_new = _safe_rows(lp_new, w.eta, y, w.logs, s, l)
            cur = np.bincount(gi, weights=w.rows, minlength=m)
            new = np.bincount(gi, weights=rows_new, minlength=m)
            with np.errstate(invalid="ignore"):
                delta = (new - cur) + prior_delta
            delta = np.where(np.isnan(delta), -np.inf, delta)
        else:
            delta = prior_delta
        accept = np.log(np.asarray(rng.uniform(size=m))) < delta
        acc[k + 1:k + 1 + m] = accept
        if accept.any():
            w.u[accept] = u_new[accept]
            if y.size:
                moved = accept[gi]
                w.lp = np.where(moved, lp_new, w.lp)
                w.rows = np.where(moved, rows_new, w.rows)
                w.ll = float(w.rows.sum())

    log_sig = 0.5 * np.log(w.sigma2)
    log_sig_new = log_sig + float(rng.normal(0.0, 1.0)) * tuning.sigma_scale
    sig_new = np.exp(log_sig_new)
    if sig_new < model.sigma_upper:
        sig2_new = sig_new * sig_new
        usq = float(w.u @ w.u)
        delta = (-0.5 * m * np.log(sig2_new) - usq / (2.0 * sig2_new)) \
            - (-0.5 * m * np.log(w.sigma2) - usq / (2.0 * w.sigma2)) \
            + (log_sig_new - log_sig)
        if np.log(float(rng.uniform())) < delta:
            acc[-1] = 1
            w.sigma2 = float(sig2_new)
    return acc


def initial_state(model: HierLinearModel, data: np.ndarray) -> ChainState:
    """Least-squares warm start on the logit scale; u at zero, sigma at one,
    or at half of sigma_upper where that is at most one."""
    if model.n_rows == 0 or model.n_coefs == 0:
        beta = np.zeros(model.n_coefs)
    else:
        beta = warm_start(model.X, np.asarray(data, dtype=float), model.l)[:-1]
    sigma = 1.0 if model.sigma_upper > 1.0 else model.sigma_upper / 2.0
    return ChainState(beta=beta, u=np.zeros(model.n_groups),
                      eta=np.log(10.0), sigma2=sigma * sigma)


_ADAPT_WINDOW = 100
_ADAPT_LOW, _ADAPT_HIGH = 0.2, 0.5
_ADAPT_SHRINK, _ADAPT_GROW = 0.7, 1.4
_PREDICT_BATCH = 500  # draws per block of posterior_predictive_mse


def run_chain(model: HierLinearModel, data: np.ndarray, iters: int = 20000,
              burnin: int = 5000, thin: int = 5, seed: int = 0,
              tuning: Optional[Tuning] = None,
              init: Optional[ChainState] = None) -> HierChainResult:
    """Burn-in with windowed scale adaptation, then a frozen kernel.

    Draw columns are the fixed effects, eta, sigma2, then the group
    intercepts; summaries cover every column.
    """
    y = _response(model, data)
    check_boundary_window(y, model.s, model.l)
    tun = (tuning or Tuning.default(model)).copy()
    if tun.beta_scales.shape != (model.n_coefs,) \
            or tun.u_scales.shape != (model.n_groups,):
        raise ValidationError("tuning block shapes do not match the model")
    state = init if init is not None else initial_state(model, y)
    if not np.sqrt(state.sigma2) < model.sigma_upper:
        raise ValidationError("init sigma is outside the prior support")
    hier_linear_loglik(state, model, y)  # fail fast on a bad start
    rng = Rng(seed)
    w = _Work(state, model, y)
    k, m = model.n_coefs, model.n_groups
    window = np.zeros(k + m + 2, dtype=int)

    def sweep(it):
        acc = _sweep(w, model, y, rng, tun)
        if it <= burnin:
            window[:] += acc
            if it % _ADAPT_WINDOW == 0:
                rates = window / _ADAPT_WINDOW
                factor = np.where(rates < _ADAPT_LOW, _ADAPT_SHRINK,
                                  np.where(rates > _ADAPT_HIGH, _ADAPT_GROW, 1.0))
                tun.beta_scales *= factor[:k]
                tun.eta_scale *= factor[k]
                tun.u_scales *= factor[k + 1:k + 1 + m]
                tun.sigma_scale *= factor[k + 1 + m]
                window[:] = 0
        return acc

    us = tuple(f"u_{lab}" for lab in model.group_labels)
    draws, rates = run_sweeps(
        iters, burnin, thin, sweep,
        lambda: np.concatenate([w.beta, [w.eta, w.sigma2], w.u]),
        dict.fromkeys((*model.coef_names, "eta", *us, "sigma"), 1))
    cols = (*model.coef_names, "eta", "sigma2", *us)
    return HierChainResult(summary=summarize(cols, draws, rates),
                           columns=cols, draws=draws, tuning=tun)


def build_hier_model(data: TabularDataset, spec: RegressionSpec = HIER_SPEC,
                     group: str = "county", prior_variance: float = 1e3,
                     sigma_upper: float = 20.0, s: float = DEFAULT_S,
                     l: float = DEFAULT_L) -> Tuple[HierLinearModel, np.ndarray]:
    """Design, group structure, and response extracted from a table."""
    X, names = build_design(spec, data)
    y = response_vector(spec, data)
    if not data.has_column(group):
        raise ValidationError(f"unknown column '{group}'")
    if data.is_factor(group):
        raw = data.factor(group)
    else:
        raw = tuple(repr(v) for v in data.numeric(group))
    labels = tuple(sorted(set(raw)))
    index = {lab: i for i, lab in enumerate(labels)}
    gi = np.array([index[v] for v in raw], dtype=int)
    model = HierLinearModel(
        X=X, coef_names=names, group_index=gi, n_groups=len(labels),
        group_labels=labels, prior_variance=prior_variance,
        sigma_upper=sigma_upper, s=s, l=l)
    return model, y


def posterior_predictive_mse(result: HierChainResult, model: HierLinearModel,
                             data: np.ndarray) -> float:
    """Mean squared error of the draw-averaged predictive mean."""
    y = _response(model, data)
    if model.n_rows == 0:
        raise ValidationError("no rows to score")
    k = model.n_coefs
    draws = result.draws
    total = np.zeros(model.n_rows)
    for lo in range(0, draws.shape[0], _PREDICT_BATCH):
        block = draws[lo:lo + _PREDICT_BATCH]  # u_g is column k + 2 + g
        lp = block[:, :k] @ model.X.T + block[:, k + 2 + model.group_index]
        total += np.clip(model.s * (expit(lp) - model.l), 0.0, 1.0).sum(axis=0)
    yhat = total / draws.shape[0]
    return float(np.mean((yhat - y) ** 2))


TABLE_EFFECTS = {
    "(Intercept)": -3.617, "medDays": -0.770, "genderM": -0.269,
    "grade9": 0.753, "grade11": 1.024, "grade9:genderM": 0.068,
    "grade11:genderM": 0.266}


@dataclass(frozen=True)
class AlcoholFixture:
    data: TabularDataset
    beta: Dict[str, float]
    eta: float
    sigma2: float
    u: np.ndarray = field(repr=False)


def gen_alcohol_fixture(n_counties: int = 56, rows: int = 1340,
                        eta: float = 3.603, sigma2: float = 0.535,
                        seed: int = 7,
                        rounding_decimals: Optional[int] = None) -> AlcoholFixture:
    """Synthetic stand-in with the survey's structure: counties crossed with
    grade, gender, and day-range midpoints, thinned to the requested size.

    Responses are drawn from the fitted law itself, so by default the
    posterior recovers the generating coefficients at nominal coverage.
    Rounding (e.g. to 3 decimals) collapses the smallest responses onto
    exact zeros for boundary-bearing demo data; the collapsed cells then
    carry more weight than the generating draws did, so recovery checks
    should stay unrounded.
    """
    grades = ("7", "9", "11")
    genders = ("F", "M")
    midpoints = (0.0, 1.5, 6.0, 14.5, 25.0)
    county_labels = tuple(f"c{i + 1:02d}" for i in range(n_counties))
    full = [(c, g, sex, d) for c in county_labels for g in grades
            for sex in genders for d in midpoints]
    if not 0 < rows <= len(full):
        raise ValidationError(
            f"rows must be in 1..{len(full)} for this crossing")
    rng = Rng(seed)
    keep = np.sort(np.asarray(
        rng.uniform(size=len(full))).argsort()[:rows])
    chosen = [full[i] for i in keep]

    county = tuple(r[0] for r in chosen)
    grade = tuple(r[1] for r in chosen)
    gender = tuple(r[2] for r in chosen)
    med_raw = np.array([r[3] for r in chosen])
    med = (med_raw - med_raw.mean()) / med_raw.std(ddof=1)

    u = np.asarray(rng.normal(0.0, np.sqrt(sigma2), n_counties))
    cidx = {lab: i for i, lab in enumerate(county_labels)}
    gi = np.array([cidx[c] for c in county])
    b = TABLE_EFFECTS
    lp = (b["(Intercept)"] + b["medDays"] * med
          + b["genderM"] * (np.array(gender) == "M")
          + b["grade9"] * (np.array(grade) == "9")
          + b["grade11"] * (np.array(grade) == "11")
          + b["grade9:genderM"] * ((np.array(grade) == "9")
                                   & (np.array(gender) == "M"))
          + b["grade11:genderM"] * ((np.array(grade) == "11")
                                    & (np.array(gender) == "M"))
          + u[gi])
    mu = expit(lp)
    phi = np.exp(eta)
    s, l = DEFAULT_S, DEFAULT_L
    raw = np.asarray(rng.beta(mu * phi, (1.0 - mu) * phi))
    hi = 1.0 / s + l
    for _ in range(100):
        out = (raw <= l) | (raw >= hi)  # outside the truncation window
        if not out.any():
            break
        raw[out] = np.asarray(rng.beta(mu[out] * phi, (1.0 - mu[out]) * phi))
    data = TabularDataset({
        "county": county, "gender": gender, "grade": grade,
        "medDays": med, "y": round_responses((raw - l) * s, rounding_decimals)})
    return AlcoholFixture(data=data, beta=dict(TABLE_EFFECTS), eta=eta,
                          sigma2=sigma2, u=u)
