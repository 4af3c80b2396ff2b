"""Regression on bounded responses: design building, likelihoods, MLE.

The mean is linked through logit and the precision is a single constant
on the log scale, so the parameter vector is theta = (beta_0..beta_k, eta)
with phi = exp(eta). Two families share the machinery: the plain beta
likelihood (interior data only) and the boundary-tolerant SLTB likelihood.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as _la
from scipy import optimize as _opt
from scipy import special as _sp
from scipy.special import expit, logit, ndtr

from . import kernel
from .data import TabularDataset
from .distributions import (
    DEFAULT_L,
    DEFAULT_S,
    beta_logpdf_arrays,
    check_boundary_window,
    check_scale_location,
    log_x_pair,
    sltb_log_normalizer_partials,
    sltb_logpdf_arrays,
)
from .errors import (
    BoundaryError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ValidationError,
)

ETA_LIMIT = 50.0  # |eta| = |ln phi| beyond this is treated as a failed region


@dataclass(frozen=True)
class RegressionSpec:
    """Model formula: response column, ordered terms, factor references.

    Terms are column names or 'a:b' pairwise interactions; the intercept
    is implicit and always first. `factors` maps a factor column to its
    reference level (treatment coding).
    """

    response: str
    terms: Tuple[str, ...]
    factors: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "factors", dict(self.factors))
        if not self.response:
            raise ValidationError("response column name is required")
        for t in self.terms:
            if not t or t.count(":") > 1:
                raise ValidationError(f"malformed term {t!r}")


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood fit with Wald inference.

    `coefficients` holds beta in design order; `log_precision` is eta.
    se/z/p cover the full theta vector (coefficients then eta), matching the
    rows of `vcov`, the inverse of the observed information, which is the
    symmetrized central-difference Jacobian of -`score` at the optimum.
    `fit_seconds` times the one optimizer call only, not the warm start or
    the information. `loglik_trace` holds the log-likelihood at the start,
    then the optimizer's own value at each of its iterates; `iterations`
    counts those iterations, so it is ``len(loglik_trace) - 1``.
    `evaluations` counts the optimizer's calls of the objective, each one
    log-likelihood and one `score`, and `score_max` is the largest |score|
    at the optimum scaled by max(1, |loglik|), the figure the convergence
    test reads.
    """

    family: str
    coef_names: Tuple[str, ...]
    coefficients: np.ndarray
    log_precision: float
    loglik: float
    vcov: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    converged: bool
    iterations: int
    s: float
    l: float
    fit_seconds: float
    loglik_trace: Tuple[float, ...] = ()
    evaluations: int = 0
    score_max: float = float("nan")

    def phi(self) -> float:
        return float(np.exp(self.log_precision))

    def theta(self) -> np.ndarray:
        return np.append(self.coefficients, self.log_precision)


# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------

def _level_name(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _term_block(term: str, data: TabularDataset,
                factors: Mapping[str, str]) -> Tuple[np.ndarray, list]:
    """Columns and names contributed by one main-effect term."""
    if not data.has_column(term):
        raise ValidationError(f"unknown column '{term}'")
    if data.is_factor(term) or term in factors:
        # a factors entry forces coding even when the stored column is
        # numeric (CSV ingestion cannot tell "7" the level from 7 the value)
        values = (data.factor(term) if data.is_factor(term)
                  else tuple(_level_name(v) for v in data.numeric(term)))
        levels = tuple(sorted(set(values)))
        ref = factors.get(term, levels[0])
        if ref not in levels:
            raise ValidationError(
                f"reference level '{ref}' not found in factor '{term}' "
                f"(levels: {', '.join(levels)})")
        cols, names = [], []
        for lev in levels:
            if lev == ref:
                continue
            cols.append(np.array([1.0 if v == lev else 0.0 for v in values]))
            names.append(f"{term}{lev}")
        block = np.column_stack(cols) if cols else np.empty((data.n_rows, 0))
        return block, names
    return data.numeric(term).reshape(-1, 1), [term]


def build_design(spec: RegressionSpec,
                 data: TabularDataset) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Design matrix with intercept first, treatment-coded factors,
    interaction columns as elementwise products. Rank-checked."""
    cols = [np.ones(data.n_rows)]
    names = ["(Intercept)"]
    for term in spec.terms:
        if ":" in term:
            left, right = term.split(":")
            lb, ln = _term_block(left, data, spec.factors)
            rb, rn = _term_block(right, data, spec.factors)
            for i, na in enumerate(ln):
                for j, nb in enumerate(rn):
                    cols.append(lb[:, i] * rb[:, j])
                    names.append(f"{na}:{nb}")
        else:
            block, bn = _term_block(term, data, spec.factors)
            for i, nb in enumerate(bn):
                cols.append(block[:, i])
                names.append(nb)
    X = np.column_stack(cols)
    _check_rank(X, names)
    return X, tuple(names)


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    _, r, perm = _la.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(X.shape) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        aliased = [names[k] for k in perm[rank:]]
        raise ValidationError(
            "design matrix is rank deficient; aliased columns: "
            + ", ".join(sorted(aliased)))


def response_vector(spec: RegressionSpec, data: TabularDataset) -> np.ndarray:
    y = data.numeric(spec.response)
    bad = np.nonzero((y < 0.0) | (y > 1.0))[0]
    if bad.size:
        raise ValidationError(
            f"response '{spec.response}' outside [0,1] at rows "
            + ", ".join(str(int(i)) for i in bad[:10]))
    return y


# ---------------------------------------------------------------------------
# likelihoods
# ---------------------------------------------------------------------------

def _theta_parts(theta: np.ndarray, X: np.ndarray) -> Tuple[np.ndarray, float]:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (X.shape[1] + 1,):
        raise ValidationError(
            f"theta must have {X.shape[1] + 1} entries "
            f"(coefficients plus log precision), got {theta.shape}")
    return theta[:-1], float(theta[-1])


def _linear_predictor(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    lp = X @ beta
    if not np.isfinite(lp).all():
        raise NumericalError("non-finite linear predictor")
    return lp


def _loglik(theta: np.ndarray, X: np.ndarray, logpdf) -> float:
    """Sum of `logpdf(mu, phi)` at theta, or -inf where |eta| exceeds
    ETA_LIMIT, a mean rounds onto 0 or 1, or the sum is not finite."""
    beta, eta = _theta_parts(theta, X)
    lp = _linear_predictor(beta, X)
    if abs(eta) > ETA_LIMIT:
        return -np.inf
    mu = expit(lp)
    if (mu <= 0.0).any() or (mu >= 1.0).any():
        return -np.inf
    total = float(logpdf(mu, np.exp(eta)).sum())
    return total if math.isfinite(total) else -np.inf


def loglik_beta(theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Beta log-likelihood; rejects boundary observations outright."""
    y = np.asarray(y, dtype=float)
    boundary = np.nonzero((y <= 0.0) | (y >= 1.0))[0]
    if boundary.size:
        raise BoundaryError(
            "beta log-likelihood is undefined at 0/1 responses (rows "
            + ", ".join(str(int(i)) for i in boundary[:10]) + ")",
            rows=tuple(int(i) for i in boundary))
    return _loglik(theta, X, lambda mu, phi: beta_logpdf_arrays(mu, phi, y))


def loglik_sltb(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
                s: float = DEFAULT_S, l: float = DEFAULT_L,
                logs: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> float:
    """SLTB log-likelihood; finite with boundary observations present.

    Raises DomainError for a response outside [0,1]. A caller that
    evaluates many theta at one already-checked response (the objective
    of `fit_mle`) passes ``logs=log_x_pair(y, s, l)[2:]``, which skips
    that check and the response's log step on every call.
    """
    if logs is None:
        y = np.asarray(y, dtype=float)
        if ((y < 0.0) | (y > 1.0)).any():
            raise DomainError("responses must lie in [0,1]")
        logs = log_x_pair(y, s, l)[2:]
    return _loglik(theta, X, lambda mu, phi:
                   sltb_logpdf_arrays(mu, phi, s, l, y, logs))


def score(theta: np.ndarray, X: np.ndarray, y: np.ndarray, family: str = "sltb",
          s: float = DEFAULT_S, l: float = DEFAULT_L,
          logs: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Gradient in theta of `loglik_sltb` (family "sltb") or `loglik_beta`.

    Per row, d/da = psi(a+b) - psi(a) + ln x - d ln Z/da and
    d/db = psi(a+b) - psi(b) + ln(1-x) - d ln Z/db, where x is the beta
    argument (y for the beta family, whose Z is 1) and the partials of
    ln Z come from `sltb_log_normalizer_partials`, which sums the same
    DLMF 8.17.8 tail series as the density's normalizer and differentiates
    it in the same pass. Through a = mu*phi, b = (1-mu)*phi,
    mu = expit(X beta) and phi = exp(eta) they give
    X^T [phi mu (1-mu) (d/da - d/db)] and sum(a d/da + b d/db). No domain
    checking: the caller evaluates `loglik_*` at theta first, which checks
    the response, and asks for the score only where that is finite. Rows
    whose tail series needs more terms than its cap make the score NaN.
    `logs` is as in `loglik_sltb`.
    """
    beta, eta = _theta_parts(theta, X)
    mu = expit(_linear_predictor(beta, X))
    phi = math.exp(eta)
    a, b = mu * phi, (1.0 - mu) * phi
    if family == "beta":
        ln_x, ln_1mx, z_a, z_b = np.log(y), np.log1p(-y), 0.0, 0.0
    else:
        ln_x, ln_1mx = log_x_pair(y, s, l)[2:] if logs is None else logs
        z_a, z_b = sltb_log_normalizer_partials(mu, phi, s, l)
    psi_phi = _sp.digamma(phi)
    d_a = psi_phi - _sp.digamma(a) + ln_x - z_a
    d_b = psi_phi - _sp.digamma(b) + ln_1mx - z_b
    return np.append(X.T @ (a * (1.0 - mu) * (d_a - d_b)),
                     np.sum(a * d_a + b * d_b))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def warm_start(X: np.ndarray, y: np.ndarray, l: float) -> np.ndarray:
    """Least squares on the logit of the clipped response, then eta = ln 10."""
    clamped = np.clip(y, max(l, 1e-12), 1.0 - max(l, 1e-12))
    beta0, *_ = np.linalg.lstsq(X, logit(clamped), rcond=None)
    return np.append(beta0, np.log(10.0))


def fit_mle(spec: RegressionSpec, data: TabularDataset, family: str = "sltb",
            s: float = DEFAULT_S, l: float = DEFAULT_L) -> FitResult:
    """Maximize the log-likelihood by BFGS on its analytic `score`.

    The start is `warm_start` on the response squeezed to
    (y(n-1) + 1/2)/n (Smithson & Verkuilen 2006), so that rows at exact 0
    or 1 do not pull the least-squares line to the clipping limits. The
    fit has converged when BFGS reports success or the largest |score| at
    its point, scaled by max(1, |loglik|), is below 1e-4.

    Wald machinery: vcov inverts the observed information, the symmetrized
    central-difference Jacobian of -`score` at the optimum
    (`kernel.numeric_hessian`); z = estimate/se, p two-sided normal.
    """
    if family not in ("beta", "sltb"):
        raise ValidationError(f"unknown family '{family}', expected sltb or beta")
    check_scale_location(s, l)
    X, names = build_design(spec, data)
    y = response_vector(spec, data)
    if family == "beta":
        boundary = np.nonzero((y <= 0.0) | (y >= 1.0))[0]
        if boundary.size:
            raise BoundaryError(
                "family=beta requires an interior-only response; boundary rows: "
                + ", ".join(str(int(i)) for i in boundary[:10]),
                rows=tuple(int(i) for i in boundary))
        logs = None

        def ll(theta):
            return loglik_beta(theta, X, y)
    else:
        # y is fixed for the fit and response_vector has checked it
        check_boundary_window(y, s, l)
        logs = log_x_pair(y, s, l)[2:]

        def ll(theta):
            return loglik_sltb(theta, X, y, s, l, logs)

    def negll(theta):
        # line searches may probe non-finite points; treat them as rejected
        if not np.isfinite(theta).all():
            return np.inf
        return -ll(theta)

    def gradient(theta, value=None):
        # -score where negll (`value`, if known) is finite, NaN elsewhere
        if not np.isfinite(negll(theta) if value is None else value):
            return np.full(theta.shape, np.nan)
        return -score(theta, X, y, family, s, l, logs)

    trace = []

    def objective(theta):
        value = negll(theta)
        if not trace:
            trace.append(-value)  # the start; the first call evaluates it
        grad = gradient(theta, value)
        if np.isfinite(grad).all():
            return value, grad
        # no usable score here (see `score`): the line search backs off
        return np.inf, np.zeros_like(theta)

    def record(intermediate_result):
        # the optimizer's own value at the iterate, so tracing costs no evaluation
        trace.append(-intermediate_result.fun)

    n = y.size
    theta0 = warm_start(X, (y * (n - 1) + 0.5) / n, l)
    t0 = time.perf_counter()
    with np.errstate(invalid="ignore"):
        # line searches probe infeasible points; inf arithmetic there is expected
        # the score sums n rows, so its rounding floor grows with n; below
        # about 5e-8 per row, steps only fail their line searches
        qn = _opt.minimize(objective, theta0, method="BFGS", jac=True,
                           callback=record,
                           options={"maxiter": 500, "gtol": 5e-8 * n})
    elapsed = time.perf_counter() - t0

    theta_hat = qn.x
    best = -float(qn.fun)
    score_max = float(np.max(np.abs(qn.jac))) / max(1.0, abs(best))
    converged = math.isfinite(best) and bool(qn.success or score_max < 1e-4)
    if not converged:
        raise ConvergenceError(
            f"optimizer failed to converge after {len(trace) - 1} iterations "
            f"(scaled score max {score_max:.3e})",
            best_point=theta_hat, best_value=best)

    try:
        hess = kernel.numeric_hessian(gradient, theta_hat)
    except NumericalError:
        # optimum close to the feasible edge: difference with a finer step
        hess = kernel.numeric_hessian(
            gradient, theta_hat, h=np.finfo(float).eps ** (1.0 / 3.0) / 16.0)
    cond = float(np.linalg.cond(hess))
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(
            f"observed information is numerically singular "
            f"(condition number {cond:.3e})")
    vcov = np.linalg.inv(hess)
    diag = np.diag(vcov)
    if np.any(diag <= 0.0):
        raise NumericalError(
            f"observed information is not positive definite "
            f"(condition number {cond:.3e})")
    se = np.sqrt(diag)
    est = np.asarray(theta_hat, dtype=float)
    z = est / se
    pvals = 2.0 * (1.0 - ndtr(np.abs(z)))

    return FitResult(
        family=family,
        coef_names=names,
        coefficients=est[:-1].copy(),
        log_precision=float(est[-1]),
        loglik=best,
        vcov=vcov,
        se=se,
        z=z,
        p=np.clip(pvals, 0.0, 1.0),
        converged=converged,
        iterations=len(trace) - 1,
        s=float(s),
        l=float(l),
        fit_seconds=float(elapsed),
        loglik_trace=tuple(float(v) for v in trace),
        evaluations=int(qn.nfev),
        score_max=score_max,
    )


# ---------------------------------------------------------------------------
# prediction and error reports
# ---------------------------------------------------------------------------

def predict_mean(fit: FitResult, X: np.ndarray) -> np.ndarray:
    """Predicted response mean per row, always inside [0,1]."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != fit.coefficients.size:
        raise ValidationError(
            f"design has {X.shape[1]} columns, fit expects {fit.coefficients.size}")
    mu = expit(X @ fit.coefficients)
    if fit.family == "sltb":
        return np.clip(fit.s * (mu - fit.l), 0.0, 1.0)
    return mu


def residuals(fit: FitResult, spec: RegressionSpec,
              data: TabularDataset) -> np.ndarray:
    X, _ = build_design(spec, data)
    y = response_vector(spec, data)
    return y - predict_mean(fit, X)


_SUBSETS = ("all", "boundary_ones", "boundary_zeros")


def _subset_mse(y: np.ndarray, r: np.ndarray, subset: str) -> float:
    """Mean squared residual over the rows of `subset`; NaN if it has none."""
    mask = {"all": np.ones_like(y, dtype=bool), "boundary_ones": y == 1.0,
            "boundary_zeros": y == 0.0}[subset]
    if not mask.any():
        return float("nan")
    return float(np.mean(r[mask] ** 2))


def mse(fit: FitResult, spec: RegressionSpec, data: TabularDataset,
        subset: str = "all") -> float:
    """Mean squared error, optionally restricted to exact-boundary rows.

    Returns NaN for an empty subset.
    """
    if subset not in _SUBSETS:
        raise ValidationError(f"subset must be one of {_SUBSETS}, got {subset!r}")
    return _subset_mse(response_vector(spec, data),
                       residuals(fit, spec, data), subset)


def mse_report(fit: FitResult, spec: RegressionSpec, data: TabularDataset,
               resid: Optional[np.ndarray] = None) -> Dict[str, Optional[float]]:
    """MSE overall and on each exact-boundary subset, with the row counts;
    an empty subset's MSE is None, which JSON writes as null. A caller that
    has the fit's `residuals` on `data` already passes them as `resid`."""
    y = response_vector(spec, data)
    r = residuals(fit, spec, data) if resid is None else resid
    report = {}
    for key, subset in (("overall", "all"), ("boundary_ones", "boundary_ones"),
                        ("boundary_zeros", "boundary_zeros")):
        value = _subset_mse(y, r, subset)
        report[key] = None if np.isnan(value) else value
    return {**report, "n": int(y.size), "n_ones": int(np.sum(y == 1.0)),
            "n_zeros": int(np.sum(y == 0.0))}
