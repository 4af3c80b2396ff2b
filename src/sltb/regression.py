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
from scipy.special import expit, logit, ndtr

from . import kernel
from .data import TabularDataset
from .distributions import (
    DEFAULT_L,
    DEFAULT_S,
    beta_logpdf_arrays,
    check_scale_location,
    log_x_pair,
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
    se/z/p cover the full theta vector (coefficients then eta), matching
    the rows of `vcov`. `fit_seconds` times the two optimizer calls only,
    not the warm start, the convergence check or the Hessian.
    `loglik_trace` holds the log-likelihood at the warm start, then one
    entry per optimizer iteration; `iterations` counts those iterations,
    so it is ``len(loglik_trace) - 1``.
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


def loglik_beta(theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Beta log-likelihood; rejects boundary observations outright."""
    y = np.asarray(y, dtype=float)
    boundary = np.nonzero((y <= 0.0) | (y >= 1.0))[0]
    if boundary.size:
        raise BoundaryError(
            "beta log-likelihood is undefined at 0/1 responses (rows "
            + ", ".join(str(int(i)) for i in boundary[:10]) + ")",
            rows=tuple(int(i) for i in boundary))
    beta, eta = _theta_parts(theta, X)
    lp = _linear_predictor(beta, X)
    if abs(eta) > ETA_LIMIT:
        return -np.inf
    mu = expit(lp)
    if (mu <= 0.0).any() or (mu >= 1.0).any():
        return -np.inf
    total = float(beta_logpdf_arrays(mu, np.exp(eta), y).sum())
    return total if math.isfinite(total) else -np.inf


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
    beta, eta = _theta_parts(theta, X)
    lp = _linear_predictor(beta, X)
    if abs(eta) > ETA_LIMIT:
        return -np.inf
    mu = expit(lp)
    if (mu <= 0.0).any() or (mu >= 1.0).any():
        return -np.inf
    total = float(sltb_logpdf_arrays(mu, np.exp(eta), s, l, y, logs).sum())
    return total if math.isfinite(total) else -np.inf


_FAMILY_LOGLIK = {"beta": loglik_beta, "sltb": loglik_sltb}


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _warm_start(X: np.ndarray, y: np.ndarray, l: float) -> np.ndarray:
    clamped = np.clip(y, max(l, 1e-12), 1.0 - max(l, 1e-12))
    beta0, *_ = np.linalg.lstsq(X, logit(clamped), rcond=None)
    return np.append(beta0, np.log(10.0))


def fit_mle(spec: RegressionSpec, data: TabularDataset, family: str = "sltb",
            s: float = DEFAULT_S, l: float = DEFAULT_L) -> FitResult:
    """Two-phase maximizer: simplex for robustness, quasi-Newton to polish.

    Wald machinery: vcov is the inverse numeric Hessian of the negative
    log-likelihood at the optimum, z = estimate/se, p two-sided normal.
    """
    if family not in _FAMILY_LOGLIK:
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

    if family == "beta":
        def ll(theta):
            return loglik_beta(theta, X, y)
    else:
        # y is fixed for the fit and response_vector has checked it
        logs = log_x_pair(y, s, l)[2:]

        def ll(theta):
            return loglik_sltb(theta, X, y, s, l, logs)

    def negll(theta):
        # line searches may probe non-finite points; treat them as rejected
        if not np.isfinite(theta).all():
            return np.inf
        return -ll(theta)

    theta0 = _warm_start(X, y, l)
    trace = [ll(theta0)]

    def record(intermediate_result):
        # the optimizer's own value at the iterate, so tracing costs no evaluation
        trace.append(-intermediate_result.fun)

    t0 = time.perf_counter()
    with np.errstate(invalid="ignore"):
        # line searches probe infeasible points; inf arithmetic there is expected
        nm = _opt.minimize(
            negll, theta0, method="Nelder-Mead", callback=record,
            options={"maxiter": 4000, "xatol": 1e-7, "fatol": 1e-10, "adaptive": True})
        qn = _opt.minimize(
            negll, nm.x, method="BFGS", callback=record,
            options={"maxiter": 500, "gtol": 1e-7})
    elapsed = time.perf_counter() - t0

    theta_hat = qn.x if qn.fun <= nm.fun else nm.x
    best = float(ll(theta_hat))
    grad = _numeric_gradient(ll, theta_hat)
    scale = max(1.0, abs(best))
    grad_ok = float(np.max(np.abs(grad))) / scale < 1e-4
    converged = bool(nm.success or qn.success or grad_ok)
    if not converged:
        raise ConvergenceError(
            f"optimizer failed to converge after {len(trace) - 1} iterations "
            f"(scaled gradient max {np.max(np.abs(grad)) / scale:.3e})",
            best_point=theta_hat, best_value=best)

    try:
        hess = kernel.numeric_hessian(negll, theta_hat)
    except NumericalError:
        # optimum close to the feasible edge: difference with a finer step
        hess = kernel.numeric_hessian(
            negll, theta_hat, h=np.finfo(float).eps ** (1.0 / 3.0) / 16.0)
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
    )


def _numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * (1.0 + abs(x[i]))
        up, dn = x.copy(), x.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2.0 * step)
    return g


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


def mse(fit: FitResult, spec: RegressionSpec, data: TabularDataset,
        subset: str = "all") -> float:
    """Mean squared error, optionally restricted to exact-boundary rows.

    Returns NaN for an empty subset.
    """
    if subset not in _SUBSETS:
        raise ValidationError(f"subset must be one of {_SUBSETS}, got {subset!r}")
    y = response_vector(spec, data)
    r = residuals(fit, spec, data)
    if subset == "boundary_ones":
        mask = y == 1.0
    elif subset == "boundary_zeros":
        mask = y == 0.0
    else:
        mask = np.ones_like(y, dtype=bool)
    if not mask.any():
        return float("nan")
    return float(np.mean(r[mask] ** 2))


def mse_report(fit: FitResult, spec: RegressionSpec,
               data: TabularDataset) -> Dict[str, float]:
    y = response_vector(spec, data)
    return {
        "overall": mse(fit, spec, data, "all"),
        "boundary_ones": mse(fit, spec, data, "boundary_ones"),
        "boundary_zeros": mse(fit, spec, data, "boundary_zeros"),
        "n": int(y.size),
        "n_ones": int(np.sum(y == 1.0)),
        "n_zeros": int(np.sum(y == 0.0)),
    }
