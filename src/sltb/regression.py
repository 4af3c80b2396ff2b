"""Regression on bounded responses: design building, likelihoods, MLE.

The mean is linked through logit and the precision is a single constant
on the log scale, so the parameter vector is theta = (beta_0..beta_k, eta)
with phi = exp(eta). Two families share the machinery: the plain beta
likelihood (interior data only) and the boundary-tolerant SLTB likelihood.
`score_information` is the one closed form of the score and the observed
information of both; `fit_mle` takes Newton steps on them and inverts the
information for Wald inference. The log-likelihoods check the response,
so a beta fit is refused at its start's `loglik_beta` call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as _la
from scipy import special as _sp
from scipy.special import expit, logit, ndtr

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
_MAX_NEWTON_STEPS = 100


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
    rows of `vcov`, the inverse of the observed information of
    `score_information` at the last accepted Newton iterate, the optimum.
    `fit_seconds` times the Newton iterations, from the start's
    log-likelihood to the optimum's information, not the warm start or the
    inversion. `loglik_trace` holds the log-likelihood at the start, then at
    each accepted iterate; `iterations` counts those steps, so it is
    ``len(loglik_trace) - 1``. `evaluations` counts the log-likelihood
    evaluations, the start's and each line-search trial's; the score and
    information are evaluated at the start and at each trial that rises,
    which is accepted unless they are not finite there. `score_max` is the
    largest |score| at the optimum scaled by max(1, |loglik|), which the
    convergence test reads where no step rises.
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
            "beta log-likelihood is undefined at 0/1 responses; boundary rows: "
            + ", ".join(str(int(i)) for i in boundary[:10]),
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


def score_information(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
                      family: str = "sltb", s: float = DEFAULT_S,
                      l: float = DEFAULT_L,
                      logs: Optional[Tuple[np.ndarray, np.ndarray]] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient in theta of `loglik_sltb` (family "sltb") or `loglik_beta`,
    and the observed information, minus its Hessian: the one place the
    score formula lives.

    Per row, the log-likelihood f has the shape partials
    f_a = psi(a+b) - psi(a) + ln x - L_a and f_b = psi(a+b) - psi(b) +
    ln(1-x) - L_b, and f_aa = psi'(a+b) - psi'(a) - L_aa, f_ab = psi'(a+b)
    - L_ab and f_bb = psi'(a+b) - psi'(b) - L_bb (Ferrari & Cribari-Neto
    2004), where x is the beta argument (y for the beta family, whose Z is
    1) and the partials of L = ln Z come from `sltb_log_normalizer_partials`,
    which sums the same DLMF 8.17.8 tail series as the density's normalizer
    and differentiates it in the same pass. Through a = mu*phi,
    b = (1-mu)*phi, mu = expit(X beta) and phi = exp(eta), with
    w = a(1-mu) = da/d(X beta), the score is X^T [w (f_a - f_b)] and
    sum(a f_a + b f_b), and the Hessian has, per row,
      w^2 (f_aa - 2 f_ab + f_bb) + (1 - 2 mu) w (f_a - f_b) in (beta, beta),
      w (f_a - f_b) + w (a f_aa + (b - a) f_ab - b f_bb) in (beta, eta) and
      a f_a + b f_b + a^2 f_aa + 2 a b f_ab + b^2 f_bb in (eta, eta),
    in which psi'(a+b) cancels from the first two and comes to phi^2
    psi'(phi) in the third. psi and psi' are evaluated once on the stacked
    shapes and shared with the normalizer's partials. No domain checking:
    the caller evaluates `loglik_*` at theta first, which checks the
    response, and asks for derivatives only where that is finite. Rows
    whose tail series needs more terms than its cap make them NaN. `logs`
    is as in `loglik_sltb`.
    """
    beta, eta = _theta_parts(theta, X)
    mu = expit(_linear_predictor(beta, X))
    phi = math.exp(eta)
    p = np.array((mu * phi, (1.0 - mu) * phi))  # the shapes (a, b)
    a, b = p
    psi = _sp.digamma(p)
    tri = _sp.zeta(2.0, p)  # psi'(x) = zeta(2, x)
    if family == "beta":
        ln_x, ln_1mx, z = np.log(y), np.log1p(-y), (0.0,) * 5
    else:
        ln_x, ln_1mx = log_x_pair(y, s, l)[2:] if logs is None else logs
        z = sltb_log_normalizer_partials(mu, phi, s, l, (psi, tri))
    psi_phi = _sp.digamma(phi)
    d_a = psi_phi - psi[0] + ln_x - z[0]
    d_b = psi_phi - psi[1] + ln_1mx - z[1]
    w = a * (1.0 - mu)
    d_lp, d_eta = w * (d_a - d_b), a * d_a + b * d_b
    grad = np.append(X.T @ d_lp, np.sum(d_eta))
    # the shape second partials less psi'(phi), which cancels or is added back
    d_aa, d_ab, d_bb = -tri[0] - z[2], -z[3], -tri[1] - z[4]
    h_lp = w * w * (d_aa - 2.0 * d_ab + d_bb) + (1.0 - 2.0 * mu) * d_lp
    h_mixed = d_lp + w * (a * d_aa + (b - a) * d_ab - b * d_bb)
    h_eta = (d_eta + a * a * d_aa + 2.0 * a * b * d_ab + b * b * d_bb
             + phi * phi * _sp.zeta(2.0, phi))
    info = np.empty((grad.size, grad.size))
    info[:-1, :-1] = -(X.T * h_lp) @ X
    info[-1, :-1] = info[:-1, -1] = -(X.T @ h_mixed)
    info[-1, -1] = -np.sum(h_eta)
    return grad, info


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def warm_start(X: np.ndarray, y: np.ndarray, l: float) -> np.ndarray:
    """Least squares on the logit of the clipped response, then eta = ln 10."""
    clamped = np.clip(y, max(l, 1e-12), 1.0 - max(l, 1e-12))
    beta0, *_ = np.linalg.lstsq(X, logit(clamped), rcond=None)
    return np.append(beta0, np.log(10.0))


def _loadings(v: np.ndarray, names: Sequence[str]) -> str:
    """The entries of the unit vector v of at least 0.1, by name."""
    return ", ".join(f"{nm} {c:+.2f}" for nm, c in zip(names, v) if abs(c) >= 0.1)


def fit_mle(spec: RegressionSpec, data: TabularDataset, family: str = "sltb",
            s: float = DEFAULT_S, l: float = DEFAULT_L) -> FitResult:
    """Maximize the log-likelihood by Newton steps on the observed
    information of `score_information`.

    The start is `warm_start` on the response squeezed to
    (y(n-1) + 1/2)/n (Smithson & Verkuilen 2006), so that rows at exact 0
    or 1 do not pull the least-squares line to the clipping limits. The
    information is scaled to a unit diagonal, D^-1/2 I D^-1/2 with
    D = |diag I|, so that no test below depends on the covariates' units.
    Each step solves it, its eigenvalues taken in absolute value where it
    is indefinite, against the score, and is halved until the
    log-likelihood strictly rises. The fit has converged when the Newton
    decrement g' I^-1 g, twice the gain the step predicts, is within
    1e-14 max(1, |loglik|) of zero, or, where no halving of the step that
    predicts more rises (the log-likelihood's rounding), when the largest
    |score| scaled by max(1, |loglik|) is below 1e-4. Otherwise, or after
    100 steps, it raises ConvergenceError.
    It raises NumericalError where the log-likelihood still rises along a
    direction whose scaled curvature is below 1e-5 of the largest, which
    carries most of the decrement: there the data nearly separate, and the
    maximum lies far out along that direction or at infinity. It also
    raises NumericalError where the scaled information at the end is not
    positive definite or its condition number passes 1e12.

    Wald machinery: vcov inverts the observed information at the last
    accepted iterate; z = estimate/se, p two-sided normal.
    """
    if family not in ("beta", "sltb"):
        raise ValidationError(f"unknown family '{family}', expected sltb or beta")
    check_scale_location(s, l)
    X, names = build_design(spec, data)
    y = response_vector(spec, data)
    if family == "beta":
        logs = None

        def ll(theta):  # refuses a response at 0 or 1 at the start
            return loglik_beta(theta, X, y)
    else:
        # y is fixed for the fit and response_vector has checked it
        check_boundary_window(y, s, l)
        logs = log_x_pair(y, s, l)[2:]

        def ll(theta):
            return loglik_sltb(theta, X, y, s, l, logs)

    labels = names + ("log_phi",)
    n = y.size
    theta = warm_start(X, (y * (n - 1) + 0.5) / n, l)
    t0 = time.perf_counter()
    trace = [ll(theta)]
    evaluations = 1
    if math.isfinite(trace[0]):
        grad, info = score_information(theta, X, y, family, s, l, logs)
    if not (math.isfinite(trace[0]) and np.isfinite(info).all()):
        raise ConvergenceError(
            "no finite log-likelihood and information at the start",
            best_point=theta, best_value=trace[0])
    for _ in range(_MAX_NEWTON_STEPS):
        value = trace[-1]
        diag = np.abs(np.diag(info))
        scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        lam, vec = np.linalg.eigh(info * scale * scale[:, None])
        weights, along = np.abs(lam), vec.T @ (scale * grad)
        with np.errstate(divide="ignore", invalid="ignore"):
            parts = along / weights
        decrement = float(along @ parts)
        resolution = 1e-14 * max(1.0, abs(value))
        if decrement <= resolution:
            break
        i = int(np.argmin(weights))
        if weights[i] <= 1e-5 * weights.max() and not (
                along[i] * parts[i] < 0.5 * decrement):
            raise NumericalError(
                f"the log-likelihood still rises along a direction of "
                f"near-zero curvature ({lam[i]:.3g}, the largest "
                f"{weights.max():.3g}) after {len(trace) - 1} iterations: the "
                f"data nearly separate along "
                f"{_loadings(vec[:, i] if along[i] > 0 else -vec[:, i], labels)}")
        step, t = scale * (vec @ parts), 1.0
        while t * decrement > resolution:
            candidate = theta + t * step
            evaluations += 1
            new = ll(candidate)
            if new > value:
                new_grad, new_info = score_information(
                    candidate, X, y, family, s, l, logs)
                if np.isfinite(new_info).all():
                    break
            t *= 0.5
        else:
            break  # no strict ascent: the convergence test below decides
        theta, grad, info = candidate, new_grad, new_info
        trace.append(new)
    else:
        raise ConvergenceError(
            f"optimizer failed to converge in {_MAX_NEWTON_STEPS} Newton steps",
            best_point=theta, best_value=trace[-1])
    elapsed = time.perf_counter() - t0

    best = trace[-1]
    score_max = float(np.max(np.abs(grad))) / max(1.0, abs(best))
    if not (decrement <= resolution or score_max < 1e-4):
        raise ConvergenceError(
            f"optimizer failed to converge after {len(trace) - 1} iterations "
            f"(scaled score max {score_max:.3e})", best_point=theta, best_value=best)
    cond = float(weights.max() / weights.min())
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(
            f"observed information is numerically singular "
            f"(scaled condition number {cond:.3e})")
    if lam[0] <= 0.0:
        raise NumericalError(
            f"observed information is not positive definite: curvature "
            f"{lam[0]:.3e} along {_loadings(vec[:, 0], labels)}")
    vcov = (scale[:, None] * vec / lam) @ (scale[:, None] * vec).T
    se = np.sqrt(np.diag(vcov))
    z = theta / se
    pvals = 2.0 * (1.0 - ndtr(np.abs(z)))

    return FitResult(
        family=family,
        coef_names=names,
        coefficients=theta[:-1].copy(),
        log_precision=float(theta[-1]),
        loglik=best,
        vcov=vcov,
        se=se,
        z=z,
        p=np.clip(pvals, 0.0, 1.0),
        converged=True,
        iterations=len(trace) - 1,
        s=float(s),
        l=float(l),
        fit_seconds=float(elapsed),
        loglik_trace=tuple(float(v) for v in trace),
        evaluations=evaluations,
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
