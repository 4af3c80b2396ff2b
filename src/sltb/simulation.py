"""Monte Carlo study: boundary-containing datasets, fit accuracy, timing.

Each replication draws a two-predictor dataset from a fixed truth, rounds
the response to induce exact boundary values, and (when the dataset
contains at least one response equal to 1) fits the requested methods,
recording in-sample MSE and the wall-clock cost of the optimizer call.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .data import TabularDataset, round_responses
from .errors import SltbError, ValidationError
from .kernel import Rng
from .regression import (
    RegressionSpec,
    build_design,
    fit_mle,
    mse,
    response_vector,
)

STUDY_SPEC = RegressionSpec("y", ("x1", "x2", "x1:x2"))


@dataclass(frozen=True)
class SimConfig:
    n: int
    reps: int
    beta_true: Tuple[float, float, float, float] = (1.2, -0.88, 0.43, -0.52)
    phi_true: float = 10.0
    rounding_decimals: Optional[int] = 2
    base_seed: int = 0

    def __post_init__(self):
        if self.n < 8:
            raise ValidationError(f"n must be at least 8, got {self.n}")
        if self.reps < 1:
            raise ValidationError(f"reps must be at least 1, got {self.reps}")
        if len(tuple(self.beta_true)) != 4:
            raise ValidationError("beta_true needs exactly four coefficients")
        if not self.phi_true > 0:
            raise ValidationError("phi_true must be positive")
        round_responses(np.empty(0), self.rounding_decimals)  # refuses < 0
        object.__setattr__(self, "beta_true", tuple(float(b) for b in self.beta_true))


@dataclass(frozen=True)
class RepRecord:
    rep_index: int
    n_ones: int
    n_zeros: int
    used: bool
    method_mse: Dict[str, Optional[float]]
    method_seconds: Dict[str, Optional[float]]
    method_coefs: Dict[str, Optional[Tuple[float, ...]]]
    method_error: Dict[str, Optional[str]]


@dataclass(frozen=True)
class McStudyReport:
    config: SimConfig
    methods: Tuple[str, ...]
    n_boundary_reps: int
    mean_mse: Dict[str, Optional[float]]
    mean_fit_seconds: Dict[str, Optional[float]]
    fit_counts: Dict[str, int]
    failure_counts: Dict[str, int]
    mean_coef_abs_error: Dict[str, Optional[float]]
    records: Tuple[RepRecord, ...] = field(repr=False)

    def to_dict(self, include_timing: bool = True) -> dict:
        """JSON-ready summary; timing fields can be dropped for
        byte-level determinism comparisons."""
        out = {
            "config": {
                "n": self.config.n,
                "reps": self.config.reps,
                "beta_true": list(self.config.beta_true),
                "phi_true": self.config.phi_true,
                "rounding_decimals": self.config.rounding_decimals,
                "base_seed": self.config.base_seed,
            },
            "methods": list(self.methods),
            "n_boundary_reps": self.n_boundary_reps,
            "mean_mse": dict(self.mean_mse),
            "fit_counts": dict(self.fit_counts),
            "failure_counts": dict(self.failure_counts),
            "mean_coef_abs_error": dict(self.mean_coef_abs_error),
        }
        if include_timing:
            out["mean_fit_seconds"] = dict(self.mean_fit_seconds)
        return out


def gen_dataset(cfg: SimConfig, rep_index: int) -> TabularDataset:
    """One replication's data; the stream is keyed by base_seed + rep_index."""
    rng = Rng(cfg.base_seed + rep_index)
    n = cfg.n
    # two-level factor entered sum-coded, so the slopes read as half-differences
    x1 = np.where(np.asarray(rng.uniform(size=n)) < 0.5, -1.0, 1.0)
    x2_raw = np.asarray(rng.normal(100.0, 15.0, n))
    x2 = (x2_raw - x2_raw.mean()) / x2_raw.std(ddof=1)
    b0, b1, b2, b3 = cfg.beta_true
    mu = expit(b0 + b1 * x1 + b2 * x2 + b3 * x1 * x2)
    y = np.asarray(rng.beta(mu * cfg.phi_true, (1.0 - mu) * cfg.phi_true))
    return TabularDataset({"x1": x1, "x2": x2,
                           "y": round_responses(y, cfg.rounding_decimals)})


def _run_one_rep(cfg: SimConfig, rep_index: int,
                 methods: Tuple[str, ...]) -> RepRecord:
    data = gen_dataset(cfg, rep_index)
    y = response_vector(STUDY_SPEC, data)
    n_ones = int(np.sum(y == 1.0))
    n_zeros = int(np.sum(y == 0.0))
    used = n_ones >= 1
    m_mse: Dict[str, Optional[float]] = {m: None for m in methods}
    m_sec: Dict[str, Optional[float]] = {m: None for m in methods}
    m_coef: Dict[str, Optional[Tuple[float, ...]]] = {m: None for m in methods}
    m_err: Dict[str, Optional[str]] = {m: None for m in methods}
    if used:
        for method in methods:
            if method == "beta" and (n_ones or n_zeros):
                m_err[method] = "inapplicable: boundary responses present"
                continue
            try:
                fit = fit_mle(STUDY_SPEC, data, family=method)
            except SltbError as exc:
                m_err[method] = f"{type(exc).__name__}: {exc}"
                continue
            m_mse[method] = mse(fit, STUDY_SPEC, data)
            m_sec[method] = fit.fit_seconds
            m_coef[method] = tuple(float(c) for c in fit.coefficients)
    return RepRecord(rep_index, n_ones, n_zeros, used,
                     m_mse, m_sec, m_coef, m_err)


def run_study(cfg: SimConfig, methods: Sequence[str] = ("sltb",),
              threads: int = 1) -> McStudyReport:
    methods = tuple(methods)
    for m in methods:
        if m not in ("sltb", "beta"):
            raise ValidationError(f"unknown method '{m}'")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    cpus = os.cpu_count() or 1
    if threads > cpus:
        raise ValidationError(
            f"threads must be at most the CPU count ({cpus}), got {threads}")

    if threads == 1:
        records = [_run_one_rep(cfg, r, methods) for r in range(cfg.reps)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_run_one_rep, [cfg] * cfg.reps,
                                    range(cfg.reps), [methods] * cfg.reps,
                                    chunksize=max(1, cfg.reps // (4 * threads))))

    n_boundary = sum(1 for r in records if r.used)
    truth = np.asarray(cfg.beta_true)
    mean_mse: Dict[str, Optional[float]] = {}
    mean_sec: Dict[str, Optional[float]] = {}
    fit_counts: Dict[str, int] = {}
    failures: Dict[str, int] = {}
    coef_err: Dict[str, Optional[float]] = {}
    for m in methods:
        mses = [r.method_mse[m] for r in records if r.method_mse[m] is not None]
        secs = [r.method_seconds[m] for r in records
                if r.method_seconds[m] is not None]
        coefs = [r.method_coefs[m] for r in records
                 if r.method_coefs[m] is not None]
        fit_counts[m] = len(mses)
        failures[m] = sum(1 for r in records if r.used and r.method_error[m])
        mean_mse[m] = float(np.mean(mses)) if mses else None
        mean_sec[m] = float(np.mean(secs)) if secs else None
        coef_err[m] = (
            float(np.mean([np.mean(np.abs(np.asarray(c) - truth)) for c in coefs]))
            if coefs else None)
    return McStudyReport(
        config=cfg, methods=methods, n_boundary_reps=n_boundary,
        mean_mse=mean_mse, mean_fit_seconds=mean_sec, fit_counts=fit_counts,
        failure_counts=failures, mean_coef_abs_error=coef_err,
        records=tuple(records))


def records_table(report: McStudyReport) -> Tuple[List[str], List[list]]:
    """Flatten per-replication records for CSV export (timing included)."""
    header = ["rep_index", "n_ones", "n_zeros", "used"]
    for m in report.methods:
        header += [f"{m}_mse", f"{m}_seconds", f"{m}_error"]
        header += [f"{m}_coef{k}" for k in range(4)]
    rows = []
    for r in report.records:
        row: list = [r.rep_index, r.n_ones, r.n_zeros, int(r.used)]
        for m in report.methods:
            coefs = r.method_coefs[m]
            row += [r.method_mse[m], r.method_seconds[m], r.method_error[m]]
            row += list(coefs) if coefs else [None] * 4
        rows.append(row)
    return header, rows
