"""Monte Carlo study module: generation, filtering, aggregation, threading."""

import concurrent.futures
import json
import os

import numpy as np
import pytest

from sltb.data import TabularDataset
from sltb.errors import ValidationError
from sltb.simulation import (
    STUDY_SPEC,
    McStudyReport,
    SimConfig,
    gen_dataset,
    records_table,
    run_study,
)


def small_cfg(**kw):
    base = dict(n=20, reps=12, base_seed=90210)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(n=7, reps=5)
    with pytest.raises(ValidationError):
        SimConfig(n=20, reps=0)
    with pytest.raises(ValidationError):
        SimConfig(n=20, reps=5, beta_true=(1.0, 2.0))
    with pytest.raises(ValidationError):
        SimConfig(n=20, reps=5, phi_true=0.0)
    with pytest.raises(ValidationError):
        SimConfig(n=20, reps=5, rounding_decimals=-1)


def test_config_accepts_none_rounding():
    cfg = SimConfig(n=20, reps=1, rounding_decimals=None)
    assert cfg.rounding_decimals is None


# ------------------------------------------------------------ generation

def test_gen_dataset_deterministic_per_rep():
    cfg = small_cfg()
    a = gen_dataset(cfg, 3)
    b = gen_dataset(cfg, 3)
    c = gen_dataset(cfg, 4)
    for col in ("x1", "x2", "y"):
        assert np.array_equal(a.numeric(col), b.numeric(col))
    assert not np.array_equal(a.numeric("y"), c.numeric("y"))


def test_gen_dataset_columns():
    cfg = small_cfg(n=500, reps=1)
    data = gen_dataset(cfg, 0)
    assert data.n_rows == 500
    x1 = data.numeric("x1")
    x2 = data.numeric("x2")
    y = data.numeric("y")
    assert set(np.unique(x1)) == {-1.0, 1.0}
    # standardized in-sample, so these are identities up to roundoff
    assert abs(x2.mean()) < 1e-12
    assert abs(x2.std(ddof=1) - 1.0) < 1e-12
    assert np.all((y >= 0.0) & (y <= 1.0))


def test_gen_dataset_rounding_grid():
    cfg = small_cfg(n=200, reps=1, rounding_decimals=2)
    y = gen_dataset(cfg, 0).numeric("y")
    assert np.allclose(y * 100, np.round(y * 100))


def test_gen_dataset_unrounded_stays_interior():
    cfg = small_cfg(n=2000, reps=1, rounding_decimals=None)
    for rep in range(5):
        y = gen_dataset(cfg, rep).numeric("y")
        assert np.all((y > 0.0) & (y < 1.0))


def test_gen_dataset_seed_offset_matches_base():
    # rep r under base_seed b must equal rep 0 under base_seed b + r
    a = gen_dataset(small_cfg(base_seed=50), 7)
    b = gen_dataset(small_cfg(base_seed=57), 0)
    assert np.array_equal(a.numeric("y"), b.numeric("y"))


# --------------------------------------------------------------- studies

def test_counted_reps_contain_ones():
    report = run_study(small_cfg(reps=30))
    assert report.n_boundary_reps == sum(r.used for r in report.records)
    for rec in report.records:
        assert rec.used == (rec.n_ones >= 1)
        if rec.used and rec.method_error["sltb"] is None:
            assert rec.method_mse["sltb"] is not None
            assert rec.method_seconds["sltb"] > 0
        if not rec.used:
            assert rec.method_mse["sltb"] is None


def test_beta_method_sits_out_boundary_reps():
    report = run_study(small_cfg(reps=10), methods=("sltb", "beta"))
    assert report.fit_counts["beta"] == 0
    for rec in report.records:
        if rec.used:
            assert "inapplicable" in rec.method_error["beta"]
            assert rec.method_mse["beta"] is None


def test_unrounded_study_counts_nothing():
    report = run_study(small_cfg(reps=6, rounding_decimals=None))
    assert report.n_boundary_reps == 0
    assert report.mean_mse["sltb"] is None
    assert report.fit_counts["sltb"] == 0


def test_run_study_deterministic():
    cfg = small_cfg(reps=8)
    a = run_study(cfg)
    b = run_study(cfg)
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)
    for ra, rb in zip(a.records, b.records):
        assert ra.method_coefs == rb.method_coefs


def test_threads_match_serial():
    cfg = small_cfg(reps=6)
    serial = run_study(cfg, threads=1)
    pooled = run_study(cfg, threads=2)
    assert serial.to_dict(include_timing=False) == pooled.to_dict(include_timing=False)
    assert [r.rep_index for r in pooled.records] == list(range(6))


def test_study_validation():
    with pytest.raises(ValidationError):
        run_study(small_cfg(), methods=("zoib",))
    with pytest.raises(ValidationError):
        run_study(small_cfg(), threads=0)


def test_threads_capped_at_cpu_count(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(ValidationError, match=r"at most the CPU count \(2\), got 3"):
        run_study(small_cfg(), threads=3)


def test_mean_mse_smoke_bracket():
    """Loose sanity corridor; the pinned brackets live in the acceptance suite."""
    report = run_study(small_cfg(reps=40, base_seed=1234))
    assert report.n_boundary_reps >= 15
    assert 0.005 < report.mean_mse["sltb"] < 0.03


def test_coef_error_shrinks_with_n():
    small = run_study(SimConfig(n=20, reps=25, base_seed=5))
    big = run_study(SimConfig(n=400, reps=8, base_seed=5))
    assert big.mean_coef_abs_error["sltb"] < small.mean_coef_abs_error["sltb"]


# --------------------------------------------------------------- exports

def test_to_dict_is_json_ready():
    report = run_study(small_cfg(reps=4))
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["config"]["n"] == 20
    assert "mean_fit_seconds" in parsed
    assert "mean_fit_seconds" not in report.to_dict(include_timing=False)


def test_records_table_layout():
    report = run_study(small_cfg(reps=5), methods=("sltb", "beta"))
    header, rows = records_table(report)
    assert header[:4] == ["rep_index", "n_ones", "n_zeros", "used"]
    assert len(header) == 4 + 7 * 2
    assert len(rows) == 5
    for row in rows:
        assert len(row) == len(header)
        assert row[3] in (0, 1)


def test_study_spec_terms():
    assert STUDY_SPEC.response == "y"
    assert STUDY_SPEC.terms == ("x1", "x2", "x1:x2")
