"""Hierarchical random-intercept sampler: likelihood, blocks, chains."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.special import expit

import ks_checks
from sltb import bayes_hier_linear as bhl
from sltb.bayes_hier_linear import (
    HIER_SPEC,
    ChainState,
    HierLinearModel,
    Tuning,
    build_hier_model,
    gen_alcohol_fixture,
    hier_linear_loglik,
    initial_state,
    posterior_predictive_mse,
    run_chain,
)
from sltb.distributions import (
    DEFAULT_L,
    DEFAULT_S,
    SltbParams,
    sltb_logpdf,
    sltb_logpdf_arrays,
)
from sltb.errors import NumericalError, ValidationError
from sltb.kernel import Rng


def tiny_model(n_rows=30, n_groups=3, k=2, seed=7):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n_rows), rng.normal(size=n_rows)])[:, :k]
    gi = np.arange(n_rows) % n_groups
    return HierLinearModel(
        X=X, coef_names=tuple(f"b{i}" for i in range(k)),
        group_index=gi, n_groups=n_groups,
        group_labels=tuple(f"g{i}" for i in range(n_groups)))


def tiny_y(model, seed=8):
    rng = np.random.default_rng(seed)
    return np.clip(rng.uniform(0.05, 0.95, model.n_rows), 0.0, 1.0)


@pytest.fixture(scope="module")
def small_fixture():
    return gen_alcohol_fixture(n_counties=12, rows=320, seed=424242)


# ------------------------------------------------------------- validation

def test_model_validation():
    with pytest.raises(ValidationError):
        HierLinearModel(X=np.ones((4, 1)), coef_names=("a", "b"),
                        group_index=np.zeros(4, dtype=int), n_groups=1,
                        group_labels=("g",))
    with pytest.raises(ValidationError):
        # group 1 never appears
        HierLinearModel(X=np.ones((3, 1)), coef_names=("a",),
                        group_index=np.array([0, 0, 2]), n_groups=3,
                        group_labels=("g0", "g1", "g2"))
    with pytest.raises(ValidationError):
        HierLinearModel(X=np.ones((2, 1)), coef_names=("a",),
                        group_index=np.zeros(2, dtype=int), n_groups=1,
                        group_labels=("g",), prior_variance=0.0)


def test_state_validation():
    with pytest.raises(ValidationError):
        ChainState(beta=np.array([np.nan]), u=np.zeros(1), eta=0.0, sigma2=1.0)
    with pytest.raises(ValidationError):
        ChainState(beta=np.zeros(1), u=np.zeros(1), eta=0.0, sigma2=0.0)


def test_tuning_validation():
    with pytest.raises(ValidationError):
        Tuning(beta_scales=np.array([-0.1]), eta_scale=0.1,
               u_scales=np.zeros(0), sigma_scale=0.1)
    model = tiny_model()
    t = Tuning.default(model)
    assert t.beta_scales.shape == (model.n_coefs,)
    assert t.u_scales.shape == (model.n_groups,)


# ------------------------------------------------------------- likelihood

def test_loglik_uniform_case():
    """mu = 1/2 with both beta shapes at 1 makes the density flat (~0 total)."""
    model = tiny_model(n_rows=6, k=1)
    state = ChainState(beta=np.zeros(1), u=np.zeros(3), eta=np.log(2.0),
                       sigma2=1.0)
    ll = hier_linear_loglik(state, model, tiny_y(model))
    assert ll == pytest.approx(0.0, abs=1e-6)


def test_loglik_matches_rowwise_sum():
    model = tiny_model(n_rows=25)
    y = tiny_y(model)
    state = ChainState(beta=np.array([0.3, -0.6]), u=np.array([0.2, -0.1, 0.4]),
                       eta=1.7, sigma2=0.8)
    lp = model.X @ state.beta + state.u[model.group_index]
    mu = 1.0 / (1.0 + np.exp(-lp))
    phi = float(np.exp(state.eta))
    manual = sum(
        sltb_logpdf(SltbParams(float(m), phi, DEFAULT_S, DEFAULT_L), float(g))
        for m, g in zip(mu, y))
    assert hier_linear_loglik(state, model, y) == pytest.approx(manual, abs=1e-12)


def test_loglik_finite_with_boundary_zeros():
    # rounding collapses the smallest draws onto exact zeros
    fx = gen_alcohol_fixture(n_counties=12, rows=320, seed=424242,
                             rounding_decimals=3)
    model, y = build_hier_model(fx.data)
    assert (y == 0.0).sum() > 0
    state = initial_state(model, y)
    assert np.isfinite(hier_linear_loglik(state, model, y))


def test_loglik_shape_mismatch():
    model = tiny_model()
    state = initial_state(model, tiny_y(model))
    with pytest.raises(ValidationError):
        hier_linear_loglik(state, model, np.zeros(model.n_rows + 1))


# ----------------------------------------------------------------- blocks

def test_degenerate_scales_accept_and_hold():
    model = tiny_model()
    y = tiny_y(model)
    state = initial_state(model, y)
    frozen = Tuning(beta_scales=np.zeros(model.n_coefs), eta_scale=0.0,
                    u_scales=np.zeros(model.n_groups), sigma_scale=0.0)
    res = run_chain(model, y, iters=100, burnin=0, thin=1, seed=5,
                    tuning=frozen)
    start = np.concatenate([state.beta, [state.eta, state.sigma2], state.u])
    assert res.draws.shape == (100, start.size)
    assert np.all(res.draws == start)
    # every proposal accepted
    assert set(res.summary.acceptance_rates.values()) == {1.0}


def test_run_chain_counts_every_block():
    model = tiny_model()
    y = tiny_y(model)
    res = run_chain(model, y, iters=50, burnin=10, thin=1, seed=6)
    rates = res.summary.acceptance_rates
    assert tuple(rates) == ("b0", "b1", "eta", "u_g0", "u_g1", "u_g2", "sigma")
    # one proposal per block in each of the 40 kept sweeps
    assert all(np.isfinite(r) and float(r * 40).is_integer()
               for r in rates.values())


def test_sigma_stays_inside_prior_support():
    model = tiny_model()
    y = tiny_y(model)
    wild = Tuning(beta_scales=np.full(model.n_coefs, 0.3), eta_scale=0.2,
                  u_scales=np.full(model.n_groups, 0.5), sigma_scale=5.0)
    res = run_chain(model, y, iters=300, burnin=0, thin=1, seed=7,
                    tuning=wild)
    sigma = np.sqrt(res.draws[:, res.columns.index("sigma2")])
    assert np.all((sigma > 0.0) & (sigma < model.sigma_upper))
    assert len(set(sigma)) > 1  # the walk moved


def test_chain_starts_inside_a_small_sigma_upper():
    # sigma = 1, the usual start, is outside Uniform(0, 0.5)
    model = dataclasses.replace(tiny_model(), sigma_upper=0.5)
    assert initial_state(model, tiny_y(model)).sigma2 == 0.25 ** 2
    res = run_chain(model, tiny_y(model), iters=300, burnin=100, thin=1, seed=3)
    sigma2 = res.draws[:, res.columns.index("sigma2")]
    assert np.all(sigma2 < 0.25)
    assert len(set(sigma2)) > 1  # the walk moved


# ----------------------------------------------------------------- chains

def test_chain_determinism(small_fixture):
    model, y = build_hier_model(small_fixture.data)
    a = run_chain(model, y, iters=250, burnin=150, thin=2, seed=99)
    b = run_chain(model, y, iters=250, burnin=150, thin=2, seed=99)
    assert np.array_equal(a.draws, b.draws)
    assert a.summary.acceptance_rates == b.summary.acceptance_rates
    c = run_chain(model, y, iters=250, burnin=150, thin=2, seed=100)
    assert not np.array_equal(a.draws, c.draws)


def test_quartiles_ordered(small_fixture):
    model, y = build_hier_model(small_fixture.data)
    res = run_chain(model, y, iters=300, burnin=200, thin=1, seed=3)
    s = res.summary
    assert np.all(s.q1 <= s.median) and np.all(s.median <= s.q3)
    assert np.all(s.q025 <= s.q1) and np.all(s.q3 <= s.q975)
    assert s.n_draws == 100
    assert res.draws.shape == (100, len(res.columns))


def test_no_adaptation_after_burnin():
    model = tiny_model()
    y = tiny_y(model)
    start = Tuning.default(model)
    res = run_chain(model, y, iters=600, burnin=0, thin=5, seed=11,
                    tuning=start)
    assert np.array_equal(res.tuning.beta_scales, start.beta_scales)
    assert res.tuning.sigma_scale == start.sigma_scale
    adapted = run_chain(model, y, iters=600, burnin=400, thin=5, seed=11,
                        tuning=start)
    moved = (not np.allclose(adapted.tuning.beta_scales, start.beta_scales)
             or adapted.tuning.eta_scale != start.eta_scale
             or not np.allclose(adapted.tuning.u_scales, start.u_scales)
             or adapted.tuning.sigma_scale != start.sigma_scale)
    assert moved


def test_extreme_scales_flagged():
    model = tiny_model()
    y = tiny_y(model)
    bad = Tuning(beta_scales=np.full(model.n_coefs, 1e6), eta_scale=1e6,
                 u_scales=np.full(model.n_groups, 1e6), sigma_scale=0.0)
    res = run_chain(model, y, iters=300, burnin=0, thin=1, seed=2, tuning=bad)
    assert res.summary.warnings
    assert any("b0" in w for w in res.summary.warnings)


def test_chain_validation():
    model = tiny_model()
    y = tiny_y(model)
    with pytest.raises(ValidationError):
        run_chain(model, y, iters=100, burnin=100)
    with pytest.raises(ValidationError):
        run_chain(model, y, iters=100, burnin=10, thin=0)
    with pytest.raises(ValidationError):
        run_chain(model, np.append(y, 0.5), iters=100, burnin=10)


def test_chain_refuses_a_bad_init():
    model = tiny_model()
    y = tiny_y(model)
    start = initial_state(model, y)
    bad = (ChainState(beta=start.beta, u=start.u, eta=start.eta,
                      sigma2=30.0 ** 2),  # sigma above sigma_upper = 20
           ChainState(beta=np.zeros(3), u=start.u, eta=start.eta,
                      sigma2=start.sigma2),
           ChainState(beta=start.beta, u=np.zeros(2), eta=start.eta,
                      sigma2=start.sigma2))
    for init in bad:
        with pytest.raises(ValidationError):
            run_chain(model, y, iters=20, burnin=10, init=init)


def test_chain_draws_are_pinned():
    # digest of the draws as first recorded, on python 3.11.7, numpy 2.4.6
    # and scipy 1.17.1; a refactor of the chain must keep every bit
    res = run_chain(*build_hier_model(gen_alcohol_fixture().data), iters=300,
                    burnin=200, thin=1, seed=1)
    digest = hashlib.sha256(np.ascontiguousarray(res.draws).tobytes())
    assert digest.hexdigest()[:16] == "9eb8543114960fc6"


# ------------------------------------------- incremental sweep vs oracle
# The oracle is the full-recompute sweep: every proposal re-evaluates the
# density on every row, from the response itself, and accepting group
# intercepts recomputes every row once more. The package's sweep must draw
# exactly what it draws.

def _oracle_rows(lp, eta, y, s, l):
    if y.size == 0:
        return np.zeros(0)
    out = np.full(y.shape, -np.inf)
    if abs(eta) > bhl.ETA_LIMIT:
        return out
    mu = expit(lp)
    ok = (mu > 0.0) & (mu < 1.0)
    if ok.all():
        return sltb_logpdf_arrays(mu, np.exp(eta), s, l, y)
    if ok.any():
        out[ok] = sltb_logpdf_arrays(mu[ok], np.exp(eta), s, l, y[ok])
    return out


class _OracleWork:
    def __init__(self, state, model, y):
        self.beta = state.beta.copy()
        self.u = state.u.copy()
        self.eta = float(state.eta)
        self.sigma2 = float(state.sigma2)
        self.lp = model.X @ self.beta + (
            self.u[model.group_index] if model.n_rows else np.zeros(0))
        self.rows = _oracle_rows(self.lp, self.eta, y, model.s, model.l)
        self.ll = float(self.rows.sum()) if y.size else 0.0


def _oracle_sweep(w, model, y, rng, tuning):
    k, m = model.n_coefs, model.n_groups
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
            rows_new = _oracle_rows(lp_new, w.eta, y, s, l)
            ll_new = float(rows_new.sum()) if y.size else 0.0
            delta = (ll_new - w.ll) + (bj * bj - bj_new * bj_new) / (2.0 * vp)
            if lu[j] < delta:
                acc[j] = 1
                w.beta[j] = bj_new
                w.lp, w.rows, w.ll = lp_new, rows_new, ll_new
    eta_new = w.eta + float(rng.normal(0.0, 1.0)) * tuning.eta_scale
    rows_new = _oracle_rows(w.lp, eta_new, y, s, l)
    ll_new = float(rows_new.sum()) if y.size else 0.0
    delta = (ll_new - w.ll) + (w.eta ** 2 - eta_new ** 2) / (2.0 * vp)
    if np.log(float(rng.uniform())) < delta:
        acc[k] = 1
        w.eta, w.rows, w.ll = eta_new, rows_new, ll_new
    if m:
        z = np.asarray(rng.normal(0.0, 1.0, m)) * tuning.u_scales
        u_new = w.u + z
        prior_delta = (w.u ** 2 - u_new ** 2) / (2.0 * w.sigma2)
        if y.size:
            rows_new = _oracle_rows(w.lp + z[gi], w.eta, y, s, l)
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
                w.lp = w.lp + np.where(accept[gi], z[gi], 0.0)
                w.rows = _oracle_rows(w.lp, w.eta, y, s, l)
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


def _edge_case():
    """All-zero column, a column non-zero on three rows, a 0/1 dummy and a
    slope; responses with exact 0s and 1s. The three-row column's scale
    is wide enough that proposals push its rows' mu onto 0 or 1, and the
    walk starts there."""
    rs = np.random.default_rng(21)
    n, m = 60, 5
    X = np.column_stack([np.ones(n), np.zeros(n), np.zeros(n),
                         (np.arange(n) % 2).astype(float), rs.normal(size=n)])
    X[[3, 17, 42], 2] = [1.0, 1.0, 0.5]
    y = rs.uniform(0.05, 0.95, n)
    y[[0, 5, 9]] = 0.0
    y[[2, 11]] = 1.0
    model = HierLinearModel(
        X=X, coef_names=("b0", "zero", "few", "dummy", "slope"),
        group_index=np.arange(n) % m, n_groups=m,
        group_labels=tuple(f"g{i}" for i in range(m)))
    tuning = Tuning.default(model)
    tuning.beta_scales[2] = 30.0
    start = initial_state(model, y)
    beta = start.beta.copy()
    beta[2] = 40.0  # rows 3 and 17 at mu == 1
    saturated = ChainState(beta=beta, u=start.u, eta=start.eta,
                           sigma2=start.sigma2)
    return model, y, tuning, saturated


def _oracle_case(name):
    if name == "edge":
        return _edge_case()
    fx = gen_alcohol_fixture(rounding_decimals=3 if name == "rounded" else None)
    model, y = build_hier_model(fx.data)
    return model, y, Tuning.default(model), initial_state(model, y)


def _both(monkeypatch, run):
    new = run()
    with monkeypatch.context() as mp:
        mp.setattr(bhl, "_Work", _OracleWork)
        mp.setattr(bhl, "_sweep", _oracle_sweep)
        old = run()
    return new, old


@pytest.mark.parametrize("case", ["default", "rounded", "edge"])
def test_incremental_sweep_is_the_full_recompute(case, monkeypatch):
    model, y, tuning, start = _oracle_case(case)
    if case == "rounded":
        assert (y == 0.0).sum() > 100
    new, old = _both(monkeypatch, lambda: run_chain(
        model, y, iters=300, burnin=200, thin=1, seed=1, tuning=tuning))
    assert np.array_equal(new.draws, old.draws)
    assert new.summary.acceptance_rates == old.summary.acceptance_rates
    for part in ("beta_scales", "eta_scale", "u_scales", "sigma_scale"):
        assert np.array_equal(getattr(new.tuning, part),
                              getattr(old.tuning, part))

    # a walk of bare sweeps: run_chain refuses the edge case's start,
    # whose log-likelihood is -inf
    def walk():
        rng, w, path = Rng(2), bhl._Work(start, model, y), []
        for _ in range(50):
            acc = bhl._sweep(w, model, y, rng, tuning)
            path.append(np.concatenate([w.beta, w.u, [w.eta, w.sigma2], acc]))
        return np.array(path)

    new_path, old_path = _both(monkeypatch, walk)
    assert np.array_equal(new_path, old_path)
    if case == "edge":
        # the walk starts with some mu at exactly 1, leaves that start,
        # and keeps moving the three-row coefficient
        assert (expit(model.X @ start.beta) == 1.0).any()
        with pytest.raises(NumericalError):
            run_chain(model, y, iters=50, burnin=0, init=start)
        assert len(set(new_path[:, 2])) > 3
        assert np.isfinite(hier_linear_loglik(
            ChainState(beta=new_path[-1, :5], u=new_path[-1, 5:10],
                       eta=new_path[-1, 10], sigma2=new_path[-1, 11]),
            model, y))


# ---------------------------------------------------------------- fixture

def test_fixture_structure():
    fx = gen_alcohol_fixture()
    y = fx.data.numeric("y")
    assert fx.data.n_rows == 1340
    assert len(set(fx.data.factor("county"))) == 56
    # default draws come straight from the fitted law: strictly interior
    assert np.all((y > 0.0) & (y < 1.0))
    med = fx.data.numeric("medDays")
    assert abs(med.mean()) < 1e-12
    assert abs(med.std(ddof=1) - 1.0) < 1e-12
    again = gen_alcohol_fixture()
    assert np.array_equal(y, again.data.numeric("y"))
    other = gen_alcohol_fixture(seed=1)
    assert not np.array_equal(y, other.data.numeric("y"))


def test_fixture_rounding_collapses_small_draws_to_zero():
    fx = gen_alcohol_fixture(rounding_decimals=3)
    y = fx.data.numeric("y")
    assert (y == 0.0).sum() >= 20
    assert (y == 1.0).sum() == 0
    assert y.min() == 0.0 and y.max() < 1.0
    # rounding to tens would set every response to 0
    with pytest.raises(ValidationError,
                       match=r"rounding_decimals must be >= 0 or None"):
        gen_alcohol_fixture(n_counties=4, rows=40, rounding_decimals=-1)


def test_build_hier_model(small_fixture):
    model, y = build_hier_model(small_fixture.data)
    assert model.coef_names[0] == "(Intercept)"
    assert set(model.coef_names) == {
        "(Intercept)", "medDays", "genderM", "grade9", "grade11",
        "grade9:genderM", "grade11:genderM"}
    assert model.n_groups == 12
    assert y.shape == (model.n_rows,)
    assert HIER_SPEC.response == "y"


def test_recovery_and_predictive_mse(small_fixture):
    """Moderate chain on a small fixture recovers most generator effects."""
    model, y = build_hier_model(small_fixture.data)
    res = run_chain(model, y, iters=4000, burnin=1500, thin=5, seed=12)
    s = res.summary
    hits = 0
    for name in model.coef_names:
        row = s.row(name)
        truth = small_fixture.beta[name]
        hits += row["q025"] <= truth <= row["q975"]
    assert hits >= 5
    ppm = posterior_predictive_mse(res, model, y)
    assert 0.0 < ppm < np.var(y)  # beats the trivial flat predictor


# -------------------------------------------------------------- KS checks

def test_prior_only_intercept_ks():
    r = ks_checks.hier_beta0_prior_ks()
    assert r.pvalue > ks_checks.KS_LEVEL


def test_pinned_sigma_u_prior_ks():
    r = ks_checks.hier_u_prior_ks()
    assert r.pvalue > ks_checks.KS_LEVEL


def test_sigma_uniform_prior_ks():
    r = ks_checks.hier_sigma_prior_ks()
    assert r.pvalue > ks_checks.KS_LEVEL
