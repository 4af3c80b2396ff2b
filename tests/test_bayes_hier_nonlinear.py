"""Delay-discounting hierarchy: curve arithmetic, conditional draws,
initialization, and both samplers."""

import hashlib

import numpy as np
import pytest
from scipy import optimize

import ks_checks
from sltb.bayes_hier_nonlinear import (
    _LN_PHI_GRID,
    _PSI_GRID,
    _grid_estimates,
    DEFAULT_DELAYS,
    HYPER,
    DiscountData,
    DiscountTruth,
    HyperPriors,
    discount_data_from_table,
    discount_mean,
    gen_discount_data,
    ig_shape_rate,
    initialize_chain,
    mh_update_lnphi_sltb,
    mh_update_psi_normal,
    mh_update_psi_sltb,
    normal_conditional,
    normal_hier_sample,
    normal_subject_logliks,
    sample_inverse_gamma,
    sltb_hier_sample,
    sltb_subject_logliks,
)
from sltb.data import TabularDataset
from sltb.distributions import (
    DEFAULT_L,
    DEFAULT_S,
    SltbParams,
    sltb_logpdf,
    sltb_logpdf_arrays,
)
from sltb.errors import NumericalError, ValidationError
from sltb.kernel import Rng


def small_data(nsubj=12, seed=11):
    return gen_discount_data(nsubj=nsubj, seed=seed)


# --- value curve ----------------------------------------------------------

def test_no_discounting_when_rate_vanishes():
    # exp(-40) * D is negligible out to very long delays
    for d in (1.0, 1e3, 1e5):
        assert discount_mean(-40.0, d) == pytest.approx(1.0, abs=1e-12)


def test_half_value_at_unit_delay_zero_psi():
    assert discount_mean(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_matches_direct_hyperbola():
    for psi, d in [(-4.87, 365.0), (-2.0, 30.0), (1.5, 7.0)]:
        direct = 1.0 / (1.0 + np.exp(psi) * d)
        assert discount_mean(psi, d) == pytest.approx(direct, rel=1e-12)


def test_value_decreases_in_delay_and_rate():
    d = np.array(DEFAULT_DELAYS)
    v = discount_mean(-4.87, d)
    assert np.all(np.diff(v) < 0)
    psis = np.linspace(-8.0, 0.0, 9)
    v = discount_mean(psis, 30.0)
    assert np.all(np.diff(v) < 0)


def test_rejects_nonpositive_delay():
    with pytest.raises(ValidationError):
        discount_mean(-1.0, 0.0)
    with pytest.raises(ValidationError):
        discount_mean(-1.0, np.array([1.0, -3.0]))


# --- containers -----------------------------------------------------------

def test_hyper_prior_defaults():
    assert (HYPER.mu_psi0, HYPER.lam2_psi0) == (-1.0, 100.0)
    assert (HYPER.a1, HYPER.b1) == (1.0, 0.1)
    assert (HYPER.mu_phi0, HYPER.lam2_phi0) == (1.0, 100.0)
    assert (HYPER.a2, HYPER.b2) == (1.0, 0.1)
    with pytest.raises(ValidationError):
        HyperPriors(b1=0.0)


def test_truth_validation():
    with pytest.raises(ValidationError):
        DiscountTruth(sigma2_psi=0.0)


def test_discount_data_validation():
    ids = ("a", "b")
    with pytest.raises(ValidationError):
        DiscountData(y=np.zeros((2, 3)), delays=(1.0, 2.0), subject_ids=ids)
    with pytest.raises(ValidationError):
        DiscountData(y=np.zeros((2, 2)), delays=(2.0, 1.0), subject_ids=ids)
    with pytest.raises(ValidationError):
        DiscountData(y=np.full((2, 2), 1.5), delays=(1.0, 2.0), subject_ids=ids)
    empty = DiscountData(y=np.zeros((2, 0)), delays=(), subject_ids=ids)
    assert empty.n_delays == 0 and empty.n_subjects == 2


def test_long_table_round_trip():
    samp = small_data(nsubj=5)
    back = discount_data_from_table(samp.data.to_table())
    assert back.delays == samp.data.delays
    assert back.subject_ids == samp.data.subject_ids
    assert np.array_equal(back.y, samp.data.y)


def test_table_requires_complete_grid():
    samp = small_data(nsubj=3)
    table = samp.data.to_table()
    clipped = {name: (table.factor(name)[:-1] if table.is_factor(name)
                      else table.numeric(name)[:-1])
               for name in table.column_names}
    from sltb.data import TabularDataset
    with pytest.raises(ValidationError):
        discount_data_from_table(TabularDataset(clipped))
    with pytest.raises(ValidationError):
        discount_data_from_table(TabularDataset({"subject": ("a",), "y": (0.5,)}))


def test_table_rejects_duplicate_subject_delay():
    table = small_data(nsubj=3).data.to_table()
    dup = TabularDataset({
        "subject": table.factor("subject") + ("s002",),
        "delay": np.append(table.numeric("delay"), 30.0),
        "y": np.append(table.numeric("y"), 0.5)})
    with pytest.raises(ValidationError,
                       match=r"subject 's002' has more than one row at delay 30\.0"):
        discount_data_from_table(dup)


# --- generation -----------------------------------------------------------

def test_gen_shapes_range_and_defaults_stay_interior():
    samp = gen_discount_data(nsubj=100, seed=3)
    y = samp.data.y
    assert y.shape == (100, 6)
    assert samp.data.delays == DEFAULT_DELAYS
    # continuous beta draws never land on the boundary
    assert np.all((y > 0.0) & (y < 1.0))
    assert samp.psi.shape == (100,) and samp.ln_phi.shape == (100,)


def test_gen_deterministic_in_seed():
    a = gen_discount_data(nsubj=20, seed=9)
    b = gen_discount_data(nsubj=20, seed=9)
    c = gen_discount_data(nsubj=20, seed=10)
    assert np.array_equal(a.data.y, b.data.y)
    assert np.array_equal(a.psi, b.psi)
    assert not np.array_equal(a.data.y, c.data.y)


def test_gen_rounding_induces_boundary_ones():
    # short delays with strong discount rates sit near 1; two-decimal
    # rounding collapses them onto it
    samp = gen_discount_data(nsubj=100, seed=3, rounding_decimals=2)
    y = samp.data.y
    assert np.all((y >= 0.0) & (y <= 1.0))
    assert (y == 1.0).any()


def test_gen_validation():
    with pytest.raises(ValidationError):
        gen_discount_data(nsubj=1)
    with pytest.raises(ValidationError):
        gen_discount_data(delays=(1.0, 7.0))
    # rounding to tens would set every response to 0
    with pytest.raises(ValidationError,
                       match=r"rounding_decimals must be >= 0 or None"):
        gen_discount_data(nsubj=5, seed=1, rounding_decimals=-1)


def test_gen_group_mean_concentrates():
    truth = DiscountTruth()
    samp = gen_discount_data(nsubj=10_000, seed=77)
    tol = 4.0 * np.sqrt(truth.sigma2_psi) / 100.0
    assert abs(samp.psi.mean() - truth.mu_psi) < tol
    tol_phi = 4.0 * np.sqrt(truth.sigma2_lnphi) / 100.0
    assert abs(samp.ln_phi.mean() - truth.mu_lnphi) < tol_phi


# --- conditional arithmetic ------------------------------------------------

def test_normal_conditional_near_flat_prior():
    mu_m, lam_m = normal_conditional(values_sum=10.0, n=4, sigma2=1.0,
                                     mu0=0.0, lam2_0=1e6)
    assert lam_m == pytest.approx(1.0 / (4.0 + 1e-6), rel=1e-12)
    assert mu_m == pytest.approx(2.4999994, abs=1e-7)


def test_ig_conditional_arithmetic():
    psis = np.array([1.0, 2.0, 3.0, 4.0])
    shape, rate = ig_shape_rate(4, float(((psis - 2.5) ** 2).sum()), 1.0, 0.1)
    assert (shape, rate) == pytest.approx((2.5, 2.55))
    shape, rate = ig_shape_rate(12, 0.3, 1.0, 0.1)
    assert (shape, rate) == pytest.approx((6.5, 0.2))


def test_inverse_gamma_guards():
    rng = Rng(0)
    assert sample_inverse_gamma(rng, 2.5, 2.55) > 0.0
    with pytest.raises(NumericalError):
        sample_inverse_gamma(rng, 2.5, 0.0)
    with pytest.raises(NumericalError):
        sample_inverse_gamma(rng, -1.0, 2.0)


# --- subject likelihoods ---------------------------------------------------

def test_subject_logliks_match_rowwise_sum():
    samp = small_data(nsubj=3)
    psi = np.array([-5.0, -4.0, -3.5])
    ln_phi = np.array([4.0, 4.5, 3.8])
    got = sltb_subject_logliks(psi, ln_phi, samp.data, DEFAULT_S, DEFAULT_L)
    for i in range(3):
        want = sum(
            sltb_logpdf(SltbParams(
                float(discount_mean(psi[i], d)), float(np.exp(ln_phi[i])),
                DEFAULT_S, DEFAULT_L), float(g))
            for d, g in zip(samp.data.delays, samp.data.y[i]))
        assert got[i] == pytest.approx(want, abs=1e-12)


def test_subject_logliks_guard_rails():
    samp = small_data(nsubj=3)
    out = sltb_subject_logliks(np.array([-5.0, -60.0, -4.0]),
                               np.array([4.0, 4.0, 60.0]),
                               samp.data, DEFAULT_S, DEFAULT_L)
    assert np.isfinite(out[0])
    assert out[1] == -np.inf  # mean indistinguishable from 1
    assert out[2] == -np.inf  # precision out of the usable window
    empty = DiscountData(y=np.zeros((2, 0)), delays=(), subject_ids=("a", "b"))
    assert np.array_equal(
        sltb_subject_logliks(np.zeros(2), np.zeros(2), empty,
                             DEFAULT_S, DEFAULT_L),
        np.zeros(2))


def test_normal_subject_logliks_value():
    samp = small_data(nsubj=2)
    psi = np.array([-5.0, -4.0])
    got = normal_subject_logliks(psi, 0.04, samp.data)
    mu = discount_mean(psi[:, None], np.array(samp.data.delays)[None, :])
    want = (-0.5 * 6 * np.log(2 * np.pi * 0.04)
            - ((samp.data.y - mu) ** 2).sum(axis=1) / 0.08)
    assert got == pytest.approx(want, rel=1e-12)


# --- subject-level walks ----------------------------------------------------

def test_mh_updates_deterministic_and_shaped():
    samp = small_data(nsubj=6)
    psi0 = np.full(6, -4.5)
    ln_phi0 = np.full(6, 4.0)
    a = mh_update_psi_sltb(Rng(3), psi0, ln_phi0, samp.data, -4.8, 2.0)
    b = mh_update_psi_sltb(Rng(3), psi0, ln_phi0, samp.data, -4.8, 2.0)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[2], b[2])
    assert a[0].shape == (6,) and a[2].dtype == np.bool_
    moved = a[2]
    assert np.array_equal(a[0][~moved], psi0[~moved])
    c = mh_update_lnphi_sltb(Rng(4), psi0, ln_phi0, samp.data, 4.4, 0.5)
    assert c[0].shape == (6,)
    d = mh_update_psi_normal(Rng(5), psi0, 0.02, samp.data, -4.8, 2.0)
    assert d[0].shape == (6,)


def test_mh_rejects_unusable_proposals():
    # huge proposal variance fires far-out candidates; none may land on
    # a state whose likelihood is -inf
    samp = small_data(nsubj=8)
    psi = np.full(8, -4.5)
    ln_phi = np.full(8, 4.0)
    lik = sltb_subject_logliks(psi, ln_phi, samp.data, DEFAULT_S, DEFAULT_L)
    rng = Rng(12)
    for _ in range(60):
        psi, lik, _ = mh_update_psi_sltb(
            rng, psi, ln_phi, samp.data, -4.8, 400.0, cur_lik=lik)
        assert np.all(np.isfinite(lik))


# --- initialization ---------------------------------------------------------

def test_initialize_flat_curve_pushes_rate_down():
    y = np.full((4, 6), 0.99)
    data = DiscountData(y=y, delays=DEFAULT_DELAYS,
                        subject_ids=tuple("abcd"))
    state = initialize_chain(data, Rng(1))
    assert state.mu_psi < -8.0
    assert state.sigma2_psi == 100.0 and state.resid_sigma2 == 100.0


def test_initialize_identical_subjects_collapse():
    samp = small_data(nsubj=2)
    y = np.tile(samp.data.y[:1], (5, 1))
    data = DiscountData(y=y, delays=samp.data.delays,
                        subject_ids=tuple(f"s{i}" for i in range(5)))
    state = initialize_chain(data, Rng(2))
    assert np.ptp(state.psi) < 1e-6
    assert np.ptp(state.ln_phi) < 1e-6


def test_initialize_deterministic():
    samp = small_data(nsubj=5)
    a = initialize_chain(samp.data, Rng(7))
    b = initialize_chain(samp.data, Rng(7))
    assert np.array_equal(a.psi, b.psi)
    assert a.mu_psi == b.mu_psi and a.mu_phi == b.mu_phi
    with pytest.raises(ValidationError):
        initialize_chain(
            DiscountData(y=np.zeros((2, 0)), delays=(), subject_ids=("a", "b")),
            Rng(0))


def _scipy_subject_mles(data):
    """Oracle: one scipy Nelder-Mead per subject from its psi-grid seed at
    ln phi = ln 10, as the chain start once fitted them; a failed fit
    keeps its seed. Returns the fits and which subjects were fitted."""
    delays = np.asarray(data.delays)
    ln_phi0 = np.log(10.0)

    def nll(theta, y):
        psi, ln_phi = theta
        if abs(ln_phi) > 50.0:
            return np.inf
        mu = discount_mean(psi, delays)
        if np.any((mu <= 0.0) | (mu >= 1.0)):
            return np.inf
        total = float(sltb_logpdf_arrays(mu, np.exp(ln_phi), DEFAULT_S,
                                         DEFAULT_L, y).sum())
        return -total if np.isfinite(total) else np.inf

    fits, fitted = [], []
    for y in data.y:
        best = _PSI_GRID[int(np.argmin(
            [nll(np.array([p, ln_phi0]), y) for p in _PSI_GRID]))]
        res = optimize.minimize(
            nll, np.array([best, ln_phi0]), args=(y,), method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-9})
        ok = res.success and np.isfinite(res.x).all() and np.isfinite(res.fun)
        fits.append(res.x if ok else (best, ln_phi0))
        fitted.append(ok)
    return np.array(fits), np.array(fitted)


def _edge_subjects():
    y = gen_discount_data(nsubj=6, seed=4, rounding_decimals=2).data.y.copy()
    y[1] = 0.99  # flat curve
    y[2] = y[4] = 0.0  # all-zero subjects: no finite optimum
    return DiscountData(y=y, delays=DEFAULT_DELAYS, subject_ids=tuple("abcdef"))


@pytest.mark.parametrize("data, population", [
    (gen_discount_data(nsubj=100).data, True),
    (gen_discount_data(nsubj=100, seed=5).data, True),
    (gen_discount_data(nsubj=100, seed=3, rounding_decimals=2).data, True),
    (_edge_subjects(), False),
], ids=["default", "seed-5", "two-decimals", "flat-and-zero"])
def test_batched_start_is_scipys_per_subject_loop(data, population):
    # the batched grid start against scipy's per-subject Nelder-Mead loop
    psi, ln_phi = _grid_estimates(data, DEFAULT_S, DEFAULT_L)
    mles, fitted = _scipy_subject_mles(data)
    assert fitted.all() == population
    if population:
        # the start uses its per-subject estimates only through their mean
        # and spread; on the grid both stay close to those of the
        # per-subject MLEs. The grid reaches only its own box, so the MLEs
        # are clipped to it: a rounded subject whose likelihood climbs
        # toward phi -> 0 has its MLE far outside
        step = _PSI_GRID[1] - _PSI_GRID[0]
        step_phi = _LN_PHI_GRID[1] - _LN_PHI_GRID[0]
        want_psi = np.clip(mles[:, 0], _PSI_GRID[0], _PSI_GRID[-1])
        want_phi = np.clip(mles[:, 1], _LN_PHI_GRID[0], _LN_PHI_GRID[-1])
        assert abs(psi.mean() - want_psi.mean()) < step
        assert abs(psi.std() - want_psi.std()) < 0.25
        assert abs(ln_phi.mean() - want_phi.mean()) < step_phi
        assert abs(ln_phi.std() - want_phi.std()) < 0.25
    else:
        # the all-zero subjects have no finite optimum
        assert np.flatnonzero(~fitted).tolist() == [2, 4]
    # every subject, with or without a finite optimum, gets a start both
    # samplers can score
    start = initialize_chain(data, Rng(1))
    assert np.isfinite(sltb_subject_logliks(
        start.psi, start.ln_phi, data, DEFAULT_S, DEFAULT_L)).all()
    assert np.isfinite(normal_subject_logliks(
        start.psi, start.resid_sigma2, data)).all()
    for sampler in (sltb_hier_sample, normal_hier_sample):
        res = sampler(data, iters=120, burnin=20, seed=1)
        assert np.isfinite(res.draws).all()


# --- samplers ----------------------------------------------------------------

def test_sampler_validation():
    samp = small_data(nsubj=4)
    with pytest.raises(ValidationError):
        sltb_hier_sample(samp.data, iters=100, burnin=100)
    with pytest.raises(ValidationError):
        sltb_hier_sample(samp.data, iters=100, burnin=10, thin=0)
    with pytest.raises(ValidationError):
        normal_hier_sample(samp.data, iters=100, burnin=100)


def test_sltb_sampler_deterministic():
    samp = small_data(nsubj=8)
    a = sltb_hier_sample(samp.data, iters=240, burnin=40, seed=5, thin=2)
    b = sltb_hier_sample(samp.data, iters=240, burnin=40, seed=5, thin=2)
    c = sltb_hier_sample(samp.data, iters=240, burnin=40, seed=6, thin=2)
    assert np.array_equal(a.draws, b.draws)
    assert a.summary.acceptance_rates == b.summary.acceptance_rates
    assert not np.array_equal(a.draws, c.draws)


def test_normal_sampler_deterministic():
    samp = small_data(nsubj=8)
    a = normal_hier_sample(samp.data, iters=240, burnin=40, seed=5, thin=2)
    b = normal_hier_sample(samp.data, iters=240, burnin=40, seed=5, thin=2)
    assert np.array_equal(a.draws, b.draws)


# digests of the draws as recorded with the grid start, on python 3.11.7,
# numpy 2.4.6 and scipy 1.17.1; a refactor of the samplers must keep every
# bit
@pytest.mark.parametrize("sampler, data, kw, digest", [
    (sltb_hier_sample, "n30", dict(iters=300, burnin=100, seed=5, thin=2),
     "173944d889699f9b"),
    (normal_hier_sample, "n30", dict(iters=300, burnin=100, seed=5, thin=2),
     "ee9a21f6bd93b6c8"),
    (sltb_hier_sample, "edge", dict(iters=120, burnin=20, seed=1),
     "a7411eb3a84cfa42"),
    (normal_hier_sample, "edge", dict(iters=120, burnin=20, seed=1),
     "cecbaf28ad5a9d0f"),
], ids=["sltb", "normal", "sltb-edge", "normal-edge"])
def test_sampler_draws_are_pinned(sampler, data, kw, digest):
    data = (_edge_subjects() if data == "edge"
            else gen_discount_data(nsubj=30, seed=11).data)
    res = sampler(data, **kw)
    got = hashlib.sha256(np.ascontiguousarray(res.draws).tobytes())
    assert got.hexdigest()[:16] == digest
    if sampler is sltb_hier_sample and data.n_subjects == 30:
        assert res.summary.acceptance_rates == {
            "psi": 0.5306666666666666, "ln_phi": 0.6896666666666667}


def test_sampler_layout_and_summary():
    samp = small_data(nsubj=6)
    res = sltb_hier_sample(samp.data, iters=300, burnin=100, seed=2, thin=4)
    assert res.columns[:4] == ("mu_psi", "sigma2_psi", "mu_phi", "sigma2_phi")
    assert res.columns[4:10] == tuple(
        f"psi_{sid}" for sid in samp.data.subject_ids)
    assert len(res.columns) == 4 + 2 * 6
    assert res.draws.shape == ((300 - 100) // 4, len(res.columns))
    assert res.summary.n_draws == res.draws.shape[0]
    row = res.summary.row("mu_psi")
    assert (row["q025"] <= row["q1"] <= row["median"]
            <= row["q3"] <= row["q975"])
    for rate in res.summary.acceptance_rates.values():
        assert 0.0 < rate < 1.0
    resn = normal_hier_sample(samp.data, iters=300, burnin=100, seed=2, thin=4)
    assert resn.columns[:3] == ("mu_psi", "sigma2_psi", "sigma2")
    assert len(resn.columns) == 3 + 6


def test_short_chain_recovery_smoke():
    samp = gen_discount_data(nsubj=40, seed=21)
    res = sltb_hier_sample(samp.data, iters=2000, burnin=500, seed=1)
    mu = res.summary.row("mu_psi")
    assert abs(mu["mean"] + 4.87) < 1.0
    s2 = res.summary.row("sigma2_psi")
    assert 0.5 < s2["mean"] < 6.0
    resn = normal_hier_sample(samp.data, iters=2000, burnin=500, seed=1)
    assert abs(resn.summary.row("mu_psi")["mean"] + 4.87) < 1.2
    assert 0.0 < resn.summary.row("sigma2")["mean"] < 0.1


# --- distributional checks ----------------------------------------------------

def test_group_mean_conditionals_exact():
    assert ks_checks.nl_mu_layer_ks("psi").pvalue > ks_checks.KS_LEVEL
    assert ks_checks.nl_mu_layer_ks("phi").pvalue > ks_checks.KS_LEVEL


def test_group_variance_conditionals_exact():
    assert ks_checks.nl_sigma2_layer_ks("psi").pvalue > ks_checks.KS_LEVEL
    assert ks_checks.nl_sigma2_layer_ks("phi").pvalue > ks_checks.KS_LEVEL


def test_residual_variance_conditional_exact():
    assert ks_checks.nl_resid_sigma2_ks().pvalue > ks_checks.KS_LEVEL


def test_prior_only_walks_recover_priors():
    assert ks_checks.nl_psi_prior_mh_ks("sltb").pvalue > ks_checks.KS_LEVEL
    assert ks_checks.nl_psi_prior_mh_ks("normal").pvalue > ks_checks.KS_LEVEL
    assert ks_checks.nl_lnphi_prior_mh_ks().pvalue > ks_checks.KS_LEVEL
