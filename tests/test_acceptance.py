"""End-to-end acceptance gate.

One test per shipped claim, each asserting the pinned tolerances directly,
so the ``pytest -v`` lines double as the pass/fail report. Two tests need
real datasets that cannot be redistributed with the package; they skip
with provisioning instructions until the files are supplied:

* ``tests/data/reading_skills.csv`` gates the two ReadingSkills fits.
  Columns: ``accuracy`` (original interior-only response), ``accuracy1``
  (the version containing exact 1s), ``dyslexia`` coded -1 (no) / +1
  (yes), ``iq`` (standardized). From R:
  ``data("ReadingSkills", package = "betareg")``, recode, ``write.csv``.
* ``tests/data/alcohol_use.csv`` upgrades the hierarchical-linear test
  from synthetic truth recovery to the published-fit comparison.
  Columns: ``y``, ``medDays`` (standardized), ``gender`` (F/M),
  ``grade`` (7/9/11), ``county``.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import ks_checks
import sltb.distributions as dist
import quadrature
from conftest import unit_graded_rule
from sltb import (
    BetaMuPhi,
    RegressionSpec,
    SimConfig,
    SltbParams,
    build_hier_model,
    fit_mle,
    gen_alcohol_fixture,
    gen_discount_data,
    mse_report,
    normal_hier_sample,
    posterior_predictive_mse,
    run_chain,
    run_study,
    sltb_cdf,
    sltb_hier_sample,
    sltb_logpdf,
    sltb_mean,
    sltb_pdf,
    sltb_quantile,
    sltb_var,
)
from sltb.bayes_hier_linear import TABLE_EFFECTS
from sltb.cli import main as cli_main
from sltb.data import read_csv, write_csv

DATA_DIR = Path(__file__).parent / "data"
READING = DATA_DIR / "reading_skills.csv"
ALCOHOL = DATA_DIR / "alcohol_use.csv"

READING_SKIP = (
    "real ReadingSkills data not provisioned; place the 44-row table at "
    f"{READING} with columns accuracy, accuracy1, dyslexia (-1 no / +1 yes), "
    "iq (standardized); in R: data('ReadingSkills', package='betareg')"
)


def _require_reading():
    if not READING.exists():
        pytest.skip(READING_SKIP)
    return read_csv(str(READING))


# ---------------------------------------------------------------------------
# 1. ReadingSkills boundary fit
# ---------------------------------------------------------------------------

def test_boundary_reading_skills_fit_matches_published_table():
    data = _require_reading()
    spec = RegressionSpec("accuracy1", ("dyslexia", "iq", "dyslexia:iq"))
    t0 = time.perf_counter()
    fit = fit_mle(spec, data)
    elapsed = time.perf_counter() - t0

    want_coef = {"(Intercept)": 1.8622, "dyslexia": -1.5442,
                 "iq": 0.0978, "dyslexia:iq": -0.1487}
    want_se = {"(Intercept)": 0.1996, "dyslexia": 0.1889,
               "iq": 0.1493, "dyslexia:iq": 0.1494}
    got = dict(zip(fit.coef_names, fit.coefficients))
    ses = dict(zip(fit.coef_names, fit.se))
    print(f"\ncoefficients {got}\nstandard errors {ses}\nfit {elapsed:.3f}s")
    for name, want in want_coef.items():
        assert got[name] == pytest.approx(want, abs=0.01), name
    for name, want in want_se.items():
        assert ses[name] == pytest.approx(want, abs=0.02), name

    report = mse_report(fit, spec, data)
    print(f"mse {report}")
    assert report["overall"] == pytest.approx(0.0130, abs=0.002)
    assert report["boundary_ones"] == pytest.approx(0.0008, abs=0.0005)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Non-boundary agreement between the two families
# ---------------------------------------------------------------------------

def test_interior_fits_agree_across_families():
    data = _require_reading()
    spec = RegressionSpec("accuracy", ("dyslexia", "iq", "dyslexia:iq"))
    fit_s = fit_mle(spec, data, family="sltb")
    fit_b = fit_mle(spec, data, family="beta")
    want = (1.3338, -0.9736, 0.161, -0.219)
    names = ("(Intercept)", "dyslexia", "iq", "dyslexia:iq")
    got_s = dict(zip(fit_s.coef_names, fit_s.coefficients))
    got_b = dict(zip(fit_b.coef_names, fit_b.coefficients))
    print(f"\nsltb {got_s}\nbeta {got_b}")
    for name, w in zip(names, want):
        assert got_s[name] == pytest.approx(w, abs=0.005), name
        assert got_b[name] == pytest.approx(w, abs=0.005), name
        assert got_s[name] == pytest.approx(got_b[name], abs=0.002), name

    mse_s = mse_report(fit_s, spec, data)["overall"]
    mse_b = mse_report(fit_b, spec, data)["overall"]
    print(f"mse sltb {mse_s:.6f} beta {mse_b:.6f} gap {abs(mse_s - mse_b):.2e}")
    assert mse_s == pytest.approx(0.00961, abs=0.0005)
    assert mse_b == pytest.approx(0.00961, abs=0.0005)
    assert abs(mse_s - mse_b) < 1e-6


# ---------------------------------------------------------------------------
# 3. Simulation study at desk scale
# ---------------------------------------------------------------------------

def test_simulation_study_mse_brackets_and_speed():
    for n, lo, hi, budget in ((20, 0.010, 0.018, 0.1),
                              (400, 0.013, 0.020, 1.0)):
        out = run_study(SimConfig(n=n, reps=200, base_seed=0), threads=1)
        mse = out.mean_mse["sltb"]
        sec = out.mean_fit_seconds["sltb"]
        print(f"\nn={n}: mean mse {mse:.5f} in [{lo}, {hi}], "
              f"mean fit {sec:.3f}s < {budget}s")
        assert lo <= mse <= hi
        assert sec < budget


# ---------------------------------------------------------------------------
# 4. Hierarchical nonlinear recovery, ten seeded repeats
# ---------------------------------------------------------------------------

def test_nonlinear_recovery_beats_normal_baseline():
    truth_mu = -4.87
    t0 = time.perf_counter()
    closer = []
    seed0_ci = None
    for k in range(10):
        samp = gen_discount_data(nsubj=100, seed=k)
        res_s = sltb_hier_sample(samp.data, iters=20000, burnin=5000,
                                 seed=k + 100)
        res_n = normal_hier_sample(samp.data, iters=20000, burnin=5000,
                                   seed=k + 200)
        i = res_s.columns.index("mu_psi")
        mu_s = res_s.draws[:, i]
        mu_n = res_n.draws[:, res_n.columns.index("mu_psi")]
        if k == 0:
            seed0_ci = (float(np.quantile(mu_s, 0.025)),
                        float(np.quantile(mu_s, 0.975)))
        gap_s = abs(float(mu_s.mean()) - truth_mu)
        gap_n = abs(float(mu_n.mean()) - truth_mu)
        closer.append(gap_s <= gap_n)
        print(f"seed {k}: sltb {float(mu_s.mean()):+.4f} "
              f"normal {float(mu_n.mean()):+.4f} "
              f"{'sltb' if closer[-1] else 'normal'} closer")
    elapsed = time.perf_counter() - t0

    lo, hi = seed0_ci
    print(f"seed-0 95% CI [{lo:.3f}, {hi:.3f}] width {hi - lo:.3f}; "
          f"sltb closer {sum(closer)}/10; total {elapsed:.0f}s")
    assert lo <= truth_mu <= hi
    assert hi - lo < 0.8
    assert sum(closer) >= 7
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 5. Distribution property suite
# ---------------------------------------------------------------------------

def test_distribution_properties_hold_at_tolerance():
    rule = unit_graded_rule(order=40)
    for mu in np.arange(0.1, 0.95, 0.1):
        for phi in (0.5, 2.0, 10.0, 50.0):
            p = SltbParams(float(mu), float(phi))
            total = quadrature.integrate(lambda g: sltb_pdf(p, g), 0.0, 1.0, rule)
            assert total == pytest.approx(1.0, abs=1e-8), (mu, phi)
            assert math.isfinite(sltb_logpdf(p, 0.0)), (mu, phi)
            assert math.isfinite(sltb_logpdf(p, 1.0)), (mu, phi)

    grid = np.linspace(0.01, 0.99, 197)
    base = np.exp(dist.beta_logpdf_arrays(0.5, 4.0, grid))
    sups = []
    for k in range(4, 9):
        p = SltbParams(0.5, 4.0, s=1.0 + 10.0 ** -k * math.sqrt(10.0),
                       l=10.0 ** -(k + 1))
        sups.append(float(np.max(np.abs(sltb_pdf(p, grid) - base))))
    print(f"\nsup-norm gaps to the base beta: {sups}")
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 1e-3

    for mu, phi in ((0.5, 4.0), (0.2, 11.0), (0.85, 0.7)):
        p = SltbParams(mu, phi)
        base_law = BetaMuPhi(mu, phi)
        mean_diff = sltb_mean(p) - base_law.mean()
        var_diff = sltb_var(p) - base_law.variance()
        assert mean_diff == pytest.approx((p.s - 1.0) * mu - p.s * p.l,
                                          abs=1e-15)
        assert var_diff == pytest.approx(
            (p.s * p.s - 1.0) * mu * (1.0 - mu) / (phi + 1.0), abs=1e-15)

    p = SltbParams(0.3, 7.0)
    q = sltb_cdf(p, 0.37)
    assert sltb_quantile(p, q) == pytest.approx(0.37, abs=1e-9)


# ---------------------------------------------------------------------------
# 6. Sampler correctness: KS suite plus byte-exact CLI replays
# ---------------------------------------------------------------------------

def test_gibbs_conditionals_pass_ks_suite():
    checks = {
        "linear intercept prior": ks_checks.hier_beta0_prior_ks(),
        "linear group-intercept prior": ks_checks.hier_u_prior_ks(1.3),
        "linear sigma prior": ks_checks.hier_sigma_prior_ks(),
        "psi-layer mean conditional": ks_checks.nl_mu_layer_ks("psi"),
        "phi-layer mean conditional": ks_checks.nl_mu_layer_ks("phi"),
        "psi-layer variance conditional": ks_checks.nl_sigma2_layer_ks("psi"),
        "phi-layer variance conditional": ks_checks.nl_sigma2_layer_ks("phi"),
        "residual variance conditional": ks_checks.nl_resid_sigma2_ks(),
        "psi walk prior recovery (sltb)": ks_checks.nl_psi_prior_mh_ks("sltb"),
        "psi walk prior recovery (normal)":
            ks_checks.nl_psi_prior_mh_ks("normal"),
        "log-phi walk prior recovery": ks_checks.nl_lnphi_prior_mh_ks(),
    }
    print()
    for name, res in checks.items():
        print(f"{name}: p = {res.pvalue:.4f}")
        assert res.pvalue > ks_checks.KS_LEVEL, name


def _snapshot(out_dir: Path) -> dict:
    """Deterministic content of a CLI output directory.

    Timing artifacts are excluded: manifest timestamps, timing.json, and
    the per-replication *_seconds columns of records.csv.
    """
    snap = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "timing.json":
            continue
        if path.name == "manifest.json":
            doc = json.loads(path.read_text())
            doc.pop("started", None)
            doc.pop("finished", None)
            snap[path.name] = json.dumps(doc, sort_keys=True)
        elif path.name == "records.csv":
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            snap[path.name] = [
                {k: v for k, v in row.items() if not k.endswith("_seconds")}
                for row in rows]
        else:
            snap[path.name] = path.read_bytes()
    return snap


def test_cli_replays_are_byte_exact(tmp_path):
    from sltb.simulation import gen_dataset

    points = tmp_path / "points.csv"
    write_csv(str(points), gen_dataset(SimConfig(n=40, reps=1, base_seed=7), 0))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"response": "y", "terms": ["x1", "x2"]}))
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"n": 12, "reps": 4}))
    counties = tmp_path / "counties.csv"
    write_csv(str(counties),
              gen_alcohol_fixture(n_counties=6, rows=120, seed=5,
                                  rounding_decimals=3).data)
    hier_cfg = tmp_path / "hier.json"
    hier_cfg.write_text(json.dumps({"iters": 400, "burnin": 100, "thin": 2}))
    nl_cfg = tmp_path / "nl.json"
    nl_cfg.write_text(json.dumps({"nsubj": 8, "delays": [1.0, 30.0, 365.0],
                                  "iters": 300, "burnin": 100, "thin": 2}))

    commands = {
        "fit": ["fit", "--data", str(points), "--spec", str(spec)],
        "simulate": ["simulate", "--config", str(sim_cfg), "--seed", "3"],
        "hier-linear": ["hier-linear", "--data", str(counties),
                        "--config", str(hier_cfg), "--seed", "1"],
        "hier-nonlinear": ["hier-nonlinear", "--config", str(nl_cfg),
                           "--seed", "2"],
        "density": ["density", "--mu", "0.7", "--phi", "3", "--grid-n", "41"],
    }
    print()
    for name, argv in commands.items():
        runs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}_{rep}"
            assert cli_main([*argv, "--out", str(out)]) == 0
            runs.append(_snapshot(out))
        assert runs[0] == runs[1], name
        print(f"{name}: replay byte-exact across {len(runs[0])} outputs")


# ---------------------------------------------------------------------------
# 7. Hierarchical linear model
# ---------------------------------------------------------------------------

def test_hier_linear_posterior_recovery():
    if ALCOHOL.exists():
        data = read_csv(str(ALCOHOL))
        model, y = build_hier_model(data)
        res = run_chain(model, y)
        print()
        for name, want in TABLE_EFFECTS.items():
            got = res.summary.row(name)["mean"]
            print(f"{name}: {got:+.4f} vs published {want:+.4f}")
            assert got == pytest.approx(want, abs=0.05), name
        ppmse = posterior_predictive_mse(res, model, y)
        print(f"posterior predictive mse {ppmse:.5f}")
        assert ppmse == pytest.approx(0.00117, abs=0.0003)
        return

    fixture = gen_alcohol_fixture()
    model, y = build_hier_model(fixture.data)
    res = run_chain(model, y)
    n_in = 0
    print("\nreal data absent; recovering synthetic generator truth instead")
    for name, truth in fixture.beta.items():
        row = res.summary.row(name)
        inside = row["q025"] <= truth <= row["q975"]
        n_in += inside
        print(f"{name}: truth {truth:+.3f} in "
              f"[{row['q025']:+.4f}, {row['q975']:+.4f}] -> "
              f"{'yes' if inside else 'NO'}")
    assert n_in >= 6, f"only {n_in}/7 generator effects covered"
