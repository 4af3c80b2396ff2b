"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, then
runs whole rounds of the same operations; round k derives its own seeds
from (seed, k), so a replayed round repeats its work exactly. Every round
records the wall time of the workload's two operation kinds, ``a`` and
``b``; ``check`` verifies the program's outputs against the references
in ``oracles`` and against properties the method must have.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import time

import numpy as np
from scipy import stats

import oracles
from sltb import bayes_hier_linear as bhl
from sltb import bayes_hier_nonlinear as bhn
from sltb import cli, data, simulation

clock = time.perf_counter
TRUTH_BETA = (1.2, -0.88, 0.43, -0.52)  # the study's default generating truth
TRUTH_PHI = 10.0


def median(values):
    return statistics.median(values) if values else float("nan")


def _record(calls, fn):
    """Wrap ``fn`` so each call's arguments and result are appended to calls."""
    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out
    recorded.__wrapped__ = fn
    return recorded


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rounds: list = []  # per round: {"a": ..., "b": ..., "ops": busy s}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.tracer = None
        self.round_index = 0  # counts rounds run, replays included
        self.first_round = 0  # the round whose traced counts are reported

    def phase(self, name):
        if self.tracer is not None:
            self.tracer.phase = name

    # subclasses: setup(), run_round(k) -> dict, check(), details(), layer_details()
    def op_seconds(self, key):
        """Median over rounds of the round's figure for operation kind key."""
        return median([r[key] for r in self.rounds])

    def close(self):
        pass


# ---------------------------------------------------------------------------
# mle-study
# ---------------------------------------------------------------------------

class MleStudy(Workload):
    """run_study at n=20 and n=400 with the default truth, one thread.

    The n=20 data sets are the same in every round and every run: the 16
    reps of base seed 18,003,000, among them rep 3, on which ``fit_mle``
    raises ``NumericalError``. A fit fails on some data sets only, so data
    sets that follow the seed would make the failed share differ between
    runs; with a fixed pool that fit is one failed operation in every
    round. The n=400 data sets follow the seed.
    """

    name = "mle-study"
    sizes = {"n20": (20, 16), "n400": (400, 4)}  # phase: (n, reps per round)
    n20_base_seed = 18_003_000
    op_key = {"n20": "a", "n400": "b"}
    brackets = {"n20": (0.010, 0.018), "n400": (0.013, 0.020)}

    def setup(self):
        self.pending: list = []  # (args, FitResult) of the phase just run
        self.mses: dict = {ph: [] for ph in self.sizes}
        # per (round index, phase): (fit_seconds, iterations, trace evals) per fit
        self.fit_stats: dict = {}
        self.reps_used: dict = {}  # (round index, phase) -> (used reps, failures)
        self.loglik_rel_err = 0.0
        self.spot_checked = False

    def _install(self):
        # keep each fit's inputs and result until the phase is checked; a list
        # append per call, no timing, so the untraced figures stay untouched
        self._orig_fit = simulation.fit_mle
        simulation.fit_mle = _record(self.pending, simulation.fit_mle)

    def close(self):
        if hasattr(self, "_orig_fit"):
            simulation.fit_mle = self._orig_fit

    def run_round(self, k):
        if not hasattr(self, "_orig_fit"):
            self._install()
        out = {"ops": 0.0}
        for ph, (n, reps) in self.sizes.items():
            self.phase(ph)
            base = (self.n20_base_seed if ph == "n20"
                    else self.seed * 1_000_000 + k * 1000)
            cfg = simulation.SimConfig(
                n=n, reps=reps, beta_true=TRUTH_BETA, phi_true=TRUTH_PHI,
                rounding_decimals=2, base_seed=base)
            t0 = clock()
            report = simulation.run_study(cfg, methods=("sltb",), threads=1)
            dt = clock() - t0
            out["ops"] += dt
            failures = report.failure_counts["sltb"]
            fits = report.fit_counts["sltb"] + failures
            self.attempted += fits
            self.failed += failures
            self.reps_used[self.round_index, ph] = (report.n_boundary_reps, failures)
            self.mses[ph] += [r.method_mse["sltb"] for r in report.records
                              if r.method_mse["sltb"] is not None]
            out[self.op_key[ph] + "_fits"] = fits
            out[self.op_key[ph]] = dt
            self.phase("check")
            self._check_fits(ph)
        return out

    def op_seconds(self, key):
        """run_study wall time per attempted fit, over every round: fits
        differ in cost with their data, so the ratio of sums is steadier
        than a median of per-round ratios."""
        return (sum(r[key] for r in self.rounds)
                / sum(r[key + "_fits"] for r in self.rounds))

    def _check_fits(self, ph):
        """Check the phase's fits against the references, keep their figures
        and drop the fits, so memory does not grow with the rounds run."""
        theta_true = np.append(TRUTH_BETA, np.log(TRUTH_PHI))
        stats = self.fit_stats.setdefault((self.round_index, ph), [])
        for args, fit in self.pending:
            table = args[1]
            X = oracles.design_study(table.numeric("x1"), table.numeric("x2"))
            y = table.numeric("y")
            ref = oracles.loglik_ref(fit.theta(), X, y)
            rel = abs(fit.loglik - ref) / max(1.0, abs(ref))
            self.loglik_rel_err = max(self.loglik_rel_err, rel)
            if rel > 1e-8:
                self.problems.append(
                    f"{ph}: fitted loglik {fit.loglik!r} vs reference {ref!r}")
            for label, theta in (("truth", theta_true),
                                 ("warm start", oracles.warm_start_ref(X, y))):
                if fit.loglik < oracles.loglik_ref(theta, X, y) - 1e-9 * abs(ref):
                    self.problems.append(
                        f"{ph}: fitted loglik below the value at the {label}")
            if not self.spot_checked:
                self._spot_check(X, y, fit)
                self.spot_checked = True
            stats.append((fit.fit_seconds, fit.iterations, len(fit.loglik_trace) - 1))
        self.pending.clear()

    def check(self):
        for ph, (lo, hi) in self.brackets.items():
            mses = self.mses[ph]
            if not mses or not lo <= float(np.mean(mses)) <= hi:
                self.problems.append(
                    f"{ph}: mean MSE {np.mean(mses) if mses else None} "
                    f"outside [{lo}, {hi}]")

    def _spot_check(self, X, y, fit):
        """mpmath against the program's own scalar log-density, a few rows."""
        from sltb.distributions import SltbParams, sltb_logpdf
        mu = 1.0 / (1.0 + np.exp(-(X @ fit.coefficients)))
        rows = list(np.flatnonzero((y == 0.0) | (y == 1.0))[:3]) + [0, len(y) - 1]
        for i in rows:
            want = oracles.sltb_logpdf_mpmath(y[i], mu[i], fit.phi())
            got = sltb_logpdf(SltbParams(float(mu[i]), fit.phi()), float(y[i]))
            ref = float(oracles.sltb_logpdf_ref(y[i], mu[i], fit.phi()))
            for label, val in (("program", got), ("scipy reference", ref)):
                if abs(val - want) > 1e-9 * max(1.0, abs(want)):
                    self.problems.append(
                        f"row {i}: {label} log-density {val!r} vs mpmath {want!r}")

    def _fits(self, ph, first_only=False):
        return [s for (k, p), stats in self.fit_stats.items()
                if p == ph and (not first_only or k == self.first_round)
                for s in stats]

    def details(self):
        out = {}
        for ph in self.sizes:
            out[f"mle_fits_per_s.{ph}"] = (1.0 / self.op_seconds(self.op_key[ph]), "1/s")
            out[f"regression.{ph}.optimizer_s"] = (
                float(np.mean([s for s, _, _ in self._fits(ph)])), "s")
            out[f"simulation.{ph}.fit_failures"] = (
                sum(f for (_, p), (_, f) in self.reps_used.items() if p == ph), "count")
        out["check.loglik_max_rel_err"] = (self.loglik_rel_err, "share")
        return out

    def layer_details(self, tr, first):
        out = {}
        for ph, (n, reps) in self.sizes.items():
            fit = tr.select({ph}, name="fit_mle")
            ll = tr.select({ph}, name="loglik_sltb")
            hess = tr.select({ph}, name="numeric_hessian")
            study = tr.select({ph}, name="run_study")
            gen = tr.select({ph}, name="gen_dataset")
            fits0 = self._fits(ph, first_only=True)
            c_fit = first.select({ph}, name="fit_mle").calls
            c_ll = first.select({ph}, name="loglik_sltb").calls
            c_h = first.select({ph}, name="numeric_hessian").calls
            trace_evals = float(np.mean([t for _, _, t in fits0]))
            calls_per_fit = c_ll / max(c_fit, 1)
            used, failures = self.reps_used[self.first_round, ph]
            out.update({
                f"regression.{ph}.fit_s": (fit.total / fit.calls, "s"),
                f"regression.{ph}.optimizer_s": (
                    float(np.mean([s for s, _, _ in fits0])), "s"),
                f"regression.{ph}.loglik_calls_per_fit": (calls_per_fit, "count"),
                f"regression.{ph}.iterations_per_fit": (
                    float(np.mean([i for _, i, _ in fits0])), "count"),
                f"regression.{ph}.trace_evals_per_fit": (trace_evals, "count"),
                f"regression.{ph}.useful_eval_share": (
                    1.0 - trace_evals / calls_per_fit, "share"),
                f"regression.{ph}.loglik_us": (1e6 * ll.total / ll.calls, "us"),
                f"regression.{ph}.loglik_share": (ll.total / fit.total, "share"),
                f"kernel.{ph}.numeric_hessian_calls_per_fit": (
                    c_h / max(c_fit, 1), "count"),
                f"kernel.{ph}.hessian_share": (hess.total / fit.total, "share"),
                f"simulation.{ph}.rep_ms": (1e3 * study.total / (study.calls * reps), "ms"),
                f"simulation.{ph}.gen_dataset_ms": (1e3 * gen.total / gen.calls, "ms"),
                f"simulation.{ph}.used_rep_share": (used / reps, "share"),
                f"simulation.{ph}.fit_failures": (failures, "count"),
            })
        return out


# ---------------------------------------------------------------------------
# hier-linear
# ---------------------------------------------------------------------------

class HierLinear(Workload):
    """run_chain plus posterior_predictive_mse on the default county fixture."""

    name = "hier-linear"
    iters, burnin = 400, 150

    def setup(self):
        self.fixture = bhl.gen_alcohol_fixture()
        self.model, self.y = bhl.build_hier_model(self.fixture.data)
        self.cols = (*self.model.coef_names, "eta", "sigma2")
        # per round: (round index, draws of self.cols, acceptance rates,
        # ppmse, chain seconds); only these columns are kept, so memory
        # does not grow with the rounds run
        self.results: list = []
        self.first_mean = None  # posterior mean of round 0's full state

    def run_round(self, k):
        self.phase("chain")
        t0 = clock()
        res = bhl.run_chain(self.model, self.y, iters=self.iters,
                            burnin=self.burnin, thin=1,
                            seed=self.seed * 1000 + k)
        t1 = clock()
        self.phase("ppmse")
        ppmse = bhl.posterior_predictive_mse(res, self.model, self.y)
        t2 = clock()
        self.attempted += 1
        if self.first_mean is None:
            self.first_mean = res.draws.mean(axis=0)
        idx = [res.columns.index(c) for c in self.cols]
        self.results.append((self.round_index, res.draws[:, idx],
                             list(res.summary.acceptance_rates.values()),
                             ppmse, t1 - t0))
        return {"a": (t1 - t0) / self.iters, "b": t2 - t1, "ops": t2 - t0}

    def _stacked(self, column):
        """Draws of one column, one row per chain since the reported round."""
        j = self.cols.index(column)
        return np.array([d[:, j] for i, d, _, _, _ in self.results
                         if i >= self.first_round])

    def check(self):
        inside = 0
        for name, truth in self.fixture.beta.items():
            d = self._stacked(name).ravel()
            lo, hi = np.quantile(d, [0.025, 0.975])
            inside += bool(lo <= truth <= hi)
        if inside < 6:
            self.problems.append(f"only {inside}/7 generator effects covered")
        for _, _, rates, ppmse, _ in self.results:
            if not all(0.05 <= r <= 0.95 for r in rates):
                self.problems.append("acceptance rate outside [0.05, 0.95]")
            if not (np.isfinite(ppmse) and ppmse < np.var(self.y)):
                self.problems.append(f"posterior predictive MSE {ppmse}")
        mean = self.first_mean
        kc = self.model.n_coefs
        state = bhl.ChainState(beta=mean[:kc], u=mean[kc + 2:], eta=mean[kc],
                               sigma2=mean[kc + 1])
        got = bhl.hier_linear_loglik(state, self.model, self.y)
        ref = self._loglik_ref(mean)
        if abs(got - ref) > 1e-8 * max(1.0, abs(ref)):
            self.problems.append(f"hier_linear_loglik {got!r} vs reference {ref!r}")

    def _loglik_ref(self, mean):
        """Design and group index rebuilt from the table by hand."""
        t = self.fixture.data
        gender = np.array(t.factor("gender"))
        grade = np.array(t.factor("grade"))
        cols = {"(Intercept)": np.ones(t.n_rows), "medDays": t.numeric("medDays"),
                "genderM": gender == "M"}
        for g in ("9", "11"):
            cols[f"grade{g}"] = grade == g
            cols[f"grade{g}:genderM"] = (grade == g) & (gender == "M")
        X = np.column_stack([cols[n] for n in self.model.coef_names]).astype(float)
        labels = sorted(set(t.factor("county")))
        gi = np.array([labels.index(c) for c in t.factor("county")])
        kc = X.shape[1]
        lp = X @ mean[:kc] + mean[kc + 2:][gi]
        mu = 1.0 / (1.0 + np.exp(-lp))
        return float(np.sum(oracles.sltb_logpdf_ref(self.y, mu, np.exp(mean[kc]))))

    def diagnostics(self):
        ess = min(oracles.bulk_ess(self._stacked(c)) for c in self.cols)
        rhat = max(oracles.split_rhat(self._stacked(c)) for c in self.cols)
        kept = [(rates, s) for i, _, rates, _, s in self.results
                if i >= self.first_round]
        chain_s = sum(s for _, s in kept)
        rates = [r for rs, _ in kept for r in rs]
        return ess, rhat, chain_s, rates

    def details(self):
        return {"hl_sweeps_per_s": (1.0 / self.op_seconds("a"), "1/s")}

    def layer_details(self, tr, first):
        chain = tr.select({"chain"}, name="run_chain")
        lp_chain = tr.select({"chain"}, name="sltb_logpdf_arrays")
        lp0 = first.select({"chain"}, name="sltb_logpdf_arrays")
        pp = tr.select({"ppmse"}, name="posterior_predictive_mse")
        ess, rhat, chain_s, rates = self.diagnostics()
        return {
            "bayes_hier_linear.sweep_ms": (1e3 * chain.total / (chain.calls * self.iters), "ms"),
            "bayes_hier_linear.logpdf_calls_per_sweep": (lp0.calls / self.iters, "count"),
            "bayes_hier_linear.logpdf_share": (lp_chain.total / chain.total, "share"),
            "bayes_hier_linear.ppmse_ms": (1e3 * pp.total / pp.calls, "ms"),
            "bayes_hier_linear.accept_rate_min": (min(rates), "share"),
            "bayes_hier_linear.accept_rate_max": (max(rates), "share"),
            "bayes_hier_linear.min_bulk_ess": (ess, "count"),
            "bayes_hier_linear.max_split_rhat": (rhat, "ratio"),
            "bayes_hier_linear.ess_per_s": (ess / chain_s, "1/s"),
        }


# ---------------------------------------------------------------------------
# hier-nonlinear
# ---------------------------------------------------------------------------

class HierNonlinear(Workload):
    """sltb_hier_sample then normal_hier_sample on the default discount data."""

    name = "hier-nonlinear"
    iters, burnin = 500, 200
    group = {"sltb": ("mu_psi", "sigma2_psi", "mu_phi", "sigma2_phi"),
             "normal": ("mu_psi", "sigma2_psi", "sigma2")}

    def setup(self):
        self.data = bhn.gen_discount_data(nsubj=100).data
        # per chain: (round index, draws of the group columns, acceptance
        # rates by block, chain seconds); the subject columns are dropped,
        # so memory does not grow with the rounds run
        self.results: dict = {"sltb": [], "normal": []}

    def run_round(self, k):
        out = {}
        for key, model, sampler, offset in (("a", "sltb", bhn.sltb_hier_sample, 1),
                                            ("b", "normal", bhn.normal_hier_sample, 2)):
            self.phase(model)
            t0 = clock()
            res = sampler(self.data, iters=self.iters, burnin=self.burnin,
                          thin=1, seed=self.seed * 1000 + 10 * k + offset)
            out[key] = clock() - t0
            self.attempted += 1
            idx = [res.columns.index(c) for c in self.group[model]]
            self.results[model].append((self.round_index, res.draws[:, idx],
                                        dict(res.summary.acceptance_rates), out[key]))
        out["ops"] = out["a"] + out["b"]
        return out

    def _kept(self, model):
        """(draws, rates, seconds) of each chain since the reported round."""
        return [r[1:] for r in self.results[model] if r[0] >= self.first_round]

    def _stacked(self, model, column):
        """Draws of one column, one row per chain since the reported round."""
        j = self.group[model].index(column)
        return np.array([d[:, j] for d, _, _ in self._kept(model)])

    def check(self):
        d = self._stacked("sltb", "mu_psi").ravel()
        lo, hi = np.quantile(d, [0.025, 0.975])
        if not lo <= -4.87 <= hi:
            self.problems.append(f"SLTB mu_psi interval [{lo}, {hi}] misses -4.87")
        for model, results in self.results.items():
            for _, _, rates, _ in results:
                if not all(0.05 <= r <= 0.95 for r in rates.values()):
                    self.problems.append(f"{model}: acceptance rate out of range")

    def details(self):
        return {"nl_sltb_chain_s": (self.op_seconds("a"), "s"),
                "nl_normal_chain_s": (self.op_seconds("b"), "s")}

    def layer_details(self, tr, first):
        p = "bayes_hier_nonlinear"
        init = tr.select(name="initialize_chain")
        out = {f"{p}.init_s": (init.total / init.calls, "s")}
        for model, fn in (("sltb", "sltb_hier_sample"), ("normal", "normal_hier_sample")):
            chain = tr.select({model}, name=fn)
            init_m = tr.select({model}, name="initialize_chain")
            mh = tr.select({model}, name=("mh_update_psi_sltb", "mh_update_lnphi_sltb",
                                           "mh_update_psi_normal"))
            gibbs = tr.select({model}, name=("gibbs_mu", "gibbs_sigma2"))
            lp = tr.select({model}, name="sltb_logpdf_arrays")
            sweeps = chain.calls * self.iters
            cols = self.group[model]
            ess = min(oracles.bulk_ess(self._stacked(model, c)) for c in cols)
            chain_s = sum(s for _, _, s in self._kept(model))
            out.update({
                f"{p}.{model}_sweep_us": (1e6 * (chain.total - init_m.total) / sweeps, "us"),
                f"{p}.mh_update_us.{model}": (1e6 * mh.total / mh.calls, "us"),
                f"{p}.gibbs_us.{model}": (1e6 * gibbs.total / gibbs.calls, "us"),
                f"{p}.logpdf_share.{model}": (lp.total / chain.total, "share"),
                f"{p}.min_bulk_ess.{model}": (ess, "count"),
                f"{p}.ess_per_s.{model}": (ess / chain_s, "1/s"),
            })
        for block in ("psi", "ln_phi"):
            rates = [r[block] for _, r, _ in self._kept("sltb")]
            out[f"{p}.accept_rate.{block}"] = (float(np.mean(rates)), "share")
        return out


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

class CliBatch(Workload):
    """The five subcommands in process on fixed input files, plus three
    malformed-input probes that the current CLI fails."""

    name = "cli-batch"
    commands = ("fit", "simulate", "density", "hier_linear", "hier_nonlinear")
    group_a = ("fit", "density")  # most of density's time is writing its CSV
    fit_n, sim_reps, grid_n = 1000, 6, 20001
    hl_cfg = {"iters": 200, "burnin": 50, "thin": 2}
    nl_cfg = {"iters": 400, "burnin": 100, "thin": 2}
    nl_subjects = 30
    # (name, argv, the exit code the CLI documents for this input)
    probes = (
        ("density_tiny_phi", ["density", "--mu", "0.5", "--phi", "1e-320"], 3),
        ("hier_linear_spec_without_response",
         ["hier-linear", "--data", "@counties", "--config", "@bad_spec"], 2),
        ("hier_linear_iters_not_int",
         ["hier-linear", "--data", "@counties", "--config", "@bad_iters"], 2),
    )

    def setup(self):
        w = self.workdir
        self.files = {k: os.path.join(w, f) for k, f in (
            ("fit_data", "fit.csv"), ("spec", "spec.json"), ("sim", "sim.json"),
            ("counties", "counties.csv"), ("hl", "hl.json"),
            ("discount", "discount.csv"), ("nl", "nl.json"),
            ("bad_spec", "bad_spec.json"), ("bad_iters", "bad_iters.json"))}
        f = self.files
        # the fit and discount data are fixed: the seed moves the chains and
        # the density parameters, so every run reads and fits the same files
        table = simulation.gen_dataset(simulation.SimConfig(
            n=self.fit_n, reps=1, beta_true=TRUTH_BETA, phi_true=TRUTH_PHI,
            rounding_decimals=None, base_seed=1), 0)
        self.fit_table = table
        _write_table(f["fit_data"], table)
        _write_json(f["spec"], {"response": "y", "terms": ["x1", "x2", "x1:x2"]})
        _write_json(f["sim"], {"n": 20, "reps": self.sim_reps})
        self.counties = bhl.gen_alcohol_fixture().data
        _write_table(f["counties"], self.counties)
        _write_json(f["hl"], self.hl_cfg)
        disc = bhn.gen_discount_data(nsubj=self.nl_subjects).data
        _write_table(f["discount"], disc.to_table())
        _write_json(f["nl"], self.nl_cfg)
        _write_json(f["bad_spec"], {"spec": {"terms": ["medDays"]}})
        _write_json(f["bad_iters"], {"iters": "abc"})
        rs = np.random.default_rng(self.seed)
        self.mu, self.phi = float(rs.uniform(0.3, 0.7)), float(rs.uniform(4.0, 12.0))
        self.walls: dict = {c: [] for c in self.commands}
        self.probe_s: list = []
        self.out_dirs: dict = {}
        self.rows_written: dict = {}

    def _argv(self, cmd, k):
        f, seed = self.files, str(self.seed * 1000 + k)
        sim_seed = str(1000 + k)  # the same study in every run
        out = os.path.join(self.workdir, "out", cmd)
        self.out_dirs[cmd] = out
        return {
            "fit": ["fit", "--data", f["fit_data"], "--spec", f["spec"]],
            "simulate": ["simulate", "--config", f["sim"], "--seed", sim_seed],
            "density": ["density", "--mu", repr(self.mu), "--phi", repr(self.phi),
                        "--grid-n", str(self.grid_n)],
            "hier_linear": ["hier-linear", "--data", f["counties"],
                            "--config", f["hl"], "--seed", seed],
            "hier_nonlinear": ["hier-nonlinear", "--data", f["discount"],
                               "--config", f["nl"], "--seed", seed],
        }[cmd] + ["--out", out]

    def run_round(self, k):
        out = {"a": 0.0, "b": 0.0}
        for cmd in self.commands:
            argv = self._argv(cmd, k)
            self.phase(cmd)
            t0 = clock()
            code = cli.main(argv)
            dt = clock() - t0
            self.walls[cmd].append(dt)
            out["a" if cmd in self.group_a else "b"] += dt
            self.attempted += 1
            problems = [f"exit code {code}"] if code != 0 else self._check(cmd)
            if problems:
                self.failed += 1
                self.problems += [f"{cmd}: {p}" for p in problems]
        self.phase("probe")
        t0 = clock()
        self.probe_results = [self._probe(*p) for p in self.probes]
        self.probe_s.append(clock() - t0)
        out["ops"] = out["a"] + out["b"]
        return out

    def _probe(self, name, argv, want):
        argv = [self.files[a[1:]] if a.startswith("@") else a for a in argv]
        argv += ["--out", os.path.join(self.workdir, "out", "probe_" + name)]
        self.attempted += 1
        try:
            got = cli.main(argv)
        except Exception as exc:  # the failure under test is an uncaught error
            got = type(exc).__name__
        if got != want:
            self.failed += 1
        return name, got, want

    # --- output checks ----------------------------------------------------

    def _check(self, cmd):
        out = self.out_dirs[cmd]
        problems = []
        manifest = _read_json(os.path.join(out, "manifest.json"))
        for path, digest in manifest["inputs"].items():
            if oracles.sha256_file(path) != digest:
                problems.append(f"manifest digest of {path} differs")
        check = getattr(self, "_check_" + cmd)
        problems += check(out)
        self.rows_written[cmd] = sum(
            _count_rows(os.path.join(out, fn)) for fn in os.listdir(out)
            if fn.endswith(".csv"))
        return problems

    def _check_fit(self, out):
        doc = _read_json(os.path.join(out, "coefficients.json"))
        t = self.fit_table
        X = oracles.design_study(t.numeric("x1"), t.numeric("x2"))
        names = ("(Intercept)", "x1", "x2", "x1:x2", "log_phi")
        theta = [doc["terms"][n]["estimate"] for n in names]
        ref = oracles.loglik_ref(theta, X, t.numeric("y"))
        problems = []
        if abs(doc["loglik"] - ref) > 1e-8 * abs(ref):
            problems.append(f"loglik {doc['loglik']!r} vs reference {ref!r}")
        for n, truth in zip(names, TRUTH_BETA):
            term = doc["terms"][n]
            if abs(term["estimate"] - truth) > 4.0 * term["se"]:
                problems.append(f"{n} more than 4 SE from the truth")
        return problems

    def _check_simulate(self, out):
        summary = _read_json(os.path.join(out, "summary.json"))
        problems = []
        if _count_rows(os.path.join(out, "records.csv")) != self.sim_reps:
            problems.append("records.csv row count")
        if summary["failure_counts"]["sltb"]:
            problems.append("study fits failed")
        return problems

    def _check_density(self, out):
        g, dens = _read_columns(os.path.join(out, "density.csv"), ("g", "sltb_pdf"))
        s, l = oracles.S_DEFAULT, oracles.L_DEFAULT
        inner = (g > 0.0) & (g < 1.0)
        ref = np.exp(oracles.sltb_logpdf_ref(g[inner], self.mu, self.phi))
        beta_ref = stats.beta.pdf(g[inner] / s + l, self.mu * self.phi,
                                  (1 - self.mu) * self.phi) / s
        problems = []
        if len(g) != self.grid_n:
            problems.append("grid size")
        if not np.allclose(dens[inner], ref, rtol=1e-9, atol=0.0):
            problems.append("interior values differ from the scipy reference")
        if not np.allclose(dens[inner], beta_ref, rtol=1e-6, atol=0.0):
            problems.append("interior values differ from scipy.stats.beta.pdf")
        ends = dens[~inner]
        if not (np.all(np.isfinite(ends)) and np.all(ends > 0.0)):
            problems.append("boundary densities not finite and positive")
        if abs(np.trapezoid(dens, g) - 1.0) > 1e-6:
            problems.append("density does not integrate to 1")
        return problems

    def _check_draws(self, path, columns, rows):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            n = sum(1 for _ in reader)
        problems = []
        if tuple(header) != tuple(columns):
            problems.append(f"{os.path.basename(path)} columns")
        if n != rows:
            problems.append(f"{os.path.basename(path)} has {n} rows, want {rows}")
        return problems

    def _check_hier_linear(self, out):
        c = self.hl_cfg
        model, _ = bhl.build_hier_model(self.counties)
        cols = (*model.coef_names, "eta", "sigma2",
                *(f"u_{g}" for g in model.group_labels))
        return self._check_draws(os.path.join(out, "draws.csv"), cols,
                                 (c["iters"] - c["burnin"]) // c["thin"])

    def _check_hier_nonlinear(self, out):
        c = self.nl_cfg
        ids = [f"s{i + 1:03d}" for i in range(self.nl_subjects)]
        rows = (c["iters"] - c["burnin"]) // c["thin"]
        return (self._check_draws(
                    os.path.join(out, "draws_sltb.csv"),
                    ["mu_psi", "sigma2_psi", "mu_phi", "sigma2_phi",
                     *(f"psi_{i}" for i in ids), *(f"ln_phi_{i}" for i in ids)], rows)
                + self._check_draws(
                    os.path.join(out, "draws_normal.csv"),
                    ["mu_psi", "sigma2_psi", "sigma2", *(f"psi_{i}" for i in ids)],
                    rows))

    def check(self):
        pass  # every invocation is checked as it completes

    def details(self):
        out = {f"cli.{c}_s": (median(v), "s") for c, v in self.walls.items()}
        out["cli.probes_s"] = (median(self.probe_s), "s")
        for name, got, want in self.probe_results:
            out[f"probe.{name}.exit"] = (got, f"want {want}")
        return out

    def layer_details(self, tr, first):
        out = {}
        for cmd in self.commands:
            wall = tr.select({cmd}, name="main")
            rd = tr.select({cmd}, name="read_csv")
            wr = tr.select({cmd}, name="write_csv")
            out.update({
                f"data.{cmd}.read_csv_s": (rd.total / wall.calls, "s"),
                f"data.{cmd}.write_csv_s": (wr.total / wall.calls, "s"),
                f"data.{cmd}.rows_written": (self.rows_written[cmd], "count"),
                f"data.{cmd}.bytes_written": (_dir_bytes(self.out_dirs[cmd]), "bytes"),
                f"cli.{cmd}.compute_share": (
                    1.0 - (rd.total + wr.total) / wall.total, "share"),
            })
        return out


# ---------------------------------------------------------------------------
# small file helpers
# ---------------------------------------------------------------------------

def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_table(path, table):
    cols = table.column_names
    columns = [table.factor(c) if table.is_factor(c) else table.numeric(c)
               for c in cols]
    data.write_csv(path, cols, list(zip(*columns)))


def _count_rows(path):
    with open(path, newline="") as fh:
        return sum(1 for _ in fh) - 1


def _read_columns(path, names):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return tuple(np.array([float(r[n]) for r in rows]) for n in names)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


WORKLOADS = {w.name: w for w in (MleStudy, HierLinear, HierNonlinear, CliBatch)}
