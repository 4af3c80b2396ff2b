"""Batch command line: fitting, simulation studies, the two hierarchical
samplers, and plot-data export.

Every command writes its outputs plus a manifest.json recording the
resolved configuration, seed, input digests, and toolkit version, so a
run can be replayed byte-for-byte (timing fields and the manifest's own
timestamps excepted).

Exit codes: 0 success, 2 input or validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .bayes_hier_linear import (
    HIER_SPEC,
    build_hier_model,
    posterior_predictive_mse,
    run_chain,
)
from .bayes_hier_nonlinear import (
    DEFAULT_DELAYS,
    DiscountTruth,
    HyperPriors,
    discount_data_from_table,
    gen_discount_data,
    normal_hier_sample,
    sltb_hier_sample,
)
from .data import read_csv, write_csv
from .distributions import (
    DEFAULT_L,
    DEFAULT_S,
    SltbParams,
    beta_logpdf_arrays,
    sltb_pdf,
)
from .errors import (
    BoundaryError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ValidationError,
)
from .regression import RegressionSpec, fit_mle, mse_report, residuals
from .simulation import SimConfig, records_table, run_study

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# scale/location pair that separates the two densities enough to plot
ILLUSTRATION_S = 1.08
ILLUSTRATION_L = 0.04


# ---------------------------------------------------------------------------
# manifest plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    command: List[str]
    config: dict
    seed: Optional[int]
    version: str
    inputs: Dict[str, str]
    started: str
    finished: str


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(out_dir: str, command: List[str], config: dict,
            seed: Optional[int], inputs: Dict[str, str], started: str) -> None:
    manifest = RunManifest(command=command, config=config, seed=seed,
                           version=__version__, inputs=inputs,
                           started=started, finished=_utc_now())
    _write_json(os.path.join(out_dir, "manifest.json"), asdict(manifest))


def _prepare_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _digests(paths: Dict[str, Optional[str]]) -> Dict[str, str]:
    return {p: _sha256(p) for p in paths.values() if p is not None}


# ---------------------------------------------------------------------------
# configuration helpers
# ---------------------------------------------------------------------------

def resolve_seed(flag_seed: Optional[int],
                 config_seed=None) -> int:
    """Precedence: --seed flag, config file, SLTB_DEFAULT_SEED, then 0."""
    for label, value in (("--seed", flag_seed),
                         ("config seed", config_seed),
                         ("SLTB_DEFAULT_SEED", os.environ.get("SLTB_DEFAULT_SEED"))):
        if value is None:
            continue
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ValidationError(f"{label} must be an integer, got {value!r}")
    return 0


def _load_json_object(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON: {e}")
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return obj


def _check_keys(obj: dict, allowed: tuple, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown {what} keys {unknown}; allowed: {sorted(allowed)}")


def _number(obj: dict, key: str, kind, default, what: str = "config"):
    """`obj[key]` (or `default`) as `kind`, int or float; a value that does
    not convert is a ValidationError naming the key."""
    value = obj.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(
            f"{what} '{key}' must be {noun}, got {value!r}") from None


def _optional_int(obj: dict, key: str, default):
    """`_number(obj, key, int, default)`, except that null stays None."""
    if obj.get(key, default) is None:
        return None
    return _number(obj, key, int, default)


def _list_of(obj: dict, key: str, default, kind, noun: str) -> tuple:
    """`obj[key]` (or `default`) as a tuple of `kind`; anything but a JSON
    list of convertible values is a ValidationError naming the key."""
    value = obj.get(key, default)
    try:
        if isinstance(value, (list, tuple)):
            return tuple(kind(v) for v in value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(
        f"config '{key}' must be a list of {noun}, got {value!r}")


def _spec_from_obj(obj, where: str) -> RegressionSpec:
    """Spec object {response, terms[], factors{column: reference}}; `where`
    names its source in error messages."""
    _check_keys(obj, ("response", "terms", "factors"), "spec")
    if "response" not in obj or "terms" not in obj:
        raise ValidationError(f"{where}: spec needs 'response' and 'terms'")
    terms = obj["terms"]
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise ValidationError(f"{where}: 'terms' must be a list of strings")
    factors = obj.get("factors", {})
    if not isinstance(factors, dict):
        raise ValidationError(f"{where}: 'factors' must be an object")
    return RegressionSpec(str(obj["response"]), tuple(terms),
                          {str(k): str(v) for k, v in factors.items()})


def load_spec(path: str) -> RegressionSpec:
    """Model spec file: {response, terms[], factors{column: reference}}."""
    return _spec_from_obj(_load_json_object(path, "spec"), path)


def _spec_snapshot(spec: RegressionSpec) -> dict:
    return {"response": spec.response, "terms": list(spec.terms),
            "factors": dict(spec.factors)}


def _summary_snapshot(summary, extra: Optional[dict] = None) -> dict:
    out = {
        "rows": {name: summary.row(name) for name in summary.names},
        "acceptance_rates": dict(summary.acceptance_rates),
        "n_draws": summary.n_draws,
        "warnings": list(summary.warnings),
    }
    if extra:
        out.update(extra)
    return out


def _emit_warnings(summary) -> None:
    for w in summary.warnings:
        print(f"warning: {w}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(args, started: str) -> None:
    out = _prepare_out(args.out)
    data = read_csv(args.data)
    spec = load_spec(args.spec)
    s = DEFAULT_S if args.s is None else args.s
    l = DEFAULT_L if args.l is None else args.l
    fit = fit_mle(spec, data, family=args.family, s=s, l=l)

    names = list(fit.coef_names) + ["log_phi"]
    est = list(fit.coefficients) + [fit.log_precision]
    rows = [[nm, est[i], fit.se[i], fit.z[i], fit.p[i]]
            for i, nm in enumerate(names)]
    write_csv(os.path.join(out, "coefficients.csv"),
              ["term", "estimate", "se", "z", "p"], rows)
    _write_json(os.path.join(out, "coefficients.json"), {
        "family": fit.family,
        "converged": fit.converged,
        "loglik": fit.loglik,
        "phi": fit.phi(),
        "s": fit.s,
        "l": fit.l,
        "terms": {nm: {"estimate": float(est[i]), "se": float(fit.se[i]),
                       "z": float(fit.z[i]), "p": float(fit.p[i])}
                  for i, nm in enumerate(names)},
    })
    resid = residuals(fit, spec, data)
    y = data.numeric(spec.response)
    write_csv(os.path.join(out, "residuals.csv"),
              ["row", "y", "fitted", "residual"],
              [[i + 1, y[i], y[i] - resid[i], resid[i]]
               for i in range(len(resid))])
    _write_json(os.path.join(out, "mse.json"), mse_report(fit, spec, data))

    config = {"family": args.family, "s": s, "l": l,
              "spec": _spec_snapshot(spec)}
    _finish(out, ["fit", args.data, args.spec], config, None,
            _digests({"data": args.data, "spec": args.spec}), started)


_SIM_KEYS = ("n", "reps", "beta_true", "phi_true", "rounding_decimals",
             "base_seed", "methods")


def cmd_simulate(args, started: str) -> None:
    out = _prepare_out(args.out)
    obj = _load_json_object(args.config, "config")
    _check_keys(obj, _SIM_KEYS, "config")
    for key in ("n", "reps"):
        if key not in obj:
            raise ValidationError(f"config needs '{key}'")
    seed = resolve_seed(args.seed, obj.get("base_seed"))
    cfg = SimConfig(
        n=_number(obj, "n", int, None), reps=_number(obj, "reps", int, None),
        beta_true=_list_of(obj, "beta_true", (1.2, -0.88, 0.43, -0.52),
                           float, "numbers"),
        phi_true=_number(obj, "phi_true", float, 10.0),
        rounding_decimals=_optional_int(obj, "rounding_decimals", 2),
        base_seed=seed)
    methods = _list_of(obj, "methods", ("sltb",), str, "method names")
    report = run_study(cfg, methods=methods, threads=args.threads)

    header, rows = records_table(report)
    write_csv(os.path.join(out, "records.csv"), header, rows)
    _write_json(os.path.join(out, "summary.json"),
                report.to_dict(include_timing=False))
    _write_json(os.path.join(out, "timing.json"),
                {"mean_fit_seconds": dict(report.mean_fit_seconds)})

    config = report.to_dict(include_timing=False)["config"]
    config["methods"] = list(methods)
    config["threads"] = args.threads
    _finish(out, ["simulate", args.config], config, seed,
            _digests({"config": args.config}), started)


_HIER_KEYS = ("iters", "burnin", "thin", "seed", "group", "prior_variance",
              "sigma_upper", "s", "l", "spec")


def cmd_hier_linear(args, started: str) -> None:
    out = _prepare_out(args.out)
    obj = _load_json_object(args.config, "config") if args.config else {}
    _check_keys(obj, _HIER_KEYS, "config")
    seed = resolve_seed(args.seed, obj.get("seed"))
    data = read_csv(args.data)
    spec = _spec_from_obj(obj["spec"], args.config) if "spec" in obj \
        else HIER_SPEC
    config = {
        "iters": _number(obj, "iters", int, 20000),
        "burnin": _number(obj, "burnin", int, 5000),
        "thin": _number(obj, "thin", int, 5),
        "group": str(obj.get("group", "county")),
        "prior_variance": _number(obj, "prior_variance", float, 1e3),
        "sigma_upper": _number(obj, "sigma_upper", float, 20.0),
        "s": _number(obj, "s", float, DEFAULT_S),
        "l": _number(obj, "l", float, DEFAULT_L),
        "spec": _spec_snapshot(spec),
    }
    model, y = build_hier_model(
        data, spec, group=config["group"],
        prior_variance=config["prior_variance"],
        sigma_upper=config["sigma_upper"], s=config["s"], l=config["l"])
    res = run_chain(model, y, iters=config["iters"], burnin=config["burnin"],
                    thin=config["thin"], seed=seed)
    _emit_warnings(res.summary)

    write_csv(os.path.join(out, "draws.csv"), list(res.columns),
              [list(row) for row in res.draws])
    mse_val = posterior_predictive_mse(res, model, y)
    _write_json(os.path.join(out, "summary.json"),
                _summary_snapshot(res.summary,
                                  {"posterior_predictive_mse": mse_val}))
    _finish(out, ["hier-linear", args.data], config, seed,
            _digests({"data": args.data, "config": args.config}), started)


_NONLINEAR_KEYS = ("nsubj", "delays", "truth", "rounding_decimals", "iters",
                   "burnin", "thin", "seed", "models", "priors")
_TRUTH_KEYS = ("mu_psi", "sigma2_psi", "mu_lnphi", "sigma2_lnphi")
_PRIOR_KEYS = ("mu_psi0", "lam2_psi0", "a1", "b1", "mu_phi0", "lam2_phi0",
               "a2", "b2")


def cmd_hier_nonlinear(args, started: str) -> None:
    out = _prepare_out(args.out)
    obj = _load_json_object(args.config, "config") if args.config else {}
    _check_keys(obj, _NONLINEAR_KEYS, "config")
    seed = resolve_seed(args.seed, obj.get("seed"))
    models = _list_of(obj, "models", ("sltb", "normal"), str, "model names")
    for m in models:
        if m not in ("sltb", "normal"):
            raise ValidationError(f"unknown model '{m}', expected sltb or normal")
    if not models:
        raise ValidationError("config 'models' must name at least one model")
    prior_obj = obj.get("priors", {})
    _check_keys(prior_obj, _PRIOR_KEYS, "priors")
    priors = HyperPriors(**{k: _number(prior_obj, k, float, None, "priors")
                            for k in prior_obj})
    config = {
        "iters": _number(obj, "iters", int, 20000),
        "burnin": _number(obj, "burnin", int, 5000),
        "thin": _number(obj, "thin", int, 5),
        "models": list(models),
        "priors": asdict(priors),
    }

    if args.data is not None:
        for key in ("nsubj", "delays", "truth", "rounding_decimals"):
            if key in obj:
                raise ValidationError(
                    f"config key '{key}' only applies when simulating; "
                    "remove it or drop --data")
        data = discount_data_from_table(read_csv(args.data))
        config["source"] = "file"
    else:
        truth_obj = obj.get("truth", {})
        _check_keys(truth_obj, _TRUTH_KEYS, "truth")
        truth = DiscountTruth(**{k: _number(truth_obj, k, float, None, "truth")
                                 for k in truth_obj})
        rounding = _optional_int(obj, "rounding_decimals", None)
        samp = gen_discount_data(
            nsubj=_number(obj, "nsubj", int, 100),
            delays=_list_of(obj, "delays", DEFAULT_DELAYS, float, "numbers"),
            truth=truth, seed=seed, rounding_decimals=rounding)
        data = samp.data
        write_csv(os.path.join(out, "data.csv"), data.to_table())
        config.update({
            "source": "simulated", "nsubj": data.n_subjects,
            "delays": list(data.delays), "truth": asdict(truth),
            "rounding_decimals": rounding})

    report = {}
    # chain seeds are offset so neither stream repeats the generator's
    for offset, name in enumerate(models, start=1):
        if name == "sltb":
            res = sltb_hier_sample(data, priors, iters=config["iters"],
                                   burnin=config["burnin"],
                                   seed=seed + offset, thin=config["thin"])
            group_names = ("mu_psi", "sigma2_psi", "mu_phi", "sigma2_phi")
        else:
            res = normal_hier_sample(data, priors, iters=config["iters"],
                                     burnin=config["burnin"],
                                     seed=seed + offset, thin=config["thin"])
            group_names = ("mu_psi", "sigma2_psi", "sigma2")
        _emit_warnings(res.summary)
        write_csv(os.path.join(out, f"draws_{name}.csv"), list(res.columns),
                  [list(row) for row in res.draws])
        _write_json(os.path.join(out, f"summary_{name}.json"),
                    _summary_snapshot(res.summary))
        report[name] = {g: res.summary.row(g) for g in group_names}
    _write_json(os.path.join(out, "report.json"), report)

    command = ["hier-nonlinear"] + ([args.data] if args.data else [])
    _finish(out, command, config, seed,
            _digests({"data": args.data, "config": args.config}), started)


def cmd_density(args, started: str) -> None:
    out = _prepare_out(args.out)
    if args.grid_n < 2:
        raise ValidationError(f"grid-n must be at least 2, got {args.grid_n}")
    if args.preset == "illustration":
        s = ILLUSTRATION_S if args.s is None else args.s
        l = ILLUSTRATION_L if args.l is None else args.l
    else:
        s = DEFAULT_S if args.s is None else args.s
        l = DEFAULT_L if args.l is None else args.l
    params = SltbParams(args.mu, args.phi, s, l)
    g = np.linspace(0.0, 1.0, args.grid_n)
    interior = (g > 0.0) & (g < 1.0)
    with np.errstate(all="ignore"):  # non-finite values are refused below
        dens = sltb_pdf(params, g)
        beta_vals = np.exp(beta_logpdf_arrays(args.mu, args.phi, g[interior]))
    for name, grid, vals in (("sltb_pdf", g, dens),
                             ("beta_pdf", g[interior], beta_vals)):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise NumericalError(
                f"{name} is {float(vals[i])} at grid point g={float(grid[i])!r}; "
                "no density.csv written")
    beta_col = np.full(args.grid_n, None)  # beta is undefined at 0 and 1
    beta_col[interior] = beta_vals
    write_csv(os.path.join(out, "density.csv"), ["g", "sltb_pdf", "beta_pdf"],
              zip(g, dens, beta_col))
    config = {"mu": args.mu, "phi": args.phi, "s": s, "l": l,
              "grid_n": args.grid_n, "preset": args.preset}
    _finish(out, ["density"], config, None, {}, started)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sltb",
        description="Bounded-response toolkit: boundary-tolerant beta "
                    "regression, simulation studies, hierarchical samplers, "
                    "and density export.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fit", help="maximum-likelihood regression fit")
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--spec", required=True,
                   help="model spec JSON: {response, terms, factors}")
    p.add_argument("--family", choices=("sltb", "beta"), default="sltb")
    p.add_argument("--s", type=float, default=None, help="scale parameter")
    p.add_argument("--l", type=float, default=None, help="location parameter")
    p.add_argument("--out", default="sltb_out", help="output directory")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("simulate", help="Monte Carlo recovery study")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (overrides config and SLTB_DEFAULT_SEED)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for replications")
    p.add_argument("--out", default="sltb_out")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("hier-linear",
                       help="random-intercept sampler on tabular data")
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--config", default=None, help="chain config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="sltb_out")
    p.set_defaults(handler=cmd_hier_linear)

    p = sub.add_parser("hier-nonlinear",
                       help="delay-discounting samplers, simulated or from CSV")
    p.add_argument("--data", default=None,
                   help="indifference-point CSV (subject, delay, y); "
                        "omit to simulate per the config")
    p.add_argument("--config", default=None, help="chain config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="sltb_out")
    p.set_defaults(handler=cmd_hier_nonlinear)

    p = sub.add_parser("density", help="density curves on a unit grid")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--preset", choices=("illustration",), default=None,
                   help="scale/location pair that visibly separates the "
                        "curves (s=1.08, l=0.04)")
    p.add_argument("--grid-n", type=int, default=201)
    p.add_argument("--out", default="sltb_out")
    p.set_defaults(handler=cmd_density)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = _utc_now()
    try:
        args.handler(args, started)
        return EXIT_OK
    except (ValidationError, DomainError, BoundaryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
