"""Batch command line: fitting, simulation studies, the two hierarchical
samplers, and plot-data export.

A command computes its outputs; `main` writes all of them, or none, plus
a manifest.json recording the resolved configuration, seed, input digests,
toolkit version and run environment, so a run replays byte-for-byte (timing
fields and the manifest's timestamps excepted). JSON outputs are strict.

Exit codes: 0 success, 2 input or validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .bayes_hier_linear import (
    build_hier_model,
    posterior_predictive_mse,
    run_chain,
)
from .bayes_hier_nonlinear import (
    DiscountTruth,
    HyperPriors,
    discount_data_from_table,
    gen_discount_data,
    normal_hier_sample,
    sltb_hier_sample,
)
from .chain import check_lengths
from .data import TabularDataset, read_csv, write_csv
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


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_outputs(out: str, outputs: dict) -> None:
    """Write each `.json` output as strict JSON and each other output, a
    TabularDataset or (header, rows), as a CSV into `out`. Every output is
    checked first: a NaN or inf, in a JSON output or a float cell of a CSV,
    raises NumericalError before `out` exists."""
    texts, tables = {}, {}
    for name, obj in outputs.items():
        if name.endswith(".json"):
            try:
                texts[name] = json.dumps(obj, indent=2, sort_keys=True,
                                         allow_nan=False)
            except ValueError as e:
                raise NumericalError(f"{name} not written: {e}")
        elif isinstance(obj, TabularDataset):  # its numeric columns are finite
            tables[name] = (obj,)
        else:
            header, rows = obj
            if not isinstance(rows, np.ndarray):
                rows = list(rows)  # a zip can be read only once
            _refuse_non_finite(name, header, rows)
            tables[name] = (header, rows)
    os.makedirs(out, exist_ok=True)
    for name, args in tables.items():
        write_csv(os.path.join(out, name), *args)
    for name, text in texts.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _refuse_non_finite(name: str, header, rows) -> None:
    """NumericalError naming the column and the 1-based row of the first
    NaN or infinite float cell of the CSV output `name`."""
    columns = rows.T if isinstance(rows, np.ndarray) else zip(*rows)
    for column, cells in zip(header, columns):
        try:  # None converts to NaN, so a flagged cell must be a float
            flagged = np.flatnonzero(~np.isfinite(np.asarray(cells, dtype=float)))
        except (TypeError, ValueError, OverflowError):  # a text cell
            flagged = range(len(cells))
        for i in flagged:
            cell = cells[i]
            if isinstance(cell, (float, np.floating)) and not np.isfinite(cell):
                raise NumericalError(f"{name} not written: column {column} is "
                                     f"{float(cell)} in row {i + 1}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def resolve_seed(flag_seed: Optional[int], config_seed=None,
                 config_key: str = "seed") -> int:
    """Precedence: --seed flag, config file, SLTB_DEFAULT_SEED, then 0.
    A value that is not a nonnegative integer is refused, naming its source."""
    for label, value in (("--seed", flag_seed),
                         (f"config '{config_key}'", config_seed),
                         ("SLTB_DEFAULT_SEED", os.environ.get("SLTB_DEFAULT_SEED"))):
        if value is None:
            continue
        try:
            if int(value) >= 0:
                return int(value)
        except (TypeError, ValueError):
            pass
        raise ValidationError(f"{label} must be a nonnegative integer, got {value!r}")
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


_REQUIRED = inspect.Parameter.empty


def _read_config(obj: dict, schema: dict, what: str) -> dict:
    """Every key of `schema`, converted from `obj` or else its default.

    `schema` maps a key to (converter, the noun error messages use for
    its values, default); a `_REQUIRED` default makes the key required.
    An unknown key, a missing required key or a value that will not
    convert is a ValidationError naming the key.
    """
    _check_keys(obj, tuple(schema), what)
    out = {}
    for key, (convert, noun, default) in schema.items():
        if key not in obj and default is _REQUIRED:
            raise ValidationError(f"{what} needs '{key}'")
        try:
            out[key] = convert(obj[key]) if key in obj else default
        except ValidationError:
            raise  # a nested object's own message
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"{what} '{key}' must be {noun}, got {obj[key]!r}") from None
    return out


def _schema(owner, **kinds) -> dict:
    """A schema over the keys of `kinds`, each (converter, noun), with the
    default that `owner`, a function or a dataclass, declares for the
    parameter of the same name."""
    params = inspect.signature(owner).parameters
    return {key: (*kind, params[key].default) for key, kind in kinds.items()}


def _list_of(kind):
    def convert(value):
        if not isinstance(value, list):
            raise TypeError(value)
        return tuple(kind(v) for v in value)
    return convert


def _numbers_object(cls, what: str):
    """Converter of a JSON object of numbers to the dataclass `cls`."""
    schema = {f.name: (*_NUMBER, f.default) for f in fields(cls)}
    return lambda obj: cls(**_read_config(obj, schema, what))


def _number(value) -> float:
    """A finite JSON number: not a boolean, a string, NaN or an infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if not np.isfinite(value):
        raise ValueError(value)
    return float(value)


def _integer(value) -> int:
    """A JSON number with an integral value, such as 20 or 20.0."""
    if _number(value) != int(value):
        raise ValueError(value)
    return int(value)


_INT = (_integer, "an integer")
_NUMBER = (_number, "a number")
_OPTIONAL_INT = (lambda v: None if v is None else _integer(v), "an integer")
_NUMBERS = (_list_of(_number), "a list of numbers")
_AS_GIVEN = (lambda v: v, "")  # checked where it is used
_SEED = (*_OPTIONAL_INT, None)  # absent, resolve_seed falls back further

# posterior rows each sampler reports for its group layers
_GROUP_NAMES = {"sltb": ("mu_psi", "sigma2_psi", "mu_phi", "sigma2_phi"),
                "normal": ("mu_psi", "sigma2_psi", "sigma2")}

_CHAIN = _schema(run_chain, iters=_INT, burnin=_INT, thin=_INT)  # both samplers
_SIMULATE = {
    **_schema(SimConfig, n=_INT, reps=_INT, beta_true=_NUMBERS,
              phi_true=_NUMBER, rounding_decimals=_OPTIONAL_INT),
    **_schema(run_study, methods=(_list_of(str), "a list of method names")),
    "base_seed": _SEED,
}
_HIER_MODEL = _schema(build_hier_model, spec=_AS_GIVEN, group=(str, "a string"),
                      prior_variance=_NUMBER, sigma_upper=_NUMBER,
                      s=_NUMBER, l=_NUMBER)
_HIER_LINEAR = {**_CHAIN, **_HIER_MODEL, "seed": _SEED}
_SIMULATED = _schema(  # the keys that only apply when simulating
    gen_discount_data, nsubj=_INT, delays=_NUMBERS,
    truth=(_numbers_object(DiscountTruth, "truth"), "an object"),
    rounding_decimals=_OPTIONAL_INT)
_HIER_NONLINEAR = {
    **_CHAIN, **_SIMULATED, "seed": _SEED,
    "models": (_list_of(str), "a list of model names", tuple(_GROUP_NAMES)),
    **_schema(sltb_hier_sample,
              priors=(_numbers_object(HyperPriors, "priors"), "an object")),
}


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


def _summary_snapshot(summary) -> dict:
    return {
        "rows": {name: summary.row(name) for name in summary.names},
        "acceptance_rates": dict(summary.acceptance_rates),
        "n_draws": summary.n_draws,
        "warnings": list(summary.warnings),
    }


def _emit_warnings(summary) -> None:
    for w in summary.warnings:
        print(f"warning: {w}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands: each computes, writes nothing, and returns the manifest's
# (command, config, seed, input paths) and its outputs for `write_outputs`
# ---------------------------------------------------------------------------

def cmd_fit(args):
    data = read_csv(args.data)
    spec = load_spec(args.spec)
    fit = fit_mle(spec, data, family=args.family, s=args.s, l=args.l)

    rows = list(zip(fit.coef_names + ("log_phi",), fit.theta(), fit.se, fit.z,
                    fit.p))
    resid = residuals(fit, spec, data)
    y = data.numeric(spec.response)
    outputs = {
        "coefficients.csv": (["term", "estimate", "se", "z", "p"], rows),
        "coefficients.json": {
            "family": fit.family,
            "converged": fit.converged,
            "evaluations": fit.evaluations,
            "score_max": fit.score_max,
            "loglik": fit.loglik,
            "phi": fit.phi(),
            "s": fit.s,
            "l": fit.l,
            "terms": {nm: dict(zip(("estimate", "se", "z", "p"), map(float, row)))
                      for nm, *row in rows},
        },
        "residuals.csv": (["row", "y", "fitted", "residual"],
                          zip(range(1, y.size + 1), y, y - resid, resid)),
        "mse.json": mse_report(fit, spec, data, resid),
    }
    config = {"family": args.family, "s": args.s, "l": args.l,
              "spec": asdict(spec)}
    inputs = [args.data, args.spec]
    return ["fit", *inputs], config, None, inputs, outputs


def cmd_simulate(args):
    cfg = _read_config(_load_json_object(args.config, "config"), _SIMULATE,
                       "config")
    seed = resolve_seed(args.seed, cfg.pop("base_seed"), "base_seed")
    methods = cfg.pop("methods")
    report = run_study(SimConfig(**cfg, base_seed=seed), methods=methods,
                       threads=args.threads)

    summary = report.to_dict(include_timing=False)
    outputs = {
        "records.csv": records_table(report),
        "summary.json": summary,
        "timing.json": {"mean_fit_seconds": dict(report.mean_fit_seconds)},
    }
    config = {**summary["config"], "methods": list(methods),
              "threads": args.threads}
    return ["simulate", args.config], config, seed, [args.config], outputs


def cmd_hier_linear(args):
    obj = _load_json_object(args.config, "config") if args.config else {}
    config = _read_config(obj, _HIER_LINEAR, "config")
    lengths = {key: config[key] for key in _CHAIN}
    check_lengths(**lengths)
    seed = resolve_seed(args.seed, config.pop("seed"))
    if "spec" in obj:
        config["spec"] = _spec_from_obj(obj["spec"], args.config)
    data = read_csv(args.data)
    model, y = build_hier_model(data, **{key: config[key] for key in _HIER_MODEL})
    res = run_chain(model, y, seed=seed, **lengths)
    _emit_warnings(res.summary)

    summary = _summary_snapshot(res.summary)
    summary["posterior_predictive_mse"] = posterior_predictive_mse(res, model, y)
    outputs = {"draws.csv": (res.columns, res.draws), "summary.json": summary}
    config["spec"] = asdict(config["spec"])
    return (["hier-linear", args.data], config, seed, [args.data, args.config],
            outputs)


def cmd_hier_nonlinear(args):
    obj = _load_json_object(args.config, "config") if args.config else {}
    cfg = _read_config(obj, _HIER_NONLINEAR, "config")
    lengths = {key: cfg[key] for key in _CHAIN}
    check_lengths(**lengths)
    seed = resolve_seed(args.seed, cfg["seed"])
    models = cfg["models"]
    for m in models:
        if m not in _GROUP_NAMES:
            raise ValidationError(f"unknown model '{m}', expected sltb or normal")
    if not models:
        raise ValidationError("config 'models' must name at least one model")
    config = {**lengths, "models": list(models),
              "priors": asdict(cfg["priors"])}
    outputs = {}

    if args.data is not None:
        for key in _SIMULATED:
            if key in obj:
                raise ValidationError(
                    f"config key '{key}' only applies when simulating; "
                    "remove it or drop --data")
        data = discount_data_from_table(read_csv(args.data))
        config["source"] = "file"
    else:
        data = gen_discount_data(
            seed=seed, **{key: cfg[key] for key in _SIMULATED}).data
        outputs["data.csv"] = data.to_table()
        config.update({
            "source": "simulated", "nsubj": data.n_subjects,
            "delays": list(data.delays), "truth": asdict(cfg["truth"]),
            "rounding_decimals": cfg["rounding_decimals"]})

    report = {}
    # chain seeds are offset so neither stream repeats the generator's
    for offset, name in enumerate(models, start=1):
        sample = sltb_hier_sample if name == "sltb" else normal_hier_sample
        res = sample(data, cfg["priors"], seed=seed + offset, **lengths)
        _emit_warnings(res.summary)
        outputs[f"draws_{name}.csv"] = (res.columns, res.draws)
        outputs[f"summary_{name}.json"] = _summary_snapshot(res.summary)
        report[name] = {g: res.summary.row(g) for g in _GROUP_NAMES[name]}
    outputs["report.json"] = report

    command = ["hier-nonlinear"] + ([args.data] if args.data else [])
    return command, config, seed, [args.data, args.config], outputs


def cmd_density(args):
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
    with np.errstate(all="ignore"):  # `write_outputs` refuses non-finite values
        dens = sltb_pdf(params, g)
        beta_vals = np.exp(beta_logpdf_arrays(args.mu, args.phi, g[interior]))
    beta_col = np.full(args.grid_n, None)  # beta is undefined at 0 and 1
    beta_col[interior] = beta_vals
    # one object array: numpy checks its floats and None stays an empty cell
    outputs = {"density.csv": (["g", "sltb_pdf", "beta_pdf"],
                               np.column_stack((g, dens, beta_col)))}
    config = {"mu": args.mu, "phi": args.phi, "s": s, "l": l,
              "grid_n": args.grid_n, "preset": args.preset}
    return ["density"], config, None, [], outputs


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
    p.add_argument("--s", type=float, default=DEFAULT_S, help="scale parameter")
    p.add_argument("--l", type=float, default=DEFAULT_L,
                   help="location parameter")
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
        command, config, seed, inputs, outputs = args.handler(args)
        outputs["manifest.json"] = {
            "command": command, "config": config, "seed": seed,
            "version": __version__, "environment": {
                "python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "cpu_count": os.cpu_count()},
            "inputs": {p: _sha256(p) for p in inputs if p is not None},
            "started": started, "finished": _utc_now()}
        write_outputs(args.out, outputs)
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
