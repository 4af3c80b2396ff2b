"""Command-line surface: outputs, manifests, exit codes, determinism."""

import csv
import inspect
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import scipy

import sltb
from sltb.bayes_hier_linear import build_hier_model, gen_alcohol_fixture, run_chain
from sltb.bayes_hier_nonlinear import (
    DiscountTruth,
    HyperPriors,
    gen_discount_data,
    normal_hier_sample,
    sltb_hier_sample,
)
from sltb.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    load_spec,
    main,
    resolve_seed,
    write_outputs,
)
from sltb.data import TabularDataset, read_csv, write_csv
from sltb.errors import NumericalError, ValidationError
from sltb.simulation import McStudyReport, SimConfig, gen_dataset


def test_write_csv_dataset_round_trip(tmp_path):
    table = TabularDataset({
        "y": np.array([0.0, 0.25, 1.0, 1 / 3]),
        "county": ["c2", "c10", "c2", "c1"],
        "x": np.array([-1.5, 2.0, 1e-9, 7.0]),
    })
    path = tmp_path / "table.csv"
    write_csv(str(path), table)
    back = read_csv(str(path))
    assert back.column_names == ("y", "county", "x")
    assert back.factor("county") == table.factor("county")
    for name in ("y", "x"):
        assert back.numeric(name).tobytes() == table.numeric(name).tobytes()
    with pytest.raises(TypeError):
        write_csv(str(path), table, [[1.0, "c1", 2.0]])


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def _stable_manifest(out_dir):
    m = _read_manifest(out_dir)
    m.pop("started"), m.pop("finished")
    return m


@pytest.fixture(scope="module")
def fit_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fit_inputs")
    table = gen_dataset(SimConfig(n=60, reps=1, base_seed=4), 0)
    write_csv(str(root / "data.csv"), table)
    (root / "spec.json").write_text(json.dumps(
        {"response": "y", "terms": ["x1", "x2", "x1:x2"]}))
    return root


@pytest.fixture(scope="module")
def alcohol_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("alc_inputs")
    fx = gen_alcohol_fixture(n_counties=8, rows=160, seed=99)
    write_csv(str(root / "alc.csv"), fx.data)
    return root / "alc.csv"


@pytest.fixture(scope="module")
def alcohol_zeros_csv(tmp_path_factory):
    # rounded to 3 decimals, 7 of the 160 responses are exact zeros
    root = tmp_path_factory.mktemp("alc_zeros_inputs")
    fx = gen_alcohol_fixture(n_counties=8, rows=160, seed=99, rounding_decimals=3)
    write_csv(str(root / "alc3.csv"), fx.data)
    return root / "alc3.csv"


# --- seed resolution --------------------------------------------------------

def test_seed_precedence(monkeypatch):
    monkeypatch.delenv("SLTB_DEFAULT_SEED", raising=False)
    assert resolve_seed(None, None) == 0
    assert resolve_seed(None, 7) == 7
    assert resolve_seed(3, 7) == 3
    monkeypatch.setenv("SLTB_DEFAULT_SEED", "41")
    assert resolve_seed(None, None) == 41
    assert resolve_seed(None, 7) == 7
    monkeypatch.setenv("SLTB_DEFAULT_SEED", "nope")
    with pytest.raises(ValidationError):
        resolve_seed(None, None)


def test_load_spec_validation(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"response": "y", "terms": ["x"], "junk": 1}))
    with pytest.raises(ValidationError):
        load_spec(str(p))
    p.write_text(json.dumps({"terms": ["x"]}))
    with pytest.raises(ValidationError):
        load_spec(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        load_spec(str(p))
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        load_spec(str(p))


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- fit ---------------------------------------------------------------------

def test_fit_outputs(fit_files, tmp_path):
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(fit_files / "data.csv"),
               "--spec", str(fit_files / "spec.json"), "--out", str(out)])
    assert rc == EXIT_OK
    for name in ("coefficients.csv", "coefficients.json", "residuals.csv",
                 "mse.json", "manifest.json"):
        assert (out / name).exists()
    coefs = _read_rows(out / "coefficients.csv")
    assert [r["term"] for r in coefs] == [
        "(Intercept)", "x1", "x2", "x1:x2", "log_phi"]
    assert all(float(r["se"]) > 0 for r in coefs)
    doc = json.loads((out / "coefficients.json").read_text())
    assert doc["converged"] and doc["evaluations"] > 0
    assert 0.0 <= doc["score_max"] < 1e-4
    resid = _read_rows(out / "residuals.csv")
    assert len(resid) == 60
    back = [float(r["y"]) - float(r["fitted"]) for r in resid]
    assert back == pytest.approx([float(r["residual"]) for r in resid])
    report = json.loads((out / "mse.json").read_text())
    assert set(report) == {"overall", "boundary_ones", "boundary_zeros",
                           "n", "n_ones", "n_zeros"}
    manifest = _read_manifest(out)
    assert manifest["version"]
    assert len(manifest["inputs"]) == 2
    assert all(len(d) == 64 for d in manifest["inputs"].values())
    assert manifest["seed"] is None
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count()}


def test_fit_mse_json_is_strict_json(fit_files, tmp_path):
    # the fixture holds exact 1s but no exact 0, so one subset is empty
    out = tmp_path / "out"
    assert main(["fit", "--data", str(fit_files / "data.csv"),
                 "--spec", str(fit_files / "spec.json"),
                 "--out", str(out)]) == EXIT_OK

    def refuse(name):
        raise ValueError(f"{name} in mse.json")

    report = json.loads((out / "mse.json").read_text(),
                        parse_constant=refuse)
    assert report["n_ones"] > 0 and report["n_zeros"] == 0
    assert report["boundary_ones"] > 0.0 and report["overall"] > 0.0
    assert report["boundary_zeros"] is None


def test_write_json_refuses_non_finite_values(fit_files, tmp_path,
                                              monkeypatch, capsys):
    out = tmp_path / "x"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericalError, match="x.json not written"):
            write_outputs(str(out), {"a.csv": (["v"], [[1.0]]),
                                     "x.json": {"value": [1.0, bad]}})
        assert not out.exists()
    # a command whose output would hold NaN exits 3 and writes nothing
    monkeypatch.setattr(sltb.cli, "mse_report",
                        lambda *args: {"overall": float("nan")})
    out = tmp_path / "out"
    assert main(["fit", "--data", str(fit_files / "data.csv"),
                 "--spec", str(fit_files / "spec.json"),
                 "--out", str(out)]) == EXIT_NUMERICAL
    assert "mse.json not written" in capsys.readouterr().err
    assert not out.exists()


def test_fit_replay_byte_identical(fit_files, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["fit", "--data", str(fit_files / "data.csv"),
                     "--spec", str(fit_files / "spec.json"),
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for name in ("coefficients.csv", "coefficients.json", "residuals.csv",
                 "mse.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert _stable_manifest(outs[0]) == _stable_manifest(outs[1])


def test_fit_beta_family_boundary_exit(fit_files, tmp_path, capsys):
    rc = main(["fit", "--data", str(fit_files / "data.csv"),
               "--spec", str(fit_files / "spec.json"),
               "--family", "beta", "--out", str(tmp_path / "out")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "boundary rows" in err


def test_fit_intercept_only(fit_files, tmp_path):
    spec = tmp_path / "spec0.json"
    spec.write_text(json.dumps({"response": "y", "terms": []}))
    out = tmp_path / "out"
    assert main(["fit", "--data", str(fit_files / "data.csv"),
                 "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    coefs = _read_rows(out / "coefficients.csv")
    assert [r["term"] for r in coefs] == ["(Intercept)", "log_phi"]


def test_fit_near_separation_exits_3_naming_the_direction(tmp_path, capsys):
    # the mle-study benchmark's pinned n=20 set, whose three exact 1s the
    # coefficients can push toward mu = 1 without bound
    write_csv(str(tmp_path / "data.csv"),
              gen_dataset(SimConfig(n=20, reps=16, base_seed=18003000), 3))
    (tmp_path / "spec.json").write_text(json.dumps(
        {"response": "y", "terms": ["x1", "x2", "x1:x2"]}))
    out = tmp_path / "out"
    assert main(["fit", "--data", str(tmp_path / "data.csv"),
                 "--spec", str(tmp_path / "spec.json"),
                 "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "near-zero curvature" in err and "x1:x2" in err
    assert not out.exists()


def test_fit_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x\n0.5,1\n0.4\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"response": "y", "terms": ["x"]}))
    rc = main(["fit", "--data", str(bad), "--spec", str(spec),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_VALIDATION
    assert "line 3" in capsys.readouterr().err


# --- simulate ------------------------------------------------------------------

def sim_config(tmp_path, **overrides):
    cfg = {"n": 20, "reps": 6, "base_seed": 3}
    cfg.update(overrides)
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    return p


def test_simulate_deterministic(tmp_path):
    cfg = sim_config(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    assert ((outs[0] / "summary.json").read_bytes()
            == (outs[1] / "summary.json").read_bytes())
    # per-replication records match once wall-clock columns are dropped
    for rows in zip(_read_rows(outs[0] / "records.csv"),
                    _read_rows(outs[1] / "records.csv")):
        a, b = ({k: v for k, v in r.items() if not k.endswith("_seconds")}
                for r in rows)
        assert a == b
    assert (outs[0] / "timing.json").exists()
    assert _stable_manifest(outs[0]) == _stable_manifest(outs[1])
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert "mean_fit_seconds" not in summary
    assert summary["config"]["base_seed"] == 3


def test_simulate_seed_flag_wins(tmp_path, monkeypatch):
    monkeypatch.setenv("SLTB_DEFAULT_SEED", "99")
    cfg = sim_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--seed", "11",
                 "--out", str(out)]) == EXIT_OK
    manifest = _read_manifest(out)
    assert manifest["seed"] == 11
    assert manifest["config"]["base_seed"] == 11


def test_simulate_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SLTB_DEFAULT_SEED", "5")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 20, "reps": 2}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert _read_manifest(out)["seed"] == 5


def test_simulate_config_validation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 20}))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o1")]) == EXIT_VALIDATION
    cfg.write_text(json.dumps({"n": 20, "reps": 2, "extra": True}))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o2")]) == EXIT_VALIDATION
    cfg.write_text(json.dumps({"n": 20, "reps": 0}))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o3")]) == EXIT_VALIDATION
    capsys.readouterr()


# --- hier-linear -----------------------------------------------------------------

def test_hier_linear_run_and_determinism(alcohol_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": 300, "burnin": 100, "thin": 2}))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["hier-linear", "--data", str(alcohol_csv),
                     "--config", str(cfg), "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    assert ((outs[0] / "draws.csv").read_bytes()
            == (outs[1] / "draws.csv").read_bytes())
    assert ((outs[0] / "summary.json").read_bytes()
            == (outs[1] / "summary.json").read_bytes())
    summary = json.loads((outs[0] / "summary.json").read_text())
    names = set(summary["rows"])
    assert {"(Intercept)", "medDays", "genderM", "grade9", "grade11",
            "grade9:genderM", "grade11:genderM", "eta", "sigma2"} <= names
    assert sum(1 for n in names if n.startswith("u_")) == 8
    assert summary["posterior_predictive_mse"] > 0.0
    assert summary["n_draws"] == 100
    header = (outs[0] / "draws.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "(Intercept)"


def test_hier_linear_validation(alcohol_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": 100, "burnin": 100}))
    assert main(["hier-linear", "--data", str(alcohol_csv), "--config",
                 str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    capsys.readouterr()


# --- hier-nonlinear -----------------------------------------------------------------

def nl_config(tmp_path, **overrides):
    cfg = {"nsubj": 8, "iters": 220, "burnin": 60, "thin": 2}
    cfg.update(overrides)
    p = tmp_path / "nl.json"
    p.write_text(json.dumps(cfg))
    return p


def test_hier_nonlinear_simulated_run(tmp_path):
    cfg = nl_config(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["hier-nonlinear", "--config", str(cfg), "--seed", "2",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for name in ("data.csv", "draws_sltb.csv", "summary_sltb.json",
                 "draws_normal.csv", "summary_normal.json", "report.json",
                 "manifest.json"):
        assert (outs[0] / name).exists()
    for name in ("data.csv", "draws_sltb.csv", "draws_normal.csv",
                 "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[0] / "report.json").read_text())
    assert set(report) == {"sltb", "normal"}
    assert set(report["sltb"]) == {"mu_psi", "sigma2_psi", "mu_phi",
                                   "sigma2_phi"}
    assert set(report["normal"]) == {"mu_psi", "sigma2_psi", "sigma2"}
    row = report["sltb"]["mu_psi"]
    assert row["q025"] <= row["median"] <= row["q975"]


def test_hier_nonlinear_from_file(tmp_path):
    samp = gen_discount_data(nsubj=6, seed=13)
    data_path = tmp_path / "points.csv"
    write_csv(str(data_path), samp.data.to_table())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"iters": 200, "burnin": 50, "thin": 2, "models": ["sltb"]}))
    out = tmp_path / "out"
    assert main(["hier-nonlinear", "--data", str(data_path), "--config",
                 str(cfg), "--seed", "4", "--out", str(out)]) == EXIT_OK
    assert (out / "draws_sltb.csv").exists()
    assert not (out / "draws_normal.csv").exists()
    assert not (out / "data.csv").exists()  # input mode writes no copy
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"sltb"}
    manifest = _read_manifest(out)
    assert manifest["config"]["source"] == "file"


def test_hier_nonlinear_duplicate_rows_exit_2(tmp_path, capsys):
    table = gen_discount_data(nsubj=3, seed=13).data.to_table()
    data_path = tmp_path / "points.csv"
    write_csv(str(data_path), TabularDataset({
        "subject": table.factor("subject") + ("s001",),
        "delay": np.append(table.numeric("delay"), 7.0),
        "y": np.append(table.numeric("y"), 0.5)}))
    capsys.readouterr()
    assert main(["hier-nonlinear", "--data", str(data_path),
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "subject 's001' has more than one row at delay 7.0" in err
    assert "Traceback" not in err


def test_hier_nonlinear_config_conflicts(tmp_path, capsys):
    samp = gen_discount_data(nsubj=4, seed=1)
    data_path = tmp_path / "points.csv"
    write_csv(str(data_path), samp.data.to_table())
    cfg = nl_config(tmp_path)  # nsubj only makes sense when simulating
    assert main(["hier-nonlinear", "--data", str(data_path), "--config",
                 str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    cfg2 = nl_config(tmp_path, models=["zoib"])
    assert main(["hier-nonlinear", "--config", str(cfg2),
                 "--out", str(tmp_path / "o2")]) == EXIT_VALIDATION
    cfg3 = nl_config(tmp_path, iters=50, burnin=50)
    assert main(["hier-nonlinear", "--config", str(cfg3),
                 "--out", str(tmp_path / "o3")]) == EXIT_VALIDATION
    capsys.readouterr()


# --- density -----------------------------------------------------------------------

def test_density_matches_beta_inside(tmp_path):
    out = tmp_path / "out"
    assert main(["density", "--mu", "0.5", "--phi", "4",
                 "--out", str(out)]) == EXIT_OK
    rows = _read_rows(out / "density.csv")
    assert len(rows) == 201
    interior = [r for r in rows if 0.0 < float(r["g"]) < 1.0]
    gap = max(abs(float(r["sltb_pdf"]) - float(r["beta_pdf"]))
              for r in interior)
    assert gap < 1e-6
    for r in (rows[0], rows[-1]):
        assert r["beta_pdf"] == ""  # undefined at the boundary
        assert float(r["sltb_pdf"]) > 0.0
        assert np.isfinite(float(r["sltb_pdf"]))


def test_density_uniform_grid(tmp_path):
    out = tmp_path / "out"
    assert main(["density", "--mu", "0.5", "--phi", "2",
                 "--out", str(out)]) == EXIT_OK
    rows = _read_rows(out / "density.csv")
    assert all(float(r["sltb_pdf"]) == pytest.approx(1.0, abs=1e-6)
               for r in rows)


def test_density_preset_separates_curves(tmp_path):
    out = tmp_path / "out"
    assert main(["density", "--mu", "0.5", "--phi", "4",
                 "--preset", "illustration", "--out", str(out)]) == EXIT_OK
    manifest = _read_manifest(out)
    assert manifest["config"]["s"] == 1.08
    assert manifest["config"]["l"] == 0.04
    rows = _read_rows(out / "density.csv")
    gap = max(abs(float(r["sltb_pdf"]) - float(r["beta_pdf"]))
              for r in rows if r["beta_pdf"])
    assert gap > 0.01
    # explicit flags still win over the preset
    out2 = tmp_path / "out2"
    assert main(["density", "--mu", "0.5", "--phi", "4", "--preset",
                 "illustration", "--s", "1.2", "--out", str(out2)]) == EXIT_OK
    assert _read_manifest(out2)["config"]["s"] == 1.2
    assert _read_manifest(out2)["config"]["l"] == 0.04


def test_density_validation(tmp_path, capsys):
    assert main(["density", "--mu", "0.5", "--phi", "4", "--grid-n", "1",
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert main(["density", "--mu", "1.5", "--phi", "4",
                 "--out", str(tmp_path / "o2")]) == EXIT_VALIDATION
    capsys.readouterr()


# --- malformed input --------------------------------------------------------

_FIT = ["fit", "--data", "@fit-data", "--spec", "@fit-spec"]
_INF, _NAN = float("inf"), float("nan")  # json.dumps writes Infinity and NaN


@pytest.mark.parametrize("argv, config, code, message", [
    (["density", "--mu", "0.5", "--phi", "1e-320"], None, EXIT_NUMERICAL,
     "phi=1e-320 is too small for a finite density at mu=0.5"),
    (["density", "--mu", "0.5", "--phi", "inf"], None, EXIT_VALIDATION,
     "phi must be finite and positive, got inf"),
    (["hier-linear", "--data", "@alc"], {"spec": {"terms": ["medDays"]}},
     EXIT_VALIDATION, "spec needs 'response' and 'terms'"),
    (["hier-linear", "--data", "@alc"], {"iters": "abc"}, EXIT_VALIDATION,
     "config 'iters' must be an integer, got 'abc'"),
    (["hier-nonlinear"], {"nsubj": 3, "priors": {"a1": "x"}}, EXIT_VALIDATION,
     "priors 'a1' must be a number, got 'x'"),
    (["simulate"], {"n": "ten", "reps": 2}, EXIT_VALIDATION,
     "config 'n' must be an integer, got 'ten'"),
    (["simulate"], {"n": 20, "reps": 2, "beta_true": 3}, EXIT_VALIDATION,
     "config 'beta_true' must be a list of numbers, got 3"),
    (["simulate"], {"n": 20, "reps": 2, "rounding_decimals": "x"},
     EXIT_VALIDATION, "config 'rounding_decimals' must be an integer, got 'x'"),
    (["simulate"], {"n": 20, "reps": 2, "methods": "sltb"}, EXIT_VALIDATION,
     "config 'methods' must be a list of method names, got 'sltb'"),
    (["hier-nonlinear"], {"nsubj": 3, "delays": 3}, EXIT_VALIDATION,
     "config 'delays' must be a list of numbers, got 3"),
    (["hier-nonlinear"], {"nsubj": 3, "models": "sltb"}, EXIT_VALIDATION,
     "config 'models' must be a list of model names, got 'sltb'"),
    (_FIT + ["--s", "0.5"], None, EXIT_VALIDATION,
     "1/s + l = 2.000000001 > 1 for s=0.5"),
    (_FIT + ["--l", "-0.1"], None, EXIT_VALIDATION,
     "location l must be finite and nonnegative, got -0.1"),
    (_FIT + ["--s", "nan"], None, EXIT_VALIDATION,
     "scale s must be finite and positive, got nan"),
    (_FIT + ["--l", "inf"], None, EXIT_VALIDATION,
     "location l must be finite and nonnegative, got inf"),
    (["density", "--mu", "0.5", "--phi", "4", "--s", "inf"], None,
     EXIT_VALIDATION, "scale s must be finite and positive, got inf"),
    (["hier-nonlinear"], {"nsubj": 3, "iters": 50, "burnin": 50},
     EXIT_VALIDATION, "iters must exceed burnin"),
    (["simulate"], {"n": 20.9, "reps": 2}, EXIT_VALIDATION,
     "config 'n' must be an integer, got 20.9"),
    (["simulate"], {"n": 20, "reps": True}, EXIT_VALIDATION,
     "config 'reps' must be an integer, got True"),
    (["simulate"], {"n": 20, "reps": 2, "rounding_decimals": 1.5},
     EXIT_VALIDATION, "config 'rounding_decimals' must be an integer, got 1.5"),
    (["hier-nonlinear"], {"nsubj": 3, "delays": [1, "7", 30]},
     EXIT_VALIDATION,
     "config 'delays' must be a list of numbers, got [1, '7', 30]"),
    (["hier-nonlinear"], {"nsubj": 3, "truth": {"mu_psi": True}},
     EXIT_VALIDATION, "truth 'mu_psi' must be a number, got True"),
    (["simulate"], {"n": 20, "reps": 2, "base_seed": "3"}, EXIT_VALIDATION,
     "config 'base_seed' must be an integer, got '3'"),
    (["hier-nonlinear"], {"nsubj": 3, "rounding_decimals": -1},
     EXIT_VALIDATION, "rounding_decimals must be >= 0 or None"),
    (["simulate"], {"n": 20, "reps": 2, "phi_true": _INF}, EXIT_VALIDATION,
     "config 'phi_true' must be a number, got inf"),
    (["simulate"], {"n": 20, "reps": 2, "beta_true": [_NAN, 0, 0, 0]},
     EXIT_VALIDATION,
     "config 'beta_true' must be a list of numbers, got [nan, 0, 0, 0]"),
    (["hier-nonlinear"], {"nsubj": 3, "priors": {"lam2_psi0": _NAN}},
     EXIT_VALIDATION, "priors 'lam2_psi0' must be a number, got nan"),
    (["hier-nonlinear"], {"nsubj": 3, "delays": [1, 2, _INF]}, EXIT_VALIDATION,
     "config 'delays' must be a list of numbers, got [1, 2, inf]"),
    (["hier-nonlinear"], {"nsubj": 3, "truth": {"sigma2_psi": _INF}},
     EXIT_VALIDATION, "truth 'sigma2_psi' must be a number, got inf"),
    (["hier-linear", "--data", "@alc"], {"prior_variance": _INF},
     EXIT_VALIDATION, "config 'prior_variance' must be a number, got inf"),
    (["hier-linear", "--data", "@alc"], {"s": 0.5}, EXIT_VALIDATION,
     "1/s + l = 2.000000001 > 1 for s=0.5"),
    (["hier-linear", "--data", "@alc"], {"l": -0.1}, EXIT_VALIDATION,
     "location l must be finite and nonnegative, got -0.1"),
    (_FIT + ["--s", "1", "--l", "0"], None, EXIT_VALIDATION,
     "with s=1.0, l=0.0 a response at 0 or 1 maps onto the beta boundary"),
    (["hier-linear", "--data", "@alc-zeros"], {"s": 1, "l": 0}, EXIT_VALIDATION,
     "with s=1.0, l=0.0 a response at 0 or 1 maps onto the beta boundary"),
], ids=["density-tiny-phi", "density-inf-phi", "spec-without-response", "iters-not-int",
        "prior-not-number", "n-not-int", "beta-true-not-list",
        "rounding-not-int", "methods-not-list", "delays-not-list",
        "models-not-list", "fit-s-below-one", "fit-l-negative", "fit-s-nan",
        "fit-l-inf", "density-s-inf", "nonlinear-iters-not-above-burnin",
        "n-not-integral", "reps-bool", "rounding-not-integral",
        "delay-string", "truth-bool", "seed-string", "rounding-negative",
        "phi-true-inf", "beta-true-nan", "prior-nan", "delay-inf", "truth-inf",
        "prior-variance-inf", "hier-linear-s-below-one",
        "hier-linear-l-negative", "fit-window-at-ones",
        "hier-linear-window-at-zeros"])
def test_malformed_input_exits_with_message(argv, config, code, message,
                                            alcohol_csv, alcohol_zeros_csv,
                                            fit_files, tmp_path, capsys):
    inputs = {"@alc": alcohol_csv, "@alc-zeros": alcohol_zeros_csv,
              "@fit-data": fit_files / "data.csv",
              "@fit-spec": fit_files / "spec.json"}
    _assert_refused(argv, config, inputs, code, message, tmp_path, capsys)


def _assert_refused(argv, config, inputs, code, message, tmp_path, capsys):
    """Run `argv`, its "@" names replaced from `inputs`, with `config` as its
    --config file; it must exit `code` with `message` and write nothing."""
    argv = [str(inputs.get(a, a)) for a in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()  # nothing written, not even the directory


# --- a failure after the last compute step writes nothing --------------------

_TO_DICT = McStudyReport.to_dict
_SHORT_CHAIN = {"iters": 40, "burnin": 10, "thin": 1}


def _nan(*args, **kwargs):
    return _NAN


def _summary_with_nan(report, include_timing=True):
    return {**_TO_DICT(report, include_timing), "mean_mse": {"sltb": _NAN}}


def _sampler_fails(*args, **kwargs):
    raise NumericalError("the normal sampler failed")


@pytest.mark.parametrize("argv, config, patch, message", [
    (_FIT, None, (sltb.cli, "mse_report", lambda *args: {"overall": _NAN}),
     "mse.json not written"),
    (["simulate"], {"n": 20, "reps": 2},
     (McStudyReport, "to_dict", _summary_with_nan), "summary.json not written"),
    (["hier-linear", "--data", "@alc"], _SHORT_CHAIN,
     (sltb.cli, "posterior_predictive_mse", _nan), "summary.json not written"),
    (["hier-nonlinear"], {"nsubj": 3, **_SHORT_CHAIN},
     (sltb.cli, "normal_hier_sample", _sampler_fails),
     "the normal sampler failed"),
    (["density", "--mu", "0.5", "--phi", "4"], None,
     (sltb.cli, "sltb_pdf", lambda p, g: np.full(np.shape(g), _NAN)),
     "density.csv not written: column sltb_pdf is nan in row 1"),
    (_FIT, None,
     (sltb.cli, "residuals", lambda fit, spec, data: np.full(data.n_rows, _NAN)),
     "residuals.csv not written: column fitted is nan in row 1"),
], ids=["fit", "simulate", "hier-linear", "hier-nonlinear", "density",
        "fit-residuals-csv"])
def test_failure_after_compute_writes_nothing(argv, config, patch, message,
                                              alcohol_csv, fit_files, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.setattr(*patch)
    inputs = {"@alc": alcohol_csv, "@fit-data": fit_files / "data.csv",
              "@fit-spec": fit_files / "spec.json"}
    _assert_refused(argv, config, inputs, EXIT_NUMERICAL, message, tmp_path,
                    capsys)


# --- resolved defaults ----------------------------------------------------------

def _defaults(fn, *names):
    params = inspect.signature(fn).parameters
    return {n: params[n].default for n in names}


def _as_json(obj):
    return json.loads(json.dumps(obj))


def test_resolved_defaults_are_the_librarys(alcohol_csv, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.delenv("SLTB_DEFAULT_SEED", raising=False)
    lengths = {"iters": 30, "burnin": 10, "thin": 1}
    for sampler in (sltb_hier_sample, normal_hier_sample):  # one CLI default
        assert (_defaults(sampler, "iters", "burnin", "thin")
                == _defaults(run_chain, "iters", "burnin", "thin"))

    sim = {f.name: f.default for f in fields(SimConfig)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 20, "reps": 2}))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "sim")]) == EXIT_OK
    assert _read_manifest(tmp_path / "sim")["config"] == _as_json(
        {**sim, "n": 20, "reps": 2, "methods": ["sltb"], "threads": 1})

    cfg.write_text(json.dumps(lengths))
    assert main(["hier-linear", "--data", str(alcohol_csv), "--config",
                 str(cfg), "--out", str(tmp_path / "hl")]) == EXIT_OK
    model = _defaults(build_hier_model, "group", "prior_variance",
                      "sigma_upper", "s", "l")
    spec = asdict(_defaults(build_hier_model, "spec")["spec"])
    assert _read_manifest(tmp_path / "hl")["config"] == _as_json(
        {**lengths, **model, "spec": spec})

    assert main(["hier-nonlinear", "--config", str(cfg),
                 "--out", str(tmp_path / "nl")]) == EXIT_OK
    gen = _defaults(gen_discount_data, "nsubj", "delays", "rounding_decimals")
    assert _read_manifest(tmp_path / "nl")["config"] == _as_json({
        **lengths, **gen, "truth": asdict(DiscountTruth()),
        "priors": asdict(HyperPriors()), "models": ["sltb", "normal"],
        "source": "simulated"})
    capsys.readouterr()


def _fresh_python(*args):
    # the directory holding the package, so an uninstalled checkout runs too
    path = [str(Path(sltb.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_console_script_runs():
    proc = _fresh_python("-m", "sltb", "--help")
    assert proc.returncode == 0
    assert "density" in proc.stdout


def test_cli_import_leaves_scipy_optimize_out():
    # the fit takes Newton steps of its own; scipy.optimize would add about
    # a fifth to the import time of every command
    proc = _fresh_python("-c", "import sys, sltb.cli; "
                         "print('scipy.optimize' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
