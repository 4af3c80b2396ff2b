"""Command-line surface: outputs, manifests, exit codes, determinism."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from sltb.bayes_hier_linear import gen_alcohol_fixture
from sltb.bayes_hier_nonlinear import gen_discount_data
from sltb.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    load_spec,
    main,
    resolve_seed,
)
from sltb.data import TabularDataset, read_csv, write_csv
from sltb.errors import ValidationError
from sltb.simulation import SimConfig, gen_dataset


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


@pytest.mark.parametrize("argv, config, code, message", [
    (["density", "--mu", "0.5", "--phi", "1e-320"], None, EXIT_NUMERICAL,
     "sltb_pdf is nan at grid point g=0.0"),
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
], ids=["density-tiny-phi", "spec-without-response", "iters-not-int",
        "prior-not-number", "n-not-int", "beta-true-not-list",
        "rounding-not-int", "methods-not-list", "delays-not-list",
        "models-not-list", "fit-s-below-one", "fit-l-negative", "fit-s-nan",
        "fit-l-inf", "density-s-inf"])
def test_malformed_input_exits_with_message(argv, config, code, message,
                                            alcohol_csv, fit_files, tmp_path,
                                            capsys):
    inputs = {"@alc": alcohol_csv, "@fit-data": fit_files / "data.csv",
              "@fit-spec": fit_files / "spec.json"}
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
    assert not out.exists() or not any(out.iterdir())  # nothing written


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "sltb", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "density" in proc.stdout
