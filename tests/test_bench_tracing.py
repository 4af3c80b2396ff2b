"""The benchmark's tracer must find every name it wraps, and put each back.

`bench/run.py --trace 1` swaps the package functions listed in
`bench/tracing.py` for timing wrappers; a renamed function would break
that mode without failing anything else, and so would a traced function
that a workload's layer figures count on and the package stops calling.
"""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_boundary():
    tracing = _tracing_module()
    boundaries = [(importlib.import_module(mod), name)
                  for mod, name, _ in tracing.BOUNDARIES]
    missing = [f"{m.__name__}.{n}" for m, n in boundaries if not hasattr(m, n)]
    assert missing == []
    before = [getattr(m, n) for m, n in boundaries]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(m, n) for m, n in boundaries]
    finally:
        tracer.restore()
    assert all(w.__wrapped__ is b for w, b in zip(wrapped, before))
    assert all(getattr(m, n) is b for (m, n), b in zip(boundaries, before))


ROOT = TRACING.parents[1]


@pytest.mark.parametrize("workload", ["mle-study", "cli-batch"])
def test_traced_benchmark_run_reports_every_per_layer_metric(workload):
    # a traced name the workload's layer figures divide by (say, a fit that
    # no longer calls `regression.loglik_sltb`) would stop this mode
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"], proc.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        value = report["metrics"][metric["name"]]["value"]
        assert math.isfinite(value), (metric["name"], value)
