"""Benchmark of the sltb package: four workloads, timed end to end and
traced per layer.

Run from the repository root:

    python3 bench/run.py --workload mle-study --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
package's layer boundaries (see ``tracing.py``) and reports per-layer
metrics instead, plus the tracing overhead. Every run checks the
program's outputs and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before
it name further figures of the workload, one per line, with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# numpy reads these once, at import: one BLAS/OpenMP thread per process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mle-study", "hier-linear", "hier-nonlinear", "cli-batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def time_setup(cls, seed, workdir):
    """Median of repeated set-ups: a fresh interpreter importing the
    package, then the workload's input generation. Returns the last
    workload built and the median seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sltb.cli"], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        wl = cls(seed, workdir)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def run_round(wl, k):
    out = wl.run_round(k)
    wl.rounds.append(out)
    wl.round_index += 1
    return out


def measure(wl, seconds):
    """Whole rounds until the time is spent; round k seeds its own inputs."""
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        run_round(wl, k)
        k += 1
        if time.perf_counter() >= deadline:
            return


def measure_traced(wl, seconds, tracing):
    """Round 0 twice untraced, then round 0 again and further rounds traced.

    The first pass warms caches and lazy set-up. The traced replay repeats
    round 0's work exactly, so its ratio to the second untraced pass gives
    the tracing overhead, and the per-layer counts come from that round.
    """
    deadline = time.perf_counter() + seconds
    run_round(wl, 0)
    plain = run_round(wl, 0)
    tr = tracing.Tracer()
    tr.install()
    try:
        wl.tracer = tr
        wl.first_round = wl.round_index
        traced = [run_round(wl, 0)]
        first = tr.stats.copy()
        k = 1
        while time.perf_counter() < deadline:
            traced.append(run_round(wl, k))
            k += 1
    finally:
        tr.restore()
        wl.tracer = None
    return tr, first, plain, traced


def layer_metrics(tr, first, plain, traced, tracing):
    lp = tr.select(name="sltb_logpdf_arrays")
    norm = tr.select(name="sltb_log_normalizer_arrays")
    lp0 = first.select(name="sltb_logpdf_arrays")
    busy = sum(r["ops"] for r in traced)
    timed = {ph for ph, _, _ in tr.stats} - {"probe"}
    m = {
        "distributions.logpdf_calls": (lp0.calls, "count"),
        "distributions.logpdf_rows": (lp0.rows, "count"),
        "distributions.logpdf_us_per_1k_rows": (1e9 * lp.total / lp.rows, "us"),
        "distributions.normalizer_us_per_1k_rows": (1e9 * norm.total / norm.rows, "us"),
        "distributions.normalizer_share": (norm.total / lp.total, "share"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.calls"] = (first.select(layer=layer).calls, "count")
        m[f"{layer}.self_share"] = (
            tr.select(timed, layer=layer).self_time / busy, "share")
    m["trace_overhead"] = (traced[0]["ops"] / plain["ops"] - 1.0, "share")
    return m


def main(argv=None):
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "sltb", "__init__.py")):
        print("error: src/sltb not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import tracing
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = None
    try:
        wl, setup_s = time_setup(workloads.WORKLOADS[args.workload],
                                 args.seed, workdir)
        if args.trace:
            tr, first, plain, traced = measure_traced(wl, args.seconds, tracing)
            metrics = layer_metrics(tr, first, plain, traced, tracing)
            details = wl.layer_details(tr, first)
            details["trace_overhead"] = metrics["trace_overhead"]
        else:
            measure(wl, args.seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "op_a_s": (wl.op_seconds("a"), "s"),
                "op_b_s": (wl.op_seconds("b"), "s"),
            }
        wl.close()
        wl.check()
        if not args.trace:
            details = wl.details()
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(wl.rounds)} rounds, {wl.attempted} operations, {wl.failed} failed")
    for name, (value, unit) in sorted(details.items()):
        print(f"  {name} = {value} {unit}")
    for problem in wl.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
