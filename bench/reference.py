"""Repeat benchmark runs over several seeds and summarise each metric.

Run from the repository root, for example

    python3 bench/reference.py --seeds 1-10

Each run is a separate process of ``bench/run.py``, one at a time, on
every workload of ``BENCHMARK.json`` with its ``run_seconds`` and
``--trace 0``. For every workload and metric the table gives the median, the first and
third quartiles and their distance as a share of the median, and the
share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--values", action="store_true", help="print every run's value")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for wl in (w["name"] for w in bench["workloads"]):
        values, shares, correct = {}, set(), True
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= res["correct"]
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl}: {len(args.seeds)} runs, correct={correct}, "
              f"failed shares {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}"
            print(f"  {name:42s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{flag}")
            if args.values:
                print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
