#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload write_large --seeds 1-5
    python3 perfbench/spread.py --workload read_hot --seeds 1-10 --trace 1

For every metric it prints the median over the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json
(end-to-end metrics only). Run from the root of the source tree; the run
length defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    bounds = {}
    seconds = args.seconds
    config_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(config_path):
        with open(config_path) as f:
            config = json.load(f)
        bounds = {m["name"]: m["bound"] for m in config.get("end_to_end", [])}
        seconds = seconds or config.get("run_seconds")
    seconds = seconds or 10

    values = {}
    units = {}
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            print(f"seed {seed}: FAILED (exit {out.returncode})")
            return 1
        result = json.loads(lines[-1])
        steal = next((l.split()[1] for l in lines if l.startswith("host: ")),
                     "?")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"steal={steal}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    worst = 0.0
    print(f"\n{'metric':44} {'median':>12} {'unit':6} {'iqr/med':>8} "
          f"{'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) >= 2 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            worst = max(worst, spread / bound)
            flag = "  OVER" if spread > bound else (
                "  >1/3" if spread > bound / 3 else "")
        print(f"{name:44} {med:12.6g} {units[name]:6} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    if bounds:
        print(f"\nworst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
