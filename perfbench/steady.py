#!/usr/bin/env python3
"""Steadiness check: run every workload N times, interleaved, one seed per round.

    python3 perfbench/steady.py [--runs 10]

Run from the root of the repository. Round i runs every workload of BENCHMARK.json
with seed i, for BENCHMARK.json's `run_seconds`. For each workload and end-to-end
metric it then prints the median, the quartiles (`statistics.quantiles(values, n=4)`),
the spread (Q3 - Q1) / median and the metric's bound from BENCHMARK.json, and the share
of failed operations. Every run is one `perfbench/run.py` process.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    shares = {w: set() for w in workloads}

    for seed in range(1, args.runs + 1):
        for w in workloads:
            started = time.time()
            proc = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect output")
            shares[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"# {w} seed {seed}: {time.time() - started:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    print(f"{'workload':18} {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "" if spread <= bounds[name] else "  OVER BOUND"
            print(f"{w:18} {name:24} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bounds[name]:6.2f}{flag}")
        print(f"{w:18} {'failed share':24} {sorted(shares[w])}")


if __name__ == "__main__":
    main()
