#!/usr/bin/env python3
"""Run one workload of the benchmark N times with different seeds and print,
for each end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound. Run k
uses seed k, for k = 1..N, and BENCHMARK.json's run_seconds.

    python3 perfbench/spread.py --workload bulk-fields --runs 10

Run it from the repository root; it reads BENCHMARK.json there.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    specs = bench["end_to_end"]
    values = {m["name"]: [] for m in specs}
    shares = []
    reference = []
    for k in range(args.runs):
        seed = k + 1
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        for line in lines:
            if "reference loop" in line:
                reference.append(float(line.split("reference loop")[1].split()[0]))
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.5g}" for n in values), file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, failed share "
          f"{'constant' if len(set(shares)) == 1 else 'VARIES'} ({shares[0]})")
    if reference:
        q1, med, q3 = statistics.quantiles(reference, n=4) if len(reference) > 1 else (reference[0],) * 3
        print(f"reference loop (host speed, Mops/s): median {med:.1f}, q1 {q1:.1f}, q3 {q3:.1f}")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for m in specs:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
        print(f"{m['name']:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
              f"{bound:>6}  {verdict}")


if __name__ == "__main__":
    main()
