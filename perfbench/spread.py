#!/usr/bin/env python3
"""Reference figures: run the benchmark over several seeds and summarize.

    python3 perfbench/spread.py [--workloads W,...] [--seeds 1-10] [--trace 0|1]

Run from the repository root. For each workload, runs perfbench/run.py once
per seed (run_seconds from BENCHMARK.json) and prints, per metric, the
median, the first and third quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, plus the failed share of the
operations attempted. --json FILE also writes every run's result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every run's result to this file")
    a = ap.parse_args()

    runs = {}
    for w in a.workloads.split(","):
        runs[w] = []
        for seed in a.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(a.trace)]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                               cwd=ROOT)
            if r.returncode != 0:
                print(f"{w} seed {seed}: exit {r.returncode}", flush=True)
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            runs[w].append({"seed": seed, **res})
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        done = runs[w]
        if not done:
            continue
        print(f"\n{w}: {len(done)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in done})}")
        print(f"  {'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'(q3-q1)/med':>13}")
        for name in done[0]["metrics"]:
            v = [r["metrics"][name]["value"] for r in done]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            rel = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<34}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{rel:>13.4f}")
        print(flush=True)
    if a.json:
        with open(a.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
