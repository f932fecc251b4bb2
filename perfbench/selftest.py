#!/usr/bin/env python3
"""Self-test of the benchmark, at small sizes (about a minute in all).

    python3 perfbench/selftest.py

Run from the repository root. Checks that:
  * every workload runs to its end at small size, correct and with no
    failed operation, in both modes;
  * every metric BENCHMARK.json names is printed with its unit;
  * each correctness check fails on a deliberately corrupted output (a
    flipped byte in a ULPF store, a record that breaks an invariant, a
    damaged merged farm artifact, an altered outcome count, a reference-tier
    sample that disagrees);
  * the benchmark program refuses a scratch directory that already holds
    a journal;
  * the benchmark exits non-zero, printing no result, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--small"] + list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd)
    res = None
    if r.returncode == 0 and r.stdout.strip():
        res = json.loads(r.stdout.strip().splitlines()[-1])
    return r, res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r, res = bench(w, trace)
            expect(res is not None, f"{w} trace={trace}: runs and prints a result")
            if res is None:
                sys.stderr.write(r.stderr[-2000:])
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{w} trace={trace}: result has exactly the four keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace={trace}: correct, {res['attempted']} attempted, none failed")
            missing = [m["name"] for m in spec[key]
                       if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                       or not isinstance(res["metrics"][m["name"]]["value"], (int, float))]
            extra = sorted(set(res["metrics"]) - {m["name"] for m in spec[key]})
            expect(not missing and not extra,
                   f"{w} trace={trace}: every {key} metric printed with its unit"
                   + (f" (missing {missing})" if missing else "")
                   + (f" (unlisted {extra})" if extra else ""))

    for w, kind in (("fleet_calib", "store"), ("fleet_strike", "record"), ("farm", "merged"),
                    ("campaign", "outcome"), ("campaign", "sample")):
        r, res = bench(w, extra=["--corrupt", kind])
        expect(res is not None and not res["correct"] and res["failed"] > 0,
               f"{w}: corrupted {kind} is caught ({res and res['failed']} failed)")

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    used = os.path.join(build, "selftest", "used")
    shutil.rmtree(os.path.dirname(used), ignore_errors=True)
    os.makedirs(used)
    open(os.path.join(used, "shard_0.jnl"), "wb").close()
    tree = os.path.join(build, "perfbench")
    r = subprocess.run([os.path.join(tree, "perfbench"), "--workload", "farm", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--dir", used, "--root", ROOT,
                        "--fleet-bin", os.path.join(tree, "tools", "ulpmc-fleet"),
                        "--farm-bin", os.path.join(tree, "tools", "ulpmc-farm"), "--small"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    expect(r.returncode != 0 and not r.stdout.strip(),
           "a scratch directory holding a journal is refused")

    bare = os.path.join(build, "selftest", "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    r = subprocess.run(spec["command"] + ["--workload", workloads[0], "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=bare,
                       env=env, timeout=180)
    expect(r.returncode != 0 and not r.stdout.strip(),
           "without the repository's sources the benchmark exits non-zero, printing nothing")
    shutil.rmtree(os.path.dirname(used), ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
