#!/usr/bin/env python3
"""Benchmark entry point: build, run one workload, check its artifacts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator's libraries, the
ulpmc-farm supervisor, the ulpmc-fleet worker and the benchmark program
(perfbench.cpp) from source into
$CARGO_TARGET_DIR (default .bench_build) with perfbench/CMakeLists.txt,
runs that program in its own process on a fresh scratch directory, checks
every artifact it wrote with the repository's independent Python
tools (tools/read_fleet.py, tools/merge_fleet.py), and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
writes the spans to $CARGO_TARGET_DIR/trace-<workload>.json. --small and
--corrupt are for the self-test (selftest.py).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_calib", "fleet_strike", "farm", "campaign")
# Beyond --seconds: the last round, which may start just before the time
# is up, the traced run's probes, and the benchmark program's own checks.
RUN_MARGIN_S = 120


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures once, then lets the build tool decide what is stale."""
    for need in ("src/CMakeLists.txt", "tools/ulpmc_farm.cpp", "tools/ulpmc_fleet.cpp",
                 "tools/read_fleet.py", "tools/merge_fleet.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"{need}: not found; run from a full checkout of the repository")
    tree = os.path.join(out, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            die(f"build failed: {' '.join(cmd)}", 1)
    return (os.path.join(tree, "perfbench"), os.path.join(tree, "tools", "ulpmc-fleet"),
            os.path.join(tree, "tools", "ulpmc-farm"))


def tool(args):
    r = subprocess.run([sys.executable] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        lines = r.stdout.strip().splitlines()
        why = lines[-1] if lines else f"exit {r.returncode}"
        sys.stderr.write(f"check failed: {os.path.basename(args[0])}: {why}\n")
    return r.returncode == 0


def run_bench(cmd, timeout):
    """Runs the benchmark program in its own process group; on timeout, kills
    the group (the program and any farm it started) and waits for it."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die(f"perfbench did not finish within {timeout} s", 1)
    if p.returncode != 0:
        die(f"perfbench exited with {p.returncode}", p.returncode if p.returncode > 0 else 1)
    return json.loads(out.strip().splitlines()[-1])


def run_check(c):
    """One artifact check with the repository's independent Python tools."""
    read_fleet = os.path.join(ROOT, "tools", "read_fleet.py")
    if c["tool"] == "read_fleet":
        return tool([read_fleet, c["store"], "--check", c["json"]])
    if c["tool"] == "merge_fleet":
        merge = os.path.join(ROOT, "tools", "merge_fleet.py")
        return (tool([merge] + c["shards"] + ["--verify-against", c["json"]])
                and tool([read_fleet, c["store"], "--check", c["json"]]))
    die(f"unknown check {c['tool']}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt", default="", help="self-test: damage one output")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 0:
        die("--seed and --seconds must be non-negative")

    out = build_dir()
    exe, fleet_bin, farm_bin = build(out)
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{a.workload}-", dir=runs)  # fresh and empty
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds",
           str(a.seconds), "--trace", str(a.trace), "--dir", scratch, "--root", ROOT,
           "--fleet-bin", fleet_bin, "--farm-bin", farm_bin]
    if a.trace:
        cmd += ["--trace-out", os.path.join(out, f"trace-{a.workload}.json")]
    if a.small:
        cmd.append("--small")
    if a.corrupt:
        cmd += ["--corrupt", a.corrupt]
    try:
        res = run_bench(cmd, a.seconds + RUN_MARGIN_S)
        correct, failed = res["correct"], res["failed"]
        for c in res["checks"]:
            if not run_check(c):
                correct = False
                failed += c["devices"] - c["counted"]
        result = {"correct": correct, "attempted": res["attempted"], "failed": failed,
                  "metrics": res["metrics"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
