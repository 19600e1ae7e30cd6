#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ring-p2p --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the simulator libraries from src/ plus the
benchmark program) in Release mode under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only bring
the build up to date. The benchmark binary then runs the workload and its
last line of output, one JSON object with the keys correct, attempted,
failed and metrics, is repeated as the last line printed here. With
--workload all the four workloads run one after the other and the last line
merges them, metric names prefixed with the workload name.

Options after the four standard ones (--size tiny, --cap-cycles N) are
passed to the binary; see perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["ring-p2p", "fattree-bisect", "coll-mix", "stencil-faults"]
RUN_TIMEOUT_S = 175
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            log("error: cmake configure failed")
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "smi_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("error: build failed")
        sys.exit(1)
    return os.path.join(out, "smi_perfbench")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_one(binary, workload, args, passthrough, commit):
    """Run one workload; echo its output and return its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir(), "results"),
           "--commit", commit] + passthrough
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        log(f"error: {workload} exited with code {r.returncode}")
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"error: malformed result line from {workload}")
        sys.exit(1)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, passthrough = p.parse_known_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")

    binary = build()
    commit = git_commit()
    if args.workload != "all":
        result = run_one(binary, args.workload, args, passthrough, commit)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            r = run_one(binary, w, args, passthrough, commit)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                result["metrics"][f"{w}/{k}"] = v
            a = r["attempted"]
            print(f"== {w}: fail_rate {r['failed'] / a:.6f} "
                  f"({r['failed']} of {a} operations)")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
