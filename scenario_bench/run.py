#!/usr/bin/env python3
"""Build and run the scenario benchmark from the root of a checkout.

    python3 scenario_bench/run.py --workload websearch_pet --seed 7 \
        --seconds 20 --trace 0

builds the simulator libraries and the benchmark (Release, into
.bench_build/ or $CARGO_TARGET_DIR), runs one workload in a single-threaded
child process and prints its metrics. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer split.

--workload all runs every workload, untraced and traced, and ends with one
JSON line whose metric names are prefixed with the workload name.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["websearch_secn1", "websearch_pet", "datamining_acc"]
# Per-run limit, below the 180 s a caller allows for one invocation.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def step(cmd, log):
    """Run one build command; on failure show its log and exit 1."""
    with open(log, "a") as out:
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        sys.exit(f"build step failed ({rc}): {' '.join(cmd)}")


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    lib_dir = os.path.join(out, "pet")
    bench_dir = os.path.join(out, "bench")
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        step(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release",
              "-DPET_BUILD_TESTS=OFF", "-DPET_BUILD_BENCH=OFF",
              "-DPET_BUILD_EXAMPLES=OFF", "-DPET_BUILD_TOOLS=OFF"], log)
    step(["cmake", "--build", lib_dir, "--target", "pet_exp", "-j", "4"], log)
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        step(["cmake", "-S", BENCH_DIR, "-B", bench_dir,
              "-DCMAKE_BUILD_TYPE=Release", f"-DPET_ROOT={ROOT}",
              f"-DPET_LIB_DIR={lib_dir}"], log)
    step(["cmake", "--build", bench_dir, "-j", "4"], log)
    return os.path.join(bench_dir, "scenario_bench")


def run(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; return its parsed result line."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--weights-dir={os.path.join(BENCH_DIR, 'weights')}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: benchmark exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        result = run(binary, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(binary, workload, args.seed, args.seconds, trace)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
