#!/usr/bin/env python3
"""Smoke check of the scenario benchmark; run from the repository root.

    python3 scenario_bench/smoke_test.py

Runs every workload at the shortest length (--seconds 1: one pass over the
replicas, one traced pair) on a held-out traffic seed and asserts that
every metric BENCHMARK.json names is printed with a unit, that every output
check passes, that no weights were trained inline, and that the
repository's files (pretrain_cache/ included) are byte-unchanged.
"""

import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HELD_OUT_SEED = 424242


def repo_files():
    """Tracked files when in a git checkout, else every file outside the
    build tree."""
    try:
        out = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                             capture_output=True).stdout
        return sorted(p for p in out.decode().split("\0") if p)
    except (OSError, subprocess.CalledProcessError):
        paths = []
        for top, dirs, files in os.walk(ROOT):
            dirs[:] = [d for d in dirs if d not in (".bench_build", ".git")]
            paths += [os.path.relpath(os.path.join(top, f), ROOT) for f in files]
        return sorted(paths)


def snapshot():
    digests = {}
    for rel in repo_files():
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            with open(path, "rb") as f:
                digests[rel] = hashlib.sha256(f.read()).hexdigest()
    return digests


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = ([m["name"] for m in spec["end_to_end"]] +
             [m["name"] for m in spec["per_layer"]])

    before = snapshot()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "all",
         "--seed", str(HELD_OUT_SEED), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    after = snapshot()

    errors = []
    if proc.returncode != 0:
        errors.append(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    else:
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            errors.append(f"output checks failed: {proc.stderr[-2000:]}")
        for workload in spec["workloads"]:
            for name in names:
                metric = result["metrics"].get(f"{workload['name']}.{name}")
                if metric is None or not metric.get("unit"):
                    errors.append(f"{workload['name']}: {name} missing or "
                                  "without a unit")
    if "[pretrain]" in proc.stdout + proc.stderr:
        errors.append("weights were pretrained or looked up in a cache")
    changed = sorted(p for p in set(before) | set(after)
                     if before.get(p) != after.get(p))
    if changed:
        errors.append(f"repository files changed: {changed}")

    for e in errors:
        print("FAIL:", e)
    print("smoke test", "failed" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
