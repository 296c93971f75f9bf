#!/usr/bin/env bash
# Regenerate the committed bench-gate baselines under bench/baselines/.
#
# Run this after an INTENTIONAL performance change makes `ctest -L benchgate`
# fail, then review the baseline diff like any other code change. Baselines
# are machine-dependent absolute rates, but the gate's tolerance band
# (PET_BENCH_GATE_MIN_RATIO, default 0.30) is wide enough that any box of
# the same hardware class passes; the gate exists to catch order-of-magnitude
# cliffs, not scheduling jitter.
#
# Usage: tools/regen_bench_baselines.sh [build-dir [suite...]]
#   build-dir defaults to build; with no suites, all three are regenerated.
#   Name only the suites a change touched, e.g.
#     tools/regen_bench_baselines.sh build micro_sim
#   so the others keep their committed numbers.
#
# Each suite runs as its bench_gate_run_<suite> test from
# bench/CMakeLists.txt, so the baseline comes from exactly the run CTest
# gates, and its bench/gate/BENCH_<suite>.json is copied into place.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="$repo_root/bench/baselines"
all_suites=(micro_sim micro_net micro_rl)

suites=("${@:2}")
if [[ ${#suites[@]} -eq 0 ]]; then suites=("${all_suites[@]}"); fi
for name in "${suites[@]}"; do
  if [[ " ${all_suites[*]} " != *" $name "* ]]; then
    echo "regen_bench_baselines: unknown suite '$name' (known: ${all_suites[*]})" >&2
    exit 2
  fi
  if [[ ! -x "$build_dir/bench/$name" ]]; then
    echo "regen_bench_baselines: build the benches first:" >&2
    echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
    exit 1
  fi
done

mkdir -p "$out_dir"
for name in "${suites[@]}"; do
  ctest --test-dir "$build_dir" -R "^bench_gate_run_$name\$" --output-on-failure
  cp "$build_dir/bench/gate/BENCH_$name.json" "$out_dir/BENCH_$name.json"
  echo "regen_bench_baselines: wrote bench/baselines/BENCH_$name.json"
done

echo "regen_bench_baselines: done — review with 'git diff bench/baselines/'"
