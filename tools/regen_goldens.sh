#!/usr/bin/env bash
# Regenerate the golden-artifact regression files under tests/golden/.
#
# Run this after an INTENTIONAL behaviour change makes `ctest -L golden`
# fail, then review the golden diff like any other code change. It runs the
# golden_run_* tests from tests/golden/CMakeLists.txt, so it replays exactly
# the scenarios CTest checks, and canonicalizes each run's artifact over its
# committed <name>.golden.json. On an unchanged commit, regeneration is
# byte-identical (the canonical form drops the manifest and all wall_ms
# fields; everything else is a pure function of the scenario seed).
#
# Usage: tools/regen_goldens.sh [build-dir]   (default: build)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
diff_tool="$build_dir/tests/golden/golden_diff"

if [[ ! -x "$diff_tool" ]]; then
  echo "regen_goldens: build the tree first:" >&2
  echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
  exit 1
fi

ctest --test-dir "$build_dir" -R '^golden_run_' --output-on-failure
for golden in "$repo_root"/tests/golden/*.golden.json; do
  name="$(basename "$golden" .golden.json)"
  "$diff_tool" canon "$build_dir/tests/golden/GOLDEN_$name.json" > "$golden"
  echo "regen_goldens: wrote tests/golden/$name.golden.json"
done

echo "regen_goldens: done — review with 'git diff tests/golden/'"
