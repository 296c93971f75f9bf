#!/usr/bin/env bash
# pet_sweep's automatic worker count (--threads=0) follows the CPUs the
# process may run on, as the process-wide fork-join pool does: pinned to
# one CPU with `taskset -c 0`, a two-point sweep runs on one worker and its
# merged manifest records "threads": 1. When taskset is missing or cannot
# pin the process, the script says so and exits 77 (skipped).
#
# Usage: sweep_affinity.sh <pet_sweep> <workdir>
set -u

PET_SWEEP=$1
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"

if ! command -v taskset > /dev/null 2>&1; then
  echo "skip: taskset not found"
  exit 77
fi
if ! taskset -c 0 true > /dev/null 2>&1; then
  echo "skip: taskset -c 0 cannot pin this process"
  exit 77
fi

taskset -c 0 "$PET_SWEEP" --scheme=secn1 --load=0.3,0.5 --seed=1 \
  --threads=0 --spines=1 --leaves=2 --hosts-per-leaf=2 --pretrain-ms=1 \
  --measure-ms=2 --out="$WORK/sweep" > "$WORK/sweep.out" 2> "$WORK/sweep.err"
rc=$?
MERGED="$WORK/sweep/sweep_sweep.json"
if [ "$rc" -ne 0 ]; then
  echo "FAIL: pet_sweep exited $rc, want 0"
  cat "$WORK/sweep.err"
  exit 1
fi
threads=$(grep -oE '"threads": [0-9]+' "$MERGED")
if [ "$threads" != '"threads": 1' ]; then
  echo "FAIL: $MERGED records ${threads:-no thread count}, want \"threads\": 1"
  exit 1
fi
echo "ok   pinned to one CPU: $threads"
