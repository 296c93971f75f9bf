#!/usr/bin/env bash
# SIGINT flush acceptance: interrupt an evaluation sweep once its first
# point artifact is on disk, demand exit 130 with a VALID merged artifact
# that marks the unfinished points stopped, then resume the same sweep to
# completion and demand its canonical merged artifact byte-matches an
# uninterrupted run.
#
# Usage: sigint_flush.sh <pet_sweep> <golden_diff> <workdir>
set -u

PET_SWEEP=$1
GOLDEN_DIFF=$2
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"

# Four PET points on one worker, each long enough (60 ms simulated) that
# the signal lands while later points are still queued or running.
ARGS=(--scheme=pet --load=0.5 --seed=9,10,11,12
      --spines=1 --leaves=2 --hosts-per-leaf=2 --pretrain-ms=2
      --measure-ms=60 --threads=1 --name=sigint)

echo "--- reference (uninterrupted) sweep"
"$PET_SWEEP" "${ARGS[@]}" --out="$WORK/ref" > /dev/null 2>&1 || {
  echo "FAIL: reference run did not complete"
  exit 1
}
"$GOLDEN_DIFF" canon "$WORK/ref/sweep_sigint.json" > "$WORK/ref.canon" || exit 1

OUT="$WORK/interrupted"
mkdir -p "$OUT"
"$PET_SWEEP" "${ARGS[@]}" --out="$OUT" > /dev/null 2> "$OUT.err" &
pid=$!
found=0
for _ in $(seq 1 600); do
  if ls "$OUT"/point_*.json > /dev/null 2>&1; then
    found=1
    break
  fi
  if ! kill -0 "$pid" 2> /dev/null; then
    break
  fi
  sleep 0.05
done
if [ "$found" -ne 1 ]; then
  kill -9 "$pid" 2> /dev/null
  wait "$pid" 2> /dev/null
  echo "FAIL: the sweep ended before the signal could land"
  exit 1
fi
kill -INT "$pid"
wait "$pid"
status=$?
if [ "$status" -ne 130 ]; then
  echo "FAIL: expected exit 130 after SIGINT, got $status"
  exit 1
fi

MERGED="$OUT/sweep_sigint.json"
if ! "$GOLDEN_DIFF" validate "$MERGED"; then
  echo "FAIL: the interrupted sweep flushed an invalid merged artifact"
  exit 1
fi
if ! grep -q '"status": "stopped"' "$MERGED"; then
  echo "FAIL: the merged artifact marks no point stopped"
  exit 1
fi

echo "--- resuming the interrupted sweep"
if ! "$PET_SWEEP" "${ARGS[@]}" --out="$OUT" --resume > /dev/null \
    2>> "$OUT.err"; then
  echo "FAIL: the resumed sweep did not complete"
  exit 1
fi
"$GOLDEN_DIFF" canon "$MERGED" > "$OUT.canon" || exit 1
if ! cmp "$WORK/ref.canon" "$OUT.canon"; then
  echo "FAIL: resumed merged artifact diverges from the uninterrupted run"
  exit 1
fi
echo "PASS: SIGINT flushed a valid artifact, and resume matched"
exit 0
