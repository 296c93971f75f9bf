#!/usr/bin/env bash
# SIGINT flush acceptance: interrupt a one-point pet_sweep training run,
# demand exit 130 with a VALID merged artifact that marks the point stopped
# and a checkpoint on disk, then resume the same run to completion and
# demand its canonical merged artifact byte-matches an uninterrupted run.
# The signal lands once after the first checkpoint, and once between
# checkpoints, where only the stop itself can have written the checkpoint.
#
# Usage: sigint_flush.sh <pet_sweep> <golden_diff> <workdir>
set -u

PET_SWEEP=$1
GOLDEN_DIFF=$2
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"

ARGS=(--scheme=pet --load=0.5 --seed=9
      --spines=1 --leaves=2 --hosts-per-leaf=2 --pretrain-ms=2
      --train-episodes=60 --replicas=2 --threads=1 --name=sigint)

echo "--- reference (uninterrupted) training run"
"$PET_SWEEP" "${ARGS[@]}" --out="$WORK/ref" > /dev/null 2>&1 || {
  echo "FAIL: reference run did not complete"
  exit 1
}
"$GOLDEN_DIFF" canon "$WORK/ref/sweep_sigint.json" > "$WORK/ref.canon" || exit 1

# interrupt_and_resume NAME READY FLAGS...: train into $WORK/NAME, send
# SIGINT once the shell command READY succeeds, check what the stop left on
# disk, then resume to the end and compare with the reference.
interrupt_and_resume() {
  local name=$1
  local ready=$2
  shift 2
  local out="$WORK/$name"
  mkdir -p "$out"
  "$PET_SWEEP" "${ARGS[@]}" "$@" --out="$out" > /dev/null 2> "$out.err" &
  local pid=$!
  local found=0
  for _ in $(seq 1 300); do
    if eval "$ready"; then
      found=1
      break
    fi
    if ! kill -0 "$pid" 2> /dev/null; then
      break
    fi
    sleep 0.1
  done
  if [ "$found" -ne 1 ]; then
    kill -9 "$pid" 2> /dev/null
    wait "$pid" 2> /dev/null
    echo "FAIL $name: the run ended before the signal could land"
    exit 1
  fi
  kill -INT "$pid"
  wait "$pid"
  local status=$?
  if [ "$status" -ne 130 ]; then
    echo "FAIL $name: expected exit 130 after SIGINT, got $status"
    exit 1
  fi

  local merged="$out/sweep_sigint.json"
  if ! "$GOLDEN_DIFF" validate "$merged"; then
    echo "FAIL $name: the interrupted run flushed an invalid merged artifact"
    exit 1
  fi
  if ! grep -q '"status": "stopped"' "$merged"; then
    echo "FAIL $name: the merged artifact does not mark the point stopped"
    exit 1
  fi
  if ! ls "$out"/point_*.ckpt > /dev/null 2>&1; then
    echo "FAIL $name: no checkpoint on disk after SIGINT"
    exit 1
  fi

  echo "--- $name: resuming interrupted training"
  if ! "$PET_SWEEP" "${ARGS[@]}" "$@" --out="$out" --resume > /dev/null \
      2>> "$out.err"; then
    echo "FAIL $name: resume from the flushed checkpoint did not complete"
    exit 1
  fi
  if ! grep -q '"status": "resumed"' "$merged"; then
    echo "FAIL $name: the resumed merged artifact does not mark the point resumed"
    exit 1
  fi
  "$GOLDEN_DIFF" canon "$merged" > "$out.canon" || exit 1
  if ! cmp "$WORK/ref.canon" "$out.canon"; then
    echo "FAIL $name: resumed merged artifact diverges from the uninterrupted run"
    exit 1
  fi
  echo "ok   $name"
}

interrupt_and_resume after_checkpoint \
    "ls '$WORK'/after_checkpoint/point_*.ckpt > /dev/null 2>&1" \
    --checkpoint-every=1
# No periodic checkpoint before episode 1000: the one on disk after the
# signal is the stop's own flush.
interrupt_and_resume between_checkpoints \
    "grep -q 'episode 1:' '$WORK/between_checkpoints.err'" \
    --checkpoint-every=1000

echo "PASS: SIGINT flushed a valid artifact + checkpoint, and resume matched"
exit 0
