#!/usr/bin/env bash
# SIGINT acceptance for pet_sim_cli: interrupt one long scenario run while
# it simulates, and demand exit 130, an "interrupted at t=<ms>" line on
# stderr, and a valid run artifact marked "interrupted": true. A run that
# ends before the signal lands fails the test.
#
# Usage: sim_cli_sigint.sh <pet_sim_cli> <golden_diff> <workdir>
set -u

CLI=$1
GOLDEN_DIFF=$2
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"

# A 4-host SECN1 fabric measured for 20 s of simulated time: about half a
# minute of wall time, so a signal sent after one second lands mid-run.
ARTIFACT="$WORK/run.json"
"$CLI" --scheme=secn1 --spines=1 --leaves=2 --hosts-per-leaf=2 \
  --measure-ms=20000 --artifact="$ARTIFACT" \
  > "$WORK/run.out" 2> "$WORK/run.err" &
pid=$!
sleep 1
if ! kill -0 "$pid" 2> /dev/null; then
  wait "$pid"
  echo "FAIL: the run ended (exit $?) before the signal could land"
  exit 1
fi
kill -INT "$pid"
wait "$pid"
status=$?
if [ "$status" -ne 130 ]; then
  echo "FAIL: expected exit 130 after SIGINT, got $status"
  cat "$WORK/run.err"
  exit 1
fi
if ! grep -q '^interrupted at t=[0-9.]*ms' "$WORK/run.err"; then
  echo "FAIL: no 'interrupted at t=<ms>' line on stderr"
  cat "$WORK/run.err"
  exit 1
fi
if ! "$GOLDEN_DIFF" validate "$ARTIFACT"; then
  echo "FAIL: the interrupted run flushed an invalid artifact"
  exit 1
fi
if ! grep -q '"interrupted": true' "$ARTIFACT"; then
  echo "FAIL: the artifact is not marked interrupted"
  exit 1
fi
echo "PASS: $(grep '^interrupted at' "$WORK/run.err"), artifact valid"
exit 0
