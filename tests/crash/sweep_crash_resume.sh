#!/usr/bin/env bash
# Crash-safety acceptance: kill an evaluation sweep mid-grid (after two of
# its four point artifacts are durable) with the deterministic
# --crash-after-writes fault, rerun with --resume, and demand that the
# finished points are reused and the canonicalized merged artifact
# byte-matches an uninterrupted same-seed sweep.
#
# Usage: sweep_crash_resume.sh <pet_sweep> <golden_diff> <workdir>
set -u

PET_SWEEP=$1
GOLDEN_DIFF=$2
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"

# Four evaluation points on one worker, run in grid order: two static
# SECN1 points, then two PET points.
GRID=(--scheme=secn1,pet --load=0.5 --seed=5,6
      --spines=1 --leaves=2 --hosts-per-leaf=2
      --pretrain-ms=2 --measure-ms=1
      --threads=1 --name=crashgrid)

echo "--- reference (uninterrupted) sweep"
"$PET_SWEEP" "${GRID[@]}" --out="$WORK/ref" > /dev/null || {
  echo "FAIL: reference sweep did not complete"
  exit 1
}

echo "--- crashing sweep after 2 durable writes (two point artifacts)"
"$PET_SWEEP" "${GRID[@]}" --out="$WORK/res" --crash-after-writes=2
status=$?
if [ "$status" -ne 137 ]; then
  echo "FAIL: expected injected-crash exit 137, got $status"
  exit 1
fi
if [ -e "$WORK/res/sweep_crashgrid.json" ]; then
  echo "FAIL: merged artifact must not exist after the crash"
  exit 1
fi
artifacts=$(ls "$WORK"/res/point_*.json 2> /dev/null | wc -l)
if [ "$artifacts" -ne 2 ]; then
  echo "FAIL: expected the 2 point artifacts written before the crash, found $artifacts"
  exit 1
fi

echo "--- resuming the crashed sweep"
"$PET_SWEEP" "${GRID[@]}" --out="$WORK/res" --resume > "$WORK/resume.out" || {
  echo "FAIL: resumed sweep did not complete"
  cat "$WORK/resume.out"
  exit 1
}
reused=$(grep -c 'attempts=0' "$WORK/resume.out")
if [ "$reused" -ne 2 ]; then
  echo "FAIL: expected the resume to reuse 2 finished points, it reused $reused"
  cat "$WORK/resume.out"
  exit 1
fi

"$GOLDEN_DIFF" canon "$WORK/ref/sweep_crashgrid.json" > "$WORK/ref.canon" || exit 1
"$GOLDEN_DIFF" canon "$WORK/res/sweep_crashgrid.json" > "$WORK/res.canon" || exit 1
if ! cmp "$WORK/ref.canon" "$WORK/res.canon"; then
  echo "FAIL: resumed merged artifact diverges from the uninterrupted run"
  exit 1
fi
echo "PASS: canonical merged artifacts are byte-identical"
exit 0
