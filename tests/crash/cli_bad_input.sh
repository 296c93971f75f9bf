#!/usr/bin/env bash
# Bad input is a usage error, never a crash: pet_sim_cli must answer a
# scenario flag the scenario rejects with "pet_sim_cli: <message>" and exit
# 2, and must treat a corrupt checkpoint under --resume as "no usable
# checkpoint" and train from scratch (exit 0) instead of aborting.
#
# Usage: cli_bad_input.sh <pet_sim_cli> <workdir>
set -u

CLI=$1
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"

# A tiny fabric and short phases keep every case to about a second.
SMALL=(--scheme=pet --spines=1 --leaves=2 --hosts-per-leaf=2
       --pretrain-ms=1 --measure-ms=1 --no-pretrain-cache)
fail=0

expect_usage_error() {
  local name=$1
  shift
  "$CLI" "${SMALL[@]}" "$@" > "$WORK/$name.out" 2> "$WORK/$name.err"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL $name: exit $rc, want 2"
    cat "$WORK/$name.err"
    fail=1
  elif ! grep -q "^pet_sim_cli: " "$WORK/$name.err"; then
    echo "FAIL $name: no 'pet_sim_cli: <message>' line on stderr"
    cat "$WORK/$name.err"
    fail=1
  else
    echo "ok   $name: $(grep "^pet_sim_cli: " "$WORK/$name.err")"
  fi
}

expect_usage_error load_above_one --load=1.5
expect_usage_error odd_fat_tree_k --topo=fat-tree --k=3
expect_usage_error zero_replicas --train-episodes=1 --replicas=0

# A pet.ckpt/1 file whose one section header declares 2^46 payload bytes:
# magic, section count 1, name "meta", u64 length, u32 CRC, no payload.
CKPT="$WORK/corrupt.ckpt"
printf 'PETCKPT1\001\000\000\000\004\000\000\000meta' > "$CKPT"
printf '\000\000\000\000\000\100\000\000\000\000\000\000' >> "$CKPT"
"$CLI" "${SMALL[@]}" --train-episodes=1 --replicas=1 --train-threads=1 \
    --checkpoint="$CKPT" --resume > "$WORK/resume.out" 2> "$WORK/resume.err"
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL corrupt_checkpoint: exit $rc, want 0"
  cat "$WORK/resume.err"
  fail=1
elif ! grep -q "starting fresh" "$WORK/resume.err"; then
  echo "FAIL corrupt_checkpoint: no 'starting fresh' line on stderr"
  cat "$WORK/resume.err"
  fail=1
else
  echo "ok   corrupt_checkpoint: $(grep "starting fresh" "$WORK/resume.err")"
fi

exit "$fail"
