#!/usr/bin/env bash
# Bad input is a usage error, never a crash: pet_sim_cli and pet_sweep must
# answer a flag value they cannot run with "<tool>: <message>" and exit 2,
# and pet_sweep must treat a corrupt checkpoint under --resume as "no usable
# checkpoint" and train from scratch (exit 0) instead of aborting.
#
# Usage: cli_bad_input.sh <pet_sim_cli> <pet_sweep> <workdir>
set -u

CLI=$1
PET_SWEEP=$2
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"

# A tiny fabric and short phases keep every case to about a second.
SHAPE=(--spines=1 --leaves=2 --hosts-per-leaf=2 --pretrain-ms=1
       --measure-ms=1)
SIM=("$CLI" --scheme=pet "${SHAPE[@]}" --no-pretrain-cache)
SWEEP=("$PET_SWEEP" --scheme=pet --load=0.5 --seed=1 --threads=1
       "${SHAPE[@]}")
fail=0

# expect_usage_error NAME TOOL COMMAND...: COMMAND exits 2 with a
# "TOOL: <message>" line on stderr.
expect_usage_error() {
  local name=$1
  local tool=$2
  shift 2
  "$@" > "$WORK/$name.out" 2> "$WORK/$name.err"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL $name: exit $rc, want 2"
    cat "$WORK/$name.err"
    fail=1
  elif ! grep -q "^$tool: " "$WORK/$name.err"; then
    echo "FAIL $name: no '$tool: <message>' line on stderr"
    cat "$WORK/$name.err"
    fail=1
  else
    echo "ok   $name: $(grep "^$tool: " "$WORK/$name.err")"
  fi
}

expect_usage_error load_above_one pet_sim_cli "${SIM[@]}" --load=1.5
expect_usage_error odd_fat_tree_k pet_sim_cli "${SIM[@]}" --topo=fat-tree --k=3
# Every field validate() checks is left to it, so the message names the field.
expect_usage_error zero_load pet_sim_cli "${SIM[@]}" --load=0
expect_usage_error zero_measure pet_sim_cli "${SIM[@]}" --measure-ms=0
expect_usage_error zero_spines pet_sim_cli "${SIM[@]}" --spines=0
# A numeric value is read whole: no prefix of it is taken as the number.
expect_usage_error non_numeric_seed pet_sim_cli "${SIM[@]}" --seed=abc
expect_usage_error trailing_text_measure pet_sim_cli "${SIM[@]}" \
    --measure-ms=2x
expect_usage_error non_numeric_seed_list pet_sweep "$PET_SWEEP" \
    --scheme=pet --load=0.5 --seed=1,abc --threads=1 "${SHAPE[@]}" \
    --out="$WORK/non_numeric_seed_list"
expect_usage_error zero_replicas pet_sweep "${SWEEP[@]}" \
    --out="$WORK/zero_replicas" --train-episodes=1 --replicas=0
expect_usage_error negative_retries pet_sweep "${SWEEP[@]}" \
    --out="$WORK/negative_retries" --max-retries=-1
expect_usage_error duplicate_points pet_sweep "${SWEEP[@]}" \
    --out="$WORK/duplicate_points" --load=0.5,0.50

# A pet.ckpt/1 file whose one section header declares 2^46 payload bytes:
# magic, section count 1, name "meta", u64 length, u32 CRC, no payload. It
# sits where the sweep keeps the point's checkpoint.
mkdir -p "$WORK/corrupt"
CKPT="$WORK/corrupt/point_PET_load0.5_seed1.ckpt"
printf 'PETCKPT1\001\000\000\000\004\000\000\000meta' > "$CKPT"
printf '\000\000\000\000\000\100\000\000\000\000\000\000' >> "$CKPT"
"${SWEEP[@]}" --out="$WORK/corrupt" --train-episodes=1 --replicas=1 \
    --resume > "$WORK/resume.out" 2> "$WORK/resume.err"
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL corrupt_checkpoint: exit $rc, want 0"
  cat "$WORK/resume.err"
  fail=1
elif ! grep -q "sweep: ignoring checkpoint" "$WORK/resume.err"; then
  echo "FAIL corrupt_checkpoint: no 'sweep: ignoring checkpoint' line on stderr"
  cat "$WORK/resume.err"
  fail=1
else
  echo "ok   corrupt_checkpoint: $(grep "sweep: ignoring checkpoint" "$WORK/resume.err")"
fi

exit "$fail"
