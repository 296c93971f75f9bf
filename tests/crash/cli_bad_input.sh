#!/usr/bin/env bash
# Bad input is a usage error, never a crash: pet_sim_cli, pet_sweep and the
# examples with positional arguments must answer a value they cannot run
# with "<tool>: <message>" and exit 2, and pet_sweep must answer a flag it
# does not know (the removed training and retry flags among them) with
# "unknown option: <flag>" and exit 2, running nothing.
#
# Usage: cli_bad_input.sh <pet_sim_cli> <pet_sweep> <ecn_sweep>
#                         <incast_scenario> <workdir>
set -u

CLI=$1
PET_SWEEP=$2
ECN_SWEEP=$3
INCAST=$4
WORK=$5
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
expect_usage_error duplicate_points pet_sweep "${SWEEP[@]}" \
    --out="$WORK/duplicate_points" --load=0.5,0.50
# Only the paper's schemes run: SECN1, SECN2, ACC and PET (and PET's
# ablation). A sweep runs on one fabric family.
for scheme in amt qaecn; do
  expect_usage_error "sim_cli_${scheme}_scheme" pet_sim_cli "${SIM[@]}" \
      --scheme="$scheme"
  expect_usage_error "sweep_${scheme}_scheme" pet_sweep "${SWEEP[@]}" \
      --out="$WORK/sweep_${scheme}_scheme" --scheme="$scheme"
done
expect_usage_error sweep_topo_list pet_sweep "${SWEEP[@]}" \
    --out="$WORK/sweep_topo_list" --topo=leaf-spine,fat-tree
# An output directory that cannot be made is a usage error that runs no
# point, not a failure of every point.
touch "$WORK/regular_file"
expect_usage_error out_dir_below_file pet_sweep "${SWEEP[@]}" \
    --out="$WORK/regular_file/sub"
# The examples read their positional arguments just as strictly, and leave
# the scenario's own checks to ScenarioConfig::validate().
expect_usage_error ecn_sweep_non_numeric_load ecn_sweep "$ECN_SWEEP" abc 1
expect_usage_error ecn_sweep_trailing_text_load ecn_sweep "$ECN_SWEEP" 0.6xyz
expect_usage_error ecn_sweep_negative_measure ecn_sweep "$ECN_SWEEP" 0.6 -3
expect_usage_error ecn_sweep_load_above_one ecn_sweep "$ECN_SWEEP" 1.5
expect_usage_error incast_non_numeric_fan_in incast_scenario "$INCAST" abc
expect_usage_error incast_zero_fan_in incast_scenario "$INCAST" 0

# A merged artifact that cannot be written fails the run (exit 1) with a
# message, after every point completed.
mkdir -p "$WORK/merged_blocked/sweep_sweep.json"
"${SWEEP[@]}" --out="$WORK/merged_blocked" > "$WORK/merged_blocked.out" \
    2> "$WORK/merged_blocked.err"
rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL merged_blocked: exit $rc, want 1"
  cat "$WORK/merged_blocked.err"
  fail=1
elif ! grep -q "^pet_sweep: cannot write the merged artifact" \
    "$WORK/merged_blocked.err"; then
  echo "FAIL merged_blocked: no 'pet_sweep: cannot write the merged artifact' line"
  cat "$WORK/merged_blocked.err"
  fail=1
else
  echo "ok   merged_blocked: $(grep "^pet_sweep: " "$WORK/merged_blocked.err")"
fi

# expect_unknown_option NAME FLAG COMMAND...: COMMAND FLAG exits 2 with an
# "unknown option: FLAG" line on stderr and writes nothing to its --out.
expect_unknown_option() {
  local name=$1
  local flag=$2
  shift 2
  "$@" "$flag" --out="$WORK/$name" > "$WORK/$name.out" 2> "$WORK/$name.err"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL $name: exit $rc, want 2"
    cat "$WORK/$name.err"
    fail=1
  elif ! grep -qxF "unknown option: $flag" "$WORK/$name.err"; then
    echo "FAIL $name: no 'unknown option: $flag' line on stderr"
    cat "$WORK/$name.err"
    fail=1
  elif [ -e "$WORK/$name" ]; then
    echo "FAIL $name: the sweep wrote $WORK/$name"
    fail=1
  else
    echo "ok   $name: unknown option: $flag"
  fi
}

# pet_sweep runs evaluation grids only: its former training flags are gone.
expect_unknown_option train_episodes --train-episodes=1 "${SWEEP[@]}"
expect_unknown_option replicas --replicas=2 "${SWEEP[@]}"
expect_unknown_option checkpoint_every --checkpoint-every=1 "${SWEEP[@]}"
# Each point runs once: its former watchdog, retry and hang flags are gone.
expect_unknown_option watchdog_seconds --watchdog-seconds=1 "${SWEEP[@]}"
expect_unknown_option grace_seconds --grace-seconds=1 "${SWEEP[@]}"
expect_unknown_option negative_retries --max-retries=-1 "${SWEEP[@]}"
expect_unknown_option max_retries --max-retries=2 "${SWEEP[@]}"
expect_unknown_option backoff_base --backoff-base=0.1 "${SWEEP[@]}"
expect_unknown_option backoff_cap --backoff-cap=1 "${SWEEP[@]}"
expect_unknown_option hang_point --hang-point=0 "${SWEEP[@]}"
expect_unknown_option hang_seconds --hang-seconds=1 "${SWEEP[@]}"

exit "$fail"
