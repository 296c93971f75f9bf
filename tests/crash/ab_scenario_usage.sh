#!/usr/bin/env bash
# tools/ab_scenario.sh answers arguments it cannot run with
# "ab_scenario: <message>" and exit 2, before it builds anything or adds a
# git worktree.
#
# Usage: ab_scenario_usage.sh <repo root> <workdir>
set -u

ROOT=$1
WORK=$2
AB="$ROOT/tools/ab_scenario.sh"
rm -rf "$WORK"
mkdir -p "$WORK"
fail=0
worktrees() { git -C "$ROOT" worktree list 2>/dev/null | wc -l; }
before=$(worktrees)

# expect_usage_error NAME ARGS...: the tool exits 2 with its message.
expect_usage_error() {
  local name=$1
  shift
  bash "$AB" "$@" > "$WORK/$name.out" 2> "$WORK/$name.err"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL $name: exit $rc, want 2"
    cat "$WORK/$name.err"
    fail=1
  elif ! grep -q "^ab_scenario: " "$WORK/$name.err"; then
    echo "FAIL $name: no 'ab_scenario: <message>' line on stderr"
    cat "$WORK/$name.err"
    fail=1
  else
    echo "ok   $name: $(grep -m1 "^ab_scenario: " "$WORK/$name.err")"
  fi
}

expect_usage_error no_arguments
expect_usage_error two_arguments HEAD websearch_secn1
expect_usage_error six_arguments HEAD websearch_secn1 7 10 25 extra
expect_usage_error non_numeric_seed HEAD websearch_secn1 abc
expect_usage_error zero_pairs HEAD websearch_secn1 7 0
expect_usage_error non_numeric_pairs HEAD websearch_secn1 7 ten
expect_usage_error zero_seconds HEAD websearch_secn1 7 10 0
expect_usage_error trailing_text_seconds HEAD websearch_secn1 7 10 25s
expect_usage_error unknown_workload HEAD websearch_acc 7
expect_usage_error all_workloads HEAD all 7
expect_usage_error unknown_revision no-such-revision websearch_secn1 7 1 1

if [ "$(worktrees)" != "$before" ]; then
  echo "FAIL a usage error left a git worktree behind"
  git -C "$ROOT" worktree list
  fail=1
fi
exit "$fail"
