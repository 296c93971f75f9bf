#!/usr/bin/env bash
# Behaviour check for refactors: every scenario benchmark workload must
# reproduce its committed outputs digest (a hash of every outcome the run
# fingerprints) on two seeds, plus ACC's held-out benchmark seed 4242.
#
#   tools/check_scenario_digests.sh
#
# For each (workload, seed) pair below it runs
#   python3 scenario_bench/run.py --workload W --seed S --seconds 1 --trace 0
# and compares the printed `outputs digest` with the expected value. The
# first run builds .bench_build/ ($CARGO_TARGET_DIR when set), which takes
# minutes, so this is not part of ctest. Exits 1 on any mismatch, failed
# run or failed correctness check; prints one line per pair.
#
# Every pair then runs a second time under `taskset -c 0`. With one usable
# CPU the process-wide fork-join pool has no workers, so ACC's learner
# steps run inline on the event thread; the digest must not change. When
# taskset is missing the script says so and skips that pass.
#
# A change that alters simulated behaviour on purpose updates the table in
# the same commit and says why.
set -uo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# workload seed digest
expected=(
  "websearch_secn1 7 ba3c5ced48dad7a5"
  "websearch_secn1 303 9e15a2e12b873e91"
  "websearch_pet 7 7e53bf6c8dd58816"
  "websearch_pet 303 2dc51aafd3929af4"
  "datamining_acc 7 f2d7c5f8564b688f"
  "datamining_acc 303 0ce41c68565177fe"
  "datamining_acc 4242 cc56b6c92adb2604"
)

status=0
# check LABEL [PREFIX...]: run every pair under the command PREFIX.
check() {
  local label="$1"
  shift
  for entry in "${expected[@]}"; do
    read -r workload seed want <<<"${entry}"
    if ! out="$(cd "${root}" && "$@" python3 scenario_bench/run.py \
        --workload "${workload}" --seed "${seed}" --seconds 1 --trace 0)"; then
      echo "FAIL ${workload} seed ${seed}${label}: run failed"
      status=1
      continue
    fi
    got="$(sed -n 's/.*outputs digest \([0-9a-f]*\),.*/\1/p' <<<"${out}")"
    if ! tail -n 1 <<<"${out}" | grep -q '"correct": true'; then
      echo "FAIL ${workload} seed ${seed}${label}: correctness checks failed"
      status=1
    elif [[ "${got}" != "${want}" ]]; then
      echo "FAIL ${workload} seed ${seed}${label}: digest ${got:-missing}, want ${want}"
      status=1
    else
      echo "ok   ${workload} seed ${seed}${label}: ${got}"
    fi
  done
}

check ""
if command -v taskset >/dev/null 2>&1; then
  check " (taskset -c 0)" taskset -c 0
else
  echo "skip taskset -c 0 pass: taskset not found"
fi
exit "${status}"
