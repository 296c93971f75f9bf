#!/usr/bin/env bash
# Paired A/B of the scenario benchmark: a parent revision against the
# working tree, for backing (or refusing) a speed claim.
#
#   tools/ab_scenario.sh PARENT_REV WORKLOAD SEED [PAIRS] [SECONDS]
#
# PARENT_REV is built in a temporary `git worktree` (removed on exit) with
# its own CARGO_TARGET_DIR; the working tree builds into .bench_build/ (or
# $CARGO_TARGET_DIR). Then PAIRS (default 10) alternating pairs of
#   python3 scenario_bench/run.py --workload WORKLOAD --seed SEED \
#       --seconds SECONDS --trace 0
# run, the parent first on odd pairs and second on even ones, so drift in
# the host's speed falls on both sides. SECONDS defaults to BENCHMARK.json's
# run_seconds (25).
#
# Per side it prints the median and quartiles of every end-to-end metric in
# BENCHMARK.json, plus the unscaled rate and host-probe time each run
# printed, and each side's outputs digests. Per metric it then prints the
# change's wins (pairs where it is strictly better) and the claim rule: at
# least 9 wins in 10 pairs, and a median gap in the better direction larger
# than the parent's interquartile range. Fewer than 10 pairs never carry a
# claim. Each run's full output stays in the temporary directory until exit.
#
# Usage errors (argument count, a seed, pair count or duration that is not
# a number, an unknown workload or revision) exit 2 before anything is
# built; a failed build or run exits 1.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
  echo "ab_scenario: $1" >&2
  echo "usage: tools/ab_scenario.sh PARENT_REV WORKLOAD SEED [PAIRS] [SECONDS]" >&2
  exit 2
}

[[ $# -ge 3 && $# -le 5 ]] || usage "expected 3 to 5 arguments, got $#"
rev="$1"
workload="$2"
seed="$3"
pairs="${4:-10}"
seconds="${5:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "${root}/BENCHMARK.json")}"

[[ "${seed}" =~ ^[0-9]+$ ]] || usage "SEED must be a whole number, got '${seed}'"
[[ "${pairs}" =~ ^[0-9]+$ && "${pairs}" -ge 1 ]] ||
  usage "PAIRS must be a whole number >= 1, got '${pairs}'"
[[ "${seconds}" =~ ^[0-9]+([.][0-9]+)?$ ]] &&
  awk "BEGIN { exit !(${seconds} > 0) }" ||
  usage "SECONDS must be a positive number, got '${seconds}'"
python3 - "${root}/BENCHMARK.json" "${workload}" <<'EOF' ||
import json, sys
names = [w["name"] for w in json.load(open(sys.argv[1]))["workloads"]]
sys.exit(0 if sys.argv[2] in names else 1)
EOF
  usage "unknown workload '${workload}'"
git -C "${root}" rev-parse --verify --quiet "${rev}^{commit}" >/dev/null ||
  usage "'${rev}' does not name a commit of this checkout"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab_scenario.XXXXXX")"
parent="${tmp}/parent"
cleanup() {
  if [[ -d "${parent}" ]]; then
    git -C "${root}" worktree remove --force "${parent}" >/dev/null 2>&1 || true
  fi
  git -C "${root}" worktree prune >/dev/null 2>&1 || true
  rm -rf "${tmp}"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "${root}" worktree add --quiet --detach "${parent}" "${rev}"
parent_build="${tmp}/parent-build"
tree_build="${CARGO_TARGET_DIR:-${root}/.bench_build}"
mkdir -p "${tmp}/runs"

# run_side SIDE PAIR: one benchmark run of SIDE (parent|change) into runs/.
run_side() {
  local dir build
  if [[ "$1" == parent ]]; then dir="${parent}" build="${parent_build}"
  else dir="${root}" build="${tree_build}"; fi
  if ! (cd "${dir}" && CARGO_TARGET_DIR="${build}" python3 \
      scenario_bench/run.py --workload "${workload}" --seed "${seed}" \
      --seconds "${seconds}" --trace 0) > "${tmp}/runs/$1_$2.txt"; then
    echo "ab_scenario: $1 run of pair $2 failed" >&2
    tail -n 20 "${tmp}/runs/$1_$2.txt" >&2
    exit 1
  fi
  echo "pair $2 $1: $(grep -m1 'outputs digest' "${tmp}/runs/$1_$2.txt")"
}

echo "ab_scenario: ${workload} seed ${seed}, ${pairs} pairs of ${seconds} s," \
     "parent $(git -C "${root}" rev-parse --short "${rev}") vs working tree"
for ((p = 1; p <= pairs; ++p)); do
  if ((p % 2 == 1)); then run_side parent "${p}"; run_side change "${p}"
  else run_side change "${p}"; run_side parent "${p}"; fi
done

python3 - "${root}/BENCHMARK.json" "${tmp}/runs" "${pairs}" <<'EOF'
import json, math, re, statistics, sys

bench, runs, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
header = re.compile(r"outputs digest (\w+), host probe ([\d.]+) ms .*"
                    r"unscaled sim ms per wall s ([\d.]+)")

def load(side):
    out = []
    for p in range(1, pairs + 1):
        text = open(f"{runs}/{side}_{p}.txt").read()
        m = header.search(text)
        metrics = json.loads(text.strip().splitlines()[-1])["metrics"]
        out.append({"digest": m.group(1), "probe_ms": float(m.group(2)),
                    "unscaled": float(m.group(3)),
                    **{k: v["value"] for k, v in metrics.items()}})
    return out

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

sides = {"parent": load("parent"), "change": load("change")}
rows = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
rows += [("unscaled", "ms/s"), ("probe_ms", "ms")]
print(f"\n{'metric':<22}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}")
for name, unit in rows:
    for side, rs in sides.items():
        q1, q2, q3 = quartiles([r[name] for r in rs])
        print(f"{name:<22}{side:<8}{q1:>12.4g}{q2:>12.4g}{q3:>12.4g}  {unit}")
for side, rs in sides.items():
    print(f"{side} outputs digests: {' '.join(sorted({r['digest'] for r in rs}))}")

need = math.ceil(0.9 * pairs)
print(f"\nclaim rule: >= {need}/{pairs} wins and median gap > parent IQR")
for m in bench["end_to_end"]:
    name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
    par = [r[name] for r in sides["parent"]]
    chg = [r[name] for r in sides["change"]]
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    q1, med_p, q3 = quartiles(par)
    gap = sign * (statistics.median(chg) - med_p)
    holds = pairs >= 10 and wins >= need and gap > q3 - q1
    rel = f"{100.0 * gap / abs(med_p):+.1f}%" if med_p else "n/a"
    print(f"  {name:<20} wins {wins}/{pairs}, median gap {gap:+.4g} ({rel}),"
          f" parent IQR {q3 - q1:.4g}: claim {'holds' if holds else 'fails'}"
          + ("" if pairs >= 10 else " (fewer than 10 pairs)"))
EOF
