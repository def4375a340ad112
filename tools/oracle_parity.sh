#!/usr/bin/env bash
# Oracle parity between two builds of this repository: runs every
# deterministic oracle in both build directories and compares the reports.
#
#   tools/oracle_parity.sh PARENT_BUILD CHANGE_BUILD
#
# PARENT_BUILD and CHANGE_BUILD are CMake build directories (for example one
# of a clone of the parent commit and one of the change). The oracles:
#   * crash_explore --ops=100 --max-points=200 --json, all seven workloads;
#   * fault_inject --seed=42 --threads=4 --json;
#   * zofs_soak --seed=42 --json, with and without --key-pressure;
#   * pmem_audit --fs=zofs --ops=2000 --json on DWOL and MWCL, with the
#     `file.cc:<line>` part of finding sites normalized (moved code changes
#     the labels, not the counts);
#   * ZR_BENCH_FIG8=0 bench_json, whose structural fields are compared with
#     tools/check_bench_budget.py --repeat (wall-clock fields differ by run).
# Each oracle's exit status is part of its report. Prints SAME or DIFF per
# oracle and exits 1 on any DIFF (2 on bad usage).
set -uo pipefail

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
FAIL=0

# report <build> <file> <tool> [args...]: the tool's stdout plus its exit status.
report() {
  local build=$1 file=$2 tool=$3
  shift 3
  "$build/tools/$tool" "$@" > "$file" 2>/dev/null
  echo "exit=$?" >> "$file"
}

# compare <name> <file-stem>: SAME when both builds' reports are identical.
compare() {
  if cmp -s "$OUT/parent.$2" "$OUT/change.$2"; then
    printf '  %-32s SAME\n' "$1"
  else
    printf '  %-32s DIFF\n' "$1"
    diff "$OUT/parent.$2" "$OUT/change.$2" | head -20 | sed 's/^/      /'
    FAIL=1
  fi
}

normalize_sites() { sed -E 's/([A-Za-z0-9_]+\.cc):[0-9]+/\1:N/g' "$1" > "$1.norm"; }

for side in parent change; do
  build=$PARENT
  [ "$side" = change ] && build=$CHANGE
  for wl in DWOL DWAL CHURN MWCL MWUL MWRL MIXED; do
    report "$build" "$OUT/$side.crash.$wl" crash_explore --workload=$wl --ops=100 \
      --max-points=200 --json
  done
  report "$build" "$OUT/$side.fault" fault_inject --seed=42 --threads=4 --json
  report "$build" "$OUT/$side.soak" zofs_soak --seed=42 --json
  report "$build" "$OUT/$side.soak-kp" zofs_soak --seed=42 --key-pressure --json
  for wl in DWOL MWCL; do
    report "$build" "$OUT/$side.audit.$wl" pmem_audit --fs=zofs --workload=$wl --ops=2000 --json
    normalize_sites "$OUT/$side.audit.$wl"
  done
  ZR_BENCH_FIG8=0 "$build/tools/bench_json" "$OUT/$side.bench.json" > /dev/null 2>&1 ||
    echo "bench_json failed in $build" >&2
done

echo "oracle parity: $PARENT vs $CHANGE"
for wl in DWOL DWAL CHURN MWCL MWUL MWRL MIXED; do
  compare "crash_explore $wl" "crash.$wl"
done
compare "fault_inject" fault
compare "zofs_soak" soak
compare "zofs_soak --key-pressure" soak-kp
for wl in DWOL MWCL; do
  compare "pmem_audit $wl" "audit.$wl.norm"
done
if python3 tools/check_bench_budget.py "$OUT/parent.bench.json" bench/budgets.json \
     --repeat "$OUT/change.bench.json" > "$OUT/bench.log" 2>&1; then
  printf '  %-32s SAME\n' "bench_json (structural)"
else
  printf '  %-32s DIFF\n' "bench_json (structural)"
  grep -v '^\[ok' "$OUT/bench.log" | head -20 | sed 's/^/      /'
  FAIL=1
fi
exit "$FAIL"
