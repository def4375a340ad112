#!/usr/bin/env bash
# One-stop verification gate: build + tier-1 tests, the same tests under the
# persistence/protection auditor (ZOFS_AUDIT=1), an ASan+UBSan build of the
# suite, the Clang -Wthread-safety build (when clang++ is installed),
# zofs_lint over the source tree, clang-tidy (when installed), a
# deterministic pmem_audit replay of the Figure-8 workload (DWOL), the
# metadata fault-injection campaign (deterministic across thread counts, plus
# a bounded sanitized run), a smoke run of every repository-benchmark
# workload, the Table 7 kvstore benchmark with every op checked, the Table 9
# cross-coffer benchmark with its allocation table checked, and a TSan
# build running the threaded scalability stress. Prints a per-gate summary
# table and exits nonzero on any finding.
#
#   tools/check_all.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SAN_DIR="${BUILD_DIR}-san"
TSA_DIR="${BUILD_DIR}-tsa"
TSAN_DIR="${BUILD_DIR}-tsan"
FAIL=0

TMPFILES=()
cleanup() { rm -f "${TMPFILES[@]+"${TMPFILES[@]}"}"; }
trap cleanup EXIT
mktmp() {
  local f
  f=$(mktemp)
  TMPFILES+=("$f")
  printf '%s' "$f"
}

# Per-gate accounting for the summary table: gate <name> <PASS|FAIL|SKIP>.
GATE_NAMES=()
GATE_RESULTS=()
gate() {
  GATE_NAMES+=("$1")
  GATE_RESULTS+=("$2")
  if [ "$2" = FAIL ]; then
    FAIL=1
  fi
}

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1 build ($BUILD_DIR)"
cmake -S . -B "$BUILD_DIR" >/dev/null
cmake --build "$BUILD_DIR" -j
gate "build" PASS

step "tier-1 ctest"
if ctest --test-dir "$BUILD_DIR" -j8 --output-on-failure; then
  gate "ctest" PASS
else
  gate "ctest" FAIL
fi

step "tier-1 ctest under ZOFS_AUDIT=1"
if ZOFS_AUDIT=1 ctest --test-dir "$BUILD_DIR" -j8 --output-on-failure; then
  gate "ctest-audit" PASS
else
  gate "ctest-audit" FAIL
fi

step "ASan+UBSan build + ctest ($SAN_DIR)"
cmake -S . -B "$SAN_DIR" -DZOFS_SANITIZE=address,undefined >/dev/null
cmake --build "$SAN_DIR" -j
if ctest --test-dir "$SAN_DIR" -j4 --output-on-failure; then
  gate "asan-ubsan" PASS
else
  gate "asan-ubsan" FAIL
fi

step "thread-safety analysis build ($TSA_DIR)"
# Clang proves the capability annotations (GUARDED_BY/REQUIRES/...) from
# src/common/mutex.h; under gcc the attributes expand to nothing, so the
# gate is meaningful only when clang++ exists.
CLANGXX="$(command -v clang++ || true)"
if [ -n "$CLANGXX" ]; then
  if cmake -S . -B "$TSA_DIR" -DCMAKE_CXX_COMPILER="$CLANGXX" \
       -DZOFS_THREAD_SAFETY=ON >/dev/null &&
     cmake --build "$TSA_DIR" -j; then
    gate "thread-safety" PASS
  else
    gate "thread-safety" FAIL
  fi
else
  echo "check_all.sh: clang++ not found; -Wthread-safety gate SKIPPED" \
       "(annotations are inert under gcc)"
  gate "thread-safety" SKIP
fi

step "zofs_lint (domain rules over src/)"
cmake --build "$BUILD_DIR" -j --target zofs_lint
if "$BUILD_DIR"/tools/zofs_lint src; then
  gate "zofs-lint" PASS
else
  gate "zofs-lint" FAIL
fi

step "clang-tidy"
if tools/run_tidy.sh "$BUILD_DIR"; then
  gate "clang-tidy" PASS
else
  gate "clang-tidy" FAIL
fi

step "bench-budget: persistence-cost ceilings (bench/budgets.json), determinism check"
# Deterministic clwb/sfence-per-op regression gate for the epoch batcher:
# runs the scalability sweep (fig8 skipped for speed) twice and compares the
# counters against the checked-in budgets. Counters are exact functions of
# the seed, so this is host-independent, and every field of every sweep
# point except the wall-clock ones must repeat exactly across the two runs.
cmake --build "$BUILD_DIR" -j --target bench_json
J=$(mktmp); J2=$(mktmp)
if ZR_BENCH_FIG8=0 "$BUILD_DIR"/tools/bench_json "$J" >/dev/null &&
   ZR_BENCH_FIG8=0 "$BUILD_DIR"/tools/bench_json "$J2" >/dev/null &&
   python3 tools/check_bench_budget.py "$J" bench/budgets.json --repeat "$J2"; then
  gate "bench-budget" PASS
else
  gate "bench-budget" FAIL
fi

step "pmem_audit: fig8 workload (DWOL on zofs), determinism check"
A=$(mktmp); B=$(mktmp)
PMEM_OK=1
"$BUILD_DIR"/tools/pmem_audit --fs=zofs --workload=DWOL --ops=2000 --json > "$A" || PMEM_OK=0
"$BUILD_DIR"/tools/pmem_audit --fs=zofs --workload=DWOL --ops=2000 --json > "$B" || PMEM_OK=0
if ! diff -q "$A" "$B" >/dev/null; then
  echo "pmem_audit: report is not deterministic across two runs" >&2
  diff "$A" "$B" >&2 || true
  PMEM_OK=0
fi
if [ "$PMEM_OK" -eq 1 ]; then gate "pmem-audit" PASS; else gate "pmem-audit" FAIL; fi

step "crash_explore: every crashmon workload on zofs, bounded sweeps + determinism check"
# DWOL overwrites, DWAL staged appends, CHURN channel refills; MWCL creates,
# MWUL unlinks, MWRL renames over coffer roots and MIXED mixes creates,
# mkdir/rmdir, renames and unlinks (the namespace paths of the create,
# release and rename code). The second run uses one worker instead of the
# default four: the report must not depend on the worker count.
CRASH_OK=1
for wl in DWOL DWAL CHURN MWCL MWUL MWRL MIXED; do
  A=$(mktmp); B=$(mktmp)
  "$BUILD_DIR"/tools/crash_explore --workload=$wl --ops=100 --max-points=200 --json > "$A" || CRASH_OK=0
  "$BUILD_DIR"/tools/crash_explore --workload=$wl --ops=100 --max-points=200 --threads=1 --json \
    > "$B" || CRASH_OK=0
  if ! diff -q "$A" "$B" >/dev/null; then
    echo "crash_explore: $wl report differs between 4 workers and 1" >&2
    diff "$A" "$B" >&2 || true
    CRASH_OK=0
  fi
done
if [ "$CRASH_OK" -eq 1 ]; then gate "crash-explore" PASS; else gate "crash-explore" FAIL; fi

step "fault_inject: bounded metadata corruption campaign, determinism check"
A=$(mktmp); B=$(mktmp)
FI_OK=1
# The campaign exits 1 only on a crash/hang/escape verdict, which is exactly
# the regression this gate exists to catch; a hardened build must be CLEAN.
"$BUILD_DIR"/tools/fault_inject --seed=42 --threads=8 --json > "$A" || FI_OK=0
"$BUILD_DIR"/tools/fault_inject --seed=42 --threads=3 --json > "$B" || FI_OK=0
if ! diff -q "$A" "$B" >/dev/null; then
  echo "fault_inject: report is not deterministic across thread counts" >&2
  diff "$A" "$B" >&2 || true
  FI_OK=0
fi
if [ "$FI_OK" -eq 1 ]; then gate "fault-inject" PASS; else gate "fault-inject" FAIL; fi

step "fault_inject under ASan+UBSan (bounded)"
if "$SAN_DIR"/tools/fault_inject --seed=42 --threads=4 --max-trials=24 --json >/dev/null; then
  gate "fault-inject-san" PASS
else
  gate "fault-inject-san" FAIL
fi

step "zofs_soak: tenant kill/churn soak, determinism check"
# Seeded tenant-death campaign (ISSUE 9): kills at every injection point,
# stray-write bursts, lease steals with online repair, reaping, periodic
# crash/remount. Exits nonzero on any fsck violation, MPK escape, or stuck
# survivor; the JSON report is a pure function of the seed, so two runs must
# be byte-identical.
A=$(mktmp); B=$(mktmp)
SOAK_OK=1
"$BUILD_DIR"/tools/zofs_soak --seed=42 --json > "$A" || SOAK_OK=0
"$BUILD_DIR"/tools/zofs_soak --seed=42 --json > "$B" || SOAK_OK=0
if ! diff -q "$A" "$B" >/dev/null; then
  echo "zofs_soak: report is not deterministic across two runs" >&2
  diff "$A" "$B" >&2 || true
  SOAK_OK=0
fi
if [ "$SOAK_OK" -eq 1 ]; then gate "tenant-soak" PASS; else gate "tenant-soak" FAIL; fi

step "zofs_soak --key-pressure: kill/churn under MPK key overcommit"
# ISSUE 10: same campaign, but every tenant churns 18 distinct-permission
# coffers so each process holds more protection classes than the 15 physical
# keys and the whole soak (kills, stray bursts, reaping, steals, remounts)
# rides the LRU key window. All four oracles must stay clean, the report
# must actually show window traffic (key_evictions > 0), and it must remain
# a pure function of the seed.
A=$(mktmp); B=$(mktmp)
KP_OK=1
"$BUILD_DIR"/tools/zofs_soak --key-pressure --seed=42 --json > "$A" || KP_OK=0
"$BUILD_DIR"/tools/zofs_soak --key-pressure --seed=42 --json > "$B" || KP_OK=0
if ! diff -q "$A" "$B" >/dev/null; then
  echo "zofs_soak --key-pressure: report is not deterministic across two runs" >&2
  diff "$A" "$B" >&2 || true
  KP_OK=0
fi
if ! grep -q '"key_evictions":0,' "$A"; then :; else
  echo "zofs_soak --key-pressure: no key evictions — the overcommit did not bite" >&2
  KP_OK=0
fi
if [ "$KP_OK" -eq 1 ]; then gate "key-pressure-soak" PASS; else gate "key-pressure-soak" FAIL; fi

step "perfbench-smoke: every repository-benchmark workload at --size small"
# Each workload of BENCHMARK.json, untraced and traced, with its model oracle
# and crash pass (perfbench/smoke_test.py). A hot-path change that breaks a
# workload's set-up fails here rather than in a benchmark run. The Release
# perfbench build goes to $BUILD_DIR-bench/perfbench.
if CARGO_TARGET_DIR="$BUILD_DIR-bench" python3 perfbench/smoke_test.py; then
  gate "perfbench-smoke" PASS
else
  gate "perfbench-smoke" FAIL
fi

step "table7-smoke: bench_table7_leveldb at its default size"
# bench_table7_leveldb aborts on a failed write or a Get that does not return
# the value written. At the default 50,000 ops per row the memtable flushes,
# so the reads go through sorted tables on all four file systems.
cmake --build "$BUILD_DIR" -j --target bench_table7_leveldb
if env -u ZR_TABLE7_N "$BUILD_DIR"/bench/bench_table7_leveldb >/dev/null; then
  gate "table7-smoke" PASS
else
  gate "table7-smoke" FAIL
fi

step "table9-smoke: bench_table9_worstcase at 200 files"
# The one bench that drives CofferSplit (chmod) and CofferMovePages (rename)
# at scale. It exits nonzero on a failed chmod or rename, and when KernFS's
# allocation table and coffer run maps disagree after a ZoFS measurement.
cmake --build "$BUILD_DIR" -j --target bench_table9_worstcase
if env -u ZR_TABLE9_FILE_BYTES ZR_TABLE9_FILES=200 "$BUILD_DIR"/bench/bench_table9_worstcase \
     >/dev/null; then
  gate "table9-smoke" PASS
else
  gate "table9-smoke" FAIL
fi

step "TSan build + threaded scalability stress ($TSAN_DIR)"
# Only the ScalabilityTsan fixtures run here: they confine themselves to
# TSan-clean shapes (private coffers, lease-locked shared appends). The
# racy-by-design shared-directory storms stay in the regular suite.
cmake -S . -B "$TSAN_DIR" -DZOFS_SANITIZE=thread >/dev/null
cmake --build "$TSAN_DIR" -j --target scalability_test
if TSAN_OPTIONS="halt_on_error=1" "$TSAN_DIR"/tests/scalability_test \
     --gtest_filter='ScalabilityTsan*'; then
  gate "tsan-stress" PASS
else
  gate "tsan-stress" FAIL
fi

step "summary"
for i in "${!GATE_NAMES[@]}"; do
  printf '  %-18s %s\n' "${GATE_NAMES[$i]}" "${GATE_RESULTS[$i]}"
done

if [ "$FAIL" -ne 0 ]; then
  step "FAILED"
  exit 1
fi
step "all checks passed"
