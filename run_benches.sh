#!/bin/bash
# Full benchmark suite -> build/bench_output.txt, plus the machine-readable
# scalability sweep -> build/BENCH_10.json. Outputs live under build/ so a
# bench run never dirties the source tree.
set -euo pipefail

cd "$(dirname "$0")"

if [ "$(nproc)" -eq 1 ]; then
  cat >&2 <<'EOF'
################################################################################
# WARNING: this host has ONE CPU core.                                         #
#                                                                              #
# Multi-threaded sweep points time-slice on a single core, so the wall-clock  #
# fields (ops_per_sec, mean_ns, p50/p99) do NOT measure parallel scaling and  #
# must not be compared across thread counts. Trust only the deterministic     #
# structural counters: kernel_crossings, clwb/sfence (and their _per_op       #
# rates), staged_append_hits, and lock_acquisitions_per_op.                   #
################################################################################
EOF
fi

BENCHES=(bench_table1_media bench_table2_sharing bench_table3_appperms
         bench_table4_fslhomes bench_trace_mobigen bench_fig7_fxmark
         bench_fig8_breakdown bench_fig9_filebench bench_fig10_filebench_custom
         bench_table7_leveldb bench_fig11_tpcc bench_table9_worstcase
         bench_sec65_safety_recovery bench_ablations)

# Fail loudly before spending an hour on a half-built tree.
for b in "${BENCHES[@]}"; do
  if [ ! -x "./build/bench/$b" ]; then
    echo "run_benches.sh: missing bench binary ./build/bench/$b (build first)" >&2
    exit 1
  fi
done
if [ ! -x ./build/tools/bench_json ]; then
  echo "run_benches.sh: missing ./build/tools/bench_json (build first)" >&2
  exit 1
fi

{
  echo "=== ZoFS/Treasury reproduction: full benchmark run ==="
  echo "date: $(date -u)"
  echo "host: $(nproc) core(s), DRAM-backed simulated NVM"
  echo "cost model: kernel_crossing=300ns clwb=30ns/line sfence=100ns nova_index=250ns"
  echo
  for b in "${BENCHES[@]}"; do
    echo "=============================================================="
    echo "### $b"
    echo "=============================================================="
    ./build/bench/$b
    echo
  done
  echo "=== benchmark run complete: $(date -u) ==="
} > build/bench_output.txt 2>&1

# Machine-readable multicore scalability sweep.
./build/tools/bench_json build/BENCH_10.json > /dev/null
echo "run_benches.sh: wrote build/bench_output.txt and build/BENCH_10.json"
