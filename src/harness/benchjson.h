// Machine-readable multicore benchmark harness (bench_json).
//
// Sweeps thread counts over FxMark-style workloads (append, create, unlink,
// rename, churn) in two coffer placements — private (one coffer per thread,
// forced by distinct permission groups) and shared (every thread in the root
// coffer's group) — on the production ZoFS configuration.
//
// Two additional single-thread sweeps exercise MPK key pressure:
//
//   table3      64 same-mode directory coffers (one protection class) — key
//               virtualization shares one physical key, so key_evictions
//               must be exactly 0;
//   table4      64 directory coffers cycling 24 distinct permission groups
//               (25 protection classes > 15 keys) — the LRU key window keeps
//               evictions bounded and cheap (page retags, no unmap).
//
// Each datapoint reports wall-clock throughput/latency plus
// *deterministic* structural counters — kernel crossings, clwb flushes,
// sfence fences, shard-lock / fd-lock acquisitions, staged-append fast
// path hits, and the key-pressure trio (key_evictions, key_retag_pages,
// key_class_count) — plus the derived clwb_per_op / sfence_per_op /
// key_evictions_per_op rates the budget gate (tools/check_all.sh)
// regresses on. All are
// exact functions of the workload at a fixed seed and therefore stable across
// runs and hosts. Two mechanisms make that true: the rename kernel only
// overwrites pre-created targets (no interleaving-dependent page
// allocation in the measured region), and each sweep point pins the
// logical clock so no lease word can lapse mid-run.
// On a single-core host the timing fields measure contention under
// time-slicing, not parallel speedup; lock_acquisitions_per_op is the
// host-independent scalability signal (the steady-state hot path takes
// zero shared locks per op).

#ifndef SRC_HARNESS_BENCHJSON_H_
#define SRC_HARNESS_BENCHJSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace harness {

struct BenchJsonOptions {
  std::vector<int> thread_counts = {1, 2, 4, 8};
  uint64_t ops_per_thread = 2000;
  uint64_t seed = 42;
  size_t dev_bytes = 256ull << 20;
  uint64_t append_cap_blocks = 2048;  // DWAL wraps its file at this size
  // Single-thread Figure-8 style breakdown (ZoFS variants under the default
  // calibrated cost model), used to detect hot-path regressions.
  bool run_fig8 = true;
  uint64_t fig8_ops = 4000;
};

// Runs the sweep and returns the complete JSON document (schema
// "zofs-bench-scale-v6", fixed key order).
std::string RunBenchJson(const BenchJsonOptions& opts = {});

}  // namespace harness

#endif  // SRC_HARNESS_BENCHJSON_H_
