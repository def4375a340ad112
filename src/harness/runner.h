// Multi-threaded workload driver and result types for the benchmark harness.

#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>

// Hard check for a bench kernel's calls: a failed op would invalidate every
// counter downstream. (assert() is compiled out of RelWithDebInfo builds.)
#define CHECK_OK(expr)                                                                     \
  do {                                                                                     \
    if (!(expr).ok()) {                                                                    \
      std::fprintf(stderr, "harness: %s failed at %s:%d\n", #expr, __FILE__, __LINE__);  \
      std::abort();                                                                        \
    }                                                                                      \
  } while (0)

namespace harness {

struct WorkloadResult {
  uint64_t total_ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  double mean_latency_ns = 0;
};

// Runs `worker(thread_idx)` on `n` threads after a start barrier; each worker
// returns the number of operations it completed. Reports aggregate
// throughput over wall-clock time.
//
// Note: this host is single-core, so thread sweeps measure behaviour under
// contention and time-slicing rather than parallel speedup; relative
// ordering between file systems (which is what the paper's figures compare)
// is preserved.
WorkloadResult RunThreads(int n, const std::function<uint64_t(int)>& worker);

// Reads an environment override: ZR_<name>, falling back to `def`.
uint64_t EnvOr(const char* name, uint64_t def);

}  // namespace harness

#endif  // SRC_HARNESS_RUNNER_H_
