// Per-layer counters the traced run reports as deltas over its measured
// phase. All reads go through the layers' public accessors; the crossing,
// steal, repair, reap and key-window counters are process-wide, which is why
// each workload runs in its own process.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>

#include "bench.h"

namespace perfbench {

struct LayerCounters {
  // kernfs
  uint64_t fg_crossings = 0;
  uint64_t bg_crossings = 0;
  // nvm
  uint64_t clwb = 0;
  uint64_t sfence = 0;
  uint64_t nvm_bytes = 0;
  // fslib
  uint64_t fd_alloc_locks = 0;
  // zofs
  uint64_t shard_locks = 0;
  uint64_t staged_hits = 0;
  uint64_t session_epochs = 0;
  uint64_t lock_steals = 0;
  uint64_t online_repairs = 0;
  uint64_t reaped_lists = 0;
  // mpk
  uint64_t key_evictions = 0;
  uint64_t key_retag_pages = 0;

  // Sums the per-instance counters over every process of `s`.
  static LayerCounters Read(Stack& s);
  LayerCounters operator-(const LayerCounters& o) const;
};

// Largest number of live protection classes any process of `s` holds.
uint64_t MaxKeyClasses(Stack& s);

// MPK violations raised on the calling thread so far (the simulated SIGSEGV).
uint64_t ThreadViolations();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
