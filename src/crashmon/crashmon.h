// Crashmon — systematic crash-state exploration for recovery correctness.
//
// A deterministic single-threaded workload is recorded against a fresh ZoFS
// stack with NVM crash capture on: every syscall's begin/end fence sequence
// numbers are logged together with its arguments, and the device journals one
// CrashEpoch per sfence (src/nvm). The explorer then enumerates crash points:
//
//   * one per persistence boundary — the on-media state immediately after
//     every recorded fence;
//   * configurable mid-epoch points — the post-fence state plus a
//     deterministic subset of the *next* epoch's pending cachelines, each at
//     its fence-time content. Under the x86 persistence model any such subset
//     is a legal crash state (lines evict independently between fences).
//
// Each crash image is materialized incrementally (nvm::CrashImageBuilder),
// loaded into a recycled per-worker device, remounted (testbed::Stack),
// recovered (MicroFs::RecoverAll), and checked against two oracles:
//
//   fsck oracle        recovery succeeds, the kernel allocation table is
//                      consistent (no double-owned or leaked pages), and a
//                      full tree walk touches only valid, reachable nodes
//                      (cross-coffer references resolve).
//   durability oracle  every operation that returned before the crash is
//                      fully visible, and the at-most-one in-flight operation
//                      is atomic: entirely absent, entirely applied, or — for
//                      data writes, which ZoFS does not make atomic — torn
//                      only byte-wise between old and new content.
//
// Exploration fans out across worker threads over a deterministic work queue
// (contiguous epoch ranges), and the report is byte-stable: two runs of the
// same configuration produce identical text and JSON.

#ifndef SRC_CRASHMON_CRASHMON_H_
#define SRC_CRASHMON_CRASHMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace crashmon {

// Recorded workloads. Named after the FxMark kernels they mirror
// (tools/pmem_audit uses the same names): DWOL overwrites blocks of a
// pre-sized file (Figure 8's flagship data workload), MWCL creates, MWUL
// unlinks, MWRL renames — half of them over existing destinations, the case
// the rename intent protects. kMixed interleaves all of the above plus
// mkdir/rmdir and private-permission (cross-coffer) files. kDWAL appends
// through the staged fast path with periodic fsyncs: its durability oracle
// is POSIX-weak (content is guaranteed only up to the last completed fsync;
// un-synced appends may be wholly or partially absent), which is exactly the
// contract the epoch batcher trades fences for — the crash sweep covers
// mid-epoch and mid-relink images of the staged-append intent protocol.
// kChurn is an open/create/delete storm recorded with the per-thread
// submission channels enabled and the pinned clock stepped between ops: the
// async refill prefetch keeps the (volatile) submission/completion rings
// partially drained at most crash points, and the stepped clock lapses
// allocator leases so persisted fast-path renewals land mid-run — the sweep
// covers every image between a renewal and its next durability point.
enum class Workload { kDWOL, kMWCL, kMWUL, kMWRL, kMixed, kDWAL, kChurn };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kDWOL, Workload::kMWCL,  Workload::kMWUL, Workload::kMWRL,
    Workload::kMixed, Workload::kDWAL, Workload::kChurn,
};

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& s, Workload* out);

struct ExploreOptions {
  Workload workload = Workload::kDWOL;
  uint64_t ops = 400;             // operations recorded under crash capture
  uint64_t seed = 42;             // workload + mid-epoch subset seed
  size_t dev_bytes = 32ull << 20;
  // Crash points per fence beyond the post-fence state itself: deterministic
  // pending-line subsets of the following epoch. 0 disables mid-epoch states.
  uint32_t mid_epoch_per_fence = 2;
  // Hard cap on explored states (0 = all); states are cut in enumeration
  // order, so a capped run explores a prefix of the uncapped run.
  uint64_t max_points = 0;
  int threads = 4;
  // Planted-bug regression hook: replay the workload with the pre-fix rename
  // that removed an existing destination before moving the source (recovery
  // itself always runs the fixed code). The explorer must report violations.
  bool legacy_rename_overwrite = false;
};

struct Violation {
  uint64_t state_id = 0;   // index in deterministic enumeration order
  int64_t epoch = -1;      // base epoch of the crash image (-1 = snapshot)
  uint64_t fence_seq = 0;  // fence of the base epoch
  int mid_variant = -1;    // -1 = post-fence state, else mid-epoch subset id
  std::string kind;        // recovery-failed | fsck-alloc | walk-failed |
                           // durability-lost | atomicity | unexpected-path
  std::string detail;
};

struct ExploreReport {
  std::string fs;
  std::string workload;
  uint64_t seed = 0;
  uint64_t ops_recorded = 0;
  uint64_t ops_failed = 0;      // ops that returned an error while recording
  uint64_t epochs = 0;          // fences journaled during the recording
  uint64_t states_explored = 0;
  uint64_t mid_epoch_states = 0;  // subset of states_explored
  uint64_t violation_count = 0;
  std::vector<Violation> violations;  // first kMaxViolationDetails, in order

  static constexpr size_t kMaxViolationDetails = 50;

  std::string ToText() const;
  // Byte-stable: no timestamps, no thread-dependent content.
  std::string ToJson() const;
};

// Records the workload, enumerates crash states, recovers and checks each.
// Deterministic: the report depends only on `opts` (not on opts.threads).
ExploreReport Explore(const ExploreOptions& opts);

}  // namespace crashmon

#endif  // SRC_CRASHMON_CRASHMON_H_
