// Per-thread submission/completion channels into KernFS (ZUFS-style).
//
// Every KernFS entry point charges a full user->kernel crossing. The channel
// amortizes that cost two ways, mirroring ZUFS's per-thread channel design
// ("low latency, CPU locality, lock-less parallelism") and KucoFS's
// kernel/user collaboration split:
//
//   * Batching — a synchronous call (Map/Enlarge/Retag) does not enter the
//     kernel alone: it drains every request queued on this thread's
//     submission ring in the SAME KernelEntry, so N requests pay one
//     crossing (KernFs::ExecuteBatch).
//   * Async ring — background work (allocator refill prefetch) is
//     submitted without entering the kernel at all. It executes
//     piggybacked on the next synchronous drain, at an explicit Flush(), or
//     when its completion is first needed (TakeEnlarge); crossings charged
//     by an all-background drain are attributed to the background counter,
//     so foreground kernel_crossings_per_op measures only what an op truly
//     waited on.
//
// One Channel belongs to one submitting thread (CPU locality); a light
// SpinLock still guards the rings because ChannelSet::DrainAll (unmount) and
// stats aggregation may run from another thread. Completions for enlarge
// grants park in the done ring until the allocator harvests them inside its
// coffer window; grants never harvested are returned to the kernel
// (CofferShrink) at drain time so clean shutdowns strand no pages.
//
// Durability interaction (see DESIGN.md): a channel drain may execute
// CofferEnlarge, whose allocation-table update fences. That fence can occur
// mid-epoch of the write-path batcher; it is safe for the same reason the
// synchronous refill always was — staged data is unreachable until its
// intent publishes, so the kernel's fence exposes only kernel state.

#ifndef SRC_KERNFS_CHANNEL_H_
#define SRC_KERNFS_CHANNEL_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/kernfs/kernfs.h"

namespace kernfs {

// Per-channel accounting (the per-thread crossing counters of the
// CrossingCount() attribution bugfix; aggregated by ChannelSet).
struct ChannelStats {
  uint64_t crossings = 0;          // KernelEntry constructions via this channel
  uint64_t foreground_crossings = 0;
  uint64_t background_crossings = 0;
  uint64_t requests = 0;           // requests executed (sync + async)
  uint64_t batched_requests = 0;   // requests that shared a crossing with others
  uint64_t async_submitted = 0;    // requests queued on the async ring
  uint64_t harvested = 0;          // completions consumed (TakeEnlarge/Harvest)
};

class Channel {
 public:
  // Registers with the KernFs channel registry so the dead-process reaper can
  // find this ring if the owning process is killed; the dtor unregisters.
  Channel(KernFs* kfs, Process* proc);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // ---- synchronous ops: queue-drain + self in ONE KernelEntry -------------
  Result<MapInfo> Map(uint32_t coffer_id, bool writable);
  Result<std::vector<PageRun>> Enlarge(uint32_t coffer_id, uint64_t n_pages);
  // Key-window fault-in (ChanOp::kRetag, ISSUE 10): restores a physical key
  // to the coffer's protection class and retags its pages, batched with
  // whatever else is queued — one crossing, no unmap.
  Result<MapInfo> Retag(uint32_t coffer_id);

  // ---- async ring ---------------------------------------------------------
  // Queues a refill request; no crossing now. At most one enlarge is kept
  // pending per coffer (returns 0 when one is already pending or completed-
  // unharvested, else the submission seq).
  uint64_t SubmitEnlarge(uint32_t coffer_id, uint64_t n_pages);
  // True while an enlarge for `coffer_id` is queued or completed-unharvested.
  bool HasPendingEnlarge(uint32_t coffer_id);

  // Executes everything queued on the async ring now (one background-
  // attributed crossing if the ring is non-empty). Completions move to the
  // done ring.
  void Flush();

  // Claims the completed enlarge grant for `coffer_id`, executing the queued
  // request first if it has not run yet. Returns false when none is pending.
  // The caller links the granted runs while it holds the coffer's window.
  bool TakeEnlarge(uint32_t coffer_id, ChanCompletion* out);

  // Drains the completions no TakeEnlarge claims (a refused scribbled
  // entry). No crossing.
  std::vector<ChanCompletion> Harvest();

  // ---- drain support / introspection --------------------------------------
  // Unexecuted enlarge requests are dropped (nothing happened in the kernel);
  // completed-unharvested enlarge grants are returned via CofferShrink in
  // one batch. Called by ChannelSet::DrainAll.
  void Drain();

  // Reaper-side reclamation for a DEAD owner (KernFs::ReapDeadProcesses /
  // KillProcess / FsUmount). Unlike Drain, nothing re-enters the kernel on
  // the corpse's behalf: unexecuted submissions are dropped (they never
  // reached the kernel), and completed-unharvested enlarge grants are
  // RETURNED to the caller as (coffer_id, runs) pairs so KernFs can shrink them back under
  // its own lock. Rings are left empty.
  std::vector<std::pair<uint32_t, std::vector<PageRun>>> ReapForKernel();

  ChannelStats stats();
  size_t QueuedForTest();
  size_t DoneForTest();
  // Scribbles the i-th queued request in place (fault-injection: a corrupted
  // in-flight entry must complete kInval, not dispatch).
  bool CorruptQueuedForTest(size_t idx);

 private:
  // Appends `fg` (optional) to the queued requests and executes the whole
  // batch in one KernelEntry. The fg completion (matched by seq) is returned
  // through *fg_done; async completions go to the done ring.
  void RunBatch(const ChanRequest* fg, ChanCompletion* fg_done) EXCLUDES(mu_);
  void RunBatchLocked(const ChanRequest* fg, ChanCompletion* fg_done) REQUIRES(mu_);

  KernFs* kfs_;
  Process* proc_;
  // Cached so the destructor can unregister after the reaper has already
  // freed a dead owner's Process (an abandoned FsLib outlives the corpse).
  uint32_t pid_;

  common::SpinLock mu_;
  std::vector<ChanRequest> sub_ GUARDED_BY(mu_);    // submission ring (async)
  std::vector<ChanCompletion> done_ GUARDED_BY(mu_);  // completion ring
  // coffer -> true while an enlarge is queued or completed-unharvested.
  std::unordered_map<uint32_t, bool> pending_enlarge_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  ChannelStats stats_ GUARDED_BY(mu_);
};

// Registry of per-thread channels for one (KernFs, Process) pair — owned by
// the µFS instance. Thread-local caching mirrors the ZoFs session cache:
// steady state resolves Current() without touching the registry lock.
class ChannelSet {
 public:
  // `enabled == false` (the Options::sync_crossings test hook) disables
  // channels entirely: Current() returns nullptr and callers take the plain
  // synchronous entry points.
  ChannelSet(KernFs* kfs, Process* proc, bool enabled);
  ~ChannelSet();

  ChannelSet(const ChannelSet&) = delete;
  ChannelSet& operator=(const ChannelSet&) = delete;

  bool enabled() const { return enabled_; }

  // The calling thread's channel (created on demand); nullptr when disabled.
  Channel* Current();

  // Drains every channel (unmount / destruction): unharvested enlarge
  // grants return to the kernel, pending refill requests are dropped
  // unexecuted.
  void DrainAll();

  // Marks the owning process dead: the destructor's DrainAll becomes a no-op
  // (a corpse must not re-enter the kernel). Channel dtors still run and
  // unregister from the KernFs registry — that is volatile-only cleanup.
  void Abandon();

  ChannelStats Aggregate();

 private:
  KernFs* kfs_;
  Process* proc_;
  const bool enabled_;
  bool abandoned_ = false;
  // Never-reused id for the thread-local cache (a ChannelSet constructed at
  // a recycled address must not match stale TLS).
  const uint64_t set_id_;

  common::Mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Channel>> by_tid_ GUARDED_BY(mu_);
};

}  // namespace kernfs

#endif  // SRC_KERNFS_CHANNEL_H_
