// The ZoFS coffer allocator: leased per-thread free lists (paper §5.2,
// Figure 6).
//
// Each coffer's custom page holds a pool of LeasedFreeList structures. A
// thread claims one with a CAS on the owner field and renews its lease on
// every allocation; if the thread dies, the list becomes reclaimable when
// the lease expires. When a thread's list runs dry it requests pages in
// batch from KernFS via coffer_enlarge — the kernel-contention point the
// paper measures in DWAL/MWCL (§6.1).
//
// Free pages are linked through their first 8 bytes. Pages sitting in free
// lists are owned by the coffer; a crash can strand them there, and offline
// recovery (fsck) returns them to the kernel.

#ifndef SRC_ZOFS_ALLOC_H_
#define SRC_ZOFS_ALLOC_H_

#include <cstddef>
#include <cstdint>

#include "src/common/result.h"
#include "src/kernfs/channel.h"
#include "src/kernfs/kernfs.h"
#include "src/nvm/flushset.h"
#include "src/zofs/layout.h"

namespace zofs {

using common::Err;
using common::Result;
using common::Status;

// Process-wide unique id of the calling thread; never 0. A tid is never
// drawn twice, so a list whose owner's thread has exited can be taken over.
uint64_t CurrentTid();

// Device offset of list `i` of the pool at `pool_off`.
inline uint64_t ListOff(uint64_t pool_off, uint32_t i) {
  return pool_off + offsetof(AllocPool, lists) + i * sizeof(LeasedFreeList);
}

// Makes CurrentTid() report `tid` on this thread while in scope (nested
// scopes restore the previous override). The procmon soak drives several
// simulated tenants from one OS thread; without distinct lease-owner
// identities a survivor would *re-enter* the dead tenant's InodeLock and
// leased lists instead of stealing them, and the steal/repair paths under
// test would never run. Passing 0 is a no-op (the real tid stays visible).
class ScopedTidOverride {
 public:
  explicit ScopedTidOverride(uint64_t tid);
  ~ScopedTidOverride();
  ScopedTidOverride(const ScopedTidOverride&) = delete;
  ScopedTidOverride& operator=(const ScopedTidOverride&) = delete;

 private:
  uint64_t prev_;
};

class CofferAllocator {
 public:
  // `validate` enables validate-before-dereference on persistent free-list
  // state (pool magic, list heads). ZoFs passes false only under its
  // raw_deref_for_test hook, restoring the pre-hardening behaviour where a
  // poisoned head takes the simulated page fault.
  // `channels` (optional) routes kernel refills through the calling thread's
  // submission channel: an async CofferEnlarge is prefetched when the free
  // list drops to the low-water mark and harvested when the list runs dry,
  // so steady-state churn charges no foreground crossing. nullptr (or a
  // disabled set, the Options::sync_crossings test hook) keeps the plain
  // synchronous CofferEnlarge slow path.
  CofferAllocator(kernfs::KernFs* kfs, kernfs::Process* proc, uint32_t coffer_id,
                  uint64_t pool_off, uint64_t lease_ns, uint64_t enlarge_batch,
                  bool validate = true, kernfs::ChannelSet* channels = nullptr);

  // Formats a fresh pool page (when a coffer is created, and by recovery)
  // whose inode-generation counter starts at `generation`.
  static void InitPool(nvm::NvmDevice* dev, uint64_t pool_off, uint64_t generation = 0);

  // Allocates one 4 KB page from the coffer; `zero` wipes it. The caller
  // must hold an MPK window for the coffer.
  Result<uint64_t> AllocPage(bool zero);

  // Epoch-batched variant for the staged-append fast path: the free-list
  // line write-back is recorded in `flush` instead of issued eagerly, so N
  // allocations within one epoch coalesce to a single Clwb at the epoch's
  // durability point. The page is not zeroed (staged appends overwrite it
  // with NT data immediately).
  Result<uint64_t> AllocPageStaged(nvm::FlushSet* flush);

  // Returns a page to this thread's free list.
  Status FreePage(uint64_t page_off);

  // Pushes externally-obtained coffer pages (e.g. from coffer_merge) onto
  // this thread's free list.
  Status Donate(const std::vector<kernfs::PageRun>& runs);

  uint32_t coffer_id() const { return coffer_id_; }

  // Number of pages currently parked in free lists (pool scan; test only).
  uint64_t FreeListPagesForTest() const;

 private:
  AllocPool* pool();
  // Shared body of AllocPage / AllocPageStaged; `flush == nullptr` selects
  // the eager (immediately written back) free-list update.
  Result<uint64_t> AllocPageImpl(bool zero, nvm::FlushSet* flush);
  // Returns the index of a leased list owned by the calling thread,
  // claiming or stealing one if needed. A lease renewal on the fast path is
  // persisted — coalesced into `flush` when non-null, eagerly otherwise.
  Result<uint32_t> AcquireList(nvm::FlushSet* flush);
  // Before the list `own` (empty) is refilled from the kernel: takes over
  // the first other list that holds pages under a dead lease, no owner, or
  // an owner thread that exited before now (a set-up thread's, an idle
  // thread's, a reaped process's) and releases `own`. Returns the list the
  // thread now holds.
  uint32_t AdoptParkedList(uint32_t own);
  // Obtains a refill batch from the kernel: harvests a prefetched async
  // grant, else enlarges through the channel (draining anything queued in
  // the same crossing), else falls back to the synchronous entry point.
  Result<std::vector<kernfs::PageRun>> RefillRuns();
  void PushLocked(LeasedFreeList* l, uint64_t list_off, uint64_t page_off);
  // Is `off` safe to dereference as a free-list link (page-aligned, inside
  // the device, owned by this coffer per the MPK oracle)?
  bool ValidFreePage(uint64_t off) const;

  kernfs::KernFs* kfs_;
  kernfs::Process* proc_;
  uint32_t coffer_id_;
  uint64_t pool_off_;
  uint64_t lease_ns_;
  uint64_t enlarge_batch_;
  bool validate_;
  kernfs::ChannelSet* channels_;
  // Free-list population at/below which an async refill is submitted.
  uint64_t low_water_;
};

}  // namespace zofs

#endif  // SRC_ZOFS_ALLOC_H_
