#include "src/zofs/alloc.h"

#include <pthread.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/clock.h"
#include "src/common/killpoint.h"
#include "src/common/mutex.h"
#include "src/mpk/mpk.h"
#include "src/zofs/lease.h"

namespace zofs {

namespace {
// Per-thread cache of which pool list this thread holds, keyed by the pool's
// NVM offset (unique per coffer across all processes). The paper stores this
// in "a normal per-thread variable" (§5.2 footnote).
thread_local std::unordered_map<uint64_t, uint32_t> t_my_list;

const uint8_t kZeroPage[nvm::kPageSize] = {};

thread_local uint64_t t_tid_override = 0;

// The tids of this process's threads that have exited, each with the
// NowNs() of its exit, less every tid a ScopedTidOverride has named: such a
// virtual tid (a procmon tenant's) may still be in use whatever became of
// the thread that drew the same number.
class ExitedTids {
 public:
  void AddExited(uint64_t tid, uint64_t at_ns) {
    common::MutexLock lk(&mu_);
    exited_[tid] = at_ns;
  }
  void AddVirtual(uint64_t tid) {
    common::MutexLock lk(&mu_);
    virtual_.insert(tid);
  }
  // Did thread `tid` exit before `now`? Under a pinned clock no exit is
  // before now, as no lease dies: a run that pins the clock (bench_json)
  // then hands out the same lists whichever of its threads ends first.
  bool Before(uint64_t tid, uint64_t now) {
    common::MutexLock lk(&mu_);
    auto it = exited_.find(tid);
    return it != exited_.end() && it->second < now && virtual_.count(tid) == 0;
  }

 private:
  common::Mutex mu_;
  std::unordered_map<uint64_t, uint64_t> exited_ GUARDED_BY(mu_);
  std::unordered_set<uint64_t> virtual_ GUARDED_BY(mu_);
};

// Never destroyed: a thread may exit after static destruction began.
ExitedTids& Exited() {
  static ExitedTids* tids = new ExitedTids;
  return *tids;
}

// A thread that draws a tid sets it as its value of this key, whose
// destructor reports the tid as exited. Key destructors run after the
// thread's C++ thread_local destructors, so the thread touches its lists no
// more, and the key adds nothing to the thread-local block that the hot
// paths read. nullopt when no key could be made: exits then go unrecorded
// and lists wait for their leases to lapse.
std::optional<pthread_key_t> ExitKey() {
  static const std::optional<pthread_key_t> key = []() -> std::optional<pthread_key_t> {
    pthread_key_t k = 0;
    const int err = pthread_key_create(&k, [](void* tid) {
      Exited().AddExited(reinterpret_cast<uintptr_t>(tid), common::NowNs());
    });
    if (err != 0) {
      return std::nullopt;
    }
    return k;
  }();
  return key;
}

// Out of line, so that CurrentTid's fast path saves no registers.
[[gnu::noinline]] uint64_t DrawTid() {
  static std::atomic<uint64_t> next{1};
  const uint64_t tid = next.fetch_add(1);
  if (const std::optional<pthread_key_t> key = ExitKey()) {
    pthread_setspecific(*key, reinterpret_cast<void*>(static_cast<uintptr_t>(tid)));
  }
  return tid;
}
}  // namespace

uint64_t CurrentTid() {
  if (t_tid_override != 0) {
    return t_tid_override;
  }
  thread_local uint64_t tid = 0;
  if (tid == 0) {
    tid = DrawTid();
  }
  return tid;
}

ScopedTidOverride::ScopedTidOverride(uint64_t tid) : prev_(t_tid_override) {
  if (tid != 0) {
    Exited().AddVirtual(tid);
    t_tid_override = tid;
  }
}

ScopedTidOverride::~ScopedTidOverride() { t_tid_override = prev_; }

CofferAllocator::CofferAllocator(kernfs::KernFs* kfs, kernfs::Process* proc, uint32_t coffer_id,
                                 uint64_t pool_off, uint64_t lease_ns, uint64_t enlarge_batch,
                                 bool validate, kernfs::ChannelSet* channels)
    : kfs_(kfs),
      proc_(proc),
      coffer_id_(coffer_id),
      pool_off_(pool_off),
      lease_ns_(lease_ns),
      enlarge_batch_(enlarge_batch),
      validate_(validate),
      channels_(channels),
      low_water_(enlarge_batch / 8 > 0 ? enlarge_batch / 8 : 1) {}

bool CofferAllocator::ValidFreePage(uint64_t off) const {
  if (!validate_) {
    // Pre-hardening discipline: the raw dereference's own MPK check, which
    // throws (the simulated SIGSEGV) instead of failing gracefully.
    mpk::CheckAccess(off, 8, false);
    return true;
  }
  return off % nvm::kPageSize == 0 && kfs_->dev()->Contains(off, nvm::kPageSize) &&
         mpk::ProbeAccess(off, 8, false);
}

void CofferAllocator::InitPool(nvm::NvmDevice* dev, uint64_t pool_off, uint64_t generation) {
  AllocPool zero{};
  zero.magic = kPoolMagic;
  zero.generation = generation;
  dev->StoreBytes(pool_off, &zero, sizeof(zero));
  dev->PersistRange(pool_off, sizeof(zero));
}

AllocPool* CofferAllocator::pool() { return kfs_->dev()->As<AllocPool>(pool_off_); }

Result<uint32_t> CofferAllocator::AcquireList(nvm::FlushSet* flush) {
  nvm::NvmDevice* dev = kfs_->dev();
  AllocPool* p = pool();
  if (validate_ && p->magic != kPoolMagic) {
    return Err::kCorrupt;  // the pool page itself is damaged
  }
  const uint64_t tid = CurrentTid();
  const uint64_t now = common::NowNs();

  // Fast path: this thread already holds a list with a valid lease.
  auto it = t_my_list.find(pool_off_);
  if (it != t_my_list.end()) {
    LeasedFreeList* l = &p->lists[it->second];
    if (l->owner_tid == tid && l->lease_expiry_ns > now) {
      // Renew the lease once less than half of it remains. The renewal must
      // reach NVM (this used to be a bare Store64 — after a crash, recovery
      // observed the stale shorter expiry while this thread believed the
      // renewal stuck, so another process could steal a live list). The
      // write-back coalesces into the epoch's flush set when one is open.
      if (l->lease_expiry_ns < now + lease_ns_ / 2) {
        const uint64_t loff = ListOff(pool_off_, it->second);
        dev->Store64(loff + offsetof(LeasedFreeList, lease_expiry_ns), now + lease_ns_);
        if (flush != nullptr) {
          flush->Note(dev, loff, sizeof(LeasedFreeList));
        } else {
          dev->PersistRange(loff, sizeof(LeasedFreeList));
        }
      }
      return it->second;
    }
    t_my_list.erase(it);
  }

  // Slow path: claim an unowned list, or take over one whose lease is dead
  // (an implausibly far expiry is corrupt and taken over too).
  for (uint32_t i = 0; i < kPoolLists; i++) {
    const uint64_t loff = ListOff(pool_off_, i);
    const uint64_t owner_off = loff + offsetof(LeasedFreeList, owner_tid);
    const uint64_t expiry_off = loff + offsetof(LeasedFreeList, lease_expiry_ns);
    const uint64_t owner = dev->AtomicLoad64(owner_off);
    if (owner == tid) {
      // Our list from an earlier epoch whose lease lapsed: re-lease it.
      dev->Store64(expiry_off, now + lease_ns_);
      dev->PersistRange(loff, sizeof(LeasedFreeList));
      t_my_list[pool_off_] = i;
      return i;
    }
    if (TryClaimLease(dev, owner_off, expiry_off, owner, tid, lease_ns_) != Claim::kNone) {
      dev->PersistRange(loff, sizeof(LeasedFreeList));
      t_my_list[pool_off_] = i;
      // Tenant death right after claiming the list: the owner word stays set
      // and the list (plus any pages parked on it) is stranded until the
      // lease lapses — reclaimed by ReclaimExpiredLists or a later steal.
      common::KillPoint(common::kKillHoldingLeasedList);
      return i;
    }
  }
  return Err::kBusy;  // all lists held with live leases
}

Result<uint64_t> CofferAllocator::AllocPage(bool zero) {
  return AllocPageImpl(zero, /*flush=*/nullptr);
}

Result<uint64_t> CofferAllocator::AllocPageStaged(nvm::FlushSet* flush) {
  return AllocPageImpl(/*zero=*/false, flush);
}

Result<std::vector<kernfs::PageRun>> CofferAllocator::RefillRuns() {
  kernfs::Channel* ch = channels_ != nullptr ? channels_->Current() : nullptr;
  if (ch != nullptr) {
    // Harvest the prefetched grant if the async ring has (or will have,
    // after a piggybacked background drain) one for this coffer.
    kernfs::ChanCompletion done;
    if (ch->TakeEnlarge(coffer_id_, &done) && done.status.ok()) {
      return std::move(done.runs);
    }
    return ch->Enlarge(coffer_id_, enlarge_batch_);
  }
  return kfs_->CofferEnlarge(*proc_, coffer_id_, enlarge_batch_);
}

uint32_t CofferAllocator::AdoptParkedList(uint32_t own) {
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t tid = CurrentTid();
  const uint64_t now = common::NowNs();
  for (uint32_t i = 0; i < kPoolLists; i++) {
    const uint64_t loff = ListOff(pool_off_, i);
    const uint64_t owner_off = loff + offsetof(LeasedFreeList, owner_tid);
    const uint64_t expiry_off = loff + offsetof(LeasedFreeList, lease_expiry_ns);
    const uint64_t owner = dev->AtomicLoad64(owner_off);
    if (i == own) {
      continue;
    }
    // A list under a live lease is taken over only when its holder is a
    // thread of this process that exited before now. A live holder's list
    // is skipped before its head is read: the holder writes the head with
    // plain stores.
    const bool leased = owner != 0 && !LeaseDead(dev->AtomicLoad64(expiry_off), now);
    if ((leased && !Exited().Before(owner, now)) ||
        dev->AtomicLoad64(loff + offsetof(LeasedFreeList, head)) == 0) {
      continue;
    }
    if (TryClaimLease(dev, owner_off, expiry_off, owner, tid, lease_ns_,
                      /*holder_dead=*/leased) == Claim::kNone) {
      continue;
    }
    const uint64_t own_off = ListOff(pool_off_, own);
    dev->AtomicCas64(own_off + offsetof(LeasedFreeList, owner_tid), tid, 0);
    dev->PersistRange(own_off, sizeof(LeasedFreeList));
    dev->PersistRange(loff, sizeof(LeasedFreeList));
    t_my_list[pool_off_] = i;
    return i;
  }
  return own;
}

Result<uint64_t> CofferAllocator::AllocPageImpl(bool zero, nvm::FlushSet* flush) {
  nvm::NvmDevice* dev = kfs_->dev();
  ASSIGN_OR_RETURN(own, AcquireList(flush));
  AllocPool* p = pool();
  uint32_t idx = own;
  if (p->lists[idx].head == 0) {
    idx = AdoptParkedList(own);
  }
  LeasedFreeList* l = &p->lists[idx];
  const uint64_t loff = ListOff(pool_off_, idx);

  if (l->head == 0) {
    // Refill in batch from the kernel (coffer_enlarge, Table 5). Free-list
    // state is advisory — recovery rebuilds it from reachability — so the
    // whole batch is linked with plain stores and the list line written back
    // once at the end, not twice per page (the dominant clwb cost of the
    // pre-epoch-batcher append path).
    auto runs = RefillRuns();
    if (!runs.ok()) {
      return runs.error();
    }
    uint64_t head = l->head;
    uint64_t count = l->count;
    for (const kernfs::PageRun& r : *runs) {
      for (uint64_t pg = r.start_page; pg < r.start_page + r.len; pg++) {
        const uint64_t page_off = pg * nvm::kPageSize;
        dev->Store64(page_off, head);  // link through the page's first word
        head = page_off;
        count++;
      }
    }
    dev->Store64(loff + offsetof(LeasedFreeList, head), head);
    dev->Store64(loff + offsetof(LeasedFreeList, count), count);
    dev->Clwb(loff, sizeof(LeasedFreeList));  // zofs-lint: allow(unfenced-clwb) — advisory free-list state
  }

  uint64_t page_off = l->head;
  if (!ValidFreePage(page_off)) {
    // Scribbled head: abandon the list's contents (fsck reclaims stranded
    // pages from reachability) rather than link through garbage.
    dev->Store64(loff + offsetof(LeasedFreeList, head), 0);
    dev->Store64(loff + offsetof(LeasedFreeList, count), 0);
    dev->Clwb(loff, sizeof(LeasedFreeList));  // zofs-lint: allow(unfenced-clwb) — advisory free-list state
    return Err::kCorrupt;
  }
  uint64_t next = dev->Load64(page_off);
  // Free-list state is advisory: recovery rebuilds it from reachability, so
  // updates are written back without ordering fences (soft-updates spirit).
  dev->Store64(loff + offsetof(LeasedFreeList, head), next);
  dev->Store64(loff + offsetof(LeasedFreeList, count), l->count - 1);
  if (flush != nullptr) {
    // Staged path: defer the write-back into the epoch's flush set, where
    // repeated allocations dedup to one line.
    flush->Note(dev, loff, sizeof(LeasedFreeList));
  } else {
    dev->Clwb(loff, sizeof(LeasedFreeList));  // zofs-lint: allow(unfenced-clwb) — advisory free-list state
  }
  if (zero) {
    // The caller's operation-final fence covers the zeroing NT stores.
    dev->NtStoreBytes(page_off, kZeroPage, nvm::kPageSize);
  }
  // Low-water prefetch: queue the next refill on the async ring now (no
  // crossing), so by the time the list runs dry the grant is one background
  // drain away instead of a foreground CofferEnlarge. Deduped per coffer.
  if (channels_ != nullptr && l->count <= low_water_) {
    if (kernfs::Channel* ch = channels_->Current()) {
      ch->SubmitEnlarge(coffer_id_, enlarge_batch_);
    }
  }
  return page_off;
}

void CofferAllocator::PushLocked(LeasedFreeList* l, uint64_t list_off, uint64_t page_off) {
  // Advisory state (see AllocPage): written back, never fenced.
  nvm::NvmDevice* dev = kfs_->dev();
  dev->Store64(page_off, l->head);  // link through the page's first word
  dev->Clwb(page_off, 8);  // zofs-lint: allow(unfenced-clwb) — advisory free-list state
  dev->Store64(list_off + offsetof(LeasedFreeList, head), page_off);
  dev->Store64(list_off + offsetof(LeasedFreeList, count), l->count + 1);
  dev->Clwb(list_off, sizeof(LeasedFreeList));  // zofs-lint: allow(unfenced-clwb) — advisory free-list state
}

Status CofferAllocator::FreePage(uint64_t page_off) {
  ASSIGN_OR_RETURN(idx, AcquireList(/*flush=*/nullptr));
  AllocPool* p = pool();
  LeasedFreeList* l = &p->lists[idx];
  const uint64_t loff = ListOff(pool_off_, idx);
  PushLocked(l, loff, page_off);
  return common::OkStatus();
}

Status CofferAllocator::Donate(const std::vector<kernfs::PageRun>& runs) {
  ASSIGN_OR_RETURN(idx, AcquireList(/*flush=*/nullptr));
  AllocPool* p = pool();
  LeasedFreeList* l = &p->lists[idx];
  const uint64_t loff = ListOff(pool_off_, idx);
  for (const kernfs::PageRun& r : runs) {
    for (uint64_t pg = r.start_page; pg < r.start_page + r.len; pg++) {
      PushLocked(l, loff, pg * nvm::kPageSize);
    }
  }
  return common::OkStatus();
}

uint64_t CofferAllocator::FreeListPagesForTest() const {
  const AllocPool* p = kfs_->dev()->As<AllocPool>(pool_off_);
  uint64_t n = 0;
  for (const LeasedFreeList& l : p->lists) {
    n += l.count;
  }
  return n;
}

}  // namespace zofs
