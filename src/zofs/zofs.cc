#include "src/zofs/zofs.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "src/audit/audit.h"
#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/killpoint.h"
#include "src/mpk/mpk.h"
#include "src/zofs/lease.h"

namespace zofs {

// ---------------------------------------------------------------------------
// Tenant-death accounting (process-wide; see zofs.h)

namespace {
std::atomic<uint64_t> g_lock_steals{0};
std::atomic<uint64_t> g_online_repairs{0};
std::atomic<uint64_t> g_reaped_lists{0};
}  // namespace

uint64_t LockStealCount() { return g_lock_steals.load(std::memory_order_relaxed); }
uint64_t OnlineRepairCount() { return g_online_repairs.load(std::memory_order_relaxed); }
uint64_t ReapedListCount() { return g_reaped_lists.load(std::memory_order_relaxed); }

namespace internal {
void NoteLockSteal() { g_lock_steals.fetch_add(1, std::memory_order_relaxed); }
void NoteOnlineRepair() { g_online_repairs.fetch_add(1, std::memory_order_relaxed); }
void NoteReapedLists(uint64_t n) { g_reaped_lists.fetch_add(n, std::memory_order_relaxed); }
}  // namespace internal

using kernfs::CofferRoot;
using kernfs::MapInfo;
using kernfs::PageRun;

namespace {

// Sorts page offsets and merges adjacent pages into runs.
std::vector<PageRun> PagesToRuns(std::vector<uint64_t> page_offs) {
  std::sort(page_offs.begin(), page_offs.end());
  page_offs.erase(std::unique(page_offs.begin(), page_offs.end()), page_offs.end());
  std::vector<PageRun> runs;
  for (uint64_t off : page_offs) {
    uint64_t page = off / nvm::kPageSize;
    if (!runs.empty() && runs.back().start_page + runs.back().len == page) {
      runs.back().len++;
    } else {
      runs.push_back(PageRun{page, 1});
    }
  }
  return runs;
}

uint16_t MakeDentryFlags(uint32_t type) {
  return static_cast<uint16_t>(kDentryInUse |
                               ((type & 0x3u) << kDentryTypeShift));
}

vfs::FileType VfsType(uint32_t t) {
  switch (t) {
    case kTypeDirectory:
      return vfs::FileType::kDirectory;
    case kTypeSymlink:
      return vfs::FileType::kSymlink;
    default:
      return vfs::FileType::kRegular;
  }
}

// Staged pages per append epoch before the epoch overflows into a durability
// point. Bounded by the intent record's inline page array; kept below it so
// one multi-block append landing near the cap still fits.
constexpr uint64_t kStagedEpochPages = 32;
static_assert(kStagedEpochPages <= kStagedMaxPages);

}  // namespace

// ---------------------------------------------------------------------------
// InodeLock

// The generation is the high half of the 8-byte (nlink, generation) word, so
// a lock waiter reads it with one atomic load (x86 is little-endian).
static_assert(offsetof(Inode, generation) == offsetof(Inode, nlink) + 4 &&
              offsetof(Inode, nlink) % 8 == 0);

InodeLock::InodeLock(nvm::NvmDevice* dev, uint64_t inode_off, uint64_t lease_ns, uint32_t gen,
                     bool wait)
    : dev_(dev),
      owner_off_(inode_off + offsetof(Inode, lock_owner)),
      expiry_off_(inode_off + offsetof(Inode, lock_expiry_ns)),
      tid_(CurrentTid()) {
  // Once the generation moved, the inode was freed under its lock
  // (RemoveChild, RetireVictim) and its page may be reused for anything: its
  // lock word must not be touched again. Checked on every round, and inside
  // each claim after the stamp is read (a reuse formats a new stamp,
  // FormatInode).
  auto named = [&] {
    return gen == 0 ||
           static_cast<uint32_t>(dev_->AtomicLoad64(inode_off + offsetof(Inode, nlink)) >> 32) ==
               gen;
  };
  // Lease expiry uses the logical clock so tests can lapse a dead owner's
  // lease deterministically; the wait bound (LeaseWait) does not.
  for (LeaseWait pacing(lease_ns);;) {
    if (!named()) {
      gone_ = true;
      return;
    }
    const uint64_t owner = dev_->AtomicLoad64(owner_off_);
    if (owner == tid_) {
      held_ = true;  // already held by this thread (single-level reentry)
      dev_->AtomicStore64(expiry_off_, common::NowNs() + lease_ns);
      break;
    }
    // A free lock is stamped then claimed; an expired (holder died or
    // stalled) or garbage lease is taken over (paper §5.2). The thief
    // inherits whatever half-done state the dead owner left and reports
    // the steal so callers run MaybeOnlineRepair.
    const Claim c =
        TryClaimLease(dev_, owner_off_, expiry_off_, owner, tid_, lease_ns, false, named);
    if (c != Claim::kNone) {
      held_ = true;
      stole_ = c == Claim::kStole;
      if (stole_) {
        internal::NoteLockSteal();
      }
      break;
    }
    if (!wait || !pacing.Next()) {
      return;  // a live holder (outlasted the bound): ok() reports the failure
    }
  }
  // Tenant death while holding the lock: the throw leaves the owner word set
  // (this ctor never completed, so ~InodeLock does not run) — exactly what a
  // real dead process leaves behind. Survivors steal after expiry.
  common::KillPoint(common::kKillHoldingInodeLock);
}

InodeLock::~InodeLock() {
  // A killed thread releases nothing: a dead process cannot store to NVM on
  // its way out, so outer locks unwound by ProcessKilledError stay held (and
  // expire) just like the innermost one.
  //
  // Key pressure never unmaps a coffer, but another thread of this process
  // can run the key window and retag the lock's coffer dark mid-operation
  // (DESIGN.md §4e). A store through the revoked key would throw inside a
  // noexcept destructor, so the release is probed first; a skipped release
  // is indistinguishable from owner death and heals by lease expiry.
  //
  // A holder that outlived its lease may have been robbed: the release
  // frees the word only while this thread still owns it.
  if (held_ && !common::CurrentThreadKilled() &&
      mpk::ProbeAccess(owner_off_, 8, /*is_write=*/true)) {
    dev_->AtomicCas64(owner_off_, tid_, 0);
  }
}

// ---------------------------------------------------------------------------
// Per-thread coffer session cache (paper §5.2's leased free lists, applied
// to mappings): a small direct-mapped TLS table of {instance, cid} ->
// {MapInfo, allocator}. Entries carry the instance epoch they were filled
// at; any invalidation (ForgetMapping, quarantine) bumps the epoch and
// every thread's entries go stale at once. Instances are keyed by a
// never-reused id so a ZoFs constructed at a recycled address cannot match
// another instance's leftovers. An entry observed valid can still be
// invalidated before the caller finishes using it — exactly the paper's
// stale-mapping window, which surfaces as a graceful MPK fault.

namespace {

struct SessionEntry {
  uint64_t owner = 0;  // ZoFs instance id
  uint32_t cid = 0;
  uint64_t epoch = 0;  // ZoFs::epoch_ value at fill time
  MapInfo info{};
  CofferAllocator* alloc = nullptr;  // lazily filled by AllocatorFor
};

constexpr uint32_t kSessionSlots = 64;  // direct-mapped, power of two
thread_local SessionEntry g_session[kSessionSlots];

std::atomic<uint64_t> g_next_instance_id{1};

SessionEntry& SessionSlot(uint64_t owner, uint32_t cid) {
  const uint32_t h =
      static_cast<uint32_t>((owner * 0x9E3779B97F4A7C15ull) >> 32) ^ (cid * 0x85EBCA6Bu);
  return g_session[h & (kSessionSlots - 1)];
}

SessionEntry* SessionFind(uint64_t owner, uint32_t cid, uint64_t epoch, bool writable) {
  SessionEntry& e = SessionSlot(owner, cid);
  if (e.owner != owner || e.cid != cid || e.epoch != epoch) {
    return nullptr;
  }
  if (writable && !e.info.writable) {
    return nullptr;
  }
  return &e;
}

void SessionStore(uint64_t owner, uint32_t cid, uint64_t epoch, const MapInfo& info) {
  SessionEntry& e = SessionSlot(owner, cid);
  // The allocator pointer survives a same-epoch refill (e.g. a writability
  // upgrade); across epochs it may point at a retired allocator for a
  // deleted coffer, so it is dropped.
  CofferAllocator* keep =
      (e.owner == owner && e.cid == cid && e.epoch == epoch) ? e.alloc : nullptr;
  e.owner = owner;
  e.cid = cid;
  e.epoch = epoch;
  e.info = info;
  e.alloc = keep;
}

void SessionStoreAlloc(uint64_t owner, uint32_t cid, uint64_t epoch, CofferAllocator* a) {
  SessionEntry& e = SessionSlot(owner, cid);
  if (e.owner == owner && e.cid == cid && e.epoch == epoch) {
    e.alloc = a;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction

ZoFs::ZoFs(kernfs::KernFs* kfs, kernfs::Process* proc, Options opts)
    : kfs_(kfs),
      proc_(proc),
      opts_(opts),
      channels_(kfs, proc, /*enabled=*/!opts.sync_crossings),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
  proc_->BindCurrentThread();
  kfs_->FsMount(*proc_);
  // Bootstrap the root coffer's µFS content if this is a fresh file system.
  auto info = EnsureMapped(kfs_->root_coffer_id(), true);
  if (info.ok()) {
    AUDIT_SCOPE("ZoFs::ZoFs");
    // Probe the root inode read-only; a remount needs no writable window
    // (guideline G2: least privilege).
    bool needs_format;
    {
      mpk::AccessWindow probe(info->key, false);
      if (!ValidMetaPage(info->root_inode_off)) {
        // The kernel handed us a root-inode pointer outside the coffer
        // (corrupted coffer root): quarantine instead of formatting over it.
        Sick(kfs_->root_coffer_id());
        return;
      }
      needs_format = Ino(info->root_inode_off)->magic != kInodeMagic;
    }
    if (needs_format) {
      mpk::AccessWindow w(info->key, true);
      const CofferRoot* croot = kfs_->RootPageOf(kfs_->root_coffer_id());
      FormatInode(info->root_inode_off, /*gen=*/1, kTypeDirectory, croot->mode, croot->uid,
                  croot->gid);
      CofferAllocator::InitPool(kfs_->dev(), info->custom_off, /*generation=*/1);
    }
  }
}

ZoFs::~ZoFs() {
  // An abandoned (killed) instance re-enters the kernel for nothing: its
  // staged epochs die with it (the intent protocol makes that safe), its
  // channel grants and mappings are the reaper's job.
  if (abandoned_) return;
  // Unmount is a durability point: drain every open append epoch so data the
  // application wrote before a clean shutdown is durable without an explicit
  // fsync (matching kernel file systems' unmount semantics).
  (void)FlushAllStages();
  // Drain every thread's channel before the kernel forgets this process:
  // unharvested refill grants return to the kernel (CofferShrink),
  // queued-but-unexecuted requests are dropped.
  channels_.DrainAll();
  kfs_->FsUmount(*proc_);
}

void ZoFs::Abandon() {
  abandoned_ = true;
  channels_.Abandon();
}

// ---------------------------------------------------------------------------
// Channel crossings

Result<MapInfo> ZoFs::KernelMap(uint32_t cid, bool writable) {
  if (kernfs::Channel* ch = channels_.Current()) {
    return ch->Map(cid, writable);
  }
  return kfs_->CofferMap(*proc_, cid, writable);
}

Result<MapInfo> ZoFs::KernelRetag(uint32_t cid) {
  if (kernfs::Channel* ch = channels_.Current()) {
    return ch->Retag(cid);
  }
  return kfs_->CofferRetag(*proc_, cid);
}

bool ZoFs::RevalidateKey(uint32_t cid, MapInfo* info) {
  // A chmod/chown moved some coffer of this process to another class: this
  // one's cached class_slot may be the old class, whose key other members
  // still keep live although it no longer tags this coffer's pages. The
  // mapping itself survives the move, so ask the kernel for its current
  // class rather than remapping: a remap re-checks permissions, and a chmod
  // that drops owner write would then refuse the chmod's own inode update.
  if (info->class_gen != proc_->ClassGen()) {
    auto fresh = KernelRetag(cid);
    if (!fresh.ok()) {
      return false;
    }
    // Only the class fields move; the rest was validated at map time.
    info->class_slot = fresh->class_slot;
    info->class_gen = fresh->class_gen;
    info->key = fresh->key;
    return true;
  }
  // Stamp the class as in-use BEFORE deciding anything: the op that follows
  // this revalidation will dereference the coffer's pages, and the stamp is
  // what keeps EnsureKey's victim scan away from the working set.
  proc_->TouchClassKey(info->class_slot);
  const uint8_t cur = proc_->PublishedClassKey(info->class_slot);
  if (cur == info->key) {
    return true;  // steady state: two loads, no crossing
  }
  if (cur != mpk::kUnmapped) {
    // Another thread already faulted the class back in (possibly under a
    // different physical key): adopt it locally, still no crossing.
    info->key = cur;
    return true;
  }
  // The class is key-window evicted: fault it in. One batched crossing; the
  // kernel retags every member coffer, so session caches stay valid and no
  // epoch bump is needed.
  auto fresh = KernelRetag(cid);
  if (!fresh.ok()) {
    return false;
  }
  info->key = fresh->key;
  return true;
}

void ZoFs::HarvestCompletions() {
  if (kernfs::Channel* ch = channels_.Current()) {
    ch->Flush();          // execute this thread's queued async ring
    (void)ch->Harvest();  // drop completions no caller claims
  }
}

// ---------------------------------------------------------------------------
// Mapping management

Result<MapInfo> ZoFs::EnsureMapped(uint32_t cid, bool writable, bool bypass_sick) {
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (!bypass_sick) {
    if (SessionEntry* e = SessionFind(instance_id_, cid, epoch, writable)) {
      // Session hit: the entry was filled after a CheckHealthy pass and any
      // later quarantine bumped the epoch, so no sick-table probe is needed.
      // Key-window eviction does NOT bump the epoch: the cached key is
      // revalidated against the published class table instead, and a fault-in
      // refreshes the entry in place.
      MapInfo info = e->info;
      if (RevalidateKey(cid, &info)) {
        e->info = info;
        return info;
      }
      // Failed crossing: fall through to the full path.
    }
    RETURN_IF_ERROR(CheckHealthy(cid, writable));
  }
  Shard& sh = ShardFor(cid);
  {
    ShardReadLock lk(this, sh);
    auto it = sh.mapped.find(cid);
    if (it != sh.mapped.end() && (!writable || it->second.writable)) {
      MapInfo info = it->second;
      lk.Unlock();
      const uint64_t cached_gen = info.class_gen;
      if (RevalidateKey(cid, &info)) {
        if (info.class_gen != cached_gen) {
          // The class moved: refresh the shard entry too, unless a newer
          // mapping replaced it meanwhile.
          ShardWriteLock wl(this, sh);
          auto wit = sh.mapped.find(cid);
          if (wit != sh.mapped.end() && wit->second.class_gen < info.class_gen) {
            wit->second.class_slot = info.class_slot;
            wit->second.class_gen = info.class_gen;
            wit->second.key = info.key;
          }
        }
        if (!bypass_sick) {
          SessionStore(instance_id_, cid, epoch, info);
        }
        return info;
      }
      // Failed crossing; remap below.
    }
  }
  // The kernel call runs with no shard lock held: mapping one coffer must
  // not serialize operations on coffers that are already mapped. CofferMap
  // is idempotent for an existing (process, cid) mapping, so two threads
  // racing here both get the one installed key.
  const uint64_t gen = sh.evict_gen.load(std::memory_order_acquire);
  ASSIGN_OR_RETURN(info, KernelMap(cid, writable));
  if (info.custom_off != 0 && (info.custom_off % nvm::kPageSize != 0 ||
                               !kfs_->dev()->Contains(info.custom_off, sizeof(AllocPool)))) {
    // A scribbled coffer root can hand back a garbage pool pointer via
    // coffer_map; quarantine before the allocator dereferences it.
    return Sick(cid);
  }
  bool cached = false;
  {
    ShardWriteLock lk(this, sh);
    // Revalidate after reacquiring: if a ForgetMapping touched this shard
    // while no lock was held, the coffer we were just handed may be gone.
    // Still return it to the caller (worst case one graceful MPK fault) but
    // keep it out of both caches.
    if (sh.evict_gen.load(std::memory_order_relaxed) == gen) {
      sh.mapped[cid] = info;
      cached = true;
    }
  }
  if (cached && !bypass_sick) {
    SessionStore(instance_id_, cid, epoch, info);
  }
  return info;
}

void ZoFs::RetireAllocatorLocked(Shard& sh, uint32_t cid) {
  auto it = sh.allocators.find(cid);
  if (it == sh.allocators.end()) {
    return;
  }
  std::unique_ptr<CofferAllocator> dead = std::move(it->second);
  sh.allocators.erase(it);
  // Allocators are retired, never destroyed, until ~ZoFs: another thread may
  // hold a session-cached pointer past the epoch bump (the lookup-to-use
  // window). A retired allocator is safe to call — it only touches NVM pages
  // whose keys the kernel has since revoked, so a late use takes the same
  // graceful MPK fault a stale mapping does.
  common::MutexLock rlk(&retire_mu_);
  retired_allocators_.push_back(std::move(dead));
}

Result<uint8_t> ZoFs::KeyFor(uint32_t cid, bool writable) {
  ASSIGN_OR_RETURN(info, EnsureMapped(cid, writable));
  return info.key;
}

void ZoFs::ForgetMapping(uint32_t cid) {
  Shard& sh = ShardFor(cid);
  {
    ShardWriteLock lk(this, sh);
    if (sh.mapped.erase(cid) != 0) {
      sh.evict_gen.fetch_add(1, std::memory_order_release);
    }
    RetireAllocatorLocked(sh, cid);
  }
  // Relocation entries redirect NodeRefs *to* a coffer; with that coffer
  // gone (deleted, or its id about to be recycled) they must not resurrect
  // it. The counter gate keeps this free when no split ever happened.
  if (relocated_count_.load(std::memory_order_acquire) != 0) {
    for (Shard& s : shards_) {
      ShardWriteLock lk(this, s);
      const auto n = std::erase_if(s.relocated,
                                   [&](const auto& kv) { return kv.second == cid; });
      if (n != 0) {
        relocated_count_.fetch_sub(n, std::memory_order_release);
      }
    }
  }
  BumpEpoch();
}

// ---------------------------------------------------------------------------
// Corruption containment

bool ZoFs::ValidMetaRange(uint64_t off, uint64_t len, bool page_aligned) const {
  if (opts_.raw_deref_for_test) {
    // Pre-hardening discipline: no validation, just the MPK check the raw
    // dereference would hit anyway. A corrupted pointer takes the simulated
    // page fault (ViolationError) instead of failing gracefully.
    mpk::CheckAccess(off, len, false);
    return true;
  }
  if (off == 0 || off + len < off) {
    return false;
  }
  if (page_aligned && off % nvm::kPageSize != 0) {
    return false;
  }
  if (!kfs_->dev()->Contains(off, len)) {
    return false;
  }
  // The page-key table is the ownership oracle: a page owned by another
  // coffer carries a different key, an unowned page is unmapped. Either way
  // the probe fails and the pointer is refused without dereferencing it.
  return mpk::ProbeAccess(off, len, false);
}

void ZoFs::ArmSickBackoff(SickState& s, uint64_t base_backoff_ns) {
  if (s.read_only) {
    return;  // read-only quarantine is permanent; no probe schedule
  }
  s.fails++;
  const uint32_t shift = std::min<uint32_t>(s.fails - 1, 6);
  s.next_probe_ns = common::NowNs() + (base_backoff_ns << shift);
}

common::Err ZoFs::Sick(uint32_t cid) {
  Shard& sh = ShardFor(cid);
  {
    ShardWriteLock lk(this, sh);
    auto [it, inserted] = sh.sick.try_emplace(cid);
    if (inserted) {
      sick_count_.fetch_add(1, std::memory_order_release);
    }
    ArmSickBackoff(it->second, opts_.sick_backoff_ns);
  }
  // Session hits skip CheckHealthy; stale entries must die with the epoch so
  // the quarantine gate cannot be bypassed.
  BumpEpoch();
  return Err::kCorrupt;
}

Status ZoFs::CheckHealthy(uint32_t cid, bool writable) {
  if (sick_count_.load(std::memory_order_acquire) == 0) {
    return common::OkStatus();  // nothing quarantined anywhere: stay lock-free
  }
  Shard& sh = ShardFor(cid);
  ShardWriteLock lk(this, sh);  // may re-arm the probe deadline below
  auto it = sh.sick.find(cid);
  if (it == sh.sick.end()) {
    return common::OkStatus();
  }
  if (it->second.read_only) {
    return writable ? Status(Err::kROFS) : common::OkStatus();
  }
  const uint64_t now = common::NowNs();
  if (now < it->second.next_probe_ns) {
    return Err::kIo;  // quarantined: fail fast until the backoff elapses
  }
  // Admit this op as the probe and re-arm the deadline so a burst of callers
  // cannot stampede a still-corrupt coffer. (Deliberately *not*
  // ArmSickBackoff: a probe admission re-arms at the current severity,
  // fails unchanged, while a failure escalates it.)
  const uint32_t shift = std::min<uint32_t>(it->second.fails, 6);
  it->second.next_probe_ns = now + (opts_.sick_backoff_ns << shift);
  return common::OkStatus();
}

void ZoFs::ClearSick(uint32_t cid) {
  Shard& sh = ShardFor(cid);
  ShardWriteLock lk(this, sh);
  if (sh.sick.erase(cid) != 0) {
    sick_count_.fetch_sub(1, std::memory_order_release);
  }
}

void ZoFs::QuarantineReadOnly(uint32_t cid) {
  Shard& sh = ShardFor(cid);
  {
    ShardWriteLock lk(this, sh);
    auto [it, inserted] = sh.sick.try_emplace(cid);
    if (inserted) {
      sick_count_.fetch_add(1, std::memory_order_release);
    }
    it->second.read_only = true;
  }
  BumpEpoch();  // cached writable sessions must re-probe and see kROFS
}

CofferHealth ZoFs::Health(uint32_t cid) {
  if (sick_count_.load(std::memory_order_acquire) == 0) {
    return CofferHealth::kHealthy;
  }
  Shard& sh = ShardFor(cid);
  ShardReadLock lk(this, sh);
  auto it = sh.sick.find(cid);
  if (it == sh.sick.end()) {
    return CofferHealth::kHealthy;
  }
  return it->second.read_only ? CofferHealth::kReadOnly : CofferHealth::kSick;
}

CofferAllocator& ZoFs::AllocatorFor(uint32_t cid, const MapInfo& info) {
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  SessionEntry* e = SessionFind(instance_id_, cid, epoch, false);
  if (e != nullptr && e->alloc != nullptr) {
    return *e->alloc;
  }
  Shard& sh = ShardFor(cid);
  CofferAllocator* a = nullptr;
  {
    ShardReadLock lk(this, sh);
    auto it = sh.allocators.find(cid);
    if (it != sh.allocators.end()) {
      a = it->second.get();
    }
  }
  if (a == nullptr) {
    ShardWriteLock lk(this, sh);
    auto it = sh.allocators.find(cid);
    if (it == sh.allocators.end()) {
      it = sh.allocators
               .emplace(cid, std::make_unique<CofferAllocator>(kfs_, proc_, cid, info.custom_off,
                                                               opts_.lease_ns, opts_.enlarge_batch,
                                                               !opts_.raw_deref_for_test, &channels_))
               .first;
    }
    a = it->second.get();
  }
  SessionStoreAlloc(instance_id_, cid, epoch, a);
  return *a;
}

void ZoFs::FixNode(NodeRef* node) {
  if (relocated_count_.load(std::memory_order_acquire) == 0) {
    return;  // no coffer split ever recorded: the common case takes no lock
  }
  Shard& sh = ShardForPage(node->inode_off);
  ShardReadLock lk(this, sh);
  auto it = sh.relocated.find(node->inode_off);
  if (it != sh.relocated.end()) {
    node->coffer_id = it->second;
  }
}

void ZoFs::RecordRelocation(const std::vector<PageRun>& runs, uint32_t new_cid) {
  // Enforce the cap *before* inserting: the batch being recorded right now
  // must survive (open FDs from the in-progress split depend on it), so
  // older entries are the ones dropped.
  uint64_t batch = 0;
  for (const PageRun& r : runs) {
    batch += r.len;
  }
  if (relocated_count_.load(std::memory_order_acquire) + batch > opts_.relocated_cap) {
    EnforceRelocatedCap();
  }
  for (const PageRun& r : runs) {
    for (uint64_t p = r.start_page; p < r.start_page + r.len; p++) {
      const uint64_t off = p * nvm::kPageSize;
      Shard& sh = ShardForPage(off);
      ShardWriteLock lk(this, sh);
      if (sh.relocated.insert_or_assign(off, new_cid).second) {
        relocated_count_.fetch_add(1, std::memory_order_release);
      }
    }
  }
}

void ZoFs::EnforceRelocatedCap() {
  // Coarse eviction: drop the whole ledger. A dropped redirect degrades to
  // the paper's cross-process split semantics — the stale NodeRef takes a
  // graceful MPK fault and the application reopens by path.
  for (Shard& s : shards_) {
    ShardWriteLock lk(this, s);
    if (!s.relocated.empty()) {
      relocated_count_.fetch_sub(s.relocated.size(), std::memory_order_release);
      s.relocated.clear();
    }
  }
}

bool ZoFs::SameGroup(uint16_t mode, uint32_t uid, uint32_t gid, const CofferRoot* root) const {
  return EffPerm(mode) == EffPerm(root->mode) && uid == root->uid && gid == root->gid;
}

// ---------------------------------------------------------------------------
// The one inode-access path

template <ZoFs::Need kNeed, typename Body>
auto ZoFs::WithInode(NodeRef node, const InodeAccess& how, Body&& body)
    -> decltype(body(std::declval<Inode*>(), std::declval<const MapInfo&>())) {
  constexpr bool kLocks = kNeed == Need::kLock || kNeed == Need::kTryLock;
  ASSIGN_OR_RETURN(info, EnsureMapped(node.coffer_id, kNeed != Need::kRead));
  mpk::AccessWindow w(info.key, kLocks);
  if (!ValidMetaPage(node.inode_off)) {
    return Sick(node.coffer_id);
  }
  // The fault a raw read of a dark inode page would take (the probe above
  // already refuses one; this also records the read for the audit).
  mpk::CheckAccess(node.inode_off, sizeof(Inode), false);
  Inode* ino = Ino(node.inode_off);
  if constexpr (kLocks) {
    InodeLock lk(kfs_->dev(), node.inode_off, opts_.lease_ns, how.gen,
                 /*wait=*/kNeed == Need::kLock);  // after `w`: released inside the window
    if (!lk.ok()) {
      return lk.gone() ? Err::kNoEnt : kNeed == Need::kLock ? Err::kBusy : Err::kAgain;
    }
    std::array<uint64_t, 3> held{};
    size_t n = 0;
    for (uint64_t o : how.outer) {
      if (o != 0) {
        held[n++] = o;
      }
    }
    held[n++] = node.inode_off;
    MaybeOnlineRepair(node.coffer_id, info, lk, std::span<const uint64_t>(held.data(), n));
    if (const Err e = Admit(ino, how); e != Err::kOk) {
      return e;
    }
    return body(ino, static_cast<const MapInfo&>(info));
  } else {
    if (const Err e = Admit(ino, how); e != Err::kOk) {
      return e;
    }
    return body(ino, static_cast<const MapInfo&>(info));
  }
}

Status ZoFs::LockForTest(NodeRef node, uint32_t gen) {
  return WithInode<Need::kLock>(node, {kAnyType, gen},
                                [](Inode*, const MapInfo&) { return common::OkStatus(); });
}

template <typename Op>
Status ZoFs::UntilVictimFree(Op&& op) {
  for (LeaseWait wait(opts_.lease_ns);;) {
    Status s = op();
    if (s.ok() || s.error() != Err::kAgain) {
      return s;
    }
    if (!wait.Next()) {
      return Err::kBusy;
    }
  }
}

// ---------------------------------------------------------------------------
// Path resolution

Result<ZoFs::ResolveResult> ZoFs::Resolve(const std::string& raw_path, bool follow_last_symlink) {
  std::string cur = vfs::NormalizePath(raw_path);
  for (int hops = 0; hops <= vfs::kMaxSymlinkHops; hops++) {
    ASSIGN_OR_RETURN(parts, vfs::SplitPath(cur));

    uint32_t cid = kfs_->root_coffer_id();
    ASSIGN_OR_RETURN(root_info, EnsureMapped(cid, false));
    ResolveResult r;
    r.node = NodeRef{cid, root_info.root_inode_off};
    r.parent = NodeRef{};
    r.is_coffer_root = true;
    // The walked-prefix string is only materialised when actually needed
    // (cross-coffer validation, symlink expansion) — the hot path does no
    // string concatenation.
    auto path_prefix = [&parts](size_t upto) {
      std::string p;
      for (size_t j = 0; j < upto; j++) {
        p += "/" + parts[j];
      }
      return p;
    };

    bool restarted = false;
    for (size_t i = 0; i < parts.size(); i++) {
      const std::string& name = parts[i];
      if (name.size() > kMaxName) {
        return Err::kNameTooLong;
      }
      auto step = [&](Inode* dir, const MapInfo&) -> Result<Dentry> {
        ASSIGN_OR_RETURN(dp, DirFind(r.node.coffer_id, dir, name));
        if (dp->coffer_id == 0 && !ValidMetaPage(dp->inode_off)) {
          // The dentry's child pointer leads out of this coffer: refuse it
          // before any code dereferences the child inode.
          return Sick(r.node.coffer_id);
        }
        return *dp;  // copied out before the window closes
      };
      ASSIGN_OR_RETURN(d, WithInode<Need::kRead>(r.node, {kDirOnly}, step));

      NodeRef child;
      bool child_is_root;
      if (d.coffer_id != 0) {
        std::string child_path = path_prefix(i + 1);
        // Cross-coffer reference: map the target (kernel permission check)
        // and validate it per guideline G3 before switching windows.
        ASSIGN_OR_RETURN(tinfo, EnsureMapped(d.coffer_id, false));
        const CofferRoot* troot = kfs_->RootPageOf(d.coffer_id);
        {
          mpk::AccessWindow w(tinfo.key, false);
          mpk::CheckAccess(kfs_->dev()->OffsetOf(troot), sizeof(CofferRoot), false);
          if (troot->magic != kernfs::kCofferMagic ||
              tinfo.root_inode_off != d.inode_off ||
              child_path.compare(troot->path) != 0) {
            // Manipulated cross-coffer reference (paper §3.4.3): blame the
            // coffer holding the dentry.
            return Sick(r.node.coffer_id);
          }
        }
        child = NodeRef{d.coffer_id, d.inode_off};
        child_is_root = true;
      } else {
        child = NodeRef{r.node.coffer_id, d.inode_off};
        child_is_root = false;
      }

      // Symlink expansion: rebuild the path and restart the walk (the
      // dispatcher re-dispatch of paper §4.2, handled inline since every
      // coffer here is ZoFS-typed).
      bool is_last = (i + 1 == parts.size());
      if (d.cached_type() == kTypeSymlink && (!is_last || follow_last_symlink)) {
        std::string target;
        RETURN_IF_ERROR(
            WithInode<Need::kRead>(child, {kSymlinkOnly}, [&](Inode* ci, const MapInfo&) -> Status {
              if (ci->symlink_len >= sizeof(ci->symlink_target)) {
                return Err::kCorrupt;  // object-local damage; coffer graph still trusted
              }
              target.assign(ci->symlink_target, ci->symlink_len);
              return common::OkStatus();
            }));
        std::string rest;
        for (size_t j = i + 1; j < parts.size(); j++) {
          rest += "/" + parts[j];
        }
        if (!target.empty() && target[0] == '/') {
          cur = vfs::NormalizePath(target + rest);
        } else {
          cur = vfs::NormalizePath(path_prefix(i) + "/" + target + rest);
        }
        restarted = true;
        break;
      }

      r.parent = r.node;
      r.parent_gen = r.node_gen;
      r.leaf = name;
      r.node = child;
      r.node_gen = d.generation;
      r.is_coffer_root = child_is_root;
    }
    if (!restarted) {
      return r;
    }
  }
  return Err::kLoop;
}

Result<NodeRef> ZoFs::Lookup(const std::string& path, bool follow_last_symlink) {
  ASSIGN_OR_RETURN(r, Resolve(path, follow_last_symlink));
  return r.node;
}

// ---------------------------------------------------------------------------
// Directory internals

template <typename Visit>
Status ZoFs::WalkDirLive(uint32_t cid, const Inode* dir, std::optional<uint32_t> hash,
                         Visit&& visit) {
  if (dir->l1_dir == 0) {
    return common::OkStatus();
  }
  if (!ValidMetaPage(dir->l1_dir)) {
    return Sick(cid);
  }
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t* l1 = dev->As<uint64_t>(dir->l1_dir);
  const uint64_t first_slot = hash ? *hash % kL1Slots : 0;
  const uint64_t end_slot = hash ? first_slot + 1 : kL1Slots;
  const uint64_t first_bucket = hash ? *hash / kL1Slots % kL2Buckets : 0;
  const uint64_t end_bucket = hash ? first_bucket + 1 : kL2Buckets;
  // No chain arrangement over a healthy device needs more run pages than
  // the device holds: a walk past that is in a cycle. The bound applies
  // even in raw_deref_for_test mode, so corrupted chains can crash the walk
  // but never hang it.
  uint64_t budget = dev->num_pages();
  for (uint64_t s = first_slot; s < end_slot; s++) {
    const uint64_t l2_off = l1[s];
    if (l2_off == 0) {
      continue;
    }
    if (!ValidMetaPage(l2_off)) {
      return Sick(cid);
    }
    mpk::CheckAccess(l2_off, sizeof(L2Page), false);
    L2Page* l2 = dev->As<L2Page>(l2_off);
    if (!visit(DirPage{l2_off, false, l2->embedded})) {
      return common::OkStatus();
    }
    for (uint64_t b = first_bucket; b < end_bucket; b++) {
      for (uint64_t run_off = l2->buckets[b]; run_off != 0;) {
        if (budget-- == 0 || !ValidMetaPage(run_off)) {
          return Sick(cid);
        }
        mpk::CheckAccess(run_off, sizeof(DentryRun), false);
        DentryRun* run = dev->As<DentryRun>(run_off);
        const uint64_t next = run->next;  // before a visitor's FreePage overwrites it
        if (!visit(DirPage{run_off, true, run->dentries})) {
          return common::OkStatus();
        }
        run_off = next;
      }
    }
  }
  return common::OkStatus();
}

Result<Dentry*> ZoFs::DirFind(uint32_t cid, Inode* dir, std::string_view name) {
  const uint32_t h = common::Fnv1a32(name);
  Dentry* hit = nullptr;
  RETURN_IF_ERROR(WalkDirLive(cid, dir, h, [&](const DirPage& p) {
    for (Dentry& d : p.dentries) {
      if (d.in_use() && d.name_hash == h && d.name_len == name.size() &&
          memcmp(d.name, name.data(), name.size()) == 0) {
        hit = &d;
        return false;
      }
    }
    return true;
  }));
  return hit != nullptr ? Result<Dentry*>(hit) : Err::kNoEnt;
}

Status ZoFs::DirInsert(uint32_t cid, const MapInfo& info, Inode* dir, std::string_view name,
                       uint32_t child_coffer, uint64_t child_inode, uint32_t child_gen,
                       uint32_t child_type) {
  AUDIT_SCOPE("ZoFs::DirInsert");
  if (name.empty() || name.size() > kMaxName) {
    return Err::kNameTooLong;
  }
  nvm::NvmDevice* dev = kfs_->dev();
  CofferAllocator& alloc = AllocatorFor(cid, info);
  const uint32_t h = common::Fnv1a32(name);
  const uint64_t dir_off = dev->OffsetOf(dir);

  // Pages are allocated on demand (paper §5.1).
  if (dir->l1_dir == 0) {
    ASSIGN_OR_RETURN(l1_page, alloc.AllocPage(/*zero=*/true));
    dev->Store64(dir_off + offsetof(Inode, l1_dir), l1_page);
    dev->PersistRange(dir_off + offsetof(Inode, l1_dir), 8);
  } else if (!ValidMetaPage(dir->l1_dir)) {
    return Sick(cid);
  }
  uint64_t* l1 = dev->As<uint64_t>(dir->l1_dir);
  const uint64_t slot = h % kL1Slots;
  if (l1[slot] == 0) {
    ASSIGN_OR_RETURN(l2_page, alloc.AllocPage(/*zero=*/true));
    dev->Store64(dir->l1_dir + slot * 8, l2_page);
    dev->PersistRange(dir->l1_dir + slot * 8, 8);
  } else if (!ValidMetaPage(l1[slot])) {
    return Sick(cid);
  }
  L2Page* l2 = dev->As<L2Page>(l1[slot]);

  // Find a free slot: embedded area first (paper: "ZoFS tries to put new
  // dentries in the second-level page first").
  Dentry* free_slot = nullptr;
  for (Dentry& d : l2->embedded) {
    if (!d.in_use()) {
      free_slot = &d;
      break;
    }
  }
  const uint64_t bucket_off =
      dev->OffsetOf(l2) + offsetof(L2Page, buckets) + ((h / kL1Slots) % kL2Buckets) * 8;
  if (free_slot == nullptr) {
    // Scan only the first two run pages for holes: older pages are almost
    // always full in insert-heavy workloads, and recovery tolerates sparse
    // pages, so a bounded scan keeps inserts O(1).
    uint64_t run_off = dev->Load64(bucket_off);
    for (int depth = 0; run_off != 0 && depth < 2; depth++) {
      if (!ValidMetaPage(run_off)) {
        return Sick(cid);
      }
      DentryRun* run = dev->As<DentryRun>(run_off);
      for (Dentry& d : run->dentries) {
        if (!d.in_use()) {
          free_slot = &d;
          break;
        }
      }
      if (free_slot != nullptr) {
        break;
      }
      run_off = run->next;
    }
    if (free_slot == nullptr) {
      // Prepend a fresh run page to the bucket chain.
      ASSIGN_OR_RETURN(new_run, alloc.AllocPage(/*zero=*/true));
      dev->Store64(new_run + offsetof(DentryRun, next), dev->Load64(bucket_off));
      dev->PersistRange(new_run, sizeof(DentryRun));
      dev->Store64(bucket_off, new_run);
      dev->PersistRange(bucket_off, 8);
      free_slot = &dev->As<DentryRun>(new_run)->dentries[0];
    }
  }

  // Write the dentry body, persist it, then set the in-use flag as the
  // atomic commit point (flags live in the dentry's first cacheline).
  const uint64_t d_off = dev->OffsetOf(free_slot);
  Dentry d{};
  d.name_hash = h;
  d.name_len = static_cast<uint16_t>(name.size());
  d.flags = 0;
  d.coffer_id = child_coffer;
  d.generation = child_gen;
  d.inode_off = child_inode;
  memcpy(d.name, name.data(), name.size());
  d.name[name.size()] = '\0';
  dev->StoreBytes(d_off, &d, sizeof(d));
  dev->PersistRange(d_off, sizeof(d));
  dev->Store16(d_off + offsetof(Dentry, flags), MakeDentryFlags(child_type));
  AUDIT_ORDER_AFTER(dev, d_off + offsetof(Dentry, flags), 2, d_off, sizeof(d));
  dev->PersistRange(d_off + offsetof(Dentry, flags), 2);
  AUDIT_DURABILITY_POINT(dev, d_off, sizeof(d));

  // Entry count and mtime are advisory (rebuilt by recovery): write back
  // without an ordering fence.
  dev->Store64(dir_off + offsetof(Inode, size), dir->size + 1);
  dev->Store64(dir_off + offsetof(Inode, mtime_ns), common::NowNs());
  // zofs-lint: allow(unfenced-clwb) — advisory dir counters, rebuilt by recovery
  dev->Clwb(dir_off + offsetof(Inode, size), 8);
  return common::OkStatus();
}

Status ZoFs::DirRemoveAt(Inode* dir, Dentry* d) {
  nvm::NvmDevice* dev = kfs_->dev();
  AUDIT_SCOPE("ZoFs::DirRemoveAt");
  const uint64_t d_off = dev->OffsetOf(d);
  dev->Store16(d_off + offsetof(Dentry, flags), 0);  // atomic commit
  dev->PersistRange(d_off + offsetof(Dentry, flags), 2);
  AUDIT_DURABILITY_POINT(dev, d_off + offsetof(Dentry, flags), 2);
  const uint64_t dir_off = dev->OffsetOf(dir);
  dev->Store64(dir_off + offsetof(Inode, size), dir->size > 0 ? dir->size - 1 : 0);
  dev->Store64(dir_off + offsetof(Inode, mtime_ns), common::NowNs());
  // zofs-lint: allow(unfenced-clwb) — advisory dir counters, rebuilt by recovery
  dev->Clwb(dir_off + offsetof(Inode, size), 8);
  return common::OkStatus();
}

Status ZoFs::DirReplaceTarget(Inode* dir, Dentry* d, uint32_t child_coffer, uint64_t child_inode,
                              uint32_t child_gen, uint32_t child_type) {
  AUDIT_SCOPE("ZoFs::DirReplaceTarget");
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t d_off = dev->OffsetOf(d);
  // flags (type bits), coffer_id, generation and inode_off all live in the
  // first 24 bytes of the 64-byte-aligned dentry: one cacheline, one atomic
  // commit.
  dev->Store64(d_off + offsetof(Dentry, inode_off), child_inode);
  dev->Store32(d_off + offsetof(Dentry, generation), child_gen);
  dev->Store32(d_off + offsetof(Dentry, coffer_id), child_coffer);
  dev->Store16(d_off + offsetof(Dentry, flags), MakeDentryFlags(child_type));
  dev->PersistRange(d_off, offsetof(Dentry, inode_off) + 8);
  AUDIT_DURABILITY_POINT(dev, d_off, offsetof(Dentry, inode_off) + 8);
  const uint64_t dir_off = dev->OffsetOf(dir);
  dev->Store64(dir_off + offsetof(Inode, mtime_ns), common::NowNs());
  // zofs-lint: allow(unfenced-clwb) — advisory mtime, rebuilt by recovery
  dev->Clwb(dir_off + offsetof(Inode, mtime_ns), 8);
  return common::OkStatus();
}

Status ZoFs::DirIterate(uint32_t cid, const Inode* dir, std::vector<vfs::DirEntry>* out) {
  bool bad_name = false;
  RETURN_IF_ERROR(WalkDirLive(cid, dir, std::nullopt, [&](const DirPage& p) {
    for (const Dentry& d : p.dentries) {
      if (!d.in_use()) {
        continue;
      }
      if (d.name_len > kMaxName) {
        bad_name = true;  // corrupt length would read past the dentry
        return false;
      }
      vfs::DirEntry e;
      e.name.assign(d.name, d.name_len);
      e.ino = d.inode_off / nvm::kPageSize;
      e.type = VfsType(d.cached_type());
      out->push_back(std::move(e));
    }
    return true;
  }));
  return bad_name ? Status(Sick(cid)) : common::OkStatus();
}

Result<bool> ZoFs::DirIsEmpty(uint32_t cid, const Inode* dir) {
  bool empty = true;
  RETURN_IF_ERROR(WalkDirLive(cid, dir, std::nullopt, [&](const DirPage& p) {
    empty = std::none_of(p.dentries.begin(), p.dentries.end(),
                         [](const Dentry& d) { return d.in_use(); });
    return empty;
  }));
  return empty;
}

// ---------------------------------------------------------------------------
// Block map

Result<uint64_t> ZoFs::SlotOff(const Inode* ino, uint64_t blk, CofferAllocator* alloc) {
  nvm::NvmDevice* dev = kfs_->dev();
  // The index page the pointer at `ptr_off` names: validated before anything
  // dereferences it; when missing, created (allocating) or 0 (a hole).
  auto index = [&](uint64_t ptr_off) -> Result<uint64_t> {
    const uint64_t page = *dev->As<uint64_t>(ptr_off);
    if (page != 0 && !ValidMetaPage(page)) {
      return alloc != nullptr ? Sick(alloc->coffer_id()) : Err::kCorrupt;
    }
    if (page != 0 || alloc == nullptr) {
      return page;
    }
    ASSIGN_OR_RETURN(fresh, alloc->AllocPage(/*zero=*/true));
    dev->Store64(ptr_off, fresh);
    // zofs-lint: allow(unfenced-clwb) — index pointer: the caller's fence orders it
    dev->Clwb(ptr_off, 8);
    return fresh;
  };
  const uint64_t ino_off = dev->OffsetOf(ino);
  if (blk < kDirectBlocks) {
    return ino_off + offsetof(Inode, direct) + blk * 8;
  }
  blk -= kDirectBlocks;
  uint64_t ptr_off = ino_off + offsetof(Inode, indirect);
  if (blk >= kPtrsPerPage) {
    blk -= kPtrsPerPage;
    if (blk >= kPtrsPerPage * kPtrsPerPage) {
      return Err::kOverflow;
    }
    ASSIGN_OR_RETURN(dind, index(ino_off + offsetof(Inode, dindirect)));
    if (dind == 0) {
      return uint64_t{0};
    }
    ptr_off = dind + blk / kPtrsPerPage * 8;
    blk %= kPtrsPerPage;
  }
  ASSIGN_OR_RETURN(ind, index(ptr_off));
  return ind == 0 ? 0 : ind + blk * 8;
}

Result<uint64_t> ZoFs::GetBlock(uint32_t cid, const Inode* ino, uint64_t blk) {
  auto slot = SlotOff(ino, blk, nullptr);
  if (!slot.ok()) {
    return slot.error() == Err::kCorrupt ? Sick(cid) : slot.error();
  }
  // The data page pointer is validated too before anything dereferences it.
  const uint64_t v = *slot == 0 ? 0 : *kfs_->dev()->As<uint64_t>(*slot);
  if (v != 0 && !ValidMetaPage(v)) {
    return Sick(cid);
  }
  return v;
}

Result<uint64_t> ZoFs::GetOrAllocBlock(CofferAllocator& alloc, Inode* ino, uint64_t blk) {
  nvm::NvmDevice* dev = kfs_->dev();
  ASSIGN_OR_RETURN(slot, SlotOff(ino, blk, &alloc));
  const uint64_t v = dev->Load64(slot);
  if (v != 0) {
    return ValidMetaPage(v) ? Result<uint64_t>(v) : Sick(alloc.coffer_id());
  }
  // Block pointers are written back but the fence is deferred to the
  // operation-final Sfence (ZoFS provides no data atomicity, paper §5.3; a
  // crash that persists the size but not a pointer reads as a hole).
  ASSIGN_OR_RETURN(page, alloc.AllocPage(/*zero=*/false));
  dev->Store64(slot, page);
  // zofs-lint: allow(unfenced-clwb) — block pointer: the operation-final fence orders it
  dev->Clwb(slot, 8);
  return page;
}

Status ZoFs::InstallBlockPointer(Inode* ino, uint64_t blk, uint64_t page_off) {
  auto slot = SlotOff(ino, blk, nullptr);
  if (!slot.ok() || *slot == 0) {
    return Err::kCorrupt;
  }
  nvm::NvmDevice* dev = kfs_->dev();
  dev->Store64(*slot, page_off);
  // zofs-lint: allow(unfenced-clwb) — block pointer: the operation-final fence orders it
  dev->Clwb(*slot, 8);
  return common::OkStatus();
}

Status ZoFs::FreeBlocksFrom(CofferAllocator& alloc, Inode* ino, uint64_t first_blk) {
  AUDIT_SCOPE("ZoFs::FreeBlocksFrom");
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t ino_off = dev->OffsetOf(ino);
  // Pointer clears are written back without per-slot fences: the namespace
  // commit (dentry clear / size update) already ordered the operation, and a
  // crash that loses some clears only strands pages for fsck to reclaim.
  // A pointer that fails validation is never freed: FreePage links through
  // the page's first word, so freeing a corrupted pointer would write into
  // whatever the garbage points at (a cross-coffer escape if it lands in a
  // sibling). The slot is cleared and the page left for fsck.
  auto drop_slot = [&](uint64_t slot_off) -> Status {
    uint64_t v = dev->Load64(slot_off);
    if (v != 0) {
      if (!ValidMetaPage(v)) {
        return Sick(alloc.coffer_id());
      }
      dev->Store64(slot_off, 0);
      // zofs-lint: allow(unfenced-clwb) — block pointer: the operation-final fence orders it
      dev->Clwb(slot_off, 8);
      RETURN_IF_ERROR(alloc.FreePage(v));
    }
    return common::OkStatus();
  };

  for (uint64_t b = first_blk; b < kDirectBlocks; b++) {
    RETURN_IF_ERROR(drop_slot(ino_off + offsetof(Inode, direct) + b * 8));
  }
  if (ino->indirect != 0) {
    if (!ValidMetaPage(ino->indirect)) {
      return Sick(alloc.coffer_id());
    }
    uint64_t start = first_blk > kDirectBlocks ? first_blk - kDirectBlocks : 0;
    if (start < kPtrsPerPage) {
      for (uint64_t b = start; b < kPtrsPerPage; b++) {
        RETURN_IF_ERROR(drop_slot(ino->indirect + b * 8));
      }
      if (start == 0) {
        RETURN_IF_ERROR(drop_slot(ino_off + offsetof(Inode, indirect)));
      }
    }
  }
  if (ino->dindirect != 0) {
    if (!ValidMetaPage(ino->dindirect)) {
      return Sick(alloc.coffer_id());
    }
    const uint64_t base = kDirectBlocks + kPtrsPerPage;
    uint64_t start = first_blk > base ? first_blk - base : 0;
    for (uint64_t i = 0; i < kPtrsPerPage; i++) {
      uint64_t ind = dev->As<uint64_t>(ino->dindirect)[i];
      if (ind == 0) {
        continue;
      }
      if (!ValidMetaPage(ind)) {
        return Sick(alloc.coffer_id());
      }
      uint64_t lo = i * kPtrsPerPage;
      uint64_t inner_start = start > lo ? start - lo : 0;
      if (inner_start >= kPtrsPerPage) {
        continue;
      }
      for (uint64_t b = inner_start; b < kPtrsPerPage; b++) {
        RETURN_IF_ERROR(drop_slot(ind + b * 8));
      }
      if (inner_start == 0) {
        RETURN_IF_ERROR(drop_slot(ino->dindirect + i * 8));
      }
    }
    if (start == 0) {
      RETURN_IF_ERROR(drop_slot(ino_off + offsetof(Inode, dindirect)));
    }
  }
  dev->Sfence();
  return common::OkStatus();
}

// ---------------------------------------------------------------------------
// Node lifecycle

uint32_t ZoFs::NewGeneration(uint64_t pool_off) {
  const uint64_t counter = pool_off + offsetof(AllocPool, generation);
  for (;;) {
    const auto gen = static_cast<uint32_t>(kfs_->dev()->AtomicFetchAdd64(counter, 1) + 1);
    if (gen != 0) {
      return gen;
    }
  }
}

void ZoFs::RaiseGeneration(uint64_t pool_off, uint64_t floor) {
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t counter = pool_off + offsetof(AllocPool, generation);
  for (uint64_t cur = dev->AtomicLoad64(counter); cur < floor; cur = dev->AtomicLoad64(counter)) {
    if (dev->AtomicCas64(counter, cur, floor)) {
      return;
    }
  }
}

void ZoFs::FormatInode(uint64_t inode_off, uint32_t gen, uint32_t type, uint16_t mode,
                       uint32_t uid, uint32_t gid) {
  Inode fresh{};
  fresh.magic = kInodeMagic;
  fresh.type = type;
  fresh.mode = mode;
  fresh.uid = uid;
  fresh.gid = gid;
  fresh.nlink = type == kTypeDirectory ? 2 : 1;
  // A new incarnation of the page: a dentry, or a waiter on the lock word,
  // from an earlier one no longer matches. The free lock word carries the
  // generation as its (long expired) stamp, so a claim begun on an earlier
  // incarnation — which CASes the stamp it read (lease.h) — cannot complete
  // on this one.
  fresh.generation = gen;
  fresh.lock_expiry_ns = gen;
  fresh.mtime_ns = fresh.ctime_ns = common::NowNs();
  kfs_->dev()->StoreBytes(inode_off, &fresh, kInodeCoreBytes);
  kfs_->dev()->PersistRange(inode_off, kInodeCoreBytes);
  AUDIT_DURABILITY_POINT(kfs_->dev(), inode_off, kInodeCoreBytes);
}

Status ZoFs::FreeNode(uint32_t cid, CofferAllocator& alloc, uint64_t inode_off) {
  nvm::NvmDevice* dev = kfs_->dev();
  // An open append epoch on a dying file is discarded, not flushed: the data
  // was never synced and the pages are about to be freed. Flushing later
  // would relink into a recycled inode page.
  DropStage(inode_off);
  if (!ValidMetaPage(inode_off)) {
    return Sick(cid);
  }
  Inode* ino = Ino(inode_off);
  if (ino->type == kTypeRegular) {
    RETURN_IF_ERROR(FreeBlocksFrom(alloc, ino, 0));
  } else if (ino->type == kTypeDirectory) {
    // An L2 page goes back after the run pages of its chains: the walk hands
    // it over before them, so it is freed when the next one comes, or after.
    uint64_t l2 = 0;
    Status freed = common::OkStatus();
    RETURN_IF_ERROR(WalkDirLive(cid, ino, std::nullopt, [&](const DirPage& p) {
      const uint64_t page = p.run ? p.off : std::exchange(l2, p.off);
      freed = page == 0 ? common::OkStatus() : alloc.FreePage(page);
      return freed.ok();
    }));
    RETURN_IF_ERROR(freed);
    for (uint64_t page : {l2, ino->l1_dir}) {
      if (page != 0) {
        RETURN_IF_ERROR(alloc.FreePage(page));
      }
    }
  }
  // Invalidate the magic so recovery does not resurrect the node, and move
  // the generation, which shares the magic's cacheline, so a waiter on this
  // inode's lock reads it as gone.
  dev->Store64(inode_off, 0);
  dev->Store32(inode_off + offsetof(Inode, generation), NextGeneration(ino->generation));
  dev->PersistRange(inode_off, 8);
  AUDIT_DURABILITY_POINT(dev, inode_off, 8);
  return common::OkStatus();
}

Status ZoFs::RetireVictim(const Victim& v) {
  if (v.inode_off == 0) {
    return common::OkStatus();
  }
  const uint32_t cid = kfs_->root_coffer_id();
  RETURN_IF_ERROR(WithInode<Need::kLock>(
      NodeRef{cid, v.inode_off}, {kAnyType, v.gen}, [&](Inode*, const MapInfo& info) {
        return FreeNode(cid, AllocatorFor(cid, info), v.inode_off);
      }));
  ASSIGN_OR_RETURN(info, EnsureMapped(cid, true));
  mpk::AccessWindow w(info.key, true);
  return AllocatorFor(cid, info).FreePage(v.inode_off);
}

// ---------------------------------------------------------------------------
// Namespace operations

Result<NodeRef> ZoFs::CreateNode(const std::string& path, uint32_t type, uint16_t mode, bool excl,
                                 std::string_view symlink_target) {
  const std::string norm = vfs::NormalizePath(path);
  if (norm == "/") {  // no parent to create it in, but it always exists
    if (excl) {
      return Err::kExist;
    }
    return Lookup(norm, true);
  }
  ASSIGN_OR_RETURN(pp, vfs::SplitParent(norm));
  const auto& [parent_path, leaf] = pp;
  ASSIGN_OR_RETURN(pr, Resolve(parent_path, true));
  const uint32_t pcid = pr.node.coffer_id;
  const uint32_t uid = proc_->cred().uid;
  const uint32_t gid = proc_->cred().gid;
  // Symlinks are path data, not protected content: they inherit the parent
  // coffer's permission group. Read inside a window of the parent's coffer.
  const bool symlink = type == kTypeSymlink;
  auto in_parent = [&] {
    return symlink || opts_.one_coffer || SameGroup(mode, uid, gid, kfs_->RootPageOf(pcid));
  };
  auto existing = [&](const Dentry& d) -> Result<NodeRef> {
    if (excl) {
      return Err::kExist;
    }
    if (d.cached_type() == kTypeSymlink) {
      return Lookup(norm, true);
    }
    return NodeRef{d.coffer_id != 0 ? d.coffer_id : pcid, d.inode_off};
  };

  // The unlocked probe. An existing name needs no lock, nor write access to
  // the parent: POSIX reports it before a parent the caller cannot write.
  std::optional<Dentry> hit;
  bool prepare = false;
  RETURN_IF_ERROR(WithInode<Need::kRead>(
      pr.node, {kDirOnly, pr.node_gen}, [&](Inode* dir, const MapInfo&) -> Status {
        auto found = DirFind(pcid, dir, leaf);
        if (found.ok()) {
          hit = **found;
        } else if (found.error() != Err::kNoEnt) {
          return found.error();  // a damaged walk proves nothing about the name
        } else {
          prepare = pcid == kfs_->root_coffer_id() && in_parent();
        }
        return common::OkStatus();
      }));
  if (hit) {
    return existing(*hit);
  }

  // The new inode joining the parent's coffer: its generation, from that
  // coffer, whose dentry records it, then the inode. `spare` is a formatted
  // inode no dentry names yet. In the root coffer, which is never deleted,
  // it is made before the lock, and whatever is left of it after the lock
  // goes back to the allocator. Any other coffer can go while none of its
  // directories is locked, so there the inode waits for the lock.
  uint32_t gen = 0;
  uint64_t spare = 0;
  auto make_inode = [&](const MapInfo& info) -> Status {
    gen = NewGeneration(info.custom_off);
    ASSIGN_OR_RETURN(inode_off, AllocatorFor(pcid, info).AllocPage(/*zero=*/false));
    FormatInode(inode_off, gen, type, symlink ? kfs_->RootPageOf(pcid)->mode : mode, uid, gid);
    if (symlink) {
      nvm::NvmDevice* dev = kfs_->dev();
      const uint64_t len = symlink_target.size();
      dev->Store16(inode_off + offsetof(Inode, symlink_len), static_cast<uint16_t>(len));
      dev->StoreBytes(inode_off + offsetof(Inode, symlink_target), symlink_target.data(), len);
      dev->Store64(inode_off + offsetof(Inode, size), len);
      dev->PersistRange(inode_off, offsetof(Inode, symlink_target) + len);
      AUDIT_DURABILITY_POINT(dev, inode_off, offsetof(Inode, symlink_target) + len);
    }
    spare = inode_off;
    return common::OkStatus();
  };
  if (prepare) {
    ASSIGN_OR_RETURN(info, EnsureMapped(pcid, true));
    mpk::AccessWindow w(info.key, true);
    RETURN_IF_ERROR(make_inode(info));
  }

  // Under the lock: the name again, and the group again, since a chmod of
  // the parent's coffer root may have moved it after the probe.
  auto made = WithInode<Need::kLock>(
      pr.node, {kDirOnly, pr.node_gen},
      [&](Inode* dir, const MapInfo& pinfo) -> Result<NodeRef> {
        auto found = DirFind(pcid, dir, leaf);
        if (found.ok()) {
          return existing(**found);  // another thread made it first
        }
        if (found.error() != Err::kNoEnt) {
          return found.error();
        }
        if (in_parent()) {
          if (spare == 0) {
            RETURN_IF_ERROR(make_inode(pinfo));
          }
          RETURN_IF_ERROR(DirInsert(pcid, pinfo, dir, leaf, 0, spare, gen, type));
          return NodeRef{pcid, std::exchange(spare, 0)};
        }

        // Different permission group: the node becomes the root of a new
        // coffer (paper §5, Figure 1), whose counter starts above its
        // generation.
        gen = NewGeneration(pinfo.custom_off);
        ASSIGN_OR_RETURN(new_cid, kfs_->CofferNew(*proc_, norm, kernfs::kCofferTypeZofs,
                                                  EffPerm(mode), uid, gid, /*extra_pages=*/2));
        ForgetMapping(new_cid);  // the id may be recycled from a deleted coffer
        ASSIGN_OR_RETURN(ninfo, EnsureMapped(new_cid, true));
        {
          mpk::AccessWindow w2(ninfo.key, true);
          FormatInode(ninfo.root_inode_off, gen, type, mode, uid, gid);
          CofferAllocator::InitPool(kfs_->dev(), ninfo.custom_off, gen);
        }
        RETURN_IF_ERROR(
            DirInsert(pcid, pinfo, dir, leaf, new_cid, ninfo.root_inode_off, gen, type));
        return NodeRef{new_cid, ninfo.root_inode_off};
      });
  if (spare != 0) {
    // The root coffer outlived the lock. A page that cannot go back stays
    // for the next fsck to reclaim.
    if (auto info = EnsureMapped(pcid, true); info.ok()) {
      mpk::AccessWindow w(info->key, true);
      (void)AllocatorFor(pcid, *info).FreePage(spare);
    }
  }
  return made;
}

Result<NodeRef> ZoFs::Create(const std::string& path, uint16_t mode, bool excl) {
  AUDIT_SCOPE("ZoFs::Create");
  return CreateNode(path, kTypeRegular, mode, excl);
}

Status ZoFs::Mkdir(const std::string& path, uint16_t mode) {
  AUDIT_SCOPE("ZoFs::Mkdir");
  RETURN_IF_ERROR(CreateNode(path, kTypeDirectory, mode, /*excl=*/true));
  return common::OkStatus();
}

Status ZoFs::Symlink(const std::string& target, const std::string& linkpath) {
  AUDIT_SCOPE("ZoFs::Symlink");
  if (target.size() >= sizeof(Inode{}.symlink_target)) {
    return Err::kNameTooLong;
  }
  RETURN_IF_ERROR(CreateNode(linkpath, kTypeSymlink, 0, /*excl=*/true, target));
  return common::OkStatus();
}

Result<std::string> ZoFs::ReadLink(const std::string& path) {
  AUDIT_SCOPE("ZoFs::ReadLink");
  ASSIGN_OR_RETURN(r, Resolve(path, /*follow_last_symlink=*/false));
  return WithInode<Need::kRead>(
      r.node, {kAnyType}, [&](Inode* ino, const MapInfo&) -> Result<std::string> {
        if (ino->symlink_len >= sizeof(ino->symlink_target)) {
          return Err::kCorrupt;  // object-local damage; coffer graph still trusted
        }
        if (ino->type != kTypeSymlink) {
          return Err::kInval;
        }
        return std::string(ino->symlink_target, ino->symlink_len);
      });
}

Status ZoFs::Unlink(const std::string& path) {
  AUDIT_SCOPE("ZoFs::Unlink");
  return RemoveNode(path, /*dir=*/false);
}

Status ZoFs::Rmdir(const std::string& path) {
  AUDIT_SCOPE("ZoFs::Rmdir");
  return RemoveNode(path, /*dir=*/true);
}

Status ZoFs::RemoveNode(const std::string& path, bool dir) {
  ASSIGN_OR_RETURN(r, Resolve(path, /*follow_last_symlink=*/false));
  if (r.parent.inode_off == 0 && r.leaf.empty()) {
    return dir ? Err::kBusy : Err::kIsDir;  // "/"
  }
  const uint32_t pcid = r.parent.coffer_id;
  Victim victim;
  RETURN_IF_ERROR(UntilVictimFree([&] {
    return WithInode<Need::kLock>(
        r.parent, {kDirOnly, r.parent_gen}, [&](Inode* pdir, const MapInfo& pinfo) -> Status {
          ASSIGN_OR_RETURN(d, DirFind(pcid, pdir, r.leaf));
          const Dentry child = *d;
          if ((child.cached_type() == kTypeDirectory) != dir) {
            return dir ? Err::kNotDir : Err::kIsDir;
          }
          return RemoveChild(pcid, pinfo, child, {r.parent.inode_off}, [&]() {
            // The victim's window may be open; the dentry is in the parent's coffer.
            mpk::AccessWindow w(pinfo.key, true);
            return DirRemoveAt(pdir, d);
          }, &victim);
        });
  }));
  return RetireVictim(victim);
}

template <typename Drop>
Status ZoFs::RemoveChild(uint32_t cid, const MapInfo& info, const Dentry& victim,
                         std::array<uint64_t, 2> outer, Drop&& drop, Victim* later) {
  const bool is_dir = victim.cached_type() == kTypeDirectory;
  if (!is_dir && victim.coffer_id == 0 && cid == kfs_->root_coffer_id()) {
    // KernFS never deletes the root coffer, so its file can wait for the
    // caller's locks to go.
    RETURN_IF_ERROR(drop());
    *later = Victim{victim.inode_off, victim.generation};
    return common::OkStatus();
  }
  if (is_dir || victim.coffer_id == 0) {
    const NodeRef vnode{victim.coffer_id != 0 ? victim.coffer_id : cid, victim.inode_off};
    // Try-locked: the caller holds the parent(s), so waiting here could close
    // a cycle with a rename holding the victim (as a parent) and waiting for
    // one of them. EAGAIN sends the caller round again (UntilVictimFree).
    RETURN_IF_ERROR(WithInode<Need::kTryLock>(
        vnode, {is_dir ? kDirOnly : kNoDir, victim.generation, outer},
        [&](Inode* vino, const MapInfo& vinfo) -> Status {
          if (is_dir) {
            ASSIGN_OR_RETURN(empty, DirIsEmpty(vnode.coffer_id, vino));
            if (!empty) {
              return Err::kNotEmpty;
            }
          }
          RETURN_IF_ERROR(drop());
          if (victim.coffer_id == 0) {
            return FreeNode(cid, AllocatorFor(cid, vinfo), victim.inode_off);
          }
          // A coffer root leaves with its coffer after the lock; its
          // generation moves now (volatile: only live lock waiters read it).
          kfs_->dev()->Store32(victim.inode_off + offsetof(Inode, generation),
                               NextGeneration(vino->generation));
          return common::OkStatus();
        }));
  } else {
    RETURN_IF_ERROR(drop());  // a coffer-root file
  }
  if (victim.coffer_id != 0) {
    // Drop our cached mapping and allocator too: the id (root page index)
    // can be reused by a future coffer.
    RETURN_IF_ERROR(kfs_->CofferDelete(*proc_, victim.coffer_id));
    ForgetMapping(victim.coffer_id);
    return common::OkStatus();
  }
  mpk::AccessWindow w(info.key, true);
  return AllocatorFor(cid, info).FreePage(victim.inode_off);
}

Result<vfs::StatBuf> ZoFs::StatNode(NodeRef node) {
  AUDIT_SCOPE("ZoFs::StatNode");
  return WithInode<Need::kRead>(
      node, {kAnyType}, [&](Inode* ino, const MapInfo&) -> Result<vfs::StatBuf> {
        vfs::StatBuf st;
        st.ino = node.inode_off / nvm::kPageSize;
        st.type = VfsType(ino->type);
        st.mode = ino->mode;
        st.uid = ino->uid;
        st.gid = ino->gid;
        st.size = ino->type == kTypeDirectory ? 0 : ino->size;
        st.nlink = ino->nlink;
        st.mtime_ns = ino->mtime_ns;
        st.ctime_ns = ino->ctime_ns;
        return st;
      });
}

Result<std::vector<vfs::DirEntry>> ZoFs::ReadDir(const std::string& path) {
  ASSIGN_OR_RETURN(r, Resolve(path, true));
  return WithInode<Need::kRead>(
      r.node, {kDirOnly}, [&](Inode* dir, const MapInfo&) -> Result<std::vector<vfs::DirEntry>> {
        std::vector<vfs::DirEntry> out;
        RETURN_IF_ERROR(DirIterate(r.node.coffer_id, dir, &out));
        return out;
      });
}

// ---------------------------------------------------------------------------
// Data path

Status ZoFs::EnsureAccess(NodeRef node, bool writable) {
  // Open must not hand back a descriptor to an object every later op will
  // reject: validate the inode here, same as the read/write paths do.
  auto ok = [](Inode*, const MapInfo&) { return common::OkStatus(); };
  return writable ? WithInode<Need::kMapWrite>(node, {kNoDir}, ok)
                  : WithInode<Need::kRead>(node, {kAnyType}, ok);
}

Result<size_t> ZoFs::ReadAt(NodeRef node, void* buf, size_t n, uint64_t off) {
  AUDIT_SCOPE("ZoFs::ReadAt");
  return WithInode<Need::kRead>(node, {kNoDir}, [&](Inode* ino, const MapInfo&) -> Result<size_t> {
    const uint64_t size = ino->size;
    if (off >= size || n == 0) {
      return size_t{0};
    }
    n = std::min<uint64_t>(n, size - off);

    if (ino->iflags & kInodeInlineData) {
      // Small file stored inside the inode page (§5.1 future work). A size
      // beyond the inline area is corrupt — honouring it would read past the
      // inode page.
      if (size > kInlineCapacity) {
        return Err::kCorrupt;  // object-local damage; coffer graph still trusted
      }
      mpk::CheckAccess(node.inode_off + kInlineOff + off, n, false);
      // zofs-lint: allow(raw-nvm-deref) — inline-data copy gated by CheckAccess above
      memcpy(buf, kfs_->dev()->base() + node.inode_off + kInlineOff + off, n);
      return n;
    }

    auto* dst = static_cast<uint8_t*>(buf);
    size_t done = 0;
    while (done < n) {
      const uint64_t blk = (off + done) / nvm::kPageSize;
      const uint64_t in_off = (off + done) % nvm::kPageSize;
      const size_t chunk = std::min<size_t>(n - done, nvm::kPageSize - in_off);
      ASSIGN_OR_RETURN(page, GetBlock(node.coffer_id, ino, blk));
      if (page == 0) {
        memset(dst + done, 0, chunk);  // hole
      } else {
        mpk::CheckAccess(page + in_off, chunk, false);
        // zofs-lint: allow(raw-nvm-deref) — bulk copy out of a block offset gated by CheckAccess above
        memcpy(dst + done, kfs_->dev()->base() + page + in_off, chunk);
      }
      done += chunk;
    }
    return done;
  });
}

Result<size_t> ZoFs::WriteAt(NodeRef node, const void* buf, size_t n, uint64_t off) {
  AUDIT_SCOPE("ZoFs::WriteAt");
  return WithInode<Need::kLock>(node, {kNoDir}, [&](Inode* ino, const MapInfo& info) {
    return WriteLocked(node, info, ino, buf, n, off);
  });
}

Result<size_t> ZoFs::WriteLocked(NodeRef node, const MapInfo& info, Inode* ino, const void* buf,
                                 size_t n, uint64_t off) {
  if (n == 0) {
    return size_t{0};
  }
  if (off + n < off) {
    return Err::kOverflow;  // offset + length wraps uint64
  }
  // A positional write is a conflicting operation for the staged-append
  // epoch: drain it first so this write's own durability claim cannot cover
  // staged blocks whose metadata write-backs are still deferred.
  RETURN_IF_ERROR(FlushStageIfAny(info, node.inode_off));

  if (opts_.sysempty) {
    kfs_->Nop();  // ZoFS-sysempty: pay one crossing per write (Figure 8)
  }
  if (opts_.kwrite) {
    // ZoFS-kwrite: the write executes in the kernel — crossing plus the
    // kernel-path overhead (context pollution etc.), modelled as 3x.
    common::SpinNs(3 * kfs_->kernel_crossing_ns());
  }

  nvm::NvmDevice* dev = kfs_->dev();
  CofferAllocator& alloc = AllocatorFor(node.coffer_id, info);
  const uint64_t end = off + n;
  const uint64_t ino_off = node.inode_off;

  // ---- inline small-file path (§5.1 future work) ----
  if (ino->type == kTypeRegular) {
    const bool is_inline = (ino->iflags & kInodeInlineData) != 0;
    const bool can_inline = opts_.inline_data && ino->size == 0 && ino->direct[0] == 0 &&
                            ino->indirect == 0 && ino->dindirect == 0;
    if ((is_inline || can_inline) && end <= kInlineCapacity) {
      static const uint8_t kZeros[nvm::kPageSize] = {};
      if (!is_inline && off > 0) {
        dev->NtStoreBytes(ino_off + kInlineOff, kZeros, off);  // hole reads zero
      }
      dev->NtStoreBytes(ino_off + kInlineOff + off, buf, n);
      if (!is_inline) {
        dev->Store16(ino_off + offsetof(Inode, iflags),
                     static_cast<uint16_t>(ino->iflags | kInodeInlineData));
        dev->Clwb(ino_off + offsetof(Inode, iflags), 2);
      }
      if (end > ino->size) {
        dev->Store64(ino_off + offsetof(Inode, size), end);
      }
      dev->Store64(ino_off + offsetof(Inode, mtime_ns), common::NowNs());
      dev->Clwb(ino_off + offsetof(Inode, size), 24);
      AUDIT_ORDER_AFTER(dev, ino_off + offsetof(Inode, size), 24, ino_off + kInlineOff, end);
      dev->Sfence();
      AUDIT_DURABILITY_POINT(dev, ino_off + offsetof(Inode, size), 24);
      return n;
    }
    if (is_inline) {
      // The file outgrew the inline area: spill to block 0 first.
      RETURN_IF_ERROR(SpillInline(alloc, ino));
    }
  }

  // ---- block path ----
  struct PendingSwap {
    uint64_t blk;
    uint64_t fresh;
    uint64_t old;
  };
  std::vector<PendingSwap> swaps;  // atomic_data: pointer installs after the data fence

  const auto* src = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const uint64_t blk = (off + done) / nvm::kPageSize;
    const uint64_t in_off = (off + done) % nvm::kPageSize;
    const size_t chunk = std::min<size_t>(n - done, nvm::kPageSize - in_off);
    const bool fresh_partial = chunk < nvm::kPageSize;
    uint64_t before = 1;  // only consulted for partial chunks / atomic mode
    if (fresh_partial || opts_.atomic_data) {
      ASSIGN_OR_RETURN(b, GetBlock(node.coffer_id, ino, blk));  // quarantined once, here
      before = b;
    }

    if (opts_.atomic_data && before != 0) {
      // Copy-on-write: the live block is untouched until the pointer swap,
      // so a crash exposes it entirely-old or entirely-new.
      ASSIGN_OR_RETURN(fresh, alloc.AllocPage(/*zero=*/false));
      if (fresh_partial) {
        if (in_off > 0) {
          // zofs-lint: allow(raw-nvm-deref) — CoW prefix copy from the committed old block
          dev->NtStoreBytes(fresh, dev->base() + before, in_off);
        }
        if (in_off + chunk < nvm::kPageSize) {
          // zofs-lint: allow(raw-nvm-deref) — CoW suffix copy from the committed old block
          dev->NtStoreBytes(fresh + in_off + chunk, dev->base() + before + in_off + chunk,
                            nvm::kPageSize - in_off - chunk);
        }
      }
      dev->NtStoreBytes(fresh + in_off, src + done, chunk);
      swaps.push_back(PendingSwap{blk, fresh, before});
    } else {
      ASSIGN_OR_RETURN(page, GetOrAllocBlock(alloc, ino, blk));
      if (before == 0 && fresh_partial) {
        // Newly allocated page only partially covered: clear it first so
        // holes read as zeros.
        static const uint8_t kZeros[nvm::kPageSize] = {};
        dev->NtStoreBytes(page, kZeros, nvm::kPageSize);
      }
      // Non-temporal data writes, as NOVA/ZoFS use in the paper's experiments.
      dev->NtStoreBytes(page + in_off, src + done, chunk);
      AUDIT_ORDER_AFTER(dev, ino_off + offsetof(Inode, size), 24, page + in_off, chunk);
    }
    done += chunk;
  }

  if (!swaps.empty()) {
    dev->Sfence();  // the COW pages are durable before any pointer moves
    for (const PendingSwap& sw : swaps) {
      // The block is mapped, so its index pages exist: swap the pointer
      // with one atomic 8-byte store.
      if (!InstallBlockPointer(ino, sw.blk, sw.fresh).ok()) {
        return Sick(node.coffer_id);
      }
    }
  }

  if (end > ino->size) {
    dev->Store64(ino_off + offsetof(Inode, size), end);
  }
  dev->Store64(ino_off + offsetof(Inode, mtime_ns), common::NowNs());
  dev->Clwb(ino_off + offsetof(Inode, size), 24);  // size..mtime share a line
  dev->Sfence();  // one fence commits data, block pointers and attributes
  AUDIT_DURABILITY_POINT(dev, ino_off + offsetof(Inode, size), 24);

  // Old COW pages return to the allocator only after the swap is durable.
  for (const PendingSwap& sw : swaps) {
    RETURN_IF_ERROR(alloc.FreePage(sw.old));
  }
  return n;
}

Status ZoFs::SpillInline(CofferAllocator& alloc, Inode* ino) {
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t ino_off = dev->OffsetOf(ino);
  ASSIGN_OR_RETURN(blk0, alloc.AllocPage(/*zero=*/false));
  const uint64_t copy = std::min<uint64_t>(ino->size, kInlineCapacity);
  static const uint8_t kZeros[nvm::kPageSize] = {};
  // zofs-lint: allow(raw-nvm-deref) — inline-area spill to block 0; source range validated by ValidMetaRange
  dev->NtStoreBytes(blk0, dev->base() + ino_off + kInlineOff, copy);
  if (copy < nvm::kPageSize) {
    dev->NtStoreBytes(blk0 + copy, kZeros, nvm::kPageSize - copy);
  }
  dev->Sfence();  // data durable before it becomes reachable
  dev->Store64(ino_off + offsetof(Inode, direct), blk0);
  AUDIT_ORDER_AFTER(dev, ino_off + offsetof(Inode, direct), 8, blk0, nvm::kPageSize);
  dev->PersistRange(ino_off + offsetof(Inode, direct), 8);
  // Only now stop reading the inline copy (crash in between keeps the
  // still-intact inline data authoritative).
  dev->Store16(ino_off + offsetof(Inode, iflags),
               static_cast<uint16_t>(ino->iflags & ~kInodeInlineData));
  dev->PersistRange(ino_off + offsetof(Inode, iflags), 2);
  AUDIT_DURABILITY_POINT(dev, ino_off + offsetof(Inode, iflags), 2);
  return common::OkStatus();
}

Result<uint64_t> ZoFs::Append(NodeRef node, const void* buf, size_t n) {
  AUDIT_SCOPE("ZoFs::Append");
  return WithInode<Need::kLock>(
      node, {kNoDir}, [&](Inode* ino, const MapInfo& info) -> Result<uint64_t> {
        const uint64_t off = ino->size;
        // ---- staged fast path (epoch batcher, DESIGN.md) ----
        // Qualifying appends defer all metadata write-backs into the epoch's
        // flush set and return without a fence; durability arrives at the
        // next durability point. The Figure 8 variants (sysempty/kwrite)
        // model per-write kernel costs and the inline/atomic-data modes have
        // their own commit protocols, so all of them keep the synchronous
        // path.
        if (n > 0 && ino->type == kTypeRegular && (ino->iflags & kInodeInlineData) == 0 &&
            !opts_.inline_data && !opts_.atomic_data && !opts_.sysempty && !opts_.kwrite &&
            n <= kStagedEpochPages * nvm::kPageSize && off + n >= off) {
          ASSIGN_OR_RETURN(staged, StageAppendData(node.coffer_id, info, ino, buf, n));
          if (staged) {
            staged_append_hits_.Add(0, 1);
            return off;
          }
        }
        RETURN_IF_ERROR(WriteLocked(node, info, ino, buf, n, off));
        return off;
      });
}

// ---------------------------------------------------------------------------
// Staged-append epoch batcher (DESIGN.md: epochs & durability points).
//
// An epoch's appends NT-write their data into freshly allocated pages and
// install block pointers / size with plain volatile stores, noting every
// dirtied metadata line in the stage's FlushSet. Nothing fences. The
// durability point then runs the relink protocol:
//   fence A  intent body persisted (also commits the epoch's NT data and the
//            eagerly written-back index-page lines);
//   fence B  intent magic committed — recovery now rolls the epoch forward;
//   fence C  FlushSet drained + Sfence — the durability claim;
//   fence D  intent magic cleared, fenced, so a stale intent cannot
//            resurrect after its pages are freed and reused.
// Four fences amortized over up to kStagedEpochPages appends, against one
// fence per append on the synchronous path.

std::shared_ptr<ZoFs::StageState> ZoFs::FindStage(uint64_t inode_off) {
  StageShard& sh = StageShardFor(inode_off);
  common::SpinLockGuard g(&sh.mu);
  auto it = sh.stages.find(inode_off);
  return it == sh.stages.end() ? nullptr : it->second;
}

std::shared_ptr<ZoFs::StageState> ZoFs::CreateStage(uint32_t cid, uint64_t inode_off,
                                                    uint64_t size) {
  auto st = std::make_shared<StageState>();
  st->cid = cid;
  st->inode_off = inode_off;
  st->base_size = size;
  st->new_size = size;
  // First block this epoch allocates: the page after the (durable) tail.
  st->start_blk = size / nvm::kPageSize + (size % nvm::kPageSize != 0 ? 1 : 0);
  StageShard& sh = StageShardFor(inode_off);
  {
    common::SpinLockGuard g(&sh.mu);
    sh.stages[inode_off] = st;
  }
  active_stages_.fetch_add(1);
  return st;
}

std::shared_ptr<ZoFs::StageState> ZoFs::TakeStage(uint64_t inode_off) {
  StageShard& sh = StageShardFor(inode_off);
  std::shared_ptr<StageState> st;
  {
    common::SpinLockGuard g(&sh.mu);
    auto it = sh.stages.find(inode_off);
    if (it == sh.stages.end()) {
      return nullptr;
    }
    st = std::move(it->second);
    sh.stages.erase(it);
  }
  active_stages_.fetch_sub(1);
  return st;
}

void ZoFs::DropStage(uint64_t inode_off) {
  if (active_stages_.load(std::memory_order_acquire) == 0) {
    return;
  }
  (void)TakeStage(inode_off);
}

Result<bool> ZoFs::StageAppendData(uint32_t cid, const MapInfo& info, Inode* ino,
                                   const void* buf, size_t n) {
  AUDIT_SCOPE("ZoFs::StageAppendData");
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t ino_off = dev->OffsetOf(ino);
  const uint64_t off = ino->size;
  const uint64_t last_blk = (off + n - 1) / nvm::kPageSize;
  if (last_blk >= kMaxFileBlocks) {
    return false;  // beyond the block map; let WriteAt produce the error
  }

  std::shared_ptr<StageState> st = FindStage(ino_off);
  // How many fresh pages this append needs, given what is already staged.
  const uint64_t staged_end =
      st != nullptr ? st->start_blk + st->pages.size() : uint64_t{0};
  const uint64_t first_new =
      std::max(staged_end, off / nvm::kPageSize + (off % nvm::kPageSize != 0 ? 1 : 0));
  const uint64_t need = last_blk + 1 > first_new ? last_blk + 1 - first_new : 0;
  if (st != nullptr && st->pages.size() + need > kStagedEpochPages) {
    // Epoch overflow: this is a durability point for the open epoch.
    RETURN_IF_ERROR(FlushStage(info, TakeStage(ino_off)));
    st = nullptr;
  }
  if (st == nullptr && off % nvm::kPageSize != 0) {
    // The append starts inside the durable tail block; a hole there means
    // zero-filling, which the synchronous path handles.
    ASSIGN_OR_RETURN(tail, GetBlock(cid, ino, off / nvm::kPageSize));
    if (tail == 0) {
      return false;
    }
  }
  if (st == nullptr) {
    st = CreateStage(cid, ino_off, off);
    // The epoch's durability point declares the size line durable, so the
    // line is the stage's from the start: an append that fails below still
    // leaves it to write back (the line also holds the inode's lock words).
    st->flush.Note(dev, ino_off + offsetof(Inode, size), 24);
  }

  CofferAllocator& alloc = AllocatorFor(cid, info);
  const auto* src = static_cast<const uint8_t*>(buf);
  uint64_t pos = off;
  size_t done = 0;
  while (done < n) {
    const uint64_t blk = pos / nvm::kPageSize;
    const uint64_t in_off = pos % nvm::kPageSize;
    const size_t chunk = std::min<size_t>(n - done, nvm::kPageSize - in_off);
    uint64_t page;
    if (blk >= st->start_blk && blk < st->start_blk + st->pages.size()) {
      page = st->pages[blk - st->start_blk];
    } else if (blk == st->start_blk + st->pages.size()) {
      // Fresh page: allocate without zeroing (the chunk covers the page up
      // to its end; bytes past new_size are beyond EOF) and install the
      // pointer volatilely — the epoch's FlushSet carries the line. Index
      // pages are created eagerly, written back now: the intent commits
      // only after fence A, so a committed intent implies the index pages
      // it relies on are durable and recovery's roll-forward cannot
      // dead-end on a missing one.
      ASSIGN_OR_RETURN(slot_off, SlotOff(ino, blk, &alloc));
      ASSIGN_OR_RETURN(fresh, alloc.AllocPageStaged(&st->flush));
      if (in_off > 0) {
        // First staged page entered mid-block (the durable tail block was
        // exactly full is the usual case; this one is a re-staged epoch
        // whose predecessor ended mid-page): zero the leading gap.
        static const uint8_t kZeros[nvm::kPageSize] = {};
        dev->NtStoreBytes(fresh, kZeros, in_off);
      }
      dev->Store64(slot_off, fresh);
      st->flush.Note(dev, slot_off, 8);
      st->pages.push_back(fresh);
      page = fresh;
    } else {
      // Tail chunk landing in a block that was durable before the epoch
      // opened (blk < start_blk). Pre-checked non-hole above.
      ASSIGN_OR_RETURN(existing, GetBlock(cid, ino, blk));
      if (existing == 0) {
        return Err::kCorrupt;  // vanished under the inode lock: impossible
      }
      page = existing;
    }
    dev->NtStoreBytes(page + in_off, src + done, chunk);
    pos += chunk;
    done += chunk;
  }

  st->new_size = pos;
  dev->Store64(ino_off + offsetof(Inode, size), pos);
  dev->Store64(ino_off + offsetof(Inode, mtime_ns), common::NowNs());
  st->flush.Note(dev, ino_off + offsetof(Inode, size), 24);  // size..mtime share a line
  return true;
}

Status ZoFs::PublishStageIntent(const MapInfo& info, const StageState& st) {
  AUDIT_SCOPE("ZoFs::PublishStageIntent");
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t off = info.custom_off + offsetof(AllocPool, staged_intent);
  const uint64_t magic_off = off + offsetof(StagedAppendIntent, magic);
  const uint64_t held[] = {st.inode_off};
  RETURN_IF_ERROR(ClaimIntentSlot(st.cid, info, off, kStagedIntentClaimed, held));
  StagedAppendIntent in{};
  in.magic = kStagedIntentClaimed;
  in.lease_expiry_ns = common::NowNs() + opts_.lease_ns;  // renews the claim's stamp
  in.inode_off = st.inode_off;
  in.start_blk = st.start_blk;
  in.count = st.pages.size();
  in.new_size = st.new_size;
  in.base_size = st.base_size;
  for (size_t i = 0; i < st.pages.size(); i++) {
    in.pages[i] = st.pages[i];
  }
  dev->StoreBytes(off, &in, sizeof(in));
  dev->PersistRange(off, sizeof(in));  // fence A: body + the epoch's NT data
  // Commit: the intent becomes authoritative for recovery.
  dev->AtomicStore64(magic_off, kStagedIntentMagic);
  AUDIT_ORDER_AFTER(dev, magic_off, 8, off, sizeof(in));
  dev->PersistRange(magic_off, 8);  // fence B
  // Tenant death with the intent committed but the FlushSet undrained: the
  // survivor who steals this file's lock (or offline recovery) must roll the
  // epoch forward from the intent record alone.
  common::KillPoint(common::kKillStagedIntentPublished);
  return common::OkStatus();
}

Status ZoFs::FlushStage(const MapInfo& info, std::shared_ptr<StageState> st) {
  AUDIT_SCOPE("ZoFs::FlushStage");
  if (st == nullptr) {
    return common::OkStatus();
  }
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t ino_off = st->inode_off;
  Status pub = common::OkStatus();
  if (!st->pages.empty()) {
    pub = PublishStageIntent(info, *st);
    if (!pub.ok() && pub.error() != Err::kBusy) {
      return pub;
    }
    // kBusy: another live process is mid-relink in this coffer. Proceed
    // without an intent — the drain below still makes everything durable;
    // only relink atomicity against a crash inside this drain is lost, and
    // that window carries no durability promise yet.
  }
  if (!st->pages.empty()) {
    // The size line becomes durable only after the staged data (the data
    // went out with fence A; the size line goes out with fence C below).
    // Every staged page is written from its first byte, so its first line is
    // a tracked stand-in for the epoch's data.
    AUDIT_ORDER_AFTER(dev, ino_off + offsetof(Inode, size), 24, st->pages.front(),
                      nvm::kCachelineSize);
  }
  st->flush.FlushAll(dev);
  dev->Sfence();  // fence C: the epoch's durability point
  AUDIT_DURABILITY_POINT(dev, ino_off + offsetof(Inode, size), 24);
  if (!st->pages.empty() && pub.ok()) {
    ClearIntent(info.custom_off + offsetof(AllocPool, staged_intent));  // fence D
  }
  return common::OkStatus();
}

Status ZoFs::FlushStageIfAny(const MapInfo& info, uint64_t inode_off) {
  if (active_stages_.load(std::memory_order_acquire) == 0) {
    return common::OkStatus();
  }
  std::shared_ptr<StageState> st = TakeStage(inode_off);
  if (st == nullptr) {
    return common::OkStatus();
  }
  return FlushStage(info, std::move(st));
}

Status ZoFs::SyncNode(NodeRef node) {
  AUDIT_SCOPE("ZoFs::SyncNode");
  if (active_stages_.load(std::memory_order_acquire) == 0) {
    return common::OkStatus();
  }
  if (FindStage(node.inode_off) == nullptr) {
    return common::OkStatus();  // nothing staged: fsync is a no-op
  }
  return WithInode<Need::kLock>(node, {kAnyType}, [&](Inode*, const MapInfo& info) {
    return FlushStageIfAny(info, node.inode_off);
  });
}

Status ZoFs::FlushAllStages() {
  if (active_stages_.load(std::memory_order_acquire) == 0) {
    return common::OkStatus();
  }
  // Snapshot the open stages, then drain each through SyncNode, which
  // re-checks under the inode lock (a stage may close or reopen in between).
  std::vector<NodeRef> targets;
  for (StageShard& sh : stage_shards_) {
    common::SpinLockGuard g(&sh.mu);
    for (const auto& [ino_off, st] : sh.stages) {
      targets.push_back(NodeRef{st->cid, ino_off});
    }
  }
  Status first = common::OkStatus();
  for (const NodeRef& t : targets) {
    Status s = SyncNode(t);
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

Status ZoFs::TruncateNode(NodeRef node, uint64_t len) {
  AUDIT_SCOPE("ZoFs::TruncateNode");
  return WithInode<Need::kLock>(node, {kNoDir}, [&](Inode* ino, const MapInfo& info) -> Status {
    // Truncation conflicts with an open append epoch (it rewrites the same
    // size word and may free staged blocks): drain the epoch first.
    RETURN_IF_ERROR(FlushStageIfAny(info, node.inode_off));
    nvm::NvmDevice* dev = kfs_->dev();
    const uint64_t old_size = ino->size;

    if (ino->iflags & kInodeInlineData) {
      if (len > kInlineCapacity) {
        RETURN_IF_ERROR(SpillInline(AllocatorFor(node.coffer_id, info), ino));
      } else {
        // Zero the abandoned tail so a later re-extension reads zeros.
        if (len < old_size) {
          static const uint8_t kZeros[nvm::kPageSize] = {};
          dev->NtStoreBytes(node.inode_off + kInlineOff + len, kZeros,
                            std::min(kInlineCapacity, old_size) - len);
        }
        dev->Store64(node.inode_off + offsetof(Inode, size), len);
        dev->PersistRange(node.inode_off + offsetof(Inode, size), 8);
        return common::OkStatus();
      }
    }

    // Commit the new size first; pages freed after a crash in between are
    // reclaimed by recovery.
    dev->Store64(node.inode_off + offsetof(Inode, size), len);
    dev->PersistRange(node.inode_off + offsetof(Inode, size), 8);

    if (len < old_size) {
      CofferAllocator& alloc = AllocatorFor(node.coffer_id, info);
      // Round up without the +kPageSize-1 trick, which wraps for len near
      // UINT64_MAX and would free every block of the file.
      const uint64_t first_dead_blk =
          len / nvm::kPageSize + (len % nvm::kPageSize != 0 ? 1 : 0);
      RETURN_IF_ERROR(FreeBlocksFrom(alloc, ino, first_dead_blk));
      // Zero the tail of the last kept page so re-extension reads zeros.
      if (len % nvm::kPageSize != 0) {
        auto page = GetBlock(node.coffer_id, ino, len / nvm::kPageSize);
        if (page.ok() && *page != 0) {
          static const uint8_t kZeros[nvm::kPageSize] = {};
          const uint64_t in_off = len % nvm::kPageSize;
          dev->NtStoreBytes(*page + in_off, kZeros, nvm::kPageSize - in_off);
          dev->Sfence();
        }
      }
    }
    return common::OkStatus();
  });
}

// ---------------------------------------------------------------------------
// mmap / execve (paper §3.3: "they cannot be done in user space")

Result<std::vector<uint64_t>> ZoFs::FilePages(NodeRef node, uint64_t* size_out,
                                              uint16_t* mode_out) {
  return WithInode<Need::kRead>(
      node, {kRegularOnly},
      [&](Inode* ino, const MapInfo&) -> Result<std::vector<uint64_t>> {
        if (ino->iflags & kInodeInlineData) {
          return Err::kInval;  // inline files have no standalone data pages
        }
        if (size_out != nullptr) {
          *size_out = ino->size;
        }
        if (mode_out != nullptr) {
          *mode_out = ino->mode;
        }
        std::vector<uint64_t> pages;
        const uint64_t blocks =
            ino->size / nvm::kPageSize + (ino->size % nvm::kPageSize != 0 ? 1 : 0);
        for (uint64_t b = 0; b < blocks; b++) {
          ASSIGN_OR_RETURN(page, GetBlock(node.coffer_id, ino, b));
          pages.push_back(page / nvm::kPageSize);
        }
        return pages;
      });
}

Result<std::vector<uint64_t>> ZoFs::MmapNode(NodeRef node, bool writable) {
  uint64_t size = 0;
  ASSIGN_OR_RETURN(pages, FilePages(node, &size));
  std::vector<uint64_t> present;
  for (uint64_t pg : pages) {
    if (pg != 0) {
      present.push_back(pg);
    }
  }
  RETURN_IF_ERROR(kfs_->FileMmap(*proc_, node.coffer_id, present, writable));
  return pages;
}

Status ZoFs::MunmapNode(NodeRef node, const std::vector<uint64_t>& pages) {
  std::vector<uint64_t> present;
  for (uint64_t pg : pages) {
    if (pg != 0) {
      present.push_back(pg);
    }
  }
  return kfs_->FileMunmap(*proc_, node.coffer_id, present);
}

Result<uint64_t> ZoFs::ExecveNode(NodeRef node) {
  AUDIT_SCOPE("ZoFs::ExecveNode");
  uint64_t size = 0;
  uint16_t mode = 0;
  ASSIGN_OR_RETURN(pages, FilePages(node, &size, &mode));
  std::vector<uint64_t> present;
  for (uint64_t pg : pages) {
    if (pg != 0) {
      present.push_back(pg);
    }
  }
  return kfs_->FileExecve(*proc_, node.coffer_id, mode, present, size);
}

// ---------------------------------------------------------------------------
// chmod / chown / rename (the cross-coffer paths of Table 9)

Result<std::vector<PageRun>> ZoFs::CollectSubtreeRuns(uint32_t cid, uint64_t inode_off,
                                                      const std::string& path) {
  std::vector<uint64_t> pages;
  std::vector<CrossRef> cross;
  uint64_t cleared = 0;
  uint64_t max_gen = 0;
  RETURN_IF_ERROR(CollectReachable(cid, inode_off, path, &pages, &cross, &cleared, &max_gen));
  return PagesToRuns(std::move(pages));
}

Result<uint32_t> ZoFs::SplitNodeIntoCoffer(const ResolveResult& r, const std::string& path,
                                           uint16_t mode, uint32_t uid, uint32_t gid) {
  AUDIT_SCOPE("ZoFs::SplitNodeIntoCoffer");
  const uint32_t cid = r.node.coffer_id;
  ASSIGN_OR_RETURN(info, EnsureMapped(cid, true));
  nvm::NvmDevice* dev = kfs_->dev();

  mpk::AccessWindow w(info.key, true);
  CofferAllocator& alloc = AllocatorFor(cid, info);

  // Collect the subtree plus a fresh page that becomes the new coffer's
  // custom (allocator pool) page; initialise it while it is still ours.
  ASSIGN_OR_RETURN(runs, CollectSubtreeRuns(cid, r.node.inode_off, path));
  ASSIGN_OR_RETURN(custom, alloc.AllocPage(/*zero=*/false));
  // The subtree keeps its generations: the new coffer counts on from ours.
  CofferAllocator::InitPool(dev, custom,
                            dev->AtomicLoad64(info.custom_off + offsetof(AllocPool, generation)));

  // Update the inode's identity before ownership moves (we may lose write
  // access to the new coffer under the new permission).
  const uint64_t ino_off = r.node.inode_off;
  dev->Store16(ino_off + offsetof(Inode, mode), mode);
  dev->Store32(ino_off + offsetof(Inode, uid), uid);
  dev->Store32(ino_off + offsetof(Inode, gid), gid);
  dev->PersistRange(ino_off + offsetof(Inode, mode), 16);

  std::vector<uint64_t> all_pages;
  for (const PageRun& run : runs) {
    for (uint64_t p = run.start_page; p < run.start_page + run.len; p++) {
      all_pages.push_back(p * nvm::kPageSize);
    }
  }
  all_pages.push_back(custom);
  std::vector<PageRun> move = PagesToRuns(std::move(all_pages));

  ASSIGN_OR_RETURN(new_cid,
                   kfs_->CofferSplit(*proc_, cid, move, path, kernfs::kCofferTypeZofs,
                                     static_cast<uint16_t>(EffPerm(mode)), uid, gid,
                                     /*new_root_inode_off=*/ino_off, /*new_custom_off=*/custom));
  RecordRelocation(move, new_cid);
  return new_cid;
}

Status ZoFs::Chmod(const std::string& path, uint16_t mode) {
  AUDIT_SCOPE("ZoFs::Chmod");
  return ChangeAttrs(path, mode, std::nullopt);
}

Status ZoFs::Chown(const std::string& path, uint32_t uid, uint32_t gid) {
  AUDIT_SCOPE("ZoFs::Chown");
  return ChangeAttrs(path, std::nullopt, Owner{uid, gid});
}

Status ZoFs::ChangeAttrs(const std::string& path, std::optional<uint16_t> mode,
                         std::optional<Owner> owner) {
  // May split the node into its own coffer, relocating its pages: drain open
  // append epochs first (stages pin volatile page addresses).
  RETURN_IF_ERROR(FlushAllStages());
  std::string norm = vfs::NormalizePath(path);
  ASSIGN_OR_RETURN(r, Resolve(norm, true));
  nvm::NvmDevice* dev = kfs_->dev();
  if (owner && !proc_->cred().IsRoot()) {
    return Err::kPerm;  // chown is root's
  }

  uint16_t cur_mode = 0;
  Owner cur_owner{};
  RETURN_IF_ERROR(WithInode<Need::kRead>(r.node, {kAnyType}, [&](Inode* ino, const MapInfo&) {
    cur_mode = ino->mode;
    cur_owner = Owner{ino->uid, ino->gid};
    return common::OkStatus();
  }));
  if (mode && !proc_->cred().IsRoot() && proc_->cred().uid != cur_owner.uid) {
    return Err::kPerm;  // chmod is the owner's or root's
  }
  const uint16_t new_mode = mode.value_or(cur_mode);
  const Owner new_owner = owner.value_or(cur_owner);

  auto update_inode = [&]() -> Status {
    return WithInode<Need::kLock>(r.node, {kAnyType, r.node_gen}, [&](Inode*, const MapInfo&) {
      const uint64_t ino_off = r.node.inode_off;
      if (mode) {
        dev->Store16(ino_off + offsetof(Inode, mode), *mode);
        dev->PersistRange(ino_off + offsetof(Inode, mode), 2);
      }
      if (owner) {
        dev->Store32(ino_off + offsetof(Inode, uid), owner->uid);
        dev->Store32(ino_off + offsetof(Inode, gid), owner->gid);
        dev->PersistRange(ino_off + offsetof(Inode, uid), 8);
      }
      return common::OkStatus();
    });
  };

  if (r.is_coffer_root) {
    // The node is a coffer root: the permission lives in the (kernel-owned)
    // coffer root page — a single kernel call, no page movement.
    if (mode) {
      // The inode's copy of the mode needs a writable mapping; take it while
      // the old mode still grants it, since a mapping outlives the chmod but
      // a new mode without owner write would refuse it.
      (void)EnsureMapped(r.node.coffer_id, true);
      RETURN_IF_ERROR(kfs_->CofferChmod(*proc_, r.node.coffer_id,
                                        static_cast<uint16_t>(EffPerm(*mode))));
    } else {
      RETURN_IF_ERROR(kfs_->CofferChown(*proc_, r.node.coffer_id, owner->uid, owner->gid));
    }
    return update_inode();
  }
  if (opts_.one_coffer ||
      (EffPerm(new_mode) == EffPerm(cur_mode) && new_owner.uid == cur_owner.uid &&
       new_owner.gid == cur_owner.gid)) {
    // Same permission group (or the 1-coffer variant): pure user-space
    // metadata update — the fast line of Table 9.
    return update_inode();
  }

  // The node leaves its permission group: split it into its own coffer.
  return WithInode<Need::kLock>(
      r.parent, {kDirOnly, r.parent_gen}, [&](Inode* pdir, const MapInfo&) -> Status {
        ASSIGN_OR_RETURN(new_cid,
                         SplitNodeIntoCoffer(r, norm, new_mode, new_owner.uid, new_owner.gid));
        ASSIGN_OR_RETURN(d, DirFind(r.parent.coffer_id, pdir, r.leaf));
        const uint64_t d_off = dev->OffsetOf(d);
        dev->Store32(d_off + offsetof(Dentry, coffer_id), new_cid);
        dev->PersistRange(d_off + offsetof(Dentry, coffer_id), 4);
        return common::OkStatus();
      });
}

Result<Dentry*> ZoFs::PrepareRenameDst(uint32_t dcid, Inode* ddir, std::string_view to_leaf,
                                       const Dentry& src, bool* same_file) {
  *same_file = false;
  ASSIGN_OR_RETURN(dd, DirFind(dcid, ddir, to_leaf));
  if (dd->coffer_id == src.coffer_id && dd->inode_off == src.inode_off) {
    *same_file = true;
    return dd;
  }
  const uint32_t src_type = src.cached_type();
  const uint32_t dst_type = dd->cached_type();
  if (src_type == kTypeDirectory && dst_type != kTypeDirectory) {
    return Err::kNotDir;
  }
  if (src_type != kTypeDirectory && dst_type == kTypeDirectory) {
    return Err::kIsDir;
  }
  if (dst_type == kTypeDirectory && dd->coffer_id != 0) {
    // The displaced directory will be locked through this reference:
    // validate it per G3 first, as a path walk would.
    ASSIGN_OR_RETURN(tinfo, EnsureMapped(dd->coffer_id, false));
    if (tinfo.root_inode_off != dd->inode_off) {
      return Sick(dcid);  // manipulated cross-coffer reference
    }
  }
  return dd;
}

Status ZoFs::ClaimIntentSlot(uint32_t cid, const MapInfo& info, uint64_t slot_off,
                             uint64_t claimed, std::span<const uint64_t> held_inodes) {
  nvm::NvmDevice* dev = kfs_->dev();
  for (LeaseWait wait(opts_.lease_ns);;) {
    if (dev->AtomicLoad64(slot_off) == 0) {
      if (TryClaimLease(dev, slot_off, IntentExpiryOff(slot_off), 0, claimed, opts_.lease_ns) !=
          Claim::kNone) {
        return common::OkStatus();
      }
    } else {
      // A dead holder's intent is taken over and repaired, never overwritten;
      // a repair that cannot finish ends the claim at once.
      RETURN_IF_ERROR(RepairDeadIntent(cid, info, slot_off, held_inodes, /*stolen_ino=*/0));
    }
    if (!wait.Next()) {
      return Err::kBusy;
    }
  }
}

Status ZoFs::BeginRenameIntent(uint32_t cid, const MapInfo& info, const RenameIntent& body) {
  AUDIT_SCOPE("ZoFs::BeginRenameIntent");
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t off = info.custom_off + offsetof(AllocPool, rename_intent);
  const uint64_t magic_off = off + offsetof(RenameIntent, magic);
  // A displaced node is locked too (RemoveChild), a root-coffer file aside.
  const uint64_t held[] = {body.src_dir_ino, body.dst_dir_ino, body.old_dst_ino};
  RETURN_IF_ERROR(ClaimIntentSlot(cid, info, off, kRenameIntentClaimed,
                                  std::span<const uint64_t>(held, body.old_dst_ino != 0 ? 3 : 2)));
  RenameIntent in = body;
  in.magic = kRenameIntentClaimed;
  in.lease_expiry_ns = common::NowNs() + opts_.lease_ns;  // renews the claim's stamp
  dev->StoreBytes(off, &in, sizeof(in));
  dev->PersistRange(off, sizeof(in));
  // Commit: the intent becomes authoritative for recovery.
  dev->AtomicStore64(magic_off, kRenameIntentMagic);
  AUDIT_ORDER_AFTER(dev, magic_off, 8, off, sizeof(in));
  dev->PersistRange(magic_off, 8);
  return common::OkStatus();
}

void ZoFs::EndRenameIntent(const MapInfo& info) {
  ClearIntent(info.custom_off + offsetof(AllocPool, rename_intent));
}

void ZoFs::ClearIntent(uint64_t slot_off) {
  kfs_->dev()->AtomicStore64(slot_off, 0);
  kfs_->dev()->PersistRange(slot_off, 8);
}

Status ZoFs::Rename(const std::string& from, const std::string& to) {
  AUDIT_SCOPE("ZoFs::Rename");
  const std::string nfrom = vfs::NormalizePath(from);
  const std::string nto = vfs::NormalizePath(to);
  if (nfrom == nto) {
    return common::OkStatus();
  }
  if (nto.size() > nfrom.size() && nto.compare(0, nfrom.size(), nfrom) == 0 &&
      nto[nfrom.size()] == '/') {
    return Err::kInval;  // cannot move a directory into itself
  }
  // Rename is a durability point (DESIGN.md): open append epochs drain
  // before the namespace moves, so the moved file's data is durable wherever
  // its new name lands — and cross-coffer moves never relocate staged pages.
  RETURN_IF_ERROR(FlushAllStages());

  ASSIGN_OR_RETURN(src, Resolve(nfrom, false));
  if (src.leaf.empty()) {
    return Err::kBusy;  // "/"
  }
  if (opts_.legacy_rename_overwrite) {
    // Pre-fix behaviour, kept as a test hook so the crash explorer's
    // planted-bug regression can demonstrate the detection: the destination
    // is removed before the move is attempted, so a crash (or failure) in
    // between loses it without completing the rename.
    auto dst_exists = Resolve(nto, false);
    if (dst_exists.ok()) {
      vfs::StatBuf st;
      {
        ASSIGN_OR_RETURN(s, StatNode(dst_exists->node));
        st = s;
      }
      if (st.type == vfs::FileType::kDirectory) {
        RETURN_IF_ERROR(Rmdir(nto));
      } else {
        RETURN_IF_ERROR(Unlink(nto));
      }
    }
  }
  ASSIGN_OR_RETURN(pp, vfs::SplitParent(nto));
  const auto& [to_parent_path, to_leaf] = pp;
  ASSIGN_OR_RETURN(dstp, Resolve(to_parent_path, true));
  const uint32_t scid = src.parent.coffer_id;
  const uint32_t dcid = dstp.node.coffer_id;
  // Within one coffer the move is pure user-space dentry movement, made
  // crash-atomic by the coffer's rename intent. Across coffers (Table 9's
  // expensive path) a node that is not a coffer root changes owner: a bulk
  // page move when it keeps the destination's permission group, else a
  // split into its own coffer at `to`. There the insert-before-remove order
  // never loses the moved node; full cross-coffer crash atomicity (one
  // intent spanning two coffers) is future work.
  const bool same_coffer = scid == dcid;

  // Across coffers the source dentry, snapshotted here, chooses how the node
  // moves; the move re-finds it under the locks.
  Dentry d{};
  uint16_t node_mode = 0;
  Owner node_owner{};
  bool move_pages = false;
  if (!same_coffer) {
    RETURN_IF_ERROR(
        WithInode<Need::kRead>(src.parent, {kDirOnly}, [&](Inode* sdir, const MapInfo&) -> Status {
          ASSIGN_OR_RETURN(dp, DirFind(scid, sdir, src.leaf));
          d = *dp;
          return common::OkStatus();
        }));
    if (d.coffer_id == 0) {
      RETURN_IF_ERROR(WithInode<Need::kRead>(NodeRef{scid, d.inode_off}, {kAnyType},
                                             [&](Inode* ino, const MapInfo&) {
                                               node_mode = ino->mode;
                                               node_owner = Owner{ino->uid, ino->gid};
                                               return common::OkStatus();
                                             }));
      move_pages = SameGroup(node_mode, node_owner.uid, node_owner.gid, kfs_->RootPageOf(dcid));
    }
  }

  // Both parent directories, locked in address order (no deadlock between
  // concurrent renames). A displaced node is only try-locked after them
  // (RemoveChild).
  struct Dirs {
    Inode* src;
    const MapInfo& sinfo;
    Inode* dst;
    const MapInfo& dinfo;
  };
  auto lock_both_and = [&](auto&& body) -> Status {
    if (src.parent.inode_off == dstp.node.inode_off) {
      return WithInode<Need::kLock>(
          src.parent, {kDirOnly, src.parent_gen},
          [&](Inode* dir, const MapInfo& info) { return body(Dirs{dir, info, dir, info}); });
    }
    const bool src_first = src.parent.inode_off < dstp.node.inode_off;
    const NodeRef first = src_first ? src.parent : dstp.node;
    const NodeRef second = src_first ? dstp.node : src.parent;
    const uint32_t first_gen = src_first ? src.parent_gen : dstp.node_gen;
    const uint32_t second_gen = src_first ? dstp.node_gen : src.parent_gen;
    return WithInode<Need::kLock>(first, {kDirOnly, first_gen}, [&](Inode* fdir,
                                                                    const MapInfo& finfo) {
      return WithInode<Need::kLock>(second, {kDirOnly, second_gen, {first.inode_off}},
                       [&](Inode* sdir, const MapInfo& sinfo) {
                         return body(src_first ? Dirs{fdir, finfo, sdir, sinfo}
                                               : Dirs{sdir, sinfo, fdir, finfo});
                       });
    });
  };

  // Under both locks: re-finds the source (in one coffer the node found now
  // is moved, the snapshot was never taken; across coffers the move was
  // planned for the snapshotted node, which must still be the one named)
  // and locates a displaced destination.
  struct DstPlan {
    bool same_file = false;  // src and dst name the same node
    Dentry* sd = nullptr;    // the source dentry
    Dentry* dd = nullptr;    // the displaced destination dentry, or null
    Dentry displaced{};      // its content before the commit retargets it
  };
  auto plan_dst = [&](const Dirs& dirs) -> Result<DstPlan> {
    DstPlan plan;
    {
      mpk::AccessWindow w(dirs.sinfo.key, false);
      ASSIGN_OR_RETURN(sd, DirFind(scid, dirs.src, src.leaf));
      if (same_coffer) {
        d = *sd;
      } else if (sd->coffer_id != d.coffer_id || sd->inode_off != d.inode_off) {
        return Err::kBusy;  // replaced since the snapshot; the caller may retry
      }
      plan.sd = sd;
    }
    mpk::AccessWindow w(dirs.dinfo.key, false);
    auto found = PrepareRenameDst(dcid, dirs.dst, to_leaf, d, &plan.same_file);
    if (found.ok()) {
      plan.dd = *found;
      plan.displaced = **found;
    } else if (found.error() != Err::kNoEnt) {
      return found.error();
    }
    return plan;
  };
  // From the first destructive step on: moves the node's pages when its
  // coffer changes, links it at the destination — retargeting a displaced
  // dentry or inserting a fresh one, inside the rename intent within one
  // coffer — and drops the source name.
  auto commit_dst = [&](const Dirs& dirs, const DstPlan& plan) -> Status {
    uint32_t child_coffer = d.coffer_id;
    uint64_t moved_gens = 0;  // the moved inodes keep generations up to this
    if (!same_coffer && d.coffer_id == 0) {
      if (move_pages) {
        std::vector<PageRun> runs;
        {
          mpk::AccessWindow w(dirs.sinfo.key, true);
          ASSIGN_OR_RETURN(r2, CollectSubtreeRuns(scid, d.inode_off, nfrom));
          runs = r2;
          moved_gens = kfs_->dev()->AtomicLoad64(dirs.sinfo.custom_off +
                                                 offsetof(AllocPool, generation));
        }
        RETURN_IF_ERROR(kfs_->CofferMovePages(*proc_, scid, dcid, runs));
        RecordRelocation(runs, dcid);
      } else {
        ASSIGN_OR_RETURN(new_cid, SplitNodeIntoCoffer(src, nto, node_mode, node_owner.uid,
                                                      node_owner.gid));
        child_coffer = new_cid;
      }
    }
    const uint32_t node_type = d.cached_type();
    {
      mpk::AccessWindow w(dirs.dinfo.key, true);
      if (moved_gens != 0) {
        RaiseGeneration(dirs.dinfo.custom_off, moved_gens);
      }
      if (same_coffer) {
        RenameIntent in{};
        in.src_dir_ino = src.parent.inode_off;
        in.dst_dir_ino = dstp.node.inode_off;
        in.child_ino = d.inode_off;
        in.child_coffer = d.coffer_id;
        in.child_type = node_type;
        if (plan.dd != nullptr) {
          in.old_dst_ino = plan.displaced.inode_off;
          in.old_dst_coffer = plan.displaced.coffer_id;
        }
        in.src_len = static_cast<uint8_t>(src.leaf.size());
        in.dst_len = static_cast<uint8_t>(to_leaf.size());
        memcpy(in.src_name, src.leaf.data(), src.leaf.size());
        memcpy(in.dst_name, to_leaf.data(), to_leaf.size());
        RETURN_IF_ERROR(BeginRenameIntent(dcid, dirs.dinfo, in));
      }
      // Overwrite: atomically retarget the displaced dentry. The displaced
      // node is freed only after this commit, so neither a failure nor a
      // crash can lose the destination without completing the rename.
      Status linked =
          plan.dd != nullptr
              ? DirReplaceTarget(dirs.dst, plan.dd, child_coffer, d.inode_off, d.generation,
                                 node_type)
              : DirInsert(dcid, dirs.dinfo, dirs.dst, to_leaf, child_coffer, d.inode_off,
                          d.generation, node_type);
      if (!linked.ok()) {
        if (same_coffer) {
          EndRenameIntent(dirs.dinfo);  // nothing committed; pre-state intact
        }
        return linked;
      }
    }
    if (same_coffer) {
      // Tenant death with the rename intent committed and the destination
      // dentry landed, but the source dentry still in place: the survivor
      // (or offline recovery) rolls the move forward from the intent.
      common::KillPoint(common::kKillMidRenameIntent);
    }
    mpk::AccessWindow w(dirs.sinfo.key, true);
    return DirRemoveAt(dirs.src, plan.sd);
  };

  // A busy displaced node (EAGAIN, before anything changed) sends the move
  // round again with both locks released. A displaced file of the root
  // coffer is retired after them (RetireVictim).
  Victim victim;
  auto move = [&](const Dirs& dirs) -> Status {
    ASSIGN_OR_RETURN(plan, plan_dst(dirs));
    if (plan.same_file) {
      return common::OkStatus();  // POSIX: src and dst name the same node
    }
    if (plan.dd != nullptr) {
      // A displaced node stays locked from its check until it is retired (a
      // root-coffer file aside), so no create lands in a displaced directory
      // and no write in a displaced file meanwhile.
      RETURN_IF_ERROR(RemoveChild(dcid, dirs.dinfo, plan.displaced,
                                  {src.parent.inode_off, dstp.node.inode_off},
                                  [&]() { return commit_dst(dirs, plan); }, &victim));
    } else {
      RETURN_IF_ERROR(commit_dst(dirs, plan));
    }
    // Kernel-side coffer paths follow the move: a moved coffer root's own,
    // or those of the coffers below a moved directory.
    Status tail = common::OkStatus();
    if (d.coffer_id != 0) {
      tail = kfs_->CofferRename(*proc_, d.coffer_id, nto);
    } else if (d.cached_type() == kTypeDirectory) {
      tail = kfs_->CofferFixupPaths(*proc_, nfrom, nto);
    }
    if (same_coffer) {
      EndRenameIntent(dirs.dinfo);
    }
    return tail;
  };
  const Status moved = UntilVictimFree([&] { return lock_both_and(move); });
  const Status retired = RetireVictim(victim);
  return moved.ok() ? retired : moved;
}

}  // namespace zofs
