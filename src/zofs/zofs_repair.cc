// Intent repair — shared between offline recovery (fsck, zofs_recovery.cc)
// and ONLINE lease-steal repair (paper §5, availability).
//
// The offline path has run since the intents were introduced: RecoverOne
// rolls a committed rename or staged-append intent forward (or clears an
// uncommitted claim) before traversal. What lived only there now also runs
// online: a survivor that steals an expired InodeLock, or finds a dead
// holder's intent in the slot it claims, may be inheriting a dead owner's
// half-done operation, and must repair it in place — no remount — before
// using the structure it just locked.
//
// Online differs from offline in exactly two ways:
//   * Locks. Offline runs single-instance after a remount; online runs amid
//     live tenants, so repair takes the dead holder's inode locks first
//     (skipping, never re-locking, the caller's own — InodeLock reentry
//     would release the caller's lock on destruction) and then takes the
//     intent slot over under the lease rule (lease.h): exactly one survivor
//     repairs a dead intent.
//   * Kernel paths. Offline rename roll-forward leaves the kernel-side
//     coffer path stale and records vouching state (rename_repath_) for
//     RecoverAll's cross-ref phase to repair. Online there IS no phase 2 —
//     and worse, clearing the intent destroys the vouching a later remount
//     would need, so that remount would clear the moved dentry as an
//     unvouched path mismatch (data loss). Online roll-forward therefore
//     rewrites the kernel-stored path immediately (CofferRename /
//     CofferFixupPaths), and on any failure leaves the intent IN PLACE for
//     offline recovery to finish.

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "src/common/clock.h"
#include "src/mpk/mpk.h"
#include "src/zofs/lease.h"
#include "src/zofs/zofs.h"

namespace zofs {

using kernfs::CofferRoot;
using kernfs::MapInfo;

namespace {

std::string JoinPath(const std::string& dir, std::string_view leaf) {
  return (dir == "/" ? "/" : dir + "/") + std::string(leaf);
}

}  // namespace

// ---------------------------------------------------------------------------
// Rename intent (shared body; offline wrapper below keeps the old entry
// point and behaviour byte-identical).

Status ZoFs::RepairPendingRename(uint32_t cid, const MapInfo& info,
                                 uint64_t* dentries_cleared) {
  return RepairPendingRenameImpl(cid, info, dentries_cleared, /*online=*/false);
}

Status ZoFs::RepairPendingRenameImpl(uint32_t cid, const MapInfo& info,
                                     uint64_t* dentries_cleared, bool online) {
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t off = info.custom_off + offsetof(AllocPool, rename_intent);
  RenameIntent in;
  dev->LoadBytes(off, &in, sizeof(in));
  if (in.magic == 0) {
    return common::OkStatus();
  }
  // A claimed-but-uncommitted intent (or a corrupt one) carries no
  // obligation: the rename had not reached its commit point.
  bool valid = in.magic == kRenameIntentMagic && in.src_len > 0 && in.src_len <= kMaxName &&
               in.dst_len > 0 && in.dst_len <= kMaxName && PlausiblePage(dev, in.src_dir_ino) &&
               PlausiblePage(dev, in.dst_dir_ino);
  if (valid) {
    valid = Ino(in.src_dir_ino)->magic == kInodeMagic && Ino(in.dst_dir_ino)->magic == kInodeMagic;
  }
  if (!valid) {
    ClearIntent(off);
    return common::OkStatus();
  }

  const std::string_view src_name(in.src_name, in.src_len);
  const std::string_view dst_name(in.dst_name, in.dst_len);
  auto dd = DirFind(cid, Ino(in.dst_dir_ino), dst_name);
  const bool committed = dd.ok() && (*dd)->coffer_id == in.child_coffer &&
                         (*dd)->inode_off == in.child_ino;
  if (committed) {
    // Roll forward: the destination points at the child, so finish what the
    // crashed rename started — drop a lingering source name and a displaced
    // destination coffer (a displaced same-coffer node is simply no longer
    // reachable; the offline page sweep reclaims it, online it merely waits
    // for that sweep).
    auto sd = DirFind(cid, Ino(in.src_dir_ino), src_name);
    if (sd.ok() && (*sd)->coffer_id == in.child_coffer && (*sd)->inode_off == in.child_ino) {
      RETURN_IF_ERROR(DirRemoveAt(Ino(in.src_dir_ino), *sd));
      (*dentries_cleared)++;
    }
    if (in.old_dst_coffer != 0) {
      // Ignore failure: the crashed rename may already have deleted it.
      (void)kfs_->CofferDelete(*proc_, in.old_dst_coffer);
      ForgetMapping(in.old_dst_coffer);
    }
    if (online) {
      // Rewrite the kernel-stored paths NOW (see file comment); leaving the
      // intent in place on failure keeps the vouching a later remount needs.
      if (in.child_coffer != 0 || in.child_type == kTypeDirectory) {
        auto dst_dir = FindDirPath(cid, info, in.dst_dir_ino);
        if (!dst_dir.ok()) {
          return Err::kBusy;  // intent stays; offline recovery finishes
        }
        const std::string new_path = JoinPath(*dst_dir, dst_name);
        if (in.child_coffer != 0) {
          const CofferRoot* chroot = kfs_->RootPageOf(in.child_coffer);
          if (new_path.compare(chroot->path) != 0 &&
              !kfs_->CofferRename(*proc_, in.child_coffer, new_path).ok()) {
            return Err::kBusy;
          }
        }
        if (in.child_type == kTypeDirectory) {
          auto src_dir = FindDirPath(cid, info, in.src_dir_ino);
          if (!src_dir.ok()) {
            return Err::kBusy;
          }
          const std::string old_path = JoinPath(*src_dir, src_name);
          if (old_path != new_path &&
              !kfs_->CofferFixupPaths(*proc_, old_path, new_path).ok()) {
            return Err::kBusy;
          }
        }
      }
    } else {
      if (in.child_coffer != 0) {
        // The kernel-side coffer path may not have been rewritten before the
        // crash; let phase 2 repair a stale path instead of clearing the ref.
        rename_repath_.insert(in.child_coffer);
      }
      if (in.child_type == kTypeDirectory) {
        // Descendant coffers' stored paths may still embed the old prefix.
        rename_repath_all_ = true;
      }
    }
  }
  // Not committed: the pre-rename namespace is intact; nothing to undo.
  ClearIntent(off);
  return common::OkStatus();
}

// ---------------------------------------------------------------------------
// Staged-append intent (moved verbatim from zofs_recovery.cc; already
// lock-agnostic — the online caller takes the file's InodeLock around it).

Status ZoFs::RepairPendingStagedAppend(uint32_t cid, const MapInfo& info) {
  (void)cid;
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t off = info.custom_off + offsetof(AllocPool, staged_intent);
  StagedAppendIntent in;
  dev->LoadBytes(off, &in, sizeof(in));
  if (in.magic == 0) {
    return common::OkStatus();
  }
  // A claimed-but-uncommitted intent (or a corrupt one) carries no
  // obligation: the epoch had not reached its durability point, so the data
  // was never promised. Everything it staged falls to the page sweep.
  bool valid = in.magic == kStagedIntentMagic && in.count > 0 && in.count <= kStagedMaxPages &&
               in.base_size <= in.new_size && PlausiblePage(dev, in.inode_off);
  if (valid) {
    const Inode* ino = Ino(in.inode_off);
    valid = ino->magic == kInodeMagic && ino->type == kTypeRegular;
  }
  for (uint64_t i = 0; valid && i < in.count; i++) {
    valid = PlausiblePage(dev, in.pages[i]);
  }
  if (!valid) {
    ClearIntent(off);
    return common::OkStatus();
  }
  // Roll forward: re-install the staged block pointers and the synced size.
  // Idempotent — a crash between the metadata drain and the intent clear
  // replays stores that are already in place. The index pages the installs
  // walk were persisted before the intent committed (fence A precedes fence
  // B), so a dead-end here means the commit never really happened; treat it
  // like an uncommitted intent.
  Inode* ino = Ino(in.inode_off);
  for (uint64_t i = 0; i < in.count; i++) {
    if (!InstallBlockPointer(ino, in.start_blk + i, in.pages[i]).ok()) {
      ClearIntent(off);
      return common::OkStatus();
    }
  }
  if (ino->size < in.new_size) {
    dev->Store64(in.inode_off + offsetof(Inode, size), in.new_size);
  }
  dev->PersistRange(in.inode_off + offsetof(Inode, size), 8);  // fences the installs too
  ClearIntent(off);
  return common::OkStatus();
}

// ---------------------------------------------------------------------------
// Online steal repair

Result<std::string> ZoFs::FindDirPath(uint32_t cid, const MapInfo& info,
                                      uint64_t dir_ino_off) {
  nvm::NvmDevice* dev = kfs_->dev();
  const CofferRoot* croot = kfs_->RootPageOf(cid);
  const std::string base = croot->path[1] == '\0' ? "/" : croot->path;
  if (dir_ino_off == info.root_inode_off) {
    return base;
  }
  // Read-only BFS over same-coffer directory dentries (the CollectReachable
  // walk, minus the mutations); a visited set bounds corrupted cycles.
  std::deque<std::pair<uint64_t, std::string>> queue;
  std::unordered_set<uint64_t> visited;
  queue.emplace_back(info.root_inode_off, base);
  visited.insert(info.root_inode_off);
  while (!queue.empty()) {
    auto [cur, path] = queue.front();
    queue.pop_front();
    if (!PlausiblePage(dev, cur)) {
      continue;
    }
    const Inode* ino = Ino(cur);
    if (ino->magic != kInodeMagic || ino->type != kTypeDirectory) {
      continue;
    }
    std::string found;
    WalkDirSalvage(ino, nullptr, [&](const DirPage& p) {
      for (const Dentry& d : p.dentries) {
        if (!d.in_use() || d.coffer_id != 0 || d.cached_type() != kTypeDirectory ||
            d.name_len == 0 || d.name_len > kMaxName || !visited.insert(d.inode_off).second) {
          continue;
        }
        std::string child = JoinPath(path, std::string_view(d.name, d.name_len));
        if (d.inode_off == dir_ino_off) {
          found = std::move(child);
          return false;
        }
        queue.emplace_back(d.inode_off, std::move(child));
      }
      return true;
    });
    if (!found.empty()) {
      return found;
    }
  }
  return Err::kNoEnt;
}

void ZoFs::MaybeOnlineRepair(uint32_t cid, const MapInfo& info, const InodeLock& lk,
                             std::span<const uint64_t> held_inodes) {
  if (!lk.stole()) {
    return;
  }
  // Callers arrive with varying windows open; repair needs the coffer
  // writable regardless, so it opens its own.
  mpk::AccessWindow w(info.key, true);
  if (!mpk::ProbeAccess(info.custom_off, sizeof(AllocPool), true) ||
      kfs_->dev()->As<AllocPool>(info.custom_off)->magic != kPoolMagic) {
    return;
  }
  // Failure is non-fatal: the intent stays put for the next claimant of its
  // slot, or for offline recovery at the next remount.
  for (uint64_t slot : {offsetof(AllocPool, staged_intent), offsetof(AllocPool, rename_intent)}) {
    (void)RepairDeadIntent(cid, info, info.custom_off + slot, held_inodes, lk.inode_off());
  }
}

Status ZoFs::RepairDeadIntent(uint32_t cid, const MapInfo& info, uint64_t slot_off,
                              std::span<const uint64_t> held_inodes, uint64_t stolen_ino) {
  nvm::NvmDevice* dev = kfs_->dev();
  const uint64_t m = dev->AtomicLoad64(slot_off);
  if (m == 0) {
    return common::OkStatus();
  }
  // The inodes a committed intent's holder had locked: a rename's two
  // directories, a staged append's file. A merely claimed intent carries no
  // obligation (its body may be a predecessor's): repair only clears it.
  auto locked_by_holder = [&]() -> std::array<uint64_t, 2> {
    if (m == kRenameIntentMagic) {
      return {dev->Load64(slot_off + offsetof(RenameIntent, src_dir_ino)),
              dev->Load64(slot_off + offsetof(RenameIntent, dst_dir_ino))};
    }
    if (m == kStagedIntentMagic) {
      const uint64_t file = dev->Load64(slot_off + offsetof(StagedAppendIntent, inode_off));
      return {file, file};
    }
    return {0, 0};
  };
  const std::array<uint64_t, 2> inodes = locked_by_holder();
  // The holder is dead when its stamp is, or when it needed the lock the
  // caller just stole: a live holder would still hold that lock.
  const bool needed_stolen =
      stolen_ino != 0 && (inodes[0] == stolen_ino || inodes[1] == stolen_ino);
  const uint64_t expiry = dev->AtomicLoad64(IntentExpiryOff(slot_off));
  if (!needed_stolen && !LeaseDead(expiry, common::NowNs())) {
    return common::OkStatus();  // a live holder clears its intent itself
  }
  auto held = [&](uint64_t ino) {
    return std::find(held_inodes.begin(), held_inodes.end(), ino) != held_inodes.end();
  };
  // Take the holder's locks as it did (Rename's address order), then take
  // the slot over: of several survivors, exactly one wins and repairs.
  const uint64_t order[2] = {std::min(inodes[0], inodes[1]), std::max(inodes[0], inodes[1])};
  std::optional<InodeLock> locks[2];
  for (int i = 0; i < 2; i++) {
    if (!PlausiblePage(dev, order[i]) || held(order[i]) || (i == 1 && order[1] == order[0])) {
      continue;
    }
    locks[i].emplace(dev, order[i], opts_.lease_ns);
    if (!locks[i]->ok()) {
      return Err::kBusy;  // contended; the next claimant or a remount retries
    }
  }
  if (TryClaimLease(dev, slot_off, IntentExpiryOff(slot_off), m, m, opts_.lease_ns,
                    needed_stolen) == Claim::kNone) {
    return common::OkStatus();  // another survivor took it over first
  }
  // No one rewrites a body under a live stamp, but a slot freed and claimed
  // again since the first read may name other inodes than those locked.
  if (locked_by_holder() != inodes) {
    return Err::kBusy;
  }
  Status s = common::OkStatus();
  if (slot_off == info.custom_off + offsetof(AllocPool, rename_intent)) {
    uint64_t cleared = 0;
    s = RepairPendingRenameImpl(cid, info, &cleared, /*online=*/true);
  } else {
    s = RepairPendingStagedAppend(cid, info);
  }
  if (!s.ok()) {
    return s;  // the intent stays; offline recovery finishes it
  }
  internal::NoteOnlineRepair();
  if (held(inodes[0]) || held(inodes[1])) {
    return Err::kBusy;  // it changed an inode the caller holds: a claimant's lookups predate it
  }
  return common::OkStatus();
}

// ---------------------------------------------------------------------------
// Leased free-list reclaim (janitor side of the dead-process reaper)

Status ZoFs::ReclaimExpiredLists(uint32_t cid) {
  ASSIGN_OR_RETURN(info, EnsureMapped(cid, true, /*bypass_sick=*/true));
  nvm::NvmDevice* dev = kfs_->dev();
  mpk::AccessWindow w(info.key, true);
  if (!mpk::ProbeAccess(info.custom_off, sizeof(AllocPool), true)) {
    return Err::kCorrupt;
  }
  const AllocPool* pool = dev->As<AllocPool>(info.custom_off);
  if (pool->magic != kPoolMagic) {
    return Err::kCorrupt;
  }
  const uint64_t now = common::NowNs();
  uint64_t reclaimed = 0;
  for (uint32_t i = 0; i < kPoolLists; i++) {
    const LeasedFreeList* l = &pool->lists[i];
    const uint64_t owner = l->owner_tid;
    if (owner == 0 || !LeaseDead(l->lease_expiry_ns, now)) {
      continue;
    }
    // Clear only the owner word: the parked pages stay linked on the list,
    // so the next claimant (CAS 0 -> tid) inherits them instead of each
    // survivor paying the steal path. Racing a concurrent claim is fine —
    // the CAS simply fails and that claimant keeps the list.
    const uint64_t loff = ListOff(info.custom_off, i);
    if (dev->AtomicCas64(loff + offsetof(LeasedFreeList, owner_tid), owner, 0)) {
      dev->PersistRange(loff, sizeof(LeasedFreeList));
      reclaimed++;
    }
  }
  if (reclaimed > 0) {
    internal::NoteReapedLists(reclaimed);
  }
  return common::OkStatus();
}

}  // namespace zofs
