// Offline recovery (fsck) for ZoFS coffers (paper §3.5, §5.3).
//
// Per coffer: traverse from the root inode, recording every reachable page
// and every cross-coffer reference; clear dentries that fail validation;
// reset the allocator pool (stale leased free lists are discarded — their
// pages are either reachable, and kept, or leaked, and reclaimed); then
// report the in-use set to KernFS, which reclaims everything else the coffer
// owns. After all coffers are traversed, cross-coffer references are
// validated against the surviving coffers and dangling ones are cleared.

#include <algorithm>
#include <set>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/mpk/mpk.h"
#include "src/zofs/zofs.h"

namespace zofs {

using kernfs::CofferRoot;

Status ZoFs::CollectReachable(uint32_t cid, uint64_t inode_off, const std::string& path,
                              std::vector<uint64_t>* pages, std::vector<CrossRef>* cross_refs,
                              uint64_t* cleared_dentries, uint64_t* max_gen) {
  nvm::NvmDevice* dev = kfs_->dev();
  if (!PlausiblePage(dev, inode_off)) {
    return Err::kCorrupt;
  }
  const Inode* ino = Ino(inode_off);
  if (ino->magic != kInodeMagic) {
    return Err::kCorrupt;
  }
  pages->push_back(inode_off);
  *max_gen = std::max<uint64_t>(*max_gen, ino->generation);

  if (ino->type == kTypeRegular) {
    auto keep = [&](uint64_t off) {
      if (PlausiblePage(dev, off)) {
        pages->push_back(off);
        return true;
      }
      return false;
    };
    for (uint64_t b = 0; b < kDirectBlocks; b++) {
      keep(ino->direct[b]);
    }
    if (keep(ino->indirect)) {
      const uint64_t* ind = dev->As<uint64_t>(ino->indirect);
      for (uint64_t i = 0; i < kPtrsPerPage; i++) {
        keep(ind[i]);
      }
    }
    if (keep(ino->dindirect)) {
      const uint64_t* dind = dev->As<uint64_t>(ino->dindirect);
      for (uint64_t i = 0; i < kPtrsPerPage; i++) {
        if (keep(dind[i])) {
          const uint64_t* ind = dev->As<uint64_t>(dind[i]);
          for (uint64_t j = 0; j < kPtrsPerPage; j++) {
            keep(ind[j]);
          }
        }
      }
    }
    return common::OkStatus();
  }

  if (ino->type == kTypeSymlink) {
    return common::OkStatus();
  }

  if (ino->type != kTypeDirectory) {
    return Err::kCorrupt;
  }
  auto visit_dentry = [&](Dentry& d) {
    if (!d.in_use()) {
      return;
    }
    const uint64_t d_off = dev->OffsetOf(&d);
    // Recognise corrupt dentries (paper: "ZoFS first tries to recognize and
    // recover it; if not possible, skips the corrupted content").
    bool valid = d.name_len > 0 && d.name_len <= kMaxName && d.name[d.name_len] == '\0' &&
                 d.name_hash == common::Fnv1a32(std::string_view(d.name, d.name_len));
    if (valid && d.coffer_id == 0) {
      valid = PlausiblePage(dev, d.inode_off);
    }
    if (!valid) {
      dev->Store16(d_off + offsetof(Dentry, flags), 0);
      dev->PersistRange(d_off + offsetof(Dentry, flags), 2);
      (*cleared_dentries)++;
      return;
    }
    std::string child_path =
        (path == "/" ? "/" : path + "/") + std::string(d.name, d.name_len);
    if (d.coffer_id != 0) {
      // A child coffer's root took its generation from this coffer.
      *max_gen = std::max<uint64_t>(*max_gen, d.generation);
      cross_refs->push_back(CrossRef{child_path, cid, d.coffer_id, d.inode_off, d_off});
      return;
    }
    Status s = CollectReachable(cid, d.inode_off, child_path, pages, cross_refs,
                                cleared_dentries, max_gen);
    if (!s.ok()) {
      // The child subtree is unrecoverable: clear the dentry instead of
      // failing the whole coffer.
      dev->Store16(d_off + offsetof(Dentry, flags), 0);
      dev->PersistRange(d_off + offsetof(Dentry, flags), 2);
      (*cleared_dentries)++;
    }
  };
  // A directory body that fails plausibility is dropped with what it holds.
  WalkDirSalvage(ino, pages, [&](const DirPage& p) {
    for (Dentry& d : p.dentries) {
      visit_dentry(d);
    }
    return true;
  });
  return common::OkStatus();
}

Result<uint64_t> ZoFs::RecoverCoffer(uint32_t cid) {
  auto stats = RecoverOne(cid, nullptr);
  if (!stats.ok()) {
    if (stats.error() == Err::kNoEnt) {
      ClearSick(cid);  // the coffer no longer exists; nothing to quarantine
    } else {
      // Repair failed: keep the coffer readable but refuse further writes
      // instead of letting callers keep re-tripping on the corruption.
      QuarantineReadOnly(cid);
    }
    return stats.error();
  }
  return stats->pages_reclaimed;
}

// RepairPendingRename / RepairPendingStagedAppend live in zofs_repair.cc:
// they are shared with the online lease-steal repair path and must run
// without a remount.

Result<ZoFs::RecoveryStats> ZoFs::RecoverOne(uint32_t cid, std::vector<CrossRef>* cross_out) {
  RecoveryStats st;
  common::Stopwatch total;

  // The kernel rediscovers coffers from alloc-table ownership alone, so a
  // crash can leave a coffer whose root page is torn: a create interrupted
  // before the root page fully persisted (magic or custom_off line missing),
  // or a delete that invalidated the magic but was cut off mid page-sweep.
  // Such a coffer has no recoverable contents — mapping it would hand the µFS
  // a garbage custom_off / root_inode_off — so complete the deletion instead.
  // Validate before CofferMap/CofferRecoverBegin: both read flags and
  // permissions from the (garbage) root page.
  nvm::NvmDevice* dev = kfs_->dev();
  const CofferRoot* croot = kfs_->RootPageOf(cid);
  bool intact = croot->magic == kernfs::kCofferMagic &&
                PlausiblePage(dev, croot->root_inode_off) &&
                PlausiblePage(dev, croot->custom_off);
  if (intact) {
    intact = Ino(croot->root_inode_off)->magic == kInodeMagic;
  }
  if (!intact) {
    common::Stopwatch k0;
    uint64_t owned = 0;
    auto runs = kfs_->PagesOf(cid);
    if (runs.ok()) {
      for (const kernfs::PageRun& r : *runs) {
        owned += r.len;
      }
    }
    RETURN_IF_ERROR(kfs_->CofferDelete(*proc_, cid));
    ForgetMapping(cid);
    ClearSick(cid);  // the coffer is gone; drop any quarantine with it
    st.kernel_ns = k0.ElapsedNs();
    st.pages_reclaimed = owned;
    st.user_ns = total.ElapsedNs() - st.kernel_ns;
    return st;
  }

  // Map first (coffer_map refuses in-recovery coffers), then flag the coffer
  // in-recovery, which unmaps it from everyone else. Recovery bypasses the
  // sick gate: it is the path that lifts the quarantine.
  ASSIGN_OR_RETURN(info, EnsureMapped(cid, true, /*bypass_sick=*/true));
  {
    // PlausiblePage above only bounds-checks: a scribbled root page can aim
    // custom_off at a page some *other* coffer owns, and the pool accesses
    // below (rename-intent load, InitPool) would take its page fault. Probe
    // ownership through the MPK oracle before recovery touches it; user
    // space cannot repair a coffer whose root page is lying, so the caller
    // quarantines it read-only.
    mpk::AccessWindow w(info.key, true);
    if (!mpk::ProbeAccess(info.custom_off, sizeof(AllocPool), true)) {
      return Err::kCorrupt;
    }
  }
  common::Stopwatch k1;
  RETURN_IF_ERROR(kfs_->CofferRecoverBegin(*proc_, cid, /*lease_ns=*/10'000'000'000ULL));
  st.kernel_ns += k1.ElapsedNs();

  std::vector<uint64_t> pages;
  std::vector<CrossRef> cross;
  {
    mpk::AccessWindow w(info.key, true);
    // An interrupted rename is rolled forward or back before traversal so
    // the walk sees exactly the pre- or post-rename namespace; likewise a
    // committed staged-append relink is rolled forward so the traversal sees
    // the synced file (and keeps its staged pages reachable).
    RETURN_IF_ERROR(RepairPendingRename(cid, info, &st.dentries_cleared));
    RETURN_IF_ERROR(RepairPendingStagedAppend(cid, info));
    // The generation counter restarts above every generation still in the
    // coffer (a crash may have lost its last bumps) and never below its own
    // value (a repair while the system runs: other threads may still name
    // inodes freed since).
    const AllocPool* pool = dev->As<AllocPool>(info.custom_off);
    uint64_t max_gen = pool->magic == kPoolMagic ? pool->generation : 0;
    Status s = CollectReachable(cid, info.root_inode_off, croot->path[1] == '\0' ? "/" : croot->path,
                                &pages, &cross, &st.dentries_cleared, &max_gen);
    if (!s.ok() && s.error() != Err::kCorrupt) {
      return s.error();
    }
    // Discard stale leased free lists: any parked page not otherwise
    // reachable is reclaimed by the kernel below.
    CofferAllocator::InitPool(dev, info.custom_off, max_gen);
  }

  std::vector<uint64_t> in_use;
  in_use.reserve(pages.size());
  for (uint64_t off : pages) {
    in_use.push_back(off / nvm::kPageSize);
  }
  st.pages_in_use = in_use.size();

  common::Stopwatch k2;
  ASSIGN_OR_RETURN(reclaimed, kfs_->CofferRecoverEnd(*proc_, cid, in_use));
  st.kernel_ns += k2.ElapsedNs();
  st.pages_reclaimed = reclaimed;
  st.user_ns = total.ElapsedNs() - st.kernel_ns;
  // A full repair pass lifts the quarantine: the surviving structure has been
  // re-validated end to end.
  ClearSick(cid);

  if (cross_out != nullptr) {
    cross_out->insert(cross_out->end(), cross.begin(), cross.end());
  }
  return st;
}

Result<ZoFs::RecoveryStats> ZoFs::RecoverAll() {
  RecoveryStats total;
  std::vector<CrossRef> cross;
  rename_repath_.clear();
  rename_repath_all_ = false;
  for (uint32_t cid : kfs_->AllCofferIds()) {
    auto st_or = RecoverOne(cid, &cross);
    if (!st_or.ok()) {
      if (st_or.error() == Err::kNoEnt) {
        // Deleted while recovering an earlier coffer (rename roll-forward
        // dropping a displaced destination, or a torn-coffer cleanup).
        continue;
      }
      return st_or.error();
    }
    const RecoveryStats& st = *st_or;
    total.user_ns += st.user_ns;
    total.kernel_ns += st.kernel_ns;
    total.pages_in_use += st.pages_in_use;
    total.pages_reclaimed += st.pages_reclaimed;
    total.dentries_cleared += st.dentries_cleared;
  }

  // Phase 2: validate cross-coffer references against surviving coffers
  // (paper: "ZoFS continues to validate cross-coffer metadata").
  nvm::NvmDevice* dev = kfs_->dev();
  std::set<uint32_t> live;
  for (uint32_t cid : kfs_->AllCofferIds()) {
    live.insert(cid);
  }
  for (const CrossRef& ref : cross) {
    bool ok = live.count(ref.coffer_id) > 0;
    if (ok) {
      const CofferRoot* troot = kfs_->RootPageOf(ref.coffer_id);
      ok = troot->magic == kernfs::kCofferMagic && troot->root_inode_off == ref.inode_off;
      if (ok && ref.path.compare(troot->path) != 0) {
        // A stale stored path is repairable (rather than a protection
        // violation) only when an interrupted rename vouches for it: the
        // crash may have hit between the dentry commit and the kernel-side
        // CofferRename/CofferFixupPaths.
        if (rename_repath_all_ || rename_repath_.count(ref.coffer_id) > 0) {
          ok = kfs_->CofferRename(*proc_, ref.coffer_id, ref.path).ok();
        } else {
          ok = false;
        }
      }
    }
    if (!ok) {
      ASSIGN_OR_RETURN(info, EnsureMapped(ref.src_coffer, true, /*bypass_sick=*/true));
      mpk::AccessWindow w(info.key, true);
      dev->Store16(ref.dentry_off + offsetof(Dentry, flags), 0);
      dev->PersistRange(ref.dentry_off + offsetof(Dentry, flags), 2);
      total.dentries_cleared++;
    }
  }
  return total;
}

}  // namespace zofs
