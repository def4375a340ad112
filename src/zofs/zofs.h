// ZoFS — the example µFS built on Treasury (paper §5).
//
// One ZoFs instance runs inside one simulated process (it is the µFS part of
// that process's FSLibs). It manages the *interior* of coffers entirely in
// user space — inodes, two-level hash directories, block maps, allocators,
// lease locks — and calls into KernFS only for coffer-level operations
// (create/delete/enlarge/map/split/...).
//
// MPK discipline (paper §3.4): every coffer access happens inside an
// AccessWindow that opens exactly the coffer's key (guidelines G1/G2), and
// every cross-coffer reference is validated against the target coffer's root
// page before the window switches (guideline G3). Corruption encountered
// mid-operation surfaces as an mpk::ViolationError or Err::kCorrupt, which
// FSLibs converts into a graceful error return.

#ifndef SRC_ZOFS_ZOFS_H_
#define SRC_ZOFS_ZOFS_H_

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/striped_counter.h"
#include "src/kernfs/kernfs.h"
#include "src/ufs/microfs.h"
#include "src/vfs/vfs.h"
#include "src/zofs/alloc.h"
#include "src/zofs/layout.h"

namespace zofs {

struct Options {
  // ZoFS-1coffer (Table 9): keep every file in its parent's coffer no matter
  // its permission; chmod/chown become pure user-space metadata updates.
  bool one_coffer = false;
  // ZoFS-sysempty (Figure 8): issue an empty system call before each data
  // write.
  bool sysempty = false;
  // ZoFS-kwrite (Figure 8): model the data write executing in kernel space
  // (crossing plus kernel-path overhead charged per write).
  bool kwrite = false;

  // Store small files inline in their inode page (the paper's §5.1
  // future-work optimisation; see bench_ablation_smallfile).
  bool inline_data = false;
  // Copy-on-write data updates: an overwritten block is written to a fresh
  // page and installed with an atomic pointer swap, so a crash exposes each
  // block entirely-old or entirely-new. The paper's ZoFS omits data
  // atomicity "for simplicity"; this is the natural extension.
  bool atomic_data = false;

  uint64_t lease_ns = 200'000'000;  // allocator/lock lease duration
  uint64_t enlarge_batch = 64;      // pages per coffer_enlarge request

  // Test hook (crashmon planted-bug regression): restore the pre-fix rename
  // behaviour that removed an existing destination before attempting the
  // move, so a crash in between loses the destination.
  bool legacy_rename_overwrite = false;

  // Test hook (fault-injection planted-bug regression): bypass the
  // validate-before-dereference checks on persistent pointer loads and fall
  // back to the pre-hardening discipline — a bare MPK check followed by the
  // raw dereference — so a corrupted pointer takes the simulated page fault
  // instead of returning EUCLEAN. Never set outside tests.
  bool raw_deref_for_test = false;

  // Base quarantine backoff after corruption is detected in a coffer:
  // subsequent operations fail fast with EIO until the deadline, then one
  // probe is let through (doubling up to 64x base on repeated failures).
  uint64_t sick_backoff_ns = 10'000'000;

  // Upper bound on relocation-ledger entries kept across all shards. When a
  // split/rename batch would push past the cap, older entries are dropped:
  // an open FD whose redirect was dropped surfaces as an MPK fault and the
  // application reopens — the documented cross-process split behaviour.
  uint64_t relocated_cap = 65536;

  // Test hook (ChannelDifferentialTest's reference): disable the per-thread
  // submission/completion channels and take every kernel crossing
  // synchronously, one entry point per KernelEntry, so the channel path can
  // be checked against the plain one. Never set outside tests.
  bool sync_crossings = false;
};

// Volatile health of one coffer as seen by this ZoFs instance.
enum class CofferHealth {
  kHealthy,
  kSick,      // corruption detected; ops fail fast until fsck or backoff probe
  kReadOnly,  // fsck could not fully repair: reads allowed, writes get EROFS
};

// A resolved file: which coffer it lives in and its inode page.
using NodeRef = ufs::NodeRef;

class InodeLock;

// ---- tenant-death accounting (procmon; bench_json zofs-bench-scale-v5) ----
// Process-wide: steals and online repairs are survivor-side events that can
// span ZoFs instances (each tenant is its own instance).
uint64_t LockStealCount();    // expired InodeLocks stolen from a dead owner
uint64_t OnlineRepairCount(); // pending intents repaired in place post-steal
uint64_t ReapedListCount();   // expired leased free lists reclaimed

namespace internal {
void NoteLockSteal();
void NoteOnlineRepair();
void NoteReapedLists(uint64_t n);
}  // namespace internal

class ZoFs final : public ufs::MicroFs {
 public:
  ZoFs(kernfs::KernFs* kfs, kernfs::Process* proc, Options opts = {});
  ~ZoFs();

  ZoFs(const ZoFs&) = delete;
  ZoFs& operator=(const ZoFs&) = delete;

  const char* Name() const override { return "ZoFS"; }

  // Marks this instance's process dead (procmon kill path): the destructor
  // skips every kernel re-entry on the corpse's behalf — no stage flush, no
  // channel drain, no FsUmount. The kernel-side reaper reclaims instead.
  void Abandon() override;

  kernfs::Process* proc() { return proc_; }
  kernfs::KernFs* kfs() { return kfs_; }
  const Options& options() const { return opts_; }

  // ---- namespace operations (paths absolute and normalized) ----
  Result<NodeRef> Lookup(const std::string& path, bool follow_last_symlink) override;
  Result<NodeRef> Create(const std::string& path, uint16_t mode, bool excl) override;
  Status Mkdir(const std::string& path, uint16_t mode) override;
  Status Unlink(const std::string& path) override;
  Status Rmdir(const std::string& path) override;
  Result<vfs::StatBuf> StatNode(NodeRef node) override;
  Result<std::vector<vfs::DirEntry>> ReadDir(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Chmod(const std::string& path, uint16_t mode) override;
  Status Chown(const std::string& path, uint32_t uid, uint32_t gid) override;
  Status Symlink(const std::string& target, const std::string& linkpath) override;
  Result<std::string> ReadLink(const std::string& path) override;

  // ---- node operations ----
  Result<size_t> ReadAt(NodeRef node, void* buf, size_t n, uint64_t off) override;
  Result<size_t> WriteAt(NodeRef node, const void* buf, size_t n, uint64_t off) override;
  Status TruncateNode(NodeRef node, uint64_t len) override;
  // Appends at the current size under the inode lock; returns the offset the
  // data landed at (used for O_APPEND). Qualifying small appends take the
  // staged fast path: data lands in freshly allocated pages with NT stores
  // and volatile metadata installs, and durability is deferred to the next
  // durability point (SyncNode, epoch overflow, a conflicting operation).
  Result<uint64_t> Append(NodeRef node, const void* buf, size_t n) override;

  // fsync(2): drains `node`'s staged-append epoch (if any) through the
  // intent-protected relink, making every completed append durable.
  Status SyncNode(NodeRef node) override;

  // Ensures `node`'s coffer is mapped with the required access; exposed for
  // FSLibs open(2) permission handling.
  Status EnsureAccess(NodeRef node, bool writable) override;

  // Heals a NodeRef whose pages this process moved to another coffer
  // (chmod/chown split, cross-coffer rename) so open FDs survive the move.
  // Splits performed by *other* processes surface as MPK faults instead, and
  // the application must reopen — the same behaviour as losing a mapping in
  // the paper's design.
  void FixNode(NodeRef* node) override;

  // ---- mmap / execve (Table 5's file operations) ----
  // Returns the file's data pages in block order (holes are 0), with its size
  // and mode when asked. Used by the FSLibs mmap/execve paths, which hand the
  // list to the kernel.
  Result<std::vector<uint64_t>> FilePages(NodeRef node, uint64_t* size_out,
                                          uint16_t* mode_out = nullptr);
  // Maps the file's pages for direct application access; returns the pages.
  Result<std::vector<uint64_t>> MmapNode(NodeRef node, bool writable);
  Status MunmapNode(NodeRef node, const std::vector<uint64_t>& pages);
  // Executes the file: kernel-validated; returns the image digest.
  Result<uint64_t> ExecveNode(NodeRef node);

  // ---- recovery support (used by Fsck) ----
  // Collects every page reachable from `inode_off` inside coffer `cid`
  // (inode, index, directory and data pages; stops at cross-coffer dentries,
  // reporting them via `cross_refs`). Appends page indices to `pages`.
  struct CrossRef {
    std::string path;       // expected child path
    uint32_t src_coffer;    // coffer holding the dentry
    uint32_t coffer_id;     // target coffer
    uint64_t inode_off;     // target root inode per the dentry
    uint64_t dentry_off;    // NVM offset of the referencing dentry
  };
  // Raises `max_gen` to every inode generation it meets (recovery restarts
  // AllocPool::generation above them).
  Status CollectReachable(uint32_t cid, uint64_t inode_off, const std::string& path,
                          std::vector<uint64_t>* pages, std::vector<CrossRef>* cross_refs,
                          uint64_t* cleared_dentries, uint64_t* max_gen);

  // Runs offline recovery on one coffer (paper §3.5 / §5.3): traverse,
  // repair what is recognisable, report in-use pages to the kernel, which
  // reclaims the rest. Returns pages reclaimed. A successful run clears the
  // coffer's sick quarantine; a failed repair leaves it mounted read-only.
  Result<uint64_t> RecoverCoffer(uint32_t cid);

  // Volatile health of `cid` in this instance (fault-injection harness and
  // sick-coffer tests). Healthy for coffers never seen to misbehave.
  CofferHealth Health(uint32_t cid);

  // Janitor-side sweep of `cid`'s leased allocator free lists: any list whose
  // lease is expired (or implausibly far in the future) has its owner word
  // CAS-cleared so survivors can re-lease it immediately instead of each
  // paying the steal path. Counted by ReapedListCount(). Part of the
  // dead-process reap sequence (see DESIGN.md "process-failure model").
  Status ReclaimExpiredLists(uint32_t cid);

  // Accounting for the safety/recovery experiments.
  using RecoveryStats = ufs::RecoveryStats;
  Result<RecoveryStats> RecoverAll() override;
  // Recovers one coffer; appends discovered cross-coffer references to
  // `cross_out` when non-null (validated in RecoverAll's second phase).
  Result<RecoveryStats> RecoverOne(uint32_t cid, std::vector<CrossRef>* cross_out);

  // For tests: direct access to a node's inode.
  Inode* InodeForTest(NodeRef node) { return Ino(node.inode_off); }
  Result<kernfs::MapInfo> EnsureMappedForTest(uint32_t cid, bool writable) {
    return EnsureMapped(cid, writable);
  }
  // A locked access (WithInode) to `node` named with generation `gen`, as a
  // thread that read the node's dentry earlier would make it.
  Status LockForTest(NodeRef node, uint32_t gen);

  // ---- scalability introspection (tests and bench_json) ----
  // Shard-lock acquisitions (shared or exclusive) since construction. The
  // steady-state read/write fast path must not move this counter.
  uint64_t ShardLockAcquisitionsForTest() const {
    return shard_lock_acquisitions_.load(std::memory_order_relaxed);
  }
  // Session-invalidation epoch (bumped by ForgetMapping and quarantine).
  uint64_t SessionEpochForTest() const { return epoch_.load(std::memory_order_relaxed); }
  // Entries currently in the relocation ledger across all shards.
  uint64_t RelocatedCountForTest() const {
    return relocated_count_.load(std::memory_order_relaxed);
  }
  // Appends absorbed by the staged fast path since construction (surfaces as
  // bench_json's staged_append_hits counter).
  uint64_t StagedAppendHits() const { return staged_append_hits_.Sum(0); }
  // Force a read-only quarantine (exercises session invalidation).
  void QuarantineReadOnlyForTest(uint32_t cid) { QuarantineReadOnly(cid); }

  // ---- channel completion points ----
  // Executes this thread's queued async ring (background-attributed) and
  // drops the completions no caller claims. FSLibs calls this from its
  // durability points (close, fsync); cheap no-op when nothing is queued.
  void HarvestCompletions();
  // The channel registry (tests and bench aggregation). Channels are
  // disabled — Current() == nullptr — under the sync_crossings test hook.
  kernfs::ChannelSet& channels() { return channels_; }

 private:
  struct ResolveResult {
    NodeRef node;
    NodeRef parent;          // parent directory (invalid for "/")
    std::string leaf;        // last component name
    bool is_coffer_root;     // node is the root file of its coffer
    // Generations the naming dentries recorded (0: no dentry names it, "/").
    uint32_t node_gen = 0;
    uint32_t parent_gen = 0;
  };

  // --- the one inode-access path (DESIGN.md §4) ---
  // What an access needs from the inode it reaches.
  enum class Need : uint8_t {
    kRead,      // read-only mapping and window
    kMapWrite,  // writable mapping, read-only window (a writable open)
    kLock,      // writable mapping and window, the inode's InodeLock held
    kTryLock,   // as kLock, but a live holder is not waited for (EAGAIN)
  };
  // The inode types an access admits; any other type fails with `err`.
  struct TypeRule {
    uint32_t type;  // 0: every type
    bool match;     // admit only `type` (true) or every type but `type`
    common::Err err;
    bool Admits(uint32_t t) const { return type == 0 || (t == type) == match; }
  };
  static constexpr TypeRule kAnyType{0, true, common::Err::kOk};
  static constexpr TypeRule kDirOnly{kTypeDirectory, true, common::Err::kNotDir};
  static constexpr TypeRule kNoDir{kTypeDirectory, false, common::Err::kIsDir};
  static constexpr TypeRule kRegularOnly{kTypeRegular, true, common::Err::kInval};
  static constexpr TypeRule kSymlinkOnly{kTypeSymlink, true, common::Err::kCorrupt};
  struct InodeAccess {
    TypeRule type;
    uint32_t gen = 0;  // the generation the naming dentry recorded; 0: unchecked
    // InodeLocks the caller already holds; online repair never re-locks them.
    std::array<uint64_t, 2> outer{};
  };
  // Every operation reaches an inode through here. In order: map the coffer
  // (`kNeed`), open its window, validate the inode page (ValidMetaPage, a
  // bad pointer quarantines the coffer) before any dereference — the lock
  // word lives in that page — and pass the simulated read check; for kLock
  // take the InodeLock (EBUSY past the wait bound; kTryLock: EAGAIN at once
  // when a live holder has it) and run online repair after a steal. Then,
  // under the lock when one is held, so a directory freed or reused while
  // the caller waited reads as gone: a generation other than `how.gen` fails
  // with ENOENT, a bad magic with EUCLEAN, a type `how.type` refuses with its
  // error. Finally runs `body(inode, map_info)` and returns its result. The
  // window and the lock live in this frame, so the lock is released inside
  // its coffer's window. Read accesses compile no lock code.
  template <Need kNeed, typename Body>
  auto WithInode(NodeRef node, const InodeAccess& how, Body&& body)
      -> decltype(body(std::declval<Inode*>(), std::declval<const kernfs::MapInfo&>()));
  // WithInode's checks, under the lock when one is held: generation (ENOENT),
  // magic (EUCLEAN), type (the rule's error); kOk when `ino` passes.
  static common::Err Admit(const Inode* ino, const InodeAccess& how) {
    if (how.gen != 0 && ino->generation != how.gen) {
      return common::Err::kNoEnt;  // freed, or freed and reused, since its dentry was read
    }
    if (ino->magic != kInodeMagic) {
      return common::Err::kCorrupt;  // object-local damage; coffer graph still trusted
    }
    return how.type.Admits(ino->type) ? common::Err::kOk : how.type.err;
  }
  // Runs `op`, a namespace operation that try-locks a victim after its
  // parent(s) (RemoveChild), again while that victim was busy (EAGAIN).
  // `op` has returned, so every lock it took is released before the retry:
  // no thread waits for a lock while it holds a parent's, which would close
  // a cycle with Rename's address-ordered pair. EBUSY once the wait bound
  // passes.
  template <typename Op>
  Status UntilVictimFree(Op&& op);

  // --- mapping / window management ---
  // `bypass_sick` lets fsck map a quarantined coffer; normal operations are
  // refused (EIO / EROFS) while the coffer is sick.
  Result<kernfs::MapInfo> EnsureMapped(uint32_t cid, bool writable, bool bypass_sick = false);
  Result<uint8_t> KeyFor(uint32_t cid, bool writable);
  void ForgetMapping(uint32_t cid);

  Inode* Ino(uint64_t off) { return kfs_->dev()->As<Inode>(off); }

  // --- corruption containment (fault model, DESIGN.md) ---
  // Validate-before-dereference for a pointer loaded from persistent
  // metadata: nonzero, (optionally) page-aligned, inside the device, and
  // accessible under the currently open MPK window — the page-key table is
  // the ownership oracle, so a pointer into another coffer or unowned space
  // is refused without touching it. Under raw_deref_for_test this degrades
  // to the legacy throwing MPK check (the simulated SIGSEGV).
  bool ValidMetaRange(uint64_t off, uint64_t len, bool page_aligned) const;
  bool ValidMetaPage(uint64_t off) const { return ValidMetaRange(off, nvm::kPageSize, true); }
  // Marks `cid` quarantined and returns kCorrupt (detection sites end with
  // `return Sick(cid);`).
  common::Err Sick(uint32_t cid);
  // Gate run at EnsureMapped: kIo while quarantined (one probe per backoff
  // window), kROFS for writes to a read-only coffer.
  Status CheckHealthy(uint32_t cid, bool writable);
  void ClearSick(uint32_t cid);
  void QuarantineReadOnly(uint32_t cid);

  // --- path walk ---
  Result<ResolveResult> Resolve(const std::string& path, bool follow_last_symlink);

  // --- directory internals (caller holds the coffer window + dir lock) ---
  // One page of a directory's dentry storage, as the directory walks hand
  // it to their visitors: an L2 page with its embedded dentries, or a run
  // page of a bucket chain.
  struct DirPage {
    uint64_t off;
    bool run;
    std::span<Dentry> dentries;
  };
  // The live directory walk (DirFind, DirIterate, DirIsEmpty, FreeNode):
  // the L2 page of the name hashing to `*hash` and its bucket chain, or with
  // no hash every L2 page of `dir` and all its chains, an L2 page before its
  // chains. Each L2 and run page is validated (ValidMetaPage) and passes the
  // simulated read check before `visit(const DirPage&)` sees it; a run
  // page's `next` is read first, so the visitor may free the page. A walk
  // steps through at most as many run pages as the device holds. A bad
  // pointer or a spent budget quarantines `cid` (Sick). The visitor returns
  // false to end the walk.
  template <typename Visit>
  Status WalkDirLive(uint32_t cid, const Inode* dir, std::optional<uint32_t> hash,
                     Visit&& visit);
  // The salvage directory walk (CollectReachable, FindDirPath), recovery's
  // policy: a page that fails PlausiblePage is skipped with everything
  // behind it, and a chain ends at the first page it visits twice. Every
  // page it reads (the L1 page too) is appended to `pages` when given.
  // `visit` as for WalkDirLive.
  template <typename Visit>
  void WalkDirSalvage(const Inode* dir, std::vector<uint64_t>* pages, Visit&& visit);

  Result<Dentry*> DirFind(uint32_t cid, Inode* dir, std::string_view name);
  Status DirInsert(uint32_t cid, const kernfs::MapInfo& info, Inode* dir, std::string_view name,
                   uint32_t child_coffer, uint64_t child_inode, uint32_t child_gen,
                   uint32_t child_type);
  // Removal via an already-located dentry (avoids a second hash lookup).
  Status DirRemoveAt(Inode* dir, Dentry* d);
  // Atomically repoints an in-use dentry at a different child. The updated
  // fields share the dentry's first cacheline (all dentry slots are 64-byte
  // aligned), so a crash exposes the old or the new target, never a mix —
  // the commit point of an overwriting rename.
  Status DirReplaceTarget(Inode* dir, Dentry* d, uint32_t child_coffer, uint64_t child_inode,
                          uint32_t child_gen, uint32_t child_type);

  // --- rename support ---
  // Locates an existing destination for an overwriting rename and checks the
  // pair (POSIX: dir over dir, non-dir over non-dir; a displaced directory's
  // emptiness is checked under its lock, RemoveChild). Validates the displaced
  // node's pointer as a path walk would (a bad one quarantines `dcid`).
  // kNoEnt = free destination; `same_file` reports src and dst naming the
  // same node.
  Result<Dentry*> PrepareRenameDst(uint32_t dcid, Inode* ddir, std::string_view to_leaf,
                                   const Dentry& src, bool* same_file);
  // Claims the intent slot at `slot_off` as `claimed`. A dead holder's intent
  // is repaired (RepairDeadIntent, skipping `held_inodes`, the caller's inode
  // locks), never overwritten. kBusy once the wait bound passes, or at once
  // when that repair cannot finish.
  Status ClaimIntentSlot(uint32_t cid, const kernfs::MapInfo& info, uint64_t slot_off,
                         uint64_t claimed, std::span<const uint64_t> held_inodes);
  // Claims coffer `cid`'s rename-intent slot, persists `body` and commits it.
  Status BeginRenameIntent(uint32_t cid, const kernfs::MapInfo& info, const RenameIntent& body);
  // Clears the intent slot (the rename fully applied).
  void EndRenameIntent(const kernfs::MapInfo& info);
  // Frees the intent slot at `slot_off` with a fenced clear of its magic
  // word: an unfenced clear could resurrect a stale intent (layout.h).
  void ClearIntent(uint64_t slot_off);
  // Rolls a committed rename intent forward or back before traversal
  // (called from RecoverOne under the coffer window).
  Status RepairPendingRename(uint32_t cid, const kernfs::MapInfo& info,
                             uint64_t* dentries_cleared);
  // Shared roll-forward/back body (zofs_repair.cc). Offline (`online ==
  // false`, from RecoverOne) records repath bookkeeping for RecoverAll's
  // cross-ref phase; online (from a lease steal) must instead fix the
  // kernel-stored coffer path immediately — there is no phase 2 to vouch for
  // the moved dentry, and a later remount would clear it as unvouched.
  Status RepairPendingRenameImpl(uint32_t cid, const kernfs::MapInfo& info,
                                 uint64_t* dentries_cleared, bool online);

  // --- online repair after a lease steal (zofs_repair.cc) ---
  // Read-only BFS over `cid`'s same-coffer dentries for the directory inode
  // at `dir_ino_off`; returns its absolute path (coffer path + interior
  // walk). Used to rebuild the kernel-side path of a renamed child coffer
  // during online rename roll-forward. kNoEnt when unreachable.
  Result<std::string> FindDirPath(uint32_t cid, const kernfs::MapInfo& info,
                                  uint64_t dir_ino_off);
  // Survivor-side repair of the intent slot at `slot_off` (caller holds a
  // writable window on `cid`): if its holder is dead — its stamp lapsed, or
  // it needed `stolen_ino`, the lock the caller just stole — take the
  // holder's locks and the slot over (lease.h), then roll a committed
  // intent forward or clear a claimed one, without a remount. Never
  // re-locks `held_inodes`, the caller's locks (InodeLock reentry would
  // release them on destruction). OK when there is nothing to do or another
  // survivor took the slot first; kBusy when the intent stays in place, or
  // when the repair changed an inode in `held_inodes`.
  Status RepairDeadIntent(uint32_t cid, const kernfs::MapInfo& info, uint64_t slot_off,
                          std::span<const uint64_t> held_inodes, uint64_t stolen_ino);
  // Steal-site hook (WithInode): no-op unless `lk` actually stole; otherwise
  // repairs both intent slots. Failure is non-fatal (the next claimant of the
  // slot, or offline recovery at the next remount, finishes the job).
  void MaybeOnlineRepair(uint32_t cid, const kernfs::MapInfo& info, const InodeLock& lk,
                         std::span<const uint64_t> held_inodes);

  // --- staged-append epoch batcher (DESIGN.md: epochs & durability points) --
  // One open epoch of appends to one file. The data is already NT-written
  // into freshly allocated pages and the block pointers / size are volatilely
  // installed (readers need no stage awareness); what remains deferred is the
  // metadata write-back, collected in `flush`. A StageState is mutated only
  // under its file's InodeLock; the stage table's spinlocks guard the map
  // structure alone, so the steady-state read/write path never touches a
  // shard lock (the scalability invariant).
  struct StageState {
    uint32_t cid = 0;
    uint64_t inode_off = 0;
    uint64_t start_blk = 0;       // first block staged this epoch
    uint64_t base_size = 0;       // durable size when the epoch opened
    uint64_t new_size = 0;        // volatile size after the staged appends
    std::vector<uint64_t> pages;  // staged data pages, block order
    nvm::FlushSet flush;          // deferred metadata write-backs
  };
  struct StageShard {
    common::SpinLock mu;
    std::unordered_map<uint64_t, std::shared_ptr<StageState>> stages GUARDED_BY(mu);
  };
  static constexpr uint32_t kStageShards = 16;
  StageShard& StageShardFor(uint64_t inode_off) {
    return stage_shards_[(inode_off / nvm::kPageSize) & (kStageShards - 1)];
  }
  // Map lookups hand out shared ownership, so a stage outlives its table
  // entry for whoever fetched it: SyncNode probes the table without the
  // file's InodeLock. FreeNode (unlink, rmdir, a rename's displaced file)
  // drops a dying file's stage under that lock (RetireVictim), so no
  // appender is mid-write into it.
  std::shared_ptr<StageState> FindStage(uint64_t inode_off);
  std::shared_ptr<StageState> CreateStage(uint32_t cid, uint64_t inode_off, uint64_t size);
  std::shared_ptr<StageState> TakeStage(uint64_t inode_off);
  // Discards a stage without flushing (FreeNode: the file is going away).
  void DropStage(uint64_t inode_off);
  // The staged fast path body (caller holds the coffer window + InodeLock).
  // Returns false when the append does not qualify (hole at the tail, file
  // too large, ...) and the caller must fall back to the synchronous write.
  Result<bool> StageAppendData(uint32_t cid, const kernfs::MapInfo& info, Inode* ino,
                               const void* buf, size_t n);
  // Claims the coffer's staged-append intent slot, persists the body and
  // commits it (two fences; the first also commits the epoch's NT data).
  // kBusy when another live process holds the slot past the wait bound.
  Status PublishStageIntent(const kernfs::MapInfo& info, const StageState& st);
  // Durability point: intent publish, FlushSet drain + one fence, fenced
  // intent clear. On an intent-slot kBusy it degrades to an intent-less
  // drain + fence, which is still correct (just not relink-atomic).
  Status FlushStage(const kernfs::MapInfo& info, std::shared_ptr<StageState> st);
  // Gate + take + flush, for conflicting operations already holding the
  // coffer window and the file's InodeLock. No-op when no stage is open.
  Status FlushStageIfAny(const kernfs::MapInfo& info, uint64_t inode_off);
  // Drains every open stage (rename/chmod/chown entry, unmount). Opens its
  // own windows; must not be called inside an AccessWindow.
  Status FlushAllStages();
  // Rolls a committed staged-append intent forward (or clears an uncommitted
  // one) before recovery traversal; called from RecoverOne under the window.
  Status RepairPendingStagedAppend(uint32_t cid, const kernfs::MapInfo& info);
  Status DirIterate(uint32_t cid, const Inode* dir, std::vector<vfs::DirEntry>* out);
  // kCorrupt when the directory structure is damaged (bad pointer / cycle).
  Result<bool> DirIsEmpty(uint32_t cid, const Inode* dir);

  // --- block map ---
  // The one block-map walk: the offset of the 8-byte slot that holds block
  // `blk`'s pointer. Without `alloc` it only reads: a missing index page
  // makes the block a hole (0) and a bad index pointer fails with kCorrupt,
  // for the caller to judge. With `alloc` it creates missing index pages,
  // zeroed and written back without a fence (the caller's fence orders
  // them), and quarantines the coffer on a bad index pointer (Sick).
  // kOverflow past kMaxFileBlocks.
  Result<uint64_t> SlotOff(const Inode* ino, uint64_t blk, CofferAllocator* alloc);
  Result<uint64_t> GetBlock(uint32_t cid, const Inode* ino, uint64_t blk);
  Result<uint64_t> GetOrAllocBlock(CofferAllocator& alloc, Inode* ino, uint64_t blk);
  // Atomically repoints `blk` at `page_off`. kCorrupt, without quarantine,
  // when an index page on the way is missing or bad.
  Status InstallBlockPointer(Inode* ino, uint64_t blk, uint64_t page_off);
  // Spills a file's inline data out to block 0 (called when it outgrows the
  // inline area or atomic/normal block writes need the block map).
  Status SpillInline(CofferAllocator& alloc, Inode* ino);
  // Frees all blocks with index >= first_blk; returns count freed.
  Status FreeBlocksFrom(CofferAllocator& alloc, Inode* ino, uint64_t first_blk);

  // The synchronous write body of WriteAt and of Append's fallback (caller
  // holds the coffer window + InodeLock; `ino` validated by WithInode).
  Result<size_t> WriteLocked(NodeRef node, const kernfs::MapInfo& info, Inode* ino,
                             const void* buf, size_t n, uint64_t off);

  // --- node lifecycle ---
  // Hands out the next inode generation of the coffer whose allocator pool
  // is at `pool_off` (AllocPool::generation; caller holds a writable
  // window): never 0, and not repeated in that coffer whatever its pages
  // held in between (limits: DESIGN.md §4 zofs).
  uint32_t NewGeneration(uint64_t pool_off);
  // Raises the counter at `pool_off` to at least `floor` (inodes carrying
  // generations up to `floor` moved into its coffer).
  void RaiseGeneration(uint64_t pool_off, uint64_t floor);
  // Writes a fresh inode of generation `gen` (NewGeneration) at `inode_off`
  // and persists its core (the symlink area stays untouched). Caller holds a
  // writable window.
  void FormatInode(uint64_t inode_off, uint32_t gen, uint32_t type, uint16_t mode, uint32_t uid,
                   uint32_t gid);
  // The one create path (Create, Mkdir, Symlink). An unlocked probe returns
  // an existing name (see MicroFs::Create). The new inode is made before
  // the parent's lock in the root coffer, which is never deleted, and under
  // it elsewhere; under the lock the name is looked up again and the parent
  // coffer's group re-read (a chmod may have moved it), then the dentry goes
  // in. An inode no dentry took (a lost race, a moved group) is freed after
  // the lock. A node whose permission group differs from the parent coffer's
  // becomes the root of a new coffer (paper §5, Figure 1), made under the
  // lock; symlinks always stay in the parent's coffer, with its mode.
  Result<NodeRef> CreateNode(const std::string& path, uint32_t type, uint16_t mode, bool excl,
                             std::string_view symlink_target = {});
  // Frees everything a same-coffer inode owns and retires the inode: its
  // magic is cleared (recovery must not resurrect it) and its generation
  // moved (a waiter on its lock reads it as gone). The caller holds the
  // inode's lock, and frees the page itself once that lock, whose release
  // stores to it, is released.
  Status FreeNode(uint32_t cid, CofferAllocator& alloc, uint64_t inode_off);
  // A file of the root coffer whose dentry a namespace operation dropped,
  // retired once the operation holds no directory lock (RetireVictim). Only
  // the root coffer, which KernFS never deletes, is sure to outlive those
  // locks (DESIGN.md §4 zofs).
  struct Victim {
    uint64_t inode_off = 0;  // 0: no victim
    uint32_t gen = 0;        // the generation its dentry recorded
  };
  // FreeNode under the victim's own InodeLock, taken with a wait (a writer
  // holding the file finishes first), then the inode page. No-op without a
  // victim.
  Status RetireVictim(const Victim& v);
  // Unlink and Rmdir: removes the dentry `path` names under its parent's
  // lock; `dir` selects rmdir's rules (the victim must be an empty
  // directory) over unlink's (anything but a directory).
  Status RemoveNode(const std::string& path, bool dir);
  // Removes the node that dentry `victim` names from a directory of coffer
  // `cid` (`info`), which the caller holds locked, as it does the inodes in
  // `outer`; `drop` is the caller's namespace change that drops the dentry.
  // A file of the root coffer is dropped and handed to `*later`. Any other
  // node is retired under the caller's lock, which keeps its coffer alive:
  // under the victim's own InodeLock — try-locked, EAGAIN while a live
  // holder has it (UntilVictimFree) — a directory is checked empty, `drop`
  // runs, and the victim is freed (FreeNode) or, as a coffer root, its
  // generation moves, so a create or writer waiting on that lock reads it
  // as gone. Then its inode page goes back, or a coffer root leaves with its
  // coffer: the kernel's path map names it until then and would refuse a
  // create or rename of the same name with EEXIST. A coffer-root file is not
  // locked.
  template <typename Drop>
  Status RemoveChild(uint32_t cid, const kernfs::MapInfo& info, const Dentry& victim,
                     std::array<uint64_t, 2> outer, Drop&& drop, Victim* later);

  CofferAllocator& AllocatorFor(uint32_t cid, const kernfs::MapInfo& info);

  // Effective permission grouping: two files share a coffer iff these match
  // (execution bits ignored, paper §2.3).
  static uint32_t EffPerm(uint16_t mode) { return mode & 0666; }
  bool SameGroup(uint16_t mode, uint32_t uid, uint32_t gid, const kernfs::CofferRoot* root) const;

  // Collects the pages of a same-coffer subtree into sorted runs.
  Result<std::vector<kernfs::PageRun>> CollectSubtreeRuns(uint32_t cid, uint64_t inode_off,
                                                          const std::string& path);

  // Splits `node` (at `path`, with dentry in `parent`) into its own coffer
  // with the given permission; updates the parent dentry.
  Result<uint32_t> SplitNodeIntoCoffer(const ResolveResult& r, const std::string& path,
                                       uint16_t mode, uint32_t uid, uint32_t gid);
  // The body of Chmod (`mode` set) and Chown (`owner` set): a coffer root
  // changes through the kernel, a node that keeps its permission group
  // changes in place, and any other node splits into its own coffer.
  struct Owner {
    uint32_t uid;
    uint32_t gid;
  };
  Status ChangeAttrs(const std::string& path, std::optional<uint16_t> mode,
                     std::optional<Owner> owner);

  kernfs::KernFs* kfs_;
  kernfs::Process* proc_;
  Options opts_;
  // Per-thread kernel submission/completion channels (ZUFS-style; disabled —
  // Current() == nullptr — under the sync_crossings test hook, which takes
  // one KernelEntry per call).
  kernfs::ChannelSet channels_;

  // Kernel crossings routed through the calling thread's channel when
  // enabled (batching whatever is queued on its async ring into the same
  // KernelEntry), else the plain synchronous entry points.
  Result<kernfs::MapInfo> KernelMap(uint32_t cid, bool writable);
  // Key-window fault-in (ChanOp::kRetag): restores the physical key of a
  // mapped coffer's protection class and retags its pages. One batched
  // crossing; no unmap, no session-epoch bump.
  Result<kernfs::MapInfo> KernelRetag(uint32_t cid);
  // Revalidates a cached MapInfo against the process's published class→key
  // table (relaxed loads, no crossing). Adopts a key another thread faulted
  // in; issues KernelRetag when the class is evicted, or when a chmod/chown
  // has moved one of the process's coffers to another class since `info` was
  // produced (its class_slot may be stale; the retag reports the current
  // class_slot, class_gen and key, which are adopted). Returns false — the
  // caller falls back to a full remap — only when that crossing failed.
  bool RevalidateKey(uint32_t cid, kernfs::MapInfo* info);

  void RecordRelocation(const std::vector<kernfs::PageRun>& runs, uint32_t new_cid);

  // Quarantine state of one coffer. Volatile by design — a remount starts
  // clean and re-detects on first touch.
  struct SickState {
    uint32_t fails = 0;         // detections since the last successful fsck
    uint64_t next_probe_ns = 0; // earliest NowNs() at which one op may retry
    bool read_only = false;     // fsck gave up repairing: writes get EROFS
  };
  // Re-arms one entry's probe deadline after a detection. Pure arithmetic on
  // the entry (no locking, no map lookups), so every detection site —
  // whatever lock it holds — shares the same backoff schedule.
  static void ArmSickBackoff(SickState& s, uint64_t base_backoff_ns);

  // The volatile caches, sharded so unrelated coffers never contend
  // (coffer-keyed tables hash by coffer id, the relocation ledger by page
  // offset). Writers are rare (map/unmap/split/quarantine); steady state
  // bypasses the shards entirely via the per-thread session cache.
  struct Shard {
    common::SharedMutex mu;
    std::unordered_map<uint32_t, kernfs::MapInfo> mapped GUARDED_BY(mu);
    std::unordered_map<uint32_t, std::unique_ptr<CofferAllocator>> allocators GUARDED_BY(mu);
    // page offset -> new coffer
    std::unordered_map<uint64_t, uint32_t> relocated GUARDED_BY(mu);
    std::unordered_map<uint32_t, SickState> sick GUARDED_BY(mu);
    // Bumped (under mu, exclusive) whenever a coffer is erased from
    // `mapped`. EnsureMapped samples it before its unlocked CofferMap call
    // and declines to cache the result if a ForgetMapping raced the kernel
    // call. Atomic, outside the mu domain: the revalidation read is
    // lock-free.
    std::atomic<uint64_t> evict_gen{0};
  };

  static constexpr uint32_t kStateShards = 16;
  Shard& ShardFor(uint32_t cid) { return shards_[cid & (kStateShards - 1)]; }
  Shard& ShardForPage(uint64_t off) {
    return shards_[(off / nvm::kPageSize) & (kStateShards - 1)];
  }

  // Scoped shard locks. These replace bare std::shared_lock/std::unique_lock
  // so (a) every acquisition bumps the contention counter the scalability
  // bench reads, and (b) the acquisition carries ACQUIRE/ACQUIRE_SHARED
  // attributes, letting -Wthread-safety check the GUARDED_BY contracts on
  // the Shard tables above.
  class SCOPED_CAPABILITY ShardReadLock {
   public:
    ShardReadLock(ZoFs* fs, Shard& s) ACQUIRE_SHARED(s.mu) : mu_(&s.mu) {
      fs->shard_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
      mu_->ReaderLock();
    }
    ~ShardReadLock() RELEASE() {
      if (mu_ != nullptr) {
        mu_->ReaderUnlock();
      }
    }
    // Early release for the drop-the-lock-then-call-the-kernel pattern.
    void Unlock() RELEASE() {
      mu_->ReaderUnlock();
      mu_ = nullptr;
    }
    ShardReadLock(const ShardReadLock&) = delete;
    ShardReadLock& operator=(const ShardReadLock&) = delete;

   private:
    common::SharedMutex* mu_;
  };

  class SCOPED_CAPABILITY ShardWriteLock {
   public:
    ShardWriteLock(ZoFs* fs, Shard& s) ACQUIRE(s.mu) : mu_(&s.mu) {
      fs->shard_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
      mu_->Lock();
    }
    ~ShardWriteLock() RELEASE() {
      if (mu_ != nullptr) {
        mu_->Unlock();
      }
    }
    void Unlock() RELEASE() {
      mu_->Unlock();
      mu_ = nullptr;
    }
    ShardWriteLock(const ShardWriteLock&) = delete;
    ShardWriteLock& operator=(const ShardWriteLock&) = delete;

   private:
    common::SharedMutex* mu_;
  };

  // Invalidates every thread's session entries for this instance.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_release); }
  // Moves a coffer's allocator (if any) out of the shard map into the
  // retirement list. Caller holds the shard's exclusive lock. Allocators are
  // retired, never destroyed, until ~ZoFs: a racing thread that fetched the
  // pointer through its session cache may still be inside an allocation.
  void RetireAllocatorLocked(Shard& s, uint32_t cid) REQUIRES(s.mu) EXCLUDES(retire_mu_);
  // Drops relocation-ledger entries so a split burst cannot grow the ledger
  // without bound (satellite: relocated_cap). Caller holds no shard lock.
  void EnforceRelocatedCap();

  std::array<Shard, kStateShards> shards_;

  // Never-reused id of this instance: session-cache entries are keyed by it
  // so a ZoFs constructed at a recycled address cannot match stale TLS.
  const uint64_t instance_id_;
  // Session-invalidation epoch. A session entry is valid only while its
  // stored epoch equals this value.
  std::atomic<uint64_t> epoch_{1};

  // Lock-free fast-path gates: CheckHealthy / FixNode skip their shard
  // lookups entirely while these are zero (the common case).
  std::atomic<uint32_t> sick_count_{0};
  std::atomic<uint64_t> relocated_count_{0};

  std::atomic<uint64_t> shard_lock_acquisitions_{0};

  // Staged-append epoch table. `active_stages_` is the lock-free gate that
  // lets conflicting operations (WriteAt, truncate, unlink, rename) skip the
  // table entirely while no epoch is open — the common case.
  std::array<StageShard, kStageShards> stage_shards_;
  std::atomic<uint64_t> active_stages_{0};
  common::StripedCounters<1> staged_append_hits_;

  // Leaf lock: acquired under a shard's exclusive lock (RetireAllocatorLocked)
  // and never the other way around — zofs_lint's lock-order rule enforces
  // that no shard lock is taken while retire_mu_ is held.
  common::Mutex retire_mu_;
  std::vector<std::unique_ptr<CofferAllocator>> retired_allocators_ GUARDED_BY(retire_mu_);

  // Set by Abandon(): the destructor skips FlushAllStages / DrainAll /
  // FsUmount (a corpse must not re-enter the kernel).
  bool abandoned_ = false;

  // Set during RecoverAll by RepairPendingRename: an interrupted rename may
  // have committed the dentry move before the kernel-side coffer path was
  // rewritten, so phase 2 repairs (CofferRename) instead of clearing a
  // cross-ref whose only defect is a stale path. `rename_repath_all_` covers
  // descendant coffers of a renamed directory (CofferFixupPaths not reached).
  std::unordered_set<uint32_t> rename_repath_;
  bool rename_repath_all_ = false;
};

// Defined here, not in zofs.cc: recovery (zofs_recovery.cc) and online repair
// (zofs_repair.cc) both walk directories this way.
template <typename Visit>
void ZoFs::WalkDirSalvage(const Inode* dir, std::vector<uint64_t>* pages, Visit&& visit) {
  nvm::NvmDevice* dev = kfs_->dev();
  auto record = [pages](uint64_t off) {
    if (pages != nullptr) {
      pages->push_back(off);
    }
  };
  if (!PlausiblePage(dev, dir->l1_dir)) {
    return;
  }
  record(dir->l1_dir);
  const uint64_t* l1 = dev->As<uint64_t>(dir->l1_dir);
  std::unordered_set<uint64_t> seen;  // the current chain's pages: a corrupted chain may loop
  for (uint64_t s = 0; s < kL1Slots; s++) {
    const uint64_t l2_off = l1[s];
    if (!PlausiblePage(dev, l2_off)) {
      continue;
    }
    record(l2_off);
    L2Page* l2 = dev->As<L2Page>(l2_off);
    if (!visit(DirPage{l2_off, false, l2->embedded})) {
      return;
    }
    for (uint64_t b = 0; b < kL2Buckets; b++) {
      seen.clear();
      for (uint64_t run_off = l2->buckets[b];
           PlausiblePage(dev, run_off) && seen.insert(run_off).second;) {
        record(run_off);
        DentryRun* run = dev->As<DentryRun>(run_off);
        if (!visit(DirPage{run_off, true, run->dentries})) {
          return;
        }
        run_off = run->next;
      }
    }
  }
}

// Lease lock over an inode (paper §5.2): CAS-claimed owner + expiry deadline,
// stealable after expiry so a dead process cannot wedge the lock (claim and
// takeover protocol: lease.h). Expiry is
// compared against the injectable common::NowNs() clock, so tests can lapse a
// dead owner's lease deterministically. An expiry too far in the future to be
// a legal lease stamp is treated as corrupt and stolen outright. Acquisition
// is bounded (pause/yield backoff up to a multiple of the lease, LeaseWait):
// when a live owner outlasts the bound, the lock is NOT taken and
// ok() is false — callers fail with EBUSY instead of spinning forever.
class InodeLock {
 public:
  // `gen` (0: unchecked) is the generation the caller named the inode by: a
  // waiter gives up — gone() — as soon as the inode's generation moves.
  // Without `wait`, one claim attempt: a live holder leaves ok() false.
  InodeLock(nvm::NvmDevice* dev, uint64_t inode_off, uint64_t lease_ns, uint32_t gen = 0,
            bool wait = true);
  ~InodeLock();
  InodeLock(const InodeLock&) = delete;
  InodeLock& operator=(const InodeLock&) = delete;

  bool ok() const { return held_; }
  // True when acquisition went through the steal path (expired or implausible
  // lease taken from another owner). The winner inherits whatever half-done
  // state the dead owner left: callers route through ZoFs::MaybeOnlineRepair.
  bool stole() const { return stole_; }
  // True when acquisition stopped because the inode's generation moved: the
  // inode the caller named is gone.
  bool gone() const { return gone_; }
  uint64_t inode_off() const { return owner_off_ - offsetof(Inode, lock_owner); }

 private:
  nvm::NvmDevice* dev_;
  uint64_t owner_off_;
  uint64_t expiry_off_;
  uint64_t tid_;
  bool held_ = false;
  bool stole_ = false;
  bool gone_ = false;
};

}  // namespace zofs

#endif  // SRC_ZOFS_ZOFS_H_
