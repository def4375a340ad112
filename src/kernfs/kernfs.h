// KernFS — the kernel half of Treasury (paper §3.2, §4.1), simulated as a
// library object shared by all simulated processes.
//
// KernFS owns global space management (the persistent allocation table of
// Figure 3 plus volatile free/owner indexes) and the persistent path-coffer
// hash table. It treats coffers as black boxes: it knows their path, type,
// permission and page set, never their internal structure.
//
// Every public entry point models a user->kernel crossing: it charges a
// configurable crossing cost (`kernel_crossing_ns`) and runs with MPK
// enforcement suspended (the kernel is not subject to the user PKRU).
//
// Processes are simulated by `Process` objects: each carries credentials, a
// page-key table (its "page table" key bits), its MPK key budget and its
// coffer mappings. Threads bind to a process via `Process::BindCurrentThread`.

#ifndef SRC_KERNFS_KERNFS_H_
#define SRC_KERNFS_KERNFS_H_

#include <atomic>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/kernfs/layout.h"
#include "src/mpk/keyclass.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/vfs/vfs.h"

namespace kernfs {

using common::Err;
using common::Result;
using common::Status;

class KernFs;
class Channel;

// A simulated OS process: credentials + per-process MPK state.
class Process {
 public:
  uint32_t pid() const { return pid_; }
  const vfs::Cred& cred() const { return cred_; }
  void SetCred(const vfs::Cred& c) { cred_ = c; }

  // Binds the calling thread to this process's address space (installs the
  // page-key table for MPK checks). A thread acts for one process at a time.
  void BindCurrentThread() { mpk::BindThreadToProcess(&page_keys_); }

  // True if the process currently has `coffer_id` mapped.
  bool HasMapped(uint32_t coffer_id) const;
  // MPK key assigned to a mapped coffer (0xff if not mapped, or if the
  // coffer's protection class is currently key-window evicted).
  uint8_t KeyFor(uint32_t coffer_id) const;

  // Lock-free read of the published class→key assignment (the user-visible
  // key table; see src/mpk/keyclass.h). The µFS validates its cached
  // MapInfo.key against this with no crossing; kUnmapped means the class is
  // key-window evicted and must be faulted back in via CofferRetag.
  uint8_t PublishedClassKey(uint16_t slot) const { return key_classes_.PublishedKey(slot); }

  // Lock-free LRU bump for a class the µFS just revalidated: keeps an
  // in-flight op's working-set classes off the key window's victim list
  // (see mpk::KeyClassTable::Touch).
  void TouchClassKey(uint16_t slot) { key_classes_.Touch(slot); }

  // Distinct protection classes currently holding a mapped coffer (the v5
  // key_class_count bench counter).
  size_t LiveProtClassCount() const { return key_classes_.LiveClassCount(); }

  // Class generation: bumped whenever a chmod/chown moves one of this
  // process's mappings to another protection class. MapInfo::class_gen
  // records it, and the µFS remaps when the two differ: a moved coffer's
  // cached class_slot can still read a live key (the old class's other
  // members keep it keyed) that no longer tags the coffer's pages.
  uint64_t ClassGen() const { return class_gen_.load(std::memory_order_acquire); }

 private:
  friend class KernFs;
  Process(uint32_t pid, vfs::Cred cred, size_t num_pages)
      : pid_(pid), cred_(cred), page_keys_(num_pages, 0xff) {}

  struct Mapping {
    bool writable;
    uint16_t class_slot;  // the class's key is its published assignment
  };

  uint32_t pid_;
  vfs::Cred cred_;
  mpk::PageKeyTable page_keys_;  // 0xff = unmapped
  // Physical keys 1..15 and the class→key window both live here; KernFS is
  // the only mutator (under its lock). See src/mpk/keyclass.h.
  mpk::KeyClassTable key_classes_;
  std::unordered_map<uint32_t, Mapping> mappings_;  // coffer-id -> mapping
  bool fslib_mounted_ = false;
  std::atomic<uint64_t> class_gen_{0};  // written under the KernFS lock
};

// Result of coffer_map: everything the µFS needs to start managing the
// coffer in user space.
struct MapInfo {
  uint8_t key = 0;
  bool writable = false;
  uint32_t type = 0;
  uint64_t root_page_off = 0;   // CofferRoot page (read-only to the µFS)
  uint64_t root_inode_off = 0;
  uint64_t custom_off = 0;
  // Protection-class slot of the coffer. The µFS revalidates `key` against
  // PublishedClassKey(class_slot) on every cache hit: key-window eviction
  // invalidates nothing globally.
  uint16_t class_slot = mpk::KeyClassTable::kNoSlot;
  // Process::ClassGen() when this MapInfo was produced.
  uint64_t class_gen = 0;
};

// ---- Batched submission/completion interface (ZUFS-style channels) --------
//
// A ChanRequest is one queued kernel operation; ExecuteBatch runs a whole
// vector of them under ONE KernelEntry, so N queued requests pay one
// crossing. The per-thread `Channel` (src/kernfs/channel.h) is the producer;
// KernFs validates each entry before dispatch (a scribbled in-flight request
// must fail that request, not the kernel).

enum class ChanOp : uint8_t {
  kNop = 0,
  kMap,      // CofferMap(coffer_id, writable)
  kEnlarge,  // CofferEnlarge(coffer_id, n_pages)
  kShrink,   // CofferShrink(coffer_id, runs) — drain-time grant return
  kRetag,    // CofferRetag(coffer_id) — key-window fault-in (ISSUE 10)
};

// Integrity tag checked at drain: in-flight entries live in DRAM and a stray
// write (fault-injection) must be detected, not dispatched.
inline constexpr uint32_t kChanReqMagic = 0x43524551;  // "CREQ"

struct ChanRequest {
  ChanOp op = ChanOp::kNop;
  uint32_t coffer_id = 0;
  bool writable = false;
  bool background = false;  // submitted from the async ring
  uint64_t n_pages = 0;
  std::vector<PageRun> runs;  // kShrink payload
  uint64_t seq = 0;           // channel-local submission sequence
  uint32_t magic = kChanReqMagic;
};

struct ChanCompletion {
  ChanOp op = ChanOp::kNop;
  uint32_t coffer_id = 0;
  uint64_t seq = 0;
  bool background = false;
  Status status = common::OkStatus();
  MapInfo map_info;           // kMap result
  std::vector<PageRun> runs;  // kEnlarge grant
};

// ---- process death (paper §5 availability; the procmon campaign) ----------
//
// KillProcess abandons a process with NO cleanup — the simulation of a
// tenant dying mid-operation. Its mappings, MPK keys, channel rings and
// unharvested grants stay allocated until ReapDeadProcesses reclaims them;
// its leased locks and free lists stay claimed on NVM until survivors steal
// the expired leases (zofs::InodeLock / CofferAllocator) or the janitor
// sweeps them (zofs::ZoFs::ReclaimExpiredLists).

struct KillOptions {
  // Stray stores the dying process attempts per writable mapping — the MPK
  // containment oracle: every store must land inside a coffer the victim had
  // mapped writable, never outside (paper §3.4 Table 4).
  uint64_t stray_writes = 0;
  uint64_t seed = 1;
  // Writable coffers to spare from the burst. The soak spares shared coffers
  // whose contents the cross-tenant durability oracle checks: a victim CAN
  // legally corrupt a shared writable coffer (the paper accepts this), so
  // sparing it keeps that oracle sharp while the page-diff oracle still
  // proves containment on the rest.
  std::vector<uint32_t> spare_coffers;
};

struct KillStats {
  uint64_t stray_attempted = 0;
  uint64_t stray_landed = 0;   // inside a writable mapping (legal damage)
  uint64_t stray_blocked = 0;  // refused by MPK (containment held)
};

struct FormatOptions {
  uint64_t path_map_buckets = 1 << 14;
  uint16_t root_mode = 0755;
  uint32_t root_uid = 0;
  uint32_t root_gid = 0;
  uint32_t root_type = kCofferTypeZofs;
  // Pages beyond the root page handed to the root coffer at format time
  // (root inode page + custom page).
  uint64_t initial_coffer_pages = 2;
};

class KernFs {
 public:
  // Formats the device and mounts. The device must be zeroed or disposable.
  KernFs(nvm::NvmDevice* dev, const FormatOptions& opts);
  // Opens (re-mounts) an already-formatted device, rebuilding the volatile
  // indexes from the persistent allocation table — the post-crash path.
  explicit KernFs(nvm::NvmDevice* dev);
  ~KernFs();

  KernFs(const KernFs&) = delete;
  KernFs& operator=(const KernFs&) = delete;

  nvm::NvmDevice* dev() { return dev_; }
  uint32_t root_coffer_id() const { return root_coffer_id_; }

  // Cost of one user->kernel crossing, charged by every entry point.
  void set_kernel_crossing_ns(uint64_t ns) { crossing_ns_ = ns; }
  uint64_t kernel_crossing_ns() const { return crossing_ns_; }

  // ---- Process management (simulation scaffolding, not a Table 5 op).
  Process* CreateProcess(vfs::Cred cred);
  void DestroyProcess(Process* proc);

  // Abandons `proc` as of a sudden death: optional stray-write burst in the
  // victim's user context (MPK enforced — the containment oracle), then the
  // process moves to the dead-process morgue with NO unmap, NO key release,
  // NO channel drain. Only ReapDeadProcesses reclaims it. The caller must
  // not touch `proc` afterwards (the FsLib above it must be Abandon()ed).
  KillStats KillProcess(Process* proc, const KillOptions& opts);

  // Reaps every morgue entry whose backoff deadline has passed: drains the
  // corpse's channel rings (returning unharvested enlarge grants to the free
  // pool), unmaps its coffers (freeing MPK keys) and erases it. A failed
  // reclaim re-arms with exponential backoff (the sick-coffer discipline);
  // after the backoff ladder is exhausted the mappings are torn down anyway
  // and any stranded pages are left to fsck. Returns processes reaped.
  uint64_t ReapDeadProcesses();
  size_t DeadProcessCountForTest();

  // ---- channel registry (dead-process reclamation + the DestroyProcess /
  // FsUmount leak fix). Channels self-register so the kernel can find and
  // drain a process's rings when the owning µFS is gone or never got to run
  // its own DrainAll.
  void RegisterChannel(uint32_t pid, Channel* ch);
  void UnregisterChannel(uint32_t pid, Channel* ch);

  // An empty system call (used by the ZoFS-sysempty variant of Figure 8).
  void Nop();

  // Executes a batch of channel requests under a single KernelEntry: the
  // whole point of the submission ring — N queued requests, one crossing.
  // Every request is validated (magic tag, known op) before dispatch; a
  // corrupted entry completes with kInval without touching kernel state.
  // The crossing is attributed background iff every request is background.
  void ExecuteBatch(Process& proc, const std::vector<ChanRequest>& reqs,
                    std::vector<ChanCompletion>* out);

  // ---- FS operations (Table 5).
  Status FsMount(Process& proc);
  Status FsUmount(Process& proc);

  // ---- Coffer operations (Table 5).
  // Creates a coffer: allocates its root page plus `extra_pages` data pages,
  // writes the root page (path/type/permission, root-inode and custom page
  // offsets pointing at the first two extra pages), installs it in the
  // path-coffer map. The caller must have the coffer's parent mapped
  // writable, or be creating the filesystem root.
  Result<uint32_t> CofferNew(Process& proc, const std::string& path, uint32_t type, uint16_t mode,
                             uint32_t uid, uint32_t gid, uint64_t extra_pages = 2);

  // Deletes a coffer, returning all its pages to the free pool.
  Status CofferDelete(Process& proc, uint32_t coffer_id);

  // Allocates `n_pages` more pages to the coffer. Returns the runs granted.
  // Serialised by the global kernel lock — the contention the paper measures
  // in MWCL/DWAL (§6.1).
  Result<std::vector<PageRun>> CofferEnlarge(Process& proc, uint32_t coffer_id, uint64_t n_pages);

  // Returns free pages from the coffer to the global pool.
  Status CofferShrink(Process& proc, uint32_t coffer_id, const std::vector<PageRun>& runs);

  // Permission-checks and maps a coffer into the process: assigns the MPK
  // key of the coffer's protection class — same-(uid,gid,perm) coffers share
  // one key, and class-count overflow runs the LRU key window — and tags the
  // coffer's pages in the process's page-key table. Returns Err::kNoKeys
  // only once the process has formed 65535 distinct classes.
  Result<MapInfo> CofferMap(Process& proc, uint32_t coffer_id, bool writable);
  Status CofferUnmap(Process& proc, uint32_t coffer_id);

  // Key-window fault-in: ensures the protection class of a *mapped* coffer
  // holds a physical key again (LRU-evicting another class if the budget is
  // full) and retags every member coffer's pages. One crossing, no unmap, no
  // session-epoch invalidation; usually reached batched via ChanOp::kRetag.
  // Returns the refreshed MapInfo.
  Result<MapInfo> CofferRetag(Process& proc, uint32_t coffer_id);

  // Path-coffer map lookup (exact coffer path).
  Result<uint32_t> CofferFind(const std::string& path);

  // Splits `pages` out of `src` into a new coffer rooted at `new_path` with
  // the given permission. The first two moved pages become the new coffer's
  // root-inode and custom pages. Ownership is rewritten page-by-page in the
  // allocation table (deliberately expensive: Table 9). Returns the new
  // coffer's id.
  Result<uint32_t> CofferSplit(Process& proc, uint32_t src_id, const std::vector<PageRun>& pages,
                               const std::string& new_path, uint32_t type, uint16_t mode,
                               uint32_t uid, uint32_t gid, uint64_t new_root_inode_off,
                               uint64_t new_custom_off);

  // Moves page runs from coffer `src` to coffer `dst` (both mapped writable
  // by the caller). Ownership is rewritten page-by-page; this is the kernel
  // half of a cross-coffer rename (Table 9's second microbenchmark).
  Status CofferMovePages(Process& proc, uint32_t src_id, uint32_t dst_id,
                         const std::vector<PageRun>& pages);

  // Merges coffer `src` into `dst` (same permission required): all of src's
  // pages change owner, src leaves the path map. src's old root page is
  // handed to dst as a data page; its byte offset is returned so the µFS can
  // reclaim it.
  Result<uint64_t> CofferMerge(Process& proc, uint32_t dst_id, uint32_t src_id);

  // Marks the coffer in-recovery with a lease and unmaps it from every
  // process except the initiator (paper §3.5).
  Status CofferRecoverBegin(Process& proc, uint32_t coffer_id, uint64_t lease_ns);
  // The initiator reports in-use pages; the kernel reclaims the rest.
  // Returns the number of pages reclaimed.
  Result<uint64_t> CofferRecoverEnd(Process& proc, uint32_t coffer_id,
                                    const std::vector<uint64_t>& in_use_pages);

  // Updates the coffer path stored in the root page and the path map (used
  // by rename of a coffer root). Also rewrites the stored paths of child
  // coffers whose path has `old_path` as prefix.
  Status CofferRename(Process& proc, uint32_t coffer_id, const std::string& new_path);

  // Rewrites the stored path of every coffer under `old_prefix` to live
  // under `new_prefix` (used after a directory subtree moves between
  // coffers, so descendants' coffer paths stay consistent).
  Status CofferFixupPaths(Process& proc, const std::string& old_prefix,
                          const std::string& new_prefix);

  // Changes a coffer's permission (kernel-checked; owner or root only).
  Status CofferChmod(Process& proc, uint32_t coffer_id, uint16_t mode);
  Status CofferChown(Process& proc, uint32_t coffer_id, uint32_t uid, uint32_t gid);

  // ---- File operations (Table 5): mmap and execve need the kernel because
  // they change the page table / privilege state (paper §3.3).
  // Maps the given file pages directly into the process: the pages become
  // accessible to *application* code (default protection key) rather than
  // only inside µFS windows. The µFS supplies the page list (it knows the
  // file layout; the kernel only validates ownership).
  Status FileMmap(Process& proc, uint32_t coffer_id, const std::vector<uint64_t>& pages,
                  bool writable);
  // Restores the coffer-key tagging for previously mmapped pages. Like
  // FileMmap, refuses (EINVAL) a page the coffer does not own and its root page.
  Status FileMunmap(Process& proc, uint32_t coffer_id, const std::vector<uint64_t>& pages);
  // Validates and "loads" an executable image from the given pages (the
  // paper's file_execve). The simulation checks the exec permission and
  // returns a digest of the image in lieu of transferring control.
  Result<uint64_t> FileExecve(Process& proc, uint32_t coffer_id, uint16_t file_mode,
                              const std::vector<uint64_t>& pages, uint64_t image_size);

  // ---- Introspection (used by tests, fsck and the benchmarks).
  const CofferRoot* RootPageOf(uint32_t coffer_id) const;
  Result<std::vector<PageRun>> PagesOf(uint32_t coffer_id);
  uint64_t FreePages();
  std::vector<uint32_t> AllCofferIds();
  // Validates allocation-table invariants (run-length consistency, no
  // overlaps); returns an error description or empty string.
  std::string CheckAllocTableForTest();

 private:
  struct CofferInfo {
    uint32_t id = 0;
    uint64_t root_page = 0;
    std::map<uint64_t, uint64_t> runs;  // start_page -> len (includes root page)
    std::set<Process*> mapped_by;
  };

  // --- unmetered implementations -------------------------------------------
  // Each public Table-5 entry point is KernelEntry + DoX; internal callers
  // (the format constructor, ExecuteBatch) invoke DoX directly so kernel-
  // internal work never charges a second crossing or trips the non-reentrance
  // audit. Each DoX takes mu_ itself.
  Result<uint32_t> DoCofferNew(Process& proc, const std::string& path, uint32_t type,
                               uint16_t mode, uint32_t uid, uint32_t gid, uint64_t extra_pages);
  Result<std::vector<PageRun>> DoCofferEnlarge(Process& proc, uint32_t coffer_id,
                                               uint64_t n_pages);
  Status DoCofferShrink(Process& proc, uint32_t coffer_id, const std::vector<PageRun>& runs);
  Result<MapInfo> DoCofferMap(Process& proc, uint32_t coffer_id, bool writable);
  Result<MapInfo> DoCofferRetag(Process& proc, uint32_t coffer_id);

  // Ownership-validated run return (the body of DoCofferShrink, shared with
  // the reaper's grant reclamation, which validates ownership the same way
  // but skips the caller-mapped-writable check — the corpse obviously cannot
  // hold a mapping requirement).
  Status ShrinkRunLocked(CofferInfo* c, const PageRun& r) REQUIRES(mu_);
  // Stores every coffer's num_pages (recomputed from its run map), then
  // writes each back with its own fence.
  void PersistCofferSizeLocked(std::initializer_list<CofferInfo*> coffers) REQUIRES(mu_);

  // Drains every channel registered for `pid` (kernel-side): unharvested
  // enlarge grants return to the free pool, queued-but-unexecuted requests
  // are dropped. Takes each channel's own lock, then mu_ — never the
  // reverse. Returns pages reclaimed from grants; `*all_ok` reports whether
  // every grant validated (the reaper's backoff trigger).
  uint64_t ReclaimProcessChannels(uint32_t pid, bool* all_ok = nullptr);

  // --- allocation table (callers hold mu_) ---
  AllocEntry ReadEntry(uint64_t page) const REQUIRES(mu_);
  void WriteEntry(uint64_t page, uint32_t owner, uint32_t run_len) REQUIRES(mu_);
  Result<std::vector<PageRun>> AllocPages(uint64_t n, uint32_t owner) REQUIRES(mu_);
  void FreeRun(PageRun run) REQUIRES(mu_);
  void EraseSizeEntry(uint64_t len, uint64_t start) REQUIRES(mu_);
  // per-page rewrite (split/merge path)
  void SetRunOwner(PageRun run, uint32_t owner) REQUIRES(mu_);

  // --- path map (callers hold mu_) ---
  Result<uint64_t> PathMapLookup(const std::string& path) const REQUIRES(mu_);  // -> root page
  Status PathMapInsert(const std::string& path, uint64_t root_page) REQUIRES(mu_);
  Status PathMapErase(const std::string& path) REQUIRES(mu_);

  CofferInfo* FindCoffer(uint32_t id) REQUIRES(mu_);
  CofferRoot* RootOf(CofferInfo& c) REQUIRES(mu_);
  Status CheckMappedWritable(Process& proc, uint32_t coffer_id) REQUIRES(mu_);
  // The single sanctioned page-key store in the kernel (the direct-key-assign
  // lint funnel; see src/mpk/keyclass.h).
  void SetPageKeyLocked(Process& proc, uint64_t page, uint8_t tag) REQUIRES(mu_);
  void UnmapLocked(Process& proc, uint32_t coffer_id) REQUIRES(mu_);

  // --- page ownership (DESIGN.md §kernfs; callers hold mu_) ---
  // The tag rule: retags the pages of `runs` (run-map entries, PageRuns or
  // single pages) in `proc`'s page-key table as pages of `owner` (nullptr:
  // of no coffer). Without a mapping of `owner`, or while its class is
  // key-window evicted, a page is kUnmapped; otherwise it carries the class
  // key, plus kPageReadOnly on a read-only mapping and on the coffer root
  // page. The mapping is looked up once per call. Every page tag in the
  // kernel goes through here, except FileMmap's default-key tag.
  template <typename Runs>
  void TagLocked(Process& proc, const CofferInfo* owner, const Runs& runs) REQUIRES(mu_);
  // The run edit's validation: every run in bounds, owned by `c` in the
  // allocation table and not its root page, and no two runs overlapping.
  Status CheckRunsLocked(const CofferInfo& c, std::span<const PageRun> runs) REQUIRES(mu_);
  // The run edit: hands validated `runs` from `from` to `to` (nullptr on
  // either side: the free pool). Carves them out of from's run map, inserts
  // them into to's, retags them through the tag rule for every mapper of
  // either coffer, and then rewrites the allocation table page by page to
  // the new owner or frees them (a grant from AllocPages is already written).
  // The caller persists the sizes (PersistCofferSizeLocked).
  void MoveRunsLocked(CofferInfo* from, CofferInfo* to, std::span<const PageRun> runs)
      REQUIRES(mu_);

  // --- protection classes (ISSUE 10; callers hold mu_) ---
  // The (uid, gid, perm) triple of the coffer root.
  mpk::ProtClass ClassOfLocked(CofferInfo& c) REQUIRES(mu_);
  // Ensures the class behind `slot` holds a key; applies the LRU key-window
  // eviction (the victim class's pages go dark) and, on a fresh assignment,
  // retags this class's member pages. Returns the class's key.
  uint8_t EnsureClassKeyLocked(Process& proc, uint16_t slot) REQUIRES(mu_);
  // Re-homes a mapped coffer whose root triple changed (chmod/chown): drops
  // the old class membership, joins the new class, retags and bumps the
  // process's class generation.
  void MigrateClassLocked(Process& proc, CofferInfo& c,
                          const mpk::ProtClass& cls) REQUIRES(mu_);
  // Current effective tag base for a mapping: the class key, or kUnmapped
  // while the class is key-window evicted.
  uint8_t EffectiveKeyLocked(const Process& proc, const Process::Mapping& m) REQUIRES(mu_);
  // Writes and persists the root page of coffer `id` and returns its offset:
  // the one root-page writer, for new and split coffers.
  uint64_t WriteRootLocked(uint32_t id, const std::string& path, uint32_t type, uint16_t mode,
                           uint32_t uid, uint32_t gid, uint64_t num_pages,
                           uint64_t root_inode_off, uint64_t custom_off) REQUIRES(mu_);
  uint64_t PersistRootPath(CofferRoot* root, const std::string& path) REQUIRES(mu_);
  // Rewrites the stored path of every coffer but `except_id` under
  // `old_prefix` to live under `new_prefix` (CofferRename's descendants and
  // CofferFixupPaths).
  Status RewritePathsLocked(const std::string& old_prefix, const std::string& new_prefix,
                            uint32_t except_id) REQUIRES(mu_);

  nvm::NvmDevice* dev_;
  Superblock* sb_;
  AllocEntry* table_;  // volatile pointer into NVM
  uint64_t* buckets_;  // volatile pointer into NVM

  uint64_t crossing_ns_ = 300;
  uint32_t root_coffer_id_ = 0;
  uint32_t next_pid_ = 1;

  mutable common::Mutex mu_;  // the global kernel lock
  std::map<uint64_t, uint64_t> free_by_addr_ GUARDED_BY(mu_);       // start -> len
  std::multimap<uint64_t, uint64_t> free_by_size_ GUARDED_BY(mu_);  // len -> start
  std::unordered_map<uint32_t, CofferInfo> coffers_ GUARDED_BY(mu_);
  std::unordered_map<uint32_t, std::unique_ptr<Process>> procs_ GUARDED_BY(mu_);

  // The dead-process morgue: killed processes awaiting the reaper. Backoff
  // state mirrors the sick-coffer discipline (base 10 ms, doubling to 64x).
  struct DeadProc {
    std::unique_ptr<Process> proc;
    uint32_t fails = 0;
    uint64_t next_attempt_ns = 0;
  };
  std::unordered_map<uint32_t, DeadProc> dead_procs_ GUARDED_BY(mu_);

  // Channel registry. Its own mutex: registration happens at channel
  // construction (user context, no crossing) and the reaper walks it
  // WITHOUT holding mu_ (channel locks nest outside mu_, matching the
  // ExecuteBatch path where a channel holds its spinlock across the batch).
  common::Mutex chan_mu_;
  std::unordered_map<uint32_t, std::vector<Channel*>> channels_by_pid_ GUARDED_BY(chan_mu_);
};

// Process-wide count of simulated user->kernel crossings (KernelEntry
// constructions) since program start. Global across KernFs instances;
// benchmarks sample deltas around a measured phase to report crossings/op.
// Counted in per-thread stripes (src/common/striped_counter.h) and summed on
// read.
uint64_t CrossingCount();

// Foreground / background split of CrossingCount(). A crossing is background
// when it executes under a BackgroundCrossingScope — async-ring drains, lease
// housekeeping, backoff-driven recovery. Delta-sampling ForegroundCrossingCount
// around a measured phase no longer attributes background work to the
// foreground ops (the CrossingCount() mis-attribution bugfix). Each crossing
// bumps exactly one of the two, and CrossingCount() is their sum.
uint64_t ForegroundCrossingCount();
uint64_t BackgroundCrossingCount();

// Reaper accounting (process-wide, like the crossing counters): mappings
// unmapped and grant pages reclaimed from dead processes. bench_json samples
// deltas; the soak report totals them.
uint64_t ReapedMappingCount();
uint64_t ReapedGrantPageCount();

// RAII: while alive on this thread, every KernelEntry is attributed to the
// background counter instead of the foreground one. Nestable.
class BackgroundCrossingScope {
 public:
  BackgroundCrossingScope();
  ~BackgroundCrossingScope();
  BackgroundCrossingScope(const BackgroundCrossingScope&) = delete;
  BackgroundCrossingScope& operator=(const BackgroundCrossingScope&) = delete;
};

// RAII: models entering the kernel — charges the crossing cost and suspends
// MPK enforcement for the scope (kernel accesses are not subject to the
// user-mode PKRU). Under ZOFS_AUDIT=1 a nested construction aborts: an entry
// point calling another public entry point would double-charge the crossing
// (kernel-internal work must go through the unmetered Do* helpers).
class KernelEntry {
 public:
  explicit KernelEntry(uint64_t crossing_ns);
  ~KernelEntry();
  KernelEntry(const KernelEntry&) = delete;
  KernelEntry& operator=(const KernelEntry&) = delete;

 private:
  const mpk::PageKeyTable* saved_table_;
  uint32_t saved_pkru_;
};

}  // namespace kernfs

#endif  // SRC_KERNFS_KERNFS_H_
