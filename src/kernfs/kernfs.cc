#include "src/kernfs/kernfs.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/rand.h"
#include "src/common/striped_counter.h"
#include "src/kernfs/channel.h"

namespace kernfs {

namespace {

// A page run crossing the syscall boundary is hostile input: reject zero
// length, wrap-around, and out-of-device ranges before they index the
// allocation table.
bool RunInBounds(uint64_t num_pages, const PageRun& r) {
  return r.len != 0 && r.start_page < num_pages && r.len <= num_pages - r.start_page;
}

// Recompute a coffer's page count from the kernel's authoritative run map
// instead of doing arithmetic on the persistent (corruptible) num_pages.
uint64_t SumRuns(const std::map<uint64_t, uint64_t>& runs) {
  uint64_t n = 0;
  for (const auto& [start, len] : runs) {
    n += len;
  }
  return n;
}

// Merges adjacent entries of a coffer's run map.
void CoalesceRuns(std::map<uint64_t, uint64_t>* runs) {
  auto it = runs->begin();
  while (it != runs->end()) {
    auto next = std::next(it);
    if (next != runs->end() && it->first + it->second == next->first) {
      it->second += next->second;
      runs->erase(next);
    } else {
      ++it;
    }
  }
}

// Carves run `r` out of a coffer's run map, keeping the head and tail of
// every entry it overlaps. Enlarge grants are never coalesced, so one run
// may span adjacent entries.
void CarveRun(std::map<uint64_t, uint64_t>* runs, const PageRun& r) {
  const uint64_t end = r.start_page + r.len;
  auto it = runs->upper_bound(r.start_page);
  if (it != runs->begin() && std::prev(it)->first + std::prev(it)->second > r.start_page) {
    --it;
  }
  while (it != runs->end() && it->first < end) {
    const uint64_t start = it->first;
    const uint64_t stop = start + it->second;
    it = runs->erase(it);
    if (start < r.start_page) {
      (*runs)[start] = r.start_page - start;
    }
    if (stop > end) {
      (*runs)[end] = stop - end;
    }
  }
}

// The elements the tag rule walks: run-map entries, runs and single pages.
PageRun AsRun(const std::pair<const uint64_t, uint64_t>& e) { return PageRun{e.first, e.second}; }
PageRun AsRun(const PageRun& r) { return r; }
PageRun AsRun(uint64_t page) { return PageRun{page, 1}; }

}  // namespace

// ---------------------------------------------------------------------------
// KernelEntry

namespace {
// Each crossing counts as exactly one of foreground or background.
enum CrossingKind : size_t { kFgCrossing, kBgCrossing };
common::StripedCounters<2> g_crossings;
thread_local int t_bg_depth = 0;
// Non-reentrance audit: >0 while a KernelEntry is alive on this thread.
thread_local int t_kernel_depth = 0;

// Same semantics as audit::EnvEnabled() without linking src/audit into the
// kernel library.
bool AuditEnvEnabled() {
  static const bool on = [] {
    const char* v = getenv("ZOFS_AUDIT");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return on;
}
}  // namespace

uint64_t CrossingCount() { return ForegroundCrossingCount() + BackgroundCrossingCount(); }

uint64_t ForegroundCrossingCount() { return g_crossings.Sum(kFgCrossing); }

uint64_t BackgroundCrossingCount() { return g_crossings.Sum(kBgCrossing); }

namespace {
// Reaper accounting (process-wide, delta-sampled by bench_json).
std::atomic<uint64_t> g_reaped_mappings{0};
std::atomic<uint64_t> g_reaped_grant_pages{0};
}  // namespace

uint64_t ReapedMappingCount() { return g_reaped_mappings.load(std::memory_order_relaxed); }
uint64_t ReapedGrantPageCount() { return g_reaped_grant_pages.load(std::memory_order_relaxed); }

BackgroundCrossingScope::BackgroundCrossingScope() { t_bg_depth++; }
BackgroundCrossingScope::~BackgroundCrossingScope() { t_bg_depth--; }

KernelEntry::KernelEntry(uint64_t crossing_ns)
    : saved_table_(mpk::CurrentTable()), saved_pkru_(mpk::RdPkru()) {
  if (t_kernel_depth != 0 && AuditEnvEnabled()) {
    fprintf(stderr,
            "KernelEntry: nested kernel crossing (depth %d) — a public entry "
            "point called another public entry point; route kernel-internal "
            "work through the unmetered Do* helpers\n",
            t_kernel_depth);
    abort();
  }
  t_kernel_depth++;
  g_crossings.Add(t_bg_depth > 0 ? kBgCrossing : kFgCrossing, 1);
  // The kernel is not subject to the user PKRU / user page-key bits.
  mpk::BindThreadToProcess(nullptr);
  common::SpinNs(crossing_ns);
}

KernelEntry::~KernelEntry() {
  t_kernel_depth--;
  mpk::BindThreadToProcess(saved_table_);
  // KernelEntry IS the RAII window type for kernel crossings; the dtor
  // restores the PKRU captured at entry.
  // zofs-lint: allow(naked-wrpkru)
  mpk::WrPkru(saved_pkru_);
}

// ---------------------------------------------------------------------------
// Process

bool Process::HasMapped(uint32_t coffer_id) const { return mappings_.count(coffer_id) > 0; }

uint8_t Process::KeyFor(uint32_t coffer_id) const {
  auto it = mappings_.find(coffer_id);
  if (it == mappings_.end()) {
    return 0xff;
  }
  // The published assignment is authoritative (kUnmapped while the class is
  // key-window evicted); the cached Mapping::key may be stale.
  return key_classes_.PublishedKey(it->second.class_slot);
}

// ---------------------------------------------------------------------------
// Construction / format / open

KernFs::KernFs(nvm::NvmDevice* dev, const FormatOptions& opts) : dev_(dev) {
  const uint64_t num_pages = dev_->num_pages();
  const uint64_t table_bytes = num_pages * sizeof(AllocEntry);
  const uint64_t table_pages = (table_bytes + nvm::kPageSize - 1) / nvm::kPageSize;
  const uint64_t map_bytes = opts.path_map_buckets * sizeof(uint64_t);
  const uint64_t map_pages = (map_bytes + nvm::kPageSize - 1) / nvm::kPageSize;
  const uint64_t pool_start = 1 + table_pages + map_pages;
  assert(pool_start + 8 < num_pages && "device too small");

  sb_ = dev_->As<Superblock>(0);
  Superblock sb{};
  sb.magic = kSuperMagic;
  sb.version = 1;
  sb.num_pages = num_pages;
  sb.alloc_table_off = nvm::kPageSize;
  sb.alloc_table_pages = table_pages;
  sb.path_map_off = (1 + table_pages) * nvm::kPageSize;
  sb.path_map_buckets = opts.path_map_buckets;
  sb.pool_start_page = pool_start;
  sb.root_coffer_id = 0;
  dev_->StoreBytes(0, &sb, sizeof(sb));

  table_ = dev_->As<AllocEntry>(sb.alloc_table_off);
  buckets_ = dev_->As<uint64_t>(sb.path_map_off);

  // Kernel-reserved pages (superblock + tables) and an empty path map.
  for (uint64_t p = 0; p < pool_start; p++) {
    table_[p] = AllocEntry{kKernelOwner, static_cast<uint32_t>(pool_start - p)};
  }
  for (uint64_t p = pool_start; p < num_pages; p++) {
    table_[p] = AllocEntry{0, static_cast<uint32_t>(num_pages - p)};
  }
  memset(buckets_, 0, map_bytes);
  dev_->PersistRange(sb.alloc_table_off, table_bytes);
  dev_->PersistRange(sb.path_map_off, map_bytes);

  free_by_addr_.emplace(pool_start, num_pages - pool_start);
  free_by_size_.emplace(num_pages - pool_start, pool_start);

  // Create the root coffer ("/") with a synthetic root-credential process.
  // Kernel-internal: format runs inside the kernel already, so this goes
  // through the unmetered helper — the public CofferNew would charge a bogus
  // crossing to a call that never crossed (caught by the reentrance audit).
  Process boot(0, vfs::Cred{opts.root_uid, opts.root_gid}, num_pages);
  auto root = DoCofferNew(boot, "/", opts.root_type, opts.root_mode, opts.root_uid, opts.root_gid,
                          opts.initial_coffer_pages);
  assert(root.ok());
  root_coffer_id_ = *root;
  dev_->Store32(offsetof(Superblock, root_coffer_id), root_coffer_id_);
  dev_->PersistRange(0, sizeof(Superblock));
}

KernFs::KernFs(nvm::NvmDevice* dev) : dev_(dev) {
  sb_ = dev_->As<Superblock>(0);
  assert(sb_->magic == kSuperMagic && "device is not formatted");
  table_ = dev_->As<AllocEntry>(sb_->alloc_table_off);
  buckets_ = dev_->As<uint64_t>(sb_->path_map_off);
  root_coffer_id_ = sb_->root_coffer_id;

  // Rebuild the volatile indexes from the persistent allocation table.
  const uint64_t num_pages = sb_->num_pages;
  uint64_t p = sb_->pool_start_page;
  while (p < num_pages) {
    uint32_t owner = table_[p].coffer_id;
    uint64_t start = p;
    while (p < num_pages && table_[p].coffer_id == owner) {
      p++;
    }
    uint64_t len = p - start;
    if (owner == 0) {
      free_by_addr_.emplace(start, len);
      free_by_size_.emplace(len, start);
    } else if (owner != kKernelOwner) {
      CofferInfo& info = coffers_[owner];
      info.id = owner;
      info.root_page = owner;  // coffer id == root page index
      info.runs[start] = len;
    }
  }
  for (auto& [id, info] : coffers_) {
    CoalesceRuns(&info.runs);
  }
}

KernFs::~KernFs() = default;

// ---------------------------------------------------------------------------
// Allocation table

AllocEntry KernFs::ReadEntry(uint64_t page) const { return table_[page]; }

void KernFs::WriteEntry(uint64_t page, uint32_t owner, uint32_t run_len) {
  const uint64_t off = sb_->alloc_table_off + page * sizeof(AllocEntry);
  dev_->Store32(off, owner);
  dev_->Store32(off + 4, run_len);
}

Result<std::vector<PageRun>> KernFs::AllocPages(uint64_t n, uint32_t owner) {
  // n comes from user-controlled sizes (coffer_new extra pages, enlarge
  // batches); a wrapped or device-sized request must not reach the grant loop.
  if (n == 0 || n > dev_->num_pages()) {
    return Err::kInval;
  }
  std::vector<PageRun> granted;
  uint64_t remaining = n;
  while (remaining > 0) {
    if (free_by_size_.empty()) {
      // Roll back partial grants.
      for (const PageRun& r : granted) {
        FreeRun(r);
      }
      return Err::kNoSpc;
    }
    // Best fit: the smallest run that satisfies the request, else the
    // largest available run.
    auto it = free_by_size_.lower_bound(remaining);
    if (it == free_by_size_.end()) {
      it = std::prev(free_by_size_.end());
    }
    uint64_t run_len = it->first;
    uint64_t run_start = it->second;
    free_by_size_.erase(it);
    free_by_addr_.erase(run_start);

    uint64_t take = std::min(run_len, remaining);
    if (take < run_len) {
      // Return the tail to the free pool. Only the head entry's run length
      // is rewritten: interior run lengths are an acceleration hint
      // (Figure 3); correctness (remount scan, recovery) relies on the
      // per-page owner ids, which are untouched.
      uint64_t rest_start = run_start + take;
      uint64_t rest_len = run_len - take;
      free_by_addr_.emplace(rest_start, rest_len);
      free_by_size_.emplace(rest_len, rest_start);
      WriteEntry(rest_start, 0, static_cast<uint32_t>(rest_len));
      dev_->Clwb(sb_->alloc_table_off + rest_start * sizeof(AllocEntry), sizeof(AllocEntry));
    }
    for (uint64_t i = 0; i < take; i++) {
      WriteEntry(run_start + i, owner, static_cast<uint32_t>(take - i));
    }
    dev_->Clwb(sb_->alloc_table_off + run_start * sizeof(AllocEntry), take * sizeof(AllocEntry));
    granted.push_back(PageRun{run_start, take});
    remaining -= take;
  }
  dev_->Sfence();
  return granted;
}

void KernFs::EraseSizeEntry(uint64_t len, uint64_t start) {
  auto range = free_by_size_.equal_range(len);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == start) {
      free_by_size_.erase(it);
      return;
    }
  }
}

void KernFs::FreeRun(PageRun run) {
  for (uint64_t i = 0; i < run.len; i++) {
    WriteEntry(run.start_page + i, 0, static_cast<uint32_t>(run.len - i));
  }
  dev_->PersistRange(sb_->alloc_table_off + run.start_page * sizeof(AllocEntry),
                     run.len * sizeof(AllocEntry));
  // Coalesce with free neighbours.
  uint64_t start = run.start_page;
  uint64_t len = run.len;
  auto next = free_by_addr_.lower_bound(start);
  if (next != free_by_addr_.end() && start + len == next->first) {
    len += next->second;
    EraseSizeEntry(next->second, next->first);
    next = free_by_addr_.erase(next);
  }
  if (next != free_by_addr_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == start) {
      start = prev->first;
      len += prev->second;
      EraseSizeEntry(prev->second, prev->first);
      free_by_addr_.erase(prev);
    }
  }
  free_by_addr_.emplace(start, len);
  free_by_size_.emplace(len, start);
}

void KernFs::SetRunOwner(PageRun run, uint32_t owner) {
  // Deliberately page-at-a-time with a fence per page: changing the owner of
  // pages (coffer split/merge) is the expensive cross-coffer path of Table 9.
  for (uint64_t i = 0; i < run.len; i++) {
    WriteEntry(run.start_page + i, owner, static_cast<uint32_t>(run.len - i));
    dev_->PersistRange(sb_->alloc_table_off + (run.start_page + i) * sizeof(AllocEntry),
                       sizeof(AllocEntry));
  }
}

// ---------------------------------------------------------------------------
// Path-coffer hash table

Result<uint64_t> KernFs::PathMapLookup(const std::string& path) const {
  const uint64_t n = sb_->path_map_buckets;
  uint64_t idx = common::Fnv1a64(path) % n;
  for (uint64_t probe = 0; probe < n; probe++) {
    uint64_t v = buckets_[(idx + probe) % n];
    if (v == kBucketEmpty) {
      return Err::kNoEnt;
    }
    if (v == kBucketTombstone) {
      continue;
    }
    if (v % nvm::kPageSize != 0 || !dev_->Contains(v, sizeof(CofferRoot))) {
      continue;  // scribbled bucket; only aligned in-device offsets are roots
    }
    const auto* root = dev_->As<CofferRoot>(v);
    if (root->magic == kCofferMagic && path.compare(root->path) == 0) {
      return v;
    }
  }
  return Err::kNoEnt;
}

Status KernFs::PathMapInsert(const std::string& path, uint64_t root_page_off) {
  const uint64_t n = sb_->path_map_buckets;
  uint64_t idx = common::Fnv1a64(path) % n;
  for (uint64_t probe = 0; probe < n; probe++) {
    uint64_t slot = (idx + probe) % n;
    uint64_t v = buckets_[slot];
    if (v == kBucketEmpty || v == kBucketTombstone) {
      dev_->Store64(sb_->path_map_off + slot * 8, root_page_off);
      dev_->PersistRange(sb_->path_map_off + slot * 8, 8);
      return common::OkStatus();
    }
  }
  return Err::kNoSpc;
}

Status KernFs::PathMapErase(const std::string& path) {
  const uint64_t n = sb_->path_map_buckets;
  uint64_t idx = common::Fnv1a64(path) % n;
  for (uint64_t probe = 0; probe < n; probe++) {
    uint64_t slot = (idx + probe) % n;
    uint64_t v = buckets_[slot];
    if (v == kBucketEmpty) {
      return Err::kNoEnt;
    }
    if (v == kBucketTombstone) {
      continue;
    }
    if (v % nvm::kPageSize != 0 || !dev_->Contains(v, sizeof(CofferRoot))) {
      continue;
    }
    const auto* root = dev_->As<CofferRoot>(v);
    if (root->magic == kCofferMagic && path.compare(root->path) == 0) {
      dev_->Store64(sb_->path_map_off + slot * 8, kBucketTombstone);
      dev_->PersistRange(sb_->path_map_off + slot * 8, 8);
      return common::OkStatus();
    }
  }
  return Err::kNoEnt;
}

// ---------------------------------------------------------------------------
// Helpers

KernFs::CofferInfo* KernFs::FindCoffer(uint32_t id) {
  auto it = coffers_.find(id);
  return it == coffers_.end() ? nullptr : &it->second;
}

CofferRoot* KernFs::RootOf(CofferInfo& c) {
  return dev_->As<CofferRoot>(c.root_page * nvm::kPageSize);
}

Status KernFs::CheckMappedWritable(Process& proc, uint32_t coffer_id) {
  auto it = proc.mappings_.find(coffer_id);
  if (it == proc.mappings_.end()) {
    return Err::kAcces;
  }
  if (!it->second.writable) {
    return Err::kROFS;
  }
  return common::OkStatus();
}

void KernFs::SetPageKeyLocked(Process& proc, uint64_t page, uint8_t tag) {
  // The ONE page-key store outside src/mpk (see the keyclass.h contract):
  // every "page table" key-bit update in the kernel funnels through here so
  // the direct-key-assign lint can flag strays.
  // zofs-lint: allow(direct-key-assign) — the sanctioned kernel page-tag sink
  proc.page_keys_[page] = tag;
}

// ---------------------------------------------------------------------------
// Page ownership: the tag rule and the run edit (DESIGN.md §kernfs)

template <typename Runs>
void KernFs::TagLocked(Process& proc, const CofferInfo* owner, const Runs& runs) {
  // An evicted class's key reads kUnmapped, and so does no mapping at all;
  // the read-only bit leaves kUnmapped as it is.
  static_assert((mpk::kUnmapped | mpk::kPageReadOnly) == mpk::kUnmapped);
  auto it = owner == nullptr ? proc.mappings_.end() : proc.mappings_.find(owner->id);
  const uint8_t key = it == proc.mappings_.end() ? mpk::kUnmapped
                                                 : EffectiveKeyLocked(proc, it->second);
  const auto root_tag = static_cast<uint8_t>(key | mpk::kPageReadOnly);
  const uint8_t tag = it != proc.mappings_.end() && it->second.writable ? key : root_tag;
  const uint64_t root_page = owner == nullptr ? 0 : owner->root_page;
  for (const auto& e : runs) {
    const PageRun r = AsRun(e);
    for (uint64_t p = r.start_page; p < r.start_page + r.len; p++) {
      SetPageKeyLocked(proc, p, p == root_page ? root_tag : tag);
    }
  }
}

Status KernFs::CheckRunsLocked(const CofferInfo& c, std::span<const PageRun> runs) {
  for (const PageRun& r : runs) {
    if (!RunInBounds(sb_->num_pages, r)) {
      return Err::kInval;
    }
    for (uint64_t p = r.start_page; p < r.start_page + r.len; p++) {
      if (ReadEntry(p).coffer_id != c.id || p == c.root_page) {
        return Err::kInval;
      }
    }
  }
  if (runs.size() > 1) {
    // Overlapping runs would hand the same pages over twice.
    std::vector<PageRun> sorted(runs.begin(), runs.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const PageRun& a, const PageRun& b) { return a.start_page < b.start_page; });
    for (size_t i = 1; i < sorted.size(); i++) {
      if (sorted[i - 1].start_page + sorted[i - 1].len > sorted[i].start_page) {
        return Err::kInval;
      }
    }
  }
  return common::OkStatus();
}

void KernFs::MoveRunsLocked(CofferInfo* from, CofferInfo* to, std::span<const PageRun> runs) {
  for (const PageRun& r : runs) {
    if (from != nullptr) {
      CarveRun(&from->runs, r);
    }
    if (to != nullptr) {
      to->runs[r.start_page] = r.len;
    }
  }
  // Access is revoked before the pages change owner on NVM.
  for (const CofferInfo* c : {from, to}) {
    if (c != nullptr) {
      for (Process* p : c->mapped_by) {
        TagLocked(*p, to, runs);
      }
    }
  }
  if (from == nullptr) {
    return;
  }
  for (const PageRun& r : runs) {
    if (to != nullptr) {
      SetRunOwner(r, to->id);
    } else {
      FreeRun(r);
    }
  }
}

void KernFs::PersistCofferSizeLocked(std::initializer_list<CofferInfo*> coffers) {
  auto size_off = [](const CofferInfo* c) {
    return c->root_page * nvm::kPageSize + offsetof(CofferRoot, num_pages);
  };
  for (CofferInfo* c : coffers) {
    dev_->Store64(size_off(c), SumRuns(c->runs));
  }
  for (CofferInfo* c : coffers) {
    dev_->PersistRange(size_off(c), 8);
  }
}

// ---------------------------------------------------------------------------
// Protection classes (ISSUE 10)

mpk::ProtClass KernFs::ClassOfLocked(CofferInfo& c) {
  CofferRoot* root = RootOf(c);
  return mpk::ProtClass{root->uid, root->gid, root->mode};
}

uint8_t KernFs::EnsureClassKeyLocked(Process& proc, uint16_t slot) {
  uint16_t evicted = mpk::KeyClassTable::kNoSlot;
  bool fresh = false;
  const uint8_t key = proc.key_classes_.EnsureKey(slot, &evicted, &fresh);
  // LRU key-window eviction moves only the victim class's key assignment:
  // its mappings, refcounts and the µFS session caches stay intact, and its
  // pages go dark (kUnmapped) until the next access faults the class back in
  // through CofferRetag. No unmap, no session-epoch bump. A fresh assignment
  // (the fault-in) retags every member coffer under the class key.
  for (const uint16_t retag : {evicted, fresh ? slot : mpk::KeyClassTable::kNoSlot}) {
    if (retag == mpk::KeyClassTable::kNoSlot) {
      continue;
    }
    uint64_t pages = 0;
    for (uint32_t cid : proc.key_classes_.Members(retag)) {
      if (const CofferInfo* c = FindCoffer(cid); c != nullptr) {
        TagLocked(proc, c, c->runs);
        pages += SumRuns(c->runs);
      }
    }
    mpk::internal::NoteRetagPages(pages);
  }
  return key;
}

void KernFs::MigrateClassLocked(Process& proc, CofferInfo& c, const mpk::ProtClass& cls) {
  auto it = proc.mappings_.find(c.id);
  if (it == proc.mappings_.end()) {
    return;
  }
  Process::Mapping& m = it->second;
  const uint16_t ns = proc.key_classes_.SlotFor(cls);
  if (ns == m.class_slot) {
    return;
  }
  if (ns == mpk::KeyClassTable::kNoSlot) {
    return;  // slot space used up: conservatively keep the old class
  }
  proc.key_classes_.Release(m.class_slot, c.id);
  m.class_slot = ns;
  proc.key_classes_.Retain(ns, c.id);
  EnsureClassKeyLocked(proc, ns);
  TagLocked(proc, &c, c.runs);
  proc.class_gen_.fetch_add(1, std::memory_order_release);
}

uint8_t KernFs::EffectiveKeyLocked(const Process& proc, const Process::Mapping& m) {
  return proc.key_classes_.PublishedKey(m.class_slot);
}

uint64_t KernFs::WriteRootLocked(uint32_t id, const std::string& path, uint32_t type,
                                 uint16_t mode, uint32_t uid, uint32_t gid, uint64_t num_pages,
                                 uint64_t root_inode_off, uint64_t custom_off) {
  const uint64_t root_off = static_cast<uint64_t>(id) * nvm::kPageSize;
  CofferRoot root{};
  root.magic = kCofferMagic;
  root.coffer_id = id;
  root.type = type;
  root.uid = uid;
  root.gid = gid;
  root.mode = mode;
  root.root_inode_off = root_inode_off;
  root.custom_off = custom_off;
  root.num_pages = num_pages;
  root.path_len = static_cast<uint16_t>(path.size());
  memcpy(root.path, path.c_str(), path.size() + 1);
  dev_->StoreBytes(root_off, &root, sizeof(root));
  dev_->PersistRange(root_off, sizeof(root));
  return root_off;
}

uint64_t KernFs::PersistRootPath(CofferRoot* root, const std::string& path) {
  const uint64_t base = dev_->OffsetOf(root);
  dev_->Store16(base + offsetof(CofferRoot, path_len), static_cast<uint16_t>(path.size()));
  dev_->StoreBytes(base + offsetof(CofferRoot, path), path.c_str(), path.size() + 1);
  dev_->PersistRange(base + offsetof(CofferRoot, path_len),
                     sizeof(uint16_t) + path.size() + 1 + offsetof(CofferRoot, path) -
                         offsetof(CofferRoot, path_len));
  return base;
}

// ---------------------------------------------------------------------------
// Process management

Process* KernFs::CreateProcess(vfs::Cred cred) {
  common::MutexLock lk(&mu_);
  uint32_t pid = next_pid_++;
  auto proc = std::unique_ptr<Process>(new Process(pid, cred, dev_->num_pages()));
  Process* raw = proc.get();
  procs_[pid] = std::move(proc);
  return raw;
}

void KernFs::DestroyProcess(Process* proc) {
  // Drain the process's channel rings first: unharvested async enlarge
  // grants live only in DRAM, so erasing the process without returning them
  // would strand their pages until the next fsck (the PR-9 leak fix).
  ReclaimProcessChannels(proc->pid());
  common::MutexLock lk(&mu_);
  std::vector<uint32_t> mapped;
  for (const auto& [id, m] : proc->mappings_) {
    mapped.push_back(id);
  }
  for (uint32_t id : mapped) {
    UnmapLocked(*proc, id);
  }
  procs_.erase(proc->pid());
}

KillStats KernFs::KillProcess(Process* proc, const KillOptions& opts) {
  KillStats st;
  if (opts.stray_writes > 0) {
    // The death burst runs in the victim's user context: its page-key table
    // bound, one writable window at a time — exactly the access a scribbling
    // dying thread has. Every store is probed through the MPK oracle first
    // (the device hook would throw on a blocked store); blocked attempts are
    // the containment the soak's page-diff oracle cross-checks.
    std::vector<std::pair<uint32_t, uint8_t>> targets;
    {
      common::MutexLock lk(&mu_);
      for (const auto& [cid, m] : proc->mappings_) {
        if (!m.writable) {
          continue;
        }
        if (std::find(opts.spare_coffers.begin(), opts.spare_coffers.end(), cid) !=
            opts.spare_coffers.end()) {
          continue;
        }
        const uint8_t key = EffectiveKeyLocked(*proc, m);
        if (key == mpk::kUnmapped) {
          continue;  // class key-window evicted: no key to open a window with
        }
        targets.emplace_back(cid, key);
      }
    }
    std::sort(targets.begin(), targets.end());  // mappings_ iteration order is not
    // The coffer's own pages, so half the burst aims where a scribbling
    // thread realistically scribbles: memory it legitimately has mapped.
    // Those stores land (legal damage to the victim's own data); the other
    // half sprays the whole device and must be blocked.
    std::vector<std::vector<PageRun>> own_runs(targets.size());
    for (size_t t = 0; t < targets.size(); t++) {
      auto runs = PagesOf(targets[t].first);
      if (runs.ok()) {
        own_runs[t] = std::move(*runs);
      }
    }
    const mpk::PageKeyTable* saved = mpk::CurrentTable();
    proc->BindCurrentThread();
    common::Rng rng(opts.seed);
    for (size_t t = 0; t < targets.size(); t++) {
      mpk::AccessWindow w(targets[t].second, /*writable=*/true);
      for (uint64_t i = 0; i < opts.stray_writes; i++) {
        uint64_t off;
        if (i % 2 == 0 || own_runs[t].empty()) {
          off = rng.Below(dev_->size() / 8) * 8;  // device-wide spray
        } else {
          const PageRun& r = own_runs[t][rng.Below(own_runs[t].size())];
          const uint64_t page = r.start_page + rng.Below(r.len);
          off = page * nvm::kPageSize + rng.Below(nvm::kPageSize / 8) * 8;
        }
        st.stray_attempted++;
        if (mpk::ProbeAccess(off, 8, /*is_write=*/true)) {
          dev_->Store64(off, rng.Next());
          st.stray_landed++;
        } else {
          st.stray_blocked++;
        }
      }
    }
    mpk::BindThreadToProcess(saved);
  }

  // Death proper: the process moves to the morgue exactly as it stands — no
  // unmap, no key release, no channel drain, no lease release. Its MPK keys
  // and mappings stay consumed (realistic pressure) until the reaper runs.
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  auto it = procs_.find(proc->pid());
  if (it != procs_.end()) {
    DeadProc d;
    d.proc = std::move(it->second);
    d.next_attempt_ns = common::NowNs();
    procs_.erase(it);
    dead_procs_[proc->pid()] = std::move(d);
  }
  return st;
}

uint64_t KernFs::ReapDeadProcesses() {
  KernelEntry enter(crossing_ns_);
  const uint64_t now = common::NowNs();
  std::vector<uint32_t> ready;
  {
    common::MutexLock lk(&mu_);
    for (const auto& [pid, d] : dead_procs_) {
      if (d.next_attempt_ns <= now) {
        ready.push_back(pid);
      }
    }
  }
  std::sort(ready.begin(), ready.end());

  uint64_t reaped = 0;
  for (uint32_t pid : ready) {
    // Channel reclamation takes each channel's own lock and then mu_ — the
    // same order as a live thread's batch path — so it must run before we
    // take mu_ here.
    bool all_ok = true;
    g_reaped_grant_pages.fetch_add(ReclaimProcessChannels(pid, &all_ok),
                                   std::memory_order_relaxed);
    common::MutexLock lk(&mu_);
    auto it = dead_procs_.find(pid);
    if (it == dead_procs_.end()) {
      continue;
    }
    if (!all_ok && it->second.fails <= 6) {
      // Partial reclaim: re-arm with the sick-coffer backoff shape (base
      // 10 ms, doubling, shift capped at 6). Past the ladder we tear the
      // mappings down anyway and leave stranded pages to fsck.
      it->second.fails++;
      it->second.next_attempt_ns =
          now + (uint64_t{10'000'000} << std::min<uint32_t>(it->second.fails, 6));
      continue;
    }
    Process* p = it->second.proc.get();
    std::vector<uint32_t> mapped;
    for (const auto& [cid, m] : p->mappings_) {
      mapped.push_back(cid);
    }
    std::sort(mapped.begin(), mapped.end());
    for (uint32_t cid : mapped) {
      UnmapLocked(*p, cid);
    }
    g_reaped_mappings.fetch_add(mapped.size(), std::memory_order_relaxed);
    dead_procs_.erase(it);
    reaped++;
  }
  return reaped;
}

size_t KernFs::DeadProcessCountForTest() {
  common::MutexLock lk(&mu_);
  return dead_procs_.size();
}

void KernFs::RegisterChannel(uint32_t pid, Channel* ch) {
  common::MutexLock lk(&chan_mu_);
  channels_by_pid_[pid].push_back(ch);
}

void KernFs::UnregisterChannel(uint32_t pid, Channel* ch) {
  common::MutexLock lk(&chan_mu_);
  auto it = channels_by_pid_.find(pid);
  if (it == channels_by_pid_.end()) {
    return;
  }
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), ch), v.end());
  if (v.empty()) {
    channels_by_pid_.erase(it);
  }
}

uint64_t KernFs::ReclaimProcessChannels(uint32_t pid, bool* all_ok) {
  std::vector<Channel*> chans;
  {
    common::MutexLock lk(&chan_mu_);
    auto it = channels_by_pid_.find(pid);
    if (it != channels_by_pid_.end()) {
      chans = it->second;
    }
  }
  uint64_t pages = 0;
  bool ok = true;
  for (Channel* ch : chans) {
    auto grants = ch->ReapForKernel();
    common::MutexLock lk(&mu_);
    for (const auto& [cid, runs] : grants) {
      CofferInfo* c = FindCoffer(cid);
      if (c == nullptr) {
        ok = false;  // coffer deleted with the grant outstanding
        continue;
      }
      bool changed = false;
      for (const PageRun& r : runs) {
        if (ShrinkRunLocked(c, r).ok()) {
          pages += r.len;
          changed = true;
        } else {
          ok = false;
        }
      }
      if (changed) {
        PersistCofferSizeLocked({c});
      }
    }
  }
  if (all_ok != nullptr) {
    *all_ok = ok;
  }
  return pages;
}

void KernFs::Nop() { KernelEntry enter(crossing_ns_); }

Status KernFs::FsMount(Process& proc) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  if (proc.fslib_mounted_) {
    return Err::kBusy;
  }
  proc.fslib_mounted_ = true;
  return common::OkStatus();
}

Status KernFs::FsUmount(Process& proc) {
  KernelEntry enter(crossing_ns_);
  // Same leak fix as DestroyProcess: rings drained (and unharvested grants
  // returned) before the mappings go away. Channel locks nest outside mu_.
  ReclaimProcessChannels(proc.pid());
  common::MutexLock lk(&mu_);
  if (!proc.fslib_mounted_) {
    return Err::kInval;
  }
  std::vector<uint32_t> mapped;
  for (const auto& [id, m] : proc.mappings_) {
    mapped.push_back(id);
  }
  for (uint32_t id : mapped) {
    UnmapLocked(proc, id);
  }
  proc.fslib_mounted_ = false;
  return common::OkStatus();
}

// ---------------------------------------------------------------------------
// Coffer operations

Result<uint32_t> KernFs::CofferNew(Process& proc, const std::string& path, uint32_t type,
                                   uint16_t mode, uint32_t uid, uint32_t gid,
                                   uint64_t extra_pages) {
  KernelEntry enter(crossing_ns_);
  return DoCofferNew(proc, path, type, mode, uid, gid, extra_pages);
}

Result<uint32_t> KernFs::DoCofferNew(Process& proc, const std::string& path, uint32_t type,
                                     uint16_t mode, uint32_t uid, uint32_t gid,
                                     uint64_t extra_pages) {
  if (path.empty() || path[0] != '/' || path.size() >= kMaxCofferPath) {
    return Err::kInval;
  }
  common::MutexLock lk(&mu_);
  if (PathMapLookup(path).ok()) {
    return Err::kExist;
  }

  ASSIGN_OR_RETURN(runs, AllocPages(1 + extra_pages, /*owner=*/0));
  // The first page of the first run is the root page; its index is the id.
  // Rewrite ownership now that the id is known.
  uint32_t id = static_cast<uint32_t>(runs[0].start_page);
  for (const PageRun& r : runs) {
    for (uint64_t i = 0; i < r.len; i++) {
      WriteEntry(r.start_page + i, id, static_cast<uint32_t>(r.len - i));
    }
    dev_->Clwb(sb_->alloc_table_off + r.start_page * sizeof(AllocEntry),
               r.len * sizeof(AllocEntry));
  }
  dev_->Sfence();

  // The µFS pages: first extra page is the root-file inode, second is the
  // custom page (Figure 5). Collect the first two non-root pages.
  uint64_t mu_pages[2] = {0, 0};
  int found = 0;
  for (const PageRun& r : runs) {
    for (uint64_t p = r.start_page; p < r.start_page + r.len && found < 2; p++) {
      if (p == id) {
        continue;
      }
      mu_pages[found++] = p;
    }
  }
  const uint64_t root_off = WriteRootLocked(id, path, type, mode, uid, gid, 1 + extra_pages,
                                            found >= 1 ? mu_pages[0] * nvm::kPageSize : 0,
                                            found >= 2 ? mu_pages[1] * nvm::kPageSize : 0);
  RETURN_IF_ERROR(PathMapInsert(path, root_off));

  CofferInfo info;
  info.id = id;
  info.root_page = id;
  for (const PageRun& r : runs) {
    info.runs[r.start_page] = r.len;
  }
  coffers_[id] = std::move(info);
  return id;
}

Status KernFs::CofferDelete(Process& proc, uint32_t coffer_id) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  if (coffer_id == root_coffer_id_) {
    return Err::kBusy;
  }
  CofferRoot* root = RootOf(*c);
  if (!proc.cred().IsRoot() &&
      !vfs::PermitsAccess(proc.cred(), root->uid, root->gid, root->mode, false, true)) {
    return Err::kAcces;
  }
  // Unmap from every process first (UnmapLocked releases the class refcount;
  // iterate a copy — it erases from mapped_by).
  std::vector<Process*> mappers(c->mapped_by.begin(), c->mapped_by.end());
  for (Process* p : mappers) {
    UnmapLocked(*p, coffer_id);
  }

  PathMapErase(root->path);
  // Invalidate the root page magic so stale path-map probes cannot match.
  dev_->Store64(c->root_page * nvm::kPageSize, 0);
  dev_->PersistRange(c->root_page * nvm::kPageSize, 8);
  for (const auto& [start, len] : c->runs) {
    FreeRun(PageRun{start, len});
  }
  coffers_.erase(coffer_id);
  return common::OkStatus();
}

Result<std::vector<PageRun>> KernFs::CofferEnlarge(Process& proc, uint32_t coffer_id,
                                                   uint64_t n_pages) {
  KernelEntry enter(crossing_ns_);
  return DoCofferEnlarge(proc, coffer_id, n_pages);
}

Result<std::vector<PageRun>> KernFs::DoCofferEnlarge(Process& proc, uint32_t coffer_id,
                                                     uint64_t n_pages) {
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  RETURN_IF_ERROR(CheckMappedWritable(proc, coffer_id));
  ASSIGN_OR_RETURN(runs, AllocPages(n_pages, coffer_id));

  // Record ownership and extend the mappings of every process that has the
  // coffer mapped (the kernel updating page tables).
  MoveRunsLocked(nullptr, c, runs);
  PersistCofferSizeLocked({c});
  return runs;
}

Status KernFs::CofferShrink(Process& proc, uint32_t coffer_id, const std::vector<PageRun>& runs) {
  KernelEntry enter(crossing_ns_);
  return DoCofferShrink(proc, coffer_id, runs);
}

Status KernFs::ShrinkRunLocked(CofferInfo* c, const PageRun& r) {
  RETURN_IF_ERROR(CheckRunsLocked(*c, {&r, 1}));
  MoveRunsLocked(c, nullptr, {&r, 1});
  return common::OkStatus();
}

Status KernFs::DoCofferShrink(Process& proc, uint32_t coffer_id,
                              const std::vector<PageRun>& runs) {
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  RETURN_IF_ERROR(CheckMappedWritable(proc, coffer_id));
  for (const PageRun& r : runs) {
    RETURN_IF_ERROR(ShrinkRunLocked(c, r));
  }
  PersistCofferSizeLocked({c});
  return common::OkStatus();
}

Result<MapInfo> KernFs::CofferMap(Process& proc, uint32_t coffer_id, bool writable) {
  KernelEntry enter(crossing_ns_);
  return DoCofferMap(proc, coffer_id, writable);
}

Result<MapInfo> KernFs::DoCofferMap(Process& proc, uint32_t coffer_id, bool writable) {
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  CofferRoot* root = RootOf(*c);
  if (root->magic != kCofferMagic) {
    return Err::kCorrupt;  // root page scribbled since mount; refuse to map
  }
  if (root->flags & kCofferInRecovery) {
    return Err::kBusy;
  }
  if (!vfs::PermitsAccess(proc.cred(), root->uid, root->gid, root->mode, /*want_read=*/true,
                          writable)) {
    return Err::kAcces;
  }

  MapInfo info;
  info.writable = writable;
  info.type = root->type;
  info.root_page_off = c->root_page * nvm::kPageSize;
  info.root_inode_off = root->root_inode_off;
  info.custom_off = root->custom_off;
  info.class_gen = proc.class_gen_.load(std::memory_order_relaxed);

  auto it = proc.mappings_.find(coffer_id);
  if (it != proc.mappings_.end()) {
    Process::Mapping& m = it->second;
    // Already mapped: a remap doubles as the key-window fault-in, and
    // upgrading read-only -> writable re-tags.
    info.key = EnsureClassKeyLocked(proc, m.class_slot);
    if (writable && !m.writable) {
      if (!vfs::PermitsAccess(proc.cred(), root->uid, root->gid, root->mode, true, true)) {
        return Err::kAcces;
      }
      m.writable = true;
      TagLocked(proc, c, c->runs);
    }
    info.writable = m.writable;
    info.class_slot = m.class_slot;
    return info;
  }

  // Key assignment; 15 usable regions (paper §3.4.2). The coffer joins its
  // protection class and shares that class's key — EnsureClassKeyLocked
  // runs the LRU key window when all 15 are assigned.
  const uint16_t slot = proc.key_classes_.SlotFor(ClassOfLocked(*c));
  if (slot == mpk::KeyClassTable::kNoSlot) {
    return Err::kNoKeys;
  }
  info.key = EnsureClassKeyLocked(proc, slot);
  proc.key_classes_.Retain(slot, coffer_id);
  proc.mappings_[coffer_id] = Process::Mapping{writable, slot};
  c->mapped_by.insert(&proc);
  TagLocked(proc, c, c->runs);
  info.class_slot = slot;
  return info;
}

void KernFs::UnmapLocked(Process& proc, uint32_t coffer_id) {
  auto it = proc.mappings_.find(coffer_id);
  if (it == proc.mappings_.end()) {
    return;
  }
  // Release is idempotent per (slot, coffer): the reaper racing a queued
  // retag for a dead tenant drops each mapping's refcount exactly once.
  proc.key_classes_.Release(it->second.class_slot, coffer_id);
  proc.mappings_.erase(it);
  if (CofferInfo* c = FindCoffer(coffer_id); c != nullptr) {
    c->mapped_by.erase(&proc);
    TagLocked(proc, c, c->runs);  // no mapping left: every page goes dark
  }
}

Status KernFs::CofferUnmap(Process& proc, uint32_t coffer_id) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  if (!proc.HasMapped(coffer_id)) {
    return Err::kInval;
  }
  UnmapLocked(proc, coffer_id);
  return common::OkStatus();
}

Result<MapInfo> KernFs::CofferRetag(Process& proc, uint32_t coffer_id) {
  KernelEntry enter(crossing_ns_);
  return DoCofferRetag(proc, coffer_id);
}

Result<MapInfo> KernFs::DoCofferRetag(Process& proc, uint32_t coffer_id) {
  common::MutexLock lk(&mu_);
  auto it = proc.mappings_.find(coffer_id);
  if (it == proc.mappings_.end()) {
    return Err::kInval;
  }
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  CofferRoot* root = RootOf(*c);
  MapInfo info;
  info.writable = it->second.writable;
  info.type = root->type;
  info.root_page_off = c->root_page * nvm::kPageSize;
  info.root_inode_off = root->root_inode_off;
  info.custom_off = root->custom_off;
  info.class_slot = it->second.class_slot;
  info.class_gen = proc.class_gen_.load(std::memory_order_relaxed);
  info.key = EnsureClassKeyLocked(proc, it->second.class_slot);
  return info;
}

// ---------------------------------------------------------------------------
// Batched execution (the channel's drain path)

void KernFs::ExecuteBatch(Process& proc, const std::vector<ChanRequest>& reqs,
                          std::vector<ChanCompletion>* out) {
  if (reqs.empty()) {
    return;
  }
  // The crossing is background iff nothing in the batch is a foreground
  // request: async housekeeping riding alone must not pollute the foreground
  // counter the benchmarks gate on.
  bool all_background = true;
  for (const ChanRequest& r : reqs) {
    all_background = all_background && r.background;
  }
  std::unique_ptr<BackgroundCrossingScope> bg;
  if (all_background) {
    bg = std::make_unique<BackgroundCrossingScope>();
  }
  KernelEntry enter(crossing_ns_);
  for (const ChanRequest& r : reqs) {
    ChanCompletion c;
    c.op = r.op;
    c.coffer_id = r.coffer_id;
    c.seq = r.seq;
    c.background = r.background;
    if (r.magic != kChanReqMagic) {
      // Scribbled in-flight entry: refuse without dispatching. The submission
      // ring is volatile DRAM, so this is detection, not recovery.
      c.status = Err::kInval;
      out->push_back(std::move(c));
      continue;
    }
    switch (r.op) {
      case ChanOp::kNop:
        break;
      case ChanOp::kMap: {
        auto info = DoCofferMap(proc, r.coffer_id, r.writable);
        if (info.ok()) {
          c.map_info = *info;
        } else {
          c.status = info.error();
        }
        break;
      }
      case ChanOp::kEnlarge: {
        auto runs = DoCofferEnlarge(proc, r.coffer_id, r.n_pages);
        if (runs.ok()) {
          c.runs = std::move(*runs);
        } else {
          c.status = runs.error();
        }
        break;
      }
      case ChanOp::kShrink:
        c.status = DoCofferShrink(proc, r.coffer_id, r.runs);
        break;
      case ChanOp::kRetag: {
        auto info = DoCofferRetag(proc, r.coffer_id);
        if (info.ok()) {
          c.map_info = *info;
        } else {
          c.status = info.error();
        }
        break;
      }
      default:
        c.status = Err::kInval;  // out-of-range op byte: corrupted entry
        break;
    }
    out->push_back(std::move(c));
  }
}

Result<uint32_t> KernFs::CofferFind(const std::string& path) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  ASSIGN_OR_RETURN(root_off, PathMapLookup(path));
  return dev_->As<CofferRoot>(root_off)->coffer_id;
}

Result<uint32_t> KernFs::CofferSplit(Process& proc, uint32_t src_id,
                                     const std::vector<PageRun>& pages,
                                     const std::string& new_path, uint32_t type, uint16_t mode,
                                     uint32_t uid, uint32_t gid, uint64_t new_root_inode_off,
                                     uint64_t new_custom_off) {
  KernelEntry enter(crossing_ns_);
  if (new_path.empty() || new_path[0] != '/' || new_path.size() >= kMaxCofferPath) {
    return Err::kInval;
  }
  common::MutexLock lk(&mu_);
  CofferInfo* src = FindCoffer(src_id);
  if (src == nullptr) {
    return Err::kNoEnt;
  }
  RETURN_IF_ERROR(CheckMappedWritable(proc, src_id));
  if (PathMapLookup(new_path).ok()) {
    return Err::kExist;
  }
  RETURN_IF_ERROR(CheckRunsLocked(*src, pages));

  // New root page.
  ASSIGN_OR_RETURN(root_runs, AllocPages(1, 0));
  const uint32_t new_id = static_cast<uint32_t>(root_runs[0].start_page);
  WriteEntry(new_id, new_id, 1);
  dev_->PersistRange(sb_->alloc_table_off + new_id * sizeof(AllocEntry), sizeof(AllocEntry));

  // Move ownership page-by-page (the expensive part, by design). Processes
  // mapping src lose access to the moved pages.
  CofferInfo info{.id = new_id, .root_page = new_id, .runs = {{new_id, 1}}, .mapped_by = {}};
  MoveRunsLocked(src, &info, pages);

  const uint64_t root_off = WriteRootLocked(new_id, new_path, type, mode, uid, gid,
                                            SumRuns(info.runs), new_root_inode_off, new_custom_off);
  RETURN_IF_ERROR(PathMapInsert(new_path, root_off));
  PersistCofferSizeLocked({src});
  coffers_[new_id] = std::move(info);
  return new_id;
}

Status KernFs::CofferMovePages(Process& proc, uint32_t src_id, uint32_t dst_id,
                               const std::vector<PageRun>& pages) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* src = FindCoffer(src_id);
  CofferInfo* dst = FindCoffer(dst_id);
  if (src == nullptr || dst == nullptr || src_id == dst_id) {
    return Err::kInval;
  }
  RETURN_IF_ERROR(CheckMappedWritable(proc, src_id));
  RETURN_IF_ERROR(CheckMappedWritable(proc, dst_id));
  RETURN_IF_ERROR(CheckRunsLocked(*src, pages));
  MoveRunsLocked(src, dst, pages);
  PersistCofferSizeLocked({src, dst});
  return common::OkStatus();
}

Result<uint64_t> KernFs::CofferMerge(Process& proc, uint32_t dst_id, uint32_t src_id) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* dst = FindCoffer(dst_id);
  CofferInfo* src = FindCoffer(src_id);
  if (dst == nullptr || src == nullptr || dst_id == src_id) {
    return Err::kInval;
  }
  RETURN_IF_ERROR(CheckMappedWritable(proc, dst_id));
  RETURN_IF_ERROR(CheckMappedWritable(proc, src_id));
  CofferRoot* droot = RootOf(*dst);
  CofferRoot* sroot = RootOf(*src);
  if (droot->mode != sroot->mode || droot->uid != sroot->uid || droot->gid != sroot->gid ||
      droot->type != sroot->type) {
    return Err::kInval;
  }
  if (src_id == root_coffer_id_) {
    return Err::kBusy;
  }

  uint64_t old_root_off = src->root_page * nvm::kPageSize;
  PathMapErase(sroot->path);
  // Invalidate the old root page's magic before it becomes a data page.
  dev_->Store64(old_root_off, 0);
  dev_->PersistRange(old_root_off, 8);

  // Transfer ownership page-by-page. Everyone with dst mapped gains the
  // transferred pages under dst's tag; everyone else loses them.
  std::vector<PageRun> moved;
  for (const auto& [start, len] : src->runs) {
    moved.push_back(PageRun{start, len});
  }
  MoveRunsLocked(src, dst, moved);
  PersistCofferSizeLocked({dst});

  // Everyone who had src mapped loses the mapping.
  for (Process* p : src->mapped_by) {
    auto it = p->mappings_.find(src_id);
    if (it != p->mappings_.end()) {
      p->key_classes_.Release(it->second.class_slot, src_id);
      p->mappings_.erase(it);
    }
  }
  coffers_.erase(src_id);
  return old_root_off;
}

Status KernFs::CofferRecoverBegin(Process& proc, uint32_t coffer_id, uint64_t lease_ns) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  CofferRoot* root = RootOf(*c);
  uint64_t root_off = dev_->OffsetOf(root);
  if ((root->flags & kCofferInRecovery) && root->recovery_lease_ns > common::NowNs()) {
    return Err::kBusy;
  }
  dev_->Store64(root_off + offsetof(CofferRoot, recovery_lease_ns),
                common::NowNs() + lease_ns);
  dev_->Store16(root_off + offsetof(CofferRoot, flags),
                static_cast<uint16_t>(root->flags | kCofferInRecovery));
  dev_->PersistRange(root_off, sizeof(CofferRoot));

  // Unmap from everyone except the initiator.
  std::vector<Process*> others;
  for (Process* p : c->mapped_by) {
    if (p != &proc) {
      others.push_back(p);
    }
  }
  for (Process* p : others) {
    UnmapLocked(*p, coffer_id);
  }
  return common::OkStatus();
}

Result<uint64_t> KernFs::CofferRecoverEnd(Process& proc, uint32_t coffer_id,
                                          const std::vector<uint64_t>& in_use_pages) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  CofferRoot* root = RootOf(*c);
  if (!(root->flags & kCofferInRecovery)) {
    return Err::kInval;
  }
  std::set<uint64_t> in_use(in_use_pages.begin(), in_use_pages.end());
  in_use.insert(c->root_page);
  if (root->root_inode_off != 0) {
    in_use.insert(root->root_inode_off / nvm::kPageSize);
  }
  if (root->custom_off != 0) {
    in_use.insert(root->custom_off / nvm::kPageSize);
  }

  // Reclaim owned pages the µFS did not report, entry by entry; the kept
  // pages then form maximal runs.
  uint64_t reclaimed = 0;
  std::vector<PageRun> freed;
  for (const auto& [start, len] : c->runs) {
    for (uint64_t p = start; p < start + len;) {
      if (in_use.count(p)) {
        p++;
        continue;
      }
      const uint64_t free_start = p;
      while (p < start + len && !in_use.count(p)) {
        p++;
      }
      freed.push_back(PageRun{free_start, p - free_start});
      reclaimed += p - free_start;
    }
  }
  MoveRunsLocked(c, nullptr, freed);
  CoalesceRuns(&c->runs);

  uint64_t root_off = dev_->OffsetOf(root);
  dev_->Store64(root_off + offsetof(CofferRoot, num_pages), SumRuns(c->runs));
  dev_->Store16(root_off + offsetof(CofferRoot, flags),
                static_cast<uint16_t>(root->flags & ~kCofferInRecovery));
  dev_->PersistRange(root_off, sizeof(CofferRoot));
  return reclaimed;
}

Status KernFs::CofferRename(Process& proc, uint32_t coffer_id, const std::string& new_path) {
  KernelEntry enter(crossing_ns_);
  if (new_path.empty() || new_path[0] != '/' || new_path.size() >= kMaxCofferPath) {
    return Err::kInval;
  }
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  RETURN_IF_ERROR(CheckMappedWritable(proc, coffer_id));
  if (PathMapLookup(new_path).ok()) {
    return Err::kExist;
  }
  CofferRoot* root = RootOf(*c);
  std::string old_path = root->path;

  PathMapErase(old_path);
  PersistRootPath(root, new_path);
  RETURN_IF_ERROR(PathMapInsert(new_path, dev_->OffsetOf(root)));

  // Rewrite descendants' stored paths (their coffer paths embed the prefix).
  return RewritePathsLocked(old_path, new_path, coffer_id);
}

Status KernFs::CofferFixupPaths(Process& proc, const std::string& old_prefix,
                                const std::string& new_prefix) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  return RewritePathsLocked(old_prefix, new_prefix, /*except_id=*/0);  // no coffer has id 0
}

Status KernFs::RewritePathsLocked(const std::string& old_prefix, const std::string& new_prefix,
                                  uint32_t except_id) {
  auto dir = [](const std::string& p) { return !p.empty() && p.back() == '/' ? p : p + "/"; };
  const std::string op = dir(old_prefix);
  const std::string np = dir(new_prefix);
  for (auto& [id, info] : coffers_) {
    if (id == except_id) {
      continue;
    }
    CofferRoot* r = RootOf(info);
    std::string p = r->path;
    if (p.size() > op.size() && p.compare(0, op.size(), op) == 0) {
      std::string fixed = np + p.substr(op.size());
      PathMapErase(p);
      PersistRootPath(r, fixed);
      RETURN_IF_ERROR(PathMapInsert(fixed, dev_->OffsetOf(r)));
    }
  }
  return common::OkStatus();
}

Status KernFs::CofferChmod(Process& proc, uint32_t coffer_id, uint16_t mode) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  CofferRoot* root = RootOf(*c);
  if (!proc.cred().IsRoot() && proc.cred().uid != root->uid) {
    return Err::kPerm;
  }
  uint64_t root_off = dev_->OffsetOf(root);
  dev_->Store16(root_off + offsetof(CofferRoot, mode), mode);
  dev_->PersistRange(root_off + offsetof(CofferRoot, mode), 2);
  // The permission triple IS the protection class: every process with the
  // coffer mapped re-homes it into the new class.
  const mpk::ProtClass cls{root->uid, root->gid, mode};
  for (Process* p : c->mapped_by) {
    MigrateClassLocked(*p, *c, cls);
  }
  return common::OkStatus();
}

Status KernFs::CofferChown(Process& proc, uint32_t coffer_id, uint32_t uid, uint32_t gid) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  CofferRoot* root = RootOf(*c);
  if (!proc.cred().IsRoot()) {
    return Err::kPerm;
  }
  uint64_t root_off = dev_->OffsetOf(root);
  dev_->Store32(root_off + offsetof(CofferRoot, uid), uid);
  dev_->Store32(root_off + offsetof(CofferRoot, gid), gid);
  dev_->PersistRange(root_off + offsetof(CofferRoot, uid), 8);
  const mpk::ProtClass cls{uid, gid, root->mode};
  for (Process* p : c->mapped_by) {
    MigrateClassLocked(*p, *c, cls);
  }
  return common::OkStatus();
}

Status KernFs::FileMmap(Process& proc, uint32_t coffer_id, const std::vector<uint64_t>& pages,
                        bool writable) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  auto it = proc.mappings_.find(coffer_id);
  if (it == proc.mappings_.end() || (writable && !it->second.writable)) {
    return Err::kAcces;
  }
  for (uint64_t pg : pages) {
    if (pg >= sb_->num_pages || ReadEntry(pg).coffer_id != coffer_id || pg == c->root_page) {
      return Err::kInval;
    }
  }
  // Retag under the default key: application code may now access the pages
  // without a µFS window (this is what mmap(2) of a DAX file gives you).
  const uint8_t tag = writable ? mpk::kDefaultKey
                               : static_cast<uint8_t>(mpk::kDefaultKey | mpk::kPageReadOnly);
  for (uint64_t pg : pages) {
    SetPageKeyLocked(proc, pg, tag);
  }
  return common::OkStatus();
}

Status KernFs::FileMunmap(Process& proc, uint32_t coffer_id,
                          const std::vector<uint64_t>& pages) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  if (!proc.HasMapped(coffer_id)) {
    return Err::kInval;
  }
  // FileMmap's check: the root page is never handed out, so it never comes
  // back either.
  for (uint64_t pg : pages) {
    if (pg >= sb_->num_pages || ReadEntry(pg).coffer_id != coffer_id || pg == c->root_page) {
      return Err::kInval;
    }
  }
  // Back under the coffer's tag (kUnmapped while its class is evicted: the
  // next fault-in walks the full run map anyway).
  TagLocked(proc, c, pages);
  return common::OkStatus();
}

Result<uint64_t> KernFs::FileExecve(Process& proc, uint32_t coffer_id, uint16_t file_mode,
                                    const std::vector<uint64_t>& pages, uint64_t image_size) {
  KernelEntry enter(crossing_ns_);
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  // Execution permission is µFS-maintained (coffers are mapped
  // non-executable, §4.3); the kernel checks it at execve time.
  uint16_t bits = proc.cred().uid == RootOf(*c)->uid ? (file_mode >> 6)
                  : proc.cred().gid == RootOf(*c)->gid ? (file_mode >> 3)
                                                       : file_mode;
  if (!proc.cred().IsRoot() && !(bits & 1)) {
    return Err::kAcces;
  }
  // "Load" the image: hash it page by page (validating ownership), the
  // stand-in for setting up a new address space from the file.
  uint64_t digest = 0xcbf29ce484222325ULL;
  uint64_t remaining = image_size;
  for (uint64_t pg : pages) {
    if (pg >= sb_->num_pages || ReadEntry(pg).coffer_id != coffer_id) {
      return Err::kInval;
    }
    // zofs-lint: allow(raw-nvm-deref) — kernel-side execve hash over pages just ownership-checked above
    const uint8_t* bytes = dev_->base() + pg * nvm::kPageSize;
    const uint64_t n = std::min<uint64_t>(remaining, nvm::kPageSize);
    for (uint64_t i = 0; i < n; i++) {
      digest = (digest ^ bytes[i]) * 0x100000001b3ULL;
    }
    remaining -= n;
  }
  return digest;
}

// ---------------------------------------------------------------------------
// Introspection

const CofferRoot* KernFs::RootPageOf(uint32_t coffer_id) const {
  return dev_->As<CofferRoot>(static_cast<uint64_t>(coffer_id) * nvm::kPageSize);
}

Result<std::vector<PageRun>> KernFs::PagesOf(uint32_t coffer_id) {
  common::MutexLock lk(&mu_);
  CofferInfo* c = FindCoffer(coffer_id);
  if (c == nullptr) {
    return Err::kNoEnt;
  }
  std::vector<PageRun> out;
  for (const auto& [start, len] : c->runs) {
    out.push_back(PageRun{start, len});
  }
  return out;
}

uint64_t KernFs::FreePages() {
  common::MutexLock lk(&mu_);
  uint64_t n = 0;
  for (const auto& [start, len] : free_by_addr_) {
    n += len;
  }
  return n;
}

std::vector<uint32_t> KernFs::AllCofferIds() {
  common::MutexLock lk(&mu_);
  std::vector<uint32_t> out;
  for (const auto& [id, info] : coffers_) {
    out.push_back(id);
  }
  return out;
}

std::string KernFs::CheckAllocTableForTest() {
  common::MutexLock lk(&mu_);
  const uint64_t num_pages = sb_->num_pages;
  // 1. free maps consistent with the table.
  for (const auto& [start, len] : free_by_addr_) {
    for (uint64_t p = start; p < start + len; p++) {
      if (table_[p].coffer_id != 0) {
        return "free map covers allocated page " + std::to_string(p);
      }
    }
  }
  // 2. coffer runs consistent with the table.
  uint64_t owned = 0;
  for (const auto& [id, info] : coffers_) {
    for (const auto& [start, len] : info.runs) {
      owned += len;
      for (uint64_t p = start; p < start + len; p++) {
        if (table_[p].coffer_id != id) {
          return "coffer " + std::to_string(id) + " run covers foreign page " +
                 std::to_string(p);
        }
      }
    }
  }
  // 3. every pool page accounted for exactly once.
  uint64_t free_total = 0;
  for (const auto& [start, len] : free_by_addr_) {
    free_total += len;
  }
  if (owned + free_total != num_pages - sb_->pool_start_page) {
    return "page accounting mismatch";
  }
  return "";
}

}  // namespace kernfs
