#include "src/audit/audit.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "src/common/json.h"

namespace audit {

namespace {

std::atomic<Auditor*> g_current{nullptr};

// Thread-local protection-window bookkeeping. Tracking is always on (a few
// branches per event) so that an auditor attached mid-run still sees a
// consistent depth/PKRU picture; findings are only recorded when an auditor
// is current.
struct WindowInfo {
  int key;
  bool writable;
  uint64_t accesses;
  uint64_t writes;
  const SiteTag* scope;
};
thread_local std::vector<const SiteTag*> t_scopes;
thread_local std::vector<WindowInfo> t_windows;
thread_local uint32_t t_pkru = 0;

// Stable per-thread id for tagging order dependencies, so a kill harness can
// void exactly the dying thread's annotations.
std::atomic<uint64_t> g_next_dep_tid{1};
thread_local uint64_t t_dep_tid = 0;
uint64_t DepTid() {
  if (t_dep_tid == 0) {
    t_dep_tid = g_next_dep_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_dep_tid;
}

std::string FormatRange(uint64_t off, size_t len) {
  char buf[64];
  snprintf(buf, sizeof(buf), "[0x%llx, +%zu)", static_cast<unsigned long long>(off), len);
  return buf;
}

constexpr const char* kUntagged = "(untagged)";

std::string SiteString(const SiteTag* site) { return site != nullptr ? site->ToString() : kUntagged; }

}  // namespace

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarn:
      return "warn";
    case Severity::kPerf:
      return "perf";
  }
  return "?";
}

const char* KindName(FindingKind k) {
  switch (k) {
    case FindingKind::kUnflushedAtDurability:
      return "unflushed_at_durability_point";
    case FindingKind::kOrderingViolation:
      return "ordering_violation";
    case FindingKind::kWindowLeak:
      return "window_leak";
    case FindingKind::kWindowOverWritable:
      return "window_over_writable";
    case FindingKind::kRedundantClwb:
      return "redundant_clwb";
    case FindingKind::kRedundantSfence:
      return "redundant_sfence";
    case FindingKind::kDuplicateEpochClwb:
      return "duplicate_epoch_clwb";
  }
  return "?";
}

Severity KindSeverity(FindingKind k) {
  switch (k) {
    case FindingKind::kUnflushedAtDurability:
    case FindingKind::kOrderingViolation:
    case FindingKind::kWindowLeak:
      return Severity::kError;
    case FindingKind::kWindowOverWritable:
      return Severity::kWarn;
    case FindingKind::kRedundantClwb:
    case FindingKind::kRedundantSfence:
    case FindingKind::kDuplicateEpochClwb:
      return Severity::kPerf;
  }
  return Severity::kError;
}

std::string SiteTag::ToString() const {
  const char* slash = strrchr(file, '/');
  const char* base = slash != nullptr ? slash + 1 : file;
  char buf[256];
  if (name != nullptr) {
    snprintf(buf, sizeof(buf), "%s (%s:%d)", name, base, line);
  } else {
    snprintf(buf, sizeof(buf), "%s:%d", base, line);
  }
  return buf;
}

// ---- Report ------------------------------------------------------------

std::string Report::ToText() const {
  std::ostringstream os;
  os << "pmem audit: " << errors << " error(s), " << warnings << " warning(s), " << perf_lints
     << " perf lint(s)\n";
  os << "  traffic: " << stores << " stores, " << clwb_calls << " clwb calls (" << clwb_lines
     << " lines, " << redundant_clwb_lines << " redundant, " << duplicate_epoch_clwb_lines
     << " duplicate-in-epoch), " << sfences << " sfences (" << redundant_sfences
     << " redundant)\n";
  for (const Finding& f : findings) {
    os << "  [" << SeverityName(f.severity()) << "] " << KindName(f.kind) << " x" << f.count
       << " at " << f.site;
    if (!f.detail.empty()) {
      os << ": " << f.detail;
    }
    os << "\n";
  }
  return os.str();
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"errors\": " << errors << ",\n";
  os << "  \"warnings\": " << warnings << ",\n";
  os << "  \"perf_lints\": " << perf_lints << ",\n";
  os << "  \"stores\": " << stores << ",\n";
  os << "  \"clwb_calls\": " << clwb_calls << ",\n";
  os << "  \"clwb_lines\": " << clwb_lines << ",\n";
  os << "  \"redundant_clwb_lines\": " << redundant_clwb_lines << ",\n";
  os << "  \"sfences\": " << sfences << ",\n";
  os << "  \"redundant_sfences\": " << redundant_sfences << ",\n";
  os << "  \"duplicate_epoch_clwb_lines\": " << duplicate_epoch_clwb_lines << ",\n";
  os << "  \"findings\": [";
  for (size_t i = 0; i < findings.size(); i++) {
    const Finding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"severity\": \"" << SeverityName(f.severity()) << "\", \"kind\": \""
       << KindName(f.kind) << "\", \"site\": \"" << common::JsonEscape(f.site) << "\", \"count\": "
       << f.count << ", \"detail\": \"" << common::JsonEscape(f.detail) << "\"}";
  }
  os << (findings.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

// ---- Auditor -----------------------------------------------------------

Auditor::Auditor() = default;

Auditor::~Auditor() { Detach(); }

void Auditor::Attach(nvm::NvmDevice* dev) {
  {
    common::MutexLock lk(&mu_);
    attached_.emplace_back(dev, dev->persist_observer());
  }
  dev->SetPersistObserver(this);
  if (!is_current_) {
    prev_current_ = g_current.exchange(this);
    is_current_ = true;
  }
}

void Auditor::Detach() {
  common::MutexLock lk(&mu_);
  for (auto it = attached_.rbegin(); it != attached_.rend(); ++it) {
    it->first->SetPersistObserver(it->second);
  }
  attached_.clear();
  if (is_current_) {
    g_current.store(prev_current_);
    prev_current_ = nullptr;
    is_current_ = false;
  }
}

Auditor::Shadow& Auditor::ShadowFor(const nvm::NvmDevice* dev) { return shadows_[dev]; }

void Auditor::AddFinding(FindingKind kind, const std::string& site, const std::string& detail,
                         uint64_t count) {
  auto [it, inserted] = findings_.try_emplace({kind, site});
  Finding& f = it->second;
  if (inserted) {
    f.kind = kind;
    f.site = site;
    f.detail = detail;  // keep the first occurrence's specifics
  }
  f.count += count;
  switch (KindSeverity(kind)) {
    case Severity::kError:
      errors_ += count;
      break;
    case Severity::kWarn:
      warnings_ += count;
      break;
    case Severity::kPerf:
      perf_lints_ += count;
      break;
  }
}

void Auditor::OnStore(const nvm::NvmDevice* dev, uint64_t off, size_t len, bool nontemporal) {
  common::MutexLock lk(&mu_);
  stores_++;
  Shadow& sh = ShadowFor(dev);
  uint64_t first = off / nvm::kCachelineSize;
  uint64_t last = (off + len - 1) / nvm::kCachelineSize;
  for (uint64_t line = first; line <= last; line++) {
    auto [it, inserted] =
        sh.lines.try_emplace(line, nontemporal ? LineState::kWrittenBack : LineState::kDirty);
    if (inserted) {
      if (nontemporal) {
        sh.wb_pending++;
      }
    } else if (nontemporal && it->second == LineState::kDirty) {
      it->second = LineState::kWrittenBack;
      sh.wb_pending++;
    } else if (!nontemporal && it->second == LineState::kWrittenBack) {
      // Re-dirtied before the fence: the earlier write-back no longer makes
      // this line persistent.
      it->second = LineState::kDirty;
      sh.wb_pending--;
    }
  }
}

void Auditor::OnClwb(const nvm::NvmDevice* dev, uint64_t off, size_t len) {
  const SiteTag* scope = CurrentScope();
  common::MutexLock lk(&mu_);
  clwb_calls_++;
  Shadow& sh = ShadowFor(dev);
  uint64_t first = off / nvm::kCachelineSize;
  uint64_t last = (off + len - 1) / nvm::kCachelineSize;
  uint64_t covered = last - first + 1;
  uint64_t wrote_back = 0;
  uint64_t duplicates = 0;
  for (uint64_t line = first; line <= last; line++) {
    auto it = sh.lines.find(line);
    if (it != sh.lines.end() && it->second == LineState::kDirty) {
      it->second = LineState::kWrittenBack;
      sh.wb_pending++;
      wrote_back++;
    }
    if (sh.epoch_clwb[line]++ > 0) {
      duplicates++;
    }
  }
  clwb_lines_ += covered;
  redundant_clwb_lines_ += covered - wrote_back;
  duplicate_epoch_clwb_lines_ += duplicates;
  FlushSiteCounts& fc = flush_sites_[scope];
  fc.clwb_calls++;
  fc.clwb_redundant_lines += covered - wrote_back;
  fc.clwb_duplicate_lines += duplicates;
  if (wrote_back == 0) {
    // Every covered line was already clean or written back: pure waste.
    fc.clwb_redundant_calls++;
    perf_lints_++;
  }
  perf_lints_ += duplicates;
}

void Auditor::ResolveDepsAtFence(Shadow& sh) {
  for (auto it = sh.deps.begin(); it != sh.deps.end();) {
    const OrderDep& d = *it;
    bool commit_persists = true;
    for (uint64_t line = d.commit_first; line <= d.commit_last && commit_persists; line++) {
      auto lit = sh.lines.find(line);
      if (lit != sh.lines.end() && lit->second == LineState::kDirty) {
        commit_persists = false;  // commit still volatile; check at a later fence
      }
    }
    if (!commit_persists) {
      ++it;
      continue;
    }
    uint64_t volatile_payload = UINT64_MAX;
    for (uint64_t line = d.payload_first; line <= d.payload_last; line++) {
      auto lit = sh.lines.find(line);
      if (lit != sh.lines.end() && lit->second == LineState::kDirty) {
        volatile_payload = line;
        break;
      }
    }
    if (volatile_payload != UINT64_MAX) {
      char buf[160];
      snprintf(buf, sizeof(buf),
               "commit lines [%llu,%llu] persist at this fence while payload line %llu is still "
               "volatile",
               static_cast<unsigned long long>(d.commit_first),
               static_cast<unsigned long long>(d.commit_last),
               static_cast<unsigned long long>(volatile_payload));
      AddFinding(FindingKind::kOrderingViolation, SiteString(d.site), buf);
    }
    it = sh.deps.erase(it);
  }
}

void Auditor::OnSfence(const nvm::NvmDevice* dev) {
  const SiteTag* scope = CurrentScope();
  common::MutexLock lk(&mu_);
  sfences_++;
  Shadow& sh = ShadowFor(dev);
  FlushSiteCounts& fc = flush_sites_[scope];
  fc.sfence_calls++;
  if (sh.wb_pending == 0) {
    redundant_sfences_++;
    fc.sfence_redundant++;
    perf_lints_++;
  }
  ResolveDepsAtFence(sh);
  for (auto it = sh.lines.begin(); it != sh.lines.end();) {
    if (it->second == LineState::kWrittenBack) {
      it = sh.lines.erase(it);
    } else {
      ++it;
    }
  }
  sh.wb_pending = 0;
  sh.epoch_clwb.clear();  // a fence starts a fresh duplicate-flush epoch
}

void Auditor::OnPersistEpoch(const nvm::NvmDevice* dev) {
  common::MutexLock lk(&mu_);
  Shadow& sh = ShadowFor(dev);
  sh.lines.clear();
  sh.wb_pending = 0;
  sh.deps.clear();
  sh.epoch_clwb.clear();
}

void Auditor::OnDeviceGone(const nvm::NvmDevice* dev) {
  common::MutexLock lk(&mu_);
  shadows_.erase(dev);
  attached_.erase(std::remove_if(attached_.begin(), attached_.end(),
                                 [dev](const auto& p) { return p.first == dev; }),
                  attached_.end());
}

void Auditor::CheckDurable(const nvm::NvmDevice* dev, uint64_t off, size_t len,
                           const SiteTag* site) {
  if (len == 0) {
    return;
  }
  common::MutexLock lk(&mu_);
  Shadow& sh = ShadowFor(dev);
  uint64_t first = off / nvm::kCachelineSize;
  uint64_t last = (off + len - 1) / nvm::kCachelineSize;
  for (uint64_t line = first; line <= last; line++) {
    auto it = sh.lines.find(line);
    if (it == sh.lines.end()) {
      continue;
    }
    char buf[160];
    snprintf(buf, sizeof(buf), "range %s declared durable but line %llu is %s",
             FormatRange(off, len).c_str(), static_cast<unsigned long long>(line),
             it->second == LineState::kDirty ? "dirty (never written back)"
                                             : "written back but not fenced");
    AddFinding(FindingKind::kUnflushedAtDurability, SiteString(site), buf);
    return;  // one finding per durability-point call
  }
}

void Auditor::AddOrderDep(const nvm::NvmDevice* dev, uint64_t commit_off, size_t commit_len,
                          uint64_t payload_off, size_t payload_len, const SiteTag* site) {
  if (commit_len == 0 || payload_len == 0) {
    return;
  }
  common::MutexLock lk(&mu_);
  Shadow& sh = ShadowFor(dev);
  OrderDep d;
  d.commit_first = commit_off / nvm::kCachelineSize;
  d.commit_last = (commit_off + commit_len - 1) / nvm::kCachelineSize;
  d.payload_first = payload_off / nvm::kCachelineSize;
  d.payload_last = (payload_off + payload_len - 1) / nvm::kCachelineSize;
  d.tid = DepTid();
  d.site = site;
  sh.deps.push_back(d);
}

void Auditor::AbandonThreadDeps() {
  const uint64_t tid = DepTid();
  common::MutexLock lk(&mu_);
  for (auto& [dev, sh] : shadows_) {
    (void)dev;
    sh.deps.erase(std::remove_if(sh.deps.begin(), sh.deps.end(),
                                 [&](const OrderDep& d) { return d.tid == tid; }),
                  sh.deps.end());
  }
}

void Auditor::RecordWindowClose(const SiteTag* scope, bool writable, uint64_t accesses,
                                uint64_t writes) {
  if (!writable || writes != 0) {
    return;
  }
  char buf[128];
  snprintf(buf, sizeof(buf),
           "writable window performed no writes (%llu checked accesses) — read-only suffices",
           static_cast<unsigned long long>(accesses));
  common::MutexLock lk(&mu_);
  AddFinding(FindingKind::kWindowOverWritable, SiteString(scope), buf);
}

void Auditor::RecordWindowLeak(const char* api, int open_windows, uint32_t entry_pkru,
                               uint32_t exit_pkru) {
  char buf[128];
  snprintf(buf, sizeof(buf), "returned with %d window(s) open, PKRU 0x%x at entry vs 0x%x at exit",
           open_windows, entry_pkru, exit_pkru);
  common::MutexLock lk(&mu_);
  AddFinding(FindingKind::kWindowLeak, api != nullptr ? api : kUntagged, buf);
}

Report Auditor::Snapshot() const {
  common::MutexLock lk(&mu_);
  Report r;
  r.errors = errors_;
  r.warnings = warnings_;
  r.perf_lints = perf_lints_;
  r.stores = stores_;
  r.clwb_calls = clwb_calls_;
  r.clwb_lines = clwb_lines_;
  r.redundant_clwb_lines = redundant_clwb_lines_;
  r.sfences = sfences_;
  r.redundant_sfences = redundant_sfences_;
  r.duplicate_epoch_clwb_lines = duplicate_epoch_clwb_lines_;
  for (const auto& [key, f] : findings_) {
    r.findings.push_back(f);
  }
  // Materialize the perf lints from the per-site flush counters so each
  // finding can say "N of M calls" for its site.
  for (const auto& [site, fc] : flush_sites_) {
    std::string site_str = SiteString(site);
    if (fc.clwb_redundant_calls > 0) {
      char buf[128];
      snprintf(buf, sizeof(buf), "%llu of %llu clwb calls wrote back nothing (%llu clean lines)",
               static_cast<unsigned long long>(fc.clwb_redundant_calls),
               static_cast<unsigned long long>(fc.clwb_calls),
               static_cast<unsigned long long>(fc.clwb_redundant_lines));
      Finding f;
      f.kind = FindingKind::kRedundantClwb;
      f.site = site_str;
      f.count = fc.clwb_redundant_calls;
      f.detail = buf;
      r.findings.push_back(f);
    }
    if (fc.sfence_redundant > 0) {
      char buf[128];
      snprintf(buf, sizeof(buf), "%llu of %llu sfences had no write-backs pending",
               static_cast<unsigned long long>(fc.sfence_redundant),
               static_cast<unsigned long long>(fc.sfence_calls));
      Finding f;
      f.kind = FindingKind::kRedundantSfence;
      f.site = site_str;
      f.count = fc.sfence_redundant;
      f.detail = buf;
      r.findings.push_back(f);
    }
    if (fc.clwb_duplicate_lines > 0) {
      char buf[160];
      snprintf(buf, sizeof(buf),
               "%llu cacheline write-backs repeated within a single fence epoch (coalescible "
               "via a FlushSet epoch drain)",
               static_cast<unsigned long long>(fc.clwb_duplicate_lines));
      Finding f;
      f.kind = FindingKind::kDuplicateEpochClwb;
      f.site = site_str;
      f.count = fc.clwb_duplicate_lines;
      f.detail = buf;
      r.findings.push_back(f);
    }
  }
  std::sort(r.findings.begin(), r.findings.end(), [](const Finding& a, const Finding& b) {
    if (a.severity() != b.severity()) {
      return static_cast<int>(a.severity()) < static_cast<int>(b.severity());
    }
    if (a.kind != b.kind) {
      return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    }
    return a.site < b.site;
  });
  return r;
}

uint64_t Auditor::ErrorCount() const {
  common::MutexLock lk(&mu_);
  return errors_;
}

void Auditor::ResetFindings() {
  common::MutexLock lk(&mu_);
  findings_.clear();
  flush_sites_.clear();
  stores_ = clwb_calls_ = clwb_lines_ = redundant_clwb_lines_ = 0;
  sfences_ = redundant_sfences_ = duplicate_epoch_clwb_lines_ = 0;
  errors_ = warnings_ = perf_lints_ = 0;
}

// ---- free functions ----------------------------------------------------

Auditor* Current() { return g_current.load(std::memory_order_acquire); }

ScopeGuard::ScopeGuard(const SiteTag* tag) { t_scopes.push_back(tag); }

ScopeGuard::~ScopeGuard() { t_scopes.pop_back(); }

const SiteTag* CurrentScope() { return t_scopes.empty() ? nullptr : t_scopes.back(); }

void NoteWindowOpen(int key, bool writable) {
  t_windows.push_back({key, writable, 0, 0, CurrentScope()});
}

void NoteWindowClose(int key, bool writable) {
  (void)key;
  (void)writable;
  if (t_windows.empty()) {
    return;
  }
  WindowInfo w = t_windows.back();
  t_windows.pop_back();
  Auditor* a = Current();
  if (a != nullptr) {
    a->RecordWindowClose(w.scope, w.writable, w.accesses, w.writes);
  }
}

void NoteAccess(uint64_t off, size_t len, bool is_write) {
  (void)off;
  (void)len;
  if (t_windows.empty()) {
    return;
  }
  WindowInfo& w = t_windows.back();
  w.accesses++;
  if (is_write) {
    w.writes++;
  }
}

void NoteWrPkru(uint32_t pkru) { t_pkru = pkru; }

int ThreadWindowDepth() { return static_cast<int>(t_windows.size()); }

uint32_t ThreadPkru() { return t_pkru; }

ApiGuard::ApiGuard(const char* api)
    : api_(api), entry_depth_(ThreadWindowDepth()), entry_pkru_(ThreadPkru()) {}

ApiGuard::~ApiGuard() {
  Auditor* a = Current();
  if (a == nullptr) {
    return;
  }
  int depth = ThreadWindowDepth();
  uint32_t pkru = ThreadPkru();
  if (depth != entry_depth_ || pkru != entry_pkru_) {
    a->RecordWindowLeak(api_, depth, entry_pkru_, pkru);
  }
}

void DurabilityPoint(const nvm::NvmDevice* dev, uint64_t off, size_t len, const SiteTag* site) {
  Auditor* a = Current();
  if (a != nullptr) {
    a->CheckDurable(dev, off, len, site);
  }
}

void OrderAfter(const nvm::NvmDevice* dev, uint64_t commit_off, size_t commit_len,
                uint64_t payload_off, size_t payload_len, const SiteTag* site) {
  Auditor* a = Current();
  if (a != nullptr) {
    a->AddOrderDep(dev, commit_off, commit_len, payload_off, payload_len, site);
  }
}

void AbandonThreadOrderDeps() {
  Auditor* a = Current();
  if (a != nullptr) {
    a->AbandonThreadDeps();
  }
}

// ---- ZOFS_AUDIT=1 ------------------------------------------------------

namespace {

Auditor* g_env_auditor = nullptr;  // leaked: must outlive every device

void EnvAtExit() {
  if (g_env_auditor == nullptr) {
    return;
  }
  Report r = g_env_auditor->Snapshot();
  if (r.findings.empty()) {
    fprintf(stderr, "[audit] clean: %llu stores, %llu clwb calls, %llu sfences\n",
            static_cast<unsigned long long>(r.stores),
            static_cast<unsigned long long>(r.clwb_calls),
            static_cast<unsigned long long>(r.sfences));
  } else {
    fprintf(stderr, "[audit] %s", r.ToText().c_str());
  }
  if (r.errors > 0) {
    fflush(nullptr);
    std::_Exit(1);
  }
}

void EnvDeviceInit(nvm::NvmDevice* dev) {
  if (g_env_auditor == nullptr) {
    g_env_auditor = new Auditor();
    g_current.store(g_env_auditor);
    atexit(EnvAtExit);
  }
  dev->SetPersistObserver(g_env_auditor);
}

struct EnvHookInstaller {
  EnvHookInstaller() { InstallEnvHook(); }
};
EnvHookInstaller g_env_hook_installer;

}  // namespace

bool EnvEnabled() {
  const char* v = getenv("ZOFS_AUDIT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

void InstallEnvHook() {
  if (EnvEnabled()) {
    nvm::SetDeviceInitHook(&EnvDeviceInit);
  }
}

}  // namespace audit
