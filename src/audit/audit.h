// Persistence-ordering and protection auditor (pmemcheck/XFDetector-style).
//
// The auditor piggybacks on the per-cacheline state machine the NVM device
// already implements for crash injection (dirty -> written back -> fenced)
// and on the MPK access hook, and checks — per run — that the file systems
// above use those primitives correctly:
//
//   * unflushed-at-durability-point (error): an annotated commit site
//     declared a range durable (audit::DurabilityPoint) while some of its
//     cachelines were still dirty or written back but unfenced;
//   * ordering violation (error): a commit/flag store became persistent at a
//     fence while stores it is annotated to depend on (audit::OrderAfter)
//     were still volatile — the classic "commit before payload" PM bug;
//   * protection-window leak (error): an FSLib entry point returned with a
//     PKRU window still open, or with PKRU differing from its value at entry
//     (guideline G1 violation);
//   * over-wide protection window (warn): an AccessWindow opened writable
//     performed no write — read-only would have sufficed (guideline G2
//     least-privilege lint);
//   * redundant flush (perf lint): Clwb covering only clean lines, or Sfence
//     with no write-backs pending — correct but wasted persistence traffic,
//     reported with per-call-site counts;
//   * duplicate epoch flush (perf lint): the same cacheline written back
//     more than once within a single fence epoch — each repeat is a wasted
//     write-back the epoch batcher's FlushSet exists to coalesce (N dirty
//     stores to one line should cost one clwb per durability epoch).
//
// The auditor is opt-in and zero-cost when detached (a null observer check
// per store). Three front doors:
//   * ZOFS_AUDIT=1 — every NvmDevice created by the process is audited and
//     the process exits nonzero if any severity-error finding accumulated;
//   * tools/pmem_audit — replays a named bench workload audited and emits a
//     text/JSON report;
//   * explicit Auditor instances in tests (tests/audit_test.cc).

#ifndef SRC_AUDIT_AUDIT_H_
#define SRC_AUDIT_AUDIT_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/nvm/nvm.h"

namespace audit {

enum class Severity { kError = 0, kWarn = 1, kPerf = 2 };
const char* SeverityName(Severity s);

enum class FindingKind {
  kUnflushedAtDurability,  // error
  kOrderingViolation,      // error
  kWindowLeak,             // error
  kWindowOverWritable,     // warn
  kRedundantClwb,          // perf
  kRedundantSfence,        // perf
  kDuplicateEpochClwb,     // perf
};
const char* KindName(FindingKind k);
Severity KindSeverity(FindingKind k);

// One aggregated finding: everything observed for (kind, call site).
struct Finding {
  FindingKind kind;
  std::string site;    // "file.cc:123" or a scope tag; "(untagged)" if none
  uint64_t count = 0;  // occurrences
  std::string detail;  // first occurrence's specifics (offsets etc.)

  Severity severity() const { return KindSeverity(kind); }
};

struct Report {
  std::vector<Finding> findings;  // sorted: severity, kind, site
  uint64_t errors = 0;            // total error-severity occurrences
  uint64_t warnings = 0;
  uint64_t perf_lints = 0;
  // Traffic totals (context for the perf lints).
  uint64_t stores = 0;
  uint64_t clwb_calls = 0;
  uint64_t clwb_lines = 0;
  uint64_t redundant_clwb_lines = 0;
  uint64_t sfences = 0;
  uint64_t redundant_sfences = 0;
  uint64_t duplicate_epoch_clwb_lines = 0;

  std::string ToText() const;
  std::string ToJson() const;  // deterministic: sorted, no timestamps
};

// Static identity of an annotation/scope site. The macros below create one
// static instance per call site, so pointer identity == site identity.
struct SiteTag {
  const char* name;  // optional human label; may be nullptr
  const char* file;
  int line;
  std::string ToString() const;
};

class Auditor final : public nvm::PersistObserver {
 public:
  Auditor();
  ~Auditor() override;
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // Installs this auditor as `dev`'s persistence observer and makes it the
  // process-current auditor that annotations and MPK hooks report to
  // (previous current is restored by Detach). One auditor can watch several
  // devices; shadow state is kept per device.
  void Attach(nvm::NvmDevice* dev);
  void Detach();

  Report Snapshot() const;
  uint64_t ErrorCount() const;
  void ResetFindings();

  // ---- nvm::PersistObserver ----
  void OnStore(const nvm::NvmDevice* dev, uint64_t off, size_t len, bool nontemporal) override;
  void OnClwb(const nvm::NvmDevice* dev, uint64_t off, size_t len) override;
  void OnSfence(const nvm::NvmDevice* dev) override;
  void OnPersistEpoch(const nvm::NvmDevice* dev) override;
  void OnDeviceGone(const nvm::NvmDevice* dev) override;

  // ---- annotation entry points (used via the macros below) ----
  void CheckDurable(const nvm::NvmDevice* dev, uint64_t off, size_t len, const SiteTag* site);
  void AddOrderDep(const nvm::NvmDevice* dev, uint64_t commit_off, size_t commit_len,
                   uint64_t payload_off, size_t payload_len, const SiteTag* site);
  // Drops every pending order dependency registered by the calling thread.
  // For the tenant-death harness: an operation killed mid-flight never
  // returned, so it promised no durability ordering — its abandoned
  // annotations must not fire when a survivor later persists the shared
  // commit lines (or a stray burst re-dirties the dead payload).
  void AbandonThreadDeps();

  // ---- protection lints (fed by src/mpk and ApiGuard) ----
  void RecordWindowClose(const SiteTag* scope, bool writable, uint64_t accesses,
                         uint64_t writes);
  void RecordWindowLeak(const char* api, int open_windows, uint32_t entry_pkru,
                        uint32_t exit_pkru);

 private:
  // Per-cacheline shadow state. kDirty: stored, not written back. kWritten-
  // Back: Clwb'd or NT-stored, persistent at the next Sfence.
  enum class LineState : uint8_t { kDirty, kWrittenBack };

  struct OrderDep {
    uint64_t commit_first, commit_last;    // line numbers, inclusive
    uint64_t payload_first, payload_last;  // line numbers, inclusive
    uint64_t tid;                          // registering thread (AbandonThreadDeps)
    const SiteTag* site;
  };

  struct Shadow {
    std::unordered_map<uint64_t, LineState> lines;
    uint64_t wb_pending = 0;  // lines awaiting the next fence
    std::vector<OrderDep> deps;
    // Lines Clwb'd since the last fence, for the duplicate-epoch-flush lint.
    std::unordered_map<uint64_t, uint32_t> epoch_clwb;
  };

  struct FlushSiteCounts {
    uint64_t clwb_calls = 0;
    uint64_t clwb_redundant_calls = 0;  // every covered line was clean
    uint64_t clwb_redundant_lines = 0;
    uint64_t sfence_calls = 0;
    uint64_t sfence_redundant = 0;
    uint64_t clwb_duplicate_lines = 0;  // line re-flushed within one epoch
  };

  Shadow& ShadowFor(const nvm::NvmDevice* dev) REQUIRES(mu_);
  void AddFinding(FindingKind kind, const std::string& site, const std::string& detail,
                  uint64_t count = 1) REQUIRES(mu_);
  void ResolveDepsAtFence(Shadow& sh) REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::unordered_map<const nvm::NvmDevice*, Shadow> shadows_ GUARDED_BY(mu_);
  std::map<std::pair<FindingKind, std::string>, Finding> findings_ GUARDED_BY(mu_);
  // nullptr = untagged
  std::map<const SiteTag*, FlushSiteCounts> flush_sites_ GUARDED_BY(mu_);
  uint64_t stores_ GUARDED_BY(mu_) = 0;
  uint64_t clwb_calls_ GUARDED_BY(mu_) = 0;
  uint64_t clwb_lines_ GUARDED_BY(mu_) = 0;
  uint64_t redundant_clwb_lines_ GUARDED_BY(mu_) = 0;
  uint64_t sfences_ GUARDED_BY(mu_) = 0;
  uint64_t redundant_sfences_ GUARDED_BY(mu_) = 0;
  uint64_t duplicate_epoch_clwb_lines_ GUARDED_BY(mu_) = 0;
  uint64_t errors_ GUARDED_BY(mu_) = 0;
  uint64_t warnings_ GUARDED_BY(mu_) = 0;
  uint64_t perf_lints_ GUARDED_BY(mu_) = 0;

  std::vector<std::pair<nvm::NvmDevice*, nvm::PersistObserver*>> attached_ GUARDED_BY(mu_);
  // Attach/Detach run on the owning thread before/after the observed phase;
  // the current-auditor handoff is not part of the mu_ domain.
  Auditor* prev_current_ = nullptr;
  bool is_current_ = false;
};

// The auditor annotations and MPK hooks report to; nullptr when auditing is
// off (every hook below is then a no-op).
Auditor* Current();

// ---- scope attribution ------------------------------------------------

// Pushes a call-site tag for the current thread; flush lints and window
// lints occurring under it are attributed to the innermost tag.
class ScopeGuard {
 public:
  explicit ScopeGuard(const SiteTag* tag);
  ~ScopeGuard();
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;
};
const SiteTag* CurrentScope();

// ---- MPK integration (called from src/mpk; cheap when Current()==null) --

void NoteWindowOpen(int key, bool writable);
void NoteWindowClose(int key, bool writable);
void NoteAccess(uint64_t off, size_t len, bool is_write);
void NoteWrPkru(uint32_t pkru);
// Open-window depth and last PKRU of the calling thread (for ApiGuard).
int ThreadWindowDepth();
uint32_t ThreadPkru();

// RAII guard for an FSLib API boundary: on destruction, reports a window
// leak if the thread still holds AccessWindows it did not hold at entry or
// its PKRU changed across the call (guideline G1).
class ApiGuard {
 public:
  explicit ApiGuard(const char* api);
  ~ApiGuard();
  ApiGuard(const ApiGuard&) = delete;
  ApiGuard& operator=(const ApiGuard&) = delete;

 private:
  const char* api_;
  int entry_depth_;
  uint32_t entry_pkru_;
};

// ---- annotations -------------------------------------------------------

void DurabilityPoint(const nvm::NvmDevice* dev, uint64_t off, size_t len, const SiteTag* site);
void OrderAfter(const nvm::NvmDevice* dev, uint64_t commit_off, size_t commit_len,
                uint64_t payload_off, size_t payload_len, const SiteTag* site);
// Voids the calling thread's pending OrderAfter annotations on the current
// auditor (no-op when none is attached). Called by the kill harness after a
// ProcessKilledError unwinds: the dead operation's ordering contract died
// with it.
void AbandonThreadOrderDeps();

// ---- ZOFS_AUDIT=1 integration ------------------------------------------

bool EnvEnabled();
// Registers the device-init hook that attaches the process-wide env auditor
// to every new device when ZOFS_AUDIT=1; also arranges an atexit report +
// nonzero exit on errors. Ran once from a static initializer in audit.cc.
void InstallEnvHook();

#define AUDIT_SITE_TAG(tag_name)                                        \
  static const ::audit::SiteTag tag_name { nullptr, __FILE__, __LINE__ }

// Attributes flush/window lints in the enclosing scope to this call site.
#define AUDIT_SCOPE(label)                                                   \
  static const ::audit::SiteTag _audit_scope_tag{label, __FILE__, __LINE__}; \
  ::audit::ScopeGuard _audit_scope_guard {&_audit_scope_tag}

// Declares that [off, off+len) must be persistent here (a durability point).
#define AUDIT_DURABILITY_POINT(dev, off, len)                       \
  do {                                                              \
    if (::audit::Current() != nullptr) {                            \
      AUDIT_SITE_TAG(_audit_dp_tag);                                \
      ::audit::DurabilityPoint((dev), (off), (len), &_audit_dp_tag); \
    }                                                               \
  } while (0)

// Declares that the commit range must not become persistent before the
// payload range does (checked at the fence that persists the commit).
#define AUDIT_ORDER_AFTER(dev, commit_off, commit_len, payload_off, payload_len) \
  do {                                                                           \
    if (::audit::Current() != nullptr) {                                         \
      AUDIT_SITE_TAG(_audit_oa_tag);                                             \
      ::audit::OrderAfter((dev), (commit_off), (commit_len), (payload_off),      \
                          (payload_len), &_audit_oa_tag);                        \
    }                                                                            \
  } while (0)

}  // namespace audit

#endif  // SRC_AUDIT_AUDIT_H_
