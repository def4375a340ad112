// FsLab — constructs any of the evaluated file systems (plus their paper
// variants) on a fresh simulated NVM device and hands out per-process views.
//
// For kernel file systems (Ext4-DAX, PMFS, NOVA) every process shares the
// one kernel instance; for the user-space designs each simulated process
// gets its own library instance (FsLib for ZoFS, LibFS view for Strata)
// sharing the kernel/core underneath.

#ifndef SRC_HARNESS_FSLAB_H_
#define SRC_HARNESS_FSLAB_H_

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/extdax.h"
#include "src/baselines/nova.h"
#include "src/baselines/pmfs.h"
#include "src/baselines/strata.h"
#include "src/common/mutex.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/nvm/nvm.h"
#include "src/vfs/vfs.h"

namespace harness {

enum class FsKind {
  kZofs,
  kLogFs,              // the log-structured µFS (paper §5.3's alternative)
  kZofsSysEmpty,       // Figure 8
  kZofsKWrite,         // Figure 8
  kZofsOneCoffer,      // Table 9
  kExtDax,
  kPmfs,
  kPmfsNocache,        // Figure 8
  kNova,
  kNovaNoIndex,        // Figure 8
  kNovaInplace,        // Figure 8 (NOVAi)
  kNovaInplaceNoIndex, // Figure 8
  kStrata,
};

const char* FsKindName(FsKind kind);
// Parses "zofs", "nova", "pmfs-nocache", ... Returns true on success.
bool ParseFsKind(const std::string& s, FsKind* out);

struct LabOptions {
  size_t dev_bytes = 512ull << 20;
  uint64_t kernel_crossing_ns = 300;
  // Persistence-primitive costs (see nvm::Options): calibrated so that a
  // flush-per-line 4 KB write costs ~2 us and a non-temporal one ~0.2 us,
  // matching the paper's Figure 8 separation on Optane.
  uint64_t clwb_ns = 30;
  uint64_t sfence_ns = 100;
  vfs::Cred cred{0, 0};  // identity used by the benchmark processes

  // ZoFS knobs for the ablation benches.
  bool zofs_inline_data = false;
  bool zofs_atomic_data = false;
  uint64_t zofs_enlarge_batch = 64;
  // Skip installing the MPK device hook (measures protection overhead).
  bool disable_mpk = false;
};

class FsLab {
 public:
  FsLab(FsKind kind, LabOptions opts = {});
  ~FsLab();

  FsKind kind() const { return kind_; }
  const char* name() const { return FsKindName(kind_); }
  nvm::NvmDevice* dev() { return dev_.get(); }
  kernfs::KernFs* kernfs() { return kernfs_.get(); }  // null for baselines
  const LabOptions& options() const { return opts_; }

  // The view for simulated process `proc`. Thread-safe; views are created
  // lazily and cached.
  vfs::FileSystem* View(int proc = 0);

 private:
  FsKind kind_;
  LabOptions opts_;
  std::unique_ptr<nvm::NvmDevice> dev_;

  // ZoFS stack.
  std::unique_ptr<kernfs::KernFs> kernfs_;
  // Strata stack.
  std::unique_ptr<baselines::StrataCore> strata_core_;
  // Kernel baselines: a single shared instance.
  std::unique_ptr<vfs::FileSystem> shared_fs_;

  common::Mutex mu_;
  std::vector<std::unique_ptr<vfs::FileSystem>> views_ GUARDED_BY(mu_);
};

}  // namespace harness

#endif  // SRC_HARNESS_FSLAB_H_
