#include "src/harness/fslab.h"

#include "src/mpk/mpk.h"

namespace harness {

const char* FsKindName(FsKind kind) {
  switch (kind) {
    case FsKind::kZofs:
      return "ZoFS";
    case FsKind::kLogFs:
      return "LogFS";
    case FsKind::kZofsSysEmpty:
      return "ZoFS-sysempty";
    case FsKind::kZofsKWrite:
      return "ZoFS-kwrite";
    case FsKind::kZofsOneCoffer:
      return "ZoFS-1coffer";
    case FsKind::kExtDax:
      return "Ext4-DAX";
    case FsKind::kPmfs:
      return "PMFS";
    case FsKind::kPmfsNocache:
      return "PMFS-nocache";
    case FsKind::kNova:
      return "NOVA";
    case FsKind::kNovaNoIndex:
      return "NOVA-noindex";
    case FsKind::kNovaInplace:
      return "NOVAi";
    case FsKind::kNovaInplaceNoIndex:
      return "NOVAi-noindex";
    case FsKind::kStrata:
      return "Strata";
  }
  return "?";
}

bool ParseFsKind(const std::string& s, FsKind* out) {
  static const std::pair<const char*, FsKind> kMap[] = {
      {"zofs", FsKind::kZofs},
      {"logfs", FsKind::kLogFs},
      {"zofs-sysempty", FsKind::kZofsSysEmpty},
      {"zofs-kwrite", FsKind::kZofsKWrite},
      {"zofs-1coffer", FsKind::kZofsOneCoffer},
      {"extdax", FsKind::kExtDax},
      {"ext4-dax", FsKind::kExtDax},
      {"pmfs", FsKind::kPmfs},
      {"pmfs-nocache", FsKind::kPmfsNocache},
      {"nova", FsKind::kNova},
      {"nova-noindex", FsKind::kNovaNoIndex},
      {"novai", FsKind::kNovaInplace},
      {"novai-noindex", FsKind::kNovaInplaceNoIndex},
      {"strata", FsKind::kStrata},
  };
  for (const auto& [name, kind] : kMap) {
    if (s == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

FsLab::FsLab(FsKind kind, LabOptions opts) : kind_(kind), opts_(opts) {
  nvm::Options nopts;
  nopts.size_bytes = opts_.dev_bytes;
  nopts.clwb_ns = opts_.clwb_ns;
  nopts.sfence_ns = opts_.sfence_ns;
  dev_ = std::make_unique<nvm::NvmDevice>(nopts);

  baselines::BaseFs::Config bcfg;
  bcfg.crossing_ns = opts_.kernel_crossing_ns;

  switch (kind_) {
    case FsKind::kZofs:
    case FsKind::kLogFs:
    case FsKind::kZofsSysEmpty:
    case FsKind::kZofsKWrite:
    case FsKind::kZofsOneCoffer: {
      if (!opts_.disable_mpk) {
        mpk::InstallDeviceHook(dev_.get());
      }
      kernfs::FormatOptions fopts;
      fopts.root_type = kind_ == FsKind::kLogFs ? kernfs::kCofferTypeLogFs
                                                : kernfs::kCofferTypeZofs;
      // 0755 root => effective group 0644, matching the 0644 files benchmark
      // workloads create (a umask-0022 world, as in the paper's setup): the
      // benchmark tree shares one coffer unless a workload asks otherwise.
      fopts.root_mode = 0755;
      fopts.root_uid = opts_.cred.uid;
      fopts.root_gid = opts_.cred.gid;
      kernfs_ = std::make_unique<kernfs::KernFs>(dev_.get(), fopts);
      kernfs_->set_kernel_crossing_ns(opts_.kernel_crossing_ns);
      break;
    }
    case FsKind::kStrata: {
      baselines::StrataConfig scfg;
      scfg.crossing_ns = opts_.kernel_crossing_ns;
      strata_core_ = std::make_unique<baselines::StrataCore>(dev_.get(), scfg);
      break;
    }
    case FsKind::kExtDax:
      shared_fs_ = std::make_unique<baselines::ExtDaxFs>(dev_.get(), bcfg);
      break;
    case FsKind::kPmfs:
      shared_fs_ = std::make_unique<baselines::PmfsFs>(dev_.get(), bcfg);
      break;
    case FsKind::kPmfsNocache:
      shared_fs_ = std::make_unique<baselines::PmfsFs>(dev_.get(), bcfg,
                                                       baselines::PmfsConfig{.nocache = true});
      break;
    case FsKind::kNova:
      shared_fs_ = std::make_unique<baselines::NovaFs>(dev_.get(), bcfg);
      break;
    case FsKind::kNovaNoIndex:
      shared_fs_ = std::make_unique<baselines::NovaFs>(
          dev_.get(), bcfg, baselines::NovaConfig{.inplace = false, .update_index = false});
      break;
    case FsKind::kNovaInplace:
      shared_fs_ = std::make_unique<baselines::NovaFs>(
          dev_.get(), bcfg, baselines::NovaConfig{.inplace = true, .update_index = true});
      break;
    case FsKind::kNovaInplaceNoIndex:
      shared_fs_ = std::make_unique<baselines::NovaFs>(
          dev_.get(), bcfg, baselines::NovaConfig{.inplace = true, .update_index = false});
      break;
  }
}

FsLab::~FsLab() {
  views_.clear();
  mpk::BindThreadToProcess(nullptr);
}

vfs::FileSystem* FsLab::View(int proc) {
  if (shared_fs_ != nullptr) {
    return shared_fs_.get();  // kernel FS: one instance for every process
  }
  common::MutexLock lk(&mu_);
  if (static_cast<size_t>(proc) >= views_.size()) {
    views_.resize(proc + 1);
  }
  if (views_[proc] == nullptr) {
    switch (kind_) {
      case FsKind::kZofs:
      case FsKind::kLogFs:
      case FsKind::kZofsSysEmpty:
      case FsKind::kZofsKWrite:
      case FsKind::kZofsOneCoffer: {
        zofs::Options zopts;
        zopts.sysempty = kind_ == FsKind::kZofsSysEmpty;
        zopts.kwrite = kind_ == FsKind::kZofsKWrite;
        zopts.one_coffer = kind_ == FsKind::kZofsOneCoffer;
        zopts.inline_data = opts_.zofs_inline_data;
        zopts.atomic_data = opts_.zofs_atomic_data;
        zopts.enlarge_batch = opts_.zofs_enlarge_batch;
        views_[proc] = std::make_unique<fslib::FsLib>(kernfs_.get(), opts_.cred, zopts);
        break;
      }
      case FsKind::kStrata:
        views_[proc] = strata_core_->CreateProcessView();
        break;
      default:
        break;
    }
  }
  return views_[proc].get();
}

}  // namespace harness
