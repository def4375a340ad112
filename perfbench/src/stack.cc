#include <algorithm>
#include <cstring>

#include "bench.h"
#include "src/mpk/mpk.h"

namespace perfbench {

std::unique_ptr<Stack> Stack::Format(size_t bytes, bool crash_tracking) {
  auto s = std::make_unique<Stack>();
  nvm::Options o;
  o.size_bytes = bytes;
  o.crash_tracking = crash_tracking;
  o.clwb_ns = kClwbNs;
  o.sfence_ns = kSfenceNs;
  s->dev = std::make_unique<nvm::NvmDevice>(o);
  mpk::InstallDeviceHook(s->dev.get());
  kernfs::FormatOptions f;
  // 0755 root: its effective group is 0644, the group of root-owned 0644
  // files, which therefore share the root coffer.
  f.root_mode = 0755;
  s->kfs = std::make_unique<kernfs::KernFs>(s->dev.get(), f);
  s->kfs->set_kernel_crossing_ns(kCrossingNs);
  return s;
}

fslib::FsLib* Stack::AddProcess(vfs::Cred cred) {
  procs.push_back(std::make_unique<fslib::FsLib>(kfs.get(), cred));
  return procs.back().get();
}

std::string Stack::CrashAndRemount() {
  for (auto& p : procs) {
    p->Abandon();
  }
  procs.clear();
  kfs.reset();
  dev->SimulateCrash();
  kfs = std::make_unique<kernfs::KernFs>(dev.get());
  kfs->set_kernel_crossing_ns(kCrossingNs);
  fslib::FsLib* root = AddProcess(kRoot);
  auto st = root->zofs().RecoverAll();
  if (!st.ok()) {
    return std::string("RecoverAll failed: ") + common::ErrName(st.error());
  }
  std::string alloc = kfs->CheckAllocTableForTest();
  if (!alloc.empty()) {
    return "allocation table after recovery: " + alloc;
  }
  return "";
}

uint64_t Stack::PagesInUse() { return dev->num_pages() - kfs->FreePages(); }

void FillPattern(uint64_t tag, void* dst, size_t n) {
  auto* p = static_cast<uint8_t*>(dst);
  for (size_t i = 0; i < n; i += 8) {
    // SplitMix64 finalizer over (tag, position).
    uint64_t v = tag * 0x9e3779b97f4a7c15ULL + i;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
    v ^= v >> 31;
    std::memcpy(p + i, &v, std::min<size_t>(8, n - i));
  }
}

}  // namespace perfbench
