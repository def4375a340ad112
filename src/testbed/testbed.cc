#include "src/testbed/testbed.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/common/result.h"
#include "src/mpk/mpk.h"

namespace testbed {

Stack::Stack(const nvm::Options& dev_opts, const kernfs::FormatOptions& fmt)
    : owned_dev_(std::make_unique<nvm::NvmDevice>(dev_opts)), dev_(owned_dev_.get()) {
  MountKernel(&fmt);
  if (dev_->crash_tracking()) {
    dev_->MarkAllPersistent();
  }
}

Stack::Stack(nvm::NvmDevice* dev) : dev_(dev) { MountKernel(nullptr); }

Stack::~Stack() { Shutdown(); }

void Stack::MountKernel(const kernfs::FormatOptions* fmt) {
  assert(kfs_ == nullptr && "the kernel is already mounted");
  mpk::InstallDeviceHook(dev_);
  // The kernel's own stores must not be checked against the page-key table
  // of a process the calling thread is still bound to.
  mpk::BindThreadToProcess(nullptr);
  kfs_ = fmt != nullptr ? std::make_unique<kernfs::KernFs>(dev_, *fmt)
                        : std::make_unique<kernfs::KernFs>(dev_);
  kfs_->set_kernel_crossing_ns(0);
}

void Stack::Mount() { MountKernel(nullptr); }

fslib::FsLib* Stack::AddProcess(vfs::Cred cred, zofs::Options zopts) {
  procs_.push_back(std::make_unique<fslib::FsLib>(kfs_.get(), cred, zopts));
  return procs_.back().get();
}

void Stack::Exit(fslib::FsLib* p) {
  auto it = std::find_if(procs_.begin(), procs_.end(),
                         [p](const std::unique_ptr<fslib::FsLib>& q) { return q.get() == p; });
  assert(it != procs_.end() && "not a process of this stack");
  std::unique_ptr<fslib::FsLib> gone = std::move(*it);
  procs_.erase(it);
}

kernfs::KillStats Stack::Kill(fslib::FsLib* p, const kernfs::KillOptions& opts) {
  kernfs::KillStats ks = kfs_->KillProcess(p->proc(), opts);
  p->Abandon();
  return ks;
}

size_t Stack::Crash() {
  const uint64_t fences = dev_->sfence_count();
  for (const std::unique_ptr<fslib::FsLib>& p : procs_) {
    p->Abandon();
  }
  procs_.clear();
  kfs_.reset();
  mpk::BindThreadToProcess(nullptr);
  if (dev_->sfence_count() != fences) {
    fprintf(stderr, "testbed: an abandoned process fenced %llu time(s) after the crash\n",
            static_cast<unsigned long long>(dev_->sfence_count() - fences));
    std::abort();
  }
  return dev_->SimulateCrash();
}

void Stack::Shutdown() {
  // The last process added exits first, as scoped locals would.
  while (!procs_.empty()) {
    procs_.pop_back();
  }
  kfs_.reset();
  mpk::BindThreadToProcess(nullptr);
}

FsckResult Stack::Fsck(fslib::FsLib* p) {
  FsckResult r;
  p->BindThread();
  auto stats = p->ufs().RecoverAll();
  if (stats.ok()) {
    r.stats = *stats;
  } else {
    r.recovery = common::ErrName(stats.error());
  }
  r.alloc = kfs_->CheckAllocTableForTest();
  return r;
}

int ReadFile(vfs::FileSystem* fs, const vfs::Cred& cred, const std::string& path,
             std::string* out) {
  auto fd = fs->Open(cred, path, vfs::kRead, 0);
  if (!fd.ok()) {
    return fd.error() == common::Err::kNoEnt ? 0 : -1;
  }
  auto st = fs->Fstat(*fd);
  if (!st.ok()) {
    fs->Close(*fd);
    return -1;
  }
  out->assign(st->size, '\0');
  size_t got = 0;
  while (got < out->size()) {
    auto r = fs->Pread(*fd, out->data() + got, out->size() - got, got);
    if (!r.ok() || *r == 0) {
      break;
    }
    got += *r;
  }
  fs->Close(*fd);
  return got == out->size() ? 1 : -1;
}

std::vector<uint64_t> EscapedPages(const uint8_t* before, const uint8_t* after,
                                   uint64_t num_pages,
                                   const std::function<bool(uint64_t page)>& may_change) {
  std::vector<uint64_t> escaped;
  for (uint64_t pg = 0; pg < num_pages; pg++) {
    if (!may_change(pg) && std::memcmp(before + pg * nvm::kPageSize,
                                       after + pg * nvm::kPageSize, nvm::kPageSize) != 0) {
      escaped.push_back(pg);
    }
  }
  return escaped;
}

void FanOut(size_t n, int threads, const std::function<void(size_t lo, size_t hi)>& body) {
  const size_t workers = std::min<size_t>(std::max(threads, 1), std::max<size_t>(n, 1));
  const size_t chunk = (n + workers - 1) / workers;
  std::vector<std::thread> pool;
  for (size_t lo = 0; lo < n; lo += chunk) {
    const size_t hi = std::min(n, lo + chunk);
    pool.emplace_back([&body, lo, hi]() { body(lo, hi); });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

}  // namespace testbed
