#include "src/fslib/fslib.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

#include "src/mpk/mpk.h"

namespace fslib {

using common::Err;
using common::OkStatus;

namespace {

// Converts an in-flight MPK violation (the simulated SIGSEGV) into a
// graceful file-system error — paper §3.4.2. Every FSLibs entry point runs
// its body under this guard. The audit::ApiGuard checks guideline G1 on the
// way out: the call must not return with a PKRU window still open.
template <typename F>
auto Guarded(const char* api, F&& body) -> decltype(body()) {
  audit::ApiGuard api_guard(api);
  try {
    return body();
  } catch (const mpk::ViolationError& v) {
    if (getenv("ZR_DEBUG_FAULT") != nullptr) {
      fprintf(stderr, "fslib: MPK violation at off=0x%lx key=0x%x write=%d\n",
              (unsigned long)v.off, v.key, v.is_write);
    }
    return Err::kFault;
  }
}

}  // namespace

FsLib::FsLib(kernfs::KernFs* kfs, vfs::Cred cred, zofs::Options zopts) : kfs_(kfs) {
  proc_ = kfs_->CreateProcess(cred);
  proc_->BindCurrentThread();
  // Dispatch on the root coffer's type (paper Figure 4: the dispatcher
  // routes to the µFS registered for the coffer type).
  const uint32_t type = kfs_->RootPageOf(kfs_->root_coffer_id())->type;
  if (type == kernfs::kCofferTypeLogFs) {
    fs_ = std::make_unique<logfs::LogFs>(kfs_, proc_);
  } else {
    auto z = std::make_unique<zofs::ZoFs>(kfs_, proc_, zopts);
    zofs_ = z.get();
    fs_ = std::move(z);
  }
}

FsLib::~FsLib() {
  fs_.reset();  // an abandoned µFS skips its own kernel-touching teardown
  if (!abandoned_) {
    kfs_->DestroyProcess(proc_);
  }
  mpk::BindThreadToProcess(nullptr);
  for (auto& c : fd_chunks_) {
    delete c.load(std::memory_order_relaxed);
  }
}

void FsLib::Abandon() {
  abandoned_ = true;
  fs_->Abandon();
}

FsLib::FdChunk* FsLib::ChunkFor(uint32_t chunk, bool create) {
  FdChunk* ch = fd_chunks_[chunk].load(std::memory_order_acquire);
  if (ch != nullptr || !create) {
    return ch;
  }
  // Creation only happens under fd_alloc_mu_, but a CAS keeps this correct
  // even if that invariant ever changes.
  auto fresh = std::make_unique<FdChunk>();
  FdChunk* expected = nullptr;
  if (fd_chunks_[chunk].compare_exchange_strong(expected, fresh.get(),
                                                std::memory_order_acq_rel)) {
    return fresh.release();
  }
  return expected;
}

vfs::Result<vfs::Fd> FsLib::InstallLowestFd(std::shared_ptr<Description> desc) {
  common::MutexLock lk(&fd_alloc_mu_);
  fd_alloc_locks_.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t w = 0; w < fd_bitmap_.size(); w++) {
    if (fd_bitmap_[w] == ~0ull) {
      continue;
    }
    const uint32_t bit = static_cast<uint32_t>(std::countr_one(fd_bitmap_[w]));
    const uint32_t fd = w * 64 + bit;
    FdSlot& slot = ChunkFor(fd / kFdsPerChunk, /*create=*/true)->slots[fd % kFdsPerChunk];
    {
      common::SpinLockGuard g(&slot.busy);
      slot.desc = std::move(desc);
    }
    // Publish the slot before marking the FD allocated: once the bit is set
    // a concurrent Close may legally free this FD again.
    fd_bitmap_[w] |= (1ull << bit);
    return static_cast<vfs::Fd>(fd);
  }
  return Err::kMFile;
}

vfs::Result<std::shared_ptr<FsLib::Description>> FsLib::Get(vfs::Fd fd) {
  if (fd < 0 || static_cast<uint32_t>(fd) >= kFdCapacity) {
    return Err::kBadF;
  }
  FdChunk* ch = ChunkFor(static_cast<uint32_t>(fd) / kFdsPerChunk, /*create=*/false);
  if (ch == nullptr) {
    return Err::kBadF;
  }
  FdSlot& slot = ch->slots[static_cast<uint32_t>(fd) % kFdsPerChunk];
  std::shared_ptr<Description> d;
  {
    common::SpinLockGuard g(&slot.busy);
    d = slot.desc;
  }
  if (d == nullptr) {
    return Err::kBadF;
  }
  return d;
}

vfs::Result<vfs::Fd> FsLib::Open(const vfs::Cred& cred, const std::string& path, uint32_t flags,
                                 uint16_t mode) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<vfs::Fd> {
    common::Result<ufs::NodeRef> node =
        (flags & vfs::kCreate) ? fs_->Create(path, mode, (flags & vfs::kExcl) != 0)
                               : fs_->Lookup(path, /*follow_last_symlink=*/true);
    if (!node.ok()) {
      return node.error();
    }

    const bool want_write = (flags & vfs::kWrite) != 0;
    RETURN_IF_ERROR(fs_->EnsureAccess(*node, want_write));
    // O_TRUNC without write access is undefined per POSIX; truncating on a
    // read-only open would destroy data the caller had no right to modify,
    // so ignore the flag unless the open requested write access.
    if ((flags & vfs::kTrunc) && want_write) {
      RETURN_IF_ERROR(fs_->TruncateNode(*node, 0));
    }
    auto desc = std::make_shared<Description>();
    desc->node = *node;
    desc->flags = flags;
    return InstallLowestFd(std::move(desc));
  });
}

vfs::Status FsLib::Close(vfs::Fd fd) {
  if (fd < 0 || static_cast<uint32_t>(fd) >= kFdCapacity) {
    return Err::kBadF;
  }
  FdChunk* ch = ChunkFor(static_cast<uint32_t>(fd) / kFdsPerChunk, /*create=*/false);
  if (ch == nullptr) {
    return Err::kBadF;
  }
  FdSlot& slot = ch->slots[static_cast<uint32_t>(fd) % kFdsPerChunk];
  std::shared_ptr<Description> dead;
  {
    common::SpinLockGuard g(&slot.busy);
    if (slot.desc == nullptr) {
      return Err::kBadF;  // double-close; the bitmap bit was already freed
    }
    dead = std::move(slot.desc);
  }
  {
    // Clear the slot before freeing the FD number so the next open that
    // reuses it can never observe the dead description.
    common::MutexLock lk(&fd_alloc_mu_);
    fd_alloc_locks_.fetch_add(1, std::memory_order_relaxed);
    fd_bitmap_[static_cast<uint32_t>(fd) / 64] &= ~(1ull << (fd % 64));
  }
  if (dead->flags & vfs::kWrite) {
    // Close with possibly-dirty metadata is a durability point: drain the
    // µFS's deferred state for this node (the ZoFS staged-append epoch) so a
    // write-then-close without fsync still lands durably, matching the
    // synchronous semantics this library had before the epoch batcher.
    BindThread();
    return Guarded(__func__, [&]() -> vfs::Status {
      fs_->FixNode(&dead->node);
      vfs::Status st = fs_->SyncNode(dead->node);
      // Close is also a channel completion point: execute this thread's
      // queued async kernel work and harvest completions off the hot path.
      if (zofs_ != nullptr) {
        zofs_->HarvestCompletions();
      }
      return st;
    });
  }
  return OkStatus();  // `dead` drops the description outside both locks
}

vfs::Result<size_t> FsLib::Read(vfs::Fd fd, void* buf, size_t n) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<size_t> {
    ASSIGN_OR_RETURN(d, Get(fd));
    fs_->FixNode(&d->node);
    common::MutexLock lk(&d->pos_mu);
    uint64_t pos = d->pos.load(std::memory_order_relaxed);
    ASSIGN_OR_RETURN(done, fs_->ReadAt(d->node, buf, n, pos));
    d->pos.store(pos + done, std::memory_order_relaxed);
    return done;
  });
}

vfs::Result<size_t> FsLib::Write(vfs::Fd fd, const void* buf, size_t n) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<size_t> {
    ASSIGN_OR_RETURN(d, Get(fd));
    fs_->FixNode(&d->node);
    if (d->flags & vfs::kAppend) {
      ASSIGN_OR_RETURN(at, fs_->Append(d->node, buf, n));
      if (d->flags & vfs::kSync) {
        RETURN_IF_ERROR(fs_->SyncNode(d->node));  // O_SYNC: durable on return
      }
      common::MutexLock lk(&d->pos_mu);
      d->pos.store(at + n, std::memory_order_relaxed);
      return n;
    }
    common::MutexLock lk(&d->pos_mu);
    uint64_t pos = d->pos.load(std::memory_order_relaxed);
    ASSIGN_OR_RETURN(done, fs_->WriteAt(d->node, buf, n, pos));
    if (d->flags & vfs::kSync) {
      RETURN_IF_ERROR(fs_->SyncNode(d->node));  // O_SYNC: durable on return
    }
    d->pos.store(pos + done, std::memory_order_relaxed);
    return done;
  });
}

vfs::Result<size_t> FsLib::Pread(vfs::Fd fd, void* buf, size_t n, uint64_t off) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<size_t> {
    ASSIGN_OR_RETURN(d, Get(fd));
    fs_->FixNode(&d->node);
    return fs_->ReadAt(d->node, buf, n, off);
  });
}

vfs::Result<size_t> FsLib::Pwrite(vfs::Fd fd, const void* buf, size_t n, uint64_t off) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<size_t> {
    ASSIGN_OR_RETURN(d, Get(fd));
    fs_->FixNode(&d->node);
    return fs_->WriteAt(d->node, buf, n, off);
  });
}

vfs::Result<uint64_t> FsLib::Lseek(vfs::Fd fd, int64_t off, int whence) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<uint64_t> {
    ASSIGN_OR_RETURN(d, Get(fd));
    common::MutexLock lk(&d->pos_mu);
    int64_t base = 0;
    switch (whence) {
      case 0:
        base = 0;
        break;
      case 1:
        base = static_cast<int64_t>(d->pos.load(std::memory_order_relaxed));
        break;
      case 2: {
        ASSIGN_OR_RETURN(st, fs_->StatNode(d->node));
        base = static_cast<int64_t>(st.size);
        break;
      }
      default:
        return Err::kInval;
    }
    int64_t target = base + off;
    if (target < 0) {
      return Err::kInval;
    }
    d->pos.store(static_cast<uint64_t>(target), std::memory_order_relaxed);
    return static_cast<uint64_t>(target);
  });
}

vfs::Status FsLib::Fsync(vfs::Fd fd) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Status {
    // Most µFS operations persist before returning; what fsync drains is the
    // deferred state of the epoch batcher (ZoFS staged appends).
    ASSIGN_OR_RETURN(d, Get(fd));
    fs_->FixNode(&d->node);
    vfs::Status st = fs_->SyncNode(d->node);
    // fsync is a channel completion point (see Close).
    if (zofs_ != nullptr) {
      zofs_->HarvestCompletions();
    }
    return st;
  });
}

vfs::Result<vfs::StatBuf> FsLib::Fstat(vfs::Fd fd) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<vfs::StatBuf> {
    ASSIGN_OR_RETURN(d, Get(fd));
    fs_->FixNode(&d->node);
    return fs_->StatNode(d->node);
  });
}

vfs::Status FsLib::Ftruncate(vfs::Fd fd, uint64_t len) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Status {
    ASSIGN_OR_RETURN(d, Get(fd));
    fs_->FixNode(&d->node);
    return fs_->TruncateNode(d->node, len);
  });
}

vfs::Result<vfs::Fd> FsLib::Dup(vfs::Fd fd) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<vfs::Fd> {
    // dup returns the lowest available FD and shares the open file
    // description (offset included) — the behaviour the FD mapping table
    // exists to provide (paper §4.2).
    ASSIGN_OR_RETURN(d, Get(fd));
    return InstallLowestFd(d);
  });
}

vfs::Status FsLib::Mkdir(const vfs::Cred& cred, const std::string& path, uint16_t mode) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->Mkdir(path, mode); });
}

vfs::Status FsLib::Rmdir(const vfs::Cred& cred, const std::string& path) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->Rmdir(path); });
}

vfs::Status FsLib::Unlink(const vfs::Cred& cred, const std::string& path) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->Unlink(path); });
}

vfs::Result<vfs::StatBuf> FsLib::Stat(const vfs::Cred& cred, const std::string& path) {
  BindThread();
  return Guarded(__func__, [&]() -> vfs::Result<vfs::StatBuf> {
    ASSIGN_OR_RETURN(node, fs_->Lookup(path, true));
    return fs_->StatNode(node);
  });
}

vfs::Result<std::vector<vfs::DirEntry>> FsLib::ReadDir(const vfs::Cred& cred,
                                                       const std::string& path) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->ReadDir(path); });
}

vfs::Status FsLib::Rename(const vfs::Cred& cred, const std::string& from, const std::string& to) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->Rename(from, to); });
}

vfs::Status FsLib::Chmod(const vfs::Cred& cred, const std::string& path, uint16_t mode) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->Chmod(path, mode); });
}

vfs::Status FsLib::Chown(const vfs::Cred& cred, const std::string& path, uint32_t uid,
                         uint32_t gid) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->Chown(path, uid, gid); });
}

vfs::Status FsLib::Symlink(const vfs::Cred& cred, const std::string& target,
                           const std::string& linkpath) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->Symlink(target, linkpath); });
}

vfs::Result<std::string> FsLib::ReadLink(const vfs::Cred& cred, const std::string& path) {
  BindThread();
  return Guarded(__func__, [&]() { return fs_->ReadLink(path); });
}

}  // namespace fslib
