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

using common::Err;

namespace {

template <typename T>
Err Code(const common::Result<T>& r) {
  return r.ok() ? Err::kOk : r.error();
}

// A short write is a failure.
Err Written(const common::Result<size_t>& r, size_t want) {
  return r.ok() ? (*r == want ? Err::kOk : Err::kIo) : r.error();
}

std::string Parent(const std::string& p) {
  const size_t pos = p.rfind('/');
  return pos == 0 ? "/" : p.substr(0, pos);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

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

bool Walk(vfs::FileSystem* fs, const vfs::Cred& cred, const std::string& dir,
          std::set<std::string>* files, std::set<std::string>* dirs, std::string* err) {
  auto es = fs->ReadDir(cred, dir);
  if (!es.ok()) {
    *err = "readdir " + dir + ": " + common::ErrName(es.error());
    return false;
  }
  for (const vfs::DirEntry& e : *es) {
    if (e.name == "." || e.name == "..") {
      continue;
    }
    std::string p = (dir == "/") ? "/" + e.name : dir + "/" + e.name;
    if (e.type == vfs::FileType::kDirectory) {
      dirs->insert(p);
      if (!Walk(fs, cred, p, files, dirs, err)) {
        return false;
      }
    } else {
      files->insert(p);
    }
  }
  return true;
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

// ---------------------------------------------------------------------------
// Executor

Err Executor::Run(const Op& op) {
  switch (op.kind) {
    case Op::Kind::kCreate: {
      auto fd = fs_->Open(cred_, op.path, vfs::kCreate | vfs::kWrite, op.mode);
      if (fd.ok()) {
        fs_->Close(*fd);
      }
      return Code(fd);
    }
    case Op::Kind::kWrite: {
      auto fd = fs_->Open(cred_, op.path, vfs::kWrite, 0);
      if (!fd.ok()) {
        return fd.error();
      }
      auto r = fs_->Pwrite(*fd, op.data.data(), op.data.size(), op.off);
      fs_->Close(*fd);
      return Written(r, op.data.size());
    }
    case Op::Kind::kUnlink:
      return Code(fs_->Unlink(cred_, op.path));
    case Op::Kind::kMkdir:
      return Code(fs_->Mkdir(cred_, op.path, 0755));
    case Op::Kind::kRmdir:
      return Code(fs_->Rmdir(cred_, op.path));
    case Op::Kind::kRename:
      return Code(fs_->Rename(cred_, op.path, op.path2));
    case Op::Kind::kAppend:
    case Op::Kind::kFsync: {
      auto it = appends_.find(op.path);
      if (it == appends_.end()) {
        auto fd = fs_->Open(cred_, op.path, vfs::kWrite | vfs::kAppend, 0);
        if (!fd.ok()) {
          return fd.error();
        }
        it = appends_.emplace(op.path, *fd).first;
      }
      if (op.kind == Op::Kind::kFsync) {
        return Code(fs_->Fsync(it->second));
      }
      return Written(fs_->Write(it->second, op.data.data(), op.data.size()), op.data.size());
    }
  }
  return Err::kInval;
}

void Executor::CloseAll() {
  for (const auto& [path, fd] : appends_) {
    fs_->Close(fd);
  }
  appends_.clear();
}

// ---------------------------------------------------------------------------
// Model

const std::string* Model::Content(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second.content;
}

void Model::DurableOnFsync(const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.synced = it->second.content;
  }
}

Err Model::Apply(const Op& op) {
  const std::string& p = op.path;
  auto file = files_.find(p);
  // The code of an op that needs a file at `p`.
  const Err need_file = IsDir(p) ? Err::kIsDir : file == files_.end() ? Err::kNoEnt : Err::kOk;
  switch (op.kind) {
    case Op::Kind::kCreate:
      if (!IsDir(Parent(p))) {
        return Err::kNoEnt;
      }
      if (IsDir(p)) {
        return Err::kIsDir;
      }
      files_.try_emplace(p);  // open(O_CREAT) of an existing file succeeds
      return Err::kOk;
    case Op::Kind::kWrite:
    case Op::Kind::kAppend: {
      if (need_file != Err::kOk) {
        return need_file;
      }
      std::string& content = file->second.content;
      const uint64_t off = op.kind == Op::Kind::kAppend ? content.size() : op.off;
      if (content.size() < off + op.data.size()) {
        content.resize(off + op.data.size(), '\0');
      }
      content.replace(off, op.data.size(), op.data);
      return Err::kOk;
    }
    case Op::Kind::kFsync:
      if (need_file == Err::kOk && file->second.synced) {
        file->second.synced = file->second.content;
      }
      return need_file;
    case Op::Kind::kUnlink:
      if (need_file == Err::kOk) {
        files_.erase(file);
      }
      return need_file;
    case Op::Kind::kMkdir:
      if (IsDir(p) || file != files_.end()) {
        return Err::kExist;
      }
      if (!IsDir(Parent(p))) {
        return Err::kNoEnt;
      }
      dirs_.insert(p);
      return Err::kOk;
    case Op::Kind::kRmdir: {
      if (dirs_.count(p) == 0) {
        return file != files_.end() ? Err::kNotDir : Err::kNoEnt;
      }
      const std::string below = p + "/";
      auto d = dirs_.lower_bound(below);
      auto f = files_.lower_bound(below);
      if ((d != dirs_.end() && StartsWith(*d, below)) ||
          (f != files_.end() && StartsWith(f->first, below))) {
        return Err::kNotEmpty;
      }
      dirs_.erase(p);
      return Err::kOk;
    }
    case Op::Kind::kRename:
      if (need_file != Err::kOk) {
        return need_file;
      }
      if (!IsDir(Parent(op.path2))) {
        return Err::kNoEnt;
      }
      if (IsDir(op.path2)) {
        return Err::kIsDir;
      }
      if (op.path2 != p) {
        files_[op.path2] = std::move(file->second);
        files_.erase(file);
      }
      return Err::kOk;
  }
  return Err::kInval;
}

}  // namespace testbed
