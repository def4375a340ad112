#include "trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "src/common/clock.h"

namespace perfbench::trace {

namespace {
thread_local Recorder* t_current = nullptr;
}  // namespace

const char* NameOf(Name n) {
  static constexpr const char* kNames[kNameCount] = {
      "op",    "apps.put", "apps.get", "open",   "close",  "read",      "pread", "write",
      "pwrite", "fsync",   "stat",     "rename", "unlink", "ftruncate", "other"};
  return kNames[n];
}

void Histogram::Add(uint64_t ns) {
  size_t idx;
  if (ns < kSub) {
    idx = ns;
  } else {
    const int e = 63 - std::countl_zero(ns) - 4;
    idx = kSub + static_cast<size_t>(e) * kSub + ((ns >> e) - kSub);
  }
  b_[idx]++;
  n_++;
}

void Histogram::Merge(const Histogram& o) {
  for (size_t i = 0; i < b_.size(); i++) {
    b_[i] += o.b_[i];
  }
  n_ += o.n_;
}

double Histogram::Percentile(double p) const {
  if (n_ == 0) {
    return 0;
  }
  const auto rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n_))));
  uint64_t seen = 0;
  for (size_t i = 0; i < b_.size(); i++) {
    if (seen + b_[i] >= rank) {
      if (i < kSub) {
        return static_cast<double>(i);
      }
      // Interpolate by rank within the bucket's range.
      const size_t e = (i - kSub) / kSub;
      const double lower = static_cast<double>((kSub + (i - kSub) % kSub) << e);
      const double width = static_cast<double>(1ull << e);
      return lower + width * (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(b_[i]);
    }
    seen += b_[i];
  }
  return 0;
}

void NameStats::Merge(const NameStats& o) {
  calls += o.calls;
  total_ns += o.total_ns;
  self_ns += o.self_ns;
  hist.Merge(o.hist);
}

Recorder::Recorder(uint16_t thread, size_t keep_spans) : thread_(thread), keep_(keep_spans) {
  kept_.reserve(keep_spans);
}

void Recorder::Push(Name n) {
  if (n == kOp) {
    op_seq_++;
  }
  if (depth_ < kMaxDepth) {
    stack_[depth_] = Open{n, next_id_++, common::RealNowNs(), 0};
  }
  depth_++;
}

void Recorder::Pop() {
  const uint64_t end = common::RealNowNs();
  depth_--;
  if (depth_ >= kMaxDepth) {
    return;
  }
  const Open& o = stack_[depth_];
  const uint64_t dur = end - o.start_ns;
  NameStats& s = stats_[o.name];
  s.calls++;
  s.total_ns += dur;
  s.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
  s.hist.Add(dur);
  const uint32_t parent = depth_ > 0 ? stack_[depth_ - 1].id : 0;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
  }
  if (kept_.size() < keep_) {
    kept_.push_back(SpanRecord{o.start_ns, end, (static_cast<uint64_t>(thread_) << 48) | op_seq_,
                               o.id, parent, o.name});
  }
}

Recorder* Current() { return t_current; }
void Install(Recorder* r) { t_current = r; }

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::unique_ptr<Recorder>>& recs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t t0 = UINT64_MAX;
  for (const auto& r : recs) {
    for (const SpanRecord& s : r->kept()) {
      t0 = std::min(t0, s.start_ns);
    }
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const auto& r : recs) {
    for (const SpanRecord& s : r->kept()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u, "
                   "\"op\": %llu}}",
                   first ? "" : ",\n", NameOf(s.name), static_cast<unsigned>(r->thread()),
                   static_cast<double>(s.start_ns - t0) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.id, s.parent,
                   static_cast<unsigned long long>(s.op_id));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

TracingFs::TracingFs(vfs::FileSystem* inner)
    : inner_(inner), append_fd_(std::make_unique<std::atomic<uint8_t>[]>(kFds)) {}

bool TracingFs::IsAppend(vfs::Fd fd) const {
  return fd >= 0 && static_cast<size_t>(fd) < kFds &&
         append_fd_[fd].load(std::memory_order_relaxed) != 0;
}

vfs::Result<vfs::Fd> TracingFs::Open(const vfs::Cred& cred, const std::string& path,
                                     uint32_t flags, uint16_t mode) {
  Span s(kOpen);
  auto fd = inner_->Open(cred, path, flags, mode);
  if (fd.ok() && static_cast<size_t>(*fd) < kFds) {
    append_fd_[*fd].store((flags & vfs::kAppend) ? 1 : 0, std::memory_order_relaxed);
  }
  return fd;
}

vfs::Status TracingFs::Close(vfs::Fd fd) {
  Span s(kClose);
  return inner_->Close(fd);
}

vfs::Result<size_t> TracingFs::Read(vfs::Fd fd, void* buf, size_t n) {
  Span s(kRead);
  return inner_->Read(fd, buf, n);
}

vfs::Result<size_t> TracingFs::Write(vfs::Fd fd, const void* buf, size_t n) {
  if (IsAppend(fd)) {
    appending_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  Span s(kWrite);
  return inner_->Write(fd, buf, n);
}

vfs::Result<size_t> TracingFs::Pread(vfs::Fd fd, void* buf, size_t n, uint64_t off) {
  Span s(kPread);
  return inner_->Pread(fd, buf, n, off);
}

vfs::Result<size_t> TracingFs::Pwrite(vfs::Fd fd, const void* buf, size_t n, uint64_t off) {
  Span s(kPwrite);
  return inner_->Pwrite(fd, buf, n, off);
}

vfs::Result<uint64_t> TracingFs::Lseek(vfs::Fd fd, int64_t off, int whence) {
  Span s(kVfsOther);
  return inner_->Lseek(fd, off, whence);
}

vfs::Status TracingFs::Fsync(vfs::Fd fd) {
  Span s(kFsync);
  return inner_->Fsync(fd);
}

vfs::Result<vfs::StatBuf> TracingFs::Fstat(vfs::Fd fd) {
  Span s(kVfsOther);
  return inner_->Fstat(fd);
}

vfs::Status TracingFs::Ftruncate(vfs::Fd fd, uint64_t len) {
  Span s(kFtruncate);
  return inner_->Ftruncate(fd, len);
}

vfs::Result<vfs::Fd> TracingFs::Dup(vfs::Fd fd) {
  Span s(kVfsOther);
  auto nfd = inner_->Dup(fd);
  if (nfd.ok() && static_cast<size_t>(*nfd) < kFds) {
    append_fd_[*nfd].store(IsAppend(fd) ? 1 : 0, std::memory_order_relaxed);
  }
  return nfd;
}

vfs::Status TracingFs::Mkdir(const vfs::Cred& cred, const std::string& path, uint16_t mode) {
  Span s(kVfsOther);
  return inner_->Mkdir(cred, path, mode);
}

vfs::Status TracingFs::Rmdir(const vfs::Cred& cred, const std::string& path) {
  Span s(kVfsOther);
  return inner_->Rmdir(cred, path);
}

vfs::Status TracingFs::Unlink(const vfs::Cred& cred, const std::string& path) {
  Span s(kUnlink);
  return inner_->Unlink(cred, path);
}

vfs::Result<vfs::StatBuf> TracingFs::Stat(const vfs::Cred& cred, const std::string& path) {
  Span s(kStat);
  return inner_->Stat(cred, path);
}

vfs::Result<std::vector<vfs::DirEntry>> TracingFs::ReadDir(const vfs::Cred& cred,
                                                           const std::string& path) {
  Span s(kVfsOther);
  return inner_->ReadDir(cred, path);
}

vfs::Status TracingFs::Rename(const vfs::Cred& cred, const std::string& from,
                              const std::string& to) {
  Span s(kRename);
  return inner_->Rename(cred, from, to);
}

vfs::Status TracingFs::Chmod(const vfs::Cred& cred, const std::string& path, uint16_t mode) {
  Span s(kVfsOther);
  return inner_->Chmod(cred, path, mode);
}

vfs::Status TracingFs::Chown(const vfs::Cred& cred, const std::string& path, uint32_t uid,
                             uint32_t gid) {
  Span s(kVfsOther);
  return inner_->Chown(cred, path, uid, gid);
}

vfs::Status TracingFs::Symlink(const vfs::Cred& cred, const std::string& target,
                               const std::string& linkpath) {
  Span s(kVfsOther);
  return inner_->Symlink(cred, target, linkpath);
}

vfs::Result<std::string> TracingFs::ReadLink(const vfs::Cred& cred, const std::string& path) {
  Span s(kVfsOther);
  return inner_->ReadLink(cred, path);
}

}  // namespace perfbench::trace
