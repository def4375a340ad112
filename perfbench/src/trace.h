// Span tracing for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer: the benchmark op, the application (kvstore::Db) and every
// vfs::FileSystem call through TracingFs. A thread records only while a
// Recorder is installed on it, so the untraced run pays one thread-local load
// per call. Each Recorder keeps per-name call counts, total and self time
// (span minus the child spans it covers) and a latency histogram for the
// whole run, plus the first spans in full, written out when the run ends.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/vfs/vfs.h"

namespace perfbench::trace {

enum Name : uint8_t {
  kOp,  // one benchmark op, the root span
  kAppPut,
  kAppGet,
  // vfs::FileSystem calls. kVfsOther gathers the ones no workload times.
  kOpen,
  kClose,
  kRead,
  kPread,
  kWrite,
  kPwrite,
  kFsync,
  kStat,
  kRename,
  kUnlink,
  kFtruncate,
  kVfsOther,
  kNameCount
};
inline constexpr Name kFirstVfs = kOpen;
const char* NameOf(Name n);

// Log-linear histogram: 16 buckets per power of two, so a percentile read
// back (interpolated within its bucket) is within ~4% of the recorded value.
class Histogram {
 public:
  void Add(uint64_t ns);
  void Merge(const Histogram& o);
  uint64_t count() const { return n_; }
  // Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  static constexpr int kSub = 16;
  std::array<uint64_t, 64 * kSub> b_{};
  uint64_t n_ = 0;
};

struct NameStats {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  Histogram hist;
  void Merge(const NameStats& o);
};

struct SpanRecord {
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t op_id;
  uint32_t id;
  uint32_t parent;  // 0 = root
  Name name;
};

class Recorder {
 public:
  Recorder(uint16_t thread, size_t keep_spans);

  void Push(Name n);
  void Pop();

  // Adds one op's wall time minus its thread CPU time.
  void AddWait(int64_t ns) { wait_ns_ += ns; }

  uint16_t thread() const { return thread_; }
  int64_t wait_ns() const { return wait_ns_; }
  const std::array<NameStats, kNameCount>& stats() const { return stats_; }
  const std::vector<SpanRecord>& kept() const { return kept_; }

 private:
  struct Open {
    Name name;
    uint32_t id;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  static constexpr int kMaxDepth = 8;

  uint16_t thread_;
  size_t keep_;
  uint32_t next_id_ = 1;
  uint64_t op_seq_ = 0;
  int depth_ = 0;
  int64_t wait_ns_ = 0;
  std::array<Open, kMaxDepth> stack_{};
  std::array<NameStats, kNameCount> stats_{};
  std::vector<SpanRecord> kept_;
};

// The calling thread's recorder; null while tracing is off on this thread.
Recorder* Current();
void Install(Recorder* r);

// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
uint64_t ThreadCpuNs();

class Span {
 public:
  explicit Span(Name n) : rec_(Current()) {
    if (rec_ != nullptr) {
      rec_->Push(n);
    }
  }
  ~Span() {
    if (rec_ != nullptr) {
      rec_->Pop();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder* rec_;
};

// Writes the kept spans of every recorder as Chrome trace-event JSON.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::unique_ptr<Recorder>>& recs);

// Forwarding vfs::FileSystem that opens a span around every call. It also
// counts writes on O_APPEND descriptors, the base of the staged-append hit
// ratio.
class TracingFs final : public vfs::FileSystem {
 public:
  explicit TracingFs(vfs::FileSystem* inner);

  uint64_t appending_writes() const { return appending_writes_.load(std::memory_order_relaxed); }

  const char* Name() const override { return inner_->Name(); }
  vfs::Result<vfs::Fd> Open(const vfs::Cred& cred, const std::string& path, uint32_t flags,
                            uint16_t mode) override;
  vfs::Status Close(vfs::Fd fd) override;
  vfs::Result<size_t> Read(vfs::Fd fd, void* buf, size_t n) override;
  vfs::Result<size_t> Write(vfs::Fd fd, const void* buf, size_t n) override;
  vfs::Result<size_t> Pread(vfs::Fd fd, void* buf, size_t n, uint64_t off) override;
  vfs::Result<size_t> Pwrite(vfs::Fd fd, const void* buf, size_t n, uint64_t off) override;
  vfs::Result<uint64_t> Lseek(vfs::Fd fd, int64_t off, int whence) override;
  vfs::Status Fsync(vfs::Fd fd) override;
  vfs::Result<vfs::StatBuf> Fstat(vfs::Fd fd) override;
  vfs::Status Ftruncate(vfs::Fd fd, uint64_t len) override;
  vfs::Result<vfs::Fd> Dup(vfs::Fd fd) override;
  vfs::Status Mkdir(const vfs::Cred& cred, const std::string& path, uint16_t mode) override;
  vfs::Status Rmdir(const vfs::Cred& cred, const std::string& path) override;
  vfs::Status Unlink(const vfs::Cred& cred, const std::string& path) override;
  vfs::Result<vfs::StatBuf> Stat(const vfs::Cred& cred, const std::string& path) override;
  vfs::Result<std::vector<vfs::DirEntry>> ReadDir(const vfs::Cred& cred,
                                                  const std::string& path) override;
  vfs::Status Rename(const vfs::Cred& cred, const std::string& from,
                     const std::string& to) override;
  vfs::Status Chmod(const vfs::Cred& cred, const std::string& path, uint16_t mode) override;
  vfs::Status Chown(const vfs::Cred& cred, const std::string& path, uint32_t uid,
                    uint32_t gid) override;
  vfs::Status Symlink(const vfs::Cred& cred, const std::string& target,
                      const std::string& linkpath) override;
  vfs::Result<std::string> ReadLink(const vfs::Cred& cred, const std::string& path) override;

 private:
  static constexpr size_t kFds = 65536;  // FsLib's descriptor capacity
  bool IsAppend(vfs::Fd fd) const;

  vfs::FileSystem* inner_;
  // 1 = the descriptor was opened with O_APPEND.
  std::unique_ptr<std::atomic<uint8_t>[]> append_fd_;
  std::atomic<uint64_t> appending_writes_{0};
};

}  // namespace perfbench::trace

#endif  // PERFBENCH_SRC_TRACE_H_
