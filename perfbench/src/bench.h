// Shared pieces of the repository benchmark: the simulated machine each
// workload runs on, and the interface the measurement loop drives.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/nvm/nvm.h"
#include "src/vfs/vfs.h"
#include "trace.h"

namespace perfbench {

// The calibrated cost model of the repository's benches (harness::LabOptions
// defaults): one user->kernel crossing, one cacheline write-back, one fence.
inline constexpr uint64_t kCrossingNs = 300;
inline constexpr uint64_t kClwbNs = 30;
inline constexpr uint64_t kSfenceNs = 100;

inline const vfs::Cred kRoot{0, 0};

// One simulated machine: an NVM device, KernFS, and the simulated processes
// (one FsLib each). Members are destroyed processes first, device last.
struct Stack {
  std::unique_ptr<nvm::NvmDevice> dev;
  std::unique_ptr<kernfs::KernFs> kfs;
  std::vector<std::unique_ptr<fslib::FsLib>> procs;

  // Constructs and formats a device of `bytes` with the root coffer at 0755.
  static std::unique_ptr<Stack> Format(size_t bytes, bool crash_tracking);
  fslib::FsLib* AddProcess(vfs::Cred cred);
  // Power loss: no process runs its exit path; every store not yet persisted
  // is rolled back. Then the next boot: remount, run RecoverAll through a
  // fresh root process (procs[0] afterwards). Returns an error description or
  // "" when recovery and the allocation-table check pass.
  std::string CrashAndRemount();
  uint64_t PagesInUse();
};

// Size of a workload instance: the measured run uses kFull, the smoke test
// and the crash pass use kSmall.
enum class Size { kFull, kSmall };

struct OpResult {
  bool write = false;  // write class (Put, create/rename/unlink, pwrite) vs read
  bool ok = false;     // the op succeeded and its output matched the model
  uint64_t ns = 0;     // latency of the timed region (the file-system calls)
};

// Application-layer counters (kv only): Db spans that flushed or compacted.
struct AppStats {
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t stall_ns = 0;  // latency of the Puts that flushed the memtable
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const = 0;
  // Builds a fresh formatted stack and preloads it, replacing any previous
  // instance. With `traced`, file-system calls go through a TracingFs.
  virtual void Setup(uint64_t seed, Size size, bool crash_tracking, bool traced) = 0;
  // One closed-loop op on worker `t`: draw from the seeded generator, run
  // it, check the result against the workload's model.
  virtual OpResult Op(int t) = 0;
  virtual Stack& stack() = 0;
  // Bytes of user data the model says are live, and bytes the ops have
  // asked to store so far.
  virtual double LiveUserBytes() const = 0;
  virtual uint64_t UserBytesWritten() const = 0;
  // Appending writes issued through the tracing decorators (0 untraced).
  virtual uint64_t AppendingWrites() const = 0;
  virtual AppStats app() const { return {}; }
  // Crash, remount, recover, then compare everything the model holds as
  // acknowledged with the recovered file system. Returns the number of
  // mismatches and describes the first in `first_error`.
  virtual uint64_t CrashAndVerify(std::string* first_error) = 0;
};

// Runs `f`, the file-system calls of one op, and returns its latency in ns.
// In the traced run it is also the op's root span, and the op's wall time
// minus its thread CPU time is booked as waiting.
template <typename F>
uint64_t Timed(F&& f) {
  trace::Recorder* rec = trace::Current();
  const uint64_t cpu0 = rec != nullptr ? trace::ThreadCpuNs() : 0;
  uint64_t ns = 0;
  {
    trace::Span span(trace::kOp);
    const uint64_t t0 = common::RealNowNs();
    f();
    ns = common::RealNowNs() - t0;
  }
  if (rec != nullptr) {
    rec->AddWait(static_cast<int64_t>(ns) - static_cast<int64_t>(trace::ThreadCpuNs() - cpu0));
  }
  return ns;
}

std::unique_ptr<Workload> MakeKv();
std::unique_ptr<Workload> MakeMeta();
std::unique_ptr<Workload> MakeTenants();

// A set-up step that fails invalidates the whole run: abort loudly.
template <typename R>
void MustSucceed(const R& r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench set-up: %s failed: %s\n", what, common::ErrName(r.error()));
    std::abort();
  }
}

// Deterministic content: fills `n` bytes with a pattern derived from `tag`.
void FillPattern(uint64_t tag, void* dst, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
