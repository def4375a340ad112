#include "src/harness/benchjson.h"

#include <cstdio>
#include <sstream>
#include <thread>

#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/fslib/fslib.h"
#include "src/harness/fslab.h"
#include "src/harness/fxmark.h"
#include "src/harness/runner.h"
#include "src/mpk/keyclass.h"

namespace harness {

namespace {

constexpr size_t kBlock = 4096;
const vfs::Cred kCred{0, 0};

enum class Scope { kShared, kPrivate };
// kChurn is the open/create/delete storm the channel work targets: every op
// creates a file and every fourth op unlinks an older one, so the allocator
// keeps drawing pages from the kernel while the working set stays bounded.
// kTable3/kTable4 are the key-pressure sweeps (single-thread, 64 directory
// coffers per process): table3 keeps every coffer in one protection class,
// table4 cycles 24 distinct permission groups so classes outnumber the 15
// usable MPK keys and the LRU key window must run.
enum class Kernel { kAppend, kCreate, kUnlink, kRename, kChurn, kTable3, kTable4 };

constexpr Kernel kAllKernels[] = {Kernel::kAppend, Kernel::kCreate, Kernel::kUnlink,
                                  Kernel::kRename, Kernel::kChurn};
constexpr Kernel kTableKernels[] = {Kernel::kTable3, Kernel::kTable4};

// Key-pressure sweep shape: 64 coffers, visited in runs of 16 consecutive
// ops so the LRU window sees locality (a run faults its class in once, then
// stays hot).
constexpr int kTableDirs = 64;
constexpr uint64_t kTableRunLen = 16;

const char* KernelName(Kernel k) {
  switch (k) {
    case Kernel::kAppend:
      return "dwal";
    case Kernel::kCreate:
      return "mwcl";
    case Kernel::kUnlink:
      return "mwul";
    case Kernel::kRename:
      return "mwrl";
    case Kernel::kChurn:
      return "churn";
    case Kernel::kTable3:
      return "table3";
    case Kernel::kTable4:
      return "table4";
  }
  return "?";
}

// Eight distinct effective permission groups (EffPerm = mode & 0666), none
// equal to the root coffer's 0644: creating thread t's tree with mode
// kPrivateModes[t] forces it into its own coffer (paper §5, Figure 1). The
// benchmark cred is uid 0, so the restrictive bits never deny access.
constexpr uint16_t kPrivateModes[8] = {0600, 0602, 0604, 0606, 0620, 0622, 0624, 0626};

uint16_t ModeFor(Scope scope, int thread) {
  return scope == Scope::kPrivate ? kPrivateModes[thread % 8] : 0644;
}

// 24 distinct effective permission groups for the table4 mixed-class sweep;
// none equal the root coffer's 0644, so with the root class the process sees
// 25 protection classes — well past the 15 physical keys. The bench cred is
// uid 0 (IsRoot), so owner-read-only modes never deny access.
constexpr uint16_t kTable4Modes[24] = {
    0600, 0602, 0604, 0606, 0620, 0622, 0624, 0626, 0640, 0642, 0646, 0660,
    0662, 0664, 0666, 0400, 0402, 0404, 0406, 0420, 0422, 0424, 0426, 0440};

// Directory d's mode in a key-pressure sweep: one class for table3, a cycle
// of 24 for table4.
uint16_t TableModeFor(Kernel k, int d) {
  return k == Kernel::kTable4 ? kTable4Modes[d % 24] : 0600;
}

bool IsTableKernel(Kernel k) { return k == Kernel::kTable3 || k == Kernel::kTable4; }

std::string TreeFor(Kernel k, Scope scope, int thread) {
  return std::string("/") + KernelName(k) + (scope == Scope::kPrivate ? "p" : "s") +
         std::to_string(thread);
}

// One sweep datapoint.
struct Point {
  Kernel kernel;
  Scope scope;
  int threads;
  uint64_t ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  double mean_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  // Deterministic structural counters (deltas over the measured phase).
  // Crossings are split foreground/background (the CrossingCount()
  // mis-attribution bugfix): kernel_crossings counts only crossings a
  // measured op synchronously waited on; async-ring drains and other
  // BackgroundCrossingScope work land in kernel_crossings_bg.
  uint64_t kernel_crossings = 0;
  uint64_t kernel_crossings_bg = 0;
  uint64_t clwb = 0;
  uint64_t sfence = 0;
  uint64_t shard_lock_acquisitions = 0;
  uint64_t fd_alloc_lock_acquisitions = 0;
  // Appends absorbed by the ZoFS staged fast path (epoch batcher).
  uint64_t staged_append_hits = 0;
  // Tenant-death machinery (procmon). All five must stay 0 in a bench run —
  // a healthy workload under a pinned clock never trips a lease steal,
  // online repair, or the dead-process reaper; check_shapes.py asserts it.
  uint64_t lock_steals = 0;
  uint64_t online_repairs = 0;
  uint64_t reaped_mappings = 0;
  uint64_t reaped_grant_pages = 0;
  uint64_t reaped_lists = 0;
  // MPK key virtualization. Evictions and retagged pages are deltas over the
  // measured phase; key_class_count is the live protection-class population
  // at the end of the run.
  uint64_t key_evictions = 0;
  uint64_t key_retag_pages = 0;
  uint64_t key_class_count = 0;
};

Point RunPoint(Kernel kernel, Scope scope, int threads, const BenchJsonOptions& opts) {
  // Without the pin, a thread descheduled past a lease window re-leases with
  // an extra PersistRange and the clwb/sfence counters drift by ±1 between
  // runs. Latency measurement and the cost-model busy-waits read the
  // hardware clock (RealNowNs) and are unaffected.
  common::ScopedClockPin pin(1'000'000'000ull + opts.seed);
  LabOptions lopts;
  lopts.dev_bytes = opts.dev_bytes;
  FsLab lab(FsKind::kZofs, lopts);
  vfs::FileSystem* fs = lab.View(0);
  auto* fslib = static_cast<fslib::FsLib*>(fs);

  // ---- setup (not measured) ----
  if (IsTableKernel(kernel)) {
    // 64 directory coffers; the deltas below start after their set-up.
    for (int d = 0; d < kTableDirs; d++) {
      auto s = fs->Mkdir(kCred, TreeFor(kernel, scope, d), TableModeFor(kernel, d));
      CHECK_OK(s);
    }
  }
  for (int t = 0; !IsTableKernel(kernel) && t < threads; t++) {
    const uint16_t mode = ModeFor(scope, t);
    const std::string tree = TreeFor(kernel, scope, t);
    if (kernel == Kernel::kAppend) {
      auto fd = fs->Open(kCred, tree, vfs::kCreate | vfs::kWrite, mode);
      CHECK_OK(fd);
      fs->Close(*fd);
    } else {
      // Directory and files share one permission group so the whole
      // per-thread tree lands in one coffer.
      auto s = fs->Mkdir(kCred, tree, mode);
      CHECK_OK(s);
      if (kernel == Kernel::kUnlink || kernel == Kernel::kRename) {
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto fd = fs->Open(kCred, tree + "/f" + std::to_string(i),
                             vfs::kCreate | vfs::kWrite, mode);
          CHECK_OK(fd);
          fs->Close(*fd);
        }
      }
      if (kernel == Kernel::kRename) {
        // Pre-create the rename targets so the measured rename is a pure
        // overwrite: no dentry/page allocation in the measured region, which
        // would otherwise make grow-crossing counts interleaving-dependent
        // in the shared-coffer sweep.
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto fd = fs->Open(kCred, tree + "/g" + std::to_string(i),
                             vfs::kCreate | vfs::kWrite, mode);
          CHECK_OK(fd);
          fs->Close(*fd);
        }
      }
    }
  }

  const uint64_t fg0 = kernfs::ForegroundCrossingCount();
  const uint64_t bg0 = kernfs::BackgroundCrossingCount();
  const uint64_t clwb0 = lab.dev()->clwb_count();
  const uint64_t sfence0 = lab.dev()->sfence_count();
  const uint64_t locks0 = fslib->zofs().ShardLockAcquisitionsForTest();
  const uint64_t fdlocks0 = fslib->FdAllocLockAcquisitionsForTest();
  const uint64_t staged0 = fslib->zofs().StagedAppendHits();
  const uint64_t steals0 = zofs::LockStealCount();
  const uint64_t repairs0 = zofs::OnlineRepairCount();
  const uint64_t rmap0 = kernfs::ReapedMappingCount();
  const uint64_t rgrant0 = kernfs::ReapedGrantPageCount();
  const uint64_t rlist0 = zofs::ReapedListCount();
  const uint64_t kevict0 = mpk::KeyEvictionCount();
  const uint64_t kretag0 = mpk::KeyRetagPageCount();

  std::vector<common::LatencyRecorder> lat(threads);
  WorkloadResult wr = RunThreads(threads, [&](int t) -> uint64_t {
    fslib->BindThread();
    const uint16_t mode = ModeFor(scope, t);
    const std::string tree = TreeFor(kernel, scope, t);
    common::LatencyRecorder& rec = lat[t];
    auto timed = [&rec](auto&& op) {
      const uint64_t t0 = common::RealNowNs();
      op();
      rec.Record(common::RealNowNs() - t0);
    };
    switch (kernel) {
      case Kernel::kAppend: {
        auto fd = fs->Open(kCred, tree, vfs::kWrite | vfs::kAppend, mode);
        CHECK_OK(fd);
        std::vector<uint8_t> buf(kBlock, 0x5a);
        uint64_t appended = 0;
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          timed([&] {
            auto r = fs->Write(*fd, buf.data(), kBlock);
            CHECK_OK(r);
          });
          if (++appended >= opts.append_cap_blocks) {
            fs->Ftruncate(*fd, 0);  // wrap to bound NVM usage (not an op)
            fs->Lseek(*fd, 0, 0);
            appended = 0;
          }
        }
        fs->Close(*fd);
        break;
      }
      case Kernel::kCreate:
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          timed([&] {
            auto fd = fs->Open(kCred, tree + "/f" + std::to_string(i),
                               vfs::kCreate | vfs::kWrite, mode);
            CHECK_OK(fd);
            fs->Close(*fd);
          });
        }
        break;
      case Kernel::kUnlink:
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          timed([&] {
            auto s = fs->Unlink(kCred, tree + "/f" + std::to_string(i));
            CHECK_OK(s);
          });
        }
        break;
      case Kernel::kRename:
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          timed([&] {
            auto s = fs->Rename(kCred, tree + "/f" + std::to_string(i),
                                tree + "/g" + std::to_string(i));
            CHECK_OK(s);
          });
        }
        break;
      case Kernel::kChurn:
        // Open/create/delete storm: each op creates a fresh file; every
        // fourth op also unlinks one created three ops earlier, so pages
        // keep cycling through the allocator (net growth ~1 page/op keeps
        // the kernel refill path hot) while the tree stays bounded.
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          timed([&] {
            auto fd = fs->Open(kCred, tree + "/f" + std::to_string(i),
                               vfs::kCreate | vfs::kWrite, mode);
            CHECK_OK(fd);
            fs->Close(*fd);
            if (i % 4 == 3) {
              auto s = fs->Unlink(kCred, tree + "/f" + std::to_string(i - 3));
              CHECK_OK(s);
            }
          });
        }
        break;
      case Kernel::kTable3:
      case Kernel::kTable4:
        // Churn spread over the 64 directory coffers: op i targets dir
        // (i/16) % 64, so the working class changes every 16 ops. Under the
        // key window a class fault costs one retag crossing per run.
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          const int d = static_cast<int>((i / kTableRunLen) %
                                         static_cast<uint64_t>(kTableDirs));
          const std::string dtree = TreeFor(kernel, scope, d);
          const uint16_t dmode = TableModeFor(kernel, d);
          timed([&] {
            auto fd = fs->Open(kCred, dtree + "/f" + std::to_string(i),
                               vfs::kCreate | vfs::kWrite, dmode);
            CHECK_OK(fd);
            fs->Close(*fd);
            if (i % 4 == 3) {
              auto s = fs->Unlink(kCred, dtree + "/f" + std::to_string(i - 3));
              CHECK_OK(s);
            }
          });
        }
        break;
    }
    return opts.ops_per_thread;
  });

  Point p;
  p.kernel = kernel;
  p.scope = scope;
  p.threads = threads;
  p.ops = wr.total_ops;
  p.seconds = wr.seconds;
  p.ops_per_sec = wr.ops_per_sec;
  common::LatencyRecorder all;
  for (auto& r : lat) {
    all.Merge(r);
  }
  p.mean_ns = all.MeanNs();
  p.p50_ns = all.PercentileNs(50);
  p.p99_ns = all.PercentileNs(99);
  p.kernel_crossings = kernfs::ForegroundCrossingCount() - fg0;
  p.kernel_crossings_bg = kernfs::BackgroundCrossingCount() - bg0;
  p.clwb = lab.dev()->clwb_count() - clwb0;
  p.sfence = lab.dev()->sfence_count() - sfence0;
  p.shard_lock_acquisitions = fslib->zofs().ShardLockAcquisitionsForTest() - locks0;
  p.fd_alloc_lock_acquisitions = fslib->FdAllocLockAcquisitionsForTest() - fdlocks0;
  p.staged_append_hits = fslib->zofs().StagedAppendHits() - staged0;
  p.lock_steals = zofs::LockStealCount() - steals0;
  p.online_repairs = zofs::OnlineRepairCount() - repairs0;
  p.reaped_mappings = kernfs::ReapedMappingCount() - rmap0;
  p.reaped_grant_pages = kernfs::ReapedGrantPageCount() - rgrant0;
  p.reaped_lists = zofs::ReapedListCount() - rlist0;
  p.key_evictions = mpk::KeyEvictionCount() - kevict0;
  p.key_retag_pages = mpk::KeyRetagPageCount() - kretag0;
  p.key_class_count = fslib->zofs().proc()->LiveProtClassCount();
  return p;
}

std::string Fmt(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double PerOp(uint64_t count, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
}

void EmitPoint(std::ostringstream& out, const Point& p, bool first) {
  if (!first) {
    out << ",\n";
  }
  out << "    {\"workload\": \"" << KernelName(p.kernel) << "\", "
      << "\"coffers\": \"" << (p.scope == Scope::kPrivate ? "private" : "shared") << "\", "
      << "\"threads\": " << p.threads << ",\n"
      << "     \"ops\": " << p.ops << ", \"seconds\": " << Fmt(p.seconds)
      << ", \"ops_per_sec\": " << Fmt(p.ops_per_sec) << ",\n"
      << "     \"mean_ns\": " << Fmt(p.mean_ns) << ", \"p50_ns\": " << p.p50_ns
      << ", \"p99_ns\": " << p.p99_ns << ",\n"
      << "     \"kernel_crossings\": " << p.kernel_crossings
      << ", \"kernel_crossings_per_op\": " << Fmt(PerOp(p.kernel_crossings, p.ops))
      << ", \"kernel_crossings_bg\": " << p.kernel_crossings_bg
      << ", \"kernel_crossings_bg_per_op\": " << Fmt(PerOp(p.kernel_crossings_bg, p.ops))
      << ", \"crossing_ns_per_op\": "
      << Fmt(PerOp((p.kernel_crossings + p.kernel_crossings_bg) *
                       LabOptions{}.kernel_crossing_ns,
                   p.ops))
      << ",\n"
      << "     \"clwb\": " << p.clwb << ", \"clwb_per_op\": " << Fmt(PerOp(p.clwb, p.ops))
      << ", \"sfence\": " << p.sfence
      << ", \"sfence_per_op\": " << Fmt(PerOp(p.sfence, p.ops))
      << ", \"staged_append_hits\": " << p.staged_append_hits << ",\n"
      << "     \"shard_lock_acquisitions\": " << p.shard_lock_acquisitions
      << ", \"lock_acquisitions_per_op\": " << Fmt(PerOp(p.shard_lock_acquisitions, p.ops))
      << ",\n"
      << "     \"fd_alloc_lock_acquisitions\": " << p.fd_alloc_lock_acquisitions << ",\n"
      << "     \"lock_steals\": " << p.lock_steals
      << ", \"online_repairs\": " << p.online_repairs
      << ", \"reaped_mappings\": " << p.reaped_mappings
      << ", \"reaped_grant_pages\": " << p.reaped_grant_pages
      << ", \"reaped_lists\": " << p.reaped_lists << ",\n"
      << "     \"key_evictions\": " << p.key_evictions
      << ", \"key_evictions_per_op\": " << Fmt(PerOp(p.key_evictions, p.ops))
      << ", \"key_retag_pages\": " << p.key_retag_pages
      << ", \"key_class_count\": " << p.key_class_count << "}";
}

}  // namespace

std::string RunBenchJson(const BenchJsonOptions& opts) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"zofs-bench-scale-v6\",\n";
  out << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"config\": {\"ops_per_thread\": " << opts.ops_per_thread
      << ", \"seed\": " << opts.seed << ", \"dev_bytes\": " << opts.dev_bytes
      << ", \"append_cap_blocks\": " << opts.append_cap_blocks << ", \"thread_counts\": [";
  for (size_t i = 0; i < opts.thread_counts.size(); i++) {
    out << (i ? ", " : "") << opts.thread_counts[i];
  }
  out << "]},\n";
  {
    LabOptions defaults;
    out << "  \"cost_model\": {\"kernel_crossing_ns\": " << defaults.kernel_crossing_ns
        << ", \"clwb_ns\": " << defaults.clwb_ns << ", \"sfence_ns\": " << defaults.sfence_ns
        << "},\n";
  }

  out << "  \"sweep\": [\n";
  bool first = true;
  for (Kernel kernel : kAllKernels) {
    for (Scope scope : {Scope::kPrivate, Scope::kShared}) {
      for (int threads : opts.thread_counts) {
        EmitPoint(out, RunPoint(kernel, scope, threads, opts), first);
        first = false;
      }
    }
  }
  // Key-pressure sweeps run single-threaded only: eviction order under a
  // concurrent LRU depends on interleaving, which would break the
  // deterministic-counter invariant (concurrency under key pressure is
  // covered by the scalability tests and zofs_soak --key-pressure).
  for (Kernel kernel : kTableKernels) {
    EmitPoint(out, RunPoint(kernel, Scope::kPrivate, /*threads=*/1, opts), first);
    first = false;
  }
  out << "\n  ]";

  if (opts.run_fig8) {
    // Single-thread Figure-8 style breakdown under the default calibrated
    // cost model; a hot-path regression shows up here as a throughput drop.
    out << ",\n  \"fig8\": [\n";
    const FsKind kinds[] = {FsKind::kZofs, FsKind::kZofsSysEmpty, FsKind::kZofsKWrite};
    const FxWorkload works[] = {FxWorkload::kDWAL, FxWorkload::kDRBL, FxWorkload::kMWCL};
    bool f8first = true;
    for (FsKind kind : kinds) {
      for (FxWorkload w : works) {
        FsLab lab(kind, LabOptions{});
        FxOptions fxo;
        fxo.ops_per_thread = opts.fig8_ops;
        fxo.seed = opts.seed;
        WorkloadResult r = RunFxmark(lab, w, /*threads=*/1, fxo);
        if (!f8first) {
          out << ",\n";
        }
        f8first = false;
        out << "    {\"fs\": \"" << FsKindName(kind) << "\", \"workload\": \"" << FxName(w)
            << "\", \"ops_per_sec\": " << Fmt(r.ops_per_sec)
            << ", \"mean_ns\": " << Fmt(r.mean_latency_ns) << "}";
      }
    }
    out << "\n  ]";
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace harness
