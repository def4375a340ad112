#include "src/crashmon/crashmon.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "src/common/clock.h"
#include "src/common/json.h"
#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"
#include "src/vfs/vfs.h"

namespace crashmon {
namespace {

const vfs::Cred kCred{0, 0};

using testbed::Op;

// ---------------------------------------------------------------------------
// Violations

struct StateCtx {
  uint64_t id = 0;
  int64_t epoch = -1;
  uint64_t fence = 0;
  int variant = -1;
};

void AddViolation(std::vector<Violation>* out, const StateCtx& sc, const char* kind,
                  std::string detail) {
  Violation v;
  v.state_id = sc.id;
  v.epoch = sc.epoch;
  v.fence_seq = sc.fence;
  v.mid_variant = sc.variant;
  v.kind = kind;
  v.detail = std::move(detail);
  out->push_back(std::move(v));
}

// ---------------------------------------------------------------------------
// Workload plans

struct Plan {
  std::vector<Op> setup;  // executed before crash capture starts
  std::vector<Op> run;    // executed under crash capture
  // Advance Explore's pinned clock by this much between recorded ops (0 =
  // frozen). kChurn uses it to lapse allocator leases deterministically so
  // fast-path renewals fire — and persist — during the capture.
  uint64_t clock_step_ns = 0;
};

std::string Nm(const char* prefix, uint64_t i) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%s%04llu", prefix, static_cast<unsigned long long>(i));
  return buf;
}

std::string RandData(common::Rng* rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>('a' + rng->Below(26));
  }
  return s;
}

Plan BuildPlan(Workload w, uint64_t ops, uint64_t seed) {
  common::Rng rng(seed);
  Plan p;
  switch (w) {
    case Workload::kDWOL: {
      // Figure 8's flagship data workload: overwrite random 4 KB blocks of a
      // pre-sized private file.
      const uint64_t blocks = 8;
      p.setup.push_back(Op::Create("/f0", 0644));
      p.setup.push_back(Op::Write("/f0", 0, RandData(&rng, blocks * 4096)));
      for (uint64_t i = 0; i < ops; i++) {
        p.run.push_back(Op::Write("/f0", 4096 * rng.Below(blocks), RandData(&rng, 4096)));
      }
      break;
    }
    case Workload::kDWAL: {
      // Append workload over the staged fast path. /a0 gets a periodic fsync
      // (the durability watermark the weak oracle anchors on); /a1 is never
      // synced during capture, so its stage stays live across most crash
      // points — including mid-relink images where the intent record is
      // published but the epoch's durability fence has not landed. Sizes mix
      // sub-page tail appends with multi-page ones, and the page budget
      // forces periodic epoch-overflow flushes mid-run.
      p.setup.push_back(Op::Create("/a0", 0644));
      p.setup.push_back(Op::Write("/a0", 0, RandData(&rng, 100)));
      p.setup.push_back(Op::Create("/a1", 0644));
      for (uint64_t i = 0; i < ops; i++) {
        if (i % 16 == 15) {
          p.run.push_back(Op::On(Op::Kind::kFsync, "/a0"));
        } else if (i % 3 == 2) {
          p.run.push_back(Op::Append("/a1", RandData(&rng, 48 + 16 * rng.Below(8))));
        } else {
          p.run.push_back(Op::Append("/a0", RandData(&rng, 256 + 512 * rng.Below(9))));
        }
      }
      break;
    }
    case Workload::kMWCL: {
      p.setup.push_back(Op::On(Op::Kind::kMkdir, "/c"));
      for (uint64_t i = 0; i < ops; i++) {
        // Every 8th file gets owner-only permissions: ZoFS places it in its
        // own coffer, covering mid-coffer-creation crash states.
        p.run.push_back(Op::Create("/c/" + Nm("f", i), i % 8 == 7 ? 0600 : 0644));
      }
      break;
    }
    case Workload::kMWUL: {
      p.setup.push_back(Op::On(Op::Kind::kMkdir, "/u"));
      for (uint64_t i = 0; i < ops; i++) {
        p.setup.push_back(Op::Create("/u/" + Nm("f", i), i % 8 == 7 ? 0600 : 0644));
        p.setup.push_back(Op::Write("/u/" + Nm("f", i), 0, RandData(&rng, 128)));
      }
      for (uint64_t i = 0; i < ops; i++) {
        p.run.push_back(Op::On(Op::Kind::kUnlink, "/u/" + Nm("f", i)));
      }
      break;
    }
    case Workload::kMWRL: {
      // Pairs of renames per slot: a fresh-destination rename followed by a
      // rename over an existing destination — the path the rename intent
      // protects. Some sources/victims are coffer roots (0600).
      p.setup.push_back(Op::On(Op::Kind::kMkdir, "/r"));
      const uint64_t pairs = (ops + 1) / 2;
      for (uint64_t k = 0; k < pairs; k++) {
        p.setup.push_back(Op::Create("/r/" + Nm("a", k), k % 4 == 0 ? 0600 : 0644));
        p.setup.push_back(Op::Write("/r/" + Nm("a", k), 0, RandData(&rng, 128)));
        p.setup.push_back(Op::Create("/r/" + Nm("b", k), k % 4 == 2 ? 0600 : 0644));
        p.setup.push_back(Op::Write("/r/" + Nm("b", k), 0, RandData(&rng, 96)));
      }
      for (uint64_t i = 0; i < ops; i++) {
        const uint64_t k = i / 2;
        if (i % 2 == 0) {
          p.run.push_back(Op::Rename("/r/" + Nm("a", k), "/r/" + Nm("t", k)));
        } else {
          p.run.push_back(Op::Rename("/r/" + Nm("t", k), "/r/" + Nm("b", k)));
        }
      }
      break;
    }
    case Workload::kMixed: {
      p.setup.push_back(Op::On(Op::Kind::kMkdir, "/m"));
      for (uint64_t j = 0; j < 20; j++) {
        p.setup.push_back(Op::Create("/m/" + Nm("f", j), j % 5 == 0 ? 0600 : 0644));
        p.setup.push_back(Op::Write("/m/" + Nm("f", j), 0, RandData(&rng, 160)));
      }
      for (uint64_t i = 0; i < ops; i++) {
        const uint64_t c = rng.Below(10);
        std::string f = "/m/" + Nm("f", rng.Below(40));
        if (c <= 1) {
          p.run.push_back(Op::Create(f, rng.Below(8) == 0 ? 0600 : 0644));
        } else if (c <= 4) {
          p.run.push_back(Op::Write(f, 64 * rng.Below(6), RandData(&rng, 64 + 64 * rng.Below(7))));
        } else if (c <= 6) {
          p.run.push_back(Op::On(Op::Kind::kUnlink, f));
        } else if (c == 7) {
          std::string to = "/m/" + Nm("f", rng.Below(40));
          if (to != f) {
            p.run.push_back(Op::Rename(f, to));
          } else {
            p.run.push_back(Op::On(Op::Kind::kUnlink, f));
          }
        } else if (c == 8) {
          p.run.push_back(Op::On(Op::Kind::kMkdir, "/m/" + Nm("d", rng.Below(6))));
        } else {
          p.run.push_back(Op::On(Op::Kind::kRmdir, "/m/" + Nm("d", rng.Below(6))));
        }
      }
      break;
    }
    case Workload::kChurn: {
      // Open/create/delete storm (the channel benchmarks' churn kernel):
      // creates pull allocator refills through the async submission ring, so
      // most crash points land on a partially drained ring — queued requests
      // the kernel never saw plus completed grants no free list linked yet.
      // The stepped clock lapses leases past the renewal threshold, covering
      // crashes between a persisted fast-path renewal and the next
      // durability point.
      p.setup.push_back(Op::On(Op::Kind::kMkdir, "/ch"));
      for (uint64_t i = 0; i < ops; i++) {
        p.run.push_back(Op::Create("/ch/" + Nm("f", i), i % 8 == 7 ? 0600 : 0644));
        p.run.push_back(Op::Write("/ch/" + Nm("f", i), 0, RandData(&rng, 96 + 32 * rng.Below(4))));
        if (i % 4 == 3) {
          p.run.push_back(Op::On(Op::Kind::kUnlink, "/ch/" + Nm("f", i - 3)));
        }
      }
      p.clock_step_ns = 150'000;  // lease_ns/2 is 1 ms: a renewal every ~7 ops
      break;
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Recording

// A recorded op, its outcome and the device fences that bracket it: fences
// in (begin_fence, end_fence] were emitted by this op. The workload is
// single-threaded, so at most one op spans any given fence.
struct Step {
  Op op;
  bool ok = false;
  uint64_t begin_fence = 0;
  uint64_t end_fence = 0;
};

struct Recording {
  std::vector<uint8_t> snapshot;         // device image at capture start
  std::vector<nvm::CrashEpoch> journal;  // one entry per non-empty fence
  std::vector<Step> ops;                 // the captured operations
  testbed::Model base_model;             // semantic state at capture start
  // Semantic state after the whole recording (including never-fsynced
  // tails): for a DurableOnFsync file, the upper bound a crash image may
  // expose, since mid-epoch images materialize pending lines at their
  // *next-fence* content.
  testbed::Model final_model;
  std::vector<Violation> wrong_outcomes;  // ops whose code the model did not predict
  uint64_t capture_fence = 0;             // fence count at capture start
  uint64_t ops_failed = 0;
};

// Runs `op` through the recording process, brackets it with the device's
// fence count and checks its code against the model's prediction: a
// mismatch is a wrong-outcome violation of the op named `label` + `index`.
Step RunOp(testbed::Executor* exec, nvm::NvmDevice* dev, testbed::Model* model, Op op,
           const char* label, size_t index, std::vector<Violation>* wrong) {
  const common::Err want = model->Apply(op);
  Step s;
  s.begin_fence = dev->sfence_count();
  const common::Err got = exec->Run(op);
  s.end_fence = dev->sfence_count();
  s.ok = got == common::Err::kOk;
  if (got != want) {
    AddViolation(wrong, StateCtx{0, -1, s.begin_fence, -1}, "wrong-outcome",
                 label + std::to_string(index) + " " + op.path +
                     (op.kind == Op::Kind::kRename ? " -> " + op.path2 : "") + ": got " +
                     common::ErrName(got) + ", want " + common::ErrName(want));
  }
  s.op = std::move(op);
  return s;
}

Recording Record(const ExploreOptions& opts) {
  Recording rec;
  testbed::Stack stack({.size_bytes = opts.dev_bytes, .crash_tracking = true, .media = {}},
                       {.root_mode = 0755});
  nvm::NvmDevice& dev = *stack.dev();
  zofs::Options zo;
  zo.legacy_rename_overwrite = opts.legacy_rename_overwrite;
  // Short lease so locks held in a crash image have expired by the time the
  // exploration workers recover it (leases store wall-clock deadlines).
  zo.lease_ns = 2'000'000;
  testbed::Executor exec(stack.AddProcess(kCred, zo), kCred);

  Plan plan = BuildPlan(opts.workload, opts.ops, opts.seed);
  testbed::Model model;
  for (size_t i = 0; i < plan.setup.size(); i++) {
    RunOp(&exec, &dev, &model, std::move(plan.setup[i]), "setup op ", i, &rec.wrong_outcomes);
  }

  // Files the run will append to get weak-durability accounting. This must
  // happen before capture, because staged effects of *unapplied* appends
  // (size/pointer lines at fence-time content) can leak into mid-epoch
  // images and would trip the strict content check.
  for (const Op& op : plan.run) {
    if (op.kind == Op::Kind::kAppend) {
      model.DurableOnFsync(op.path);
    }
  }
  rec.base_model = model;

  dev.StartCrashCapture();
  rec.capture_fence = dev.sfence_count();
  dev.SnapshotTo(&rec.snapshot);

  for (size_t i = 0; i < plan.run.size(); i++) {
    if (plan.clock_step_ns != 0) {
      common::AdvanceNowNsForTest(plan.clock_step_ns);
    }
    rec.ops.push_back(
        RunOp(&exec, &dev, &model, std::move(plan.run[i]), "op ", i, &rec.wrong_outcomes));
    if (!rec.ops.back().ok) {
      rec.ops_failed++;
    }
  }
  // Closing a written descriptor is a durability point: the trailing drain's
  // fences land in the journal, so the sweep also covers post-final-drain
  // images.
  exec.CloseAll();

  rec.final_model = std::move(model);
  rec.journal = dev.crash_journal();
  return rec;
}

// ---------------------------------------------------------------------------
// Oracles

std::string DescribeDiff(const std::string& want, const std::string& got) {
  std::ostringstream os;
  os << " (model " << want.size() << "B, found " << got.size() << "B";
  size_t n = std::min(want.size(), got.size());
  for (size_t i = 0; i < n; i++) {
    if (want[i] != got[i]) {
      os << ", first diff at byte " << i;
      break;
    }
  }
  os << ")";
  return os.str();
}

// An in-flight data write may be torn, but only line-wise between old and new
// content: ZoFS writes in place (no data atomicity, as the paper's design
// states), so each byte in the written range reads as old or new. Bytes
// outside the range must be untouched; bytes beyond the old size live on
// freshly allocated pages whose prior content is legal to observe.
void CheckTornWrite(vfs::FileSystem* fs, const std::string& p, const std::string& old,
                    const Op& op, const StateCtx& sc, std::vector<Violation>* out) {
  std::string got;
  int r = testbed::ReadFile(fs, kCred, p, &got);
  if (r < 0) {
    AddViolation(out, sc, "walk-failed", "read failed during in-flight write check: " + p);
    return;
  }
  if (r == 0) {
    AddViolation(out, sc, "durability-lost", "file vanished during in-flight write: " + p);
    return;
  }
  const size_t new_size = std::max<size_t>(old.size(), op.off + op.data.size());
  if (got.size() < std::min<size_t>(old.size(), new_size) || got.size() > new_size) {
    AddViolation(out, sc, "atomicity",
                 "in-flight write left illegal size on " + p + ": " + std::to_string(got.size()) +
                     "B (old " + std::to_string(old.size()) + "B, new " +
                     std::to_string(new_size) + "B)");
    return;
  }
  const size_t n = std::min(got.size(), old.size());
  for (size_t i = 0; i < n; i++) {
    const bool in_range = i >= op.off && i < op.off + op.data.size();
    if (in_range) {
      if (got[i] != old[i] && got[i] != op.data[i - op.off]) {
        AddViolation(out, sc, "atomicity",
                     "torn write byte neither old nor new on " + p + " at byte " +
                         std::to_string(i));
        return;
      }
    } else if (got[i] != old[i]) {
      AddViolation(out, sc, "atomicity",
                   "in-flight write changed byte outside its range on " + p + " at byte " +
                       std::to_string(i));
      return;
    }
  }
}

// `infl` is the operation in flight at the crash, when it returned success.
// One that returned an error must have no visible effect (operations
// validate before mutating), so it earns no tolerance.
void CheckState(vfs::FileSystem* fs, const testbed::Model& m, const testbed::Model& final_model,
                const Op* infl, const StateCtx& sc, std::vector<Violation>* out) {
  std::set<std::string> rfiles;
  std::set<std::string> rdirs;
  std::string err;
  if (!testbed::Walk(fs, kCred, "/", &rfiles, &rdirs, &err)) {
    AddViolation(out, sc, "walk-failed", err);
    return;
  }
  using K = Op::Kind;
  const auto in_flight = [infl](K kind, const std::string& p) {
    return infl != nullptr && infl->kind == kind && infl->path == p;
  };

  for (const std::string& d : m.dirs()) {
    if (rdirs.count(d) != 0 || in_flight(K::kRmdir, d)) {
      continue;
    }
    AddViolation(out, sc, "durability-lost", "directory missing: " + d);
  }
  for (const std::string& d : rdirs) {
    if (m.dirs().count(d) != 0 || in_flight(K::kMkdir, d)) {
      continue;
    }
    AddViolation(out, sc, "unexpected-path", "directory not in model: " + d);
  }

  // In-flight rename: the namespace must be in exactly the pre- or the
  // post-rename state — this is the oracle the rename intent exists for.
  std::set<std::string> skip;
  if (infl != nullptr && infl->kind == K::kRename) {
    skip.insert(infl->path);
    skip.insert(infl->path2);
    const std::string* src = m.Content(infl->path);
    if (src != nullptr) {
      const std::string* dst = m.Content(infl->path2);
      std::string f_cont;
      std::string t_cont;
      int rf = testbed::ReadFile(fs, kCred, infl->path, &f_cont);
      int rt = testbed::ReadFile(fs, kCred, infl->path2, &t_cont);
      if (rf < 0 || rt < 0) {
        AddViolation(out, sc, "walk-failed",
                     "read failed during rename check: " + infl->path + " -> " + infl->path2);
      } else {
        const bool pre = rf == 1 && f_cont == *src &&
                         (dst != nullptr ? (rt == 1 && t_cont == *dst) : rt == 0);
        const bool post = rf == 0 && rt == 1 && t_cont == *src;
        if (!pre && !post) {
          AddViolation(out, sc, "atomicity",
                       "rename " + infl->path + " -> " + infl->path2 + " torn: source " +
                           (rf == 1 ? "present" : "absent") + ", destination " +
                           (rt == 1 ? "present" : "absent") +
                           (rt == 1 ? DescribeDiff(*src, t_cont) : ""));
        }
      }
    }
  }

  for (const auto& [p, f] : m.files()) {
    if (f.synced || skip.count(p) != 0) {
      continue;
    }
    if (in_flight(K::kWrite, p)) {
      CheckTornWrite(fs, p, f.content, *infl, sc, out);
      continue;
    }
    std::string got;
    int r = testbed::ReadFile(fs, kCred, p, &got);
    if (r < 0) {
      AddViolation(out, sc, "walk-failed", "read failed: " + p);
      continue;
    }
    if (r == 0) {
      if (in_flight(K::kUnlink, p)) {
        continue;
      }
      AddViolation(out, sc, "durability-lost", "file missing: " + p);
      continue;
    }
    if (got != f.content) {
      AddViolation(out, sc, "durability-lost",
                   "content mismatch: " + p + DescribeDiff(f.content, got));
    }
  }

  // DurableOnFsync (staged-append) files: POSIX-weak durability, the
  // contract the epoch batcher trades per-op fences for. Content up to the
  // last completed fsync's watermark must be intact; beyond it nothing is
  // promised — the size may land anywhere between the watermark and the
  // final recorded content (mid-epoch images materialize pending lines at
  // next-fence content, which can run ahead of the crash fence), and
  // un-synced bytes are unconstrained (a persisted size line does not imply
  // the data or pointer lines underneath it persisted).
  for (const auto& [p, f] : m.files()) {
    if (!f.synced) {
      continue;
    }
    const std::string& synced = *f.synced;
    std::string got;
    int r = testbed::ReadFile(fs, kCred, p, &got);
    if (r < 0) {
      AddViolation(out, sc, "walk-failed", "read failed: " + p);
      continue;
    }
    if (r == 0) {
      AddViolation(out, sc, "durability-lost", "append file missing: " + p);
      continue;
    }
    const std::string* fin = final_model.Content(p);
    const size_t max_size = fin != nullptr ? fin->size() : f.content.size();
    if (got.size() < synced.size() || got.size() > max_size) {
      AddViolation(out, sc, "durability-lost",
                   "append file size out of range on " + p + ": " + std::to_string(got.size()) +
                       "B (fsync watermark " + std::to_string(synced.size()) + "B, max " +
                       std::to_string(max_size) + "B)");
      continue;
    }
    if (got.compare(0, synced.size(), synced) != 0) {
      AddViolation(out, sc, "durability-lost",
                   "fsynced prefix lost on " + p + DescribeDiff(synced, got));
    }
  }

  for (const std::string& p : rfiles) {
    if (m.files().count(p) != 0 || skip.count(p) != 0) {
      continue;
    }
    if (in_flight(K::kCreate, p)) {
      std::string got;
      if (testbed::ReadFile(fs, kCred, p, &got) == 1 && !got.empty()) {
        AddViolation(out, sc, "atomicity",
                     "in-flight create visible with nonzero size: " + p);
      }
      continue;
    }
    AddViolation(out, sc, "unexpected-path", "file not in model: " + p);
  }
}

// ---------------------------------------------------------------------------
// Exploration

struct WorkItem {
  uint64_t state_id = 0;
  int64_t base_epoch = -1;  // crash image baseline (-1 = capture snapshot)
  int variant = -1;         // -1 = post-fence state, else mid-epoch subset id
};

std::vector<bool> PickSubset(uint64_t seed, int64_t base, int variant, size_t n) {
  common::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(base + 2)) ^
                  (0x517cc1b727220a95ULL * static_cast<uint64_t>(variant + 1)));
  std::vector<bool> pick(n);
  bool any = false;
  for (size_t i = 0; i < n; i++) {
    pick[i] = (rng.Next() & 1) != 0;
    any = any || pick[i];
  }
  if (!any && n != 0) {
    pick[static_cast<size_t>(base + 2 + variant) % n] = true;
  }
  return pick;
}

std::string DescribeFault(const mpk::ViolationError& e) {
  std::ostringstream os;
  os << "mpk fault: " << (e.is_write ? "write" : "read") << " off=0x" << std::hex << e.off
     << std::dec << " key=" << static_cast<int>(e.key);
  return os.str();
}

void RecoverAndCheck(nvm::NvmDevice* dev, const Recording& rec, const testbed::Model& m,
                     const Op* infl, const StateCtx& sc, std::vector<Violation>* out) {
  testbed::Stack stack(dev);
  fslib::FsLib* fs = stack.AddProcess(kCred);
  // Recovery must never fault, whatever the crash image looks like — an
  // escaped simulated page fault on a torn image is itself a finding.
  try {
    testbed::FsckResult fsck = stack.Fsck(fs);
    if (!fsck.recovery.empty()) {
      AddViolation(out, sc, "recovery-failed", fsck.recovery);
    } else {
      if (!fsck.alloc.empty()) {
        AddViolation(out, sc, "fsck-alloc", fsck.alloc.substr(0, fsck.alloc.find('\n')));
      }
      CheckState(fs, m, rec.final_model, infl, sc, out);
    }
  } catch (const mpk::ViolationError& e) {
    AddViolation(out, sc, "recovery-failed", DescribeFault(e));
  }
}

// Checks items[0, n), each item's violations into out[i].
void Worker(const Recording& rec, const ExploreOptions& opts, const WorkItem* items, size_t n,
            std::vector<Violation>* out) {
  nvm::Options no;
  no.size_bytes = opts.dev_bytes;
  nvm::NvmDevice dev(no);
  nvm::CrashImageBuilder builder(rec.snapshot, &rec.journal);

  // Items arrive in non-decreasing base_epoch order, so the model advances
  // incrementally in lockstep with the image builder. It applies each op as
  // it predicts it: an op recorded with another code is a wrong-outcome
  // violation already.
  testbed::Model model = rec.base_model;
  size_t applied = 0;
  std::vector<uint8_t> scratch;

  for (size_t i = 0; i < n; i++) {
    const WorkItem& it = items[i];
    builder.AdvanceTo(it.base_epoch);
    const uint64_t f =
        it.base_epoch < 0 ? rec.capture_fence : rec.journal[it.base_epoch].fence_seq;

    const std::vector<uint8_t>* img = &builder.image();
    if (it.variant >= 0) {
      std::vector<bool> pick =
          PickSubset(opts.seed, it.base_epoch, it.variant, builder.NextEpochLineCount());
      if (!builder.MaterializeMidEpoch(pick, &scratch)) {
        continue;
      }
      img = &scratch;
    }

    while (applied < rec.ops.size() && rec.ops[applied].end_fence <= f) {
      model.Apply(rec.ops[applied].op);
      applied++;
    }
    const Step* infl = nullptr;
    if (it.variant < 0) {
      if (applied < rec.ops.size() && rec.ops[applied].begin_fence < f) {
        infl = &rec.ops[applied];
      }
    } else {
      const uint64_t f2 = rec.journal[it.base_epoch + 1].fence_seq;
      size_t j = applied;
      while (j < rec.ops.size() && rec.ops[j].end_fence < f2) {
        j++;
      }
      if (j < rec.ops.size() && rec.ops[j].begin_fence < f2) {
        infl = &rec.ops[j];
      }
    }

    dev.RestoreFrom(img->data(), img->size());
    StateCtx sc{it.state_id, it.base_epoch, f, it.variant};
    RecoverAndCheck(&dev, rec, model, infl != nullptr && infl->ok ? &infl->op : nullptr, sc,
                    &out[i]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDWOL:
      return "DWOL";
    case Workload::kMWCL:
      return "MWCL";
    case Workload::kMWUL:
      return "MWUL";
    case Workload::kMWRL:
      return "MWRL";
    case Workload::kMixed:
      return "MIXED";
    case Workload::kDWAL:
      return "DWAL";
    case Workload::kChurn:
      return "CHURN";
  }
  return "?";
}

bool ParseWorkload(const std::string& s, Workload* out) {
  for (Workload w : kAllWorkloads) {
    if (s == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

ExploreReport Explore(const ExploreOptions& opts) {
  // Pin the logical clock for the whole record/replay/recover cycle: a
  // free-list lease lapsing mid-recording (possible whenever the host is
  // slow enough, e.g. under sanitizers) adds an extra persist epoch and
  // breaks the report's run-to-run determinism contract.
  common::ScopedClockPin pin(1'000'000'000ull + opts.seed);
  Recording rec = Record(opts);

  ExploreReport rep;
  rep.fs = "zofs";
  rep.workload = WorkloadName(opts.workload);
  rep.seed = opts.seed;
  rep.ops_recorded = rec.ops.size();
  rep.ops_failed = rec.ops_failed;
  rep.epochs = rec.journal.size();

  // Deterministic enumeration: for each baseline (the capture snapshot, then
  // every post-fence state) the baseline itself, then its mid-epoch variants
  // drawn from the following epoch. A cap keeps a prefix of this order.
  std::vector<WorkItem> items;
  const int64_t epochs = static_cast<int64_t>(rec.journal.size());
  uint64_t id = 0;
  for (int64_t base = -1; base < epochs; base++) {
    items.push_back({id++, base, -1});
    if (base + 1 < epochs) {
      for (uint32_t k = 0; k < opts.mid_epoch_per_fence; k++) {
        items.push_back({id++, base, static_cast<int>(k)});
      }
    }
    if (opts.max_points != 0 && items.size() >= opts.max_points) {
      items.resize(opts.max_points);
      break;
    }
  }
  rep.states_explored = items.size();
  for (const WorkItem& it : items) {
    if (it.variant >= 0) {
      rep.mid_epoch_states++;
    }
  }

  // Each state's violations land in its own slot, after the recording's
  // wrong outcomes, so the report does not depend on the thread count.
  std::vector<std::vector<Violation>> per(items.size() + 1);
  per[0] = rec.wrong_outcomes;
  testbed::FanOut(items.size(), opts.threads, [&](size_t lo, size_t hi) {
    Worker(rec, opts, items.data() + lo, hi - lo, per.data() + 1 + lo);
  });
  for (const std::vector<Violation>& v : per) {
    rep.violation_count += v.size();
    for (const Violation& x : v) {
      if (rep.violations.size() < ExploreReport::kMaxViolationDetails) {
        rep.violations.push_back(x);
      }
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Reports

std::string ExploreReport::ToText() const {
  std::ostringstream os;
  os << "crash_explore: " << workload << " on " << fs << ", " << ops_recorded
     << " ops recorded (" << ops_failed << " failed), " << epochs << " persistence epochs\n";
  os << "  explored " << states_explored << " crash states (" << mid_epoch_states
     << " mid-epoch), " << violation_count << " violation(s)\n";
  for (const Violation& v : violations) {
    os << "  [" << v.kind << "] state " << v.state_id << " epoch " << v.epoch << " fence "
       << v.fence_seq;
    if (v.mid_variant >= 0) {
      os << " mid#" << v.mid_variant;
    }
    os << ": " << v.detail << "\n";
  }
  if (violation_count > violations.size()) {
    os << "  ... " << (violation_count - violations.size()) << " more violation(s) elided\n";
  }
  return os.str();
}

std::string ExploreReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"fs\": \"" << common::JsonEscape(fs) << "\",\n";
  os << "  \"workload\": \"" << common::JsonEscape(workload) << "\",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"ops_recorded\": " << ops_recorded << ",\n";
  os << "  \"ops_failed\": " << ops_failed << ",\n";
  os << "  \"epochs\": " << epochs << ",\n";
  os << "  \"states_explored\": " << states_explored << ",\n";
  os << "  \"mid_epoch_states\": " << mid_epoch_states << ",\n";
  os << "  \"violation_count\": " << violation_count << ",\n";
  os << "  \"violations\": [";
  for (size_t i = 0; i < violations.size(); i++) {
    const Violation& v = violations[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"state_id\": " << v.state_id << ", \"epoch\": " << v.epoch
       << ", \"fence_seq\": " << v.fence_seq << ", \"mid_variant\": " << v.mid_variant
       << ", \"kind\": \"" << common::JsonEscape(v.kind)
       << "\", \"detail\": \"" << common::JsonEscape(v.detail) << "\"}";
  }
  os << (violations.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

}  // namespace crashmon
