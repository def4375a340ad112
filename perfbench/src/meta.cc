// meta: one process, four threads, namespace-heavy. Each thread works half in
// its own directory, whose permission group gives it its own coffer, and half
// in one shared directory in the root coffer's group, where the threads
// contend on one coffer. Mix: 35% create (O_CREAT|O_EXCL, 1 KB write,
// close), 20% rename within the directory, 20% unlink, 15% stat, 10% open +
// 1 KB read + close. A create drawn while the directory is at its cap runs as
// an unlink, so the live set stays near its preloaded size.

#include <atomic>
#include <deque>

#include "bench.h"
#include "src/common/rand.h"

namespace perfbench {
namespace {

constexpr int kThreads = 4;
constexpr size_t kFileBytes = 1024;
// Distinct effective groups, none equal to the root coffer's 0644.
constexpr uint16_t kOwnModes[kThreads] = {0600, 0602, 0604, 0606};
constexpr size_t kGoneKept = 64;

struct Entry {
  uint64_t name;     // the file is <prefix><name>
  uint64_t content;  // FillPattern tag of its 1 KB
};

// The model of one (thread, directory): live files and recently removed names.
struct DirModel {
  std::string prefix;
  uint16_t mode = 0;
  std::vector<Entry> live;
  std::deque<uint64_t> gone;

  std::string Path(uint64_t name) const { return prefix + std::to_string(name); }
  void Forget(uint64_t name) {
    gone.push_back(name);
    if (gone.size() > kGoneKept) {
      gone.pop_front();
    }
  }
};

struct ThreadState {
  common::Rng rng{0};
  DirModel dirs[2];  // [0] own directory, [1] the shared directory
  uint64_t next_name = 0;
  uint64_t user_bytes = 0;
  std::vector<uint8_t> wbuf = std::vector<uint8_t>(kFileBytes);
  std::vector<uint8_t> rbuf = std::vector<uint8_t>(kFileBytes);
  std::vector<uint8_t> expect = std::vector<uint8_t>(kFileBytes);
};

class Meta final : public Workload {
 public:
  int threads() const override { return kThreads; }

  void Setup(uint64_t seed, Size size, bool crash_tracking, bool traced) override {
    tfs_.reset();
    stack_.reset();
    preload_ = size == Size::kSmall ? 16 : 256;
    stack_ = Stack::Format(size == Size::kSmall ? 64ull << 20 : 256ull << 20, crash_tracking);
    fs_ = stack_->AddProcess(kRoot);
    if (traced) {
      tfs_ = std::make_unique<trace::TracingFs>(fs_);
    }
    MustSucceed(fs_->Mkdir(kRoot, "/shared", 0755), "mkdir /shared");
    live_files_ = 0;
    for (int t = 0; t < kThreads; t++) {
      ThreadState& ts = threads_[t];
      ts = ThreadState{};
      ts.rng = common::Rng(seed * kThreads + static_cast<uint64_t>(t) + 0x6d657461ull);
      const std::string own = "/m" + std::to_string(t);
      MustSucceed(fs_->Mkdir(kRoot, own, kOwnModes[t]), "mkdir own directory");
      ts.dirs[0].prefix = own + "/f";
      ts.dirs[0].mode = kOwnModes[t];
      ts.dirs[1].prefix = "/shared/t" + std::to_string(t) + "_f";
      ts.dirs[1].mode = 0644;
      for (DirModel& d : ts.dirs) {
        for (size_t i = 0; i < preload_; i++) {
          const uint64_t name = ts.next_name++;
          FillPattern(name, ts.wbuf.data(), kFileBytes);
          auto fd = fs_->Open(kRoot, d.Path(name), vfs::kCreate | vfs::kExcl | vfs::kWrite, d.mode);
          MustSucceed(fd, "preload create");
          MustSucceed(fs_->Write(*fd, ts.wbuf.data(), kFileBytes), "preload write");
          MustSucceed(fs_->Close(*fd), "preload close");
          d.live.push_back(Entry{name, name});
          live_files_++;
        }
      }
    }
    if (crash_tracking) {
      stack_->dev->MarkAllPersistent();
    }
  }

  OpResult Op(int t) override {
    ThreadState& ts = threads_[t];
    vfs::FileSystem* fs = tfs_ ? static_cast<vfs::FileSystem*>(tfs_.get()) : fs_;
    DirModel& d = ts.dirs[ts.rng.Below(2)];
    const uint64_t draw = ts.rng.Below(100);
    enum { kCreate, kRename, kUnlink, kStat, kReadFile } kind =
        draw < 35 ? kCreate : draw < 55 ? kRename : draw < 75 ? kUnlink : draw < 90 ? kStat
                                                                                   : kReadFile;
    if (kind == kCreate && d.live.size() >= preload_ + preload_ / 4) {
      kind = kUnlink;
    } else if (kind != kCreate && d.live.empty()) {
      kind = kCreate;
    }

    OpResult r;
    switch (kind) {
      case kCreate: {
        r.write = true;
        const uint64_t name = ts.next_name++;
        const std::string path = d.Path(name);
        FillPattern(name, ts.wbuf.data(), kFileBytes);
        bool ok = false;
        r.ns = Timed([&] {
          auto fd = fs->Open(kRoot, path, vfs::kCreate | vfs::kExcl | vfs::kWrite, d.mode);
          if (!fd.ok()) {
            return;
          }
          auto n = fs->Write(*fd, ts.wbuf.data(), kFileBytes);
          ok = fs->Close(*fd).ok() && n.ok() && *n == kFileBytes;
        });
        r.ok = ok;
        if (ok) {
          d.live.push_back(Entry{name, name});
          live_files_.fetch_add(1, std::memory_order_relaxed);
          ts.user_bytes += kFileBytes;
        }
        return r;
      }
      case kRename: {
        r.write = true;
        const size_t i = ts.rng.Below(d.live.size());
        const uint64_t to = ts.next_name++;
        const std::string from_path = d.Path(d.live[i].name);
        const std::string to_path = d.Path(to);
        vfs::Status st = common::OkStatus();
        r.ns = Timed([&] { st = fs->Rename(kRoot, from_path, to_path); });
        r.ok = st.ok();
        if (r.ok) {
          d.Forget(d.live[i].name);
          d.live[i].name = to;
        }
        return r;
      }
      case kUnlink: {
        r.write = true;
        const size_t i = ts.rng.Below(d.live.size());
        const std::string path = d.Path(d.live[i].name);
        vfs::Status st = common::OkStatus();
        r.ns = Timed([&] { st = fs->Unlink(kRoot, path); });
        r.ok = st.ok();
        if (r.ok) {
          d.Forget(d.live[i].name);
          d.live[i] = d.live.back();
          d.live.pop_back();
          live_files_.fetch_sub(1, std::memory_order_relaxed);
        }
        return r;
      }
      case kStat: {
        // One stat in four asks for a removed name and must see ENOENT.
        const bool want_gone = !d.gone.empty() && ts.rng.Below(4) == 0;
        const std::string path = want_gone ? d.Path(d.gone[ts.rng.Below(d.gone.size())])
                                           : d.Path(d.live[ts.rng.Below(d.live.size())].name);
        vfs::Result<vfs::StatBuf> st = common::Err::kIo;
        r.ns = Timed([&] { st = fs->Stat(kRoot, path); });
        r.ok = want_gone ? (!st.ok() && st.error() == common::Err::kNoEnt)
                         : (st.ok() && st->size == kFileBytes);
        return r;
      }
      case kReadFile: {
        const Entry& e = d.live[ts.rng.Below(d.live.size())];
        const std::string path = d.Path(e.name);
        bool ok = false;
        r.ns = Timed([&] {
          auto fd = fs->Open(kRoot, path, vfs::kRead, 0);
          if (!fd.ok()) {
            return;
          }
          auto n = fs->Read(*fd, ts.rbuf.data(), kFileBytes);
          ok = fs->Close(*fd).ok() && n.ok() && *n == kFileBytes;
        });
        FillPattern(e.content, ts.expect.data(), kFileBytes);
        r.ok = ok && ts.rbuf == ts.expect;
        return r;
      }
    }
    return r;
  }

  Stack& stack() override { return *stack_; }
  double LiveUserBytes() const override {
    return static_cast<double>(live_files_.load(std::memory_order_relaxed) * kFileBytes);
  }
  uint64_t UserBytesWritten() const override {
    uint64_t b = 0;
    for (const ThreadState& ts : threads_) {
      b += ts.user_bytes;
    }
    return b;
  }
  uint64_t AppendingWrites() const override { return tfs_ ? tfs_->appending_writes() : 0; }

  uint64_t CrashAndVerify(std::string* first_error) override {
    std::string err = stack_->CrashAndRemount();
    if (!err.empty()) {
      *first_error = err;
      return 1;
    }
    fslib::FsLib* fs = stack_->procs[0].get();
    uint64_t mismatches = 0;
    auto fail = [&](const std::string& what) {
      if (mismatches++ == 0) {
        *first_error = what;
      }
    };
    std::vector<uint8_t> got(kFileBytes), expect(kFileBytes);
    for (const ThreadState& ts : threads_) {
      for (const DirModel& d : ts.dirs) {
        for (const Entry& e : d.live) {
          const std::string path = d.Path(e.name);
          auto fd = fs->Open(kRoot, path, vfs::kRead, 0);
          if (!fd.ok()) {
            fail(path + " lost after crash");
            continue;
          }
          auto n = fs->Read(*fd, got.data(), kFileBytes);
          fs->Close(*fd);
          FillPattern(e.content, expect.data(), kFileBytes);
          if (!n.ok() || *n != kFileBytes || got != expect) {
            fail(path + " content differs after crash");
          }
        }
        for (uint64_t name : d.gone) {
          auto st = fs->Stat(kRoot, d.Path(name));
          if (st.ok() || st.error() != common::Err::kNoEnt) {
            fail(d.Path(name) + " reappeared after crash");
          }
        }
      }
    }
    return mismatches;
  }

 private:
  size_t preload_ = 0;
  std::unique_ptr<Stack> stack_;
  fslib::FsLib* fs_ = nullptr;
  std::unique_ptr<trace::TracingFs> tfs_;
  ThreadState threads_[kThreads];
  std::atomic<uint64_t> live_files_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeMeta() { return std::make_unique<Meta>(); }

}  // namespace perfbench
