// tenants: four simulated processes, each its own FsLib with a distinct uid,
// one thread each. A tenant home holds 24 subdirectories, one per distinct
// mode of bench_json's table4 set, so each tenant sees 25 protection classes
// (the 24 groups plus the root coffer's) against 15 MPK keys. A root-owned
// 0644 dataset is readable by all. Ops pick a directory by Zipf(0.9), then a
// file and a 4 KB block uniformly: 80% read (open, pread, close; a fifth of
// them on the shared dataset), 20% write (open, pwrite, fsync, close). Writes
// draw only from the 15 directories whose mode lets the owner write.

#include "bench.h"
#include "src/common/rand.h"

namespace perfbench {
namespace {

constexpr int kTenants = 4;
constexpr int kDirs = 24;
constexpr int kWritableDirs = 15;  // kModes[0..14] carry the owner-write bit
constexpr uint16_t kModes[kDirs] = {0600, 0602, 0604, 0606, 0620, 0622, 0624, 0626,
                                    0640, 0642, 0646, 0660, 0662, 0664, 0666, 0400,
                                    0402, 0404, 0406, 0420, 0422, 0424, 0426, 0440};
constexpr size_t kBlock = 4096;
constexpr double kZipfTheta = 0.9;

struct TenantsShape {
  int files;   // per directory
  int blocks;  // per file
  int shared_files;
  size_t dev_bytes;
};

TenantsShape ShapeFor(Size size) {
  return size == Size::kSmall ? TenantsShape{2, 2, 4, 64ull << 20}
                              : TenantsShape{8, 4, 32, 256ull << 20};
}

// Owner 0 is the shared dataset, tenants are 1..4.
std::string FilePath(int owner, int dir, int file) {
  if (owner == 0) {
    return "/pub/f" + std::to_string(file);
  }
  return "/u" + std::to_string(owner) + "/d" + std::to_string(dir) + "/f" + std::to_string(file);
}

uint64_t BlockTag(int owner, int dir, int file, int block, uint32_t version) {
  return ((((static_cast<uint64_t>(owner) * 64 + static_cast<uint64_t>(dir)) * 256 +
            static_cast<uint64_t>(file)) * 64 + static_cast<uint64_t>(block)) << 32) |
         version;
}

struct Tenant {
  vfs::Cred cred;
  fslib::FsLib* fs = nullptr;
  std::unique_ptr<trace::TracingFs> tfs;
  common::Rng rng{0};
  std::unique_ptr<common::Zipf> read_dirs;
  std::unique_ptr<common::Zipf> write_dirs;
  // The model: version of every block, [dir][file][block].
  std::vector<uint32_t> versions;
  uint64_t user_bytes = 0;
  std::vector<uint8_t> buf = std::vector<uint8_t>(kBlock);
  std::vector<uint8_t> expect = std::vector<uint8_t>(kBlock);
};

class Tenants final : public Workload {
 public:
  int threads() const override { return kTenants; }

  void Setup(uint64_t seed, Size size, bool crash_tracking, bool traced) override {
    for (Tenant& t : tenants_) {
      t = Tenant{};
    }
    stack_.reset();
    shape_ = ShapeFor(size);
    stack_ = Stack::Format(shape_.dev_bytes, crash_tracking);
    fslib::FsLib* root = stack_->AddProcess(kRoot);
    std::vector<uint8_t> buf(kBlock);

    MustSucceed(root->Mkdir(kRoot, "/pub", 0755), "mkdir /pub");
    for (int f = 0; f < shape_.shared_files; f++) {
      WriteFile(root, kRoot, 0644, 0, 0, f, &buf);
    }
    for (int k = 0; k < kTenants; k++) {
      Tenant& t = tenants_[k];
      const int owner = k + 1;
      const uint32_t uid = 1000 + static_cast<uint32_t>(owner);
      t.cred = vfs::Cred{uid, uid};
      const std::string home = "/u" + std::to_string(owner);
      MustSucceed(root->Mkdir(kRoot, home, 0700), "mkdir home");
      MustSucceed(root->Chown(kRoot, home, uid, uid), "chown home");
      // Owner-read-only groups are filled while owner-writable by a setup
      // process of the tenant, which then exits; root chmods each such
      // directory (its coffer root) into the final group.
      fslib::FsLib* filler = stack_->AddProcess(t.cred);
      for (int d = 0; d < kDirs; d++) {
        const std::string dir = home + "/d" + std::to_string(d);
        MustSucceed(filler->Mkdir(t.cred, dir, kModes[d] | 0200), "mkdir tenant directory");
        for (int f = 0; f < shape_.files; f++) {
          WriteFile(filler, t.cred, kModes[d] | 0200, owner, d, f, &buf);
        }
      }
      stack_->procs.pop_back();
      for (int d = kWritableDirs; d < kDirs; d++) {
        MustSucceed(root->Chmod(kRoot, home + "/d" + std::to_string(d), kModes[d]),
                    "chmod tenant directory");
      }
      t.fs = stack_->AddProcess(t.cred);
      t.versions.assign(static_cast<size_t>(kDirs * shape_.files * shape_.blocks), 0);
      const uint64_t s = seed * kTenants + static_cast<uint64_t>(k);
      t.rng = common::Rng(s ^ 0x74656e616e74ull);
      t.read_dirs = std::make_unique<common::Zipf>(kDirs, kZipfTheta, s ^ 0x7264ull);
      t.write_dirs = std::make_unique<common::Zipf>(kWritableDirs, kZipfTheta, s ^ 0x7772ull);
      if (traced) {
        t.tfs = std::make_unique<trace::TracingFs>(t.fs);
      }
    }
    // The root set-up process exits, so only the tenants' processes remain.
    stack_->procs.erase(stack_->procs.begin());
    if (crash_tracking) {
      stack_->dev->MarkAllPersistent();
    }
  }

  OpResult Op(int k) override {
    Tenant& t = tenants_[k];
    vfs::FileSystem* fs = t.tfs ? static_cast<vfs::FileSystem*>(t.tfs.get()) : t.fs;
    const int owner = k + 1;
    OpResult r;
    if (t.rng.Below(100) < 80) {
      const bool shared = t.rng.Below(100) < 20;
      const int o = shared ? 0 : owner;
      const int d = shared ? 0 : static_cast<int>(t.read_dirs->Next());
      const int f = static_cast<int>(t.rng.Below(shared ? shape_.shared_files : shape_.files));
      const int b = static_cast<int>(t.rng.Below(shape_.blocks));
      const std::string path = FilePath(o, d, f);
      bool ok = false;
      r.ns = Timed([&] {
        auto fd = fs->Open(t.cred, path, vfs::kRead, 0);
        if (!fd.ok()) {
          return;
        }
        auto n = fs->Pread(*fd, t.buf.data(), kBlock, static_cast<uint64_t>(b) * kBlock);
        ok = fs->Close(*fd).ok() && n.ok() && *n == kBlock;
      });
      const uint32_t version = shared ? 0 : t.versions[Slot(d, f, b)];
      FillPattern(BlockTag(o, d, f, b, version), t.expect.data(), kBlock);
      r.ok = ok && t.buf == t.expect;
      return r;
    }
    r.write = true;
    const int d = static_cast<int>(t.write_dirs->Next());
    const int f = static_cast<int>(t.rng.Below(shape_.files));
    const int b = static_cast<int>(t.rng.Below(shape_.blocks));
    const std::string path = FilePath(owner, d, f);
    const uint32_t version = t.versions[Slot(d, f, b)] + 1;
    FillPattern(BlockTag(owner, d, f, b, version), t.buf.data(), kBlock);
    bool ok = false;
    r.ns = Timed([&] {
      auto fd = fs->Open(t.cred, path, vfs::kWrite, 0);
      if (!fd.ok()) {
        return;
      }
      auto n = fs->Pwrite(*fd, t.buf.data(), kBlock, static_cast<uint64_t>(b) * kBlock);
      const bool synced = n.ok() && fs->Fsync(*fd).ok();
      ok = fs->Close(*fd).ok() && synced && *n == kBlock;
    });
    r.ok = ok;
    if (ok) {
      t.versions[Slot(d, f, b)] = version;
      t.user_bytes += kBlock;
    }
    return r;
  }

  Stack& stack() override { return *stack_; }
  double LiveUserBytes() const override {
    const int files = kTenants * kDirs * shape_.files + shape_.shared_files;
    return static_cast<double>(files) * shape_.blocks * kBlock;
  }
  uint64_t UserBytesWritten() const override {
    uint64_t b = 0;
    for (const Tenant& t : tenants_) {
      b += t.user_bytes;
    }
    return b;
  }
  uint64_t AppendingWrites() const override {
    uint64_t n = 0;
    for (const Tenant& t : tenants_) {
      n += t.tfs ? t.tfs->appending_writes() : 0;
    }
    return n;
  }

  uint64_t CrashAndVerify(std::string* first_error) override {
    for (Tenant& t : tenants_) {
      t.tfs.reset();
      t.fs = nullptr;
    }
    std::string err = stack_->CrashAndRemount();
    if (!err.empty()) {
      *first_error = err;
      return 1;
    }
    fslib::FsLib* fs = stack_->procs[0].get();
    uint64_t mismatches = 0;
    std::vector<uint8_t> got(kBlock), expect(kBlock);
    // `t` is null for the shared dataset, whose blocks stay at version 0.
    auto verify = [&](int o, int d, int f, const Tenant* t) {
      const std::string path = FilePath(o, d, f);
      auto fd = fs->Open(kRoot, path, vfs::kRead, 0);
      for (int b = 0; b < shape_.blocks; b++) {
        const uint32_t version = t == nullptr ? 0 : t->versions[Slot(d, f, b)];
        FillPattern(BlockTag(o, d, f, b, version), expect.data(), kBlock);
        auto n = fd.ok() ? fs->Pread(*fd, got.data(), kBlock, static_cast<uint64_t>(b) * kBlock)
                         : vfs::Result<size_t>(fd.error());
        if (!n.ok() || *n != kBlock || got != expect) {
          if (mismatches++ == 0) {
            *first_error = path + " block " + std::to_string(b) + " lost fsynced version " +
                           std::to_string(version);
          }
        }
      }
      if (fd.ok()) {
        fs->Close(*fd);
      }
    };
    for (int f = 0; f < shape_.shared_files; f++) {
      verify(0, 0, f, nullptr);
    }
    for (int k = 0; k < kTenants; k++) {
      for (int d = 0; d < kDirs; d++) {
        for (int f = 0; f < shape_.files; f++) {
          verify(k + 1, d, f, &tenants_[k]);
        }
      }
    }
    return mismatches;
  }

 private:
  size_t Slot(int d, int f, int b) const {
    return (static_cast<size_t>(d) * shape_.files + static_cast<size_t>(f)) * shape_.blocks +
           static_cast<size_t>(b);
  }

  // Creates one file with every block at version 0.
  void WriteFile(vfs::FileSystem* fs, const vfs::Cred& cred, uint16_t mode, int owner, int dir,
                 int file, std::vector<uint8_t>* buf) const {
    auto fd = fs->Open(cred, FilePath(owner, dir, file), vfs::kCreate | vfs::kExcl | vfs::kWrite,
                       mode);
    MustSucceed(fd, "create file");
    for (int b = 0; b < shape_.blocks; b++) {
      FillPattern(BlockTag(owner, dir, file, b, 0), buf->data(), kBlock);
      MustSucceed(fs->Pwrite(*fd, buf->data(), kBlock, static_cast<uint64_t>(b) * kBlock),
                  "fill file");
    }
    MustSucceed(fs->Close(*fd), "close file");
  }

  TenantsShape shape_{};
  std::unique_ptr<Stack> stack_;
  Tenant tenants_[kTenants];
};

}  // namespace

std::unique_ptr<Workload> MakeTenants() { return std::make_unique<Tenants>(); }

}  // namespace perfbench
