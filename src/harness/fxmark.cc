#include "src/harness/fxmark.h"

#include <vector>

#include "src/common/rand.h"

namespace harness {

namespace {
constexpr size_t kBlock = 4096;
const vfs::Cred kCred{0, 0};

// Writes `blocks` 4 KB blocks to `path`, creating it.
void MakeFile(vfs::FileSystem* fs, const std::string& path, uint64_t blocks) {
  auto fd = fs->Open(kCred, path, vfs::kCreate | vfs::kWrite, 0644);
  CHECK_OK(fd);
  std::vector<uint8_t> buf(kBlock * 16, 0xab);
  uint64_t written = 0;
  while (written < blocks) {
    uint64_t n = std::min<uint64_t>(16, blocks - written);
    auto w = fs->Pwrite(*fd, buf.data(), n * kBlock, written * kBlock);
    CHECK_OK(w);
    written += n;
  }
  fs->Close(*fd);
}

}  // namespace

const char* FxName(FxWorkload w) {
  switch (w) {
    case FxWorkload::kDRBL:
      return "DRBL";
    case FxWorkload::kDRBM:
      return "DRBM";
    case FxWorkload::kDRBH:
      return "DRBH";
    case FxWorkload::kDWAL:
      return "DWAL";
    case FxWorkload::kDWOL:
      return "DWOL";
    case FxWorkload::kDWOM:
      return "DWOM";
    case FxWorkload::kMWCL:
      return "MWCL";
    case FxWorkload::kMWUL:
      return "MWUL";
    case FxWorkload::kMWRL:
      return "MWRL";
  }
  return "?";
}

bool ParseFxWorkload(const std::string& s, FxWorkload* out) {
  for (FxWorkload w : kAllFxWorkloads) {
    if (s == FxName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

WorkloadResult RunFxmark(FsLab& lab, FxWorkload w, int threads, const FxOptions& opts) {
  vfs::FileSystem* fs = lab.View(0);

  switch (w) {
    // ---------------- data reads ----------------
    case FxWorkload::kDRBL: {  // private file, random blocks
      for (int t = 0; t < threads; t++) {
        MakeFile(fs, "/drbl_" + std::to_string(t), opts.file_blocks);
      }
      return RunThreads(threads, [&](int t) -> uint64_t {
        auto fd = fs->Open(kCred, "/drbl_" + std::to_string(t), vfs::kRead, 0);
        CHECK_OK(fd);
        common::Rng rng(opts.seed + t);
        std::vector<uint8_t> buf(kBlock);
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          uint64_t blk = rng.Below(opts.file_blocks);
          auto r = fs->Pread(*fd, buf.data(), kBlock, blk * kBlock);
          CHECK_OK(r);
        }
        fs->Close(*fd);
        return opts.ops_per_thread;
      });
    }
    case FxWorkload::kDRBM:    // shared file, per-thread block ranges
    case FxWorkload::kDRBH: {  // shared file, one hot block
      MakeFile(fs, "/shared_read", opts.file_blocks * threads);
      return RunThreads(threads, [&](int t) -> uint64_t {
        auto fd = fs->Open(kCred, "/shared_read", vfs::kRead, 0);
        CHECK_OK(fd);
        common::Rng rng(opts.seed + t);
        std::vector<uint8_t> buf(kBlock);
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          uint64_t blk = w == FxWorkload::kDRBH
                             ? 0
                             : t * opts.file_blocks + rng.Below(opts.file_blocks);
          auto r = fs->Pread(*fd, buf.data(), kBlock, blk * kBlock);
          CHECK_OK(r);
        }
        fs->Close(*fd);
        return opts.ops_per_thread;
      });
    }

    // ---------------- data writes ----------------
    case FxWorkload::kDWAL: {  // append to a private file
      for (int t = 0; t < threads; t++) {
        auto fd = fs->Open(kCred, "/dwal_" + std::to_string(t), vfs::kCreate | vfs::kWrite, 0644);
        CHECK_OK(fd);
        fs->Close(*fd);
      }
      return RunThreads(threads, [&](int t) -> uint64_t {
        auto fd = fs->Open(kCred, "/dwal_" + std::to_string(t),
                           vfs::kWrite | vfs::kAppend, 0644);
        CHECK_OK(fd);
        std::vector<uint8_t> buf(kBlock, 0x5a);
        uint64_t appended = 0;
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto r = fs->Write(*fd, buf.data(), kBlock);
          CHECK_OK(r);
          if (++appended >= opts.append_cap_blocks) {
            // Wrap to bound NVM usage (not counted as a workload op).
            fs->Ftruncate(*fd, 0);
            fs->Lseek(*fd, 0, 0);
            appended = 0;
          }
        }
        fs->Close(*fd);
        return opts.ops_per_thread;
      });
    }
    case FxWorkload::kDWOL: {  // overwrite the first block of a private file
      for (int t = 0; t < threads; t++) {
        MakeFile(fs, "/dwol_" + std::to_string(t), 4);
      }
      return RunThreads(threads, [&](int t) -> uint64_t {
        auto fd = fs->Open(kCred, "/dwol_" + std::to_string(t), vfs::kWrite, 0644);
        CHECK_OK(fd);
        std::vector<uint8_t> buf(kBlock, 0x6b);
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto r = fs->Pwrite(*fd, buf.data(), kBlock, 0);
          CHECK_OK(r);
        }
        fs->Close(*fd);
        return opts.ops_per_thread;
      });
    }
    case FxWorkload::kDWOM: {  // overwrite distinct blocks of one shared file
      MakeFile(fs, "/shared_write", opts.file_blocks * threads);
      return RunThreads(threads, [&](int t) -> uint64_t {
        auto fd = fs->Open(kCred, "/shared_write", vfs::kWrite, 0644);
        CHECK_OK(fd);
        common::Rng rng(opts.seed + t);
        std::vector<uint8_t> buf(kBlock, 0x7c);
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          uint64_t blk = t * opts.file_blocks + rng.Below(opts.file_blocks);
          auto r = fs->Pwrite(*fd, buf.data(), kBlock, blk * kBlock);
          CHECK_OK(r);
        }
        fs->Close(*fd);
        return opts.ops_per_thread;
      });
    }

    // ---------------- metadata ----------------
    case FxWorkload::kMWCL: {  // create in private directories
      for (int t = 0; t < threads; t++) {
        auto s = fs->Mkdir(kCred, "/mwcl_" + std::to_string(t), 0755);
        CHECK_OK(s);
      }
      return RunThreads(threads, [&](int t) -> uint64_t {
        std::string dir = "/mwcl_" + std::to_string(t) + "/";
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto fd = fs->Open(kCred, dir + "f" + std::to_string(i),
                             vfs::kCreate | vfs::kWrite, 0644);
          CHECK_OK(fd);
          fs->Close(*fd);
        }
        return opts.ops_per_thread;
      });
    }
    case FxWorkload::kMWUL: {  // unlink in private directories
      for (int t = 0; t < threads; t++) {
        std::string dir = "/mwul_" + std::to_string(t);
        auto s = fs->Mkdir(kCred, dir, 0755);
        CHECK_OK(s);
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto fd = fs->Open(kCred, dir + "/f" + std::to_string(i),
                             vfs::kCreate | vfs::kWrite, 0644);
          CHECK_OK(fd);
          fs->Close(*fd);
        }
      }
      return RunThreads(threads, [&](int t) -> uint64_t {
        std::string dir = "/mwul_" + std::to_string(t) + "/";
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto s = fs->Unlink(kCred, dir + "f" + std::to_string(i));
          CHECK_OK(s);
        }
        return opts.ops_per_thread;
      });
    }
    case FxWorkload::kMWRL: {  // rename in private directories
      for (int t = 0; t < threads; t++) {
        std::string dir = "/mwrl_" + std::to_string(t);
        auto s = fs->Mkdir(kCred, dir, 0755);
        CHECK_OK(s);
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto fd = fs->Open(kCred, dir + "/f" + std::to_string(i),
                             vfs::kCreate | vfs::kWrite, 0644);
          CHECK_OK(fd);
          fs->Close(*fd);
        }
      }
      return RunThreads(threads, [&](int t) -> uint64_t {
        std::string dir = "/mwrl_" + std::to_string(t) + "/";
        for (uint64_t i = 0; i < opts.ops_per_thread; i++) {
          auto s = fs->Rename(kCred, dir + "f" + std::to_string(i),
                              dir + "g" + std::to_string(i));
          CHECK_OK(s);
        }
        return opts.ops_per_thread;
      });
    }
  }
  return {};
}

}  // namespace harness
