// Scalability tests for the sharded FSLib/ZoFS hot path: sharded volatile
// state, the per-thread coffer session cache, the chunked FD table, the
// bounded relocation ledger, and the MPK key window under key exhaustion.
//
// Fixture naming is load-bearing for the sanitizer gate:
//   * ScalabilityTsan* tests are run under ThreadSanitizer by
//     tools/check_all.sh. They restrict themselves to TSan-clean shapes —
//     per-thread private coffers, pre-created shared trees, and shared-file
//     appends serialized by the NVM inode lease lock.
//   * Scalability* tests additionally exercise racy-by-design paths
//     (concurrent creates probing lock-free dentry arrays, the key window
//     revoking a class mid-operation) where benign races and graceful MPK
//     faults are the expected behaviour, not a bug.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/channel.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

const vfs::Cred kCred{0, 0};

// Distinct effective permission groups (mode & 0666), none equal to the root
// coffer's 0644 and all owner-writable: file/dir i lands in its own coffer.
constexpr uint16_t kGroupModes[] = {0600, 0602, 0604, 0606, 0620, 0622, 0624, 0626,
                                    0640, 0642, 0646, 0660, 0662, 0664, 0666};
constexpr int kNumGroupModes = 15;

class ScalabilityBase : public ::testing::Test {
 protected:
  void Build(zofs::Options zopts) { fs_ = stack_.AddProcess(kCred, zopts); }

  testbed::Stack stack_{{.size_bytes = 256ull << 20, .media = {}}, {.root_mode = 0755}};
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = nullptr;
};

class ScalabilityTsan : public ScalabilityBase {
 protected:
  void SetUp() override { Build({}); }
};

class Scalability : public ScalabilityBase {
 protected:
  void SetUp() override { Build({}); }
};

// ---------------------------------------------------------------------------
// TSan-clean threaded stress

TEST_F(ScalabilityTsan, PrivateCofferMixedStorm) {
  // Each thread owns a coffer (distinct permission group) and runs the full
  // mutating mix inside it: create, write, read, rename, unlink. Nothing is
  // shared above the kernel, so every operation must succeed.
  constexpr int kThreads = 4;
  constexpr int kRounds = 120;
  for (int t = 0; t < kThreads; t++) {
    ASSERT_TRUE(fs_->Mkdir(kCred, "/priv" + std::to_string(t), kGroupModes[t]).ok());
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      fs_->BindThread();
      const uint16_t mode = kGroupModes[t];
      const std::string dir = "/priv" + std::to_string(t);
      std::vector<uint8_t> block(1024, static_cast<uint8_t>(t + 1));
      for (int i = 0; i < kRounds; i++) {
        const std::string f = dir + "/f" + std::to_string(i);
        const std::string g = dir + "/g" + std::to_string(i);
        auto fd = fs_->Open(kCred, f, vfs::kCreate | vfs::kWrite, mode);
        if (!fd.ok() || !fs_->Write(*fd, block.data(), block.size()).ok() ||
            !fs_->Close(*fd).ok()) {
          errors++;
          continue;
        }
        auto rd = fs_->Open(kCred, f, vfs::kRead, 0);
        uint8_t buf[1024];
        if (!rd.ok() || !fs_->Read(*rd, buf, sizeof(buf)).ok() || buf[0] != t + 1 ||
            !fs_->Close(*rd).ok()) {
          errors++;
          continue;
        }
        if (!fs_->Rename(kCred, f, g).ok() || (i % 2 == 0 && !fs_->Unlink(kCred, g).ok())) {
          errors++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);
  fs_->BindThread();
  for (int t = 0; t < kThreads; t++) {
    auto entries = fs_->ReadDir(kCred, "/priv" + std::to_string(t));
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(kRounds / 2));
  }
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(ScalabilityTsan, SharedFileAppendAndSharedTreeReads) {
  // Shared-coffer traffic in its TSan-clean forms: appends to one shared
  // file (serialized by the inode lease lock) plus reads of a pre-created
  // shared tree.
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kAppends = 150;
  {
    auto fd = fs_->Open(kCred, "/applog", vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    fs_->Close(*fd);
  }
  for (int i = 0; i < 20; i++) {
    auto fd = fs_->Open(kCred, "/pre" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Write(*fd, "seed", 4).ok());
    fs_->Close(*fd);
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; t++) {
    threads.emplace_back([&, t]() {
      fs_->BindThread();
      auto fd = fs_->Open(kCred, "/applog", vfs::kWrite | vfs::kAppend, 0644);
      if (!fd.ok()) {
        errors++;
        return;
      }
      std::vector<uint8_t> buf(128, static_cast<uint8_t>(t + 1));
      for (int i = 0; i < kAppends; i++) {
        if (!fs_->Write(*fd, buf.data(), buf.size()).ok()) {
          errors++;
        }
      }
    });
  }
  for (int t = 0; t < kReaders; t++) {
    threads.emplace_back([&, t]() {
      fs_->BindThread();
      char buf[16];
      for (int i = 0; i < 300; i++) {
        auto fd = fs_->Open(kCred, "/pre" + std::to_string((t * 7 + i) % 20), vfs::kRead, 0);
        if (!fd.ok() || !fs_->Read(*fd, buf, sizeof(buf)).ok() || !fs_->Close(*fd).ok()) {
          errors++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);
  fs_->BindThread();
  auto st = fs_->Stat(kCred, "/applog");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 128u * kWriters * kAppends);  // lease lock: no lost appends
}

TEST_F(ScalabilityTsan, ChannelChurnWithConcurrentDrainAll) {
  // Create/delete churn in per-thread private coffers drives the per-thread
  // submission channels (async enlarge prefetch at the low-water mark,
  // harvest at Close) while the main thread repeatedly drains every channel
  // — the unmount path — mid-flight. Drained prefetches fail soft into the
  // synchronous refill, so every operation must still succeed.
  constexpr int kThreads = 4;
  constexpr int kRounds = 80;
  for (int t = 0; t < kThreads; t++) {
    ASSERT_TRUE(fs_->Mkdir(kCred, "/chan" + std::to_string(t), kGroupModes[t]).ok());
  }
  std::atomic<int> errors{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      fs_->BindThread();
      const uint16_t mode = kGroupModes[t];
      const std::string dir = "/chan" + std::to_string(t);
      std::vector<uint8_t> block(512, static_cast<uint8_t>(t + 1));
      for (int i = 0; i < kRounds; i++) {
        const std::string f = dir + "/f" + std::to_string(i);
        auto fd = fs_->Open(kCred, f, vfs::kCreate | vfs::kWrite, mode);
        if (!fd.ok() || !fs_->Write(*fd, block.data(), block.size()).ok() ||
            !fs_->Close(*fd).ok()) {
          errors++;
          continue;
        }
        if (i % 4 == 3 && !fs_->Unlink(kCred, dir + "/f" + std::to_string(i - 3)).ok()) {
          errors++;
        }
      }
    });
  }
  std::thread drainer([&]() {
    while (!done.load(std::memory_order_acquire)) {
      fs_->zofs().channels().DrainAll();
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  drainer.join();
  EXPECT_EQ(errors.load(), 0);
  fs_->BindThread();
  for (int t = 0; t < kThreads; t++) {
    auto entries = fs_->ReadDir(kCred, "/chan" + std::to_string(t));
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(kRounds - kRounds / 4));
  }
  fs_->zofs().channels().DrainAll();
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST(ScalabilityTsanChannel, SubmitHarvestStatsDrainAllRace) {
  // The raw cross-thread surface of one ChannelSet: each worker hammers its
  // own per-thread channel (submit, flush, take, shrink back) while the main
  // thread concurrently aggregates stats and drains all channels — the two
  // operations documented to run from another thread.
  testbed::Stack stack({.size_bytes = 128ull << 20, .media = {}}, {.root_mode = 0755});
  kernfs::KernFs& kfs = *stack.kfs();
  kernfs::Process* proc = kfs.CreateProcess(kCred);
  proc->BindCurrentThread();

  constexpr int kThreads = 4;
  constexpr int kRounds = 60;
  std::vector<uint32_t> cids;
  for (int t = 0; t < kThreads; t++) {
    auto id = kfs.CofferNew(*proc, "/r" + std::to_string(t), kernfs::kCofferTypeZofs, 0644,
                            0, 0, 2);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(kfs.CofferMap(*proc, *id, true).ok());  // enlarge needs a writable mapping
    cids.push_back(*id);
  }

  kernfs::ChannelSet channels(&kfs, proc, /*enabled=*/true);
  std::atomic<int> errors{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      proc->BindCurrentThread();
      kernfs::Channel* ch = channels.Current();
      for (int i = 0; i < kRounds; i++) {
        ch->SubmitEnlarge(cids[t], 2);
        if (i % 2 == 0) {
          ch->Flush();
        }
        kernfs::ChanCompletion grant;
        if (ch->TakeEnlarge(cids[t], &grant)) {
          // A concurrent DrainAll may have raced the take; whatever we got
          // exclusively is ours to return.
          if (!grant.status.ok() || !kfs.CofferShrink(*proc, cids[t], grant.runs).ok()) {
            errors++;
          }
        }
        (void)ch->Harvest();
      }
      mpk::BindThreadToProcess(nullptr);
    });
  }
  std::thread drainer([&]() {
    while (!done.load(std::memory_order_acquire)) {
      (void)channels.Aggregate();
      channels.DrainAll();
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  drainer.join();
  EXPECT_EQ(errors.load(), 0);
  channels.DrainAll();
  kernfs::ChannelStats agg = channels.Aggregate();
  EXPECT_GE(agg.crossings, 1u);
  EXPECT_EQ(kfs.CheckAllocTableForTest(), "") << kfs.CheckAllocTableForTest();
  mpk::BindThreadToProcess(nullptr);
}

TEST_F(ScalabilityTsan, FdTableConcurrentOpenCloseDupKeepsSlotsIsolated) {
  // Hammer the chunked FD table: concurrent open/dup/close churn while other
  // threads read through their own descriptors. A broken slot protocol shows
  // up as reads landing on the wrong description or kBadF on a live FD.
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  for (int t = 0; t < kThreads; t++) {
    auto fd = fs_->Open(kCred, "/fdt" + std::to_string(t), vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    std::vector<uint8_t> tag(64, static_cast<uint8_t>(0x40 + t));
    ASSERT_TRUE(fs_->Write(*fd, tag.data(), tag.size()).ok());
    fs_->Close(*fd);
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      fs_->BindThread();
      for (int i = 0; i < kRounds; i++) {
        auto fd = fs_->Open(kCred, "/fdt" + std::to_string(t), vfs::kRead, 0);
        if (!fd.ok()) {
          errors++;
          continue;
        }
        auto dup = fs_->Dup(*fd);
        uint8_t buf[64] = {};
        // The dup shares the description; a pread through either FD must see
        // this thread's tag byte, never another slot's description.
        auto r = dup.ok() ? fs_->Pread(*dup, buf, sizeof(buf), 0)
                          : fs_->Pread(*fd, buf, sizeof(buf), 0);
        if (!r.ok() || *r != sizeof(buf) || buf[0] != 0x40 + t) {
          errors++;
        }
        if (dup.ok()) {
          fs_->Close(*dup);
        }
        fs_->Close(*fd);
        // No double-close probe here: with the lowest-FD rule a concurrent
        // Open can legally recycle this slot between two Closes, so a second
        // Close would hit the neighbour's live descriptor.
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);
  // Double-close semantics, checked race-free: kBadF once no one else can
  // recycle the slot in between.
  auto fd = fs_->Open(kCred, "/fdt0", vfs::kRead, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_FALSE(fs_->Close(*fd).ok());
}

// ---------------------------------------------------------------------------
// Fast-path lock accounting

TEST_F(Scalability, SteadyStateReadWriteTakesNoSharedLocks) {
  auto fd = fs_->Open(kCred, "/hot", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> block(4096, 0xaa);
  ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok());
  // Warm the per-thread session (mapping + allocator) and the FD slot.
  ASSERT_TRUE(fs_->Pread(*fd, block.data(), block.size(), 0).ok());
  ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok());

  const uint64_t shard_locks0 = fs_->zofs().ShardLockAcquisitionsForTest();
  const uint64_t fd_locks0 = fs_->FdAllocLockAcquisitionsForTest();
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(fs_->Pread(*fd, block.data(), block.size(), 0).ok());
    ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok());
  }
  // The steady-state data path must not touch any shared mutex: FD lookup is
  // lock-free, the mapping and allocator come from the thread-local session,
  // and the sick/relocation gates are lock-free counter checks.
  EXPECT_EQ(fs_->zofs().ShardLockAcquisitionsForTest(), shard_locks0);
  EXPECT_EQ(fs_->FdAllocLockAcquisitionsForTest(), fd_locks0);
  fs_->Close(*fd);
}

TEST_F(Scalability, QuarantineInvalidatesSessionEntries) {
  auto fd = fs_->Open(kCred, "/sess", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Pwrite(*fd, "x", 1, 0).ok());
  auto st = fs_->Stat(kCred, "/sess");
  ASSERT_TRUE(st.ok());

  // Locate the file's coffer and warm a writable session entry for it.
  auto node = fs_->zofs().Lookup("/sess", true);
  ASSERT_TRUE(node.ok());
  const uint32_t cid = node->coffer_id;
  ASSERT_NE(cid, 0u);
  ASSERT_TRUE(fs_->zofs().EnsureMappedForTest(cid, true).ok());

  const uint64_t epoch0 = fs_->zofs().SessionEpochForTest();
  fs_->zofs().QuarantineReadOnlyForTest(cid);
  // The quarantine must bump the epoch so cached writable sessions die...
  EXPECT_GT(fs_->zofs().SessionEpochForTest(), epoch0);
  // ...and a writable remap must now fail even though this thread held a
  // warm writable entry a moment ago.
  auto remap = fs_->zofs().EnsureMappedForTest(cid, true);
  ASSERT_FALSE(remap.ok());
  EXPECT_EQ(remap.error(), common::Err::kROFS);
  // Read-only access keeps working.
  EXPECT_TRUE(fs_->zofs().EnsureMappedForTest(cid, false).ok());
  fs_->Close(*fd);
}

// ---------------------------------------------------------------------------
// Relocation ledger bounds

class ScalabilityLedger : public ScalabilityBase {
 protected:
  void SetUp() override {
    zofs::Options zopts;
    zopts.relocated_cap = 8;  // tiny cap so a handful of splits crosses it
    Build(zopts);
  }
};

TEST_F(ScalabilityLedger, SplitLedgerIsBoundedAndClearedOnUnlink) {
  // Each chmod to a fresh permission group splits the file into its own
  // coffer and records its pages in the relocation ledger.
  constexpr int kFiles = 6;
  std::vector<uint8_t> block(4096, 0x5c);
  for (int i = 0; i < kFiles; i++) {
    auto fd = fs_->Open(kCred, "/led" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok());
    fs_->Close(*fd);
  }
  uint64_t peak = 0;
  for (int i = 0; i < kFiles; i++) {
    ASSERT_TRUE(fs_->Chmod(kCred, "/led" + std::to_string(i), kGroupModes[i]).ok());
    const uint64_t count = fs_->zofs().RelocatedCountForTest();
    EXPECT_GT(count, 0u) << "split " << i << " recorded no relocations";
    peak = std::max(peak, count);
    // The cap bounds the ledger: when a batch would overflow it, older
    // entries are dropped and only the fresh batch survives.
    EXPECT_LE(count, 8u) << "ledger exceeded relocated_cap after split " << i;
    // The freshest split must remain redirectable regardless of the cap.
    EXPECT_TRUE(fs_->Stat(kCred, "/led" + std::to_string(i)).ok());
  }
  EXPECT_GT(peak, 0u);
  // Unlinking a split file deletes its coffer; ForgetMapping must purge the
  // ledger entries that redirect into the dead coffer id.
  const uint64_t before = fs_->zofs().RelocatedCountForTest();
  ASSERT_TRUE(fs_->Unlink(kCred, "/led" + std::to_string(kFiles - 1)).ok());
  EXPECT_LT(fs_->zofs().RelocatedCountForTest(), before);
  // Dropped redirects degrade gracefully: every surviving file still
  // resolves by path.
  for (int i = 0; i < kFiles - 1; i++) {
    EXPECT_TRUE(fs_->Stat(kCred, "/led" + std::to_string(i)).ok());
  }
}

// ---------------------------------------------------------------------------
// MPK key exhaustion: the key window racing live operations

TEST_F(Scalability, VictimEvictionRaceUnderKeyExhaustion) {
  // 15 private coffers + the root coffer are 16 protection classes over the
  // 15 usable MPK keys, so every thread's next operation may run the LRU key
  // window and retag dark a class another thread is about to use. A revoked
  // key surfaces as a graceful fault and a retry after the class faults back
  // in, never a crash or cross-coffer data bleed.
  for (int i = 0; i < kNumGroupModes; i++) {
    auto fd =
        fs_->Open(kCred, "/key" + std::to_string(i), vfs::kCreate | vfs::kWrite, kGroupModes[i]);
    ASSERT_TRUE(fd.ok());
    std::vector<uint8_t> tag(256, static_cast<uint8_t>(i + 1));
    ASSERT_TRUE(fs_->Write(*fd, tag.data(), tag.size()).ok());
    fs_->Close(*fd);
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  std::atomic<int> hard_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      fs_->BindThread();
      common::Rng rng(7000 + t);
      uint8_t buf[256];
      for (int i = 0; i < kRounds; i++) {
        const int k = static_cast<int>(rng.Below(kNumGroupModes));
        const std::string path = "/key" + std::to_string(k);
        // A mapping can be yanked between lookup and use; retry a few times
        // before calling it a hard failure.
        bool ok = false;
        for (int attempt = 0; attempt < 8 && !ok; attempt++) {
          auto fd = fs_->Open(kCred, path, vfs::kRead, 0);
          if (!fd.ok()) {
            continue;
          }
          auto r = fs_->Pread(*fd, buf, sizeof(buf), 0);
          ok = r.ok() && *r == sizeof(buf) && buf[0] == k + 1 && buf[255] == k + 1;
          fs_->Close(*fd);
        }
        if (!ok) {
          hard_failures++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(hard_failures.load(), 0);
  // Sequential sweep afterwards: every coffer remaps and reads back intact.
  fs_->BindThread();
  for (int i = 0; i < kNumGroupModes; i++) {
    auto fd = fs_->Open(kCred, "/key" + std::to_string(i), vfs::kRead, 0);
    ASSERT_TRUE(fd.ok());
    uint8_t buf[256];
    auto r = fs_->Pread(*fd, buf, sizeof(buf), 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(buf[0], i + 1);
    fs_->Close(*fd);
  }
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(Scalability, SharedDirectoryCreateStorm) {
  // Racy-by-design shared-coffer shape (lock-free dentry probing vs plain
  // stores): correctness is still required, TSan-cleanliness is not.
  ASSERT_TRUE(fs_->Mkdir(kCred, "/storm", 0755).ok());
  constexpr int kThreads = 4;
  constexpr int kFiles = 100;
  std::atomic<int> created{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      fs_->BindThread();
      for (int i = 0; i < kFiles; i++) {
        auto fd = fs_->Open(kCred, "/storm/t" + std::to_string(t) + "_" + std::to_string(i),
                            vfs::kCreate | vfs::kWrite, 0644);
        if (fd.ok()) {
          created++;
          fs_->Close(*fd);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(created.load(), kThreads * kFiles);
  fs_->BindThread();
  auto entries = fs_->ReadDir(kCred, "/storm");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads * kFiles));
}

TEST_F(Scalability, UnlinkRacingStagedAppendDoesNotCorruptHeap) {
  // Unlink racing an appender that holds the file's InodeLock and writes
  // into its staged-append epoch. Unlink frees the file (FreeNode drops the
  // epoch) under that lock, taken once the parent's is released, so it
  // waits for the appender: a drop under the appender once freed its
  // StageState (a heap use-after-free the filebench deleteproc mix caught),
  // and under ZOFS_AUDIT=1 the auditor saw the inode's first line cleared
  // between the appender's fence and its durability point. The appends may
  // lose data (the file is being deleted); the process must not corrupt its
  // heap, and the namespace must stay consistent.
  ASSERT_TRUE(fs_->Mkdir(kCred, "/uvw", 0755).ok());
  constexpr int kRounds = 200;
  std::atomic<bool> done{false};
  std::vector<uint8_t> blob(6000, 0xab);
  std::thread appender([&]() {
    fs_->BindThread();
    while (!done.load(std::memory_order_relaxed)) {
      auto fd = fs_->Open(kCred, "/uvw/f", vfs::kCreate | vfs::kWrite, 0644);
      if (!fd.ok()) {
        continue;
      }
      for (int i = 0; i < 8; i++) {
        (void)fs_->Write(*fd, blob.data(), blob.size());
      }
      fs_->Close(*fd);
    }
  });
  std::thread unlinker([&]() {
    fs_->BindThread();
    for (int i = 0; i < kRounds; i++) {
      (void)fs_->Unlink(kCred, "/uvw/f");
    }
    done.store(true, std::memory_order_relaxed);
  });
  appender.join();
  unlinker.join();
  fs_->BindThread();
  auto entries = fs_->ReadDir(kCred, "/uvw");
  ASSERT_TRUE(entries.ok());
  EXPECT_LE(entries->size(), 1u);
}

}  // namespace
