// Concurrency stress tests: multiple threads and multiple simulated
// processes hammering one ZoFS instance. Invariants checked afterwards:
// namespace consistency, allocation-table accounting, and per-file data
// integrity. These are the conditions under which the paper's lease locks
// and per-thread allocators must hold up (§5.2).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <thread>

#include "src/common/clock.h"
#include "src/common/killpoint.h"
#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"
#include "src/zofs/layout.h"
#include "src/zofs/zofs.h"

namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  vfs::Cred cred{0, 0};
  testbed::Stack stack_{{.size_bytes = 512ull << 20, .media = {}}, {.root_mode = 0755}};
  nvm::NvmDevice* dev_ = stack_.dev();
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = stack_.AddProcess(cred);
};

// Remounts `stack`, counts the pages parked on the allocators' free lists
// and runs fsck through a new process. Recovery may reclaim only pages that
// were listed: a page nothing links and nothing lists leaked.
testbed::FsckResult RemountAndFsck(testbed::Stack& stack, const vfs::Cred& cred) {
  stack.Shutdown();
  stack.Mount();
  nvm::NvmDevice* dev = stack.dev();
  fslib::FsLib* fs = stack.AddProcess(cred);
  fs->BindThread();
  uint64_t listed = 0;
  for (uint32_t cid : stack.kfs()->AllCofferIds()) {
    auto info = fs->zofs().EnsureMappedForTest(cid, false);
    EXPECT_TRUE(info.ok());
    if (!info.ok()) {
      continue;
    }
    mpk::AccessWindow w(info->key, false);
    const auto* pool = dev->As<zofs::AllocPool>(info->custom_off);
    for (const zofs::LeasedFreeList& l : pool->lists) {
      for (uint64_t p = l.head; p != 0 && listed <= dev->num_pages(); p = dev->Load64(p)) {
        listed++;
      }
    }
  }
  testbed::FsckResult fsck = stack.Fsck(fs);
  EXPECT_TRUE(fsck.recovery.empty()) << fsck.recovery;
  EXPECT_LE(fsck.stats.pages_reclaimed, listed) << "pages leaked";
  EXPECT_TRUE(fsck.alloc.empty()) << fsck.alloc;
  return fsck;
}

TEST_F(ConcurrencyTest, ParallelAppendersToPrivateFiles) {
  constexpr int kThreads = 6;
  constexpr int kAppends = 300;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      auto fd = fs_->Open(cred, "/app" + std::to_string(t),
                          vfs::kCreate | vfs::kWrite | vfs::kAppend, 0644);
      if (!fd.ok()) {
        failures++;
        return;
      }
      std::vector<uint8_t> buf(512, static_cast<uint8_t>(t + 1));
      for (int i = 0; i < kAppends; i++) {
        if (!fs_->Write(*fd, buf.data(), buf.size()).ok()) {
          failures++;
          return;
        }
      }
      fs_->Close(*fd);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  fs_->BindThread();
  for (int t = 0; t < kThreads; t++) {
    auto st = fs_->Stat(cred, "/app" + std::to_string(t));
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 512u * kAppends);
    // Every byte carries the writer's tag (no cross-thread bleed).
    auto fd = fs_->Open(cred, "/app" + std::to_string(t), vfs::kRead, 0);
    std::vector<uint8_t> buf(512 * kAppends);
    auto r = fs_->Pread(*fd, buf.data(), buf.size(), 0);
    ASSERT_TRUE(r.ok());
    for (uint8_t b : buf) {
      ASSERT_EQ(b, t + 1);
    }
  }
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(ConcurrencyTest, ConcurrentAppendersToOneSharedFile) {
  constexpr int kThreads = 4;
  constexpr int kAppends = 250;
  auto seed_fd = fs_->Open(cred, "/shared", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(seed_fd.ok());
  std::vector<std::thread> threads;
  std::atomic<int> ok_appends{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      auto fd = fs_->Open(cred, "/shared", vfs::kWrite | vfs::kAppend, 0644);
      if (!fd.ok()) {
        return;
      }
      std::vector<uint8_t> buf(256, static_cast<uint8_t>(t + 1));
      for (int i = 0; i < kAppends; i++) {
        if (fs_->Write(*fd, buf.data(), buf.size()).ok()) {
          ok_appends++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  fs_->BindThread();
  auto st = fs_->Stat(cred, "/shared");
  ASSERT_TRUE(st.ok());
  // Appends are serialised by the inode lease lock: no lost updates.
  EXPECT_EQ(st->size, 256u * ok_appends.load());
  EXPECT_EQ(ok_appends.load(), kThreads * kAppends);
}

TEST_F(ConcurrencyTest, ConcurrentCreatesInSharedDirectory) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/dir", 0755).ok());
  constexpr int kThreads = 4;
  constexpr int kFiles = 150;
  std::vector<std::thread> threads;
  std::atomic<int> created{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kFiles; i++) {
        std::string p = "/dir/t" + std::to_string(t) + "_" + std::to_string(i);
        auto fd = fs_->Open(cred, p, vfs::kCreate | vfs::kWrite, 0644);
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
  fs_->BindThread();
  EXPECT_EQ(created.load(), kThreads * kFiles);
  auto entries = fs_->ReadDir(cred, "/dir");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads * kFiles));
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(ConcurrencyTest, ExclusiveCreateRaceHasOneWinner) {
  // Six threads released at once race to create each name. One wins; a
  // loser that made its inode before the winner's dentry went in hands the
  // page back, so after a remount fsck reclaims only listed pages and finds
  // as many in use as after a run with one creator per name.
  auto race = [&](testbed::Stack& stack, int creators) {
    fslib::FsLib* fs = stack.AddProcess(cred);
    for (int round = 0; round < 20; round++) {
      std::string path = "/race" + std::to_string(round);
      std::atomic<int> winners{0};
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      for (int t = 0; t < creators; t++) {
        threads.emplace_back([&]() {
          while (!go.load()) {
          }
          auto fd = fs->Open(cred, path, vfs::kCreate | vfs::kExcl | vfs::kWrite, 0644);
          if (fd.ok()) {
            winners++;
            fs->Close(*fd);
          }
        });
      }
      go = true;
      for (auto& th : threads) {
        th.join();
      }
      EXPECT_EQ(winners.load(), 1) << path;
    }
    return RemountAndFsck(stack, cred);
  };
  const testbed::FsckResult raced = race(stack_, 6);
  testbed::Stack solo{{.size_bytes = 512ull << 20, .media = {}}, {.root_mode = 0755}};
  const testbed::FsckResult one = race(solo, 1);
  EXPECT_EQ(raced.stats.pages_in_use, one.stats.pages_in_use);
}

TEST_F(ConcurrencyTest, RemovedFilesLeaveNoPagesBehind) {
  // An unlink, and a rename over a file, retire the victim after the
  // directory locks in the root coffer (/v) and under them in a coffer of
  // its own (/w): either way its blocks and inode page must go back, so
  // after a remount fsck reclaims only listed pages.
  fs_->BindThread();
  ASSERT_TRUE(fs_->Mkdir(cred, "/v", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/w", 0700).ok());
  const std::vector<uint8_t> blob(3 * nvm::kPageSize + 100, 0x5a);
  for (const std::string dir : {"/v", "/w"}) {
    const uint16_t mode = dir == "/v" ? 0644 : 0600;  // the directory's group
    for (int i = 0; i < 50; i++) {
      for (const char* leaf : {"/a", "/b", "/c"}) {
        auto fd = fs_->Open(cred, dir + leaf, vfs::kCreate | vfs::kWrite, mode);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(fs_->Write(*fd, blob.data(), blob.size()).ok());
        fs_->Close(*fd);
      }
      ASSERT_TRUE(fs_->Unlink(cred, dir + "/a").ok());
      ASSERT_TRUE(fs_->Rename(cred, dir + "/b", dir + "/c").ok());
      ASSERT_TRUE(fs_->Unlink(cred, dir + "/c").ok());
    }
  }
  RemountAndFsck(stack_, cred);
}

TEST_F(ConcurrencyTest, RemovalsRacingTheirCofferRootsRemovalSucceed) {
  // Unlink /c/f and rmdir /c/d race rmdir /c, where /c roots a coffer of
  // its own, and a mkdir right after each rmdir /c may take the deleted
  // coffer's id. Removing /c's last name lets /c go at once, so the victims
  // must be retired before the coffer can be: every removal of a name that
  // exists succeeds, no coffer is quarantined, and after a remount fsck
  // reclaims only listed pages.
  constexpr int kRounds = 1000;
  const std::vector<uint8_t> blob(3 * nvm::kPageSize, 0x5a);
  for (int round = 0; round < kRounds; round++) {
    fs_->BindThread();
    ASSERT_TRUE(fs_->Mkdir(cred, "/c", 0700).ok());
    auto fd = fs_->Open(cred, "/c/f", vfs::kCreate | vfs::kWrite, 0600);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Write(*fd, blob.data(), blob.size()).ok());
    fs_->Close(*fd);
    ASSERT_TRUE(fs_->Mkdir(cred, "/c/d", 0700).ok());

    std::atomic<bool> go{false};
    auto err = [](const common::Status& s) { return s.ok() ? common::Err::kOk : s.error(); };
    common::Err unlinked = common::Err::kOk;
    common::Err removed = common::Err::kOk;
    common::Err root_removed = common::Err::kOk;
    common::Err recreated = common::Err::kOk;
    auto racer = [&](std::function<void()> body) {
      return std::thread([&go, body = std::move(body), this]() {
        fs_->BindThread();
        while (!go.load()) {
        }
        body();
      });
    };
    std::vector<std::thread> threads;
    threads.push_back(racer([&] { unlinked = err(fs_->Unlink(cred, "/c/f")); }));
    threads.push_back(racer([&] { removed = err(fs_->Rmdir(cred, "/c/d")); }));
    threads.push_back(racer([&] {
      const uint64_t deadline = common::NowNs() + 2'000'000'000ull;
      do {
        root_removed = err(fs_->Rmdir(cred, "/c"));
      } while (root_removed == common::Err::kNotEmpty && common::NowNs() < deadline);
      if (root_removed == common::Err::kOk) {
        recreated = err(fs_->Mkdir(cred, "/n" + std::to_string(round), 0700));
      }
    }));
    go = true;
    for (auto& th : threads) {
      th.join();
    }
    ASSERT_EQ(unlinked, common::Err::kOk) << common::ErrName(unlinked) << " round " << round;
    ASSERT_EQ(removed, common::Err::kOk) << common::ErrName(removed) << " round " << round;
    ASSERT_EQ(root_removed, common::Err::kOk) << common::ErrName(root_removed);
    ASSERT_EQ(recreated, common::Err::kOk) << common::ErrName(recreated);
  }
  fs_->BindThread();
  for (uint32_t cid : kfs_->AllCofferIds()) {
    EXPECT_EQ(fs_->zofs().Health(cid), zofs::CofferHealth::kHealthy) << "coffer " << cid;
  }
  RemountAndFsck(stack_, cred);
}

// A chmod of a coffer-root directory that lands between a create's unlocked
// probe and its locked insert: it fires once, at the first InodeLock taken
// after arming, the create's lock on the parent. The directory's coffer
// moves to a class of its own, so the new class takes the key its old class
// freed and the creator's open window stays valid, as after a chmod that
// finished just before the creator locked the parent.
struct GroupFlip {
  kernfs::KernFs* kfs;
  kernfs::Process* proc;
  uint32_t cid;
  uint16_t perm;
  bool armed = true;

  static bool Fire(void* ctx, const char* point) {
    auto* f = static_cast<GroupFlip*>(ctx);
    if (f->armed && strcmp(point, common::kKillHoldingInodeLock) == 0) {
      f->armed = false;
      EXPECT_TRUE(f->kfs->CofferChmod(*f->proc, f->cid, f->perm).ok());
    }
    return false;
  }
};

TEST_F(ConcurrencyTest, CreateFollowsTheGroupItFindsUnderTheLock) {
  // Each row moves a coffer-root directory's group while a create in it
  // stands between probe and insert. The new file must sit in the coffer
  // its mode's group names: its own when the parent left that group, the
  // parent's when the parent joined it. In the root coffer (/) the create
  // makes its inode before the lock, and that inode goes back when the
  // group moved away.
  struct Row {
    const char* dir;
    uint16_t dir_mode;  // its group at the probe
    uint16_t flip;      // its group under the lock
    const char* file;
    uint16_t mode;
    bool in_parent;
  };
  const Row rows[] = {
      {"/g", 0700, 0606, "/g/a", 0600, false},
      {"/h", 0770, 0640, "/h/b", 0640, true},
      {"/", 0755, 0604, "/c", 0644, false},
      {"/", 0604, 0660, "/d", 0660, true},
  };
  fs_->BindThread();
  zofs::ZoFs& z = fs_->zofs();
  for (const Row& row : rows) {
    SCOPED_TRACE(row.file);
    if (strcmp(row.dir, "/") != 0) {
      ASSERT_TRUE(fs_->Mkdir(cred, row.dir, row.dir_mode).ok());
    }
    ASSERT_EQ(fs_->Stat(cred, row.dir)->mode & 0777, row.dir_mode);
    const uint32_t cid = z.Lookup(row.dir, false)->coffer_id;
    GroupFlip flip{kfs_, z.proc(), cid, row.flip};
    common::InstallKillPoint(&GroupFlip::Fire, &flip);
    auto fd = fs_->Open(cred, row.file, vfs::kCreate | vfs::kExcl | vfs::kWrite, row.mode);
    common::InstallKillPoint(nullptr, nullptr);
    EXPECT_FALSE(flip.armed);
    ASSERT_TRUE(fd.ok()) << common::ErrName(fd.error());
    fs_->Close(*fd);
    ASSERT_TRUE(fs_->Chmod(cred, row.dir, row.flip).ok());  // the inode's copy follows
    auto node = z.Lookup(row.file, false);
    ASSERT_TRUE(node.ok());
    EXPECT_EQ(node->coffer_id == cid, row.in_parent);
    EXPECT_EQ(kfs_->RootPageOf(node->coffer_id)->mode, row.mode & 0666);
  }
  RemountAndFsck(stack_, cred);
}

TEST_F(ConcurrencyTest, TwoProcessesInterleaveOnSharedTree) {
  fslib::FsLib* p2 = stack_.AddProcess(vfs::Cred{0, 0});
  ASSERT_TRUE(fs_->Mkdir(cred, "/both", 0755).ok());
  std::atomic<int> errors{0};
  std::thread t1([&]() {
    fs_->BindThread();
    for (int i = 0; i < 200; i++) {
      auto fd = fs_->Open(cred, "/both/p1_" + std::to_string(i), vfs::kCreate | vfs::kWrite,
                          0644);
      if (!fd.ok() || !fs_->Write(*fd, "one", 3).ok()) {
        errors++;
      }
    }
  });
  std::thread t2([&]() {
    p2->BindThread();
    for (int i = 0; i < 200; i++) {
      auto fd = p2->Open(cred, "/both/p2_" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
      if (!fd.ok() || !p2->Write(*fd, "two", 3).ok()) {
        errors++;
      }
      if (i % 10 == 0) {
        p2->ReadDir(cred, "/both");
      }
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(errors.load(), 0);
  fs_->BindThread();
  auto entries = fs_->ReadDir(cred, "/both");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 400u);
}

TEST_F(ConcurrencyTest, MixedOpsRandomStorm) {
  // Four threads, each with its own subdirectory plus a shared pool of
  // names: create/write/read/delete/rename at random; afterwards the tree
  // must be walkable and the allocation table consistent.
  ASSERT_TRUE(fs_->Mkdir(cred, "/storm", 0755).ok());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      common::Rng rng(1000 + t);
      std::string mydir = "/storm/t" + std::to_string(t);
      fs_->Mkdir(cred, mydir, 0755);
      for (int i = 0; i < 250; i++) {
        std::string name = mydir + "/f" + std::to_string(rng.Below(30));
        switch (rng.Below(5)) {
          case 0: {
            auto fd = fs_->Open(cred, name, vfs::kCreate | vfs::kWrite, 0644);
            if (fd.ok()) {
              std::vector<uint8_t> data(rng.Below(9000));
              fs_->Pwrite(*fd, data.data(), data.size(), 0);
              fs_->Close(*fd);
            }
            break;
          }
          case 1:
            fs_->Unlink(cred, name);
            break;
          case 2: {
            auto fd = fs_->Open(cred, name, vfs::kRead, 0);
            if (fd.ok()) {
              char buf[4096];
              fs_->Read(*fd, buf, sizeof(buf));
              fs_->Close(*fd);
            }
            break;
          }
          case 3:
            fs_->Rename(cred, name, mydir + "/g" + std::to_string(rng.Below(30)));
            break;
          case 4:
            fs_->Stat(cred, name);
            break;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  fs_->BindThread();
  auto entries = fs_->ReadDir(cred, "/storm");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads));
  for (int t = 0; t < kThreads; t++) {
    auto sub = fs_->ReadDir(cred, "/storm/t" + std::to_string(t));
    ASSERT_TRUE(sub.ok());
    for (const auto& e : *sub) {
      EXPECT_TRUE(fs_->Stat(cred, "/storm/t" + std::to_string(t) + "/" + e.name).ok());
    }
  }
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

// A create racing the removal of its directory. One thread keeps a
// directory coming and going at /x/d (`remove_round`); the other creates,
// closes and unlinks /x/d/f in a loop. Every create that returned success
// must be found by the same thread's next unlink: a file created in a
// directory freed under it is lost (and its pages leak). A remount then
// checks the leak side: recovery may reclaim only pages that were parked on
// the allocators' free lists.
class DirRemovalRaceTest : public ConcurrencyTest {
 protected:
  void Race(int rounds, const std::function<void()>& remove_round) {
    ASSERT_TRUE(fs_->Mkdir(cred, "/x", 0755).ok());
    std::atomic<bool> done{false};
    std::atomic<int> created{0};
    std::atomic<int> lost{0};
    std::thread creator([&]() {
      while (!done.load(std::memory_order_relaxed)) {
        auto fd = fs_->Open(cred, "/x/d/f", vfs::kCreate | vfs::kWrite, 0644);
        if (!fd.ok()) {
          continue;  // the directory is gone or going: no file was promised
        }
        created++;
        fs_->Close(*fd);
        if (!fs_->Unlink(cred, "/x/d/f").ok()) {
          lost++;
        }
      }
    });
    for (int i = 0; i < rounds; i++) {
      remove_round();
    }
    done = true;
    creator.join();
    EXPECT_GT(created.load(), 0);
    EXPECT_EQ(lost.load(), 0) << "of " << created.load() << " created files";

    RemountAndFsck(stack_, cred);
  }
};

TEST_F(DirRemovalRaceTest, CreateRacingRmdirIsNeverLost) {
  Race(20000, [&]() {
    (void)fs_->Mkdir(cred, "/x/d", 0755);
    (void)fs_->Rmdir(cred, "/x/d");
  });
}

TEST_F(DirRemovalRaceTest, CreateRacingRenameOverDirectoryIsNeverLost) {
  Race(20000, [&]() {
    (void)fs_->Mkdir(cred, "/x/e", 0755);
    (void)fs_->Rename(cred, "/x/e", "/x/d");
  });
}

// A rename between /x/d and /x against mkdir/rmdir of /x/d. The rename
// locks both parents in address order; the rmdir holds /x and then needs
// /x/d. With /x/d below /x in the device the rename takes /x/d first, so an
// rmdir that waited for /x/d while it held /x would close a cycle that only
// a lapsed lease breaks: one thread steals a live holder's lock and both
// change the directories unguarded. No lock may be stolen, and the moved
// file must always be in one of its two places.
TEST_F(DirRemovalRaceTest, RmdirRacingRenameOutOfItNeverStealsOrLoses) {
  fs_->BindThread();
  zofs::ZoFs& z = fs_->zofs();
  // Two inode pages in the order the device hands them out: /x takes the
  // higher and, once the lower is free again, /x/d the lower (leased free
  // lists are LIFO).
  for (const char* p : {"/p0", "/p1", "/a"}) {
    auto fd = fs_->Open(cred, p, vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    fs_->Close(*fd);
  }
  const uint64_t p0 = z.Lookup("/p0", false)->inode_off;
  const uint64_t p1 = z.Lookup("/p1", false)->inode_off;
  ASSERT_TRUE(fs_->Unlink(cred, p0 < p1 ? "/p1" : "/p0").ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/x", 0755).ok());
  ASSERT_TRUE(fs_->Rename(cred, "/a", "/x/a").ok());
  ASSERT_TRUE(fs_->Unlink(cred, p0 < p1 ? "/p0" : "/p1").ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/x/d", 0755).ok());
  ASSERT_LT(z.Lookup("/x/d", false)->inode_off, z.Lookup("/x", false)->inode_off);

  const uint64_t steals = zofs::LockStealCount();
  std::atomic<bool> done{false};
  std::atomic<int> moves{0};
  std::atomic<int> failed{0};
  std::thread mover([&]() {
    fs_->BindThread();
    bool in_d = false;
    while (!done.load(std::memory_order_relaxed)) {
      auto s = in_d ? fs_->Rename(cred, "/x/d/a", "/x/a") : fs_->Rename(cred, "/x/a", "/x/d/a");
      if (s.ok()) {
        in_d = !in_d;
        moves++;
      } else if (in_d || s.error() != common::Err::kNoEnt) {
        failed++;  // out of /x/d, which cannot go while it holds a; or EBUSY
      }
    }
    if (in_d) {
      EXPECT_TRUE(fs_->Rename(cred, "/x/d/a", "/x/a").ok());
    }
  });
  int removed = 0;
  const uint64_t until = common::RealNowNs() + 3'000'000'000ull;
  for (int i = 0; i < 20000 && common::RealNowNs() < until; i++) {
    removed += fs_->Rmdir(cred, "/x/d").ok() ? 1 : 0;
    (void)fs_->Mkdir(cred, "/x/d", 0755);
  }
  done = true;
  mover.join();
  EXPECT_GT(moves.load(), 0);
  EXPECT_GT(removed, 0);
  EXPECT_EQ(zofs::LockStealCount() - steals, 0u);
  EXPECT_EQ(failed.load(), 0) << "of " << moves.load() << " moves";
  EXPECT_TRUE(fs_->Stat(cred, "/x/a").ok());
}

// The generation a stale name carries must not match a later inode on the
// same page, whatever the page held in between. /x/d's inode page becomes
// /e's L1 page (zeroed), is freed again and then holds a new directory; a
// thread that named /x/d before all this and only now takes its lock must
// find it gone. Leased free lists are LIFO, so the page's path is fixed.
TEST_F(ConcurrencyTest, StaleNameOfAReusedInodePageIsGone) {
  fs_->BindThread();
  zofs::ZoFs& z = fs_->zofs();
  ASSERT_TRUE(fs_->Mkdir(cred, "/x", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/e", 0755).ok());  // empty: no index pages yet
  for (const char* p : {"/a", "/x/zz"}) {
    auto fd = fs_->Open(cred, p, vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    fs_->Close(*fd);
  }
  // Give the names /x/yy and /x/ww their index pages now, so making them
  // below allocates nothing but their inodes.
  for (const char* p : {"/x/yy", "/x/ww"}) {
    ASSERT_TRUE(fs_->Rename(cred, "/x/zz", p).ok());
    ASSERT_TRUE(fs_->Rename(cred, p, "/x/zz").ok());
  }
  ASSERT_TRUE(fs_->Mkdir(cred, "/x/d", 0755).ok());
  const zofs::NodeRef d = *z.Lookup("/x/d", false);
  auto info = z.EnsureMappedForTest(d.coffer_id, false);
  ASSERT_TRUE(info.ok());
  auto read_inode = [&](const zofs::NodeRef& n) {
    mpk::AccessWindow w(info->key, false);
    return *z.InodeForTest(n);
  };
  const uint32_t gen = read_inode(d).generation;
  ASSERT_TRUE(z.LockForTest(d, gen).ok());

  ASSERT_TRUE(fs_->Rmdir(cred, "/x/d").ok());
  ASSERT_TRUE(fs_->Rename(cred, "/a", "/e/a").ok());  // /e's first entry: L1 and L2 pages
  const zofs::NodeRef e = *z.Lookup("/e", false);
  ASSERT_EQ(read_inode(e).l1_dir, d.inode_off) << "the page did not become an L1 page";
  ASSERT_TRUE(fs_->Rename(cred, "/e/a", "/a").ok());
  ASSERT_TRUE(fs_->Rmdir(cred, "/e").ok());  // frees the L1 page, then /e's inode
  ASSERT_TRUE(fs_->Mkdir(cred, "/x/yy", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/x/ww", 0755).ok());
  ASSERT_EQ(z.Lookup("/x/ww", false)->inode_off, d.inode_off)
      << "the page did not hold an inode again";

  auto s = z.LockForTest(d, gen);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), common::Err::kNoEnt);
}

}  // namespace
