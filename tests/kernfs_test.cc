// Unit tests for KernFS: the allocation table, the path-coffer map, and the
// coffer operations of Table 5.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/kernfs/kernfs.h"
#include "src/mpk/keyclass.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;
using kernfs::KernFs;
using kernfs::PageRun;
using kernfs::Process;

class KernFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proc_ = kfs_->CreateProcess(vfs::Cred{100, 100});
    proc_->BindCurrentThread();
  }

  // Creates + maps a coffer for proc_.
  uint32_t MakeCoffer(const std::string& path, uint16_t mode = 0644) {
    auto id = kfs_->CofferNew(*proc_, path, kernfs::kCofferTypeZofs, mode, 100, 100, 2);
    EXPECT_TRUE(id.ok());
    auto info = kfs_->CofferMap(*proc_, *id, true);
    EXPECT_TRUE(info.ok());
    return *id;
  }

  testbed::Stack stack_{{.size_bytes = 64ull << 20, .media = {}},
                        {.root_mode = 0755, .root_uid = 100, .root_gid = 100}};
  nvm::NvmDevice* dev_ = stack_.dev();
  KernFs* kfs_ = stack_.kfs();
  Process* proc_ = nullptr;
};

TEST_F(KernFsTest, FormatCreatesRootCoffer) {
  EXPECT_NE(kfs_->root_coffer_id(), 0u);
  const kernfs::CofferRoot* root = kfs_->RootPageOf(kfs_->root_coffer_id());
  EXPECT_EQ(root->magic, kernfs::kCofferMagic);
  EXPECT_STREQ(root->path, "/");
  EXPECT_EQ(root->mode, 0755);
  EXPECT_EQ(root->num_pages, 3u);  // root page + root inode + custom
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(KernFsTest, CofferNewAssignsPagesAndPathMap) {
  uint32_t id = MakeCoffer("/a");
  auto found = kfs_->CofferFind("/a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, id);
  auto pages = kfs_->PagesOf(id);
  ASSERT_TRUE(pages.ok());
  uint64_t total = 0;
  for (const PageRun& r : *pages) {
    total += r.len;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(KernFsTest, DuplicateCofferPathRejected) {
  MakeCoffer("/dup");
  auto again = kfs_->CofferNew(*proc_, "/dup", kernfs::kCofferTypeZofs, 0644, 100, 100, 2);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error(), Err::kExist);
}

TEST_F(KernFsTest, EnlargeGrantsTaggedPages) {
  uint32_t id = MakeCoffer("/big");
  Process* reader = kfs_->CreateProcess(vfs::Cred{200, 200});
  ASSERT_TRUE(kfs_->CofferMap(*reader, id, /*writable=*/false).ok());
  auto runs = kfs_->CofferEnlarge(*proc_, id, 100);
  ASSERT_TRUE(runs.ok());
  uint64_t total = 0;
  for (const PageRun& r : *runs) {
    total += r.len;
    // Pages must now be writable by the mapped process.
    uint8_t key = proc_->KeyFor(id);
    mpk::AccessWindow w(key, true);
    dev_->Store64(r.start_page * nvm::kPageSize, 0x1234);
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(kfs_->RootPageOf(id)->num_pages, 103u);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());

  // The granted pages are read-only for the read-only mapper: a PKRU it
  // forges to open its key for writes still cannot store to them.
  reader->BindCurrentThread();
  const uint8_t rkey = reader->KeyFor(id);
  ASSERT_NE(rkey, mpk::kUnmapped);
  const uint32_t saved = mpk::RdPkru();
  mpk::WrPkru(mpk::PkruAllowOnly(rkey, /*writable=*/true));
  EXPECT_THROW(dev_->Store64((*runs)[0].start_page * nvm::kPageSize, 0x5678),
               mpk::ViolationError);
  mpk::WrPkru(saved);
  proc_->BindCurrentThread();
}

TEST_F(KernFsTest, ShrinkReturnsPages) {
  uint32_t id = MakeCoffer("/shrink");
  auto runs = kfs_->CofferEnlarge(*proc_, id, 10);
  ASSERT_TRUE(runs.ok());
  uint64_t free_before = kfs_->FreePages();
  ASSERT_TRUE(kfs_->CofferShrink(*proc_, id, {(*runs)[0]}).ok());
  EXPECT_EQ(kfs_->FreePages(), free_before + (*runs)[0].len);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
  // Shrinking a foreign page must fail.
  EXPECT_FALSE(kfs_->CofferShrink(*proc_, id, {(*runs)[0]}).ok());
}

TEST_F(KernFsTest, FreeSpaceCoalesces) {
  uint32_t id = MakeCoffer("/co");
  uint64_t free0 = kfs_->FreePages();
  auto r1 = kfs_->CofferEnlarge(*proc_, id, 8);
  auto r2 = kfs_->CofferEnlarge(*proc_, id, 8);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(kfs_->CofferShrink(*proc_, id, *r1).ok());
  ASSERT_TRUE(kfs_->CofferShrink(*proc_, id, *r2).ok());
  EXPECT_EQ(kfs_->FreePages(), free0);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(KernFsTest, MapChecksPermissions) {
  uint32_t id = MakeCoffer("/private", 0600);
  Process* stranger = kfs_->CreateProcess(vfs::Cred{200, 200});
  auto denied = kfs_->CofferMap(*stranger, id, false);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error(), Err::kAcces);
  // Read-only permission: writable map denied, read-only allowed.
  uint32_t ro = MakeCoffer("/readable", 0644);
  auto wr_denied = kfs_->CofferMap(*stranger, ro, true);
  EXPECT_EQ(wr_denied.error(), Err::kAcces);
  EXPECT_TRUE(kfs_->CofferMap(*stranger, ro, false).ok());
}

TEST_F(KernFsTest, KeyWindowMaps1100DistinctClasses) {
  // One process maps 1,100 coffers, each its own protection class (distinct
  // gid), which spans several slot chunks. The LRU key window serves every
  // map from the 15 keys; none returns ENOKEYS.
  constexpr int kClasses = 1100;
  const uint64_t ev0 = mpk::KeyEvictionCount();
  for (int i = 0; i < kClasses; i++) {
    auto id = kfs_->CofferNew(*proc_, "/cls" + std::to_string(i), kernfs::kCofferTypeZofs, 0644,
                              100, 2000 + i, 2);
    ASSERT_TRUE(id.ok()) << i;
    auto info = kfs_->CofferMap(*proc_, *id, true);
    ASSERT_TRUE(info.ok()) << "map " << i << ": " << common::ErrName(info.error());
    EXPECT_NE(info->key, mpk::kUnmapped);
  }
  EXPECT_EQ(proc_->LiveProtClassCount(), static_cast<size_t>(kClasses));
  // The first 15 classes took free keys; every later one evicted one.
  EXPECT_EQ(mpk::KeyEvictionCount() - ev0, static_cast<uint64_t>(kClasses - 15));
}

TEST_F(KernFsTest, KeyClassSharing64CoffersUnderBudget) {
  // ISSUE 10: 64 coffers with identical (uid, gid, perm) form ONE protection
  // class and share one physical key — mapped concurrently from 8 threads
  // they must neither exhaust the 15-key budget nor trigger a single key
  // eviction (the pre-virtualization path burned a key per coffer and
  // thrashed from coffer 16 on).
  constexpr int kCoffers = 64;
  constexpr int kThreads = 8;
  std::vector<uint32_t> ids;
  for (int i = 0; i < kCoffers; i++) {
    auto id = kfs_->CofferNew(*proc_, "/kc" + std::to_string(i), kernfs::kCofferTypeZofs, 0644,
                              100, 100, 2);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const uint64_t ev0 = mpk::KeyEvictionCount();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      proc_->BindCurrentThread();
      for (int i = t; i < kCoffers; i += kThreads) {
        if (!kfs_->CofferMap(*proc_, ids[i], true).ok()) {
          failures++;
        }
      }
      mpk::BindThreadToProcess(nullptr);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);  // zero kNoKeys
  EXPECT_EQ(mpk::KeyEvictionCount() - ev0, 0u);
  // All 64 coffers share the one 0644/100/100 class.
  EXPECT_LE(proc_->LiveProtClassCount(), 2u);
  // Every mapping resolved to the same physical key.
  const uint8_t key = proc_->KeyFor(ids[0]);
  ASSERT_NE(key, mpk::kUnmapped);
  for (int i = 1; i < kCoffers; i++) {
    EXPECT_EQ(proc_->KeyFor(ids[i]), key);
  }
}

TEST_F(KernFsTest, DeleteReclaimsEverything) {
  uint64_t free0 = kfs_->FreePages();
  uint32_t id = MakeCoffer("/gone");
  kfs_->CofferEnlarge(*proc_, id, 20);
  ASSERT_TRUE(kfs_->CofferDelete(*proc_, id).ok());
  EXPECT_EQ(kfs_->FreePages(), free0);
  EXPECT_FALSE(kfs_->CofferFind("/gone").ok());
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(KernFsTest, SplitMovesOwnership) {
  uint32_t id = MakeCoffer("/split");
  auto runs = kfs_->CofferEnlarge(*proc_, id, 16);
  ASSERT_TRUE(runs.ok());
  // The moved run spans the coffer's last initial page and the first three
  // pages of the adjacent grant: two entries of its run map.
  ASSERT_EQ((*runs)[0].start_page, id + 3);
  PageRun move{id + 2, 4};
  uint64_t root_inode = move.start_page * nvm::kPageSize;
  uint64_t custom = (move.start_page + 1) * nvm::kPageSize;
  auto new_id = kfs_->CofferSplit(*proc_, id, {move}, "/split/child", kernfs::kCofferTypeZofs,
                                  0600, 100, 100, root_inode, custom);
  ASSERT_TRUE(new_id.ok());
  auto child_pages = kfs_->PagesOf(*new_id);
  ASSERT_TRUE(child_pages.ok());
  uint64_t total = 0;
  for (const PageRun& r : *child_pages) {
    total += r.len;
  }
  EXPECT_EQ(total, 5u);  // 4 moved + new root page
  EXPECT_EQ(kfs_->RootPageOf(*new_id)->root_inode_off, root_inode);
  EXPECT_TRUE(kfs_->CofferFind("/split/child").ok());
  EXPECT_EQ(kfs_->CheckAllocTableForTest(), "");
  // Deleting the source frees only what it still owns.
  ASSERT_TRUE(kfs_->CofferDelete(*proc_, id).ok());
  EXPECT_EQ(kfs_->CheckAllocTableForTest(), "");
}

TEST_F(KernFsTest, MergeRequiresMatchingPermission) {
  uint32_t a = MakeCoffer("/ma", 0644);
  uint32_t b = MakeCoffer("/mb", 0600);
  auto bad = kfs_->CofferMerge(*proc_, a, b);
  ASSERT_FALSE(bad.ok());
  uint32_t c = MakeCoffer("/mc", 0644);
  auto ok = kfs_->CofferMerge(*proc_, a, c);
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(kfs_->CofferFind("/mc").ok());
  auto pages = kfs_->PagesOf(a);
  uint64_t total = 0;
  for (const PageRun& r : *pages) {
    total += r.len;
  }
  EXPECT_EQ(total, 6u);  // 3 + 3 (old root page becomes a data page)
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(KernFsTest, MovePagesBetweenCoffers) {
  uint32_t a = MakeCoffer("/mva");
  auto runs = kfs_->CofferEnlarge(*proc_, a, 8);
  ASSERT_TRUE(runs.ok());
  uint32_t b = MakeCoffer("/mvb");
  // The moved run spans a's two initial data pages and the first two pages
  // of the adjacent grant: two entries of a's run map.
  ASSERT_EQ((*runs)[0].start_page, a + 3);
  // Overlapping runs would hand the same pages over twice: refused whole.
  auto overlap = kfs_->CofferMovePages(*proc_, a, b, {PageRun{a + 1, 2}, PageRun{a + 2, 2}});
  ASSERT_FALSE(overlap.ok());
  EXPECT_EQ(overlap.error(), Err::kInval);
  EXPECT_EQ(kfs_->CheckAllocTableForTest(), "");
  const PageRun move{a + 1, 4};
  ASSERT_TRUE(kfs_->CofferMovePages(*proc_, a, b, {move}).ok());
  auto bp = kfs_->PagesOf(b);
  uint64_t total = 0;
  for (const PageRun& r : *bp) {
    total += r.len;
  }
  EXPECT_EQ(total, 3 + move.len);
  EXPECT_EQ(kfs_->CheckAllocTableForTest(), "");
  // Deleting the source frees only what it still owns.
  ASSERT_TRUE(kfs_->CofferDelete(*proc_, a).ok());
  EXPECT_EQ(kfs_->CheckAllocTableForTest(), "");
}

TEST_F(KernFsTest, RecoverReclaimsUnreportedPages) {
  uint32_t id = MakeCoffer("/rec");
  auto runs = kfs_->CofferEnlarge(*proc_, id, 10);
  ASSERT_TRUE(runs.ok());
  ASSERT_TRUE(kfs_->CofferRecoverBegin(*proc_, id, 1'000'000'000).ok());
  // Report only the first two enlarged pages in use.
  std::vector<uint64_t> in_use = {(*runs)[0].start_page, (*runs)[0].start_page + 1};
  auto reclaimed = kfs_->CofferRecoverEnd(*proc_, id, in_use);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 8u);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(KernFsTest, RecoverUnmapsOtherProcesses) {
  uint32_t id = MakeCoffer("/rec2");
  Process* other = kfs_->CreateProcess(vfs::Cred{100, 100});
  ASSERT_TRUE(kfs_->CofferMap(*other, id, true).ok());
  ASSERT_TRUE(kfs_->CofferRecoverBegin(*proc_, id, 1'000'000'000).ok());
  EXPECT_FALSE(other->HasMapped(id));
  EXPECT_TRUE(proc_->HasMapped(id));
  // Mapping during recovery is refused.
  auto denied = kfs_->CofferMap(*other, id, true);
  EXPECT_EQ(denied.error(), Err::kBusy);
  ASSERT_TRUE(kfs_->CofferRecoverEnd(*proc_, id, {}).ok());
  EXPECT_TRUE(kfs_->CofferMap(*other, id, true).ok());
}

TEST_F(KernFsTest, CofferRenameUpdatesDescendants) {
  uint32_t a = MakeCoffer("/top");
  MakeCoffer("/top/inner");
  ASSERT_TRUE(kfs_->CofferRename(*proc_, a, "/renamed").ok());
  EXPECT_TRUE(kfs_->CofferFind("/renamed").ok());
  EXPECT_TRUE(kfs_->CofferFind("/renamed/inner").ok());
  EXPECT_FALSE(kfs_->CofferFind("/top").ok());
  EXPECT_FALSE(kfs_->CofferFind("/top/inner").ok());
}

TEST_F(KernFsTest, ReopenRebuildsState) {
  uint32_t id = MakeCoffer("/persist");
  kfs_->CofferEnlarge(*proc_, id, 12);
  auto pages_before = kfs_->PagesOf(id);
  uint64_t free_before = kfs_->FreePages();

  // Re-open the device (simulates a reboot).
  stack_.Shutdown();
  stack_.Mount();
  kfs_ = stack_.kfs();
  proc_ = kfs_->CreateProcess(vfs::Cred{100, 100});
  proc_->BindCurrentThread();

  EXPECT_EQ(kfs_->FreePages(), free_before);
  auto found = kfs_->CofferFind("/persist");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, id);
  auto pages_after = kfs_->PagesOf(id);
  uint64_t total_before = 0, total_after = 0;
  for (const PageRun& r : *pages_before) {
    total_before += r.len;
  }
  for (const PageRun& r : *pages_after) {
    total_after += r.len;
  }
  EXPECT_EQ(total_before, total_after);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(KernFsTest, PathMapHandlesManyCoffers) {
  // Exercise collisions and tombstones.
  for (int i = 0; i < 200; i++) {
    MakeCoffer("/n" + std::to_string(i), 0644);
    if (i >= 10) {
      // Stay inside the MPK budget: unmap immediately.
      auto found = kfs_->CofferFind("/n" + std::to_string(i));
      kfs_->CofferUnmap(*proc_, *found);
    }
  }
  for (int i = 0; i < 200; i += 3) {
    auto found = kfs_->CofferFind("/n" + std::to_string(i));
    ASSERT_TRUE(found.ok()) << i;
    if (!proc_->HasMapped(*found)) {
      ASSERT_TRUE(kfs_->CofferMap(*proc_, *found, true).ok());
    }
    ASSERT_TRUE(kfs_->CofferDelete(*proc_, *found).ok()) << i;
    EXPECT_FALSE(kfs_->CofferFind("/n" + std::to_string(i)).ok());
  }
  // Deleted slots are tombstoned; the rest still resolve.
  for (int i = 1; i < 200; i += 3) {
    EXPECT_TRUE(kfs_->CofferFind("/n" + std::to_string(i)).ok()) << i;
  }
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(KernFsTest, NopChargesNothingFatal) {
  kfs_->Nop();  // just must not crash or leave state behind
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

}  // namespace
