// Unit tests for the ZoFS leased per-thread allocator (Figure 6).

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/common/clock.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"
#include "src/zofs/alloc.h"
#include "src/zofs/layout.h"
#include "tests/store_trap.h"

namespace {

using zofs::CofferAllocator;

class AllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proc_ = kfs_->CreateProcess(vfs::Cred{0, 0});
    proc_->BindCurrentThread();
    auto id = kfs_->CofferNew(*proc_, "/c", kernfs::kCofferTypeZofs, 0644, 0, 0, 2);
    cid_ = *id;
    auto info = kfs_->CofferMap(*proc_, cid_, true);
    info_ = *info;
    {
      mpk::AccessWindow w(info_.key, true);
      CofferAllocator::InitPool(dev_, info_.custom_off);
    }
  }

  std::unique_ptr<CofferAllocator> NewAlloc(uint64_t lease_ns = 1'000'000'000,
                                            uint64_t batch = 16) {
    return std::make_unique<CofferAllocator>(kfs_, proc_, cid_, info_.custom_off, lease_ns, batch);
  }

  // The lease-renewal test simulates a crash.
  testbed::Stack stack_{{.size_bytes = 64ull << 20, .crash_tracking = true, .media = {}}, {}};
  nvm::NvmDevice* dev_ = stack_.dev();
  kernfs::KernFs* kfs_ = stack_.kfs();
  kernfs::Process* proc_ = nullptr;
  uint32_t cid_ = 0;
  kernfs::MapInfo info_;
};

TEST_F(AllocTest, AllocatesDistinctPages) {
  auto alloc = NewAlloc();
  mpk::AccessWindow w(info_.key, true);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; i++) {
    auto page = alloc->AllocPage(false);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page % nvm::kPageSize, 0u);
    EXPECT_TRUE(seen.insert(*page).second) << "duplicate page";
  }
}

TEST_F(AllocTest, ZeroedAllocationIsZero) {
  auto alloc = NewAlloc();
  mpk::AccessWindow w(info_.key, true);
  auto p1 = alloc->AllocPage(false);
  dev_->Store64(*p1 + 100, 0xdeadbeef);
  ASSERT_TRUE(alloc->FreePage(*p1).ok());
  auto p2 = alloc->AllocPage(true);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p2, *p1);  // LIFO reuse
  for (uint64_t off = 0; off < nvm::kPageSize; off += 8) {
    ASSERT_EQ(dev_->Load64(*p2 + off), 0u) << "at " << off;
  }
}

TEST_F(AllocTest, FreeThenReallocReuses) {
  auto alloc = NewAlloc();
  mpk::AccessWindow w(info_.key, true);
  auto p = alloc->AllocPage(false);
  ASSERT_TRUE(alloc->FreePage(*p).ok());
  auto q = alloc->AllocPage(false);
  EXPECT_EQ(*q, *p);
}

TEST_F(AllocTest, RefillsFromKernelInBatches) {
  auto alloc = NewAlloc(1'000'000'000, /*batch=*/8);
  mpk::AccessWindow w(info_.key, true);
  auto before = kfs_->PagesOf(cid_);
  uint64_t owned_before = 0;
  for (const auto& r : *before) {
    owned_before += r.len;
  }
  for (int i = 0; i < 9; i++) {  // forces two coffer_enlarge calls
    ASSERT_TRUE(alloc->AllocPage(false).ok());
  }
  auto after = kfs_->PagesOf(cid_);
  uint64_t owned_after = 0;
  for (const auto& r : *after) {
    owned_after += r.len;
  }
  EXPECT_EQ(owned_after, owned_before + 16);
}

TEST_F(AllocTest, LeaseStealAfterExpiry) {
  // Thread A claims a list with a tiny lease and parks pages on it; after
  // the lease expires another thread can steal the list and use its pages.
  uint64_t parked_page = 0;
  {
    auto alloc = NewAlloc(/*lease_ns=*/1, /*batch=*/4);
    std::thread t([&]() {
      proc_->BindCurrentThread();
      mpk::AccessWindow w(info_.key, true);
      auto p = alloc->AllocPage(false);
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(alloc->FreePage(*p).ok());
      parked_page = *p;
      mpk::BindThreadToProcess(nullptr);
    });
    t.join();
  }
  // Lease (1 ns) has long expired; this thread's allocator can reclaim the
  // same list (list scan finds the expired lease) and pop the parked page.
  auto alloc2 = NewAlloc(1'000'000'000, 4);
  mpk::AccessWindow w(info_.key, true);
  std::set<uint64_t> got;
  for (int i = 0; i < 8; i++) {
    auto p = alloc2->AllocPage(false);
    ASSERT_TRUE(p.ok());
    got.insert(*p);
  }
  EXPECT_TRUE(got.count(parked_page)) << "expired lease's pages were not reclaimed";
}

TEST_F(AllocTest, FreshListClaimIsNotStealableInsideItsClaimWindow) {
  // A claimant that CASes a list's owner word must already have stamped the
  // lease expiry. Otherwise a second allocator running right after the CAS
  // sees a new owner next to the fresh pool's zero expiry, takes the list
  // over as dead, and both threads pop the same free pages.
  const uint64_t list0 = info_.custom_off + offsetof(zofs::AllocPool, lists);
  auto first = NewAlloc();
  auto second = NewAlloc();
  mpk::AccessWindow w(info_.key, true);
  StoreTrap trap(dev_, list0 + offsetof(zofs::LeasedFreeList, owner_tid), [&] {
    zofs::ScopedTidOverride tid(202);
    EXPECT_TRUE(second->AllocPage(false).ok());
  });
  {
    zofs::ScopedTidOverride tid(101);
    ASSERT_TRUE(first->AllocPage(false).ok());
  }
  ASSERT_TRUE(trap.fired());
  EXPECT_EQ(dev_->Load64(list0 + offsetof(zofs::LeasedFreeList, owner_tid)), 101u);
}

TEST_F(AllocTest, DrainedListAdoptsDeadListBeforeEnlarging) {
  // Thread A parks 64 pages on its list and goes idle; thread B holds a list
  // of its own. Once A's lease lapses, B's allocations must take A's parked
  // pages over instead of growing the coffer from the kernel.
  common::ScopedClockPin pin(1'000'000'000);
  const uint64_t lease = 1'000'000;
  auto alloc = NewAlloc(lease, 16);
  mpk::AccessWindow w(info_.key, true);
  {
    zofs::ScopedTidOverride a(101);
    std::vector<uint64_t> pages;
    for (int i = 0; i < 64; i++) {
      auto p = alloc->AllocPage(false);
      ASSERT_TRUE(p.ok());
      pages.push_back(*p);
    }
    for (uint64_t p : pages) {
      ASSERT_TRUE(alloc->FreePage(p).ok());
    }
  }
  common::AdvanceNowNsForTest(lease / 2);
  zofs::ScopedTidOverride b(202);
  ASSERT_TRUE(alloc->AllocPage(false).ok());  // claims B's list and fills it
  const uint64_t kernel_free = kfs_->FreePages();
  common::AdvanceNowNsForTest(lease / 2 + 1);  // A's lease is dead, B's is not
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(alloc->AllocPage(false).ok());
  }
  EXPECT_EQ(kfs_->FreePages(), kernel_free) << "B enlarged the coffer past A's parked pages";
}

// Runs `body` on a thread of its own, bound to `proc` with a writable window
// on `key`, and joins it; returns the thread's tid.
template <typename Body>
uint64_t OnExitedThread(kernfs::Process* proc, uint8_t key, Body body) {
  uint64_t tid = 0;
  std::thread t([&] {
    proc->BindCurrentThread();
    {
      mpk::AccessWindow w(key, true);
      body();
    }
    tid = zofs::CurrentTid();
    mpk::BindThreadToProcess(nullptr);
  });
  t.join();
  return tid;
}

TEST_F(AllocTest, ExitedThreadsListIsAdoptedInsideItsLease) {
  // A thread parks 64 pages on its list and exits while its lease is live.
  // A thread whose own list runs dry must take those pages over at once,
  // not enlarge the coffer and leave them stranded until the lease lapses.
  common::ScopedClockPin pin(1'000'000'000);  // no lease lapses
  auto alloc = NewAlloc(/*lease_ns=*/1'000'000, /*batch=*/16);
  mpk::AccessWindow w(info_.key, true);
  ASSERT_TRUE(alloc->AllocPage(false).ok());  // this thread's own list, 15 left
  OnExitedThread(proc_, info_.key, [&] {
    std::vector<uint64_t> pages;
    for (int i = 0; i < 64; i++) {
      auto p = alloc->AllocPage(false);
      ASSERT_TRUE(p.ok());
      pages.push_back(*p);
    }
    for (uint64_t p : pages) {
      ASSERT_TRUE(alloc->FreePage(p).ok());
    }
  });
  ASSERT_EQ(alloc->FreeListPagesForTest(), 15u + 64u);
  common::AdvanceNowNsForTest(1);  // the exit is in the past, the lease live
  const uint64_t kernel_free = kfs_->FreePages();
  for (int i = 0; i < 15 + 64; i++) {
    ASSERT_TRUE(alloc->AllocPage(false).ok());
  }
  EXPECT_EQ(kfs_->FreePages(), kernel_free) << "enlarged the coffer past an exited thread's pages";
  EXPECT_EQ(alloc->FreeListPagesForTest(), 0u);
}

TEST_F(AllocTest, VirtualTidOfAnExitedThreadKeepsItsList) {
  // A ScopedTidOverride may name the tid an exited thread drew (procmon
  // numbers its tenants): that tid can be live, so its list stays leased.
  common::ScopedClockPin pin(1'000'000'000);
  auto alloc = NewAlloc(/*lease_ns=*/1'000'000, /*batch=*/16);
  const uint64_t exited = OnExitedThread(proc_, info_.key, [&] {
    auto p = alloc->AllocPage(false);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(alloc->FreePage(*p).ok());
  });
  { zofs::ScopedTidOverride tenant(exited); }
  common::AdvanceNowNsForTest(1);
  mpk::AccessWindow w(info_.key, true);
  const uint64_t kernel_free = kfs_->FreePages();
  ASSERT_TRUE(alloc->AllocPage(false).ok());
  EXPECT_LT(kfs_->FreePages(), kernel_free) << "took over the list of a virtual tid";
  EXPECT_EQ(alloc->FreeListPagesForTest(), 16u + 15u);
}

TEST_F(AllocTest, DonateParksPagesOnFreeList) {
  auto alloc = NewAlloc();
  mpk::AccessWindow w(info_.key, true);
  auto runs = kfs_->CofferEnlarge(*proc_, cid_, 6);
  ASSERT_TRUE(runs.ok());
  ASSERT_TRUE(alloc->Donate(*runs).ok());
  EXPECT_GE(alloc->FreeListPagesForTest(), 6u);
}

TEST_F(AllocTest, ConcurrentAllocationsDisjoint) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  auto alloc = NewAlloc(1'000'000'000, 32);
  std::vector<std::vector<uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      proc_->BindCurrentThread();
      mpk::AccessWindow w(info_.key, true);
      for (int i = 0; i < kPerThread; i++) {
        auto p = alloc->AllocPage(false);
        ASSERT_TRUE(p.ok());
        got[t].push_back(*p);
      }
      mpk::BindThreadToProcess(nullptr);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::set<uint64_t> all;
  for (const auto& v : got) {
    for (uint64_t p : v) {
      EXPECT_TRUE(all.insert(p).second) << "page handed to two threads";
    }
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(AllocTest, FastPathLeaseRenewalSurvivesCrash) {
  // The fast-path lease renewal used to update lease_expiry_ns with a bare
  // Store64 and no write-back: after a crash, recovery observed the stale
  // (shorter) expiry while the owner thread believed the renewal stuck, so
  // another process could steal a live list. The renewal must be on NVM by
  // the time the allocation that performed it returns.
  common::ScopedClockPin pin(1'000'000'000);
  const uint64_t lease = 1'000'000;
  auto alloc = NewAlloc(lease, 16);
  mpk::AccessWindow w(info_.key, true);
  ASSERT_TRUE(alloc->AllocPage(false).ok());  // claims a list, stamps t0+lease
  dev_->MarkAllPersistent();

  // Burn past the renewal threshold (less than lease/2 remaining), then
  // allocate again: the fast path renews and must persist the new stamp.
  common::AdvanceNowNsForTest(600'000);
  ASSERT_TRUE(alloc->AllocPage(false).ok());
  const uint64_t renewed = common::NowNs() + lease;

  // Drops every store that was not written back; the kernel and proc_ go
  // with it, and the reads below run unbound.
  stack_.Crash();

  const uint64_t tid = zofs::CurrentTid();
  uint64_t on_media = 0;
  for (uint32_t i = 0; i < zofs::kPoolLists; i++) {
    const uint64_t loff = info_.custom_off + offsetof(zofs::AllocPool, lists) +
                          i * sizeof(zofs::LeasedFreeList);
    if (dev_->Load64(loff + offsetof(zofs::LeasedFreeList, owner_tid)) == tid) {
      on_media = dev_->Load64(loff + offsetof(zofs::LeasedFreeList, lease_expiry_ns));
      break;
    }
  }
  EXPECT_EQ(on_media, renewed) << "renewed lease stamp was rolled back by the crash";
}

TEST_F(AllocTest, TidsAreUniqueAndNonZero) {
  EXPECT_NE(zofs::CurrentTid(), 0u);
  uint64_t mine = zofs::CurrentTid();
  EXPECT_EQ(zofs::CurrentTid(), mine);  // stable within a thread
  uint64_t other = 0;
  std::thread t([&]() { other = zofs::CurrentTid(); });
  t.join();
  EXPECT_NE(other, 0u);
  EXPECT_NE(other, mine);
}

}  // namespace
