// Tests for the per-thread submission/completion channel into KernFS
// (src/kernfs/channel.{h,cc}) and its wiring through ZoFs/FSLib:
//
//   * batching — N queued requests pay exactly one KernelEntry;
//   * foreground/background crossing attribution (the CrossingCount()
//     mis-attribution bugfix);
//   * async enlarge prefetch: dedup, harvest, drain-time page return;
//   * a corrupted in-flight entry completes kInval without dispatching;
//   * differential equivalence against the Options::sync_crossings test hook;
//   * crash at every drain stage of a partially drained ring recovers to a
//     consistent allocation table (the rings are volatile DRAM).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/fslib/fslib.h"
#include "src/kernfs/channel.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"
#include "src/zofs/zofs.h"

namespace {

using common::Err;

const vfs::Cred kCred{0, 0};

// ---------------------------------------------------------------------------
// Channel unit tests against a bare KernFs (no ZoFs above).

class ChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proc_ = kfs_->CreateProcess(kCred);
    proc_->BindCurrentThread();
  }

  uint32_t NewCoffer(const std::string& path) {
    auto id = kfs_->CofferNew(*proc_, path, kernfs::kCofferTypeZofs, 0644, 0, 0, 2);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(kfs_->CofferMap(*proc_, *id, true).ok());
    return *id;
  }

  uint64_t RunPages(const std::vector<kernfs::PageRun>& runs) {
    uint64_t n = 0;
    for (const auto& r : runs) {
      n += r.len;
    }
    return n;
  }

  uint64_t OwnedPages(uint32_t cid) {
    auto runs = kfs_->PagesOf(cid);
    EXPECT_TRUE(runs.ok());
    return RunPages(*runs);
  }

  testbed::Stack stack_{{.size_bytes = 128ull << 20, .crash_tracking = true, .media = {}},
                        {.root_mode = 0755}};
  kernfs::KernFs* kfs_ = stack_.kfs();
  kernfs::Process* proc_ = nullptr;
};

TEST_F(ChannelTest, BatchedRequestsShareOneCrossing) {
  const uint32_t c1 = NewCoffer("/c1");
  const uint32_t c2 = NewCoffer("/c2");
  const uint32_t c3 = NewCoffer("/c3");
  kernfs::Channel ch(kfs_, proc_);

  EXPECT_NE(ch.SubmitEnlarge(c1, 4), 0u);
  EXPECT_NE(ch.SubmitEnlarge(c2, 4), 0u);
  EXPECT_NE(ch.SubmitEnlarge(c3, 4), 0u);
  EXPECT_EQ(ch.QueuedForTest(), 3u);

  const uint64_t total0 = kernfs::CrossingCount();
  const uint64_t fg0 = kernfs::ForegroundCrossingCount();
  const uint64_t bg0 = kernfs::BackgroundCrossingCount();
  ch.Flush();
  // Three requests, one KernelEntry, attributed to the background counter
  // (nothing in the batch was a foreground request).
  EXPECT_EQ(kernfs::CrossingCount() - total0, 1u);
  EXPECT_EQ(kernfs::ForegroundCrossingCount() - fg0, 0u);
  EXPECT_EQ(kernfs::BackgroundCrossingCount() - bg0, 1u);

  kernfs::ChannelStats s = ch.stats();
  EXPECT_EQ(s.crossings, 1u);
  EXPECT_EQ(s.background_crossings, 1u);
  EXPECT_EQ(s.foreground_crossings, 0u);
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.batched_requests, 3u);
  EXPECT_EQ(s.async_submitted, 3u);

  // Harvest the grants and return them so nothing is stranded.
  for (uint32_t cid : {c1, c2, c3}) {
    kernfs::ChanCompletion done;
    ASSERT_TRUE(ch.TakeEnlarge(cid, &done));
    ASSERT_TRUE(done.status.ok());
    EXPECT_EQ(RunPages(done.runs), 4u);
    EXPECT_TRUE(kfs_->CofferShrink(*proc_, cid, done.runs).ok());
  }
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(ChannelTest, SyncOpDrainsQueueInSameCrossing) {
  const uint32_t c1 = NewCoffer("/c1");
  const uint32_t c2 = NewCoffer("/c2");
  kernfs::Channel ch(kfs_, proc_);

  EXPECT_NE(ch.SubmitEnlarge(c1, 4), 0u);
  const uint64_t total0 = kernfs::CrossingCount();
  const uint64_t fg0 = kernfs::ForegroundCrossingCount();
  auto grant = ch.Enlarge(c2, 4);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(RunPages(*grant), 4u);
  // The queued background enlarge rode along: one crossing total, and it is
  // foreground (the batch carried a foreground request).
  EXPECT_EQ(kernfs::CrossingCount() - total0, 1u);
  EXPECT_EQ(kernfs::ForegroundCrossingCount() - fg0, 1u);
  kernfs::ChannelStats s = ch.stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.batched_requests, 2u);

  kernfs::ChanCompletion done;
  ASSERT_TRUE(ch.TakeEnlarge(c1, &done));
  ASSERT_TRUE(done.status.ok());
  EXPECT_TRUE(kfs_->CofferShrink(*proc_, c1, done.runs).ok());
  EXPECT_TRUE(kfs_->CofferShrink(*proc_, c2, *grant).ok());
}

TEST_F(ChannelTest, TakeEnlargeExecutesQueuedRequest) {
  const uint32_t c1 = NewCoffer("/c1");
  kernfs::Channel ch(kfs_, proc_);

  EXPECT_NE(ch.SubmitEnlarge(c1, 4), 0u);
  EXPECT_TRUE(ch.HasPendingEnlarge(c1));

  const uint64_t bg0 = kernfs::BackgroundCrossingCount();
  kernfs::ChanCompletion done;
  ASSERT_TRUE(ch.TakeEnlarge(c1, &done));
  ASSERT_TRUE(done.status.ok());
  EXPECT_EQ(RunPages(done.runs), 4u);
  // The deferred execution is still async housekeeping: background crossing.
  EXPECT_EQ(kernfs::BackgroundCrossingCount() - bg0, 1u);

  EXPECT_FALSE(ch.HasPendingEnlarge(c1));
  kernfs::ChanCompletion again;
  EXPECT_FALSE(ch.TakeEnlarge(c1, &again));
  EXPECT_TRUE(kfs_->CofferShrink(*proc_, c1, done.runs).ok());
}

TEST_F(ChannelTest, SubmitEnlargeDedupsPerCoffer) {
  const uint32_t c1 = NewCoffer("/c1");
  kernfs::Channel ch(kfs_, proc_);

  EXPECT_NE(ch.SubmitEnlarge(c1, 4), 0u);
  EXPECT_EQ(ch.SubmitEnlarge(c1, 4), 0u);  // already queued
  EXPECT_EQ(ch.QueuedForTest(), 1u);

  ch.Flush();
  EXPECT_EQ(ch.SubmitEnlarge(c1, 4), 0u);  // completed but unharvested

  kernfs::ChanCompletion done;
  ASSERT_TRUE(ch.TakeEnlarge(c1, &done));
  EXPECT_NE(ch.SubmitEnlarge(c1, 4), 0u);  // harvested: a new prefetch may queue

  EXPECT_TRUE(kfs_->CofferShrink(*proc_, c1, done.runs).ok());
  ch.Drain();  // drops the still-queued prefetch
  EXPECT_EQ(ch.QueuedForTest(), 0u);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(ChannelTest, MapThroughChannel) {
  auto id = kfs_->CofferNew(*proc_, "/m", kernfs::kCofferTypeZofs, 0644, 0, 0, 2);
  ASSERT_TRUE(id.ok());
  kernfs::Channel ch(kfs_, proc_);

  auto info = ch.Map(*id, true);
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->key, 0u);
  EXPECT_TRUE(proc_->HasMapped(*id));

  EXPECT_FALSE(ch.Map(9999, false).ok());  // error propagation
}

TEST_F(ChannelTest, CorruptedEntryCompletesInvalWithoutDispatch) {
  const uint32_t c1 = NewCoffer("/c1");
  kernfs::Channel ch(kfs_, proc_);

  EXPECT_NE(ch.SubmitEnlarge(c1, 8), 0u);
  ASSERT_TRUE(ch.CorruptQueuedForTest(0));

  const uint64_t owned_before = OwnedPages(c1);
  ch.Flush();
  // The scribbled entry was refused, not dispatched: kInval completion, no
  // kernel state change, allocation table still consistent.
  auto comps = ch.Harvest();
  ASSERT_EQ(comps.size(), 1u);
  ASSERT_FALSE(comps[0].status.ok());
  EXPECT_EQ(comps[0].status.error(), Err::kInval);
  EXPECT_EQ(OwnedPages(c1), owned_before);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();

  // The pending flag fails soft: the allocator falls back to a sync refill.
  kernfs::ChanCompletion done;
  EXPECT_FALSE(ch.TakeEnlarge(c1, &done));
  EXPECT_FALSE(ch.HasPendingEnlarge(c1));
}

TEST_F(ChannelTest, DrainReturnsUnharvestedGrantsAndDropsQueued) {
  const uint32_t c1 = NewCoffer("/c1");
  const uint32_t c2 = NewCoffer("/c2");
  kernfs::Channel ch(kfs_, proc_);
  const uint64_t owned1 = OwnedPages(c1);
  const uint64_t owned2 = OwnedPages(c2);

  // c1: completed but never harvested; c2: queued but never executed.
  EXPECT_NE(ch.SubmitEnlarge(c1, 4), 0u);
  ch.Flush();
  EXPECT_EQ(OwnedPages(c1), owned1 + 4);
  EXPECT_NE(ch.SubmitEnlarge(c2, 4), 0u);

  ch.Drain();
  // The unharvested grant went back via CofferShrink; the unexecuted request
  // was dropped without ever touching the kernel.
  EXPECT_EQ(OwnedPages(c1), owned1);
  EXPECT_EQ(OwnedPages(c2), owned2);
  EXPECT_EQ(ch.QueuedForTest(), 0u);
  EXPECT_EQ(ch.DoneForTest(), 0u);
  EXPECT_FALSE(ch.HasPendingEnlarge(c1));
  EXPECT_FALSE(ch.HasPendingEnlarge(c2));
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(ChannelTest, ChannelSetCachesPerThreadAndHonorsDisable) {
  kernfs::ChannelSet off(kfs_, proc_, /*enabled=*/false);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.Current(), nullptr);

  kernfs::ChannelSet on(kfs_, proc_, /*enabled=*/true);
  kernfs::Channel* ch = on.Current();
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(on.Current(), ch);  // thread-local cache hit

  const uint32_t c1 = NewCoffer("/c1");
  EXPECT_NE(ch->SubmitEnlarge(c1, 4), 0u);
  ch->Flush();
  kernfs::ChannelStats agg = on.Aggregate();
  EXPECT_EQ(agg.crossings, 1u);
  EXPECT_EQ(agg.async_submitted, 1u);
  on.DrainAll();  // returns the unharvested grant
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(ChannelTest, DestroyProcessReclaimsUnharvestedGrants) {
  // Regression: DestroyProcess used to erase the process without draining its
  // registered channel rings, stranding executed-but-unharvested enlarge
  // grants (pages owned by the coffer, linked nowhere) forever.
  const uint64_t free0 = kfs_->FreePages();
  const uint32_t c1 = NewCoffer("/c1");
  const uint32_t c2 = NewCoffer("/c2");
  const uint64_t owned1 = OwnedPages(c1);
  const uint64_t owned2 = OwnedPages(c2);
  {
    kernfs::Channel ch(kfs_, proc_);
    // c1: executed, grant parked in the completion ring; c2: still queued.
    EXPECT_NE(ch.SubmitEnlarge(c1, 4), 0u);
    ch.Flush();
    EXPECT_EQ(OwnedPages(c1), owned1 + 4);
    EXPECT_NE(ch.SubmitEnlarge(c2, 4), 0u);
    mpk::BindThreadToProcess(nullptr);  // the table dies with the process
    kfs_->DestroyProcess(proc_);
    proc_ = nullptr;
  }
  // The destroy drained the registered ring: the parked grant went back, the
  // queued request died without touching the kernel.
  EXPECT_EQ(OwnedPages(c1), owned1);
  EXPECT_EQ(OwnedPages(c2), owned2);
  // Reacquire a process to delete the coffers and prove nothing stranded.
  proc_ = kfs_->CreateProcess(kCred);
  proc_->BindCurrentThread();
  ASSERT_TRUE(kfs_->CofferMap(*proc_, c1, true).ok());
  ASSERT_TRUE(kfs_->CofferMap(*proc_, c2, true).ok());
  EXPECT_TRUE(kfs_->CofferDelete(*proc_, c1).ok());
  EXPECT_TRUE(kfs_->CofferDelete(*proc_, c2).ok());
  EXPECT_EQ(kfs_->FreePages(), free0);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

// ---------------------------------------------------------------------------
// Differential equivalence: the same workload through the channel path and
// through the Options::sync_crossings test hook must produce identical trees.

void ChurnWorkload(fslib::FsLib* fs) {
  ASSERT_TRUE(fs->Mkdir(kCred, "/d", 0755).ok());
  for (int i = 0; i < 40; i++) {
    const std::string path = "/d/f" + std::to_string(i);
    auto fd = fs->Open(kCred, path, vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok()) << path;
    std::string data(128 + 17 * i, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(fs->Write(*fd, data.data(), data.size()).ok());
    ASSERT_TRUE(fs->Close(*fd).ok());
    if (i % 4 == 3) {
      ASSERT_TRUE(fs->Unlink(kCred, "/d/f" + std::to_string(i - 3)).ok());
    }
  }
  ASSERT_TRUE(fs->Rename(kCred, "/d/f1", "/d/g1").ok());
}

void ExpectSameTree(fslib::FsLib* a, fslib::FsLib* b) {
  auto ea = a->ReadDir(kCred, "/d");
  auto eb = b->ReadDir(kCred, "/d");
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  std::set<std::string> na, nb;
  for (const vfs::DirEntry& e : *ea) na.insert(e.name);
  for (const vfs::DirEntry& e : *eb) nb.insert(e.name);
  EXPECT_EQ(na, nb);
  for (const std::string& name : na) {
    const std::string path = "/d/" + name;
    auto sa = a->Stat(kCred, path);
    auto sb = b->Stat(kCred, path);
    ASSERT_TRUE(sa.ok()) << path;
    ASSERT_TRUE(sb.ok()) << path;
    ASSERT_EQ(sa->size, sb->size) << path;
    auto fa = a->Open(kCred, path, vfs::kRead, 0);
    auto fb = b->Open(kCred, path, vfs::kRead, 0);
    ASSERT_TRUE(fa.ok() && fb.ok()) << path;
    std::string ba(sa->size, 0), bb(sb->size, 0);
    ASSERT_TRUE(a->Pread(*fa, ba.data(), ba.size(), 0).ok());
    ASSERT_TRUE(b->Pread(*fb, bb.data(), bb.size(), 0).ok());
    EXPECT_EQ(ba, bb) << path;
    a->Close(*fa);
    b->Close(*fb);
  }
}

TEST(ChannelDifferentialTest, ChurnEquivalentToSyncCrossings) {
  const nvm::Options dev{.size_bytes = 128ull << 20, .media = {}};
  const kernfs::FormatOptions fmt{.root_mode = 0755};
  testbed::Stack channel_stack(dev, fmt);
  fslib::FsLib* channel = channel_stack.AddProcess(kCred);
  testbed::Stack sync_stack(dev, fmt);
  zofs::Options zo;
  zo.sync_crossings = true;
  fslib::FsLib* sync = sync_stack.AddProcess(kCred, zo);
  EXPECT_TRUE(channel->zofs().channels().enabled());
  EXPECT_FALSE(sync->zofs().channels().enabled());

  const uint64_t bg0 = kernfs::BackgroundCrossingCount();
  ChurnWorkload(sync);
  // The sync reference never runs async housekeeping: every crossing it
  // charged was foreground.
  EXPECT_EQ(kernfs::BackgroundCrossingCount(), bg0);

  ChurnWorkload(channel);
  ExpectSameTree(channel, sync);

  EXPECT_TRUE(channel_stack.kfs()->CheckAllocTableForTest().empty());
  EXPECT_TRUE(sync_stack.kfs()->CheckAllocTableForTest().empty());
}

// ---------------------------------------------------------------------------
// Crash at every drain stage of a partially drained ring. The rings live in
// volatile DRAM, so a crash may strand (a) queued-unexecuted requests —
// nothing reached the kernel, (b) executed-unharvested grants — pages owned
// by the coffer but linked nowhere, and (c) harvested-but-unlinked grants.
// Recovery must reclaim all of them into a consistent allocation table.

class ChannelCrashTest : public ::testing::Test {
 protected:
  // Crashes, remounts and recovers. A crash abandons the process, so its
  // ZoFs destructor never drains the channels (a CofferShrink of unharvested
  // grants): the remounted kernel, before recovery, must count exactly the
  // free pages it counted just before the crash, and recovery then reclaims
  // the stranded ones.
  void CrashAndReboot() {
    const uint64_t free_before = kfs_->FreePages();
    stack_.Crash();
    stack_.Mount();
    kfs_ = stack_.kfs();
    EXPECT_EQ(kfs_->FreePages(), free_before) << "cleanup reached the crashed image";
    fs_ = stack_.AddProcess(kCred);
    testbed::FsckResult fsck = stack_.Fsck(fs_);
    ASSERT_TRUE(fsck.recovery.empty()) << fsck.recovery;
    EXPECT_TRUE(fsck.alloc.empty()) << fsck.alloc;
  }

  testbed::Stack stack_{{.size_bytes = 128ull << 20, .crash_tracking = true, .media = {}},
                        {.root_mode = 0755}};
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = stack_.AddProcess(kCred);
};

TEST_F(ChannelCrashTest, PartiallyDrainedRingSweep) {
  // stage 0: request queued, never executed.
  // stage 1: executed (pages granted in the kernel), grant unharvested.
  // stage 2: grant harvested but dropped before it was linked anywhere.
  for (int stage = 0; stage < 3; stage++) {
    SCOPED_TRACE("stage " + std::to_string(stage));
    for (int i = 0; i < 8; i++) {
      const std::string f = "/s" + std::to_string(stage) + "_" + std::to_string(i);
      auto fd = fs_->Open(kCred, f, vfs::kCreate | vfs::kWrite, 0644);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(fs_->Write(*fd, "data", 4).ok());
      ASSERT_TRUE(fs_->Close(*fd).ok());
    }

    kernfs::Channel* ch = fs_->zofs().channels().Current();
    ASSERT_NE(ch, nullptr);
    ASSERT_NE(ch->SubmitEnlarge(kfs_->root_coffer_id(), 8), 0u);
    if (stage >= 1) {
      ch->Flush();
    }
    if (stage == 2) {
      kernfs::ChanCompletion grant;
      ASSERT_TRUE(ch->TakeEnlarge(kfs_->root_coffer_id(), &grant));
      ASSERT_TRUE(grant.status.ok());  // runs dropped: stranded on purpose
    }

    CrashAndReboot();

    // Everything that completed before the crash is still there.
    for (int s = 0; s <= stage; s++) {
      for (int i = 0; i < 8; i++) {
        EXPECT_TRUE(
            fs_->Stat(kCred, "/s" + std::to_string(s) + "_" + std::to_string(i)).ok())
            << "s" << s << "_" << i;
      }
    }
  }
}

}  // namespace
