// Crash-consistency tests for ZoFS: crash injection at the NVM layer,
// "reboot" (re-open the device, rebuilding volatile state), fsck, then
// invariant checks.
//
// ZoFS is a synchronous file system with ordered metadata updates: any
// operation that returned before the crash must be visible afterwards, and
// recovery must always produce a consistent tree + allocation table
// (pages leaked into allocator free lists are reclaimed).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/audit/audit.h"
#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;

class ZofsCrashTest : public ::testing::Test {
 protected:
  // Crashes, remounts the rolled-back device (or `image`, when given) and
  // recovers it; fsck must come out clean.
  testbed::FsckResult CrashAndReboot(const std::vector<uint8_t>* image = nullptr) {
    stack_.Crash();
    if (image != nullptr) {
      dev_->RestoreFrom(image->data(), image->size());
    }
    stack_.Mount();
    kfs_ = stack_.kfs();
    fs_ = stack_.AddProcess(cred);
    testbed::FsckResult fsck = stack_.Fsck(fs_);
    EXPECT_TRUE(fsck.clean()) << fsck.recovery << fsck.alloc;
    return fsck;
  }

  vfs::Cred cred{0, 0};
  testbed::Stack stack_{{.size_bytes = 128ull << 20, .crash_tracking = true, .media = {}},
                        {.root_mode = 0755}};
  nvm::NvmDevice* dev_ = stack_.dev();
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = stack_.AddProcess(cred);
};

TEST_F(ZofsCrashTest, CompletedWriteSurvivesCrash) {
  auto fd = fs_->Open(cred, "/a", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(10000, 'k');
  ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), 0).ok());

  CrashAndReboot();

  auto fd2 = fs_->Open(cred, "/a", vfs::kRead, 0);
  ASSERT_TRUE(fd2.ok());
  std::string buf(10000, 0);
  auto r = fs_->Pread(*fd2, buf.data(), buf.size(), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data.size());
  EXPECT_EQ(buf, data);
}

TEST_F(ZofsCrashTest, CompletedCreateSurvivesCrash) {
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        fs_->Open(cred, "/f" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644).ok());
  }
  CrashAndReboot();
  for (int i = 0; i < 50; i++) {
    EXPECT_TRUE(fs_->Stat(cred, "/f" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(ZofsCrashTest, CompletedUnlinkSurvivesCrash) {
  ASSERT_TRUE(fs_->Open(cred, "/gone", vfs::kCreate | vfs::kWrite, 0644).ok());
  ASSERT_TRUE(fs_->Unlink(cred, "/gone").ok());
  CrashAndReboot();
  EXPECT_EQ(fs_->Stat(cred, "/gone").error(), Err::kNoEnt);
}

TEST_F(ZofsCrashTest, CompletedRenameSurvivesCrash) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d1", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/d2", 0755).ok());
  auto fd = fs_->Open(cred, "/d1/f", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fs_->Write(*fd, "abc", 3).ok());
  ASSERT_TRUE(fs_->Rename(cred, "/d1/f", "/d2/g").ok());
  CrashAndReboot();
  EXPECT_TRUE(fs_->Stat(cred, "/d2/g").ok());
  EXPECT_EQ(fs_->Stat(cred, "/d1/f").error(), Err::kNoEnt);
}

TEST_F(ZofsCrashTest, CrossCofferFileSurvivesCrash) {
  auto fd = fs_->Open(cred, "/secret", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "sh", 2).ok());
  CrashAndReboot();
  auto st = fs_->Stat(cred, "/secret");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 2u);
  EXPECT_EQ(st->mode, 0600);
}

TEST_F(ZofsCrashTest, RecoveryReclaimsAllocatorFreeLists) {
  // Grow and shrink a file, leaving pages parked in leased free lists; after
  // a crash + recovery those pages return to the kernel.
  auto fd = fs_->Open(cred, "/grow", vfs::kCreate | vfs::kRdWr, 0644);
  std::vector<uint8_t> chunk(1 << 20, 0xaa);
  ASSERT_TRUE(fs_->Pwrite(*fd, chunk.data(), chunk.size(), 0).ok());
  ASSERT_TRUE(fs_->Ftruncate(*fd, 4096).ok());  // 255 data pages into free lists

  uint64_t free_before = kfs_->FreePages();
  testbed::FsckResult fsck = CrashAndReboot();
  EXPECT_GT(fsck.stats.pages_reclaimed, 200u);
  EXPECT_GT(kfs_->FreePages(), free_before);
  // The file itself survives at its truncated size.
  auto st = fs_->Stat(cred, "/grow");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4096u);
}

TEST_F(ZofsCrashTest, AppendTruncateAndRegrowAcrossBlockMapBoundaries) {
  // One file grown by 4 KB appends, which take the staged path, past block
  // 12 (the first behind the indirect pointer) and block 524 (the first
  // behind the double-indirect one); then truncated to each side of both
  // boundaries, each time regrown by a pwrite of the first dropped block.
  // Every block reads back as last written, before and after a crash, and
  // fsck comes out clean.
  constexpr uint64_t kPage = nvm::kPageSize;
  constexpr uint64_t kIndirect = zofs::kDirectBlocks;
  constexpr uint64_t kDindirect = zofs::kDirectBlocks + zofs::kPtrsPerPage;
  auto appended = [](uint64_t b) { return std::string(kPage, static_cast<char>('A' + b % 23)); };
  auto regrown = [](uint64_t b) { return std::string(kPage, static_cast<char>('a' + b % 23)); };
  auto read_block = [&](vfs::Fd fd, uint64_t b) {
    std::string got(kPage, '\0');
    auto n = fs_->Pread(fd, got.data(), got.size(), b * kPage);
    return n.ok() && *n == kPage ? got : std::string("short read");
  };

  auto fd = fs_->Open(cred, "/grow", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  auto afd = fs_->Open(cred, "/grow", vfs::kWrite | vfs::kAppend, 0);
  ASSERT_TRUE(afd.ok());
  const uint64_t hits = fs_->zofs().StagedAppendHits();
  for (uint64_t b = 0; b <= kDindirect + 1; b++) {
    const std::string data = appended(b);
    ASSERT_TRUE(fs_->Write(*afd, data.data(), data.size()).ok()) << b;
  }
  EXPECT_EQ(fs_->zofs().StagedAppendHits() - hits, kDindirect + 2);
  for (uint64_t b : {kIndirect - 1, kIndirect, kDindirect - 1, kDindirect}) {
    EXPECT_EQ(read_block(*fd, b), appended(b)) << "block " << b;
  }

  for (uint64_t blocks : {kDindirect + 1, kDindirect, kDindirect - 1, kIndirect, kIndirect - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(blocks) + " blocks");
    ASSERT_TRUE(fs_->Ftruncate(*fd, blocks * kPage).ok());
    const std::string data = regrown(blocks);
    ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), blocks * kPage).ok());
    auto st = fs_->Fstat(*fd);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, (blocks + 1) * kPage);
    EXPECT_EQ(read_block(*fd, blocks - 1), appended(blocks - 1));
    EXPECT_EQ(read_block(*fd, blocks), data);
  }

  CrashAndReboot();
  auto rfd = fs_->Open(cred, "/grow", vfs::kRead, 0);
  ASSERT_TRUE(rfd.ok());
  auto st = fs_->Fstat(*rfd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, kIndirect * kPage);
  for (uint64_t b = 0; b + 1 < kIndirect; b++) {
    EXPECT_EQ(read_block(*rfd, b), appended(b)) << "block " << b;
  }
  EXPECT_EQ(read_block(*rfd, kIndirect - 1), regrown(kIndirect - 1));
}

TEST_F(ZofsCrashTest, RandomOpsWithCrashKeepInvariants) {
  // Property test: random operations, crash at a random point, reboot +
  // fsck, then (a) every file that was fully created before the crash and
  // never removed must resolve, (b) the allocation table must be
  // consistent, (c) a full tree walk must not fault.
  common::Rng rng(2024);
  std::set<std::string> live;
  ASSERT_TRUE(fs_->Mkdir(cred, "/w", 0755).ok());

  for (int round = 0; round < 5; round++) {
    const int ops = 120;
    for (int i = 0; i < ops; i++) {
      std::string name = "/w/f" + std::to_string(rng.Below(60));
      switch (rng.Below(4)) {
        case 0: {
          auto fd = fs_->Open(cred, name, vfs::kCreate | vfs::kWrite, 0644);
          if (fd.ok()) {
            std::vector<uint8_t> data(rng.Below(20000));
            rng.Fill(data.data(), data.size());
            fs_->Pwrite(*fd, data.data(), data.size(), 0);
            fs_->Close(*fd);
            live.insert(name);
          }
          break;
        }
        case 1:
          if (fs_->Unlink(cred, name).ok()) {
            live.erase(name);
          }
          break;
        case 2: {
          auto fd = fs_->Open(cred, name, vfs::kWrite, 0);
          if (fd.ok()) {
            std::vector<uint8_t> data(4096);
            fs_->Pwrite(*fd, data.data(), data.size(), rng.Below(8) * 4096);
            fs_->Close(*fd);
          }
          break;
        }
        case 3:
          fs_->Stat(cred, name);
          break;
      }
    }
    CrashAndReboot();
    // (a) completed creations survive.
    for (const std::string& name : live) {
      EXPECT_TRUE(fs_->Stat(cred, name).ok()) << name << " lost after crash";
    }
    // (c) full-tree walk with no faults.
    auto entries = fs_->ReadDir(cred, "/w");
    ASSERT_TRUE(entries.ok());
    EXPECT_GE(entries->size(), live.size());
  }
}

TEST_F(ZofsCrashTest, AuditedRecoveryHasNoOrderingViolations) {
  // Run a full crash/recover cycle with the persistence auditor watching the
  // device: neither the pre-crash workload, nor recovery, nor post-recovery
  // operations may trip an ordering or durability annotation.
  audit::Auditor a;
  a.Attach(dev_);

  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  auto fd = fs_->Open(cred, "/d/f", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(30000, 'z');
  ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), 0).ok());
  ASSERT_TRUE(fs_->Rename(cred, "/d/f", "/d/g").ok());

  CrashAndReboot();

  // Post-recovery, the completed operations are visible and new ones work.
  EXPECT_TRUE(fs_->Stat(cred, "/d/g").ok());
  ASSERT_TRUE(fs_->Unlink(cred, "/d/g").ok());
  ASSERT_TRUE(fs_->Rmdir(cred, "/d").ok());

  audit::Report r = a.Snapshot();
  a.Detach();
  if (r.errors != 0) {
    fprintf(stderr, "%s", r.ToText().c_str());
  }
  for (const auto& f : r.findings) {
    EXPECT_NE(f.kind, audit::FindingKind::kOrderingViolation) << f.site;
    EXPECT_NE(f.kind, audit::FindingKind::kUnflushedAtDurability) << f.site;
  }
  EXPECT_EQ(r.errors, 0u);
}

TEST_F(ZofsCrashTest, TornDentryIsRepairedByFsck) {
  // Hand-craft a torn create: write a dentry body without its commit flag
  // persisted, crash, and verify recovery clears it.
  ASSERT_TRUE(fs_->Open(cred, "/ok", vfs::kCreate | vfs::kWrite, 0644).ok());
  dev_->MarkAllPersistent();

  // A create whose final flag-store never persisted: emulate by creating a
  // file and then crashing *without* the persist of the last operation...
  // Simplest honest torn state: corrupt a dentry name so hash mismatches.
  fs_->BindThread();
  auto node = fs_->zofs().Lookup("/ok", true);
  ASSERT_TRUE(node.ok());
  auto root_info = fs_->zofs().EnsureMappedForTest(kfs_->root_coffer_id(), true);
  {
    mpk::AccessWindow w(root_info->key, true);
    zofs::Inode* root_ino = fs_->zofs().InodeForTest(
        zofs::NodeRef{kfs_->root_coffer_id(), root_info->root_inode_off});
    uint64_t* l1 = dev_->As<uint64_t>(root_ino->l1_dir);
    for (uint64_t s = 0; s < zofs::kL1Slots; s++) {
      if (l1[s] == 0) {
        continue;
      }
      auto* l2 = dev_->As<zofs::L2Page>(l1[s]);
      for (zofs::Dentry& d : l2->embedded) {
        if (d.in_use() && std::string_view(d.name, d.name_len) == "ok") {
          dev_->Store8(dev_->OffsetOf(&d) + offsetof(zofs::Dentry, name), 'X');
          dev_->PersistRange(dev_->OffsetOf(&d), sizeof(zofs::Dentry));
        }
      }
    }
  }
  CrashAndReboot();
  // fsck must have cleared the corrupted dentry; lookups fail cleanly.
  EXPECT_EQ(fs_->Stat(cred, "/ok").error(), Err::kNoEnt);
  EXPECT_EQ(fs_->Stat(cred, "/Xk").error(), Err::kNoEnt);
  auto entries = fs_->ReadDir(cred, "/");
  ASSERT_TRUE(entries.ok());
}

TEST_F(ZofsCrashTest, FailedRenameLeavesDestinationIntact) {
  // Rename validates before touching anything: a rename that fails (here,
  // onto a non-empty directory) must leave the existing destination — and its
  // contents — untouched, both immediately and across a crash.
  ASSERT_TRUE(fs_->Mkdir(cred, "/dir", 0755).ok());
  ASSERT_TRUE(fs_->Open(cred, "/dir/child", vfs::kCreate | vfs::kWrite, 0644).ok());
  auto fd = fs_->Open(cred, "/f", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Pwrite(*fd, "keep", 4, 0).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());

  EXPECT_FALSE(fs_->Rename(cred, "/f", "/dir").ok());      // file over dir
  EXPECT_FALSE(fs_->Rename(cred, "/dir", "/f").ok());      // dir over file
  EXPECT_FALSE(fs_->Rename(cred, "/nosuch", "/f").ok());   // missing source

  CrashAndReboot();

  EXPECT_TRUE(fs_->Stat(cred, "/dir/child").ok());
  auto fd2 = fs_->Open(cred, "/f", vfs::kRead, 0);
  ASSERT_TRUE(fd2.ok());
  char buf[8] = {};
  auto r = fs_->Pread(*fd2, buf, sizeof(buf), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(buf, *r), "keep");
}

TEST_F(ZofsCrashTest, RenameOverwriteIsCrashAtomicAtEveryEpoch) {
  // Walk every persistence epoch of one rename over an existing destination
  // (a 0600 file in its own coffer — the displaced-coffer case). At every
  // crash point the destination must read as exactly the old or exactly the
  // new content; if new, the source name must be gone.
  const std::string old_data(2000, 'd');
  const std::string new_data(3000, 's');
  auto mk = [&](const char* path, uint16_t mode, const std::string& data) {
    auto fd = fs_->Open(cred, path, vfs::kCreate | vfs::kWrite, mode);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), 0).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  };
  mk("/src", 0644, new_data);
  mk("/dst", 0600, old_data);

  dev_->StartCrashCapture();
  std::vector<uint8_t> snapshot;
  dev_->SnapshotTo(&snapshot);
  ASSERT_TRUE(fs_->Rename(cred, "/src", "/dst").ok());
  std::vector<nvm::CrashEpoch> journal = dev_->crash_journal();
  dev_->StopCrashCapture();
  ASSERT_GT(journal.size(), 1u);

  nvm::CrashImageBuilder builder(snapshot, &journal);
  for (int64_t e = -1; e < static_cast<int64_t>(journal.size()); e++) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    builder.AdvanceTo(e);
    ASSERT_TRUE(CrashAndReboot(&builder.image()).recovery.empty());

    std::string dst;
    ASSERT_EQ(testbed::ReadFile(fs_, cred, "/dst", &dst), 1) << "destination lost";
    std::string src;
    int src_state = testbed::ReadFile(fs_, cred, "/src", &src);
    if (dst == new_data) {
      EXPECT_EQ(src_state, 0) << "epoch " << e << ": rename committed but source remains";
    } else {
      ASSERT_EQ(dst, old_data) << "epoch " << e << ": destination torn";
      ASSERT_EQ(src_state, 1) << "epoch " << e;
      EXPECT_EQ(src, new_data) << "epoch " << e;
    }
  }
}

TEST_F(ZofsCrashTest, StagedAppendIsCrashSafeAtEveryEpochAndMidEpoch) {
  // Sweep every persistence epoch of a staged-append run, plus deterministic
  // mid-epoch cacheline subsets of each following epoch, and hold recovery
  // to the fast path's contract:
  //
  //   fsck oracle        recovery succeeds and the allocation table stays
  //                      consistent on every image — staged pages reachable
  //                      through mid-epoch-persisted pointer slots must not
  //                      leak or double-own;
  //   durability oracle  the fsync watermark is always intact, and the file
  //                      size lands between the watermark and everything
  //                      written (un-synced staged tails may be wholly or
  //                      partially absent — the POSIX-weak contract the
  //                      epoch batcher trades per-append fences for).
  //
  // Mid-relink images are covered because each fence of the relink protocol
  // (intent body, intent commit, epoch drain, intent clear) journals its own
  // epoch, and the appends cross the per-epoch page budget so an overflow
  // drain also happens mid-run.
  const std::string base(100, 'b');
  {
    auto fd = fs_->Open(cred, "/log", vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Pwrite(*fd, base.data(), base.size(), 0).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }

  dev_->StartCrashCapture();
  std::vector<uint8_t> snapshot;
  dev_->SnapshotTo(&snapshot);

  auto fd = fs_->Open(cred, "/log", vfs::kWrite | vfs::kAppend, 0);
  ASSERT_TRUE(fd.ok());
  std::string full = base;
  std::string synced = base;  // durable watermark
  uint64_t fsync_end_fence = 0;
  common::Rng rng(1234);
  for (int i = 0; i < 60; i++) {
    std::string chunk(1500 + 700 * rng.Below(7), static_cast<char>('a' + i % 26));
    auto r = fs_->Write(*fd, chunk.data(), chunk.size());
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, chunk.size()) << i;
    full += chunk;
    if (i == 29) {
      ASSERT_TRUE(fs_->Fsync(*fd).ok());
      synced = full;
      fsync_end_fence = dev_->sfence_count();
    }
  }
  ASSERT_TRUE(fs_->Close(*fd).ok());  // durability point: drains the stage

  std::vector<nvm::CrashEpoch> journal = dev_->crash_journal();
  dev_->StopCrashCapture();
  ASSERT_GT(journal.size(), 4u);

  auto check_image = [&](const std::vector<uint8_t>& image, int64_t e, int variant, uint64_t f) {
    SCOPED_TRACE("epoch " + std::to_string(e) + " mid#" + std::to_string(variant));
    ASSERT_TRUE(CrashAndReboot(&image).recovery.empty());

    const std::string& floor = (fsync_end_fence != 0 && f >= fsync_end_fence) ? synced : base;
    auto rfd = fs_->Open(cred, "/log", vfs::kRead, 0);
    ASSERT_TRUE(rfd.ok()) << "epoch " << e << " mid#" << variant << ": file lost";
    auto st = fs_->Fstat(*rfd);
    ASSERT_TRUE(st.ok());
    EXPECT_GE(st->size, floor.size()) << "epoch " << e << " mid#" << variant
                                      << ": durable watermark lost";
    EXPECT_LE(st->size, full.size()) << "epoch " << e << " mid#" << variant
                                     << ": size beyond everything written";
    std::string got(floor.size(), 0);
    auto r = fs_->Pread(*rfd, got.data(), got.size(), 0);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, got.size());
    EXPECT_EQ(got, floor) << "epoch " << e << " mid#" << variant << ": durable prefix torn";
  };

  nvm::CrashImageBuilder builder(snapshot, &journal);
  std::vector<uint8_t> scratch;
  for (int64_t e = -1; e < static_cast<int64_t>(journal.size()); e++) {
    builder.AdvanceTo(e);
    const uint64_t f = e < 0 ? 0 : journal[e].fence_seq;
    check_image(builder.image(), e, -1, f);
    for (int k = 0; k < 2; k++) {
      std::vector<bool> pick(builder.NextEpochLineCount());
      if (pick.empty()) {
        continue;
      }
      common::Rng prng(0x5eed + 31 * static_cast<uint64_t>(e + 2) + k);
      bool any = false;
      for (size_t i = 0; i < pick.size(); i++) {
        pick[i] = (prng.Next() & 1) != 0;
        any = any || pick[i];
      }
      if (!any) {
        pick[0] = true;
      }
      if (!builder.MaterializeMidEpoch(pick, &scratch)) {
        continue;
      }
      check_image(scratch, e, k, f);
    }
  }
}

}  // namespace
