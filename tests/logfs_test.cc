// Tests for LogFS, the log-structured µFS (§5.3's alternative design):
// log replay at remount, commit-point semantics for torn tails, compaction,
// and kernel-assisted recovery.

#include <gtest/gtest.h>

#include <cstring>

#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/logfs/logfs.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;

class LogFsTest : public ::testing::Test {
 protected:
  // Remounts the device after a clean shutdown, or after a crash.
  void Reboot(bool crash) {
    if (crash) {
      stack_.Crash();
    } else {
      stack_.Shutdown();
    }
    stack_.Mount();
    kfs_ = stack_.kfs();
    fs_ = stack_.AddProcess(cred);
  }

  logfs::LogFs& logfs() { return static_cast<logfs::LogFs&>(fs_->ufs()); }

  vfs::Cred cred{0, 0};
  testbed::Stack stack_{{.size_bytes = 256ull << 20, .crash_tracking = true, .media = {}},
                        {.root_mode = 0755, .root_type = kernfs::kCofferTypeLogFs}};
  nvm::NvmDevice* dev_ = stack_.dev();
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = stack_.AddProcess(cred);
};

TEST_F(LogFsTest, DispatcherSelectsLogFs) {
  EXPECT_STREQ(fs_->ufs().Name(), "LogFS");
}

TEST_F(LogFsTest, ReplayRebuildsNamespace) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/dir", 0755).ok());
  auto fd = fs_->Open(cred, "/dir/f", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(10000, 'L');
  ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), 0).ok());
  ASSERT_TRUE(fs_->Symlink(cred, "/dir/f", "/link").ok());
  ASSERT_TRUE(fs_->Rename(cred, "/dir/f", "/dir/g").ok());

  Reboot(/*crash=*/false);  // remount: replay only

  auto st = fs_->Stat(cred, "/dir/g");
  ASSERT_TRUE(st.ok()) << common::ErrName(st.error());
  EXPECT_EQ(st->size, data.size());
  EXPECT_EQ(fs_->Stat(cred, "/dir/f").error(), Err::kNoEnt);
  auto rl = fs_->ReadLink(cred, "/link");
  ASSERT_TRUE(rl.ok());
  EXPECT_EQ(*rl, "/dir/f");  // symlinks store paths, not nodes

  auto fd2 = fs_->Open(cred, "/dir/g", vfs::kRead, 0);
  ASSERT_TRUE(fd2.ok());
  std::string back(data.size(), 0);
  auto r = fs_->Read(*fd2, back.data(), back.size());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back, data);
  EXPECT_GT(logfs().replayed_records(), 0u);
}

TEST_F(LogFsTest, CompletedOpsSurviveCrash) {
  for (int i = 0; i < 40; i++) {
    auto fd = fs_->Open(cred, "/f" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    std::string payload = "payload-" + std::to_string(i);
    ASSERT_TRUE(fs_->Write(*fd, payload.data(), payload.size()).ok());
  }
  ASSERT_TRUE(fs_->Unlink(cred, "/f7").ok());

  Reboot(/*crash=*/true);

  for (int i = 0; i < 40; i++) {
    if (i == 7) {
      EXPECT_EQ(fs_->Stat(cred, "/f7").error(), Err::kNoEnt);
      continue;
    }
    auto fd = fs_->Open(cred, "/f" + std::to_string(i), vfs::kRead, 0);
    ASSERT_TRUE(fd.ok()) << i;
    char buf[64] = {};
    auto r = fs_->Read(*fd, buf, sizeof(buf));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(std::string(buf, *r), "payload-" + std::to_string(i));
  }
}

TEST_F(LogFsTest, TornTailRecordIsIgnored) {
  auto fd = fs_->Open(cred, "/good", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());

  // Forge a torn append: record bytes land after the commit point (`used`)
  // but `used` itself never advances — the exact state a crash between the
  // record persist and the commit persist leaves behind. Replay must ignore
  // everything past `used`.
  struct LogSuperView {
    uint64_t magic, head_page, epoch;
  };
  struct LogPageHeaderView {
    uint64_t next, used;
  };
  const auto* root = kfs_->RootPageOf(kfs_->root_coffer_id());
  const auto* super = reinterpret_cast<const LogSuperView*>(dev_->At(root->root_inode_off));
  uint64_t page = super->head_page;
  ASSERT_NE(page, 0u);
  const LogPageHeaderView* hdr;
  for (;;) {
    hdr = reinterpret_cast<const LogPageHeaderView*>(dev_->At(page));
    if (hdr->next == 0) {
      break;
    }
    page = hdr->next;
  }
  // Plausible-looking garbage record right after the committed bytes.
  uint8_t garbage[32] = {1 /* kRecCreate */, 0, 24, 0};
  memcpy(dev_->base() + page + sizeof(LogPageHeaderView) + hdr->used, garbage,
         sizeof(garbage));
  dev_->MarkAllPersistent();

  Reboot(/*crash=*/false);
  EXPECT_TRUE(fs_->Stat(cred, "/good").ok());
  // The garbage never became part of the namespace.
  auto entries = fs_->ReadDir(cred, "/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(LogFsTest, CompactionShrinksLogAndPreservesState) {
  // Churn: overwrite one file many times so most log records are dead.
  auto fd = fs_->Open(cred, "/churn", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  std::string block(4096, 'c');
  for (int i = 0; i < 2000; i++) {
    block[0] = static_cast<char>('a' + (i % 26));
    ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok());
  }
  auto fd2 = fs_->Open(cred, "/keep", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fs_->Write(*fd2, "keepme", 6).ok());

  fs_->BindThread();
  uint64_t pages_before = logfs().log_pages();
  auto freed = logfs().CompactForTest();
  ASSERT_TRUE(freed.ok());
  EXPECT_LT(logfs().log_pages(), pages_before);

  // State intact after compaction...
  char buf[8] = {};
  auto kfd = fs_->Open(cred, "/keep", vfs::kRead, 0);
  ASSERT_TRUE(fs_->Read(*kfd, buf, 6).ok());
  EXPECT_EQ(std::string(buf, 6), "keepme");
  char c;
  ASSERT_TRUE(fs_->Pread(*fd, &c, 1, 0).ok());
  EXPECT_EQ(c, static_cast<char>('a' + (1999 % 26)));

  // ... and after a remount of the compacted log.
  Reboot(/*crash=*/false);
  auto st = fs_->Stat(cred, "/churn");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4096u);
  EXPECT_TRUE(fs_->Stat(cred, "/keep").ok());
}

TEST_F(LogFsTest, AutomaticCompactionBoundsLogGrowth) {
  auto fd = fs_->Open(cred, "/hot", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  std::string block(4096, 'h');
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok()) << i;
  }
  fs_->BindThread();
  // 20k overwrites = 20k write records (~40B each) ~ 200 pages without GC.
  EXPECT_LT(logfs().log_pages(), 150u) << "compaction never triggered";
}

TEST_F(LogFsTest, RecoverAllReclaimsDeadPages) {
  auto fd = fs_->Open(cred, "/f", vfs::kCreate | vfs::kRdWr, 0644);
  std::string big(1 << 20, 'r');
  ASSERT_TRUE(fs_->Pwrite(*fd, big.data(), big.size(), 0).ok());
  ASSERT_TRUE(fs_->Ftruncate(*fd, 4096).ok());  // 255 pages parked in free lists

  Reboot(/*crash=*/true);
  testbed::FsckResult fsck = stack_.Fsck(fs_);
  ASSERT_TRUE(fsck.recovery.empty()) << fsck.recovery;
  EXPECT_GT(fsck.stats.pages_reclaimed, 200u);
  EXPECT_TRUE(fsck.alloc.empty()) << fsck.alloc;
  // The surviving file still reads.
  auto st = fs_->Stat(cred, "/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4096u);
}

TEST_F(LogFsTest, LogStructuredAppendsAreOutOfPlace) {
  // Overwriting the same block repeatedly allocates fresh pages (out of
  // place) and recycles old ones — coffer page usage stays bounded.
  auto fd = fs_->Open(cred, "/oop", vfs::kCreate | vfs::kRdWr, 0644);
  std::string block(4096, 'x');
  ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok());
  auto pages0 = kfs_->PagesOf(kfs_->root_coffer_id());
  uint64_t before = 0;
  for (const auto& r : *pages0) {
    before += r.len;
  }
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok());
  }
  auto pages1 = kfs_->PagesOf(kfs_->root_coffer_id());
  uint64_t after = 0;
  for (const auto& r : *pages1) {
    after += r.len;
  }
  EXPECT_LE(after, before + 192) << "old out-of-place pages not recycled";
}

}  // namespace
