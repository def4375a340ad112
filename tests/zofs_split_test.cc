// Coffer split / merge / page-move edge cases (the Table 9 machinery):
// chmod of whole directory subtrees, nested cross-coffer children, rename
// across permission groups, and post-split integrity.

#include <gtest/gtest.h>

#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;

class ZofsSplitTest : public ::testing::Test {
 protected:
  size_t CofferCount() { return kfs_->AllCofferIds().size(); }

  vfs::Cred cred{1000, 1000};
  testbed::Stack stack_{{.size_bytes = 256ull << 20, .media = {}},
                        {.root_mode = 0755, .root_uid = 1000, .root_gid = 1000}};
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = stack_.AddProcess(cred);
};

TEST_F(ZofsSplitTest, ChmodDirectorySplitsWholeSubtree) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/proj", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/proj/sub", 0755).ok());
  std::string payload(20000, 'p');
  for (const char* p : {"/proj/a", "/proj/sub/b"}) {
    auto fd = fs_->Open(cred, p, vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Write(*fd, payload.data(), payload.size()).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  size_t before = CofferCount();

  // chmod the directory to a new permission group: the whole same-coffer
  // subtree moves into a new coffer.
  ASSERT_TRUE(fs_->Chmod(cred, "/proj", 0700).ok());
  EXPECT_EQ(CofferCount(), before + 1);

  // Everything underneath is still reachable with intact data.
  for (const char* p : {"/proj/a", "/proj/sub/b"}) {
    auto fd = fs_->Open(cred, p, vfs::kRead, 0);
    ASSERT_TRUE(fd.ok()) << p;
    std::string buf(payload.size(), 0);
    auto r = fs_->Read(*fd, buf.data(), buf.size());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(buf, payload) << p;
  }
  auto st = fs_->Stat(cred, "/proj");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0700);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();

  // The split dir's coffer path is registered in the kernel path map.
  EXPECT_TRUE(kfs_->CofferFind("/proj").ok());
}

TEST_F(ZofsSplitTest, ChmodDirectoryKeepsCrossCofferChildrenIntact) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/mix", 0755).ok());
  // A same-group file and a private (own-coffer) file inside.
  ASSERT_TRUE(fs_->Open(cred, "/mix/shared", vfs::kCreate | vfs::kWrite, 0644).ok());
  auto secret = fs_->Open(cred, "/mix/secret", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(secret.ok());
  ASSERT_TRUE(fs_->Write(*secret, "sec", 3).ok());
  size_t before = CofferCount();  // root + secret's coffer

  ASSERT_TRUE(fs_->Chmod(cred, "/mix", 0710).ok());  // 0710 & 0666 = 0600... wait
  // 0710's effective group is 0600/uid1000 which matches /mix/secret's
  // group; regardless, the directory must split away from the root coffer.
  EXPECT_GE(CofferCount(), before);

  // Both children resolve and read correctly after the split.
  EXPECT_TRUE(fs_->Stat(cred, "/mix/shared").ok());
  auto st = fs_->Stat(cred, "/mix/secret");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 3u);
  char buf[4] = {};
  auto fd = fs_->Open(cred, "/mix/secret", vfs::kRead, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Read(*fd, buf, 3).ok());
  EXPECT_EQ(std::string(buf, 3), "sec");
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(ZofsSplitTest, RenameIntoDifferentGroupDirectory) {
  // /open (0755 group) and /closed (0700 group => own coffer).
  ASSERT_TRUE(fs_->Mkdir(cred, "/open", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/closed", 0700).ok());
  auto fd = fs_->Open(cred, "/open/file", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(9000, 'm');
  ASSERT_TRUE(fs_->Write(*fd, data.data(), data.size()).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());

  // The file keeps its 0644 permission, so inside /closed's coffer it must
  // become its own coffer (split), referenced cross-coffer.
  size_t before = CofferCount();
  ASSERT_TRUE(fs_->Rename(cred, "/open/file", "/closed/file").ok());
  EXPECT_EQ(CofferCount(), before + 1);

  auto st = fs_->Stat(cred, "/closed/file");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, data.size());
  EXPECT_EQ(st->mode, 0644);
  auto rfd = fs_->Open(cred, "/closed/file", vfs::kRead, 0);
  ASSERT_TRUE(rfd.ok());
  std::string buf(data.size(), 0);
  ASSERT_TRUE(fs_->Read(*rfd, buf.data(), buf.size()).ok());
  EXPECT_EQ(buf, data);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(ZofsSplitTest, RenameMatchingGroupMovesPagesBetweenCoffers) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/g1", 0700).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/g2", 0700).ok());
  // g1 and g2 are separate coffers sharing one permission group... only if
  // created under different parents; here both split from root, so each is
  // its own coffer with group 0600/1000.
  auto g1 = kfs_->CofferFind("/g1");
  auto g2 = kfs_->CofferFind("/g2");
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  ASSERT_NE(*g1, *g2);

  auto fd = fs_->Open(cred, "/g1/f", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(fd.ok());
  std::string data(30000, 'v');
  ASSERT_TRUE(fs_->Write(*fd, data.data(), data.size()).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());

  size_t before = CofferCount();
  ASSERT_TRUE(fs_->Rename(cred, "/g1/f", "/g2/f").ok());
  // Same permission group as the destination coffer: pages move, no new
  // coffer appears.
  EXPECT_EQ(CofferCount(), before);

  auto st = fs_->Stat(cred, "/g2/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, data.size());
  auto rfd = fs_->Open(cred, "/g2/f", vfs::kRead, 0);
  std::string buf(data.size(), 0);
  ASSERT_TRUE(fs_->Read(*rfd, buf.data(), buf.size()).ok());
  EXPECT_EQ(buf, data);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(ZofsSplitTest, RenameCofferRootedDirectoryUpdatesDescendantPaths) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/team", 0700).ok());          // own coffer
  ASSERT_TRUE(fs_->Mkdir(cred, "/team/inner", 0644).ok());    // nested own coffer
  ASSERT_TRUE(fs_->Open(cred, "/team/inner/f", vfs::kCreate | vfs::kWrite, 0644).ok());

  ASSERT_TRUE(fs_->Rename(cred, "/team", "/squad").ok());
  EXPECT_TRUE(fs_->Stat(cred, "/squad/inner/f").ok());
  EXPECT_EQ(fs_->Stat(cred, "/team").error(), Err::kNoEnt);
  // Kernel path map moved with them (G3 validation depends on this).
  EXPECT_TRUE(kfs_->CofferFind("/squad").ok());
  EXPECT_TRUE(kfs_->CofferFind("/squad/inner").ok());
  EXPECT_FALSE(kfs_->CofferFind("/team").ok());
  // And the cross-coffer reference still validates (a lookup succeeds).
  auto fd = fs_->Open(cred, "/squad/inner/f", vfs::kRead, 0);
  EXPECT_TRUE(fd.ok());
}

TEST_F(ZofsSplitTest, SplitFileRemainsWritableAndGrowable) {
  auto fd = fs_->Open(cred, "/w", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(5000, '1');
  ASSERT_TRUE(fs_->Write(*fd, data.data(), data.size()).ok());
  ASSERT_TRUE(fs_->Chmod(cred, "/w", 0600).ok());  // split

  // The healed FD keeps working; growth allocates from the NEW coffer.
  std::string more(50000, '2');
  ASSERT_TRUE(fs_->Pwrite(*fd, more.data(), more.size(), data.size()).ok());
  auto st = fs_->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, data.size() + more.size());

  auto cid = kfs_->CofferFind("/w");
  ASSERT_TRUE(cid.ok());
  EXPECT_GT(kfs_->RootPageOf(*cid)->num_pages, 13u);  // grew beyond the split set
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(ZofsSplitTest, ChownToNewOwnerSplits) {
  // Run as root so chown is permitted.
  fs_ = stack_.AddProcess(vfs::Cred{0, 0});
  vfs::Cred root{0, 0};
  auto fd = fs_->Open(root, "/owned", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "data", 4).ok());
  size_t before = CofferCount();
  ASSERT_TRUE(fs_->Chown(root, "/owned", 1000, 1000).ok());
  // /owned was in the root coffer (uid 1000's group? no: fixture root coffer
  // is uid 1000 but the file was created by root with uid 0 => it was already
  // its own coffer). Either way ownership must now read back as 1000.
  auto st = fs_->Stat(root, "/owned");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->uid, 1000u);
  EXPECT_EQ(st->gid, 1000u);
  EXPECT_GE(CofferCount(), before);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

}  // namespace
