// End-to-end tests of ZoFS through the FSLibs surface.

#include <gtest/gtest.h>

#include <string>

#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;
using vfs::Cred;

class ZofsTest : public ::testing::Test {
 protected:
  Cred cred{1000, 1000};
  testbed::Stack stack_{{.size_bytes = 64ull << 20, .media = {}},
                        {.root_mode = 0777, .root_uid = 1000, .root_gid = 1000}};
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = stack_.AddProcess(cred);
};

TEST_F(ZofsTest, CreateWriteReadRoundtrip) {
  auto fd = fs_->Open(cred, "/hello.txt", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok()) << common::ErrName(fd.error());
  std::string msg = "hello, coffer world";
  auto w = fs_->Write(*fd, msg.data(), msg.size());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, msg.size());

  char buf[64] = {};
  auto r = fs_->Pread(*fd, buf, sizeof(buf), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, msg.size());
  EXPECT_EQ(std::string(buf, *r), msg);
  EXPECT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ZofsTest, OpenMissingFileFails) {
  auto fd = fs_->Open(cred, "/nope", vfs::kRead, 0);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error(), Err::kNoEnt);
}

TEST_F(ZofsTest, ExclusiveCreateFailsOnExisting) {
  ASSERT_TRUE(fs_->Open(cred, "/f", vfs::kCreate | vfs::kWrite, 0644).ok());
  auto fd = fs_->Open(cred, "/f", vfs::kCreate | vfs::kExcl | vfs::kWrite, 0644);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error(), Err::kExist);
}

TEST_F(ZofsTest, MkdirAndNestedCreate) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/a", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/a/b", 0755).ok());
  auto fd = fs_->Open(cred, "/a/b/c.txt", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  auto st = fs_->Stat(cred, "/a/b/c.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->type, vfs::FileType::kRegular);
  auto std_ = fs_->Stat(cred, "/a/b");
  ASSERT_TRUE(std_.ok());
  EXPECT_EQ(std_->type, vfs::FileType::kDirectory);
}

TEST_F(ZofsTest, MkdirExistingFails) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  EXPECT_EQ(fs_->Mkdir(cred, "/d", 0755).error(), Err::kExist);
}

TEST_F(ZofsTest, ReadDirListsEntries) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/dir", 0755).ok());
  for (int i = 0; i < 100; i++) {
    std::string p = "/dir/f" + std::to_string(i);
    ASSERT_TRUE(fs_->Open(cred, p, vfs::kCreate | vfs::kWrite, 0644).ok());
  }
  auto entries = fs_->ReadDir(cred, "/dir");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 100u);
}

TEST_F(ZofsTest, UnlinkRemovesFile) {
  ASSERT_TRUE(fs_->Open(cred, "/gone", vfs::kCreate | vfs::kWrite, 0644).ok());
  ASSERT_TRUE(fs_->Unlink(cred, "/gone").ok());
  EXPECT_EQ(fs_->Stat(cred, "/gone").error(), Err::kNoEnt);
}

TEST_F(ZofsTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  EXPECT_EQ(fs_->Unlink(cred, "/d").error(), Err::kIsDir);
}

TEST_F(ZofsTest, RmdirRequiresEmpty) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  ASSERT_TRUE(fs_->Open(cred, "/d/f", vfs::kCreate | vfs::kWrite, 0644).ok());
  EXPECT_EQ(fs_->Rmdir(cred, "/d").error(), Err::kNotEmpty);
  ASSERT_TRUE(fs_->Unlink(cred, "/d/f").ok());
  EXPECT_TRUE(fs_->Rmdir(cred, "/d").ok());
  EXPECT_EQ(fs_->Stat(cred, "/d").error(), Err::kNoEnt);
}

TEST_F(ZofsTest, LargeFileSpansIndirectBlocks) {
  auto fd = fs_->Open(cred, "/big", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  // 3 MB crosses the direct (48 KB) and indirect (2 MB) boundaries.
  const size_t total = 3ull << 20;
  std::string chunk(8192, 'x');
  for (size_t off = 0; off < total; off += chunk.size()) {
    for (size_t i = 0; i < chunk.size(); i++) {
      chunk[i] = static_cast<char>('a' + ((off + i) % 26));
    }
    auto w = fs_->Pwrite(*fd, chunk.data(), chunk.size(), off);
    ASSERT_TRUE(w.ok()) << common::ErrName(w.error());
  }
  auto st = fs_->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, total);
  // Spot-check several offsets, including boundary crossings.
  const uint64_t offsets[] = {0, 48ull * 1024 - 1, 48ull * 1024, (2ull << 20) + 48 * 1024,
                              total - 1};
  for (uint64_t off : offsets) {
    char c;
    auto r = fs_->Pread(*fd, &c, 1, off);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, 1u);
    EXPECT_EQ(c, static_cast<char>('a' + (off % 26))) << "off=" << off;
  }
}

TEST_F(ZofsTest, SparseHolesReadZero) {
  auto fd = fs_->Open(cred, "/sparse", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  char x = 'x';
  ASSERT_TRUE(fs_->Pwrite(*fd, &x, 1, 100 * 4096).ok());
  char buf[16];
  auto r = fs_->Pread(*fd, buf, sizeof(buf), 50 * 4096);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(*r, sizeof(buf));
  for (char c : buf) {
    EXPECT_EQ(c, 0);
  }
}

TEST_F(ZofsTest, TruncateShrinkAndRegrow) {
  auto fd = fs_->Open(cred, "/t", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(10000, 'q');
  ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), 0).ok());
  ASSERT_TRUE(fs_->Ftruncate(*fd, 5000).ok());
  auto st = fs_->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 5000u);
  // Regrow: bytes past 5000 must read as zero.
  ASSERT_TRUE(fs_->Ftruncate(*fd, 10000).ok());
  char buf[16];
  auto r = fs_->Pread(*fd, buf, sizeof(buf), 6000);
  ASSERT_TRUE(r.ok());
  for (char c : buf) {
    EXPECT_EQ(c, 0);
  }
}

TEST_F(ZofsTest, AppendModeWritesAtEnd) {
  auto fd = fs_->Open(cred, "/log", vfs::kCreate | vfs::kWrite | vfs::kAppend, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "aaa", 3).ok());
  ASSERT_TRUE(fs_->Write(*fd, "bbb", 3).ok());
  char buf[8] = {};
  auto r = fs_->Pread(*fd, buf, sizeof(buf), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(buf, *r), "aaabbb");
}

TEST_F(ZofsTest, LseekSetCurEnd) {
  auto fd = fs_->Open(cred, "/s", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "0123456789", 10).ok());
  EXPECT_EQ(*fs_->Lseek(*fd, 2, 0), 2u);
  EXPECT_EQ(*fs_->Lseek(*fd, 3, 1), 5u);
  EXPECT_EQ(*fs_->Lseek(*fd, -1, 2), 9u);
  char c;
  ASSERT_TRUE(fs_->Read(*fd, &c, 1).ok());
  EXPECT_EQ(c, '9');
}

TEST_F(ZofsTest, DupSharesOffsetAndUsesLowestFd) {
  auto fd = fs_->Open(cred, "/dup", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "abcdef", 6).ok());
  ASSERT_TRUE(fs_->Lseek(*fd, 0, 0).ok());
  auto fd2 = fs_->Dup(*fd);
  ASSERT_TRUE(fd2.ok());
  char c;
  ASSERT_TRUE(fs_->Read(*fd, &c, 1).ok());
  EXPECT_EQ(c, 'a');
  ASSERT_TRUE(fs_->Read(*fd2, &c, 1).ok());
  EXPECT_EQ(c, 'b');  // shared offset

  // Lowest-FD rule: close fd, dup again, get fd's number back.
  vfs::Fd closed = *fd;
  ASSERT_TRUE(fs_->Close(*fd).ok());
  auto fd3 = fs_->Dup(*fd2);
  ASSERT_TRUE(fd3.ok());
  EXPECT_EQ(*fd3, closed);
}

TEST_F(ZofsTest, RenameSameDirectory) {
  ASSERT_TRUE(fs_->Open(cred, "/old", vfs::kCreate | vfs::kWrite, 0644).ok());
  ASSERT_TRUE(fs_->Rename(cred, "/old", "/new").ok());
  EXPECT_EQ(fs_->Stat(cred, "/old").error(), Err::kNoEnt);
  EXPECT_TRUE(fs_->Stat(cred, "/new").ok());
}

TEST_F(ZofsTest, RenameAcrossDirectoriesSameCoffer) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/a", 0777).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/b", 0777).ok());
  auto fd = fs_->Open(cred, "/a/f", vfs::kCreate | vfs::kWrite, 0777);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "data", 4).ok());
  ASSERT_TRUE(fs_->Rename(cred, "/a/f", "/b/g").ok());
  auto st = fs_->Stat(cred, "/b/g");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4u);
}

TEST_F(ZofsTest, RenameOverwritesExistingFile) {
  auto f1 = fs_->Open(cred, "/src", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(fs_->Write(*f1, "SRC", 3).ok());
  auto f2 = fs_->Open(cred, "/dst", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(fs_->Write(*f2, "DSTDST", 6).ok());
  ASSERT_TRUE(fs_->Rename(cred, "/src", "/dst").ok());
  auto st = fs_->Stat(cred, "/dst");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 3u);
  EXPECT_EQ(fs_->Stat(cred, "/src").error(), Err::kNoEnt);
}

TEST_F(ZofsTest, SymlinkResolvesOnOpen) {
  auto fd = fs_->Open(cred, "/target", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "via-link", 8).ok());
  ASSERT_TRUE(fs_->Symlink(cred, "/target", "/link").ok());

  auto rl = fs_->ReadLink(cred, "/link");
  ASSERT_TRUE(rl.ok());
  EXPECT_EQ(*rl, "/target");

  auto lfd = fs_->Open(cred, "/link", vfs::kRead, 0);
  ASSERT_TRUE(lfd.ok());
  char buf[16] = {};
  auto r = fs_->Read(*lfd, buf, sizeof(buf));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(buf, *r), "via-link");
}

TEST_F(ZofsTest, RelativeSymlinkInDirectory) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  auto fd = fs_->Open(cred, "/d/real", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Symlink(cred, "real", "/d/alias").ok());
  EXPECT_TRUE(fs_->Stat(cred, "/d/alias").ok());
}

TEST_F(ZofsTest, SymlinkLoopReturnsELOOP) {
  ASSERT_TRUE(fs_->Symlink(cred, "/l2", "/l1").ok());
  ASSERT_TRUE(fs_->Symlink(cred, "/l1", "/l2").ok());
  auto st = fs_->Stat(cred, "/l1");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error(), Err::kLoop);
}

TEST_F(ZofsTest, DifferentPermissionCreatesNewCoffer) {
  // Root coffer perm is 0777/1000/1000-effective; creating a 0600 file must
  // place it in its own coffer, referenced cross-coffer from the parent dir.
  size_t coffers_before = kfs_->AllCofferIds().size();
  auto fd = fs_->Open(cred, "/secret", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(kfs_->AllCofferIds().size(), coffers_before + 1);
  ASSERT_TRUE(fs_->Write(*fd, "top", 3).ok());
  auto st = fs_->Stat(cred, "/secret");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0600);
  EXPECT_EQ(st->size, 3u);
}

TEST_F(ZofsTest, SamePermissionSharesCoffer) {
  size_t coffers_before = kfs_->AllCofferIds().size();
  // Root coffer was created 0777 by the fixture; 0777-effective == 0666.
  ASSERT_TRUE(fs_->Open(cred, "/same1", vfs::kCreate | vfs::kWrite, 0777).ok());
  ASSERT_TRUE(fs_->Open(cred, "/same2", vfs::kCreate | vfs::kWrite, 0666).ok());
  EXPECT_EQ(kfs_->AllCofferIds().size(), coffers_before);  // no new coffers
}

TEST_F(ZofsTest, PermissionDeniedForOtherUser) {
  auto fd = fs_->Open(cred, "/private", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "secret", 6).ok());

  // A second process with a different uid cannot map the 0600 coffer.
  fslib::FsLib* other = stack_.AddProcess(Cred{2000, 2000});
  auto ofd = other->Open(Cred{2000, 2000}, "/private", vfs::kRead, 0);
  ASSERT_FALSE(ofd.ok());
  EXPECT_EQ(ofd.error(), Err::kAcces);
  fs_->BindThread();
}

TEST_F(ZofsTest, ChmodSameGroupStaysUserSpace) {
  ASSERT_TRUE(fs_->Open(cred, "/x", vfs::kCreate | vfs::kWrite, 0644).ok());
  size_t coffers_before = kfs_->AllCofferIds().size();
  ASSERT_TRUE(fs_->Chmod(cred, "/x", 0744).ok());  // only exec bit changes
  EXPECT_EQ(kfs_->AllCofferIds().size(), coffers_before);
  auto st = fs_->Stat(cred, "/x");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0744);
}

TEST_F(ZofsTest, ChmodDifferentGroupSplitsCoffer) {
  auto fd = fs_->Open(cred, "/y", vfs::kCreate | vfs::kWrite, 0666);
  ASSERT_TRUE(fd.ok());
  std::string data(20000, 'z');
  ASSERT_TRUE(fs_->Write(*fd, data.data(), data.size()).ok());
  size_t coffers_before = kfs_->AllCofferIds().size();
  ASSERT_TRUE(fs_->Chmod(cred, "/y", 0600).ok());
  EXPECT_EQ(kfs_->AllCofferIds().size(), coffers_before + 1);
  // Data still intact after the split.
  auto st = fs_->Stat(cred, "/y");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0600);
  char buf[16];
  auto r = fs_->Pread(*fd, buf, sizeof(buf), 10000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(buf[0], 'z');
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(ZofsTest, UnlinkCrossCofferFileDeletesCoffer) {
  ASSERT_TRUE(fs_->Open(cred, "/own", vfs::kCreate | vfs::kWrite, 0600).ok());
  size_t with_coffer = kfs_->AllCofferIds().size();
  ASSERT_TRUE(fs_->Unlink(cred, "/own").ok());
  EXPECT_EQ(kfs_->AllCofferIds().size(), with_coffer - 1);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(ZofsTest, ManyFilesInOneDirectory) {
  // Stress the two-level hash: enough entries to overflow embedded slots and
  // chain dentry-run pages.
  ASSERT_TRUE(fs_->Mkdir(cred, "/wide", 0755).ok());
  const int kN = 3000;
  for (int i = 0; i < kN; i++) {
    std::string p = "/wide/file_" + std::to_string(i);
    auto fd = fs_->Open(cred, p, vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok()) << p;
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  auto entries = fs_->ReadDir(cred, "/wide");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kN));
  // Every file individually resolvable.
  for (int i = 0; i < kN; i += 97) {
    EXPECT_TRUE(fs_->Stat(cred, "/wide/file_" + std::to_string(i)).ok());
  }
  // Delete half, verify the rest.
  for (int i = 0; i < kN; i += 2) {
    ASSERT_TRUE(fs_->Unlink(cred, "/wide/file_" + std::to_string(i)).ok());
  }
  entries = fs_->ReadDir(cred, "/wide");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kN / 2));
}

TEST_F(ZofsTest, StatReportsMetadata) {
  auto fd = fs_->Open(cred, "/meta", vfs::kCreate | vfs::kWrite, 0640);
  ASSERT_TRUE(fd.ok());
  auto st = fs_->Stat(cred, "/meta");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->uid, 1000u);
  EXPECT_EQ(st->gid, 1000u);
  EXPECT_EQ(st->mode, 0640);
  EXPECT_GT(st->mtime_ns, 0u);
}

TEST_F(ZofsTest, WriteToClosedFdFails) {
  auto fd = fs_->Open(cred, "/c", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  char b = 'b';
  EXPECT_EQ(fs_->Write(*fd, &b, 1).error(), Err::kBadF);
  EXPECT_EQ(fs_->Close(*fd).error(), Err::kBadF);
}

TEST_F(ZofsTest, DeepPathResolution) {
  std::string path;
  for (int i = 0; i < 20; i++) {
    path += "/d" + std::to_string(i);
    ASSERT_TRUE(fs_->Mkdir(cred, path, 0755).ok()) << path;
  }
  auto fd = fs_->Open(cred, path + "/leaf", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(fs_->Stat(cred, path + "/leaf").ok());
}

}  // namespace
