// POSIX-semantics conformance suite, run against every file system in the
// repository (ZoFS and the four baselines) through the common VFS interface.
// The paper's comparisons are only meaningful if all five implement the same
// contract; this suite pins that contract down.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/harness/fslab.h"
#include "src/harness/runner.h"
#include "src/mpk/mpk.h"
#include "src/zofs/zofs.h"

namespace {

using harness::FsKind;
using harness::FsLab;

const vfs::Cred kCred{0, 0};

class FsConformanceTest : public ::testing::TestWithParam<FsKind> {
 protected:
  void SetUp() override {
    harness::LabOptions lo;
    lo.dev_bytes = 256ull << 20;
    lo.kernel_crossing_ns = 0;
    lab_ = std::make_unique<FsLab>(GetParam(), lo);
    fs_ = lab_->View(0);
  }
  void TearDown() override {
    lab_.reset();
    mpk::BindThreadToProcess(nullptr);
  }

  std::unique_ptr<FsLab> lab_;
  vfs::FileSystem* fs_ = nullptr;
};

TEST_P(FsConformanceTest, CreateWriteReadback) {
  auto fd = fs_->Open(kCred, "/f", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok()) << common::ErrName(fd.error());
  std::string data = "conformance";
  ASSERT_TRUE(fs_->Write(*fd, data.data(), data.size()).ok());
  char buf[32] = {};
  auto r = fs_->Pread(*fd, buf, sizeof(buf), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(buf, *r), data);
}

TEST_P(FsConformanceTest, MissingFileIsNoEnt) {
  EXPECT_EQ(fs_->Open(kCred, "/missing", vfs::kRead, 0).error(), common::Err::kNoEnt);
  EXPECT_EQ(fs_->Stat(kCred, "/missing").error(), common::Err::kNoEnt);
  EXPECT_EQ(fs_->Unlink(kCred, "/missing").error(), common::Err::kNoEnt);
}

TEST_P(FsConformanceTest, ExclusiveCreate) {
  // O_EXCL never follows the last component: a symlink, live or dangling,
  // and a directory make the name exist as much as a file does.
  ASSERT_TRUE(fs_->Open(kCred, "/x", vfs::kCreate | vfs::kWrite, 0644).ok());
  ASSERT_TRUE(fs_->Symlink(kCred, "/x", "/live").ok());
  ASSERT_TRUE(fs_->Symlink(kCred, "/nowhere", "/dangling").ok());
  ASSERT_TRUE(fs_->Mkdir(kCred, "/dir", 0755).ok());
  for (const char* p : {"/x", "/live", "/dangling", "/dir", "/"}) {
    SCOPED_TRACE(p);
    EXPECT_EQ(fs_->Open(kCred, p, vfs::kCreate | vfs::kExcl | vfs::kWrite, 0644).error(),
              common::Err::kExist);
  }
  EXPECT_EQ(fs_->Stat(kCred, "/nowhere").error(), common::Err::kNoEnt);
}

TEST_P(FsConformanceTest, DirectoryOpenedForWritingIsEisdir) {
  ASSERT_TRUE(fs_->Mkdir(kCred, "/d", 0755).ok());
  EXPECT_EQ(fs_->Open(kCred, "/d", vfs::kWrite, 0).error(), common::Err::kIsDir);
  EXPECT_EQ(fs_->Open(kCred, "/d", vfs::kCreate | vfs::kWrite, 0644).error(),
            common::Err::kIsDir);
  EXPECT_EQ(fs_->Open(kCred, "/", vfs::kCreate | vfs::kRdWr, 0644).error(), common::Err::kIsDir);
  EXPECT_TRUE(fs_->Open(kCred, "/d", vfs::kRead, 0).ok());
}

TEST_P(FsConformanceTest, TruncateOnOpen) {
  auto fd = fs_->Open(kCred, "/t", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fs_->Write(*fd, "0123456789", 10).ok());
  fs_->Close(*fd);
  auto fd2 = fs_->Open(kCred, "/t", vfs::kWrite | vfs::kTrunc, 0644);
  ASSERT_TRUE(fd2.ok());
  auto st = fs_->Stat(kCred, "/t");
  EXPECT_EQ(st->size, 0u);
}

TEST_P(FsConformanceTest, TruncateRequiresWriteAccess) {
  // POSIX leaves O_TRUNC|O_RDONLY unspecified, but a read-only open must
  // never destroy data: every backend ignores the flag unless the open also
  // requested write access.
  auto fd = fs_->Open(kCred, "/t2", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "0123456789", 10).ok());
  fs_->Close(*fd);
  auto ro = fs_->Open(kCred, "/t2", vfs::kRead | vfs::kTrunc, 0);
  ASSERT_TRUE(ro.ok()) << common::ErrName(ro.error());
  auto st = fs_->Stat(kCred, "/t2");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 10u);
  char buf[16] = {};
  auto r = fs_->Pread(*ro, buf, sizeof(buf), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(buf, *r), "0123456789");
}

TEST_P(FsConformanceTest, AppendFlag) {
  auto fd = fs_->Open(kCred, "/log", vfs::kCreate | vfs::kWrite | vfs::kAppend, 0644);
  ASSERT_TRUE(fs_->Write(*fd, "aa", 2).ok());
  ASSERT_TRUE(fs_->Write(*fd, "bb", 2).ok());
  auto st = fs_->Fstat(*fd);
  EXPECT_EQ(st->size, 4u);
}

TEST_P(FsConformanceTest, LseekWhence) {
  auto fd = fs_->Open(kCred, "/s", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fs_->Write(*fd, "abcdefgh", 8).ok());
  EXPECT_EQ(*fs_->Lseek(*fd, 2, 0), 2u);
  EXPECT_EQ(*fs_->Lseek(*fd, 2, 1), 4u);
  EXPECT_EQ(*fs_->Lseek(*fd, -3, 2), 5u);
  EXPECT_FALSE(fs_->Lseek(*fd, -100, 1).ok());
  char c;
  ASSERT_TRUE(fs_->Read(*fd, &c, 1).ok());
  EXPECT_EQ(c, 'f');
}

TEST_P(FsConformanceTest, MkdirRmdirSemantics) {
  ASSERT_TRUE(fs_->Mkdir(kCred, "/d", 0755).ok());
  EXPECT_EQ(fs_->Mkdir(kCred, "/d", 0755).error(), common::Err::kExist);
  ASSERT_TRUE(fs_->Open(kCred, "/d/f", vfs::kCreate | vfs::kWrite, 0644).ok());
  EXPECT_EQ(fs_->Rmdir(kCred, "/d").error(), common::Err::kNotEmpty);
  ASSERT_TRUE(fs_->Unlink(kCred, "/d/f").ok());
  EXPECT_TRUE(fs_->Rmdir(kCred, "/d").ok());
}

TEST_P(FsConformanceTest, UnlinkDirectoryRejected) {
  ASSERT_TRUE(fs_->Mkdir(kCred, "/d", 0755).ok());
  EXPECT_EQ(fs_->Unlink(kCred, "/d").error(), common::Err::kIsDir);
}

TEST_P(FsConformanceTest, ReadDirContents) {
  ASSERT_TRUE(fs_->Mkdir(kCred, "/dir", 0755).ok());
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(
        fs_->Open(kCred, "/dir/f" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644).ok());
  }
  auto entries = fs_->ReadDir(kCred, "/dir");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 25u);
}

TEST_P(FsConformanceTest, RenameMovesFile) {
  ASSERT_TRUE(fs_->Mkdir(kCred, "/a", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(kCred, "/b", 0755).ok());
  auto fd = fs_->Open(kCred, "/a/f", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fs_->Write(*fd, "xyz", 3).ok());
  ASSERT_TRUE(fs_->Rename(kCred, "/a/f", "/b/g").ok());
  EXPECT_EQ(fs_->Stat(kCred, "/a/f").error(), common::Err::kNoEnt);
  auto st = fs_->Stat(kCred, "/b/g");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 3u);
}

TEST_P(FsConformanceTest, SymlinkAndReadlink) {
  auto fd = fs_->Open(kCred, "/target", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fs_->Write(*fd, "hi", 2).ok());
  ASSERT_TRUE(fs_->Symlink(kCred, "/target", "/link").ok());
  auto rl = fs_->ReadLink(kCred, "/link");
  ASSERT_TRUE(rl.ok());
  EXPECT_EQ(*rl, "/target");
  // Plain and O_CREAT opens both follow a live link to its target.
  for (uint32_t flags : {vfs::kRead, vfs::kCreate | vfs::kRdWr}) {
    auto through = fs_->Open(kCred, "/link", flags, 0644);
    ASSERT_TRUE(through.ok()) << common::ErrName(through.error());
    char buf[8];
    auto r = fs_->Read(*through, buf, sizeof(buf));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(std::string(buf, *r), "hi");
  }
}

TEST_P(FsConformanceTest, ChmodChangesMode) {
  ASSERT_TRUE(fs_->Open(kCred, "/m", vfs::kCreate | vfs::kWrite, 0644).ok());
  ASSERT_TRUE(fs_->Chmod(kCred, "/m", 0600).ok());
  auto st = fs_->Stat(kCred, "/m");
  EXPECT_EQ(st->mode, 0600);
}

TEST_P(FsConformanceTest, PermissionDeniedForStranger) {
  if (GetParam() == FsKind::kZofsOneCoffer || GetParam() == FsKind::kLogFs) {
    // The 1-coffer variant and the flat single-coffer LogFS keep every file
    // in one coffer, so per-file permission is not enforced by coffer
    // mapping (the Table 9 / §5 flat-hierarchy trade-off).
    GTEST_SKIP();
  }
  ASSERT_TRUE(fs_->Open(kCred, "/owned", vfs::kCreate | vfs::kWrite, 0600).ok());
  vfs::Cred stranger{4242, 4242};
  // For ZoFS each process has fixed credentials: use a second view.
  vfs::FileSystem* sfs = fs_;
  std::unique_ptr<FsLab> slab;
  if (GetParam() == FsKind::kZofs) {
    harness::LabOptions lo;
    lo.dev_bytes = 64ull << 20;
    // Reuse the same lab with a new process carrying stranger creds.
    auto* view = lab_->View(1);
    auto* fslib_view = dynamic_cast<fslib::FsLib*>(view);
    ASSERT_NE(fslib_view, nullptr);
    fslib_view->proc()->SetCred(stranger);
    sfs = view;
  }
  auto denied = sfs->Open(stranger, "/owned", vfs::kRead, 0);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error(), common::Err::kAcces);
}

TEST_P(FsConformanceTest, SparseFileReadsZeros) {
  auto fd = fs_->Open(kCred, "/sparse", vfs::kCreate | vfs::kRdWr, 0644);
  char x = 'x';
  ASSERT_TRUE(fs_->Pwrite(*fd, &x, 1, 3 * 4096).ok());
  char buf[8];
  auto r = fs_->Pread(*fd, buf, sizeof(buf), 4096);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(*r, sizeof(buf));
  for (char c : buf) {
    EXPECT_EQ(c, 0);
  }
}

TEST_P(FsConformanceTest, LargeRandomWritesReadBack) {
  // Property test: random pwrites tracked against an in-memory model.
  auto fd = fs_->Open(kCred, "/rand", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  const size_t kFile = 256 * 1024;
  std::vector<uint8_t> model(kFile, 0);
  common::Rng rng(GetParam() == FsKind::kZofs ? 11 : 13);
  for (int i = 0; i < 200; i++) {
    size_t off = rng.Below(kFile - 1);
    size_t len = 1 + rng.Below(std::min<size_t>(kFile - off, 9000) - 1 + 1);
    std::vector<uint8_t> chunk(len);
    rng.Fill(chunk.data(), len);
    ASSERT_TRUE(fs_->Pwrite(*fd, chunk.data(), len, off).ok());
    memcpy(model.data() + off, chunk.data(), len);
  }
  std::vector<uint8_t> readback(kFile, 0);
  auto r = fs_->Pread(*fd, readback.data(), kFile, 0);
  ASSERT_TRUE(r.ok());
  // File size = highest byte written; compare the prefix.
  EXPECT_EQ(memcmp(readback.data(), model.data(), *r), 0);
}

TEST_P(FsConformanceTest, ConcurrentPrivateFileWriters) {
  constexpr int kThreads = 4;
  for (int t = 0; t < kThreads; t++) {
    ASSERT_TRUE(
        fs_->Open(kCred, "/w" + std::to_string(t), vfs::kCreate | vfs::kWrite, 0644).ok());
  }
  auto result = harness::RunThreads(kThreads, [&](int t) -> uint64_t {
    auto fd = fs_->Open(kCred, "/w" + std::to_string(t), vfs::kWrite | vfs::kAppend, 0644);
    if (!fd.ok()) {
      return 0;
    }
    std::vector<uint8_t> buf(512, static_cast<uint8_t>(t));
    for (int i = 0; i < 200; i++) {
      if (!fs_->Write(*fd, buf.data(), buf.size()).ok()) {
        return i;
      }
    }
    fs_->Close(*fd);
    return 200;
  });
  EXPECT_EQ(result.total_ops, 200u * kThreads);
  for (int t = 0; t < kThreads; t++) {
    auto st = fs_->Stat(kCred, "/w" + std::to_string(t));
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 512u * 200);
  }
}

TEST_P(FsConformanceTest, ConcurrentSharedDirCreates) {
  ASSERT_TRUE(fs_->Mkdir(kCred, "/shared", 0755).ok());
  constexpr int kThreads = 4;
  auto result = harness::RunThreads(kThreads, [&](int t) -> uint64_t {
    uint64_t ok = 0;
    for (int i = 0; i < 100; i++) {
      std::string p = "/shared/t" + std::to_string(t) + "_" + std::to_string(i);
      auto fd = fs_->Open(kCred, p, vfs::kCreate | vfs::kWrite, 0644);
      if (fd.ok()) {
        fs_->Close(*fd);
        ok++;
      }
    }
    return ok;
  });
  EXPECT_EQ(result.total_ops, 400u);
  auto entries = fs_->ReadDir(kCred, "/shared");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 400u);
}

TEST_P(FsConformanceTest, DeleteFreesSpaceForReuse) {
  // Create/delete cycles must not leak space (allocation remains bounded).
  std::vector<uint8_t> data(64 * 1024, 0x7e);
  for (int round = 0; round < 30; round++) {
    auto fd = fs_->Open(kCred, "/cycle", vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok()) << "round " << round;
    ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), 0).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
    ASSERT_TRUE(fs_->Unlink(kCred, "/cycle").ok());
  }
}

TEST_P(FsConformanceTest, CorruptedFileYieldsEucleanConsistently) {
  // Baselines keep their metadata in DRAM structures the test cannot
  // corrupt through the device; only the ZoFS layout persists everything.
  if (GetParam() != FsKind::kZofs && GetParam() != FsKind::kZofsOneCoffer) {
    GTEST_SKIP() << "metadata corruption injection requires the ZoFS persistent layout";
  }
  auto* p = dynamic_cast<fslib::FsLib*>(fs_);
  ASSERT_NE(p, nullptr);
  auto fd = fs_->Open(kCred, "/victim", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Write(*fd, "data", 4).ok());
  ASSERT_TRUE(fs_->Open(kCred, "/bystander", vfs::kCreate | vfs::kWrite, 0644).ok());

  auto node = p->zofs().Lookup("/victim", true);
  ASSERT_TRUE(node.ok());
  auto info = p->zofs().EnsureMappedForTest(node->coffer_id, true);
  ASSERT_TRUE(info.ok());
  {
    mpk::AccessWindow w(info->key, true);
    lab_->dev()->Store64(node->inode_off, 0);  // destroy the inode magic
  }
  // Object-local damage surfaces as EUCLEAN on every entry path...
  char buf[8];
  auto rd = fs_->Pread(*fd, buf, sizeof(buf), 0);
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.error(), common::Err::kCorrupt);
  auto st = fs_->Stat(kCred, "/victim");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error(), common::Err::kCorrupt);
  auto op = fs_->Open(kCred, "/victim", vfs::kRead, 0);
  ASSERT_FALSE(op.ok());
  EXPECT_EQ(op.error(), common::Err::kCorrupt);
  // ...and stays object-local: the coffer keeps serving its other files.
  EXPECT_TRUE(fs_->Stat(kCred, "/bystander").ok());
  EXPECT_TRUE(fs_->Open(kCred, "/fresh", vfs::kCreate | vfs::kWrite, 0644).ok());
}

TEST_P(FsConformanceTest, QuarantinedCofferFailsFastWithEio) {
  // Structural damage (a wild block pointer) distrusts the coffer's whole
  // pointer graph: first walk reports EUCLEAN, retries inside the backoff
  // window fail fast with EIO, and sibling coffers stay live. Needs real
  // coffer splitting, so only the multi-coffer ZoFS configuration runs it.
  if (GetParam() != FsKind::kZofs) {
    GTEST_SKIP() << "quarantine isolation requires per-file coffers";
  }
  auto* p = dynamic_cast<fslib::FsLib*>(fs_);
  ASSERT_NE(p, nullptr);
  // Pin logical time (restored on scope exit) so the quarantine backoff
  // cannot elapse mid-test on a slow machine.
  common::ScopedClockPin pin(common::RealNowNs());

  auto sfd = fs_->Open(kCred, "/secret", vfs::kCreate | vfs::kRdWr, 0600);
  ASSERT_TRUE(sfd.ok());
  std::string data(2 * nvm::kPageSize, 'q');
  ASSERT_TRUE(fs_->Pwrite(*sfd, data.data(), data.size(), 0).ok());
  ASSERT_TRUE(fs_->Open(kCred, "/bystander2", vfs::kCreate | vfs::kWrite, 0644).ok());

  auto node = p->zofs().Lookup("/secret", true);
  ASSERT_TRUE(node.ok());
  ASSERT_NE(node->coffer_id, lab_->kernfs()->root_coffer_id());
  auto info = p->zofs().EnsureMappedForTest(node->coffer_id, true);
  ASSERT_TRUE(info.ok());
  {
    mpk::AccessWindow w(info->key, true);
    lab_->dev()->Store64(node->inode_off + offsetof(zofs::Inode, direct), 0x3);
  }
  char buf[8];
  auto rd = fs_->Pread(*sfd, buf, sizeof(buf), 0);
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.error(), common::Err::kCorrupt);
  EXPECT_EQ(p->zofs().Health(node->coffer_id), zofs::CofferHealth::kSick);
  // Fail-fast with one consistent code across every entry path.
  rd = fs_->Pread(*sfd, buf, sizeof(buf), 0);
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.error(), common::Err::kIo);
  auto st = fs_->Stat(kCred, "/secret");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error(), common::Err::kIo);
  auto op = fs_->Open(kCred, "/secret", vfs::kRead, 0);
  ASSERT_FALSE(op.ok());
  EXPECT_EQ(op.error(), common::Err::kIo);
  // Sibling coffers never notice.
  EXPECT_TRUE(fs_->Stat(kCred, "/bystander2").ok());
  EXPECT_TRUE(fs_->Open(kCred, "/fresh2", vfs::kCreate | vfs::kWrite, 0644).ok());
}

INSTANTIATE_TEST_SUITE_P(AllFileSystems, FsConformanceTest,
                         ::testing::Values(FsKind::kZofs, FsKind::kZofsOneCoffer,
                                           FsKind::kLogFs, FsKind::kExtDax, FsKind::kPmfs,
                                           FsKind::kNova, FsKind::kStrata),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           std::string name = FsKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
