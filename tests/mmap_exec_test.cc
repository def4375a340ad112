// Tests for Table 5's file operations: file_mmap (direct application access
// to file pages, kernel-retagged to the default protection key) and
// file_execve (kernel-validated image load).

#include <gtest/gtest.h>

#include <cstring>

#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;

class MmapExecTest : public ::testing::Test {
 protected:
  zofs::NodeRef MakeFile(const std::string& path, const std::string& content, uint16_t mode) {
    auto fd = fs_->Open(cred, path, vfs::kCreate | vfs::kWrite, mode);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(fs_->Pwrite(*fd, content.data(), content.size(), 0).ok());
    EXPECT_TRUE(fs_->Close(*fd).ok());
    auto node = fs_->zofs().Lookup(path, true);
    EXPECT_TRUE(node.ok());
    return *node;
  }

  vfs::Cred cred{1000, 1000};
  testbed::Stack stack_{{.size_bytes = 128ull << 20, .media = {}},
                        {.root_mode = 0755, .root_uid = 1000, .root_gid = 1000}};
  nvm::NvmDevice* dev_ = stack_.dev();
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = stack_.AddProcess(cred);
};

TEST_F(MmapExecTest, MmapGivesDirectApplicationAccess) {
  std::string content(3 * 4096, 'm');
  auto node = MakeFile("/mapped", content, 0644);
  fs_->BindThread();

  auto pages = fs_->zofs().MmapNode(node, /*writable=*/false);
  ASSERT_TRUE(pages.ok()) << common::ErrName(pages.error());
  ASSERT_EQ(pages->size(), 3u);

  // Application code (no µFS window open!) can now read the pages directly.
  for (uint64_t pg : *pages) {
    ASSERT_NE(pg, 0u);
    mpk::CheckAccess(pg * nvm::kPageSize, 4096, /*is_write=*/false);  // must not throw
    EXPECT_EQ(dev_->base()[pg * nvm::kPageSize], 'm');
  }
  // ... but a read-only mapping still blocks stray application writes.
  EXPECT_THROW(dev_->Store64((*pages)[0] * nvm::kPageSize, 1), mpk::ViolationError);

  // After munmap the pages fall back under the coffer key: application
  // access faults again.
  ASSERT_TRUE(fs_->zofs().MunmapNode(node, *pages).ok());
  EXPECT_THROW(mpk::CheckAccess((*pages)[0] * nvm::kPageSize, 8, false), mpk::ViolationError);
}

TEST_F(MmapExecTest, WritableMmapAllowsStores) {
  std::string content(4096, 'w');
  auto node = MakeFile("/rw", content, 0644);
  fs_->BindThread();
  auto pages = fs_->zofs().MmapNode(node, /*writable=*/true);
  ASSERT_TRUE(pages.ok());
  dev_->Store64((*pages)[0] * nvm::kPageSize, 0x4141414141414141ULL);  // no throw
  ASSERT_TRUE(fs_->zofs().MunmapNode(node, *pages).ok());
  // The store went to the real file data: read it back through the FS.
  auto fd = fs_->Open(cred, "/rw", vfs::kRead, 0);
  char buf[8];
  ASSERT_TRUE(fs_->Pread(*fd, buf, 8, 0).ok());
  EXPECT_EQ(memcmp(buf, "AAAAAAAA", 8), 0);
}

TEST_F(MmapExecTest, MmapOfInlineFileRejected) {
  // Inline files live inside the inode page; they cannot be handed out.
  zofs::Options z;
  z.inline_data = true;
  fslib::FsLib* fs2 = stack_.AddProcess(cred, z);
  auto fd = fs2->Open(cred, "/tiny", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fs2->Write(*fd, "small", 5).ok());
  fs2->BindThread();
  auto node = fs2->zofs().Lookup("/tiny", true);
  auto pages = fs2->zofs().MmapNode(*node, false);
  ASSERT_FALSE(pages.ok());
  EXPECT_EQ(pages.error(), Err::kInval);
  fs_->BindThread();
}

TEST_F(MmapExecTest, ExecveChecksExecPermission) {
  std::string image(2 * 4096, 'x');
  auto plain = MakeFile("/data.bin", image, 0644);   // no exec bit
  auto exec = MakeFile("/tool", image, 0755);        // owner-exec
  fs_->BindThread();

  auto denied = fs_->zofs().ExecveNode(plain);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error(), Err::kAcces);

  auto digest = fs_->zofs().ExecveNode(exec);
  ASSERT_TRUE(digest.ok()) << common::ErrName(digest.error());
  EXPECT_NE(*digest, 0u);
}

TEST_F(MmapExecTest, ExecveDigestTracksContent) {
  auto a = MakeFile("/a.bin", std::string(4096, 'a'), 0700);
  auto b = MakeFile("/b.bin", std::string(4096, 'b'), 0700);
  auto a2 = MakeFile("/a2.bin", std::string(4096, 'a'), 0700);
  fs_->BindThread();
  auto da = fs_->zofs().ExecveNode(a);
  auto db = fs_->zofs().ExecveNode(b);
  auto da2 = fs_->zofs().ExecveNode(a2);
  ASSERT_TRUE(da.ok() && db.ok() && da2.ok());
  EXPECT_NE(*da, *db);    // different images, different digests
  EXPECT_EQ(*da, *da2);   // identical images, identical digests
}

TEST_F(MmapExecTest, MmapValidatesOwnership) {
  // A page list pointing at foreign pages must be rejected by the kernel.
  auto node = MakeFile("/own", std::string(4096, 'o'), 0644);
  fs_->BindThread();
  std::vector<uint64_t> evil = {kfs_->root_coffer_id()};  // someone's root page
  auto st = kfs_->FileMmap(*fs_->proc(), node.coffer_id, evil, false);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error(), Err::kInval);

  // FileMunmap refuses the file's own coffer root page the same way, and the
  // root page stays read-only to the caller's writable mapping.
  const std::vector<uint64_t> root = {node.coffer_id};
  auto un = kfs_->FileMunmap(*fs_->proc(), node.coffer_id, root);
  ASSERT_FALSE(un.ok());
  EXPECT_EQ(un.error(), Err::kInval);
  const uint8_t key = fs_->proc()->KeyFor(node.coffer_id);
  ASSERT_NE(key, mpk::kUnmapped);
  mpk::AccessWindow w(key, /*writable=*/true);
  EXPECT_FALSE(mpk::ProbeAccess(node.coffer_id * nvm::kPageSize, 8, /*is_write=*/true));
}

}  // namespace
