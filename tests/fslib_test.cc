// Tests for the FSLibs layer itself: the user-space FD mapping table
// (lowest-available-FD semantics, dup sharing, exhaustion), error paths of
// the dispatch surface, and the µFS dispatcher.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;

class FsLibTest : public ::testing::Test {
 protected:
  vfs::Cred cred{0, 0};
  testbed::Stack stack_{{.size_bytes = 128ull << 20, .media = {}}, {.root_mode = 0755}};
  nvm::NvmDevice* dev_ = stack_.dev();
  fslib::FsLib* fs_ = stack_.AddProcess(cred);
};

TEST_F(FsLibTest, FdsAreAssignedLowestFirst) {
  auto a = fs_->Open(cred, "/a", vfs::kCreate | vfs::kWrite, 0644);
  auto b = fs_->Open(cred, "/b", vfs::kCreate | vfs::kWrite, 0644);
  auto c = fs_->Open(cred, "/c", vfs::kCreate | vfs::kWrite, 0644);
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 1);
  EXPECT_EQ(*c, 2);
  // Close the middle one: the next open takes its slot (paper §4.2's dup
  // requirement generalised).
  ASSERT_TRUE(fs_->Close(*b).ok());
  auto d = fs_->Open(cred, "/d", vfs::kCreate | vfs::kWrite, 0644);
  EXPECT_EQ(*d, 1);
}

TEST_F(FsLibTest, DupTakesLowestHole) {
  auto a = fs_->Open(cred, "/a", vfs::kCreate | vfs::kRdWr, 0644);
  auto b = fs_->Open(cred, "/b", vfs::kCreate | vfs::kWrite, 0644);
  auto c = fs_->Open(cred, "/c", vfs::kCreate | vfs::kWrite, 0644);
  (void)c;
  ASSERT_TRUE(fs_->Close(*b).ok());
  auto dup = fs_->Dup(*a);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(*dup, *b);  // reuses the freed slot, not end-of-table
}

TEST_F(FsLibTest, DupSharesDescriptionAcrossCloses) {
  auto a = fs_->Open(cred, "/a", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fs_->Write(*a, "abcd", 4).ok());
  auto dup = fs_->Dup(*a);
  // Closing the original leaves the dup usable, sharing the offset.
  ASSERT_TRUE(fs_->Close(*a).ok());
  auto st = fs_->Fstat(*dup);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4u);
  ASSERT_TRUE(fs_->Write(*dup, "ef", 2).ok());  // continues at offset 4
  auto st2 = fs_->Fstat(*dup);
  EXPECT_EQ(st2->size, 6u);
}

TEST_F(FsLibTest, OperationsOnBadFdsFail) {
  char buf[4];
  EXPECT_EQ(fs_->Read(42, buf, 4).error(), Err::kBadF);
  EXPECT_EQ(fs_->Write(-1, buf, 4).error(), Err::kBadF);
  EXPECT_EQ(fs_->Fstat(7).error(), Err::kBadF);
  EXPECT_EQ(fs_->Lseek(0, 0, 0).error(), Err::kBadF);
  EXPECT_EQ(fs_->Dup(3).error(), Err::kBadF);
  EXPECT_EQ(fs_->Ftruncate(9, 0).error(), Err::kBadF);
}

TEST_F(FsLibTest, NameTooLongRejected) {
  std::string long_name(200, 'x');
  auto fd = fs_->Open(cred, "/" + long_name, vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error(), Err::kNameTooLong);
}

TEST_F(FsLibTest, InvalidWhenceRejected) {
  auto fd = fs_->Open(cred, "/f", vfs::kCreate | vfs::kWrite, 0644);
  EXPECT_EQ(fs_->Lseek(*fd, 0, 9).error(), Err::kInval);
}

TEST_F(FsLibTest, WriteOnDirectoryFdPathRejected) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  auto fd = fs_->Open(cred, "/d", vfs::kRead, 0);
  ASSERT_TRUE(fd.ok());  // directories may be opened read-only
  char b = 'x';
  EXPECT_FALSE(fs_->Write(*fd, &b, 1).ok());
}

TEST_F(FsLibTest, PerProcessFdTablesAreIndependent) {
  fslib::FsLib* other = stack_.AddProcess(vfs::Cred{0, 0});
  auto a = fs_->Open(cred, "/a", vfs::kCreate | vfs::kWrite, 0644);
  auto b = other->Open(cred, "/b", vfs::kCreate | vfs::kWrite, 0644);
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 0);  // same number, different process
  // The other process's fd 0 is /b, not /a.
  auto st = other->Fstat(*b);
  ASSERT_TRUE(st.ok());
  fs_->BindThread();
  char buf[4];
  EXPECT_TRUE(fs_->Read(*a, buf, 0).ok());
}

TEST_F(FsLibTest, ManyFdsAndInterleavedCloses) {
  std::vector<vfs::Fd> fds;
  for (int i = 0; i < 200; i++) {
    auto fd = fs_->Open(cred, "/m" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    EXPECT_EQ(*fd, i);
    fds.push_back(*fd);
  }
  // Close evens, reopen: slots refill from the bottom.
  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE(fs_->Close(fds[i]).ok());
  }
  for (int i = 0; i < 100; i++) {
    auto fd = fs_->Open(cred, "/m" + std::to_string(i), vfs::kWrite, 0);
    ASSERT_TRUE(fd.ok());
    EXPECT_EQ(*fd, i * 2);
  }
}

TEST_F(FsLibTest, DupSharedOffsetIsRaceFreeAcrossThreads) {
  // POSIX: dup'd descriptors share one file offset, and each write must
  // advance it atomically — two threads appending through the two fds may
  // interleave chunks in any order but must never overwrite each other.
  auto fd = fs_->Open(cred, "/shared", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  auto dup = fs_->Dup(*fd);
  ASSERT_TRUE(dup.ok());

  constexpr size_t kChunk = 64;
  constexpr int kChunks = 256;
  auto writer = [&](vfs::Fd f, char fill) {
    fs_->BindThread();
    std::vector<char> buf(kChunk, fill);
    for (int i = 0; i < kChunks; i++) {
      auto n = fs_->Write(f, buf.data(), buf.size());
      if (!n.ok() || *n != kChunk) {
        ADD_FAILURE() << "write " << i << " through fd " << f << " failed";
        return;
      }
    }
  };
  std::thread ta(writer, *fd, 'A');
  std::thread tb(writer, *dup, 'B');
  ta.join();
  tb.join();

  // A racy offset read-modify-write makes chunks land on top of each other:
  // the file comes up short and/or some byte is written twice.
  auto st = fs_->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(st->size, 2ull * kChunks * kChunk);
  std::vector<char> all(st->size);
  auto n = fs_->Pread(*fd, all.data(), all.size(), 0);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, all.size());
  int a_chunks = 0;
  for (size_t c = 0; c < all.size() / kChunk; c++) {
    const char first = all[c * kChunk];
    EXPECT_TRUE(first == 'A' || first == 'B') << "chunk " << c;
    for (size_t i = 1; i < kChunk; i++) {
      ASSERT_EQ(all[c * kChunk + i], first) << "torn chunk " << c << " at byte " << i;
    }
    if (first == 'A') {
      a_chunks++;
    }
  }
  EXPECT_EQ(a_chunks, kChunks);
}

TEST_F(FsLibTest, GracefulErrorLeavesFdTableUsable) {
  auto fd = fs_->Open(cred, "/v", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fs_->Write(*fd, "ok", 2).ok());
  // Corrupt the inode so the next op faults...
  fs_->BindThread();
  auto node = fs_->zofs().Lookup("/v", true);
  auto info = fs_->zofs().EnsureMappedForTest(node->coffer_id, true);
  {
    mpk::AccessWindow w(info->key, true);
    dev_->Store64(node->inode_off, 0);
  }
  char buf[4];
  EXPECT_FALSE(fs_->Read(*fd, buf, 2).ok());
  // ... and the process keeps full use of its FD table afterwards.
  auto fd2 = fs_->Open(cred, "/w", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd2.ok());
  EXPECT_TRUE(fs_->Write(*fd2, "fine", 4).ok());
  EXPECT_TRUE(fs_->Close(*fd).ok());  // closing the poisoned fd works too
}

}  // namespace
