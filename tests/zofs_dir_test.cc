// Targeted tests for the ZoFS two-level hash directory (§5.1, Figure 5):
// embedded-slot overflow into bucket chains, hash collisions, maximum-length
// names, slot reuse after deletion, and iteration completeness at scale.

#include <gtest/gtest.h>

#include <set>

#include "src/common/hash.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;

class ZofsDirTest : public ::testing::Test {
 protected:
  vfs::Cred cred{0, 0};
  testbed::Stack stack_{{.size_bytes = 512ull << 20, .media = {}}, {.root_mode = 0755}};
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* fs_ = stack_.AddProcess(cred);
};

// Crafts `n` names that all land in the same L1 slot and the same L2 bucket
// (32-bit FNV-1a congruence), forcing a dentry-run chain.
std::vector<std::string> CollidingNames(int n) {
  std::vector<std::string> out;
  const uint32_t h0 = common::Fnv1a32("seed0");
  const uint64_t kL1 = 512, kBuckets = 256;
  for (uint64_t i = 0; out.size() < static_cast<size_t>(n); i++) {
    std::string cand = "c" + std::to_string(i);
    uint32_t h = common::Fnv1a32(cand);
    if (h % kL1 == h0 % kL1 && (h / kL1) % kBuckets == (h0 / kL1) % kBuckets) {
      out.push_back(cand);
    }
  }
  return out;
}

TEST_F(ZofsDirTest, CollidingNamesChainAndResolve) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  // > kL2Embedded (16) + kRunDentries (31) collisions forces a multi-page
  // chain in one bucket.
  auto names = CollidingNames(80);
  for (const auto& n : names) {
    ASSERT_TRUE(fs_->Open(cred, "/d/" + n, vfs::kCreate | vfs::kWrite, 0644).ok()) << n;
  }
  for (const auto& n : names) {
    EXPECT_TRUE(fs_->Stat(cred, "/d/" + n).ok()) << n;
  }
  auto entries = fs_->ReadDir(cred, "/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), names.size());
  // Delete every third, re-check the rest resolve and the dir stays sound.
  for (size_t i = 0; i < names.size(); i += 3) {
    ASSERT_TRUE(fs_->Unlink(cred, "/d/" + names[i]).ok()) << names[i];
  }
  for (size_t i = 0; i < names.size(); i++) {
    EXPECT_EQ(fs_->Stat(cred, "/d/" + names[i]).ok(), i % 3 != 0) << names[i];
  }
}

TEST_F(ZofsDirTest, SlotReuseAfterDeletion) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  auto pages_of = [&]() {
    uint64_t n = 0;
    auto runs = kfs_->PagesOf(kfs_->root_coffer_id());
    for (const auto& r : *runs) {
      n += r.len;
    }
    return n;
  };
  // Fill, delete, refill with the same names repeatedly: directory pages
  // must be reused (bounded growth).
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(
          fs_->Open(cred, "/d/r" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644).ok());
    }
    uint64_t p = pages_of();
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(fs_->Unlink(cred, "/d/r" + std::to_string(i)).ok());
    }
    if (round > 0) {
      EXPECT_LE(pages_of(), p) << "directory pages leaked in round " << round;
    }
  }
}

TEST_F(ZofsDirTest, MaxLengthNamesWork) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  std::string max_name(103, 'n');  // kMaxName
  ASSERT_TRUE(fs_->Open(cred, "/d/" + max_name, vfs::kCreate | vfs::kWrite, 0644).ok());
  EXPECT_TRUE(fs_->Stat(cred, "/d/" + max_name).ok());
  std::string too_long(104, 'n');
  auto fd = fs_->Open(cred, "/d/" + too_long, vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error(), Err::kNameTooLong);
  // Names that are prefixes of each other must not alias.
  ASSERT_TRUE(fs_->Open(cred, "/d/ab", vfs::kCreate | vfs::kWrite, 0644).ok());
  ASSERT_TRUE(fs_->Open(cred, "/d/abc", vfs::kCreate | vfs::kWrite, 0644).ok());
  ASSERT_TRUE(fs_->Unlink(cred, "/d/ab").ok());
  EXPECT_TRUE(fs_->Stat(cred, "/d/abc").ok());
}

TEST_F(ZofsDirTest, SimilarNamesHashApart) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  // Single-character and swapped-character names: classic aliasing bait.
  std::vector<std::string> names = {"a", "b", "ab", "ba", "aa", "bb", "a.b", "b.a"};
  for (const auto& n : names) {
    ASSERT_TRUE(fs_->Open(cred, "/d/" + n, vfs::kCreate | vfs::kWrite, 0644).ok());
    auto fd = fs_->Open(cred, "/d/" + n, vfs::kWrite, 0);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Write(*fd, n.data(), n.size()).ok());
    fs_->Close(*fd);
  }
  for (const auto& n : names) {
    auto fd = fs_->Open(cred, "/d/" + n, vfs::kRead, 0);
    ASSERT_TRUE(fd.ok()) << n;
    char buf[16] = {};
    auto r = fs_->Read(*fd, buf, sizeof(buf));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(std::string(buf, *r), n) << "content aliased for " << n;
    fs_->Close(*fd);
  }
}

TEST_F(ZofsDirTest, TenThousandEntriesIterateCompletely) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/big", 0755).ok());
  const int kN = 10000;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(
        fs_->Open(cred, "/big/e" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644).ok())
        << i;
  }
  auto entries = fs_->ReadDir(cred, "/big");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), static_cast<size_t>(kN));
  std::set<std::string> seen;
  for (const auto& e : *entries) {
    EXPECT_TRUE(seen.insert(e.name).second) << "duplicate " << e.name;
  }
  for (int i = 0; i < kN; i += 503) {
    EXPECT_TRUE(seen.count("e" + std::to_string(i))) << i;
  }
}

TEST_F(ZofsDirTest, DentryTypeCacheMatchesInode) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  ASSERT_TRUE(fs_->Mkdir(cred, "/d/sub", 0755).ok());
  ASSERT_TRUE(fs_->Open(cred, "/d/file", vfs::kCreate | vfs::kWrite, 0644).ok());
  ASSERT_TRUE(fs_->Symlink(cred, "file", "/d/link").ok());
  auto entries = fs_->ReadDir(cred, "/d");
  ASSERT_TRUE(entries.ok());
  for (const auto& e : *entries) {
    if (e.name == "sub") {
      EXPECT_EQ(e.type, vfs::FileType::kDirectory);
    } else if (e.name == "file") {
      EXPECT_EQ(e.type, vfs::FileType::kRegular);
    } else if (e.name == "link") {
      EXPECT_EQ(e.type, vfs::FileType::kSymlink);
    } else {
      ADD_FAILURE() << "unexpected entry " << e.name;
    }
  }
}

TEST_F(ZofsDirTest, RenameWithinChainedBucket) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/d", 0755).ok());
  auto names = CollidingNames(40);
  for (const auto& n : names) {
    ASSERT_TRUE(fs_->Open(cred, "/d/" + n, vfs::kCreate | vfs::kWrite, 0644).ok());
  }
  // Rename half of the colliding names onto fresh names.
  for (size_t i = 0; i < names.size(); i += 2) {
    ASSERT_TRUE(fs_->Rename(cred, "/d/" + names[i], "/d/renamed" + std::to_string(i)).ok());
  }
  for (size_t i = 0; i < names.size(); i++) {
    if (i % 2 == 0) {
      EXPECT_EQ(fs_->Stat(cred, "/d/" + names[i]).error(), Err::kNoEnt);
      EXPECT_TRUE(fs_->Stat(cred, "/d/renamed" + std::to_string(i)).ok());
    } else {
      EXPECT_TRUE(fs_->Stat(cred, "/d/" + names[i]).ok());
    }
  }
}

}  // namespace
