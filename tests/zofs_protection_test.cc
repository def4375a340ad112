// Protection and isolation tests: the §3.4 / §6.5 scenarios as assertions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/keyclass.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;

class ProtectionTest : public ::testing::Test {
 protected:
  void SetUp() override { Boot(); }
  // A freshly formatted device and kernel.
  void Boot() {
    stack_.emplace(nvm::Options{.size_bytes = 128ull << 20, .media = {}},
                   kernfs::FormatOptions{.root_mode = 0777, .root_uid = 1000, .root_gid = 1000});
    dev_ = stack_->dev();
    kfs_ = stack_->kfs();
  }

  std::optional<testbed::Stack> stack_;
  nvm::NvmDevice* dev_ = nullptr;
  kernfs::KernFs* kfs_ = nullptr;
};

TEST_F(ProtectionTest, StrayWritesNeverLand) {
  // §6.5 test 1: application code with closed windows cannot modify any
  // coffer page, ever.
  fslib::FsLib& p1 = *stack_->AddProcess(vfs::Cred{1000, 1000});
  auto fd = p1.Open(vfs::Cred{1000, 1000}, "/file", vfs::kCreate | vfs::kWrite, 0666);
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> payload(4096, 0xee);
  ASSERT_TRUE(p1.Pwrite(*fd, payload.data(), payload.size(), 0).ok());

  p1.BindThread();
  common::Rng rng(3);
  for (int i = 0; i < 5000; i++) {
    uint64_t off = rng.Below(dev_->size() - 8) & ~7ull;
    EXPECT_THROW(dev_->Store64(off, 0xbad), mpk::ViolationError);
  }
  // File intact.
  std::vector<uint8_t> check(4096);
  auto r = p1.Pread(*fd, check.data(), check.size(), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(memcmp(check.data(), payload.data(), 4096), 0);
}

TEST_F(ProtectionTest, CorruptionYieldsGracefulErrorNotCrash) {
  // §3.4.2: corrupted metadata leads to an error return, not termination.
  // One row per inode entry point: smash the magic of the inode the op reads
  // (the file, or the directory the op works in); the op fails with
  // EUCLEAN — never EFAULT, the simulated SIGSEGV — and the process then
  // still creates and reads another file.
  const vfs::Cred c{1000, 1000};
  char buf[16] = {};
  using Op = std::function<Err(fslib::FsLib&, vfs::Fd fd, vfs::Fd append_fd)>;
  auto err = [](const auto& r) { return r.ok() ? Err::kOk : r.error(); };
  struct Row {
    const char* name;
    const char* smash;  // the path whose inode magic is destroyed
    Op op;
    bool append_first = false;  // open a staged-append epoch before the smash
  };
  const std::vector<Row> rows = {
      {"read", "/f",
       [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd) { return err(p.Read(fd, buf, 8)); }},
      {"pread", "/f",
       [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd) { return err(p.Pread(fd, buf, 8, 0)); }},
      {"write", "/f",
       [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd) { return err(p.Write(fd, "x", 1)); }},
      {"pwrite", "/f",
       [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd) { return err(p.Pwrite(fd, "x", 1, 0)); }},
      {"append", "/f",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd afd) { return err(p.Write(afd, "x", 1)); }},
      {"fstat", "/f", [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd) { return err(p.Fstat(fd)); }},
      {"ftruncate", "/f",
       [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd) { return err(p.Ftruncate(fd, 1)); }},
      {"fsync after append", "/f",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd afd) { return err(p.Fsync(afd)); }, true},
      {"stat", "/f", [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.Stat(c, "/f")); }},
      {"readdir", "/d",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.ReadDir(c, "/d")); }},
      {"readlink", "/l",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.ReadLink(c, "/l")); }},
      {"create", "/d",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) {
         return err(p.Open(c, "/d/new", vfs::kCreate | vfs::kWrite, 0666));
       }},
      {"mkdir", "/d",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.Mkdir(c, "/d/nd", 0777)); }},
      {"symlink", "/d",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.Symlink(c, "/f", "/d/nl")); }},
      {"unlink", "/d",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.Unlink(c, "/d/g")); }},
      {"rmdir", "/d",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.Rmdir(c, "/d/sub")); }},
      {"rename", "/d",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.Rename(c, "/d/g", "/d/h")); }},
      {"chmod", "/d",
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd) { return err(p.Chmod(c, "/d/g", 0600)); }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    Boot();
    fslib::FsLib& p = *stack_->AddProcess(c);
    auto fd = p.Open(c, "/f", vfs::kCreate | vfs::kRdWr, 0666);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(p.Write(*fd, "data", 4).ok());
    auto afd = p.Open(c, "/f", vfs::kWrite | vfs::kAppend, 0);
    ASSERT_TRUE(afd.ok());
    ASSERT_TRUE(p.Mkdir(c, "/d", 0777).ok());
    ASSERT_TRUE(p.Mkdir(c, "/d/sub", 0777).ok());
    ASSERT_TRUE(p.Open(c, "/d/g", vfs::kCreate | vfs::kWrite, 0666).ok());
    ASSERT_TRUE(p.Symlink(c, "/f", "/l").ok());
    if (row.append_first) {
      ASSERT_TRUE(p.Write(*afd, "more", 4).ok());
    }

    auto node = p.zofs().Lookup(row.smash, /*follow_last_symlink=*/false);
    ASSERT_TRUE(node.ok());
    auto info = p.zofs().EnsureMappedForTest(node->coffer_id, true);
    ASSERT_TRUE(info.ok());
    {
      mpk::AccessWindow w(info->key, true);
      dev_->Store64(node->inode_off, 0);  // destroy the inode magic
    }
    EXPECT_EQ(row.op(p, *fd, *afd), Err::kCorrupt);

    // The process can continue using other files.
    auto other = p.Open(c, "/other", vfs::kCreate | vfs::kRdWr, 0666);
    ASSERT_TRUE(other.ok()) << common::ErrName(other.error());
    ASSERT_TRUE(p.Write(*other, "live", 4).ok());
    auto n = p.Pread(*other, buf, 4, 0);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string(buf, *n), "live");
  }
}

TEST_F(ProtectionTest, DamagedIndexWalksEndInPinnedErrors) {
  // Every walk of a damaged directory hash or block map ends in an error
  // return — never EFAULT, the simulated SIGSEGV, and never a hang — and
  // leaves the coffer in the health each row pins, one row per entry point.
  // Directory rows: the bucket chain of the name /d/x (which shares /d/a's
  // L1 slot, so its lookup reaches a live L2 page) loops through two run
  // pages pointing at each other, fabricated from two data pages of /f in
  // the same coffer, as the fault campaign builds it; no dentry for x goes
  // in behind the damage. Block-map rows: /f's indirect (or double-indirect)
  // pointer is misaligned and the op touches a block behind it. Every row
  // quarantines the coffer once: with the clock pinned, the coffer admits a
  // probe one base backoff after the failing op.
  const vfs::Cred c{1000, 1000};
  using zofs::CofferHealth;
  enum class Damage { kDirLoop, kIndirect, kDindirect };
  using Op = std::function<Err(fslib::FsLib&, vfs::Fd fd, vfs::Fd append_fd, uint64_t blk)>;
  auto err = [](const auto& r) { return r.ok() ? Err::kOk : r.error(); };
  std::string x;
  for (int i = 0; x.empty(); i++) {
    const std::string n = "x" + std::to_string(i);
    if (common::Fnv1a32(n) % zofs::kL1Slots == common::Fnv1a32("a") % zofs::kL1Slots) {
      x = n;
    }
  }
  const std::string page(nvm::kPageSize, 'p');
  char buf[8] = {};
  struct Row {
    const char* name;
    Damage damage;
    Op op;
    Err err;
    CofferHealth health;
    bool unlink_first = false;  // unlink /d/a before the op (its L2 page stays)
  };
  const Op pread = [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd, uint64_t blk) {
    return err(p.Pread(fd, buf, sizeof(buf), blk * nvm::kPageSize));
  };
  const Op pwrite = [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd, uint64_t blk) {
    return err(p.Pwrite(fd, "w", 1, blk * nvm::kPageSize));
  };
  const Op append = [&](fslib::FsLib& p, vfs::Fd, vfs::Fd afd, uint64_t) {
    return err(p.Write(afd, page.data(), page.size()));  // the staged path, at block blk + 1
  };
  const Op ftruncate = [&](fslib::FsLib& p, vfs::Fd fd, vfs::Fd, uint64_t blk) {
    return err(p.Ftruncate(fd, blk * nvm::kPageSize));
  };
  const std::vector<Row> rows = {
      {"stat in the looping dir", Damage::kDirLoop,
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd, uint64_t) { return err(p.Stat(c, "/d/" + x)); },
       Err::kCorrupt, CofferHealth::kSick},
      {"create in the looping dir", Damage::kDirLoop,
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd, uint64_t) {
         return err(p.Open(c, "/d/" + x, vfs::kCreate | vfs::kWrite, 0666));
       },
       Err::kCorrupt, CofferHealth::kSick},
      {"readdir of the looping dir", Damage::kDirLoop,
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd, uint64_t) { return err(p.ReadDir(c, "/d")); },
       Err::kCorrupt, CofferHealth::kSick},
      {"rmdir of the emptied looping dir", Damage::kDirLoop,
       [&](fslib::FsLib& p, vfs::Fd, vfs::Fd, uint64_t) { return err(p.Rmdir(c, "/d")); },
       Err::kCorrupt, CofferHealth::kSick, true},
      {"pread behind a misaligned indirect", Damage::kIndirect, pread, Err::kCorrupt,
       CofferHealth::kSick},
      {"pwrite behind a misaligned indirect", Damage::kIndirect, pwrite, Err::kCorrupt,
       CofferHealth::kSick},
      {"append behind a misaligned indirect", Damage::kIndirect, append, Err::kCorrupt,
       CofferHealth::kSick},
      {"ftruncate behind a misaligned indirect", Damage::kIndirect, ftruncate, Err::kCorrupt,
       CofferHealth::kSick},
      {"pread behind a misaligned double-indirect", Damage::kDindirect, pread, Err::kCorrupt,
       CofferHealth::kSick},
      {"pwrite behind a misaligned double-indirect", Damage::kDindirect, pwrite, Err::kCorrupt,
       CofferHealth::kSick},
      {"append behind a misaligned double-indirect", Damage::kDindirect, append, Err::kCorrupt,
       CofferHealth::kSick},
      {"ftruncate behind a misaligned double-indirect", Damage::kDindirect, ftruncate,
       Err::kCorrupt, CofferHealth::kSick},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    Boot();
    fslib::FsLib& p = *stack_->AddProcess(c);
    ASSERT_TRUE(p.Mkdir(c, "/d", 0777).ok());
    ASSERT_TRUE(p.Open(c, "/d/a", vfs::kCreate | vfs::kWrite, 0666).ok());
    // /f: blocks 0 and 1 (the run-page material) and block `blk`, the first
    // one behind the damaged pointer.
    const uint64_t blk = row.damage == Damage::kDindirect ? zofs::kDirectBlocks + zofs::kPtrsPerPage
                                                          : zofs::kDirectBlocks;
    auto fd = p.Open(c, "/f", vfs::kCreate | vfs::kRdWr, 0666);
    ASSERT_TRUE(fd.ok());
    for (uint64_t b : {uint64_t{0}, uint64_t{1}, blk}) {
      ASSERT_TRUE(p.Pwrite(*fd, page.data(), page.size(), b * nvm::kPageSize).ok());
    }
    auto afd = p.Open(c, "/f", vfs::kWrite | vfs::kAppend, 0);
    ASSERT_TRUE(afd.ok());
    if (row.unlink_first) {
      ASSERT_TRUE(p.Unlink(c, "/d/a").ok());
    }

    zofs::ZoFs& z = p.zofs();
    const uint32_t cid = kfs_->root_coffer_id();
    auto f = z.Lookup("/f", true);
    auto d = z.Lookup("/d", true);
    ASSERT_TRUE(f.ok() && d.ok());
    ASSERT_EQ(f->coffer_id, cid);
    ASSERT_EQ(d->coffer_id, cid);
    auto pages = z.FilePages(*f, nullptr);
    ASSERT_TRUE(pages.ok());
    auto info = z.EnsureMappedForTest(cid, true);
    ASSERT_TRUE(info.ok());
    uint64_t l2 = 0;  // the L2 page holding x's bucket (directory rows)
    {
      mpk::AccessWindow w(info->key, true);
      if (row.damage == Damage::kDirLoop) {
        const uint64_t run_a = (*pages)[0] * nvm::kPageSize;
        const uint64_t run_b = (*pages)[1] * nvm::kPageSize;
        const std::vector<uint8_t> empty(nvm::kPageSize, 0);
        for (auto [run, next] : {std::pair{run_a, run_b}, std::pair{run_b, run_a}}) {
          dev_->StoreBytes(run, empty.data(), empty.size());
          dev_->Store64(run + offsetof(zofs::DentryRun, next), next);
        }
        const uint32_t h = common::Fnv1a32(x);
        l2 = dev_->As<uint64_t>(z.InodeForTest(*d)->l1_dir)[h % zofs::kL1Slots];
        ASSERT_NE(l2, 0u);
        dev_->Store64(l2 + offsetof(zofs::L2Page, buckets) +
                          (h / zofs::kL1Slots) % zofs::kL2Buckets * 8,
                      run_a);
      } else {
        const uint64_t ptr = f->inode_off + (row.damage == Damage::kIndirect
                                                 ? offsetof(zofs::Inode, indirect)
                                                 : offsetof(zofs::Inode, dindirect));
        ASSERT_NE(dev_->Load64(ptr), 0u);
        dev_->Store64(ptr, dev_->Load64(ptr) + 8);
      }
    }
    common::ScopedClockPin pin(common::RealNowNs());
    EXPECT_EQ(row.op(p, *fd, *afd, blk), row.err);
    EXPECT_EQ(z.Health(cid), row.health);
    if (l2 != 0) {
      for (const zofs::Dentry& de : dev_->As<zofs::L2Page>(l2)->embedded) {
        EXPECT_FALSE(de.in_use() && std::string(de.name, std::min<size_t>(de.name_len,
                                                                          zofs::kMaxName)) == x);
      }
    }
    common::AdvanceNowNsForTest(zofs::Options{}.sick_backoff_ns);
    EXPECT_EQ(err(p.Stat(c, "/f")), Err::kOk);  // the probe
  }
}

TEST_F(ProtectionTest, ManipulatedCrossCofferReferenceRejected) {
  // §3.4.3 / §6.5 test 2: a dentry in shared coffer C1 redirected at C2 must
  // fail G3 validation in the victim.
  fslib::FsLib& attacker = *stack_->AddProcess(vfs::Cred{1000, 1000});
  fslib::FsLib& victim = *stack_->AddProcess(vfs::Cred{1000, 1000});
  vfs::Cred c{1000, 1000};

  auto secret = attacker.Open(c, "/c2secret", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(secret.ok());
  ASSERT_TRUE(attacker.Write(*secret, "hidden", 6).ok());
  ASSERT_TRUE(attacker.Open(c, "/shared", vfs::kCreate | vfs::kWrite, 0666).ok());

  attacker.BindThread();
  auto c2 = attacker.zofs().Lookup("/c2secret", true);
  ASSERT_TRUE(c2.ok());
  auto rinfo = attacker.zofs().EnsureMappedForTest(kfs_->root_coffer_id(), true);
  {
    mpk::AccessWindow w(rinfo->key, true);
    zofs::Inode* root_ino = attacker.zofs().InodeForTest(
        zofs::NodeRef{kfs_->root_coffer_id(), rinfo->root_inode_off});
    uint64_t* l1 = dev_->As<uint64_t>(root_ino->l1_dir);
    bool rewrote = false;
    for (uint64_t s = 0; s < zofs::kL1Slots && !rewrote; s++) {
      if (l1[s] == 0) {
        continue;
      }
      auto* l2 = dev_->As<zofs::L2Page>(l1[s]);
      for (zofs::Dentry& d : l2->embedded) {
        if (d.in_use() && std::string_view(d.name, d.name_len) == "shared") {
          uint64_t off = dev_->OffsetOf(&d);
          dev_->Store32(off + offsetof(zofs::Dentry, coffer_id), c2->coffer_id);
          dev_->Store64(off + offsetof(zofs::Dentry, inode_off), c2->inode_off);
          dev_->PersistRange(off, sizeof(zofs::Dentry));
          rewrote = true;
          break;
        }
      }
    }
    ASSERT_TRUE(rewrote);
  }

  victim.BindThread();
  auto vfd = victim.Open(c, "/shared", vfs::kRead, 0);
  ASSERT_FALSE(vfd.ok());
  EXPECT_EQ(vfd.error(), Err::kCorrupt);
}

TEST_F(ProtectionTest, ReadOnlyMappingBlocksWrites) {
  // A user with read-only permission gets a read-only coffer mapping; write
  // attempts through the FS API are refused at map upgrade.
  fslib::FsLib& owner = *stack_->AddProcess(vfs::Cred{1000, 1000});
  vfs::Cred oc{1000, 1000};
  auto fd = owner.Open(oc, "/shared_ro", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(owner.Write(*fd, "readonly", 8).ok());

  fslib::FsLib& reader = *stack_->AddProcess(vfs::Cred{2000, 1000});
  vfs::Cred rc{2000, 1000};
  auto rfd = reader.Open(rc, "/shared_ro", vfs::kRead, 0);
  ASSERT_TRUE(rfd.ok()) << common::ErrName(rfd.error());
  char buf[16] = {};
  auto r = reader.Read(*rfd, buf, sizeof(buf));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(buf, *r), "readonly");

  auto wfd = reader.Open(rc, "/shared_ro", vfs::kWrite, 0);
  ASSERT_FALSE(wfd.ok());
  EXPECT_EQ(wfd.error(), Err::kAcces);
}

TEST_F(ProtectionTest, MpkBudgetEvictionKeepsWorking) {
  // More permission groups than MPK keys: FSLibs must evict mappings and
  // keep operating (paper §3.4.2: "the µFS should call coffer_unmap").
  fslib::FsLib& p = *stack_->AddProcess(vfs::Cred{1000, 1000});
  vfs::Cred c{1000, 1000};
  // 30 distinct permission groups => 30 coffers, against 15 keys.
  for (int i = 0; i < 30; i++) {
    uint32_t gid = 3000 + i;
    p.proc()->SetCred(vfs::Cred{1000, gid});
    auto fd = p.Open(c, "/g" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0660);
    ASSERT_TRUE(fd.ok()) << i << ": " << common::ErrName(fd.error());
    ASSERT_TRUE(p.Write(*fd, "x", 1).ok());
    ASSERT_TRUE(p.Close(*fd).ok());
  }
  // All files remain accessible (re-mapping on demand).
  for (int i = 0; i < 30; i++) {
    p.proc()->SetCred(vfs::Cred{1000, 3000u + i});
    auto st = p.Stat(c, "/g" + std::to_string(i));
    ASSERT_TRUE(st.ok()) << i << ": " << common::ErrName(st.error());
    EXPECT_EQ(st->size, 1u);
  }
}

TEST_F(ProtectionTest, KeyWindowEvictAndFaultBackRoundTrip) {
  // ISSUE 10: with more protection classes than physical keys the LRU key
  // window demotes cold classes (retag to 0xff, no unmap — mappings and
  // session caches survive) and faults them back in on next access. The
  // round trip must be invisible to the data path: every file reads back
  // byte-exact after its class was evicted and re-keyed.
  fslib::FsLib& p = *stack_->AddProcess(vfs::Cred{1000, 1000});
  vfs::Cred c{1000, 1000};
  const uint64_t ev0 = mpk::KeyEvictionCount();
  const uint64_t rt0 = mpk::KeyRetagPageCount();
  constexpr int kGroups = 20;  // 20 classes > 15 keys
  for (int i = 0; i < kGroups; i++) {
    p.proc()->SetCred(vfs::Cred{1000, 4000u + i});
    auto fd = p.Open(c, "/w" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0660);
    ASSERT_TRUE(fd.ok()) << i << ": " << common::ErrName(fd.error());
    std::string tag(64, static_cast<char>('A' + i));
    ASSERT_TRUE(p.Write(*fd, tag.data(), tag.size()).ok());
    ASSERT_TRUE(p.Close(*fd).ok());
  }
  EXPECT_GT(p.proc()->LiveProtClassCount(), 15u);
  // Creating class 16..20 must have run the window, and eviction moves only
  // the key assignment — pages get retagged, nothing is unmapped.
  EXPECT_GT(mpk::KeyEvictionCount(), ev0);
  EXPECT_GT(mpk::KeyRetagPageCount(), rt0);
  // Fault the earliest (long-evicted) classes back in: byte-exact reads.
  for (int i = 0; i < kGroups; i++) {
    p.proc()->SetCred(vfs::Cred{1000, 4000u + i});
    auto fd = p.Open(c, "/w" + std::to_string(i), vfs::kRead, 0);
    ASSERT_TRUE(fd.ok()) << i << ": " << common::ErrName(fd.error());
    char buf[64] = {};
    auto r = p.Read(*fd, buf, sizeof(buf));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, sizeof(buf));
    EXPECT_EQ(std::string(buf, sizeof(buf)), std::string(64, static_cast<char>('A' + i)));
    p.Close(*fd);
  }
}

TEST_F(ProtectionTest, CofferRootChmodMovesCachedClass) {
  // A chmod of a coffer root moves the coffer to another protection class in
  // every process that maps it. The old class can stay keyed (a sibling
  // coffer still holds it), so a process that cached the old class must
  // notice the move and pick up the new one — whether it ran the chmod
  // itself or root or another of the owner's processes did. A mode without
  // owner write must not lock the owner out of its own chmod.
  enum class By { kSelf, kRoot, kOtherOwnerProcess };
  struct Case {
    const char* name;
    By by;
    bool sibling;  // a second coffer shares the original class
    uint16_t mode;
  };
  const Case cases[] = {
      {"owner 0770", By::kSelf, true, 0770},
      {"root 0770", By::kRoot, true, 0770},
      {"owner 0550", By::kSelf, true, 0550},
      {"owner 0500, sole member of its class", By::kSelf, false, 0500},
      {"another owner process 0550", By::kOtherOwnerProcess, true, 0550},
  };
  const vfs::Cred owner{100, 100};
  int n_case = 0;
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    const std::string home = "/home" + std::to_string(n_case++);
    fslib::FsLib& p = *stack_->AddProcess(owner);
    ASSERT_TRUE(p.Mkdir(owner, home, 0755).ok());
    // Coffer roots in class (uid 100, gid 100, 0750).
    ASSERT_TRUE(p.Mkdir(owner, home + "/a", 0750).ok());
    if (k.sibling) {
      ASSERT_TRUE(p.Mkdir(owner, home + "/b", 0750).ok());
    }
    auto fd = p.Open(owner, home + "/a/f", vfs::kCreate | vfs::kWrite, 0640);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(p.Write(*fd, "data", 4).ok());
    ASSERT_TRUE(p.Close(*fd).ok());

    if (k.by == By::kSelf) {
      auto s = p.Chmod(owner, home + "/a", k.mode);
      ASSERT_TRUE(s.ok()) << common::ErrName(s.error());
    } else {
      const vfs::Cred cred = k.by == By::kRoot ? vfs::Cred{0, 0} : owner;
      fslib::FsLib& q = *stack_->AddProcess(cred);
      auto s = q.Chmod(cred, home + "/a", k.mode);
      ASSERT_TRUE(s.ok()) << common::ErrName(s.error());
      auto st = q.Stat(cred, home + "/a");
      ASSERT_TRUE(st.ok()) << common::ErrName(st.error());
      EXPECT_EQ(st->mode & 0777, k.mode);
      stack_->Exit(&q);
    }

    auto st = p.Stat(owner, home + "/a");
    ASSERT_TRUE(st.ok()) << common::ErrName(st.error());
    EXPECT_EQ(st->mode & 0777, k.mode);
    auto rd = p.Open(owner, home + "/a/f", vfs::kRead, 0);
    ASSERT_TRUE(rd.ok()) << common::ErrName(rd.error());
    char buf[4] = {};
    auto n = p.Read(*rd, buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << common::ErrName(n.error());
    EXPECT_EQ(std::string(buf, *n), "data");
    ASSERT_TRUE(p.Close(*rd).ok());
    if ((k.mode & 0200) == 0) {
      // Back into the original class, then write through it.
      auto s = p.Chmod(owner, home + "/a", 0750);
      ASSERT_TRUE(s.ok()) << common::ErrName(s.error());
    }
    auto wr = p.Open(owner, home + "/a/g", vfs::kCreate | vfs::kWrite, 0660);
    ASSERT_TRUE(wr.ok()) << common::ErrName(wr.error());
    ASSERT_TRUE(p.Close(*wr).ok());
    if (k.sibling) {
      EXPECT_TRUE(p.Stat(owner, home + "/b").ok());
    }
    stack_->Exit(&p);
  }
}

TEST_F(ProtectionTest, CreateInUnwritableDirFindsExistingNameFirst) {
  // POSIX checks for an existing name before write permission on its
  // parent: a caller that cannot write /ro still opens /ro/f with O_CREAT
  // and gets EEXIST from mkdir and O_EXCL. Only a new name is EACCES.
  const vfs::Cred root{0, 0};
  fslib::FsLib& owner = *stack_->AddProcess(root);
  ASSERT_TRUE(owner.Mkdir(root, "/ro", 0755).ok());
  auto fd = owner.Open(root, "/ro/f", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(owner.Write(*fd, "data", 4).ok());
  ASSERT_TRUE(owner.Close(*fd).ok());

  const vfs::Cred user{100, 100};
  fslib::FsLib& p = *stack_->AddProcess(user);
  auto rd = p.Open(user, "/ro/f", vfs::kCreate | vfs::kRead, 0644);
  ASSERT_TRUE(rd.ok()) << common::ErrName(rd.error());
  char buf[4] = {};
  auto n = p.Read(*rd, buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "data");
  EXPECT_EQ(p.Mkdir(user, "/ro/f", 0755).error(), Err::kExist);
  EXPECT_EQ(p.Open(user, "/ro/f", vfs::kCreate | vfs::kExcl | vfs::kWrite, 0644).error(),
            Err::kExist);
  EXPECT_EQ(p.Open(user, "/ro/g", vfs::kCreate | vfs::kWrite, 0644).error(), Err::kAcces);
  EXPECT_EQ(p.Mkdir(user, "/ro/g", 0755).error(), Err::kAcces);
}

TEST_F(ProtectionTest, SetuidStyleCredChangeRevokesAccess) {
  // After a process's credentials change, a previously mapped private coffer
  // can no longer be (re)mapped by a fresh process with the new identity.
  fslib::FsLib& p = *stack_->AddProcess(vfs::Cred{1000, 1000});
  vfs::Cred c{1000, 1000};
  ASSERT_TRUE(p.Open(c, "/mine", vfs::kCreate | vfs::kWrite, 0600).ok());

  fslib::FsLib& other = *stack_->AddProcess(vfs::Cred{7777, 7777});
  auto denied = other.Open(vfs::Cred{7777, 7777}, "/mine", vfs::kRead, 0);
  EXPECT_EQ(denied.error(), Err::kAcces);
}

}  // namespace
