// Tenant-death tests (src/procmon + the kill/steal/repair/reap machinery):
//
//   * a survivor steals a dead tenant's expired InodeLock and repairs the
//     corpse's published staged-append intent IN PLACE — no remount;
//   * same for a half-done rename intent (rolled forward from the intent);
//   * two survivors race one expired lock: exactly one steal, one repair,
//     and both threads' operations eventually succeed;
//   * a fresh lock claim is never taken over inside its claim window, and a
//     survivor claiming the rename-intent slot over a dead holder repairs
//     the dead rename instead of overwriting it — once, however many
//     survivors find it, and before a lock thief looks anything up;
//   * the kernel reaper reclaims a dead process's mappings, channel rings
//     and unharvested grants without the corpse's cooperation;
//   * a small end-to-end soak covers every kill point and comes out clean
//     with a byte-stable report.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/killpoint.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/channel.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/procmon/procmon.h"
#include "src/testbed/testbed.h"
#include "src/zofs/alloc.h"
#include "src/zofs/lease.h"
#include "src/zofs/zofs.h"
#include "tests/store_trap.h"

namespace {

const vfs::Cred kRoot{0, 0};
const vfs::Cred kTenant{100, 100};

// Fires once, at the named point only. A nonzero `stall_ns` first advances
// the logical clock by that much at the first inode lock taken: a tenant
// descheduled between taking its lock and stamping its intent.
struct KillArm {
  const char* point;
  uint64_t stall_ns = 0;
  bool fired = false;
};

bool KillHandler(void* ctx, const char* point) {
  auto* a = static_cast<KillArm*>(ctx);
  if (a->stall_ns != 0 && strcmp(point, common::kKillHoldingInodeLock) == 0) {
    common::AdvanceNowNsForTest(a->stall_ns);
    a->stall_ns = 0;
  }
  if (a->fired || strcmp(a->point, point) != 0) {
    return false;
  }
  a->fired = true;
  return true;
}

class ProcmonTest : public ::testing::Test {
 protected:
  void TearDown() override {
    common::InstallKillPoint(nullptr, nullptr);
    common::SetCurrentThreadKilled(false);
  }

  // Runs `setup` (kill points disarmed) then `op` (kill point armed) on a
  // fresh tenant process with its own lease identity, killing it at `point`
  // (after a `stall_ns` stall at its first inode lock, see KillArm).
  // Leaves the corpse in the morgue (victim_ abandoned) and the logical
  // clock advanced by `lapse_ns`, by default past every lease it stamped.
  void KillTenantAt(const char* point, const std::function<void(fslib::FsLib*)>& setup,
                    const std::function<void(fslib::FsLib*)>& op, uint64_t stall_ns = 0,
                    uint64_t lapse_ns = 10'000'000'000ull) {
    victim_ = stack_.AddProcess(kTenant);
    arm_ = KillArm{point, stall_ns};
    bool fired = false;
    {
      zofs::ScopedTidOverride tid(1000);
      victim_->BindThread();
      if (setup != nullptr) {
        setup(victim_);
      }
      common::InstallKillPoint(&KillHandler, &arm_);
      try {
        op(victim_);
      } catch (const common::ProcessKilledError& e) {
        EXPECT_STREQ(e.point, point);
        fired = true;
      }
      common::InstallKillPoint(nullptr, nullptr);
      common::SetCurrentThreadKilled(false);
    }
    mpk::BindThreadToProcess(nullptr);
    ASSERT_TRUE(fired) << "kill point " << point << " never fired";

    kernfs::KillOptions ko;  // no stray burst: these tests isolate repair
    stack_.Kill(victim_, ko);
    common::AdvanceNowNsForTest(lapse_ns);
  }

  fslib::FsLib* Survivor() {
    if (survivor_ == nullptr) {
      survivor_ = stack_.AddProcess(kRoot);
    }
    return survivor_;
  }

  common::ScopedClockPin clock_{1'000'000'000ull};  // deterministic lease arithmetic
  testbed::Stack stack_{{.size_bytes = 64ull << 20, .crash_tracking = true, .media = {}},
                        {.root_mode = 0777}};
  kernfs::KernFs* kfs_ = stack_.kfs();
  fslib::FsLib* victim_ = nullptr;
  fslib::FsLib* survivor_ = nullptr;
  KillArm arm_{nullptr};
};

TEST_F(ProcmonTest, StealRepairsPendingStagedIntentWithoutRemount) {
  const std::string payload(3 * nvm::kPageSize, 'z');
  vfs::Fd vfd = 0;
  KillTenantAt(
      common::kKillStagedIntentPublished,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        // Appends stage; Fsync's FlushStage publishes the intent, then dies.
        auto fd = fs->Open(kTenant, "/v/log", vfs::kCreate | vfs::kWrite | vfs::kAppend, 0600);
        ASSERT_TRUE(fd.ok());
        vfd = *fd;
        ASSERT_TRUE(fs->Write(vfd, payload.data(), payload.size()).ok());
      },
      [&](fslib::FsLib* fs) { (void)fs->Fsync(vfd); });

  // The corpse left the file's InodeLock held and a published staged-append
  // intent: the size update and block-pointer install never ran.
  const uint64_t steals0 = zofs::LockStealCount();
  const uint64_t repairs0 = zofs::OnlineRepairCount();

  // Same mounted KernFs, no remount, no RecoverAll: the survivor's write
  // takes the file's expired lock, steals it and rolls the intent forward in
  // place. The overwrite re-stores the byte already there so the content
  // check below stays exact.
  zofs::ScopedTidOverride tid(7);
  fslib::FsLib* fs = Survivor();
  auto fd = fs->Open(kRoot, "/v/log", vfs::kRdWr, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs->Pwrite(*fd, "z", 1, 0).ok());

  EXPECT_GE(zofs::LockStealCount() - steals0, 1u);
  EXPECT_EQ(zofs::OnlineRepairCount() - repairs0, 1u);

  auto st = fs->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, payload.size());
  std::string back(payload.size(), 0);
  ASSERT_TRUE(fs->Pread(*fd, back.data(), back.size(), 0).ok());
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(fs->Close(*fd).ok());

  // A second, steal-free write finds nothing left to repair.
  const uint64_t repairs1 = zofs::OnlineRepairCount();
  auto fd2 = fs->Open(kRoot, "/v/log", vfs::kRdWr, 0);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(fs->Pwrite(*fd2, "z", 1, 0).ok());
  ASSERT_TRUE(fs->Close(*fd2).ok());
  EXPECT_EQ(zofs::OnlineRepairCount(), repairs1);
}

TEST_F(ProcmonTest, StealRepairsPendingRenameIntentWithoutRemount) {
  KillTenantAt(
      common::kKillMidRenameIntent,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        auto fd = fs->Open(kTenant, "/v/a", vfs::kCreate | vfs::kWrite, 0600);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(fs->Write(*fd, "payload", 7).ok());
        ASSERT_TRUE(fs->Close(*fd).ok());
      },
      [&](fslib::FsLib* fs) { (void)fs->Rename(kTenant, "/v/a", "/v/b"); });

  // The kill site sits after the destination dentry landed: both names are
  // momentarily visible, vouched by the persistent intent.
  const uint64_t repairs0 = zofs::OnlineRepairCount();

  // Creating an unrelated file in /v takes the directory's dead-held lock:
  // the steal repairs the rename in place (rolls it forward — the intent had
  // committed), again without a remount.
  zofs::ScopedTidOverride tid(7);
  fslib::FsLib* fs = Survivor();
  auto probe = fs->Open(kRoot, "/v/probe", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(fs->Close(*probe).ok());

  EXPECT_EQ(zofs::OnlineRepairCount() - repairs0, 1u);
  EXPECT_FALSE(fs->Stat(kRoot, "/v/a").ok());
  auto st = fs->Stat(kRoot, "/v/b");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 7u);
  auto fd = fs->Open(kRoot, "/v/b", vfs::kRead, 0);
  ASSERT_TRUE(fd.ok());
  std::string back(7, 0);
  ASSERT_TRUE(fs->Pread(*fd, back.data(), back.size(), 0).ok());
  EXPECT_EQ(back, "payload");
  ASSERT_TRUE(fs->Close(*fd).ok());
}

TEST_F(ProcmonTest, ConcurrentStealExactlyOneWins) {
  const std::string payload(2 * nvm::kPageSize, 'q');
  vfs::Fd vfd = 0;
  KillTenantAt(
      common::kKillStagedIntentPublished,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        auto fd = fs->Open(kTenant, "/v/log", vfs::kCreate | vfs::kWrite | vfs::kAppend, 0600);
        ASSERT_TRUE(fd.ok());
        vfd = *fd;
        ASSERT_TRUE(fs->Write(vfd, payload.data(), payload.size()).ok());
      },
      [&](fslib::FsLib* fs) { (void)fs->Fsync(vfd); });

  const uint64_t steals0 = zofs::LockStealCount();
  const uint64_t repairs0 = zofs::OnlineRepairCount();

  // Two survivors race the one expired lock. The expiry-CAS claim in the
  // steal path admits exactly one thief; the loser sees a live lease, waits
  // out the handover and acquires normally once the winner releases.
  fslib::FsLib* fs = Survivor();
  bool done[2] = {false, false};
  std::thread racers[2];
  for (int i = 0; i < 2; i++) {
    racers[i] = std::thread([&, i] {
      zofs::ScopedTidOverride tid(2001 + i);
      fs->BindThread();
      for (int attempt = 0; attempt < 8 && !done[i]; attempt++) {
        auto fd = fs->Open(kRoot, "/v/log", vfs::kRdWr, 0);
        if (!fd.ok()) {
          continue;
        }
        if (fs->Pwrite(*fd, "q", 1, 0).ok()) {  // re-stores the byte in place
          done[i] = true;
        }
        (void)fs->Close(*fd);
      }
      mpk::BindThreadToProcess(nullptr);
    });
  }
  racers[0].join();
  racers[1].join();

  EXPECT_TRUE(done[0]);
  EXPECT_TRUE(done[1]);
  EXPECT_EQ(zofs::LockStealCount() - steals0, 1u);
  EXPECT_EQ(zofs::OnlineRepairCount() - repairs0, 1u);

  // Both observed the fully repaired state.
  zofs::ScopedTidOverride tid(7);
  auto st = fs->Stat(kRoot, "/v/log");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, payload.size());
}

TEST(LeaseClaimTest, FreshInodeLockIsNotStealableInsideItsClaimWindow) {
  // A claimant that CASes a fresh inode's owner word must already have
  // stamped the lease expiry: a second claimant looking right after the CAS
  // must see a live lease and wait, not a zero expiry it may steal.
  common::ScopedClockPin pin(1'000'000'000);
  nvm::Options o;
  o.size_bytes = 1ull << 20;
  nvm::NvmDevice dev(o);
  const uint64_t ino = nvm::kPageSize;  // a zeroed page stands in for the inode
  bool second_ok = true;
  bool second_stole = true;
  StoreTrap trap(&dev, ino + offsetof(zofs::Inode, lock_owner), [&] {
    zofs::ScopedTidOverride tid(2);
    zofs::InodeLock second(&dev, ino, /*lease_ns=*/1'000'000);
    second_ok = second.ok();
    second_stole = second.stole();
  });
  zofs::ScopedTidOverride tid(1);
  zofs::InodeLock first(&dev, ino, /*lease_ns=*/200'000'000);
  ASSERT_TRUE(trap.fired());
  EXPECT_TRUE(first.ok());
  EXPECT_FALSE(second_ok) << "second claimant took the lock inside the claim window";
  EXPECT_FALSE(second_stole);
}

TEST_F(ProcmonTest, RenameIntentClaimRepairsDeadHolderInsteadOfOverwriting) {
  const std::string payload = "payload";
  KillTenantAt(
      common::kKillMidRenameIntent,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v/w", 0700).ok());
        for (const char* path : {"/v/a", "/v/w/x"}) {
          auto fd = fs->Open(kTenant, path, vfs::kCreate | vfs::kWrite, 0600);
          ASSERT_TRUE(fd.ok());
          ASSERT_TRUE(fs->Write(*fd, payload.data(), payload.size()).ok());
          ASSERT_TRUE(fs->Close(*fd).ok());
        }
      },
      [&](fslib::FsLib* fs) { (void)fs->Rename(kTenant, "/v/a", "/v/b"); });

  // The corpse committed its rename intent with both names present. A
  // survivor's unrelated rename in the same coffer claims the intent slot
  // over the dead lease: it must roll the dead rename forward first, not
  // overwrite the intent and leave /v/a and /v/b sharing one inode.
  zofs::ScopedTidOverride tid(7);
  fslib::FsLib* fs = Survivor();
  ASSERT_TRUE(fs->Rename(kRoot, "/v/w/x", "/v/w/y").ok());
  auto probe = fs->Open(kRoot, "/v/probe", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(fs->Close(*probe).ok());

  EXPECT_FALSE(fs->Stat(kRoot, "/v/w/x").ok());
  EXPECT_TRUE(fs->Stat(kRoot, "/v/w/y").ok());
  const bool has_a = fs->Stat(kRoot, "/v/a").ok();
  const bool has_b = fs->Stat(kRoot, "/v/b").ok();
  ASSERT_NE(has_a, has_b) << "a=" << has_a << " b=" << has_b;
  auto fd = fs->Open(kRoot, has_a ? "/v/a" : "/v/b", vfs::kRead, 0);
  ASSERT_TRUE(fd.ok());
  std::string back(payload.size(), 0);
  ASSERT_TRUE(fs->Pread(*fd, back.data(), back.size(), 0).ok());
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(fs->Close(*fd).ok());
}

// Reads the whole (small) file at `path`; "" when it cannot be opened.
std::string ReadBack(fslib::FsLib* fs, const std::string& path) {
  auto st = fs->Stat(kRoot, path);
  auto fd = fs->Open(kRoot, path, vfs::kRead, 0);
  if (!st.ok() || !fd.ok()) {
    return "";
  }
  std::string back(st->size, 0);
  const bool ok = fs->Pread(*fd, back.data(), back.size(), 0).ok();
  (void)fs->Close(*fd);
  return ok ? back : "";
}

// Survivor-phase orchestration: the first thread to steal an inode lock
// starts `second` and gives it time to queue up behind that lock; the first
// thread past kKillMidRenameIntent pauses there with its intent committed.
struct Interleave {
  uint64_t steals0 = 0;
  std::function<void()> second;
  std::thread thread;
  std::atomic<bool> started{false};
  std::atomic<bool> paused{false};
};

bool InterleaveHandler(void* ctx, const char* point) {
  auto* il = static_cast<Interleave*>(ctx);
  if (strcmp(point, common::kKillHoldingInodeLock) == 0 &&
      zofs::LockStealCount() > il->steals0 && !il->started.exchange(true)) {
    il->thread = std::thread(il->second);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  } else if (strcmp(point, common::kKillMidRenameIntent) == 0 && !il->paused.exchange(true)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST_F(ProcmonTest, TwoSurvivorsTakeOverOneDeadRenameIntentOnce) {
  KillTenantAt(
      common::kKillMidRenameIntent,
      [&](fslib::FsLib* fs) {
        for (const char* dir : {"/v", "/v/w1", "/v/w2"}) {
          ASSERT_TRUE(fs->Mkdir(kTenant, dir, 0777).ok());
        }
        for (const char* path : {"/v/a", "/v/w1/x", "/v/w2/x"}) {
          auto fd = fs->Open(kTenant, path, vfs::kCreate | vfs::kWrite, 0666);
          ASSERT_TRUE(fd.ok());
          ASSERT_TRUE(fs->Write(*fd, path, strlen(path)).ok());
          ASSERT_TRUE(fs->Close(*fd).ok());
        }
      },
      [&](fslib::FsLib* fs) { (void)fs->Rename(kTenant, "/v/a", "/v/b"); });

  // Two survivor processes rename in their own directories of the dead
  // tenant's coffer; both find its committed intent in the slot they claim.
  // The first steals /v's lock to repair it while the second queues up
  // behind that lock, and claims the freed slot for its own rename. The
  // second must then see a live claim, not a dead intent to repair again:
  // a second repair would clear or roll forward the first one's intent.
  const uint64_t repairs0 = zofs::OnlineRepairCount();
  fslib::FsLib* fs1 = Survivor();
  fslib::FsLib* fs2 = stack_.AddProcess(kRoot);
  vfs::Status second = common::Err::kInval;
  Interleave il;
  il.steals0 = zofs::LockStealCount();
  il.second = [&] {
    zofs::ScopedTidOverride tid(8);
    fs2->BindThread();
    second = fs2->Rename(kRoot, "/v/w2/x", "/v/w2/y");
    mpk::BindThreadToProcess(nullptr);
  };
  common::InstallKillPoint(&InterleaveHandler, &il);
  vfs::Status first = common::Err::kInval;
  {
    zofs::ScopedTidOverride tid(7);
    fs1->BindThread();
    first = fs1->Rename(kRoot, "/v/w1/x", "/v/w1/y");
  }
  ASSERT_TRUE(il.started.load()) << "the first survivor never stole /v's lock";
  il.thread.join();
  common::InstallKillPoint(nullptr, nullptr);

  EXPECT_TRUE(first.ok()) << common::ErrName(first.error());
  EXPECT_TRUE(second.ok()) << common::ErrName(second.error());
  EXPECT_EQ(zofs::OnlineRepairCount() - repairs0, 1u);
  zofs::ScopedTidOverride tid(7);
  fs1->BindThread();
  EXPECT_EQ(ReadBack(fs1, "/v/w1/y"), "/v/w1/x");
  EXPECT_EQ(ReadBack(fs1, "/v/w2/y"), "/v/w2/x");
  EXPECT_FALSE(fs1->Stat(kRoot, "/v/w1/x").ok());
  EXPECT_FALSE(fs1->Stat(kRoot, "/v/w2/x").ok());
  EXPECT_FALSE(fs1->Stat(kRoot, "/v/a").ok());
  EXPECT_EQ(ReadBack(fs1, "/v/b"), "/v/a");
  stack_.Exit(fs2);
}

TEST_F(ProcmonTest, LockStealRepairsRenameIntentStampedAfterTheLock) {
  // The tenant stalls for 1 s between taking /v's lock and stamping its
  // rename intent, then dies mid-rename (a -> b, both names present). The
  // survivor arrives when the lock's lease has lapsed and the intent's has
  // not: the intent's holder needed the lock the survivor steals, so it is
  // dead whatever its stamp says, and is repaired before the survivor looks
  // anything up in /v.
  KillTenantAt(
      common::kKillMidRenameIntent,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0777).ok());
        for (const char* path : {"/v/a", "/v/x"}) {
          auto fd = fs->Open(kTenant, path, vfs::kCreate | vfs::kWrite, 0666);
          ASSERT_TRUE(fd.ok());
          ASSERT_TRUE(fs->Write(*fd, path, strlen(path)).ok());
          ASSERT_TRUE(fs->Close(*fd).ok());
        }
      },
      [&](fslib::FsLib* fs) { (void)fs->Rename(kTenant, "/v/a", "/v/b"); },
      /*stall_ns=*/1'000'000'000ull, /*lapse_ns=*/100'000'000ull);

  // Renaming over the dead rename's source: looked up before the repair,
  // 'a' would be the dead rename's child, and the overwrite would free the
  // inode /v/b still names.
  zofs::ScopedTidOverride tid(7);
  fslib::FsLib* fs = Survivor();
  vfs::Status s = fs->Rename(kRoot, "/v/x", "/v/a");
  ASSERT_TRUE(s.ok()) << common::ErrName(s.error());
  EXPECT_FALSE(fs->Stat(kRoot, "/v/x").ok());
  EXPECT_EQ(ReadBack(fs, "/v/a"), "/v/x");
  EXPECT_EQ(ReadBack(fs, "/v/b"), "/v/a");
  ASSERT_TRUE(fs->Unlink(kRoot, "/v/a").ok());
  EXPECT_EQ(ReadBack(fs, "/v/b"), "/v/a");
}

TEST(LeaseClaimTest, StaleClaimOfAFreeWordLeavesTheWinnersStamp) {
  // Two claimants read a word as free; the first claims it. The second,
  // acting on its stale view with a shorter lease, must fail without
  // touching the winner's expiry, or the winner's claim would lapse early.
  common::ScopedClockPin pin(1'000'000'000);
  nvm::Options o;
  o.size_bytes = 1ull << 20;
  nvm::NvmDevice dev(o);
  const uint64_t word = nvm::kPageSize;
  const uint64_t expiry = word + 8;
  EXPECT_EQ(zofs::TryClaimLease(&dev, word, expiry, 0, 1, 200'000'000), zofs::Claim::kClaimed);
  EXPECT_EQ(zofs::TryClaimLease(&dev, word, expiry, /*seen=*/0, 2, 1'000'000),
            zofs::Claim::kNone);
  EXPECT_EQ(dev.AtomicLoad64(word), 1u);
  EXPECT_EQ(dev.AtomicLoad64(expiry), 1'200'000'000u);
}

TEST_F(ProcmonTest, ReaperReclaimsDeadProcessResources) {
  const uint64_t mappings0 = kernfs::ReapedMappingCount();
  const uint64_t grants0 = kernfs::ReapedGrantPageCount();

  vfs::Fd vfd = 0;
  KillTenantAt(
      common::kKillHoldingInodeLock,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        auto fd = fs->Open(kTenant, "/v/f", vfs::kCreate | vfs::kWrite, 0600);
        ASSERT_TRUE(fd.ok());
        vfd = *fd;
        ASSERT_TRUE(fs->Write(vfd, "x", 1).ok());
        // Park an executed-but-unharvested grant for the tenant's own coffer
        // in the channel's completion ring.
        uint32_t vcid = 0;
        for (uint32_t cid : kfs_->AllCofferIds()) {
          const kernfs::CofferRoot* cr = kfs_->RootPageOf(cid);
          if (cr != nullptr && cr->uid == kTenant.uid) {
            vcid = cid;
          }
        }
        ASSERT_NE(vcid, 0u);
        kernfs::Channel* ch = fs->zofs().channels().Current();
        ASSERT_NE(ch, nullptr);
        ASSERT_NE(ch->SubmitEnlarge(vcid, 4), 0u);
        ch->Flush();
      },
      [&](fslib::FsLib* fs) {
        // Dies inside the Pwrite's InodeLock, grant still parked.
        std::string b(16, 'y');
        (void)fs->Pwrite(vfd, b.data(), b.size(), 0);
      });

  EXPECT_EQ(kfs_->DeadProcessCountForTest(), 1u);
  EXPECT_GE(kfs_->ReapDeadProcesses(), 1u);
  EXPECT_EQ(kfs_->DeadProcessCountForTest(), 0u);
  stack_.Exit(victim_);  // abandoned: touches nothing kernel-side

  // Mappings and the stranded grant came back without the corpse's help.
  EXPECT_GE(kernfs::ReapedMappingCount() - mappings0, 1u);
  EXPECT_GE(kernfs::ReapedGrantPageCount() - grants0, 4u);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();

  // The dead tenant's coffer is attachable by a successor: keys were freed.
  zofs::ScopedTidOverride tid(7);
  fslib::FsLib* fs = Survivor();
  auto st = fs->Stat(kRoot, "/v/f");
  ASSERT_TRUE(st.ok());
}

TEST(ProcmonSoakTest, SmallSoakCoversAllPointsAndIsByteStable) {
  procmon::SoakOptions o;
  o.seed = 42;
  o.tenants = 2;
  o.rounds = 10;
  o.ops_per_tenant_per_round = 10;
  o.stray_writes = 8;
  o.remount_every = 5;
  o.device_mb = 64;

  procmon::SoakReport a = procmon::RunSoak(o);
  EXPECT_TRUE(a.Clean()) << a.ToJson();
  EXPECT_GT(a.kills, 0u);
  for (int i = 0; i < 5; i++) {
    EXPECT_GT(a.kills_by_point[i], 0u) << procmon::kKillPointNames[i];
  }
  EXPECT_EQ(a.reaped_processes, a.kills);
  EXPECT_GT(a.lock_steals, 0u);
  EXPECT_GT(a.online_repairs, 0u);
  EXPECT_GT(a.stray_landed, 0u);
  EXPECT_GT(a.stray_blocked, 0u);

  procmon::SoakReport b = procmon::RunSoak(o);
  EXPECT_EQ(a.ToJson(), b.ToJson());  // the determinism contract
}

}  // namespace
