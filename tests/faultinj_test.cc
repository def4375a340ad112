// Fault-injection campaign tests: the hardened stack must turn arbitrary
// coffer metadata corruption into clean errors (no crashes, hangs, or
// cross-coffer escapes), the planted raw-dereference hook must make the
// campaign report crashes again (regression check on the harness itself),
// and a quarantined coffer must fail fast with bounded backoff while its
// siblings stay live.

#include <gtest/gtest.h>

#include <cstddef>

#include "src/common/clock.h"
#include "src/faultinj/faultinj.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"
#include "src/zofs/zofs.h"

namespace {

using common::Err;

TEST(FaultInjCampaign, HardenedBuildSurvivesAllFaultClasses) {
  faultinj::CampaignOptions opts;
  opts.threads = 8;
  faultinj::CampaignReport rep = faultinj::RunCampaign(opts);

  ASSERT_TRUE(rep.setup_error.empty()) << rep.setup_error;
  ASSERT_GT(rep.trials, 0u);
  // The control trial (no corruption) must come out benign, or the harness
  // itself is broken and the other outcomes mean nothing.
  ASSERT_FALSE(rep.results.empty());
  EXPECT_EQ(rep.results[0].fault, faultinj::FaultClass::kControl);
  EXPECT_EQ(rep.results[0].outcome, faultinj::Outcome::kBenign)
      << rep.results[0].detail;
  // Every fault class must actually have run.
  for (size_t i = 0; i < std::size(faultinj::kAllFaultClasses); i++) {
    EXPECT_GT(rep.by_class[i].trials, 0u)
        << "class " << faultinj::FaultClassName(faultinj::kAllFaultClasses[i]) << " never ran";
  }
  // The acceptance bar: nothing crashed, hung, or escaped its coffer.
  EXPECT_EQ(rep.totals.crashes, 0u) << rep.ToText();
  EXPECT_EQ(rep.totals.hangs, 0u) << rep.ToText();
  EXPECT_EQ(rep.totals.escapes, 0u) << rep.ToText();
  EXPECT_TRUE(rep.Clean());
  // Corruption is not invisible either: a healthy campaign detects plenty.
  EXPECT_GT(rep.totals.detected, 10u);
}

TEST(FaultInjCampaign, PlantedRawDerefReportsCrashes) {
  // Re-enable the pre-hardening dereference discipline: pointer-class faults
  // must once again take the simulated page fault, and the campaign must
  // say so. This is the regression check that the harness can still see a
  // crash when one exists.
  faultinj::CampaignOptions opts;
  opts.threads = 8;
  opts.raw_deref_for_test = true;
  faultinj::CampaignReport rep = faultinj::RunCampaign(opts);

  ASSERT_TRUE(rep.setup_error.empty()) << rep.setup_error;
  EXPECT_GE(rep.totals.crashes + rep.totals.escapes, 1u) << rep.ToText();
  EXPECT_FALSE(rep.Clean());
  // The wild-pointer classes in particular must crash without validation.
  const size_t oor = 3;  // kBlkptrOutOfRange position in kAllFaultClasses
  ASSERT_EQ(faultinj::kAllFaultClasses[oor], faultinj::FaultClass::kBlkptrOutOfRange);
  EXPECT_GT(rep.by_class[oor].crashes, 0u) << rep.ToText();
}

TEST(FaultInjCampaign, ReportIsDeterministicAcrossThreadCounts) {
  faultinj::CampaignOptions opts;
  opts.max_trials = 12;
  opts.threads = 2;
  faultinj::CampaignReport a = faultinj::RunCampaign(opts);
  opts.threads = 5;
  faultinj::CampaignReport b = faultinj::RunCampaign(opts);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_EQ(a.ToText(), b.ToText());
}

// ---------------------------------------------------------------------------
// Sick-coffer lifecycle: quarantine, bounded backoff, sibling isolation,
// KernFS-mediated repair.

class SickCofferTest : public ::testing::Test {
 protected:
  // Pins logical time so the quarantine backoff plays out deterministically.
  common::ScopedClockPin clock_{1'000'000'000'000ull};
  testbed::Stack stack_{{.size_bytes = 64ull << 20, .media = {}}, {.root_mode = 0755}};
  nvm::NvmDevice* dev_ = stack_.dev();
  kernfs::KernFs* kfs_ = stack_.kfs();
};

TEST_F(SickCofferTest, QuarantineBacksOffIsolatesSiblingsAndRecovers) {
  constexpr uint64_t kBackoffNs = 10'000'000;
  zofs::Options zo;
  zo.sick_backoff_ns = kBackoffNs;
  fslib::FsLib& p = *stack_.AddProcess(vfs::Cred{0, 0}, zo);
  vfs::Cred c{0, 0};

  // A private (0600) file gets its own coffer; a root-coffer sibling rides
  // along to prove isolation.
  auto sfd = p.Open(c, "/secret", vfs::kCreate | vfs::kRdWr, 0600);
  ASSERT_TRUE(sfd.ok());
  std::string data(2 * nvm::kPageSize, 'z');
  ASSERT_TRUE(p.Pwrite(*sfd, data.data(), data.size(), 0).ok());
  auto ofd = p.Open(c, "/other", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(ofd.ok());
  ASSERT_TRUE(p.Pwrite(*ofd, "ok", 2, 0).ok());

  auto node = p.zofs().Lookup("/secret", true);
  ASSERT_TRUE(node.ok());
  const uint32_t cid = node->coffer_id;
  ASSERT_NE(cid, kfs_->root_coffer_id());

  // Structural damage: a block pointer that cannot be a page. Unlike a
  // smashed inode magic (object-local), this distrusts the coffer's whole
  // pointer graph and must quarantine it.
  auto info = p.zofs().EnsureMappedForTest(cid, true);
  ASSERT_TRUE(info.ok());
  {
    mpk::AccessWindow w(info->key, true);
    dev_->Store64(node->inode_off + offsetof(zofs::Inode, direct), 0x3);
  }

  char buf[16];
  auto r = p.Pread(*sfd, buf, sizeof(buf), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::kCorrupt);
  EXPECT_EQ(p.zofs().Health(cid), zofs::CofferHealth::kSick);

  // Quarantined: retries inside the backoff window fail fast with EIO
  // rather than re-walking the corruption.
  r = p.Pread(*sfd, buf, sizeof(buf), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::kIo);

  // Sibling coffers stay fully live.
  EXPECT_EQ(p.zofs().Health(kfs_->root_coffer_id()), zofs::CofferHealth::kHealthy);
  EXPECT_TRUE(p.Stat(c, "/other").ok());
  auto tfd = p.Open(c, "/third", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(tfd.ok());
  EXPECT_TRUE(p.Pwrite(*tfd, "live", 4, 0).ok());

  // After the backoff elapses one probe is admitted; the coffer is still
  // corrupt, so it fails with EUCLEAN and the backoff doubles.
  common::AdvanceNowNsForTest(kBackoffNs + 1);
  r = p.Pread(*sfd, buf, sizeof(buf), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::kCorrupt);
  r = p.Pread(*sfd, buf, sizeof(buf), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::kIo);
  // The doubled deadline outlives the original backoff interval.
  common::AdvanceNowNsForTest(kBackoffNs + 1);
  r = p.Pread(*sfd, buf, sizeof(buf), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::kIo);

  // KernFS-mediated fsck bypasses the quarantine, reclaims what the bad
  // pointer stranded, and lifts the sick state.
  auto rec = p.zofs().RecoverCoffer(cid);
  ASSERT_TRUE(rec.ok()) << common::ErrName(rec.error());
  EXPECT_EQ(p.zofs().Health(cid), zofs::CofferHealth::kHealthy);
  // Siblings were never disturbed.
  std::string check(2, '\0');
  auto rr = p.Pread(*ofd, check.data(), 2, 0);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(check, "ok");
}

}  // namespace
