// Unit tests for the simulated MPK facility: PKRU bit semantics, per-thread
// windows, page-key checks, write protection and the unmapped sentinel.

#include <gtest/gtest.h>

#include <thread>

#include "src/mpk/keyclass.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"

namespace {

class MpkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvm::Options o;
    o.size_bytes = 1 << 20;  // 256 pages
    dev_ = std::make_unique<nvm::NvmDevice>(o);
    mpk::InstallDeviceHook(dev_.get());
    table_.assign(dev_->num_pages(), mpk::kUnmapped);
  }
  void TearDown() override { mpk::BindThreadToProcess(nullptr); }

  void Bind() { mpk::BindThreadToProcess(&table_); }

  std::unique_ptr<nvm::NvmDevice> dev_;
  mpk::PageKeyTable table_;
};

TEST_F(MpkTest, PkruBitHelpers) {
  uint32_t deny = mpk::PkruDenyAll();
  EXPECT_TRUE(mpk::PkruAllows(deny, 0, true));  // key 0 always open
  for (int k = 1; k < mpk::kNumKeys; k++) {
    EXPECT_FALSE(mpk::PkruAllows(deny, k, false));
  }
  uint32_t only3 = mpk::PkruAllowOnly(3, /*writable=*/false);
  EXPECT_TRUE(mpk::PkruAllows(only3, 3, false));
  EXPECT_FALSE(mpk::PkruAllows(only3, 3, true));  // write-disabled
  EXPECT_FALSE(mpk::PkruAllows(only3, 4, false));
  uint32_t rw3 = mpk::PkruAllowOnly(3, true);
  EXPECT_TRUE(mpk::PkruAllows(rw3, 3, true));
}

TEST_F(MpkTest, UnboundThreadUnchecked) {
  // No process bound: accesses pass (baseline file systems run this way).
  dev_->Store64(0, 1);
  EXPECT_EQ(dev_->Load64(0), 1u);
}

TEST_F(MpkTest, UnmappedPageFaults) {
  Bind();
  EXPECT_THROW(dev_->Store64(0, 1), mpk::ViolationError);
  EXPECT_THROW(mpk::CheckAccess(0, 8, false), mpk::ViolationError);
}

TEST_F(MpkTest, WindowOpensExactlyOneKey) {
  table_[1] = 5;
  table_[2] = 6;
  Bind();
  {
    mpk::AccessWindow w(5, true);
    dev_->Store64(1 * nvm::kPageSize, 77);  // key 5: ok
    EXPECT_THROW(dev_->Store64(2 * nvm::kPageSize, 1), mpk::ViolationError);  // key 6
  }
  // Window closed: key 5 no longer accessible.
  EXPECT_THROW(dev_->Store64(1 * nvm::kPageSize, 1), mpk::ViolationError);
}

TEST_F(MpkTest, ReadOnlyWindowBlocksWrites) {
  table_[1] = 4;
  Bind();
  mpk::AccessWindow w(4, /*writable=*/false);
  mpk::CheckAccess(1 * nvm::kPageSize, 8, false);  // read ok
  EXPECT_THROW(dev_->Store64(1 * nvm::kPageSize, 1), mpk::ViolationError);
}

TEST_F(MpkTest, PageTableWriteProtectIndependentOfPkru) {
  table_[1] = 4 | mpk::kPageReadOnly;  // e.g. a coffer root page
  Bind();
  mpk::AccessWindow w(4, /*writable=*/true);
  mpk::CheckAccess(1 * nvm::kPageSize, 8, false);  // read fine
  EXPECT_THROW(dev_->Store64(1 * nvm::kPageSize, 1), mpk::ViolationError);
}

TEST_F(MpkTest, NestedWindowsRestore) {
  table_[1] = 2;
  table_[2] = 3;
  Bind();
  mpk::AccessWindow outer(2, true);
  dev_->Store64(1 * nvm::kPageSize, 1);
  {
    mpk::AccessWindow inner(3, true);
    dev_->Store64(2 * nvm::kPageSize, 1);
    EXPECT_THROW(dev_->Store64(1 * nvm::kPageSize, 1), mpk::ViolationError);  // G2
  }
  dev_->Store64(1 * nvm::kPageSize, 2);  // outer window restored
}

TEST_F(MpkTest, MultiPageAccessChecksEveryPage) {
  table_[1] = 2;
  // page 2 stays unmapped
  Bind();
  mpk::AccessWindow w(2, true);
  std::vector<uint8_t> buf(2 * nvm::kPageSize, 0);
  EXPECT_THROW(dev_->StoreBytes(1 * nvm::kPageSize, buf.data(), buf.size()),
               mpk::ViolationError);
}

TEST_F(MpkTest, PkruIsPerThread) {
  table_[1] = 2;
  Bind();
  mpk::AccessWindow w(2, true);
  dev_->Store64(1 * nvm::kPageSize, 1);  // this thread: open

  // Another thread bound to the same process but without the window: denied.
  bool other_thread_denied = false;
  std::thread t([&]() {
    mpk::BindThreadToProcess(&table_);
    try {
      dev_->Store64(1 * nvm::kPageSize, 2);
    } catch (const mpk::ViolationError&) {
      other_thread_denied = true;
    }
    mpk::BindThreadToProcess(nullptr);
  });
  t.join();
  EXPECT_TRUE(other_thread_denied);
}

TEST_F(MpkTest, ViolationCarriesDetails) {
  table_[3] = 7;
  Bind();
  try {
    dev_->Store64(3 * nvm::kPageSize + 64, 1);
    FAIL() << "expected violation";
  } catch (const mpk::ViolationError& v) {
    EXPECT_EQ(v.off, 3 * nvm::kPageSize);
    EXPECT_EQ(v.key, 7);
    EXPECT_TRUE(v.is_write);
  }
}

TEST_F(MpkTest, OutOfRangeTableFaults) {
  Bind();
  EXPECT_THROW(mpk::CheckAccess(dev_->size() + nvm::kPageSize, 8, false), mpk::ViolationError);
}

TEST(KeyClassTableTest, ReleaseExactlyOnceUnderReaperRace) {
  // ISSUE 10: the dead-process reaper can race a queued retag for the same
  // mapping — both sides call Release(slot, coffer). The second call must be
  // a no-op per (slot, coffer_id), or the key would be double-freed and
  // handed to two classes at once.
  mpk::KeyClassTable t;
  uint16_t slots[15];
  uint16_t evicted = 0;
  bool fresh = false;
  // Fill the 15-key budget with 15 live single-member classes.
  for (int i = 0; i < 15; i++) {
    slots[i] = t.SlotFor(mpk::ProtClass{100, 100, static_cast<uint16_t>(0600 + i)});
    ASSERT_NE(slots[i], mpk::KeyClassTable::kNoSlot);
    t.Retain(slots[i], 100 + i);
    ASSERT_NE(t.EnsureKey(slots[i], &evicted, &fresh), mpk::kUnmapped);
    ASSERT_EQ(evicted, mpk::KeyClassTable::kNoSlot);
  }
  EXPECT_TRUE(t.Release(slots[0], 100));   // last member: the key is freed
  EXPECT_FALSE(t.Release(slots[0], 100));  // replayed release: no-op
  EXPECT_EQ(t.PublishedKey(slots[0]), mpk::kUnmapped);
  // Exactly one key came back: a 16th class keys up without evicting...
  uint16_t s16 = t.SlotFor(mpk::ProtClass{100, 100, 0777});
  t.Retain(s16, 200);
  ASSERT_NE(t.EnsureKey(s16, &evicted, &fresh), mpk::kUnmapped);
  EXPECT_EQ(evicted, mpk::KeyClassTable::kNoSlot);
  // ...and a 17th must run the LRU window (a double-free would have left a
  // phantom free key shared with a live class).
  uint16_t s17 = t.SlotFor(mpk::ProtClass{100, 100, 0755});
  t.Retain(s17, 201);
  ASSERT_NE(t.EnsureKey(s17, &evicted, &fresh), mpk::kUnmapped);
  EXPECT_NE(evicted, mpk::KeyClassTable::kNoSlot);
}

TEST(KeyClassTableTest, RepeatedTouchKeepsLruOrder) {
  // Touch skips its write when the slot already holds the freshest stamp. On
  // a fresh table the clock and every stamp are 0, so that skip must not
  // fire before the first stamp: otherwise no class is ever stamped, all tie,
  // and the victim scan takes slot 0 however recently it was used.
  mpk::KeyClassTable t;
  uint16_t evicted = 0;
  bool fresh = false;
  for (int i = 0; i < 15; i++) {
    const uint16_t slot = t.SlotFor(mpk::ProtClass{100, 100, static_cast<uint16_t>(0600 + i)});
    ASSERT_EQ(slot, i);
    t.Retain(slot, 100 + i);
    ASSERT_NE(t.EnsureKey(slot, &evicted, &fresh), mpk::kUnmapped);
    ASSERT_EQ(evicted, mpk::KeyClassTable::kNoSlot);
  }
  for (int i = 0; i < 3; i++) {
    t.Touch(0);
  }
  const uint16_t s15 = t.SlotFor(mpk::ProtClass{100, 100, 0777});
  t.Retain(s15, 200);
  ASSERT_NE(t.EnsureKey(s15, &evicted, &fresh), mpk::kUnmapped);
  EXPECT_EQ(evicted, 1u);
  EXPECT_NE(t.PublishedKey(0), mpk::kUnmapped);
}

// Keys 15 classes in slot order, so slot i holds stamp i + 1 and the clock
// reads 15.
void KeyFifteen(mpk::KeyClassTable& t) {
  uint16_t evicted = 0;
  bool fresh = false;
  for (int i = 0; i < 15; i++) {
    const uint16_t slot = t.SlotFor(mpk::ProtClass{100, 100, static_cast<uint16_t>(0600 + i)});
    ASSERT_EQ(slot, i);
    t.Retain(slot, 100 + i);
    ASSERT_NE(t.EnsureKey(slot, &evicted, &fresh), mpk::kUnmapped);
    ASSERT_EQ(evicted, mpk::KeyClassTable::kNoSlot);
    ASSERT_EQ(t.StampForTest(slot), i + 1u);
  }
}

// The class a 16th class's EnsureKey demotes.
uint16_t NextVictim(mpk::KeyClassTable& t) {
  const uint16_t s = t.SlotFor(mpk::ProtClass{100, 100, 0777});
  t.Retain(s, 200);
  uint16_t evicted = 0;
  bool fresh = false;
  EXPECT_NE(t.EnsureKey(s, &evicted, &fresh), mpk::kUnmapped);
  return evicted;
}

TEST(KeyClassTableTest, RecentTouchWritesNothing) {
  // A slot fewer than kTouchSlack stamps behind the clock keeps its stamp,
  // and the clock does not move: the next re-stamp is clock + 1.
  constexpr uint64_t kSlack = mpk::KeyClassTable::kTouchSlack;
  mpk::KeyClassTable t;
  KeyFifteen(t);
  for (uint16_t i = 15 - kSlack; i < 15; i++) {
    t.Touch(i);
  }
  for (uint16_t i = 0; i < 15; i++) {
    EXPECT_EQ(t.StampForTest(i), i + 1u) << "slot " << i;
  }
  const uint16_t stale = 14 - kSlack;  // exactly kTouchSlack behind
  t.Touch(stale);
  EXPECT_EQ(t.StampForTest(stale), 16u);
}

TEST(KeyClassTableTest, TouchedClassOutlivesFewerThanSlackOtherStamps) {
  // One thread touches class A, then m other keyed classes, oldest first;
  // a 16th class then takes a key. For m <= 14 - kTouchSlack the victim is
  // never A, wherever A's stamp sat. The bound is tight: A touched while
  // kTouchSlack - 1 stamps behind keeps that stamp, and once the 15 -
  // kTouchSlack classes older than it are stamped, A is the oldest.
  constexpr uint64_t kSlack = mpk::KeyClassTable::kTouchSlack;
  for (uint16_t a = 0; a < 15; a++) {
    for (uint64_t m = 0; m <= 14 - kSlack; m++) {
      SCOPED_TRACE(testing::Message() << "A = slot " << a << ", " << m << " others");
      mpk::KeyClassTable t;
      KeyFifteen(t);
      t.Touch(a);
      uint64_t touched = 0;
      for (uint16_t i = 0; i < 15 && touched < m; i++) {
        if (i != a) {
          t.Touch(i);
          touched++;
        }
      }
      EXPECT_NE(NextVictim(t), a);
    }
  }
  mpk::KeyClassTable t;
  KeyFifteen(t);
  const uint16_t a = 15 - kSlack;
  t.Touch(a);
  ASSERT_EQ(t.StampForTest(a), a + 1u);
  for (uint16_t i = 0; i < a; i++) {
    t.Touch(i);
  }
  EXPECT_EQ(NextVictim(t), a);
}

TEST(KeyClassTableTest, SlotForFailsOnlyAtSlotSpaceLimit) {
  // Slots are 16-bit with kNoSlot reserved: 65,535 distinct classes get
  // slots, the next class does not, and known classes still resolve.
  mpk::KeyClassTable t;
  constexpr uint32_t kSlots = mpk::KeyClassTable::kNoSlot;
  for (uint32_t i = 0; i < kSlots; i++) {
    ASSERT_EQ(t.SlotFor(mpk::ProtClass{i, 0, 0644}), i);
  }
  EXPECT_EQ(t.SlotFor(mpk::ProtClass{kSlots, 0, 0644}), mpk::KeyClassTable::kNoSlot);
  EXPECT_EQ(t.SlotFor(mpk::ProtClass{7, 0, 0644}), 7u);
  // The last slot is fully usable: it keys up and publishes its key.
  const uint16_t last = static_cast<uint16_t>(kSlots - 1);
  t.Retain(last, 1);
  uint16_t evicted = 0;
  bool fresh = false;
  const uint8_t key = t.EnsureKey(last, &evicted, &fresh);
  ASSERT_NE(key, mpk::kUnmapped);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(t.PublishedKey(last), key);
}

}  // namespace
