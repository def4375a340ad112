// Unit tests for the NVM device model: persistence primitives and the crash
// model (stores not written back + fenced are rolled back).

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/nvm/nvm.h"

namespace {

nvm::Options TrackedOpts() {
  nvm::Options o;
  o.size_bytes = 1 << 20;
  o.crash_tracking = true;
  return o;
}

TEST(NvmTest, BasicStoreLoadRoundtrip) {
  nvm::NvmDevice dev(TrackedOpts());
  dev.Store64(128, 0x1122334455667788ULL);
  EXPECT_EQ(dev.Load64(128), 0x1122334455667788ULL);
  const char msg[] = "persistent memory";
  dev.StoreBytes(4096, msg, sizeof(msg));
  char buf[sizeof(msg)];
  dev.LoadBytes(4096, buf, sizeof(msg));
  EXPECT_STREQ(buf, msg);
}

TEST(NvmTest, CrashRollsBackUnflushedStore) {
  nvm::NvmDevice dev(TrackedOpts());
  dev.Store64(64, 1);
  dev.PersistRange(64, 8);
  dev.Store64(64, 2);  // dirty, not persisted
  EXPECT_EQ(dev.SimulateCrash(), 1u);
  EXPECT_EQ(dev.Load64(64), 1u);
}

TEST(NvmTest, CrashKeepsPersistedStore) {
  nvm::NvmDevice dev(TrackedOpts());
  dev.Store64(64, 42);
  dev.Clwb(64, 8);
  dev.Sfence();
  dev.SimulateCrash();
  EXPECT_EQ(dev.Load64(64), 42u);
}

TEST(NvmTest, ClwbWithoutFenceIsStillVolatile) {
  // Strict model: written back but unfenced lines may be lost.
  nvm::NvmDevice dev(TrackedOpts());
  dev.Store64(64, 7);
  dev.Clwb(64, 8);
  // no Sfence
  EXPECT_GE(dev.SimulateCrash(), 1u);
  EXPECT_EQ(dev.Load64(64), 0u);
}

TEST(NvmTest, RedirtyAfterClwbKeepsOriginalPreImage) {
  nvm::NvmDevice dev(TrackedOpts());
  dev.Store64(64, 1);
  dev.PersistRange(64, 8);  // 1 is durable
  dev.Store64(64, 2);
  dev.Clwb(64, 8);
  dev.Store64(64, 3);  // re-dirty before the fence
  dev.SimulateCrash();
  EXPECT_EQ(dev.Load64(64), 1u);  // rolls all the way back to the durable value
}

TEST(NvmTest, NtStorePersistsAtFence) {
  nvm::NvmDevice dev(TrackedOpts());
  uint8_t data[256];
  memset(data, 0xab, sizeof(data));
  dev.NtStoreBytes(8192, data, sizeof(data));
  dev.Sfence();
  dev.SimulateCrash();
  uint8_t buf[256];
  dev.LoadBytes(8192, buf, sizeof(buf));
  EXPECT_EQ(memcmp(buf, data, sizeof(buf)), 0);
}

TEST(NvmTest, NtStoreWithoutFenceRollsBack) {
  nvm::NvmDevice dev(TrackedOpts());
  uint8_t data[64];
  memset(data, 0xcd, sizeof(data));
  dev.NtStoreBytes(8192, data, sizeof(data));
  dev.SimulateCrash();
  EXPECT_EQ(dev.Load64(8192), 0u);
}

TEST(NvmTest, MultiLineStoreTracksEveryLine) {
  nvm::NvmDevice dev(TrackedOpts());
  uint8_t data[300];  // spans 5-6 cachelines
  memset(data, 0x11, sizeof(data));
  dev.StoreBytes(100, data, sizeof(data));
  EXPECT_GE(dev.DirtyLineCountForTest(), 5u);
  dev.PersistRange(100, sizeof(data));
  EXPECT_EQ(dev.DirtyLineCountForTest(), 0u);
}

TEST(NvmTest, PartialPersistRollsBackTheRest) {
  nvm::NvmDevice dev(TrackedOpts());
  dev.Store64(0, 10);
  dev.Store64(512, 20);
  dev.PersistRange(0, 8);  // only the first line
  dev.SimulateCrash();
  EXPECT_EQ(dev.Load64(0), 10u);
  EXPECT_EQ(dev.Load64(512), 0u);
}

TEST(NvmTest, AtomicOps) {
  nvm::NvmDevice dev(TrackedOpts());
  dev.AtomicStore64(256, 5);
  EXPECT_EQ(dev.AtomicLoad64(256), 5u);
  EXPECT_TRUE(dev.AtomicCas64(256, 5, 6));
  EXPECT_FALSE(dev.AtomicCas64(256, 5, 7));
  EXPECT_EQ(dev.AtomicFetchAdd64(256, 10), 6u);
  EXPECT_EQ(dev.AtomicLoad64(256), 16u);
}

TEST(NvmTest, MarkAllPersistentClearsTracking) {
  nvm::NvmDevice dev(TrackedOpts());
  dev.Store64(0, 99);
  dev.MarkAllPersistent();
  dev.SimulateCrash();
  EXPECT_EQ(dev.Load64(0), 99u);
}

TEST(NvmTest, CountersAdvance) {
  nvm::NvmDevice dev(TrackedOpts());
  dev.ResetCounters();
  uint64_t v = 1;
  dev.StoreBytes(0, &v, 8);
  dev.Clwb(0, 8);
  dev.Sfence();
  EXPECT_EQ(dev.clwb_count(), 1u);
  EXPECT_EQ(dev.sfence_count(), 1u);
  EXPECT_EQ(dev.bytes_written(), 8u);

  // The counters are striped per thread: concurrent persists from several
  // threads still sum to the exact totals, whichever thread reads them.
  dev.ResetCounters();
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  constexpr size_t kBytes = 96;  // spans two cachelines
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&dev, t] {
      const uint64_t off = static_cast<uint64_t>(t) * nvm::kPageSize;
      uint8_t buf[kBytes] = {};
      for (int i = 0; i < kIters; i++) {
        buf[0] = static_cast<uint8_t>(i);
        dev.StoreBytes(off, buf, kBytes);
        dev.Clwb(off, kBytes);
        dev.Sfence();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(dev.clwb_count(), uint64_t{kThreads} * kIters * 2);
  EXPECT_EQ(dev.sfence_count(), uint64_t{kThreads} * kIters);
  EXPECT_EQ(dev.bytes_written(), uint64_t{kThreads} * kIters * kBytes);
}

TEST(NvmTest, ContainsRejectsOverflowingRange) {
  nvm::NvmDevice dev(TrackedOpts());  // 1 MiB
  const uint64_t size = dev.size();
  EXPECT_TRUE(dev.Contains(0, 8));
  EXPECT_TRUE(dev.Contains(size - 8, 8));
  EXPECT_TRUE(dev.Contains(size, 0));
  EXPECT_FALSE(dev.Contains(size, 1));
  // Regression: off + len used to be computed as a raw sum, so a huge len (or
  // off near UINT64_MAX) wrapped around and the check wrongly passed.
  EXPECT_FALSE(dev.Contains(~uint64_t{0}, 16));
  EXPECT_FALSE(dev.Contains(8, ~size_t{0}));
  EXPECT_FALSE(dev.Contains(size - 8, ~size_t{0} - 4));
}

TEST(NvmTest, OffsetPointerRoundtrip) {
  nvm::NvmDevice dev(TrackedOpts());
  void* p = dev.At(12345);
  EXPECT_EQ(dev.OffsetOf(p), 12345u);
}

TEST(NvmTest, MediaProfilesExposeAsymmetry) {
  auto optane = nvm::MediaProfile::OptaneLike();
  auto dram = nvm::MediaProfile::DramLike();
  EXPECT_GT(optane.read_latency_ns, dram.read_latency_ns);
  EXPECT_GT(optane.read_gbps, optane.write_gbps);  // reads faster than writes
  EXPECT_TRUE(optane.enabled());
  EXPECT_FALSE(nvm::MediaProfile{}.enabled());
}

}  // namespace
