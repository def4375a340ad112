// Tests for the LevelDB-like LSM key-value store.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "src/apps/kvstore/kvstore.h"
#include "src/common/rand.h"
#include "src/harness/fslab.h"
#include "src/mpk/mpk.h"

namespace {

using common::Err;
using common::Result;
using common::Status;

const vfs::Cred kRoot{0, 0};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

// The record format of the WAL and the tables, encoded by hand: u32 key
// length, u32 value length (0xffffffff for a tombstone), key, value; the
// integers little-endian.
void AppendU32(std::string* out, uint32_t v) {
  for (int b = 0; b < 4; b++) {
    out->push_back(static_cast<char>(v >> (8 * b)));
  }
}
void AppendRecord(std::string* out, const std::string& key,
                  const std::optional<std::string>& value) {
  AppendU32(out, static_cast<uint32_t>(key.size()));
  AppendU32(out, value ? static_cast<uint32_t>(value->size()) : 0xffffffffu);
  *out += key;
  if (value) {
    *out += *value;
  }
}

using Entries = std::vector<std::pair<std::string, std::string>>;

// Every live entry, in key order, as the Db's iterator yields them.
Entries Scan(kvstore::Db* db) {
  Entries out;
  auto iter = db->NewIterator();
  EXPECT_TRUE(iter.ok());
  for (; iter.ok() && iter->Valid(); iter->Next()) {
    out.emplace_back(iter->key(), iter->value());
  }
  return out;
}

Entries Of(const std::map<std::string, std::string>& model) {
  return Entries(model.begin(), model.end());
}

// Forwards every call to `base` and counts the Preads.
class CountingFs final : public vfs::FileSystem {
 public:
  explicit CountingFs(vfs::FileSystem* base) : base_(base) {}
  uint64_t preads() const { return preads_; }

  const char* Name() const override { return base_->Name(); }
  Result<vfs::Fd> Open(const vfs::Cred& c, const std::string& p, uint32_t f,
                       uint16_t m) override {
    return base_->Open(c, p, f, m);
  }
  Status Close(vfs::Fd fd) override { return base_->Close(fd); }
  Result<size_t> Read(vfs::Fd fd, void* b, size_t n) override { return base_->Read(fd, b, n); }
  Result<size_t> Write(vfs::Fd fd, const void* b, size_t n) override {
    return base_->Write(fd, b, n);
  }
  Result<size_t> Pread(vfs::Fd fd, void* b, size_t n, uint64_t off) override {
    preads_++;
    return base_->Pread(fd, b, n, off);
  }
  Result<size_t> Pwrite(vfs::Fd fd, const void* b, size_t n, uint64_t off) override {
    return base_->Pwrite(fd, b, n, off);
  }
  Result<uint64_t> Lseek(vfs::Fd fd, int64_t off, int whence) override {
    return base_->Lseek(fd, off, whence);
  }
  Status Fsync(vfs::Fd fd) override { return base_->Fsync(fd); }
  Result<vfs::StatBuf> Fstat(vfs::Fd fd) override { return base_->Fstat(fd); }
  Status Ftruncate(vfs::Fd fd, uint64_t len) override { return base_->Ftruncate(fd, len); }
  Result<vfs::Fd> Dup(vfs::Fd fd) override { return base_->Dup(fd); }
  Status Mkdir(const vfs::Cred& c, const std::string& p, uint16_t m) override {
    return base_->Mkdir(c, p, m);
  }
  Status Rmdir(const vfs::Cred& c, const std::string& p) override { return base_->Rmdir(c, p); }
  Status Unlink(const vfs::Cred& c, const std::string& p) override { return base_->Unlink(c, p); }
  Result<vfs::StatBuf> Stat(const vfs::Cred& c, const std::string& p) override {
    return base_->Stat(c, p);
  }
  Result<std::vector<vfs::DirEntry>> ReadDir(const vfs::Cred& c, const std::string& p) override {
    return base_->ReadDir(c, p);
  }
  Status Rename(const vfs::Cred& c, const std::string& from, const std::string& to) override {
    return base_->Rename(c, from, to);
  }
  Status Chmod(const vfs::Cred& c, const std::string& p, uint16_t m) override {
    return base_->Chmod(c, p, m);
  }
  Status Chown(const vfs::Cred& c, const std::string& p, uint32_t uid, uint32_t gid) override {
    return base_->Chown(c, p, uid, gid);
  }
  Status Symlink(const vfs::Cred& c, const std::string& target,
                 const std::string& link) override {
    return base_->Symlink(c, target, link);
  }
  Result<std::string> ReadLink(const vfs::Cred& c, const std::string& p) override {
    return base_->ReadLink(c, p);
  }

 private:
  vfs::FileSystem* base_;
  uint64_t preads_ = 0;
};

class KvStoreTest : public ::testing::TestWithParam<harness::FsKind> {
 protected:
  void SetUp() override {
    harness::LabOptions lo;
    lo.dev_bytes = 512ull << 20;
    lo.kernel_crossing_ns = 0;
    lab_ = std::make_unique<harness::FsLab>(GetParam(), lo);
    fs_ = lab_->View(0);
  }
  void TearDown() override {
    lab_.reset();
    mpk::BindThreadToProcess(nullptr);
  }

  // Replaces (or creates) `path` with `bytes`.
  void WriteFile(const std::string& path, const std::string& bytes) {
    auto fd = fs_->Open(kRoot, path, vfs::kCreate | vfs::kRdWr | vfs::kTrunc, 0644);
    ASSERT_TRUE(fd.ok()) << path;
    auto n = fs_->Pwrite(*fd, bytes.data(), bytes.size(), 0);
    ASSERT_TRUE(n.ok() && *n == bytes.size()) << path;
    ASSERT_TRUE(fs_->Fsync(*fd).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }

  std::vector<std::string> Tables(const std::string& dir) {
    std::vector<std::string> out;
    auto entries = fs_->ReadDir(kRoot, dir);
    for (const vfs::DirEntry& e : *entries) {
      if (e.name.rfind("sst_", 0) == 0) {
        out.push_back(dir + "/" + e.name);
      }
    }
    return out;
  }

  std::unique_ptr<harness::FsLab> lab_;
  vfs::FileSystem* fs_ = nullptr;
};

TEST_P(KvStoreTest, PutGetDelete) {
  auto db = kvstore::Db::Open(fs_, "/db");
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k1", "v1").ok());
  ASSERT_TRUE((*db)->Put("k2", "v2").ok());
  EXPECT_EQ(*(*db)->Get("k1"), "v1");
  EXPECT_EQ(*(*db)->Get("k2"), "v2");
  ASSERT_TRUE((*db)->Delete("k1").ok());
  EXPECT_FALSE((*db)->Get("k1").ok());
  EXPECT_EQ(*(*db)->Get("k2"), "v2");
}

TEST_P(KvStoreTest, OverwriteReturnsLatest) {
  auto db = kvstore::Db::Open(fs_, "/db");
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE((*db)->Put("key", "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(*(*db)->Get("key"), "v9");
}

TEST_P(KvStoreTest, FlushAndReadThroughTables) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 8 * 1024;  // force frequent flushes
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE((*db)->Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  EXPECT_GT((*db)->table_count(), 0u);
  for (int i = 0; i < 500; i += 17) {
    auto v = (*db)->Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
}

TEST_P(KvStoreTest, CompactionPreservesData) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 4 * 1024;
  opts.compact_trigger = 3;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE((*db)->Put("k" + std::to_string(i % 150), "gen" + std::to_string(i)).ok());
  }
  EXPECT_LE((*db)->table_count(), 3u);  // compaction kept the count bounded
  // Every key returns its newest generation.
  for (int k = 0; k < 150; k++) {
    auto v = (*db)->Get("k" + std::to_string(k));
    ASSERT_TRUE(v.ok()) << k;
    int gen = std::stoi(v->substr(3));
    EXPECT_EQ(gen % 150, k);
    EXPECT_GE(gen, 450);  // one of the last generations
  }
}

TEST_P(KvStoreTest, TombstonesSurviveFlushAndCompaction) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 4 * 1024;
  opts.compact_trigger = 3;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE((*db)->Put("k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE((*db)->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
  for (int i = 0; i < 200; i++) {
    auto v = (*db)->Get("k" + std::to_string(i));
    EXPECT_EQ(v.ok(), i % 2 == 1) << i;
  }
}

TEST_P(KvStoreTest, ReopenRecoversFromWalAndTables) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 16 * 1024;
  {
    auto db = kvstore::Db::Open(fs_, "/db", opts);
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE((*db)->Put("p" + std::to_string(i), "q" + std::to_string(i)).ok());
    }
    // Destructor closes FDs; WAL holds the unflushed tail.
  }
  auto db2 = kvstore::Db::Open(fs_, "/db", opts);
  ASSERT_TRUE(db2.ok());
  for (int i = 0; i < 300; i += 13) {
    auto v = (*db2)->Get("p" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "q" + std::to_string(i));
  }
}

TEST_P(KvStoreTest, IteratorYieldsSortedLiveKeys) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 4 * 1024;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  common::Rng rng(9);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; i++) {
    std::string k = "k" + std::to_string(rng.Below(200));
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE((*db)->Put(k, v).ok());
    model[k] = v;
  }
  for (int i = 0; i < 50; i++) {
    std::string k = "k" + std::to_string(rng.Below(200));
    (*db)->Delete(k);
    model.erase(k);
  }
  auto iter = (*db)->NewIterator();
  ASSERT_TRUE(iter.ok());
  auto mit = model.begin();
  size_t n = 0;
  for (; iter->Valid(); iter->Next(), ++mit, ++n) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(iter->key(), mit->first);
    EXPECT_EQ(iter->value(), mit->second);
  }
  EXPECT_EQ(n, model.size());
}

TEST_P(KvStoreTest, TablesMatchAMapModelAtEveryBlockEdge) {
  // Three flushed tables over overlapping keys with tombstones, then a
  // fourth flush that compacts them. After each flush, the first and last
  // record of every index block (the last block of each table included),
  // keys outside the key range and every deleted key answer as the model.
  constexpr size_t kStride = 4;
  kvstore::DbOptions opts;
  opts.memtable_bytes = 1 << 20;  // flush only when the test asks
  opts.compact_trigger = 4;
  opts.index_stride = kStride;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::string> model;
  std::set<std::string> probes = {"", "a", "k", "k99999", "z"};
  auto add_block_edges = [&](const std::set<std::string>& table) {
    const std::vector<std::string> keys(table.begin(), table.end());
    for (size_t b = 0; b < keys.size(); b += kStride) {
      probes.insert(keys[b]);
      probes.insert(keys[std::min(b + kStride, keys.size()) - 1]);
    }
  };
  common::Rng rng(7);
  for (int round = 0; round < 4; round++) {
    std::set<std::string> table;  // the keys this flush writes, tombstones too
    for (int i = 0; i < 150; i++) {
      const std::string k = Key(static_cast<int>(rng.Below(300)));
      table.insert(k);
      if (rng.Below(4) == 0) {
        ASSERT_TRUE((*db)->Delete(k).ok());
        model.erase(k);
        probes.insert(k);
      } else {
        const std::string v = std::string(rng.Below(40), 'x') + std::to_string(round * 1000 + i);
        ASSERT_TRUE((*db)->Put(k, v).ok());
        model[k] = v;
      }
    }
    ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
    ASSERT_EQ((*db)->table_count(), round < 3 ? static_cast<size_t>(round + 1) : 1u);
    if (round < 3) {
      add_block_edges(table);
    } else {
      std::set<std::string> live;  // the compacted table: live keys only
      for (const auto& [k, v] : model) {
        live.insert(k);
      }
      add_block_edges(live);
    }
    for (const std::string& k : probes) {
      auto got = (*db)->Get(k);
      auto want = model.find(k);
      if (want == model.end()) {
        ASSERT_FALSE(got.ok()) << "round " << round << " key '" << k << "' = " << *got;
        EXPECT_EQ(got.error(), Err::kNoEnt) << k;
      } else {
        ASSERT_TRUE(got.ok()) << "round " << round << " key '" << k << "'";
        EXPECT_EQ(*got, want->second) << k;
      }
    }
  }
  EXPECT_EQ(Scan(db->get()), Of(model));
}

TEST_P(KvStoreTest, GetMakesAtMostOnePreadPerTableItSearches) {
  CountingFs counting(fs_);
  kvstore::DbOptions opts;
  opts.memtable_bytes = 1 << 20;
  opts.compact_trigger = 100;
  auto db = kvstore::Db::Open(&counting, "/db", opts);
  ASSERT_TRUE(db.ok());
  // Table j (0 oldest) holds the keys i with i % 3 == j.
  for (int j = 0; j < 3; j++) {
    for (int i = j; i < 600; i += 3) {
      ASSERT_TRUE((*db)->Put(Key(i), "value" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
  }
  ASSERT_EQ((*db)->table_count(), 3u);
  ASSERT_TRUE((*db)->Put("m", "in the memtable").ok());
  for (int i = 0; i < 600; i++) {
    const uint64_t before = counting.preads();
    auto v = (*db)->Get(Key(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "value" + std::to_string(i));
    const uint64_t searched = 3 - i % 3;  // newest table first
    EXPECT_LE(counting.preads() - before, searched) << Key(i);
  }
  uint64_t before = counting.preads();
  EXPECT_EQ(*(*db)->Get("m"), "in the memtable");
  EXPECT_EQ(counting.preads(), before);
  before = counting.preads();
  EXPECT_FALSE((*db)->Get(Key(1000)).ok());
  EXPECT_LE(counting.preads() - before, 3u);
}

TEST_P(KvStoreTest, HandEncodedTableLoadsAndServesItsKeys) {
  ASSERT_TRUE(fs_->Mkdir(kRoot, "/db", 0755).ok());
  std::string table;
  AppendRecord(&table, "apple", "red");
  AppendRecord(&table, "banana", std::nullopt);
  AppendRecord(&table, "cherry", "");
  AppendRecord(&table, "date", std::string(300, 'd'));
  WriteFile("/db/sst_7", table);
  auto db = kvstore::Db::Open(fs_, "/db");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->table_count(), 1u);
  EXPECT_EQ(*(*db)->Get("apple"), "red");
  EXPECT_EQ((*db)->Get("banana").error(), Err::kNoEnt);
  EXPECT_EQ(*(*db)->Get("cherry"), "");
  EXPECT_EQ(*(*db)->Get("date"), std::string(300, 'd'));
  EXPECT_EQ((*db)->Get("coconut").error(), Err::kNoEnt);
  EXPECT_EQ(Scan(db->get()),
            (Entries{{"apple", "red"}, {"cherry", ""}, {"date", std::string(300, 'd')}}));
}

TEST_P(KvStoreTest, CutTableRecordIsNeverServed) {
  // A table cut inside its last record's header, key or value: the record
  // is gone, never served padded, and every whole record still reads.
  constexpr size_t kRecord = 8 + 6 + 100;  // header, Key(i), value
  const size_t kKept[] = {4, 9, kRecord - 1};
  for (size_t kept : kKept) {
    const std::string dir = "/db" + std::to_string(kept);
    kvstore::DbOptions opts;
    opts.memtable_bytes = 1 << 20;
    std::map<std::string, std::string> model;
    {
      auto db = kvstore::Db::Open(fs_, dir, opts);
      ASSERT_TRUE(db.ok());
      for (int i = 0; i < 40; i++) {
        model[Key(i)] = std::string(100, static_cast<char>('a' + i % 26));
        ASSERT_TRUE((*db)->Put(Key(i), model[Key(i)]).ok());
      }
      ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
    }
    const std::vector<std::string> tables = Tables(dir);
    ASSERT_EQ(tables.size(), 1u);
    auto fd = fs_->Open(kRoot, tables[0], vfs::kRdWr, 0);
    ASSERT_TRUE(fd.ok());
    auto st = fs_->Fstat(*fd);
    ASSERT_EQ(st->size, 40 * kRecord);
    ASSERT_TRUE(fs_->Ftruncate(*fd, st->size - kRecord + kept).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());

    auto db = kvstore::Db::Open(fs_, dir, opts);
    ASSERT_TRUE(db.ok());
    auto cut = (*db)->Get(Key(39));
    ASSERT_FALSE(cut.ok()) << "kept " << kept << " bytes, served " << cut->size() << " bytes";
    EXPECT_EQ(cut.error(), Err::kNoEnt);
    model.erase(Key(39));
    for (const auto& [k, v] : model) {
      auto got = (*db)->Get(k);
      ASSERT_TRUE(got.ok()) << k;
      EXPECT_EQ(*got, v);
    }
    EXPECT_EQ(Scan(db->get()), Of(model));
  }
}

TEST_P(KvStoreTest, TornWalTailReopensToTheValidPrefix) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 1 << 20;  // everything stays in the WAL
  std::map<std::string, std::string> model;
  {
    auto db = kvstore::Db::Open(fs_, "/db", opts);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 20; i++) {
      ASSERT_TRUE((*db)->Put(Key(i), "v" + std::to_string(i)).ok());
      model[Key(i)] = "v" + std::to_string(i);
    }
    ASSERT_TRUE((*db)->Delete(Key(3)).ok());
    model.erase(Key(3));
  }
  // A record header that claims more bytes than the file holds.
  {
    auto fd = fs_->Open(kRoot, "/db/wal.log", vfs::kRdWr | vfs::kAppend, 0);
    ASSERT_TRUE(fd.ok());
    std::string torn;
    AppendU32(&torn, 6);
    AppendU32(&torn, 100);
    torn += "k00";
    ASSERT_TRUE(fs_->Write(*fd, torn.data(), torn.size()).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  {
    auto db = kvstore::Db::Open(fs_, "/db", opts);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ(Scan(db->get()), Of(model));
    // A write after the recovery must survive the next one.
    ASSERT_TRUE((*db)->Put(Key(20), "after").ok());
    model[Key(20)] = "after";
  }
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(Scan(db->get()), Of(model));
}

TEST_P(KvStoreTest, RecordsLongerThanAScanChunkSurviveReopenAndCompaction) {
  // Two values longer than the 256 KB scan chunk, back to back at the front
  // of the WAL, then of a flushed table, then of the compacted table.
  kvstore::DbOptions opts;
  opts.sync_writes = true;
  opts.compact_trigger = 2;
  std::map<std::string, std::string> model = {{"big0", std::string(300 << 10, 'x')},
                                              {"big1", std::string(400 << 10, 'y')},
                                              {"small", "v"}};
  auto check = [&](kvstore::Db* db, const std::string& stage) {
    for (const auto& [k, v] : model) {
      auto got = db->Get(k);
      ASSERT_TRUE(got.ok()) << stage << ": " << k;
      EXPECT_EQ(got->size(), v.size()) << stage << ": " << k;
      EXPECT_TRUE(*got == v) << stage << ": " << k;
    }
    EXPECT_TRUE(Scan(db) == Of(model)) << stage;
  };
  {
    auto db = kvstore::Db::Open(fs_, "/db", opts);
    ASSERT_TRUE(db.ok());
    for (const auto& [k, v] : model) {
      ASSERT_TRUE((*db)->Put(k, v).ok()) << k;
    }
  }
  const uint64_t wal_bytes = fs_->Stat(kRoot, "/db/wal.log")->size;
  {
    auto db = kvstore::Db::Open(fs_, "/db", opts);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ(fs_->Stat(kRoot, "/db/wal.log")->size, wal_bytes);
    check(db->get(), "replayed WAL");
    ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
    ASSERT_EQ((*db)->table_count(), 1u);
  }
  {
    auto db = kvstore::Db::Open(fs_, "/db", opts);
    ASSERT_TRUE(db.ok());
    check(db->get(), "loaded table");
    ASSERT_TRUE((*db)->Put("tail", "t").ok());
    model["tail"] = "t";
    ASSERT_TRUE((*db)->FlushMemtableForTest().ok());  // the second table compacts
    ASSERT_EQ((*db)->table_count(), 1u);
    check(db->get(), "compacted");
  }
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  ASSERT_TRUE(db.ok());
  check(db->get(), "loaded compacted table");
}

INSTANTIATE_TEST_SUITE_P(OnUserSpaceAndKernelFs, KvStoreTest,
                         ::testing::Values(harness::FsKind::kZofs, harness::FsKind::kLogFs,
                                           harness::FsKind::kNova, harness::FsKind::kExtDax,
                                           harness::FsKind::kPmfs));

}  // namespace
