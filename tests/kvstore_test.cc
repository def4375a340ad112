// Tests for the LevelDB-like LSM key-value store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
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

// Forwards every call to `base` and counts the calls by name.
class CountingFs final : public vfs::FileSystem {
 public:
  using Counts = std::map<std::string, uint64_t>;

  explicit CountingFs(vfs::FileSystem* base) : base_(base) {}
  const Counts& counts() const { return counts_; }
  uint64_t preads() const { return counts_.count("Pread") ? counts_.at("Pread") : 0; }
  uint64_t last_pread_bytes() const { return last_pread_bytes_; }

  const char* Name() const override { return base_->Name(); }
  Result<vfs::Fd> Open(const vfs::Cred& c, const std::string& p, uint32_t f,
                       uint16_t m) override {
    counts_["Open"]++;
    return base_->Open(c, p, f, m);
  }
  Status Close(vfs::Fd fd) override {
    counts_["Close"]++;
    return base_->Close(fd);
  }
  Result<size_t> Read(vfs::Fd fd, void* b, size_t n) override {
    counts_["Read"]++;
    return base_->Read(fd, b, n);
  }
  Result<size_t> Write(vfs::Fd fd, const void* b, size_t n) override {
    counts_["Write"]++;
    return base_->Write(fd, b, n);
  }
  Result<size_t> Pread(vfs::Fd fd, void* b, size_t n, uint64_t off) override {
    counts_["Pread"]++;
    last_pread_bytes_ = n;
    return base_->Pread(fd, b, n, off);
  }
  Result<size_t> Pwrite(vfs::Fd fd, const void* b, size_t n, uint64_t off) override {
    counts_["Pwrite"]++;
    return base_->Pwrite(fd, b, n, off);
  }
  Result<uint64_t> Lseek(vfs::Fd fd, int64_t off, int whence) override {
    counts_["Lseek"]++;
    return base_->Lseek(fd, off, whence);
  }
  Status Fsync(vfs::Fd fd) override {
    counts_["Fsync"]++;
    return base_->Fsync(fd);
  }
  Result<vfs::StatBuf> Fstat(vfs::Fd fd) override {
    counts_["Fstat"]++;
    return base_->Fstat(fd);
  }
  Status Ftruncate(vfs::Fd fd, uint64_t len) override {
    counts_["Ftruncate"]++;
    return base_->Ftruncate(fd, len);
  }
  Result<vfs::Fd> Dup(vfs::Fd fd) override {
    counts_["Dup"]++;
    return base_->Dup(fd);
  }
  Status Mkdir(const vfs::Cred& c, const std::string& p, uint16_t m) override {
    counts_["Mkdir"]++;
    return base_->Mkdir(c, p, m);
  }
  Status Rmdir(const vfs::Cred& c, const std::string& p) override {
    counts_["Rmdir"]++;
    return base_->Rmdir(c, p);
  }
  Status Unlink(const vfs::Cred& c, const std::string& p) override {
    counts_["Unlink"]++;
    return base_->Unlink(c, p);
  }
  Result<vfs::StatBuf> Stat(const vfs::Cred& c, const std::string& p) override {
    counts_["Stat"]++;
    return base_->Stat(c, p);
  }
  Result<std::vector<vfs::DirEntry>> ReadDir(const vfs::Cred& c, const std::string& p) override {
    counts_["ReadDir"]++;
    return base_->ReadDir(c, p);
  }
  Status Rename(const vfs::Cred& c, const std::string& from, const std::string& to) override {
    counts_["Rename"]++;
    return base_->Rename(c, from, to);
  }
  Status Chmod(const vfs::Cred& c, const std::string& p, uint16_t m) override {
    counts_["Chmod"]++;
    return base_->Chmod(c, p, m);
  }
  Status Chown(const vfs::Cred& c, const std::string& p, uint32_t uid, uint32_t gid) override {
    counts_["Chown"]++;
    return base_->Chown(c, p, uid, gid);
  }
  Status Symlink(const vfs::Cred& c, const std::string& target,
                 const std::string& link) override {
    counts_["Symlink"]++;
    return base_->Symlink(c, target, link);
  }
  Result<std::string> ReadLink(const vfs::Cred& c, const std::string& p) override {
    counts_["ReadLink"]++;
    return base_->ReadLink(c, p);
  }

 private:
  vfs::FileSystem* base_;
  Counts counts_;
  size_t last_pread_bytes_ = 0;
};

// The calls `body` makes through `fs`, by name.
template <typename Body>
CountingFs::Counts CallsOf(CountingFs* fs, Body body) {
  const CountingFs::Counts before = fs->counts();
  body();
  CountingFs::Counts made;
  for (const auto& [name, n] : fs->counts()) {
    const uint64_t was = before.count(name) ? before.at(name) : 0;
    if (n != was) {
      made[name] = n - was;
    }
  }
  return made;
}

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

TEST_P(KvStoreTest, MemtableMatchesAMapModel) {
  // Seeded random Puts, Deletes and Gets over a small key space against a
  // std::map, at a memtable that flushes every few dozen records and at one
  // that only flushes when asked. One hot key is overwritten in bursts, so
  // one memtable holds many of its versions; a key written to a table and
  // then deleted is shadowed by the memtable's tombstone; flushes, merges of
  // three tables, iterator scans and reopens that replay the WAL are mixed
  // in.
  for (const size_t memtable_bytes : {size_t{2} << 10, size_t{1} << 20}) {
    SCOPED_TRACE(memtable_bytes);
    const std::string dir = "/db" + std::to_string(memtable_bytes);
    kvstore::DbOptions opts;
    opts.memtable_bytes = memtable_bytes;
    opts.compact_trigger = 3;
    opts.index_stride = 4;
    auto db = kvstore::Db::Open(fs_, dir, opts);
    ASSERT_TRUE(db.ok());
    std::map<std::string, std::string> model;
    auto check_get = [&](const std::string& k) {
      auto got = (*db)->Get(k);
      auto want = model.find(k);
      if (want == model.end()) {
        ASSERT_FALSE(got.ok()) << k << " = " << *got;
        EXPECT_EQ(got.error(), Err::kNoEnt) << k;
      } else {
        ASSERT_TRUE(got.ok()) << k;
        EXPECT_EQ(*got, want->second) << k;
      }
    };
    auto reopen = [&] {
      db->reset();
      db = kvstore::Db::Open(fs_, dir, opts);
      ASSERT_TRUE(db.ok());
    };

    // A memtable tombstone over a table value.
    ASSERT_TRUE((*db)->Put("shadowed", "in a table").ok());
    ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
    ASSERT_TRUE((*db)->Delete("shadowed").ok());
    check_get("shadowed");
    EXPECT_EQ(Scan(db->get()), Of(model));
    reopen();
    check_get("shadowed");

    common::Rng rng(memtable_bytes);
    for (int i = 0; i < 3000; i++) {
      const uint64_t op = rng.Below(100);
      const std::string k = Key(static_cast<int>(rng.Below(200)));
      if (op < 5) {
        for (int j = 0; j < 40; j++) {
          const std::string v = "hot" + std::to_string(i) + "." + std::to_string(j);
          ASSERT_TRUE((*db)->Put("hot", v).ok());
          model["hot"] = v;
        }
        check_get("hot");
      } else if (op < 45) {
        const std::string v = std::string(rng.Below(60), 'v') + std::to_string(i);
        ASSERT_TRUE((*db)->Put(k, v).ok());
        model[k] = v;
      } else if (op < 60) {
        ASSERT_TRUE((*db)->Delete(k).ok());
        model.erase(k);
      } else if (op < 95) {
        check_get(k);
      } else if (op < 97) {
        ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
      } else if (op < 99) {
        ASSERT_EQ(Scan(db->get()), Of(model)) << "op " << i;
      } else {
        reopen();
      }
    }
    for (int k = 0; k < 200; k++) {
      check_get(Key(k));
    }
    check_get("hot");
    EXPECT_EQ(Scan(db->get()), Of(model));
    reopen();
    EXPECT_EQ(Scan(db->get()), Of(model));
  }
}

TEST_P(KvStoreTest, PutsAndMemtableHitsMakeExactlyTheirCalls) {
  CountingFs counting(fs_);
  kvstore::DbOptions opts;
  opts.sync_writes = true;
  auto db = kvstore::Db::Open(&counting, "/db", opts);
  ASSERT_TRUE(db.ok());
  const CountingFs::Counts synced_put = {{"Fsync", 1}, {"Write", 1}};
  EXPECT_EQ(CallsOf(&counting, [&] { ASSERT_TRUE((*db)->Put("k", "v1").ok()); }), synced_put);
  EXPECT_EQ(CallsOf(&counting, [&] { ASSERT_TRUE((*db)->Put("k", "v2").ok()); }), synced_put);
  EXPECT_EQ(CallsOf(&counting, [&] { ASSERT_TRUE((*db)->Delete("gone").ok()); }), synced_put);
  EXPECT_EQ(CallsOf(&counting, [&] { EXPECT_EQ(*(*db)->Get("k"), "v2"); }), CountingFs::Counts());
  EXPECT_EQ(CallsOf(&counting, [&] { EXPECT_EQ((*db)->Get("gone").error(), Err::kNoEnt); }),
            CountingFs::Counts());
  // Without a table, a key the memtable does not hold costs no call either.
  EXPECT_EQ(CallsOf(&counting, [&] { EXPECT_EQ((*db)->Get("absent").error(), Err::kNoEnt); }),
            CountingFs::Counts());
  db->reset();
  opts.sync_writes = false;
  db = kvstore::Db::Open(&counting, "/db", opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(CallsOf(&counting, [&] { ASSERT_TRUE((*db)->Put("k", "v3").ok()); }),
            (CountingFs::Counts{{"Write", 1}}));
}

TEST_P(KvStoreTest, FlushedTableIsTheNewestRecordOfEachKeyInKeyOrder) {
  // Random order, overwrites and tombstones in one memtable: the table is
  // each key's newest record, tombstones included, encoded back to back in
  // key order.
  kvstore::DbOptions opts;
  opts.memtable_bytes = 1 << 20;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::optional<std::string>> newest;
  common::Rng rng(5);
  for (int i = 0; i < 1500; i++) {
    // Keys of every length from 0 to 24 bytes, so the sort meets keys that
    // are prefixes of each other.
    const std::string k = std::string(rng.Below(25), static_cast<char>('a' + rng.Below(3)));
    if (rng.Below(5) == 0) {
      ASSERT_TRUE((*db)->Delete(k).ok());
      newest[k] = std::nullopt;
    } else {
      const std::string v = std::to_string(i) + std::string(rng.Below(30), '.');
      ASSERT_TRUE((*db)->Put(k, v).ok());
      newest[k] = v;
    }
  }
  ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
  std::string want;
  for (const auto& [k, v] : newest) {
    AppendRecord(&want, k, v);
  }
  const std::vector<std::string> tables = Tables("/db");
  ASSERT_EQ(tables.size(), 1u);
  auto fd = fs_->Open(kRoot, tables[0], vfs::kRead, 0);
  ASSERT_TRUE(fd.ok());
  std::string got(want.size() + 1, '\0');
  auto n = fs_->Pread(*fd, got.data(), got.size(), 0);
  ASSERT_TRUE(n.ok());
  got.resize(*n);
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_TRUE(got == want) << "table of " << got.size() << " bytes, want " << want.size();
}

TEST_P(KvStoreTest, IndexBlocksEndAtFourKilobytes) {
  // Values of 6-10 KB: each record fills its own index block, so a Get
  // reads exactly its record, and the reused block buffer never outgrows
  // the largest record. At 16 records a block, a Get would read ~130 KB.
  CountingFs counting(fs_);
  kvstore::DbOptions opts;
  opts.memtable_bytes = 4 << 20;
  auto db = kvstore::Db::Open(&counting, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::string> model;
  common::Rng rng(3);
  size_t largest = 0;
  for (int i = 0; i < 64; i++) {
    model[Key(i)] = std::string((6 << 10) + rng.Below(4 << 10), static_cast<char>('a' + i % 26));
    ASSERT_TRUE((*db)->Put(Key(i), model[Key(i)]).ok());
    largest = std::max(largest, 8 + Key(i).size() + model[Key(i)].size());
  }
  ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
  size_t read_most = 0;
  for (const auto& [k, v] : model) {
    const uint64_t before = counting.preads();
    auto got = (*db)->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_TRUE(*got == v) << k;
    ASSERT_EQ(counting.preads(), before + 1) << k;
    EXPECT_EQ(counting.last_pread_bytes(), 8 + k.size() + v.size()) << k;
    read_most = std::max(read_most, counting.last_pread_bytes());
  }
  EXPECT_EQ(read_most, largest);
  // db_bench's 124-byte records (16-byte keys, 100-byte values) keep their
  // 16-record (1,984-byte) blocks.
  auto small = [](int i) { return "db_bench__" + Key(i); };
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE((*db)->Put(small(i), std::string(100, 's')).ok());
  }
  ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE((*db)->Get(small(i)).ok());
    EXPECT_EQ(counting.last_pread_bytes(), 16u * 124) << small(i);
  }
}

INSTANTIATE_TEST_SUITE_P(OnUserSpaceAndKernelFs, KvStoreTest,
                         ::testing::Values(harness::FsKind::kZofs, harness::FsKind::kLogFs,
                                           harness::FsKind::kNova, harness::FsKind::kExtDax,
                                           harness::FsKind::kPmfs));

}  // namespace
