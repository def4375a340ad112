// kv: one client on kvstore::Db with fsync on every Put (the paper's Table 7
// "write sync" case). db_bench record shape, 16 B keys and 100 B values. The
// key space is preloaded to several memtables, so most Gets read sorted
// tables on NVM. 50% Get / 50% Put, uniform over the key space.

#include <cstdio>

#include "bench.h"
#include "src/apps/kvstore/kvstore.h"
#include "src/common/rand.h"

namespace perfbench {
namespace {

constexpr size_t kKeyBytes = 16;
constexpr size_t kValueBytes = 100;

struct KvShape {
  uint64_t keys;
  size_t memtable_bytes;
  size_t dev_bytes;
};

KvShape ShapeFor(Size size) {
  if (size == Size::kSmall) {
    // The crash pass and the smoke test: small enough to finish in a moment,
    // still spanning memtable flushes and a compaction.
    return {3000, 64 << 10, 64ull << 20};
  }
  // ~14 MB of records, 3.5x the 4 MB memtable.
  return {120000, 4 << 20, 256ull << 20};
}

std::string Key(uint64_t i) {
  char buf[kKeyBytes + 1];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(i));
  return std::string(buf, kKeyBytes);
}

std::string Value(uint64_t key, uint32_t version) {
  std::string v(kValueBytes, '\0');
  FillPattern((key << 32) | version, v.data(), v.size());
  return v;
}

class Kv final : public Workload {
 public:
  int threads() const override { return 1; }

  void Setup(uint64_t seed, Size size, bool crash_tracking, bool traced) override {
    db_.reset();
    tfs_.reset();
    stack_.reset();
    shape_ = ShapeFor(size);
    stack_ = Stack::Format(shape_.dev_bytes, crash_tracking);
    fslib::FsLib* fs = stack_->AddProcess(kRoot);
    vfs::FileSystem* view = fs;
    if (traced) {
      tfs_ = std::make_unique<trace::TracingFs>(fs);
      view = tfs_.get();
    }
    opts_.sync_writes = true;
    opts_.memtable_bytes = shape_.memtable_bytes;
    // Merging at four tables keeps the table count, and with it the Get
    // cost, cycling fast enough that a run spans many whole cycles.
    opts_.compact_trigger = 4;

    // Bulk load without per-Put fsync, then reopen as the measured client
    // would (the reopen replays the WAL tail).
    versions_.assign(shape_.keys, 0);
    std::vector<uint64_t> order(shape_.keys);
    for (uint64_t i = 0; i < shape_.keys; i++) {
      order[i] = i;
    }
    common::Rng shuffle(seed ^ 0x6b76'6c6f'6164ull);
    for (uint64_t i = shape_.keys - 1; i > 0; i--) {
      std::swap(order[i], order[shuffle.Below(i + 1)]);
    }
    {
      kvstore::DbOptions bulk = opts_;
      bulk.sync_writes = false;
      auto db = kvstore::Db::Open(view, "/db", bulk);
      MustSucceed(db, "Db::Open");
      for (uint64_t k : order) {
        MustSucceed((*db)->Put(Key(k), Value(k, 0)), "preload Put");
      }
    }
    auto db = kvstore::Db::Open(view, "/db", opts_);
    MustSucceed(db, "Db reopen");
    db_ = std::move(*db);
    if (crash_tracking) {
      stack_->dev->MarkAllPersistent();
    }
    rng_ = common::Rng(seed ^ 0x6b76'6f70'73ull);
  }

  OpResult Op(int) override {
    const uint64_t k = rng_.Below(shape_.keys);
    const std::string key = Key(k);
    OpResult r;
    if (rng_.Below(2) == 0) {
      kvstore::Result<std::string> got = kvstore::Err::kIo;
      r.ns = Timed([&] {
        trace::Span span(trace::kAppGet);
        got = db_->Get(key);
      });
      r.ok = got.ok() && *got == Value(k, versions_[k]);
      return r;
    }
    r.write = true;
    const uint32_t version = versions_[k] + 1;
    const std::string value = Value(k, version);
    const size_t tables_before = db_->table_count();
    kvstore::Status st = common::OkStatus();
    r.ns = Timed([&] {
      trace::Span span(trace::kAppPut);
      st = db_->Put(key, value);
    });
    r.ok = st.ok();
    if (r.ok) {
      versions_[k] = version;
      user_bytes_ += kKeyBytes + kValueBytes;
    }
    const size_t tables_after = db_->table_count();
    if (tables_after != tables_before) {
      app_.flushes++;
      app_.stall_ns += r.ns;
      if (tables_after != tables_before + 1) {
        app_.compactions++;
      }
    }
    return r;
  }

  Stack& stack() override { return *stack_; }
  double LiveUserBytes() const override {
    return static_cast<double>(shape_.keys * (kKeyBytes + kValueBytes));
  }
  uint64_t UserBytesWritten() const override { return user_bytes_; }
  uint64_t AppendingWrites() const override { return tfs_ ? tfs_->appending_writes() : 0; }
  AppStats app() const override { return app_; }

  uint64_t CrashAndVerify(std::string* first_error) override {
    // A crashed process runs no destructors: the Db is dropped unclosed.
    (void)db_.release();
    std::string err = stack_->CrashAndRemount();
    if (!err.empty()) {
      *first_error = err;
      return 1;
    }
    auto db = kvstore::Db::Open(stack_->procs[0].get(), "/db", opts_);
    if (!db.ok()) {
      *first_error = std::string("Db reopen after crash: ") + common::ErrName(db.error());
      return 1;
    }
    uint64_t mismatches = 0;
    for (uint64_t k = 0; k < shape_.keys; k++) {
      auto got = (*db)->Get(Key(k));
      if (!got.ok() || *got != Value(k, versions_[k])) {
        if (mismatches++ == 0) {
          *first_error = "key " + Key(k) + " lost its acknowledged value " +
                         std::to_string(versions_[k]);
        }
      }
    }
    return mismatches;
  }

 private:
  KvShape shape_{};
  kvstore::DbOptions opts_;
  // Declared before db_ so the Db, which holds file descriptors in them, is
  // destroyed first.
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<trace::TracingFs> tfs_;
  std::unique_ptr<kvstore::Db> db_;
  // The oracle: the version of each key's last acknowledged Put. A key's
  // value is a pure function of (key, version).
  std::vector<uint32_t> versions_;
  common::Rng rng_{0};
  uint64_t user_bytes_ = 0;
  AppStats app_;
};

}  // namespace

std::unique_ptr<Workload> MakeKv() { return std::make_unique<Kv>(); }

}  // namespace perfbench
