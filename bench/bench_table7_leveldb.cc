// Table 7 — LevelDB db_bench latencies across Ext4-DAX / PMFS / NOVA / ZoFS
// (paper §6.3), using the LSM key-value store in src/apps/kvstore.
//
// Operations mirror db_bench: write sync / write seq / write rand /
// overwrite / read seq / read rand / read hot / delete rand, with LevelDB's
// default record shape (16-byte keys, 100-byte values). Every write must
// succeed and every read must return the value written, or the run aborts.
//
// Knob: ZR_TABLE7_N (default 50,000 ops per row). At 10,000 or fewer the
// 4 MB memtable never flushes, so the reads never reach a table.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/apps/kvstore/kvstore.h"
#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/common/stats.h"
#include "src/harness/fslab.h"
#include "src/harness/runner.h"

namespace {

using harness::FsKind;

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%016lu", (unsigned long)i);
  return buf;
}

void CheckGet(kvstore::Db* db, const std::string& key, const std::string& want) {
  auto got = db->Get(key);
  if (!got.ok() || *got != want) {
    std::fprintf(stderr, "table7: Get(%s) did not return the value written\n", key.c_str());
    std::abort();
  }
}

struct Latencies {
  double write_sync, write_seq, write_rand, overwrite;
  double read_seq, read_rand, read_hot, delete_rand;
};

Latencies RunDbBench(FsKind kind, uint64_t n) {
  harness::FsLab lab(kind, {.dev_bytes = 2ull << 30});
  vfs::FileSystem* fs = lab.View(0);
  common::Rng rng(99);
  std::string value(100, 'v');
  Latencies lat{};
  common::Stopwatch sw;

  // Warm up the device memory and caches before measuring (the first
  // freshly-allocated multi-GB buffer otherwise penalises whichever file
  // system happens to run first).
  {
    auto db = kvstore::Db::Open(fs, "/dbwarm");
    CHECK_OK(db);
    for (uint64_t i = 0; i < n / 4; i++) {
      CHECK_OK((*db)->Put(Key(i), value));
      CheckGet(db->get(), Key(i / 2), value);
    }
  }

  // write sync: a fresh DB with fsync-per-write, fewer ops (as db_bench).
  {
    auto db = kvstore::Db::Open(fs, "/dbsync", kvstore::DbOptions{.sync_writes = true});
    CHECK_OK(db);
    const uint64_t ops = n / 10;
    sw.Restart();
    for (uint64_t i = 0; i < ops; i++) {
      CHECK_OK((*db)->Put(Key(i), value));
    }
    lat.write_sync = static_cast<double>(sw.ElapsedNs()) / ops;
  }

  auto db_res = kvstore::Db::Open(fs, "/db");
  CHECK_OK(db_res);
  auto& db = *db_res;

  sw.Restart();
  for (uint64_t i = 0; i < n; i++) {
    CHECK_OK(db->Put(Key(i), value));
  }
  lat.write_seq = static_cast<double>(sw.ElapsedNs()) / n;

  sw.Restart();
  for (uint64_t i = 0; i < n; i++) {
    CHECK_OK(db->Put(Key(rng.Below(n)), value));
  }
  lat.write_rand = static_cast<double>(sw.ElapsedNs()) / n;

  sw.Restart();
  for (uint64_t i = 0; i < n; i++) {
    CHECK_OK(db->Put(Key(i), value));
  }
  lat.overwrite = static_cast<double>(sw.ElapsedNs()) / n;

  {
    sw.Restart();
    auto iter = db->NewIterator();
    CHECK_OK(iter);
    uint64_t cnt = 0;
    for (; iter->Valid(); iter->Next()) {
      if (iter->value() != value) {
        std::fprintf(stderr, "table7: the scan returned a wrong value\n");
        std::abort();
      }
      cnt++;
    }
    if (cnt != n) {
      std::fprintf(stderr, "table7: the scan returned %lu of %lu keys\n", (unsigned long)cnt,
                   (unsigned long)n);
      std::abort();
    }
    lat.read_seq = cnt ? static_cast<double>(sw.ElapsedNs()) / cnt : 0;
  }

  sw.Restart();
  for (uint64_t i = 0; i < n; i++) {
    CheckGet(db.get(), Key(rng.Below(n)), value);
  }
  lat.read_rand = static_cast<double>(sw.ElapsedNs()) / n;

  // read hot: confine reads to 1% of the key space (db_bench readhot).
  const uint64_t hot = std::max<uint64_t>(1, n / 100);
  sw.Restart();
  for (uint64_t i = 0; i < n; i++) {
    CheckGet(db.get(), Key(rng.Below(hot)), value);
  }
  lat.read_hot = static_cast<double>(sw.ElapsedNs()) / n;

  sw.Restart();
  for (uint64_t i = 0; i < n; i++) {
    CHECK_OK(db->Delete(Key(rng.Below(n))));
  }
  lat.delete_rand = static_cast<double>(sw.ElapsedNs()) / n;
  return lat;
}

}  // namespace

int main() {
  const uint64_t n = harness::EnvOr("TABLE7_N", 50000);
  const FsKind kinds[] = {FsKind::kExtDax, FsKind::kPmfs, FsKind::kNova, FsKind::kZofs};

  printf("Table 7: LevelDB-like db_bench latency (us/op), %lu ops\n\n", (unsigned long)n);
  std::vector<Latencies> all;
  for (FsKind k : kinds) {
    all.push_back(RunDbBench(k, n));
  }

  common::TextTable t({"Latency/us", "Ext4-DAX", "PMFS", "NOVA", "ZoFS"});
  auto row = [&](const char* name, auto sel) {
    std::vector<std::string> cells = {name};
    char buf[32];
    for (const Latencies& l : all) {
      snprintf(buf, sizeof(buf), "%.3f", sel(l) / 1000.0);
      cells.push_back(buf);
    }
    t.AddRow(cells);
  };
  row("Write sync.", [](const Latencies& l) { return l.write_sync; });
  row("Write seq.", [](const Latencies& l) { return l.write_seq; });
  row("Write rand.", [](const Latencies& l) { return l.write_rand; });
  row("Overwrite", [](const Latencies& l) { return l.overwrite; });
  row("Read seq.", [](const Latencies& l) { return l.read_seq; });
  row("Read rand.", [](const Latencies& l) { return l.read_rand; });
  row("Read hot.", [](const Latencies& l) { return l.read_hot; });
  row("Delete rand.", [](const Latencies& l) { return l.delete_rand; });
  printf("%s\n", t.ToString().c_str());

  printf("Paper (Table 7, us): write sync 58.1/23.5/29.1/21.1; write seq 7.6/5.0/10.1/3.7;\n");
  printf("write rand 20.1/11.6/19.9/10.3; overwrite 30.5/18.2/30.3/16.8; read seq\n");
  printf("1.39/1.08/1.22/1.07; read rand 4.47/3.55/3.99/3.52; read hot 1.19/1.16/1.19/1.15;\n");
  printf("delete rand 3.91/2.81/9.42/1.72. Shape: ZoFS lowest everywhere; NOVA's COW\n");
  printf("hurts writes/deletes; Ext4-DAX slowest on writes.\n");
  return 0;
}
