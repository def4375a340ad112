// A LevelDB-like LSM key-value store built on the vfs::FileSystem API.
//
// Stands in for LevelDB in the paper's §6.3 evaluation (Table 7): it
// exercises the same file-system operation mix — sequential WAL appends
// (optionally fsynced), bulk sorted-table writes at memtable flush, random
// reads through table files, and file deletion at compaction.
//
// Structure: write-ahead log + in-memory memtable + sorted string tables
// (single level, merged when too many accumulate), each with a sparse
// in-memory index. The memtable is an arena of encoded records with a hash
// index, so a Put or a memtable hit walks no tree; a flush sorts it once. A
// Get reads one index block of a table with one Pread; scans read a
// fixed-size chunk per Pread; a flush and a compaction stream sorted records
// into one table writer.

#ifndef SRC_APPS_KVSTORE_KVSTORE_H_
#define SRC_APPS_KVSTORE_KVSTORE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/vfs/vfs.h"

namespace kvstore {

using common::Err;
using common::Result;
using common::Status;

// One WAL or table record, decoded in place: the views point into the
// buffer or the memtable entry that yielded it.
struct Record {
  std::string_view key;
  std::optional<std::string_view> value;  // nullopt = tombstone
};
// Yields records in key order, then nullopt. A record stays valid until the
// next call.
using RecordSource = std::function<Result<std::optional<Record>>()>;

struct DbOptions {
  bool sync_writes = false;          // fsync the WAL on every write
  size_t memtable_bytes = 4 << 20;   // flush threshold
  size_t compact_trigger = 8;        // merge tables when this many exist
  size_t index_stride = 16;          // sparse index: every Nth entry
};

class Db {
 public:
  // Opens (or creates) a database rooted at directory `dir`.
  static Result<std::unique_ptr<Db>> Open(vfs::FileSystem* fs, const std::string& dir,
                                          DbOptions opts = {});
  ~Db();

  Status Put(const std::string& key, const std::string& value);
  Status Delete(const std::string& key);
  Result<std::string> Get(const std::string& key);

  // In-order iteration over the live key space (merges memtable + tables).
  class Iterator {
   public:
    bool Valid() const { return idx_ < entries_.size(); }
    void Next() { idx_++; }
    const std::string& key() const { return entries_[idx_].first; }
    const std::string& value() const { return entries_[idx_].second; }

   private:
    friend class Db;
    std::vector<std::pair<std::string, std::string>> entries_;
    size_t idx_ = 0;
  };
  Result<Iterator> NewIterator();

  // Testing/diagnostics.
  size_t table_count() const { return tables_.size(); }
  Status FlushMemtableForTest() {
    common::MutexLock lk(&mu_);
    return FlushMemtable();
  }

 private:
  // The records written since the last flush, in the WAL's record format,
  // appended to fixed-size arena blocks (a record never moves, so views of
  // it stay valid until Clear), and an open-addressing hash index from each
  // key to its newest record.
  class Memtable {
   public:
    // Room for a `len`-byte record at the arena's tail. Reserving again
    // before a Commit hands out the same room.
    char* Reserve(size_t len);
    // Indexes the record written into the room Reserve handed out last.
    void Commit();
    // The newest record of `key`, or nullptr.
    const char* Find(std::string_view key) const;
    // The newest record of each key, in key order.
    std::vector<const char*> Sorted() const;
    bool empty() const { return used_ == 0; }
    // Forgets every record; the arena's full-size blocks are kept for reuse.
    void Clear();

   private:
    struct Block {
      std::unique_ptr<char[]> data;
      size_t size = 0;
      size_t used = 0;
    };
    struct Slot {
      uint64_t hash = 0;
      const char* rec = nullptr;  // nullptr = empty
    };
    // The slot that holds `key`, or the empty slot where it would go.
    size_t Probe(std::string_view key, uint64_t hash) const;
    void Grow();

    std::vector<Block> blocks_;
    size_t cur_ = 0;  // the block the tail is in
    std::vector<Slot> slots_ = std::vector<Slot>(1024);  // a power of two
    size_t used_ = 0;                                    // keys indexed
  };

  // A table's sparse index: the first key and the offset of each block of
  // records. A block ends after `stride` records or once it holds 4 KB. The
  // keys sit back to back in one buffer, so a search follows no per-key
  // pointer.
  class TableIndex {
   public:
    explicit TableIndex(size_t stride) : stride_(stride) {}
    // Notes the record with key `key` at offset `off`, in file order.
    void Note(std::string_view key, uint64_t off);
    // The byte range [begin, end) of the one block that may hold `key`,
    // `end` being `size` for the last block; nullopt when `key` sorts
    // before the first key.
    std::optional<std::pair<uint64_t, uint64_t>> BlockOf(std::string_view key,
                                                         uint64_t size) const;

   private:
    struct Entry {
      uint64_t off;      // of the block's first record
      uint64_t key_end;  // the block's first key ends at keys_[key_end]
    };
    std::string_view KeyAt(size_t i) const;

    size_t stride_;
    std::string keys_;
    std::vector<Entry> entries_;
    size_t in_block_ = 0;     // records noted since the last entry
    uint64_t block_off_ = 0;  // offset of the last entry's block
  };

  struct Table {
    explicit Table(size_t stride) : index(stride) {}
    std::string path;
    vfs::Fd fd = -1;
    uint64_t seq = 0;   // newer tables shadow older ones
    TableIndex index;
    uint64_t size = 0;  // bytes of whole records; a cut tail is left out
  };

  Db(vfs::FileSystem* fs, std::string dir, DbOptions opts) : fs_(fs), dir_(std::move(dir)), opts_(opts) {}

  Status Replay() REQUIRES(mu_);  // rebuild the memtable from the WAL at open
  // Logs `r` to the WAL, applies it to the memtable and flushes when full.
  Status Write(const Record& r) REQUIRES(mu_);
  // Encodes `r` at the memtable's tail, not yet indexed, and returns it.
  std::string_view Stage(const Record& r) REQUIRES(mu_);
  // Indexes the record Stage encoded last and counts it toward the flush.
  void Apply(const Record& r) REQUIRES(mu_);
  Status FlushMemtable() REQUIRES(mu_);
  Status Compact() REQUIRES(mu_);
  // Writes the records `next` yields into a new table `seq`.
  Result<std::unique_ptr<Table>> WriteTable(uint64_t seq, const RecordSource& next);
  Result<std::unique_ptr<Table>> LoadTable(const std::string& path, uint64_t seq);
  // One sequential source per table, oldest first.
  std::vector<RecordSource> TableSources();
  // Reads the index block that may hold `key` and returns its record, if
  // any (a tombstone included); the views point into block_.
  Result<std::optional<Record>> SearchTable(const Table& t, const std::string& key)
      REQUIRES(mu_);

  vfs::FileSystem* fs_;
  std::string dir_;
  DbOptions opts_;
  vfs::Cred cred_{0, 0};

  common::Mutex mu_;
  // wal_fd_ and tables_ are set up during single-threaded Open and read by
  // the destructor and table_count() without the lock, so they stay outside
  // the mu_ domain; the memtable and the Get buffer are guarded.
  vfs::Fd wal_fd_ = -1;
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  Memtable memtable_ GUARDED_BY(mu_);
  // key + value + 16 bytes per record applied, overwrites included: the
  // flush trigger.
  size_t memtable_bytes_ GUARDED_BY(mu_) = 0;
  std::string block_ GUARDED_BY(mu_);  // the index block a Get read last
  std::vector<std::unique_ptr<Table>> tables_;  // sorted by seq ascending
};

}  // namespace kvstore

#endif  // SRC_APPS_KVSTORE_KVSTORE_H_
