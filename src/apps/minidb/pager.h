// A SQLite-style pager: a page cache over one database file with a rollback
// journal for transaction atomicity.
//
// Commit protocol (the SQLite classic): before a page is first modified in a
// transaction its pre-image is appended to `<db>-journal`; at commit the
// journal is fsynced, dirty pages are written to the database file, the
// database is fsynced, and the journal is deleted. A crash before journal
// deletion rolls back from the journal at next open.
//
// This is the I/O pattern TPC-C-over-SQLite exercises in the paper's §6.3.

#ifndef SRC_APPS_MINIDB_PAGER_H_
#define SRC_APPS_MINIDB_PAGER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/vfs/vfs.h"

namespace minidb {

using common::Err;
using common::Result;
using common::Status;

inline constexpr size_t kDbPageSize = 4096;

class Pager {
 public:
  static Result<std::unique_ptr<Pager>> Open(vfs::FileSystem* fs, const std::string& path);
  ~Pager();

  // Page numbers are 1-based; page 1 is reserved for the application header.
  // Returns a cached copy of page `no` (pins it in the cache).
  Result<uint8_t*> GetPage(uint32_t no);
  // Marks a page dirty inside the current transaction, journalling its
  // pre-image first. Must be inside Begin/Commit.
  Status MarkDirty(uint32_t no);
  // Appends a fresh zeroed page; returns its number. Journals the header
  // implicitly (page_count changes are rolled back too).
  Result<uint32_t> AllocPage();

  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_txn() const { return in_txn_; }

  // Rolls back a hot journal left by a crash, if present. Called by Open.
  Status RecoverIfNeeded();

 private:
  Pager(vfs::FileSystem* fs, std::string path) : fs_(fs), path_(std::move(path)) {}

  struct CachedPage {
    std::unique_ptr<uint8_t[]> data;
    bool dirty = false;
  };

  Status LoadPage(uint32_t no, CachedPage* out);
  Status JournalPage(uint32_t no);

  vfs::FileSystem* fs_;
  std::string path_;
  vfs::Cred cred_{0, 0};
  vfs::Fd db_fd_ = -1;

  uint32_t page_count_ = 1;
  std::unordered_map<uint32_t, CachedPage> cache_;

  bool in_txn_ = false;
  vfs::Fd journal_fd_ = -1;
  std::set<uint32_t> journaled_;
  std::set<uint32_t> dirty_;
  uint64_t journal_off_ = 0;
  uint32_t txn_start_page_count_ = 1;
};

}  // namespace minidb

#endif  // SRC_APPS_MINIDB_PAGER_H_
