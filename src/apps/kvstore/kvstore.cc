#include "src/apps/kvstore/kvstore.h"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace kvstore {

namespace {

// Record layout, the same in the WAL and the tables: a u32 key length, a u32
// value length (kTombstone for a deletion), the key, the value.
constexpr size_t kHeaderBytes = 8;
constexpr uint32_t kTombstone = 0xffffffffu;
// Tables are written, and files scanned, this many bytes per call.
constexpr size_t kChunkBytes = 256 << 10;

using MaybeRecord = std::optional<Record>;

void AppendU32(std::string* out, uint32_t v) { out->append(reinterpret_cast<char*>(&v), 4); }

void AppendRecord(std::string* out, const Record& r) {
  AppendU32(out, static_cast<uint32_t>(r.key.size()));
  AppendU32(out, r.value ? static_cast<uint32_t>(r.value->size()) : kTombstone);
  out->append(r.key);
  if (r.value) {
    out->append(*r.value);
  }
}

// The length of the record at the front of `buf`, header included, as its
// header claims; a header's length while `buf` holds less than a header.
uint64_t RecordLength(std::string_view buf) {
  if (buf.size() < kHeaderBytes) {
    return kHeaderBytes;
  }
  uint32_t len[2];
  std::memcpy(len, buf.data(), kHeaderBytes);
  return kHeaderBytes + uint64_t{len[0]} + (len[1] == kTombstone ? 0 : len[1]);
}

// Decodes the record at the front of `*buf` and drops it from `*buf`; nullopt
// (and `*buf` untouched) when `*buf` ends inside the record.
MaybeRecord TakeRecord(std::string_view* buf) {
  const uint64_t length = RecordLength(*buf);
  if (length > buf->size()) {
    return std::nullopt;
  }
  uint32_t len[2];
  std::memcpy(len, buf->data(), kHeaderBytes);
  Record r{buf->substr(kHeaderBytes, len[0]), std::nullopt};
  if (len[1] != kTombstone) {
    r.value = buf->substr(kHeaderBytes + len[0], len[1]);
  }
  buf->remove_prefix(length);
  return r;
}

// Reads a file's first `size` bytes as records, front to back, one chunk per
// Pread. A record that the `size` bytes cut short ends the scan.
class RecordReader {
 public:
  RecordReader(vfs::FileSystem* fs, vfs::Fd fd, uint64_t size) : fs_(fs), fd_(fd), size_(size) {}

  Result<MaybeRecord> Next() {
    while (true) {
      std::string_view rest(buf_.data() + pos_, end_ - pos_);
      // A header's length until the header is buffered, then the record's:
      // a record longer than a chunk takes a second Fill.
      const uint64_t need = RecordLength(rest);
      if (need <= rest.size()) {
        MaybeRecord r = TakeRecord(&rest);
        pos_ = end_ - rest.size();
        return r;
      }
      if (need > size_ - offset()) {
        return MaybeRecord();  // the end, or a record cut by it
      }
      ASSIGN_OR_RETURN(n, Fill(need));
      if (n == 0) {
        return MaybeRecord();  // the file ends before `size` bytes
      }
    }
  }

  // File offset of the next record: after the scan, the end of the whole
  // records.
  uint64_t offset() const { return buf_off_ + pos_; }

 private:
  // Moves the unread bytes to the front and reads up to a chunk, or `need`
  // bytes when the next record is larger, or as much as the file still
  // holds. Returns the bytes read.
  Result<size_t> Fill(uint64_t need) {
    const uint64_t at = offset();
    const size_t have = end_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, have);
    const size_t want = std::min(std::max<uint64_t>(need, kChunkBytes), size_ - at);
    if (buf_.size() < want) {
      buf_.resize(want);
    }
    ASSIGN_OR_RETURN(n, fs_->Pread(fd_, buf_.data() + have, want - have, at + have));
    buf_off_ = at;
    pos_ = 0;
    end_ = have + n;
    return n;
  }

  vfs::FileSystem* fs_;
  vfs::Fd fd_;
  uint64_t size_;
  std::string buf_;
  uint64_t buf_off_ = 0;  // file offset of buf_[0]
  size_t pos_ = 0;        // unread bytes are buf_[pos_, end_)
  size_t end_ = 0;
};

// Merges sources that are each in key order into one stream in key order.
// Sources go oldest first: of the records with one key only the newest
// source's is yielded.
class Merger {
 public:
  explicit Merger(std::vector<RecordSource> sources) {
    for (RecordSource& s : sources) {
      cursors_.push_back(Cursor{std::move(s)});
    }
  }

  Result<MaybeRecord> Next() {
    // Advance past the previous call's key only now, so the record it
    // returned stayed valid until this call.
    for (Cursor& c : cursors_) {
      if (c.consumed) {
        ASSIGN_OR_RETURN(r, c.next());
        c.rec = r;
      }
    }
    const Cursor* newest = nullptr;
    for (const Cursor& c : cursors_) {
      if (c.rec && (newest == nullptr || c.rec->key <= newest->rec->key)) {
        newest = &c;
      }
    }
    if (newest == nullptr) {
      return MaybeRecord();
    }
    for (Cursor& c : cursors_) {
      c.consumed = c.rec && c.rec->key == newest->rec->key;
    }
    return newest->rec;
  }

 private:
  struct Cursor {
    RecordSource next;
    MaybeRecord rec = std::nullopt;
    bool consumed = true;
  };
  std::vector<Cursor> cursors_;
};

// The entries of a map from key to value (nullopt = tombstone), in order.
template <typename It>
RecordSource MapSource(It it, It end) {
  return [it, end]() mutable -> Result<MaybeRecord> {
    if (it == end) {
      return MaybeRecord();
    }
    Record r{it->first, std::nullopt};
    if (it->second) {
      r.value = *it->second;
    }
    ++it;
    return MaybeRecord(r);
  };
}

// Writes `*block` at `*off`, then empties it and advances `*off` past it.
Status WriteBlock(vfs::FileSystem* fs, vfs::Fd fd, std::string* block, uint64_t* off) {
  ASSIGN_OR_RETURN(n, fs->Pwrite(fd, block->data(), block->size(), *off));
  if (n != block->size()) {
    return Err::kIo;
  }
  *off += n;
  block->clear();
  return common::OkStatus();
}

}  // namespace

Result<std::unique_ptr<Db>> Db::Open(vfs::FileSystem* fs, const std::string& dir, DbOptions opts) {
  auto db = std::unique_ptr<Db>(new Db(fs, dir, opts));
  // No concurrent access exists before Open returns; the lock is taken anyway
  // so Replay's REQUIRES(mu_) contract holds analysis-wide.
  common::MutexLock lk(&db->mu_);
  auto st = fs->Mkdir(db->cred_, dir, 0755);
  if (!st.ok() && st.error() != Err::kExist) {
    return st.error();
  }
  // Load existing tables (named sst_<seq>).
  ASSIGN_OR_RETURN(entries, fs->ReadDir(db->cred_, dir));
  std::vector<std::pair<uint64_t, std::string>> ssts;
  for (const vfs::DirEntry& e : entries) {
    if (e.name.rfind("sst_", 0) == 0) {
      ssts.emplace_back(std::strtoull(e.name.c_str() + 4, nullptr, 10), dir + "/" + e.name);
    }
  }
  std::sort(ssts.begin(), ssts.end());
  for (const auto& [seq, path] : ssts) {
    ASSIGN_OR_RETURN(t, db->LoadTable(path, seq));
    db->tables_.push_back(std::move(t));
    db->next_seq_ = std::max(db->next_seq_, seq + 1);
  }
  // Open the WAL and replay whatever it holds.
  ASSIGN_OR_RETURN(wal, fs->Open(db->cred_, dir + "/wal.log",
                                 vfs::kCreate | vfs::kRdWr | vfs::kAppend, 0644));
  db->wal_fd_ = wal;
  RETURN_IF_ERROR(db->Replay());
  return db;
}

Db::~Db() {
  if (wal_fd_ >= 0) {
    fs_->Close(wal_fd_);
  }
  for (auto& t : tables_) {
    if (t->fd >= 0) {
      fs_->Close(t->fd);
    }
  }
}

Status Db::Replay() {
  ASSIGN_OR_RETURN(st, fs_->Fstat(wal_fd_));
  RecordReader wal(fs_, wal_fd_, st.size);
  while (true) {
    ASSIGN_OR_RETURN(r, wal.Next());
    if (!r) {
      break;
    }
    Apply(*r);
  }
  // A torn record at the tail is dropped (standard WAL recovery), and cut
  // off so that new records follow the last whole one.
  if (wal.offset() < st.size) {
    RETURN_IF_ERROR(fs_->Ftruncate(wal_fd_, wal.offset()));
  }
  return common::OkStatus();
}

void Db::Apply(const Record& r) {
  auto it = memtable_.lower_bound(r.key);
  if (it == memtable_.end() || it->first != r.key) {
    it = memtable_.emplace_hint(it, r.key, std::nullopt);
  }
  if (r.value) {
    it->second = *r.value;  // reuses an overwritten value's buffer
  } else {
    it->second.reset();
  }
  memtable_bytes_ += r.key.size() + (r.value ? r.value->size() : 0) + 16;
}

Status Db::Write(const Record& r) {
  std::string rec;
  rec.reserve(kHeaderBytes + r.key.size() + (r.value ? r.value->size() : 0));
  AppendRecord(&rec, r);
  ASSIGN_OR_RETURN(n, fs_->Write(wal_fd_, rec.data(), rec.size()));
  if (n != rec.size()) {
    return Err::kIo;
  }
  if (opts_.sync_writes) {
    RETURN_IF_ERROR(fs_->Fsync(wal_fd_));
  }
  Apply(r);
  if (memtable_bytes_ >= opts_.memtable_bytes) {
    RETURN_IF_ERROR(FlushMemtable());
  }
  return common::OkStatus();
}

Status Db::Put(const std::string& key, const std::string& value) {
  common::MutexLock lk(&mu_);
  return Write(Record{key, value});
}

Status Db::Delete(const std::string& key) {
  common::MutexLock lk(&mu_);
  return Write(Record{key, std::nullopt});
}

Result<std::unique_ptr<Db::Table>> Db::WriteTable(uint64_t seq, const RecordSource& next) {
  auto t = std::make_unique<Table>();
  t->seq = seq;
  t->path = dir_ + "/sst_" + std::to_string(seq);
  ASSIGN_OR_RETURN(fd, fs_->Open(cred_, t->path, vfs::kCreate | vfs::kRdWr | vfs::kTrunc, 0644));
  auto write = [&]() -> Status {
    std::string block;
    block.reserve(kChunkBytes);
    for (size_t i = 0;; i++) {
      ASSIGN_OR_RETURN(r, next());
      if (!r) {
        break;
      }
      if (i % opts_.index_stride == 0) {
        t->index.push_back(TableEntry{std::string(r->key), t->size + block.size()});
      }
      AppendRecord(&block, *r);
      if (block.size() >= kChunkBytes) {
        RETURN_IF_ERROR(WriteBlock(fs_, fd, &block, &t->size));
      }
    }
    if (!block.empty()) {
      RETURN_IF_ERROR(WriteBlock(fs_, fd, &block, &t->size));
    }
    return fs_->Fsync(fd);
  };
  Status st = write();
  if (!st.ok()) {
    fs_->Close(fd);
    return st.error();
  }
  t->fd = fd;
  return t;
}

Result<std::unique_ptr<Db::Table>> Db::LoadTable(const std::string& path, uint64_t seq) {
  auto t = std::make_unique<Table>();
  t->seq = seq;
  t->path = path;
  ASSIGN_OR_RETURN(fd, fs_->Open(cred_, path, vfs::kRead, 0));
  t->fd = fd;
  ASSIGN_OR_RETURN(st, fs_->Fstat(fd));
  // Rebuild the sparse index with one sequential scan. A record cut by the
  // end of the file is not part of the table.
  RecordReader reader(fs_, fd, st.size);
  for (size_t i = 0;; i++) {
    const uint64_t off = reader.offset();
    ASSIGN_OR_RETURN(r, reader.Next());
    if (!r) {
      break;
    }
    if (i % opts_.index_stride == 0) {
      t->index.push_back(TableEntry{std::string(r->key), off});
    }
  }
  t->size = reader.offset();
  return t;
}

Status Db::FlushMemtable() {
  if (memtable_.empty()) {
    return common::OkStatus();
  }
  ASSIGN_OR_RETURN(t, WriteTable(next_seq_++, MapSource(memtable_.begin(), memtable_.end())));
  tables_.push_back(std::move(t));
  memtable_.clear();
  memtable_bytes_ = 0;
  // Truncate the WAL: its contents are now durable in the table. (The WAL fd
  // is append-mode, so the write offset resets with the size.)
  RETURN_IF_ERROR(fs_->Ftruncate(wal_fd_, 0));
  if (tables_.size() >= opts_.compact_trigger) {
    RETURN_IF_ERROR(Compact());
  }
  return common::OkStatus();
}

std::vector<RecordSource> Db::TableSources() {
  std::vector<RecordSource> sources;
  for (const auto& t : tables_) {
    sources.push_back([r = RecordReader(fs_, t->fd, t->size)]() mutable { return r.Next(); });
  }
  return sources;
}

Status Db::Compact() {
  // Merge every table into one (newest wins), dropping tombstones: no older
  // table is left for them to shadow.
  Merger merged(TableSources());
  ASSIGN_OR_RETURN(nt, WriteTable(next_seq_++, [&]() -> Result<MaybeRecord> {
                     while (true) {
                       ASSIGN_OR_RETURN(r, merged.Next());
                       if (!r || r->value) {
                         return r;
                       }
                     }
                   }));
  // Retire the old tables.
  for (auto& t : tables_) {
    fs_->Close(t->fd);
    fs_->Unlink(cred_, t->path);
  }
  tables_.clear();
  tables_.push_back(std::move(nt));
  return common::OkStatus();
}

Result<MaybeRecord> Db::SearchTable(const Table& t, const std::string& key) {
  // The block of the last index entry <= key, up to the next entry.
  auto it = std::upper_bound(t.index.begin(), t.index.end(), key,
                             [](const std::string& k, const TableEntry& e) { return k < e.key; });
  if (it == t.index.begin()) {
    return MaybeRecord();
  }
  const uint64_t begin = std::prev(it)->off;
  const uint64_t end = it == t.index.end() ? t.size : it->off;
  if (block_.size() < end - begin) {
    block_.resize(end - begin);
  }
  ASSIGN_OR_RETURN(n, fs_->Pread(t.fd, block_.data(), end - begin, begin));
  std::string_view rest(block_.data(), n);
  while (MaybeRecord r = TakeRecord(&rest)) {
    if (r->key == key) {
      return r;
    }
    if (r->key > key) {
      break;  // sorted: key absent
    }
  }
  return MaybeRecord();
}

Result<std::string> Db::Get(const std::string& key) {
  common::MutexLock lk(&mu_);
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    if (!it->second.has_value()) {
      return Err::kNoEnt;
    }
    return *it->second;
  }
  for (auto t = tables_.rbegin(); t != tables_.rend(); ++t) {  // newest first
    ASSIGN_OR_RETURN(r, SearchTable(**t, key));
    if (r) {
      if (!r->value) {
        return Err::kNoEnt;  // tombstone
      }
      return std::string(*r->value);
    }
  }
  return Err::kNoEnt;
}

Result<Db::Iterator> Db::NewIterator() {
  common::MutexLock lk(&mu_);
  std::vector<RecordSource> sources = TableSources();
  sources.push_back(MapSource(memtable_.begin(), memtable_.end()));  // newest
  Merger merged(std::move(sources));
  Iterator iter;
  while (true) {
    ASSIGN_OR_RETURN(r, merged.Next());
    if (!r) {
      break;
    }
    if (r->value) {
      iter.entries_.emplace_back(r->key, *r->value);
    }
  }
  return iter;
}

}  // namespace kvstore
