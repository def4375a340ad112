#include "src/apps/kvstore/kvstore.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace kvstore {

namespace {

// Record layout, the same in the WAL and the tables: a u32 key length, a u32
// value length (kTombstone for a deletion), the key, the value.
constexpr size_t kHeaderBytes = 8;
constexpr uint32_t kTombstone = 0xffffffffu;
// Tables are written, and files scanned, this many bytes per call.
constexpr size_t kChunkBytes = 256 << 10;
// A table's index block ends once it holds this many bytes.
constexpr uint64_t kIndexBlockBytes = 4 << 10;
// The memtable arena grows by blocks of this size; a longer record gets a
// block of its own.
constexpr size_t kArenaBlockBytes = 64 << 10;

using MaybeRecord = std::optional<Record>;

size_t RecordBytes(const Record& r) {
  return kHeaderBytes + r.key.size() + (r.value ? r.value->size() : 0);
}

// Writes `r`'s RecordBytes(r) bytes to `out`.
void EncodeRecord(const Record& r, char* out) {
  const uint32_t len[2] = {static_cast<uint32_t>(r.key.size()),
                           r.value ? static_cast<uint32_t>(r.value->size()) : kTombstone};
  std::memcpy(out, len, kHeaderBytes);
  std::memcpy(out + kHeaderBytes, r.key.data(), r.key.size());
  if (r.value) {
    std::memcpy(out + kHeaderBytes + r.key.size(), r.value->data(), r.value->size());
  }
}

void AppendRecord(std::string* out, const Record& r) {
  const size_t at = out->size();
  out->resize(at + RecordBytes(r));
  EncodeRecord(r, out->data() + at);
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

// Decodes a whole record that starts at `rec` (one the memtable holds).
Record DecodeAt(const char* rec) {
  std::string_view buf(rec, RecordLength(std::string_view(rec, kHeaderBytes)));
  return *TakeRecord(&buf);
}

std::string_view KeyAt(const char* rec) {
  uint32_t key_len = 0;
  std::memcpy(&key_len, rec, sizeof(key_len));
  return std::string_view(rec + kHeaderBytes, key_len);
}

// Records this far ahead of the one being read are prefetched.
constexpr size_t kPrefetchDistance = 16;

// Starts loading the first three cache lines of the record at `rec` (all
// of a db_bench record). The memtable arena holds records in write order,
// so a flush's walk in key order would miss the cache at every record.
void PrefetchRecord(const char* rec) {
  for (int line = 0; line < 3; line++) {
    __builtin_prefetch(rec + 64 * line);
  }
}

// Bytes [at, at + 8) of `key`, zero-padded, as a big-endian number: when two
// keys' numbers differ, they order the keys as a byte-wise compare does.
uint64_t BigEndianAt(std::string_view key, size_t at) {
  uint64_t v = 0;
  for (size_t i = at; i < at + 8; i++) {
    v = v << 8 | (i < key.size() ? static_cast<uint8_t>(key[i]) : 0);
  }
  return v;
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

// The memtable records `recs` points to, in order.
RecordSource ArenaSource(const std::vector<const char*>& recs) {
  return [&recs, i = size_t{0}]() mutable -> Result<MaybeRecord> {
    if (i == recs.size()) {
      return MaybeRecord();
    }
    if (i + kPrefetchDistance < recs.size()) {
      PrefetchRecord(recs[i + kPrefetchDistance]);
    }
    return MaybeRecord(DecodeAt(recs[i++]));
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

char* Db::Memtable::Reserve(size_t len) {
  while (cur_ < blocks_.size() && blocks_[cur_].size - blocks_[cur_].used < len) {
    cur_++;
  }
  if (cur_ == blocks_.size()) {
    const size_t size = std::max(len, kArenaBlockBytes);
    blocks_.push_back(Block{std::unique_ptr<char[]>(new char[size]), size, 0});
  }
  return blocks_[cur_].data.get() + blocks_[cur_].used;
}

void Db::Memtable::Commit() {
  Block& b = blocks_[cur_];
  const char* rec = b.data.get() + b.used;
  b.used += RecordLength(std::string_view(rec, kHeaderBytes));
  const std::string_view key = KeyAt(rec);
  const uint64_t hash = std::hash<std::string_view>()(key);
  size_t i = Probe(key, hash);
  if (slots_[i].rec == nullptr) {
    if (2 * (used_ + 1) > slots_.size()) {
      Grow();
      i = Probe(key, hash);
    }
    used_++;
  }
  slots_[i] = Slot{hash, rec};
}

size_t Db::Memtable::Probe(std::string_view key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.rec == nullptr || (s.hash == hash && KeyAt(s.rec) == key)) {
      return i;
    }
  }
}

void Db::Memtable::Grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.rec != nullptr) {
      slots_[Probe(KeyAt(s.rec), s.hash)] = s;
    }
  }
}

const char* Db::Memtable::Find(std::string_view key) const {
  return slots_[Probe(key, std::hash<std::string_view>()(key))].rec;
}

std::vector<const char*> Db::Memtable::Sorted() const {
  // The sort compares copies of each key's first 16 bytes and reads a key
  // in the arena only on a tie: the arena holds records in write order, so
  // a compare that read both keys there would miss the cache twice.
  struct Item {
    uint64_t prefix[2];
    const char* rec;
  };
  std::vector<Item> items;
  items.reserve(used_);
  for (const Slot& s : slots_) {
    if (s.rec != nullptr) {
      const std::string_view key = KeyAt(s.rec);
      items.push_back(Item{{BigEndianAt(key, 0), BigEndianAt(key, 8)}, s.rec});
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.prefix[0] != b.prefix[0]) {
      return a.prefix[0] < b.prefix[0];
    }
    if (a.prefix[1] != b.prefix[1]) {
      return a.prefix[1] < b.prefix[1];
    }
    return KeyAt(a.rec) < KeyAt(b.rec);
  });
  std::vector<const char*> recs;
  recs.reserve(items.size());
  for (const Item& i : items) {
    recs.push_back(i.rec);
  }
  return recs;
}

void Db::Memtable::Clear() {
  std::erase_if(blocks_, [](const Block& b) { return b.size != kArenaBlockBytes; });
  for (Block& b : blocks_) {
    b.used = 0;
  }
  cur_ = 0;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  used_ = 0;
}

void Db::TableIndex::Note(std::string_view key, uint64_t off) {
  if (entries_.empty() || in_block_ == stride_ || off - block_off_ >= kIndexBlockBytes) {
    keys_.append(key);
    entries_.push_back(Entry{off, keys_.size()});
    in_block_ = 0;
    block_off_ = off;
  }
  in_block_++;
}

std::string_view Db::TableIndex::KeyAt(size_t i) const {
  const uint64_t begin = i == 0 ? 0 : entries_[i - 1].key_end;
  return std::string_view(keys_).substr(begin, entries_[i].key_end - begin);
}

std::optional<std::pair<uint64_t, uint64_t>> Db::TableIndex::BlockOf(std::string_view key,
                                                                     uint64_t size) const {
  // The last entry whose key is <= key.
  size_t lo = 0;
  size_t hi = entries_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key < KeyAt(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == 0) {
    return std::nullopt;
  }
  return std::make_pair(entries_[lo - 1].off, lo == entries_.size() ? size : entries_[lo].off);
}

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
    Stage(*r);
    Apply(*r);
  }
  // A torn record at the tail is dropped (standard WAL recovery), and cut
  // off so that new records follow the last whole one.
  if (wal.offset() < st.size) {
    RETURN_IF_ERROR(fs_->Ftruncate(wal_fd_, wal.offset()));
  }
  return common::OkStatus();
}

std::string_view Db::Stage(const Record& r) {
  const size_t len = RecordBytes(r);
  char* rec = memtable_.Reserve(len);
  EncodeRecord(r, rec);
  return std::string_view(rec, len);
}

void Db::Apply(const Record& r) {
  memtable_.Commit();
  memtable_bytes_ += r.key.size() + (r.value ? r.value->size() : 0) + 16;
}

Status Db::Write(const Record& r) {
  // The record is encoded once, into the memtable's arena, and the WAL
  // write is made from there.
  const std::string_view rec = Stage(r);
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
  auto t = std::make_unique<Table>(opts_.index_stride);
  t->seq = seq;
  t->path = dir_ + "/sst_" + std::to_string(seq);
  ASSIGN_OR_RETURN(fd, fs_->Open(cred_, t->path, vfs::kCreate | vfs::kRdWr | vfs::kTrunc, 0644));
  auto write = [&]() -> Status {
    std::string block;
    block.reserve(kChunkBytes);
    while (true) {
      ASSIGN_OR_RETURN(r, next());
      if (!r) {
        break;
      }
      t->index.Note(r->key, t->size + block.size());
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
  auto t = std::make_unique<Table>(opts_.index_stride);
  t->seq = seq;
  t->path = path;
  ASSIGN_OR_RETURN(fd, fs_->Open(cred_, path, vfs::kRead, 0));
  t->fd = fd;
  ASSIGN_OR_RETURN(st, fs_->Fstat(fd));
  // Rebuild the sparse index with one sequential scan. A record cut by the
  // end of the file is not part of the table.
  RecordReader reader(fs_, fd, st.size);
  while (true) {
    const uint64_t off = reader.offset();
    ASSIGN_OR_RETURN(r, reader.Next());
    if (!r) {
      break;
    }
    t->index.Note(r->key, off);
  }
  t->size = reader.offset();
  return t;
}

Status Db::FlushMemtable() {
  if (memtable_.empty()) {
    return common::OkStatus();
  }
  const std::vector<const char*> sorted = memtable_.Sorted();
  ASSIGN_OR_RETURN(t, WriteTable(next_seq_++, ArenaSource(sorted)));
  tables_.push_back(std::move(t));
  memtable_.Clear();
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
  const auto range = t.index.BlockOf(key, t.size);
  if (!range) {
    return MaybeRecord();
  }
  const auto [begin, end] = *range;
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
  if (const char* rec = memtable_.Find(key)) {
    const Record r = DecodeAt(rec);
    if (!r.value) {
      return Err::kNoEnt;
    }
    return std::string(*r.value);
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
  const std::vector<const char*> memtable = memtable_.Sorted();
  std::vector<RecordSource> sources = TableSources();
  sources.push_back(ArenaSource(memtable));  // newest
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
