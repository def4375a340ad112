// LogFS — a log-structured µFS for Treasury (the alternative design the
// paper sketches in §5.3: "one can implement a journaled µFS or a
// log-structured µFS in Treasury as well").
//
// Design: all metadata mutations are records appended to a per-coffer log
// (a chain of pages linked through their headers). File data lives in pages
// allocated from the coffer's leased per-thread allocator; write records
// reference those pages. The full namespace/index state is volatile and
// rebuilt by replaying the log at mount — the classic LFS trade: O(1)
// synchronous appends on the write path, replay + garbage collection later.
//
// Consistency: a record is written and persisted, then the page's `used`
// counter advances (the 8-byte commit point). Crash: replay stops at `used`.
// Compaction rewrites a minimal log onto a fresh chain and switches the
// superblock's head pointer atomically.
//
// Scope (documented simplifications): LogFS keeps one flat coffer per file
// system (the §5 "flat hierarchy" alternative), so permissions are enforced
// at whole-coffer granularity, like the ZoFS-1coffer variant. Symlinks and
// directories are supported; hard links are not.

#ifndef SRC_LOGFS_LOGFS_H_
#define SRC_LOGFS_LOGFS_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/kernfs/kernfs.h"
#include "src/ufs/microfs.h"
#include "src/zofs/alloc.h"  // the leased per-thread allocator is µFS-generic

namespace logfs {

using common::Err;
using common::Result;
using common::Status;

inline constexpr uint64_t kLogSuperMagic = 0x4c4f4746535f5631ULL;  // "LOGFS_V1"

inline constexpr uint64_t kLeaseNs = 200'000'000;
inline constexpr uint64_t kEnlargeBatch = 64;
// Compact when the log holds this many pages and less than half the records
// are live.
inline constexpr uint64_t kGcMinPages = 64;

class LogFs final : public ufs::MicroFs {
 public:
  LogFs(kernfs::KernFs* kfs, kernfs::Process* proc);
  ~LogFs() override;

  const char* Name() const override { return "LogFS"; }
  kernfs::Process* proc() { return proc_; }

  Result<ufs::NodeRef> Lookup(const std::string& path, bool follow_last_symlink) override;
  Result<ufs::NodeRef> Create(const std::string& path, uint16_t mode, bool excl) override;
  Status Mkdir(const std::string& path, uint16_t mode) override;
  Status Unlink(const std::string& path) override;
  Status Rmdir(const std::string& path) override;
  Result<vfs::StatBuf> StatNode(ufs::NodeRef node) override;
  Result<std::vector<vfs::DirEntry>> ReadDir(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Chmod(const std::string& path, uint16_t mode) override;
  Status Chown(const std::string& path, uint32_t uid, uint32_t gid) override;
  Status Symlink(const std::string& target, const std::string& linkpath) override;
  Result<std::string> ReadLink(const std::string& path) override;

  Result<size_t> ReadAt(ufs::NodeRef node, void* buf, size_t n, uint64_t off) override;
  Result<size_t> WriteAt(ufs::NodeRef node, const void* buf, size_t n, uint64_t off) override;
  Result<uint64_t> Append(ufs::NodeRef node, const void* buf, size_t n) override;
  Status TruncateNode(ufs::NodeRef node, uint64_t len) override;
  Status EnsureAccess(ufs::NodeRef node, bool writable) override;

  Result<ufs::RecoveryStats> RecoverAll() override;
  // The destructor of an abandoned instance leaves the kernel alone.
  void Abandon() override { abandoned_ = true; }

  // Forces a compaction pass (also triggered automatically); returns pages
  // freed. Exposed for tests and the ablation bench.
  Result<uint64_t> CompactForTest();
  uint64_t log_pages() const { return log_pages_; }
  uint64_t replayed_records() const { return replayed_records_; }

 private:
  // ---- on-NVM structures ----
  struct LogSuper {  // occupies the coffer's root-inode page
    uint64_t magic;
    uint64_t head_page;  // first page of the active log chain
    uint64_t epoch;      // bumped at each compaction
  };
  struct LogPageHeader {
    uint64_t next;  // next log page (byte offset) or 0
    uint64_t used;  // committed payload bytes (the commit point)
  };
  static constexpr uint64_t kPayload = nvm::kPageSize - sizeof(LogPageHeader);

  enum RecKind : uint8_t {
    kRecCreate = 1,
    kRecWrite = 2,
    kRecTruncate = 3,
    kRecUnlink = 4,
    kRecRename = 5,
    kRecChmod = 6,
    kRecChown = 7,
  };
  struct RecHeader {
    uint8_t kind;
    uint8_t _pad;
    uint16_t len;  // payload bytes after this header
  };
  struct CreateRec {  // + name bytes (and symlink target for symlinks)
    uint64_t id;
    uint64_t parent;
    uint32_t type;  // vfs::FileType values
    uint16_t mode;
    uint16_t name_len;
    uint16_t target_len;  // symlinks only
    uint16_t _pad[3];
  };
  struct WriteRec {
    uint64_t id;
    uint64_t blk;       // block index
    uint64_t page_off;  // data page holding the whole block
    uint64_t new_size;  // file size after this write
  };
  struct TruncateRec {
    uint64_t id;
    uint64_t size;
  };
  struct UnlinkRec {  // + name bytes
    uint64_t parent;
    uint16_t name_len;
    uint16_t _pad[3];
  };
  struct RenameRec {  // + from-name + to-name bytes
    uint64_t from_parent;
    uint64_t to_parent;
    uint16_t from_len;
    uint16_t to_len;
    uint16_t _pad[2];
  };
  struct ChmodRec {
    uint64_t id;
    uint16_t mode;
    uint16_t _pad[3];
  };
  struct ChownRec {
    uint64_t id;
    uint32_t uid;
    uint32_t gid;
  };

  // ---- volatile state (rebuilt by replay) ----
  struct VNode {
    uint64_t id = 0;
    vfs::FileType type = vfs::FileType::kRegular;
    uint16_t mode = 0;
    uint32_t uid = 0;
    uint32_t gid = 0;
    uint64_t size = 0;
    uint64_t mtime_ns = 0;
    std::string symlink_target;
    std::map<uint64_t, uint64_t> blocks;        // blk -> data page offset
    std::map<std::string, uint64_t> children;   // directories
    uint64_t parent = 0;
  };

  Status MountOrFormat() REQUIRES(mu_);
  Status Replay() REQUIRES(mu_);
  Status ApplyRecord(uint8_t kind, const uint8_t* payload, uint16_t len) REQUIRES(mu_);

  // Appends one record (header + payload pieces) to the log; persists it and
  // advances the commit point. Caller holds mu_.
  Status AppendRecord(uint8_t kind, const void* body, size_t body_len, std::string_view extra1 = {},
                      std::string_view extra2 = {}) REQUIRES(mu_);
  Status MaybeCompact() REQUIRES(mu_);
  Result<uint64_t> Compact() REQUIRES(mu_);

  Result<VNode*> ResolvePath(const std::string& path, bool follow_last, int depth = 0)
      REQUIRES(mu_);
  Result<std::pair<VNode*, std::string>> ResolveParent(const std::string& path) REQUIRES(mu_);
  // The one create path (Create, Mkdir, Symlink): an existing name yields
  // kExist under `excl`, else its node (following a symlink); a new one gets
  // its create record and volatile node.
  Result<ufs::NodeRef> CreateNode(const std::string& path, vfs::FileType type, uint16_t mode,
                                  bool excl, std::string_view symlink_target = {}) EXCLUDES(mu_);
  VNode* Get(uint64_t id) REQUIRES(mu_);

  kernfs::KernFs* kfs_;
  kernfs::Process* proc_;
  uint32_t cid_ = 0;
  kernfs::MapInfo info_{};
  std::unique_ptr<zofs::CofferAllocator> alloc_;

  common::Mutex mu_;  // serialises log appends and volatile-state mutations
  std::unordered_map<uint64_t, VNode> nodes_ GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 2;  // 1 = root directory
  uint64_t tail_page_ GUARDED_BY(mu_) = 0;
  // Monotonic counters: mutated under mu_, read unlocked by the test/bench
  // accessors above (a stale read is fine), so deliberately unguarded.
  uint64_t log_pages_ = 0;
  uint64_t records_written_ GUARDED_BY(mu_) = 0;
  uint64_t live_records_ GUARDED_BY(mu_) = 0;  // approximation driving GC
  uint64_t replayed_records_ = 0;
  bool abandoned_ = false;
};

}  // namespace logfs

#endif  // SRC_LOGFS_LOGFS_H_
