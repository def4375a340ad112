// The common file-system interface.
//
// Every file system in this repository — ZoFS (through FSLibs) and the four
// baselines (Ext4-DAX-, PMFS-, NOVA-, Strata-like) — implements this
// interface, and every benchmark and application drives it. It is a
// deliberately POSIX-shaped surface: paths are absolute ("/a/b"), file
// descriptors are small integers, flags mirror open(2).

#ifndef SRC_VFS_VFS_H_
#define SRC_VFS_VFS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace vfs {

using common::Err;
using common::Result;
using common::Status;

using Fd = int32_t;

// Caller identity, the subject of permission checks.
struct Cred {
  uint32_t uid = 0;
  uint32_t gid = 0;

  bool IsRoot() const { return uid == 0; }
  bool operator==(const Cred&) const = default;
};

// open(2)-style flags.
inline constexpr uint32_t kRead = 1u << 0;
inline constexpr uint32_t kWrite = 1u << 1;
inline constexpr uint32_t kCreate = 1u << 2;
inline constexpr uint32_t kTrunc = 1u << 3;
inline constexpr uint32_t kAppend = 1u << 4;
inline constexpr uint32_t kExcl = 1u << 5;
// O_SYNC: every write on the descriptor is durable before it returns. File
// systems that defer durability (the ZoFS epoch batcher) must drain their
// staged state on each write when this flag is set.
inline constexpr uint32_t kSync = 1u << 6;
inline constexpr uint32_t kRdWr = kRead | kWrite;

enum class FileType : uint8_t {
  kRegular = 0,
  kDirectory = 1,
  kSymlink = 2,
};

// Permission bits, lower 9 bits of mode (rwxrwxrwx).
struct StatBuf {
  uint64_t ino = 0;
  FileType type = FileType::kRegular;
  uint16_t mode = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t size = 0;
  uint32_t nlink = 1;
  uint64_t mtime_ns = 0;
  uint64_t ctime_ns = 0;
};

struct DirEntry {
  std::string name;
  uint64_t ino = 0;
  FileType type = FileType::kRegular;
};

// Classic UNIX permission check: owner / group / other class, rwx bits.
bool PermitsAccess(const Cred& cred, uint32_t owner_uid, uint32_t owner_gid, uint16_t mode,
                   bool want_read, bool want_write);

// The interface. Implementations must be safe for concurrent calls from
// multiple threads (the harness runs multi-threaded workloads against them).
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual const char* Name() const = 0;

  // ---- Descriptor-based operations.
  virtual Result<Fd> Open(const Cred& cred, const std::string& path, uint32_t flags,
                          uint16_t mode) = 0;
  virtual Status Close(Fd fd) = 0;
  virtual Result<size_t> Read(Fd fd, void* buf, size_t n) = 0;
  virtual Result<size_t> Write(Fd fd, const void* buf, size_t n) = 0;
  virtual Result<size_t> Pread(Fd fd, void* buf, size_t n, uint64_t off) = 0;
  virtual Result<size_t> Pwrite(Fd fd, const void* buf, size_t n, uint64_t off) = 0;
  virtual Result<uint64_t> Lseek(Fd fd, int64_t off, int whence) = 0;  // whence: 0 SET 1 CUR 2 END
  virtual Status Fsync(Fd fd) = 0;
  virtual Result<StatBuf> Fstat(Fd fd) = 0;
  virtual Status Ftruncate(Fd fd, uint64_t len) = 0;
  virtual Result<Fd> Dup(Fd fd) = 0;

  // ---- Path-based operations.
  virtual Status Mkdir(const Cred& cred, const std::string& path, uint16_t mode) = 0;
  virtual Status Rmdir(const Cred& cred, const std::string& path) = 0;
  virtual Status Unlink(const Cred& cred, const std::string& path) = 0;
  virtual Result<StatBuf> Stat(const Cred& cred, const std::string& path) = 0;
  virtual Result<std::vector<DirEntry>> ReadDir(const Cred& cred, const std::string& path) = 0;
  virtual Status Rename(const Cred& cred, const std::string& from, const std::string& to) = 0;
  virtual Status Chmod(const Cred& cred, const std::string& path, uint16_t mode) = 0;
  virtual Status Chown(const Cred& cred, const std::string& path, uint32_t uid, uint32_t gid) = 0;
  virtual Status Symlink(const Cred& cred, const std::string& target,
                         const std::string& linkpath) = 0;
  virtual Result<std::string> ReadLink(const Cred& cred, const std::string& path) = 0;
};

// Symlinks one path walk follows before failing with ELOOP (every µFS).
inline constexpr int kMaxSymlinkHops = 8;

// Splits "/a/b/c" into {"a","b","c"}. Rejects empty and non-absolute paths by
// returning an empty vector with ok=false.
Result<std::vector<std::string>> SplitPath(const std::string& path);

// Returns {parent, leaf} of an absolute path; parent of "/x" is "/".
Result<std::pair<std::string, std::string>> SplitParent(const std::string& path);

// Lexically normalises a path: collapses "//", resolves "." and "..".
std::string NormalizePath(const std::string& path);

}  // namespace vfs

#endif  // SRC_VFS_VFS_H_
