// The µFS interface of Treasury's FSLibs (paper §3.2, Figure 4).
//
// FSLibs contains "a collection of FS libraries, which we call µFSs"; the
// dispatcher routes intercepted calls to the µFS registered for the coffer
// type. This header defines the contract a µFS implements. Two µFSs ship in
// this repository:
//   * zofs::ZoFs   — the paper's example µFS (type kCofferTypeZofs);
//   * logfs::LogFs — a log-structured µFS (type kCofferTypeLogFs), the
//     alternative design §5.3 sketches ("one can implement a journaled µFS
//     or a log-structured µFS in Treasury as well").

#ifndef SRC_UFS_MICROFS_H_
#define SRC_UFS_MICROFS_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/vfs/vfs.h"

namespace ufs {

using common::Result;
using common::Status;

// A resolved file: the coffer it lives in plus a µFS-defined handle. The
// field keeps the name of the common case — ZoFS stores the inode page
// offset here; LogFS stores its file id.
struct NodeRef {
  uint32_t coffer_id = 0;
  uint64_t inode_off = 0;
};

// Offline-recovery accounting (paper §6.5's recovery experiment).
struct RecoveryStats {
  uint64_t user_ns = 0;
  uint64_t kernel_ns = 0;
  uint64_t pages_in_use = 0;
  uint64_t pages_reclaimed = 0;
  uint64_t dentries_cleared = 0;
};

class MicroFs {
 public:
  virtual ~MicroFs() = default;

  virtual const char* Name() const = 0;

  // ---- namespace (absolute, normalized paths) ----
  virtual Result<NodeRef> Lookup(const std::string& path, bool follow_last_symlink) = 0;
  // open(2) with O_CREAT, in one path walk: creates a regular file at `path`.
  // An existing name yields kExist under `excl`, else its node, following a
  // symlink. An existing name wins over a parent the caller cannot write.
  virtual Result<NodeRef> Create(const std::string& path, uint16_t mode, bool excl) = 0;
  virtual Status Mkdir(const std::string& path, uint16_t mode) = 0;
  virtual Status Unlink(const std::string& path) = 0;
  virtual Status Rmdir(const std::string& path) = 0;
  virtual Result<vfs::StatBuf> StatNode(NodeRef node) = 0;
  virtual Result<std::vector<vfs::DirEntry>> ReadDir(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Chmod(const std::string& path, uint16_t mode) = 0;
  virtual Status Chown(const std::string& path, uint32_t uid, uint32_t gid) = 0;
  virtual Status Symlink(const std::string& target, const std::string& linkpath) = 0;
  virtual Result<std::string> ReadLink(const std::string& path) = 0;

  // ---- node data ----
  virtual Result<size_t> ReadAt(NodeRef node, void* buf, size_t n, uint64_t off) = 0;
  virtual Result<size_t> WriteAt(NodeRef node, const void* buf, size_t n, uint64_t off) = 0;
  virtual Result<uint64_t> Append(NodeRef node, const void* buf, size_t n) = 0;
  virtual Status TruncateNode(NodeRef node, uint64_t len) = 0;
  // open(2)'s access check; a directory opened for writing is kIsDir.
  virtual Status EnsureAccess(NodeRef node, bool writable) = 0;
  // fsync(2): make every completed write to `node` durable. µFSs that
  // persist synchronously keep the default no-op; µFSs with deferred
  // durability (the ZoFS epoch batcher's staged appends) drain their staged
  // state here.
  virtual Status SyncNode(NodeRef node) { return common::OkStatus(); }
  // Heals a NodeRef across same-process page moves (no-op where irrelevant).
  virtual void FixNode(NodeRef* node) {}

  // ---- maintenance ----
  virtual Result<RecoveryStats> RecoverAll() = 0;
  // Marks the process dead: the destructor must not flush staged state,
  // drain channels, or otherwise touch the kernel — the KernFS reaper owns
  // the corpse. Default no-op for µFSs without deferred state.
  virtual void Abandon() {}
};

}  // namespace ufs

#endif  // SRC_UFS_MICROFS_H_
