// Shared skeleton for the baseline NVM file systems (Ext4-DAX-, PMFS-,
// NOVA-, Strata-like).
//
// The paper's evaluation compares *design points*: where the kernel boundary
// sits, how metadata is made crash-consistent (journal vs log vs log+digest),
// how data is written (in-place vs copy-on-write), and how allocation scales
// (global vs per-core). BaseFs implements the parts those designs share — a
// POSIX namespace with per-inode reader/writer locks and per-file block maps
// over the simulated NVM — and exposes hooks for the parts that differ.
//
// Metadata lives in DRAM (rebuilt at mount in the real systems); every
// metadata mutation still *pays* its persistence cost through the journal
// hook, so the measured write paths match each design's NVM traffic.

#ifndef SRC_BASELINES_BASEFS_H_
#define SRC_BASELINES_BASEFS_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/nvm/nvm.h"
#include "src/vfs/vfs.h"

namespace baselines {

using common::Err;
using common::Result;
using common::Status;

// A global page allocator guarded by one mutex — the design the paper blames
// for PMFS's scalability cliff.
class GlobalPageAlloc {
 public:
  // Manages pages [first_page, first_page + n_pages).
  GlobalPageAlloc(uint64_t first_page, uint64_t n_pages);
  Result<uint64_t> Alloc();  // returns byte offset
  void Free(uint64_t page_off);

 private:
  common::Mutex mu_;
  std::vector<uint64_t> free_ GUARDED_BY(mu_);  // byte offsets
};

// Per-core (really per-thread-lane) allocator: each lane gets an equal share
// of the space up front, NOVA-style, so refills never contend.
class PerCoreAlloc {
 public:
  PerCoreAlloc(uint64_t first_page, uint64_t n_pages, int lanes);
  Result<uint64_t> Alloc();
  void Free(uint64_t page_off);

 private:
  struct alignas(64) Lane {
    common::Mutex mu;
    std::vector<uint64_t> free GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<Lane>> lanes_;
  Lane& MyLane();
};

class BaseFs : public vfs::FileSystem {
 public:
  struct Config {
    // Every operation crosses into the kernel (false only for Strata's
    // user-space paths).
    bool syscall_per_op = true;
    uint64_t crossing_ns = 300;
  };

  BaseFs(nvm::NvmDevice* dev, Config cfg);
  ~BaseFs() override;

  // Public so cross-cutting infrastructure (e.g. Strata's shared core) can
  // reference nodes; file-system users never touch these directly.
  struct Node : std::enable_shared_from_this<Node> {
    uint64_t id;
    vfs::FileType type = vfs::FileType::kRegular;
    uint16_t mode = 0;
    uint32_t uid = 0;
    uint32_t gid = 0;
    std::atomic<uint64_t> size{0};
    std::atomic<uint64_t> mtime_ns{0};
    std::string symlink_target;

    // Per-inode reader/writer lock ("all tested file systems use per-file
    // locks", §6.1). The block map and children are the guarded state, but
    // they are handed by reference into subclass hooks (WriteData/ReadData),
    // so the lock protocol is documented on the hooks rather than expressed
    // as GUARDED_BY — the analysis cannot see through the virtual dispatch.
    common::SharedMutex lock;

    // blk index -> NVM page byte offset (the durable home of the data).
    std::map<uint64_t, uint64_t> blocks;

    // Directory children.
    std::map<std::string, std::shared_ptr<Node>> children;

    // NVM home of the inode's persistent attributes (size/mtime): one
    // cacheline, written back on every size-changing operation so baselines
    // pay the same inode-persistence cost a real NVM file system does.
    uint64_t meta_home = 0;

    // Subclass cookie (e.g. Strata lease state).
    void* ext = nullptr;
  };
  using NodePtr = std::shared_ptr<Node>;

  // ---- vfs::FileSystem ----
  Result<vfs::Fd> Open(const vfs::Cred& cred, const std::string& path, uint32_t flags,
                       uint16_t mode) override;
  Status Close(vfs::Fd fd) override;
  Result<size_t> Read(vfs::Fd fd, void* buf, size_t n) override;
  Result<size_t> Write(vfs::Fd fd, const void* buf, size_t n) override;
  Result<size_t> Pread(vfs::Fd fd, void* buf, size_t n, uint64_t off) override;
  Result<size_t> Pwrite(vfs::Fd fd, const void* buf, size_t n, uint64_t off) override;
  Result<uint64_t> Lseek(vfs::Fd fd, int64_t off, int whence) override;
  Status Fsync(vfs::Fd fd) override;
  Result<vfs::StatBuf> Fstat(vfs::Fd fd) override;
  Status Ftruncate(vfs::Fd fd, uint64_t len) override;
  Result<vfs::Fd> Dup(vfs::Fd fd) override;

  Status Mkdir(const vfs::Cred& cred, const std::string& path, uint16_t mode) override;
  Status Rmdir(const vfs::Cred& cred, const std::string& path) override;
  Status Unlink(const vfs::Cred& cred, const std::string& path) override;
  Result<vfs::StatBuf> Stat(const vfs::Cred& cred, const std::string& path) override;
  Result<std::vector<vfs::DirEntry>> ReadDir(const vfs::Cred& cred,
                                             const std::string& path) override;
  Status Rename(const vfs::Cred& cred, const std::string& from, const std::string& to) override;
  Status Chmod(const vfs::Cred& cred, const std::string& path, uint16_t mode) override;
  Status Chown(const vfs::Cred& cred, const std::string& path, uint32_t uid,
               uint32_t gid) override;
  Status Symlink(const vfs::Cred& cred, const std::string& target,
                 const std::string& linkpath) override;
  Result<std::string> ReadLink(const vfs::Cred& cred, const std::string& path) override;

 protected:
  // ---- hooks ----
  // Called at every FS entry point; default charges a kernel crossing.
  virtual void EnterOp() {
    if (cfg_.syscall_per_op) {
      common::SpinNs(cfg_.crossing_ns);
    }
  }
  // Persist a metadata mutation of roughly `bytes` bytes (journal/log write).
  virtual void PersistMeta(Node* node, size_t bytes) = 0;
  // The data write path. Caller holds the node's unique lock.
  virtual Status WriteData(Node& node, const void* buf, size_t n, uint64_t off) = 0;
  // The data read path. Caller holds the node's shared lock. Default reads
  // the block map.
  virtual Result<size_t> ReadData(Node& node, void* buf, size_t n, uint64_t off);
  // Page allocation for data.
  virtual Result<uint64_t> AllocPage() = 0;
  virtual void FreePage(uint64_t page_off) = 0;
  // fsync for asynchronous designs; default no-op (synchronous designs).
  virtual Status SyncFile(Node& node) { return common::OkStatus(); }
  // Called before any access by `cred`; Strata overrides to manage leases.
  virtual void TouchLease(Node& node) {}

  // Helper for subclasses: in-place block write into the node's block map.
  Status WriteBlocksInPlace(Node& node, const void* buf, size_t n, uint64_t off,
                            bool non_temporal, bool flush_lines);

  NodePtr root() { return root_; }
  // Replaces the namespace root — used by per-process views (Strata LibFS)
  // that share one namespace.
  void SetRoot(NodePtr r) { root_ = std::move(r); }
  nvm::NvmDevice* dev() { return dev_; }
  const Config& config() const { return cfg_; }

  // Persists the node's size/mtime to its NVM meta slot (clwb + fence).
  void PersistInodeAttrs(Node& node);
  // Reserves a 64-byte inode-attribute slot in the meta region.
  uint64_t AllocMetaSlot();

  Result<NodePtr> ResolveNode(const std::string& path, bool follow_last, int depth = 0);
  Result<std::pair<NodePtr, std::string>> ResolveParent(const std::string& path);
  void FreeAllBlocks(Node& node);

 private:
  struct OpenFile {
    NodePtr node;
    std::atomic<uint64_t> pos{0};
    uint32_t flags = 0;
  };

  Result<vfs::Fd> InstallFd(std::shared_ptr<OpenFile> f);
  Result<std::shared_ptr<OpenFile>> GetFd(vfs::Fd fd);

  nvm::NvmDevice* dev_;
  Config cfg_;
  NodePtr root_;
  std::atomic<uint64_t> next_id_{2};
  std::atomic<uint64_t> next_meta_slot_;
  uint64_t meta_region_end_ = 0;

  common::Mutex fd_mu_;
  std::vector<std::shared_ptr<OpenFile>> fds_ GUARDED_BY(fd_mu_);
};

}  // namespace baselines

#endif  // SRC_BASELINES_BASEFS_H_
