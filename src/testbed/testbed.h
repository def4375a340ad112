// testbed — the one way the crash, fault and tenant campaigns and the tests
// build, crash, remount and check the Treasury stack (NVM device, MPK hook,
// KernFS, FSLib processes).
//
// A Stack formats a device it owns, or mounts one it borrows (a crash image),
// always with the MPK device hook and a zero-cost KernFS (no modelled
// crossing charge). It owns every FSLib process it hands out. Its four
// lifecycle steps:
//
//   Crash()     power failure. Every process is abandoned (no unmount, no
//               stage flush, no channel drain), the kernel is dropped, and
//               only then is the device rolled back to what was fenced: no
//               cleanup reaches the crashed image.
//   Shutdown()  clean exit of every process, then of the kernel.
//   Mount()     a new kernel over the device's current image. It marks
//               nothing persistent: recovery's own writes count once fenced.
//   Fsck(p)     RecoverAll through process p, then the allocation-table
//               check.
//
// The module also holds the oracles more than one campaign needs: a
// whole-file read, a tree walk, the page-diff containment check, a
// deterministic worker fan-out and the op kit (an op type, its executor and
// the reference model).

#ifndef SRC_TESTBED_TESTBED_H_
#define SRC_TESTBED_TESTBED_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/nvm/nvm.h"
#include "src/ufs/microfs.h"
#include "src/vfs/vfs.h"
#include "src/zofs/zofs.h"

namespace testbed {

// What Fsck found. Clean when recovery succeeded and the allocation table is
// consistent.
struct FsckResult {
  std::string recovery;      // RecoverAll's error name, "" when it succeeded
  std::string alloc;         // allocation-table inconsistencies, "" when none
  ufs::RecoveryStats stats;  // RecoverAll's work, when it succeeded
  bool clean() const { return recovery.empty() && alloc.empty(); }
};

class Stack {
 public:
  // Formats a fresh device and mounts it. On a crash-tracking device the
  // format is durable, as after mkfs and a sync.
  Stack(const nvm::Options& dev_opts, const kernfs::FormatOptions& fmt);
  // Mounts an already formatted device that the caller owns.
  explicit Stack(nvm::NvmDevice* dev);
  ~Stack();  // Shutdown()

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  nvm::NvmDevice* dev() const { return dev_; }
  kernfs::KernFs* kfs() const { return kfs_.get(); }

  // A new simulated process with credentials `cred`, mounted on the kernel.
  fslib::FsLib* AddProcess(vfs::Cred cred, zofs::Options zopts = {});
  // Destroys `p`: a clean exit (stage flush, channel drain, unmount), or
  // nothing at all for a process that was killed.
  void Exit(fslib::FsLib* p);
  // Kills `p` mid-operation (KernFs::KillProcess, then FsLib::Abandon). The
  // corpse's FsLib stays until Exit(p): the reaper drains its channel rings
  // through it.
  kernfs::KillStats Kill(fslib::FsLib* p, const kernfs::KillOptions& opts);

  // Returns the number of cachelines the device rolled back. Aborts if an
  // abandoned process still issued a fence.
  size_t Crash();
  void Shutdown();
  void Mount();
  FsckResult Fsck(fslib::FsLib* p);

 private:
  void MountKernel(const kernfs::FormatOptions* fmt);

  std::unique_ptr<nvm::NvmDevice> owned_dev_;
  nvm::NvmDevice* dev_ = nullptr;
  std::unique_ptr<kernfs::KernFs> kfs_;
  std::vector<std::unique_ptr<fslib::FsLib>> procs_;
};

// Reads the whole file at `path` (its fstat size) into *out. Returns 1 when
// it was read in full, 0 when it does not exist, -1 on any other error.
int ReadFile(vfs::FileSystem* fs, const vfs::Cred& cred, const std::string& path,
             std::string* out);

// Walks the tree below directory `dir`, adding the path of every directory
// to *dirs and of every other entry to *files. A failed readdir stops the
// walk: it returns false with *err naming the directory and the error.
bool Walk(vfs::FileSystem* fs, const vfs::Cred& cred, const std::string& dir,
          std::set<std::string>* files, std::set<std::string>* dirs, std::string* err);

// The page-diff containment oracle: the pages of [0, num_pages) whose bytes
// differ between the two device images and that `may_change` does not allow,
// in ascending order.
std::vector<uint64_t> EscapedPages(const uint8_t* before, const uint8_t* after,
                                   uint64_t num_pages,
                                   const std::function<bool(uint64_t page)>& may_change);

// Deterministic worker fan-out: [0, n) is cut into contiguous chunks of
// ceil(n / workers) items, workers = `threads` clamped to [1, n], and
// body(lo, hi) runs each chunk on a thread of its own. A caller that writes
// results by item index gets the same results whatever the thread count.
void FanOut(size_t n, int threads, const std::function<void(size_t lo, size_t hi)>& body);

// One file-system operation on paths.
struct Op {
  enum class Kind { kCreate, kWrite, kUnlink, kMkdir, kRmdir, kRename, kAppend, kFsync };
  Kind kind;
  std::string path;
  std::string path2{};   // rename destination
  uint16_t mode = 0644;  // create
  uint64_t off = 0;      // write
  std::string data{};    // write and append payload

  static Op Create(std::string path, uint16_t mode) {
    return {.kind = Kind::kCreate, .path = std::move(path), .mode = mode};
  }
  static Op Write(std::string path, uint64_t off, std::string data) {
    return {.kind = Kind::kWrite, .path = std::move(path), .off = off, .data = std::move(data)};
  }
  static Op Append(std::string path, std::string data) {
    return {.kind = Kind::kAppend, .path = std::move(path), .data = std::move(data)};
  }
  static Op Rename(std::string from, std::string to) {
    return {.kind = Kind::kRename, .path = std::move(from), .path2 = std::move(to)};
  }
  // kUnlink, kMkdir, kRmdir or kFsync of `path`.
  static Op On(Kind kind, std::string path) { return {.kind = kind, .path = std::move(path)}; }
};

// Runs ops on one file system as one process. Each op is the vfs calls of
// its system call: create is open(O_CREAT) and close, write is open, pwrite
// and close, mkdir uses mode 0755. Appends to a path share one O_APPEND
// descriptor kept open across ops (a close may be a durability point, as in
// FSLib, and would drain what an append workload keeps staged), and an
// fsync syncs that descriptor, opening it if no append did.
class Executor {
 public:
  Executor(vfs::FileSystem* fs, vfs::Cred cred) : fs_(fs), cred_(cred) {}

  // Runs `op` and returns the call's code. A short write fails with EIO.
  common::Err Run(const Op& op);
  // Closes the append descriptors, in path order (nothing else does).
  void CloseAll();

 private:
  vfs::FileSystem* fs_;
  vfs::Cred cred_;
  std::map<std::string, vfs::Fd> appends_;
};

// The reference file system: every directory and every file's content.
// Advisory state (modes, mtimes, link counts) is not modelled, and renames
// move files only: a directory source predicts EISDIR.
//
// A file is durable on return, as in a synchronous file system, unless it is
// marked DurableOnFsync: then its writes and appends are durable only once a
// later fsync returns (the POSIX contract of ZoFS's staged appends).
class Model {
 public:
  struct File {
    std::string content;
    // For a DurableOnFsync file, its content as of the last fsync.
    std::optional<std::string> synced;
  };

  // Returns the code POSIX predicts for `op` and, when that is kOk, applies
  // the op.
  common::Err Apply(const Op& op);
  // Makes `path`, if it is a file, durable only at fsync; its content so
  // far counts as synced.
  void DurableOnFsync(const std::string& path);

  // Every directory but "/".
  const std::set<std::string>& dirs() const { return dirs_; }
  const std::map<std::string, File>& files() const { return files_; }
  // The content of the file at `path`, null when there is none.
  const std::string* Content(const std::string& path) const;

 private:
  bool IsDir(const std::string& path) const { return path == "/" || dirs_.count(path) != 0; }

  std::set<std::string> dirs_;
  std::map<std::string, File> files_;
};

}  // namespace testbed

#endif  // SRC_TESTBED_TESTBED_H_
