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
// whole-file read, the page-diff containment check and a deterministic
// worker fan-out.

#ifndef SRC_TESTBED_TESTBED_H_
#define SRC_TESTBED_TESTBED_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

}  // namespace testbed

#endif  // SRC_TESTBED_TESTBED_H_
