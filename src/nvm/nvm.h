// Simulated byte-addressable non-volatile memory.
//
// This stands in for Intel Optane DC persistent memory (the paper's medium).
// It provides:
//   * a flat, page-granular region addressed by 64-bit offsets (persistent
//     structures store offsets, never raw pointers);
//   * persistence primitives mirroring the x86 model: explicit stores,
//     non-temporal bulk stores, `Clwb` cacheline write-back and `Sfence`;
//   * crash injection: when crash tracking is on, every store records the
//     pre-image of the touched cachelines, `SimulateCrash()` rolls back all
//     lines that were not written back + fenced — the adversarial model used
//     by persistent-memory testing tools;
//   * an optional media throttle reproducing Optane's read/write latency and
//     bandwidth asymmetry (paper Table 1) on DRAM;
//   * an access-check hook through which the simulated MPK facility (src/mpk)
//     enforces protection-key semantics on every store.

#ifndef SRC_NVM_NVM_H_
#define SRC_NVM_NVM_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/striped_counter.h"

namespace nvm {

inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kCachelineSize = 64;

// Optane-like media costs. All-zero (the default) disables throttling, which
// is what the file-system benchmarks use; the Table 1 media benchmark enables
// it to reproduce the DRAM/NVM asymmetry.
struct MediaProfile {
  uint64_t read_latency_ns = 0;   // charged once per read op
  uint64_t write_latency_ns = 0;  // charged once per write op
  double read_gbps = 0.0;         // 0 = uncapped
  double write_gbps = 0.0;        // 0 = uncapped

  bool enabled() const {
    return read_latency_ns || write_latency_ns || read_gbps > 0 || write_gbps > 0;
  }

  // Values scaled from the paper's Table 1 measurements of Optane DC PM.
  static MediaProfile OptaneLike();
  // DRAM reference point for the same table.
  static MediaProfile DramLike();
};

struct Options {
  size_t size_bytes = 64ull << 20;
  bool crash_tracking = false;
  MediaProfile media;
  // Costs of the persistence primitives themselves, charged as busy-waits:
  // on real Optane a clwb that actually writes back costs tens of ns per
  // line and an sfence with pending write-backs stalls for ~100 ns. These
  // drive the flush-per-line vs non-temporal gap the paper measures
  // (Figure 8). Zero (the default) disables the charge.
  uint64_t clwb_ns = 0;
  uint64_t sfence_ns = 0;
};

// Access hook invoked before each store/load API call; installed by the MPK
// simulation. Must return kOk to allow the access.
using AccessHook = common::Err (*)(void* ctx, uint64_t off, size_t len, bool is_write);

class NvmDevice;

// Observer of persistence-relevant events, installed by the audit layer
// (src/audit). Callbacks fire after the access hook has admitted the
// operation and outside the device's tracking lock; `dev` identifies the
// emitting device so one observer can watch several.
class PersistObserver {
 public:
  virtual ~PersistObserver() = default;
  // A store became visible. `nontemporal` marks NT stores, which bypass the
  // cache and only await the next Sfence.
  virtual void OnStore(const NvmDevice* dev, uint64_t off, size_t len, bool nontemporal) = 0;
  virtual void OnClwb(const NvmDevice* dev, uint64_t off, size_t len) = 0;
  virtual void OnSfence(const NvmDevice* dev) = 0;
  // Crash simulation or MarkAllPersistent: all volatile state is gone.
  virtual void OnPersistEpoch(const NvmDevice* dev) = 0;
  virtual void OnDeviceGone(const NvmDevice* dev) = 0;
};

// One journal entry per Sfence while crash capture is on (see
// StartCrashCapture): the cachelines that became persistent at this fence and
// the ones still volatile immediately after it. `in_flight` lines may persist
// at any instant before the next fence (cache eviction), so a legal mid-epoch
// crash state is the post-fence image plus any subset of the *next* epoch's
// persisted+in_flight lines at their fence-time content.
struct CrashEpoch {
  struct Line {
    uint64_t line;  // cacheline index (offset / kCachelineSize)
    uint8_t data[kCachelineSize];
  };
  uint64_t fence_seq = 0;       // sfence_count() after this fence
  std::vector<Line> persisted;  // became persistent at this fence (post-image)
  std::vector<Line> in_flight;  // still volatile after this fence
};

// Process-wide hook run at the end of every NvmDevice constructor. The audit
// layer registers itself here so ZOFS_AUDIT=1 can observe every device the
// test suite creates without each call site opting in.
using DeviceInitHook = void (*)(NvmDevice* dev);
void SetDeviceInitHook(DeviceInitHook hook);

class NvmDevice {
 public:
  explicit NvmDevice(const Options& opts);
  ~NvmDevice();

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }
  size_t size() const { return size_; }
  size_t num_pages() const { return size_ / kPageSize; }

  // Offset <-> pointer translation. Offsets are the persistent address form.
  uint64_t OffsetOf(const void* p) const {
    return static_cast<uint64_t>(static_cast<const uint8_t*>(p) - base_);
  }
  void* At(uint64_t off) { return base_ + off; }
  const void* At(uint64_t off) const { return base_ + off; }
  template <typename T>
  T* As(uint64_t off) {
    return reinterpret_cast<T*>(base_ + off);
  }

  // Overflow-safe range check: `off + len` may wrap uint64_t, so compare
  // against the remaining space instead of the sum.
  bool Contains(uint64_t off, size_t len) const { return off <= size_ && len <= size_ - off; }

  // ---- Store primitives (write path). All check the access hook, record
  // undo state when crash tracking is on, and count persistence traffic.
  void Store8(uint64_t off, uint8_t v);
  void Store16(uint64_t off, uint16_t v);
  void Store32(uint64_t off, uint32_t v);
  void Store64(uint64_t off, uint64_t v);
  void StoreBytes(uint64_t off, const void* src, size_t n);
  // Non-temporal bulk store: bypasses the cache, so the data is persistent
  // after the next Sfence without per-line Clwb. Charged at streaming
  // bandwidth when the media throttle is on.
  void NtStoreBytes(uint64_t off, const void* src, size_t n);

  // Atomic 64-bit ops on NVM words (used for lease locks / commit points).
  uint64_t AtomicLoad64(uint64_t off) const;
  void AtomicStore64(uint64_t off, uint64_t v);
  bool AtomicCas64(uint64_t off, uint64_t expected, uint64_t desired);
  uint64_t AtomicFetchAdd64(uint64_t off, uint64_t delta);

  // ---- Load path. Plain pointer reads are allowed for performance; these
  // helpers additionally run the access hook and the media throttle.
  void LoadBytes(uint64_t off, void* dst, size_t n) const;
  uint64_t Load64(uint64_t off) const;

  // ---- Persistence control.
  void Clwb(uint64_t off, size_t len);  // write back the covered cachelines
  void Sfence();                        // order/commit prior write-backs
  void PersistRange(uint64_t off, size_t len) {
    Clwb(off, len);
    Sfence();
  }

  // ---- Crash simulation.
  bool crash_tracking() const { return crash_tracking_; }
  // Discards all stores that were not Clwb'd + Sfence'd, restoring pre-images.
  // Returns the number of cachelines rolled back.
  size_t SimulateCrash();
  // Treat the current contents as fully persistent (e.g. after setup).
  void MarkAllPersistent();
  size_t DirtyLineCountForTest() const;

  // ---- Crash capture (requires crash_tracking). Marks everything persistent
  // and starts journaling a CrashEpoch per Sfence; the caller snapshots the
  // base image (SnapshotTo) right after so crash states can be rebuilt as
  // snapshot + persisted deltas. Lines within an epoch are sorted by index,
  // so the journal is deterministic for a deterministic workload.
  void StartCrashCapture();
  void StopCrashCapture();
  const std::vector<CrashEpoch>& crash_journal() const { return crash_journal_; }

  // Full-image copy out / in. RestoreFrom bypasses the access hook and the
  // crash tracker and leaves the device fully persistent — it loads a
  // materialized crash image into a (recycled) device for recovery.
  void SnapshotTo(std::vector<uint8_t>* out) const;
  void RestoreFrom(const uint8_t* img, size_t len);

  // ---- MPK hook.
  void SetAccessHook(AccessHook hook, void* ctx) {
    hook_ctx_ = ctx;
    hook_ = hook;
  }

  // ---- Audit observer (src/audit). At most one per device.
  void SetPersistObserver(PersistObserver* obs) { observer_ = obs; }
  PersistObserver* persist_observer() const { return observer_; }
  // Runs `f` as one step for the observer: no other thread's store,
  // write-back or fence is reported while it runs, so a check followed by an
  // atomic write inside `f` is reported in the order it took effect. Without
  // an observer it just runs `f`.
  template <typename F>
  auto ObservedStep(F&& f) -> decltype(f()) {
    if (observer_ == nullptr) {
      return f();
    }
    common::RecursiveMutexLock lk(&observe_mu_);
    return f();
  }

  // ---- Counters (diagnostics and benchmarks). Striped per thread, so each
  // read sums every stripe.
  uint64_t clwb_count() const { return counters_.Sum(kClwbs); }
  uint64_t sfence_count() const { return counters_.Sum(kSfences); }
  // Counts bulk data traffic (StoreBytes/NtStoreBytes); word-sized stores
  // are not counted to keep the hot path free of counter updates.
  uint64_t bytes_written() const { return counters_.Sum(kBytesWritten); }
  void ResetCounters() { counters_.Reset(); }

  const MediaProfile& media() const { return media_; }
  uint64_t clwb_ns() const { return clwb_ns_; }
  uint64_t sfence_ns() const { return sfence_ns_; }

 private:
  void CheckAccess(uint64_t off, size_t len, bool is_write) const;
  void TrackStore(uint64_t off, size_t len);
  void Observe(uint64_t off, size_t len, bool nontemporal) {
    if (observer_ != nullptr && len != 0) {
      common::RecursiveMutexLock lk(&observe_mu_);
      observer_->OnStore(this, off, len, nontemporal);
    }
  }
  void ChargeWrite(size_t n);
  void ChargeRead(size_t n) const;

  struct LineState {
    alignas(8) uint8_t pre_image[kCachelineSize];
    bool written_back = false;  // Clwb'd but not yet fenced
  };

  uint8_t* base_ = nullptr;
  size_t size_ = 0;
  bool crash_tracking_ = false;
  MediaProfile media_;
  uint64_t clwb_ns_ = 0;
  uint64_t sfence_ns_ = 0;

  AccessHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
  PersistObserver* observer_ = nullptr;
  // Orders observer events as the memory operations they report. An atomic
  // read-modify-write holds it across the operation and its report: reported
  // late, a swap that landed before another thread's write-back would read
  // as re-dirtying the line after it. Recursive: an observer may store
  // (tests/store_trap.h). Taken only while an observer is attached.
  mutable common::RecursiveMutex observe_mu_;

  mutable common::Mutex track_mu_;
  std::unordered_map<uint64_t, LineState> dirty_lines_ GUARDED_BY(track_mu_);
  bool crash_capture_ GUARDED_BY(track_mu_) = false;
  // Mutates under track_mu_ but is read unlocked through the const accessor
  // once capture has stopped (the journal is consumed single-threaded by
  // crashmon), so it carries no GUARDED_BY.
  std::vector<CrashEpoch> crash_journal_;

  enum Counter : size_t { kClwbs, kSfences, kBytesWritten, kNumCounters };
  common::StripedCounters<kNumCounters> counters_;

  // Bandwidth token buckets (monotonic "next free" times, ns).
  mutable std::atomic<uint64_t> read_free_ns_{0};
  mutable std::atomic<uint64_t> write_free_ns_{0};
};

// Copy-on-write crash-image builder. Seeded with a device snapshot and its
// crash journal, it keeps one working image and advances it by replaying each
// epoch's persisted deltas, so enumerating every crash point of an N-epoch
// journal costs O(total journal lines) copies instead of N full images.
// Epochs must be visited in non-decreasing order (one builder per worker
// owning a contiguous epoch range).
class CrashImageBuilder {
 public:
  // `journal` must outlive the builder; `snapshot` is copied.
  CrashImageBuilder(const std::vector<uint8_t>& snapshot, const std::vector<CrashEpoch>* journal);

  // Advances the working image to the state persistent immediately after
  // journal epoch `epoch_idx` (-1 = the bare snapshot). Monotonic.
  void AdvanceTo(int64_t epoch_idx);

  // The working image: the on-media state for a crash strictly between fence
  // `epoch_idx` and the next fence, with no further evictions.
  const std::vector<uint8_t>& image() const { return image_; }

  // Materializes a mid-epoch state into `out`: the working image plus the
  // subset of the next epoch's candidate lines (persisted followed by
  // in_flight, in journal order) selected by `pick(i)` — each selected line
  // persists with its fence-time content. Returns false (and leaves `out`
  // untouched) when there is no next epoch or no line was selected.
  bool MaterializeMidEpoch(const std::vector<bool>& pick, std::vector<uint8_t>* out) const;
  // Number of candidate lines in the next epoch (size `pick` accordingly).
  size_t NextEpochLineCount() const;

 private:
  std::vector<uint8_t> image_;
  const std::vector<CrashEpoch>* journal_;
  int64_t epoch_idx_ = -1;
};

}  // namespace nvm

#endif  // SRC_NVM_NVM_H_
