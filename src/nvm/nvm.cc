#include "src/nvm/nvm.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "src/common/clock.h"

namespace nvm {

namespace {
// The crash model treats any Clwb'd-but-unfenced line as still volatile
// (adversarial). See DESIGN.md §4 (nvm).
constexpr bool kStrictFenceModel = true;

DeviceInitHook g_init_hook = nullptr;
}  // namespace

void SetDeviceInitHook(DeviceInitHook hook) { g_init_hook = hook; }

MediaProfile MediaProfile::OptaneLike() {
  // Paper Table 1, scaled down 100x in bandwidth so a single-core host can
  // exercise the cap: what matters for the reproduction is the read/write
  // asymmetry (39 vs 14 GB/s; 305 vs 94 ns), not the absolute magnitude.
  MediaProfile p;
  p.read_latency_ns = 305;
  p.write_latency_ns = 94;
  p.read_gbps = 0.39;
  p.write_gbps = 0.14;
  return p;
}

MediaProfile MediaProfile::DramLike() {
  MediaProfile p;
  p.read_latency_ns = 81;
  p.write_latency_ns = 86;
  p.read_gbps = 1.15;
  p.write_gbps = 0.79;
  return p;
}

NvmDevice::NvmDevice(const Options& opts)
    : size_((opts.size_bytes + kPageSize - 1) & ~(kPageSize - 1)),
      crash_tracking_(opts.crash_tracking),
      media_(opts.media),
      clwb_ns_(opts.clwb_ns),
      sfence_ns_(opts.sfence_ns) {
  // An anonymous private mapping reads as zeroes and is zero-filled by the
  // kernel page by page on first touch, so a large device costs nothing
  // until it is used. Huge pages where the kernel offers them (real PM is
  // DAX-mapped with 2 MB pages too); the hint is advisory, so its result is
  // ignored.
  void* mem = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    abort();
  }
  base_ = static_cast<uint8_t*>(mem);
  madvise(base_, size_, MADV_HUGEPAGE);
  if (g_init_hook != nullptr) {
    g_init_hook(this);
  }
}

NvmDevice::~NvmDevice() {
  if (observer_ != nullptr) {
    observer_->OnDeviceGone(this);
  }
  munmap(base_, size_);
}

void NvmDevice::CheckAccess(uint64_t off, size_t len, bool is_write) const {
  assert(off + len <= size_ && "NVM access out of range");
  if (hook_ != nullptr) {
    common::Err e = hook_(hook_ctx_, off, len, is_write);
    if (e != common::Err::kOk) {
      // The hook reports violations by throwing from inside (see src/mpk);
      // reaching here with a non-kOk code means an unrecoverable setup bug.
      abort();
    }
  }
}

void NvmDevice::TrackStore(uint64_t off, size_t len) {
  if (!crash_tracking_ || len == 0) {
    return;
  }
  uint64_t first = off / kCachelineSize;
  uint64_t last = (off + len - 1) / kCachelineSize;
  common::MutexLock lk(&track_mu_);
  for (uint64_t line = first; line <= last; line++) {
    auto [it, inserted] = dirty_lines_.try_emplace(line);
    if (inserted) {
      memcpy(it->second.pre_image, base_ + line * kCachelineSize, kCachelineSize);
      it->second.written_back = false;
    } else if (it->second.written_back) {
      // A line that was written back but not fenced is dirtied again: keep
      // the original pre-image; it is volatile again.
      it->second.written_back = false;
    }
  }
}

void NvmDevice::ChargeWrite(size_t n) {
  counters_.Add(kBytesWritten, n);
  if (!media_.enabled()) {
    return;
  }
  uint64_t cost = media_.write_latency_ns;
  if (media_.write_gbps > 0) {
    cost += static_cast<uint64_t>(static_cast<double>(n) / media_.write_gbps);
  }
  uint64_t now = common::NowNs();
  uint64_t prev = write_free_ns_.load(std::memory_order_relaxed);
  uint64_t start, finish;
  do {
    start = prev > now ? prev : now;
    finish = start + cost;
  } while (!write_free_ns_.compare_exchange_weak(prev, finish, std::memory_order_relaxed));
  while (common::NowNs() < finish) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

void NvmDevice::ChargeRead(size_t n) const {
  if (!media_.enabled()) {
    return;
  }
  uint64_t cost = media_.read_latency_ns;
  if (media_.read_gbps > 0) {
    cost += static_cast<uint64_t>(static_cast<double>(n) / media_.read_gbps);
  }
  uint64_t now = common::NowNs();
  uint64_t prev = read_free_ns_.load(std::memory_order_relaxed);
  uint64_t start, finish;
  do {
    start = prev > now ? prev : now;
    finish = start + cost;
  } while (!read_free_ns_.compare_exchange_weak(prev, finish, std::memory_order_relaxed));
  while (common::NowNs() < finish) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

void NvmDevice::Store8(uint64_t off, uint8_t v) {
  CheckAccess(off, 1, /*is_write=*/true);
  TrackStore(off, 1);
  Observe(off, 1, /*nontemporal=*/false);
  base_[off] = v;
}

void NvmDevice::Store16(uint64_t off, uint16_t v) {
  CheckAccess(off, 2, true);
  TrackStore(off, 2);
  Observe(off, 2, false);
  memcpy(base_ + off, &v, 2);
}

void NvmDevice::Store32(uint64_t off, uint32_t v) {
  CheckAccess(off, 4, true);
  TrackStore(off, 4);
  Observe(off, 4, false);
  memcpy(base_ + off, &v, 4);
}

void NvmDevice::Store64(uint64_t off, uint64_t v) {
  CheckAccess(off, 8, true);
  TrackStore(off, 8);
  Observe(off, 8, false);
  memcpy(base_ + off, &v, 8);
}

void NvmDevice::StoreBytes(uint64_t off, const void* src, size_t n) {
  CheckAccess(off, n, true);
  TrackStore(off, n);
  Observe(off, n, false);
  memcpy(base_ + off, src, n);
  ChargeWrite(n);
}

void NvmDevice::NtStoreBytes(uint64_t off, const void* src, size_t n) {
  CheckAccess(off, n, true);
  if (crash_tracking_ && n > 0) {
    // NT stores bypass the cache: model them as dirty lines that are already
    // written back (they become persistent at the next fence).
    uint64_t first = off / kCachelineSize;
    uint64_t last = (off + n - 1) / kCachelineSize;
    common::MutexLock lk(&track_mu_);
    for (uint64_t line = first; line <= last; line++) {
      auto [it, inserted] = dirty_lines_.try_emplace(line);
      if (inserted) {
        memcpy(it->second.pre_image, base_ + line * kCachelineSize, kCachelineSize);
      }
      it->second.written_back = true;
    }
  }
  Observe(off, n, /*nontemporal=*/true);
  memcpy(base_ + off, src, n);
  ChargeWrite(n);
}

uint64_t NvmDevice::AtomicLoad64(uint64_t off) const {
  assert(off % 8 == 0);
  return reinterpret_cast<const std::atomic<uint64_t>*>(base_ + off)
      ->load(std::memory_order_acquire);
}

void NvmDevice::AtomicStore64(uint64_t off, uint64_t v) {
  assert(off % 8 == 0);
  CheckAccess(off, 8, true);
  TrackStore(off, 8);
  Observe(off, 8, false);
  reinterpret_cast<std::atomic<uint64_t>*>(base_ + off)->store(v, std::memory_order_release);
}

bool NvmDevice::AtomicCas64(uint64_t off, uint64_t expected, uint64_t desired) {
  assert(off % 8 == 0);
  CheckAccess(off, 8, true);
  TrackStore(off, 8);
  bool ok = reinterpret_cast<std::atomic<uint64_t>*>(base_ + off)
                ->compare_exchange_strong(expected, desired, std::memory_order_acq_rel);
  if (ok) {
    Observe(off, 8, false);
  }
  return ok;
}

uint64_t NvmDevice::AtomicFetchAdd64(uint64_t off, uint64_t delta) {
  assert(off % 8 == 0);
  CheckAccess(off, 8, true);
  TrackStore(off, 8);
  uint64_t old = reinterpret_cast<std::atomic<uint64_t>*>(base_ + off)
                     ->fetch_add(delta, std::memory_order_acq_rel);
  Observe(off, 8, false);
  return old;
}

void NvmDevice::LoadBytes(uint64_t off, void* dst, size_t n) const {
  CheckAccess(off, n, /*is_write=*/false);
  memcpy(dst, base_ + off, n);
  ChargeRead(n);
}

uint64_t NvmDevice::Load64(uint64_t off) const {
  CheckAccess(off, 8, false);
  uint64_t v;
  memcpy(&v, base_ + off, 8);
  ChargeRead(8);
  return v;
}

void NvmDevice::Clwb(uint64_t off, size_t len) {
  if (observer_ != nullptr && len != 0) {
    observer_->OnClwb(this, off, len);
  }
  const uint64_t lines = (len + kCachelineSize - 1) / kCachelineSize;
  counters_.Add(kClwbs, lines);
  if (clwb_ns_ != 0) {
    common::SpinNs(lines * clwb_ns_);
  }
  if (!crash_tracking_ || len == 0) {
    return;
  }
  uint64_t first = off / kCachelineSize;
  uint64_t last = (off + len - 1) / kCachelineSize;
  common::MutexLock lk(&track_mu_);
  for (uint64_t line = first; line <= last; line++) {
    auto it = dirty_lines_.find(line);
    if (it != dirty_lines_.end()) {
      it->second.written_back = true;
    }
  }
}

void NvmDevice::Sfence() {
  if (observer_ != nullptr) {
    observer_->OnSfence(this);
  }
  counters_.Add(kSfences, 1);
  if (sfence_ns_ != 0) {
    common::SpinNs(sfence_ns_);
  }
  if (!crash_tracking_) {
    return;
  }
  common::MutexLock lk(&track_mu_);
  if (crash_capture_) {
    CrashEpoch ep;
    ep.fence_seq = sfence_count();
    for (const auto& [line, state] : dirty_lines_) {
      CrashEpoch::Line l;
      l.line = line;
      memcpy(l.data, base_ + line * kCachelineSize, kCachelineSize);
      (state.written_back ? ep.persisted : ep.in_flight).push_back(l);
    }
    auto by_line = [](const CrashEpoch::Line& a, const CrashEpoch::Line& b) {
      return a.line < b.line;
    };
    std::sort(ep.persisted.begin(), ep.persisted.end(), by_line);
    std::sort(ep.in_flight.begin(), ep.in_flight.end(), by_line);
    if (!ep.persisted.empty() || !ep.in_flight.empty()) {
      crash_journal_.push_back(std::move(ep));
    }
  }
  for (auto it = dirty_lines_.begin(); it != dirty_lines_.end();) {
    if (it->second.written_back) {
      it = dirty_lines_.erase(it);
    } else {
      ++it;
    }
  }
}

void NvmDevice::StartCrashCapture() {
  assert(crash_tracking_ && "crash capture requires crash_tracking");
  common::MutexLock lk(&track_mu_);
  dirty_lines_.clear();
  crash_journal_.clear();
  crash_capture_ = true;
}

void NvmDevice::StopCrashCapture() {
  common::MutexLock lk(&track_mu_);
  crash_capture_ = false;
}

void NvmDevice::SnapshotTo(std::vector<uint8_t>* out) const {
  out->resize(size_);
  common::MutexLock lk(&track_mu_);
  memcpy(out->data(), base_, size_);
}

void NvmDevice::RestoreFrom(const uint8_t* img, size_t len) {
  assert(len == size_ && "crash image size must match the device");
  common::MutexLock lk(&track_mu_);
  memcpy(base_, img, len);
  dirty_lines_.clear();
  crash_journal_.clear();
  crash_capture_ = false;
}

size_t NvmDevice::SimulateCrash() {
  if (observer_ != nullptr) {
    observer_->OnPersistEpoch(this);
  }
  common::MutexLock lk(&track_mu_);
  size_t rolled_back = 0;
  for (auto& [line, state] : dirty_lines_) {
    if (kStrictFenceModel || !state.written_back) {
      memcpy(base_ + line * kCachelineSize, state.pre_image, kCachelineSize);
      rolled_back++;
    }
  }
  dirty_lines_.clear();
  return rolled_back;
}

void NvmDevice::MarkAllPersistent() {
  if (observer_ != nullptr) {
    observer_->OnPersistEpoch(this);
  }
  common::MutexLock lk(&track_mu_);
  dirty_lines_.clear();
}

size_t NvmDevice::DirtyLineCountForTest() const {
  common::MutexLock lk(&track_mu_);
  return dirty_lines_.size();
}

CrashImageBuilder::CrashImageBuilder(const std::vector<uint8_t>& snapshot,
                                     const std::vector<CrashEpoch>* journal)
    : image_(snapshot), journal_(journal) {}

void CrashImageBuilder::AdvanceTo(int64_t epoch_idx) {
  assert(epoch_idx >= epoch_idx_ && "epochs must be visited in order");
  assert(epoch_idx < static_cast<int64_t>(journal_->size()));
  while (epoch_idx_ < epoch_idx) {
    epoch_idx_++;
    for (const auto& l : (*journal_)[epoch_idx_].persisted) {
      memcpy(image_.data() + l.line * kCachelineSize, l.data, kCachelineSize);
    }
  }
}

size_t CrashImageBuilder::NextEpochLineCount() const {
  const int64_t next = epoch_idx_ + 1;
  if (next >= static_cast<int64_t>(journal_->size())) {
    return 0;
  }
  const CrashEpoch& ep = (*journal_)[next];
  return ep.persisted.size() + ep.in_flight.size();
}

bool CrashImageBuilder::MaterializeMidEpoch(const std::vector<bool>& pick,
                                            std::vector<uint8_t>* out) const {
  const int64_t next = epoch_idx_ + 1;
  if (next >= static_cast<int64_t>(journal_->size())) {
    return false;
  }
  const CrashEpoch& ep = (*journal_)[next];
  bool any = false;
  for (size_t i = 0; i < pick.size(); i++) {
    if (pick[i]) {
      any = true;
      break;
    }
  }
  if (!any) {
    return false;
  }
  *out = image_;
  const size_t np = ep.persisted.size();
  for (size_t i = 0; i < pick.size(); i++) {
    if (!pick[i]) {
      continue;
    }
    const CrashEpoch::Line& l = i < np ? ep.persisted[i] : ep.in_flight[i - np];
    memcpy(out->data() + l.line * kCachelineSize, l.data, kCachelineSize);
  }
  return true;
}

}  // namespace nvm
