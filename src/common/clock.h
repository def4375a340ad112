// Monotonic time and simulated-cost charging.
//
// The reproduction models hardware and privilege-boundary costs (kernel
// crossings, NVM media latency) as calibrated busy-waits so that measured
// throughput and latency keep the paper's relative shape on commodity DRAM.

#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace common {

// The hardware clock, never overridden. Cost-model busy-waits must use this
// so they terminate even while a test pins the logical clock.
inline uint64_t RealNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {
// 0 = no override (read the hardware clock). Tests pin logical time to make
// lease expiry — inode locks, free-list leases, rename intents — play out
// deterministically.
inline std::atomic<uint64_t> g_now_override_ns{0};
}  // namespace detail

// Logical monotonic time. All lease words stored on NVM are stamped and
// compared against this clock, so a test that overrides it can express "the
// owner died and its lease lapsed" without sleeping.
inline uint64_t NowNs() {
  const uint64_t o = detail::g_now_override_ns.load(std::memory_order_relaxed);
  return o != 0 ? o : RealNowNs();
}

// RAII pin of the logical clock: freezes NowNs() at `ns` so that every
// time-dependent persistent word — free-list leases, inode-lock leases,
// timestamps — plays out identically across reruns regardless of host load.
// Restores whatever override was active before (usually none) on exit.
class ScopedClockPin {
 public:
  explicit ScopedClockPin(uint64_t ns)
      : prev_(detail::g_now_override_ns.exchange(ns, std::memory_order_relaxed)) {}
  ~ScopedClockPin() { detail::g_now_override_ns.store(prev_, std::memory_order_relaxed); }
  ScopedClockPin(const ScopedClockPin&) = delete;
  ScopedClockPin& operator=(const ScopedClockPin&) = delete;

 private:
  uint64_t prev_;
};

// Advances a pinned clock; no-op when the hardware clock is active.
inline void AdvanceNowNsForTest(uint64_t delta_ns) {
  uint64_t cur = detail::g_now_override_ns.load(std::memory_order_relaxed);
  while (cur != 0 && !detail::g_now_override_ns.compare_exchange_weak(
                         cur, cur + delta_ns, std::memory_order_relaxed)) {
  }
}

// Busy-wait for `ns` nanoseconds. Spinning (rather than sleeping) matches the
// granularity of the costs being modelled (hundreds of nanoseconds) — OS
// sleep primitives cannot model sub-microsecond stalls.
inline void SpinNs(uint64_t ns) {
  if (ns == 0) {
    return;
  }
  const uint64_t start = RealNowNs();
  while (RealNowNs() - start < ns) {
    // Relax the pipeline; keeps the spin polite on SMT siblings.
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

// RAII stopwatch for nanosecond timing.
class Stopwatch {
 public:
  Stopwatch() : start_(NowNs()) {}
  uint64_t ElapsedNs() const { return NowNs() - start_; }
  void Restart() { start_ = NowNs(); }

 private:
  uint64_t start_;
};

}  // namespace common

#endif  // SRC_COMMON_CLOCK_H_
