// Striped statistics counters: one cacheline-padded stripe per thread,
// summed on read.
//
// A statistic bumped on every clwb, sfence or kernel crossing must not bounce
// one shared cacheline between cores: as a single process-wide atomic, those
// read-modify-writes cost more than the modelled persistence work they count.
// StripedCounters keeps kCounterStripes copies of each counter, one stripe of
// N counters per cacheline; a thread adds to its own stripe and a reader sums
// all of them.
//
// A thread is given its stripe round-robin on its first Add, and the index is
// shared by every StripedCounters in the process. Once more threads than
// stripes have run, two threads may share a stripe, so Add stays an atomic
// read-modify-write (uncontended while each thread has a stripe to itself)
// and Sum stays exact. A Sum racing Adds counts each Add wholly or not at all,
// and successive Sums read by one thread never decrease, so delta sampling
// cannot underflow.

#ifndef SRC_COMMON_STRIPED_COUNTER_H_
#define SRC_COMMON_STRIPED_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace common {

inline constexpr size_t kCounterStripes = 64;

namespace internal {

inline std::atomic<uint32_t> g_next_counter_stripe{0};
// The calling thread's stripe plus one; 0 until its first Add.
inline thread_local uint32_t t_counter_stripe = 0;

inline size_t CounterStripe() {
  uint32_t s = t_counter_stripe;
  if (s == 0) [[unlikely]] {
    s = 1 + g_next_counter_stripe.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
    t_counter_stripe = s;
  }
  return s - 1;
}

}  // namespace internal

// N counters, indexed 0..N-1.
template <size_t N>
class StripedCounters {
 public:
  void Add(size_t i, uint64_t v) {
    stripes_[internal::CounterStripe()].v[i].fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t Sum(size_t i) const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.v[i].load(std::memory_order_relaxed);
    }
    return sum;
  }

  // Zeroes every counter. Adds racing the reset may survive it.
  void Reset() {
    for (Stripe& s : stripes_) {
      for (std::atomic<uint64_t>& c : s.v) {
        c.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v[N] = {};
  };
  static_assert(sizeof(Stripe) == 64, "one stripe must fill exactly one cacheline");

  Stripe stripes_[kCounterStripes];
};

}  // namespace common

#endif  // SRC_COMMON_STRIPED_COUNTER_H_
