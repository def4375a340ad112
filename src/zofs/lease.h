// The lease rule of ZoFS (paper §5.2), shared by every leased NVM word: inode
// locks, leased free lists and the two intent slots. A word is 0 when free
// and carries an expiry stamp; a survivor takes a claim over only once that
// stamp is dead. Every claim, of a free word or of a dead holder's, CASes the
// expiry to a fresh stamp *before* it CASes the word: nobody sees a live
// claim next to a stale (or zero) expiry. A claimant CASes the word only
// while its stamp is still there, so of several racing claimants only the
// last to stamp can claim; one overtaken between its two CASes backs off
// instead of claiming late — after the word was claimed, released and
// perhaps its inode freed.

#ifndef SRC_ZOFS_LEASE_H_
#define SRC_ZOFS_LEASE_H_

#include <algorithm>
#include <cstdint>
#include <thread>

#include "src/common/clock.h"
#include "src/nvm/nvm.h"

namespace zofs {

// No legal stamp exceeds now + the longest lease anyone writes (recovery
// uses 10 s); an expiry further out is corrupt metadata, not a live holder.
inline constexpr uint64_t kMaxLeaseSlackNs = 60'000'000'000ull;

// A stamp no live holder can own: expired, or too far out to be legal.
inline bool LeaseDead(uint64_t expiry, uint64_t now) {
  return expiry < now || expiry > now + kMaxLeaseSlackNs;
}

// Paces a claim loop waiting out a live holder: pause, then yield (the
// holder is probably descheduled; leases are hundreds of ms). Next() is false
// once the wait bound, max(4 x lease, 10 ms), passes (the claimant then gives
// up with EBUSY), on the hardware clock so it holds when a test pins the
// logical clock.
class LeaseWait {
 public:
  explicit LeaseWait(uint64_t lease_ns)
      : give_up_(common::RealNowNs() + std::max<uint64_t>(4 * lease_ns, 10'000'000)) {}

  bool Next() {
    if (common::RealNowNs() >= give_up_) {
      return false;
    }
    if (++spins_ < 64) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    } else {
      std::this_thread::yield();
      spins_ = 0;
    }
    return true;
  }

 private:
  uint64_t give_up_;
  int spins_ = 0;
};

enum class Claim {
  kNone,     // a live holder owns the word, or a racing claimant moved it first
  kClaimed,  // took a free word
  kStole,    // took over a dead holder's word and inherits its state
};

// One claim attempt on (`word_off`, `expiry_off`), whose word the caller read
// as `seen`: 0 -> `mine` for a free word, `seen` -> `mine` for a dead
// holder's. `holder_dead` takes a live-stamped word over when the caller
// knows its holder is dead (it needed a lock the caller just stole). The
// expiry is read before the word is re-read and the clock after both, so a
// claimant whose view went stale fails without touching either word.
// `still_valid` runs after the stamp and the word are read and before
// anything is written: a caller whose leased object may be freed (under its
// lease) and its memory reused checks here that it is still the one it
// named; a reuse after that rewrites the stamp and fails the expiry CAS.
template <typename Valid>
inline Claim TryClaimLease(nvm::NvmDevice* dev, uint64_t word_off, uint64_t expiry_off,
                           uint64_t seen, uint64_t mine, uint64_t lease_ns, bool holder_dead,
                           Valid&& still_valid) {
  const uint64_t expiry = dev->AtomicLoad64(expiry_off);
  if (dev->AtomicLoad64(word_off) != seen || !still_valid()) {
    return Claim::kNone;
  }
  const uint64_t now = common::NowNs();
  if (seen != 0 && !holder_dead && !LeaseDead(expiry, now)) {
    return Claim::kNone;
  }
  const uint64_t stamp = now + lease_ns;
  if (!dev->AtomicCas64(expiry_off, expiry, stamp)) {
    return Claim::kNone;
  }
  // The last checks and the word CAS are one step, so an auditor sees the
  // claim where it took effect (nvm::NvmDevice::ObservedStep).
  const bool won = dev->ObservedStep([&] {
    return dev->AtomicLoad64(expiry_off) == stamp && still_valid() &&
           dev->AtomicCas64(word_off, seen, mine);
  });
  if (!won) {
    return Claim::kNone;
  }
  return seen == 0 ? Claim::kClaimed : Claim::kStole;
}

inline Claim TryClaimLease(nvm::NvmDevice* dev, uint64_t word_off, uint64_t expiry_off,
                           uint64_t seen, uint64_t mine, uint64_t lease_ns,
                           bool holder_dead = false) {
  return TryClaimLease(dev, word_off, expiry_off, seen, mine, lease_ns, holder_dead,
                       [] { return true; });
}

}  // namespace zofs

#endif  // SRC_ZOFS_LEASE_H_
