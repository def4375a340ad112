#include "src/kernfs/channel.h"

#include <atomic>
#include <utility>

#include "src/common/killpoint.h"

namespace kernfs {
namespace {

// Channel-local thread ids (kernfs cannot depend on zofs::CurrentTid).
// Never 0, never reused.
uint64_t ChanTid() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

Channel::Channel(KernFs* kfs, Process* proc) : kfs_(kfs), proc_(proc), pid_(proc->pid()) {
  kfs_->RegisterChannel(pid_, this);
}

Channel::~Channel() { kfs_->UnregisterChannel(pid_, this); }

void Channel::RunBatch(const ChanRequest* fg, ChanCompletion* fg_done) {
  common::SpinLockGuard lk(&mu_);
  RunBatchLocked(fg, fg_done);
}

// The lock is held across ExecuteBatch. That is deliberate: the channel
// belongs to one thread, so contention is limited to DrainAll/stats from a
// second thread, and holding mu_ keeps the sub_/done_/pending_enlarge_ state
// transition atomic with respect to them. KernFs::mu_ nests inside channel
// mu_ and KernFs never calls into a channel while holding its own mu_
// (KillProcess/ReapDeadProcesses/FsUmount reclaim rings via
// Channel::ReapForKernel *before* taking KernFs::mu_), so there is no cycle.
void Channel::RunBatchLocked(const ChanRequest* fg, ChanCompletion* fg_done) {
  std::vector<ChanRequest> batch;
  batch.swap(sub_);
  if (fg != nullptr) {
    batch.push_back(*fg);
    batch.back().seq = next_seq_++;
  }
  if (batch.empty()) return;

  // Tenant death mid-batch: the batch vector (DRAM) evaporates with the
  // process; nothing reached the kernel. The spinlock guard unwinds.
  common::KillPoint(common::kKillMidChannelBatch);

  std::vector<ChanCompletion> comps;
  kfs_->ExecuteBatch(*proc_, batch, &comps);

  bool all_background = true;
  for (const ChanRequest& r : batch) {
    if (!r.background) all_background = false;
  }
  stats_.crossings++;
  if (all_background) {
    stats_.background_crossings++;
  } else {
    stats_.foreground_crossings++;
  }
  stats_.requests += batch.size();
  if (batch.size() > 1) stats_.batched_requests += batch.size();

  for (ChanCompletion& c : comps) {
    if (fg != nullptr && fg_done != nullptr && c.seq == batch.back().seq) {
      *fg_done = std::move(c);
      continue;
    }
    done_.push_back(std::move(c));
  }
}

Result<MapInfo> Channel::Map(uint32_t coffer_id, bool writable) {
  ChanRequest req;
  req.op = ChanOp::kMap;
  req.coffer_id = coffer_id;
  req.writable = writable;
  ChanCompletion done;
  RunBatch(&req, &done);
  if (!done.status.ok()) return done.status.error();
  return done.map_info;
}

Result<std::vector<PageRun>> Channel::Enlarge(uint32_t coffer_id,
                                              uint64_t n_pages) {
  ChanRequest req;
  req.op = ChanOp::kEnlarge;
  req.coffer_id = coffer_id;
  req.n_pages = n_pages;
  ChanCompletion done;
  RunBatch(&req, &done);
  if (!done.status.ok()) return done.status.error();
  return std::move(done.runs);
}

Result<MapInfo> Channel::Retag(uint32_t coffer_id) {
  ChanRequest req;
  req.op = ChanOp::kRetag;
  req.coffer_id = coffer_id;
  ChanCompletion done;
  RunBatch(&req, &done);
  if (!done.status.ok()) return done.status.error();
  return done.map_info;
}

uint64_t Channel::SubmitEnlarge(uint32_t coffer_id, uint64_t n_pages) {
  common::SpinLockGuard lk(&mu_);
  auto it = pending_enlarge_.find(coffer_id);
  if (it != pending_enlarge_.end() && it->second) return 0;
  pending_enlarge_[coffer_id] = true;
  ChanRequest req;
  req.op = ChanOp::kEnlarge;
  req.coffer_id = coffer_id;
  req.n_pages = n_pages;
  req.background = true;
  req.seq = next_seq_++;
  uint64_t seq = req.seq;
  sub_.push_back(std::move(req));
  stats_.async_submitted++;
  return seq;
}

bool Channel::HasPendingEnlarge(uint32_t coffer_id) {
  common::SpinLockGuard lk(&mu_);
  auto it = pending_enlarge_.find(coffer_id);
  return it != pending_enlarge_.end() && it->second;
}

void Channel::Flush() {
  common::SpinLockGuard lk(&mu_);
  RunBatchLocked(nullptr, nullptr);
}

bool Channel::TakeEnlarge(uint32_t coffer_id, ChanCompletion* out) {
  common::SpinLockGuard lk(&mu_);
  auto it = pending_enlarge_.find(coffer_id);
  if (it == pending_enlarge_.end() || !it->second) return false;

  auto claim = [&]() -> bool {
    for (size_t i = 0; i < done_.size(); i++) {
      if (done_[i].op == ChanOp::kEnlarge && done_[i].coffer_id == coffer_id) {
        *out = std::move(done_[i]);
        done_.erase(done_.begin() + static_cast<ptrdiff_t>(i));
        pending_enlarge_[coffer_id] = false;
        stats_.harvested++;
        return true;
      }
    }
    return false;
  };

  if (claim()) return true;
  // The request is still queued on the submission ring: execute it now
  // (piggybacking whatever else is queued), then claim the completion.
  RunBatchLocked(nullptr, nullptr);
  if (claim()) return true;
  // Should not happen (pending flag without a queued request or completion),
  // but fail soft: clear the flag so the caller falls back to a sync refill.
  pending_enlarge_[coffer_id] = false;
  return false;
}

std::vector<ChanCompletion> Channel::Harvest() {
  common::SpinLockGuard lk(&mu_);
  std::vector<ChanCompletion> out;
  for (size_t i = 0; i < done_.size();) {
    if (done_[i].op != ChanOp::kEnlarge) {
      out.push_back(std::move(done_[i]));
      done_.erase(done_.begin() + static_cast<ptrdiff_t>(i));
    } else {
      i++;
    }
  }
  stats_.harvested += out.size();
  return out;
}

void Channel::Drain() {
  common::SpinLockGuard lk(&mu_);
  // Unexecuted enlarge requests are dropped: nothing happened in the kernel,
  // so there is nothing to undo. Anything else queued still executes.
  for (size_t i = 0; i < sub_.size();) {
    if (sub_[i].op == ChanOp::kEnlarge) {
      pending_enlarge_[sub_[i].coffer_id] = false;
      sub_.erase(sub_.begin() + static_cast<ptrdiff_t>(i));
    } else {
      i++;
    }
  }
  // Completed-but-unharvested enlarge grants hold pages the allocator never
  // linked into a free list; return them via CofferShrink so a clean drain
  // strands nothing.
  for (size_t i = 0; i < done_.size();) {
    ChanCompletion& c = done_[i];
    if (c.op == ChanOp::kEnlarge) {
      if (c.status.ok() && !c.runs.empty()) {
        ChanRequest req;
        req.op = ChanOp::kShrink;
        req.coffer_id = c.coffer_id;
        req.background = true;
        req.runs = std::move(c.runs);
        req.seq = next_seq_++;
        sub_.push_back(std::move(req));
      }
      pending_enlarge_[c.coffer_id] = false;
      done_.erase(done_.begin() + static_cast<ptrdiff_t>(i));
    } else {
      i++;
    }
  }
  RunBatchLocked(nullptr, nullptr);
  // Drop the drain's own completions; nobody harvests after a drain.
  done_.clear();
}

std::vector<std::pair<uint32_t, std::vector<PageRun>>> Channel::ReapForKernel() {
  common::SpinLockGuard lk(&mu_);
  std::vector<std::pair<uint32_t, std::vector<PageRun>>> grants;
  // Unexecuted submissions never reached the kernel: nothing to undo.
  sub_.clear();
  for (ChanCompletion& c : done_) {
    if (c.op == ChanOp::kEnlarge && c.status.ok() && !c.runs.empty()) {
      grants.emplace_back(c.coffer_id, std::move(c.runs));
    }
  }
  done_.clear();
  pending_enlarge_.clear();
  return grants;
}

ChannelStats Channel::stats() {
  common::SpinLockGuard lk(&mu_);
  return stats_;
}

size_t Channel::QueuedForTest() {
  common::SpinLockGuard lk(&mu_);
  return sub_.size();
}

size_t Channel::DoneForTest() {
  common::SpinLockGuard lk(&mu_);
  return done_.size();
}

bool Channel::CorruptQueuedForTest(size_t idx) {
  common::SpinLockGuard lk(&mu_);
  if (idx >= sub_.size()) return false;
  sub_[idx].magic ^= 0xdeadbeef;
  sub_[idx].op = static_cast<ChanOp>(0x7f);
  return true;
}

ChannelSet::ChannelSet(KernFs* kfs, Process* proc, bool enabled)
    : kfs_(kfs),
      proc_(proc),
      enabled_(enabled),
      set_id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

ChannelSet::~ChannelSet() {
  if (!abandoned_) DrainAll();
}

void ChannelSet::Abandon() {
  common::MutexLock lk(&mu_);
  abandoned_ = true;
}

Channel* ChannelSet::Current() {
  if (!enabled_) return nullptr;
  // Thread-local cache: steady state resolves without the registry lock.
  // Keyed by the never-reused set_id_ so a ChannelSet constructed at a
  // recycled address cannot match stale TLS.
  struct CacheSlot {
    uint64_t set_id = 0;
    Channel* ch = nullptr;
  };
  constexpr size_t kCacheSlots = 8;
  thread_local CacheSlot cache[kCacheSlots];
  const size_t slot = static_cast<size_t>(set_id_ % kCacheSlots);
  if (cache[slot].set_id == set_id_) return cache[slot].ch;

  const uint64_t tid = ChanTid();
  Channel* ch = nullptr;
  {
    common::MutexLock lk(&mu_);
    std::unique_ptr<Channel>& entry = by_tid_[tid];
    if (entry == nullptr) entry = std::make_unique<Channel>(kfs_, proc_);
    ch = entry.get();
  }
  cache[slot].set_id = set_id_;
  cache[slot].ch = ch;
  return ch;
}

void ChannelSet::DrainAll() {
  common::MutexLock lk(&mu_);
  for (auto& [tid, ch] : by_tid_) {
    (void)tid;
    ch->Drain();
  }
}

ChannelStats ChannelSet::Aggregate() {
  common::MutexLock lk(&mu_);
  ChannelStats total;
  for (auto& [tid, ch] : by_tid_) {
    (void)tid;
    ChannelStats s = ch->stats();
    total.crossings += s.crossings;
    total.foreground_crossings += s.foreground_crossings;
    total.background_crossings += s.background_crossings;
    total.requests += s.requests;
    total.batched_requests += s.batched_requests;
    total.async_submitted += s.async_submitted;
    total.harvested += s.harvested;
  }
  return total;
}

}  // namespace kernfs
