#include "layers.h"

#include <algorithm>

#include "src/mpk/keyclass.h"
#include "src/mpk/mpk.h"
#include "src/zofs/zofs.h"

namespace perfbench {

LayerCounters LayerCounters::Read(Stack& s) {
  LayerCounters c;
  c.fg_crossings = kernfs::ForegroundCrossingCount();
  c.bg_crossings = kernfs::BackgroundCrossingCount();
  c.clwb = s.dev->clwb_count();
  c.sfence = s.dev->sfence_count();
  c.nvm_bytes = s.dev->bytes_written();
  for (auto& p : s.procs) {
    c.fd_alloc_locks += p->FdAllocLockAcquisitionsForTest();
    c.shard_locks += p->zofs().ShardLockAcquisitionsForTest();
    c.staged_hits += p->zofs().StagedAppendHits();
    c.session_epochs += p->zofs().SessionEpochForTest();
  }
  c.lock_steals = zofs::LockStealCount();
  c.online_repairs = zofs::OnlineRepairCount();
  c.reaped_lists = zofs::ReapedListCount();
  c.key_evictions = mpk::KeyEvictionCount();
  c.key_retag_pages = mpk::KeyRetagPageCount();
  return c;
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.fg_crossings = fg_crossings - o.fg_crossings;
  d.bg_crossings = bg_crossings - o.bg_crossings;
  d.clwb = clwb - o.clwb;
  d.sfence = sfence - o.sfence;
  d.nvm_bytes = nvm_bytes - o.nvm_bytes;
  d.fd_alloc_locks = fd_alloc_locks - o.fd_alloc_locks;
  d.shard_locks = shard_locks - o.shard_locks;
  d.staged_hits = staged_hits - o.staged_hits;
  d.session_epochs = session_epochs - o.session_epochs;
  d.lock_steals = lock_steals - o.lock_steals;
  d.online_repairs = online_repairs - o.online_repairs;
  d.reaped_lists = reaped_lists - o.reaped_lists;
  d.key_evictions = key_evictions - o.key_evictions;
  d.key_retag_pages = key_retag_pages - o.key_retag_pages;
  return d;
}

uint64_t MaxKeyClasses(Stack& s) {
  uint64_t m = 0;
  for (auto& p : s.procs) {
    m = std::max<uint64_t>(m, p->proc()->LiveProtClassCount());
  }
  return m;
}

uint64_t ThreadViolations() { return mpk::ThreadViolationCount(); }

}  // namespace perfbench
