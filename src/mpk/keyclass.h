// MPK key virtualization: protection classes and the LRU key window.
//
// The paper's §3 grouping observation — applications concentrate files in a
// handful of (uid, gid, permission) combinations — means coffers should not
// each burn one of the 15 usable physical keys. A *protection class* is the
// (uid, gid, perm) triple of a coffer root; every coffer of a process whose
// root carries the same triple maps under one shared physical key (libmpk /
// Hodor-style key multiplexing). A tenant with hundreds of same-owner coffers
// consumes one key.
//
// When a process still touches more than 15 *distinct classes*, the table
// runs an LRU key window: the least-recently-used keyed class loses only its
// key *assignment* — its pages are retagged to kUnmapped (0xff) by the
// kernel, its mappings, refcounts and the µFS's session caches stay intact —
// and is faulted back in on next access via one batched kRetag crossing
// (src/kernfs/channel.h). That replaces the paper's whole-coffer victim
// eviction (unmap crossing + remap crossing + global session-epoch bump).
//
// Concurrency contract: the table is mutated only by KernFS while holding its
// global lock. The class→key assignment is additionally *published* through
// relaxed atomics — the user-visible key table, the moral analog of a vDSO
// page — so the µFS can detect "my cached key was evicted / reassigned" with
// two loads and no crossing. As with PageKeyTable, a stale read is a defined
// benign race (the TLB-shootdown analog), never a torn value.
//
// This file is the ONE sanctioned writer of the physical-key bitmap; the
// zofs_lint rule `direct-key-assign` flags `key_used_` / `page_keys_`
// assignments anywhere outside the class allocator and KernFS's page-tag
// helpers.

#ifndef SRC_MPK_KEYCLASS_H_
#define SRC_MPK_KEYCLASS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/mpk/mpk.h"

namespace mpk {

// A protection class: the identity triple of a coffer root. Writability is
// deliberately NOT part of the class — per-page kPageReadOnly bits enforce
// read-only mappings page-by-page, so a read-only and a writable mapping of
// same-owner coffers can share one key.
struct ProtClass {
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint16_t perm = 0;  // mode bits as stored in the coffer root

  bool operator<(const ProtClass& o) const {
    if (uid != o.uid) return uid < o.uid;
    if (gid != o.gid) return gid < o.gid;
    return perm < o.perm;
  }
  bool operator==(const ProtClass& o) const {
    return uid == o.uid && gid == o.gid && perm == o.perm;
  }
};

// Per-process class→key table. Slots are stable small integers (never reused
// within a process) so a slot index can travel inside MapInfo and be cached
// by the µFS alongside the key it validated.
class KeyClassTable {
 public:
  // Slots are 16-bit and this value is reserved, so a process may form up to
  // 65535 distinct classes over its lifetime.
  static constexpr uint16_t kNoSlot = 0xffff;

  // Neither copyable nor movable (its atomics see to that), which chunks_[0]
  // relies on: it points into the table itself.
  KeyClassTable();
  ~KeyClassTable();

  // Find-or-create the slot for `cls`. Returns kNoSlot only when the 16-bit
  // slot space is used up (the caller surfaces Err::kNoKeys).
  uint16_t SlotFor(const ProtClass& cls);

  // Lock-free read of the published class→key assignment (the µFS fault-in
  // check). kUnmapped while the class is evicted or the slot is invalid.
  uint8_t PublishedKey(uint16_t slot) const;

  // Lock-free LRU stamp bump, callable from the µFS on every session-cache
  // revalidation. This is what makes the key window safe for an in-flight
  // operation: an op touches every coffer it will access up front (path
  // resolution → EnsureMapped → revalidate → Touch), so its working-set
  // classes carry recent stamps and EnsureKey's victim scan — which picks
  // the *oldest* stamp — does not demote a class the current
  // (single-threaded) op is still using. The hardware analog is the access
  // bit a pkey-eviction daemon consults before stealing a key. Touch
  // re-stamps a slot only once its stamp is kTouchSlack or more stamps
  // behind the clock, so a thread that works in at most kTouchSlack classes
  // stops writing the shared clock.
  void Touch(uint16_t slot);

  // The victim scan takes a class only when the 14 other keyed classes all
  // hold newer stamps, and a touch leaves at most kTouchSlack - 1 newer
  // ones, so on one thread a class it touched is demoted only once 15 -
  // kTouchSlack other keyed classes were stamped after it (9 here; 14 when
  // every touch that could re-stamp did). At most 13 keeps that at two or
  // more: an op working in three classes (a cross-coffer rename's two
  // parents and its moved coffer root) never demotes one of them itself.
  static constexpr uint64_t kTouchSlack = 6;
  static_assert(kTouchSlack >= 1 && kTouchSlack <= kNumKeys - 3,
                "a touch must keep a class through two other classes' stamps");

  // The slot's LRU stamp (0: never stamped). Tests only.
  uint64_t StampForTest(uint16_t slot) const {
    const Chunk* c = ChunkOf(slot);
    return c == nullptr ? 0 : c->touched[slot % kSlotsPerChunk].load(std::memory_order_relaxed);
  }

  // Membership/refcount: one Retain per mapped coffer in the class, one
  // Release on unmap. Release returns true when it dropped the last member
  // (the physical key, if any, was freed). Both are idempotent per
  // (slot, coffer_id) — the reaper may race a dead tenant's queued retag and
  // must release each mapping's refcount exactly once.
  void Retain(uint16_t slot, uint32_t coffer_id);
  bool Release(uint16_t slot, uint32_t coffer_id);

  // Ensures `slot` holds a physical key, touching its LRU stamp. When the
  // 15-key budget is exhausted, evicts the least-recently-used *other* keyed
  // class: its assignment is unpublished and its slot returned in *evicted
  // (kNoSlot otherwise) — the caller must retag the evicted class's pages to
  // kUnmapped and this class's pages to the key iff *fresh. Returns kUnmapped
  // only for a slot SlotFor never handed out.
  uint8_t EnsureKey(uint16_t slot, uint16_t* evicted, bool* fresh);

  // Member coffers of a slot (empty set for an invalid slot).
  const std::set<uint32_t>& Members(uint16_t slot) const;

  // Classes currently holding at least one mapped coffer.
  size_t LiveClassCount() const;

 private:
  struct Slot {
    ProtClass cls;
    uint8_t key = kUnmapped;  // kUnmapped while evicted
    std::set<uint32_t> members;  // mapped coffer ids (the retag set)
  };

  // The user-visible assignment table (relaxed atomics, see header comment)
  // and the LRU stamps beside it, in fixed-size chunks. SlotFor installs
  // each chunk once, under the KernFS lock, before handing out its first
  // slot; the µFS reads and bumps them lock-free through an acquire load of
  // the chunk pointer (the FsLib fd-table pattern). Chunks live until the
  // table dies, so a pointer once loaded never dangles. The first chunk is
  // a member, so a process that forms at most 256 classes allocates none.
  static constexpr size_t kSlotsPerChunk = 256;
  static constexpr size_t kChunks = (size_t{kNoSlot} + kSlotsPerChunk - 1) / kSlotsPerChunk;
  struct Chunk {
    Chunk();
    std::atomic<uint8_t> published[kSlotsPerChunk];
    std::atomic<uint64_t> touched[kSlotsPerChunk];
  };
  // The chunk holding `slot`, or nullptr before SlotFor installed it.
  Chunk* ChunkOf(uint16_t slot) const {
    return chunks_[slot / kSlotsPerChunk].load(std::memory_order_acquire);
  }
  void Publish(uint16_t slot, uint8_t key) {
    ChunkOf(slot)->published[slot % kSlotsPerChunk].store(key, std::memory_order_relaxed);
  }

  uint8_t TakeFreeKey();  // 0 when none free

  std::map<ProtClass, uint16_t> slot_of_;
  std::vector<Slot> slots_;
  bool key_used_[kNumKeys] = {};  // physical keys; 1..15 allocatable
  Chunk first_chunk_;
  std::array<std::atomic<Chunk*>, kChunks> chunks_{};
  std::atomic<uint64_t> touch_clock_{0};
};

// Process-wide accounting (bench_json / the soak report sample deltas):
// class-key evictions taken by the LRU window, and pages retagged by
// evictions plus fault-ins.
uint64_t KeyEvictionCount();
uint64_t KeyRetagPageCount();

namespace internal {
void NoteRetagPages(uint64_t n);
}  // namespace internal

}  // namespace mpk

#endif  // SRC_MPK_KEYCLASS_H_
