#include "src/mpk/keyclass.h"

namespace mpk {

namespace {
std::atomic<uint64_t> g_key_evictions{0};
std::atomic<uint64_t> g_key_retag_pages{0};
}  // namespace

uint64_t KeyEvictionCount() { return g_key_evictions.load(std::memory_order_relaxed); }
uint64_t KeyRetagPageCount() { return g_key_retag_pages.load(std::memory_order_relaxed); }

namespace internal {
void NoteRetagPages(uint64_t n) { g_key_retag_pages.fetch_add(n, std::memory_order_relaxed); }
}  // namespace internal

KeyClassTable::Chunk::Chunk() {
  for (auto& p : published) {
    p.store(kUnmapped, std::memory_order_relaxed);
  }
  for (auto& t : touched) {
    t.store(0, std::memory_order_relaxed);
  }
}

KeyClassTable::KeyClassTable() {
  chunks_[0].store(&first_chunk_, std::memory_order_relaxed);
}

KeyClassTable::~KeyClassTable() {
  for (size_t i = 1; i < kChunks; i++) {
    delete chunks_[i].load(std::memory_order_relaxed);
  }
}

void KeyClassTable::Touch(uint16_t slot) {
  Chunk* c = ChunkOf(slot);
  if (c == nullptr) {
    return;
  }
  std::atomic<uint64_t>& stamp = c->touched[slot % kSlotsPerChunk];
  // Stamps are unique nonzero clock values, so a slot whose stamp equals the
  // clock already holds the freshest one and a new stamp would not change the
  // LRU order: skip the shared-clock write. The nonzero test matters on a
  // fresh table, where the clock and every stamp are 0.
  const uint64_t s = stamp.load(std::memory_order_relaxed);
  if (s != 0 && s == touch_clock_.load(std::memory_order_relaxed)) {
    return;
  }
  stamp.store(touch_clock_.fetch_add(1, std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

uint16_t KeyClassTable::SlotFor(const ProtClass& cls) {
  auto it = slot_of_.find(cls);
  if (it != slot_of_.end()) {
    return it->second;
  }
  if (slots_.size() >= kNoSlot) {
    return kNoSlot;
  }
  const uint16_t slot = static_cast<uint16_t>(slots_.size());
  if (slot != 0 && slot % kSlotsPerChunk == 0) {
    // First slot of a fresh heap chunk: publish the chunk before the slot
    // can reach the µFS (inside a MapInfo returned through the kernel lock).
    chunks_[slot / kSlotsPerChunk].store(new Chunk(), std::memory_order_release);
  }
  slots_.push_back(Slot{cls, kUnmapped, {}});
  slot_of_.emplace(cls, slot);
  return slot;
}

uint8_t KeyClassTable::PublishedKey(uint16_t slot) const {
  // Called lock-free from the µFS: touch ONLY the chunked atomics, never
  // slots_ (which the kernel grows under its lock).
  const Chunk* c = ChunkOf(slot);
  if (c == nullptr) {
    return kUnmapped;
  }
  return c->published[slot % kSlotsPerChunk].load(std::memory_order_relaxed);
}

void KeyClassTable::Retain(uint16_t slot, uint32_t coffer_id) {
  if (slot >= slots_.size()) {
    return;
  }
  slots_[slot].members.insert(coffer_id);
}

bool KeyClassTable::Release(uint16_t slot, uint32_t coffer_id) {
  if (slot >= slots_.size()) {
    return false;
  }
  Slot& s = slots_[slot];
  // Idempotent per (slot, coffer_id): a second Release for the same mapping
  // (reaper racing a queued retag) is a no-op, never a double-free.
  if (s.members.erase(coffer_id) == 0) {
    return false;
  }
  if (!s.members.empty()) {
    return false;
  }
  if (s.key != kUnmapped) {
    key_used_[s.key] = false;
    s.key = kUnmapped;
    Publish(slot, kUnmapped);
  }
  return true;
}

uint8_t KeyClassTable::TakeFreeKey() {
  for (uint8_t k = 1; k < kNumKeys; k++) {
    if (!key_used_[k]) {
      key_used_[k] = true;
      return k;
    }
  }
  return 0;
}

uint8_t KeyClassTable::EnsureKey(uint16_t slot, uint16_t* evicted, bool* fresh) {
  *evicted = kNoSlot;
  *fresh = false;
  if (slot >= slots_.size()) {
    return kUnmapped;
  }
  Slot& s = slots_[slot];
  Touch(slot);
  if (s.key != kUnmapped) {
    return s.key;
  }
  uint8_t key = TakeFreeKey();
  if (key == 0) {
    // The LRU key window: demote the coldest *other* keyed class. Only the
    // assignment moves — members, refcounts and µFS caches stay; the caller
    // retags the victim's pages to kUnmapped so its next access faults in.
    // Stamps come from the touched atomics, which the µFS bumps lock-free on
    // every revalidation, so an in-flight op's working set is never the
    // victim. Every used key belongs to a keyed slot and this slot holds
    // none, so with all 15 in use the scan always finds a victim.
    uint16_t victim = kNoSlot;
    uint64_t victim_stamp = 0;
    for (uint16_t i = 0; i < slots_.size(); i++) {
      if (i == slot || slots_[i].key == kUnmapped) {
        continue;
      }
      const uint64_t stamp =
          ChunkOf(i)->touched[i % kSlotsPerChunk].load(std::memory_order_relaxed);
      if (victim == kNoSlot || stamp < victim_stamp) {
        victim = i;
        victim_stamp = stamp;
      }
    }
    Slot& v = slots_[victim];
    key = v.key;
    v.key = kUnmapped;
    Publish(victim, kUnmapped);
    *evicted = victim;
    g_key_evictions.fetch_add(1, std::memory_order_relaxed);
  }
  s.key = key;
  Publish(slot, key);
  *fresh = true;
  return key;
}

const std::set<uint32_t>& KeyClassTable::Members(uint16_t slot) const {
  static const std::set<uint32_t> kEmpty;
  if (slot >= slots_.size()) {
    return kEmpty;
  }
  return slots_[slot].members;
}

size_t KeyClassTable::LiveClassCount() const {
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (!s.members.empty()) {
      n++;
    }
  }
  return n;
}

}  // namespace mpk
