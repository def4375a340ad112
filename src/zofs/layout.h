// On-NVM structures of the ZoFS µFS (paper §5, Figure 5).
//
// A ZoFS coffer consists of:
//   * the coffer root page (kernel-owned, read-only to ZoFS);
//   * the root-file inode page;
//   * the custom page, which holds the coffer's allocator pool of leased
//     per-thread free lists (Figure 6);
//   * data, index and directory pages allocated from the pool.
//
// Every persistent reference is a byte offset from the NVM base (0 = null).
// ZoFS only allocates in 4 KB pages (paper: "ZoFS only supports 4KB-sized
// allocation for simplicity"); an inode consumes a whole page.

#ifndef SRC_ZOFS_LAYOUT_H_
#define SRC_ZOFS_LAYOUT_H_

#include <cstddef>
#include <cstdint>

#include "src/nvm/nvm.h"

namespace zofs {

inline constexpr uint64_t kInodeMagic = 0x5a4f46535f494e4fULL;  // "ZOFS_INO"
inline constexpr uint64_t kPoolMagic = 0x5a4f46535f504f4fULL;   // "ZOFS_POO"
// Rename-intent slot states (see RenameIntent below).
inline constexpr uint64_t kRenameIntentMagic = 0x5a4f46535f524e4dULL;    // "ZOFS_RNM"
inline constexpr uint64_t kRenameIntentClaimed = 0x5a4f46535f524e43ULL;  // "ZOFS_RNC"
// Staged-append intent slot states (see StagedAppendIntent below).
inline constexpr uint64_t kStagedIntentMagic = 0x5a4f46535f534150ULL;    // "ZOFS_SAP"
inline constexpr uint64_t kStagedIntentClaimed = 0x5a4f46535f534143ULL;  // "ZOFS_SAC"

inline constexpr uint32_t kTypeRegular = 1;
inline constexpr uint32_t kTypeDirectory = 2;
inline constexpr uint32_t kTypeSymlink = 3;

// Block map geometry (ext4-like; paper §5.1 "Regular Files").
inline constexpr int kDirectBlocks = 12;
inline constexpr uint64_t kPtrsPerPage = nvm::kPageSize / 8;  // 512
inline constexpr uint64_t kMaxFileBlocks =
    kDirectBlocks + kPtrsPerPage + kPtrsPerPage * kPtrsPerPage;

// Directory geometry (paper §5.1 "Directories"): an L1 page of 512 slots,
// each pointing to an L2 page; an L2 page embeds 16 dentries and a 256-bucket
// second-level hash whose buckets chain dentry-run pages.
inline constexpr uint64_t kL1Slots = 512;
inline constexpr uint64_t kL2Buckets = 256;
inline constexpr uint64_t kL2Embedded = 16;
inline constexpr uint64_t kRunDentries = 31;

inline constexpr uint16_t kDentryInUse = 1u << 0;
// Bits 1..2 of the dentry flags cache the child's file type so readdir does
// not have to touch child inodes (or map child coffers).
inline constexpr uint16_t kDentryTypeShift = 1;
inline constexpr uint16_t kDentryTypeMask = 0x3u << kDentryTypeShift;
inline constexpr size_t kMaxName = 103;

// 128-byte directory entry. `coffer_id != 0` marks a cross-coffer reference:
// the child lives in another coffer and `inode_off` must equal that coffer's
// root-inode offset (validated per guideline G3). `generation` is the child
// inode's generation when the entry was written: a locked access through
// this entry refuses an inode page freed or reused since.
struct Dentry {
  uint32_t name_hash;
  uint16_t name_len;
  uint16_t flags;
  uint32_t coffer_id;
  uint32_t generation;
  uint64_t inode_off;
  char name[kMaxName + 1];

  bool in_use() const { return flags & kDentryInUse; }
  uint32_t cached_type() const { return (flags & kDentryTypeMask) >> kDentryTypeShift; }
};
static_assert(sizeof(Dentry) == 128);
// A rename retarget rewrites flags, coffer_id, generation and inode_off with
// one cacheline write-back (ZoFs::DirReplaceTarget).
static_assert(offsetof(Dentry, inode_off) + 8 <= nvm::kCachelineSize);

// Second-level directory page.
struct L2Page {
  Dentry embedded[kL2Embedded];
  uint64_t buckets[kL2Buckets];  // heads of dentry-run chains
};
static_assert(sizeof(L2Page) == nvm::kPageSize);

// Overflow page holding a run of dentries, chained per bucket.
struct DentryRun {
  uint64_t next;
  uint64_t _pad[7];
  Dentry dentries[kRunDentries];
};
static_assert(sizeof(DentryRun) <= nvm::kPageSize);

// A full-page inode. Field groups:
//   identity/attributes, lease lock, block map (regular files),
//   directory root (directories), inline symlink target (symlinks).
struct Inode {
  uint64_t magic;
  uint32_t type;
  uint16_t mode;
  uint16_t iflags;  // kInodeInlineData
  uint32_t uid;
  uint32_t gid;
  uint64_t size;        // bytes for files/symlinks; entry count for dirs
  uint32_t nlink;       // 1, or 2 for a directory
  // Incarnation: FormatInode takes a fresh one from the coffer's counter
  // (AllocPool::generation) and FreeNode moves it (never to 0, which callers
  // use for "unchecked"), so a dentry or a lock waiter naming an earlier
  // incarnation of the page no longer matches.
  uint32_t generation;
  uint64_t mtime_ns;
  uint64_t ctime_ns;

  // Lease lock (paper §5.2): owner thread id (0 = free) + expiry deadline.
  uint64_t lock_owner;
  uint64_t lock_expiry_ns;

  // Regular file block map.
  uint64_t direct[kDirectBlocks];
  uint64_t indirect;
  uint64_t dindirect;

  // Directory: L1 page (0 until the first entry is inserted).
  uint64_t l1_dir;

  // Symlink target, inline (the page has plenty of room; paper §5.1
  // "Special Files").
  uint16_t symlink_len;
  char symlink_target[1024];
};
static_assert(sizeof(Inode) <= nvm::kPageSize);
// FreeNode persists the cleared magic and the moved generation with one
// cacheline write-back.
static_assert(offsetof(Inode, generation) + 4 <= nvm::kCachelineSize);

inline constexpr uint32_t NextGeneration(uint32_t g) { return g + 1 == 0 ? 1 : g + 1; }

// Bounds-only plausibility of a persistent page pointer (recovery and intent
// repair; the hot paths use ZoFs::ValidMetaPage, which also probes MPK).
inline bool PlausiblePage(const nvm::NvmDevice* dev, uint64_t off) {
  return off != 0 && off % nvm::kPageSize == 0 && off + nvm::kPageSize <= dev->size();
}

// Bytes of an Inode that non-symlink operations touch; creation flushes only
// this prefix (the inline symlink buffer is persisted by Symlink() itself).
inline constexpr size_t kInodeCoreBytes = offsetof(Inode, symlink_len);

// Inode flag bits.
inline constexpr uint16_t kInodeInlineData = 1u << 0;

// Inline small-file data (the paper's §5.1 future-work optimisation:
// "embedding file data in the inode page"): regular files never use the
// symlink area, so the tail of the inode page holds the data.
inline constexpr uint64_t kInlineOff = (kInodeCoreBytes + 63) & ~uint64_t{63};
inline constexpr uint64_t kInlineCapacity = nvm::kPageSize - kInlineOff;

// Leased per-thread free list (Figure 6). Free pages are linked through
// their first 8 bytes.
struct LeasedFreeList {
  uint64_t owner_tid;       // 0 = unowned; claimed by CAS
  uint64_t lease_expiry_ns;
  uint64_t head;            // first free page (byte offset), 0 = empty
  uint64_t count;
};
static_assert(sizeof(LeasedFreeList) == 32);

// 103 (not 120) lists: the tail of the custom page holds the rename intent
// and the staged-append intent (16 + 103*32 + 272 + 512 = 4096 exactly).
inline constexpr uint64_t kPoolLists = 103;

// Write-ahead intent for the two-site same-coffer rename paths (insert at
// the destination + remove at the source cannot be one atomic store).
// Rename claims the slot (magic: 0 -> kRenameIntentClaimed under the lease
// rule of lease.h; a dead holder's intent is repaired, never overwritten),
// persists the description, commits it by persisting
// magic = kRenameIntentMagic, performs the dentry updates and finally clears
// the slot. Coffer recovery (ZoFs::RepairPendingRename) rolls a committed
// intent forward when the destination dentry already references the child
// and discards it otherwise, so a crash anywhere inside rename leaves the
// namespace in exactly the pre- or post-rename state.
struct RenameIntent {
  uint64_t magic;            // 0 free / claimed / committed
  uint64_t lease_expiry_ns;  // the claim's lease (lease.h)
  uint64_t src_dir_ino;      // source parent directory inode offset
  uint64_t dst_dir_ino;      // destination parent directory inode offset
  uint64_t child_ino;        // moved node's inode offset
  uint64_t old_dst_ino;      // overwritten destination inode (0 = none)
  uint32_t child_coffer;     // dentry coffer_id of the moved node
  uint32_t old_dst_coffer;   // nonzero: the destination was a coffer root
  uint32_t child_type;       // cached dentry type of the moved node
  uint8_t src_len;
  uint8_t dst_len;
  uint16_t _pad2;
  char src_name[kMaxName + 1];
  char dst_name[kMaxName + 1];
};
static_assert(sizeof(RenameIntent) == 272);

// Staged-append relink intent (SplitFS-style staged write, see SplitFS
// [Kadekodi et al., SOSP '19] and DESIGN.md §7). Small appends land in
// freshly allocated staging pages whose block pointers / inode size are
// published only volatilely; at a durability point the epoch's data is
// fenced once and this intent describes the pending metadata relink:
//   1. persist the intent body, fence;
//   2. commit by persisting magic = kStagedIntentMagic, fence;
//   3. persist the real metadata (block-pointer slots, inode size line,
//      allocator list line) via the epoch's coalesced flush set, fence;
//   4. clear the slot (persist magic = 0, fence).
// A crash before (2) rolls back — fsync had not returned, nothing was
// promised. A crash between (2) and (3) rolls forward in recovery
// (RepairPendingStagedAppend re-installs pointers for blocks
// [start_blk, start_blk+count) from pages[] and sets size = new_size).
// After (4) the intent is inert. The clear in (4) MUST be fenced: an
// unfenced clear could be rolled back by a later crash, resurrecting a
// stale intent whose pages have since been freed and reused.
// Appended blocks are consecutive, so start_blk + count + the page list
// fully describe the relink. kStagedMaxPages bounds one epoch.
inline constexpr uint64_t kStagedMaxPages = 56;

struct StagedAppendIntent {
  uint64_t magic;            // 0 free / claimed / committed
  uint64_t lease_expiry_ns;  // the claim's lease (lease.h)
  uint64_t inode_off;        // target file inode offset
  uint64_t start_blk;        // first file block index being relinked
  uint64_t count;            // number of staged pages (<= kStagedMaxPages)
  uint64_t new_size;         // file size after the staged appends
  uint64_t base_size;        // file size before the staged appends
  uint64_t _pad;
  uint64_t pages[kStagedMaxPages];  // staging page offsets, in block order
};
static_assert(sizeof(StagedAppendIntent) == 512);

// Both intent slots open with the same leased pair: the magic word and its
// expiry stamp (lease.h).
static_assert(offsetof(RenameIntent, magic) == 0 && offsetof(StagedAppendIntent, magic) == 0);
static_assert(offsetof(RenameIntent, lease_expiry_ns) == 8 &&
              offsetof(StagedAppendIntent, lease_expiry_ns) == 8);
inline constexpr uint64_t IntentExpiryOff(uint64_t slot_off) { return slot_off + 8; }

// The coffer custom page: the allocator pool plus the two intents.
struct AllocPool {
  uint64_t magic;
  // The last inode generation handed out in this coffer (ZoFs::NewGeneration).
  // Bumped without a flush: recovery restarts it above every generation it
  // finds, and a new coffer starts from its creator's.
  uint64_t generation;
  LeasedFreeList lists[kPoolLists];
  RenameIntent rename_intent;
  StagedAppendIntent staged_intent;
};
static_assert(sizeof(AllocPool) <= nvm::kPageSize);

}  // namespace zofs

#endif  // SRC_ZOFS_LAYOUT_H_
