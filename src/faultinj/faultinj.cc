// zofs-lint: allow(raw-nvm-deref) — the fault injector's whole purpose is
// raw access to NVM bytes: it corrupts pages and diffs raw images.

#include "src/faultinj/faultinj.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <vector>

#include "src/common/clock.h"
#include "src/common/json.h"
#include "src/common/rand.h"
#include "src/common/result.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"
#include "src/zofs/layout.h"
#include "src/zofs/zofs.h"

namespace faultinj {

namespace {

using common::Err;

constexpr vfs::Cred kCred{0, 0};

// Logical time is pinned here for the whole campaign so every lease-expiry
// and quarantine-backoff decision replays identically across runs and worker
// threads (leases written during setup are "live" at an identical instant in
// every trial).
constexpr uint64_t kEpochNs = 1'000'000'000'000ull;

// Wall-clock budget per operation; the hardened walks are cycle-bounded, so
// anything slower than this is flagged. A true infinite loop cannot be
// interrupted from within the process — the bound on directory/free-list
// walks is what turns would-be hangs into clean errors.
constexpr uint64_t kHangBudgetNs = 5'000'000'000ull;

constexpr int kDirFiles = 40;
constexpr uint64_t kBigBytes = 20 * nvm::kPageSize;  // engages the indirect block
constexpr uint64_t kSecretBytes = 2 * nvm::kPageSize;
constexpr uint64_t kVaultBytes = nvm::kPageSize;

std::string FileName(int i) {
  char b[16];
  snprintf(b, sizeof(b), "f%04d", i);
  return b;
}

// Deterministic per-file content; `tag` distinguishes files.
std::string Pattern(uint32_t tag, size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; i++) {
    s[i] = static_cast<char>((tag * 167 + i * 131 + 7) & 0xff);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Trial plan

struct Patch {
  uint64_t off = 0;
  std::vector<uint8_t> bytes;
};

struct Trial {
  uint64_t id = 0;
  FaultClass cls = FaultClass::kControl;
  uint32_t victim = 0;
  std::string target;
  std::vector<Patch> patches;
  // The trial deliberately scribbles /big's data pages (used as raw material
  // for fabricated metadata); its content compare is then meaningless.
  bool big_data_patched = false;
};

// Everything the workers need: the quiescent image plus harvested offsets of
// the structures the campaign corrupts.
struct SetupInfo {
  std::vector<uint8_t> image;
  size_t dev_bytes = 0;
  uint64_t num_pages = 0;
  uint64_t alloc_table_off = 0;
  uint32_t root_cid = 0;
  uint32_t secret_cid = 0;  // private coffer of /secret (mode 0600)
  uint32_t vault_cid = 0;   // private coffer of /vault — the untouched sibling
  uint64_t big_ino = 0;     // inode page byte offsets
  uint64_t d_ino = 0;
  uint64_t secret_ino = 0;
  std::vector<uint64_t> big_pages;  // data page byte offsets, block order
  std::vector<uint64_t> secret_pages;
  std::vector<uint64_t> vault_pages;
  uint64_t d_l1 = 0;        // /d's L1 directory page
  uint64_t d_l2 = 0;        // first populated L2 page
  uint64_t dentry_off = 0;  // a live embedded dentry inside d_l2
  uint64_t root_pool = 0;   // AllocPool page byte offsets
  uint64_t secret_pool = 0;
  std::string err;
};

Patch P64(uint64_t off, uint64_t v) {
  Patch p;
  p.off = off;
  p.bytes.resize(8);
  memcpy(p.bytes.data(), &v, 8);
  return p;
}

Patch P32(uint64_t off, uint32_t v) {
  Patch p;
  p.off = off;
  p.bytes.resize(4);
  memcpy(p.bytes.data(), &v, 4);
  return p;
}

// A whole fabricated page whose first 8 bytes are `next` (a DentryRun with
// no live dentries).
Patch PRunPage(uint64_t off, uint64_t next) {
  Patch p;
  p.off = off;
  p.bytes.assign(nvm::kPageSize, 0);
  memcpy(p.bytes.data(), &next, 8);
  return p;
}

// ---------------------------------------------------------------------------
// Setup: run the workload, harvest corruption targets, snapshot.

SetupInfo Setup(const CampaignOptions& opts) {
  SetupInfo s;
  s.dev_bytes = opts.dev_bytes;

  testbed::Stack stack({.size_bytes = opts.dev_bytes, .media = {}}, {.root_mode = 0755});
  const nvm::NvmDevice& dev = *stack.dev();
  kernfs::KernFs* kfs = stack.kfs();
  zofs::Options zo;
  zo.lease_ns = 1'000'000;
  fslib::FsLib* fs = stack.AddProcess(kCred, zo);

  auto fail = [&](const std::string& m) {
    s.err = m;
    return s;
  };

  auto put = [&](const std::string& path, uint16_t mode, const std::string& data) -> bool {
    auto fd = fs->Open(kCred, path, vfs::kCreate | vfs::kWrite, mode);
    if (!fd.ok()) {
      return false;
    }
    auto n = fs->Pwrite(*fd, data.data(), data.size(), 0);
    fs->Close(*fd);
    return n.ok() && *n == data.size();
  };

  if (!fs->Mkdir(kCred, "/d", 0755).ok()) {
    return fail("setup: mkdir /d failed");
  }
  for (int i = 0; i < kDirFiles; i++) {
    if (!put("/d/" + FileName(i), 0644, Pattern(i, 256))) {
      return fail("setup: create /d/" + FileName(i) + " failed");
    }
  }
  if (!put("/big", 0644, Pattern(1000, kBigBytes))) {
    return fail("setup: create /big failed");
  }
  // Owner-only files: ZoFS places each in its own coffer (paper §4.1), which
  // is what gives the campaign a cross-coffer boundary to attack.
  if (!put("/secret", 0600, Pattern(2000, kSecretBytes))) {
    return fail("setup: create /secret failed");
  }
  if (!put("/vault", 0600, Pattern(3000, kVaultBytes))) {
    return fail("setup: create /vault failed");
  }

  // Harvest target offsets. The harness reads the device raw here (fsck's
  // view); nothing below mutates it.
  zofs::ZoFs& z = fs->zofs();
  auto big = z.Lookup("/big", true);
  auto d = z.Lookup("/d", true);
  auto secret = z.Lookup("/secret", true);
  auto vault = z.Lookup("/vault", true);
  if (!big.ok() || !d.ok() || !secret.ok() || !vault.ok()) {
    return fail("setup: lookup of workload files failed");
  }
  s.root_cid = kfs->root_coffer_id();
  s.secret_cid = secret->coffer_id;
  s.vault_cid = vault->coffer_id;
  if (s.secret_cid == s.root_cid || s.vault_cid == s.root_cid || s.secret_cid == s.vault_cid) {
    return fail("setup: 0600 files did not split into private coffers");
  }
  s.big_ino = big->inode_off;
  s.d_ino = d->inode_off;
  s.secret_ino = secret->inode_off;

  auto pages_of = [&](const ufs::NodeRef& n, std::vector<uint64_t>* out) -> bool {
    uint64_t size = 0;
    auto idx = z.FilePages(n, &size);
    if (!idx.ok()) {
      return false;
    }
    for (uint64_t pg : *idx) {
      out->push_back(pg * nvm::kPageSize);
    }
    return !out->empty();
  };
  if (!pages_of(*big, &s.big_pages) || !pages_of(*secret, &s.secret_pages) ||
      !pages_of(*vault, &s.vault_pages) || s.big_pages.size() < 4) {
    return fail("setup: FilePages harvest failed");
  }

  const auto* di = reinterpret_cast<const zofs::Inode*>(dev.base() + s.d_ino);
  s.d_l1 = di->l1_dir;
  if (s.d_l1 == 0) {
    return fail("setup: /d has no L1 directory page");
  }
  const auto* slots = reinterpret_cast<const uint64_t*>(dev.base() + s.d_l1);
  for (uint64_t i = 0; i < zofs::kL1Slots && s.d_l2 == 0; i++) {
    s.d_l2 = slots[i];
  }
  if (s.d_l2 == 0) {
    return fail("setup: /d has no populated L2 page");
  }
  const auto* l2 = reinterpret_cast<const zofs::L2Page*>(dev.base() + s.d_l2);
  for (uint64_t i = 0; i < zofs::kL2Embedded; i++) {
    if (l2->embedded[i].in_use()) {
      s.dentry_off = s.d_l2 + offsetof(zofs::L2Page, embedded) + i * sizeof(zofs::Dentry);
      break;
    }
  }
  if (s.dentry_off == 0) {
    return fail("setup: no live embedded dentry in /d");
  }

  s.root_pool = kfs->RootPageOf(s.root_cid)->custom_off;
  s.secret_pool = kfs->RootPageOf(s.secret_cid)->custom_off;
  const auto* sb = reinterpret_cast<const kernfs::Superblock*>(dev.base());
  s.alloc_table_off = sb->alloc_table_off;
  s.num_pages = sb->num_pages;

  stack.Shutdown();
  dev.SnapshotTo(&s.image);
  return s;
}

// ---------------------------------------------------------------------------
// Trial plan construction (deterministic in the seed)

std::vector<Trial> BuildTrials(const SetupInfo& s, const CampaignOptions& opts) {
  common::Rng rng(opts.seed);
  std::vector<Trial> out;
  auto want = [&](FaultClass c) {
    return opts.classes.empty() ||
           std::find(opts.classes.begin(), opts.classes.end(), c) != opts.classes.end();
  };
  auto add = [&](FaultClass c, uint32_t victim, std::string target, std::vector<Patch> patches,
                 bool big_data_patched = false) {
    if (c != FaultClass::kControl && !want(c)) {
      return;
    }
    Trial t;
    t.id = out.size();
    t.cls = c;
    t.victim = victim;
    t.target = std::move(target);
    t.patches = std::move(patches);
    t.big_data_patched = big_data_patched;
    out.push_back(std::move(t));
  };

  add(FaultClass::kControl, s.root_cid, "no corruption (harness self-check)", {});

  // -- Volatile fault: a queued submission-channel entry scribbled in flight.
  // No image patch: RunTrial corrupts the live ring before the op battery.
  add(FaultClass::kChanEntryScribble, s.root_cid, "async channel entry scribbled in flight",
      {});

  // -- Random single-bit flips across whole persistent structures.
  struct FlipTarget {
    FaultClass cls;
    const char* what;
    uint64_t off;
    size_t len;
    uint32_t victim;
  };
  const FlipTarget flips[] = {
      {FaultClass::kInodeBitFlip, "inode /big", s.big_ino, sizeof(zofs::Inode), s.root_cid},
      {FaultClass::kInodeBitFlip, "inode /d", s.d_ino, sizeof(zofs::Inode), s.root_cid},
      {FaultClass::kInodeBitFlip, "inode /secret", s.secret_ino, sizeof(zofs::Inode),
       s.secret_cid},
      {FaultClass::kDirentBitFlip, "dentry in /d", s.dentry_off, sizeof(zofs::Dentry),
       s.root_cid},
  };
  for (const FlipTarget& t : flips) {
    if (!want(t.cls)) {
      continue;
    }
    for (uint32_t k = 0; k < opts.flips_per_struct; k++) {
      const uint64_t byte = rng.Below(t.len);
      const uint32_t bit = static_cast<uint32_t>(rng.Below(8));
      Patch p;
      p.off = t.off + byte;
      p.bytes = {static_cast<uint8_t>(s.image[p.off] ^ (1u << bit))};
      char desc[96];
      snprintf(desc, sizeof(desc), "%s byte %llu bit %u", t.what,
               static_cast<unsigned long long>(byte), bit);
      add(t.cls, t.victim, desc, {std::move(p)});
    }
  }

  // -- Block pointers out of range / misaligned.
  const uint64_t sec_d0 = s.secret_ino + offsetof(zofs::Inode, direct);
  const uint64_t big_d0 = s.big_ino + offsetof(zofs::Inode, direct);
  const uint64_t big_ind = s.big_ino + offsetof(zofs::Inode, indirect);
  add(FaultClass::kBlkptrOutOfRange, s.secret_cid, "/secret direct[0] -> end of device",
      {P64(sec_d0, s.dev_bytes)});
  add(FaultClass::kBlkptrOutOfRange, s.secret_cid, "/secret direct[0] -> far out of range",
      {P64(sec_d0, s.dev_bytes + 37 * nvm::kPageSize)});
  add(FaultClass::kBlkptrOutOfRange, s.secret_cid, "/secret direct[0] -> misaligned 0x3",
      {P64(sec_d0, 0x3)});
  add(FaultClass::kBlkptrOutOfRange, s.root_cid, "/big indirect -> end of device",
      {P64(big_ind, s.dev_bytes)});
  add(FaultClass::kBlkptrOutOfRange, s.root_cid, "/big indirect -> misaligned 0xfff",
      {P64(big_ind, 0xfff)});

  // -- Block pointers into pages another coffer owns (the MPK wall).
  add(FaultClass::kBlkptrCrossCoffer, s.secret_cid, "/secret direct[0] -> root-coffer data page",
      {P64(sec_d0, s.big_pages[0])});
  add(FaultClass::kBlkptrCrossCoffer, s.secret_cid, "/secret direct[0] -> /vault data page",
      {P64(sec_d0, s.vault_pages[0])});
  add(FaultClass::kBlkptrCrossCoffer, s.root_cid, "/big direct[0] -> /secret data page",
      {P64(big_d0, s.secret_pages[0])});
  // Same-coffer misdirection: MPK cannot catch this (protection is
  // coffer-granular) — the byte-compare oracle should see silent data damage.
  add(FaultClass::kBlkptrCrossCoffer, s.secret_cid,
      "/secret direct[1] -> own inode page (same coffer)", {P64(sec_d0 + 8, s.secret_ino)});

  // -- Allocation-table lies.
  const uint64_t big_slot =
      s.alloc_table_off + (s.big_pages[0] / nvm::kPageSize) * sizeof(kernfs::AllocEntry);
  const uint64_t vault_slot =
      s.alloc_table_off + (s.vault_pages[0] / nvm::kPageSize) * sizeof(kernfs::AllocEntry);
  add(FaultClass::kAllocRunLie, s.root_cid, "alloc run_len -> 0xffffffff at /big data page",
      {P32(big_slot + 4, 0xffffffffu)});
  add(FaultClass::kAllocRunLie, s.root_cid, "alloc run_len -> 0 at /big data page",
      {P32(big_slot + 4, 0)});
  // The thief (root) is the victim here, so the /vault liveness read still
  // runs and meets the stolen page; the patched-table oracle excludes the
  // page itself from the sibling set (it now reads as root-owned).
  add(FaultClass::kAllocRunLie, s.root_cid, "alloc owner of /vault data page -> root coffer",
      {P32(vault_slot, s.root_cid)});

  // -- Free-list garbage (root pool, list 0 — the list setup populated; the
  // owner/lease words are zeroed so the trial thread claims exactly this
  // list and meets the poisoned head).
  const uint64_t l0 = s.root_pool + offsetof(zofs::AllocPool, lists);
  auto freelist = [&](const char* what, uint64_t head) {
    add(FaultClass::kFreeListGarbage, s.root_cid, what,
        {P64(l0 + offsetof(zofs::LeasedFreeList, owner_tid), 0),
         P64(l0 + offsetof(zofs::LeasedFreeList, lease_expiry_ns), 0),
         P64(l0 + offsetof(zofs::LeasedFreeList, head), head),
         P64(l0 + offsetof(zofs::LeasedFreeList, count), 100)});
  };
  freelist("root free-list head -> 0xdeadbeef", 0xdeadbeefull);
  freelist("root free-list head -> unowned tail page", s.dev_bytes - nvm::kPageSize);
  freelist("root free-list head -> /vault data page", s.vault_pages[0]);

  // -- Lease-word garbage: allocator leases and inode lock words.
  add(FaultClass::kLeaseGarbage, s.root_cid, "root free-list lease -> implausibly far future",
      {P64(l0 + offsetof(zofs::LeasedFreeList, owner_tid), 0x4141414141414141ull),
       P64(l0 + offsetof(zofs::LeasedFreeList, lease_expiry_ns), ~0ull)});
  add(FaultClass::kLeaseGarbage, s.root_cid, "root free-list lease -> live 30s, dead owner",
      {P64(l0 + offsetof(zofs::LeasedFreeList, owner_tid), 0x4242424242424242ull),
       P64(l0 + offsetof(zofs::LeasedFreeList, lease_expiry_ns),
           kEpochNs + 30'000'000'000ull)});
  add(FaultClass::kLeaseGarbage, s.root_cid, "/big inode lock -> implausible expiry",
      {P64(s.big_ino + offsetof(zofs::Inode, lock_owner), 0x4343434343434343ull),
       P64(s.big_ino + offsetof(zofs::Inode, lock_expiry_ns), ~0ull)});
  add(FaultClass::kLeaseGarbage, s.root_cid, "/big inode lock -> live 30s, dead owner",
      {P64(s.big_ino + offsetof(zofs::Inode, lock_owner), 0x4444444444444444ull),
       P64(s.big_ino + offsetof(zofs::Inode, lock_expiry_ns), kEpochNs + 30'000'000'000ull)});

  // -- Directory hash-chain cycles. Two of /big's data pages (root coffer,
  // so they pass ownership validation) become a fabricated run chain that
  // loops; bounded walks must detect it.
  const uint64_t bucket0 = s.d_l2 + offsetof(zofs::L2Page, buckets);
  add(FaultClass::kDirCycle, s.root_cid, "dentry-run chain cycle A -> B -> A",
      {PRunPage(s.big_pages[2], s.big_pages[3]), PRunPage(s.big_pages[3], s.big_pages[2]),
       P64(bucket0, s.big_pages[2])},
      /*big_data_patched=*/true);
  add(FaultClass::kDirCycle, s.root_cid, "bucket -> its own L2 page", {P64(bucket0, s.d_l2)});
  add(FaultClass::kDirCycle, s.root_cid, "/d l1_dir -> /d inode page",
      {P64(s.d_ino + offsetof(zofs::Inode, l1_dir), s.d_ino)});

  // -- Coffer-root garbage (kernel metadata the µFS reads via coffer_map).
  const uint64_t sroot = static_cast<uint64_t>(s.secret_cid) * nvm::kPageSize;
  add(FaultClass::kCofferRootBogus, s.secret_cid, "/secret coffer-root magic -> 0x1337",
      {P64(sroot + offsetof(kernfs::CofferRoot, magic), 0x1337)});
  add(FaultClass::kCofferRootBogus, s.secret_cid, "/secret coffer-root custom_off -> misaligned",
      {P64(sroot + offsetof(kernfs::CofferRoot, custom_off), 0x123)});
  add(FaultClass::kCofferRootBogus, s.secret_cid,
      "/secret coffer-root custom_off -> root-coffer page",
      {P64(sroot + offsetof(kernfs::CofferRoot, custom_off), s.big_pages[0])});
  add(FaultClass::kCofferRootBogus, s.secret_cid, "/secret coffer-root root_inode_off -> garbage",
      {P64(sroot + offsetof(kernfs::CofferRoot, root_inode_off), 0xabcdef0)});

  if (opts.max_trials != 0 && out.size() > opts.max_trials) {
    out.resize(opts.max_trials);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Trial execution

int Severity(Outcome o) {
  switch (o) {
    case Outcome::kBenign:
      return 0;
    case Outcome::kDetected:
      return 1;
    case Outcome::kSilentData:
      return 2;
    case Outcome::kHang:
      return 3;
    case Outcome::kCrash:
      return 4;
    case Outcome::kEscape:
      return 5;
  }
  return 0;
}

Outcome FromSeverity(int s) {
  switch (s) {
    case 1:
      return Outcome::kDetected;
    case 2:
      return Outcome::kSilentData;
    case 3:
      return Outcome::kHang;
    case 4:
      return Outcome::kCrash;
    case 5:
      return Outcome::kEscape;
    default:
      return Outcome::kBenign;
  }
}

// Collects the worst outcome seen so far plus the first detail at that
// severity.
struct Verdict {
  int worst = 0;
  std::string detail;

  void Note(Outcome o, const std::string& d) {
    const int s = Severity(o);
    if (s > worst) {
      worst = s;
      detail = d;
    }
  }
};

// Drives the op battery against a freshly-mounted stack on the corrupted
// image. All writes go to the root coffer and (when it is the victim) the
// secret coffer; /vault and — unless it is the victim — /secret are only
// read, so their pages back the byte-compare escape oracle.
void Battery(fslib::FsLib* fs, const SetupInfo& s, const Trial& t, Verdict* v) {
  auto op = [&](const char* name, auto&& fn) {
    const uint64_t t0 = common::RealNowNs();
    try {
      fn();
    } catch (const mpk::ViolationError&) {
      v->Note(Outcome::kCrash, std::string(name) + ": escaped simulated page fault");
    }
    if (common::RealNowNs() - t0 > kHangBudgetNs) {
      v->Note(Outcome::kHang, std::string(name) + ": exceeded watchdog budget");
    }
  };
  // An op error is a *detection* — unless it is kFault, the simulated
  // SIGSEGV: before FSLib's handler hardening that kills the process, so the
  // campaign counts it as a crash even though Guarded() now contains it.
  auto fail = [&](const char* name, Err e) {
    if (e == Err::kFault) {
      v->Note(Outcome::kCrash, std::string(name) + ": simulated page fault (kFault)");
    } else {
      v->Note(Outcome::kDetected, std::string(name) + ": " + common::ErrName(e));
    }
  };
  auto check_read = [&](const char* name, const std::string& path, const std::string& expect,
                        bool compare) {
    op(name, [&]() {
      auto fd = fs->Open(kCred, path, vfs::kRead, 0);
      if (!fd.ok()) {
        fail(name, fd.error());
        return;
      }
      std::string buf(expect.size(), '\0');
      auto n = fs->Pread(*fd, buf.data(), buf.size(), 0);
      fs->Close(*fd);
      if (!n.ok()) {
        fail(name, n.error());
      } else if (compare && (*n != expect.size() || buf != expect)) {
        v->Note(Outcome::kSilentData, std::string(name) + ": content mismatch");
      }
    });
  };

  op("stat /big", [&]() {
    auto st = fs->Stat(kCred, "/big");
    if (!st.ok()) {
      fail("stat /big", st.error());
    } else if (!t.big_data_patched && st->size != kBigBytes) {
      v->Note(Outcome::kSilentData, "stat /big: wrong size");
    }
  });
  check_read("read /big", "/big", Pattern(1000, kBigBytes), !t.big_data_patched);
  op("write /big", [&]() {
    auto fd = fs->Open(kCred, "/big", vfs::kWrite, 0);
    if (!fd.ok()) {
      fail("write /big", fd.error());
      return;
    }
    const std::string data = Pattern(1001, 64);
    auto n = fs->Pwrite(*fd, data.data(), data.size(), nvm::kPageSize);
    fs->Close(*fd);
    if (!n.ok()) {
      fail("write /big", n.error());
    }
  });
  op("readdir /d", [&]() {
    auto ents = fs->ReadDir(kCred, "/d");
    if (!ents.ok()) {
      fail("readdir /d", ents.error());
      return;
    }
    std::set<std::string> want;
    for (int i = 0; i < kDirFiles; i++) {
      want.insert(FileName(i));
    }
    int found = 0;
    for (const vfs::DirEntry& e : *ents) {
      if (want.count(e.name)) {
        found++;
      } else if (e.name != "." && e.name != ".." && e.name != "gnew") {
        v->Note(Outcome::kSilentData, "readdir /d: unexpected name");
      }
    }
    if (found != kDirFiles) {
      v->Note(Outcome::kSilentData, "readdir /d: missing entries");
    }
  });
  op("stat /d/f0007", [&]() {
    auto st = fs->Stat(kCred, "/d/" + FileName(7));
    if (!st.ok()) {
      fail("stat /d/f0007", st.error());
    }
  });
  op("create /d/gnew", [&]() {
    auto fd = fs->Open(kCred, "/d/gnew", vfs::kCreate | vfs::kWrite, 0644);
    if (!fd.ok()) {
      fail("create /d/gnew", fd.error());
      return;
    }
    const std::string data = Pattern(1002, 64);
    auto n = fs->Pwrite(*fd, data.data(), data.size(), 0);
    fs->Close(*fd);
    if (!n.ok()) {
      fail("create /d/gnew", n.error());
    }
  });
  check_read("read /secret", "/secret", Pattern(2000, kSecretBytes), true);
  if (t.victim == s.secret_cid) {
    // Exercise the victim coffer's allocator (extending write) — this is
    // what walks a corrupted pool/free list when those are the targets.
    op("extend /secret", [&]() {
      auto fd = fs->Open(kCred, "/secret", vfs::kWrite, 0);
      if (!fd.ok()) {
        fail("extend /secret", fd.error());
        return;
      }
      const std::string data = Pattern(2001, nvm::kPageSize);
      auto n = fs->Pwrite(*fd, data.data(), data.size(), kSecretBytes);
      fs->Close(*fd);
      if (!n.ok()) {
        fail("extend /secret", n.error());
      }
    });
  }
  // Root-coffer liveness: a multi-page create exercises the (possibly
  // corrupted) root allocator and must never fault.
  op("create /t_live", [&]() {
    auto fd = fs->Open(kCred, "/t_live", vfs::kCreate | vfs::kWrite, 0644);
    if (!fd.ok()) {
      fail("create /t_live", fd.error());
      return;
    }
    const std::string data = Pattern(4000, 2 * nvm::kPageSize);
    auto n = fs->Pwrite(*fd, data.data(), data.size(), 0);
    if (n.ok()) {
      std::string buf(data.size(), '\0');
      auto r = fs->Pread(*fd, buf.data(), buf.size(), 0);
      if (!r.ok()) {
        fail("create /t_live", r.error());
      } else if (buf != data) {
        v->Note(Outcome::kSilentData, "create /t_live: readback mismatch");
      }
    } else {
      fail("create /t_live", n.error());
    }
    fs->Close(*fd);
  });
  if (t.victim != s.vault_cid) {
    check_read("read /vault", "/vault", Pattern(3000, kVaultBytes), true);
  }
}

// The escape oracle: any byte change in a page that — per the *corrupted*
// allocation table — belongs to a coffer other than the victim or the root
// coffer means damage crossed the MPK wall. (Root-coffer pages are modified
// legitimately by the battery, so the oracle watches only the untouched
// sibling coffers; /vault exists solely for this.)
void CheckSiblings(const nvm::NvmDevice* dev, const std::vector<uint8_t>& img,
                   const SetupInfo& s, const Trial& t, const char* when, Verdict* v) {
  auto owner = [&](uint64_t pg) {
    uint32_t o;
    memcpy(&o, img.data() + s.alloc_table_off + pg * sizeof(kernfs::AllocEntry), 4);
    return o;
  };
  std::vector<uint64_t> escaped =
      testbed::EscapedPages(img.data(), dev->base(), s.num_pages, [&](uint64_t pg) {
        const uint32_t o = owner(pg);
        return o == 0 || o == kernfs::kKernelOwner || o == s.root_cid || o == t.victim;
      });
  if (!escaped.empty()) {
    char d[128];
    snprintf(d, sizeof(d), "sibling coffer %u page %llu modified %s", owner(escaped[0]),
             static_cast<unsigned long long>(escaped[0]), when);
    v->Note(Outcome::kEscape, d);
  }
}

void RunTrial(nvm::NvmDevice* dev, const SetupInfo& s, const CampaignOptions& opts,
              const Trial& t, TrialResult* out) {
  out->trial_id = t.id;
  out->fault = t.cls;
  out->victim_coffer = t.victim;
  out->target = t.target;
  out->offset = t.patches.empty() ? 0 : t.patches[0].off;

  std::vector<uint8_t> img = s.image;
  for (const Patch& p : t.patches) {
    memcpy(img.data() + p.off, p.bytes.data(), p.bytes.size());
  }
  dev->RestoreFrom(img.data(), img.size());

  Verdict v;
  zofs::Options zo;
  zo.raw_deref_for_test = opts.raw_deref_for_test;
  zo.lease_ns = 1'000'000;

  // Phase 1: remount and drive the op battery. Whatever the image looks
  // like, nothing may leak a simulated page fault past FSLib.
  try {
    testbed::Stack stack(dev);
    fslib::FsLib* fs = stack.AddProcess(kCred, zo);
    if (t.cls == FaultClass::kChanEntryScribble) {
      // The submission ring is volatile DRAM, so this fault cannot be planted
      // in the image: queue an async refill, scribble it in place, and force
      // the drain. The kernel must refuse the entry with kInval before
      // dispatching — anything else is a protection failure.
      kernfs::Channel* ch = fs->zofs().channels().Current();
      if (ch == nullptr) {
        v.Note(Outcome::kSilentData, "channel: no channel to corrupt (channels disabled)");
      } else {
        ch->SubmitEnlarge(stack.kfs()->root_coffer_id(), 8);
        ch->CorruptQueuedForTest(0);
        ch->Flush();
        bool refused = false;
        for (const kernfs::ChanCompletion& c : ch->Harvest()) {
          if (!c.status.ok() && c.status.error() == Err::kInval) {
            refused = true;
          }
        }
        if (refused) {
          v.Note(Outcome::kDetected, "channel: scribbled in-flight entry refused (kInval)");
        } else {
          v.Note(Outcome::kSilentData,
                 "channel: scribbled in-flight entry dispatched undetected");
        }
      }
    }
    Battery(fs, s, t, &v);
    stack.Shutdown();
  } catch (const mpk::ViolationError&) {
    v.Note(Outcome::kCrash, "mount/ops: escaped simulated page fault");
  }
  CheckSiblings(dev, img, s, t, "after ops", &v);

  // Phase 2: KernFS-mediated repair of the victim coffer, then a liveness
  // probe. Recovery runs on arbitrary garbage, so it must be fault-free too.
  try {
    testbed::Stack stack(dev);
    fslib::FsLib* fs = stack.AddProcess(kCred, zo);
    auto r = fs->zofs().RecoverCoffer(t.victim);
    if (!r.ok()) {
      if (r.error() == Err::kFault) {
        v.Note(Outcome::kCrash, "recover: simulated page fault (kFault)");
      } else {
        v.Note(Outcome::kDetected, std::string("recover: ") + common::ErrName(r.error()));
      }
    }
    auto st = fs->Stat(kCred, "/big");
    if (!st.ok() && st.error() == Err::kFault) {
      v.Note(Outcome::kCrash, "post-recovery stat: simulated page fault");
    }
    stack.Shutdown();
  } catch (const mpk::ViolationError&) {
    v.Note(Outcome::kCrash, "recover: escaped simulated page fault");
  }
  CheckSiblings(dev, img, s, t, "after recovery", &v);

  out->outcome = FromSeverity(v.worst);
  out->detail = v.detail;
}

void Worker(const SetupInfo* s, const CampaignOptions* opts, const Trial* trials, size_t n,
            TrialResult* results) {
  nvm::Options no;
  no.size_bytes = opts->dev_bytes;
  nvm::NvmDevice dev(no);
  for (size_t i = 0; i < n; i++) {
    RunTrial(&dev, *s, *opts, trials[i], &results[i]);
  }
}

size_t ClassIndex(FaultClass c) {
  for (size_t i = 0; i < std::size(kAllFaultClasses); i++) {
    if (kAllFaultClasses[i] == c) {
      return i;
    }
  }
  return 0;
}

}  // namespace

const char* FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kControl:
      return "control";
    case FaultClass::kInodeBitFlip:
      return "inode-bit-flip";
    case FaultClass::kDirentBitFlip:
      return "dirent-bit-flip";
    case FaultClass::kBlkptrOutOfRange:
      return "blkptr-out-of-range";
    case FaultClass::kBlkptrCrossCoffer:
      return "blkptr-cross-coffer";
    case FaultClass::kAllocRunLie:
      return "alloc-run-lie";
    case FaultClass::kFreeListGarbage:
      return "free-list-garbage";
    case FaultClass::kLeaseGarbage:
      return "lease-garbage";
    case FaultClass::kDirCycle:
      return "dir-cycle";
    case FaultClass::kChanEntryScribble:
      return "chan-entry-scribble";
    case FaultClass::kCofferRootBogus:
      return "coffer-root-bogus";
  }
  return "?";
}

bool ParseFaultClass(const std::string& s, FaultClass* out) {
  for (FaultClass c : kAllFaultClasses) {
    if (s == FaultClassName(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kDetected:
      return "detected";
    case Outcome::kBenign:
      return "benign";
    case Outcome::kSilentData:
      return "silent-data";
    case Outcome::kCrash:
      return "crash";
    case Outcome::kHang:
      return "hang";
    case Outcome::kEscape:
      return "escape";
  }
  return "?";
}

CampaignReport RunCampaign(const CampaignOptions& opts) {
  CampaignReport rep;
  rep.seed = opts.seed;
  rep.raw_mode = opts.raw_deref_for_test;
  rep.by_class.resize(std::size(kAllFaultClasses));

  // Pin logical time for the whole campaign (see kEpochNs).
  common::ScopedClockPin pin(kEpochNs);

  SetupInfo s = Setup(opts);
  if (!s.err.empty()) {
    rep.setup_error = s.err;
    return rep;
  }
  std::vector<Trial> trials = BuildTrials(s, opts);
  rep.results.resize(trials.size());
  testbed::FanOut(trials.size(), opts.threads, [&](size_t lo, size_t hi) {
    Worker(&s, &opts, trials.data() + lo, hi - lo, rep.results.data() + lo);
  });

  rep.trials = rep.results.size();
  for (const TrialResult& r : rep.results) {
    ClassStats& cs = rep.by_class[ClassIndex(r.fault)];
    auto bump = [&](ClassStats* st) {
      st->trials++;
      switch (r.outcome) {
        case Outcome::kDetected:
          st->detected++;
          break;
        case Outcome::kBenign:
          st->benign++;
          break;
        case Outcome::kSilentData:
          st->silent_data++;
          break;
        case Outcome::kCrash:
          st->crashes++;
          break;
        case Outcome::kHang:
          st->hangs++;
          break;
        case Outcome::kEscape:
          st->escapes++;
          break;
      }
    };
    bump(&cs);
    bump(&rep.totals);
  }
  return rep;
}

std::string CampaignReport::ToText() const {
  std::ostringstream os;
  os << "fault-injection campaign: seed=" << seed
     << " mode=" << (raw_mode ? "raw-deref (planted)" : "hardened") << " trials=" << trials
     << "\n";
  if (!setup_error.empty()) {
    os << "SETUP FAILED: " << setup_error << "\n";
    return os.str();
  }
  os << "  class                 trials detected benign silent crash hang escape\n";
  for (size_t i = 0; i < by_class.size(); i++) {
    const ClassStats& c = by_class[i];
    if (c.trials == 0) {
      continue;
    }
    char line[160];
    snprintf(line, sizeof(line), "  %-21s %6llu %8llu %6llu %6llu %5llu %4llu %6llu\n",
             FaultClassName(kAllFaultClasses[i]), static_cast<unsigned long long>(c.trials),
             static_cast<unsigned long long>(c.detected),
             static_cast<unsigned long long>(c.benign),
             static_cast<unsigned long long>(c.silent_data),
             static_cast<unsigned long long>(c.crashes),
             static_cast<unsigned long long>(c.hangs),
             static_cast<unsigned long long>(c.escapes));
    os << line;
  }
  os << "totals: detected=" << totals.detected << " benign=" << totals.benign
     << " silent-data=" << totals.silent_data << " crash=" << totals.crashes
     << " hang=" << totals.hangs << " escape=" << totals.escapes << "\n";
  for (const TrialResult& r : results) {
    os << "  [" << r.trial_id << "] " << FaultClassName(r.fault) << " " << r.target << " -> "
       << OutcomeName(r.outcome);
    if (!r.detail.empty()) {
      os << " (" << r.detail << ")";
    }
    os << "\n";
  }
  os << "verdict: " << (Clean() ? "CLEAN" : "NOT CLEAN") << "\n";
  return os.str();
}

std::string CampaignReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"raw_mode\": " << (raw_mode ? "true" : "false") << ",\n";
  os << "  \"trials\": " << trials << ",\n";
  if (!setup_error.empty()) {
    os << "  \"setup_error\": \"" << common::JsonEscape(setup_error) << "\",\n";
  }
  auto stats = [&](const ClassStats& c) {
    os << "\"trials\": " << c.trials << ", \"detected\": " << c.detected
       << ", \"benign\": " << c.benign << ", \"silent_data\": " << c.silent_data
       << ", \"crashes\": " << c.crashes << ", \"hangs\": " << c.hangs
       << ", \"escapes\": " << c.escapes;
  };
  os << "  \"totals\": {";
  stats(totals);
  os << "},\n";
  os << "  \"classes\": [\n";
  bool first = true;
  for (size_t i = 0; i < by_class.size(); i++) {
    if (by_class[i].trials == 0) {
      continue;
    }
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << "    {\"class\": \"" << FaultClassName(kAllFaultClasses[i]) << "\", ";
    stats(by_class[i]);
    os << "}";
  }
  os << "\n  ],\n";
  os << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); i++) {
    const TrialResult& r = results[i];
    os << "    {\"id\": " << r.trial_id << ", \"class\": \"" << FaultClassName(r.fault)
       << "\", \"victim\": " << r.victim_coffer << ", \"offset\": " << r.offset
       << ", \"target\": \"" << common::JsonEscape(r.target) << "\", \"outcome\": \""
       << OutcomeName(r.outcome) << "\", \"detail\": \"" << common::JsonEscape(r.detail) << "\"}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"clean\": " << (Clean() ? "true" : "false") << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace faultinj
