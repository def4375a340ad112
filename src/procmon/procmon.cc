#include "src/procmon/procmon.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/audit/audit.h"
#include "src/common/clock.h"
#include "src/common/killpoint.h"
#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/keyclass.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/testbed/testbed.h"
#include "src/zofs/alloc.h"
#include "src/zofs/zofs.h"

namespace procmon {

namespace {

// One armed death site; fires at most once per arming.
struct KillArm {
  const char* point = nullptr;
  bool fired = false;
};

bool KillHandler(void* ctx, const char* point) {
  auto* arm = static_cast<KillArm*>(ctx);
  if (arm->point != nullptr && !arm->fired && std::strcmp(arm->point, point) == 0) {
    arm->fired = true;
    return true;
  }
  return false;
}

// Key-pressure mode: 18 pairwise-distinct permission sets, each spawning its
// own coffer (and so its own protection class) under the tenant dir. With
// the tenant's base coffers on top every process exceeds the 15 usable MPK
// keys, forcing the LRU key window to evict/retag continuously. All modes
// keep owner rwx so the tenant itself is never locked out.
constexpr uint16_t kKeyPressureModes[18] = {0700, 0702, 0704, 0706, 0720, 0722,
                                            0724, 0726, 0740, 0742, 0744, 0746,
                                            0750, 0752, 0754, 0756, 0760, 0762};
constexpr uint32_t kKeyPressureDirs = 18;

// A simulated tenant: its own uid (so its files split into coffers other
// tenants cannot even map), its own lease identity, and a shadow model of
// every byte it has made durable (written + fsync'd + op returned).
struct Tenant {
  uint32_t uid = 0;
  uint64_t vtid = 0;
  std::string dir;
  fslib::FsLib* fs = nullptr;  // owned by the soak's stack
  vfs::Cred cred;
  // Kill-target scratch files, never entered into the durable model (a kill
  // interrupts an op on them, leaving their content undefined).
  vfs::Fd scratch_fd = -1;  // random-access target (inode-lock / channel kills)
  vfs::Fd klog_fd = -1;     // append target (staged-intent kills)
  vfs::Fd alog_fd = -1;     // tracked append log
  // path -> exact durable content (the syscall-durability oracle).
  std::map<std::string, std::string> durable;
  // Stray writes landed in this tenant's coffers: its data is legally
  // damaged, so the durability oracle stands down for it.
  bool tainted = false;
  // Round-robin cursor over the key-pressure dirs (key_pressure mode only).
  uint32_t key_cursor = 0;
};

class Soak {
 public:
  explicit Soak(const SoakOptions& opts)
      : opts_(opts),
        rng_(opts.seed),
        base_steals_(zofs::LockStealCount()),
        base_repairs_(zofs::OnlineRepairCount()),
        base_lists_(zofs::ReapedListCount()),
        base_mappings_(kernfs::ReapedMappingCount()),
        base_grants_(kernfs::ReapedGrantPageCount()),
        base_kevict_(mpk::KeyEvictionCount()),
        base_kretag_(mpk::KeyRetagPageCount()) {
    rep_.seed = opts.seed;
  }

  SoakReport Run();

 private:
  static constexpr uint64_t kBaseNs = 1'000'000'000ull;
  static constexpr uint64_t kLeaseJumpNs = 10'000'000'000ull;  // > lease + backoff

  void MakeTenant(Tenant* t, uint32_t id);   // may throw ProcessKilledError
  void ReopenFds(Tenant* t);
  void RecycleGracefully(Tenant* t);
  void TenantOps(Tenant* t);
  void KillOne(uint32_t round);
  void TargetedOp(Tenant* t, const char* point, uint32_t seq);
  void ProcessCorpse(Tenant* victim);
  void JanitorRepairAndVerify(const Tenant& victim);
  void JanitorSweepLists();
  void CrashRemount();
  void VerifyDurable(fslib::FsLib* fs, const vfs::Cred& cred, const Tenant& t);
  std::unordered_set<uint64_t> PagesOwnedBy(uint32_t uid);

  SoakOptions opts_;
  SoakReport rep_;
  common::Rng rng_;
  KillArm arm_;
  const uint64_t base_steals_, base_repairs_, base_lists_, base_mappings_, base_grants_;
  const uint64_t base_kevict_, base_kretag_;

  std::unique_ptr<testbed::Stack> stack_;
  fslib::FsLib* janitor_ = nullptr;
  const vfs::Cred root_cred_{0, 0};
  const uint64_t janitor_vtid_ = 7;
  std::vector<Tenant> tenants_;
  std::vector<uint32_t> retired_uids_;  // corruption targets
  uint32_t next_tenant_id_ = 0;
  uint32_t kill_cursor_ = 0;
};

void Soak::MakeTenant(Tenant* t, uint32_t id) {
  t->uid = 100 + id;
  t->vtid = 1000 + id;
  t->dir = "/t" + std::to_string(id);
  t->cred = vfs::Cred{t->uid, t->uid};
  t->fs = stack_->AddProcess(t->cred);
  // Everything from here on may hit an armed kill point (the
  // holding-leased-list kill targets a fresh tenant's first allocations).
  zofs::ScopedTidOverride tid(t->vtid);
  t->fs->BindThread();
  if (!t->fs->Mkdir(t->cred, t->dir, 0700).ok()) {
    rep_.op_errors++;
  }
  if (opts_.key_pressure) {
    // Every mode is its own coffer, so its own protection class: together
    // with the tenant's base coffers this process now needs more keys than
    // the hardware has, and lives on the LRU key window.
    for (uint32_t d = 0; d < kKeyPressureDirs; d++) {
      if (!t->fs->Mkdir(t->cred, t->dir + "/m" + std::to_string(d), kKeyPressureModes[d]).ok()) {
        rep_.op_errors++;
      }
    }
  }
  ReopenFds(t);
}

void Soak::ReopenFds(Tenant* t) {
  auto open = [&](const char* leaf, uint32_t flags) {
    auto fd = t->fs->Open(t->cred, t->dir + "/" + leaf, flags | vfs::kCreate, 0600);
    return fd.ok() ? *fd : -1;
  };
  t->scratch_fd = open("scratch", vfs::kRdWr);
  t->klog_fd = open("klog", vfs::kWrite | vfs::kAppend);
  t->alog_fd = open("alog", vfs::kWrite | vfs::kAppend);
}

void Soak::RecycleGracefully(Tenant* t) {
  // The graceful-exit path: the FsLib destructor drains channels and
  // DestroyProcess returns every unharvested grant (the leak fix under test).
  zofs::ScopedTidOverride tid(t->vtid);
  t->fs->BindThread();
  stack_->Exit(t->fs);
  t->fs = stack_->AddProcess(t->cred);
  t->fs->BindThread();
  ReopenFds(t);
  mpk::BindThreadToProcess(nullptr);
}

void Soak::TenantOps(Tenant* t) {
  zofs::ScopedTidOverride tid(t->vtid);
  t->fs->BindThread();
  for (uint32_t i = 0; i < opts_.ops_per_tenant_per_round; i++) {
    rep_.ops++;
    const uint64_t r = rng_.Below(100);
    if (r < 30) {
      // Durable whole-file write.
      const std::string name = t->dir + "/f" + std::to_string(rng_.Below(8));
      std::string content(rng_.Between(100, 8000), 0);
      rng_.Fill(content.data(), content.size());
      auto fd = t->fs->Open(t->cred, name, vfs::kCreate | vfs::kWrite | vfs::kTrunc, 0600);
      if (fd.ok() && t->fs->Pwrite(*fd, content.data(), content.size(), 0).ok() &&
          t->fs->Fsync(*fd).ok()) {
        t->durable[name] = std::move(content);
      } else {
        rep_.op_errors++;
      }
      if (fd.ok()) {
        t->fs->Close(*fd);
      }
    } else if (r < 45) {
      // Durable append.
      std::string chunk(rng_.Between(50, 3000), 0);
      rng_.Fill(chunk.data(), chunk.size());
      if (t->alog_fd >= 0 && t->fs->Write(t->alog_fd, chunk.data(), chunk.size()).ok() &&
          t->fs->Fsync(t->alog_fd).ok()) {
        t->durable[t->dir + "/alog"] += chunk;
      } else {
        rep_.op_errors++;
      }
    } else if (r < 55) {
      // Continuous durability oracle: read a durable file back right now.
      if (!t->durable.empty()) {
        auto it = t->durable.begin();
        std::advance(it, rng_.Below(t->durable.size()));
        auto fd = t->fs->Open(t->cred, it->first, vfs::kRead, 0);
        bool ok = false;
        if (fd.ok()) {
          std::string got(it->second.size(), 0);
          auto n = t->fs->Pread(*fd, got.data(), got.size(), 0);
          ok = n.ok() && *n == got.size() && got == it->second;
          t->fs->Close(*fd);
        }
        if (!ok && !t->tainted) {
          rep_.durability_violations++;
        }
      }
    } else if (r < 70) {
      // Rename within the tenant dir.
      const uint64_t k = rng_.Below(8);
      const std::string src = t->dir + "/f" + std::to_string(k);
      const std::string dst = t->dir + "/g" + std::to_string(k);
      if (t->durable.count(src) != 0) {
        if (t->fs->Rename(t->cred, src, dst).ok()) {
          t->durable[dst] = std::move(t->durable[src]);
          t->durable.erase(src);
        } else {
          rep_.op_errors++;
        }
      }
    } else if (r < 80) {
      const uint64_t k = rng_.Below(8);
      const std::string name =
          t->dir + (rng_.Below(2) == 0 ? "/f" : "/g") + std::to_string(k);
      if (t->durable.count(name) != 0) {
        if (t->fs->Unlink(t->cred, name).ok()) {
          t->durable.erase(name);
        } else {
          rep_.op_errors++;
        }
      }
    } else if (r < 90) {
      if (!t->fs->Stat(t->cred, t->dir).ok() || !t->fs->ReadDir(t->cred, t->dir).ok()) {
        rep_.op_errors++;
      }
    } else {
      // Untracked allocator churn on the scratch file.
      std::string junk(rng_.Between(4096, 65536), 0);
      rng_.Fill(junk.data(), junk.size());
      if (t->scratch_fd < 0 ||
          !t->fs->Pwrite(t->scratch_fd, junk.data(), junk.size(), rng_.Below(16) * 4096).ok()) {
        rep_.op_errors++;
      }
    }
    if (opts_.key_pressure) {
      // Rider traffic: touch the next cold class every op. The file takes
      // the dir's mode so it lands in the dir's coffer (same class) instead
      // of minting yet another one. Untracked by the durability oracle —
      // its job is key-window churn, not data.
      const uint32_t d = t->key_cursor++ % kKeyPressureDirs;
      const std::string name = t->dir + "/m" + std::to_string(d) + "/kp";
      auto fd = t->fs->Open(t->cred, name, vfs::kCreate | vfs::kWrite, kKeyPressureModes[d]);
      if (fd.ok()) {
        char b = static_cast<char>('a' + d);
        if (!t->fs->Pwrite(*fd, &b, 1, 0).ok()) {
          rep_.op_errors++;
        }
        t->fs->Close(*fd);
      } else {
        rep_.op_errors++;
      }
    }
  }
  mpk::BindThreadToProcess(nullptr);
}

// Runs the op whose mid-flight state the armed point interrupts. A completed
// op (point did not fire this round) is harmless: every target is scratch
// state outside the durable model.
void Soak::TargetedOp(Tenant* t, const char* point, uint32_t seq) {
  std::string buf(3 * 4096, static_cast<char>('k'));
  if (std::strcmp(point, common::kKillHoldingInodeLock) == 0) {
    (void)t->fs->Pwrite(t->scratch_fd, buf.data(), 4096, 0);
  } else if (std::strcmp(point, common::kKillStagedIntentPublished) == 0) {
    // The intent publishes at the epoch's durability point, so the kill
    // lands inside the Fsync: intent committed, FlushSet undrained.
    if (t->fs->Write(t->klog_fd, buf.data(), buf.size()).ok()) {
      (void)t->fs->Fsync(t->klog_fd);
    }
  } else if (std::strcmp(point, common::kKillMidRenameIntent) == 0) {
    const std::string src = t->dir + "/kr" + std::to_string(seq);
    auto fd = t->fs->Open(t->cred, src, vfs::kCreate | vfs::kWrite, 0600);
    if (fd.ok()) {
      (void)t->fs->Pwrite(*fd, buf.data(), 300, 0);
      (void)t->fs->Close(*fd);
    }
    (void)t->fs->Rename(t->cred, src, t->dir + "/ks" + std::to_string(seq));
  } else if (std::strcmp(point, common::kKillMidChannelBatch) == 0) {
    std::string big(512 * 1024, static_cast<char>('c'));
    (void)t->fs->Pwrite(t->scratch_fd, big.data(), big.size(), 0);
  }
  // holding-leased-list is handled by killing a fresh tenant in KillOne.
}

std::unordered_set<uint64_t> Soak::PagesOwnedBy(uint32_t uid) {
  std::unordered_set<uint64_t> pages;
  kernfs::KernFs* kfs = stack_->kfs();
  std::vector<uint32_t> cids = kfs->AllCofferIds();
  std::sort(cids.begin(), cids.end());
  for (uint32_t cid : cids) {
    if (kfs->RootPageOf(cid)->uid != uid) {
      continue;
    }
    auto runs = kfs->PagesOf(cid);
    if (!runs.ok()) {
      continue;
    }
    for (const kernfs::PageRun& r : *runs) {
      for (uint64_t p = r.start_page; p < r.start_page + r.len; p++) {
        pages.insert(p);
      }
    }
  }
  return pages;
}

void Soak::ProcessCorpse(Tenant* victim) {
  common::SetCurrentThreadKilled(false);
  mpk::BindThreadToProcess(nullptr);

  // MPK containment oracle: bracket the stray-write burst with full-device
  // snapshots. Every changed page must belong to a coffer the victim's uid
  // owns — stray stores may legally damage the victim's own data, never a
  // sibling tenant's, and the spared shared root coffer must not change.
  kernfs::KillOptions ko;
  ko.stray_writes = (rep_.kills % 2 == 1) ? opts_.stray_writes : 0;
  ko.seed = rng_.Next();
  ko.spare_coffers = {stack_->kfs()->root_coffer_id()};
  std::vector<uint8_t> before, after;
  stack_->dev()->SnapshotTo(&before);
  kernfs::KillStats ks = stack_->Kill(victim->fs, ko);
  stack_->dev()->SnapshotTo(&after);
  rep_.stray_attempted += ks.stray_attempted;
  rep_.stray_landed += ks.stray_landed;
  rep_.stray_blocked += ks.stray_blocked;
  if (ks.stray_landed > 0) {
    victim->tainted = true;
  }
  const std::unordered_set<uint64_t> allowed = PagesOwnedBy(victim->uid);
  rep_.mpk_escapes += testbed::EscapedPages(before.data(), after.data(),
                                            before.size() / nvm::kPageSize,
                                            [&](uint64_t p) { return allowed.count(p) != 0; })
                          .size();

  // The corpse's FsLib must outlive the reap: the kernel reclaims the
  // unharvested grants through the still-live Channel objects.
  common::AdvanceNowNsForTest(kLeaseJumpNs);  // leases lapse; reaper backoff passes
  rep_.reaped_processes += stack_->kfs()->ReapDeadProcesses();
  stack_->Exit(victim->fs);
  victim->fs = nullptr;
}

void Soak::JanitorRepairAndVerify(const Tenant& victim) {
  zofs::ScopedTidOverride tid(janitor_vtid_);
  janitor_->BindThread();

  // Each probe takes the InodeLock the corpse may have died holding; the
  // steal triggers online intent repair for the whole coffer. Bounded
  // retries with lease advances between — a survivor that still cannot make
  // progress is the availability failure the soak exists to catch. One
  // exception: a tainted victim's own strays may have legally scribbled its
  // metadata, so a persistent corruption-class verdict there is contained
  // damage (the MPK story working), not a stuck survivor.
  auto contained = [](common::Err e) {
    return e == common::Err::kCorrupt || e == common::Err::kNotDir ||
           e == common::Err::kIo || e == common::Err::kROFS || e == common::Err::kFault;
  };
  auto probe = [&](auto&& op) {
    common::Status s = common::OkStatus();
    for (int attempt = 0; attempt < 4; attempt++) {
      s = op();
      if (s.ok() || s.error() == common::Err::kNoEnt) {
        return;  // progress (or nothing there to repair)
      }
      common::AdvanceNowNsForTest(kLeaseJumpNs);
    }
    if (victim.tainted && contained(s.error())) {
      rep_.contained_probes++;
    } else {
      rep_.stuck_survivors++;
    }
  };
  probe([&]() -> common::Status {
    auto fd = janitor_->Open(root_cred_, victim.dir + "/scratch", vfs::kWrite, 0);
    if (!fd.ok()) {
      return fd.error();
    }
    char b = 'j';
    auto w = janitor_->Pwrite(*fd, &b, 1, 0);
    janitor_->Close(*fd);
    return w.ok() ? common::OkStatus() : common::Status(w.error());
  });
  probe([&]() -> common::Status {
    const std::string dir = janitor_->Stat(root_cred_, victim.dir).ok() ? victim.dir : "/";
    auto fd = janitor_->Open(root_cred_, dir + "/probe", vfs::kCreate | vfs::kWrite, 0644);
    if (!fd.ok()) {
      return fd.error();
    }
    janitor_->Close(*fd);
    return janitor_->Unlink(root_cred_, dir + "/probe");
  });
  probe([&]() -> common::Status {
    auto fd = janitor_->Open(root_cred_, victim.dir + "/klog", vfs::kWrite | vfs::kAppend, 0);
    if (!fd.ok()) {
      return fd.error();
    }
    auto w = janitor_->Write(*fd, "j", 1);
    common::Status s = w.ok() ? janitor_->Fsync(*fd) : common::Status(w.error());
    janitor_->Close(*fd);
    return s;
  });

  // The dead tenant's completed+synced data must have survived its death
  // (unless its own stray writes legally damaged it).
  if (!victim.tainted) {
    VerifyDurable(janitor_, root_cred_, victim);
  }
  mpk::BindThreadToProcess(nullptr);
}

void Soak::JanitorSweepLists() {
  zofs::ScopedTidOverride tid(janitor_vtid_);
  janitor_->BindThread();
  std::vector<uint32_t> cids = stack_->kfs()->AllCofferIds();
  std::sort(cids.begin(), cids.end());
  for (uint32_t cid : cids) {
    (void)janitor_->zofs().ReclaimExpiredLists(cid);
  }
  mpk::BindThreadToProcess(nullptr);
}

void Soak::VerifyDurable(fslib::FsLib* fs, const vfs::Cred& cred, const Tenant& t) {
  // Durable content must read back as a prefix: a repaired staged intent
  // may have replayed an untracked tail onto the append log.
  for (const auto& [path, content] : t.durable) {
    std::string got;
    if (testbed::ReadFile(fs, cred, path, &got) != 1 ||
        got.compare(0, content.size(), content) != 0) {
      rep_.durability_violations++;
    }
  }
}

void Soak::KillOne(uint32_t round) {
  const uint32_t pidx = kill_cursor_ % 5;
  const char* point = kKillPointNames[pidx];
  Tenant scratch_tenant;
  Tenant* victim = nullptr;
  arm_.point = point;
  arm_.fired = false;
  try {
    if (pidx == 4) {
      // holding-leased-list: a fresh tenant's first allocation CAS-claims a
      // leased list; killing there strands the freshly-claimed list.
      victim = &scratch_tenant;
      MakeTenant(victim, 1000 + round);
    } else {
      victim = &tenants_[rng_.Below(tenants_.size())];
      zofs::ScopedTidOverride tid(victim->vtid);
      victim->fs->BindThread();
      TargetedOp(victim, point, round);
    }
  } catch (const common::ProcessKilledError&) {
  }
  arm_.point = nullptr;
  const bool fired = arm_.fired;
  if (!fired) {
    // The op completed without crossing the armed site; retry next round.
    common::SetCurrentThreadKilled(false);
    mpk::BindThreadToProcess(nullptr);
    if (victim == &scratch_tenant && victim->fs != nullptr) {
      zofs::ScopedTidOverride tid(victim->vtid);
      victim->fs->BindThread();
      stack_->Exit(victim->fs);
      mpk::BindThreadToProcess(nullptr);
    }
    return;
  }
  rep_.kills++;
  rep_.kills_by_point[pidx]++;
  kill_cursor_++;

  // The dead operation never returned, so its OrderAfter annotations promise
  // nothing; void them before the stray burst re-dirties its payload lines
  // and a survivor's fence would blame the corpse.
  audit::AbandonThreadOrderDeps();

  ProcessCorpse(victim);
  JanitorRepairAndVerify(*victim);
  JanitorSweepLists();
  retired_uids_.push_back(victim->uid);

  // Churn: a replacement tenant takes the slot (the scratch embryo from the
  // leased-list kill occupied no slot).
  if (victim != &scratch_tenant) {
    Tenant fresh;
    MakeTenant(&fresh, next_tenant_id_++);
    mpk::BindThreadToProcess(nullptr);
    *victim = std::move(fresh);
  }
}

void Soak::CrashRemount() {
  rep_.remounts++;
  // Faultinj-style in-loop corruption: a byte flip in a retired dead
  // tenant's coffer. fsck must absorb it (quarantine/delete at worst) while
  // live tenants' data stays intact — retired coffers carry no durable
  // obligations, so the oracle stays sharp.
  uint64_t corrupt_off = 0;
  if (opts_.corrupt_in_loop && !retired_uids_.empty()) {
    const uint32_t uid = retired_uids_[rng_.Below(retired_uids_.size())];
    std::unordered_set<uint64_t> owned = PagesOwnedBy(uid);
    std::vector<uint64_t> pages(owned.begin(), owned.end());
    std::sort(pages.begin(), pages.end());
    if (!pages.empty()) {
      corrupt_off = pages[rng_.Below(pages.size())] * nvm::kPageSize + rng_.Below(nvm::kPageSize);
    }
  }

  stack_->Crash();
  if (corrupt_off != 0) {
    nvm::NvmDevice* dev = stack_->dev();
    const uint8_t old = *dev->As<uint8_t>(corrupt_off);
    dev->Store8(corrupt_off, old ^ (1u << rng_.Below(8)));
    rep_.corruptions_injected++;
  }

  stack_->Mount();
  janitor_ = stack_->AddProcess(root_cred_);
  mpk::BindThreadToProcess(nullptr);
  {
    zofs::ScopedTidOverride tid(janitor_vtid_);
    const testbed::FsckResult fsck = stack_->Fsck(janitor_);
    rep_.fsck_violations += !fsck.recovery.empty();
    rep_.fsck_violations += !fsck.alloc.empty();
    mpk::BindThreadToProcess(nullptr);
  }

  // Tenants remount and re-verify: everything they completed and synced
  // before the crash must still be there, byte for byte.
  for (Tenant& t : tenants_) {
    t.fs = stack_->AddProcess(t.cred);
    zofs::ScopedTidOverride tid(t.vtid);
    t.fs->BindThread();
    ReopenFds(&t);
    if (!t.tainted) {
      VerifyDurable(t.fs, t.cred, t);
    }
    // The untracked append log may hold a replayed tail from a repaired
    // staged intent; truncate the durable model's view is unnecessary — the
    // oracle only requires durable content to be a prefix-intact exact read.
    mpk::BindThreadToProcess(nullptr);
  }
}

SoakReport Soak::Run() {
  common::ScopedClockPin pin(kBaseNs);
  common::InstallKillPoint(&KillHandler, &arm_);

  // Tenants create their own /tN under the shared 0777 root.
  stack_ = std::make_unique<testbed::Stack>(
      nvm::Options{.size_bytes = opts_.device_mb << 20, .crash_tracking = true, .media = {}},
      kernfs::FormatOptions{.root_mode = 0777});
  janitor_ = stack_->AddProcess(root_cred_);
  mpk::BindThreadToProcess(nullptr);

  tenants_.resize(opts_.tenants);
  for (uint32_t i = 0; i < opts_.tenants; i++) {
    MakeTenant(&tenants_[i], next_tenant_id_++);
    mpk::BindThreadToProcess(nullptr);
  }

  for (uint32_t round = 0; round < opts_.rounds; round++) {
    rep_.rounds++;
    for (Tenant& t : tenants_) {
      TenantOps(&t);
    }
    KillOne(round);
    if (rng_.Below(4) == 0) {
      RecycleGracefully(&tenants_[rng_.Below(tenants_.size())]);
    }
    if (opts_.remount_every != 0 && (round + 1) % opts_.remount_every == 0) {
      CrashRemount();
    }
    common::AdvanceNowNsForTest(1'000'000);  // 1 ms of logical time per round
  }

  // Graceful shutdown (exercises the DestroyProcess drain path once more).
  for (Tenant& t : tenants_) {
    zofs::ScopedTidOverride tid(t.vtid);
    t.fs->BindThread();
    stack_->Exit(t.fs);
  }
  stack_->Shutdown();
  common::InstallKillPoint(nullptr, nullptr);

  rep_.lock_steals = zofs::LockStealCount() - base_steals_;
  rep_.online_repairs = zofs::OnlineRepairCount() - base_repairs_;
  rep_.reaped_lists = zofs::ReapedListCount() - base_lists_;
  rep_.reaped_mappings = kernfs::ReapedMappingCount() - base_mappings_;
  rep_.reaped_grant_pages = kernfs::ReapedGrantPageCount() - base_grants_;
  rep_.key_evictions = mpk::KeyEvictionCount() - base_kevict_;
  rep_.key_retag_pages = mpk::KeyRetagPageCount() - base_kretag_;
  return rep_;
}

}  // namespace

SoakReport RunSoak(const SoakOptions& opts) { return Soak(opts).Run(); }

std::string SoakReport::ToJson() const {
  std::string s = "{";
  auto num = [&s](const char* k, uint64_t v, bool comma = true) {
    s += "\"";
    s += k;
    s += "\":";
    s += std::to_string(v);
    if (comma) {
      s += ",";
    }
  };
  s += "\"schema\":\"zofs-soak-v2\",";
  num("seed", seed);
  num("rounds", rounds);
  num("ops", ops);
  num("op_errors", op_errors);
  num("kills", kills);
  s += "\"kills_by_point\":{";
  for (int i = 0; i < 5; i++) {
    s += "\"";
    s += kKillPointNames[i];
    s += "\":";
    s += std::to_string(kills_by_point[i]);
    s += i == 4 ? "}," : ",";
  }
  num("stray_attempted", stray_attempted);
  num("stray_landed", stray_landed);
  num("stray_blocked", stray_blocked);
  num("lock_steals", lock_steals);
  num("online_repairs", online_repairs);
  num("reaped_processes", reaped_processes);
  num("reaped_mappings", reaped_mappings);
  num("reaped_grant_pages", reaped_grant_pages);
  num("reaped_lists", reaped_lists);
  num("remounts", remounts);
  num("corruptions_injected", corruptions_injected);
  num("key_evictions", key_evictions);
  num("key_retag_pages", key_retag_pages);
  num("contained_probes", contained_probes);
  num("mpk_escapes", mpk_escapes);
  num("fsck_violations", fsck_violations);
  num("durability_violations", durability_violations);
  num("stuck_survivors", stuck_survivors);
  s += "\"clean\":";
  s += Clean() ? "true" : "false";
  s += "}";
  return s;
}

}  // namespace procmon
