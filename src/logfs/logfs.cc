#include "src/logfs/logfs.h"

#include <algorithm>
#include <cstring>

#include "src/audit/audit.h"
#include "src/common/clock.h"
#include "src/mpk/mpk.h"

namespace logfs {

using kernfs::PageRun;

LogFs::LogFs(kernfs::KernFs* kfs, kernfs::Process* proc) : kfs_(kfs), proc_(proc) {
  proc_->BindCurrentThread();
  kfs_->FsMount(*proc_);
  // No concurrent access is possible during construction; the lock is taken
  // anyway so MountOrFormat's REQUIRES(mu_) contract holds analysis-wide.
  common::MutexLock lk(&mu_);
  auto st = MountOrFormat();
  (void)st;  // a failed mount leaves an empty instance; ops return errors
}

LogFs::~LogFs() {
  if (!abandoned_) {
    kfs_->FsUmount(*proc_);
  }
}

LogFs::VNode* LogFs::Get(uint64_t id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

Status LogFs::MountOrFormat() {
  AUDIT_SCOPE("LogFs::MountOrFormat");
  cid_ = kfs_->root_coffer_id();
  ASSIGN_OR_RETURN(info, kfs_->CofferMap(*proc_, cid_, true));
  info_ = info;
  alloc_ = std::make_unique<zofs::CofferAllocator>(kfs_, proc_, cid_, info_.custom_off,
                                                   kLeaseNs, kEnlargeBatch);
  nvm::NvmDevice* dev = kfs_->dev();
  mpk::AccessWindow w(info_.key, true);

  // Root directory always exists (volatile; id 1).
  VNode root;
  root.id = 1;
  root.type = vfs::FileType::kDirectory;
  root.mode = kfs_->RootPageOf(cid_)->mode;
  root.uid = kfs_->RootPageOf(cid_)->uid;
  root.gid = kfs_->RootPageOf(cid_)->gid;
  nodes_[1] = root;

  auto* super = dev->As<LogSuper>(info_.root_inode_off);
  if (super->magic != kLogSuperMagic) {
    // Fresh file system: pool + first log page + superblock.
    zofs::CofferAllocator::InitPool(dev, info_.custom_off);
    ASSIGN_OR_RETURN(first, alloc_->AllocPage(/*zero=*/true));
    dev->Sfence();  // the zeroed header is durable before it is referenced
    dev->Store64(info_.root_inode_off + offsetof(LogSuper, head_page), first);
    dev->Store64(info_.root_inode_off + offsetof(LogSuper, epoch), 0);
    dev->Store64(info_.root_inode_off + offsetof(LogSuper, magic), kLogSuperMagic);
    dev->PersistRange(info_.root_inode_off, sizeof(LogSuper));
    tail_page_ = first;
    log_pages_ = 1;
    return common::OkStatus();
  }
  return Replay();
}

Status LogFs::Replay() {
  AUDIT_SCOPE("LogFs::Replay");
  nvm::NvmDevice* dev = kfs_->dev();
  const auto* super = dev->As<LogSuper>(info_.root_inode_off);
  uint64_t page = super->head_page;
  log_pages_ = 0;
  replayed_records_ = 0;
  while (page != 0) {
    const auto* hdr = dev->As<LogPageHeader>(page);
    log_pages_++;
    tail_page_ = page;
    uint64_t pos = 0;
    while (pos + sizeof(RecHeader) <= hdr->used) {
      const auto* rh = dev->As<RecHeader>(page + sizeof(LogPageHeader) + pos);
      if (rh->kind == 0 || pos + sizeof(RecHeader) + rh->len > hdr->used) {
        break;  // torn tail
      }
      RETURN_IF_ERROR(ApplyRecord(
          rh->kind,
          // zofs-lint: allow(raw-nvm-deref) — replay payload; bounds checked against `used` above
          dev->base() + page + sizeof(LogPageHeader) + pos + sizeof(RecHeader), rh->len));
      replayed_records_++;
      pos += sizeof(RecHeader) + rh->len;
    }
    page = hdr->next;
  }
  live_records_ = nodes_.size();
  return common::OkStatus();
}

Status LogFs::ApplyRecord(uint8_t kind, const uint8_t* p, uint16_t len) {
  switch (kind) {
    case kRecCreate: {
      CreateRec rec;
      memcpy(&rec, p, sizeof(rec));
      std::string name(reinterpret_cast<const char*>(p + sizeof(rec)), rec.name_len);
      VNode n;
      n.id = rec.id;
      n.type = static_cast<vfs::FileType>(rec.type);
      n.mode = rec.mode;
      n.parent = rec.parent;
      if (rec.target_len > 0) {
        n.symlink_target.assign(
            reinterpret_cast<const char*>(p + sizeof(rec) + rec.name_len), rec.target_len);
        n.size = rec.target_len;
      }
      nodes_[rec.id] = std::move(n);
      VNode* parent = Get(rec.parent);
      if (parent != nullptr) {
        parent->children[name] = rec.id;
      }
      next_id_ = std::max(next_id_, rec.id + 1);
      break;
    }
    case kRecWrite: {
      WriteRec rec;
      memcpy(&rec, p, sizeof(rec));
      VNode* n = Get(rec.id);
      if (n != nullptr) {
        n->blocks[rec.blk] = rec.page_off;
        n->size = std::max(n->size, rec.new_size);
      }
      break;
    }
    case kRecTruncate: {
      TruncateRec rec;
      memcpy(&rec, p, sizeof(rec));
      VNode* n = Get(rec.id);
      if (n != nullptr) {
        n->size = rec.size;
        uint64_t first_dead = (rec.size + nvm::kPageSize - 1) / nvm::kPageSize;
        n->blocks.erase(n->blocks.lower_bound(first_dead), n->blocks.end());
      }
      break;
    }
    case kRecUnlink: {
      UnlinkRec rec;
      memcpy(&rec, p, sizeof(rec));
      std::string name(reinterpret_cast<const char*>(p + sizeof(rec)), rec.name_len);
      VNode* parent = Get(rec.parent);
      if (parent != nullptr) {
        auto it = parent->children.find(name);
        if (it != parent->children.end()) {
          nodes_.erase(it->second);
          parent->children.erase(it);
        }
      }
      break;
    }
    case kRecRename: {
      RenameRec rec;
      memcpy(&rec, p, sizeof(rec));
      std::string from(reinterpret_cast<const char*>(p + sizeof(rec)), rec.from_len);
      std::string to(reinterpret_cast<const char*>(p + sizeof(rec) + rec.from_len), rec.to_len);
      VNode* fp = Get(rec.from_parent);
      VNode* tp = Get(rec.to_parent);
      if (fp != nullptr && tp != nullptr) {
        auto it = fp->children.find(from);
        if (it != fp->children.end()) {
          uint64_t id = it->second;
          fp->children.erase(it);
          auto prev = tp->children.find(to);
          if (prev != tp->children.end()) {
            nodes_.erase(prev->second);
          }
          tp->children[to] = id;
          VNode* moved = Get(id);
          if (moved != nullptr) {
            moved->parent = rec.to_parent;
          }
        }
      }
      break;
    }
    case kRecChmod: {
      ChmodRec rec;
      memcpy(&rec, p, sizeof(rec));
      VNode* n = Get(rec.id);
      if (n != nullptr) {
        n->mode = rec.mode;
      }
      break;
    }
    case kRecChown: {
      ChownRec rec;
      memcpy(&rec, p, sizeof(rec));
      VNode* n = Get(rec.id);
      if (n != nullptr) {
        n->uid = rec.uid;
        n->gid = rec.gid;
      }
      break;
    }
    default:
      return Err::kCorrupt;
  }
  return common::OkStatus();
}

Status LogFs::AppendRecord(uint8_t kind, const void* body, size_t body_len,
                           std::string_view extra1, std::string_view extra2) {
  AUDIT_SCOPE("LogFs::AppendRecord");
  nvm::NvmDevice* dev = kfs_->dev();
  const size_t total = sizeof(RecHeader) + body_len + extra1.size() + extra2.size();
  if (total > kPayload) {
    return Err::kInval;
  }
  auto* tail = dev->As<LogPageHeader>(tail_page_);
  if (tail->used + total > kPayload) {
    // Seal this page and chain a fresh one.
    ASSIGN_OR_RETURN(fresh, alloc_->AllocPage(/*zero=*/true));
    dev->Sfence();
    dev->Store64(tail_page_ + offsetof(LogPageHeader, next), fresh);
    dev->PersistRange(tail_page_ + offsetof(LogPageHeader, next), 8);
    tail_page_ = fresh;
    log_pages_++;
    tail = dev->As<LogPageHeader>(tail_page_);
  }

  const uint64_t rec_off = tail_page_ + sizeof(LogPageHeader) + tail->used;
  RecHeader rh{kind, 0, static_cast<uint16_t>(body_len + extra1.size() + extra2.size())};
  dev->StoreBytes(rec_off, &rh, sizeof(rh));
  dev->StoreBytes(rec_off + sizeof(rh), body, body_len);
  if (!extra1.empty()) {
    dev->StoreBytes(rec_off + sizeof(rh) + body_len, extra1.data(), extra1.size());
  }
  if (!extra2.empty()) {
    dev->StoreBytes(rec_off + sizeof(rh) + body_len + extra1.size(), extra2.data(),
                    extra2.size());
  }
  dev->Clwb(rec_off, sizeof(rh) + rh.len);
  dev->Sfence();  // the record is durable...
  AUDIT_DURABILITY_POINT(dev, rec_off, sizeof(rh) + rh.len);
  dev->Store64(tail_page_ + offsetof(LogPageHeader, used), tail->used + total);
  AUDIT_ORDER_AFTER(dev, tail_page_ + offsetof(LogPageHeader, used), 8, rec_off,
                    sizeof(rh) + rh.len);
  dev->PersistRange(tail_page_ + offsetof(LogPageHeader, used), 8);  // ...then committed
  AUDIT_DURABILITY_POINT(dev, tail_page_ + offsetof(LogPageHeader, used), 8);
  records_written_++;
  return common::OkStatus();
}

// ---------------------------------------------------------------------------
// Path resolution over the volatile namespace

Result<LogFs::VNode*> LogFs::ResolvePath(const std::string& path, bool follow_last, int depth) {
  if (depth > vfs::kMaxSymlinkHops) {
    return Err::kLoop;
  }
  ASSIGN_OR_RETURN(parts, vfs::SplitPath(vfs::NormalizePath(path)));
  VNode* cur = Get(1);
  for (size_t i = 0; i < parts.size(); i++) {
    if (cur->type != vfs::FileType::kDirectory) {
      return Err::kNotDir;
    }
    auto it = cur->children.find(parts[i]);
    if (it == cur->children.end()) {
      return Err::kNoEnt;
    }
    VNode* child = Get(it->second);
    if (child == nullptr) {
      return Err::kCorrupt;
    }
    bool is_last = (i + 1 == parts.size());
    if (child->type == vfs::FileType::kSymlink && (!is_last || follow_last)) {
      std::string rest;
      for (size_t j = i + 1; j < parts.size(); j++) {
        rest += "/" + parts[j];
      }
      std::string walked = "/";
      for (size_t j = 0; j < i; j++) {
        walked += parts[j] + "/";
      }
      const std::string& target = child->symlink_target;
      std::string next = !target.empty() && target[0] == '/' ? target + rest
                                                             : walked + target + rest;
      return ResolvePath(vfs::NormalizePath(next), follow_last, depth + 1);
    }
    cur = child;
  }
  return cur;
}

Result<std::pair<LogFs::VNode*, std::string>> LogFs::ResolveParent(const std::string& path) {
  ASSIGN_OR_RETURN(pp, vfs::SplitParent(vfs::NormalizePath(path)));
  ASSIGN_OR_RETURN(parent, ResolvePath(pp.first, true));
  if (parent->type != vfs::FileType::kDirectory) {
    return Err::kNotDir;
  }
  return std::make_pair(parent, pp.second);
}

// ---------------------------------------------------------------------------
// Namespace operations

Result<ufs::NodeRef> LogFs::Lookup(const std::string& path, bool follow) {
  common::MutexLock lk(&mu_);
  ASSIGN_OR_RETURN(n, ResolvePath(path, follow));
  return ufs::NodeRef{cid_, n->id};
}

Result<ufs::NodeRef> LogFs::CreateNode(const std::string& path, vfs::FileType type,
                                       uint16_t mode, bool excl, std::string_view symlink_target) {
  common::MutexLock lk(&mu_);
  if (vfs::NormalizePath(path) == "/") {  // no parent to create it in, but it always exists
    if (excl) {
      return Err::kExist;
    }
    return ufs::NodeRef{cid_, 1};
  }
  ASSIGN_OR_RETURN(pp, ResolveParent(path));
  auto& [parent, leaf] = pp;
  if (parent->children.count(leaf)) {
    if (excl) {
      return Err::kExist;
    }
    ASSIGN_OR_RETURN(existing, ResolvePath(path, /*follow_last=*/true));
    return ufs::NodeRef{cid_, existing->id};
  }

  mpk::AccessWindow w(info_.key, true);
  const uint64_t id = next_id_++;
  CreateRec rec{};
  rec.id = id;
  rec.parent = parent->id;
  rec.type = static_cast<uint32_t>(type);
  rec.mode = mode;
  rec.name_len = static_cast<uint16_t>(leaf.size());
  rec.target_len = static_cast<uint16_t>(symlink_target.size());
  RETURN_IF_ERROR(AppendRecord(kRecCreate, &rec, sizeof(rec), leaf, symlink_target));

  VNode n;
  n.id = id;
  n.type = type;
  n.mode = mode;
  n.uid = proc_->cred().uid;
  n.gid = proc_->cred().gid;
  n.mtime_ns = common::NowNs();
  n.symlink_target = symlink_target;
  n.size = symlink_target.size();
  n.parent = parent->id;
  nodes_[id] = std::move(n);
  parent->children[leaf] = id;
  live_records_++;
  return ufs::NodeRef{cid_, id};
}

Result<ufs::NodeRef> LogFs::Create(const std::string& path, uint16_t mode, bool excl) {
  AUDIT_SCOPE("LogFs::Create");
  return CreateNode(path, vfs::FileType::kRegular, mode, excl);
}

Status LogFs::Mkdir(const std::string& path, uint16_t mode) {
  AUDIT_SCOPE("LogFs::Mkdir");
  RETURN_IF_ERROR(CreateNode(path, vfs::FileType::kDirectory, mode, /*excl=*/true));
  return common::OkStatus();
}

Status LogFs::Symlink(const std::string& target, const std::string& linkpath) {
  AUDIT_SCOPE("LogFs::Symlink");
  RETURN_IF_ERROR(CreateNode(linkpath, vfs::FileType::kSymlink, 0777, /*excl=*/true, target));
  return common::OkStatus();
}

Result<std::string> LogFs::ReadLink(const std::string& path) {
  AUDIT_SCOPE("LogFs::ReadLink");
  common::MutexLock lk(&mu_);
  ASSIGN_OR_RETURN(n, ResolvePath(path, false));
  if (n->type != vfs::FileType::kSymlink) {
    return Err::kInval;
  }
  return n->symlink_target;
}

Status LogFs::Unlink(const std::string& path) {
  AUDIT_SCOPE("LogFs::Unlink");
  common::MutexLock lk(&mu_);
  ASSIGN_OR_RETURN(pp, ResolveParent(path));
  auto& [parent, leaf] = pp;
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return Err::kNoEnt;
  }
  VNode* victim = Get(it->second);
  if (victim != nullptr && victim->type == vfs::FileType::kDirectory) {
    return Err::kIsDir;
  }
  mpk::AccessWindow w(info_.key, true);
  UnlinkRec rec{};
  rec.parent = parent->id;
  rec.name_len = static_cast<uint16_t>(leaf.size());
  RETURN_IF_ERROR(AppendRecord(kRecUnlink, &rec, sizeof(rec), leaf));
  if (victim != nullptr) {
    for (auto& [blk, page] : victim->blocks) {
      alloc_->FreePage(page);
    }
    nodes_.erase(it->second);
  }
  parent->children.erase(it);
  RETURN_IF_ERROR(MaybeCompact());
  return common::OkStatus();
}

Status LogFs::Rmdir(const std::string& path) {
  AUDIT_SCOPE("LogFs::Rmdir");
  common::MutexLock lk(&mu_);
  ASSIGN_OR_RETURN(pp, ResolveParent(path));
  auto& [parent, leaf] = pp;
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return Err::kNoEnt;
  }
  VNode* victim = Get(it->second);
  if (victim == nullptr || victim->type != vfs::FileType::kDirectory) {
    return Err::kNotDir;
  }
  if (!victim->children.empty()) {
    return Err::kNotEmpty;
  }
  mpk::AccessWindow w(info_.key, true);
  UnlinkRec rec{};
  rec.parent = parent->id;
  rec.name_len = static_cast<uint16_t>(leaf.size());
  RETURN_IF_ERROR(AppendRecord(kRecUnlink, &rec, sizeof(rec), leaf));
  nodes_.erase(it->second);
  parent->children.erase(it);
  return common::OkStatus();
}

Result<vfs::StatBuf> LogFs::StatNode(ufs::NodeRef node) {
  AUDIT_SCOPE("LogFs::StatNode");
  common::MutexLock lk(&mu_);
  VNode* n = Get(node.inode_off);
  if (n == nullptr) {
    return Err::kNoEnt;
  }
  vfs::StatBuf st;
  st.ino = n->id;
  st.type = n->type;
  st.mode = n->mode;
  st.uid = n->uid;
  st.gid = n->gid;
  st.size = n->type == vfs::FileType::kDirectory ? 0 : n->size;
  st.mtime_ns = n->mtime_ns;
  return st;
}

Result<std::vector<vfs::DirEntry>> LogFs::ReadDir(const std::string& path) {
  common::MutexLock lk(&mu_);
  ASSIGN_OR_RETURN(dir, ResolvePath(path, true));
  if (dir->type != vfs::FileType::kDirectory) {
    return Err::kNotDir;
  }
  std::vector<vfs::DirEntry> out;
  out.reserve(dir->children.size());
  for (const auto& [name, id] : dir->children) {
    VNode* child = Get(id);
    out.push_back(vfs::DirEntry{name, id,
                                child != nullptr ? child->type : vfs::FileType::kRegular});
  }
  return out;
}

Status LogFs::Rename(const std::string& from, const std::string& to) {
  AUDIT_SCOPE("LogFs::Rename");
  const std::string nfrom = vfs::NormalizePath(from);
  const std::string nto = vfs::NormalizePath(to);
  if (nfrom == nto) {
    return common::OkStatus();
  }
  common::MutexLock lk(&mu_);
  ASSIGN_OR_RETURN(fp, ResolveParent(nfrom));
  ASSIGN_OR_RETURN(tp, ResolveParent(nto));
  auto& [from_parent, from_leaf] = fp;
  auto& [to_parent, to_leaf] = tp;
  auto it = from_parent->children.find(from_leaf);
  if (it == from_parent->children.end()) {
    return Err::kNoEnt;
  }
  auto prev = to_parent->children.find(to_leaf);
  if (prev != to_parent->children.end()) {
    VNode* victim = Get(prev->second);
    if (victim != nullptr && victim->type == vfs::FileType::kDirectory &&
        !victim->children.empty()) {
      return Err::kNotEmpty;
    }
  }
  mpk::AccessWindow w(info_.key, true);
  RenameRec rec{};
  rec.from_parent = from_parent->id;
  rec.to_parent = to_parent->id;
  rec.from_len = static_cast<uint16_t>(from_leaf.size());
  rec.to_len = static_cast<uint16_t>(to_leaf.size());
  RETURN_IF_ERROR(AppendRecord(kRecRename, &rec, sizeof(rec), from_leaf, to_leaf));

  uint64_t id = it->second;
  from_parent->children.erase(it);
  if (prev != to_parent->children.end()) {
    VNode* victim = Get(prev->second);
    if (victim != nullptr) {
      for (auto& [blk, page] : victim->blocks) {
        alloc_->FreePage(page);
      }
      nodes_.erase(prev->second);
    }
  }
  to_parent->children[to_leaf] = id;
  VNode* moved = Get(id);
  if (moved != nullptr) {
    moved->parent = to_parent->id;
  }
  return common::OkStatus();
}

Status LogFs::Chmod(const std::string& path, uint16_t mode) {
  AUDIT_SCOPE("LogFs::Chmod");
  common::MutexLock lk(&mu_);
  ASSIGN_OR_RETURN(n, ResolvePath(path, true));
  if (!proc_->cred().IsRoot() && proc_->cred().uid != n->uid) {
    return Err::kPerm;
  }
  mpk::AccessWindow w(info_.key, true);
  ChmodRec rec{n->id, mode, {}};
  RETURN_IF_ERROR(AppendRecord(kRecChmod, &rec, sizeof(rec)));
  n->mode = mode;
  return common::OkStatus();
}

Status LogFs::Chown(const std::string& path, uint32_t uid, uint32_t gid) {
  AUDIT_SCOPE("LogFs::Chown");
  common::MutexLock lk(&mu_);
  if (!proc_->cred().IsRoot()) {
    return Err::kPerm;
  }
  ASSIGN_OR_RETURN(n, ResolvePath(path, true));
  mpk::AccessWindow w(info_.key, true);
  ChownRec rec{n->id, uid, gid};
  RETURN_IF_ERROR(AppendRecord(kRecChown, &rec, sizeof(rec)));
  n->uid = uid;
  n->gid = gid;
  return common::OkStatus();
}

// ---------------------------------------------------------------------------
// Data path

Result<size_t> LogFs::ReadAt(ufs::NodeRef node, void* buf, size_t n, uint64_t off) {
  AUDIT_SCOPE("LogFs::ReadAt");
  common::MutexLock lk(&mu_);
  VNode* v = Get(node.inode_off);
  if (v == nullptr) {
    return Err::kNoEnt;
  }
  if (v->type == vfs::FileType::kDirectory) {
    return Err::kIsDir;
  }
  if (off >= v->size || n == 0) {
    return size_t{0};
  }
  n = std::min<uint64_t>(n, v->size - off);
  mpk::AccessWindow w(info_.key, false);
  nvm::NvmDevice* dev = kfs_->dev();
  auto* dst = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const uint64_t blk = (off + done) / nvm::kPageSize;
    const uint64_t in_off = (off + done) % nvm::kPageSize;
    const size_t chunk = std::min<size_t>(n - done, nvm::kPageSize - in_off);
    auto it = v->blocks.find(blk);
    if (it == v->blocks.end()) {
      memset(dst + done, 0, chunk);
    } else {
      mpk::CheckAccess(it->second + in_off, chunk, false);
      // zofs-lint: allow(raw-nvm-deref) — bulk copy out of a block offset gated by CheckAccess above
      memcpy(dst + done, dev->base() + it->second + in_off, chunk);
    }
    done += chunk;
  }
  return done;
}

Result<size_t> LogFs::WriteAt(ufs::NodeRef node, const void* buf, size_t n, uint64_t off) {
  AUDIT_SCOPE("LogFs::WriteAt");
  if (n == 0) {
    return size_t{0};
  }
  common::MutexLock lk(&mu_);
  VNode* v = Get(node.inode_off);
  if (v == nullptr) {
    return Err::kNoEnt;
  }
  if (v->type == vfs::FileType::kDirectory) {
    return Err::kIsDir;
  }
  if (!info_.writable) {
    return Err::kROFS;
  }
  mpk::AccessWindow w(info_.key, true);
  nvm::NvmDevice* dev = kfs_->dev();
  const auto* src = static_cast<const uint8_t*>(buf);
  const uint64_t end = off + n;
  size_t done = 0;
  while (done < n) {
    const uint64_t blk = (off + done) / nvm::kPageSize;
    const uint64_t in_off = (off + done) % nvm::kPageSize;
    const size_t chunk = std::min<size_t>(n - done, nvm::kPageSize - in_off);
    // Log-structured data: every block write goes to a fresh page (out of
    // place), then a write record points at it.
    ASSIGN_OR_RETURN(fresh, alloc_->AllocPage(/*zero=*/false));
    auto old = v->blocks.find(blk);
    if (chunk < nvm::kPageSize) {
      if (old != v->blocks.end()) {
        if (in_off > 0) {
          // zofs-lint: allow(raw-nvm-deref) — CoW prefix copy from the committed old block
          dev->NtStoreBytes(fresh, dev->base() + old->second, in_off);
        }
        if (in_off + chunk < nvm::kPageSize) {
          dev->NtStoreBytes(fresh + in_off + chunk,
                            // zofs-lint: allow(raw-nvm-deref) — CoW suffix copy from the committed old block
                            dev->base() + old->second + in_off + chunk,
                            nvm::kPageSize - in_off - chunk);
        }
      } else {
        static const uint8_t kZeros[nvm::kPageSize] = {};
        dev->NtStoreBytes(fresh, kZeros, nvm::kPageSize);
      }
    }
    dev->NtStoreBytes(fresh + in_off, src + done, chunk);
    dev->Sfence();  // data durable before the record references it

    WriteRec rec{v->id, blk, fresh, std::max<uint64_t>(v->size, off + done + chunk)};
    RETURN_IF_ERROR(AppendRecord(kRecWrite, &rec, sizeof(rec)));
    if (old != v->blocks.end()) {
      alloc_->FreePage(old->second);
      old->second = fresh;
    } else {
      v->blocks[blk] = fresh;
    }
    done += chunk;
  }
  v->size = std::max(v->size, end);
  v->mtime_ns = common::NowNs();
  RETURN_IF_ERROR(MaybeCompact());
  return n;
}

Result<uint64_t> LogFs::Append(ufs::NodeRef node, const void* buf, size_t n) {
  AUDIT_SCOPE("LogFs::Append");
  uint64_t off;
  {
    common::MutexLock lk(&mu_);
    VNode* v = Get(node.inode_off);
    if (v == nullptr) {
      return Err::kNoEnt;
    }
    off = v->size;
  }
  ASSIGN_OR_RETURN(written, WriteAt(node, buf, n, off));
  (void)written;
  return off;
}

Status LogFs::TruncateNode(ufs::NodeRef node, uint64_t len) {
  AUDIT_SCOPE("LogFs::TruncateNode");
  common::MutexLock lk(&mu_);
  VNode* v = Get(node.inode_off);
  if (v == nullptr) {
    return Err::kNoEnt;
  }
  if (v->type == vfs::FileType::kDirectory) {
    return Err::kIsDir;
  }
  mpk::AccessWindow w(info_.key, true);
  TruncateRec rec{v->id, len};
  RETURN_IF_ERROR(AppendRecord(kRecTruncate, &rec, sizeof(rec)));
  if (len < v->size) {
    uint64_t first_dead = (len + nvm::kPageSize - 1) / nvm::kPageSize;
    for (auto it = v->blocks.lower_bound(first_dead); it != v->blocks.end();) {
      alloc_->FreePage(it->second);
      it = v->blocks.erase(it);
    }
    // Zero the tail of the last kept block so re-extension reads zeros.
    if (len % nvm::kPageSize != 0) {
      auto it = v->blocks.find(len / nvm::kPageSize);
      if (it != v->blocks.end()) {
        static const uint8_t kZeros[nvm::kPageSize] = {};
        uint64_t in_off = len % nvm::kPageSize;
        kfs_->dev()->NtStoreBytes(it->second + in_off, kZeros, nvm::kPageSize - in_off);
        kfs_->dev()->Sfence();
      }
    }
  }
  v->size = len;
  return common::OkStatus();
}

Status LogFs::EnsureAccess(ufs::NodeRef node, bool writable) {
  if (!writable) {
    return common::OkStatus();
  }
  if (!info_.writable) {
    return Err::kAcces;
  }
  common::MutexLock lk(&mu_);
  VNode* v = Get(node.inode_off);
  if (v != nullptr && v->type == vfs::FileType::kDirectory) {
    return Err::kIsDir;
  }
  return common::OkStatus();
}

// ---------------------------------------------------------------------------
// Compaction & recovery

Status LogFs::MaybeCompact() {
  if (log_pages_ < kGcMinPages) {
    return common::OkStatus();
  }
  // Rough liveness estimate: records needed to reconstruct the tree vs
  // records appended since the last compaction.
  uint64_t needed = 0;
  for (const auto& [id, n] : nodes_) {
    needed += 1 + n.blocks.size();
  }
  if (records_written_ < 2 * needed) {
    return common::OkStatus();
  }
  auto freed = Compact();
  if (!freed.ok()) {
    return freed.error();
  }
  return common::OkStatus();
}

Result<uint64_t> LogFs::CompactForTest() {
  common::MutexLock lk(&mu_);
  mpk::AccessWindow w(info_.key, true);
  return Compact();
}

Result<uint64_t> LogFs::Compact() {
  AUDIT_SCOPE("LogFs::Compact");
  // Collect the old chain, then write a minimal log reconstructing the
  // current state onto a fresh chain and switch the superblock head.
  nvm::NvmDevice* dev = kfs_->dev();
  std::vector<uint64_t> old_chain;
  {
    const auto* super = dev->As<LogSuper>(info_.root_inode_off);
    uint64_t page = super->head_page;
    while (page != 0) {
      old_chain.push_back(page);
      page = dev->As<LogPageHeader>(page)->next;
    }
  }

  ASSIGN_OR_RETURN(fresh_head, alloc_->AllocPage(/*zero=*/true));
  dev->Sfence();
  tail_page_ = fresh_head;
  const uint64_t old_pages = log_pages_;
  log_pages_ = 1;
  records_written_ = 0;

  // Emit creates top-down (parents before children), then data references.
  // nodes_ ids are monotonically assigned, but renames can reparent, so walk
  // breadth-first from the root.
  std::vector<uint64_t> queue = {1};
  while (!queue.empty()) {
    uint64_t id = queue.back();
    queue.pop_back();
    VNode* dir = Get(id);
    if (dir == nullptr) {
      continue;
    }
    for (const auto& [name, child_id] : dir->children) {
      VNode* child = Get(child_id);
      if (child == nullptr) {
        continue;
      }
      CreateRec rec{};
      rec.id = child_id;
      rec.parent = id;
      rec.type = static_cast<uint32_t>(child->type);
      rec.mode = child->mode;
      rec.name_len = static_cast<uint16_t>(name.size());
      rec.target_len = static_cast<uint16_t>(child->symlink_target.size());
      RETURN_IF_ERROR(AppendRecord(kRecCreate, &rec, sizeof(rec), name, child->symlink_target));
      for (const auto& [blk, page] : child->blocks) {
        WriteRec wr{child_id, blk, page, child->size};
        RETURN_IF_ERROR(AppendRecord(kRecWrite, &wr, sizeof(wr)));
      }
      if (child->type == vfs::FileType::kRegular) {
        TruncateRec tr{child_id, child->size};
        RETURN_IF_ERROR(AppendRecord(kRecTruncate, &tr, sizeof(tr)));
      }
      if (child->type == vfs::FileType::kDirectory) {
        queue.push_back(child_id);
      }
    }
  }

  // Atomic switch: new head + epoch.
  const auto* super = dev->As<LogSuper>(info_.root_inode_off);
  dev->Store64(info_.root_inode_off + offsetof(LogSuper, head_page), fresh_head);
  dev->Store64(info_.root_inode_off + offsetof(LogSuper, epoch), super->epoch + 1);
  dev->PersistRange(info_.root_inode_off, sizeof(LogSuper));

  // The old chain's pages return to the allocator.
  for (uint64_t page : old_chain) {
    RETURN_IF_ERROR(alloc_->FreePage(page));
  }
  return old_pages > log_pages_ ? old_pages - log_pages_ : 0;
}

Result<ufs::RecoveryStats> LogFs::RecoverAll() {
  common::MutexLock lk(&mu_);
  ufs::RecoveryStats st;
  common::Stopwatch total;

  common::Stopwatch k1;
  RETURN_IF_ERROR(kfs_->CofferRecoverBegin(*proc_, cid_, 10'000'000'000ULL));
  st.kernel_ns += k1.ElapsedNs();

  mpk::AccessWindow w(info_.key, true);
  nvm::NvmDevice* dev = kfs_->dev();
  // In-use pages: the log chain plus every referenced data page.
  std::vector<uint64_t> in_use;
  {
    const auto* super = dev->As<LogSuper>(info_.root_inode_off);
    uint64_t page = super->head_page;
    while (page != 0) {
      in_use.push_back(page / nvm::kPageSize);
      page = dev->As<LogPageHeader>(page)->next;
    }
  }
  for (const auto& [id, n] : nodes_) {
    for (const auto& [blk, page] : n.blocks) {
      in_use.push_back(page / nvm::kPageSize);
    }
  }
  st.pages_in_use = in_use.size();
  // The allocator's parked free pages are reclaimed by the kernel; reset the
  // pool so stale lists cannot double-allocate them.
  zofs::CofferAllocator::InitPool(dev, info_.custom_off);

  common::Stopwatch k2;
  ASSIGN_OR_RETURN(reclaimed, kfs_->CofferRecoverEnd(*proc_, cid_, in_use));
  st.kernel_ns += k2.ElapsedNs();
  st.pages_reclaimed = reclaimed;
  st.user_ns = total.ElapsedNs() - st.kernel_ns;
  return st;
}

}  // namespace logfs
