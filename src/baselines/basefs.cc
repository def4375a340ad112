#include "src/baselines/basefs.h"

#include <algorithm>
#include <cstring>

#include "src/zofs/alloc.h"  // CurrentTid

namespace baselines {

// ---------------------------------------------------------------------------
// Allocators

GlobalPageAlloc::GlobalPageAlloc(uint64_t first_page, uint64_t n_pages) {
  free_.reserve(n_pages);
  // LIFO order so recently freed (cache-warm) pages are reused first.
  for (uint64_t p = first_page + n_pages; p > first_page; p--) {
    free_.push_back((p - 1) * nvm::kPageSize);
  }
}

Result<uint64_t> GlobalPageAlloc::Alloc() {
  common::MutexLock lk(&mu_);
  if (free_.empty()) {
    return Err::kNoSpc;
  }
  uint64_t off = free_.back();
  free_.pop_back();
  return off;
}

void GlobalPageAlloc::Free(uint64_t page_off) {
  common::MutexLock lk(&mu_);
  free_.push_back(page_off);
}

PerCoreAlloc::PerCoreAlloc(uint64_t first_page, uint64_t n_pages, int lanes) {
  lanes_.reserve(lanes);
  uint64_t per = n_pages / lanes;
  for (int i = 0; i < lanes; i++) {
    auto lane = std::make_unique<Lane>();
    uint64_t start = first_page + per * i;
    uint64_t len = (i == lanes - 1) ? n_pages - per * i : per;
    lane->free.reserve(len);
    for (uint64_t p = start + len; p > start; p--) {
      lane->free.push_back((p - 1) * nvm::kPageSize);
    }
    lanes_.push_back(std::move(lane));
  }
}

PerCoreAlloc::Lane& PerCoreAlloc::MyLane() {
  return *lanes_[zofs::CurrentTid() % lanes_.size()];
}

Result<uint64_t> PerCoreAlloc::Alloc() {
  Lane& mine = MyLane();
  {
    common::MutexLock lk(&mine.mu);
    if (!mine.free.empty()) {
      uint64_t off = mine.free.back();
      mine.free.pop_back();
      return off;
    }
  }
  // Fall back to stealing from other lanes when ours is exhausted.
  for (auto& lane : lanes_) {
    common::MutexLock lk(&lane->mu);
    if (!lane->free.empty()) {
      uint64_t off = lane->free.back();
      lane->free.pop_back();
      return off;
    }
  }
  return Err::kNoSpc;
}

void PerCoreAlloc::Free(uint64_t page_off) {
  Lane& mine = MyLane();
  common::MutexLock lk(&mine.mu);
  mine.free.push_back(page_off);
}

// ---------------------------------------------------------------------------
// BaseFs

// The top of the device is reserved for inode-attribute slots (64 B each).
static constexpr uint64_t kMetaRegionBytes = 16ull << 20;

BaseFs::BaseFs(nvm::NvmDevice* dev, Config cfg) : dev_(dev), cfg_(cfg) {
  next_meta_slot_ = dev->size() - kMetaRegionBytes;
  meta_region_end_ = dev->size();
  root_ = std::make_shared<Node>();
  root_->id = 1;
  root_->type = vfs::FileType::kDirectory;
  root_->mode = 0777;
  root_->mtime_ns = common::NowNs();
}

BaseFs::~BaseFs() = default;

uint64_t BaseFs::AllocMetaSlot() {
  uint64_t slot = next_meta_slot_.fetch_add(nvm::kCachelineSize, std::memory_order_relaxed);
  if (slot + nvm::kCachelineSize > meta_region_end_) {
    return 0;  // out of slots: skip the charge rather than fail the FS
  }
  return slot;
}

void BaseFs::PersistInodeAttrs(Node& node) {
  if (node.meta_home == 0) {
    return;
  }
  dev_->Store64(node.meta_home, node.size.load(std::memory_order_relaxed));
  dev_->Store64(node.meta_home + 8, node.mtime_ns.load(std::memory_order_relaxed));
  dev_->PersistRange(node.meta_home, 16);
}

Result<BaseFs::NodePtr> BaseFs::ResolveNode(const std::string& path, bool follow_last,
                                            int depth) {
  if (depth > vfs::kMaxSymlinkHops) {
    return Err::kLoop;
  }
  ASSIGN_OR_RETURN(parts, vfs::SplitPath(vfs::NormalizePath(path)));
  NodePtr cur = root_;
  for (size_t i = 0; i < parts.size(); i++) {
    NodePtr child;
    {
      common::ReaderMutexLock lk(&cur->lock);
      if (cur->type != vfs::FileType::kDirectory) {
        return Err::kNotDir;
      }
      auto it = cur->children.find(parts[i]);
      if (it == cur->children.end()) {
        return Err::kNoEnt;
      }
      child = it->second;
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
      std::string target = child->symlink_target;
      std::string next =
          target.starts_with("/") ? target + rest : walked + target + rest;
      return ResolveNode(vfs::NormalizePath(next), follow_last, depth + 1);
    }
    cur = child;
  }
  return cur;
}

Result<std::pair<BaseFs::NodePtr, std::string>> BaseFs::ResolveParent(const std::string& path) {
  ASSIGN_OR_RETURN(pp, vfs::SplitParent(vfs::NormalizePath(path)));
  ASSIGN_OR_RETURN(parent, ResolveNode(pp.first, true));
  if (parent->type != vfs::FileType::kDirectory) {
    return Err::kNotDir;
  }
  return std::make_pair(parent, pp.second);
}

Result<size_t> BaseFs::ReadData(Node& node, void* buf, size_t n, uint64_t off) {
  const uint64_t size = node.size.load(std::memory_order_relaxed);
  if (off >= size || n == 0) {
    return size_t{0};
  }
  n = std::min<uint64_t>(n, size - off);
  auto* dst = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const uint64_t blk = (off + done) / nvm::kPageSize;
    const uint64_t in_off = (off + done) % nvm::kPageSize;
    const size_t chunk = std::min<size_t>(n - done, nvm::kPageSize - in_off);
    auto it = node.blocks.find(blk);
    if (it == node.blocks.end()) {
      memset(dst + done, 0, chunk);
    } else {
      // zofs-lint: allow(raw-nvm-deref) — bulk copy out of an allocator-owned block offset
      memcpy(dst + done, dev_->base() + it->second + in_off, chunk);
    }
    done += chunk;
  }
  return done;
}

Status BaseFs::WriteBlocksInPlace(Node& node, const void* buf, size_t n, uint64_t off,
                                  bool non_temporal, bool flush_lines) {
  const auto* src = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const uint64_t blk = (off + done) / nvm::kPageSize;
    const uint64_t in_off = (off + done) % nvm::kPageSize;
    const size_t chunk = std::min<size_t>(n - done, nvm::kPageSize - in_off);
    auto it = node.blocks.find(blk);
    uint64_t page;
    if (it == node.blocks.end()) {
      ASSIGN_OR_RETURN(p, AllocPage());
      if (chunk < nvm::kPageSize) {
        static const uint8_t kZeros[nvm::kPageSize] = {};
        dev_->NtStoreBytes(p, kZeros, nvm::kPageSize);
      }
      node.blocks[blk] = p;
      page = p;
    } else {
      page = it->second;
    }
    if (non_temporal) {
      dev_->NtStoreBytes(page + in_off, src + done, chunk);
    } else {
      dev_->StoreBytes(page + in_off, src + done, chunk);
      if (flush_lines) {
        dev_->Clwb(page + in_off, chunk);
      }
    }
    done += chunk;
  }
  dev_->Sfence();
  const uint64_t end = off + n;
  if (end > node.size.load(std::memory_order_relaxed)) {
    node.size.store(end, std::memory_order_relaxed);
  }
  node.mtime_ns.store(common::NowNs(), std::memory_order_relaxed);
  return common::OkStatus();
}

void BaseFs::FreeAllBlocks(Node& node) {
  for (auto& [blk, page] : node.blocks) {
    FreePage(page);
  }
  node.blocks.clear();
  node.size.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// FD plumbing

Result<vfs::Fd> BaseFs::InstallFd(std::shared_ptr<OpenFile> f) {
  common::MutexLock lk(&fd_mu_);
  for (size_t i = 0; i < fds_.size(); i++) {
    if (fds_[i] == nullptr) {
      fds_[i] = std::move(f);
      return static_cast<vfs::Fd>(i);
    }
  }
  fds_.push_back(std::move(f));
  return static_cast<vfs::Fd>(fds_.size() - 1);
}

Result<std::shared_ptr<BaseFs::OpenFile>> BaseFs::GetFd(vfs::Fd fd) {
  common::MutexLock lk(&fd_mu_);
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() || fds_[fd] == nullptr) {
    return Err::kBadF;
  }
  return fds_[fd];
}

// ---------------------------------------------------------------------------
// vfs::FileSystem surface

Result<vfs::Fd> BaseFs::Open(const vfs::Cred& cred, const std::string& path, uint32_t flags,
                             uint16_t mode) {
  EnterOp();
  auto node_res = ResolveNode(path, true);
  NodePtr node;
  if (node_res.ok()) {
    if ((flags & vfs::kCreate) && (flags & vfs::kExcl)) {
      return Err::kExist;
    }
    node = *node_res;
  } else {
    if (node_res.error() != Err::kNoEnt || !(flags & vfs::kCreate)) {
      return node_res.error();
    }
    ASSIGN_OR_RETURN(pp, ResolveParent(path));
    auto& [parent, leaf] = pp;
    common::WriterMutexLock lk(&parent->lock);
    TouchLease(*parent);
    auto it = parent->children.find(leaf);
    if (it != parent->children.end()) {
      if (flags & vfs::kExcl) {
        return Err::kExist;  // e.g. a dangling symlink: the name exists
      }
      node = it->second;
    } else {
      node = std::make_shared<Node>();
      node->id = next_id_.fetch_add(1);
      node->meta_home = AllocMetaSlot();
      node->type = vfs::FileType::kRegular;
      node->mode = mode;
      node->uid = cred.uid;
      node->gid = cred.gid;
      node->mtime_ns = common::NowNs();
      parent->children[leaf] = node;
      parent->mtime_ns.store(common::NowNs(), std::memory_order_relaxed);
      // Both the new inode and the directory entry must be persisted.
      PersistMeta(node.get(), 128);
      PersistMeta(parent.get(), 128 + leaf.size());
    }
  }
  if (node->type == vfs::FileType::kDirectory && (flags & vfs::kWrite)) {
    return Err::kIsDir;
  }
  if (!vfs::PermitsAccess(cred, node->uid, node->gid, node->mode, (flags & vfs::kRead) != 0,
                          (flags & vfs::kWrite) != 0)) {
    return Err::kAcces;
  }
  // O_TRUNC without write access is undefined per POSIX; ignore it rather
  // than destroy data through a read-only open (matches FsLib::Open).
  if ((flags & vfs::kTrunc) && (flags & vfs::kWrite)) {
    common::WriterMutexLock lk(&node->lock);
    TouchLease(*node);
    FreeAllBlocks(*node);
    PersistMeta(node.get(), 64);
  }
  auto f = std::make_shared<OpenFile>();
  f->node = node;
  f->flags = flags;
  return InstallFd(std::move(f));
}

Status BaseFs::Close(vfs::Fd fd) {
  common::MutexLock lk(&fd_mu_);
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() || fds_[fd] == nullptr) {
    return Err::kBadF;
  }
  fds_[fd] = nullptr;
  return common::OkStatus();
}

Result<size_t> BaseFs::Read(vfs::Fd fd, void* buf, size_t n) {
  EnterOp();
  ASSIGN_OR_RETURN(f, GetFd(fd));
  common::ReaderMutexLock lk(&f->node->lock);
  TouchLease(*f->node);
  uint64_t pos = f->pos.load(std::memory_order_relaxed);
  ASSIGN_OR_RETURN(done, ReadData(*f->node, buf, n, pos));
  f->pos.fetch_add(done, std::memory_order_relaxed);
  return done;
}

Result<size_t> BaseFs::Write(vfs::Fd fd, const void* buf, size_t n) {
  EnterOp();
  ASSIGN_OR_RETURN(f, GetFd(fd));
  common::WriterMutexLock lk(&f->node->lock);
  TouchLease(*f->node);
  uint64_t pos = (f->flags & vfs::kAppend) ? f->node->size.load(std::memory_order_relaxed)
                                           : f->pos.load(std::memory_order_relaxed);
  RETURN_IF_ERROR(WriteData(*f->node, buf, n, pos));
  PersistInodeAttrs(*f->node);
  f->pos.store(pos + n, std::memory_order_relaxed);
  return n;
}

Result<size_t> BaseFs::Pread(vfs::Fd fd, void* buf, size_t n, uint64_t off) {
  EnterOp();
  ASSIGN_OR_RETURN(f, GetFd(fd));
  common::ReaderMutexLock lk(&f->node->lock);
  TouchLease(*f->node);
  return ReadData(*f->node, buf, n, off);
}

Result<size_t> BaseFs::Pwrite(vfs::Fd fd, const void* buf, size_t n, uint64_t off) {
  EnterOp();
  ASSIGN_OR_RETURN(f, GetFd(fd));
  common::WriterMutexLock lk(&f->node->lock);
  TouchLease(*f->node);
  RETURN_IF_ERROR(WriteData(*f->node, buf, n, off));
  PersistInodeAttrs(*f->node);
  return n;
}

Result<uint64_t> BaseFs::Lseek(vfs::Fd fd, int64_t off, int whence) {
  ASSIGN_OR_RETURN(f, GetFd(fd));
  int64_t base;
  switch (whence) {
    case 0:
      base = 0;
      break;
    case 1:
      base = static_cast<int64_t>(f->pos.load(std::memory_order_relaxed));
      break;
    case 2:
      base = static_cast<int64_t>(f->node->size.load(std::memory_order_relaxed));
      break;
    default:
      return Err::kInval;
  }
  int64_t target = base + off;
  if (target < 0) {
    return Err::kInval;
  }
  f->pos.store(static_cast<uint64_t>(target), std::memory_order_relaxed);
  return static_cast<uint64_t>(target);
}

Status BaseFs::Fsync(vfs::Fd fd) {
  EnterOp();
  ASSIGN_OR_RETURN(f, GetFd(fd));
  common::WriterMutexLock lk(&f->node->lock);
  return SyncFile(*f->node);
}

Result<vfs::StatBuf> BaseFs::Fstat(vfs::Fd fd) {
  EnterOp();
  ASSIGN_OR_RETURN(f, GetFd(fd));
  Node& n = *f->node;
  vfs::StatBuf st;
  st.ino = n.id;
  st.type = n.type;
  st.mode = n.mode;
  st.uid = n.uid;
  st.gid = n.gid;
  st.size = n.size.load(std::memory_order_relaxed);
  st.mtime_ns = n.mtime_ns.load(std::memory_order_relaxed);
  return st;
}

Status BaseFs::Ftruncate(vfs::Fd fd, uint64_t len) {
  EnterOp();
  ASSIGN_OR_RETURN(f, GetFd(fd));
  Node& node = *f->node;
  common::WriterMutexLock lk(&node.lock);
  TouchLease(node);
  const uint64_t old = node.size.load(std::memory_order_relaxed);
  if (len < old) {
    uint64_t first_dead = (len + nvm::kPageSize - 1) / nvm::kPageSize;
    for (auto it = node.blocks.lower_bound(first_dead); it != node.blocks.end();) {
      FreePage(it->second);
      it = node.blocks.erase(it);
    }
  }
  node.size.store(len, std::memory_order_relaxed);
  PersistMeta(&node, 64);
  return common::OkStatus();
}

Result<vfs::Fd> BaseFs::Dup(vfs::Fd fd) {
  ASSIGN_OR_RETURN(f, GetFd(fd));
  return InstallFd(f);
}

Status BaseFs::Mkdir(const vfs::Cred& cred, const std::string& path, uint16_t mode) {
  EnterOp();
  ASSIGN_OR_RETURN(pp, ResolveParent(path));
  auto& [parent, leaf] = pp;
  common::WriterMutexLock lk(&parent->lock);
  TouchLease(*parent);
  if (parent->children.count(leaf)) {
    return Err::kExist;
  }
  auto node = std::make_shared<Node>();
  node->id = next_id_.fetch_add(1);
  node->meta_home = AllocMetaSlot();
  node->type = vfs::FileType::kDirectory;
  node->mode = mode;
  node->uid = cred.uid;
  node->gid = cred.gid;
  node->mtime_ns = common::NowNs();
  parent->children[leaf] = node;
  PersistMeta(node.get(), 128);
  PersistMeta(parent.get(), 128 + leaf.size());
  return common::OkStatus();
}

Status BaseFs::Rmdir(const vfs::Cred& cred, const std::string& path) {
  EnterOp();
  ASSIGN_OR_RETURN(pp, ResolveParent(path));
  auto& [parent, leaf] = pp;
  common::WriterMutexLock lk(&parent->lock);
  TouchLease(*parent);
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return Err::kNoEnt;
  }
  if (it->second->type != vfs::FileType::kDirectory) {
    return Err::kNotDir;
  }
  if (!it->second->children.empty()) {
    return Err::kNotEmpty;
  }
  parent->children.erase(it);
  PersistMeta(parent.get(), 64 + leaf.size());
  return common::OkStatus();
}

Status BaseFs::Unlink(const vfs::Cred& cred, const std::string& path) {
  EnterOp();
  ASSIGN_OR_RETURN(pp, ResolveParent(path));
  auto& [parent, leaf] = pp;
  common::WriterMutexLock lk(&parent->lock);
  TouchLease(*parent);
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return Err::kNoEnt;
  }
  if (it->second->type == vfs::FileType::kDirectory) {
    return Err::kIsDir;
  }
  NodePtr node = it->second;
  parent->children.erase(it);
  PersistMeta(parent.get(), 64 + leaf.size());
  common::WriterMutexLock nlk(&node->lock);
  FreeAllBlocks(*node);
  return common::OkStatus();
}

Result<vfs::StatBuf> BaseFs::Stat(const vfs::Cred& cred, const std::string& path) {
  EnterOp();
  ASSIGN_OR_RETURN(node, ResolveNode(path, true));
  vfs::StatBuf st;
  st.ino = node->id;
  st.type = node->type;
  st.mode = node->mode;
  st.uid = node->uid;
  st.gid = node->gid;
  st.size = node->size.load(std::memory_order_relaxed);
  st.mtime_ns = node->mtime_ns.load(std::memory_order_relaxed);
  return st;
}

Result<std::vector<vfs::DirEntry>> BaseFs::ReadDir(const vfs::Cred& cred,
                                                   const std::string& path) {
  EnterOp();
  ASSIGN_OR_RETURN(node, ResolveNode(path, true));
  if (node->type != vfs::FileType::kDirectory) {
    return Err::kNotDir;
  }
  common::ReaderMutexLock lk(&node->lock);
  std::vector<vfs::DirEntry> out;
  out.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    out.push_back(vfs::DirEntry{name, child->id, child->type});
  }
  return out;
}

Status BaseFs::Rename(const vfs::Cred& cred, const std::string& from, const std::string& to) {
  EnterOp();
  const std::string nfrom = vfs::NormalizePath(from);
  const std::string nto = vfs::NormalizePath(to);
  if (nfrom == nto) {
    return common::OkStatus();
  }
  ASSIGN_OR_RETURN(sp, ResolveParent(nfrom));
  ASSIGN_OR_RETURN(dp, ResolveParent(nto));
  auto& [sparent, sleaf] = sp;
  auto& [dparent, dleaf] = dp;

  // Lock parents in address order.
  if (sparent == dparent) {
    common::WriterMutexLock lk(&sparent->lock);
    auto it = sparent->children.find(sleaf);
    if (it == sparent->children.end()) {
      return Err::kNoEnt;
    }
    NodePtr node = it->second;
    sparent->children.erase(it);
    sparent->children[dleaf] = node;
    PersistMeta(sparent.get(), 128);
    return common::OkStatus();
  }
  Node* first = sparent.get() < dparent.get() ? sparent.get() : dparent.get();
  Node* second = sparent.get() < dparent.get() ? dparent.get() : sparent.get();
  common::WriterMutexLock lk1(&first->lock);
  common::WriterMutexLock lk2(&second->lock);
  auto it = sparent->children.find(sleaf);
  if (it == sparent->children.end()) {
    return Err::kNoEnt;
  }
  NodePtr node = it->second;
  sparent->children.erase(it);
  dparent->children[dleaf] = node;
  PersistMeta(sparent.get(), 128);
  PersistMeta(dparent.get(), 128);
  return common::OkStatus();
}

Status BaseFs::Chmod(const vfs::Cred& cred, const std::string& path, uint16_t mode) {
  EnterOp();
  ASSIGN_OR_RETURN(node, ResolveNode(path, true));
  if (!cred.IsRoot() && cred.uid != node->uid) {
    return Err::kPerm;
  }
  common::WriterMutexLock lk(&node->lock);
  node->mode = mode;
  PersistMeta(node.get(), 64);
  return common::OkStatus();
}

Status BaseFs::Chown(const vfs::Cred& cred, const std::string& path, uint32_t uid, uint32_t gid) {
  EnterOp();
  ASSIGN_OR_RETURN(node, ResolveNode(path, true));
  if (!cred.IsRoot()) {
    return Err::kPerm;
  }
  common::WriterMutexLock lk(&node->lock);
  node->uid = uid;
  node->gid = gid;
  PersistMeta(node.get(), 64);
  return common::OkStatus();
}

Status BaseFs::Symlink(const vfs::Cred& cred, const std::string& target,
                       const std::string& linkpath) {
  EnterOp();
  ASSIGN_OR_RETURN(pp, ResolveParent(linkpath));
  auto& [parent, leaf] = pp;
  common::WriterMutexLock lk(&parent->lock);
  if (parent->children.count(leaf)) {
    return Err::kExist;
  }
  auto node = std::make_shared<Node>();
  node->id = next_id_.fetch_add(1);
  node->meta_home = AllocMetaSlot();
  node->type = vfs::FileType::kSymlink;
  node->mode = 0777;
  node->uid = cred.uid;
  node->gid = cred.gid;
  node->symlink_target = target;
  node->size = target.size();
  node->mtime_ns = common::NowNs();
  parent->children[leaf] = node;
  PersistMeta(parent.get(), 128 + target.size());
  return common::OkStatus();
}

Result<std::string> BaseFs::ReadLink(const vfs::Cred& cred, const std::string& path) {
  EnterOp();
  ASSIGN_OR_RETURN(node, ResolveNode(path, false));
  if (node->type != vfs::FileType::kSymlink) {
    return Err::kInval;
  }
  return node->symlink_target;
}

}  // namespace baselines
