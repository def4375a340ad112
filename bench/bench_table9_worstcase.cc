// Table 9 — Worst-case performance tests (paper §6.4): operations that cross
// coffers must call into the kernel and move page ownership.
//
//   chmod:  files start in one coffer; changing a random file's permission
//           group forces ZoFS to split its pages into a new coffer.
//   rename: files live in two coffers (two permission groups for ZoFS, two
//           directories otherwise); renaming into the other directory moves
//           the file's pages across coffers.
//
// Compared: NOVA (kernel chmod/rename), ZoFS (coffer split / page moves),
// ZoFS-1coffer (pure user-space metadata updates).
//
// Knobs: ZR_TABLE9_FILES (default 1000), ZR_TABLE9_FILE_BYTES (default 8192).
// Exits 1 when a chmod or rename fails, or when, after a ZoFS measurement,
// KernFS's allocation table and coffer run maps disagree.

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/harness/fslab.h"
#include "src/harness/runner.h"

namespace {

using harness::FsKind;

const vfs::Cred kCred{0, 0};

bool g_failed = false;

// After a measurement on a ZoFS kind: every coffer run must cover only
// pages the allocation table gives that coffer.
void CheckAllocTable(harness::FsLab& lab, const char* what) {
  if (lab.kernfs() == nullptr) {
    return;  // a baseline: no KernFS
  }
  const std::string bad = lab.kernfs()->CheckAllocTableForTest();
  if (!bad.empty()) {
    fprintf(stderr, "%s: allocation table: %s\n", what, bad.c_str());
    g_failed = true;
  }
}

double MeasureChmod(FsKind kind, uint64_t nfiles, uint64_t file_bytes) {
  harness::FsLab lab(kind, {.dev_bytes = 1ull << 30});
  vfs::FileSystem* fs = lab.View(0);
  std::vector<uint8_t> data(file_bytes, 0x11);
  fs->Mkdir(kCred, "/dir", 0755);
  for (uint64_t i = 0; i < nfiles; i++) {
    auto fd = fs->Open(kCred, "/dir/f" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
    fs->Pwrite(*fd, data.data(), data.size(), 0);
    fs->Close(*fd);
  }
  // Change the permission group of every file, one by one.
  common::Stopwatch sw;
  for (uint64_t i = 0; i < nfiles; i++) {
    auto st = fs->Chmod(kCred, "/dir/f" + std::to_string(i), 0600);
    if (!st.ok()) {
      fprintf(stderr, "chmod failed: %s\n", common::ErrName(st.error()));
      g_failed = true;
      return 0;
    }
  }
  const double ns = static_cast<double>(sw.ElapsedNs()) / nfiles;
  CheckAllocTable(lab, "chmod");
  return ns;
}

double MeasureRename(FsKind kind, uint64_t nfiles, uint64_t file_bytes) {
  harness::FsLab lab(kind, {.dev_bytes = 1ull << 30});
  vfs::FileSystem* fs = lab.View(0);
  std::vector<uint8_t> data(file_bytes, 0x22);
  // Two directories with different permission groups: for ZoFS these are two
  // coffers (0666-effective vs 0600-effective); the files match their dir.
  fs->Mkdir(kCred, "/a", 0644);
  fs->Mkdir(kCred, "/b", 0600);
  for (uint64_t i = 0; i < nfiles / 2; i++) {
    auto fd = fs->Open(kCred, "/a/f" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
    fs->Pwrite(*fd, data.data(), data.size(), 0);
    fs->Close(*fd);
    auto fd2 = fs->Open(kCred, "/b/g" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0600);
    fs->Pwrite(*fd2, data.data(), data.size(), 0);
    fs->Close(*fd2);
  }
  // Rename files into the *other* directory (cross-coffer for ZoFS).
  common::Stopwatch sw;
  uint64_t ops = 0;
  for (uint64_t i = 0; i < nfiles / 2; i++) {
    auto s1 = fs->Rename(kCred, "/a/f" + std::to_string(i), "/b/f" + std::to_string(i));
    auto s2 = fs->Rename(kCred, "/b/g" + std::to_string(i), "/a/g" + std::to_string(i));
    if (!s1.ok() || !s2.ok()) {
      fprintf(stderr, "rename failed: %s/%s\n",
              common::ErrName(s1.ok() ? common::Err::kOk : s1.error()),
              common::ErrName(s2.ok() ? common::Err::kOk : s2.error()));
      g_failed = true;
      return 0;
    }
    ops += 2;
  }
  const double ns = static_cast<double>(sw.ElapsedNs()) / ops;
  CheckAllocTable(lab, "rename");
  return ns;
}

}  // namespace

int main() {
  const uint64_t nfiles = harness::EnvOr("TABLE9_FILES", 1000);
  const uint64_t fbytes = harness::EnvOr("TABLE9_FILE_BYTES", 8192);

  const FsKind kinds[] = {FsKind::kNova, FsKind::kZofs, FsKind::kZofsOneCoffer};
  printf("Table 9: worst-case cross-coffer operations (ns/op), %lu files of %lu bytes\n\n",
         (unsigned long)nfiles, (unsigned long)fbytes);

  common::TextTable t({"Latency/ns", "NOVA", "ZoFS", "ZoFS-1coffer"});
  char buf[32];
  std::vector<std::string> chmod_row = {"chmod"}, rename_row = {"rename"};
  for (FsKind k : kinds) {
    snprintf(buf, sizeof(buf), "%.0f", MeasureChmod(k, nfiles, fbytes));
    chmod_row.push_back(buf);
  }
  for (FsKind k : kinds) {
    snprintf(buf, sizeof(buf), "%.0f", MeasureRename(k, nfiles, fbytes));
    rename_row.push_back(buf);
  }
  t.AddRow(chmod_row);
  t.AddRow(rename_row);
  printf("%s\n", t.ToString().c_str());

  printf("Paper (Table 9): chmod 1,830 / 23,342 / 675; rename 6,261 / 28,264 / 1,681.\n");
  printf("Shape: ZoFS-1coffer fastest (pure user space), NOVA in between (one kernel\n");
  printf("call), ZoFS an order of magnitude slower (page-by-page ownership rewrite).\n");
  return g_failed ? 1 : 0;
}
