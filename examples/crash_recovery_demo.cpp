// Crash-consistency demo: crash injection + remount + offline recovery.
//
// Runs the ZoFS stack on a device with crash tracking enabled, cuts power
// mid-workload (SimulateCrash rolls back every store that was not explicitly
// persisted), re-opens the device as a new "boot", and runs fsck. Files
// whose operations completed survive; torn state is repaired or reclaimed.

#include <cstdio>
#include <memory>

#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"

int main() {
  nvm::Options nopts;
  nopts.size_bytes = 256ull << 20;
  nopts.crash_tracking = true;
  auto dev = std::make_unique<nvm::NvmDevice>(nopts);
  mpk::InstallDeviceHook(dev.get());

  kernfs::FormatOptions fopts;
  fopts.root_mode = 0755;
  fopts.root_uid = 1000;
  fopts.root_gid = 1000;
  vfs::Cred user{1000, 1000};

  {
    auto kfs = std::make_unique<kernfs::KernFs>(dev.get(), fopts);
    fslib::FsLib fs(kfs.get(), user);

    // A fully persisted file...
    auto fd = fs.Open(user, "/durable.txt", vfs::kCreate | vfs::kWrite, 0644);
    const char data[] = "this line was fsynced before the crash";
    fs.Write(*fd, data, sizeof(data) - 1);
    fs.Fsync(*fd);
    fs.Close(*fd);
    printf("wrote /durable.txt (synchronous FS: persistent at return)\n");

    // ... then a crash strikes. A dead process unmounts nothing: abandon it
    // first, so its destructor leaves the crashed image alone.
    fs.Abandon();
    size_t rolled_back = dev->SimulateCrash();
    printf("CRASH! rolled back %zu unpersisted cachelines\n", rolled_back);
  }
  mpk::BindThreadToProcess(nullptr);

  // Next boot: re-open the device (rebuilds volatile kernel state from the
  // persistent allocation table) and run recovery.
  {
    auto kfs = std::make_unique<kernfs::KernFs>(dev.get());
    fslib::FsLib fs(kfs.get(), user);
    auto stats = fs.zofs().RecoverAll();
    if (stats.ok()) {
      printf("fsck: %lu pages in use, %lu leaked pages reclaimed, %lu dentries cleared\n",
             (unsigned long)stats->pages_in_use, (unsigned long)stats->pages_reclaimed,
             (unsigned long)stats->dentries_cleared);
    }

    char buf[64] = {};
    auto fd = fs.Open(user, "/durable.txt", vfs::kRead, 0);
    if (fd.ok()) {
      fs.Read(*fd, buf, sizeof(buf));
      printf("after reboot, /durable.txt: \"%s\"\n", buf);
    } else {
      printf("durable file LOST: %s (bug!)\n", common::ErrName(fd.error()));
      return 1;
    }
  }
  printf("crash/recovery demo done.\n");
  return 0;
}
