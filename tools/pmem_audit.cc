// pmem_audit — replays a named bench workload with the persistence auditor
// attached and prints the findings.
//
//   pmem_audit [--fs=zofs] [--workload=DWOL] [--ops=N] [--json] [--list]
//
// The replay is deterministic: one thread, fixed seed, zero simulated
// persistence latency — two runs of the same workload produce byte-identical
// reports (the report itself carries no timestamps). Exits nonzero if any
// severity-error finding accumulated, so it can gate CI (tools/check_all.sh).

#include <cstdio>
#include <cstring>
#include <string>

#include "src/audit/audit.h"
#include "src/harness/fxmark.h"
#include "tools/flags.h"

namespace {

void Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--fs=<kind>] [--workload=<fx>] [--ops=<n>] [--json] [--list]\n"
          "  --fs=<kind>      file system to replay on (default: zofs)\n"
          "  --workload=<fx>  FxMark workload: DRBL DRBM DRBH DWAL DWOL DWOM\n"
          "                   MWCL MWUL MWRL (default: DWOL)\n"
          "  --ops=<n>        operations to replay (default: 2000)\n"
          "  --json           emit the report as JSON instead of text\n"
          "  --list           list workloads and exit\n",
          argv0);
}

using tools::FlagValue;

}  // namespace

int main(int argc, char** argv) {
  std::string fs_name = "zofs";
  std::string wl_name = "DWOL";
  uint64_t ops = 2000;
  bool json = false;

  for (int i = 1; i < argc; i++) {
    std::string v;
    if (FlagValue(argv[i], "--fs", &v)) {
      fs_name = v;
    } else if (FlagValue(argv[i], "--workload", &v)) {
      wl_name = v;
    } else if (FlagValue(argv[i], "--ops", &v)) {
      ops = strtoull(v.c_str(), nullptr, 10);
    } else if (strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (strcmp(argv[i], "--list") == 0) {
      for (harness::FxWorkload w : harness::kAllFxWorkloads) {
        printf("%s\n", harness::FxName(w));
      }
      return 0;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  harness::FsKind kind;
  if (!harness::ParseFsKind(fs_name, &kind)) {
    fprintf(stderr, "pmem_audit: unknown file system '%s'\n", fs_name.c_str());
    return 2;
  }
  harness::FxWorkload wl;
  if (!harness::ParseFxWorkload(wl_name, &wl)) {
    fprintf(stderr, "pmem_audit: unknown workload '%s'\n", wl_name.c_str());
    return 2;
  }

  // Deterministic replay: no simulated latency, no kernel-crossing cost, one
  // thread, fixed seed (FxOptions default).
  harness::LabOptions lopts;
  lopts.dev_bytes = 256ull << 20;
  lopts.kernel_crossing_ns = 0;
  lopts.clwb_ns = 0;
  lopts.sfence_ns = 0;

  audit::Auditor auditor;
  harness::FsLab lab(kind, lopts);
  auditor.Attach(lab.dev());

  harness::FxOptions fx;
  fx.ops_per_thread = ops;
  harness::WorkloadResult res = harness::RunFxmark(lab, wl, /*threads=*/1, fx);

  audit::Report report = auditor.Snapshot();
  auditor.Detach();

  if (json) {
    printf("%s\n", report.ToJson().c_str());
  } else {
    printf("pmem_audit: %s on %s, %llu ops replayed\n", harness::FxName(wl), lab.name(),
           static_cast<unsigned long long>(res.total_ops));
    printf("%s", report.ToText().c_str());
  }
  return report.errors > 0 ? 1 : 0;
}
