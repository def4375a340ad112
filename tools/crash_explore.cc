// crash_explore — systematic crash-state exploration for recovery
// correctness (src/crashmon).
//
//   crash_explore [--fs=zofs] [--workload=DWOL] [--ops=N] [--max-points=N]
//                 [--mid-epoch=N] [--threads=N] [--seed=N] [--json] [--list]
//
// Records a deterministic workload with NVM crash capture on, enumerates a
// crash state at every persistence boundary (plus mid-epoch cacheline
// subsets), runs recovery on each materialized image, and checks the fsck and
// durability oracles. The report is byte-stable: two runs of the same
// configuration produce identical output, so it can be diffed in CI
// (tools/check_all.sh). Exits nonzero if any violation was found.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/crashmon/crashmon.h"
#include "tools/flags.h"

namespace {

void Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--fs=zofs] [--workload=<wl>] [--ops=<n>] [--max-points=<n>]\n"
          "          [--mid-epoch=<n>] [--threads=<n>] [--seed=<n>] [--json] [--list]\n"
          "  --fs=zofs        file system to explore (only the ZoFS stack has\n"
          "                   a recovery path to exercise)\n"
          "  --workload=<wl>  workload: DWOL MWCL MWUL MWRL MIXED DWAL CHURN\n"
          "                   (default: DWOL)\n"
          "  --ops=<n>        operations recorded under capture (default: 400)\n"
          "  --max-points=<n> cap on explored crash states, 0 = all (default: 0)\n"
          "  --mid-epoch=<n>  mid-epoch states per fence (default: 2)\n"
          "  --threads=<n>    exploration worker threads (default: 4)\n"
          "  --seed=<n>       workload + subset seed (default: 42)\n"
          "  --legacy-rename-overwrite  replay with the pre-fix rename (planted\n"
          "                   bug demo; the explorer must report violations)\n"
          "  --json           emit the report as JSON instead of text\n"
          "  --list           list workloads and exit\n",
          argv0);
}

using tools::FlagValue;

}  // namespace

int main(int argc, char** argv) {
  std::string fs_name = "zofs";
  std::string wl_name = "DWOL";
  crashmon::ExploreOptions opts;
  bool json = false;

  for (int i = 1; i < argc; i++) {
    std::string v;
    if (FlagValue(argv[i], "--fs", &v)) {
      fs_name = v;
    } else if (FlagValue(argv[i], "--workload", &v)) {
      wl_name = v;
    } else if (FlagValue(argv[i], "--ops", &v)) {
      opts.ops = strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--max-points", &v)) {
      opts.max_points = strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--mid-epoch", &v)) {
      opts.mid_epoch_per_fence = static_cast<uint32_t>(strtoul(v.c_str(), nullptr, 10));
    } else if (FlagValue(argv[i], "--threads", &v)) {
      opts.threads = atoi(v.c_str());
    } else if (FlagValue(argv[i], "--seed", &v)) {
      opts.seed = strtoull(v.c_str(), nullptr, 10);
    } else if (strcmp(argv[i], "--legacy-rename-overwrite") == 0) {
      opts.legacy_rename_overwrite = true;
    } else if (strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (strcmp(argv[i], "--list") == 0) {
      for (crashmon::Workload w : crashmon::kAllWorkloads) {
        printf("%s\n", crashmon::WorkloadName(w));
      }
      return 0;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  if (fs_name != "zofs") {
    fprintf(stderr,
            "crash_explore: unsupported file system '%s' (crash exploration drives the\n"
            "ZoFS recovery path; baselines have no user-space recovery to exercise)\n",
            fs_name.c_str());
    return 2;
  }
  if (!crashmon::ParseWorkload(wl_name, &opts.workload)) {
    fprintf(stderr, "crash_explore: unknown workload '%s'\n", wl_name.c_str());
    return 2;
  }

  crashmon::ExploreReport rep = crashmon::Explore(opts);
  if (json) {
    printf("%s", rep.ToJson().c_str());
  } else {
    printf("%s", rep.ToText().c_str());
  }
  return rep.violation_count > 0 ? 1 : 0;
}
