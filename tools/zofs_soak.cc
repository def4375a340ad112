// zofs_soak — deterministic tenant kill/churn soak (src/procmon).
//
//   zofs_soak [--seed=N] [--tenants=N] [--rounds=N] [--ops=N]
//             [--stray-writes=N] [--remount-every=N] [--dev-mb=N]
//             [--no-corrupt] [--key-pressure] [--json]
//
// Drives several simulated tenants through file churn while killing them at
// every injectable death site (mid-InodeLock, published staged intent,
// mid-rename-intent, mid-channel-batch, freshly-claimed leased list), with
// stray-write bursts at death, survivor-side lease steal + online intent
// repair, kernel dead-process reaping, in-loop corruption and periodic
// crash/remount + fsck. With --key-pressure every tenant also churns 18
// distinct-permission coffers so each process holds more protection classes
// than physical MPK keys and the whole campaign rides the LRU key window
// (ISSUE 10). Exits nonzero unless every oracle came out clean:
// zero MPK escapes, zero fsck violations, zero durability violations, zero
// stuck survivors. Output is byte-stable for a fixed configuration, so
// check_all.sh diffs two runs.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/procmon/procmon.h"
#include "tools/flags.h"

namespace {

void Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--seed=<n>] [--tenants=<n>] [--rounds=<n>] [--ops=<n>]\n"
          "          [--stray-writes=<n>] [--remount-every=<n>] [--dev-mb=<n>]\n"
          "          [--no-corrupt] [--key-pressure] [--json]\n"
          "  --seed=<n>          soak seed (default: 42)\n"
          "  --tenants=<n>       concurrent simulated tenants (default: 3)\n"
          "  --rounds=<n>        churn rounds; one kill attempt per round (default: 12)\n"
          "  --ops=<n>           ops per tenant per round (default: 20)\n"
          "  --stray-writes=<n>  stray stores per writable mapping at death,\n"
          "                      applied on every other kill (default: 16)\n"
          "  --remount-every=<n> crash+remount+fsck every n rounds, 0=never (default: 4)\n"
          "  --dev-mb=<n>        simulated device size in MB (default: 64)\n"
          "  --no-corrupt        skip the in-loop byte-flip corruption\n"
          "  --key-pressure      every tenant churns 18 distinct-permission coffers,\n"
          "                      overcommitting the 15 MPK keys per process so the\n"
          "                      campaign exercises the LRU key window\n"
          "  --json              emit the report as JSON (always byte-stable)\n",
          argv0);
}

using tools::FlagValue;

}  // namespace

int main(int argc, char** argv) {
  procmon::SoakOptions opts;
  bool json = false;
  for (int i = 1; i < argc; i++) {
    std::string v;
    if (FlagValue(argv[i], "--seed", &v)) {
      opts.seed = strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--tenants", &v)) {
      opts.tenants = static_cast<uint32_t>(strtoul(v.c_str(), nullptr, 10));
    } else if (FlagValue(argv[i], "--rounds", &v)) {
      opts.rounds = static_cast<uint32_t>(strtoul(v.c_str(), nullptr, 10));
    } else if (FlagValue(argv[i], "--ops", &v)) {
      opts.ops_per_tenant_per_round = static_cast<uint32_t>(strtoul(v.c_str(), nullptr, 10));
    } else if (FlagValue(argv[i], "--stray-writes", &v)) {
      opts.stray_writes = strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--remount-every", &v)) {
      opts.remount_every = static_cast<uint32_t>(strtoul(v.c_str(), nullptr, 10));
    } else if (FlagValue(argv[i], "--dev-mb", &v)) {
      opts.device_mb = strtoull(v.c_str(), nullptr, 10);
    } else if (strcmp(argv[i], "--no-corrupt") == 0) {
      opts.corrupt_in_loop = false;
    } else if (strcmp(argv[i], "--key-pressure") == 0) {
      opts.key_pressure = true;
    } else if (strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (opts.tenants == 0 || opts.rounds == 0) {
    Usage(argv[0]);
    return 2;
  }

  procmon::SoakReport rep = procmon::RunSoak(opts);
  if (json) {
    printf("%s\n", rep.ToJson().c_str());
  } else {
    printf("zofs_soak seed=%llu rounds=%u ops=%llu kills=%llu "
           "(lock=%llu staged=%llu rename=%llu chan=%llu list=%llu)\n"
           "  stray attempted=%llu landed=%llu blocked=%llu\n"
           "  steals=%llu online_repairs=%llu reaped procs=%llu mappings=%llu "
           "grant_pages=%llu lists=%llu\n"
           "  remounts=%llu corruptions=%llu contained_probes=%llu\n"
           "  GATES mpk_escapes=%llu fsck_violations=%llu durability_violations=%llu "
           "stuck_survivors=%llu -> %s\n",
           (unsigned long long)rep.seed, rep.rounds, (unsigned long long)rep.ops,
           (unsigned long long)rep.kills, (unsigned long long)rep.kills_by_point[0],
           (unsigned long long)rep.kills_by_point[1], (unsigned long long)rep.kills_by_point[2],
           (unsigned long long)rep.kills_by_point[3], (unsigned long long)rep.kills_by_point[4],
           (unsigned long long)rep.stray_attempted, (unsigned long long)rep.stray_landed,
           (unsigned long long)rep.stray_blocked, (unsigned long long)rep.lock_steals,
           (unsigned long long)rep.online_repairs, (unsigned long long)rep.reaped_processes,
           (unsigned long long)rep.reaped_mappings, (unsigned long long)rep.reaped_grant_pages,
           (unsigned long long)rep.reaped_lists, (unsigned long long)rep.remounts,
           (unsigned long long)rep.corruptions_injected,
           (unsigned long long)rep.contained_probes, (unsigned long long)rep.mpk_escapes,
           (unsigned long long)rep.fsck_violations, (unsigned long long)rep.durability_violations,
           (unsigned long long)rep.stuck_survivors, rep.Clean() ? "CLEAN" : "DIRTY");
  }
  return rep.Clean() ? 0 : 1;
}
