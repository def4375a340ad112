// fault_inject — deterministic metadata fault-injection campaign for the
// ZoFS stack (src/faultinj).
//
//   fault_inject [--seed=N] [--flips=N] [--threads=N] [--max-trials=N]
//                [--dev-mb=N] [--classes=a,b,...] [--raw-deref] [--json]
//                [--list]
//
// Runs a workload, snapshots the device, then corrupts persistent coffer
// metadata one structure at a time — inode/dentry bit flips, wild and
// cross-coffer block pointers, allocation-table lies, free-list and lease
// garbage, directory cycles, bogus coffer roots — and re-drives FSLib
// through reads, writes, lookups, and recovery on each image. Outcomes are
// classified as detected / benign / silent-data / crash / hang / escape.
// The report is byte-stable for a fixed configuration, so it can be diffed
// in CI (tools/check_all.sh). Exits nonzero if anything crashed, hung, or
// escaped its coffer.
//
// --raw-deref re-enables the pre-hardening dereference discipline (the
// planted-bug regression mode): the campaign must then report crashes.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/faultinj/faultinj.h"
#include "tools/flags.h"

namespace {

void Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--seed=<n>] [--flips=<n>] [--threads=<n>] [--max-trials=<n>]\n"
          "          [--dev-mb=<n>] [--classes=<a,b,...>] [--raw-deref] [--json] [--list]\n"
          "  --seed=<n>       campaign seed (default: 42)\n"
          "  --flips=<n>      bit-flip trials per flip target (default: 8)\n"
          "  --threads=<n>    worker threads (default: 4; does not affect output)\n"
          "  --max-trials=<n> cap on trials, 0 = all (default: 0)\n"
          "  --dev-mb=<n>     simulated device size in MB (default: 32)\n"
          "  --classes=<...>  comma-separated fault classes (default: all)\n"
          "  --raw-deref      pre-hardening dereference discipline (planted-bug\n"
          "                   demo; the campaign must report crashes)\n"
          "  --json           emit the report as JSON instead of text\n"
          "  --list           list fault classes and exit\n",
          argv0);
}

using tools::FlagValue;

}  // namespace

int main(int argc, char** argv) {
  faultinj::CampaignOptions opts;
  bool json = false;

  for (int i = 1; i < argc; i++) {
    std::string v;
    if (FlagValue(argv[i], "--seed", &v)) {
      opts.seed = strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--flips", &v)) {
      opts.flips_per_struct = static_cast<uint32_t>(strtoul(v.c_str(), nullptr, 10));
    } else if (FlagValue(argv[i], "--threads", &v)) {
      opts.threads = atoi(v.c_str());
    } else if (FlagValue(argv[i], "--max-trials", &v)) {
      opts.max_trials = strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--dev-mb", &v)) {
      opts.dev_bytes = strtoull(v.c_str(), nullptr, 10) << 20;
    } else if (FlagValue(argv[i], "--classes", &v)) {
      size_t pos = 0;
      while (pos <= v.size()) {
        size_t comma = v.find(',', pos);
        std::string name = v.substr(pos, comma == std::string::npos ? comma : comma - pos);
        faultinj::FaultClass c;
        if (!name.empty()) {
          if (!faultinj::ParseFaultClass(name, &c)) {
            fprintf(stderr, "fault_inject: unknown fault class '%s'\n", name.c_str());
            return 2;
          }
          opts.classes.push_back(c);
        }
        if (comma == std::string::npos) {
          break;
        }
        pos = comma + 1;
      }
    } else if (strcmp(argv[i], "--raw-deref") == 0) {
      opts.raw_deref_for_test = true;
    } else if (strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (strcmp(argv[i], "--list") == 0) {
      for (faultinj::FaultClass c : faultinj::kAllFaultClasses) {
        printf("%s\n", faultinj::FaultClassName(c));
      }
      return 0;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  faultinj::CampaignReport rep = faultinj::RunCampaign(opts);
  if (json) {
    printf("%s", rep.ToJson().c_str());
  } else {
    printf("%s", rep.ToText().c_str());
  }
  return rep.Clean() ? 0 : 1;
}
