// SIGPROF stack sampler, for finding where a run of any binary here spends
// its CPU time, all threads included:
//
//   LD_PRELOAD=build/tools/libzofs_prof.so <binary> [args...]
//   python3 tools/profile/report.py prof.<pid>.txt
//
// Preloaded, it samples the process every millisecond of CPU time
// (ITIMER_PROF counts every thread's time, and the signal lands in a thread
// that was running) and records the interrupted stack with libgcc's
// backtrace(), which unwinds through the signal frame by the unwind tables:
// a frame-pointer walk from a sample inside the vdso's clock_gettime would
// skip its caller. At exit it writes prof.<pid>.txt in the working
// directory: one line per sample, hex addresses innermost first, then the
// process's memory map for report.py to symbolize. Not preloaded, it does
// nothing.

#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>

namespace {

constexpr int kDepth = 40;
constexpr size_t kMaxSamples = size_t{1} << 17;  // past this, samples are dropped
// backtrace() called in the handler sees the handler and the signal
// trampoline before the interrupted frame.
constexpr int kSkip = 2;

struct Sample {
  void* pc[kDepth + kSkip];
  int n;  // set last: 0 marks a sample still being written
};

Sample* g_samples = nullptr;
std::atomic<size_t> g_next{0};

void OnProf(int) {
  const int saved = errno;
  const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    Sample& s = g_samples[i];
    s.n = backtrace(s.pc, kDepth + kSkip);
  }
  errno = saved;
}

__attribute__((constructor)) void Start() {
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder now, not inside the handler
  void* mem = mmap(nullptr, kMaxSamples * sizeof(Sample), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    return;
  }
  g_samples = static_cast<Sample*>(mem);
  struct sigaction sa = {};
  sa.sa_handler = OnProf;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  const itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

__attribute__((destructor)) void Stop() {
  if (g_samples == nullptr) {
    return;
  }
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[64];
  snprintf(path, sizeof(path), "prof.%d.txt", static_cast<int>(getpid()));
  FILE* out = fopen(path, "w");
  if (out == nullptr) {
    return;
  }
  const size_t taken = std::min(g_next.load(), kMaxSamples);
  for (size_t i = 0; i < taken; i++) {
    const Sample& s = g_samples[i];
    for (int j = kSkip; j < s.n; j++) {
      fprintf(out, j == kSkip ? "%p" : " %p", s.pc[j]);
    }
    if (s.n > kSkip) {
      fputc('\n', out);
    }
  }
  fprintf(out, "# maps\n");
  if (FILE* maps = fopen("/proc/self/maps", "r")) {
    char line[512];
    while (fgets(line, sizeof(line), maps) != nullptr) {
      fputs(line, out);
    }
    fclose(maps);
  }
  fclose(out);
}

}  // namespace
