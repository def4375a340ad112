// Flag matching for the command-line tools' argument loops.

#ifndef TOOLS_FLAGS_H_
#define TOOLS_FLAGS_H_

#include <cstring>
#include <string>

namespace tools {

// True when `arg` is `name=<value>`; the value goes to `out`.
inline bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t n = strlen(name);
  if (strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace tools

#endif  // TOOLS_FLAGS_H_
