// Lightweight error handling for the ZoFS reproduction.
//
// File-system code returns `Result<T>` (a value or an errno-style code) and
// `Status` (`Result<Unit>`). Codes deliberately mirror POSIX errno values so
// the VFS surface reads like a system-call interface.

#ifndef SRC_COMMON_RESULT_H_
#define SRC_COMMON_RESULT_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace common {

// Errno-style error codes used across every file system in this repository.
enum class Err : int32_t {
  kOk = 0,
  kPerm = 1,           // EPERM
  kNoEnt = 2,          // ENOENT
  kIo = 5,             // EIO
  kBadF = 9,           // EBADF
  kAgain = 11,         // EAGAIN
  kAcces = 13,         // EACCES
  kFault = 14,         // EFAULT (MPK violation / invalid NVM reference)
  kBusy = 16,          // EBUSY
  kExist = 17,         // EEXIST
  kXDev = 18,          // EXDEV
  kNotDir = 20,        // ENOTDIR
  kIsDir = 21,         // EISDIR
  kInval = 22,         // EINVAL
  kMFile = 24,         // EMFILE
  kNoSpc = 28,         // ENOSPC
  kROFS = 30,          // EROFS
  kNameTooLong = 36,   // ENAMETOOLONG
  kNotEmpty = 39,      // ENOTEMPTY
  kLoop = 40,          // ELOOP
  kOverflow = 75,      // EOVERFLOW
  kCorrupt = 117,      // EUCLEAN: detected on-NVM corruption
  kNoKeys = 118,       // out of MPK regions (coffer_map budget exhausted)
};

// Human-readable name for an error code ("ENOENT", ...).
const char* ErrName(Err e);

struct Unit {};

// A value-or-error sum type. Accessing the value of an error result aborts,
// as does reading the error of an ok result; callers must branch on ok().
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Err e) : v_(e) { assert(e != Err::kOk); }  // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  Err error() const {
    assert(!ok());
    return std::get<Err>(v_);
  }

  T& value() {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const {
    assert(ok());
    return std::get<T>(v_);
  }

  T value_or(T fallback) const { return ok() ? std::get<T>(v_) : std::move(fallback); }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Err> v_;
};

using Status = Result<Unit>;

inline Status OkStatus() { return Status(Unit{}); }

// Propagate-on-error helpers, used pervasively in file-system paths.
#define RETURN_IF_ERROR(expr)                   \
  do {                                          \
    auto _status = (expr);                      \
    if (!_status.ok()) return _status.error();  \
  } while (0)

#define ASSIGN_OR_RETURN(lhs, expr)         \
  auto lhs##_res = (expr);                  \
  if (!lhs##_res.ok()) {                    \
    return lhs##_res.error();               \
  }                                         \
  auto& lhs = *lhs##_res

}  // namespace common

#endif  // SRC_COMMON_RESULT_H_
