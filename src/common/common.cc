#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/json.h"
#include "src/common/rand.h"
#include "src/common/result.h"
#include "src/common/stats.h"

namespace common {

const char* ErrName(Err e) {
  switch (e) {
    case Err::kOk:
      return "OK";
    case Err::kPerm:
      return "EPERM";
    case Err::kNoEnt:
      return "ENOENT";
    case Err::kIo:
      return "EIO";
    case Err::kBadF:
      return "EBADF";
    case Err::kAgain:
      return "EAGAIN";
    case Err::kAcces:
      return "EACCES";
    case Err::kFault:
      return "EFAULT";
    case Err::kBusy:
      return "EBUSY";
    case Err::kExist:
      return "EEXIST";
    case Err::kXDev:
      return "EXDEV";
    case Err::kNotDir:
      return "ENOTDIR";
    case Err::kIsDir:
      return "EISDIR";
    case Err::kInval:
      return "EINVAL";
    case Err::kMFile:
      return "EMFILE";
    case Err::kNoSpc:
      return "ENOSPC";
    case Err::kROFS:
      return "EROFS";
    case Err::kNameTooLong:
      return "ENAMETOOLONG";
    case Err::kNotEmpty:
      return "ENOTEMPTY";
    case Err::kLoop:
      return "ELOOP";
    case Err::kOverflow:
      return "EOVERFLOW";
    case Err::kCorrupt:
      return "EUCLEAN";
    case Err::kNoKeys:
      return "ENOKEYS";
  }
  return "E???";
}

Zipf::Zipf(uint64_t n, double theta, uint64_t seed) : n_(n), theta_(theta), rng_(seed) {
  zetan_ = ZetaStatic(n, theta);
  alpha_ = 1.0 / (1.0 - theta);
  double zeta2 = ZetaStatic(2, theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
}

double Zipf::ZetaStatic(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; i++) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

uint64_t Zipf::Next() {
  double u = rng_.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  auto v = static_cast<uint64_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

TextTable::TextTable(std::vector<std::string> header) { rows_.push_back(std::move(header)); }

void TextTable::AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

std::string TextTable::ToString() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) {
      widths.resize(row.size(), 0);
    }
    for (size_t i = 0; i < row.size(); i++) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream out;
  for (size_t r = 0; r < rows_.size(); r++) {
    for (size_t i = 0; i < rows_[r].size(); i++) {
      out << (i == 0 ? "" : "  ");
      // Left-align the first column (labels), right-align numbers.
      const std::string& cell = rows_[r][i];
      if (i == 0) {
        out << cell << std::string(widths[i] - cell.size(), ' ');
      } else {
        out << std::string(widths[i] - cell.size(), ' ') << cell;
      }
    }
    out << "\n";
    if (r == 0) {
      size_t total = 0;
      for (size_t i = 0; i < widths.size(); i++) {
        total += widths[i] + (i == 0 ? 0 : 2);
      }
      out << std::string(total, '-') << "\n";
    }
  }
  return out.str();
}

namespace {
std::string FormatWithSuffix(double v, const char* const* suffixes, size_t n_suffixes,
                             double step) {
  size_t idx = 0;
  while (v >= step && idx + 1 < n_suffixes) {
    v /= step;
    idx++;
  }
  char buf[64];
  if (v >= 100) {
    snprintf(buf, sizeof(buf), "%.0f%s", v, suffixes[idx]);
  } else if (v >= 10) {
    snprintf(buf, sizeof(buf), "%.1f%s", v, suffixes[idx]);
  } else {
    snprintf(buf, sizeof(buf), "%.2f%s", v, suffixes[idx]);
  }
  return buf;
}
}  // namespace

std::string HumanRate(double v) {
  static const char* kSuffixes[] = {"", "K", "M", "G"};
  return FormatWithSuffix(v, kSuffixes, 4, 1000.0);
}

std::string HumanNs(double ns) {
  static const char* kSuffixes[] = {"ns", "us", "ms", "s"};
  return FormatWithSuffix(ns, kSuffixes, 4, 1000.0);
}

std::string HumanBytes(double bytes) {
  static const char* kSuffixes[] = {"B", "KB", "MB", "GB", "TB"};
  return FormatWithSuffix(bytes, kSuffixes, 5, 1024.0);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace common
