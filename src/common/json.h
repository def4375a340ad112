// JSON string escaping for the byte-stable reports (audit, crashmon,
// faultinj).

#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <string>

namespace common {

// Escapes `s` for a JSON string literal: quote, backslash, newline and tab
// get their short escapes, every other control byte becomes \u00XX.
std::string JsonEscape(const std::string& s);

}  // namespace common

#endif  // SRC_COMMON_JSON_H_
