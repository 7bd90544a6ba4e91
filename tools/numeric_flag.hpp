// The value of a numeric flag of the nptsn_* tools, read by parse_decimal
// (util/parse_number.hpp). A malformed or out-of-range value is a usage
// error: the tool prints it and exits with status 2 before doing any work.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "util/parse_number.hpp"

namespace nptsn {

template <typename T>
T numeric_flag(const char* flag, const char* text, T min, T max) {
  if (const std::optional<T> value = parse_decimal(text, min, max)) return *value;
  std::fprintf(stderr, "error: %s: '%s' is not a decimal number in the allowed range\n", flag,
               text);
  std::exit(2);
}

}  // namespace nptsn
