// Strict decimal numbers for command-line values and problem-spec fields.
//
// parse_decimal accepts a string only when the whole of it is one base-10
// number (std::from_chars: no leading whitespace or '+', no trailing
// characters, no hex prefix) whose value lies in [min, max]. Anything else
// is nullopt, so "5x", "abc", "" and "-1" for an unsigned type never turn
// into 5, 0, 0 or a wrapped-around huge count, as atoi, atof and strtoull
// make them. For floating-point types the bounds must be finite: that
// rejects "inf", and the range test rejects "nan".
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace nptsn {

template <typename T>
std::optional<T> parse_decimal(std::string_view text, T min, T max) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) return std::nullopt;
  if (!(value >= min && value <= max)) return std::nullopt;
  return value;
}

}  // namespace nptsn
