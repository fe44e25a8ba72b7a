// Numbers on the command line of the tools: the whole token, read with
// std::from_chars as an unsigned integer (counts, seeds, indices) or a
// finite double. A sign on an unsigned value, trailing text, overflow, inf
// or nan is a bad value, so a tool exits with its usage code instead of
// aborting or reading garbage as 0.
#pragma once

#include <charconv>
#include <cmath>
#include <iostream>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace stig::cli {

/// The value of all of `text`; nullopt on a bad value.
template <typename T>
[[nodiscard]] std::optional<T> read_number(std::string_view text) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Stores the value of `flag` in `out`; on a bad value prints "bad value
/// for FLAG" and returns false.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view flag, std::string_view text,
                                T& out) {
  const std::optional<T> value = read_number<T>(text);
  if (!value) {
    std::cerr << "bad value for " << flag << "\n";
    return false;
  }
  out = *value;
  return true;
}

}  // namespace stig::cli
