// Allocation-free text building for hot paths (checker signatures,
// quorum-decision text): append straight into the caller's buffer
// instead of formatting through streams or std::to_string temporaries.

#pragma once

#include <charconv>
#include <string>
#include <type_traits>

namespace dynvote {

/// Appends `value` in decimal — the same digits std::to_string writes.
template <typename Int>
void AppendDecimal(Int value, std::string* out) {
  static_assert(std::is_integral_v<Int>, "AppendDecimal takes integers");
  char buf[24];
  const std::to_chars_result written =
      std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, written.ptr);
}

}  // namespace dynvote
