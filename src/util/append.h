// Allocation-free text building for hot paths and every JSON/CSV writer
// (checker signatures, quorum-decision text, traces, metrics, exports):
// append straight into the caller's buffer instead of formatting through
// streams, printf or std::to_string temporaries. These are the one
// rendering of an integer, a double and a JSON string in the tree.

#pragma once

#include <charconv>
#include <string>
#include <string_view>
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

/// Appends `value` in the general format at `precision` significant
/// digits: the bytes printf's "%.*g" and an ostream at setprecision(n)
/// write, without their format parsing and locale. At the default 17
/// digits every double round-trips, which is what keeps traces, metrics
/// and reports byte-comparable across runs and thread counts. `precision`
/// is at most 17 (the CSV export uses 9).
inline void AppendDouble(double value, std::string* out, int precision = 17) {
  char buf[32];  // sign, 17 digits, point, exponent: at most 24
  const std::to_chars_result written =
      std::to_chars(buf, buf + sizeof(buf), value,
                    std::chars_format::general, precision);
  out->append(buf, written.ptr);
}

/// Appends `value` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, bytes below 0x20 become \u00XX, and every other
/// byte (UTF-8 included) is copied as is.
inline void AppendJsonString(std::string_view value, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (char c : value) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (byte < 0x20) {
      out->append("\\u00");
      out->push_back(kHex[byte >> 4]);
      out->push_back(kHex[byte & 0xf]);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace dynvote
