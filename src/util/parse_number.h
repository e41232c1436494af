// Whole-string number parsing for user input (CLI flags, config files):
// the std::sto* grammar, but every failure is a Status instead of an
// exception, and the number must use up the whole text — "2abc" is an
// error, not 2.

#pragma once

#include <cstdint>
#include <string>

#include "util/result.h"

namespace dynvote {

/// Parses all of `text` as an int (std::stoi grammar, base 10).
/// InvalidArgument if the text is empty, is not a number, has trailing
/// characters or is out of int's range.
Result<int> ParseInt(const std::string& text);

/// Parses all of `text` as a double (std::stod grammar). Same errors as
/// ParseInt; a value beyond double's range is out of range.
Result<double> ParseDouble(const std::string& text);

/// Parses all of `text` as an unsigned 64-bit integer (std::stoull
/// grammar, base 10), rejecting a minus sign that std::stoull would
/// silently wrap.
Result<std::uint64_t> ParseUint64(const std::string& text);

}  // namespace dynvote
