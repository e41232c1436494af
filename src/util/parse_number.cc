#include "util/parse_number.h"

#include <stdexcept>

namespace dynvote {

namespace {

/// Runs `parse(text, &used)` (one of std::sto*), turning its exceptions
/// and any unconsumed tail into InvalidArgument.
template <typename T, typename Parse>
Result<T> ParseWhole(const std::string& text, const char* what,
                     Parse parse) {
  try {
    std::size_t used = 0;
    const T value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::out_of_range&) {
    return Status::InvalidArgument(std::string(what) + " out of range: '" +
                                   text + "'");
  } catch (const std::invalid_argument&) {
  }
  return Status::InvalidArgument("invalid " + std::string(what) + " '" +
                                 text + "'");
}

}  // namespace

Result<int> ParseInt(const std::string& text) {
  return ParseWhole<int>(text, "integer",
                         [](const std::string& s, std::size_t* used) {
                           return std::stoi(s, used);
                         });
}

Result<double> ParseDouble(const std::string& text) {
  return ParseWhole<double>(text, "number",
                            [](const std::string& s, std::size_t* used) {
                              return std::stod(s, used);
                            });
}

Result<std::uint64_t> ParseUint64(const std::string& text) {
  if (text.find('-') != std::string::npos) {
    return Status::InvalidArgument("invalid non-negative integer '" + text +
                                   "'");
  }
  return ParseWhole<std::uint64_t>(
      text, "non-negative integer",
      [](const std::string& s, std::size_t* used) {
        return static_cast<std::uint64_t>(std::stoull(s, used));
      });
}

}  // namespace dynvote
