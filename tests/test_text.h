// Text building for test names and trace labels. A `"literal" +
// std::to_string(...)` temporary trips GCC 12's -Wrestrict in Release
// builds; appending the pieces in order does not.

#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace dynvote {
namespace testing_util {

/// The pieces in order: Cat({"s", std::to_string(i)}) is "s3".
inline std::string Cat(std::initializer_list<std::string_view> pieces) {
  std::string out;
  for (std::string_view piece : pieces) out.append(piece);
  return out;
}

}  // namespace testing_util
}  // namespace dynvote
