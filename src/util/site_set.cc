#include "util/site_set.h"

#include "util/append.h"

namespace dynvote {

void SiteSet::AppendTo(std::string* out) const {
  out->push_back('{');
  bool first = true;
  for (SiteId s : *this) {
    if (!first) out->append(", ");
    AppendDecimal(s, out);
    first = false;
  }
  out->push_back('}');
}

std::string SiteSet::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

std::ostream& operator<<(std::ostream& os, SiteSet set) {
  return os << set.ToString();
}

}  // namespace dynvote
