#include "check/topologies.h"

#include <string>
#include <utility>

#include "util/parse_number.h"

namespace dynvote {
namespace check {
namespace {

Result<std::shared_ptr<const Topology>> Single(int n) {
  auto builder = Topology::Builder();
  SegmentId seg = builder.AddSegment("lan");
  for (int i = 0; i < n; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    builder.AddSite(std::move(name), seg);
  }
  auto topo = builder.Build();
  if (!topo.ok()) return topo.status();
  return std::shared_ptr<const Topology>(topo.MoveValue());
}

Result<std::shared_ptr<const Topology>> Pairs() {
  auto builder = Topology::Builder();
  SegmentId left = builder.AddSegment("left");
  SegmentId right = builder.AddSegment("right");
  builder.AddSite("L0", left);
  builder.AddSite("L1", left);
  builder.AddSite("R0", right);
  builder.AddSite("R1", right);
  builder.AddRepeater("bridge", left, right);
  auto topo = builder.Build();
  if (!topo.ok()) return topo.status();
  return std::shared_ptr<const Topology>(topo.MoveValue());
}

Result<std::shared_ptr<const Topology>> Section3() {
  auto builder = Topology::Builder();
  SegmentId alpha = builder.AddSegment("alpha");
  SegmentId gamma = builder.AddSegment("gamma");
  SegmentId delta = builder.AddSegment("delta");
  builder.AddSite("A", alpha);
  builder.AddSite("B", alpha);
  builder.AddSite("C", gamma);
  builder.AddSite("D", delta);
  builder.AddRepeater("X", alpha, gamma);
  builder.AddRepeater("Y", alpha, delta);
  auto topo = builder.Build();
  if (!topo.ok()) return topo.status();
  return std::shared_ptr<const Topology>(topo.MoveValue());
}

}  // namespace

Result<std::shared_ptr<const Topology>> MakeCheckTopology(
    const std::string& name) {
  if (name == "pairs") return Pairs();
  if (name == "section3") return Section3();
  if (name.rfind("single", 0) == 0) {
    Result<int> n = ParseInt(name.substr(6));
    if (n.ok() && *n >= 2 && *n <= 8) return Single(*n);
  }
  return Status::InvalidArgument(
      "unknown check topology '" + name +
      "' (expected singleN with 2<=N<=8, pairs, or section3)");
}

const std::vector<std::string>& CheckTopologyNames() {
  static const std::vector<std::string> names = {
      "single3", "single4", "single5", "pairs", "section3"};
  return names;
}

}  // namespace check
}  // namespace dynvote
