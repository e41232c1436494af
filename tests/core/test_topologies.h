// Shared topology fixtures for the protocol tests.

#pragma once

#include <memory>

#include <gtest/gtest.h>

#include "net/topology.h"
#include "test_text.h"

namespace dynvote {
namespace testing_util {

/// N sites on one indivisible segment (no partitions possible).
inline std::shared_ptr<const Topology> SingleSegment(int n) {
  auto builder = Topology::Builder();
  SegmentId seg = builder.AddSegment("lan");
  for (int i = 0; i < n; ++i) {
    builder.AddSite(Cat({"s", std::to_string(i)}), seg);
  }
  auto topo = builder.Build();
  EXPECT_TRUE(topo.ok()) << topo.status();
  return topo.MoveValue();
}

/// The Section 3 example: sites 0 (A) and 1 (B) on segment alpha, 2 (C)
/// on gamma, 3 (D) on delta; repeater 0 (X) joins alpha-gamma, repeater 1
/// (Y) joins alpha-delta.
inline std::shared_ptr<const Topology> Section3Network() {
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
  EXPECT_TRUE(topo.ok()) << topo.status();
  return topo.MoveValue();
}

/// Two two-site segments joined by a repeater: the smallest topology on
/// which the topological variants' vote-carrying and its hazards show up.
inline std::shared_ptr<const Topology> TwoPairSegments() {
  auto builder = Topology::Builder();
  SegmentId left = builder.AddSegment("left");
  SegmentId right = builder.AddSegment("right");
  builder.AddSite("L0", left);
  builder.AddSite("L1", left);
  builder.AddSite("R0", right);
  builder.AddSite("R1", right);
  builder.AddRepeater("bridge", left, right);
  auto topo = builder.Build();
  EXPECT_TRUE(topo.ok()) << topo.status();
  return topo.MoveValue();
}

}  // namespace testing_util
}  // namespace dynvote
