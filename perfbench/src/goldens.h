// Golden output digests at kGoldenSeed, one per unit in round order,
// taken with `perfbench --print-digests`. A round at that seed must
// reproduce them exactly; any other seed falls back to the cross-checks
// in workloads.cc. check_section3 explores no random input, so its
// golden applies at every seed.

#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct GoldenEntry {
  const char* workload;
  bool small;
  std::vector<std::uint64_t> digests;
};

inline const std::vector<GoldenEntry>& GoldenTable() {
  static const std::vector<GoldenEntry> kTable = {
      {"paper_grid", false,
       {0x6e689ad5ef268149ULL, 0xb136945cf2b8da8dULL, 0x67fc5f4359037ab2ULL,
        0x5350ff83610a693cULL, 0xd17a376cba53993fULL, 0x39bbd2ed38d909edULL,
        0x8282999c5e65a207ULL, 0x956941f1f381882aULL}},
      {"paper_grid", true,
       {0x1c7ee344ea51a94cULL, 0xcb1e3405047c4428ULL, 0x607ed4fe5f8311f6ULL,
        0xe06489e91b0712fbULL, 0x4a3877c5391fb918ULL, 0x569c0470daf30ef5ULL,
        0x8ef6e5a83c1f822fULL, 0xb8cc82c886565b4aULL}},
      {"sweep_batched", false,
       {0x8866774999217c8fULL, 0x4348c0fac70ebdb5ULL, 0x05ad3018fdba72caULL,
        0x78979f2a764e481aULL, 0x5dc9c0f853da8ea7ULL, 0x93602a9a0901fb8bULL,
        0x9ae1ea949552fbd7ULL, 0xc7a5561562f91717ULL, 0xe95dc317b881fabfULL,
        0x51890cdf5e813b06ULL, 0x6f5302910fbb0c32ULL, 0x33c3f7d773ab4d98ULL,
        0x4825753a4ab114edULL, 0xdac334d6ab18a42fULL, 0x6f757a0d0a0b77beULL,
        0xe5845b54246f1fdaULL, 0x40e3e95789e14e44ULL, 0x0340465f5672f6f7ULL,
        0x073156d15d32caafULL, 0xe4fc373edce6f639ULL, 0x08b4717a89e8808fULL,
        0x88bfe1130fafc126ULL, 0x452e30759b252a15ULL, 0x439611cff7946bdaULL,
        0x9c509a39dea5c455ULL, 0xbc2538ffa75b5dddULL, 0xa5fa461337c0ffa9ULL,
        0xf67d33860650147eULL, 0x623ab2a2783a57ebULL, 0x45126b965e518664ULL,
        0xbbc4ba866e1281e6ULL, 0x5e04d0c776257d0aULL}},
      {"sweep_batched", true, {0x8866774999217c8fULL, 0x4348c0fac70ebdb5ULL}},
      {"serve_mix", false,
       {0x28872b8c395c3888ULL, 0xde6e044c16a4085bULL, 0xa41febf50502ba0bULL,
        0x4b4f46e9e5c1d0f0ULL, 0xdfaf73d5dc8deaecULL, 0x16d16fbe87229aa9ULL,
        0x1054640343e13d4bULL, 0x1206b13647a5fe2aULL}},
      {"serve_mix", true,
       {0x1cf2a592b523f529ULL, 0x1cf2a592b523f529ULL, 0x285152ad8c681d5bULL,
        0x0847306d9af2517bULL, 0x14b2da396dc5897bULL, 0xdc48889c33670829ULL,
        0xfa6a612a43f37073ULL, 0x1d5957d252d2e575ULL}},
      {"check_section3", false, {0xae41775d90efbe10ULL}},
      {"check_section3", true, {0x52d8d735c28da050ULL}},
  };
  return kTable;
}

}  // namespace perfbench
