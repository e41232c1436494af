// ConsistencyProtocol::AssignFrom for all five implementations: a
// protocol assigned from a source (a "clone") continues exactly as its
// source would (same statuses, grant decisions, state signatures and
// message counts under an identical random continuation), whatever it
// ran before, never touches its source, keeps its own attachments
// (commit hook, observability) rather than the source's, and takes the
// source's quorum-cache switch. Assigning across protocol types dies.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/regenerating.h"
#include "core/registry.h"
#include "core/test_topologies.h"
#include "net/network_state.h"
#include "obs/test_trace_capture.h"
#include "util/rng.h"

namespace dynvote {
namespace {

struct CloneCase {
  std::string protocol;  // registry name, or "RLDV" (regenerating)
  std::string topology;  // "single", "section3", "pairs"
};

void PrintTo(const CloneCase& c, std::ostream* os) {
  *os << c.protocol << " on " << c.topology;
}

std::shared_ptr<const Topology> BuildTopology(const std::string& name) {
  if (name == "single") return testing_util::SingleSegment(5);
  if (name == "section3") return testing_util::Section3Network();
  return testing_util::TwoPairSegments();
}

std::unique_ptr<ConsistencyProtocol> BuildProtocol(
    const CloneCase& c, std::shared_ptr<const Topology> topology) {
  if (c.protocol == "RLDV") {
    // Data on the first two sites, one witness that can regenerate onto
    // any other site after two missed refreshes.
    RegeneratingOptions options;
    options.regeneration_threshold = 2;
    auto made = RegeneratingVoting::Make(std::move(topology), SiteSet{0, 1},
                                         SiteSet{2}, options);
    EXPECT_TRUE(made.ok()) << made.status();
    return made.ok() ? std::unique_ptr<ConsistencyProtocol>(made.MoveValue())
                     : nullptr;
  }
  const SiteSet placement = topology->AllSites();
  auto made = MakeProtocolByName(c.protocol, std::move(topology), placement);
  EXPECT_TRUE(made.ok()) << made.status();
  return made.ok() ? made.MoveValue() : nullptr;
}

/// Drives `protocol` through `steps` random network events, accesses and
/// recoveries drawn from `rng`, and returns a transcript of everything
/// observable: operation statuses, per-component grant decisions, the
/// state signature (where the protocol has one) and the message counts.
std::string Drive(ConsistencyProtocol* protocol, NetworkState* net, Rng* rng,
                  int steps) {
  const Topology& topo = net->topology();
  std::string out;
  for (int step = 0; step < steps; ++step) {
    switch (rng->NextBounded(5)) {
      case 0: {
        SiteId s = static_cast<SiteId>(rng->NextBounded(topo.num_sites()));
        net->SetSiteUp(s, !net->IsSiteUp(s));
        protocol->OnNetworkEvent(*net);
        break;
      }
      case 1: {
        if (topo.num_repeaters() == 0) break;
        RepeaterId r =
            static_cast<RepeaterId>(rng->NextBounded(topo.num_repeaters()));
        net->SetRepeaterUp(r, !net->IsRepeaterUp(r));
        protocol->OnNetworkEvent(*net);
        break;
      }
      case 2:
        out += protocol->UserAccess(*net, AccessType::kWrite).ToString();
        break;
      case 3:
        out += protocol->UserAccess(*net, AccessType::kRead).ToString();
        break;
      case 4: {
        SiteId s = static_cast<SiteId>(rng->NextBounded(topo.num_sites()));
        if (net->IsSiteUp(s)) out += protocol->Recover(*net, s).ToString();
        break;
      }
    }
    out.push_back(' ');
    for (const SiteSet& group : net->Components()) {
      for (AccessType type : {AccessType::kRead, AccessType::kWrite}) {
        out.push_back(
            protocol->CachedWouldGrant(*net, group.RankMax(), type) ? '1'
                                                                    : '0');
      }
    }
    out.push_back(' ');
    protocol->AppendStateSignature(&out);
    out.push_back(';');
  }
  return out + protocol->counter()->ToString();
}

class ProtocolCloneTest : public ::testing::TestWithParam<CloneCase> {};

TEST_P(ProtocolCloneTest, CloneContinuesExactlyAsItsSource) {
  const CloneCase& c = GetParam();
  auto topology = BuildTopology(c.topology);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::unique_ptr<ConsistencyProtocol> source = BuildProtocol(c, topology);
    ASSERT_NE(source, nullptr);
    NetworkState net(topology);
    Rng history(seed);
    Drive(source.get(), &net, &history, static_cast<int>(seed) * 3);

    int source_commits = 0;
    source->set_commit_hook(
        [&source_commits](const CommitInfo&) { ++source_commits; });
    testing_util::TraceCapture capture;
    ObsContext obs;
    obs.sink = capture.sink();
    source->set_obs(&obs);
    source->set_quorum_cache_enabled(seed % 2 == 0);

    // The target diverges first — its own, longer history under the
    // opposite cache switch — and carries its own attachments.
    std::unique_ptr<ConsistencyProtocol> clone = BuildProtocol(c, topology);
    ASSERT_NE(clone, nullptr);
    NetworkState clone_net(topology);
    Rng divergence(seed * 104729);
    Drive(clone.get(), &clone_net, &divergence, 60);
    int clone_commits = 0;
    clone->set_commit_hook(
        [&clone_commits](const CommitInfo&) { ++clone_commits; });
    testing_util::TraceCapture clone_capture;
    ObsContext clone_obs;
    clone_obs.sink = clone_capture.sink();
    clone->set_obs(&clone_obs);
    clone->set_quorum_cache_enabled(seed % 2 != 0);

    clone->AssignFrom(*source);
    EXPECT_EQ(clone->name(), source->name());
    EXPECT_TRUE(clone->has_commit_hook());
    EXPECT_EQ(clone->obs(), &clone_obs);
    EXPECT_EQ(clone->quorum_cache_enabled(), seed % 2 == 0);

    // The clone runs first: its continuation reaches its own hook and
    // trace sink, never the source's, and the source, continued
    // identically afterwards, must produce the identical transcript.
    clone_net = net;
    Rng clone_rng(seed * 7919);
    const std::string from_clone =
        Drive(clone.get(), &clone_net, &clone_rng, 40);
    EXPECT_EQ(source_commits, 0);
    EXPECT_EQ(capture.sink()->total_events(), 0u);
    EXPECT_GT(clone_capture.sink()->total_events(), 0u);

    Rng source_rng(seed * 7919);
    const std::string from_source = Drive(source.get(), &net, &source_rng, 40);
    EXPECT_EQ(from_clone, from_source) << "seed " << seed;
    EXPECT_EQ(clone_commits, source_commits) << "seed " << seed;
    EXPECT_EQ(clone_capture.sink()->total_events(),
              capture.sink()->total_events())
        << "seed " << seed;
  }
}

TEST(ProtocolCloneDeathTest, AssignAcrossProtocolTypesDies) {
  auto topology = testing_util::SingleSegment(3);
  const SiteSet placement = topology->AllSites();
  auto odv = MakeProtocolByName("ODV", topology, placement).MoveValue();
  auto ldv = MakeProtocolByName("LDV", topology, placement).MoveValue();
  auto mcv = MakeProtocolByName("MCV", topology, placement).MoveValue();
  // LDV and ODV share a class: the assignment takes the configuration.
  odv->AssignFrom(*ldv);
  EXPECT_EQ(odv->name(), "LDV");
  EXPECT_TRUE(odv->uses_instantaneous_information());
  EXPECT_DEATH(odv->AssignFrom(*mcv), "AssignFrom across protocol types");
}

std::string CaseName(const ::testing::TestParamInfo<CloneCase>& info) {
  std::string name = info.param.protocol + "_" + info.param.topology;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolCloneTest,
    ::testing::Values(CloneCase{"MCV", "section3"}, CloneCase{"DV", "pairs"},
                      CloneCase{"LDV", "section3"}, CloneCase{"ODV", "section3"},
                      CloneCase{"TDV", "section3"}, CloneCase{"OTDV", "pairs"},
                      CloneCase{"AC", "single"}, CloneCase{"JM-DV", "pairs"},
                      CloneCase{"RLDV", "single"}),
    CaseName);

}  // namespace
}  // namespace dynvote
