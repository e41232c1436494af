// A small text format describing a network and its failure
// characteristics, so tools can simulate custom environments without
// recompiling. Grammar (one declaration per line, '#' comments):
//
//   segment <name>
//   site <name> <segment> [key=value ...]
//   gateway <site-name> <segment>          # site also bridges to segment
//   repeater <name> <segment> <segment> [key=value ...]
//   experiment [replications=R] [jobs=M]   # replication defaults
//
// Site keys (defaults in parentheses, units as in Table 1):
//   mttf=DAYS (365)       mean time to fail, exponential
//   hw=FRACTION (0.5)     fraction of failures needing hardware repair
//   restart=MINUTES (15)  software restart time
//   repair-const=HOURS (0), repair-exp=HOURS (2)   hardware repair
//   maint-interval=DAYS (0 = none), maint-hours=HOURS (0)
//
// Repeater keys: mttf=DAYS (365), repair-const=HOURS (0),
// repair-exp=HOURS (2).
//
// Experiment keys (integers): replications=R (1, >= 1) independent
// replications to run; jobs=M (1, 0 = all cores, at most
// kMaxWorkerThreads of util/thread_pool.h) worker threads.
// Tools may override both from the command line; jobs never affects
// results, only wall-clock time.
//
// Example — the paper's own network is shipped as
// examples/networks/paper.net and parses to exactly MakePaperNetwork().

#pragma once

#include <string>
#include <vector>

#include "model/site_profile.h"
#include "net/topology.h"
#include "util/result.h"

namespace dynvote {

/// A parsed network description.
struct NetworkConfig {
  std::shared_ptr<const Topology> topology;
  std::vector<SiteProfile> profiles;            // one per site
  std::vector<RepeaterProfile> repeater_profiles;  // one per repeater
  /// Replication defaults from the `experiment` declaration (see
  /// model/replicated_experiment.h for the semantics).
  int replications = 1;
  int jobs = 1;
};

/// Parses the network description `text`. Errors carry the line number.
Result<NetworkConfig> ParseNetworkConfig(const std::string& text);

/// Reads and parses a description file.
Result<NetworkConfig> LoadNetworkConfig(const std::string& path);

/// Renders a config back to the text format (round-trips through
/// ParseNetworkConfig up to formatting).
std::string NetworkConfigToString(const NetworkConfig& config);

}  // namespace dynvote
