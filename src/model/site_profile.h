// The paper's evaluation environment: Table 1's per-site failure and
// repair characteristics, the Figure 8 network (a main carrier-sense
// segment with five sites, two of which gateway to smaller segments), the
// eight copy placements A-H, and the published Table 2 / Table 3 numbers
// for side-by-side comparison in the benches.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/time.h"
#include "util/result.h"
#include "util/site_set.h"

namespace dynvote {

/// Failure/repair behaviour of one site (one row of Table 1).
struct SiteProfile {
  std::string name;
  /// Mean time to fail, days (exponentially distributed).
  double mttf_days = 0.0;
  /// Fraction of failures that are hardware failures.
  double hardware_fraction = 0.0;
  /// Software failures need only a restart of this length (minutes).
  double restart_minutes = 0.0;
  /// Hardware repair: constant minimum service time (hours) ...
  double hw_repair_const_hours = 0.0;
  /// ... plus an exponentially distributed repair process (mean, hours).
  double hw_repair_exp_hours = 0.0;
  /// Preventive maintenance: down `maintenance_hours` every
  /// `maintenance_interval_days`; 0 interval disables it.
  double maintenance_interval_days = 0.0;
  double maintenance_hours = 0.0;

  /// Mean repair time over the hardware/software mixture, in days.
  double MeanRepairDays() const;
};

/// Failure behaviour of a standalone repeater (not used by the paper's
/// own testbed, which only has gateway hosts, but needed for the Section 3
/// example topology and the topology ablation).
struct RepeaterProfile {
  std::string name;
  double mttf_days = 0.0;
  double repair_const_hours = 0.0;
  double repair_exp_hours = 0.0;
};

/// The paper's eight-site, three-segment network plus Table 1 profiles.
///
/// Site ids are zero-based: id 0 = paper site 1 (csvax), ... id 7 = paper
/// site 8 (mangle). Ids 0-4 (paper sites 1-5) sit on the main segment;
/// id 3 (wizard) gateways to the segment holding id 5 (gremlin); id 4
/// (amos) gateways to the segment holding ids 6 and 7 (rip, mangle).
/// Zero-based ids preserve the paper's tie-break order: lower id = higher
/// lexicographic rank, so paper site 1 ranks highest.
struct PaperNetwork {
  std::shared_ptr<const Topology> topology;
  std::vector<SiteProfile> profiles;  // indexed by SiteId
};

/// Builds the paper's network and Table 1 profiles.
Result<PaperNetwork> MakePaperNetwork();

/// One of the paper's copy placements (Section 4).
struct PaperConfiguration {
  char label = '?';
  /// Zero-based site ids holding copies.
  SiteSet placement;
  /// The paper's own description, e.g. "1, 2, 4".
  std::string description;
};

/// The eight configurations A-H of Tables 2 and 3.
const std::vector<PaperConfiguration>& PaperConfigurations();

/// The configuration labelled `label`, or null for a letter outside A-H.
const PaperConfiguration* PaperConfigurationFor(char label);

/// Published unavailability (Table 2) for `config` in 'A'..'H' and
/// `policy` in {MCV, DV, LDV, ODV, TDV, OTDV}. Returns -1 if unknown.
double PaperTable2Value(char config, const std::string& policy);

/// Published mean duration of unavailable periods in days (Table 3).
/// Returns -1 for the table's "-" entries (never unavailable) and for
/// unknown keys.
double PaperTable3Value(char config, const std::string& policy);

}  // namespace dynvote
