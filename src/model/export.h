// Machine-readable export of experiment results (CSV for grids, JSON for
// replicated runs), so bench output can feed plotting pipelines directly.
// Numbers and strings render through util/append.h.

#pragma once

#include <string>
#include <vector>

#include "model/experiment.h"
#include "model/replicated_experiment.h"
#include "util/result.h"

namespace dynvote {

/// One labelled grid cell for export: configuration label (or sweep
/// parameter) plus the policy result.
struct LabeledResult {
  std::string label;
  PolicyResult result;
};

/// CSV with a header row:
/// label,policy,unavailability,ci95,mean_outage_days,num_outages,
/// accesses_attempted,accesses_granted,messages_total,messages_control,
/// file_copies,dual_majorities,measured_days
/// Doubles carry nine significant digits. A label or policy name holding
/// a comma, quote or line break is quoted (RFC 4180).
std::string ResultsToCsv(const std::vector<LabeledResult>& results);

/// JSON object for a replicated run: the per-replication seeds, a
/// "replications" array of per-replication result rows (each tagged with
/// its replication index and seed) and an "aggregate" array with the
/// cross-replication mean / stddev / 95 % CI per policy. The rendering is
/// a pure function of the results, so two runs that differ only in
/// `--jobs` serialize byte-identically.
std::string ReplicatedResultsToJson(const std::string& label,
                                    const ReplicatedResults& results);

/// Writes `contents` to `path`, failing with a Status on I/O errors.
Status WriteFile(const std::string& path, const std::string& contents);

}  // namespace dynvote
