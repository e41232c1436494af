// Name-based protocol construction, so benches, examples and tests can
// build any protocol from a string ("MCV", "DV", "LDV", "ODV", "TDV",
// "OTDV", "AC").

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "net/topology.h"
#include "util/result.h"

namespace dynvote {

/// Names accepted by MakeProtocolByName, in the paper's presentation
/// order (Table 2 columns), with "AC" appended.
const std::vector<std::string>& KnownProtocolNames();

/// The six policies of Table 2, in column order.
const std::vector<std::string>& PaperProtocolNames();

/// Builds the named protocol for copies at `placement` on `topology`.
Result<std::unique_ptr<ConsistencyProtocol>> MakeProtocolByName(
    const std::string& name, std::shared_ptr<const Topology> topology,
    SiteSet placement);

/// Builds the named protocols, in `names` order, all for copies at
/// `placement` on `topology`; the first unknown name's error otherwise.
/// The one names-to-protocols loop: factories, benches and the batched
/// engine's plans all build their sets here.
Result<std::vector<std::unique_ptr<ConsistencyProtocol>>> MakeProtocolSet(
    const std::vector<std::string>& names,
    const std::shared_ptr<const Topology>& topology, SiteSet placement);

}  // namespace dynvote
