#include "core/registry.h"

#include "core/available_copy.h"
#include "core/jm_voting.h"
#include "core/dynamic_voting.h"
#include "core/mcv.h"

namespace dynvote {

const std::vector<std::string>& KnownProtocolNames() {
  static const std::vector<std::string> names = {
      "MCV", "DV", "LDV", "ODV", "TDV", "OTDV", "AC", "JM-DV"};
  return names;
}

const std::vector<std::string>& PaperProtocolNames() {
  static const std::vector<std::string> names = {"MCV", "DV",  "LDV",
                                                 "ODV", "TDV", "OTDV"};
  return names;
}

namespace {
template <typename T>
Result<std::unique_ptr<ConsistencyProtocol>> Upcast(
    Result<std::unique_ptr<T>> result) {
  if (!result.ok()) return result.status();
  return std::unique_ptr<ConsistencyProtocol>(result.MoveValue());
}
}  // namespace

Result<std::unique_ptr<ConsistencyProtocol>> MakeProtocolByName(
    const std::string& name, std::shared_ptr<const Topology> topology,
    SiteSet placement) {
  if (name == "MCV") {
    return Upcast(MajorityConsensusVoting::Make(placement));
  }
  if (name == "DV") return Upcast(MakeDV(std::move(topology), placement));
  if (name == "LDV") return Upcast(MakeLDV(std::move(topology), placement));
  if (name == "ODV") return Upcast(MakeODV(std::move(topology), placement));
  if (name == "TDV") return Upcast(MakeTDV(std::move(topology), placement));
  if (name == "OTDV") {
    return Upcast(MakeOTDV(std::move(topology), placement));
  }
  if (name == "AC") return Upcast(AvailableCopy::Make(placement));
  if (name == "JM-DV") {
    return Upcast(JajodiaMutchlerVoting::Make(std::move(topology), placement));
  }
  return Status::InvalidArgument("unknown protocol name '" + name + "'");
}

Result<std::vector<std::unique_ptr<ConsistencyProtocol>>> MakeProtocolSet(
    const std::vector<std::string>& names,
    const std::shared_ptr<const Topology>& topology, SiteSet placement) {
  std::vector<std::unique_ptr<ConsistencyProtocol>> protocols;
  protocols.reserve(names.size());
  for (const std::string& name : names) {
    auto p = MakeProtocolByName(name, topology, placement);
    if (!p.ok()) return p.status();
    protocols.push_back(p.MoveValue());
  }
  return protocols;
}

}  // namespace dynvote
