#include "check/counterexample.h"

#include <map>

#include "check/topologies.h"
#include "obs/trace_reader.h"
#include "util/append.h"
#include "util/parse_number.h"

namespace dynvote {
namespace check {

std::string CounterExampleToJson(const CounterExample& ce) {
  std::string out = "{\n";
  auto field = [&out](const char* key, const std::string& value,
                      bool quoted) {
    out += "  \"";
    out += key;
    out += "\": ";
    if (quoted) {
      AppendJsonString(value, &out);
    } else {
      out += value;
    }
    out += ",\n";
  };
  field("schema", kCounterExampleSchema, true);
  field("protocol", ce.protocol, true);
  field("topology", ce.topology, true);
  std::string placement = "[";
  for (SiteId s : ce.placement) {
    if (placement.size() > 1) placement.push_back(',');
    placement += std::to_string(s);
  }
  placement.push_back(']');
  field("placement", placement, false);
  field("strict", ce.policy.strict ? "true" : "false", false);
  field("max_granted_groups",
        std::to_string(ce.policy.max_granted_groups), false);
  field("oracle", DifferentialOracleName(ce.policy.oracle), true);
  field("invariant", ce.violation.invariant, true);
  field("step", std::to_string(ce.violation.step), false);
  field("detail", ce.violation.detail, true);
  field("schedule", ScheduleToString(ce.schedule), true);
  out.pop_back();  // trailing newline
  out.pop_back();  // trailing comma
  out += "\n}\n";
  return out;
}

Result<CounterExample> ParseCounterExampleJson(const std::string& text) {
  // The schema is a flat object; collapse the pretty-printing into one
  // line and reuse the trace reader's flat-JSON parser.
  std::string line = text;
  for (char& c : line) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  // The flat-line parser tolerates a missing closing brace (trace tails
  // are handled elsewhere); a counterexample file is a single complete
  // object, so a truncated one must be rejected here.
  const std::size_t first = line.find_first_not_of(' ');
  const std::size_t last = line.find_last_not_of(' ');
  if (first == std::string::npos || line[first] != '{' || line[last] != '}') {
    return Status::InvalidArgument(
        "counterexample is not a complete JSON object (truncated file?)");
  }
  std::map<std::string, std::string> fields;
  if (!ParseTraceLine(line, &fields)) {
    return Status::InvalidArgument("counterexample is not a flat JSON object");
  }
  auto require = [&fields](const char* key) -> Result<std::string> {
    auto it = fields.find(key);
    if (it == fields.end()) {
      return Status::InvalidArgument(std::string("counterexample missing '") +
                                     key + "'");
    }
    return it->second;
  };

  DYNVOTE_ASSIGN_OR_RETURN(std::string schema, require("schema"));
  if (schema != kCounterExampleSchema) {
    return Status::InvalidArgument("unsupported counterexample schema '" +
                                   schema + "' (expected " +
                                   kCounterExampleSchema + ")");
  }

  CounterExample ce;
  DYNVOTE_ASSIGN_OR_RETURN(ce.protocol, require("protocol"));
  DYNVOTE_ASSIGN_OR_RETURN(ce.topology, require("topology"));

  DYNVOTE_ASSIGN_OR_RETURN(std::string placement, require("placement"));
  if (placement.size() < 2 || placement.front() != '[' ||
      placement.back() != ']') {
    return Status::InvalidArgument("placement must be a numeric array");
  }
  std::string body = placement.substr(1, placement.size() - 2);
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    Result<int> site = ParseInt(body.substr(pos, comma - pos));
    if (!site.ok()) {
      return Status::InvalidArgument("bad placement entry in " + placement);
    }
    // SiteSet::Add silently ignores out-of-range ids; a record naming
    // site 99 is corrupt, not a record with fewer copies.
    if (*site < 0 || *site >= kMaxSites) {
      return Status::InvalidArgument("placement site out of range in " +
                                     placement);
    }
    ce.placement.Add(*site);
    pos = comma + 1;
  }
  if (ce.placement.Empty()) {
    return Status::InvalidArgument("placement must not be empty");
  }

  DYNVOTE_ASSIGN_OR_RETURN(std::string strict, require("strict"));
  if (strict != "true" && strict != "false") {
    return Status::InvalidArgument("strict must be true or false");
  }
  ce.policy.strict = strict == "true";
  DYNVOTE_ASSIGN_OR_RETURN(std::string threshold,
                           require("max_granted_groups"));
  Result<int> max_granted_groups = ParseInt(threshold);
  if (!max_granted_groups.ok()) {
    return Status::InvalidArgument("bad max_granted_groups '" + threshold +
                                   "'");
  }
  ce.policy.max_granted_groups = *max_granted_groups;
  DYNVOTE_ASSIGN_OR_RETURN(std::string oracle, require("oracle"));
  DYNVOTE_ASSIGN_OR_RETURN(ce.policy.oracle, ParseDifferentialOracle(oracle));

  DYNVOTE_ASSIGN_OR_RETURN(ce.violation.invariant, require("invariant"));
  DYNVOTE_ASSIGN_OR_RETURN(std::string step, require("step"));
  Result<int> step_number = ParseInt(step);
  if (!step_number.ok()) {
    return Status::InvalidArgument("bad step '" + step + "'");
  }
  ce.violation.step = *step_number;
  if (auto it = fields.find("detail"); it != fields.end()) {
    ce.violation.detail = it->second;
  }
  DYNVOTE_ASSIGN_OR_RETURN(std::string schedule, require("schedule"));
  DYNVOTE_ASSIGN_OR_RETURN(ce.schedule, ParseSchedule(schedule));
  if (ce.schedule.empty()) {
    return Status::InvalidArgument("schedule must not be empty");
  }
  // The violation is claimed at a schedule step; a step outside the
  // recorded schedule can never replay and marks a truncated or
  // hand-edited file.
  if (ce.violation.step < 0 ||
      static_cast<std::size_t>(ce.violation.step) >= ce.schedule.size()) {
    return Status::InvalidArgument(
        "step " + std::to_string(ce.violation.step) +
        " is outside the recorded schedule (" +
        std::to_string(ce.schedule.size()) + " action(s))");
  }
  return ce;
}

Status ReplayCounterExample(const CounterExample& ce) {
  auto topology = MakeCheckTopology(ce.topology);
  if (!topology.ok()) return topology.status();
  auto harness =
      CheckHarness::Make(*topology, ce.placement, ce.protocol, ce.policy);
  if (!harness.ok()) return harness.status();
  for (std::size_t i = 0; i < ce.schedule.size(); ++i) {
    auto violation = (*harness)->Apply(ce.schedule[i]);
    if (!violation.has_value()) continue;
    if (violation->invariant != ce.violation.invariant) {
      return Status::Internal(
          "replay tripped '" + violation->invariant + "' at step " +
          std::to_string(violation->step) + ", expected '" +
          ce.violation.invariant + "': " + violation->detail);
    }
    if (violation->step != ce.violation.step) {
      return Status::Internal(
          "replay tripped '" + violation->invariant + "' at step " +
          std::to_string(violation->step) + ", recorded step is " +
          std::to_string(ce.violation.step));
    }
    return Status::OK();
  }
  return Status::Internal("replay completed all " +
                          std::to_string(ce.schedule.size()) +
                          " actions without tripping '" +
                          ce.violation.invariant + "'");
}

}  // namespace check
}  // namespace dynvote
