#include "check/action.h"

#include <sstream>

#include "util/parse_number.h"

namespace dynvote {
namespace check {

std::string CheckAction::Token() const {
  switch (kind) {
    case ActionKind::kToggleSite:
      return "toggle_site:" + std::to_string(target);
    case ActionKind::kToggleRepeater:
      return "toggle_repeater:" + std::to_string(target);
    case ActionKind::kWrite:
      return "write";
    case ActionKind::kReadCheck:
      return "read_check";
    case ActionKind::kRecoverAll:
      return "recover_all";
  }
  return "?";
}

Result<CheckAction> ParseActionToken(const std::string& token) {
  auto targeted = [&token](ActionKind kind,
                           const std::string& prefix) -> Result<CheckAction> {
    Result<int> target = ParseInt(token.substr(prefix.size()));
    if (target.ok() && *target >= 0) return CheckAction{kind, *target};
    return Status::InvalidArgument("bad action target in '" + token + "'");
  };
  if (token.rfind("toggle_site:", 0) == 0) {
    return targeted(ActionKind::kToggleSite, "toggle_site:");
  }
  if (token.rfind("toggle_repeater:", 0) == 0) {
    return targeted(ActionKind::kToggleRepeater, "toggle_repeater:");
  }
  if (token == "write") return CheckAction{ActionKind::kWrite, -1};
  if (token == "read_check") return CheckAction{ActionKind::kReadCheck, -1};
  if (token == "recover_all") return CheckAction{ActionKind::kRecoverAll, -1};
  return Status::InvalidArgument("unknown action token '" + token + "'");
}

std::vector<CheckAction> ActionAlphabet(const Topology& topology) {
  std::vector<CheckAction> alphabet;
  for (SiteId s = 0; s < topology.num_sites(); ++s) {
    alphabet.push_back({ActionKind::kToggleSite, s});
  }
  for (RepeaterId r = 0; r < topology.num_repeaters(); ++r) {
    alphabet.push_back({ActionKind::kToggleRepeater, r});
  }
  alphabet.push_back({ActionKind::kWrite, -1});
  alphabet.push_back({ActionKind::kReadCheck, -1});
  alphabet.push_back({ActionKind::kRecoverAll, -1});
  return alphabet;
}

int ToggleOrderIndex(const CheckAction& action, int num_sites) {
  switch (action.kind) {
    case ActionKind::kToggleSite:
      return action.target;
    case ActionKind::kToggleRepeater:
      return num_sites + action.target;
    default:
      return -1;
  }
}

std::string ScheduleToString(const std::vector<CheckAction>& schedule) {
  std::string out;
  for (const CheckAction& action : schedule) {
    if (!out.empty()) out.push_back(' ');
    out += action.Token();
  }
  return out;
}

Result<std::vector<CheckAction>> ParseSchedule(const std::string& text) {
  std::vector<CheckAction> schedule;
  std::stringstream ss(text);
  std::string token;
  while (ss >> token) {
    auto action = ParseActionToken(token);
    if (!action.ok()) return action.status();
    schedule.push_back(*action);
  }
  return schedule;
}

}  // namespace check
}  // namespace dynvote
