#include "check/harness.h"

#include "core/dynamic_voting.h"
#include "util/append.h"
#include "util/logging.h"

namespace dynvote {
namespace check {
namespace {

/// The single key every schedule reads and writes: the paper replicates
/// whole files, so one object is fully general.
constexpr const char kKey[] = "k";

bool IsTieDecision(const QuorumDecision& d) {
  return d.by_tie_break || d.reason == QuorumReason::kGrantedTieLex ||
         d.reason == QuorumReason::kDeniedTieLost;
}

}  // namespace

const char* DifferentialOracleName(DifferentialOracle oracle) {
  switch (oracle) {
    case DifferentialOracle::kNone:
      return "none";
    case DifferentialOracle::kQuorumCache:
      return "quorum_cache";
    case DifferentialOracle::kJmEquivalence:
      return "jm_equivalence";
    case DifferentialOracle::kLexPair:
      return "lex_pair";
  }
  return "?";
}

Result<DifferentialOracle> ParseDifferentialOracle(const std::string& name) {
  if (name == "none") return DifferentialOracle::kNone;
  if (name == "quorum_cache") return DifferentialOracle::kQuorumCache;
  if (name == "jm_equivalence") return DifferentialOracle::kJmEquivalence;
  if (name == "lex_pair") return DifferentialOracle::kLexPair;
  return Status::InvalidArgument("unknown differential oracle '" + name +
                                 "'");
}

Result<std::unique_ptr<CheckHarness>> CheckHarness::Make(
    std::shared_ptr<const Topology> topology, SiteSet placement,
    const std::string& protocol, InvariantPolicy policy) {
  std::string shadow_protocol;
  switch (policy.oracle) {
    case DifferentialOracle::kNone:
      break;
    case DifferentialOracle::kQuorumCache:
      shadow_protocol = protocol;
      break;
    case DifferentialOracle::kJmEquivalence:
      if (protocol != "DV") {
        return Status::InvalidArgument(
            "the jm_equivalence oracle requires --protocol=DV (got '" +
            protocol + "')");
      }
      shadow_protocol = "JM-DV";
      break;
    case DifferentialOracle::kLexPair:
      if (protocol != "LDV") {
        return Status::InvalidArgument(
            "the lex_pair oracle requires --protocol=LDV (got '" + protocol +
            "')");
      }
      shadow_protocol = "ODV";
      break;
  }

  auto harness =
      std::unique_ptr<CheckHarness>(new CheckHarness(policy));
  auto add_arm = [&](const std::string& name) -> Status {
    auto cluster = KvCluster::Make(topology, placement, name);
    if (!cluster.ok()) return cluster.status();
    HarnessArm arm;
    arm.cluster = cluster.MoveValue();
    arm.strict = policy.strict;
    harness->arms_.push_back(std::move(arm));
    return Status::OK();
  };
  DYNVOTE_RETURN_NOT_OK(add_arm(protocol));
  if (!shadow_protocol.empty()) {
    DYNVOTE_RETURN_NOT_OK(add_arm(shadow_protocol));
    if (policy.oracle == DifferentialOracle::kQuorumCache) {
      harness->arms_[1].cluster->store().protocol()
          ->set_quorum_cache_enabled(false);
    }
  }
  return harness;
}

void CheckHarness::AssignFrom(const CheckHarness& other) {
  DYNVOTE_CHECK_MSG(arms_.size() == other.arms_.size(),
                    "AssignFrom across oracle configurations");
  policy_ = other.policy_;
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    HarnessArm& arm = arms_[i];
    const HarnessArm& from = other.arms_[i];
    arm.cluster->AssignFrom(*from.cluster);
    arm.committed = from.committed;
    arm.counter = from.counter;
    arm.strict = from.strict;
    arm.last_statuses = from.last_statuses;
  }
  steps_ = other.steps_;
  commits_ = other.commits_;
  reads_checked_ = other.reads_checked_;
}

bool CheckHarness::TogglesCommute() const {
  for (const HarnessArm& arm : arms_) {
    if (arm.cluster->protocol().uses_instantaneous_information()) {
      return false;
    }
  }
  return true;
}

std::optional<Violation> CheckHarness::Violate(const std::string& invariant,
                                               std::string detail) const {
  Violation v;
  v.invariant = invariant;
  v.step = steps_;
  v.detail = std::move(detail);
  return v;
}

std::optional<Violation> CheckHarness::ApplyToArm(HarnessArm* arm,
                                                  const CheckAction& action) {
  KvCluster& cluster = *arm->cluster;
  const int num_sites = cluster.net().topology().num_sites();
  arm->last_statuses.clear();
  const bool is_primary = arm == &arms_.front();

  switch (action.kind) {
    case ActionKind::kToggleSite: {
      if (action.target < 0 || action.target >= num_sites) {
        return Violate("invalid_action",
                       "no site " + std::to_string(action.target));
      }
      SiteId s = action.target;
      if (cluster.net().IsSiteUp(s)) {
        cluster.KillSite(s);
      } else {
        cluster.RestartSite(s);
      }
      break;
    }
    case ActionKind::kToggleRepeater: {
      if (action.target < 0 ||
          action.target >= cluster.net().topology().num_repeaters()) {
        return Violate("invalid_action",
                       "no repeater " + std::to_string(action.target));
      }
      RepeaterId r = action.target;
      if (cluster.net().IsRepeaterUp(r)) {
        cluster.KillRepeater(r);
      } else {
        cluster.RestartRepeater(r);
      }
      break;
    }
    case ActionKind::kWrite: {
      std::string value = "v" + std::to_string(arm->counter++);
      for (SiteId s = 0; s < num_sites; ++s) {
        if (!cluster.net().IsSiteUp(s)) continue;
        Status st = cluster.Put(s, kKey, value);
        arm->last_statuses.push_back(static_cast<int>(st.code()));
        if (st.ok()) {
          arm->committed.push_back(value);
          if (is_primary) ++commits_;
          break;
        }
        if (!st.IsNoQuorum()) {
          return Violate("status_contract", "write at site " +
                                                std::to_string(s) +
                                                " returned " + st.ToString());
        }
      }
      break;
    }
    case ActionKind::kReadCheck: {
      for (SiteId s = 0; s < num_sites; ++s) {
        if (!cluster.net().IsSiteUp(s)) continue;
        auto got = cluster.Get(s, kKey);
        const Status& st = got.status();
        arm->last_statuses.push_back(static_cast<int>(st.code()));
        if (st.IsNoQuorum() || st.IsUnavailable()) continue;
        if (!st.ok() && !st.IsNotFound()) {
          return Violate("status_contract", "read at site " +
                                                std::to_string(s) +
                                                " returned " + st.ToString());
        }
        if (is_primary) ++reads_checked_;
        if (arm->strict) {
          if (arm->committed.empty()) {
            if (!st.IsNotFound()) {
              return Violate("one_copy_serialisability",
                             "read at site " + std::to_string(s) +
                                 " observed '" + *got +
                                 "' before any write committed");
            }
          } else if (!st.ok() || *got != arm->committed.back()) {
            return Violate(
                "one_copy_serialisability",
                "read at site " + std::to_string(s) + " observed " +
                    (st.ok() ? "'" + *got + "'" : st.ToString()) +
                    ", expected latest commit '" + arm->committed.back() +
                    "'");
          }
        } else if (st.ok()) {
          bool known = false;
          for (const std::string& v : arm->committed) {
            if (v == *got) {
              known = true;
              break;
            }
          }
          if (!known) {
            return Violate("uncommitted_read",
                           "read at site " + std::to_string(s) +
                               " observed '" + *got +
                               "', which was never committed");
          }
        }
      }
      break;
    }
    case ActionKind::kRecoverAll: {
      for (SiteId s = 0; s < num_sites; ++s) {
        if (!cluster.net().IsSiteUp(s)) continue;
        Status st = cluster.TryRecover(s);
        arm->last_statuses.push_back(static_cast<int>(st.code()));
        if (!st.ok() && !st.IsNoQuorum()) {
          return Violate("status_contract", "recovery at site " +
                                                std::to_string(s) +
                                                " returned " + st.ToString());
        }
      }
      break;
    }
  }

  // Mutual exclusion, after every action. The weakened threshold (the
  // test hook proving the pipeline) applies even to exempt protocols.
  if (arm->strict || policy_.max_granted_groups == 0) {
    int granted = 0;
    SiteSet granted_example;
    for (const SiteSet& group : cluster.net().Components()) {
      if (cluster.protocol().WouldGrant(cluster.net(), group.RankMax(),
                                        AccessType::kWrite)) {
        ++granted;
        granted_example = group;
      }
    }
    if (granted > policy_.max_granted_groups) {
      return Violate(
          "mutual_exclusion",
          std::to_string(granted) + " groups granted (threshold " +
              std::to_string(policy_.max_granted_groups) + "), e.g. group " +
              granted_example.ToString());
    }
  }
  return std::nullopt;
}

std::optional<Violation> CheckHarness::CheckOracle(
    const CheckAction& action) {
  if (policy_.oracle == DifferentialOracle::kNone) return std::nullopt;
  const HarnessArm& primary = arms_[0];
  const HarnessArm& shadow = arms_[1];
  const char* name =
      policy_.oracle == DifferentialOracle::kQuorumCache ? "cache_divergence"
      : policy_.oracle == DifferentialOracle::kJmEquivalence
          ? "jm_divergence"
          : "lex_pair_divergence";

  if (policy_.oracle == DifferentialOracle::kLexPair) {
    // Tie-gated per-component grant comparison; statuses and histories
    // may legitimately diverge once a tie has been decided.
    const auto* ldv =
        dynamic_cast<const DynamicVoting*>(&primary.cluster->protocol());
    const auto* odv =
        dynamic_cast<const DynamicVoting*>(&shadow.cluster->protocol());
    if (ldv == nullptr || odv == nullptr) return std::nullopt;
    for (const SiteSet& group : primary.cluster->net().Components()) {
      QuorumDecision a = ldv->Evaluate(group);
      QuorumDecision b = odv->Evaluate(group);
      if (IsTieDecision(a) || IsTieDecision(b)) continue;
      if (a.granted != b.granted) {
        return Violate(name, "after " + action.Token() + ", group " +
                                 group.ToString() + ": LDV " +
                                 (a.granted ? "grants" : "denies") +
                                 " but ODV " +
                                 (b.granted ? "grants" : "denies") +
                                 " with no tie-break involved");
      }
    }
    return std::nullopt;
  }

  // Strict oracles: the shadow must be operationally indistinguishable.
  if (primary.last_statuses != shadow.last_statuses) {
    return Violate(name, "after " + action.Token() +
                             ": per-site status codes diverge");
  }
  if (primary.committed.size() != shadow.committed.size()) {
    return Violate(name, "after " + action.Token() +
                             ": committed histories diverge (" +
                             std::to_string(primary.committed.size()) +
                             " vs " +
                             std::to_string(shadow.committed.size()) + ")");
  }
  for (const SiteSet& group : primary.cluster->net().Components()) {
    for (AccessType type : {AccessType::kRead, AccessType::kWrite}) {
      bool a = primary.cluster->protocol().CachedWouldGrant(
          primary.cluster->net(), group.RankMax(), type);
      bool b = shadow.cluster->protocol().CachedWouldGrant(
          shadow.cluster->net(), group.RankMax(), type);
      if (a != b) {
        return Violate(
            name, "after " + action.Token() + ", group " + group.ToString() +
                      (type == AccessType::kWrite ? " (write)" : " (read)") +
                      ": primary " + (a ? "grants" : "denies") +
                      " but shadow " + (b ? "grants" : "denies"));
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> CheckHarness::Apply(const CheckAction& action) {
  for (HarnessArm& arm : arms_) {
    if (auto v = ApplyToArm(&arm, action)) {
      ++steps_;
      return v;
    }
  }
  if (auto v = CheckOracle(action)) {
    ++steps_;
    return v;
  }
  ++steps_;
  return std::nullopt;
}

bool CheckHarness::AppendSignature(std::string* out) const {
  const NetworkState& net = arms_.front().cluster->net();
  out->push_back('n');
  AppendDecimal(net.LiveSites().mask(), out);
  out->push_back('r');
  for (RepeaterId r = 0; r < net.topology().num_repeaters(); ++r) {
    out->push_back(net.IsRepeaterUp(r) ? '1' : '0');
  }
  for (const HarnessArm& arm : arms_) {
    out->push_back('|');
    if (!arm.cluster->protocol().AppendStateSignature(out)) return false;
    // Replica contents relative to the committed history: 0 = no value,
    // 1 = the latest commit, 2+ = stale classes by first appearance.
    // Value identities beyond this partition cannot influence any future
    // invariant outcome (reads only ever compare against the latest
    // commit or test membership of the committed set).
    out->push_back('/');
    out->push_back(arm.committed.empty() ? 'e' : 'n');
    // Stale class c is the value stale[c - 2] points at. Only
    // [0, num_stale) is read, each entry written first; not zeroed, for
    // the same reason as DenseRanks.
    const std::string* stale[kMaxSites];
    int num_stale = 0;
    for (const auto& [site, contents] : arm.cluster->store().replicas()) {
      auto it = contents.find(kKey);
      int code;
      if (it == contents.end()) {
        code = 0;
      } else if (!arm.committed.empty() &&
                 it->second == arm.committed.back()) {
        code = 1;
      } else {
        int c = 0;
        while (c < num_stale && *stale[c] != it->second) ++c;
        if (c == num_stale) stale[num_stale++] = &it->second;
        code = c + 2;
      }
      AppendDecimal(code, out);
      out->push_back(',');
    }
  }
  return true;
}

}  // namespace check
}  // namespace dynvote
