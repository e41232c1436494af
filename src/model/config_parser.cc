#include "model/config_parser.h"

#include <fstream>
#include <map>
#include <sstream>

#include "util/parse_number.h"
#include "util/thread_pool.h"

namespace dynvote {

namespace {

Status LineError(int line, const std::string& message) {
  return Status::InvalidArgument("network config line " +
                                 std::to_string(line) + ": " + message);
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::string cleaned = line.substr(0, line.find('#'));
  std::istringstream ss(cleaned);
  std::vector<std::string> tokens;
  std::string token;
  while (ss >> token) tokens.push_back(token);
  return tokens;
}

/// Parses trailing key=value tokens into a map; fails on malformed or
/// duplicate keys.
Result<std::map<std::string, double>> ParseKeyValues(
    int line, const std::vector<std::string>& tokens, std::size_t first) {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == tokens[i].size()) {
      return LineError(line, "expected key=value, got '" + tokens[i] + "'");
    }
    std::string key = tokens[i].substr(0, eq);
    Result<double> value = ParseDouble(tokens[i].substr(eq + 1));
    if (!value.ok()) {
      return LineError(line, "bad number in '" + tokens[i] + "'");
    }
    if (!out.emplace(key, *value).second) {
      return LineError(line, "duplicate key '" + key + "'");
    }
  }
  return out;
}

double Take(std::map<std::string, double>* kv, const std::string& key,
            double fallback) {
  auto it = kv->find(key);
  if (it == kv->end()) return fallback;
  double v = it->second;
  kv->erase(it);
  return v;
}

Status CheckEmpty(int line, const std::map<std::string, double>& kv) {
  if (kv.empty()) return Status::OK();
  return LineError(line, "unknown key '" + kv.begin()->first + "'");
}

/// Converts a parsed value to a non-negative integer; counts must be
/// whole numbers (stod accepts "1.5" and "1e3", so check the value, not
/// the spelling).
Result<int> TakeCount(int line, std::map<std::string, double>* kv,
                      const std::string& key, int fallback) {
  double v = Take(kv, key, static_cast<double>(fallback));
  if (v < 0.0 || v > 1e9 || v != static_cast<double>(static_cast<int>(v))) {
    return LineError(line, key + " must be a small non-negative integer");
  }
  return static_cast<int>(v);
}

}  // namespace

Result<NetworkConfig> ParseNetworkConfig(const std::string& text) {
  TopologyBuilder builder = Topology::Builder();
  std::map<std::string, SegmentId> segments;
  std::map<std::string, SiteId> sites;
  std::vector<SiteProfile> profiles;
  std::vector<RepeaterProfile> repeater_profiles;
  // Gateways reference sites, which users may declare in any order;
  // collect and apply at the end.
  std::vector<std::pair<int, std::pair<std::string, std::string>>> gateways;

  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  int replications = 1;
  int jobs = 1;
  bool saw_experiment = false;
  while (std::getline(stream, line)) {
    ++line_number;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& kind = tokens[0];

    if (kind == "segment") {
      if (tokens.size() != 2) {
        return LineError(line_number, "segment takes exactly one name");
      }
      if (segments.count(tokens[1]) != 0) {
        return LineError(line_number,
                         "duplicate segment '" + tokens[1] + "'");
      }
      segments[tokens[1]] = builder.AddSegment(tokens[1]);
    } else if (kind == "site") {
      if (tokens.size() < 3) {
        return LineError(line_number, "site needs a name and a segment");
      }
      if (sites.count(tokens[1]) != 0) {
        return LineError(line_number, "duplicate site '" + tokens[1] + "'");
      }
      auto seg = segments.find(tokens[2]);
      if (seg == segments.end()) {
        return LineError(line_number,
                         "unknown segment '" + tokens[2] + "'");
      }
      auto kv = ParseKeyValues(line_number, tokens, 3);
      if (!kv.ok()) return kv.status();
      SiteProfile profile;
      profile.name = tokens[1];
      profile.mttf_days = Take(&*kv, "mttf", 365.0);
      profile.hardware_fraction = Take(&*kv, "hw", 0.5);
      profile.restart_minutes = Take(&*kv, "restart", 15.0);
      profile.hw_repair_const_hours = Take(&*kv, "repair-const", 0.0);
      profile.hw_repair_exp_hours = Take(&*kv, "repair-exp", 2.0);
      profile.maintenance_interval_days = Take(&*kv, "maint-interval", 0.0);
      profile.maintenance_hours = Take(&*kv, "maint-hours", 0.0);
      DYNVOTE_RETURN_NOT_OK(CheckEmpty(line_number, *kv));
      if (profile.mttf_days <= 0.0) {
        return LineError(line_number, "mttf must be > 0");
      }
      if (profile.hardware_fraction < 0.0 ||
          profile.hardware_fraction > 1.0) {
        return LineError(line_number, "hw must be in [0, 1]");
      }
      sites[tokens[1]] = builder.AddSite(tokens[1], seg->second);
      profiles.push_back(std::move(profile));
    } else if (kind == "gateway") {
      if (tokens.size() != 3) {
        return LineError(line_number, "gateway takes a site and a segment");
      }
      gateways.push_back({line_number, {tokens[1], tokens[2]}});
    } else if (kind == "repeater") {
      if (tokens.size() < 4) {
        return LineError(line_number,
                         "repeater needs a name and two segments");
      }
      auto a = segments.find(tokens[2]);
      auto b = segments.find(tokens[3]);
      if (a == segments.end() || b == segments.end()) {
        return LineError(line_number, "unknown segment in repeater");
      }
      auto kv = ParseKeyValues(line_number, tokens, 4);
      if (!kv.ok()) return kv.status();
      RepeaterProfile profile;
      profile.name = tokens[1];
      profile.mttf_days = Take(&*kv, "mttf", 365.0);
      profile.repair_const_hours = Take(&*kv, "repair-const", 0.0);
      profile.repair_exp_hours = Take(&*kv, "repair-exp", 2.0);
      DYNVOTE_RETURN_NOT_OK(CheckEmpty(line_number, *kv));
      if (profile.mttf_days <= 0.0) {
        return LineError(line_number, "mttf must be > 0");
      }
      builder.AddRepeater(tokens[1], a->second, b->second);
      repeater_profiles.push_back(std::move(profile));
    } else if (kind == "experiment") {
      if (saw_experiment) {
        return LineError(line_number, "duplicate experiment declaration");
      }
      saw_experiment = true;
      auto kv = ParseKeyValues(line_number, tokens, 1);
      if (!kv.ok()) return kv.status();
      DYNVOTE_ASSIGN_OR_RETURN(
          replications, TakeCount(line_number, &*kv, "replications", 1));
      DYNVOTE_ASSIGN_OR_RETURN(jobs,
                               TakeCount(line_number, &*kv, "jobs", 1));
      DYNVOTE_RETURN_NOT_OK(CheckEmpty(line_number, *kv));
      if (replications < 1) {
        return LineError(line_number, "replications must be >= 1");
      }
      if (Status st = ValidateWorkerCount(jobs); !st.ok()) {
        return LineError(line_number, st.message());
      }
    } else {
      return LineError(line_number, "unknown declaration '" + kind + "'");
    }
  }

  for (const auto& [gw_line, gw] : gateways) {
    auto site = sites.find(gw.first);
    if (site == sites.end()) {
      return LineError(gw_line, "unknown site '" + gw.first + "'");
    }
    auto seg = segments.find(gw.second);
    if (seg == segments.end()) {
      return LineError(gw_line, "unknown segment '" + gw.second + "'");
    }
    builder.AddGateway(site->second, seg->second);
  }

  auto topo = builder.Build();
  if (!topo.ok()) return topo.status();
  NetworkConfig config;
  config.topology = topo.MoveValue();
  config.profiles = std::move(profiles);
  config.repeater_profiles = std::move(repeater_profiles);
  config.replications = replications;
  config.jobs = jobs;
  return config;
}

Result<NetworkConfig> LoadNetworkConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot read '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseNetworkConfig(buffer.str());
}

std::string NetworkConfigToString(const NetworkConfig& config) {
  std::ostringstream os;
  const Topology& topo = *config.topology;
  for (SegmentId seg = 0; seg < topo.num_segments(); ++seg) {
    os << "segment " << topo.segment_name(seg) << "\n";
  }
  for (SiteId s = 0; s < topo.num_sites(); ++s) {
    const SiteProfile& p = config.profiles[s];
    os << "site " << topo.site(s).name << " "
       << topo.segment_name(topo.SegmentOf(s)) << " mttf=" << p.mttf_days
       << " hw=" << p.hardware_fraction << " restart=" << p.restart_minutes
       << " repair-const=" << p.hw_repair_const_hours
       << " repair-exp=" << p.hw_repair_exp_hours;
    if (p.maintenance_interval_days > 0.0) {
      os << " maint-interval=" << p.maintenance_interval_days
         << " maint-hours=" << p.maintenance_hours;
    }
    os << "\n";
  }
  for (const BridgeInfo& bridge : topo.bridges()) {
    if (bridge.gateway_site.has_value()) {
      os << "gateway " << topo.site(*bridge.gateway_site).name << " "
         << topo.segment_name(bridge.segment_b) << "\n";
    } else {
      const RepeaterProfile& p = config.repeater_profiles[bridge.repeater];
      os << "repeater " << bridge.name << " "
         << topo.segment_name(bridge.segment_a) << " "
         << topo.segment_name(bridge.segment_b) << " mttf=" << p.mttf_days
         << " repair-const=" << p.repair_const_hours
         << " repair-exp=" << p.repair_exp_hours << "\n";
    }
  }
  // Emitted only away from the defaults so pre-existing configs
  // round-trip byte for byte.
  if (config.replications != 1 || config.jobs != 1) {
    os << "experiment replications=" << config.replications
       << " jobs=" << config.jobs << "\n";
  }
  return os.str();
}

}  // namespace dynvote
