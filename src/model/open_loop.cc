#include "model/open_loop.h"

#include <utility>

#include "util/append.h"

namespace dynvote {

namespace {

constexpr const char* kPhaseNames[2] = {"access", "refresh"};

/// A replica's pruned completions are dropped from its buffer once at
/// least this many, and at least as many as remain, have piled up.
constexpr std::size_t kCompactAfter = 256;

/// The `protocol=P` label every serving_* key carries.
std::string ProtocolLabel(std::string_view protocol) {
  std::string label = "protocol=";
  label.append(protocol);
  return label;
}

/// One message-cost cell: serving_messages{kind=K,phase=F,protocol=P},
/// `phase` indexing ServingStage::Phase.
std::string MessagesKey(MessageKind kind, int phase,
                        std::string_view protocol) {
  std::string labels = "kind=" + MessageKindName(kind);
  labels += ",phase=";
  labels += kPhaseNames[phase];
  labels += ",";
  labels += ProtocolLabel(protocol);
  return MetricKey("serving_messages", labels);
}

}  // namespace

ServingStage::ServingStage(std::string protocol_name,
                           const ServingOptions& options, int num_sites)
    : name_(std::move(protocol_name)),
      options_(options),
      in_flight_(static_cast<std::size_t>(num_sites)) {}

std::uint64_t ServingStage::AttributeMessages(const MessageCounter& counter,
                                              Phase phase) {
  std::uint64_t control_delta = 0;
  auto* bucket = phase_msgs_[static_cast<int>(phase)];
  for (int k = 0; k < kNumMessageKinds; ++k) {
    auto kind = static_cast<MessageKind>(k);
    std::uint64_t delta = counter.count(kind) - prev_.count(kind);
    if (delta == 0) continue;
    bucket[k] += delta;
    prev_.Add(kind, delta);
    if (kind != MessageKind::kFileCopy) control_delta += delta;
  }
  return control_delta;
}

ServingStage::Outcome ServingStage::OnArrival(double now_days, SiteId origin,
                                              std::uint64_t msgs,
                                              bool granted) {
  InFlight& pending = in_flight_[static_cast<std::size_t>(origin)];
  std::vector<double>& completions = pending.completions;
  // Lindley recursion: service starts when the server frees up, at the
  // last completion. Everything that completed before this arrival has
  // left the replica; the survivors are the queue it joins behind.
  double start = now_days;
  std::uint32_t depth = 0;
  if (!completions.empty() && completions.back() > now_days) {
    start = completions.back();
    // The last completion is still ahead, so the walk stops before it.
    while (completions[pending.head] <= now_days) ++pending.head;
    depth = static_cast<std::uint32_t>(completions.size() - pending.head);
    if (pending.head >= kCompactAfter && pending.head >= depth) {
      completions.erase(completions.begin(),
                        completions.begin() +
                            static_cast<std::ptrdiff_t>(pending.head));
      pending.head = 0;
    }
  } else {
    // An idle server: the last completion, and so every one, is past.
    completions.clear();
    pending.head = 0;
  }

  const double service_days =
      (options_.service_time_ms +
       options_.msg_cost_ms * static_cast<double>(msgs)) /
      kMillisPerDay;
  const double completion = start + service_days;
  completions.push_back(completion);

  Outcome outcome;
  outcome.latency_ms = (completion - now_days) * kMillisPerDay;
  outcome.depth = depth;
  latency_ms_.Observe(outcome.latency_ms);
  ++arrivals_;
  if (granted) ++granted_;
  if (depth > max_depth_) max_depth_ = depth;
  return outcome;
}

void ServingStage::Finish(MetricsShard* metrics) const {
  if (metrics == nullptr) return;
  const std::string label = ProtocolLabel(name_);
  metrics->Add(MetricKey("serving_arrivals", label), arrivals_ + rejected_);
  metrics->Add(MetricKey("serving_rejected", label), rejected_);
  metrics->Add(MetricKey("serving_granted", label), granted_);
  metrics->Add(MetricKey("serving_denied", label), arrivals_ - granted_);
  metrics->MergeHistogram(MetricKey("serving_latency_ms", label),
                          latency_ms_);
  metrics->Set(MetricKey("serving_queue_depth_max", label),
               static_cast<double>(max_depth_));
  // Message-cost accounting by kind and phase; zero cells stay absent so
  // the export lists only traffic the protocol actually generated.
  for (int phase = 0; phase < 2; ++phase) {
    for (int k = 0; k < kNumMessageKinds; ++k) {
      if (phase_msgs_[phase][k] == 0) continue;
      metrics->Add(MessagesKey(static_cast<MessageKind>(k), phase, name_),
                   phase_msgs_[phase][k]);
    }
  }
}

ServingRow ReadServingRow(const MetricsShard& metrics,
                          std::string_view protocol) {
  const std::string label = ProtocolLabel(protocol);
  auto counter = [&metrics](const std::string& key) -> std::uint64_t {
    auto it = metrics.counters().find(key);
    return it == metrics.counters().end() ? 0 : it->second;
  };
  ServingRow row;
  row.name = std::string(protocol);
  row.rejected = counter(MetricKey("serving_rejected", label));
  row.served = counter(MetricKey("serving_arrivals", label)) - row.rejected;
  row.granted = counter(MetricKey("serving_granted", label));
  std::uint64_t* phase_totals[2] = {&row.access_messages,
                                    &row.refresh_messages};
  for (int phase = 0; phase < 2; ++phase) {
    for (int k = 0; k < kNumMessageKinds; ++k) {
      const auto kind = static_cast<MessageKind>(k);
      if (kind == MessageKind::kFileCopy) continue;
      *phase_totals[phase] += counter(MessagesKey(kind, phase, protocol));
    }
  }
  auto hist = metrics.histograms().find(MetricKey("serving_latency_ms", label));
  if (hist != metrics.histograms().end()) row.latency_ms = hist->second;
  auto gauge =
      metrics.gauges().find(MetricKey("serving_queue_depth_max", label));
  if (gauge != metrics.gauges().end()) row.queue_depth_max = gauge->second;
  const double denom =
      row.served > 0 ? static_cast<double>(row.served) : 1.0;
  row.msgs_per_access = static_cast<double>(row.access_messages) / denom;
  row.refresh_per_access = static_cast<double>(row.refresh_messages) / denom;
  row.grant_pct = 100.0 * static_cast<double>(row.granted) / denom;
  return row;
}

void AppendServingRowJson(const ServingRow& row, std::string* out) {
  auto key = [out](const char* name) {
    out->append(", \"");
    out->append(name);
    out->append("\": ");
  };
  out->append("{\"name\": ");
  AppendJsonString(row.name, out);
  for (const auto& [name, value] :
       {std::pair<const char*, std::uint64_t>{"served", row.served},
        {"rejected", row.rejected},
        {"granted", row.granted},
        {"denied", row.served - row.granted},
        {"access_messages", row.access_messages},
        {"refresh_messages", row.refresh_messages}}) {
    key(name);
    AppendDecimal(value, out);
  }
  key("msgs_per_access");
  AppendDouble(row.msgs_per_access, out);
  out->append(", \"latency_ms\": {\"p50\": ");
  AppendDouble(row.latency_ms.Quantile(0.50), out);
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"p90", row.latency_ms.Quantile(0.90)},
        {"p99", row.latency_ms.Quantile(0.99)},
        {"p999", row.latency_ms.Quantile(0.999)},
        {"max", row.latency_ms.max}}) {
    key(name);
    AppendDouble(value, out);
  }
  out->append("}, \"queue_depth_max\": ");
  AppendDouble(row.queue_depth_max, out);
  out->push_back('}');
}

}  // namespace dynvote
