#include "model/open_loop.h"

#include <algorithm>

namespace dynvote {

ServingStage::ServingStage(std::string protocol_name,
                           const ServingOptions& options, int num_sites)
    : name_(std::move(protocol_name)),
      options_(options),
      busy_until_(static_cast<std::size_t>(num_sites), 0.0),
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
  auto slot = static_cast<std::size_t>(origin);
  std::deque<double>& pending = in_flight_[slot];
  // Everything that completed before this arrival has left the replica;
  // the survivors are the queue this request joins behind.
  while (!pending.empty() && pending.front() <= now_days) {
    pending.pop_front();
  }
  auto depth = static_cast<std::uint32_t>(pending.size());

  const double service_days =
      (options_.service_time_ms +
       options_.msg_cost_ms * static_cast<double>(msgs)) /
      kMillisPerDay;
  // Lindley recursion: service starts when the server frees up.
  const double start = std::max(now_days, busy_until_[slot]);
  const double completion = start + service_days;
  busy_until_[slot] = completion;
  pending.push_back(completion);

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
  const std::string label = "protocol=" + name_;
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
    const char* phase_name = phase == 0 ? "access" : "refresh";
    for (int k = 0; k < kNumMessageKinds; ++k) {
      if (phase_msgs_[phase][k] == 0) continue;
      std::string labels = "kind=" + MessageKindName(static_cast<MessageKind>(k));
      labels += ",phase=";
      labels += phase_name;
      labels += ",";
      labels += label;
      metrics->Add(MetricKey("serving_messages", labels),
                   phase_msgs_[phase][k]);
    }
  }
}

}  // namespace dynvote
