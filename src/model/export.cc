#include "model/export.h"

#include <fstream>
#include <string_view>
#include <type_traits>

#include "util/append.h"

namespace dynvote {

namespace {

/// Appends `field` as one CSV field, quoted with inner quotes doubled when
/// it holds a comma, a quote or a line break (RFC 4180), so a multi-site
/// label such as `1,3,5` stays one column.
void AppendCsvField(std::string_view field, std::string* out) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// Appends `, "key": value`, a double at 17 significant digits (round-trip
/// exact: this is the byte-identical determinism surface).
template <typename Number>
void AppendField(std::string_view key, Number value, std::string* out) {
  out->append(", \"");
  out->append(key);
  out->append("\": ");
  if constexpr (std::is_floating_point_v<Number>) {
    AppendDouble(value, out);
  } else {
    AppendDecimal(value, out);
  }
}

/// The fields every replicated row ends with.
void AppendTrafficFields(std::uint64_t attempted, std::uint64_t granted,
                         const MessageCounter& messages,
                         std::uint64_t dual_majorities, double measured_days,
                         std::string* out) {
  AppendField("accesses_attempted", attempted, out);
  AppendField("accesses_granted", granted, out);
  AppendField("messages_total", messages.Total(), out);
  AppendField("messages_control", messages.ControlTotal(), out);
  AppendField("file_copies", messages.count(MessageKind::kFileCopy), out);
  AppendField("dual_majorities", dual_majorities, out);
  AppendField("measured_days", measured_days, out);
  out->push_back('}');
}

void AppendSummary(std::string_view key, const ReplicationSummary& s,
                   std::string* out) {
  out->append(", \"");
  out->append(key);
  out->append("\": {\"mean\": ");
  AppendDouble(s.mean, out);
  AppendField("stddev", s.stddev, out);
  AppendField("ci95", s.ci95_halfwidth, out);
  AppendField("min", s.min, out);
  AppendField("max", s.max, out);
  AppendField("samples", s.num_samples, out);
  AppendField("censored", s.num_censored, out);
  out->push_back('}');
}

}  // namespace

std::string ResultsToCsv(const std::vector<LabeledResult>& results) {
  std::string out =
      "label,policy,unavailability,ci95,mean_outage_days,num_outages,"
      "accesses_attempted,accesses_granted,messages_total,"
      "messages_control,file_copies,dual_majorities,measured_days\n";
  for (const LabeledResult& row : results) {
    const PolicyResult& r = row.result;
    AppendCsvField(row.label, &out);
    out.push_back(',');
    AppendCsvField(r.name, &out);
    // Doubles at nine significant digits, integers in decimal.
    for (double value : {r.unavailability, r.stats.ci95_halfwidth,
                         r.mean_unavailable_duration}) {
      out.push_back(',');
      AppendDouble(value, &out, 9);
    }
    for (std::uint64_t count :
         {static_cast<std::uint64_t>(r.num_unavailable_periods),
          r.accesses_attempted, r.accesses_granted, r.messages.Total(),
          r.messages.ControlTotal(), r.messages.count(MessageKind::kFileCopy),
          r.dual_majority_instants}) {
      out.push_back(',');
      AppendDecimal(count, &out);
    }
    out.push_back(',');
    AppendDouble(r.measured_time, &out, 9);
    out.push_back('\n');
  }
  return out;
}

std::string ReplicatedResultsToJson(const std::string& label,
                                    const ReplicatedResults& results) {
  std::string out;
  out.reserve(512 + 400 * results.seeds.size() *
                        (results.aggregate.size() + 1));
  out.append("{\n  \"label\": ");
  AppendJsonString(label, &out);
  out.append(",\n  \"seeds\": [");
  for (std::size_t r = 0; r < results.seeds.size(); ++r) {
    if (r > 0) out.append(", ");
    AppendDecimal(results.seeds[r], &out);
  }
  out.append("],\n  \"replications\": [\n");
  for (std::size_t r = 0; r < results.per_replication.size(); ++r) {
    const std::vector<PolicyResult>& rows = results.per_replication[r];
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const PolicyResult& row = rows[p];
      out.append("    {\"replication\": ");
      AppendDecimal(r, &out);
      AppendField("seed", results.seeds[r], &out);
      out.append(", \"policy\": ");
      AppendJsonString(row.name, &out);
      AppendField("unavailability", row.unavailability, &out);
      AppendField("ci95", row.stats.ci95_halfwidth, &out);
      AppendField("mean_outage_days", row.mean_unavailable_duration, &out);
      AppendField("num_outages", row.num_unavailable_periods, &out);
      AppendField("time_to_first_outage", row.time_to_first_outage, &out);
      AppendTrafficFields(row.accesses_attempted, row.accesses_granted,
                          row.messages, row.dual_majority_instants,
                          row.measured_time, &out);
      const bool last = r + 1 == results.per_replication.size() &&
                        p + 1 == rows.size();
      out.append(last ? "\n" : ",\n");
    }
  }
  out.append("  ],\n  \"aggregate\": [\n");
  for (std::size_t p = 0; p < results.aggregate.size(); ++p) {
    const AggregatePolicyResult& agg = results.aggregate[p];
    out.append("    {\"policy\": ");
    AppendJsonString(agg.name, &out);
    AppendField("replications", agg.replications, &out);
    AppendSummary("unavailability", agg.unavailability, &out);
    AppendSummary("mean_outage_days", agg.mean_outage_duration, &out);
    AppendSummary("time_to_first_outage", agg.time_to_first_outage, &out);
    AppendField("replications_with_outages", agg.replications_with_outages,
                &out);
    AppendField("num_outages", agg.num_unavailable_periods, &out);
    AppendTrafficFields(agg.accesses_attempted, agg.accesses_granted,
                        agg.messages, agg.dual_majority_instants,
                        agg.measured_days, &out);
    out.append(p + 1 < results.aggregate.size() ? ",\n" : "\n");
  }
  out.append("  ]\n}\n");
  return out;
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for write");
  }
  out << contents;
  out.flush();
  if (!out) return Status::Internal("short write to '" + path + "'");
  return Status::OK();
}

}  // namespace dynvote
