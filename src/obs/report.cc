#include "obs/report.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "obs/alerts.h"
#include "obs/export.h"
#include "obs/lifecycle.h"
#include "obs/timeseries.h"

namespace metaai::obs {
namespace {

std::string Us(double seconds) { return FormatDouble(seconds * 1e6, 3); }

/// Count-gated percentile cell: an empty digest has no percentile, so
/// render "n/a" instead of a fabricated 0.000 (the historical bug made
/// an idle tenant look infinitely fast).
std::string UsCell(const TailDigest& digest, double seconds) {
  return digest.count == 0 ? "n/a" : Us(seconds);
}

/// Per-tenant aggregation of a request log.
struct TenantRow {
  std::size_t served = 0;
  bool cache_hit = false;
  double slo_s = 0.0;
  std::size_t slo_within = 0;
  std::size_t slo_violations = 0;
  std::vector<double> latencies;
  double energy_j = 0.0;
};

void RenderRequests(const std::string& requests_jsonl, std::ostream& os) {
  const RequestLog log = ParseRequestsJsonl(requests_jsonl);
  const StageTails tails = DigestStages(log.traces);

  Table stages("Stage latency over " + std::to_string(log.traces.size()) +
                   " served requests",
               {"stage", "p50_us", "p99_us", "p999_us"});
  for (std::size_t s = 0; s < kNumRequestStages; ++s) {
    const TailDigest& d = tails.stage[s];
    stages.AddRow({std::string(RequestStageName(static_cast<RequestStage>(s))),
                   UsCell(d, d.p50), UsCell(d, d.p99), UsCell(d, d.p999)});
  }
  stages.AddRow({"end_to_end", UsCell(tails.latency, tails.latency.p50),
                 UsCell(tails.latency, tails.latency.p99),
                 UsCell(tails.latency, tails.latency.p999)});
  os << stages.ToString() << '\n';

  std::vector<TenantRow> tenants(log.tenants.size());
  double energy_total_j = 0.0;
  std::size_t within = 0;
  std::size_t violations = 0;
  for (const RequestTrace& trace : log.traces) {
    TenantRow& row = tenants[trace.tenant];
    ++row.served;
    row.cache_hit = row.cache_hit || trace.cache_hit;
    row.slo_s = trace.slo_s;
    if (trace.SloViolated()) {
      ++row.slo_violations;
      ++violations;
    } else {
      ++row.slo_within;
      ++within;
    }
    row.latencies.push_back(trace.Latency());
    row.energy_j += trace.energy_j;
    energy_total_j += trace.energy_j;
  }

  Table per_tenant("Per-tenant serving",
                   {"tenant", "served", "cache", "slo_ms", "within",
                    "violations", "p50_us", "p99_us", "p999_us", "energy_uj"});
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantRow& row = tenants[t];
    const TailDigest digest = DigestTails(row.latencies);
    per_tenant.AddRow({log.tenants[t], std::to_string(row.served),
                       row.cache_hit ? "hit" : "solve",
                       FormatDouble(row.slo_s * 1e3, 3),
                       std::to_string(row.slo_within),
                       std::to_string(row.slo_violations),
                       UsCell(digest, digest.p50), UsCell(digest, digest.p99),
                       UsCell(digest, digest.p999),
                       FormatDouble(row.energy_j * 1e6, 3)});
  }
  os << per_tenant.ToString() << '\n';

  os << "SLO: " << within << '/' << log.traces.size()
     << " within target, " << violations << " violations\n";
  const double per_inference_j =
      log.traces.empty() ? 0.0
                         : energy_total_j /
                               static_cast<double>(log.traces.size());
  os << "Energy: total " << FormatDouble(energy_total_j * 1e6, 3)
     << " uJ, per inference " << FormatDouble(per_inference_j * 1e6, 3)
     << " uJ\n\n";
}

void RenderProbes(const std::string& probes_jsonl, std::ostream& os) {
  const JsonlDocument document = ParseJsonl(probes_jsonl, "metaai.probes.v1");
  const JsonValue& header = document.header;
  const auto total = JsonInteger<std::uint64_t>(Member(header, "total"));
  const auto dropped = JsonInteger<std::uint64_t>(Member(header, "dropped"));

  std::map<std::pair<std::string, std::string>, std::size_t> counts;
  for (const JsonValue& record : document.records) {
    ++counts[{Member(record, "site").string, Member(record, "kind").string}];
  }

  Table probes("Probes (total " + std::to_string(total) + ", dropped " +
                   std::to_string(dropped) + ")",
               {"site", "kind", "count"});
  for (const auto& [key, count] : counts) {
    probes.AddRow({key.first, key.second, std::to_string(count)});
  }
  os << probes.ToString() << '\n';
}

void RenderTimeSeries(const std::string& timeseries_jsonl, std::ostream& os) {
  const std::vector<TimeSeriesPoint> points =
      ParseTimeSeriesJsonl(timeseries_jsonl);
  struct KeyStats {
    std::size_t ticks = 0;
    double min = 0.0;
    double max = 0.0;
    double last = 0.0;
  };
  std::map<std::string, KeyStats> keys;
  for (const TimeSeriesPoint& point : points) {
    for (const auto& [name, value] : point.values) {
      auto [it, inserted] = keys.try_emplace(name);
      KeyStats& stats = it->second;
      if (inserted) {
        stats.min = value;
        stats.max = value;
      }
      ++stats.ticks;
      stats.min = std::min(stats.min, value);
      stats.max = std::max(stats.max, value);
      stats.last = value;
    }
  }
  Table series("Time series (" + std::to_string(points.size()) + " ticks)",
               {"key", "ticks", "min", "max", "last"});
  for (const auto& [name, stats] : keys) {
    series.AddRow({name, std::to_string(stats.ticks),
                   FormatDouble(stats.min, 4), FormatDouble(stats.max, 4),
                   FormatDouble(stats.last, 4)});
  }
  os << series.ToString() << '\n';
}

void RenderAlerts(const std::string& alerts_jsonl, std::ostream& os) {
  const std::vector<health::Alert> alerts =
      health::AlertsFromJsonl(alerts_jsonl);
  std::size_t critical = 0;
  std::size_t drift = 0;
  for (const health::Alert& alert : alerts) {
    if (alert.severity == health::AlertSeverity::kCritical) ++critical;
    if (alert.kind == health::AlertKind::kDriftDetected) ++drift;
  }
  Table table("Alerts (" + std::to_string(alerts.size()) + " total, " +
                  std::to_string(critical) + " critical, " +
                  std::to_string(drift) + " drift)",
              {"seq", "t_s", "severity", "kind", "rule", "signal", "value",
               "threshold", "tenant"});
  for (const health::Alert& alert : alerts) {
    table.AddRow({std::to_string(alert.seq), FormatDouble(alert.t_s, 4),
                  std::string(health::AlertSeverityName(alert.severity)),
                  std::string(health::AlertKindName(alert.kind)), alert.rule,
                  alert.signal, FormatDouble(alert.value, 4),
                  FormatDouble(alert.threshold, 4),
                  std::to_string(alert.tenant)});
  }
  os << table.ToString() << '\n';
}

}  // namespace

std::string RenderObsReport(const ObsReportInputs& inputs) {
  std::ostringstream os;
  os << "metaai obs report\n\n";
  if (!inputs.requests_jsonl.empty()) RenderRequests(inputs.requests_jsonl, os);
  if (!inputs.timeseries_jsonl.empty()) {
    RenderTimeSeries(inputs.timeseries_jsonl, os);
  }
  if (!inputs.alerts_jsonl.empty()) RenderAlerts(inputs.alerts_jsonl, os);
  if (!inputs.metrics_json.empty()) {
    const RegistrySnapshot snapshot =
        SnapshotFromJson(ParseJson(inputs.metrics_json));
    os << SummaryTable(snapshot).ToString() << '\n';
  }
  if (!inputs.probes_jsonl.empty()) RenderProbes(inputs.probes_jsonl, os);
  return os.str();
}

}  // namespace metaai::obs
