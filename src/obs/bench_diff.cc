#include "obs/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace metaai::obs {
namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Time-like metrics get the loose wall-clock tolerance in
/// DistillBaseline (machine-dependent, only catastrophic drift fails).
/// Ratios of wall-clock measurements (speedup_*, throughput_*) are just
/// as machine-dependent even though they don't carry a time suffix.
bool IsTimeLike(std::string_view path) {
  if (path == "elapsed_s") return true;
  if (!StartsWith(path, "headlines.")) return false;
  const std::string_view key = path.substr(10);
  if (StartsWith(key, "speedup_") || StartsWith(key, "throughput_")) {
    return true;
  }
  return EndsWith(path, "_ns") || EndsWith(path, "_us") ||
         EndsWith(path, "_ms") || EndsWith(path, "_s");
}

}  // namespace

double BaselineMetric::Allowed() const {
  return abs_tol + rel_tol * std::abs(value);
}

BenchBaseline BaselineFromJson(const JsonValue& document) {
  Check(document.type == JsonValue::Type::kObject,
        "baseline document must be a JSON object");
  const JsonValue& schema = Member(document, "schema");
  Check(schema.string == "metaai.bench.baseline.v1",
        "unsupported baseline schema: " + schema.string);
  BenchBaseline baseline;
  baseline.bench = Member(document, "bench").string;
  Check(!baseline.bench.empty(), "baseline bench name is empty");
  for (const auto& [path, spec] : Member(document, "metrics").object) {
    BaselineMetric metric;
    metric.path = path;
    metric.value = Member(spec, "value").number;
    if (const JsonValue* v = spec.Find("abs_tol")) metric.abs_tol = v->number;
    if (const JsonValue* v = spec.Find("rel_tol")) metric.rel_tol = v->number;
    baseline.metrics.push_back(std::move(metric));
  }
  return baseline;
}

std::string BaselineToJson(const BenchBaseline& baseline) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"metaai.bench.baseline.v1\",\n  \"bench\": "
     << JsonString(baseline.bench) << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < baseline.metrics.size(); ++i) {
    const BaselineMetric& m = baseline.metrics[i];
    os << (i > 0 ? ",\n    " : "\n    ") << JsonString(m.path)
       << ": {\"value\": " << JsonNumber(m.value)
       << ", \"abs_tol\": " << JsonNumber(m.abs_tol)
       << ", \"rel_tol\": " << JsonNumber(m.rel_tol) << "}";
  }
  os << (baseline.metrics.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::optional<double> ExtractBenchMetric(const JsonValue& bench_document,
                                         std::string_view path) {
  auto number = [](const JsonValue* value) -> std::optional<double> {
    if (value == nullptr || value->type != JsonValue::Type::kNumber) {
      return std::nullopt;
    }
    return value->number;
  };
  if (path == "elapsed_s") return number(bench_document.Find("elapsed_s"));
  if (path.substr(0, 10) == "headlines.") {
    const JsonValue* headlines = bench_document.Find("headlines");
    if (headlines == nullptr) return std::nullopt;
    return number(headlines->Find(path.substr(10)));
  }
  // The remaining paths address the embedded metaai.obs.v1 document.
  const JsonValue* metrics = bench_document.Find("metrics");
  if (metrics == nullptr) return std::nullopt;
  if (path.substr(0, 9) == "counters.") {
    const JsonValue* counters = metrics->Find("counters");
    if (counters == nullptr) return std::nullopt;
    return number(counters->Find(path.substr(9)));
  }
  if (path.substr(0, 7) == "gauges.") {
    const JsonValue* gauges = metrics->Find("gauges");
    if (gauges == nullptr) return std::nullopt;
    return number(gauges->Find(path.substr(7)));
  }
  if (path.substr(0, 11) == "histograms.") {
    std::string_view rest = path.substr(11);
    std::string_view field;
    for (std::string_view candidate : {".count", ".sum"}) {
      if (EndsWith(rest, candidate)) {
        field = candidate.substr(1);
        rest = rest.substr(0, rest.size() - candidate.size());
        break;
      }
    }
    if (field.empty()) return std::nullopt;
    const JsonValue* histograms = metrics->Find("histograms");
    if (histograms == nullptr) return std::nullopt;
    const JsonValue* histogram = histograms->Find(rest);
    if (histogram == nullptr) return std::nullopt;
    return number(histogram->Find(field));
  }
  return std::nullopt;
}

std::string_view DiffStatusName(DiffStatus status) {
  switch (status) {
    case DiffStatus::kPass:
      return "ok";
    case DiffStatus::kRegress:
      return "REGRESS";
    case DiffStatus::kMissing:
      return "MISSING";
  }
  throw CheckError("unknown diff status");
}

bool BenchDiffReport::ok() const {
  return std::all_of(metrics.begin(), metrics.end(), [](const MetricDiff& m) {
    return m.status == DiffStatus::kPass;
  });
}

BenchDiffReport DiffBench(const BenchBaseline& baseline,
                          const JsonValue& bench_document) {
  BenchDiffReport report;
  report.bench = baseline.bench;
  for (const BaselineMetric& metric : baseline.metrics) {
    MetricDiff diff;
    diff.path = metric.path;
    diff.baseline = metric.value;
    diff.allowed = metric.Allowed();
    const std::optional<double> current =
        ExtractBenchMetric(bench_document, metric.path);
    if (!current.has_value()) {
      diff.status = DiffStatus::kMissing;
    } else {
      diff.current = *current;
      diff.status = std::abs(*current - metric.value) <= diff.allowed
                        ? DiffStatus::kPass
                        : DiffStatus::kRegress;
    }
    report.metrics.push_back(std::move(diff));
  }
  return report;
}

Table BenchDiffTable(const BenchDiffReport& report) {
  Table table("Bench diff: " + report.bench,
              {"Metric", "Baseline", "Current", "Delta", "Allowed",
               "Status"});
  for (const MetricDiff& m : report.metrics) {
    const bool missing = m.status == DiffStatus::kMissing;
    table.AddRow({m.path, FormatDouble(m.baseline, 6),
                  missing ? "-" : FormatDouble(m.current, 6),
                  missing ? "-" : FormatDouble(m.current - m.baseline, 6),
                  FormatDouble(m.allowed, 6),
                  std::string(DiffStatusName(m.status))});
  }
  return table;
}

BenchBaseline DistillBaseline(const JsonValue& bench_document) {
  const JsonValue& schema = Member(bench_document, "schema");
  Check(schema.string == "metaai.bench.v1",
        "unsupported bench schema: " + schema.string);
  BenchBaseline baseline;
  baseline.bench = Member(bench_document, "bench").string;

  auto add = [&](std::string path, double value, double abs_tol,
                 double rel_tol) {
    baseline.metrics.push_back(
        {std::move(path), value, abs_tol, rel_tol});
  };
  auto add_default = [&](std::string path, double value) {
    if (IsTimeLike(path)) {
      // Wall clock: only a ~10x blowup fails.
      add(std::move(path), value, /*abs_tol=*/1.0, /*rel_tol=*/9.0);
    } else {
      add(std::move(path), value, /*abs_tol=*/1e-9, /*rel_tol=*/1e-6);
    }
  };

  if (const JsonValue* elapsed = bench_document.Find("elapsed_s")) {
    add("elapsed_s", elapsed->number, /*abs_tol=*/2.0, /*rel_tol=*/9.0);
  }
  if (const JsonValue* headlines = bench_document.Find("headlines")) {
    for (const auto& [key, value] : headlines->object) {
      add_default("headlines." + key, value.number);
    }
  }
  if (const JsonValue* metrics = bench_document.Find("metrics")) {
    if (const JsonValue* counters = metrics->Find("counters")) {
      for (const auto& [name, value] : counters->object) {
        add("counters." + name, value.number, 0.0, 0.0);
      }
    }
    if (const JsonValue* gauges = metrics->Find("gauges")) {
      for (const auto& [name, value] : gauges->object) {
        add_default("gauges." + name, value.number);
      }
    }
    if (const JsonValue* histograms = metrics->Find("histograms")) {
      for (const auto& [name, histogram] : histograms->object) {
        add("histograms." + name + ".count",
            Member(histogram, "count").number, 0.0, 0.0);
        add_default("histograms." + name + ".sum",
                    Member(histogram, "sum").number);
      }
    }
  }
  std::sort(baseline.metrics.begin(), baseline.metrics.end(),
            [](const BaselineMetric& a, const BaselineMetric& b) {
              return a.path < b.path;
            });
  return baseline;
}

}  // namespace metaai::obs
