#include "obs/bench_diff.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "obs/export.h"
#include "testutil/bench_json.h"

namespace metaai::obs {
namespace {

using testutil::kBenchJson;

TEST(ExtractBenchMetricTest, ResolvesEveryPathKind) {
  const JsonValue document = ParseJson(kBenchJson);
  EXPECT_DOUBLE_EQ(*ExtractBenchMetric(document, "elapsed_s"), 1.5);
  EXPECT_DOUBLE_EQ(*ExtractBenchMetric(document, "headlines.accuracy"),
                   0.875);
  EXPECT_DOUBLE_EQ(*ExtractBenchMetric(document, "counters.solver.calls"),
                   7.0);
  EXPECT_DOUBLE_EQ(*ExtractBenchMetric(document, "gauges.ota.accuracy"),
                   0.875);
  EXPECT_DOUBLE_EQ(
      *ExtractBenchMetric(document, "histograms.solver.sweeps.count"), 3.0);
  EXPECT_DOUBLE_EQ(
      *ExtractBenchMetric(document, "histograms.solver.sweeps.sum"), 6.0);
}

TEST(ExtractBenchMetricTest, AbsentPathsAreNullopt) {
  const JsonValue document = ParseJson(kBenchJson);
  EXPECT_FALSE(ExtractBenchMetric(document, "headlines.missing"));
  EXPECT_FALSE(ExtractBenchMetric(document, "counters.missing"));
  EXPECT_FALSE(ExtractBenchMetric(document, "histograms.missing.count"));
  // Histogram paths must end in .count or .sum.
  EXPECT_FALSE(ExtractBenchMetric(document, "histograms.solver.sweeps"));
  EXPECT_FALSE(ExtractBenchMetric(document, "nonsense"));
}

BenchBaseline UnitBaseline() {
  BenchBaseline baseline;
  baseline.bench = "unit";
  baseline.metrics = {
      {.path = "counters.solver.calls", .value = 7.0},
      {.path = "gauges.ota.accuracy",
       .value = 0.87,
       .abs_tol = 0.01,
       .rel_tol = 0.0},
      {.path = "headlines.solve_time_ms",
       .value = 10.0,
       .abs_tol = 1.0,
       .rel_tol = 9.0},
  };
  return baseline;
}

TEST(DiffBenchTest, PassesWithinTolerance) {
  const BenchDiffReport report =
      DiffBench(UnitBaseline(), ParseJson(kBenchJson));
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.metrics.size(), 3u);
  for (const MetricDiff& m : report.metrics) {
    EXPECT_EQ(m.status, DiffStatus::kPass) << m.path;
  }
  // 12ms vs 10ms baseline is well inside 1 + 9*10.
  EXPECT_DOUBLE_EQ(report.metrics[2].allowed, 91.0);
}

TEST(DiffBenchTest, FlagsRegressionBeyondTolerance) {
  BenchBaseline baseline = UnitBaseline();
  baseline.metrics[0].value = 8.0;  // counter is exact: 7 != 8 regresses
  baseline.metrics[1].value = 0.85;  // |0.875 - 0.85| > 0.01
  const BenchDiffReport report =
      DiffBench(baseline, ParseJson(kBenchJson));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.metrics[0].status, DiffStatus::kRegress);
  EXPECT_EQ(report.metrics[1].status, DiffStatus::kRegress);
  EXPECT_EQ(report.metrics[2].status, DiffStatus::kPass);
}

TEST(DiffBenchTest, FlagsMissingMetrics) {
  BenchBaseline baseline = UnitBaseline();
  baseline.metrics.push_back({.path = "gauges.removed", .value = 1.0});
  const BenchDiffReport report =
      DiffBench(baseline, ParseJson(kBenchJson));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.metrics.back().status, DiffStatus::kMissing);
  // The table renders one row per metric with a readable status column.
  const std::string rendered = BenchDiffTable(report).ToString();
  EXPECT_NE(rendered.find("gauges.removed"), std::string::npos);
  EXPECT_NE(rendered.find("MISSING"), std::string::npos);
  EXPECT_NE(rendered.find("ok"), std::string::npos);
}

TEST(DistillBaselineTest, UsesDefaultTolerancesAndSortsPaths) {
  const BenchBaseline baseline =
      DistillBaseline(ParseJson(kBenchJson));
  EXPECT_EQ(baseline.bench, "unit");
  ASSERT_EQ(baseline.metrics.size(), 9u);
  for (std::size_t i = 1; i < baseline.metrics.size(); ++i) {
    EXPECT_LT(baseline.metrics[i - 1].path, baseline.metrics[i].path);
  }
  auto find = [&](std::string_view path) -> const BaselineMetric& {
    for (const auto& m : baseline.metrics) {
      if (m.path == path) return m;
    }
    throw CheckError("metric not distilled: " + std::string(path));
  };
  // Counters and histogram counts are exact.
  EXPECT_DOUBLE_EQ(find("counters.solver.calls").Allowed(), 0.0);
  EXPECT_DOUBLE_EQ(find("histograms.solver.sweeps.count").Allowed(), 0.0);
  // Deterministic values get the tight default.
  EXPECT_DOUBLE_EQ(find("gauges.ota.accuracy").rel_tol, 1e-6);
  EXPECT_DOUBLE_EQ(find("headlines.accuracy").rel_tol, 1e-6);
  // Time-like metrics are loose (machine-dependent) — including
  // wall-clock ratios, which carry no time-unit suffix.
  EXPECT_DOUBLE_EQ(find("elapsed_s").rel_tol, 9.0);
  EXPECT_DOUBLE_EQ(find("headlines.solve_time_ms").rel_tol, 9.0);
  EXPECT_DOUBLE_EQ(find("headlines.speedup_batched_vs_naive").rel_tol, 9.0);
  EXPECT_DOUBLE_EQ(find("headlines.throughput_batched_8t_rps").rel_tol, 9.0);
  // The distilled baseline passes against its own source document.
  EXPECT_TRUE(DiffBench(baseline, ParseJson(kBenchJson)).ok());
}

TEST(BaselineJsonTest, RoundTripsThroughToJsonAndFromJson) {
  const BenchBaseline baseline =
      DistillBaseline(ParseJson(kBenchJson));
  const std::string json = BaselineToJson(baseline);
  EXPECT_EQ(json, BaselineToJson(baseline));  // byte-deterministic
  EXPECT_EQ(BaselineFromJson(ParseJson(json)), baseline);
}

TEST(BaselineJsonTest, RejectsWrongSchema) {
  EXPECT_THROW(
      BaselineFromJson(ParseJson(R"({"schema": "metaai.obs.v1"})")),
      CheckError);
  EXPECT_THROW(DistillBaseline(ParseJson(R"({"schema": "bogus"})")),
               CheckError);
}

}  // namespace
}  // namespace metaai::obs
