#include "obs/report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "obs/lifecycle.h"
#include "obs/timeseries.h"

namespace metaai::obs {
namespace {

RequestLog SmallLog() {
  RequestLog log;
  log.tenants = {"alpha", "beta"};
  RequestTrace ok;
  ok.id = 0;
  ok.tenant = 0;
  ok.slo_s = 0.05;
  ok.stage(RequestStage::kAirtime) = 2.56e-3;
  ok.energy_j = 4.1e-3;
  RequestTrace late;
  late.id = 1;
  late.tenant = 1;
  late.cache_hit = true;
  late.slo_s = 1e-3;
  late.stage(RequestStage::kQueueWait) = 4e-3;
  late.stage(RequestStage::kAirtime) = 2.56e-3;
  late.energy_j = 4.1e-3;
  log.traces = {ok, late};
  return log;
}

TEST(ObsReportTest, EmptyInputsRenderJustTheBanner) {
  EXPECT_EQ(RenderObsReport({}), "metaai obs report\n\n");
}

TEST(ObsReportTest, IdenticalInputsRenderIdenticalBytes) {
  ObsReportInputs inputs;
  inputs.requests_jsonl = ToRequestsJsonl(SmallLog());
  const std::vector<TimeSeriesPoint> series = {
      {.t_s = 1e-3, .values = {{"queue_depth", 2.0}, {"admitted", 3.0}}}};
  inputs.timeseries_jsonl = ToTimeSeriesJsonl(series);
  const std::string first = RenderObsReport(inputs);
  const std::string second = RenderObsReport(inputs);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("metaai obs report"), std::string::npos);
}

TEST(ObsReportTest, RequestSectionAccountsSloAndEnergy) {
  ObsReportInputs inputs;
  inputs.requests_jsonl = ToRequestsJsonl(SmallLog());
  const std::string report = RenderObsReport(inputs);
  // One of the two traces busts its 1 ms target.
  EXPECT_NE(report.find("SLO: 1/2 within target, 1 violations"),
            std::string::npos);
  EXPECT_NE(report.find("per inference 4100.000 uJ"), std::string::npos);
  // Both tenants get a row, with the cache provenance spelled out.
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);
  EXPECT_NE(report.find("solve"), std::string::npos);
  EXPECT_NE(report.find("hit"), std::string::npos);
}

TEST(ObsReportTest, MalformedInputsThrow) {
  ObsReportInputs bad_requests;
  bad_requests.requests_jsonl = "not a jsonl document";
  EXPECT_THROW(RenderObsReport(bad_requests), CheckError);

  ObsReportInputs bad_series;
  bad_series.timeseries_jsonl = "{\"schema\":\"metaai.requests.v1\"}\n";
  EXPECT_THROW(RenderObsReport(bad_series), CheckError);

  ObsReportInputs bad_probes;
  bad_probes.probes_jsonl = "{\"schema\":\"metaai.probes.v1\"}\n";
  EXPECT_THROW(RenderObsReport(bad_probes), CheckError);
}

TEST(ProbeJsonlTest, ReportRejectsNonIntegralHeaderTotals) {
  for (const char* total : {"-1", "0.5", "1e999"}) {
    ObsReportInputs inputs;
    inputs.probes_jsonl = std::string(
                              "{\"schema\":\"metaai.probes.v1\","
                              "\"capacity\":4,\"total\":") +
                          total + ",\"dropped\":0}\n";
    EXPECT_THROW(RenderObsReport(inputs), CheckError) << total;
  }
  ObsReportInputs ok;
  ok.probes_jsonl =
      "{\"schema\":\"metaai.probes.v1\",\"capacity\":4,\"total\":1,"
      "\"dropped\":0}\n"
      "{\"seq\":0,\"kind\":\"evm\",\"site\":\"x\",\"values\":{}}\n";
  EXPECT_NE(RenderObsReport(ok).find("Probes (total 1, dropped 0)"),
            std::string::npos);
}

TEST(ObsReportTest, MetricsWithMisshapenHistogramThrow) {
  // Used to read past upper_edges inside Percentile.
  ObsReportInputs inputs;
  inputs.metrics_json =
      R"({"schema":"metaai.obs.v1","counters":{},"gauges":{},"histograms":)"
      R"({"h":{"lower":0,"upper_edges":[],"bucket_counts":[0,0,4],)"
      R"("count":4,"sum":1}}})";
  EXPECT_THROW(RenderObsReport(inputs), CheckError);
}

TEST(JsonReaderTest, ReportRejectsDeeplyNestedMetrics) {
  // A metrics.json nested two million levels deep used to segfault the
  // obs report tool.
  ObsReportInputs inputs;
  inputs.metrics_json = std::string(2'000'000, '[');
  EXPECT_THROW(RenderObsReport(inputs), CheckError);
}

}  // namespace
}  // namespace metaai::obs
