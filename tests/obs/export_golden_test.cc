// Byte goldens for every telemetry serializer: one fixed small input per
// format, pinned by an FNV-1a digest of the exported text (or the exact
// text where it is short enough to read). A change to any exported byte
// — spacing, number formatting, escaping, field order — fails here
// before it reaches a committed baseline or a downstream reader.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/alerts.h"
#include "obs/export.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "testutil/fnv1a.h"

namespace metaai::obs {
namespace {

std::uint64_t Digest(const std::string& text) {
  testutil::Fnv1a fnv;
  fnv.Add(text);
  return fnv.value();
}

RegistrySnapshot GoldenSnapshot() {
  Registry registry;
  registry.GetCounter("ota.rounds").Add(40);
  registry.GetCounter("weird\"name\\with\nstuff").Add(1);
  registry.GetGauge("train.loss").Set(0.125);
  registry.GetGauge("ota.accuracy").Set(1.0 / 3.0);
  registry.GetGauge("big").Set(1e15);
  Histogram& h = registry.GetHistogram("solver.sweeps_per_solve",
                                       HistogramSpec::Linear(0.0, 4.0, 4));
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(2.5);
  h.Observe(9.0);  // overflow bucket
  return registry.Snapshot();
}

// Two nested closed spans with args plus one span left open.
void RecordSpans(Tracer& tracer, ManualClock& clock) {
  const std::size_t outer = tracer.BeginSpan("ota.evaluate");
  tracer.AddSpanArg(outer, "samples", 2.0);
  clock.AdvanceNs(150);
  const std::size_t inner = tracer.BeginSpan("ota.round");
  tracer.AddSpanArg(inner, "round", 0.0);
  clock.AdvanceNs(333);
  tracer.EndSpan(inner);
  clock.AdvanceNs(17);
  tracer.EndSpan(outer);
  tracer.BeginSpan("still.open");
}

TEST(ObsExportGoldenTest, MetricsJsonWithSpans) {
  ManualClock clock;
  Tracer tracer(&clock);
  RecordSpans(tracer, clock);
  EXPECT_EQ(Digest(ToJson(GoldenSnapshot(), &tracer)),
            0x1d8a03e76fae9c42ull);
  EXPECT_EQ(Digest(ToJson(GoldenSnapshot())), 0x3883c43dac71bb44ull);
  EXPECT_EQ(ToJson(RegistrySnapshot{}),
            "{\n  \"schema\": \"metaai.obs.v1\",\n  \"counters\": {},\n"
            "  \"gauges\": {},\n  \"histograms\": {}\n}\n");
}

TEST(ObsExportGoldenTest, ChromeTraceWithOpenSpan) {
  ManualClock clock;
  Tracer tracer(&clock);
  RecordSpans(tracer, clock);
  EXPECT_EQ(Digest(ToChromeTrace(tracer)), 0x33cca0819d735a33ull);
}

TEST(ObsExportGoldenTest, Csv) {
  EXPECT_EQ(ToCsv(GoldenSnapshot()),
            "name,kind,value,count,sum,p50,p95\n"
            "ota.rounds,counter,40,,,,\n"
            "weird\"name\\with\nstuff,counter,1,,,,\n"
            "big,gauge,1000000000000000,,,,\n"
            "ota.accuracy,gauge,0.33333333333333331,,,,\n"
            "train.loss,gauge,0.125,,,,\n"
            "solver.sweeps_per_solve,histogram,,4,14.5,2,4\n");
}

TEST(ObsExportGoldenTest, RequestsJsonl) {
  RequestLog log;
  log.tenants = {"alpha", "be\"ta"};
  for (std::uint64_t id = 0; id < 3; ++id) {
    RequestTrace trace;
    trace.id = id;
    trace.tenant = static_cast<std::uint32_t>(id % 2);
    trace.cache_hit = id == 1;
    trace.arrival_s = static_cast<double>(id) * 1e-4;
    trace.slo_s = 0.01;
    trace.stage(RequestStage::kQueueWait) = 1e-3 / 3.0;
    trace.stage(RequestStage::kAirtime) = 2.56e-3;
    trace.stage(RequestStage::kDemod) = 1.3e-5;
    trace.energy_j = 4.1e-3;
    log.traces.push_back(trace);
  }
  EXPECT_EQ(Digest(ToRequestsJsonl(log)), 0xf9000690e1f2c6a9ull);
}

TEST(ObsExportGoldenTest, TimeSeriesJsonl) {
  const std::vector<TimeSeriesPoint> points = {
      {.t_s = 1e-3, .values = {{"queue_depth", 3.0}, {"util", 0.25}}},
      {.t_s = 6.5e-3, .values = {{"queue_depth", 0.0}, {"util", 0.1}}},
  };
  EXPECT_EQ(Digest(ToTimeSeriesJsonl(points)), 0x87e47ff101009eacull);
}

TEST(ObsExportGoldenTest, AlertsJsonl) {
  const std::vector<health::Alert> alerts = {
      {.seq = 0,
       .t_s = 0.0125,
       .kind = health::AlertKind::kThreshold,
       .severity = health::AlertSeverity::kWarning,
       .rule = "evm.ceiling",
       .signal = "evm_rms",
       .value = 0.62,
       .threshold = 0.5,
       .tenant = 0},
      {.seq = 1,
       .t_s = 0.5,
       .kind = health::AlertKind::kDriftDetected,
       .severity = health::AlertSeverity::kCritical,
       .rule = "accuracy_proxy.cusum",
       .signal = "accuracy_proxy",
       .value = 0.001,
       .threshold = 12.0,
       .tenant = -1},
  };
  EXPECT_EQ(Digest(health::ToAlertsJsonl(alerts)), 0x5706bb52ead0fc76ull);
}

TEST(ObsExportGoldenTest, ProbesJsonlWithAndWithoutSeries) {
  ProbeSink sink(2);
  sink.Add({.kind = ProbeKind::kScalar, .site = "evicted", .values = {}});
  sink.Add({.kind = ProbeKind::kEvm,
            .site = "link.transmit",
            .values = {{"evm_rms", 0.25}, {"symbols", 10.0}},
            .series = {0.1, 0.2, 1.0 / 3.0}});
  sink.Add({.kind = ProbeKind::kSyncOffset,
            .site = "sync.sample",
            .values = {{"offset_us", 3.5}}});
  EXPECT_EQ(Digest(ToProbesJsonl(sink)), 0x400d152320155ba8ull);
}

}  // namespace
}  // namespace metaai::obs
