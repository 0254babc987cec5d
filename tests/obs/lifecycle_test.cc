#include "obs/lifecycle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/check.h"

namespace metaai::obs {
namespace {

RequestTrace MakeTrace(std::uint64_t id, double base) {
  RequestTrace trace;
  trace.id = id;
  trace.tenant = static_cast<std::uint32_t>(id % 2);
  trace.cache_hit = (id % 2) == 1;
  trace.arrival_s = base;
  trace.slo_s = 0.01;
  trace.stage(RequestStage::kAdmission) = base * 0.1;
  trace.stage(RequestStage::kQueueWait) = 1e-3;
  trace.stage(RequestStage::kBatching) = 2e-4;
  trace.stage(RequestStage::kAirtime) = 2.56e-3;
  trace.stage(RequestStage::kDemod) = 1.3e-5;
  trace.energy_j = 4.1e-3;
  return trace;
}

RequestLog MakeLog() {
  RequestLog log;
  log.tenants = {"alpha", "beta"};
  for (std::uint64_t id = 0; id < 5; ++id) {
    log.traces.push_back(MakeTrace(id, static_cast<double>(id) * 1e-4));
  }
  return log;
}

TEST(RequestStageTest, NamesFollowPipelineOrder) {
  EXPECT_EQ(RequestStageName(RequestStage::kAdmission), "admission");
  EXPECT_EQ(RequestStageName(RequestStage::kQueueWait), "queue_wait");
  EXPECT_EQ(RequestStageName(RequestStage::kBatching), "batching");
  EXPECT_EQ(RequestStageName(RequestStage::kSolve), "solve");
  EXPECT_EQ(RequestStageName(RequestStage::kAirtime), "airtime");
  EXPECT_EQ(RequestStageName(RequestStage::kDemod), "demod");
}

TEST(RequestTraceTest, LatencyIsExactlyTheStageSum) {
  const RequestTrace trace = MakeTrace(3, 2e-4);
  double sum = 0.0;
  for (const double stage : trace.stage_s) {
    sum += stage;
  }
  EXPECT_EQ(trace.Latency(), sum);
}

TEST(RequestTraceTest, SloVerdictUsesTheTarget) {
  RequestTrace trace = MakeTrace(0, 0.0);
  trace.slo_s = 1.0;
  EXPECT_FALSE(trace.SloViolated());
  trace.slo_s = 1e-6;
  EXPECT_TRUE(trace.SloViolated());
  // No target: never violated, whatever the latency.
  trace.slo_s = 0.0;
  EXPECT_FALSE(trace.SloViolated());
}

TEST(DigestStagesTest, DigestsEachStageAndEndToEnd) {
  const RequestLog log = MakeLog();
  const StageTails tails = DigestStages(log.traces);
  // Every trace shares the same queue_wait, so all tails collapse to it.
  const auto queue =
      tails.stage[static_cast<std::size_t>(RequestStage::kQueueWait)];
  EXPECT_EQ(queue.p50, 1e-3);
  EXPECT_EQ(queue.p999, 1e-3);
  // End-to-end p999 is the worst trace's stage sum.
  double worst = 0.0;
  for (const RequestTrace& trace : log.traces) {
    worst = std::max(worst, trace.Latency());
  }
  EXPECT_EQ(tails.latency.p999, worst);
  EXPECT_LE(tails.latency.p50, tails.latency.p999);
}

TEST(RequestsJsonlTest, RoundTripsExactly) {
  const RequestLog log = MakeLog();
  const std::string text = ToRequestsJsonl(log);
  const RequestLog parsed = ParseRequestsJsonl(text);
  EXPECT_EQ(parsed, log);
  // Serialization is canonical: re-serializing parses back to the same
  // bytes.
  EXPECT_EQ(ToRequestsJsonl(parsed), text);
}

TEST(RequestsJsonlTest, IdenticalLogsSerializeToIdenticalBytes) {
  EXPECT_EQ(ToRequestsJsonl(MakeLog()), ToRequestsJsonl(MakeLog()));
}

TEST(RequestsJsonlTest, RejectsForeignSchemasAndMalformedLines) {
  EXPECT_THROW(ParseRequestsJsonl(""), CheckError);
  EXPECT_THROW(ParseRequestsJsonl("{\"schema\":\"metaai.obs.v1\"}\n"),
               CheckError);
  std::string text = ToRequestsJsonl(MakeLog());
  text += "this is not json\n";
  EXPECT_THROW(ParseRequestsJsonl(text), CheckError);
}

TEST(RequestsJsonlTest, RejectsNegativeFractionalAndInfiniteIntegers) {
  auto one_trace = [](const std::string& count, const std::string& id,
                      const std::string& tenant) {
    return "{\"schema\":\"metaai.requests.v1\",\"tenants\":[\"a\"],"
           "\"count\":" + count + "}\n"
           "{\"id\":" + id + ",\"tenant\":" + tenant +
           ",\"cache_hit\":false,\"arrival_s\":0,\"slo_s\":0,"
           "\"stage_s\":[0,0,0,0,0,0],\"energy_j\":0}\n";
  };
  EXPECT_EQ(ParseRequestsJsonl(one_trace("1", "7", "0")).traces[0].id, 7u);
  EXPECT_THROW(ParseRequestsJsonl(one_trace("-1", "7", "0")), CheckError);
  EXPECT_THROW(ParseRequestsJsonl(one_trace("1e999", "7", "0")), CheckError);
  EXPECT_THROW(ParseRequestsJsonl(one_trace("1", "-7", "0")), CheckError);
  EXPECT_THROW(ParseRequestsJsonl(one_trace("1", "0.5", "0")), CheckError);
  EXPECT_THROW(ParseRequestsJsonl(one_trace("1", "7", "-1")), CheckError);
  EXPECT_THROW(ParseRequestsJsonl(one_trace("1", "7", "4294967296")),
               CheckError);
  EXPECT_THROW(ParseRequestsJsonl(one_trace("1", "7", "1e999")), CheckError);
}

}  // namespace
}  // namespace metaai::obs
