#include "obs/probe.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace metaai::obs {
namespace {

ProbeRecord MakeRecord(int i) {
  return {.kind = ProbeKind::kScalar,
          .site = "test.site",
          .values = {{"i", static_cast<double>(i)}}};
}

TEST(ProbeSinkTest, StampsSequenceNumbersInArrivalOrder) {
  ProbeSink sink(8);
  for (int i = 0; i < 3; ++i) sink.Add(MakeRecord(i));
  const auto records = sink.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_DOUBLE_EQ(records[i].values[0].second, static_cast<double>(i));
  }
  EXPECT_EQ(sink.total(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(ProbeSinkTest, RingEvictsOldestAndCountsDrops) {
  ProbeSink sink(4);
  for (int i = 0; i < 10; ++i) sink.Add(MakeRecord(i));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto records = sink.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The survivors are the newest four, oldest first: seq 6..9.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].seq, 6u + i);
  }
}

TEST(ProbeSinkTest, ClearKeepsSequenceMonotonic) {
  ProbeSink sink(4);
  sink.Add(MakeRecord(0));
  sink.Add(MakeRecord(1));
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
  sink.Add(MakeRecord(2));
  // Sequence numbers are never reused, so post-Clear records still show
  // their true global arrival index.
  EXPECT_EQ(sink.Snapshot().front().seq, 2u);
}

TEST(ProbeSinkTest, RejectsZeroCapacity) {
  EXPECT_THROW(ProbeSink(0), CheckError);
}

TEST(ProbeKindTest, EveryKindHasAStableName) {
  EXPECT_EQ(ProbeKindName(ProbeKind::kScalar), "scalar");
  EXPECT_EQ(ProbeKindName(ProbeKind::kEvm), "evm");
  EXPECT_EQ(ProbeKindName(ProbeKind::kSubcarrierSnr), "subcarrier_snr");
  EXPECT_EQ(ProbeKindName(ProbeKind::kSyncOffset), "sync_offset");
  EXPECT_EQ(ProbeKindName(ProbeKind::kSolverSweep), "solver_sweep");
  EXPECT_EQ(ProbeKindName(ProbeKind::kPhaseConfig), "phase_config");
  EXPECT_EQ(ProbeKindName(ProbeKind::kConstellation), "constellation");
  EXPECT_EQ(ProbeKindName(ProbeKind::kSpectrum), "spectrum");
}

#if METAAI_OBS_ENABLED
TEST(ScopedProbeSinkTest, InstallsAndRestoresTheGlobalSink) {
  EXPECT_EQ(probe_sink(), nullptr);
  EXPECT_FALSE(ProbesEnabled());
  {
    ProbeSink sink;
    const ScopedProbeSink scoped(&sink);
    EXPECT_TRUE(ProbesEnabled());
    Probe(MakeRecord(7));
    EXPECT_EQ(sink.size(), 1u);
  }
  EXPECT_EQ(probe_sink(), nullptr);
  // With no sink installed, Probe is a cheap no-op.
  Probe(MakeRecord(8));
}
#else   // METAAI_OBS_ENABLED
TEST(ScopedProbeSinkTest, DisabledBuildCompilesProbesAway) {
  // ProbesEnabled() is a constant false and Probe() a no-op, but a sink
  // can still be driven directly (tools do this even in OFF builds).
  static_assert(!ProbesEnabled());
  ProbeSink sink;
  const ScopedProbeSink scoped(&sink);
  Probe(MakeRecord(7));
  EXPECT_EQ(sink.size(), 0u);
}
#endif  // METAAI_OBS_ENABLED

TEST(ProbeJsonlTest, HeaderAndRecordsValidateAndAreByteDeterministic) {
  ProbeSink sink(4);
  sink.Add({.kind = ProbeKind::kEvm,
            .site = "link.transmit",
            .values = {{"evm_rms", 0.25}, {"symbols", 10.0}},
            .series = {0.1, 0.2, 0.3}});
  sink.Add({.kind = ProbeKind::kSyncOffset,
            .site = "sync.sample",
            .values = {{"offset_us", 3.5}}});
  const std::string jsonl = ToProbesJsonl(sink);
  EXPECT_EQ(jsonl, ToProbesJsonl(sink));  // byte-deterministic

  std::istringstream lines(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue header = ParseJson(line);
  EXPECT_EQ(header.Find("schema")->string, "metaai.probes.v1");
  EXPECT_DOUBLE_EQ(header.Find("capacity")->number, 4.0);
  EXPECT_DOUBLE_EQ(header.Find("total")->number, 2.0);
  EXPECT_DOUBLE_EQ(header.Find("dropped")->number, 0.0);

  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue evm = ParseJson(line);
  EXPECT_DOUBLE_EQ(evm.Find("seq")->number, 0.0);
  EXPECT_EQ(evm.Find("kind")->string, "evm");
  EXPECT_EQ(evm.Find("site")->string, "link.transmit");
  EXPECT_DOUBLE_EQ(evm.Find("values")->Find("evm_rms")->number, 0.25);
  ASSERT_EQ(evm.Find("series")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(evm.Find("series")->array[1].number, 0.2);

  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue sync = ParseJson(line);
  EXPECT_EQ(sync.Find("kind")->string, "sync_offset");
  // Empty series are omitted, not emitted as [].
  EXPECT_EQ(sync.Find("series"), nullptr);
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(ProbeJsonlTest, WriteProbesFileRoundTrips) {
  ProbeSink sink;
  sink.Add(MakeRecord(1));
  const std::string path = ::testing::TempDir() + "metaai_probes.jsonl";
  ASSERT_TRUE(WriteTextFile(path, ToProbesJsonl(sink)));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), ToProbesJsonl(sink));
}

TEST(ProbeSinkTest, ConcurrentAddsKeepEveryRecord) {
  // The sink is the one obs surface shared by parallel bench workers;
  // hammer Add/Snapshot from several threads and check nothing is lost.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  ProbeSink sink(kThreads * kPerThread);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.Add({.kind = ProbeKind::kScalar,
                  .site = "thread." + std::to_string(t),
                  .values = {{"i", static_cast<double>(i)}}});
        if (i % 100 == 0) (void)sink.Snapshot();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(sink.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(sink.dropped(), 0u);
  const auto records = sink.Snapshot();
  for (std::uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);  // arrival order under the mutex
  }
}

}  // namespace
}  // namespace metaai::obs
