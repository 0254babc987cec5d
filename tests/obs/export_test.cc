#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace metaai::obs {
namespace {

Registry& FilledRegistry(Registry& registry) {
  registry.GetCounter("ota.rounds").Add(40);
  registry.GetCounter("solver.calls").Add(7);
  registry.GetGauge("train.loss").Set(0.125);
  registry.GetGauge("ota.accuracy").Set(0.875);
  Histogram& h = registry.GetHistogram(
      "solver.sweeps_per_solve", HistogramSpec::Linear(0.0, 4.0, 4));
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(2.0);
  h.Observe(9.0);  // overflow
  return registry;
}

TEST(JsonExportTest, RoundTripMatchesRegistryState) {
  Registry registry;
  const std::string json = ToJson(FilledRegistry(registry).Snapshot());
  const JsonValue document = ParseJson(json);
  EXPECT_EQ(document.Find("schema")->string, "metaai.obs.v1");
  // The parsed document rebuilds the exact snapshot we serialized.
  EXPECT_EQ(SnapshotFromJson(document), registry.Snapshot());
}

TEST(JsonExportTest, IdenticalSnapshotsSerializeIdentically) {
  Registry a;
  Registry b;
  EXPECT_EQ(ToJson(FilledRegistry(a).Snapshot()),
            ToJson(FilledRegistry(b).Snapshot()));
}

TEST(JsonExportTest, SpansAppearOnlyWithATracer) {
  Registry registry;
  ManualClock clock;
  Tracer tracer(&clock);
  const std::size_t span = tracer.BeginSpan("unit.work");
  clock.AdvanceNs(42);
  tracer.EndSpan(span);

  const std::string without = ToJson(registry.Snapshot());
  EXPECT_EQ(without.find("\"spans\""), std::string::npos);

  const std::string with = ToJson(registry.Snapshot(), &tracer);
  const JsonValue document = ParseJson(with);
  const JsonValue* spans = document.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 1u);
  EXPECT_EQ(spans->array[0].Find("name")->string, "unit.work");
  EXPECT_DOUBLE_EQ(spans->array[0].Find("duration_ns")->number, 42.0);
  EXPECT_DOUBLE_EQ(spans->array[0].Find("depth")->number, 0.0);
}

TEST(JsonExportTest, EscapesSpecialCharacters) {
  Registry registry;
  registry.GetCounter("weird\"name\\with\nstuff").Add(1);
  const std::string json = ToJson(registry.Snapshot());
  const JsonValue document = ParseJson(json);
  ASSERT_EQ(document.Find("counters")->object.size(), 1u);
  EXPECT_EQ(document.Find("counters")->object[0].first,
            "weird\"name\\with\nstuff");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_THROW(ParseJson("{"), CheckError);
  EXPECT_THROW(ParseJson("[1, 2,]"), CheckError);
  EXPECT_THROW(ParseJson("{\"a\": 1} trailing"), CheckError);
  EXPECT_THROW(ParseJson("{'single': 1}"), CheckError);
}

TEST(JsonParserTest, ParsesScalarsAndNesting) {
  const JsonValue v = ParseJson(
      "{\"b\": true, \"n\": null, \"x\": -1.5e2, \"a\": [1, {\"k\": \"v\"}]}");
  EXPECT_TRUE(v.Find("b")->boolean);
  EXPECT_EQ(v.Find("n")->type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(v.Find("x")->number, -150.0);
  ASSERT_EQ(v.Find("a")->array.size(), 2u);
  EXPECT_EQ(v.Find("a")->array[1].Find("k")->string, "v");
}

TEST(CsvExportTest, OneRowPerInstrument) {
  Registry registry;
  const std::string csv = ToCsv(FilledRegistry(registry).Snapshot());
  EXPECT_NE(csv.find("name,kind,value,count,sum,p50,p95"), std::string::npos);
  EXPECT_NE(csv.find("ota.rounds,counter,40"), std::string::npos);
  EXPECT_NE(csv.find("train.loss,gauge,0.125"), std::string::npos);
  EXPECT_NE(csv.find("solver.sweeps_per_solve,histogram,,4,14"),
            std::string::npos);
}

TEST(SummaryTableTest, ListsEveryInstrument) {
  Registry registry;
  const Table table = SummaryTable(FilledRegistry(registry).Snapshot());
  // 2 counters + 2 gauges + 1 histogram.
  EXPECT_EQ(table.row_count(), 5u);
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("solver.sweeps_per_solve"), std::string::npos);
  EXPECT_NE(rendered.find("histogram"), std::string::npos);
}

TEST(JsonExportTest, WriteJsonFileRoundTrips) {
  Registry registry;
  const std::string json = ToJson(FilledRegistry(registry).Snapshot());
  const std::string path = ::testing::TempDir() + "metaai_obs_export.json";
  ASSERT_TRUE(WriteTextFile(path, json));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json);
  EXPECT_EQ(SnapshotFromJson(ParseJson(buffer.str())), registry.Snapshot());
}

TEST(WriteTextFileTest, ReplacesContentsAndReportsUnwritablePaths) {
  const std::string path = ::testing::TempDir() + "metaai_obs_rewrite.txt";
  ASSERT_TRUE(WriteTextFile(path, "a longer first body\n"));
  // Rewriting replaces the old contents instead of appending.
  ASSERT_TRUE(WriteTextFile(path, "short\n"));
  std::ifstream in(path, std::ios::binary);
  std::stringstream rewritten;
  rewritten << in.rdbuf();
  EXPECT_EQ(rewritten.str(), "short\n");

  EXPECT_FALSE(WriteTextFile(
      ::testing::TempDir() + "no/such/dir/metaai_obs_export.json", "x"));
}

TEST(JsonReaderTest, RejectsNestingDeeperThanMaxDepth) {
  // A million levels used to recurse the parser off the stack.
  constexpr std::size_t kLevels = 1'000'000;
  EXPECT_THROW(ParseJson(std::string(kLevels, '[')), CheckError);
  EXPECT_THROW(ParseJson(std::string(kLevels, '[') + std::string(kLevels, ']')),
               CheckError);
  std::string objects;
  for (std::size_t i = 0; i < kLevels; ++i) objects += "{\"a\":";
  EXPECT_THROW(ParseJson(objects), CheckError);

  // Exactly kMaxJsonDepth levels still parse; one more does not.
  const std::string deepest = std::string(kMaxJsonDepth, '[') +
                              std::string(kMaxJsonDepth, ']');
  EXPECT_NO_THROW(ParseJson(deepest));
  EXPECT_THROW(ParseJson("[" + deepest + "]"), CheckError);
}

TEST(JsonReaderTest, RejectsNonHexUnicodeEscapes) {
  EXPECT_EQ(ParseJson("\"\\u0041\\u001f\"").string, "A\x1f");
  EXPECT_EQ(ParseJson("\"\\u004A\"").string, "J");
  EXPECT_THROW(ParseJson("\"\\u00zz\""), CheckError);
  EXPECT_THROW(ParseJson("\"\\u-001\""), CheckError);
  EXPECT_THROW(ParseJson("\"\\u 0041\""), CheckError);
  EXPECT_THROW(ParseJson("\"\\u004\""), CheckError);
}

TEST(JsonReaderTest, IntegerFieldsRejectNegativeFractionalAndInfinite) {
  EXPECT_EQ(JsonInteger<std::uint64_t>(ParseJson("42")), 42u);
  EXPECT_EQ(JsonInteger<std::int32_t>(ParseJson("-1")), -1);
  EXPECT_EQ(JsonInteger<std::uint32_t>(ParseJson("4294967295")),
            4294967295u);
  EXPECT_THROW(JsonInteger<std::uint64_t>(ParseJson("-1")), CheckError);
  EXPECT_THROW(JsonInteger<std::uint64_t>(ParseJson("0.5")), CheckError);
  EXPECT_THROW(JsonInteger<std::uint64_t>(ParseJson("1e999")), CheckError);
  EXPECT_THROW(JsonInteger<std::int32_t>(ParseJson("-1e999")), CheckError);
  EXPECT_THROW(JsonInteger<std::uint64_t>(ParseJson("18446744073709551616")),
               CheckError);
  EXPECT_THROW(JsonInteger<std::uint32_t>(ParseJson("4294967296")),
               CheckError);
  EXPECT_THROW(JsonInteger<std::int32_t>(ParseJson("2147483648")),
               CheckError);
  EXPECT_THROW(JsonInteger<std::uint64_t>(ParseJson("\"7\"")), CheckError);

  // Counters go through the same check.
  EXPECT_THROW(SnapshotFromJson(ParseJson(
                   R"({"schema":"metaai.obs.v1","counters":{"c":-3},)"
                   R"("gauges":{},"histograms":{}})")),
               CheckError);
}

TEST(JsonReaderTest, SnapshotRejectsMisshapenHistograms) {
  auto snapshot = [](const std::string& histogram) {
    return SnapshotFromJson(ParseJson(
        R"({"schema":"metaai.obs.v1","counters":{},"gauges":{},)"
        R"("histograms":{"h":)" + histogram + "}}"));
  };
  const RegistrySnapshot good = snapshot(
      R"({"lower":0,"upper_edges":[1,2],"bucket_counts":[1,0,2],)"
      R"("count":3,"sum":7})");
  ASSERT_EQ(good.histograms.size(), 1u);
  EXPECT_EQ(good.histograms[0].second.count, 3u);
  // Too many buckets: Percentile would read past upper_edges.
  EXPECT_THROW(snapshot(R"({"lower":0,"upper_edges":[1],)"
                        R"("bucket_counts":[0,0,5],"count":5,"sum":1})"),
               CheckError);
  // No edges and no buckets: Percentile would call back() on nothing.
  EXPECT_THROW(snapshot(R"({"lower":0,"upper_edges":[],)"
                        R"("bucket_counts":[],"count":5,"sum":1})"),
               CheckError);
  // count disagrees with the buckets.
  EXPECT_THROW(snapshot(R"({"lower":0,"upper_edges":[1],)"
                        R"("bucket_counts":[1,1],"count":3,"sum":1})"),
               CheckError);
  EXPECT_THROW(snapshot(R"({"lower":0,"upper_edges":[1],"bucket_counts":)"
                        R"([18446744073709549568,18446744073709549568],)"
                        R"("count":0,"sum":1})"),
               CheckError);
}

TEST(JsonlReaderTest, FramesHeaderAndRecords) {
  const JsonlDocument document =
      ParseJsonl("{\"schema\":\"s.v1\",\"count\":2}\n{\"a\":1}\n[]\n", "s.v1");
  EXPECT_EQ(document.header.Find("count")->number, 2.0);
  ASSERT_EQ(document.records.size(), 2u);
  EXPECT_EQ(document.records[0].Find("a")->number, 1.0);
  EXPECT_EQ(document.records[1].type, JsonValue::Type::kArray);
  // No trailing newline, no count: the count check is skipped.
  EXPECT_EQ(ParseJsonl("{\"schema\":\"s.v1\"}\n{}", "s.v1").records.size(),
            1u);

  EXPECT_THROW(ParseJsonl("", "s.v1"), CheckError);
  EXPECT_THROW(ParseJsonl("{\"schema\":\"other\"}\n", "s.v1"), CheckError);
  EXPECT_THROW(ParseJsonl("{\"schema\":\"s.v1\",\"count\":1}\n", "s.v1"),
               CheckError);
  EXPECT_THROW(ParseJsonl("{\"schema\":\"s.v1\",\"count\":-1}\n", "s.v1"),
               CheckError);
  EXPECT_THROW(ParseJsonl("{\"schema\":\"s.v1\"}\n{\n", "s.v1"), CheckError);
}

TEST(JsonReaderTest, MemberNamesTheMissingKey) {
  const JsonValue object = ParseJson(R"({"present": 1})");
  EXPECT_EQ(Member(object, "present").number, 1.0);
  try {
    Member(object, "absent");
    FAIL() << "Member should throw on a missing key";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("absent"), std::string::npos);
  }
}

}  // namespace
}  // namespace metaai::obs
