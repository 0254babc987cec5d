#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/check.h"
#include "obs/export.h"
#include "obs/tracer.h"

namespace metaai::obs {
namespace {

// A small nested trace driven by ManualClock:
//   ota.evaluate [0, 1000ns) depth 0, args {samples: 2}
//     ota.round  [100, 400ns) depth 1, args {round: 0}
//     ota.round  [500, 900ns) depth 1, args {round: 1}
void RecordNestedTrace(Tracer& tracer, ManualClock& clock) {
  const std::size_t outer = tracer.BeginSpan("ota.evaluate");
  tracer.AddSpanArg(outer, "samples", 2.0);
  clock.AdvanceNs(100);
  for (int round = 0; round < 2; ++round) {
    const std::size_t inner = tracer.BeginSpan("ota.round");
    tracer.AddSpanArg(inner, "round", static_cast<double>(round));
    clock.AdvanceNs(round == 0 ? 300 : 400);
    tracer.EndSpan(inner);
    clock.AdvanceNs(100);
  }
  clock.SetNs(1000);
  tracer.EndSpan(outer);
}

TEST(ChromeTraceTest, ManualClockTraceMatchesGoldenBytes) {
  ManualClock clock;
  Tracer tracer(&clock);
  RecordNestedTrace(tracer, clock);
  // Spans appear in begin order; timestamps/durations are microseconds.
  const std::string golden =
      "[\n"
      " {\"name\": \"ota.evaluate\", \"ph\": \"X\", \"ts\": 0, \"dur\": 1,"
      " \"pid\": 0, \"tid\": 0, \"args\": {\"depth\": 0, \"samples\": 2}},\n"
      " {\"name\": \"ota.round\", \"ph\": \"X\","
      " \"ts\": 0.10000000000000001,"
      " \"dur\": 0.29999999999999999, \"pid\": 0, \"tid\": 0,"
      " \"args\": {\"depth\": 1, \"round\": 0}},\n"
      " {\"name\": \"ota.round\", \"ph\": \"X\", \"ts\": 0.5,"
      " \"dur\": 0.40000000000000002, \"pid\": 0, \"tid\": 0,"
      " \"args\": {\"depth\": 1, \"round\": 1}}\n"
      "]\n";
  EXPECT_EQ(ToChromeTrace(tracer), golden);
}

TEST(ChromeTraceTest, IdenticalRunsSerializeIdentically) {
  auto render = [] {
    ManualClock clock;
    Tracer tracer(&clock);
    RecordNestedTrace(tracer, clock);
    return ToChromeTrace(tracer);
  };
  EXPECT_EQ(render(), render());
}

TEST(ChromeTraceTest, OutputIsAValidJsonArrayOfEvents) {
  ManualClock clock;
  Tracer tracer(&clock);
  RecordNestedTrace(tracer, clock);
  const JsonValue document = ParseJson(ToChromeTrace(tracer));
  ASSERT_EQ(document.type, JsonValue::Type::kArray);
  ASSERT_EQ(document.array.size(), 3u);
  for (const JsonValue& event : document.array) {
    const std::string& ph = event.Find("ph")->string;
    EXPECT_TRUE(ph == "X" || ph == "B");
    EXPECT_NE(event.Find("name"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("args")->Find("depth"), nullptr);
  }
  EXPECT_DOUBLE_EQ(
      document.array[0].Find("args")->Find("samples")->number, 2.0);
}

TEST(ChromeTraceTest, OpenSpansBecomeBeginEvents) {
  ManualClock clock;
  Tracer tracer(&clock);
  clock.SetNs(2000);
  tracer.BeginSpan("still.running");  // never ended
  const JsonValue document = ParseJson(ToChromeTrace(tracer));
  ASSERT_EQ(document.array.size(), 1u);
  const JsonValue& event = document.array[0];
  EXPECT_EQ(event.Find("ph")->string, "B");
  EXPECT_DOUBLE_EQ(event.Find("ts")->number, 2.0);
  EXPECT_EQ(event.Find("dur"), nullptr);
}

TEST(ChromeTraceTest, EmptyTracerIsAnEmptyArray) {
  Tracer tracer;
  EXPECT_EQ(ToChromeTrace(tracer), "[]\n");
}

TEST(ChromeTraceTest, WriteChromeTraceFileRoundTrips) {
  ManualClock clock;
  Tracer tracer(&clock);
  RecordNestedTrace(tracer, clock);
  const std::string path = ::testing::TempDir() + "metaai_trace.json";
  ASSERT_TRUE(WriteTextFile(path, ToChromeTrace(tracer)));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), ToChromeTrace(tracer));
}

TEST(TracerThreadContractTest, WorkerSpansGetTheirOwnBufferAndTid) {
  ManualClock clock;
  Tracer tracer(&clock);
  const std::size_t span = tracer.BeginSpan("owner.work");
  tracer.EndSpan(span);
  std::thread worker([&tracer] {
    const std::size_t mine = tracer.BeginSpan("worker.work");
    tracer.EndSpan(mine);
    // Index 0 is valid in *this thread's* buffer, independent of the
    // owner having recorded its own span 0.
    tracer.AddSpanArg(mine, "k", 1.0);
  });
  worker.join();
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Merged view groups by thread in registration order: the first
  // recording thread is tid 0, the worker tid 1.
  EXPECT_EQ(spans[0].name, "owner.work");
  EXPECT_EQ(spans[0].tid, 0);
  EXPECT_EQ(spans[1].name, "worker.work");
  EXPECT_EQ(spans[1].tid, 1);
  EXPECT_EQ(spans[1].depth, 0);  // depth is tracked per thread
  ASSERT_EQ(spans[1].args.size(), 1u);
  // Clear drops registrations too: the next thread to record is tid 0.
  tracer.Clear();
  std::thread adopter([&tracer] {
    const std::size_t adopted = tracer.BeginSpan("adopted");
    tracer.EndSpan(adopted);
  });
  adopter.join();
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].tid, 0);
}

TEST(TracerThreadContractTest, CrossThreadSpansExportAsValidChromeTrace) {
  ManualClock clock;
  Tracer tracer(&clock);
  const std::size_t outer = tracer.BeginSpan("main.outer");
  std::thread worker([&tracer, &clock] {
    clock.AdvanceNs(100);
    const std::size_t inner = tracer.BeginSpan("worker.inner");
    clock.AdvanceNs(50);
    tracer.EndSpan(inner);
  });
  worker.join();
  clock.SetNs(500);
  tracer.EndSpan(outer);
  const JsonValue document = ParseJson(ToChromeTrace(tracer));
  ASSERT_EQ(document.type, JsonValue::Type::kArray);
  ASSERT_EQ(document.array.size(), 2u);
  EXPECT_DOUBLE_EQ(document.array[0].Find("tid")->number, 0.0);
  EXPECT_DOUBLE_EQ(document.array[1].Find("tid")->number, 1.0);
}

}  // namespace
}  // namespace metaai::obs
