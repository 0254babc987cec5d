// Seeded mutation fuzzing of every obs reader. The toolchain has no
// libFuzzer, so a fixed-seed Rng mutates committed documents (the
// obs-report test data, a bench baseline and a bench report) with byte
// flips, truncation, range deletion/duplication and punctuation
// insertion, and feeds every mutant to each reader. A reader must either
// return or throw CheckError; any other exception fails the test, and a
// crash or sanitizer report fails the run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "obs/alerts.h"
#include "obs/bench_diff.h"
#include "obs/export.h"
#include "obs/lifecycle.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "testutil/bench_json.h"
#include "testutil/mutate.h"

namespace metaai::obs {
namespace {

using testutil::Mutate;

constexpr std::size_t kMutantsPerSeed = 1500;

std::string ReadSourceFile(const std::string& relative) {
  std::ifstream in(std::string(METAAI_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << relative;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `read`; returns true when it returned, false when it threw
/// CheckError, and records a failure for anything else.
template <typename Fn>
bool ReturnsOrThrowsCheckError(const char* reader, const std::string& input,
                               Fn&& read) {
  try {
    read();
    return true;
  } catch (const CheckError&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << reader << " threw a non-CheckError (" << error.what()
                  << ") on input:\n"
                  << input;
  } catch (...) {
    ADD_FAILURE() << reader << " threw a non-exception on input:\n" << input;
  }
  return false;
}

/// Which ObsReportInputs slot a seed document belongs in.
enum class Slot { kMetrics, kProbes, kTimeSeries, kRequests, kAlerts };

struct Seed {
  const char* name;
  std::string text;
  Slot slot;
};

std::string& SlotOf(ObsReportInputs& inputs, Slot slot) {
  switch (slot) {
    case Slot::kMetrics:
      return inputs.metrics_json;
    case Slot::kProbes:
      return inputs.probes_jsonl;
    case Slot::kTimeSeries:
      return inputs.timeseries_jsonl;
    case Slot::kRequests:
      return inputs.requests_jsonl;
    case Slot::kAlerts:
      return inputs.alerts_jsonl;
  }
  throw CheckError("unknown slot");
}

/// Feeds one input to every reader; returns how many accepted it.
std::size_t FeedEveryReader(const std::string& text, Slot slot,
                            const ObsReportInputs& valid) {
  std::size_t accepted = 0;
  JsonValue document;
  if (ReturnsOrThrowsCheckError("ParseJson", text,
                                [&] { document = ParseJson(text); })) {
    ++accepted;
    accepted += ReturnsOrThrowsCheckError(
        "SnapshotFromJson", text, [&] { SnapshotFromJson(document); });
    accepted += ReturnsOrThrowsCheckError(
        "BaselineFromJson", text, [&] { BaselineFromJson(document); });
    accepted += ReturnsOrThrowsCheckError(
        "DistillBaseline", text, [&] { DistillBaseline(document); });
  }
  accepted += ReturnsOrThrowsCheckError(
      "ParseRequestsJsonl", text, [&] { ParseRequestsJsonl(text); });
  accepted += ReturnsOrThrowsCheckError(
      "ParseTimeSeriesJsonl", text, [&] { ParseTimeSeriesJsonl(text); });
  accepted += ReturnsOrThrowsCheckError(
      "AlertsFromJsonl", text, [&] { health::AlertsFromJsonl(text); });
  // The report renders the mutant alongside the other valid documents,
  // so an accepted mutant reaches the renderers too.
  ObsReportInputs inputs = valid;
  SlotOf(inputs, slot) = text;
  accepted += ReturnsOrThrowsCheckError("RenderObsReport", text,
                                        [&] { RenderObsReport(inputs); });
  return accepted;
}

TEST(JsonFuzzTest, EveryReaderReturnsOrThrowsCheckErrorOnMutants) {
  const std::string dir = "tools/testdata/obs_report/";
  const std::vector<Seed> seeds = {
      {"metrics.json", ReadSourceFile(dir + "metrics.json"), Slot::kMetrics},
      {"probes.jsonl", ReadSourceFile(dir + "probes.jsonl"), Slot::kProbes},
      {"timeseries.jsonl", ReadSourceFile(dir + "timeseries.jsonl"),
       Slot::kTimeSeries},
      {"requests.jsonl", ReadSourceFile(dir + "requests.jsonl"),
       Slot::kRequests},
      {"alerts.jsonl", ReadSourceFile(dir + "alerts.jsonl"), Slot::kAlerts},
      {"ablation_solver.json",
       ReadSourceFile("bench/baselines/ablation_solver.json"), Slot::kMetrics},
      {"kBenchJson", testutil::kBenchJson, Slot::kMetrics},
  };
  ObsReportInputs valid;
  for (const Seed& seed : seeds) {
    std::string& slot = SlotOf(valid, seed.slot);
    if (slot.empty()) slot = seed.text;
  }
  ASSERT_NO_THROW(RenderObsReport(valid));

  Rng rng(20261017);
  for (const Seed& seed : seeds) {
    ASSERT_FALSE(seed.text.empty()) << seed.name;
    // The unmutated seed is accepted by the reader it was written for.
    EXPECT_GE(FeedEveryReader(seed.text, seed.slot, valid), 1u) << seed.name;
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
      accepted += FeedEveryReader(Mutate(seed.text, rng), seed.slot, valid);
      if (HasFailure()) return;
    }
    // Some mutants stay valid, so the fuzz reaches past the parser into
    // the schema readers and renderers.
    EXPECT_GT(accepted, 0u) << seed.name;
  }
}

}  // namespace
}  // namespace metaai::obs
