// Seeded mutation fuzzing of the non-JSON parsers: the model and pattern
// file loaders and the fault-spec parser. A fixed-seed Rng mutates files
// written by TrySaveModel / TrySavePatterns (depth 1 and depth 3) and
// valid spec strings (see testutil/mutate.h). Each parser returns a
// Result, so every mutant must come back as a value or an error: any
// exception, CheckError included, fails the test, and a crash or
// sanitizer report fails the run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/serialization.h"
#include "fault/plan.h"
#include "testutil/mutate.h"

namespace metaai::core {
namespace {

using testutil::Mutate;

constexpr std::size_t kMutantsPerSeed = 1500;
constexpr std::size_t kFrontAtoms = 8;
/// Characters the model and pattern file grammars branch on.
constexpr std::string_view kFileGrammar = "0123456789abcdef .-+eE\n";
/// Characters the fault-spec grammar branches on.
constexpr std::string_view kSpecGrammar = "0123456789.-+eE,=:naif";

/// Runs `parse`; returns whether its Result is ok, and records a failure
/// when it throws instead of returning.
template <typename Fn>
bool ReturnsResult(const char* parser, const std::string& input, Fn&& parse) {
  try {
    return parse().ok();
  } catch (const std::exception& error) {
    ADD_FAILURE() << parser << " threw (" << error.what() << ") on input:\n"
                  << input;
  } catch (...) {
    ADD_FAILURE() << parser << " threw a non-exception on input:\n" << input;
  }
  return false;
}

TrainedModel SeedModel(std::size_t depth) {
  Rng rng(11);
  TrainedModel model{.network = nn::ComplexLinearModel(6, 3),
                     .modulation = rf::Modulation::kQpsk};
  model.network.Initialize(rng);
  if (depth > 1) {
    model.layers.resize(depth);
    for (std::size_t l = 1; l < depth; ++l) {
      model.layers[l].surface.rows = 2;
      model.layers[l].surface.cols = 2;
      model.layers[l].coupling_gain = 1.3;
    }
  }
  return model;
}

std::vector<mts::PhaseCode> Codes(std::size_t atoms, Rng& rng) {
  std::vector<mts::PhaseCode> codes(atoms);
  for (mts::PhaseCode& code : codes) {
    code = static_cast<mts::PhaseCode>(rng.UniformInt(std::uint64_t{4}));
  }
  return codes;
}

/// Two rounds of three symbols on an 8-atom front panel; depth 3 adds two
/// 4-atom upper layers.
MappedSchedules SeedSchedules(std::size_t depth) {
  Rng rng(13);
  MappedSchedules schedules;
  schedules.scale = 1.5;
  schedules.mean_relative_residual = 0.01;
  for (std::size_t round = 0; round < 2; ++round) {
    sim::MtsSchedule schedule;
    for (std::size_t i = 0; i < 3; ++i) {
      schedule.push_back(Codes(kFrontAtoms, rng));
    }
    schedules.rounds.push_back(std::move(schedule));
    schedules.outputs.push_back({static_cast<int>(round)});
    if (depth > 1) {
      sim::LayerSchedules upper(depth - 1);
      for (sim::MtsSchedule& layer : upper) {
        for (std::size_t i = 0; i < 3; ++i) layer.push_back(Codes(4, rng));
      }
      schedules.upper_rounds.push_back(std::move(upper));
    }
  }
  return schedules;
}

class ParserFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("metaai_parser_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string ReadFile(const std::filesystem::path& path) const {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// Writes each mutant of `seed` to one file and loads it with `load`.
  template <typename Load>
  void FuzzFile(const char* parser, const std::string& seed, Load&& load) {
    ASSERT_FALSE(seed.empty()) << parser;
    const std::filesystem::path path = dir_ / "mutant.txt";
    const auto load_text = [&](const std::string& text) {
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
      }
      return ReturnsResult(parser, text, [&] { return load(path); });
    };
    // The unmutated seed loads.
    EXPECT_TRUE(load_text(seed)) << parser;
    Rng rng(20261019);
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
      accepted += load_text(Mutate(seed, rng, kFileGrammar));
      if (HasFailure()) return;
    }
    // Some mutants stay valid, so the fuzz reaches past the headers.
    EXPECT_GT(accepted, 0u) << parser;
  }

  std::filesystem::path dir_;
};

TEST_F(ParserFuzzTest, ModelLoaderReturnsResultOnMutants) {
  for (const std::size_t depth : {1u, 3u}) {
    const std::filesystem::path path = dir_ / "model.txt";
    ASSERT_TRUE(TrySaveModel(SeedModel(depth), path).ok());
    FuzzFile("TryLoadModel", ReadFile(path),
             [](const std::filesystem::path& p) { return TryLoadModel(p); });
  }
}

TEST_F(ParserFuzzTest, PatternLoaderReturnsResultOnMutants) {
  for (const std::size_t depth : {1u, 3u}) {
    const std::filesystem::path path = dir_ / "patterns.txt";
    ASSERT_TRUE(TrySavePatterns(SeedSchedules(depth), kFrontAtoms, path).ok());
    FuzzFile("TryLoadPatterns", ReadFile(path),
             [](const std::filesystem::path& p) {
               return TryLoadPatterns(p, kFrontAtoms);
             });
  }
}

TEST_F(ParserFuzzTest, FaultSpecParserReturnsResultOnMutants) {
  Rng rng(20261019);
  for (const std::string seed :
       {"stuck=0.1,seed=7", "stuck=0.1,drift=0.04,age=60,seed=13",
        "chain=1e-4,burst=0.05:3.5"}) {
    EXPECT_TRUE(ReturnsResult("TryParseFaultSpec", seed, [&] {
      return fault::TryParseFaultSpec(seed);
    })) << seed;
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = Mutate(seed, rng, kSpecGrammar);
      accepted += ReturnsResult("TryParseFaultSpec", mutant, [&] {
        return fault::TryParseFaultSpec(mutant);
      });
      if (HasFailure()) return;
    }
    EXPECT_GT(accepted, 0u) << seed;
  }
}

}  // namespace
}  // namespace metaai::core
