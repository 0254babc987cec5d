#include "core/serialization.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "common/result.h"
#include "core/weight_mapper.h"
#include "data/datasets.h"
#include "rf/geometry.h"

namespace metaai::core {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("metaai_ser_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SerializationTest, ModelRoundTripsExactly) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 10, .test_per_class = 4});
  Rng rng(1);
  TrainingOptions options;
  options.epochs = 3;
  options.modulation = rf::Modulation::kQam64;
  const auto model = TrainModel(ds.train, options, rng);

  const auto path = dir_ / "model.txt";
  ASSERT_TRUE(TrySaveModel(model, path).ok());
  const auto loaded = TryLoadModel(path).value();

  EXPECT_EQ(loaded.modulation, rf::Modulation::kQam64);
  EXPECT_EQ(loaded.input_dim(), model.input_dim());
  EXPECT_EQ(loaded.num_classes(), model.num_classes());
  // Bit-exact round trip (max_digits10 precision).
  EXPECT_TRUE(loaded.network.weights() == model.network.weights());
}

TEST_F(SerializationTest, LoadedModelPredictsIdentically) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 10, .test_per_class = 10});
  Rng rng(2);
  TrainingOptions options;
  options.epochs = 3;
  const auto model = TrainModel(ds.train, options, rng);
  const auto path = dir_ / "model.txt";
  ASSERT_TRUE(TrySaveModel(model, path).ok());
  const auto loaded = TryLoadModel(path).value();
  EXPECT_DOUBLE_EQ(EvaluateDigital(model, ds.test),
                   EvaluateDigital(loaded, ds.test));
}

// Each failure mode carries a distinct typed error: unreadable files
// are kIoError, readable-but-wrong content is kParseError.
TEST_F(SerializationTest, CorruptModelFilesAreParseErrors) {
  const auto path = dir_ / "bad.txt";
  {
    std::ofstream out(path);
    out << "not-a-model\n";
  }
  const auto corrupt = TryLoadModel(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.error().code, ErrorCode::kParseError);
  EXPECT_NE(corrupt.error().message.find("not a metaai model"),
            std::string::npos);
}

TEST_F(SerializationTest, MissingModelFileIsIoError) {
  const auto missing = TryLoadModel(dir_ / "missing.txt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kIoError);
}

TEST_F(SerializationTest, TruncatedModelFileIsParseError) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 6, .test_per_class = 2});
  Rng rng(6);
  TrainingOptions options;
  options.epochs = 1;
  const auto model = TrainModel(ds.train, options, rng);
  const auto path = dir_ / "model.txt";
  ASSERT_TRUE(TrySaveModel(model, path).ok());

  std::ifstream in(path);
  std::string head;
  for (int i = 0; i < 3; ++i) {
    std::string line;
    std::getline(in, line);
    head += line + "\n";
  }
  in.close();
  const auto truncated = dir_ / "truncated.txt";
  {
    std::ofstream out(truncated);
    out << head;
  }
  const auto result = TryLoadModel(truncated);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);
}

TEST_F(SerializationTest, SaveToUnwritablePathIsIoError) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 6, .test_per_class = 2});
  Rng rng(7);
  TrainingOptions options;
  options.epochs = 1;
  const auto model = TrainModel(ds.train, options, rng);
  const auto result = TrySaveModel(model, dir_ / "no_such_dir" / "model.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kIoError);
}

TEST_F(SerializationTest, PatternsRoundTripExactly) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 6, .test_per_class = 2});
  Rng rng(3);
  TrainingOptions options;
  options.epochs = 2;
  const auto model = TrainModel(ds.train, options, rng);

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig link_config;
  link_config.geometry = {.tx_distance_m = 1.0,
                          .tx_angle_rad = rf::DegToRad(30.0),
                          .rx_distance_m = 3.0,
                          .rx_angle_rad = rf::DegToRad(40.0),
                          .frequency_hz = 5.25e9};
  const sim::OtaLink link(graph, link_config);
  const auto mapped = MapWeights(model.network.weights(), link,
                                 {.scheme = MappingScheme::kSequential});

  const auto path = dir_ / "patterns.txt";
  ASSERT_TRUE(TrySavePatterns(mapped, graph.front().num_atoms(), path).ok());
  const auto loaded = TryLoadPatterns(path, graph.front().num_atoms()).value();

  ASSERT_EQ(loaded.rounds.size(), mapped.rounds.size());
  EXPECT_EQ(loaded.outputs, mapped.outputs);
  EXPECT_DOUBLE_EQ(loaded.scale, mapped.scale);
  for (std::size_t r = 0; r < mapped.rounds.size(); ++r) {
    ASSERT_EQ(loaded.rounds[r].size(), mapped.rounds[r].size());
    for (std::size_t i = 0; i < mapped.rounds[r].size(); ++i) {
      EXPECT_EQ(loaded.rounds[r][i], mapped.rounds[r][i])
          << "round " << r << " symbol " << i;
    }
  }
}

TEST_F(SerializationTest, PatternFileIsCompactHex) {
  // 256 atoms at 2 bits each = 128 hex characters per symbol line.
  const auto ds =
      data::MakeMnistLike({.train_per_class = 6, .test_per_class = 2});
  Rng rng(4);
  TrainingOptions options;
  options.epochs = 1;
  const auto model = TrainModel(ds.train, options, rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig link_config;
  link_config.geometry.frequency_hz = 5.25e9;
  link_config.geometry.tx_distance_m = 1.0;
  link_config.geometry.rx_distance_m = 3.0;
  const sim::OtaLink link(graph, link_config);
  const auto mapped = MapWeights(model.network.weights(), link,
                                 {.scheme = MappingScheme::kSequential});
  const auto path = dir_ / "patterns.txt";
  ASSERT_TRUE(TrySavePatterns(mapped, graph.front().num_atoms(), path).ok());

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // magic
  std::getline(in, line);  // dims
  std::getline(in, line);  // scale
  std::getline(in, line);  // round outputs
  std::getline(in, line);  // first pattern
  EXPECT_EQ(line.size(), 128u);
}

TEST_F(SerializationTest, PatternAtomMismatchIsParseError) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 6, .test_per_class = 2});
  Rng rng(5);
  TrainingOptions options;
  options.epochs = 1;
  const auto model = TrainModel(ds.train, options, rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig link_config;
  link_config.geometry.tx_distance_m = 1.0;
  link_config.geometry.rx_distance_m = 3.0;
  const sim::OtaLink link(graph, link_config);
  const auto mapped = MapWeights(model.network.weights(), link,
                                 {.scheme = MappingScheme::kSequential});
  const auto path = dir_ / "patterns.txt";
  ASSERT_TRUE(TrySavePatterns(mapped, graph.front().num_atoms(), path).ok());
  const auto mismatch = TryLoadPatterns(path, 64);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.error().code, ErrorCode::kParseError);
}

TEST_F(SerializationTest, EmptySchedulesAreInvalidArguments) {
  const auto result = TrySavePatterns(MappedSchedules{}, 256, dir_ / "p.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument);
}

// Every count a file supplies is bounded by what the rest of the file can
// hold before anything is sized by it: a hostile count is a kParseError
// that names the count, never a std::length_error or a huge allocation.
class HostileCountTest : public SerializationTest {
 protected:
  std::filesystem::path Write(const std::string& text) {
    const auto path = dir_ / "hostile.txt";
    std::ofstream out(path);
    out << text;
    return path;
  }

  template <typename T>
  void ExpectCountRejected(const Result<T>& result, const std::string& count) {
    ASSERT_FALSE(result.ok()) << count;
    EXPECT_EQ(result.error().code, ErrorCode::kParseError) << count;
    EXPECT_NE(result.error().message.find(count + " exceeds"),
              std::string::npos)
        << result.error().message;
  }

  // A valid 1x2 QPSK model, then `trailer`.
  Result<TrainedModel> LoadModel(const std::string& trailer) {
    return TryLoadModel(
        Write("metaai-model-v1\nQPSK\n1 2\n0.5 0.25\n-0.5 1\n" + trailer));
  }

  // A valid 4-atom pattern file with `rounds`, `symbols` and one round,
  // then `trailer`.
  Result<MappedSchedules> LoadPatterns(const std::string& header,
                                       const std::string& round,
                                       const std::string& trailer = "") {
    return TryLoadPatterns(
        Write("metaai-patterns-v1\n" + header + " 4\n1.5 0.01\n" + round +
              trailer),
        4);
  }
};

constexpr const char* kHuge = "4611686018427387904";  // 2^62
constexpr const char* kValidLayer =
    "16 16 1 5250000000 0.12 60 1 1 5250000000\n";

TEST_F(HostileCountTest, ModelClassCount) {
  ExpectCountRejected(
      TryLoadModel(Write(std::string("metaai-model-v1\nQPSK\n") + kHuge +
                         " 1\n0 0\n")),
      "model class count");
}

TEST_F(HostileCountTest, ModelInputDim) {
  ExpectCountRejected(
      TryLoadModel(Write(std::string("metaai-model-v1\nQPSK\n1 ") + kHuge +
                         "\n0 0\n")),
      "model input dim");
}

TEST_F(HostileCountTest, ModelLayerCount) {
  ExpectCountRejected(
      LoadModel(std::string("layers ") + kHuge + "\n" + kValidLayer),
      "layer count");
}

TEST_F(HostileCountTest, ModelBandCount) {
  ExpectCountRejected(
      LoadModel(std::string("layers 1\n16 16 1 5250000000 0.12 60 1 ") +
                kHuge + " 5250000000\n"),
      "band count");
}

TEST_F(HostileCountTest, PatternRoundCount) {
  ExpectCountRejected(LoadPatterns(std::string(kHuge) + " 1", "1 0\n00\n"),
                      "round count");
}

TEST_F(HostileCountTest, PatternSymbolCount) {
  ExpectCountRejected(LoadPatterns(std::string("1 ") + kHuge, "1 0\n00\n"),
                      "symbol count");
}

TEST_F(HostileCountTest, PatternRoundOutputCount) {
  ExpectCountRejected(LoadPatterns("1 1", std::string(kHuge) + " 0\n00\n"),
                      "round output count");
}

TEST_F(HostileCountTest, PatternUpperLayerCount) {
  ExpectCountRejected(
      LoadPatterns("1 1", "1 0\n00\n",
                   std::string("upper ") + kHuge + " 4\n0\n"),
      "upper layer count");
}

TEST_F(HostileCountTest, PatternUpperAtomCount) {
  ExpectCountRejected(
      LoadPatterns("1 1", "1 0\n00\n",
                   std::string("upper 1 ") + kHuge + "\n0\n"),
      "upper atom count");
}

// The fixtures above differ from loadable files only in the hostile count.
TEST_F(HostileCountTest, FixturesLoadWithSaneCounts) {
  EXPECT_TRUE(LoadModel(std::string("layers 1\n") + kValidLayer).ok());
  EXPECT_TRUE(LoadPatterns("1 1", "1 0\n00\n", "upper 1 4\n00\n").ok());
}

}  // namespace
}  // namespace metaai::core
