// End-to-end coverage of the multi-layer (SIM cascade) pipeline: mapping,
// deployment, scheduling and serialization over an mts::LayerGraph, plus
// the non-square/non-16x16 panel shapes the layer work unblocked.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/deployment.h"
#include "core/fault_recovery.h"
#include "core/recalibration.h"
#include "core/scheduler.h"
#include "core/serialization.h"
#include "core/training.h"
#include "core/weight_mapper.h"
#include "data/datasets.h"
#include "mts/config_cache.h"
#include "mts/layer_graph.h"
#include "rf/geometry.h"
#include "simd/dispatch.h"
#include "testutil/fnv1a.h"

namespace metaai::core {
namespace {

sim::OtaLinkConfig DefaultLink() {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  return config;
}

TrainedModel TinyModel(std::uint64_t seed) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 8, .test_per_class = 2});
  Rng rng(seed);
  TrainingOptions options;
  options.epochs = 2;
  return TrainModel(ds.train, options, rng);
}

std::vector<mts::PhysicalLayerSpec> CascadeSpecs(std::size_t depth) {
  std::vector<mts::PhysicalLayerSpec> specs(depth);
  for (std::size_t l = 1; l < depth; ++l) {
    specs[l].surface.rows = 8;
    specs[l].surface.cols = 8;
    specs[l].coupling_gain = 1.3;
  }
  return specs;
}

// Each API checked below keeps a reference to its graph, so a temporary
// graph would dangle: passing one must not compile.
template <typename Graph>
concept CanRecoverOver =
    requires(const TrainedModel& model, const FaultDiagnosis& diagnosis) {
      RecoverFromFaults(model, std::declval<Graph>(), sim::OtaLinkConfig{},
                        DeploymentOptions{}, diagnosis);
    };

template <typename Graph>
concept CanRecalibrateOver =
    requires(const TrainedModel& model, const sim::OtaLinkConfig& link) {
      RecalibrateForReceiver(model, std::declval<Graph>(), link, link);
    };

TEST(CascadePipelineTest, TemporaryGraphIsRejectedAtCompileTime) {
  using Graph = const mts::LayerGraph&;
  using Temporary = mts::LayerGraph;
  static_assert(std::is_constructible_v<Deployment, const TrainedModel&,
                                        Graph, sim::OtaLinkConfig>);
  static_assert(!std::is_constructible_v<Deployment, const TrainedModel&,
                                         Temporary, sim::OtaLinkConfig>);
  static_assert(std::is_constructible_v<SharedSurfaceScheduler, Graph,
                                        std::vector<DeviceSpec>>);
  static_assert(!std::is_constructible_v<SharedSurfaceScheduler, Temporary,
                                         std::vector<DeviceSpec>>);
  static_assert(CanRecoverOver<Graph>);
  static_assert(!CanRecoverOver<Temporary>);
  static_assert(CanRecalibrateOver<Graph>);
  static_assert(!CanRecalibrateOver<Temporary>);
}

// Digest of everything a mapping result carries plus its cache key: the
// depth-1 golden tests below pin these to constants.
std::uint64_t MappingDigest(const MappedSchedules& mapped,
                            const std::string& cache_key) {
  testutil::Fnv1a digest;
  digest.Add(mapped.rounds);
  digest.Add(mapped.outputs);
  digest.Add(mapped.scale);
  digest.Add(mapped.mean_relative_residual);
  digest.Add(mapped.total_sweeps);
  digest.Add(cache_key);
  return digest.value();
}

// A single panel is the K=1 cascade: the depth-1 mapping and deployment
// are pinned to digests so they stay bit for bit what the single-surface
// pipeline always produced. Scalar kernels throughout, since the AVX2
// PhasedSum may reassociate the sum.
TEST(CascadePipelineTest, DepthOneCascadeSequentialMappingMatchesGolden) {
  const simd::ScopedLevel scalar(simd::Level::kScalar);
  const TrainedModel model = TinyModel(3);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const sim::OtaLink link(graph, DefaultLink());
  const MappingOptions options{.scheme = MappingScheme::kSequential};
  const ComplexMatrix& weights = model.network.weights();
  const MappedSchedules mapped = MapWeights(weights, link, options);
  EXPECT_TRUE(mapped.upper_rounds.empty());
  EXPECT_EQ(MappingDigest(mapped, MappingCacheKey(weights, link, options)),
            0x2d228bf93bc79b1eull);
}

TEST(CascadePipelineTest, DepthOneCascadeParallelMappingMatchesGolden) {
  const simd::ScopedLevel scalar(simd::Level::kScalar);
  const TrainedModel model = TinyModel(3);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig config = DefaultLink();
  config.observations = BuildObservations(
      config, model.num_classes(),
      {.mode = ParallelismMode::kSubcarrier, .parallel_width = 4});
  const sim::OtaLink link(graph, config);
  ASSERT_EQ(link.num_observations(), 4u);
  const MappingOptions options{.scheme = MappingScheme::kParallel};
  const ComplexMatrix& weights = model.network.weights();
  const MappedSchedules mapped = MapWeights(weights, link, options);
  EXPECT_TRUE(mapped.upper_rounds.empty());
  EXPECT_EQ(MappingDigest(mapped, MappingCacheKey(weights, link, options)),
            0xed4524c3de5ec934ull);
}

TEST(CascadePipelineTest, DepthOneCascadeDeploymentMatchesGolden) {
  const simd::ScopedLevel scalar(simd::Level::kScalar);
  const TrainedModel model = TinyModel(5);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const Deployment deployment(model, graph, DefaultLink());
  testutil::Fnv1a digest;
  for (const std::uint64_t seed : {17u, 18u, 19u}) {
    Rng rng(seed);
    std::vector<double> pixels(model.input_dim());
    for (double& p : pixels) p = rng.Uniform();
    digest.Add(deployment.ClassScores(pixels, 0.1, rng));
  }
  EXPECT_EQ(digest.value(), 0x88158b9362832b97ull);
}

TEST(CascadePipelineTest, CascadeMappingSolvesUpperSchedules) {
  const TrainedModel model = TinyModel(7);
  const mts::LayerGraph graph(CascadeSpecs(2));
  const sim::OtaLink link(graph, DefaultLink());

  const MappingOptions options{.scheme = MappingScheme::kSequential};
  const auto mapped = MapWeights(model.network.weights(), link, options);
  ASSERT_EQ(mapped.upper_rounds.size(), mapped.rounds.size());
  for (std::size_t r = 0; r < mapped.rounds.size(); ++r) {
    ASSERT_EQ(mapped.upper_rounds[r].size(), 1u) << "round " << r;
    ASSERT_EQ(mapped.upper_rounds[r][0].size(), mapped.rounds[r].size());
    for (const auto& codes : mapped.upper_rounds[r][0]) {
      EXPECT_EQ(codes.size(), 64u);
    }
  }
  EXPECT_GT(mapped.scale, 0.0);
  EXPECT_LT(mapped.mean_relative_residual, 0.5);
  // Cascade keys diverge from the single-panel key of the same weights.
  const mts::LayerGraph panel(graph.front());
  const sim::OtaLink flat(panel, DefaultLink());
  EXPECT_NE(MappingCacheKey(model.network.weights(), link, options),
            MappingCacheKey(model.network.weights(), flat, options));
}

TEST(CascadePipelineTest, CascadeDeploymentClassifiesDeterministically) {
  const TrainedModel model = TinyModel(9);
  const mts::LayerGraph graph(CascadeSpecs(2));
  const Deployment deep(model, graph, DefaultLink());
  EXPECT_EQ(deep.link().num_layers(), 2u);

  const std::vector<double> pixels(model.input_dim(), 0.6);
  Rng rng_a(23);
  Rng rng_b(23);
  const auto once = deep.ClassScores(pixels, 0.0, rng_a);
  const auto again = deep.ClassScores(pixels, 0.0, rng_b);
  ASSERT_EQ(once.size(), model.num_classes());
  for (std::size_t c = 0; c < once.size(); ++c) {
    EXPECT_TRUE(std::isfinite(once[c]));
    EXPECT_EQ(once[c], again[c]) << "class " << c;
  }
}

TEST(CascadePipelineTest, CacheRoundTripsCascadeSchedules) {
  // A cascade mapping restored from the config cache must carry the
  // upper-layer schedules too, bitwise.
  const TrainedModel model = TinyModel(11);
  const mts::LayerGraph graph(CascadeSpecs(2));
  const sim::OtaLink link(graph, DefaultLink());
  mts::ConfigCache cache(4);
  MappingOptions options{.scheme = MappingScheme::kSequential};
  options.cache = &cache;

  const auto cold = MapWeights(model.network.weights(), link, options);
  EXPECT_FALSE(cold.from_cache);
  const auto warm = MapWeights(model.network.weights(), link, options);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.rounds, cold.rounds);
  ASSERT_EQ(warm.upper_rounds.size(), cold.upper_rounds.size());
  for (std::size_t r = 0; r < cold.upper_rounds.size(); ++r) {
    EXPECT_EQ(warm.upper_rounds[r], cold.upper_rounds[r]) << "round " << r;
  }
  EXPECT_EQ(warm.scale, cold.scale);
}

TEST(CascadePipelineTest, NonSquarePanelMapsAndDeploys) {
  // Regression (hard-coded 16x16 assumptions): an 8x12 front panel must
  // train -> map -> deploy -> classify without any 256-atom defaults
  // leaking in.
  const TrainedModel model = TinyModel(13);
  mts::MetasurfaceSpec spec;
  spec.rows = 8;
  spec.cols = 12;
  const mts::LayerGraph graph(mts::Metasurface{spec});
  ASSERT_EQ(graph.front().num_atoms(), 96u);
  const Deployment deployment(model, graph, DefaultLink());

  const std::vector<double> pixels(model.input_dim(), 0.5);
  Rng rng(29);
  const int predicted = deployment.Classify(pixels, 0.0, rng);
  EXPECT_GE(predicted, 0);
  EXPECT_LT(predicted, static_cast<int>(model.num_classes()));

  // The solved patterns round-trip through the controller byte format at
  // the panel's own atom count.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("metaai_cascade_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = dir / "patterns96.txt";
  ASSERT_TRUE(
      TrySavePatterns(deployment.schedules(), graph.front().num_atoms(), path)
          .ok());
  const auto loaded = TryLoadPatterns(path, graph.front().num_atoms()).value();
  EXPECT_EQ(loaded.rounds, deployment.schedules().rounds);
  std::filesystem::remove_all(dir);
}

TEST(CascadePipelineTest, SchedulerReconcilesControllerToPanelShape) {
  // Regression (satellite of the same sweep): the scheduler used to hand
  // the 256-atom/16-group default ControllerConfig to every panel. A
  // 96-atom panel must get a reconciled controller (atoms = 96, groups a
  // divisor) instead of an aborted construction.
  mts::MetasurfaceSpec spec;
  spec.rows = 8;
  spec.cols = 12;
  const mts::LayerGraph graph(mts::Metasurface{spec});
  std::vector<DeviceSpec> devices;
  devices.push_back({"dev0", TinyModel(15), DefaultLink(), {}});
  const SharedSurfaceScheduler scheduler(graph, std::move(devices), {});
  EXPECT_EQ(scheduler.num_devices(), 1u);
  EXPECT_EQ(scheduler.config().controller.num_atoms, 96u);
  EXPECT_EQ(96u % scheduler.config().controller.num_groups, 0u);
  // The 256-atom default is untouched for the prototype panel.
  const mts::LayerGraph proto(mts::Metasurface{mts::MetasurfaceSpec{}});
  std::vector<DeviceSpec> proto_devices;
  proto_devices.push_back({"dev0", TinyModel(15), DefaultLink(), {}});
  const SharedSurfaceScheduler proto_scheduler(proto, std::move(proto_devices),
                                               {});
  EXPECT_EQ(proto_scheduler.config().controller.num_atoms, 256u);
  EXPECT_EQ(proto_scheduler.config().controller.num_groups, 16u);
}

class CascadeSerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("metaai_cascade_ser_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(CascadeSerializationTest, ModelLayerTrailerRoundTrips) {
  TrainedModel model = TinyModel(17);
  model.layers = CascadeSpecs(3);
  model.layers[2].surface.rows = 4;
  model.layers[2].surface.cols = 10;
  model.layers[2].coupling_gain = 2.25;

  const auto path = dir_ / "cascade_model.txt";
  ASSERT_TRUE(TrySaveModel(model, path).ok());
  const TrainedModel loaded = TryLoadModel(path).value();
  EXPECT_TRUE(loaded.network.weights() == model.network.weights());
  ASSERT_EQ(loaded.layers.size(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(loaded.layers[l].surface.rows, model.layers[l].surface.rows);
    EXPECT_EQ(loaded.layers[l].surface.cols, model.layers[l].surface.cols);
    EXPECT_EQ(loaded.layers[l].coupling_gain, model.layers[l].coupling_gain);
    EXPECT_EQ(loaded.layers[l].surface.supported_bands_hz,
              model.layers[l].surface.supported_bands_hz);
  }
  // The trailer must rebuild a valid graph.
  EXPECT_TRUE(mts::LayerGraph::TryFromSpecs(loaded.layers).ok());
}

TEST_F(CascadeSerializationTest, LegacyModelLoadsWithEmptyLayers) {
  // K=1 backward compatibility: a model without the cascade trailer (the
  // pre-cascade file format) loads with empty layers, and saving it back
  // produces a byte-identical legacy file.
  const TrainedModel model = TinyModel(19);
  const auto path = dir_ / "legacy_model.txt";
  ASSERT_TRUE(TrySaveModel(model, path).ok());
  const TrainedModel loaded = TryLoadModel(path).value();
  EXPECT_TRUE(loaded.layers.empty());
}

TEST_F(CascadeSerializationTest, CorruptLayerTrailerIsParseError) {
  TrainedModel model = TinyModel(21);
  model.layers = CascadeSpecs(2);
  const auto path = dir_ / "model.txt";
  ASSERT_TRUE(TrySaveModel(model, path).ok());
  // Truncate the file in the middle of the layer trailer.
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const auto trailer = content.find("layers 2");
  ASSERT_NE(trailer, std::string::npos);
  const auto truncated = dir_ / "truncated.txt";
  {
    std::ofstream out(truncated);
    out << content.substr(0, trailer + 8);
  }
  const auto result = TryLoadModel(truncated);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);
}

TEST_F(CascadeSerializationTest, PatternUpperSchedulesRoundTrip) {
  const TrainedModel model = TinyModel(23);
  const mts::LayerGraph graph(CascadeSpecs(2));
  const sim::OtaLink link(graph, DefaultLink());
  const auto mapped = MapWeights(model.network.weights(), link,
                                 {.scheme = MappingScheme::kSequential});
  ASSERT_FALSE(mapped.upper_rounds.empty());

  const auto path = dir_ / "cascade_patterns.txt";
  ASSERT_TRUE(
      TrySavePatterns(mapped, graph.front().num_atoms(), path).ok());
  const auto loaded =
      TryLoadPatterns(path, graph.front().num_atoms()).value();
  EXPECT_EQ(loaded.rounds, mapped.rounds);
  ASSERT_EQ(loaded.upper_rounds.size(), mapped.upper_rounds.size());
  for (std::size_t r = 0; r < mapped.upper_rounds.size(); ++r) {
    EXPECT_EQ(loaded.upper_rounds[r], mapped.upper_rounds[r]) << "round " << r;
  }
}

TEST_F(CascadeSerializationTest, LegacyPatternFilesLoadWithoutUpperRounds) {
  const TrainedModel model = TinyModel(25);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const sim::OtaLink link(graph, DefaultLink());
  const auto mapped = MapWeights(model.network.weights(), link,
                                 {.scheme = MappingScheme::kSequential});
  const auto path = dir_ / "legacy_patterns.txt";
  ASSERT_TRUE(TrySavePatterns(mapped, graph.front().num_atoms(), path).ok());
  const auto loaded = TryLoadPatterns(path, graph.front().num_atoms()).value();
  EXPECT_TRUE(loaded.upper_rounds.empty());
  EXPECT_EQ(loaded.rounds, mapped.rounds);
}

}  // namespace
}  // namespace metaai::core
