// Reproducibility guards: every experiment in this repository derives its
// randomness from explicit seeds, so identical seeds must give identical
// results — bit-for-bit. These tests rebuild small pipelines twice and
// compare exactly; if any module sneaks in unseeded state (std::rand,
// time, unordered iteration, ...) they fail.
#include <gtest/gtest.h>

#include "core/metaai.h"
#include "data/datasets.h"
#include "data/encoding.h"
#include "rf/geometry.h"

namespace metaai {
namespace {

sim::OtaLinkConfig SmallLink() {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  config.channel_seed = 77;
  return config;
}

TEST(ReproducibilityTest, TrainingIsBitExactGivenSeed) {
  auto run = [] {
    const auto ds =
        data::MakeMnistLike({.train_per_class = 20, .test_per_class = 5});
    Rng rng(123);
    core::TrainingOptions options;
    options.epochs = 5;
    options.sync_error_injection = true;
    options.input_noise_variance = 0.05;
    return core::TrainModel(ds.train, options, rng);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_TRUE(a.network.weights() == b.network.weights());
}

TEST(ReproducibilityTest, OtaMeasurementsAreBitExactGivenSeeds) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 20, .test_per_class = 5});
  Rng train_rng(5);
  core::TrainingOptions options;
  options.epochs = 5;
  const auto model = core::TrainModel(ds.train, options, train_rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment deployment(model, graph, SmallLink());
  const auto symbols =
      data::EncodeSample(ds.test.features[0], model.modulation);

  auto run = [&] {
    Rng rng(99);
    return deployment.link().TransmitSequence(
        symbols, deployment.schedules().rounds[0], {}, 0.7, rng);
  };
  const auto za = run();
  const auto zb = run();
  ASSERT_EQ(za.cols(), zb.cols());
  for (std::size_t i = 0; i < za.cols(); ++i) {
    EXPECT_EQ(za(0, i), zb(0, i)) << "symbol " << i;
  }
}

TEST(ReproducibilityTest, EvaluationAccuracyIsExactlyRepeatable) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 30, .test_per_class = 6});
  Rng train_rng(9);
  core::TrainingOptions options;
  options.epochs = 10;
  const auto model = core::TrainModel(ds.train, options, train_rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment deployment(model, graph, SmallLink());
  sim::SyncModelConfig sync_config;
  sync_config.latency_scale = 0.3;
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  Rng rng_a(41);
  Rng rng_b(41);
  EXPECT_DOUBLE_EQ(
      deployment.EvaluateAccuracy(ds.test, sync, rng_a, 30),
      deployment.EvaluateAccuracy(ds.test, sync, rng_b, 30));
}

TEST(ReproducibilityTest, DifferentChannelSeedsGiveDifferentChannels) {
  // The flip side: channel seeds actually matter (no accidental sharing).
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig a = SmallLink();
  sim::OtaLinkConfig b = SmallLink();
  b.channel_seed = 78;
  const sim::OtaLink link_a(graph, a);
  const sim::OtaLink link_b(graph, b);
  EXPECT_NE(link_a.EnvironmentResponse(0), link_b.EnvironmentResponse(0));
}

TEST(ReproducibilityTest, StackedPnnTrainingIsBitExact) {
  auto run = [] {
    Rng rng(31);
    nn::ComplexDataset ds;
    ds.num_classes = 3;
    ds.dim = 16;
    for (int c = 0; c < 3; ++c) {
      for (int s = 0; s < 10; ++s) {
        std::vector<nn::Complex> x(16);
        for (auto& v : x) v = rng.ComplexNormal(1.0);
        ds.features.push_back(std::move(x));
        ds.labels.push_back(c);
      }
    }
    core::StackedPnnConfig config;
    config.input_dim = 16;
    config.num_classes = 3;
    config.atoms_per_layer = 9;
    config.num_layers = 2;
    config.epochs = 4;
    core::StackedPnn pnn(config);
    pnn.Initialize(rng);
    pnn.Train(ds, rng);
    std::vector<nn::Complex> probe(16, nn::Complex{1.0, 0.0});
    return pnn.ClassScores(probe);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace metaai
