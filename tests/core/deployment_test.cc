#include "core/deployment.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "data/datasets.h"
#include "rf/geometry.h"

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

struct Fixture {
  data::Dataset dataset;
  TrainedModel model;
};

Fixture MakeFixture() {
  data::Dataset dataset =
      data::MakeMnistLike({.train_per_class = 60, .test_per_class = 12});
  Rng rng(11);
  TrainedModel model = TrainModel(dataset.train, {}, rng);
  return {std::move(dataset), std::move(model)};
}

TEST(DeploymentTest, ModeNames) {
  EXPECT_EQ(ParallelismModeName(ParallelismMode::kSequential), "sequential");
  EXPECT_EQ(ParallelismModeName(ParallelismMode::kSubcarrier), "subcarrier");
  EXPECT_EQ(ParallelismModeName(ParallelismMode::kAntenna), "antenna");
}

TEST(DeploymentTest, BuildObservationsPerMode) {
  const auto base = DefaultLink();
  DeploymentOptions options;
  options.mode = ParallelismMode::kSequential;
  EXPECT_EQ(BuildObservations(base, 10, options).size(), 1u);

  options.mode = ParallelismMode::kSubcarrier;
  auto subcarriers = BuildObservations(base, 10, options);
  EXPECT_EQ(subcarriers.size(), 10u);
  // Centred offsets, 40 kHz spacing.
  EXPECT_DOUBLE_EQ(subcarriers[0].freq_offset_hz, -4.5 * 40e3);
  EXPECT_DOUBLE_EQ(subcarriers[9].freq_offset_hz, 4.5 * 40e3);

  options.mode = ParallelismMode::kAntenna;
  options.parallel_width = 3;
  auto antennas = BuildObservations(base, 10, options);
  EXPECT_EQ(antennas.size(), 3u);
  ASSERT_TRUE(antennas[0].geometry.has_value());
  EXPECT_LT(antennas[0].geometry->rx_angle_rad,
            antennas[2].geometry->rx_angle_rad);

  // Width never exceeds the class count.
  options.mode = ParallelismMode::kSubcarrier;
  options.parallel_width = 30;
  EXPECT_EQ(BuildObservations(base, 10, options).size(), 10u);
}

TEST(DeploymentTest, SequentialOtaAccuracyTracksDigital) {
  const Fixture setup = MakeFixture();
  const double digital = EvaluateDigital(setup.model, setup.dataset.test);

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  Deployment deployment(setup.model, graph, DefaultLink());
  EXPECT_EQ(deployment.RoundsPerInference(), 10u);

  Rng rng(13);
  sim::SyncModel perfect(sim::SyncMode::kCdfa,
                         {.latency_scale = 1e-6});  // effectively synced
  const double ota =
      deployment.EvaluateAccuracy(setup.dataset.test, perfect, rng);
  // The over-the-air pipeline with good SNR and perfect sync stays within
  // a few points of the digital model.
  EXPECT_GT(ota, digital - 0.08);
}

TEST(DeploymentTest, SubcarrierParallelismReducesRoundsWithSmallLoss) {
  const Fixture setup = MakeFixture();
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  DeploymentOptions options;
  options.mode = ParallelismMode::kSubcarrier;
  options.parallel_width = 5;
  Deployment deployment(setup.model, graph, DefaultLink(), options);
  EXPECT_EQ(deployment.RoundsPerInference(), 2u);  // 10 classes / 5

  Rng rng(17);
  sim::SyncModel perfect(sim::SyncMode::kCdfa, {.latency_scale = 1e-6});
  const double parallel_acc =
      deployment.EvaluateAccuracy(setup.dataset.test, perfect, rng, 60);
  Deployment sequential(setup.model, graph, DefaultLink());
  Rng rng2(17);
  const double sequential_acc =
      sequential.EvaluateAccuracy(setup.dataset.test, perfect, rng2, 60);
  // Slight degradation only (Fig 18).
  EXPECT_GT(parallel_acc, sequential_acc - 0.25);
  EXPECT_GT(parallel_acc, 0.4);
}

TEST(DeploymentTest, AntennaParallelismWorks) {
  const Fixture setup = MakeFixture();
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  DeploymentOptions options;
  options.mode = ParallelismMode::kAntenna;
  options.parallel_width = 5;
  Deployment deployment(setup.model, graph, DefaultLink(), options);
  EXPECT_EQ(deployment.RoundsPerInference(), 2u);
  Rng rng(19);
  sim::SyncModel perfect(sim::SyncMode::kCdfa, {.latency_scale = 1e-6});
  const double acc =
      deployment.EvaluateAccuracy(setup.dataset.test, perfect, rng, 60);
  EXPECT_GT(acc, 0.4);
}

TEST(DeploymentTest, LargeSyncErrorWithoutRobustTrainingCollapses) {
  const Fixture setup = MakeFixture();
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  Deployment deployment(setup.model, graph, DefaultLink());
  Rng rng(23);
  const double good =
      deployment.EvaluateAccuracyAtOffset(setup.dataset.test, 0.0, rng, 60);
  const double bad =
      deployment.EvaluateAccuracyAtOffset(setup.dataset.test, 8.0, rng, 60);
  EXPECT_GT(good, bad + 0.3);
}

TEST(DeploymentTest, ClassScoresHaveOneEntryPerClass) {
  const Fixture setup = MakeFixture();
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  Deployment deployment(setup.model, graph, DefaultLink());
  Rng rng(29);
  const auto scores =
      deployment.ClassScores(setup.dataset.test.features[0], 0.0, rng);
  EXPECT_EQ(scores.size(), 10u);
  for (const double s : scores) EXPECT_GE(s, 0.0);
}

TEST(DeploymentTest, RejectsWrongSampleLength) {
  const Fixture setup = MakeFixture();
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  Deployment deployment(setup.model, graph, DefaultLink());
  Rng rng(31);
  EXPECT_THROW(deployment.Classify(std::vector<double>(100, 0.5), 0.0, rng),
               CheckError);
}

}  // namespace
}  // namespace metaai::core
