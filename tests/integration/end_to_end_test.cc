// Cross-module integration tests: the complete train -> persist ->
// deploy -> transmit pipeline, exercised the way the CLI and benches
// drive it.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/metaai.h"
#include "data/datasets.h"
#include "data/encoding.h"
#include "rf/geometry.h"

namespace metaai {
namespace {

sim::OtaLinkConfig DefaultLink(std::uint64_t seed = 1) {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  config.channel_seed = seed;
  return config;
}

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("metaai_e2e_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(EndToEndTest, TrainPersistDeployTransmitPipeline) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 50, .test_per_class = 10});
  Rng rng(1);
  core::TrainingOptions train_options;
  train_options.epochs = 25;
  const auto model = core::TrainModel(ds.train, train_options, rng);

  // Persist + reload the model.
  core::TrySaveModel(model, dir_ / "model.txt").value();
  const auto loaded = core::TryLoadModel(dir_ / "model.txt").value();

  // Deploy the loaded model and persist + reload the patterns.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment deployment(loaded, graph, DefaultLink());
  core::TrySavePatterns(deployment.schedules(), graph.front().num_atoms(),
                        dir_ / "patterns.txt")
      .value();
  const auto patterns =
      core::TryLoadPatterns(dir_ / "patterns.txt", graph.front().num_atoms())
          .value();

  // Transmit one sample with the reloaded patterns: measurements match
  // the live deployment's schedules exactly (same codes).
  const sim::OtaLink link(graph, DefaultLink());
  const auto symbols =
      data::EncodeSample(ds.test.features[0], loaded.modulation);
  Rng noise_a(7);
  Rng noise_b(7);
  const auto z_live = link.TransmitSequence(
      symbols, deployment.schedules().rounds[0], {}, 0.0, noise_a);
  const auto z_loaded =
      link.TransmitSequence(symbols, patterns.rounds[0], {}, 0.0, noise_b);
  for (std::size_t i = 0; i < z_live.cols(); ++i) {
    EXPECT_EQ(z_live(0, i), z_loaded(0, i));
  }

  // The whole pipeline classifies sensibly.
  Rng eval_rng(9);
  const double ota =
      deployment.EvaluateAccuracyAtOffset(ds.test, 0.0, eval_rng, 60);
  const double digital = core::EvaluateDigital(loaded, ds.test);
  EXPECT_GT(ota, digital - 0.15);
}

TEST_F(EndToEndTest, OtaTracksDigitalAcrossDatasets) {
  // The prototype pipeline stays within a usable band of the digital
  // model on every dataset family (small splits for speed).
  for (const auto& name : {"mnist", "fruits", "widar"}) {
    const auto ds = data::MakeByName(
        name, {.train_per_class = 50, .test_per_class = 10});
    Rng rng(2);
    core::TrainingOptions options;
    options.epochs = 30;
    const auto model = core::TrainModel(ds.train, options, rng);
    const double digital = core::EvaluateDigital(model, ds.test);

    const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
    const core::Deployment deployment(model, graph, DefaultLink(3));
    Rng eval_rng(4);
    const double ota =
        deployment.EvaluateAccuracyAtOffset(ds.test, 0.0, eval_rng, 50);
    EXPECT_GT(ota, digital - 0.15) << name;
  }
}

TEST_F(EndToEndTest, TxPowerIsACommonScale) {
  // Classification only depends on relative magnitudes: with negligible
  // noise, sweeping the transmit power must not change predictions
  // (alpha_p argument of §3.2).
  const auto ds =
      data::MakeMnistLike({.train_per_class = 40, .test_per_class = 8});
  Rng rng(5);
  core::TrainingOptions options;
  options.epochs = 20;
  const auto model = core::TrainModel(ds.train, options, rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  std::vector<int> reference;
  for (const double power_dbm : {0.0, 20.0, 40.0}) {
    sim::OtaLinkConfig config = DefaultLink(11);
    config.budget.tx_power_dbm = power_dbm;
    config.budget.noise_floor_dbm = -200.0;  // noiseless
    const core::Deployment deployment(model, graph, config);
    std::vector<int> predictions;
    Rng eval_rng(6);
    for (std::size_t i = 0; i < 20; ++i) {
      predictions.push_back(
          deployment.Classify(ds.test.features[i], 0.0, eval_rng));
    }
    if (reference.empty()) {
      reference = predictions;
    } else {
      EXPECT_EQ(predictions, reference) << "power " << power_dbm;
    }
  }
}

TEST_F(EndToEndTest, FrequencyBandsAreInterchangeable) {
  // The same trained model deploys on either prototype panel at its own
  // band; accuracy is band-independent (Fig 22's claim, small scale).
  const auto ds =
      data::MakeMnistLike({.train_per_class = 50, .test_per_class = 10});
  Rng rng(8);
  core::TrainingOptions options;
  options.epochs = 25;
  const auto model = core::TrainModel(ds.train, options, rng);

  double reference = -1.0;
  struct Band {
    mts::MetasurfaceSpec spec;
    double frequency;
  };
  for (const Band& band : {Band{mts::DualBandSpec(), 2.4e9},
                           Band{mts::SingleBandSpec(), 3.5e9},
                           Band{mts::DualBandSpec(), 5.0e9}}) {
    const mts::LayerGraph graph(mts::Metasurface{band.spec});
    sim::OtaLinkConfig config = DefaultLink(13);
    config.geometry.frequency_hz = band.frequency;
    const core::Deployment deployment(model, graph, config);
    Rng eval_rng(14);
    const double acc =
        deployment.EvaluateAccuracyAtOffset(ds.test, 0.0, eval_rng, 50);
    if (reference < 0.0) reference = acc;
    EXPECT_NEAR(acc, reference, 0.15);
  }
}

TEST_F(EndToEndTest, UnsupportedBandFailsLoudly) {
  // Deploying a 3.5 GHz-only panel at 5.25 GHz reflects nothing — the
  // mapper cannot scale an all-zero steering sum.
  const auto ds =
      data::MakeMnistLike({.train_per_class = 20, .test_per_class = 4});
  Rng rng(15);
  core::TrainingOptions options;
  options.epochs = 5;
  const auto model = core::TrainModel(ds.train, options, rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::SingleBandSpec()});
  sim::OtaLinkConfig config = DefaultLink();  // 5.25 GHz
  // Steering is still well-defined (unit phasors); but the amplitude is
  // zero, so the deployment produces all-zero responses -> chance-level
  // accuracy rather than a crash.
  const core::Deployment deployment(model, graph, config);
  Rng eval_rng(16);
  const double acc =
      deployment.EvaluateAccuracyAtOffset(ds.test, 0.0, eval_rng, 40);
  EXPECT_LT(acc, 0.35);
}

}  // namespace
}  // namespace metaai
