#include "core/hybrid.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "data/datasets.h"
#include "rf/geometry.h"

namespace metaai::core {
namespace {

TEST(HybridTest, DimensionsAreWired) {
  HybridModel model(256, 24, 10, rf::Modulation::kQam256);
  EXPECT_EQ(model.input_dim(), 256u);
  EXPECT_EQ(model.hidden_units(), 24u);
  EXPECT_EQ(model.num_classes(), 10u);
  EXPECT_EQ(model.ota_layer().num_classes(), 24u);  // surface computes H
}

TEST(HybridTest, TrainsAndBeatsChance) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 60, .test_per_class = 15});
  HybridModel model(ds.train.dim, 24, ds.num_classes,
                    rf::Modulation::kQam256);
  Rng rng(1);
  model.Initialize(rng);
  HybridTrainOptions options;
  options.epochs = 60;
  options.learning_rate = 0.03;
  model.Train(ds.train, options, rng);
  EXPECT_GT(model.Evaluate(ds.test), 0.6);
}

TEST(HybridTest, PredictionIsScaleInvariant) {
  // Mean normalization makes the head insensitive to the channel's
  // unknown positive gain: scores scaled by any constant give identical
  // predictions.
  HybridModel model(64, 16, 5, rf::Modulation::kQam256);
  Rng rng(2);
  model.Initialize(rng);
  std::vector<double> scores(16);
  for (auto& s : scores) s = rng.Uniform(0.1, 2.0);
  const int base = model.PredictFromHiddenScores(scores);
  for (const double scale : {1e-6, 0.3, 7.0, 1e6}) {
    std::vector<double> scaled = scores;
    for (auto& s : scaled) s *= scale;
    EXPECT_EQ(model.PredictFromHiddenScores(scaled), base)
        << "scale " << scale;
  }
}

TEST(HybridTest, TrainingReducesLoss) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 30, .test_per_class = 5});
  HybridModel model(ds.train.dim, 16, ds.num_classes,
                    rf::Modulation::kQam256);
  Rng rng(3);
  model.Initialize(rng);
  HybridTrainOptions one;
  one.epochs = 1;
  const double early = model.Train(ds.train, one, rng);
  HybridTrainOptions more;
  more.epochs = 20;
  const double late = model.Train(ds.train, more, rng);
  EXPECT_LT(late, early);
}

TEST(HybridTest, OverTheAirEvaluationWorks) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 60, .test_per_class = 15});
  HybridModel model(ds.train.dim, 24, ds.num_classes,
                    rf::Modulation::kQam256);
  Rng rng(4);
  model.Initialize(rng);
  HybridTrainOptions options;
  options.epochs = 30;
  options.sync_error_injection = true;
  options.sync_gamma_scale_us = 1.85 * 256.0 / 784.0;
  model.Train(ds.train, options, rng);

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig link;
  link.geometry = {.tx_distance_m = 1.0,
                   .tx_angle_rad = rf::DegToRad(30.0),
                   .rx_distance_m = 3.0,
                   .rx_angle_rad = rf::DegToRad(40.0),
                   .frequency_hz = 5.25e9};
  link.environment.profile = rf::OfficeProfile();
  sim::SyncModelConfig sync_config;
  sync_config.latency_scale = 256.0 / 784.0;
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  Rng eval_rng(5);
  const double ota = EvaluateHybridOverTheAir(model, graph, link, ds.test,
                                              sync, eval_rng, 80);
  EXPECT_GT(ota, 0.55);
}

TEST(HybridTest, ValidatesArguments) {
  EXPECT_THROW(HybridModel(10, 0, 3, rf::Modulation::kBpsk), CheckError);
  HybridModel model(16, 8, 3, rf::Modulation::kBpsk);
  Rng rng(6);
  model.Initialize(rng);
  EXPECT_THROW(model.PredictFromHiddenScores(std::vector<double>(4)),
               CheckError);
  nn::RealDataset wrong;
  wrong.num_classes = 3;
  wrong.dim = 5;
  wrong.features.push_back(std::vector<double>(5, 0.1));
  wrong.labels.push_back(0);
  EXPECT_THROW(model.Train(wrong, {}, rng), CheckError);
}

}  // namespace
}  // namespace metaai::core
