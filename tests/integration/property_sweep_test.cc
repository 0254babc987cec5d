// Parameterized property sweeps over the experiment space: geometry,
// modulation, and parallelism grids that every deployment must survive.
#include <gtest/gtest.h>

#include <tuple>

#include "core/metaai.h"
#include "data/datasets.h"
#include "rf/geometry.h"

namespace metaai {
namespace {

// Shared small task + model (expensive; built once).
struct SharedSetup {
  data::Dataset dataset =
      data::MakeMnistLike({.train_per_class = 60, .test_per_class = 10});
  core::TrainedModel model = [this] {
    Rng rng(55);
    core::TrainingOptions options;
    options.epochs = 30;
    return core::TrainModel(dataset.train, options, rng);
  }();
};

const SharedSetup& Shared() {
  static const SharedSetup setup;
  return setup;
}

sim::OtaLinkConfig LinkFor(double tx_deg, double rx_deg, double rx_dist) {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(tx_deg),
                     .rx_distance_m = rx_dist,
                     .rx_angle_rad = rf::DegToRad(rx_deg),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  return config;
}

// ---------------------------------------------------------------------
// Geometry grid: any in-FoV placement must stay far above chance.
// ---------------------------------------------------------------------
class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(GeometrySweep, DeploymentWorksAcrossPlacements) {
  const auto [tx_deg, rx_deg, rx_dist] = GetParam();
  const auto& setup = Shared();
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment deployment(setup.model, graph,
                                    LinkFor(tx_deg, rx_deg, rx_dist));
  Rng rng(56);
  const double acc = deployment.EvaluateAccuracyAtOffset(
      setup.dataset.test, 0.0, rng, 40);
  EXPECT_GT(acc, 0.5) << "tx " << tx_deg << " rx " << rx_deg << " dist "
                      << rx_dist;
}

INSTANTIATE_TEST_SUITE_P(
    InFovPlacements, GeometrySweep,
    ::testing::Combine(::testing::Values(0.0, 30.0, 55.0),   // tx angle
                       ::testing::Values(10.0, 40.0),        // rx angle
                       ::testing::Values(2.0, 6.0)),         // rx distance
    [](const auto& info) {
      return "tx" + std::to_string(static_cast<int>(std::get<0>(info.param))) +
             "_rx" + std::to_string(static_cast<int>(std::get<1>(info.param))) +
             "_d" + std::to_string(static_cast<int>(std::get<2>(info.param)));
    });

// ---------------------------------------------------------------------
// Modulation sweep: the pipeline holds for every constellation.
// ---------------------------------------------------------------------
class ModulationSweep : public ::testing::TestWithParam<rf::Modulation> {};

TEST_P(ModulationSweep, PipelineWorksForEveryScheme) {
  const rf::Modulation scheme = GetParam();
  const auto ds =
      data::MakeMnistLike({.train_per_class = 50, .test_per_class = 8});
  Rng rng(57);
  core::TrainingOptions options;
  options.epochs = 25;
  options.modulation = scheme;
  const auto model = core::TrainModel(ds.train, options, rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment deployment(model, graph,
                                    LinkFor(30.0, 40.0, 3.0));
  Rng eval_rng(58);
  const double acc =
      deployment.EvaluateAccuracyAtOffset(ds.test, 0.0, eval_rng, 40);
  EXPECT_GT(acc, 0.5) << rf::ModulationName(scheme);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ModulationSweep,
                         ::testing::ValuesIn(rf::AllModulations().begin(),
                                             rf::AllModulations().end()),
                         [](const auto& info) {
                           std::string name =
                               rf::ModulationName(info.param);
                           std::erase(name, '-');
                           return name;
                         });

// ---------------------------------------------------------------------
// Parallelism grid: every (mode, width) combination covers all classes
// with the expected round count.
// ---------------------------------------------------------------------
class ParallelismSweep
    : public ::testing::TestWithParam<
          std::tuple<core::ParallelismMode, std::size_t>> {};

TEST_P(ParallelismSweep, RoundsAndCoverageAreConsistent) {
  const auto [mode, width] = GetParam();
  const auto& setup = Shared();
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  core::DeploymentOptions options;
  options.mode = mode;
  options.parallel_width = width;
  const core::Deployment deployment(setup.model, graph,
                                    LinkFor(30.0, 40.0, 3.0), options);
  const std::size_t classes = setup.model.num_classes();
  const std::size_t effective_width = std::min(width, classes);
  EXPECT_EQ(deployment.RoundsPerInference(),
            (classes + effective_width - 1) / effective_width);
  // Every class is computed by exactly one (round, observation) slot.
  std::vector<int> seen(classes, 0);
  for (const auto& round : deployment.schedules().outputs) {
    for (const int output : round) {
      if (output >= 0) ++seen[static_cast<std::size_t>(output)];
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWidths, ParallelismSweep,
    ::testing::Combine(::testing::Values(core::ParallelismMode::kSubcarrier,
                                         core::ParallelismMode::kAntenna),
                       ::testing::Values(2u, 3u, 5u, 10u, 16u)),
    [](const auto& info) {
      return core::ParallelismModeName(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace metaai
