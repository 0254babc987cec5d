#include "core/channel_estimation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/weight_mapper.h"
#include "rf/geometry.h"

namespace metaai::core {
namespace {

sim::OtaLinkConfig EstimationLink(std::uint64_t seed = 21) {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::LaboratoryProfile();
  config.multipath_cancellation = false;  // expose the environment
  config.channel_seed = seed;
  return config;
}

TEST(ChannelEstimationTest, EstimateMatchesTrueResponse) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const sim::OtaLink link(graph, EstimationLink());
  Rng rng(1);
  const auto estimate = EstimateEnvironment(link, rng, {.num_pilots = 256});
  const auto truth = link.EnvironmentResponse(0);
  // Within a few percent: the null configuration leaves a small residual
  // reflection and noise perturbs the pilots.
  EXPECT_LT(std::abs(estimate.response - truth), 0.15 * std::abs(truth));
  EXPECT_LT(estimate.null_quality, 0.05);
}

TEST(ChannelEstimationTest, MorePilotsReduceNoiseError) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig config = EstimationLink();
  config.budget.noise_floor_dbm = -60.0;  // noisy pilots
  const sim::OtaLink link(graph, config);
  const auto truth = link.EnvironmentResponse(0);
  double err_few = 0.0;
  double err_many = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng_few(seed);
    Rng rng_many(seed);
    err_few += std::abs(
        EstimateEnvironment(link, rng_few, {.num_pilots = 8}).response -
        truth);
    err_many += std::abs(
        EstimateEnvironment(link, rng_many, {.num_pilots = 512}).response -
        truth);
  }
  EXPECT_LT(err_many, err_few);
}

TEST(ChannelEstimationTest, EstimateDrivenEqn8MatchesOracle) {
  // The full Eqn 8 loop with the *estimated* environment performs like
  // the oracle-driven mapping in a static environment.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const sim::OtaLink link(graph, EstimationLink(33));
  Rng rng(2);
  const auto estimate = EstimateEnvironment(link, rng, {.num_pilots = 256});
  const auto truth = link.EnvironmentResponse(0);
  // Express both in solver units and compare the Eqn 8 offsets.
  const double denom = link.TxAmplitude() * link.MtsPathAmplitude(0);
  EXPECT_LT(std::abs(estimate.response / denom - truth / denom),
            0.15 * std::abs(truth / denom));
}

TEST(ChannelEstimationTest, ValidatesPreconditions) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig cancelling = EstimationLink();
  cancelling.multipath_cancellation = true;
  const sim::OtaLink bad_link(graph, cancelling);
  Rng rng(3);
  EXPECT_THROW(EstimateEnvironment(bad_link, rng), CheckError);

  const sim::OtaLink good_link(graph, EstimationLink());
  EXPECT_THROW(EstimateEnvironment(good_link, rng, {.num_pilots = 0}),
               CheckError);
}

}  // namespace
}  // namespace metaai::core
