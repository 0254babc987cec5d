#include "sim/link.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "mts/config_solver.h"
#include "rf/geometry.h"

namespace metaai::sim {
namespace {

mts::LinkGeometry DefaultGeometry() {
  return {.tx_distance_m = 1.0,
          .tx_angle_rad = rf::DegToRad(30.0),
          .rx_distance_m = 3.0,
          .rx_angle_rad = rf::DegToRad(40.0),
          .frequency_hz = 5.25e9};
}

OtaLinkConfig QuietConfig() {
  OtaLinkConfig config;
  config.geometry = DefaultGeometry();
  // Effectively noise-free for the deterministic checks.
  config.budget.noise_floor_dbm = -200.0;
  config.environment.profile = rf::CorridorProfile();
  return config;
}

// A schedule realizing a single target weight on every symbol.
MtsSchedule UniformSchedule(const OtaLink& link, Complex target,
                            std::size_t symbols) {
  const auto steering = link.SteeringVector(0);
  const auto result = mts::SolveSingleTarget(steering, target);
  return MtsSchedule(symbols, result.codes);
}

TEST(OtaLinkTest, TxRxDistanceMatchesGeometry) {
  // Tx at 1m @30deg, Rx at 3m @40deg -> law of cosines with 10deg between.
  const double d = TxRxDistance(DefaultGeometry());
  const double expected = std::sqrt(1.0 + 9.0 - 2.0 * 1.0 * 3.0 *
                                               std::cos(rf::DegToRad(10.0)));
  EXPECT_NEAR(d, expected, 1e-9);
}

TEST(OtaLinkTest, NoiselessTransmissionRealizesWeightTimesData) {
  // With cancellation on and no noise/offset, z_i must equal
  // tx_amplitude * mts_amplitude * B_i * x_i exactly — the paper's
  // Eqn 3 product realized over the air.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLink link(graph, QuietConfig());
  const Complex target{80.0, 40.0};
  const auto schedule = UniformSchedule(link, target, 4);

  // Evaluate the achieved sum for the solved codes.
  const auto steering = link.SteeringVector(0);
  Complex achieved{0.0, 0.0};
  for (std::size_t m = 0; m < steering.size(); ++m) {
    achieved += steering[m] * mts::PhasorForCode(schedule[0][m]);
  }

  std::vector<Complex> data{{1.0, 0.0}, {0.0, 1.0}, {-0.7, 0.3}, {0.5, -0.5}};
  Rng rng(7);
  const auto z = link.TransmitSequence(data, schedule, {}, 0.0, rng);
  ASSERT_EQ(z.rows(), 1u);
  ASSERT_EQ(z.cols(), 4u);
  const double amp = std::sqrt(std::pow(10.0, (20.0 - 30.0) / 10.0)) *
                     link.MtsPathAmplitude(0);
  for (std::size_t i = 0; i < 4; ++i) {
    const Complex expected = amp * achieved * data[i];
    EXPECT_LT(std::abs(z(0, i) - expected), std::abs(expected) * 1e-6)
        << "symbol " << i;
  }
}

TEST(OtaLinkTest, CancellationRemovesEnvironmentPath) {
  // With the flip scheme, the (static) environment path must not leak
  // into the measurements even though it is comparable in strength to
  // the MTS path.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  config.environment.profile = rf::LaboratoryProfile();  // rich multipath
  config.multipath_cancellation = true;
  OtaLink link(graph, config);
  ASSERT_GT(std::abs(link.EnvironmentResponse(0)), 0.0);

  const auto schedule = UniformSchedule(link, {80.0, 40.0}, 3);
  const auto steering = link.SteeringVector(0);
  Complex achieved{0.0, 0.0};
  for (std::size_t m = 0; m < steering.size(); ++m) {
    achieved += steering[m] * mts::PhasorForCode(schedule[0][m]);
  }
  std::vector<Complex> data{{1.0, 0.0}, {0.6, -0.8}, {-1.0, 0.0}};
  Rng rng(9);
  const auto z = link.TransmitSequence(data, schedule, {}, 0.0, rng);
  const double amp = std::sqrt(std::pow(10.0, (20.0 - 30.0) / 10.0)) *
                     link.MtsPathAmplitude(0);
  for (std::size_t i = 0; i < 3; ++i) {
    const Complex expected = amp * achieved * data[i];
    EXPECT_LT(std::abs(z(0, i) - expected), std::abs(expected) * 1e-6);
  }
}

TEST(OtaLinkTest, ObservationOrderDoesNotChangeChannels) {
  // Regression: the shared base-environment realization used to be built
  // lazily at the first observation without a geometry override, so the
  // taps every observation saw — and the forked streams of the overrides
  // — depended on where that observation sat in the list. Permuting the
  // observation list must permute the per-observation channels, nothing
  // more.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  mts::LinkGeometry other = DefaultGeometry();
  other.rx_angle_rad = rf::DegToRad(-25.0);
  const Observation base_obs{};
  const Observation override_obs{.geometry = other};

  OtaLinkConfig forward = QuietConfig();
  forward.environment.profile = rf::LaboratoryProfile();
  forward.observations = {base_obs, override_obs};
  OtaLinkConfig reversed = forward;
  reversed.observations = {override_obs, base_obs};

  const OtaLink link_fwd(graph, forward);
  const OtaLink link_rev(graph, reversed);
  // base_obs is index 0 forward, index 1 reversed (and vice versa).
  EXPECT_EQ(link_fwd.EnvironmentResponse(0), link_rev.EnvironmentResponse(1));
  EXPECT_EQ(link_fwd.EnvironmentResponse(1), link_rev.EnvironmentResponse(0));
}

TEST(OtaLinkTest, WithoutCancellationEnvironmentLeaksIn) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  config.environment.profile = rf::LaboratoryProfile();
  config.multipath_cancellation = false;
  OtaLink link(graph, config);

  const auto schedule = UniformSchedule(link, {80.0, 40.0}, 1);
  const auto steering = link.SteeringVector(0);
  Complex achieved{0.0, 0.0};
  for (std::size_t m = 0; m < steering.size(); ++m) {
    achieved += steering[m] * mts::PhasorForCode(schedule[0][m]);
  }
  std::vector<Complex> data{{1.0, 0.0}};
  Rng rng(11);
  const auto z = link.TransmitSequence(data, schedule, {}, 0.0, rng);
  const double tx_amp = std::sqrt(std::pow(10.0, (20.0 - 30.0) / 10.0));
  const Complex mts_part = tx_amp * link.MtsPathAmplitude(0) * achieved;
  // The measurement includes the environment on top of the MTS product.
  const Complex leak = z(0, 0) - mts_part;
  EXPECT_NEAR(std::abs(leak - link.EnvironmentResponse(0)), 0.0,
              std::abs(mts_part) * 1e-6);
}

TEST(OtaLinkTest, HalfSymbolOffsetAveragesAdjacentWeights) {
  // With a half-symbol clock offset the receiver's pair combining can no
  // longer isolate one weight: it recovers the benign average of the two
  // adjacent weights (and still cancels the environment). Fig 11b's
  // corruption shows up as this weight mixing.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLink link(graph, QuietConfig());
  const auto sched_a = UniformSchedule(link, {80.0, 40.0}, 1);
  const auto sched_b = UniformSchedule(link, {-40.0, 70.0}, 1);
  MtsSchedule schedule;
  for (int i = 0; i < 8; ++i) {
    schedule.push_back(i % 2 == 0 ? sched_a[0] : sched_b[0]);
  }
  std::vector<Complex> data(8, Complex{1.0, 0.0});
  Rng rng(13);
  const auto aligned = link.TransmitSequence(data, schedule, {}, 0.0, rng);
  const auto offset = link.TransmitSequence(data, schedule, {}, 0.5, rng);
  for (std::size_t i = 2; i < 6; ++i) {
    // Mixed measurement: average of this symbol's and the previous
    // symbol's aligned measurements.
    const Complex expected = 0.5 * (aligned(0, i) + aligned(0, i - 1));
    EXPECT_LT(std::abs(offset(0, i) - expected),
              std::abs(expected) * 1e-6 + 1e-12)
        << "symbol " << i;
    // And clearly different from the aligned weight itself.
    EXPECT_GT(std::abs(offset(0, i) - aligned(0, i)),
              std::abs(aligned(0, i)) * 0.3);
  }
}

TEST(OtaLinkTest, IntegerSymbolOffsetShiftsSchedule) {
  // With an exactly one-symbol offset the MTS plays weight i-1 during
  // data symbol i.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLink link(graph, QuietConfig());
  // Two alternating weights.
  const auto sched_a = UniformSchedule(link, {80.0, 40.0}, 1);
  const auto sched_b = UniformSchedule(link, {-40.0, 70.0}, 1);
  MtsSchedule schedule;
  for (int i = 0; i < 6; ++i) {
    schedule.push_back(i % 2 == 0 ? sched_a[0] : sched_b[0]);
  }
  std::vector<Complex> data(6, Complex{1.0, 0.0});
  Rng rng(17);
  const auto aligned = link.TransmitSequence(data, schedule, {}, 0.0, rng);
  const auto shifted = link.TransmitSequence(data, schedule, {}, 1.0, rng);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_LT(std::abs(shifted(0, i) - aligned(0, i - 1)),
              std::abs(aligned(0, i - 1)) * 1e-6 + 1e-12)
        << "symbol " << i;
  }
}

TEST(OtaLinkTest, NoiseMatchesConfiguredFloor) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  config.budget.noise_floor_dbm = -80.0;
  OtaLink link(graph, config);
  // All-zero data: measurements are pure integrated noise.
  const auto schedule = UniformSchedule(link, {80.0, 40.0}, 400);
  std::vector<Complex> data(400, Complex{0.0, 0.0});
  Rng rng(19);
  const auto z = link.TransmitSequence(data, schedule, {}, 0.0, rng);
  double power = 0.0;
  for (std::size_t i = 0; i < 400; ++i) power += std::norm(z(0, i));
  power /= 400.0;
  EXPECT_NEAR(power / link.SymbolNoiseVariance(), 1.0, 0.25);
}

TEST(OtaLinkTest, WallAttenuationReducesMtsPath) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  OtaLink clear_link(graph, config);
  config.environment.wall_attenuation_db = 12.0;
  OtaLink walled_link(graph, config);
  EXPECT_NEAR(clear_link.MtsPathAmplitude(0) / walled_link.MtsPathAmplitude(0),
              std::pow(10.0, 12.0 / 20.0), 1e-9);
}

TEST(OtaLinkTest, NlosRemovesDirectEnvironmentPath) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  config.environment.profile = rf::CorridorProfile();
  OtaLink los(graph, config);
  config.environment.direct_tx_rx = false;
  OtaLink nlos(graph, config);
  // NLoS keeps scatter but drops the dominant direct term.
  EXPECT_LT(std::abs(nlos.EnvironmentResponse(0)),
            std::abs(los.EnvironmentResponse(0)));
}

TEST(OtaLinkTest, MultipleObservationsHaveDistinctSteering) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  config.observations.clear();
  config.observations.push_back({.freq_offset_hz = 0.0});
  config.observations.push_back({.freq_offset_hz = 10e6});
  mts::LinkGeometry other = DefaultGeometry();
  other.rx_angle_rad = rf::DegToRad(20.0);
  config.observations.push_back({.freq_offset_hz = 0.0, .geometry = other});
  OtaLink link(graph, config);
  EXPECT_EQ(link.num_observations(), 3u);
  const auto s0 = link.SteeringVector(0);
  const auto s1 = link.SteeringVector(1);
  const auto s2 = link.SteeringVector(2);
  double d01 = 0.0;
  double d02 = 0.0;
  for (std::size_t m = 0; m < s0.size(); ++m) {
    d01 += std::abs(s0[m] - s1[m]);
    d02 += std::abs(s0[m] - s2[m]);
  }
  EXPECT_GT(d01, 1.0);
  EXPECT_GT(d02, 1.0);
}

TEST(OtaLinkTest, PhaseNoisePerturbsMeasurements) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  config.mts_phase_noise_std = 0.2;
  OtaLink noisy(graph, config);
  OtaLink clean(graph, QuietConfig());
  const auto schedule = UniformSchedule(clean, {80.0, 40.0}, 4);
  std::vector<Complex> data(4, Complex{1.0, 0.0});
  Rng rng_a(21);
  Rng rng_b(21);
  const auto za = clean.TransmitSequence(data, schedule, {}, 0.0, rng_a);
  const auto zb = noisy.TransmitSequence(data, schedule, {}, 0.0, rng_b);
  double diff = 0.0;
  for (std::size_t i = 0; i < 4; ++i) diff += std::abs(za(0, i) - zb(0, i));
  EXPECT_GT(diff, 0.0);
}

TEST(OtaLinkTest, InterfererR4IntermittentlyShadowsMtsPath) {
  // R4 shadowing is bursty: over a long transmission some symbols are
  // deeply attenuated, the rest untouched, and none amplified.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  config.environment.interferer = InterfererRegion::kR4;
  OtaLink link(graph, config);
  constexpr std::size_t kSymbols = 600;
  const auto schedule =
      UniformSchedule(link, {80.0, 40.0}, kSymbols);
  std::vector<Complex> data(kSymbols, Complex{1.0, 0.0});
  Rng rng(23);
  const auto z = link.TransmitSequence(data, schedule, {}, 0.0, rng);
  OtaLink clear_link(graph, QuietConfig());
  Rng rng2(23);
  const auto z_clear = clear_link.TransmitSequence(data, schedule, {}, 0.0,
                                                   rng2);
  std::size_t shadowed = 0;
  for (std::size_t i = 0; i < kSymbols; ++i) {
    const double ratio = std::abs(z(0, i)) / std::abs(z_clear(0, i));
    EXPECT_LT(ratio, 1.0 + 1e-6);
    if (ratio < 0.9) {
      ++shadowed;
      EXPECT_NEAR(ratio, 0.42, 0.05);  // the body's through-loss
    }
  }
  EXPECT_GT(shadowed, 0u);
  EXPECT_LT(shadowed, kSymbols);
}

TEST(OtaLinkTest, ValidatesArguments) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig bad = QuietConfig();
  bad.oversample = 3;
  EXPECT_THROW(OtaLink(graph, bad), CheckError);
  bad = QuietConfig();
  bad.observations.clear();
  EXPECT_THROW(OtaLink(graph, bad), CheckError);

  OtaLink link(graph, QuietConfig());
  Rng rng(1);
  std::vector<Complex> data(2, Complex{1.0, 0.0});
  MtsSchedule wrong_len(1, std::vector<mts::PhaseCode>(256, 0));
  EXPECT_THROW(link.TransmitSequence(data, wrong_len, {}, 0.0, rng),
               CheckError);
  MtsSchedule wrong_atoms(2, std::vector<mts::PhaseCode>(8, 0));
  EXPECT_THROW(link.TransmitSequence(data, wrong_atoms, {}, 0.0, rng),
               CheckError);
}

TEST(OtaLinkTest, NominalSnrFallsWithDistance) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig near_config = QuietConfig();
  near_config.budget.noise_floor_dbm = -65.0;
  OtaLinkConfig far_config = near_config;
  far_config.geometry.rx_distance_m = 12.0;
  OtaLink near_link(graph, near_config);
  OtaLink far_link(graph, far_config);
  EXPECT_GT(near_link.NominalSnrDb(), far_link.NominalSnrDb() + 10.0);
}

}  // namespace
}  // namespace metaai::sim
