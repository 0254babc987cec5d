#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mts/config_solver.h"
#include "mts/layer_graph.h"
#include "rf/geometry.h"
#include "sim/link.h"
#include "simd/dispatch.h"
#include "testutil/fnv1a.h"

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
  config.budget.noise_floor_dbm = -200.0;
  config.environment.profile = rf::CorridorProfile();
  return config;
}

std::vector<mts::PhysicalLayerSpec> DeepSpecs(std::size_t depth,
                                              double coupling) {
  std::vector<mts::PhysicalLayerSpec> specs(depth);
  for (std::size_t l = 1; l < depth; ++l) specs[l].coupling_gain = coupling;
  return specs;
}

MtsSchedule FocusSchedule(const OtaLink& link, Complex target,
                          std::size_t symbols) {
  const auto steering = link.SteeringVector(0);
  const auto result = mts::SolveSingleTarget(steering, target);
  return MtsSchedule(symbols, result.codes);
}

TEST(CascadeLinkTest, TemporaryGraphIsRejectedAtCompileTime) {
  // The link keeps a reference to its graph, so a temporary graph would
  // dangle: it must not compile.
  static_assert(std::is_constructible_v<OtaLink, const mts::LayerGraph&,
                                        OtaLinkConfig>);
  static_assert(
      !std::is_constructible_v<OtaLink, mts::LayerGraph, OtaLinkConfig>);
  static_assert(!std::is_constructible_v<OtaLink, const mts::LayerGraph&&,
                                         OtaLinkConfig>);
}

TEST(CascadeLinkTest, DepthOneCascadeLinkMatchesGolden) {
  // A single panel is the K=1 cascade. Its measurements are pinned to a
  // digest (z bytes, then the RNG stream position) so the depth-1 path
  // stays bit for bit what the single-surface pipeline produces.
  // Scalar kernels: the AVX2 PhasedSum may reassociate the sum.
  const simd::ScopedLevel scalar(simd::Level::kScalar);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  OtaLinkConfig config = QuietConfig();
  config.budget.noise_floor_dbm = -80.0;  // noise draws enter the digest
  config.mts_phase_noise_std = 0.05;
  config.observations = {Observation{},
                         Observation{.freq_offset_hz = 40e3, .harmonic = 1}};
  const OtaLink link(graph, config);
  ASSERT_EQ(link.num_layers(), 1u);

  const auto schedule = FocusSchedule(link, {80.0, 40.0}, 6);
  const std::vector<Complex> data(6, Complex{0.8, -0.4});
  const LayerSchedules no_upper;
  Rng rng(31);
  const ComplexMatrix z =
      link.TransmitSequence(data, schedule, no_upper, 0.25, rng);
  testutil::Fnv1a digest;
  digest.AddBytes(z.data(), z.size() * sizeof(Complex));
  digest.Add(rng.Next());
  EXPECT_EQ(digest.value(), 0x8df7d71422500e29ull);
}

TEST(CascadeLinkTest, FocusedUpperLayerScalesByCoupling) {
  // With the upper layer solved to focus, U(o) ~= coupling_gain, so the
  // cascade measurement is the single-surface measurement scaled by it.
  const mts::LayerGraph panel(mts::Metasurface{mts::MetasurfaceSpec{}});
  const mts::LayerGraph graph(DeepSpecs(2, 1.3));
  const OtaLink flat(panel, QuietConfig());
  const OtaLink deep(graph, QuietConfig());
  ASSERT_EQ(deep.num_layers(), 2u);

  const auto schedule = FocusSchedule(flat, {80.0, 40.0}, 3);
  const auto upper_row = deep.UpperSteeringVector(1, 0);
  const auto focus = mts::SolveSingleTarget(
      upper_row, Complex{mts::ReachableMagnitude(upper_row), 0.0});
  const LayerSchedules upper{MtsSchedule(3, focus.codes)};

  std::vector<Complex> data(3, Complex{1.0, 0.0});
  Rng rng_a(37);
  Rng rng_b(37);
  const auto z_flat = flat.TransmitSequence(data, schedule, {}, 0.0, rng_a);
  const auto z_deep = deep.TransmitSequence(data, schedule, upper, 0.0, rng_b);
  const std::vector<std::vector<mts::PhaseCode>> static_codes{focus.codes};
  const Complex factor = deep.UpperLayerFactor(0, static_codes);
  // The focused factor sits near coupling_gain (within quantization loss).
  EXPECT_NEAR(std::abs(factor), 1.3, 0.15);
  for (std::size_t i = 0; i < 3; ++i) {
    // Noise is drawn after the factor multiplies the signal, so the two
    // measurements differ by (factor - 1) * noise — absolute slack far
    // above the -200 dBm floor but far below the signal covers it.
    const Complex expected = factor * z_flat(0, i);
    EXPECT_LT(std::abs(z_deep(0, i) - expected),
              std::abs(expected) * 1e-9 + 1e-9);
  }
}

TEST(CascadeLinkTest, UpperLayersSwitchPerSymbol) {
  // Different upper configurations on different symbols must multiply each
  // symbol by its own factor (the upper layers are schedule-driven, not
  // static).
  const mts::LayerGraph graph(DeepSpecs(2, 1.0));
  const OtaLink deep(graph, QuietConfig());
  const auto schedule = FocusSchedule(deep, {80.0, 40.0}, 2);

  const auto upper_row = deep.UpperSteeringVector(1, 0);
  const auto focus = mts::SolveSingleTarget(
      upper_row, Complex{mts::ReachableMagnitude(upper_row), 0.0});
  std::vector<mts::PhaseCode> rotated = focus.codes;
  for (auto& code : rotated) {
    code = static_cast<mts::PhaseCode>((code + 1) % mts::kNumPhaseStates);
  }
  MtsSchedule upper_schedule;
  upper_schedule.push_back(focus.codes);
  upper_schedule.push_back(rotated);

  std::vector<Complex> data(2, Complex{1.0, 0.0});
  Rng rng(41);
  const auto z = deep.TransmitSequence(data, schedule,
                                       LayerSchedules{upper_schedule}, 0.0, rng);
  const Complex f0 =
      deep.UpperLayerFactor(0, std::vector<std::vector<mts::PhaseCode>>{focus.codes});
  const Complex f1 = deep.UpperLayerFactor(
      0, std::vector<std::vector<mts::PhaseCode>>{rotated});
  // Rotating every code by one state multiplies the sum by e^{j pi/2}: the
  // factors are distinct but equal in magnitude, and the per-symbol ratio
  // of the measurements must match the factor ratio up to noise.
  EXPECT_GT(std::abs(f0 - f1), 0.1);
  const Complex measured_ratio = z(0, 1) / z(0, 0);
  const Complex factor_ratio = f1 / f0;
  // Each measurement is s_i + n_i with |n_i| <= 6 sigma (aligned clock: the
  // combined noise has exactly the symbol variance). To first order
  // z1/z0 - s1/s0 = (n1 - (s1/s0) n0) / s0, so the ratio error stays below
  // 6 sigma (1 + |s1/s0|) / |s0|, with |s0| >= |z0| - 6 sigma.
  const double six_sigma = 6.0 * std::sqrt(deep.SymbolNoiseVariance());
  ASSERT_GT(std::abs(z(0, 0)), 2.0 * six_sigma);
  EXPECT_LT(std::abs(measured_ratio - factor_ratio),
            six_sigma * (1.0 + std::abs(factor_ratio)) /
                (std::abs(z(0, 0)) - six_sigma));
}

TEST(CascadeLinkTest, ValidatesCascadeArguments) {
  const mts::LayerGraph graph(DeepSpecs(2, 1.0));
  const OtaLink deep(graph, QuietConfig());
  const auto schedule = FocusSchedule(deep, {80.0, 40.0}, 2);
  std::vector<Complex> data(2, Complex{1.0, 0.0});
  Rng rng(43);
  // A cascade link needs one schedule per upper layer, sized like the
  // data.
  EXPECT_THROW(deep.TransmitSequence(data, schedule, LayerSchedules{}, 0.0, rng),
               CheckError);
  const auto upper_row = deep.UpperSteeringVector(1, 0);
  const auto focus = mts::SolveSingleTarget(
      upper_row, Complex{mts::ReachableMagnitude(upper_row), 0.0});
  EXPECT_THROW(
      deep.TransmitSequence(data, schedule,
                            LayerSchedules{MtsSchedule(1, focus.codes)}, 0.0,
                            rng),
      CheckError);
}

}  // namespace
}  // namespace metaai::sim
