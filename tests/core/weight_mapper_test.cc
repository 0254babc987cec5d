#include "core/weight_mapper.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "rf/geometry.h"

namespace metaai::core {
namespace {

sim::OtaLinkConfig BaseConfig() {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.budget.noise_floor_dbm = -200.0;
  return config;
}

ComplexMatrix RandomWeights(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  Rng rng(seed);
  ComplexMatrix w(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      w(r, c) = rng.ComplexNormal(1.0);
    }
  }
  return w;
}

TEST(WeightMapperTest, SequentialMappingIsAccurate) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  const auto weights = RandomWeights(3, 16, 1);
  const auto mapped = MapWeights(weights, link, {.scheme = MappingScheme::kSequential});
  EXPECT_EQ(mapped.rounds.size(), 3u);
  EXPECT_EQ(mapped.rounds[0].size(), 16u);
  EXPECT_GT(mapped.scale, 0.0);
  EXPECT_LT(mapped.mean_relative_residual, 0.05);
  // Round r computes output r.
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(mapped.outputs[r].size(), 1u);
    EXPECT_EQ(mapped.outputs[r][0], static_cast<int>(r));
  }
}

TEST(WeightMapperTest, RealizedResponsesMatchScaledWeights) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  const auto weights = RandomWeights(2, 8, 2);
  const auto mapped = MapWeights(weights, link, {.scheme = MappingScheme::kSequential});
  const auto steering = link.SteeringVector(0);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < 8; ++i) {
      sim::Complex achieved{0.0, 0.0};
      for (std::size_t m = 0; m < steering.size(); ++m) {
        achieved += steering[m] *
                    mts::PhasorForCode(mapped.rounds[r][i][m]);
      }
      const sim::Complex target = mapped.scale * weights(r, i);
      EXPECT_LT(std::abs(achieved - target), 0.08 * std::abs(target))
          << "r=" << r << " i=" << i;
    }
  }
}

TEST(WeightMapperTest, ScaleKeepsLargestWeightReachable) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  auto weights = RandomWeights(2, 8, 3);
  weights(1, 4) = {50.0, 0.0};  // dominant weight
  const auto mapped =
      MapWeights(weights, link, {.scheme = MappingScheme::kSequential, .target_fraction = 0.85});
  const auto steering = link.SteeringVector(0);
  double reachable = 0.0;
  for (const auto& s : steering) reachable += std::abs(s);
  reachable *= 0.9;
  EXPECT_NEAR(mapped.scale * 50.0, 0.85 * reachable, 1e-9);
}

TEST(WeightMapperTest, ParallelMappingCoversAllOutputs) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig config = BaseConfig();
  config.observations.clear();
  for (int k = 0; k < 4; ++k) {
    config.observations.push_back(
        {.freq_offset_hz = (k - 1.5) * 40e3});
  }
  sim::OtaLink link(graph, config);
  const auto weights = RandomWeights(10, 8, 4);
  const auto mapped = MapWeights(weights, link, {.scheme = MappingScheme::kParallel});
  // ceil(10 / 4) = 3 rounds; last round has 2 idle observations.
  EXPECT_EQ(mapped.rounds.size(), 3u);
  std::vector<bool> seen(10, false);
  std::size_t idle = 0;
  for (const auto& round : mapped.outputs) {
    EXPECT_EQ(round.size(), 4u);
    for (const int output : round) {
      if (output < 0) {
        ++idle;
      } else {
        seen[static_cast<std::size_t>(output)] = true;
      }
    }
  }
  EXPECT_EQ(idle, 2u);
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(WeightMapperTest, ParallelResidualWorseThanSequential) {
  // Serving several targets with one configuration costs fidelity — the
  // accuracy/latency trade-off of §3.3.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink seq_link(graph, BaseConfig());
  const auto weights = RandomWeights(4, 8, 5);
  const auto sequential = MapWeights(weights, seq_link, {.scheme = MappingScheme::kSequential});

  sim::OtaLinkConfig par_config = BaseConfig();
  par_config.observations.clear();
  for (int k = 0; k < 4; ++k) {
    par_config.observations.push_back(
        {.freq_offset_hz = (k - 1.5) * 40e3});
  }
  sim::OtaLink par_link(graph, par_config);
  const auto parallel = MapWeights(weights, par_link, {.scheme = MappingScheme::kParallel});
  EXPECT_GT(parallel.mean_relative_residual,
            sequential.mean_relative_residual);
}

TEST(WeightMapperTest, EnvironmentSubtractionCancelsStaticMultipath) {
  // Eqn 8: with cancellation off, solving for (H_des - H_e) makes the
  // *total* received channel land on the desired weight.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig config = BaseConfig();
  config.multipath_cancellation = false;
  sim::OtaLink link(graph, config);
  const auto weights = RandomWeights(1, 4, 6);
  const auto mapped =
      MapWeights(weights, link, {.scheme = MappingScheme::kSequential, .subtract_environment = true});
  const auto steering = link.SteeringVector(0);
  const sim::Complex env = link.EnvironmentResponse(0) /
                           (link.TxAmplitude() * link.MtsPathAmplitude(0));
  for (std::size_t i = 0; i < 4; ++i) {
    sim::Complex achieved{0.0, 0.0};
    for (std::size_t m = 0; m < steering.size(); ++m) {
      achieved += steering[m] * mts::PhasorForCode(mapped.rounds[0][i][m]);
    }
    // achieved + env ~= scale * weight.
    const sim::Complex total = achieved + env;
    const sim::Complex target = mapped.scale * weights(0, i);
    EXPECT_LT(std::abs(total - target), 0.1 * std::abs(target));
  }
}

TEST(WeightMapperTest, ValidatesArguments) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  ComplexMatrix empty;
  EXPECT_THROW(MapWeights(empty, link, {.scheme = MappingScheme::kSequential}), CheckError);
  ComplexMatrix zeros(2, 4, sim::Complex{0.0, 0.0});
  EXPECT_THROW(MapWeights(zeros, link, {.scheme = MappingScheme::kSequential}), CheckError);
  const auto weights = RandomWeights(2, 4, 7);
  EXPECT_THROW(MapWeights(weights, link, {.scheme = MappingScheme::kSequential, .target_fraction = 0.0}),
               CheckError);
  EXPECT_THROW(MapWeights(weights, link, {.scheme = MappingScheme::kSequential, .target_fraction = 1.5}),
               CheckError);

  sim::OtaLinkConfig multi = BaseConfig();
  multi.observations.push_back({.freq_offset_hz = 40e3});
  sim::OtaLink multi_link(graph, multi);
  EXPECT_THROW(MapWeights(weights, multi_link, {.scheme = MappingScheme::kSequential}), CheckError);
}

TEST(WeightMapperTest, AutoSchemeFollowsLinkShape) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const auto weights = RandomWeights(3, 8, 8);

  sim::OtaLink single(graph, BaseConfig());
  const auto auto_single = MapWeights(weights, single);
  const auto sequential =
      MapWeights(weights, single, {.scheme = MappingScheme::kSequential});
  EXPECT_EQ(auto_single.rounds, sequential.rounds);
  EXPECT_EQ(auto_single.outputs, sequential.outputs);

  sim::OtaLinkConfig config = BaseConfig();
  config.observations.clear();
  for (int k = 0; k < 3; ++k) {
    config.observations.push_back({.freq_offset_hz = (k - 1.0) * 40e3});
  }
  sim::OtaLink multi(graph, config);
  const auto auto_multi = MapWeights(weights, multi);
  const auto parallel =
      MapWeights(weights, multi, {.scheme = MappingScheme::kParallel});
  EXPECT_EQ(auto_multi.rounds, parallel.rounds);
  EXPECT_EQ(auto_multi.outputs, parallel.outputs);
}

// The serving guarantee: a cached mapping is bitwise identical to a
// fresh solve — phase codes, output assignments, and both float scalars.
TEST(WeightMapperTest, CachedMappingIsBitwiseIdenticalToFreshSolve) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig config = BaseConfig();
  config.observations.clear();
  for (int k = 0; k < 2; ++k) {
    config.observations.push_back({.freq_offset_hz = (k - 0.5) * 40e3});
  }
  sim::OtaLink link(graph, config);
  const auto weights = RandomWeights(4, 8, 9);

  const auto fresh =
      MapWeights(weights, link, {.scheme = MappingScheme::kParallel});

  mts::ConfigCache cache;
  MappingOptions options{.scheme = MappingScheme::kParallel};
  options.cache = &cache;
  const auto miss = MapWeights(weights, link, options);
  const auto hit = MapWeights(weights, link, options);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  for (const auto& mapped : {miss, hit}) {
    EXPECT_EQ(mapped.rounds, fresh.rounds);
    EXPECT_EQ(mapped.outputs, fresh.outputs);
    EXPECT_EQ(mapped.scale, fresh.scale);
    EXPECT_EQ(mapped.mean_relative_residual, fresh.mean_relative_residual);
  }
}

TEST(WeightMapperTest, CacheKeyDistinguishesEveryInput) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  const auto weights = RandomWeights(2, 4, 10);
  auto other = weights;
  other(1, 2) += sim::Complex{1e-12, 0.0};

  const MappingOptions base{.scheme = MappingScheme::kSequential};
  const std::string key = MappingCacheKey(weights, link, base);
  EXPECT_NE(key, MappingCacheKey(other, link, base));

  MappingOptions fraction = base;
  fraction.target_fraction = 0.5;
  EXPECT_NE(key, MappingCacheKey(weights, link, fraction));

  MappingOptions sweeps = base;
  sweeps.solver.max_sweeps = 3;
  EXPECT_NE(key, MappingCacheKey(weights, link, sweeps));

  MappingOptions masked = base;
  masked.solver.atom_mask.assign(link.SteeringVector(0).size(), 1);
  masked.solver.atom_mask[0] = 0;
  EXPECT_NE(key, MappingCacheKey(weights, link, masked));

  // Same inputs -> same key (the cache would be useless otherwise).
  EXPECT_EQ(key, MappingCacheKey(weights, link, base));
}

// Incremental solving: a near-duplicate tenant's mapping warm-starts
// from the nearest cached schedule — equivalent accuracy for fewer
// coordinate-descent sweeps.
TEST(WeightMapperTest, WarmStartFromNearDuplicateUsesFewerSweeps) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  const auto weights = RandomWeights(3, 16, 11);
  auto near_duplicate = weights;
  // A fine-tuning-sized perturbation: every weight nudged by ~0.3%.
  Rng rng(12);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      near_duplicate(r, c) += rng.ComplexNormal(1e-5);
    }
  }

  MappingOptions warm_options{.scheme = MappingScheme::kSequential};
  warm_options.warm_start_distance = 0.1;
  MappingOptions cold_options = warm_options;  // same key params, no cache

  mts::ConfigCache cache;
  warm_options.cache = &cache;
  const auto seeded = MapWeights(weights, link, warm_options);
  EXPECT_FALSE(seeded.warm_started);  // empty cache: nothing to warm from

  const auto warm = MapWeights(near_duplicate, link, warm_options);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_GE(cache.stats().nearest_hits, 1u);

  const auto cold = MapWeights(near_duplicate, link, cold_options);
  EXPECT_FALSE(cold.warm_started);
  EXPECT_LT(warm.total_sweeps, cold.total_sweeps);
  // Equivalent accuracy: the early-exit threshold trades at most a
  // sliver of residual for the saved sweeps.
  EXPECT_NEAR(warm.mean_relative_residual, cold.mean_relative_residual, 0.01);
}

TEST(WeightMapperTest, WarmStartBeyondDistanceFallsBackToColdSolve) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  const auto weights = RandomWeights(2, 8, 13);
  const auto unrelated = RandomWeights(2, 8, 14);

  MappingOptions options{.scheme = MappingScheme::kSequential};
  options.warm_start_distance = 1e-6;  // radius nothing unrelated can meet
  mts::ConfigCache cache;
  options.cache = &cache;
  MapWeights(weights, link, options);
  const auto mapped = MapWeights(unrelated, link, options);
  EXPECT_FALSE(mapped.warm_started);
  EXPECT_GE(cache.stats().nearest_misses, 1u);
}

TEST(WeightMapperTest, WarmStartParamsParticipateInCacheKey) {
  // Warm-started and cold mappings are different computations; they must
  // never share a cache entry.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  const auto weights = RandomWeights(2, 4, 15);

  const MappingOptions base{.scheme = MappingScheme::kSequential};
  MappingOptions warm = base;
  warm.warm_start_distance = 0.1;
  EXPECT_NE(MappingCacheKey(weights, link, base),
            MappingCacheKey(weights, link, warm));

  MappingOptions tighter = warm;
  tighter.warm_start_min_improvement = 1e-2;
  EXPECT_NE(MappingCacheKey(weights, link, warm),
            MappingCacheKey(weights, link, tighter));
}

TEST(WeightMapperTest, FamilyKeyIgnoresWeightsAndFeaturesAreScaleFree) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLink link(graph, BaseConfig());
  const auto weights = RandomWeights(2, 4, 16);
  const auto other = RandomWeights(2, 4, 17);

  const MappingOptions options{.scheme = MappingScheme::kSequential};
  // Same shape, different values: same family (the weights are the only
  // excluded input)...
  EXPECT_EQ(MappingFamilyKey(weights, link, options),
            MappingFamilyKey(other, link, options));
  // ...but full keys still differ.
  EXPECT_NE(MappingCacheKey(weights, link, options),
            MappingCacheKey(other, link, options));

  // Features are normalized by the max magnitude, so a uniformly scaled
  // model measures as distance zero from the original (the solver's
  // targets divide out the scale too). A power-of-two factor keeps the
  // check bitwise: scaling numerator and denominator by 2 leaves every
  // rounded quotient unchanged.
  auto scaled = weights;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 4; ++c) scaled(r, c) *= 2.0;
  }
  EXPECT_EQ(MappingFeatures(weights), MappingFeatures(scaled));
}

}  // namespace
}  // namespace metaai::core
