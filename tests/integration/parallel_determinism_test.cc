// Determinism under parallelism: the same seed must produce identical
// mapped schedules, deployment accuracy and telemetry exports for any
// worker count — thread count 1 (the exact legacy serial path), 2 and 8
// are exercised explicitly, standing in for METAAI_THREADS ∈ {1, 2, 8}
// (SetDefaultThreadCount and the env var feed the same resolution).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/metaai.h"
#include "data/datasets.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "rf/geometry.h"

namespace metaai {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

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

core::TrainedModel SmallModel(const data::Dataset& ds) {
  Rng rng(5);
  core::TrainingOptions options;
  options.epochs = 3;
  return core::TrainModel(ds.train, options, rng);
}

void ExpectSchedulesEqual(const core::MappedSchedules& a,
                          const core::MappedSchedules& b, int threads) {
  EXPECT_EQ(a.scale, b.scale) << "threads=" << threads;
  EXPECT_EQ(a.mean_relative_residual, b.mean_relative_residual)
      << "threads=" << threads;
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_EQ(a.rounds, b.rounds) << "threads=" << threads;
  EXPECT_EQ(a.outputs, b.outputs) << "threads=" << threads;
}

TEST(ParallelDeterminismTest, SequentialMappingIsThreadCountInvariant) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 10, .test_per_class = 2});
  const auto model = SmallModel(ds);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const sim::OtaLink link(graph, SmallLink());

  auto map = [&](int threads) {
    const par::ScopedThreadCount scoped(threads);
    return core::MapWeights(model.network.weights(), link,
                            {.scheme = core::MappingScheme::kSequential});
  };
  const core::MappedSchedules serial = map(1);
  for (const int threads : kThreadCounts) {
    ExpectSchedulesEqual(map(threads), serial, threads);
  }
}

TEST(ParallelDeterminismTest, ParallelMappingIsThreadCountInvariant) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 10, .test_per_class = 2});
  const auto model = SmallModel(ds);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  auto map = [&](int threads) {
    const par::ScopedThreadCount scoped(threads);
    core::DeploymentOptions options;
    options.mode = core::ParallelismMode::kAntenna;
    options.parallel_width = 4;
    sim::OtaLinkConfig config = SmallLink();
    config.observations =
        core::BuildObservations(config, model.num_classes(), options);
    const sim::OtaLink link(graph, config);
    core::MappingOptions mapping = options.mapping;
    mapping.scheme = core::MappingScheme::kParallel;
    return core::MapWeights(model.network.weights(), link, mapping);
  };
  const core::MappedSchedules serial = map(1);
  for (const int threads : kThreadCounts) {
    ExpectSchedulesEqual(map(threads), serial, threads);
  }
}

TEST(ParallelDeterminismTest, DeploymentAccuracyIsThreadCountInvariant) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 10, .test_per_class = 3});
  const auto model = SmallModel(ds);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  auto evaluate = [&](int threads) {
    const par::ScopedThreadCount scoped(threads);
    const core::Deployment deployment(model, graph, SmallLink());
    sim::SyncModelConfig sync_config;
    sync_config.latency_scale = 0.3;
    const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
    Rng rng(41);
    const double accuracy =
        deployment.EvaluateAccuracy(ds.test, sync, rng, 12);
    Rng offset_rng(43);
    const double at_offset = deployment.EvaluateAccuracyAtOffset(
        ds.test, 1.5, offset_rng, 12);
    return std::make_pair(accuracy, at_offset);
  };
  const auto serial = evaluate(1);
  for (const int threads : kThreadCounts) {
    EXPECT_EQ(evaluate(threads), serial) << "threads=" << threads;
  }
}

#if METAAI_OBS_ENABLED

TEST(ParallelDeterminismTest, TelemetryExportIsThreadCountInvariant) {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 10, .test_per_class = 3});
  const auto model = SmallModel(ds);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  // Full instrumented pipeline (solver counters/histograms/probes during
  // deployment construction, link/sync/ota instruments during the batch
  // evaluation), exported as metrics JSON + probes JSONL.
  auto run = [&](int threads) {
    const par::ScopedThreadCount scoped(threads);
    obs::Registry registry;
    obs::ProbeSink sink;
    const obs::ScopedRegistry scoped_registry(&registry);
    const obs::ScopedProbeSink scoped_sink(&sink);
    const core::Deployment deployment(model, graph, SmallLink());
    sim::SyncModelConfig sync_config;
    sync_config.latency_scale = 0.3;
    const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
    Rng rng(41);
    deployment.EvaluateAccuracy(ds.test, sync, rng, 8);
    return std::make_pair(obs::ToJson(registry.Snapshot()),
                          obs::ToProbesJsonl(sink));
  };
  const auto serial = run(1);
  for (const int threads : kThreadCounts) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads=" << threads;
    EXPECT_EQ(parallel.second, serial.second) << "threads=" << threads;
  }
}

#endif  // METAAI_OBS_ENABLED

}  // namespace
}  // namespace metaai
