// End-to-end telemetry invariants: the instruments recorded by the OTA
// pipeline must agree with what the pipeline reports about itself, and —
// because every instrument value derives from seeded computation — two
// identically-seeded runs must produce identical metric snapshots.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "core/metaai.h"
#include "data/datasets.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "rf/geometry.h"

namespace metaai {
namespace {

#if METAAI_OBS_ENABLED

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

std::uint64_t CounterValue(const obs::RegistrySnapshot& snapshot,
                           const std::string& name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  ADD_FAILURE() << "missing counter " << name;
  return 0;
}

TEST(TelemetryIntegrationTest, OtaPipelineInstrumentsMatchReportedState) {
  obs::Registry registry;
  const obs::ScopedRegistry scoped(&registry);

  const auto ds =
      data::MakeMnistLike({.train_per_class = 20, .test_per_class = 5});
  Rng train_rng(5);
  core::TrainingOptions options;
  options.epochs = 5;
  const auto model = core::TrainModel(ds.train, options, train_rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment deployment(model, graph, SmallLink());

  sim::SyncModelConfig sync_config;
  sync_config.latency_scale = 0.3;
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  Rng rng(41);
  constexpr std::size_t kSamples = 8;
  deployment.EvaluateAccuracy(ds.test, sync, rng, kSamples);

  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  // One inference per sample; each plays every scheduled round once.
  EXPECT_EQ(CounterValue(snapshot, "ota.inferences"), kSamples);
  EXPECT_EQ(CounterValue(snapshot, "ota.rounds"),
            kSamples * deployment.RoundsPerInference());
  EXPECT_EQ(CounterValue(snapshot, "ota.samples"), kSamples);
  // The link transmitted exactly the scheduled rounds.
  EXPECT_EQ(CounterValue(snapshot, "link.transmissions"),
            kSamples * deployment.RoundsPerInference());
  // Deployment construction ran the solver at least once per weight.
  EXPECT_GE(CounterValue(snapshot, "solver.sweeps"), 1u);
  EXPECT_GE(CounterValue(snapshot, "solver.calls"),
            deployment.RoundsPerInference());
  // Training recorded its epochs.
  EXPECT_EQ(CounterValue(snapshot, "train.epochs"),
            static_cast<std::uint64_t>(options.epochs));
}

TEST(TelemetryIntegrationTest, IdenticalSeedsProduceIdenticalSnapshots) {
  auto run = [] {
    obs::Registry registry;
    const obs::ScopedRegistry scoped(&registry);
    const auto ds =
        data::MakeMnistLike({.train_per_class = 20, .test_per_class = 5});
    Rng train_rng(5);
    core::TrainingOptions options;
    options.epochs = 5;
    const auto model = core::TrainModel(ds.train, options, train_rng);
    const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
    const core::Deployment deployment(model, graph, SmallLink());
    sim::SyncModelConfig sync_config;
    sync_config.latency_scale = 0.3;
    const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
    Rng rng(41);
    deployment.EvaluateAccuracy(ds.test, sync, rng, 8);
    return registry.Snapshot();
  };
  const obs::RegistrySnapshot a = run();
  const obs::RegistrySnapshot b = run();
  EXPECT_EQ(a, b);
  // Snapshot equality must also mean byte-identical exports.
  EXPECT_EQ(obs::ToJson(a), obs::ToJson(b));
}

TEST(TelemetryIntegrationTest, ProbeStreamIsPopulatedAndSeedDeterministic) {
  auto run = [] {
    obs::ProbeSink sink;
    const obs::ScopedProbeSink scoped(&sink);
    const auto ds =
        data::MakeMnistLike({.train_per_class = 20, .test_per_class = 5});
    Rng train_rng(5);
    core::TrainingOptions options;
    options.epochs = 2;
    const auto model = core::TrainModel(ds.train, options, train_rng);
    const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
    const core::Deployment deployment(model, graph, SmallLink());
    sim::SyncModelConfig sync_config;
    sync_config.latency_scale = 0.3;
    const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
    Rng rng(41);
    deployment.EvaluateAccuracy(ds.test, sync, rng, 4);
    return obs::ToProbesJsonl(sink);
  };

  const std::string jsonl = run();
  // Same seeds, byte-identical flight-recorder stream.
  EXPECT_EQ(jsonl, run());

  // The stream validates against the metaai.probes.v1 schema and the
  // pipeline hit every instrumented probe site.
  std::istringstream lines(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(obs::ParseJson(line).Find("schema")->string,
            "metaai.probes.v1");
  std::set<std::string> sites;
  std::size_t records = 0;
  while (std::getline(lines, line)) {
    const obs::JsonValue record = obs::ParseJson(line);
    ASSERT_NE(record.Find("seq"), nullptr);
    ASSERT_NE(record.Find("kind"), nullptr);
    ASSERT_NE(record.Find("values"), nullptr);
    sites.insert(record.Find("site")->string);
    ++records;
  }
  EXPECT_GT(records, 0u);
  for (const char* site :
       {"solver.solve", "deploy.schedule", "link.transmit", "sync.sample",
        "ota.evaluate"}) {
    EXPECT_TRUE(sites.count(site)) << "no probe from site " << site;
  }
}

TEST(TelemetryIntegrationTest, SchedulerRecordsFrameAndBudgetState) {
  obs::Registry registry;
  const obs::ScopedRegistry scoped(&registry);

  const auto ds =
      data::MakeMnistLike({.train_per_class = 10, .test_per_class = 2});
  Rng rng(3);
  core::TrainingOptions options;
  options.epochs = 2;
  auto model = core::TrainModel(ds.train, options, rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  std::vector<core::DeviceSpec> devices;
  devices.push_back({.name = "a", .model = model, .link = SmallLink()});
  devices.push_back({.name = "b", .model = std::move(model),
                     .link = SmallLink()});
  const core::SharedSurfaceScheduler scheduler(graph, std::move(devices));

  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "scheduler.frames_built"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "controller.budget_checks"), 1u);
  double devices_gauge = -1.0;
  double frame_gauge = -1.0;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "scheduler.devices") devices_gauge = value;
    if (name == "scheduler.frame_duration_s") frame_gauge = value;
  }
  EXPECT_DOUBLE_EQ(devices_gauge, 2.0);
  EXPECT_DOUBLE_EQ(frame_gauge, scheduler.FrameDuration());
}

#else  // METAAI_OBS_ENABLED

TEST(TelemetryIntegrationTest, DisabledBuildSkips) {
  GTEST_SKIP() << "telemetry compiled out (METAAI_OBS=OFF)";
}

#endif  // METAAI_OBS_ENABLED

}  // namespace
}  // namespace metaai
