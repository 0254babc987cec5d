#include "serve/runtime.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "data/datasets.h"
#include "rf/geometry.h"
#include "serve/generator.h"

namespace metaai::serve {
namespace {

const data::Dataset& SmallDataset() {
  static const data::Dataset ds =
      data::MakeMnistLike({.train_per_class = 10, .test_per_class = 4});
  return ds;
}

const core::TrainedModel& SmallModel() {
  static const core::TrainedModel model = [] {
    Rng rng(3);
    core::TrainingOptions options;
    options.epochs = 5;
    return core::TrainModel(SmallDataset().train, options, rng);
  }();
  return model;
}

sim::OtaLinkConfig ClientLink() {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  return config;
}

std::vector<ClientSpec> TwoClients() {
  // Identical model + link per client: their mapping cache keys collide
  // on purpose, so shared-cache constructions solve once and hit once.
  std::vector<ClientSpec> clients;
  clients.push_back({.name = "alpha",
                     .model = SmallModel(),
                     .link = ClientLink(),
                     .deployment = {}});
  clients.push_back({.name = "beta",
                     .model = SmallModel(),
                     .link = ClientLink(),
                     .deployment = {}});
  return clients;
}

/// Shared solver-result cache: after the first runtime construction,
/// every later one in this binary restores the mapping from cache.
const std::shared_ptr<mts::ConfigCache>& SharedCache() {
  static const std::shared_ptr<mts::ConfigCache> cache =
      std::make_shared<mts::ConfigCache>();
  return cache;
}

mts::LayerGraph DefaultGraph() {
  return mts::LayerGraph::FromSurface(
      mts::Metasurface{mts::MetasurfaceSpec{}});
}

const Runtime& SharedRuntime() {
  static const Runtime runtime{DefaultGraph(), TwoClients(),
                               RuntimeOptions{.cache = SharedCache()}};
  return runtime;
}

std::vector<ServeRequest> SmallTrace(std::size_t count) {
  const auto& test = SmallDataset().test;
  std::vector<ServeRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = i % test.size();
    requests.push_back({.id = i,
                        .client = i % 2,
                        .arrival_s = static_cast<double>(i) * 1e-4,
                        .pixels = test.features[pick],
                        .label = test.labels[pick]});
  }
  return requests;
}

sim::SyncModel DefaultSync() {
  sim::SyncModelConfig config;
  config.latency_scale = 0.3;
  return sim::SyncModel(sim::SyncMode::kCdfa, config);
}

std::vector<int> Predictions(const ServeResult& result) {
  std::vector<int> predicted;
  predicted.reserve(result.responses.size());
  for (const ServeResponse& response : result.responses) {
    predicted.push_back(response.predicted);
  }
  return predicted;
}

TEST(ServeRuntimeTest, ConstructorValidatesOperatorInput) {
  EXPECT_THROW(Runtime(DefaultGraph(), {}), CheckError);
  EXPECT_THROW(Runtime(DefaultGraph(), TwoClients(), {.queue_capacity = 0}),
               CheckError);
  EXPECT_THROW(Runtime(DefaultGraph(), TwoClients(), {.frame_budget = 0}),
               CheckError);
}

TEST(ServeRuntimeTest, TryCreateReportsTypedErrors) {
  const Result<Runtime> no_clients = Runtime::TryCreate(DefaultGraph(), {});
  ASSERT_FALSE(no_clients.ok());
  EXPECT_EQ(no_clients.error().code, ErrorCode::kInvalidArgument);

  const Result<Runtime> zero_queue =
      Runtime::TryCreate(DefaultGraph(), TwoClients(), {.queue_capacity = 0});
  ASSERT_FALSE(zero_queue.ok());
  EXPECT_EQ(zero_queue.error().code, ErrorCode::kInvalidArgument);

  const Result<Runtime> zero_budget =
      Runtime::TryCreate(DefaultGraph(), TwoClients(), {.frame_budget = 0});
  ASSERT_FALSE(zero_budget.ok());
  EXPECT_EQ(zero_budget.error().code, ErrorCode::kInvalidArgument);

  std::vector<ClientSpec> bad_slo = TwoClients();
  bad_slo[0].slo_latency_s = -1.0;
  const Result<Runtime> negative_slo =
      Runtime::TryCreate(DefaultGraph(), std::move(bad_slo));
  ASSERT_FALSE(negative_slo.ok());
  EXPECT_EQ(negative_slo.error().code, ErrorCode::kInvalidArgument);

  Result<Runtime> good = Runtime::TryCreate(
      DefaultGraph(), TwoClients(), {.cache = SharedCache()});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().num_clients(), 2u);
}

TEST(ServeRuntimeTest, CallerOwnedStreamsMatchInternalForking) {
  // The span-of-streams overload (the fleet routing hook) must replay
  // the internally-forked run exactly when handed the same fork.
  const auto requests = SmallTrace(10);
  const sim::SyncModel sync = DefaultSync();
  Rng rng_a(67);
  const ServeResult internal = SharedRuntime().Run(requests, sync, rng_a);
  Rng rng_b(67);
  std::vector<Rng> streams = par::ForkRngs(rng_b, requests.size());
  const ServeResult external =
      SharedRuntime().Run(requests, sync, std::span<Rng>(streams));
  EXPECT_EQ(Predictions(internal), Predictions(external));
  EXPECT_EQ(internal.request_log, external.request_log);
}

TEST(ServeRuntimeTest, ServesEveryAdmittedRequest) {
  const auto requests = SmallTrace(12);
  const sim::SyncModel sync = DefaultSync();
  Rng rng(17);
  const ServeResult result = SharedRuntime().Run(requests, sync, rng);
  EXPECT_EQ(result.stats.submitted, 12u);
  EXPECT_EQ(result.stats.served, 12u);
  EXPECT_EQ(result.stats.rejected(), 0u);
  EXPECT_GT(result.stats.frames, 0u);
  EXPECT_GT(result.stats.virtual_duration_s, 0.0);
  EXPECT_LE(result.stats.queue_wait_p50_s, result.stats.queue_wait_p99_s);
  EXPECT_LE(result.stats.latency_p50_s, result.stats.latency_p99_s);
  EXPECT_EQ(result.stats.labeled, 12u);
  for (const ServeResponse& response : result.responses) {
    EXPECT_EQ(response.rejected, RejectReason::kNone);
    EXPECT_GE(response.predicted, 0);
    EXPECT_GE(response.start_s, response.arrival_s);
    EXPECT_GT(response.finish_s, response.start_s);
  }
}

TEST(ServeRuntimeTest, PredictionsAreThreadCountInvariant) {
  const auto requests = SmallTrace(10);
  const sim::SyncModel sync = DefaultSync();
  auto run = [&](int threads) {
    const par::ScopedThreadCount scoped(threads);
    Rng rng(23);
    return Predictions(SharedRuntime().Run(requests, sync, rng));
  };
  const auto serial = run(1);
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(run(threads), serial) << "threads=" << threads;
  }
}

TEST(ServeRuntimeTest, PredictionsAreFrameBudgetInvariant) {
  // Different batching compositions reorder the work items across
  // frames; the per-request Rng streams make the predictions identical
  // anyway.
  const Runtime drip(DefaultGraph(), TwoClients(),
                     {.frame_budget = 1, .cache = SharedCache()});
  const auto requests = SmallTrace(10);
  const sim::SyncModel sync = DefaultSync();
  Rng rng_a(29);
  Rng rng_b(29);
  const ServeResult batched = SharedRuntime().Run(requests, sync, rng_a);
  const ServeResult dripped = drip.Run(requests, sync, rng_b);
  EXPECT_EQ(Predictions(batched), Predictions(dripped));
  // Per-request frames pay the guard interval every time.
  EXPECT_GE(dripped.stats.frames, batched.stats.frames);
}

TEST(ServeRuntimeTest, BatchedAndUnbatchedPredictionsMatch) {
  const auto requests = SmallTrace(10);
  const sim::SyncModel sync = DefaultSync();
  Rng rng_a(31);
  Rng rng_b(31);
  const ServeResult batched = SharedRuntime().Run(requests, sync, rng_a);
  const ServeResult naive = SharedRuntime().RunUnbatched(requests, sync, rng_b);
  EXPECT_EQ(Predictions(batched), Predictions(naive));
  EXPECT_EQ(batched.stats.served, naive.stats.served);
}

TEST(ServeRuntimeTest, CacheDoesNotChangePredictions) {
  const Runtime uncached(DefaultGraph(), TwoClients(), {});
  const auto requests = SmallTrace(8);
  const sim::SyncModel sync = DefaultSync();
  Rng rng_a(37);
  Rng rng_b(37);
  EXPECT_EQ(Predictions(SharedRuntime().Run(requests, sync, rng_a)),
            Predictions(uncached.Run(requests, sync, rng_b)));
  // Identical tenants share one solve through the cache.
  EXPECT_GT(SharedCache()->stats().hits, 0u);
}

TEST(ServeRuntimeTest, RejectsUnknownClientAndBadInput) {
  const auto& test = SmallDataset().test;
  std::vector<ServeRequest> requests;
  requests.push_back({.id = 0,
                      .client = 9,
                      .arrival_s = 0.0,
                      .pixels = test.features[0]});
  requests.push_back({.id = 1,
                      .client = 0,
                      .arrival_s = 0.0,
                      .pixels = {1.0, 2.0, 3.0}});
  requests.push_back({.id = 2,
                      .client = 0,
                      .arrival_s = 0.0,
                      .pixels = test.features[0],
                      .label = test.labels[0]});
  const sim::SyncModel sync = DefaultSync();
  Rng rng(41);
  const ServeResult result = SharedRuntime().Run(requests, sync, rng);
  EXPECT_EQ(result.responses[0].rejected, RejectReason::kUnknownClient);
  EXPECT_EQ(result.responses[1].rejected, RejectReason::kBadInput);
  EXPECT_EQ(result.responses[2].rejected, RejectReason::kNone);
  EXPECT_EQ(result.stats.rejected_unknown_client, 1u);
  EXPECT_EQ(result.stats.rejected_bad_input, 1u);
  EXPECT_EQ(result.stats.served, 1u);
  EXPECT_EQ(result.stats.served + result.stats.rejected(),
            result.stats.submitted);

  // The naive baseline applies the same admission rules.
  Rng naive_rng(41);
  const ServeResult naive = SharedRuntime().RunUnbatched(requests, sync,
                                                         naive_rng);
  EXPECT_EQ(naive.responses[0].rejected, RejectReason::kUnknownClient);
  EXPECT_EQ(naive.responses[1].rejected, RejectReason::kBadInput);
  EXPECT_EQ(naive.responses[2].predicted, result.responses[2].predicted);
}

TEST(ServeRuntimeTest, BoundedQueueRejectsBurstsWithBackpressure) {
  const Runtime tight(DefaultGraph(), TwoClients(),
                      {.queue_capacity = 1, .cache = SharedCache()});
  const auto& test = SmallDataset().test;
  // Four simultaneous arrivals for one client against a depth-1 queue:
  // the first is admitted, the rest bounce with kQueueFull.
  std::vector<ServeRequest> burst;
  for (std::size_t i = 0; i < 4; ++i) {
    burst.push_back({.id = i,
                     .client = 0,
                     .arrival_s = 0.0,
                     .pixels = test.features[i % test.size()]});
  }
  const sim::SyncModel sync = DefaultSync();
  Rng rng(43);
  const ServeResult result = tight.Run(burst, sync, rng);
  EXPECT_EQ(result.stats.served, 1u);
  EXPECT_EQ(result.stats.rejected_queue_full, 3u);
  EXPECT_EQ(result.responses[0].rejected, RejectReason::kNone);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(result.responses[i].rejected, RejectReason::kQueueFull);
  }
}

TEST(ServeRuntimeTest, RejectsUnorderedTraces) {
  const auto& test = SmallDataset().test;
  std::vector<ServeRequest> requests;
  requests.push_back({.id = 0,
                      .client = 0,
                      .arrival_s = 1.0,
                      .pixels = test.features[0]});
  requests.push_back({.id = 1,
                      .client = 0,
                      .arrival_s = 0.5,
                      .pixels = test.features[0]});
  const sim::SyncModel sync = DefaultSync();
  Rng rng(47);
  EXPECT_THROW(SharedRuntime().Run(requests, sync, rng), CheckError);
  EXPECT_THROW(SharedRuntime().RunUnbatched(requests, sync, rng), CheckError);
}

TEST(ServeRuntimeTest, GeneratedWorkloadRoundTrip) {
  const std::vector<ClientWorkload> workload = {
      {.arrival_rate_hz = 400.0, .samples = &SmallDataset().test},
      {.arrival_rate_hz = 200.0, .samples = &SmallDataset().test}};
  Rng gen_rng(53);
  const auto requests = GenerateWorkload(workload, 0.02, gen_rng).value();
  const sim::SyncModel sync = DefaultSync();
  Rng rng(59);
  const ServeResult result = SharedRuntime().Run(requests, sync, rng);
  EXPECT_EQ(result.stats.submitted, requests.size());
  EXPECT_EQ(result.stats.served + result.stats.rejected(), requests.size());
}

}  // namespace
}  // namespace metaai::serve
