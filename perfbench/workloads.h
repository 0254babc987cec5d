// The benchmark's three serving workloads, built from a seed.
//
// Setup (dataset synthesis, training, trace generation) and deployment
// (placement plus weight mapping through a shared mts::ConfigCache) are
// separate steps so each can be timed on its own. Every input derives
// from the workload seed; the library receives only the generated
// inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/placement.h"
#include "core/training.h"
#include "fleet/fleet.h"
#include "mts/config_cache.h"
#include "serve/request.h"
#include "serve/runtime.h"
#include "sim/sync.h"

namespace perfbench {

/// How one tenant's model relates to the models deployed before it
/// (map_churn only; the serving workloads deploy copies of one model).
enum class TenantKind { kBase, kDuplicate, kNearDuplicate, kDistinct };

/// Near-duplicate tenants perturb each weight by this relative amount,
/// and warm starts reach this far (RMS weight-feature distance).
inline constexpr double kNearDuplicateNoise = 0.01;
inline constexpr double kWarmStartDistance = 0.01;

/// Multiplies every weight by (1 + relative * N(0, 1)).
void PerturbWeights(metaai::ComplexMatrix& weights, double relative,
                    metaai::Rng& rng);

/// Worker threads the named workload serves with (1 or 4).
int WorkloadThreads(const std::string& name);

/// Everything setup produces: trained models, the request trace and the
/// shapes deployment needs.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  /// Worker threads the workload serves with.
  int threads = 1;
  /// Fleet workloads deploy through fleet::Fleet; serve_cascade through
  /// one serve::Runtime.
  bool uses_fleet = true;
  std::size_t shards = 1;
  double budget_cap = 0.9;
  std::size_t panel_side = 8;
  std::size_t depth = 1;
  /// One model, link seed, SLO, rate and kind per tenant.
  std::vector<metaai::core::TrainedModel> models;
  std::vector<std::uint64_t> channel_seeds;
  std::vector<double> slo_s;
  std::vector<double> rate_hz;
  std::vector<TenantKind> kinds;
  /// RuntimeOptions::warm_start_distance for the deployment.
  double warm_start_distance = 0.0;
  std::vector<metaai::serve::ServeRequest> requests;
  metaai::sim::SyncModel sync{metaai::sim::SyncMode::kNone};
  /// Requests in the fixed prefix the traced run serves at 1 and N
  /// threads and replays through the data plane.
  std::size_t prefix = 0;
  /// Seconds spent in core::TrainModel during setup.
  double train_s = 0.0;
  /// Served-request accuracy below this fails the run's output check.
  double accuracy_floor = 0.0;
};

/// The deployed system: a fleet, or one runtime, plus the shared cache.
struct Deployed {
  std::shared_ptr<metaai::mts::ConfigCache> cache;
  std::optional<metaai::fleet::Fleet> fleet;
  std::optional<metaai::serve::Runtime> runtime;
};

/// Responses and exports of one serve call, whichever front door ran it.
struct Served {
  std::vector<metaai::serve::ServeResponse> responses;
  metaai::obs::RequestLog request_log;
  std::vector<metaai::obs::TimeSeriesPoint> timeseries;
  std::vector<metaai::obs::health::Alert> alerts;
  std::size_t submitted = 0;
  std::size_t served = 0;
  std::size_t rejected = 0;
  std::size_t frames = 0;
  double goodput_slo_rps = 0.0;
};

/// Builds the named workload from `seed`; throws on an unknown name.
Workload Setup(const std::string& name, std::uint64_t seed);

/// Worker threads deployment runs on, whatever the serving thread count:
/// onboarding is not the serving path, and single-threaded timings
/// follow the host's slow/fast phases the most.
inline constexpr int kDeployThreads = 4;

/// Places tenants and maps their weights (Fleet::TryCreate or
/// Runtime::TryCreate) through a fresh cache, on kDeployThreads threads.
Deployed Deploy(const Workload& workload);

/// Serves `requests` through the deployment's front door.
Served Serve(const Workload& workload, const Deployed& deployed,
             std::span<const metaai::serve::ServeRequest> requests,
             metaai::Rng& rng);

/// The deployment serving (tenant, arrival): its shard index (0 for a
/// bare runtime) and the core::Deployment that classifies the request.
struct Route {
  std::size_t shard = 0;
  const metaai::core::Deployment* deployment = nullptr;
};
Route RouteRequest(const Deployed& deployed,
                   const metaai::serve::ServeRequest& request);

/// The runtime of shard `s` (the bare runtime for serve_cascade).
const metaai::serve::Runtime& ShardRuntime(const Deployed& deployed,
                                           std::size_t s);

/// The bin-packing problem the fleet's placement solves: each tenant's
/// declared demand against each shard's controller budget.
metaai::core::PlacementProblem PlacementProblemOf(const Workload& workload);

/// Seed of the Rng whose forks are the per-request streams.
std::uint64_t ServeSeed(const Workload& workload);

}  // namespace perfbench
