// metaai::serve — deterministic batched multi-tenant OTA serving
// runtime (§6's "shared across multiple IoT devices", made operational).
//
// One shared surface stack serves N edge clients. Requests arrive on a
// virtual clock; admission control rejects malformed or over-quota
// demand with typed reasons; admitted requests wait in bounded
// per-client FIFO queues and are coalesced into TDMA frames built by
// core::SharedSurfaceScheduler::BuildFrame — one slot per client with
// pending work, carrying a batch of back-to-back inferences so the
// guard interval is paid once per slot instead of once per request.
// Slot allocation is fair round-robin (core::AllocateSlots), so a
// backlogged client cannot starve the others.
//
// Construction takes an mts::LayerGraph: the runtime deploys every
// client over it (use mts::LayerGraph::FromSurface for a bare panel,
// which is the depth-1 graph).
// Operator misconfiguration (empty client list, non-positive queue or
// frame budgets) is a typed kInvalidArgument error through TryCreate;
// the plain constructor keeps the legacy CheckError-throwing behavior.
//
// Determinism contract: request i's sync-offset draw and channel noise
// come from the i-th pre-forked Rng stream (fork order = submission
// order), so every prediction is bitwise identical for any thread
// count, any frame-budget/batching composition, and with or without
// the solver-result cache. The span-of-streams Run overload lets a
// cluster front door (metaai::fleet) fork one stream per request of a
// *global* trace and route sub-traces to shards without perturbing any
// request's draws. Run and RunUnbatched produce byte-identical
// predictions; they differ only in virtual-time accounting and
// wall-clock cost.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/scheduler.h"
#include "mts/config_cache.h"
#include "mts/layer_graph.h"
#include "obs/alerts.h"
#include "obs/lifecycle.h"
#include "obs/timeseries.h"
#include "serve/request.h"
#include "sim/energy_model.h"
#include "sim/sync.h"

namespace metaai::serve {

/// One tenant of the shared surface.
struct ClientSpec {
  std::string name;
  core::TrainedModel model;
  /// Per-client link (geometry/environment may differ per client).
  sim::OtaLinkConfig link;
  core::DeploymentOptions deployment;
  /// End-to-end (arrival -> readout) latency target for SLO
  /// accounting; 0 = no target (every served request counts as
  /// within).
  double slo_latency_s = 0.0;
};

struct RuntimeOptions {
  core::SchedulerConfig scheduler;
  /// Bounded per-client queue depth; admission rejects with
  /// RejectReason::kQueueFull beyond this (backpressure).
  std::size_t queue_capacity = 64;
  /// Maximum inferences coalesced into one TDMA frame, shared fairly
  /// across clients by core::AllocateSlots.
  std::size_t frame_budget = 8;
  /// Optional shared solver-result cache consulted when mapping each
  /// client's weights at construction. Shared ownership: fleet shards
  /// (and any other runtimes) may hold the same cache and it outlives
  /// every holder — the raw-pointer lifetime footgun of the PR 5 API
  /// is gone. Tenants deploying identical models hit instead of
  /// re-running coordinate descent. Null = always solve fresh.
  std::shared_ptr<mts::ConfigCache> cache;
  /// Incremental solving across near-duplicate tenants: when positive
  /// (and `cache` is set), an exact cache miss warm-starts the solve
  /// from the nearest cached schedule within this RMS weight-feature
  /// distance (core::MappingOptions::warm_start_distance). 0 = off,
  /// which preserves the bitwise cached-vs-uncached serving contract;
  /// warm-started mappings are equivalent within the solver's residual
  /// tolerance instead.
  double warm_start_distance = 0.0;
  /// Online health monitoring: when true (default), every served
  /// request's soft-decision margin feeds a per-tenant AlertEngine, SLO
  /// violations feed its slo_violation signal, and emitted alerts land
  /// in ServeResult::alerts / TenantStats — all evaluated from the
  /// serial control loop, so the alert stream is byte-identical across
  /// thread counts.
  bool health = true;
  /// Rules installed in every tenant's engine;
  /// obs::health::DefaultLinkHealthRules() when empty.
  std::vector<obs::health::AlertRule> health_rules;
};

struct ServeResult {
  /// One response per request, in submission order.
  std::vector<ServeResponse> responses;
  ServeStats stats;
  /// One lifecycle trace per *served* request, in submission order,
  /// with the tenant names the trace indices refer to. Byte-identical
  /// across thread counts (see obs/lifecycle.h).
  obs::RequestLog request_log;
  /// One "metaai.timeseries.v1" tick per dispatched TDMA frame (queue
  /// depth, in-flight, frame utilization, cache hit rate, cumulative
  /// admission counters), appended by the serial control loop.
  std::vector<obs::TimeSeriesPoint> timeseries;
  /// Typed alert stream from the per-tenant health engines, in emission
  /// order (exports as "metaai.alerts.v1"). Empty when
  /// RuntimeOptions::health is off, and for fault-free traces under the
  /// default rules.
  std::vector<obs::health::Alert> alerts;
};

class Runtime {
 public:
  /// Builds one deployment per client over the surface cascade
  /// described by `graph` (through `options.cache` when set). The
  /// runtime owns the graph — the deployments' links borrow it, and a
  /// long-lived server must not dangle if the caller's copy goes out of
  /// scope. A bare panel is the depth-1 graph
  /// (mts::LayerGraph::FromSurface). Throws CheckError on empty client
  /// lists or non-positive queue/budget options — use TryCreate for the
  /// typed-error form.
  Runtime(mts::LayerGraph graph, std::vector<ClientSpec> clients,
          RuntimeOptions options = {});

  /// Typed-error construction: rejects empty client lists, non-positive
  /// queue/budget options, negative SLO targets and negative warm-start
  /// distances with ErrorCode::kInvalidArgument instead of throwing.
  /// The CLI maps these to exit 2 like every other typed error.
  static Result<Runtime> TryCreate(mts::LayerGraph graph,
                                   std::vector<ClientSpec> clients,
                                   RuntimeOptions options = {});

  Runtime(Runtime&&) = default;
  Runtime& operator=(Runtime&&) = default;

  std::size_t num_clients() const { return input_dims_.size(); }
  const core::SharedSurfaceScheduler& scheduler() const {
    return *scheduler_;
  }
  const mts::LayerGraph& graph() const { return *graph_; }
  const RuntimeOptions& options() const { return options_; }

  /// Serves a request trace (non-decreasing arrival_s) on the virtual
  /// clock with frame batching. `rng` seeds the per-request streams
  /// (fork order = submission order).
  ServeResult Run(std::span<const ServeRequest> requests,
                  const sim::SyncModel& sync, Rng& rng) const;

  /// Same, with caller-owned per-request streams: request_rngs[i] is
  /// request i's stream (request_rngs.size() must equal
  /// requests.size()). This is the fleet routing hook — a front door
  /// forks one stream per request of the global trace, so a request's
  /// draws do not depend on which shard (or sub-trace composition)
  /// serves it.
  ServeResult Run(std::span<const ServeRequest> requests,
                  const sim::SyncModel& sync,
                  std::span<Rng> request_rngs) const;

  /// Naive baseline: no coalescing — each request is processed strictly
  /// in order in its own single-slot frame (guard interval per request)
  /// with serial execution. Predictions are byte-identical to Run; only
  /// the virtual-time accounting and wall-clock cost differ.
  ServeResult RunUnbatched(std::span<const ServeRequest> requests,
                           const sim::SyncModel& sync, Rng& rng) const;
  ServeResult RunUnbatched(std::span<const ServeRequest> requests,
                           const sim::SyncModel& sync,
                           std::span<Rng> request_rngs) const;

 private:
  /// Shared constructor body (runs after graph_ is set).
  void Init(std::vector<ClientSpec> clients);

  /// Owned, heap-allocated so the address is stable under moves; the
  /// deployments' links hold pointers into it. Declared before
  /// scheduler_.
  std::unique_ptr<const mts::LayerGraph> graph_;
  std::vector<std::size_t> input_dims_;
  /// Per-client latency targets (0 = no SLO), indexed like clients.
  std::vector<double> slo_targets_;
  std::unique_ptr<core::SharedSurfaceScheduler> scheduler_;
  /// Per-client mapping provenance: true when the client's
  /// configuration came from options_.cache instead of a fresh solve.
  std::vector<bool> mapping_from_cache_;
  RuntimeOptions options_;
  sim::EnergyModel energy_;
};

}  // namespace metaai::serve
