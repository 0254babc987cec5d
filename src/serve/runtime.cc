#include "serve/runtime.h"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/health.h"
#include "obs/obs.h"
#include "obs/parallel.h"
#include "obs/quantiles.h"

namespace metaai::serve {
namespace {

void CheckTraceOrdered(std::span<const ServeRequest> requests) {
  for (std::size_t i = 1; i < requests.size(); ++i) {
    Check(requests[i].arrival_s >= requests[i - 1].arrival_s,
          "request trace must have non-decreasing arrival times");
  }
}

/// Operator-input validation shared by the throwing constructor and
/// TryCreate, so both paths reject exactly the same configurations.
Result<void> ValidateRuntimeConfig(const std::vector<ClientSpec>& clients,
                                   const RuntimeOptions& options) {
  if (clients.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "serving runtime needs at least one client"};
  }
  if (options.queue_capacity == 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "queue capacity must be positive"};
  }
  if (options.frame_budget == 0) {
    return Error{ErrorCode::kInvalidArgument, "frame budget must be positive"};
  }
  if (options.warm_start_distance < 0.0) {
    return Error{ErrorCode::kInvalidArgument,
                 "warm-start distance must be non-negative"};
  }
  for (const ClientSpec& client : clients) {
    if (client.slo_latency_s < 0.0) {
      return Error{ErrorCode::kInvalidArgument,
                   "SLO latency must be non-negative (client '" + client.name +
                       "')"};
    }
  }
  return Ok();
}

void CountRejection(ServeStats& stats, RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      break;
    case RejectReason::kUnknownClient:
      ++stats.rejected_unknown_client;
      obs::Count("serve.rejected.unknown_client");
      break;
    case RejectReason::kBadInput:
      ++stats.rejected_bad_input;
      obs::Count("serve.rejected.bad_input");
      break;
    case RejectReason::kQueueFull:
      ++stats.rejected_queue_full;
      obs::Count("serve.rejected.queue_full");
      break;
  }
}

ServeResponse Rejected(const ServeRequest& request, RejectReason reason) {
  return {.id = request.id,
          .client = request.client,
          .predicted = -1,
          .rejected = reason,
          .arrival_s = request.arrival_s};
}

/// One AlertEngine per tenant (empty when health monitoring is off),
/// all running the same rule set. Engines are fed exclusively from the
/// serial control loop, so the merged alert stream is deterministic.
std::vector<obs::health::AlertEngine> BuildHealthEngines(
    const RuntimeOptions& options, std::size_t num_clients) {
  std::vector<obs::health::AlertEngine> engines;
  if (!options.health) return engines;
  const std::vector<obs::health::AlertRule> rules =
      options.health_rules.empty() ? obs::health::DefaultLinkHealthRules()
                                   : options.health_rules;
  engines.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    obs::health::AlertEngine engine(static_cast<std::int32_t>(c));
    for (const obs::health::AlertRule& rule : rules) {
      engine.AddRule(rule);
    }
    engines.push_back(std::move(engine));
  }
  return engines;
}

/// Fills the percentile/SLO/energy/accuracy fields of `stats` from the
/// final response trace and the lifecycle traces (`traces` is indexed
/// by submission order; only served entries are meaningful), compacts
/// the served traces into `log`, and emits the serve.* instruments —
/// all from the serial epilogue, so histogram sums and probe order are
/// thread-count invariant.
void FinalizeStats(ServeStats& stats, std::span<const ServeResponse> responses,
                   std::span<const ServeRequest> requests,
                   std::span<const obs::RequestTrace> traces,
                   std::span<const double> margins,
                   std::span<obs::health::AlertEngine> engines,
                   std::vector<std::string> tenant_names,
                   obs::RequestLog& log,
                   std::vector<obs::health::Alert>& alerts) {
  log.tenants = std::move(tenant_names);
  std::vector<double> waits;
  std::vector<double> latencies;
  std::vector<double> served_margins;
  std::vector<std::vector<double>> tenant_margins(log.tenants.size());
  waits.reserve(responses.size());
  latencies.reserve(responses.size());
  served_margins.reserve(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const ServeResponse& response = responses[i];
    if (response.rejected != RejectReason::kNone) continue;
    const obs::RequestTrace& trace = traces[i];
    ++stats.served;
    waits.push_back(response.start_s - response.arrival_s);
    const double latency = trace.Latency();
    latencies.push_back(latency);
    stats.virtual_duration_s =
        std::max(stats.virtual_duration_s, trace.arrival_s + latency);
    stats.energy_total_j += trace.energy_j;
    if (requests[i].label >= 0) {
      ++stats.labeled;
      if (response.predicted == requests[i].label) ++stats.correct;
    }
    served_margins.push_back(margins[i]);
    tenant_margins[trace.tenant].push_back(margins[i]);
    log.traces.push_back(trace);
  }

  const obs::TailDigest wait_tails = obs::DigestTails(waits);
  stats.queue_wait_p50_s = wait_tails.p50;
  stats.queue_wait_p99_s = wait_tails.p99;
  stats.queue_wait_p999_s = wait_tails.p999;
  const obs::TailDigest latency_tails = obs::DigestTails(latencies);
  stats.latency_p50_s = latency_tails.p50;
  stats.latency_p99_s = latency_tails.p99;
  stats.latency_p999_s = latency_tails.p999;
  if (stats.served > 0) {
    stats.energy_per_inference_j =
        stats.energy_total_j / static_cast<double>(stats.served);
  }

  // Per-tenant accounting + SLO verdicts, in submission order so the
  // kSloViolation probe stream is deterministic.
  stats.tenants.resize(log.tenants.size());
  std::vector<std::vector<double>> tenant_latencies(log.tenants.size());
  for (std::size_t t = 0; t < log.tenants.size(); ++t) {
    stats.tenants[t].name = log.tenants[t];
  }
  for (const obs::RequestTrace& trace : log.traces) {
    TenantStats& tenant = stats.tenants[trace.tenant];
    tenant.slo_s = trace.slo_s;
    tenant.cache_hit = trace.cache_hit;
    ++tenant.served;
    tenant.energy_j += trace.energy_j;
    tenant_latencies[trace.tenant].push_back(trace.Latency());
    if (trace.SloViolated()) {
      ++tenant.slo_violations;
      ++stats.slo_violations;
      obs::Count("serve.slo.violations");
      if (!engines.empty()) {
        // Violation magnitude as the latency/target ratio, at the
        // request's virtual readout time (matches the probe adapter in
        // obs/health.h).
        engines[trace.tenant].Observe(
            obs::health::kSignalSloViolation,
            trace.arrival_s + trace.Latency(),
            trace.slo_s > 0.0 ? trace.Latency() / trace.slo_s
                              : trace.Latency(),
            alerts);
      }
      if (obs::ProbesEnabled()) {
        obs::Probe({.kind = obs::ProbeKind::kSloViolation,
                    .site = "serve.slo",
                    .values = {{"id", static_cast<double>(trace.id)},
                               {"tenant", static_cast<double>(trace.tenant)},
                               {"latency_s", trace.Latency()},
                               {"slo_s", trace.slo_s}}});
      }
    } else {
      ++tenant.slo_within;
      ++stats.slo_within;
      obs::Count("serve.slo.within");
    }
  }
  for (std::size_t t = 0; t < stats.tenants.size(); ++t) {
    const obs::TailDigest tails = obs::DigestTails(tenant_latencies[t]);
    stats.tenants[t].latency_p50_s = tails.p50;
    stats.tenants[t].latency_p99_s = tails.p99;
    stats.tenants[t].latency_p999_s = tails.p999;
    // A tenant with no served requests has no margin sample; 0.0 is the
    // documented "no data" value for the stats field (count-gate on
    // TenantStats::served to distinguish).
    stats.tenants[t].margin_p50 =
        obs::TryNearestRankPercentile(tenant_margins[t], 0.50).value_or(0.0);
  }
  if (stats.virtual_duration_s > 0.0) {
    stats.goodput_slo_rps = static_cast<double>(stats.slo_within) /
                            stats.virtual_duration_s;
  }

  // Health accounting: the engines have seen every signal by now (the
  // SLO loop above was the last feed), so the alert stream is final.
  stats.margin_p50 =
      obs::TryNearestRankPercentile(served_margins, 0.50).value_or(0.0);
  for (const obs::health::Alert& alert : alerts) {
    ++stats.alerts;
    const bool drift = alert.kind == obs::health::AlertKind::kDriftDetected;
    if (drift) ++stats.drift_alerts;
    if (alert.tenant >= 0 &&
        static_cast<std::size_t>(alert.tenant) < stats.tenants.size()) {
      TenantStats& tenant = stats.tenants[static_cast<std::size_t>(
          alert.tenant)];
      ++tenant.alerts;
      if (drift) ++tenant.drift_alerts;
    }
  }
  obs::Count("health.alerts", stats.alerts);
  obs::Count("health.drift_alerts", stats.drift_alerts);
  obs::SetGauge("health.alerts_total", static_cast<double>(stats.alerts));
  obs::SetGauge("health.margin_p50", stats.margin_p50);

  static const obs::HistogramSpec kTimeBuckets =
      obs::HistogramSpec::Exponential(1e-5, 2.0, 24);
  static const obs::HistogramSpec kEnergyBuckets =
      obs::HistogramSpec::Exponential(1e-9, 2.0, 30);
  for (const double wait : waits) {
    obs::Observe("serve.queue_wait_s", wait, kTimeBuckets);
  }
  for (const double latency : latencies) {
    obs::Observe("serve.latency_s", latency, kTimeBuckets);
  }
  for (const obs::RequestTrace& trace : log.traces) {
    for (std::size_t s = 0; s < obs::kNumRequestStages; ++s) {
      obs::Observe("serve.stage." +
                       std::string(obs::RequestStageName(
                           static_cast<obs::RequestStage>(s))) +
                       "_s",
                   trace.stage_s[s], kTimeBuckets);
    }
    obs::Observe("serve.energy_j", trace.energy_j, kEnergyBuckets);
  }
  obs::Count("serve.served", stats.served);
  obs::SetGauge("serve.virtual_duration_s", stats.virtual_duration_s);
  obs::SetGauge("serve.goodput_slo_rps", stats.goodput_slo_rps);
  obs::SetGauge("serve.energy_per_inference_j", stats.energy_per_inference_j);
}

}  // namespace

Runtime::Runtime(mts::LayerGraph graph, std::vector<ClientSpec> clients,
                 RuntimeOptions options)
    : graph_(std::make_unique<const mts::LayerGraph>(std::move(graph))),
      options_(std::move(options)) {
  ValidateRuntimeConfig(clients, options_).value();
  Init(std::move(clients));
}

Result<Runtime> Runtime::TryCreate(mts::LayerGraph graph,
                                   std::vector<ClientSpec> clients,
                                   RuntimeOptions options) {
  if (Result<void> ok = ValidateRuntimeConfig(clients, options); !ok) {
    return ok.error();
  }
  return Runtime(std::move(graph), std::move(clients), std::move(options));
}

void Runtime::Init(std::vector<ClientSpec> clients) {
  std::vector<core::DeviceSpec> devices;
  devices.reserve(clients.size());
  for (ClientSpec& client : clients) {
    input_dims_.push_back(client.model.input_dim());
    slo_targets_.push_back(client.slo_latency_s);
    core::DeploymentOptions deployment = client.deployment;
    deployment.mapping.cache = options_.cache.get();
    if (options_.warm_start_distance > 0.0) {
      deployment.mapping.warm_start_distance = options_.warm_start_distance;
    }
    devices.push_back({.name = std::move(client.name),
                       .model = std::move(client.model),
                       .link = std::move(client.link),
                       .options = std::move(deployment)});
  }
  scheduler_ = std::make_unique<core::SharedSurfaceScheduler>(
      *graph_, std::move(devices), options_.scheduler);
  // The scheduler builds deployments serially in client order, so the
  // per-tenant cache provenance below is deterministic.
  for (std::size_t c = 0; c < num_clients(); ++c) {
    mapping_from_cache_.push_back(
        scheduler_->deployment(c).schedules().from_cache);
  }
}

ServeResult Runtime::Run(std::span<const ServeRequest> requests,
                         const sim::SyncModel& sync, Rng& rng) const {
  std::vector<Rng> rngs = par::ForkRngs(rng, requests.size());
  return Run(requests, sync, std::span<Rng>(rngs));
}

ServeResult Runtime::Run(std::span<const ServeRequest> requests,
                         const sim::SyncModel& sync,
                         std::span<Rng> request_rngs) const {
  CheckTraceOrdered(requests);
  Check(request_rngs.size() == requests.size(),
        "Run needs one Rng stream per request");
  const obs::ScopedSpan span = obs::Span("serve.run");
  span.Arg("requests", static_cast<double>(requests.size()));
  obs::Count("serve.requests", requests.size());

  ServeResult result;
  result.stats.submitted = requests.size();
  result.responses.resize(requests.size());
  std::span<Rng> rngs = request_rngs;
  // Per-request soft-decision margins (the label-free accuracy proxy),
  // filled by the workers and consumed by the serial health loop.
  std::vector<double> margins(requests.size(), 0.0);
  std::vector<obs::health::AlertEngine> engines =
      BuildHealthEngines(options_, num_clients());

  const double guard_s = core::kGuardIntervalS;
  const double demod_s = energy_.DemodLatencyS();
  std::vector<std::deque<std::size_t>> queues(num_clients());
  std::size_t next = 0;
  double clock_s = 0.0;
  // Lifecycle traces by submission index; only served entries end up in
  // the request log. admit_clock_s remembers when admission picked each
  // request up so queue_wait can be charged at dispatch.
  std::vector<obs::RequestTrace> traces(requests.size());
  std::vector<double> admit_clock_s(requests.size(), 0.0);
  std::size_t admitted = 0;
  std::size_t dispatched_total = 0;

  static const obs::HistogramSpec kBatchBuckets =
      obs::HistogramSpec::Linear(0.0, 32.0, 16);

  // One dispatched inference: request `index` transmitted in device
  // `client`'s slot over [start_s, finish_s) of the virtual clock.
  struct WorkItem {
    std::size_t index = 0;
    std::size_t client = 0;
    double start_s = 0.0;
    double finish_s = 0.0;
  };

  while (true) {
    // Admit everything that has arrived by the virtual clock.
    while (next < requests.size() && requests[next].arrival_s <= clock_s) {
      const ServeRequest& request = requests[next];
      RejectReason reason = RejectReason::kNone;
      if (request.client >= num_clients()) {
        reason = RejectReason::kUnknownClient;
      } else if (request.pixels.size() != input_dims_[request.client]) {
        reason = RejectReason::kBadInput;
      } else if (queues[request.client].size() >= options_.queue_capacity) {
        reason = RejectReason::kQueueFull;
      }
      if (reason == RejectReason::kNone) {
        queues[request.client].push_back(next);
        obs::Count("serve.admitted");
        ++admitted;
        obs::RequestTrace& trace = traces[next];
        trace.id = request.id;
        trace.tenant = static_cast<std::uint32_t>(request.client);
        trace.cache_hit = mapping_from_cache_[request.client];
        trace.arrival_s = request.arrival_s;
        trace.slo_s = slo_targets_[request.client];
        trace.stage(obs::RequestStage::kAdmission) =
            clock_s - request.arrival_s;
        admit_clock_s[next] = clock_s;
      } else {
        result.responses[next] = Rejected(request, reason);
        CountRejection(result.stats, reason);
      }
      ++next;
    }

    std::vector<std::size_t> pending(num_clients(), 0);
    bool any_pending = false;
    for (std::size_t c = 0; c < num_clients(); ++c) {
      pending[c] = queues[c].size();
      any_pending = any_pending || pending[c] > 0;
    }
    if (!any_pending) {
      if (next >= requests.size()) break;
      // Idle: jump to the next arrival.
      clock_s = std::max(clock_s, requests[next].arrival_s);
      continue;
    }

    // Build and dispatch one batched TDMA frame.
    const std::vector<std::size_t> granted =
        core::AllocateSlots(pending, options_.frame_budget);
    const std::vector<core::ScheduledSlot> frame =
        scheduler_->BuildFrame(granted);
    std::vector<WorkItem> work;
    std::size_t slot_index = 0;
    std::size_t dispatched = 0;
    std::size_t dispatched_cached = 0;
    for (std::size_t c = 0; c < num_clients(); ++c) {
      if (granted[c] == 0) continue;
      const core::ScheduledSlot& slot = frame[slot_index++];
      const double per_inference_s =
          slot.duration_s / static_cast<double>(slot.batch);
      const sim::InferenceEnergy inference_energy = energy_.OtaInferenceEnergy(
          per_inference_s, slot.rounds * slot.symbols_per_round,
          scheduler_->deployment(c).link().config().budget.tx_power_dbm);
      for (std::size_t k = 0; k < granted[c]; ++k) {
        const std::size_t index = queues[c].front();
        queues[c].pop_front();
        const double start_s =
            clock_s + slot.start_s + static_cast<double>(k) * per_inference_s;
        work.push_back({.index = index,
                        .client = c,
                        .start_s = start_s,
                        .finish_s = start_s + per_inference_s});
        obs::RequestTrace& trace = traces[index];
        trace.stage(obs::RequestStage::kQueueWait) =
            clock_s - admit_clock_s[index];
        trace.stage(obs::RequestStage::kBatching) = start_s - clock_s;
        trace.stage(obs::RequestStage::kAirtime) = per_inference_s;
        trace.stage(obs::RequestStage::kDemod) = demod_s;
        trace.energy_j = inference_energy.total_j();
      }
      dispatched += granted[c];
      if (mapping_from_cache_[c]) dispatched_cached += granted[c];
    }
    obs::Count("serve.frames");
    obs::Count("serve.slots", frame.size());
    obs::Observe("serve.frame_batch", static_cast<double>(dispatched),
                 kBatchBuckets);
    if (obs::ProbesEnabled()) {
      obs::Probe({.kind = obs::ProbeKind::kServe,
                  .site = "serve.frame",
                  .values = {{"clock_s", clock_s},
                             {"slots", static_cast<double>(frame.size())},
                             {"inferences", static_cast<double>(dispatched)}}});
    }
    dispatched_total += dispatched;
    std::size_t queue_depth = 0;
    for (const std::deque<std::size_t>& queue : queues) {
      queue_depth += queue.size();
    }
    result.timeseries.push_back(
        {.t_s = clock_s,
         .values = {
             {"queue_depth", static_cast<double>(queue_depth)},
             {"in_flight", static_cast<double>(dispatched)},
             {"frame_slots", static_cast<double>(frame.size())},
             {"frame_utilization",
              static_cast<double>(dispatched) /
                  static_cast<double>(options_.frame_budget)},
             {"cache_hit_rate", dispatched > 0
                                    ? static_cast<double>(dispatched_cached) /
                                          static_cast<double>(dispatched)
                                    : 0.0},
             {"admitted", static_cast<double>(admitted)},
             {"served", static_cast<double>(dispatched_total)},
             {"rejected", static_cast<double>(result.stats.rejected())},
             {"alerts", static_cast<double>(result.alerts.size())}}});

    // Every work item owns its request's pre-forked stream, so the
    // fan-out is bitwise identical for any thread count.
    obs::DeterministicParallelFor(work.size(), [&](std::size_t w) {
      const WorkItem& item = work[w];
      const ServeRequest& request = requests[item.index];
      Rng& request_rng = rngs[item.index];
      const double offset_us = sync.SampleOffsetUs(request_rng);
      const core::SoftDecision decision = scheduler_->ClassifyWithMargin(
          item.client, request.pixels, offset_us, request_rng);
      margins[item.index] = decision.margin;
      result.responses[item.index] = {.id = request.id,
                                      .client = request.client,
                                      .predicted = decision.predicted,
                                      .rejected = RejectReason::kNone,
                                      .arrival_s = request.arrival_s,
                                      .start_s = item.start_s,
                                      .finish_s = item.finish_s};
    });
    // Health evaluation stays in the serial control loop: feed each
    // dispatched request's margin in slot order at its virtual readout
    // time, so the alert stream is identical for any thread count.
    if (!engines.empty()) {
      for (const WorkItem& item : work) {
        engines[item.client].Observe(obs::health::kSignalAccuracyProxy,
                                     item.finish_s + demod_s,
                                     margins[item.index], result.alerts);
      }
    }
    ++result.stats.frames;
    clock_s += frame.back().start_s + frame.back().duration_s + guard_s;
  }

  std::vector<std::string> tenant_names;
  for (std::size_t c = 0; c < num_clients(); ++c) {
    tenant_names.push_back(scheduler_->device_name(c));
  }
  FinalizeStats(result.stats, result.responses, requests, traces, margins,
                engines, std::move(tenant_names), result.request_log,
                result.alerts);
  return result;
}

ServeResult Runtime::RunUnbatched(std::span<const ServeRequest> requests,
                                  const sim::SyncModel& sync,
                                  Rng& rng) const {
  std::vector<Rng> rngs = par::ForkRngs(rng, requests.size());
  return RunUnbatched(requests, sync, std::span<Rng>(rngs));
}

ServeResult Runtime::RunUnbatched(std::span<const ServeRequest> requests,
                                  const sim::SyncModel& sync,
                                  std::span<Rng> request_rngs) const {
  CheckTraceOrdered(requests);
  Check(request_rngs.size() == requests.size(),
        "RunUnbatched needs one Rng stream per request");
  const obs::ScopedSpan span = obs::Span("serve.run_unbatched");
  span.Arg("requests", static_cast<double>(requests.size()));
  obs::Count("serve.requests", requests.size());

  ServeResult result;
  result.stats.submitted = requests.size();
  result.responses.resize(requests.size());
  std::span<Rng> rngs = request_rngs;
  std::vector<double> margins(requests.size(), 0.0);
  std::vector<obs::health::AlertEngine> engines =
      BuildHealthEngines(options_, num_clients());

  const double guard_s = core::kGuardIntervalS;
  const double demod_s = energy_.DemodLatencyS();
  std::vector<obs::RequestTrace> traces(requests.size());
  std::size_t admitted = 0;
  double clock_s = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServeRequest& request = requests[i];
    if (request.client >= num_clients()) {
      result.responses[i] = Rejected(request, RejectReason::kUnknownClient);
      CountRejection(result.stats, RejectReason::kUnknownClient);
      continue;
    }
    if (request.pixels.size() != input_dims_[request.client]) {
      result.responses[i] = Rejected(request, RejectReason::kBadInput);
      CountRejection(result.stats, RejectReason::kBadInput);
      continue;
    }
    obs::Count("serve.admitted");
    ++admitted;
    // One single-inference frame per request: the guard interval and
    // the frame turnaround are paid every time.
    std::vector<std::size_t> unit(num_clients(), 0);
    unit[request.client] = 1;
    const std::vector<core::ScheduledSlot> frame =
        scheduler_->BuildFrame(unit);
    const core::ScheduledSlot& slot = frame.front();
    const double start_s = std::max(clock_s, request.arrival_s);
    const double finish_s = start_s + slot.duration_s;
    const double offset_us = sync.SampleOffsetUs(rngs[i]);
    const core::SoftDecision decision = scheduler_->ClassifyWithMargin(
        request.client, request.pixels, offset_us, rngs[i]);
    margins[i] = decision.margin;
    if (!engines.empty()) {
      engines[request.client].Observe(obs::health::kSignalAccuracyProxy,
                                      finish_s + demod_s, decision.margin,
                                      result.alerts);
    }
    result.responses[i] = {.id = request.id,
                           .client = request.client,
                           .predicted = decision.predicted,
                           .rejected = RejectReason::kNone,
                           .arrival_s = request.arrival_s,
                           .start_s = start_s,
                           .finish_s = finish_s};
    obs::RequestTrace& trace = traces[i];
    trace.id = request.id;
    trace.tenant = static_cast<std::uint32_t>(request.client);
    trace.cache_hit = mapping_from_cache_[request.client];
    trace.arrival_s = request.arrival_s;
    trace.slo_s = slo_targets_[request.client];
    // No admission scan and no coalescing in the naive path: the whole
    // arrival -> transmission gap is queueing behind earlier requests.
    trace.stage(obs::RequestStage::kQueueWait) = start_s - request.arrival_s;
    trace.stage(obs::RequestStage::kAirtime) = slot.duration_s;
    trace.stage(obs::RequestStage::kDemod) = demod_s;
    trace.energy_j =
        energy_
            .OtaInferenceEnergy(
                slot.duration_s, slot.rounds * slot.symbols_per_round,
                scheduler_->deployment(request.client)
                    .link()
                    .config()
                    .budget.tx_power_dbm)
            .total_j();
    ++result.stats.frames;
    obs::Count("serve.frames");
    result.timeseries.push_back(
        {.t_s = start_s,
         .values = {
             {"queue_depth", 0.0},
             {"in_flight", 1.0},
             {"frame_slots", 1.0},
             {"frame_utilization",
              1.0 / static_cast<double>(options_.frame_budget)},
             {"cache_hit_rate", trace.cache_hit ? 1.0 : 0.0},
             {"admitted", static_cast<double>(admitted)},
             {"served", static_cast<double>(admitted)},
             {"rejected", static_cast<double>(result.stats.rejected())},
             {"alerts", static_cast<double>(result.alerts.size())}}});
    clock_s = finish_s + guard_s;
  }

  std::vector<std::string> tenant_names;
  for (std::size_t c = 0; c < num_clients(); ++c) {
    tenant_names.push_back(scheduler_->device_name(c));
  }
  FinalizeStats(result.stats, result.responses, requests, traces, margins,
                engines, std::move(tenant_names), result.request_log,
                result.alerts);
  return result;
}

}  // namespace metaai::serve
