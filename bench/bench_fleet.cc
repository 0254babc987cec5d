// Fleet: sharded surface cluster behind one front door vs a single
// overloaded shard.
//
// Eight edge tenants offer ~4.5k req/s of stressed traffic (Pareto
// heavy tails, diurnal waves, a flash crowd) against 8x8 front panels
// whose TDMA budget sustains ~3.6k req/s each. A single-shard fleet is
// ~1.25x oversubscribed: queues saturate, admission sheds load, and
// nearly every served request burns its latency SLO. The two-shard
// fleet bin-packs the same tenants 4+4 across shards (the per-shard
// controller budget_cap admits exactly four declared demands), so each
// shard runs at ~0.62 load and goodput under SLO recovers — the bench
// hard-gates the two-shard/single-shard goodput ratio at >= 1.8x.
//
// The determinism contract is gated too: the single-shard fleet must
// reproduce a bare serve::Runtime bit for bit (responses and telemetry
// exports), the two-shard exports must be byte-identical at 1/2/4/8
// worker threads, and a hot migration (routing flip at a virtual
// cutover, destination warmed through the shared mts::ConfigCache)
// must not perturb a single prediction. The shared cache collapses all
// tenant mapping solves across every arm into one coordinate-descent
// run (hits are pinned by the baseline).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

#include "common/table.h"
#include "fleet/fleet.h"
#include "mts/config_cache.h"
#include "mts/controller.h"
#include "mts/layer_graph.h"
#include "obs/alerts.h"
#include "obs/export.h"
#include "obs/lifecycle.h"
#include "obs/timeseries.h"
#include "serve/generator.h"
#include "serve/runtime.h"

namespace metaai::bench {
namespace {

constexpr std::size_t kPanelSide = 8;  // 8x8 panels -> 64 atoms
constexpr std::size_t kDim = kPanelSide * kPanelSide;
constexpr std::size_t kClasses = 4;
constexpr std::size_t kTenants = 8;
constexpr double kRateHz = 565.0;
constexpr double kDurationS = 24.0;
/// Requests replayed in the thread-sweep and migration arms.
constexpr std::size_t kPrefix = 8000;

/// Class-center blobs in [0, 1]^64: all the data:: factories are
/// 256-dimensional (16x16), so the fleet's 8x8 panels get their own
/// synthetic split. Train and test share centers.
struct SynthData {
  nn::RealDataset train;
  nn::RealDataset test;
};

SynthData MakeSynthData(Rng& rng) {
  std::vector<std::vector<double>> centers(kClasses,
                                           std::vector<double>(kDim));
  for (auto& center : centers) {
    for (double& v : center) v = rng.Uniform(0.15, 0.85);
  }
  const auto fill = [&](nn::RealDataset& ds, std::size_t per_class) {
    ds.num_classes = kClasses;
    ds.dim = kDim;
    for (std::size_t c = 0; c < kClasses; ++c) {
      for (std::size_t i = 0; i < per_class; ++i) {
        std::vector<double> f(kDim);
        for (std::size_t d = 0; d < kDim; ++d) {
          f[d] = std::clamp(centers[c][d] + 0.18 * rng.Normal(), 0.0, 1.0);
        }
        ds.features.push_back(std::move(f));
        ds.labels.push_back(static_cast<int>(c));
      }
    }
    ds.Validate();
  };
  SynthData data;
  fill(data.train, 60);
  fill(data.test, 40);
  return data;
}

mts::MetasurfaceSpec PanelSpec() {
  mts::MetasurfaceSpec spec;
  spec.rows = kPanelSide;
  spec.cols = kPanelSide;
  return spec;
}

std::vector<fleet::TenantSpec> MakeTenants(const core::TrainedModel& model) {
  std::vector<fleet::TenantSpec> tenants;
  for (std::size_t t = 0; t < kTenants; ++t) {
    sim::OtaLinkConfig link =
        DefaultLinkConfig(static_cast<std::uint64_t>(t) + 1);
    serve::ClientSpec client{
        .name = "tenant" + std::to_string(t),
        .model = model,
        .link = link,
        .deployment = {},
        // Staggered 8..15 ms end-to-end targets: generous against the
        // ~0.3 ms airtime + frame batching, hopeless against a
        // saturated queue.
        .slo_latency_s = 0.008 + 0.001 * static_cast<double>(t)};
    tenants.push_back(
        {.client = std::move(client), .arrival_rate_hz = kRateHz});
  }
  return tenants;
}

fleet::ShardSpec MakeShard(const std::string& name, double budget_cap) {
  return {.name = name,
          .graph = mts::LayerGraph::FromSurface(mts::Metasurface{PanelSpec()}),
          .band_hz = 5.25e9,
          .scheduler = {},
          .budget_cap = budget_cap};
}

fleet::Fleet MakeFleet(const core::TrainedModel& model, std::size_t shards,
                       double budget_cap,
                       const std::shared_ptr<mts::ConfigCache>& cache,
                       std::vector<fleet::Migration> migrations = {}) {
  std::vector<fleet::ShardSpec> specs;
  for (std::size_t s = 0; s < shards; ++s) {
    specs.push_back(MakeShard("shard" + std::to_string(s), budget_cap));
  }
  fleet::FleetOptions options;
  options.cache = cache;
  options.migrations = std::move(migrations);
  return fleet::Fleet::TryCreate(std::move(specs), MakeTenants(model),
                                 std::move(options))
      .value();
}

std::vector<int> Predictions(std::span<const serve::ServeResponse> responses) {
  std::vector<int> predicted;
  predicted.reserve(responses.size());
  for (const serve::ServeResponse& response : responses) {
    predicted.push_back(response.predicted);
  }
  return predicted;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Run(BenchReport& report) {
  // Counters/gauges/histograms still flow into the report, but span
  // recording is off: this bench serves ~7e5 requests across its arms
  // and per-request wall spans would dominate the report file.
  const obs::ScopedTracer no_spans(nullptr);
  Rng data_rng(171);
  const SynthData data = MakeSynthData(data_rng);
  Rng train_rng(172);
  const core::TrainedModel model =
      core::TrainModel(data.train, RobustTrainingOptions(), train_rng);
  const sim::SyncModel sync = DeploymentSyncModel();

  // Per-tenant declared demand in controller patterns/s and the aligned
  // 64-atom controller's ceiling: budget caps are sized from these so
  // FFD admits exactly 4 tenants per shard in the two-shard arm and all
  // 8 on the lone overloaded shard.
  const double demand_hz = kRateHz * 2.0 * static_cast<double>(kDim) *
                           static_cast<double>(kClasses);
  mts::ControllerConfig aligned;
  aligned.num_atoms = kDim;
  const double max_rate = mts::Controller(aligned).MaxSwitchRate();
  const double cap_two = 4.5 * demand_hz / max_rate;
  const double cap_one = std::min(1.0, 9.0 * demand_hz / max_rate);
  const double cap_migration = 5.5 * demand_hz / max_rate;
  report.Headline("controller_max_switch_rate_hz", max_rate);
  report.Headline("tenant_demand_patterns_hz", demand_hz);

  // Stressed open-loop trace: heavy-tailed tenants, diurnal waves, one
  // flash crowd, two plain Poisson controls.
  serve::WorkloadSpec spec;
  spec.duration_s = kDurationS;
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::TenantWorkload tenant{.arrival_rate_hz = kRateHz,
                                 .samples = &data.test};
    if (t < 3) {
      tenant.pareto_shape = 1.8;
    } else if (t < 6) {
      tenant.diurnal_amplitude = 0.4;
      tenant.diurnal_period_s = kDurationS / 2.0;
    } else if (t == 6) {
      tenant.flash_crowds = {{.start_s = 0.45 * kDurationS,
                              .duration_s = 0.05 * kDurationS,
                              .multiplier = 2.5}};
    }
    spec.tenants.push_back(std::move(tenant));
  }
  Rng workload_rng(173);
  const std::vector<serve::ServeRequest> requests =
      serve::GenerateWorkload(spec, workload_rng).value();
  report.Headline("requests", static_cast<double>(requests.size()));

  // Build the two-shard fleet first: its first tenant pays the single
  // mapping solve, so every later construction — including the bare
  // runtime the bitwise gate compares against — is a pure cache hit and
  // the request logs carry identical mapping provenance.
  const auto cache = std::make_shared<mts::ConfigCache>();
  const fleet::Fleet sharded = MakeFleet(model, 2, cap_two, cache);
  const fleet::Fleet single = MakeFleet(model, 1, cap_one, cache);

  // Placement: the two-shard packing must actually split the tenants.
  std::vector<std::size_t> shard_tenants(sharded.num_shards(), 0);
  Table placement("Fleet: two-shard tenant placement",
                  {"Tenant", "Shard", "Demand Mpat/s"});
  for (std::size_t t = 0; t < sharded.num_tenants(); ++t) {
    const fleet::TenantPlacement& p = sharded.placement()[t];
    ++shard_tenants[p.shard];
    placement.AddRow({sharded.tenant_name(t), sharded.shard_name(p.shard),
                      FormatDouble(p.demand_patterns_hz / 1e6, 3)});
  }
  placement.Print(std::cout);
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    report.Headline("placement_shard" + std::to_string(s) + "_tenants",
                    static_cast<double>(shard_tenants[s]));
    if (shard_tenants[s] == 0) {
      std::fprintf(stderr,
                   "FAILED: two-shard packing left shard %zu empty\n", s);
      return 1;
    }
  }

  Table table("Fleet: goodput under SLO, one overloaded shard vs two",
              {"Config", "Wall s", "Served", "Rejected", "p50 ms", "p99 ms",
               "SLO within", "Goodput req/s"});
  const auto run_arm = [&](const fleet::Fleet& cluster,
                           const std::string& label,
                           const std::string& key) {
    Rng rng(174);
    const auto start = std::chrono::steady_clock::now();
    fleet::FleetResult result = cluster.Run(requests, sync, rng);
    const double wall_s = Seconds(start);
    const fleet::FleetStats& s = result.stats;
    table.AddRow({label, FormatDouble(wall_s, 2), std::to_string(s.served),
                  std::to_string(s.rejected()),
                  FormatDouble(s.latency_p50_s * 1e3, 2),
                  FormatDouble(s.latency_p99_s * 1e3, 2),
                  std::to_string(s.slo_within),
                  FormatDouble(s.goodput_slo_rps, 1)});
    report.Headline("served_" + key, static_cast<double>(s.served));
    report.Headline("rejected_" + key, static_cast<double>(s.rejected()));
    report.Headline("slo_within_" + key, static_cast<double>(s.slo_within));
    report.Headline("slo_violations_" + key,
                    static_cast<double>(s.slo_violations));
    report.Headline("latency_p50_ms_" + key, s.latency_p50_s * 1e3);
    report.Headline("latency_p99_ms_" + key, s.latency_p99_s * 1e3);
    report.Headline("latency_p999_ms_" + key, s.latency_p999_s * 1e3);
    report.Headline("goodput_slo_rps_" + key, s.goodput_slo_rps);
    report.Headline("wall_s_" + key, wall_s);
    return result;
  };

  const fleet::FleetResult single_result =
      run_arm(single, "1 shard (overloaded)", "single");
  const fleet::FleetResult sharded_result =
      run_arm(sharded, "2 shards", "sharded");
  table.Print(std::cout);
  report.Headline("alerts_single",
                  static_cast<double>(single_result.stats.alerts));
  report.Headline("alerts_sharded",
                  static_cast<double>(sharded_result.stats.alerts));

  const double ratio = sharded_result.stats.goodput_slo_rps /
                       single_result.stats.goodput_slo_rps;
  report.Headline("goodput_ratio_sharded_vs_single", ratio);
  std::cout << "(two shards vs one under the same trace: "
            << FormatDouble(ratio, 2) << "x goodput under SLO)\n";
  if (ratio < 1.8) {
    std::fprintf(stderr,
                 "FAILED: two-shard goodput ratio %.2fx below the 1.8x gate\n",
                 ratio);
    return 1;
  }

  // Gate: the single-shard fleet is the bare runtime, bit for bit —
  // same responses, same telemetry bytes.
  {
    std::vector<serve::ClientSpec> clients;
    for (fleet::TenantSpec& tenant : MakeTenants(model)) {
      clients.push_back(std::move(tenant.client));
    }
    serve::RuntimeOptions options;
    options.cache = cache;
    const serve::Runtime bare =
        serve::Runtime::TryCreate(
            mts::LayerGraph::FromSurface(mts::Metasurface{PanelSpec()}),
            std::move(clients), std::move(options))
            .value();
    Rng bare_rng(174);
    const serve::ServeResult direct = bare.Run(requests, sync, bare_rng);
    const bool identical =
        Predictions(single_result.responses) ==
            Predictions(direct.responses) &&
        single_result.stats.served == direct.stats.served &&
        single_result.stats.latency_p999_s == direct.stats.latency_p999_s &&
        obs::ToRequestsJsonl(single_result.request_log) ==
            obs::ToRequestsJsonl(direct.request_log) &&
        obs::health::ToAlertsJsonl(single_result.alerts) ==
            obs::health::ToAlertsJsonl(direct.alerts);
    if (!identical) {
      std::fprintf(stderr,
                   "FAILED: single-shard fleet diverges from the bare "
                   "runtime\n");
      return 1;
    }
  }

  // Thread sweep on a prefix of the trace: the two-shard fleet's merged
  // exports must be byte-identical at every worker count.
  const std::span<const serve::ServeRequest> prefix(
      requests.data(), std::min(kPrefix, requests.size()));
  {
    std::vector<int> reference;
    std::string reference_requests;
    std::string reference_timeseries;
    std::string reference_alerts;
    for (const int threads : {1, 2, 4, 8}) {
      const par::ScopedThreadCount scoped(threads);
      Rng rng(175);
      const fleet::FleetResult result = sharded.Run(prefix, sync, rng);
      const std::string requests_jsonl =
          obs::ToRequestsJsonl(result.request_log);
      const std::string timeseries_jsonl =
          obs::ToTimeSeriesJsonl(result.timeseries);
      const std::string alerts_jsonl =
          obs::health::ToAlertsJsonl(result.alerts);
      if (threads == 1) {
        reference = Predictions(result.responses);
        reference_requests = requests_jsonl;
        reference_timeseries = timeseries_jsonl;
        reference_alerts = alerts_jsonl;
        if (const char* dir = std::getenv("METAAI_BENCH_OUT")) {
          const std::string prefix(dir);
          obs::WriteTextFile(prefix + "/REQUESTS_fleet.jsonl", requests_jsonl);
          obs::WriteTextFile(prefix + "/TIMESERIES_fleet.jsonl",
                             timeseries_jsonl);
          obs::WriteTextFile(prefix + "/ALERTS_fleet.jsonl", alerts_jsonl);
        }
      } else if (Predictions(result.responses) != reference ||
                 requests_jsonl != reference_requests ||
                 timeseries_jsonl != reference_timeseries ||
                 alerts_jsonl != reference_alerts) {
        std::fprintf(stderr,
                     "FAILED: fleet exports at %d threads diverge from "
                     "serial\n",
                     threads);
        return 1;
      }
    }
  }

  // Hot-migration gate on the same prefix: flipping tenant 0 to the
  // other shard mid-trace (destination warmed through the shared cache)
  // must preserve every prediction bit for bit.
  {
    const double cutover_s = prefix[prefix.size() / 2].arrival_s;
    const fleet::Fleet stay = MakeFleet(model, 2, cap_migration, cache);
    const fleet::Fleet move =
        MakeFleet(model, 2, cap_migration, cache,
                  {{.tenant = 0, .to_shard = 1, .cutover_s = cutover_s}});
    Rng stay_rng(176);
    Rng move_rng(176);
    const fleet::FleetResult before = stay.Run(prefix, sync, stay_rng);
    const fleet::FleetResult after = move.Run(prefix, sync, move_rng);
    report.Headline("migration_cutover_s", cutover_s);
    report.Headline(
        "migration_dest_served",
        static_cast<double>(after.stats.shards[1].stats.served -
                            before.stats.shards[1].stats.served));
    if (Predictions(before.responses) != Predictions(after.responses)) {
      std::fprintf(stderr,
                   "FAILED: hot migration perturbed predictions\n");
      return 1;
    }
    if (after.stats.shards[1].stats.served <=
        before.stats.shards[1].stats.served) {
      std::fprintf(stderr,
                   "FAILED: migration destination served no extra traffic\n");
      return 1;
    }
  }

  // Every arm deploys the same model on identical panels: the shared
  // cache collapses all mapping work into one solve.
  const mts::ConfigCache::Stats cache_stats = cache->stats();
  report.Headline("cache_hits", static_cast<double>(cache_stats.hits));
  report.Headline("cache_misses", static_cast<double>(cache_stats.misses));
  return 0;
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fleet");
  return metaai::bench::Run(report);
}
