// Command-line front end for the MetaAI library.
//
//   metaai_cli train      --dataset mnist --out model.txt [--robust]
//   metaai_cli eval       --dataset mnist --model model.txt
//   metaai_cli deploy     --dataset mnist --model model.txt --out patterns.txt
//   metaai_cli ota        --dataset mnist --model model.txt [--samples N]
//                         [--faults SPEC] [--recover]
//   metaai_cli quickstart --dataset mnist [--samples N] [--seed N]
//   metaai_cli datasets
//
// `train` fits the complex LNN digitally (optionally with the §3.5
// robustness schemes) and writes a model file. `eval` reports the digital
// (simulation) accuracy. `deploy` solves the metasurface configuration
// schedules for the default link and writes the controller pattern file.
// `ota` runs the full over-the-air evaluation on the simulated link;
// `--faults SPEC` injects seeded hardware faults (metaai::fault, e.g.
// "stuck=0.1,chain=1e-4,drift=0.01,age=60,burst=0.05:20,seed=7") and
// `--recover` additionally runs the diagnose -> re-solve graceful-
// degradation loop and reports the recovered accuracy.
// `quickstart` chains train -> deploy -> controller budget check -> OTA
// evaluation in one process (the README quickstart path).
//
// Every command accepts `--threads N` (worker count for the metaai::par
// fan-outs; overrides METAAI_THREADS, default hardware concurrency, 1 =
// exact legacy serial path) and telemetry flags (before or after the
// command):
//   --metrics-out FILE   "metaai.obs.v1" JSON snapshot (instruments +
//                        trace spans) written on exit
//   --trace-out FILE     Chrome-trace JSON (open in chrome://tracing or
//                        Perfetto) of the run's spans
//   --probes-out FILE    "metaai.probes.v1" JSONL flight-recorder dump
//                        (EVM, per-subcarrier SNR, sync offsets, solver
//                        curves, phase configs, constellation samples)
// `serve` and `ota` additionally accept `--alerts-out FILE`, writing the
// run's "metaai.alerts.v1" JSONL alert stream from the online health
// monitor (obs/health.h, obs/alerts.h) — empty on healthy runs, drift/
// threshold alerts under injected faults or SLO pressure.
// See README.md "Telemetry".
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "core/metaai.h"
#include "data/datasets.h"
#include "fault/injector.h"
#include "mts/config_cache.h"
#include "obs/alerts.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "rf/geometry.h"
#include "serve/generator.h"
#include "serve/runtime.h"
#include "simd/dispatch.h"

namespace {

using namespace metaai;

/// Unwraps a Result or exits with the typed error on stderr — malformed
/// user input (bad model files, bad --faults specs) terminates with a
/// diagnostic, never a Check abort.
template <typename T>
T OrDie(Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.error().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void OrDie(Result<void> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.error().ToString().c_str());
    std::exit(1);
  }
}

/// Unwraps a Result or exits 2 — the usage-error status. Construction-
/// time rejections (serve::Runtime::TryCreate, fleet::Fleet::TryCreate,
/// workload validation) are misconfigurations on par with an unknown
/// flag, not runtime failures.
template <typename T>
T OrUsageDie(Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.error().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it != options.end() ? it->second : fallback;
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      // First bare word is the command; flags may come before or after it.
      if (!args.command.empty()) {
        throw CheckError(std::string("unexpected argument: ") + argv[i]);
      }
      args.command = argv[i];
      continue;
    }
    const std::string key(argv[i] + 2);
    // A flag consumes the next token as its value unless that token is
    // itself a flag or there is none (then it is a boolean flag).
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options.emplace(key, argv[++i]);
    } else {
      args.options.emplace(key, "1");
    }
  }
  return args;
}

/// Dataset selected by --dataset, optionally shrunk by
/// --train-per-class / --test-per-class (smoke tests, quick demos).
data::Dataset LoadDataset(const Args& args) {
  data::DatasetOptions options;
  if (args.Has("train-per-class")) {
    options.train_per_class = std::stoull(args.Get("train-per-class"));
  }
  if (args.Has("test-per-class")) {
    options.test_per_class = std::stoull(args.Get("test-per-class"));
  }
  return data::MakeByName(args.Get("dataset", "mnist"), options);
}

sim::OtaLinkConfig DefaultLink() {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  config.mts_phase_noise_std = 0.05;
  return config;
}

// Optional hardware fault injection: --faults
// "stuck=0.1,chain=1e-4,drift=0.01,age=60,burst=0.05:20,seed=7" realizes
// a seeded fault plan against the surface (see src/fault/plan.h).
std::shared_ptr<const fault::FaultInjector> MakeFaults(const Args& args,
                                                       std::size_t atoms) {
  if (!args.Has("faults")) return nullptr;
  const fault::FaultPlan plan =
      OrDie(fault::TryParseFaultSpec(args.Get("faults")));
  return std::make_shared<const fault::FaultInjector>(plan, atoms);
}

// --depth K stacks K default panels into a SIM cascade (K-1 upstream
// layers at --coupling gain each); depth 1 is the single panel.
mts::LayerGraph MakeGraph(const Args& args) {
  const auto depth =
      static_cast<std::size_t>(std::stoull(args.Get("depth", "1")));
  const double coupling = std::stod(args.Get("coupling", "1.3"));
  Check(depth >= 1, "--depth must be >= 1");
  std::vector<mts::PhysicalLayerSpec> specs(depth);
  for (std::size_t l = 1; l < depth; ++l) {
    specs[l].coupling_gain = coupling;
  }
  return mts::LayerGraph(std::move(specs));
}

int Train(const Args& args) {
  const auto dataset = LoadDataset(args);
  const std::string out = args.Get("out", "model.txt");
  Rng rng(std::stoull(args.Get("seed", "42")));
  core::TrainingOptions options;
  if (args.Has("robust")) {
    options.sync_error_injection = true;
    options.sync_gamma_scale_us =
        1.85 * sim::PaperEquivalentLatencyScale(dataset.train.dim);
    options.input_noise_variance = 0.02;
  }
  const auto model = core::TrainModel(dataset.train, options, rng);
  OrDie(core::TrySaveModel(model, out));
  std::printf("trained %s on %s (%zu samples), digital accuracy %.2f%%\n",
              out.c_str(), dataset.name.c_str(), dataset.train.size(),
              100.0 * core::EvaluateDigital(model, dataset.test));
  return 0;
}

int Eval(const Args& args) {
  const auto dataset = LoadDataset(args);
  const auto model = OrDie(core::TryLoadModel(args.Get("model", "model.txt")));
  std::printf("%s digital accuracy: %.2f%%\n", dataset.name.c_str(),
              100.0 * core::EvaluateDigital(model, dataset.test));
  return 0;
}

int Deploy(const Args& args) {
  const auto model = OrDie(core::TryLoadModel(args.Get("model", "model.txt")));
  const std::string out = args.Get("out", "patterns.txt");
  const mts::LayerGraph graph = MakeGraph(args);
  const std::size_t atoms = graph.front().num_atoms();
  const core::Deployment deployment(model, graph, DefaultLink());
  OrDie(core::TrySavePatterns(deployment.schedules(), atoms, out));
  std::printf(
      "solved %zu rounds x %zu symbols (%zu atoms, depth %zu), mean "
      "residual %.4f -> %s\n",
      deployment.schedules().rounds.size(),
      deployment.schedules().rounds[0].size(), atoms, graph.depth(),
      deployment.schedules().mean_relative_residual, out.c_str());
  return 0;
}

int Ota(const Args& args) {
  const auto dataset = LoadDataset(args);
  const auto model = OrDie(core::TryLoadModel(args.Get("model", "model.txt")));
  const auto samples =
      static_cast<std::size_t>(std::stoull(args.Get("samples", "200")));
  const mts::LayerGraph graph = MakeGraph(args);
  sim::OtaLinkConfig link_config = DefaultLink();
  // Faults act on the schedule-driven front panel only.
  const auto faults = MakeFaults(args, graph.front().num_atoms());
  link_config.faults = faults;
  const core::Deployment deployment(model, graph, link_config);
  sim::SyncModelConfig sync_config;
  sync_config.latency_scale =
      sim::PaperEquivalentLatencyScale(dataset.train.dim);
  sync_config.faults = faults;
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  Rng rng(std::stoull(args.Get("seed", "7")));
  if (faults != nullptr) {
    std::printf("faults: %s (%zu stuck atoms)\n",
                fault::FaultSpecString(faults->plan()).c_str(),
                faults->num_stuck());
  }
  const double accuracy =
      deployment.EvaluateAccuracy(dataset.test, sync, rng, samples);
  std::printf("%s over-the-air accuracy: %.2f%% (%zu samples, %zu rounds "
              "per inference)\n",
              dataset.name.c_str(), 100.0 * accuracy,
              std::min(samples, dataset.test.size()),
              deployment.RoundsPerInference());
  if (args.Has("recover") && faults != nullptr) {
    // Diagnose over the air, re-solve over the healthy aperture, and
    // re-evaluate — the graceful-degradation loop the watchdog automates.
    Rng diag_rng(std::stoull(args.Get("seed", "7")) ^ 0xFA17ull);
    const core::FaultDiagnosis diagnosis =
        core::DiagnoseDeployment(deployment, diag_rng);
    std::printf("diagnosis: %zu stuck atoms detected, WDD health %.4f "
                "(%zu probe transmissions)\n",
                diagnosis.num_stuck, diagnosis.wdd_ratio,
                diagnosis.probe_transmissions);
    const core::Deployment recovered =
        core::RecoverFromFaults(model, graph, link_config, {}, diagnosis);
    Rng rec_rng(std::stoull(args.Get("seed", "7")));
    const double recovered_accuracy =
        recovered.EvaluateAccuracy(dataset.test, sync, rec_rng, samples);
    std::printf("recovered over-the-air accuracy: %.2f%%\n",
                100.0 * recovered_accuracy);
  }
  if (args.Has("alerts-out")) {
    // Online health pass: classify the same spot-check set with the
    // soft-decision margin as a label-free accuracy proxy and run the
    // default link-health rules over it. Healthy links emit nothing;
    // injected faults collapse the margins and fire drift alerts.
    obs::health::AlertEngine engine(0);
    for (obs::health::AlertRule& rule : obs::health::DefaultLinkHealthRules()) {
      engine.AddRule(std::move(rule));
    }
    std::vector<obs::health::Alert> alerts;
    Rng health_rng(std::stoull(args.Get("seed", "7")));
    const std::size_t checked = std::min(samples, dataset.test.size());
    // Virtual time advances one OTA frame per inference.
    const double frame_s =
        static_cast<double>(deployment.RoundsPerInference()) *
        static_cast<double>(deployment.schedules().rounds[0].size()) /
        deployment.link().config().symbol_rate_hz;
    for (std::size_t i = 0; i < checked; ++i) {
      const core::SoftDecision decision = deployment.ClassifyWithMargin(
          dataset.test.features[i], 0.0, health_rng);
      engine.Observe(obs::health::kSignalAccuracyProxy,
                     static_cast<double>(i + 1) * frame_s, decision.margin,
                     alerts);
    }
    const std::string path = args.Get("alerts-out");
    if (!obs::WriteTextFile(path, obs::health::ToAlertsJsonl(alerts))) {
      std::fprintf(stderr, "error: cannot write alerts to %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu alerts to %s (%zu inferences monitored)\n",
                alerts.size(), path.c_str(), checked);
  }
  return 0;
}

int Quickstart(const Args& args) {
  const auto dataset = LoadDataset(args);
  const auto samples =
      static_cast<std::size_t>(std::stoull(args.Get("samples", "50")));
  Rng rng(std::stoull(args.Get("seed", "42")));

  // Robust digital training (§3.5: CDFA sync injection + noise).
  core::TrainingOptions training;
  training.sync_error_injection = true;
  training.sync_gamma_scale_us =
      1.85 * sim::PaperEquivalentLatencyScale(dataset.train.dim);
  training.input_noise_variance = 0.02;
  const auto model = core::TrainModel(dataset.train, training, rng);
  std::printf("digital accuracy: %.2f%%\n",
              100.0 * core::EvaluateDigital(model, dataset.test));

  // Deploy on the default link and check the pattern-switching budget.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment deployment(model, graph, DefaultLink());
  const auto& rounds = deployment.schedules().rounds;
  const std::size_t patterns = rounds.size() * rounds.front().size();
  const mts::Controller controller;
  const double rate = deployment.link().config().symbol_rate_hz;
  const double duration = static_cast<double>(patterns) / rate;
  std::printf("deployed %zu rounds x %zu symbols, residual %.4f\n",
              rounds.size(), rounds.front().size(),
              deployment.schedules().mean_relative_residual);
  std::printf("controller: budget %s at %.0f sym/s, %.3f mJ per inference\n",
              controller.CanSustain(rate, 2) ? "ok" : "EXCEEDED", rate,
              1e3 * controller.ScheduleEnergy(patterns, duration));

  // Over-the-air evaluation under the CDFA sync model.
  sim::SyncModelConfig sync_config;
  sync_config.latency_scale =
      sim::PaperEquivalentLatencyScale(dataset.train.dim);
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  const double ota =
      deployment.EvaluateAccuracy(dataset.test, sync, rng, samples);
  std::printf("%s over-the-air accuracy: %.2f%% (%zu samples)\n",
              dataset.name.c_str(), 100.0 * ota,
              std::min(samples, dataset.test.size()));
  return 0;
}

// Batched multi-tenant serving demo: N clients sharing one surface
// (and one trained model, so the solver-result cache hits for every
// client after the first), Poisson arrivals, TDMA frame batching.
int Serve(const Args& args) {
  const auto dataset = LoadDataset(args);
  const auto num_clients =
      static_cast<std::size_t>(std::stoull(args.Get("clients", "3")));
  const double duration_s = std::stod(args.Get("duration", "0.2"));
  const double rate_hz = std::stod(args.Get("rate", "50"));
  Check(num_clients >= 1, "--clients must be >= 1");
  Rng rng(std::stoull(args.Get("seed", "42")));

  core::TrainingOptions training;
  training.sync_error_injection = true;
  training.sync_gamma_scale_us =
      1.85 * sim::PaperEquivalentLatencyScale(dataset.train.dim);
  training.input_noise_variance = 0.02;
  const auto model = core::TrainModel(dataset.train, training, rng);

  const mts::LayerGraph graph =
      mts::LayerGraph::FromSurface(mts::Metasurface{mts::MetasurfaceSpec{}});
  const auto cache = std::make_shared<mts::ConfigCache>();
  std::vector<serve::ClientSpec> clients;
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.push_back({.name = "client" + std::to_string(c),
                       .model = model,
                       .link = DefaultLink(),
                       .deployment = {}});
  }
  serve::RuntimeOptions options;
  options.queue_capacity = static_cast<std::size_t>(
      std::stoull(args.Get("queue-capacity", "64")));
  options.frame_budget =
      static_cast<std::size_t>(std::stoull(args.Get("frame-budget", "8")));
  if (!args.Has("no-cache")) options.cache = cache;
  const serve::Runtime runtime = OrUsageDie(
      serve::Runtime::TryCreate(graph, std::move(clients), options));

  const std::vector<serve::ClientWorkload> workload(
      num_clients, {.arrival_rate_hz = rate_hz, .samples = &dataset.test});
  const auto requests =
      OrDie(serve::GenerateWorkload(workload, duration_s, rng));

  sim::SyncModelConfig sync_config;
  sync_config.latency_scale =
      sim::PaperEquivalentLatencyScale(dataset.train.dim);
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  const serve::ServeResult result =
      args.Has("unbatched") ? runtime.RunUnbatched(requests, sync, rng)
                            : runtime.Run(requests, sync, rng);
  const serve::ServeStats& stats = result.stats;
  std::printf(
      "served %zu/%zu requests from %zu clients in %.4f s virtual "
      "(%zu frames%s)\n",
      stats.served, stats.submitted, num_clients, stats.virtual_duration_s,
      stats.frames, args.Has("unbatched") ? ", unbatched" : "");
  std::printf("queue wait p50/p99: %.1f/%.1f us, latency p50/p99: "
              "%.1f/%.1f us\n",
              1e6 * stats.queue_wait_p50_s, 1e6 * stats.queue_wait_p99_s,
              1e6 * stats.latency_p50_s, 1e6 * stats.latency_p99_s);
  if (stats.rejected() > 0) {
    std::printf("rejected %zu (queue_full %zu, bad_input %zu, "
                "unknown_client %zu)\n",
                stats.rejected(), stats.rejected_queue_full,
                stats.rejected_bad_input, stats.rejected_unknown_client);
  }
  if (stats.labeled > 0) {
    std::printf("served accuracy: %.2f%% (%zu labeled)\n",
                100.0 * static_cast<double>(stats.correct) /
                    static_cast<double>(stats.labeled),
                stats.labeled);
  }
  std::printf("health: %zu alerts (%zu drift), margin p50 %.3f\n",
              stats.alerts, stats.drift_alerts, stats.margin_p50);
  if (args.Has("alerts-out")) {
    const std::string path = args.Get("alerts-out");
    if (!obs::WriteTextFile(path,
                            obs::health::ToAlertsJsonl(result.alerts))) {
      std::fprintf(stderr, "error: cannot write alerts to %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu alerts to %s\n", result.alerts.size(),
                path.c_str());
  }
  const mts::ConfigCache::Stats cache_stats = cache->stats();
  std::printf("solver cache: %llu hits, %llu misses (hit rate %.0f%%)\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              100.0 * cache_stats.HitRate());
  return 0;
}

// Sharded fleet demo: K shards behind the fleet front door, T tenants
// bin-packed onto them by switch-rate demand, served against a
// composable WorkloadSpec trace (--pareto/--diurnal/--flash stressors),
// with optional hot migration (--migrate T:S:C).
int FleetCmd(const Args& args) {
  const auto dataset = LoadDataset(args);
  const auto num_shards =
      static_cast<std::size_t>(std::stoull(args.Get("shards", "2")));
  const auto num_tenants =
      static_cast<std::size_t>(std::stoull(args.Get("tenants", "4")));
  const double duration_s = std::stod(args.Get("duration", "0.2"));
  const double rate_hz = std::stod(args.Get("rate", "50"));
  Check(num_shards >= 1, "--shards must be >= 1");
  Check(num_tenants >= 1, "--tenants must be >= 1");
  Rng rng(std::stoull(args.Get("seed", "42")));

  core::TrainingOptions training;
  training.sync_error_injection = true;
  training.sync_gamma_scale_us =
      1.85 * sim::PaperEquivalentLatencyScale(dataset.train.dim);
  training.input_noise_variance = 0.02;
  const auto model = core::TrainModel(dataset.train, training, rng);

  // Identical shards on the default band (--depth/--coupling shape each
  // shard's cascade); identical tenants, so the shared fleet cache
  // deduplicates every solve after the first.
  std::vector<fleet::ShardSpec> shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards.push_back(
        {.name = "shard" + std::to_string(s), .graph = MakeGraph(args)});
  }
  std::vector<fleet::TenantSpec> tenants;
  for (std::size_t t = 0; t < num_tenants; ++t) {
    serve::ClientSpec client{.name = "tenant" + std::to_string(t),
                             .model = model,
                             .link = DefaultLink(),
                             .deployment = {}};
    client.slo_latency_s = std::stod(args.Get("slo", "0"));
    tenants.push_back(
        {.client = std::move(client), .arrival_rate_hz = rate_hz});
  }

  fleet::FleetOptions options;
  options.runtime.queue_capacity = static_cast<std::size_t>(
      std::stoull(args.Get("queue-capacity", "64")));
  options.runtime.frame_budget =
      static_cast<std::size_t>(std::stoull(args.Get("frame-budget", "8")));
  if (args.Has("migrate")) {
    // --migrate TENANT:SHARD:CUTOVER_S schedules one hot migration.
    std::size_t tenant = 0, to_shard = 0;
    double cutover_s = 0.0;
    if (std::sscanf(args.Get("migrate").c_str(), "%zu:%zu:%lf", &tenant,
                    &to_shard, &cutover_s) != 3) {
      std::fprintf(stderr,
                   "error: --migrate wants TENANT:SHARD:CUTOVER_S, got %s\n",
                   args.Get("migrate").c_str());
      return 2;
    }
    options.migrations.push_back(
        {.tenant = tenant, .to_shard = to_shard, .cutover_s = cutover_s});
  }
  const fleet::Fleet cluster = OrUsageDie(fleet::Fleet::TryCreate(
      std::move(shards), std::move(tenants), std::move(options)));
  for (std::size_t t = 0; t < cluster.num_tenants(); ++t) {
    const fleet::TenantPlacement& p = cluster.placement()[t];
    std::printf("placed %s on %s (%.0f patterns/s)%s\n",
                cluster.tenant_name(t).c_str(),
                cluster.shard_name(p.shard).c_str(), p.demand_patterns_hz,
                p.migrates
                    ? (" -> " + cluster.shard_name(p.to_shard) + " at t=" +
                       std::to_string(p.cutover_s) + "s")
                          .c_str()
                    : "");
  }

  // Composable open-loop trace: every tenant gets the same stressors.
  serve::TenantWorkload base{.arrival_rate_hz = rate_hz,
                             .samples = &dataset.test};
  if (args.Has("pareto")) base.pareto_shape = std::stod(args.Get("pareto"));
  if (args.Has("diurnal")) {
    // --diurnal AMPLITUDE:PERIOD_S
    if (std::sscanf(args.Get("diurnal").c_str(), "%lf:%lf",
                    &base.diurnal_amplitude, &base.diurnal_period_s) != 2) {
      std::fprintf(stderr,
                   "error: --diurnal wants AMPLITUDE:PERIOD_S, got %s\n",
                   args.Get("diurnal").c_str());
      return 2;
    }
  }
  if (args.Has("flash")) {
    // --flash START_S:DURATION_S:MULTIPLIER
    serve::FlashCrowd crowd;
    if (std::sscanf(args.Get("flash").c_str(), "%lf:%lf:%lf", &crowd.start_s,
                    &crowd.duration_s, &crowd.multiplier) != 3) {
      std::fprintf(
          stderr,
          "error: --flash wants START_S:DURATION_S:MULTIPLIER, got %s\n",
          args.Get("flash").c_str());
      return 2;
    }
    base.flash_crowds.push_back(crowd);
  }
  serve::WorkloadSpec spec;
  spec.tenants.assign(num_tenants, base);
  spec.duration_s = duration_s;
  const auto requests = OrUsageDie(serve::GenerateWorkload(spec, rng));

  sim::SyncModelConfig sync_config;
  sync_config.latency_scale =
      sim::PaperEquivalentLatencyScale(dataset.train.dim);
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  const fleet::FleetResult result = cluster.Run(requests, sync, rng);
  const fleet::FleetStats& stats = result.stats;
  std::printf(
      "fleet served %zu/%zu requests from %zu tenants on %zu shards in "
      "%.4f s virtual (%zu frames)\n",
      stats.served, stats.submitted, cluster.num_tenants(), cluster.num_shards(),
      stats.virtual_duration_s, stats.frames);
  std::printf("latency p50/p99/p999: %.1f/%.1f/%.1f us, goodput %.1f rps "
              "under SLO (%zu within, %zu violations)\n",
              1e6 * stats.latency_p50_s, 1e6 * stats.latency_p99_s,
              1e6 * stats.latency_p999_s, stats.goodput_slo_rps,
              stats.slo_within, stats.slo_violations);
  if (stats.rejected() > 0) {
    std::printf("rejected %zu (queue_full %zu, bad_input %zu, "
                "unknown_tenant %zu)\n",
                stats.rejected(), stats.rejected_queue_full,
                stats.rejected_bad_input, stats.rejected_unknown_tenant);
  }
  for (const fleet::ShardRollup& shard : stats.shards) {
    std::printf("  %s: served %zu, frames %zu, latency p99 %.1f us\n",
                shard.name.c_str(), shard.stats.served, shard.stats.frames,
                1e6 * shard.stats.latency_p99_s);
  }
  std::printf("health: %zu alerts (%zu drift)\n", stats.alerts,
              stats.drift_alerts);
  if (args.Has("alerts-out")) {
    const std::string path = args.Get("alerts-out");
    if (!obs::WriteTextFile(path,
                            obs::health::ToAlertsJsonl(result.alerts))) {
      std::fprintf(stderr, "error: cannot write alerts to %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu alerts to %s\n", result.alerts.size(),
                path.c_str());
  }
  const mts::ConfigCache::Stats cache_stats = cluster.cache()->stats();
  std::printf("solver cache: %llu hits, %llu misses (hit rate %.0f%%)\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              100.0 * cache_stats.HitRate());
  return 0;
}

int Datasets() {
  for (const auto& name : data::AllDatasetNames()) {
    const auto ds = data::MakeByName(
        name, {.train_per_class = 1, .test_per_class = 1});
    std::printf("%-8s %-14s %zu classes, %zux%zu pixels\n", name.c_str(),
                ds.name.c_str(), ds.num_classes, ds.height, ds.width);
  }
  return 0;
}

int Usage() {
  std::puts(
      "usage: metaai_cli <command> [options] [--threads N] [--simd LEVEL]\n"
      "                  [--metrics-out FILE] [--trace-out FILE]\n"
      "                  [--probes-out FILE]\n"
      "  train      --dataset NAME --out FILE [--robust] [--seed N]\n"
      "  eval       --dataset NAME --model FILE\n"
      "  deploy     --model FILE --out FILE [--depth K] [--coupling G]\n"
      "  ota        --dataset NAME --model FILE [--samples N] [--seed N]\n"
      "             [--faults SPEC] [--recover] [--alerts-out FILE]\n"
      "             [--depth K] [--coupling G]\n"
      "  serve      --dataset NAME [--clients N] [--duration S] [--rate HZ]\n"
      "             [--queue-capacity N] [--frame-budget N] [--no-cache]\n"
      "             [--unbatched] [--seed N] [--alerts-out FILE]\n"
      "  fleet      --dataset NAME [--shards K] [--tenants N] [--duration S]\n"
      "             [--rate HZ] [--slo S] [--pareto ALPHA] [--diurnal A:P]\n"
      "             [--flash S:D:M] [--migrate T:S:C] [--depth K]\n"
      "             [--queue-capacity N] [--frame-budget N] [--seed N]\n"
      "             [--alerts-out FILE]\n"
      "  quickstart --dataset NAME [--samples N] [--seed N]\n"
      "  datasets\n"
      "All dataset commands accept --train-per-class N / --test-per-class N\n"
      "to shrink the synthetic datasets (quick demos, smoke tests).\n"
      "`serve` runs the batched multi-tenant serving runtime: N clients\n"
      "share the surface in TDMA frames with fair slot allocation, bounded\n"
      "queues and a solver-result cache (--no-cache disables it;\n"
      "--unbatched serves one request per frame as a naive baseline).\n"
      "--faults injects seeded hardware faults, e.g.\n"
      "\"stuck=0.1,chain=1e-4,drift=0.01,age=60,burst=0.05:20,seed=7\"\n"
      "(stuck PIN drivers, shift-chain bit flips, aging phase drift, sync\n"
      "bursts); --recover then diagnoses the surface over the air and\n"
      "re-solves the mapping on the healthy aperture.\n"
      "--threads sets the worker count for parallel fan-outs (overrides\n"
      "METAAI_THREADS; default: hardware concurrency; 1 = serial legacy\n"
      "path; results are identical for any value).\n"
      "--simd pins the kernel dispatch level: off|scalar|auto|avx2\n"
      "(overrides METAAI_SIMD; default auto-detects; off forces the\n"
      "portable scalar path, bitwise identical to the pre-SIMD code;\n"
      "invalid --simd or METAAI_SIMD values are hard errors).\n"
      "--depth stacks K programmable surfaces as a SIM cascade (deploy,\n"
      "ota); the K-1 upstream layers each contribute --coupling focus\n"
      "gain (default 1.3). --depth 1 is the single panel.\n"
      "--metrics-out writes the run's telemetry (metaai.obs.v1 JSON),\n"
      "--trace-out a Chrome-trace JSON of the spans (chrome://tracing /\n"
      "Perfetto), --probes-out a metaai.probes.v1 JSONL flight-recorder\n"
      "dump of the physical-layer probes.\n"
      "--alerts-out (serve, ota, fleet) writes the online health monitor's\n"
      "metaai.alerts.v1 JSONL alert stream (empty on healthy runs).\n"
      "`fleet` runs K serve runtimes behind one front door: tenants are\n"
      "bin-packed onto shards by switch-rate demand, requests route on the\n"
      "shared virtual clock, and --migrate TENANT:SHARD:CUTOVER_S flips a\n"
      "tenant to another shard mid-trace (warmed via the shared solver\n"
      "cache). --pareto ALPHA draws heavy-tailed inter-arrivals, --diurnal\n"
      "AMPLITUDE:PERIOD_S adds a sinusoidal rate wave and --flash\n"
      "START_S:DURATION_S:MULTIPLIER a transient crowd; misconfigured\n"
      "fleets and workloads exit with status 2.");
  return 2;
}

int Dispatch(const Args& args) {
  if (args.command == "train") return Train(args);
  if (args.command == "eval") return Eval(args);
  if (args.command == "deploy") return Deploy(args);
  if (args.command == "ota") return Ota(args);
  if (args.command == "serve") return Serve(args);
  if (args.command == "fleet") return FleetCmd(args);
  if (args.command == "quickstart") return Quickstart(args);
  if (args.command == "datasets") return Datasets();
  return Usage();
}

/// Every flag any command accepts. A flag outside this list is a hard
/// error — silently ignoring a typo ("--sample 10") would quietly run
/// with defaults.
constexpr std::array<std::string_view, 32> kKnownFlags = {
    "dataset",         "out",            "model",        "samples",
    "seed",            "robust",         "recover",      "faults",
    "threads",         "metrics-out",    "trace-out",    "probes-out",
    "train-per-class", "test-per-class", "clients",      "duration",
    "rate",            "queue-capacity", "frame-budget", "no-cache",
    "unbatched",       "alerts-out",     "simd",         "depth",
    "coupling",        "shards",         "tenants",      "pareto",
    "diurnal",         "flash",          "migrate",      "slo",
};

bool FlagKnown(const std::string& key) {
  for (const std::string_view known : kKnownFlags) {
    if (key == known) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Parse(argc, argv);
    for (const auto& [key, value] : args.options) {
      if (!FlagKnown(key)) {
        std::fprintf(stderr,
                     "error: unknown flag --%s\n"
                     "run metaai_cli with no arguments for usage\n",
                     key.c_str());
        return 2;
      }
    }
    if (args.Has("threads")) {
      const int threads = std::stoi(args.Get("threads"));
      Check(threads >= 1 && threads <= par::kMaxThreads,
            "--threads must be in [1, 256]");
      par::SetDefaultThreadCount(threads);
    }
    // Eager METAAI_SIMD validation: a typo'd value must fail here with a
    // clean diagnostic instead of Check-aborting at the first kernel
    // call deep inside a solve (--simd, when given, overrides it below).
    if (const Result<void> env = simd::ValidateEnvironment(); !env.ok()) {
      std::fprintf(stderr, "error: %s\n", env.error().ToString().c_str());
      return 2;
    }
    if (args.Has("simd")) {
      const Result<simd::Level> level = simd::ParseLevel(args.Get("simd"));
      if (!level.ok()) {
        std::fprintf(stderr, "error: --simd %s: %s\n",
                     args.Get("simd").c_str(),
                     level.error().ToString().c_str());
        return 2;
      }
      simd::ForceLevel(level.value());
    }
    const std::string metrics_out = args.Get("metrics-out");
    const std::string trace_out = args.Get("trace-out");
    const std::string probes_out = args.Get("probes-out");
    if (metrics_out.empty() && trace_out.empty() && probes_out.empty()) {
      return Dispatch(args);
    }

    obs::Registry registry;
    obs::Tracer tracer;
    obs::ProbeSink probes;
    const obs::ScopedRegistry scoped_registry(&registry);
    const obs::ScopedTracer scoped_tracer(&tracer);
    const obs::ScopedProbeSink scoped_probes(
        probes_out.empty() ? nullptr : &probes);
    const int status = Dispatch(args);
    if (!metrics_out.empty() &&
        !obs::WriteTextFile(metrics_out,
                            obs::ToJson(registry.Snapshot(), &tracer))) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
    if (!trace_out.empty() &&
        !obs::WriteTextFile(trace_out, obs::ToChromeTrace(tracer))) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_out.c_str());
      return 1;
    }
    if (!probes_out.empty() &&
        !obs::WriteTextFile(probes_out, obs::ToProbesJsonl(probes))) {
      std::fprintf(stderr, "error: cannot write probes to %s\n",
                   probes_out.c_str());
      return 1;
    }
    if (args.command == "quickstart" && status == 0) {
      if (!metrics_out.empty()) {
        std::printf("wrote metrics to %s\n", metrics_out.c_str());
      }
      if (!trace_out.empty()) {
        std::printf("wrote Chrome trace to %s\n", trace_out.c_str());
      }
      if (!probes_out.empty()) {
        std::printf("wrote %zu probes to %s\n", probes.size(),
                    probes_out.c_str());
      }
    }
    return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
