#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/parallel.h"
#include "data/datasets.h"
#include "mts/controller.h"
#include "mts/layer_graph.h"
#include "rf/geometry.h"
#include "serve/generator.h"
#include "trace.h"

namespace perfbench {

using namespace metaai;

namespace {

// Paper setup (section 4) shared by every workload: 5.25 GHz carrier,
// 256-QAM, Tx 1 m at 30 deg, Rx 3 m at 40 deg, office multipath.
constexpr std::size_t kStreamSymbols = 256;

// Datasets, training and derived models use fixed seeds: every workload
// seed deploys the same system, and the seed varies only the request
// trace and the per-request streams. Accuracy and mapping work then
// differ between seeds by trace sampling alone.
constexpr std::uint64_t kDataSeed = 1001;
constexpr std::uint64_t kTrainSeed = 1002;
constexpr std::uint64_t kPerturbSeed = 1004;

sim::OtaLinkConfig LinkConfig(std::uint64_t channel_seed) {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  config.mts_phase_noise_std = 0.05;
  config.channel_seed = channel_seed;
  return config;
}

double LatencyScale() {
  return sim::PaperEquivalentLatencyScale(kStreamSymbols);
}

core::TrainingOptions RobustTraining() {
  core::TrainingOptions options;
  options.modulation = rf::Modulation::kQam256;
  options.sync_error_injection = true;
  options.sync_gamma_scale_us = 1.85 * LatencyScale();
  options.input_noise_variance = 0.02;
  return options;
}

sim::SyncModel CdfaSync() {
  sim::SyncModelConfig config;
  config.latency_scale = LatencyScale();
  return sim::SyncModel(sim::SyncMode::kCdfa, config);
}

// Class-centre blobs in [0, 1]^(side*side): the data:: factories are
// 16x16, so the 8x8 fleet panels get their own synthetic split.
struct Blobs {
  nn::RealDataset train;
  nn::RealDataset test;
};

Blobs MakeBlobs(std::size_t dim, std::size_t classes, Rng& rng) {
  std::vector<std::vector<double>> centers(classes, std::vector<double>(dim));
  for (auto& center : centers) {
    for (double& v : center) v = rng.Uniform(0.15, 0.85);
  }
  const auto fill = [&](nn::RealDataset& ds, std::size_t per_class) {
    ds.num_classes = classes;
    ds.dim = dim;
    for (std::size_t c = 0; c < classes; ++c) {
      for (std::size_t i = 0; i < per_class; ++i) {
        std::vector<double> f(dim);
        for (std::size_t d = 0; d < dim; ++d) {
          f[d] = std::clamp(centers[c][d] + 0.18 * rng.Normal(), 0.0, 1.0);
        }
        ds.features.push_back(std::move(f));
        ds.labels.push_back(static_cast<int>(c));
      }
    }
    ds.Validate();
  };
  Blobs blobs;
  fill(blobs.train, 60);
  fill(blobs.test, 40);
  return blobs;
}

core::TrainedModel Train(Workload& w, const nn::RealDataset& train, Rng& rng) {
  const auto start = std::chrono::steady_clock::now();
  core::TrainedModel model = core::TrainModel(train, RobustTraining(), rng);
  w.train_s += SecondsSince(start);
  return model;
}

/// Declared demand of one tenant in controller patterns/s (two patterns
/// per symbol with multipath cancellation, one round per class).
double DemandPatternsHz(double rate_hz, std::size_t atoms,
                        std::size_t classes) {
  return rate_hz * 2.0 * static_cast<double>(atoms) *
         static_cast<double>(classes);
}

double MaxSwitchRate(std::size_t atoms) {
  mts::ControllerConfig config;
  config.num_atoms = atoms;
  return mts::Controller(config).MaxSwitchRate();
}

// bench_fleet's two-shard arm: 8 tenants on 8x8 panels, 4 classes, a
// stressed 24 s trace at ~0.62 load per shard.
void SetupFleetStress(Workload& w) {
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kClasses = 4;
  constexpr double kRateHz = 565.0;
  constexpr double kDurationS = 24.0;
  w.uses_fleet = true;
  w.shards = 2;
  w.panel_side = 8;
  w.depth = 1;
  const std::size_t atoms = w.panel_side * w.panel_side;
  w.budget_cap = 4.5 * DemandPatternsHz(kRateHz, atoms, kClasses) /
                 MaxSwitchRate(atoms);
  w.accuracy_floor = 0.6;
  w.prefix = 4000;

  Rng data_rng(kDataSeed);
  const Blobs blobs = MakeBlobs(atoms, kClasses, data_rng);
  Rng train_rng(kTrainSeed);
  const core::TrainedModel model = Train(w, blobs.train, train_rng);
  serve::WorkloadSpec spec;
  spec.duration_s = kDurationS;
  for (std::size_t t = 0; t < kTenants; ++t) {
    w.models.push_back(model);
    w.channel_seeds.push_back(t + 1);
    w.slo_s.push_back(0.008 + 0.001 * static_cast<double>(t));
    w.rate_hz.push_back(kRateHz);
    w.kinds.push_back(t == 0 ? TenantKind::kBase : TenantKind::kDuplicate);
    serve::TenantWorkload tenant{.arrival_rate_hz = kRateHz,
                                 .samples = &blobs.test};
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
  Rng trace_rng(w.seed * 1000 + 3);
  w.requests = serve::GenerateWorkload(spec, trace_rng).value();
}

// One runtime over a 16x16 front panel plus two 16x16 upper layers,
// serving the 10-class MNIST-like set with Poisson traffic below
// saturation.
void SetupServeCascade(Workload& w) {
  constexpr std::size_t kClients = 4;
  constexpr double kRateHz = 60.0;
  constexpr double kDurationS = 24.0;
  w.uses_fleet = false;
  w.shards = 1;
  w.panel_side = 16;
  w.depth = 3;
  w.accuracy_floor = 0.5;
  w.prefix = 1000;

  const data::Dataset ds = data::MakeMnistLike(
      {.train_per_class = 100, .seed = kDataSeed});
  Rng train_rng(kTrainSeed);
  const core::TrainedModel model = Train(w, ds.train, train_rng);
  std::vector<serve::ClientWorkload> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    w.models.push_back(model);
    w.channel_seeds.push_back(c + 1);
    w.slo_s.push_back(0.03 + 0.01 * static_cast<double>(c));
    w.rate_hz.push_back(kRateHz);
    w.kinds.push_back(c == 0 ? TenantKind::kBase : TenantKind::kDuplicate);
    clients.push_back({.arrival_rate_hz = kRateHz, .samples = &ds.test});
  }
  Rng trace_rng(w.seed * 1000 + 3);
  w.requests = serve::GenerateWorkload(clients, kDurationS, trace_rng).value();
}

// Many tenants onboarded onto a four-shard fleet of 16x16 panels. Per
// trained base: one cold solve, exact duplicates (cache hits),
// near-duplicates (warm starts) and a distinct derivative whose weights
// sit far outside the warm-start distance (another cold solve); then a
// short Poisson trace.
void SetupMapChurn(Workload& w) {
  constexpr std::size_t kBases = 2;
  constexpr double kRateHz = 40.0;
  constexpr double kDurationS = 5.0;
  // A distinct derivative's relative weight noise: far outside the
  // warm-start distance, where a near-duplicate's stays inside it.
  constexpr double kDistinctNoise = 0.2;
  const std::vector<TenantKind> per_base = {
      TenantKind::kBase,          TenantKind::kDuplicate,
      TenantKind::kDuplicate,     TenantKind::kNearDuplicate,
      TenantKind::kNearDuplicate, TenantKind::kNearDuplicate,
      TenantKind::kDistinct,      TenantKind::kDistinct,
      TenantKind::kDistinct,      TenantKind::kDistinct,
      TenantKind::kDistinct,      TenantKind::kDistinct};
  w.uses_fleet = true;
  w.shards = 4;
  w.panel_side = 16;
  w.depth = 1;
  w.warm_start_distance = kWarmStartDistance;
  w.accuracy_floor = 0.5;
  const std::size_t atoms = w.panel_side * w.panel_side;
  const std::size_t tenants = kBases * per_base.size();
  const std::size_t per_shard = (tenants + w.shards - 1) / w.shards;

  const data::Dataset ds = data::MakeMnistLike(
      {.train_per_class = 100, .seed = kDataSeed});
  w.budget_cap = std::min(
      1.0, (static_cast<double>(per_shard) + 0.5) *
               DemandPatternsHz(kRateHz, atoms, ds.num_classes) /
               MaxSwitchRate(atoms));
  Rng train_rng(kTrainSeed);
  Rng perturb_rng(kPerturbSeed);
  std::vector<serve::ClientWorkload> clients;
  for (std::size_t b = 0; b < kBases; ++b) {
    const core::TrainedModel base = Train(w, ds.train, train_rng);
    for (const TenantKind kind : per_base) {
      core::TrainedModel model = base;
      if (kind == TenantKind::kNearDuplicate) {
        PerturbWeights(model.network.mutable_weights(), kNearDuplicateNoise,
                       perturb_rng);
      } else if (kind == TenantKind::kDistinct) {
        PerturbWeights(model.network.mutable_weights(), kDistinctNoise,
                       perturb_rng);
      }
      w.models.push_back(std::move(model));
      w.channel_seeds.push_back(w.models.size());
      w.slo_s.push_back(0.05);
      w.rate_hz.push_back(kRateHz);
      w.kinds.push_back(kind);
      clients.push_back({.arrival_rate_hz = kRateHz, .samples = &ds.test});
    }
  }
  Rng trace_rng(w.seed * 1000 + 3);
  w.requests = serve::GenerateWorkload(clients, kDurationS, trace_rng).value();
  w.prefix = 1000;
}

mts::LayerGraph MakeGraph(const Workload& w) {
  std::vector<mts::PhysicalLayerSpec> specs(w.depth);
  for (mts::PhysicalLayerSpec& spec : specs) {
    spec.surface.rows = w.panel_side;
    spec.surface.cols = w.panel_side;
  }
  for (std::size_t l = 1; l < w.depth; ++l) specs[l].coupling_gain = 1.3;
  return mts::LayerGraph(std::move(specs));
}

std::vector<serve::ClientSpec> MakeClients(const Workload& w) {
  std::vector<serve::ClientSpec> clients;
  for (std::size_t t = 0; t < w.models.size(); ++t) {
    clients.push_back({.name = "tenant" + std::to_string(t),
                       .model = w.models[t],
                       .link = LinkConfig(w.channel_seeds[t]),
                       .deployment = {},
                       .slo_latency_s = w.slo_s[t]});
  }
  return clients;
}

}  // namespace

void PerturbWeights(ComplexMatrix& weights, double relative, Rng& rng) {
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    for (std::size_t c = 0; c < weights.cols(); ++c) {
      weights(r, c) *= 1.0 + relative * rng.Normal();
    }
  }
}

int WorkloadThreads(const std::string& name) {
  return name == "serve_cascade" ? 1 : 4;
}

Workload Setup(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.sync = CdfaSync();
  if (name == "fleet_stress") {
    SetupFleetStress(w);
  } else if (name == "serve_cascade") {
    SetupServeCascade(w);
  } else if (name == "map_churn") {
    SetupMapChurn(w);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.threads = WorkloadThreads(name);
  w.prefix = std::min(w.prefix, w.requests.size());
  return w;
}

Deployed Deploy(const Workload& w) {
  const par::ScopedThreadCount threads(kDeployThreads);
  Deployed deployed;
  deployed.cache = std::make_shared<mts::ConfigCache>();
  if (!w.uses_fleet) {
    serve::RuntimeOptions options;
    options.cache = deployed.cache;
    options.warm_start_distance = w.warm_start_distance;
    deployed.runtime.emplace(
        serve::Runtime::TryCreate(MakeGraph(w), MakeClients(w),
                                  std::move(options))
            .value());
    return deployed;
  }
  std::vector<fleet::ShardSpec> shards;
  for (std::size_t s = 0; s < w.shards; ++s) {
    shards.push_back({.name = "shard" + std::to_string(s),
                      .graph = MakeGraph(w),
                      .band_hz = 5.25e9,
                      .scheduler = {},
                      .budget_cap = w.budget_cap});
  }
  std::vector<fleet::TenantSpec> tenants;
  std::vector<serve::ClientSpec> clients = MakeClients(w);
  for (std::size_t t = 0; t < clients.size(); ++t) {
    tenants.push_back(
        {.client = std::move(clients[t]), .arrival_rate_hz = w.rate_hz[t]});
  }
  fleet::FleetOptions options;
  options.cache = deployed.cache;
  options.runtime.warm_start_distance = w.warm_start_distance;
  deployed.fleet.emplace(fleet::Fleet::TryCreate(std::move(shards),
                                                 std::move(tenants),
                                                 std::move(options))
                             .value());
  return deployed;
}

Served Serve(const Workload& w, const Deployed& deployed,
             std::span<const serve::ServeRequest> requests, Rng& rng) {
  Served out;
  if (deployed.fleet) {
    fleet::FleetResult r = deployed.fleet->Run(requests, w.sync, rng);
    out.responses = std::move(r.responses);
    out.request_log = std::move(r.request_log);
    out.timeseries = std::move(r.timeseries);
    out.alerts = std::move(r.alerts);
    out.submitted = r.stats.submitted;
    out.served = r.stats.served;
    out.rejected = r.stats.rejected();
    out.frames = r.stats.frames;
    out.goodput_slo_rps = r.stats.goodput_slo_rps;
  } else {
    serve::ServeResult r = deployed.runtime->Run(requests, w.sync, rng);
    out.responses = std::move(r.responses);
    out.request_log = std::move(r.request_log);
    out.timeseries = std::move(r.timeseries);
    out.alerts = std::move(r.alerts);
    out.submitted = r.stats.submitted;
    out.served = r.stats.served;
    out.rejected = r.stats.rejected();
    out.frames = r.stats.frames;
    out.goodput_slo_rps = r.stats.goodput_slo_rps;
  }
  return out;
}

Route RouteRequest(const Deployed& deployed,
                   const serve::ServeRequest& request) {
  if (!deployed.fleet) {
    return {0, &deployed.runtime->scheduler().deployment(request.client)};
  }
  const auto [shard, local] =
      deployed.fleet->Route(request.client, request.arrival_s);
  return {shard,
          &ShardRuntime(deployed, shard).scheduler().deployment(local)};
}

const serve::Runtime& ShardRuntime(const Deployed& deployed, std::size_t s) {
  return deployed.fleet ? deployed.fleet->shard(s) : *deployed.runtime;
}

core::PlacementProblem PlacementProblemOf(const Workload& w) {
  const std::size_t atoms = w.panel_side * w.panel_side;
  core::PlacementProblem problem;
  for (std::size_t t = 0; t < w.models.size(); ++t) {
    problem.demand.push_back(
        DemandPatternsHz(w.rate_hz[t], atoms, w.models[t].num_classes()));
  }
  problem.capacity.assign(w.shards, w.budget_cap * MaxSwitchRate(atoms));
  problem.compatible.assign(w.models.size(),
                            std::vector<bool>(w.shards, true));
  return problem;
}

std::uint64_t ServeSeed(const Workload& w) { return w.seed * 1000 + 5; }

}  // namespace perfbench
