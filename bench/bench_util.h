// Shared setup for the per-figure/per-table benchmark harnesses.
//
// Every bench uses the paper's default experimental setup (§4) unless the
// experiment sweeps it: 5.25 GHz carrier, 256-QAM, 1 Msym/s, Tx-MTS 1 m at
// 30 deg, MTS-Rx 3 m at 40 deg, directional antennas, office multipath,
// 16x16 2-bit metasurface. Sync errors follow the coarse detector's Gamma
// distribution scaled to this repo's 256-symbol streams (see
// sim::PaperEquivalentLatencyScale and EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/table.h"
#include "core/metaai.h"
#include "data/datasets.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/parallel.h"
#include "rf/geometry.h"

namespace metaai::bench {

/// Per-binary telemetry + result reporting. Construct one at the top of
/// main(); it installs a metrics registry and tracer for the run, captures
/// every Table the bench prints, and on destruction writes
/// `$METAAI_BENCH_OUT/BENCH_<name>.json` (schema "metaai.bench.v1"):
///
///   { "schema": "metaai.bench.v1", "bench": <name>, "elapsed_s": n,
///     "headlines": { <key>: <number>, ... },
///     "tables": [ { "title": s, "headers": [..], "rows": [[..], ..] } ],
///     "metrics": <metaai.obs.v1 document, spans included> }
///
/// Nothing is written when METAAI_BENCH_OUT is unset, so interactive runs
/// stay side-effect free (mirroring METAAI_CSV_DIR in common/table).
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)),
        started_(std::chrono::steady_clock::now()),
        previous_registry_(obs::SetRegistry(&registry_)),
        previous_tracer_(obs::SetTracer(&tracer_)),
        previous_listener_(
            SetTableListener([this](const Table& table) { AddTable(table); })) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    SetTableListener(std::move(previous_listener_));
    obs::SetTracer(previous_tracer_);
    obs::SetRegistry(previous_registry_);
    if (const char* dir = std::getenv("METAAI_BENCH_OUT"); dir != nullptr) {
      const std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
      if (!obs::WriteTextFile(path, ToJson())) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      }
    }
  }

  /// Adds one named headline number (benches usually rely on the captured
  /// tables instead).
  void Headline(const std::string& key, double value) {
    headlines_.emplace_back(key, value);
  }

  void AddTable(const Table& table) {
    tables_.push_back({table.title(), table.headers(), table.rows()});
  }

  std::string ToJson() const {
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    std::ostringstream os;
    os << "{\n  \"schema\": \"metaai.bench.v1\",\n  \"bench\": "
       << obs::JsonString(name_) << ",\n  \"elapsed_s\": " << elapsed_s
       << ",\n  \"headlines\": {";
    for (std::size_t i = 0; i < headlines_.size(); ++i) {
      os << (i > 0 ? ", " : "") << obs::JsonString(headlines_[i].first)
         << ": " << headlines_[i].second;
    }
    os << "},\n  \"tables\": [";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      const CapturedTable& table = tables_[i];
      os << (i > 0 ? ",\n    " : "\n    ") << "{\"title\": "
         << obs::JsonString(table.title) << ", \"headers\": ";
      WriteStrings(os, table.headers);
      os << ", \"rows\": [";
      for (std::size_t r = 0; r < table.rows.size(); ++r) {
        if (r > 0) os << ", ";
        WriteStrings(os, table.rows[r]);
      }
      os << "]}";
    }
    os << (tables_.empty() ? "" : "\n  ") << "],\n  \"metrics\": "
       << obs::ToJson(registry_.Snapshot(), &tracer_) << "}\n";
    return os.str();
  }

 private:
  struct CapturedTable {
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  static void WriteStrings(std::ostream& os,
                           const std::vector<std::string>& values) {
    os << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i > 0 ? ", " : "") << obs::JsonString(values[i]);
    }
    os << ']';
  }

  std::string name_;
  std::chrono::steady_clock::time_point started_;
  obs::Registry registry_;
  obs::Tracer tracer_;
  obs::Registry* previous_registry_;
  obs::Tracer* previous_tracer_;
  TableListener previous_listener_;
  std::vector<std::pair<std::string, double>> headlines_;
  std::vector<CapturedTable> tables_;
};

inline constexpr std::size_t kStreamSymbols = 256;  // 16x16 pixels

inline mts::LinkGeometry DefaultGeometry() {
  return {.tx_distance_m = 1.0,
          .tx_angle_rad = rf::DegToRad(30.0),
          .rx_distance_m = 3.0,
          .rx_angle_rad = rf::DegToRad(40.0),
          .frequency_hz = 5.25e9};
}

inline sim::OtaLinkConfig DefaultLinkConfig(std::uint64_t channel_seed = 1) {
  sim::OtaLinkConfig config;
  config.geometry = DefaultGeometry();
  config.environment.profile = rf::OfficeProfile();
  config.mts_phase_noise_std = 0.05;
  config.channel_seed = channel_seed;
  return config;
}

/// Sync-error scale holding the paper's error-to-stream-length ratio.
inline double DeploymentLatencyScale() {
  return sim::PaperEquivalentLatencyScale(kStreamSymbols);
}

/// Training options for a prototype deployment: CDFA injector matched to
/// the scaled coarse-detection distribution plus mild noise-aware
/// training.
inline core::TrainingOptions RobustTrainingOptions(
    rf::Modulation modulation = rf::Modulation::kQam256) {
  core::TrainingOptions options;
  options.modulation = modulation;
  options.sync_error_injection = true;
  options.sync_gamma_scale_us = 1.85 * DeploymentLatencyScale();
  options.input_noise_variance = 0.02;
  return options;
}

/// The CDFA sync model at the deployment operating point.
inline sim::SyncModel DeploymentSyncModel() {
  sim::SyncModelConfig config;
  config.latency_scale = DeploymentLatencyScale();
  return sim::SyncModel(sim::SyncMode::kCdfa, config);
}

/// Deterministic fan-out over independent bench trials (locations, sync
/// draws, seed repeats): trial i gets its own generator pre-forked from
/// `base` on the calling thread and results come back in trial order, so
/// the returned vector is bitwise identical for any METAAI_THREADS.
/// `fn(trial_rng, trial_index)` returns the trial's scalar result;
/// telemetry emitted inside trials is buffered and merged in trial order
/// (obs::DeterministicParallelFor).
template <typename Fn>
std::vector<double> ParallelTrials(std::size_t trials, Rng& base, Fn&& fn) {
  std::vector<Rng> rngs = par::ForkRngs(base, trials);
  std::vector<double> results(trials, 0.0);
  obs::DeterministicParallelFor(trials, [&](std::size_t i) {
    results[i] = fn(rngs[i], i);
  });
  return results;
}

/// Prototype accuracy of a robust-trained model over a configured link.
inline double PrototypeAccuracy(const core::TrainedModel& model,
                                const mts::LayerGraph& graph,
                                const sim::OtaLinkConfig& link_config,
                                const nn::RealDataset& test, Rng& rng,
                                std::size_t max_samples = 200,
                                const core::DeploymentOptions& options = {}) {
  core::Deployment deployment(model, graph, link_config, options);
  const sim::SyncModel sync = DeploymentSyncModel();
  return deployment.EvaluateAccuracy(test, sync, rng, max_samples);
}

}  // namespace metaai::bench
