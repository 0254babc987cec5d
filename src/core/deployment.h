// Over-the-air deployment of a trained MetaAI model (§2.2.1, §3.3).
//
// A Deployment owns the configured link (one observation for sequential
// operation; K subcarriers or K receive antennas for the parallel modes
// of Fig 9) and the mapped MTS schedules, and classifies samples by
// transmitting them through the simulated channel: for each transmission
// round the per-symbol measurements are accumulated (Eqn 3) into class
// scores y_r = |sum_i z_{r,i}|.
//
// Construction prepares the link's response plan for every round
// (sim::OtaLink::Prepare). A moved deployment keeps its plans, since the
// schedules it moves stay at the same addresses; a copy's link starts
// without plans and transmits through the unprepared path, bit for bit
// the same.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/training.h"
#include "core/weight_mapper.h"
#include "mts/layer_graph.h"
#include "nn/types.h"
#include "sim/link.h"
#include "sim/sync.h"

namespace metaai::core {

enum class ParallelismMode { kSequential, kSubcarrier, kAntenna };

std::string ParallelismModeName(ParallelismMode mode);

struct DeploymentOptions {
  ParallelismMode mode = ParallelismMode::kSequential;
  /// Number of simultaneous outputs (subcarriers / antennas). 0 = one
  /// per class. Ignored in sequential mode.
  std::size_t parallel_width = 0;
  /// Subcarrier spacing for subcarrier parallelism (paper: 40 kHz).
  double subcarrier_spacing_hz = 40e3;
  MappingOptions mapping;
};

/// A soft classification: the argmax class plus a label-free confidence
/// margin (top1 - top2) / top1 over the class scores, in [0, 1] (0 when
/// the top score is not positive; 1 for single-class models). The
/// margin is the serving runtime's per-request accuracy proxy: it needs
/// no ground-truth label, and it collapses toward 0 as the link
/// degrades, tracking accuracy closely enough to drive online drift
/// detection (obs/health.h).
struct SoftDecision {
  int predicted = -1;
  double margin = 0.0;
};

class Deployment {
 public:
  /// Maps `model`'s weights onto the surface cascade `graph` for the link
  /// described by `link_config` (its observation list is built internally
  /// from the parallelism mode). On a deep graph the alternating cascade
  /// solver maps weights jointly across the layers and every inference
  /// round drives the upper-layer schedules alongside the front panel; a
  /// single panel is the depth-1 graph. `graph` must outlive the
  /// deployment (a temporary graph is rejected at compile time).
  Deployment(const TrainedModel& model, const mts::LayerGraph& graph,
             sim::OtaLinkConfig link_config, DeploymentOptions options = {});
  Deployment(const TrainedModel& model, const mts::LayerGraph&& graph,
             sim::OtaLinkConfig link_config,
             DeploymentOptions options = {}) = delete;

  const sim::OtaLink& link() const { return link_; }
  const MappedSchedules& schedules() const { return schedules_; }
  const DeploymentOptions& options() const { return options_; }
  std::size_t num_classes() const { return num_classes_; }

  /// Number of transmission rounds per inference (latency proxy).
  std::size_t RoundsPerInference() const { return schedules_.rounds.size(); }

  /// Class scores from one over-the-air inference of a pixel vector.
  std::vector<double> ClassScores(const std::vector<double>& pixels,
                                  double mts_clock_offset_us, Rng& rng) const;

  /// Argmax classification.
  int Classify(const std::vector<double>& pixels, double mts_clock_offset_us,
               Rng& rng) const;

  /// Argmax classification plus the soft-decision margin. Consumes
  /// exactly the same RNG draws as Classify, so swapping between the
  /// two never perturbs a seeded run.
  SoftDecision ClassifyWithMargin(const std::vector<double>& pixels,
                                  double mts_clock_offset_us, Rng& rng) const;

  /// Accuracy over a test set; a fresh clock offset is drawn from `sync`
  /// for every inference. `max_samples` of 0 uses the whole set.
  double EvaluateAccuracy(const nn::RealDataset& test,
                          const sim::SyncModel& sync, Rng& rng,
                          std::size_t max_samples = 0) const;

  /// Accuracy with a fixed clock offset (used by the Fig 13 sweep).
  double EvaluateAccuracyAtOffset(const nn::RealDataset& test,
                                  double mts_clock_offset_us, Rng& rng,
                                  std::size_t max_samples = 0) const;

 private:
  /// Upper-layer schedules of `round`; empty on depth-1 links.
  const sim::LayerSchedules& UpperRound(std::size_t round) const;
  /// Prepares one link response plan per round, fanned out over rounds.
  void PrepareRounds();
  void EmitScheduleProbes() const;

  rf::Modulation modulation_;
  std::size_t num_classes_;
  DeploymentOptions options_;
  sim::OtaLink link_;
  MappedSchedules schedules_;
};

/// Builds the observation list for a parallelism mode (exposed for
/// tests/benches that construct links directly).
std::vector<sim::Observation> BuildObservations(
    const sim::OtaLinkConfig& base, std::size_t num_classes,
    const DeploymentOptions& options);

}  // namespace metaai::core
