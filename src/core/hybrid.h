// Hybrid over-the-air / digital model — the paper's §7 future-work
// direction ("incorporating more complex operations to close this
// accuracy gap").
//
// The metasurface computes a *hidden* complex linear layer during
// propagation (H rounds instead of R); the edge server applies a tiny
// nonlinear head (one ReLU MLP layer) to the received magnitudes. The
// channel's unknown common gain is removed by mean-normalizing the hidden
// magnitudes before the head — normalization is part of the trained
// forward pass, so digital training and over-the-air inference see the
// same distribution.
//
// This keeps the IoT device as dumb as plain MetaAI (it just transmits)
// and keeps the server cost tiny (an H x R MLP instead of a full network)
// while recovering part of the linear model's accuracy gap to deep
// digital baselines.
#pragma once

#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/deployment.h"
#include "core/training.h"
#include "nn/types.h"

namespace metaai::core {

struct HybridTrainOptions {
  std::size_t hidden_units = 32;
  rf::Modulation modulation = rf::Modulation::kQam256;
  int epochs = 60;
  int batch_size = 64;
  double learning_rate = 8e-3;
  double momentum = 0.95;
  /// CDFA sync injection (same semantics as TrainingOptions).
  bool sync_error_injection = false;
  double sync_gamma_scale_us = 1.85;
  double symbol_rate_hz = 1e6;
};

/// The digital head: logits = V2 * relu(V1 * normalized_magnitudes + b1)
/// + b2.
struct HybridHead {
  RealMatrix v1;  // hidden2 x H
  std::vector<double> b1;
  RealMatrix v2;  // R x hidden2
  std::vector<double> b2;
};

class HybridModel {
 public:
  HybridModel(std::size_t input_dim, std::size_t hidden_units,
              std::size_t num_classes, rf::Modulation modulation);

  std::size_t input_dim() const { return ota_layer_.network.input_dim(); }
  std::size_t hidden_units() const {
    return ota_layer_.network.num_classes();
  }
  std::size_t num_classes() const { return head_.v2.rows(); }
  rf::Modulation modulation() const { return ota_layer_.modulation; }

  /// The over-the-air layer as a deployable TrainedModel (its "classes"
  /// are the hidden units the surface computes).
  const TrainedModel& ota_layer() const { return ota_layer_; }
  const HybridHead& head() const { return head_; }

  void Initialize(Rng& rng);

  /// Joint training of the complex layer and the head; returns
  /// final-epoch mean loss.
  double Train(const nn::RealDataset& train, const HybridTrainOptions& options,
               Rng& rng);

  /// Digital inference.
  int Predict(const std::vector<double>& pixels) const;
  double Evaluate(const nn::RealDataset& test) const;

  /// Head applied to hidden magnitudes measured over the air (any common
  /// positive scale cancels in the normalization).
  int PredictFromHiddenScores(const std::vector<double>& hidden_scores) const;

 private:
  std::vector<double> HeadLogits(const std::vector<double>& magnitudes) const;

  TrainedModel ota_layer_;  // complex layer, H "outputs"
  HybridHead head_;
};

/// Over-the-air accuracy of a hybrid model: the OTA layer is deployed on
/// `graph`/`link_config` (H transmission rounds per inference), the
/// head runs at the server.
double EvaluateHybridOverTheAir(const HybridModel& model,
                                const mts::LayerGraph& graph,
                                const sim::OtaLinkConfig& link_config,
                                const nn::RealDataset& test,
                                const sim::SyncModel& sync, Rng& rng,
                                std::size_t max_samples = 0,
                                const DeploymentOptions& options = {});

}  // namespace metaai::core
