// Digital training of the MetaAI network (§3.1) with the robustness
// schemes of §3.5: the CDFA sync-error injector (Gamma-distributed cyclic
// shifts of the symbol stream) and noise-aware training (hardware noise
// folded into the input per Eqn 14, environmental noise added at the
// output per Eqn 13).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mts/layer_graph.h"
#include "nn/complex_linear.h"
#include "nn/types.h"
#include "rf/modulation.h"

namespace metaai::core {

/// Gamma shape of the CDFA sync-error injector (TrainingOptions and
/// HybridTrainOptions); the scale is the sync_gamma_scale_us setting.
inline constexpr double kSyncGammaShape = 2.0;
/// Probability of drawing a small uniform error instead of the Gamma
/// tail: the Gamma density vanishes at zero, so a pure Gamma injector
/// leaves the model weak exactly when the detector happens to fire on
/// time. A modest mixture keeps the zero-offset case in distribution.
inline constexpr double kSyncSmallErrorMix = 0.25;

struct TrainingOptions {
  rf::Modulation modulation = rf::Modulation::kQam256;
  /// Optimizer settings; the defaults are the paper's (§4): lr 8e-3,
  /// momentum 0.95, batch 64, 60 epochs.
  int epochs = 60;
  int batch_size = 64;
  double learning_rate = 8e-3;
  double momentum = 0.95;

  /// CDFA fine-grained adjustment: inject Gamma-distributed cyclic shifts
  /// (in symbols) during training so the deployed network tolerates the
  /// residual coarse-detection error.
  /// The shift is Gamma(kSyncGammaShape, sync_gamma_scale_us) mixed with
  /// small uniform errors at rate kSyncSmallErrorMix.
  bool sync_error_injection = false;
  double sync_gamma_scale_us = 1.85;
  double symbol_rate_hz = 1e6;

  /// Noise-aware training (§3.5.2): complex input noise variance
  /// (hardware noise N_d folded into x) and output noise variance (N_e).
  double input_noise_variance = 0.0;
  double output_noise_variance = 0.0;
};

/// A digitally trained MetaAI model: the complex single-layer network plus
/// the modulation its inputs are encoded with.
struct TrainedModel {
  nn::ComplexLinearModel network;
  rf::Modulation modulation = rf::Modulation::kQam256;
  /// The physical cascade this model was trained to deploy on, when it
  /// targets a multi-surface layer graph (serialized alongside the
  /// weights so a controller host can rebuild the same mts::LayerGraph).
  /// Empty = single surface chosen at deployment time (the legacy
  /// contract; model files round-trip byte-identically).
  std::vector<mts::PhysicalLayerSpec> layers;

  std::size_t input_dim() const { return network.input_dim(); }
  std::size_t num_classes() const { return network.num_classes(); }
};

/// Encodes `train` with options.modulation and trains the complex LNN.
TrainedModel TrainModel(const nn::RealDataset& train,
                        const TrainingOptions& options, Rng& rng);

/// "Simulation" accuracy (Table 1): the digital model evaluated on
/// encoded test data, no channel in the loop.
double EvaluateDigital(const TrainedModel& model,
                       const nn::RealDataset& test);

/// Cyclic shift by `shift` positions (helper exposed for tests; the CDFA
/// injector applies it with Gamma-drawn shifts).
void CyclicShift(std::vector<nn::Complex>& symbols, std::size_t shift);

}  // namespace metaai::core
