// Traditional stacked-metasurface PNN baseline (Appendix A.1, Fig 29).
//
// Existing PNNs process all inputs in parallel through L stacked
// transmissive metasurface layers: the field from the input plane
// propagates through fixed free-space coupling matrices (Green functions
// of the plane spacing) and each layer's meta-atoms apply trainable phase
// shifts. Because multiplication and addition happen simultaneously at
// each atom, a single layer cannot realize an arbitrary U x R linear map
// (Eqn 15-18) — accuracy climbs toward the digital LNN as layers stack,
// which is exactly what Fig 29 shows and what MetaAI's sequential
// decomposition makes unnecessary.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "nn/types.h"

namespace metaai::core {

struct StackedPnnConfig {
  std::size_t input_dim = 256;
  std::size_t num_classes = 10;
  std::size_t atoms_per_layer = 64;
  std::size_t num_layers = 3;
  double frequency_hz = 5.25e9;
  int epochs = 20;
  int batch_size = 32;
  double learning_rate = 0.05;
  double momentum = 0.9;
};

class StackedPnn {
 public:
  explicit StackedPnn(StackedPnnConfig config);

  const StackedPnnConfig& config() const { return config_; }

  /// Random uniform phase initialization.
  void Initialize(Rng& rng);

  /// Detector magnitudes |o_r| for one input field.
  std::vector<double> ClassScores(const std::vector<nn::Complex>& x) const;

  int Predict(const std::vector<nn::Complex>& x) const;

  /// Gradient training of the layer phases; returns final-epoch loss.
  double Train(const nn::ComplexDataset& train, Rng& rng);

  double Evaluate(const nn::ComplexDataset& test) const;

  /// Trainable parameter count (phases only; the couplings are physics).
  std::size_t ParameterCount() const;

 private:
  struct Fields;  // per-layer intermediate fields (defined in .cc)

  void Forward(const std::vector<nn::Complex>& x, Fields& fields) const;

  StackedPnnConfig config_;
  ComplexMatrix input_coupling_;   // M x U
  ComplexMatrix layer_coupling_;   // M x M (between adjacent layers)
  ComplexMatrix output_coupling_;  // R x M
  std::vector<std::vector<double>> thetas_;  // L x M phases
};

}  // namespace metaai::core
