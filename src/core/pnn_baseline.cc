#include "core/pnn_baseline.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "nn/complex_linear.h"
#include "rf/geometry.h"

namespace metaai::core {
namespace {

// Element positions: a square grid with lambda/2 pitch, centred on the
// optical axis, at plane height z.
std::vector<rf::Vec3> GridPositions(std::size_t count, double pitch,
                                    double z) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count))));
  std::vector<rf::Vec3> positions;
  positions.reserve(count);
  const double offset = (static_cast<double>(side) - 1.0) / 2.0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto row = static_cast<double>(i / side);
    const auto col = static_cast<double>(i % side);
    positions.push_back(
        {(col - offset) * pitch, (row - offset) * pitch, z});
  }
  return positions;
}

// Free-space coupling between two element planes: spherical-wave Green
// function e^{jkd}/d. `normalization` is chosen by the caller so field
// magnitudes stay O(1) through the stack (spacing / sqrt(fan-in)); a
// global field scale is physically irrelevant for magnitude detection.
ComplexMatrix Coupling(const std::vector<rf::Vec3>& to,
                       const std::vector<rf::Vec3>& from, double k0,
                       double normalization) {
  ComplexMatrix g(to.size(), from.size());
  for (std::size_t r = 0; r < to.size(); ++r) {
    for (std::size_t c = 0; c < from.size(); ++c) {
      const double d = rf::Distance(to[r], from[c]);
      const double phase = k0 * d;
      g(r, c) = normalization / d *
                nn::Complex{std::cos(phase), std::sin(phase)};
    }
  }
  return g;
}

// adjoint: x_bar = A^H y_bar.
std::vector<nn::Complex> AdjointApply(const ComplexMatrix& a,
                                      const std::vector<nn::Complex>& y_bar) {
  std::vector<nn::Complex> x_bar(a.cols(), nn::Complex{0.0, 0.0});
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const nn::Complex* row = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) {
      x_bar[c] += std::conj(row[c]) * y_bar[r];
    }
  }
  return x_bar;
}

}  // namespace

struct StackedPnn::Fields {
  // incoming[l]: field arriving at layer l (before its phase shifts);
  // outgoing[l]: field right after layer l's phase shifts.
  std::vector<std::vector<nn::Complex>> incoming;
  std::vector<std::vector<nn::Complex>> outgoing;
  std::vector<nn::Complex> detectors;
};

StackedPnn::StackedPnn(StackedPnnConfig config) : config_(config) {
  Check(config_.input_dim > 0 && config_.num_classes > 0, "empty dimensions");
  Check(config_.atoms_per_layer > 0, "need atoms");
  Check(config_.num_layers >= 1, "need at least one layer");
  const double lambda = rf::Wavelength(config_.frequency_hz);
  // Plane spacing: five wavelengths.
  const double spacing = 5.0 * lambda;
  const double k0 = rf::WaveNumber(config_.frequency_hz);
  const double pitch = lambda / 2.0;

  const auto input_plane = GridPositions(config_.input_dim, pitch, 0.0);
  const auto layer_plane =
      GridPositions(config_.atoms_per_layer, pitch, spacing);
  auto next_plane = layer_plane;
  for (auto& p : next_plane) p.z += spacing;
  // Detectors spaced more widely so class outputs decorrelate.
  const auto detector_plane =
      GridPositions(config_.num_classes, 4.0 * lambda, 2.0 * spacing);

  const double in_norm =
      spacing / std::sqrt(static_cast<double>(config_.input_dim));
  const double mid_norm =
      spacing / std::sqrt(static_cast<double>(config_.atoms_per_layer));
  input_coupling_ = Coupling(layer_plane, input_plane, k0, in_norm);
  layer_coupling_ = Coupling(next_plane, layer_plane, k0, mid_norm);
  // Output plane measured from the last layer's position; only relative
  // geometry matters, so reuse the layer->detector offsets.
  auto detectors_rel = detector_plane;
  output_coupling_ = Coupling(detectors_rel, layer_plane, k0, mid_norm);

  thetas_.assign(config_.num_layers,
                 std::vector<double>(config_.atoms_per_layer, 0.0));
}

void StackedPnn::Initialize(Rng& rng) {
  for (auto& layer : thetas_) {
    for (double& theta : layer) theta = rng.Uniform(0.0, 2.0 * M_PI);
  }
}

std::size_t StackedPnn::ParameterCount() const {
  return config_.num_layers * config_.atoms_per_layer;
}

void StackedPnn::Forward(const std::vector<nn::Complex>& x,
                         Fields& fields) const {
  Check(x.size() == config_.input_dim, "input dimension mismatch");
  const std::size_t layers = config_.num_layers;
  fields.incoming.resize(layers);
  fields.outgoing.resize(layers);

  fields.incoming[0] = input_coupling_.Multiply(x);
  for (std::size_t l = 0; l < layers; ++l) {
    const auto& in = fields.incoming[l];
    auto& out = fields.outgoing[l];
    out.resize(in.size());
    for (std::size_t m = 0; m < in.size(); ++m) {
      const double theta = thetas_[l][m];
      out[m] = in[m] * nn::Complex{std::cos(theta), std::sin(theta)};
    }
    if (l + 1 < layers) {
      fields.incoming[l + 1] = layer_coupling_.Multiply(out);
    }
  }
  fields.detectors = output_coupling_.Multiply(fields.outgoing.back());
}

std::vector<double> StackedPnn::ClassScores(
    const std::vector<nn::Complex>& x) const {
  Fields fields;
  Forward(x, fields);
  std::vector<double> scores(fields.detectors.size());
  for (std::size_t r = 0; r < scores.size(); ++r) {
    scores[r] = std::abs(fields.detectors[r]);
  }
  return scores;
}

int StackedPnn::Predict(const std::vector<nn::Complex>& x) const {
  const auto scores = ClassScores(x);
  return static_cast<int>(std::distance(
      scores.begin(), std::max_element(scores.begin(), scores.end())));
}

double StackedPnn::Train(const nn::ComplexDataset& train, Rng& rng) {
  train.Validate();
  Check(train.dim == config_.input_dim, "dataset dimension mismatch");
  Check(train.num_classes == config_.num_classes,
        "dataset class count mismatch");
  const std::size_t n = train.size();
  Check(n > 0, "empty training set");
  const std::size_t layers = config_.num_layers;
  const std::size_t atoms = config_.atoms_per_layer;

  std::vector<std::vector<double>> gradient(layers,
                                            std::vector<double>(atoms, 0.0));
  std::vector<std::vector<double>> velocity(layers,
                                            std::vector<double>(atoms, 0.0));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  Fields fields;
  double final_epoch_loss = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < n;
         start += static_cast<std::size_t>(config_.batch_size)) {
      const std::size_t end =
          std::min(n, start + static_cast<std::size_t>(config_.batch_size));
      for (auto& layer : gradient) {
        std::fill(layer.begin(), layer.end(), 0.0);
      }
      for (std::size_t b = start; b < end; ++b) {
        const std::size_t idx = order[b];
        Forward(train.features[idx], fields);
        // Softmax CE on detector magnitudes.
        std::vector<double> mags(config_.num_classes);
        for (std::size_t r = 0; r < mags.size(); ++r) {
          mags[r] = std::abs(fields.detectors[r]);
        }
        const auto probs = nn::SoftmaxScores(mags);
        const int label = train.labels[idx];
        epoch_loss += -std::log(std::max(probs[static_cast<std::size_t>(label)],
                                         1e-12));
        // Adjoint of the detectors.
        std::vector<nn::Complex> det_bar(config_.num_classes);
        for (std::size_t r = 0; r < det_bar.size(); ++r) {
          double g = probs[r];
          if (static_cast<int>(r) == label) g -= 1.0;
          det_bar[r] = mags[r] > 1e-12
                           ? g * fields.detectors[r] / mags[r]
                           : nn::Complex{0.0, 0.0};
        }
        // Backpropagate through the stack.
        std::vector<nn::Complex> out_bar =
            AdjointApply(output_coupling_, det_bar);
        for (std::size_t l = layers; l-- > 0;) {
          // out = e^{j theta} * in: theta gradient and input adjoint.
          for (std::size_t m = 0; m < atoms; ++m) {
            const nn::Complex j_out =
                nn::Complex{0.0, 1.0} * fields.outgoing[l][m];
            gradient[l][m] += std::real(std::conj(out_bar[m]) * j_out);
          }
          if (l > 0) {
            std::vector<nn::Complex> in_bar(atoms);
            for (std::size_t m = 0; m < atoms; ++m) {
              const double theta = thetas_[l][m];
              in_bar[m] = out_bar[m] *
                          nn::Complex{std::cos(theta), -std::sin(theta)};
            }
            out_bar = AdjointApply(layer_coupling_, in_bar);
          }
        }
      }
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      for (std::size_t l = 0; l < layers; ++l) {
        for (std::size_t m = 0; m < atoms; ++m) {
          velocity[l][m] = config_.momentum * velocity[l][m] -
                           config_.learning_rate * gradient[l][m] * inv_batch;
          thetas_[l][m] += velocity[l][m];
        }
      }
    }
    final_epoch_loss = epoch_loss / static_cast<double>(n);
  }
  return final_epoch_loss;
}

double StackedPnn::Evaluate(const nn::ComplexDataset& test) const {
  test.Validate();
  Check(test.dim == config_.input_dim, "dataset dimension mismatch");
  if (test.size() == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += (Predict(test.features[i]) == test.labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

}  // namespace metaai::core
