#include "core/training.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "data/encoding.h"
#include "obs/obs.h"

namespace metaai::core {

void CyclicShift(std::vector<nn::Complex>& symbols, std::size_t shift) {
  if (symbols.empty()) return;
  shift %= symbols.size();
  if (shift == 0) return;
  // Left rotation: element j takes the value of element j + shift. A
  // metasurface that lags the data by `shift` symbols applies weight
  // w_{i-shift} to data x_i, i.e. the network effectively sees the data
  // advanced by `shift` — which is exactly this rotation.
  std::rotate(symbols.begin(),
              symbols.begin() + static_cast<std::ptrdiff_t>(shift),
              symbols.end());
}

TrainedModel TrainModel(const nn::RealDataset& train,
                        const TrainingOptions& options, Rng& rng) {
  train.Validate();
  Check(options.symbol_rate_hz > 0.0, "symbol rate must be positive");
  const obs::ScopedSpan span = obs::Span("train.model");
  obs::Count("train.sessions");
  obs::Count("train.samples", train.size());
  const nn::ComplexDataset encoded =
      data::EncodeDataset(train, options.modulation);

  TrainedModel model{
      .network = nn::ComplexLinearModel(train.dim, train.num_classes),
      .modulation = options.modulation};
  model.network.Initialize(rng);

  nn::ComplexTrainOptions optimizer;
  optimizer.epochs = options.epochs;
  optimizer.batch_size = options.batch_size;
  optimizer.learning_rate = options.learning_rate;
  optimizer.momentum = options.momentum;
  optimizer.output_noise_variance = options.output_noise_variance;

  const bool shift_inject = options.sync_error_injection;
  const bool noise_inject = options.input_noise_variance > 0.0;
  if (shift_inject || noise_inject) {
    const double scale = options.sync_gamma_scale_us;
    const double symbols_per_us = options.symbol_rate_hz * 1e-6;
    const double input_noise = options.input_noise_variance;
    optimizer.input_augment = [=](std::vector<nn::Complex>& x, Rng& r) {
      if (shift_inject) {
        // Gamma-distributed residual sync error, converted to whole
        // symbols (the injector of Fig 13a), mixed with occasional small
        // errors so on-time detections stay in distribution.
        const double error_us = r.Bernoulli(kSyncSmallErrorMix)
                                    ? r.Uniform(0.0, scale)
                                    : r.Gamma(kSyncGammaShape, scale);
        const auto shift = static_cast<std::size_t>(
            std::llround(error_us * symbols_per_us));
        CyclicShift(x, shift);
      }
      if (noise_inject) {
        // "Introduce different noise levels in advance" (§3.5.2): each
        // sample sees a random noise level up to 2x the nominal variance,
        // so the model is robust across the whole SNR range it may meet.
        const double variance = r.Uniform(0.0, 2.0 * input_noise);
        for (nn::Complex& v : x) v += r.ComplexNormal(variance);
      }
    };
  }

  model.network.Train(encoded, optimizer, rng);
  return model;
}

double EvaluateDigital(const TrainedModel& model,
                       const nn::RealDataset& test) {
  const nn::ComplexDataset encoded =
      data::EncodeDataset(test, model.modulation);
  return model.network.Evaluate(encoded);
}

}  // namespace metaai::core
