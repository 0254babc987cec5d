#include "mts/energy_detector.h"

#include <cmath>

#include "common/check.h"

namespace metaai::mts {
namespace {

// Gamma scale of the residual detection latency, microseconds (Fig 12).
constexpr double kLatencyGammaScaleUs = 1.85;

}  // namespace

EnergyDetector::EnergyDetector(EnergyDetectorConfig config)
    : config_(config) {
  Check(config_.relative_threshold > 0.0 && config_.relative_threshold < 1.0,
        "relative threshold must be in (0, 1)");
  Check(config_.rc_constant_samples > 0.0, "RC constant must be positive");
  Check(config_.latency_gamma_shape > 0.0,
        "latency distribution shape must be positive");
}

std::optional<std::size_t> EnergyDetector::DetectArrival(
    std::span<const rf::Complex> samples, double steady_power) const {
  Check(steady_power > 0.0, "steady power must be positive");
  const double threshold = config_.relative_threshold * steady_power;
  const double alpha = 1.0 - std::exp(-1.0 / config_.rc_constant_samples);
  double envelope = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    envelope += alpha * (std::norm(samples[i]) - envelope);
    if (envelope >= threshold) return i;
  }
  return std::nullopt;
}

double EnergyDetector::SampleDetectionLatencyUs(Rng& rng) const {
  return rng.Gamma(config_.latency_gamma_shape, kLatencyGammaScaleUs);
}

}  // namespace metaai::mts
