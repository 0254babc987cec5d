// Low-power envelope/energy detector used for coarse-grained clock
// synchronization (§3.5.1). The detector smooths the incident power with a
// single-pole RC filter and asserts its output when the smoothed power
// crosses a threshold; the MCU then starts loading the weight schedule.
//
// Physical detection latency (envelope rise time + comparator/MCU wake
// jitter) is what produces the Gamma-distributed residual sync error the
// paper reports in Fig 12.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "common/rng.h"
#include "rf/signal.h"

namespace metaai::mts {

struct EnergyDetectorConfig {
  /// Detection threshold relative to the steady incident power (0..1).
  double relative_threshold = 0.5;
  /// RC smoothing constant in samples.
  double rc_constant_samples = 8.0;
  /// Gamma distribution of the total residual detection latency, in
  /// microseconds: shape here, scale kLatencyGammaScaleUs. The defaults
  /// reproduce Fig 12 (51.7% of errors > 3 us): Gamma(2, 1.85) gives
  /// P(latency > 3 us) ~= 51.7%.
  double latency_gamma_shape = 2.0;
};

class EnergyDetector {
 public:
  explicit EnergyDetector(EnergyDetectorConfig config = {});

  const EnergyDetectorConfig& config() const { return config_; }

  /// Runs the envelope detector over incident samples with the given
  /// steady-state power; returns the first sample index where the smoothed
  /// power crosses the threshold, or nullopt if it never does.
  std::optional<std::size_t> DetectArrival(
      std::span<const rf::Complex> samples, double steady_power) const;

  /// Draws one end-to-end coarse-detection latency (microseconds), i.e.
  /// the sync error left after coarse-grained detection.
  double SampleDetectionLatencyUs(Rng& rng) const;

 private:
  EnergyDetectorConfig config_;
};

}  // namespace metaai::mts
