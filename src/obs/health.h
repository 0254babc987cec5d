// metaai::obs::health — online health monitoring over the telemetry
// streams.
//
// Where probes (obs/probe.h) are the *post-hoc* flight recorder, this
// layer consumes the same signals *in-stream* while a run is live:
// streaming estimators (EWMA mean/variance, CUSUM and Page–Hinkley
// change-point detectors, windowed nearest-rank quantiles) keyed by
// signal name, plus an adapter that maps probe records onto health
// signals (EVM, SNR, sync offset, solver residual, WDD density, SLO
// violations). The alert layer on top lives in obs/alerts.h.
//
// Everything here is deterministic plain data on a virtual clock: no
// wall time, no randomness, no background threads. Feeding identical
// observation sequences produces identical estimator states, so the
// serving runtime can evaluate health from its serial control loop and
// keep its exports byte-identical across thread counts.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/probe.h"
#include "obs/quantiles.h"

namespace metaai::obs::health {

/// Exponentially-weighted running mean and variance. The first sample
/// initializes the mean; variance uses the standard EWMA recursion
/// var' = (1 - alpha) * (var + alpha * (x - mean)^2).
struct EwmaConfig {
  /// Smoothing factor in (0, 1]; smaller = longer memory.
  double alpha = 0.05;
};

class EwmaEstimator {
 public:
  explicit EwmaEstimator(EwmaConfig config = {});

  void Observe(double value);

  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const { return variance_; }

 private:
  EwmaConfig config_;
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double variance_ = 0.0;
};

/// Two-sided CUSUM change-point detector. The first `warmup` samples
/// establish the reference mean and scale (standard deviation); after
/// warmup the cumulative sums
///   g+ = max(0, g+ + (x - mean)/scale - slack)
///   g- = max(0, g- + (mean - x)/scale - slack)
/// accumulate normalized deviations, and a change is declared when
/// either exceeds `threshold`. On detection the sums reset (the
/// reference is kept), so repeated detections need the deviation to
/// re-accumulate.
struct CusumConfig {
  std::size_t warmup = 16;
  /// Per-sample slack (k) in warmup-stddev units: deviations below this
  /// never accumulate.
  double slack = 0.5;
  /// Detection threshold (h) in warmup-stddev units.
  double threshold = 8.0;
};

class CusumDetector {
 public:
  explicit CusumDetector(CusumConfig config = {});

  /// Returns true when this sample completes a change-point.
  bool Observe(double value);

  bool warmed_up() const { return count_ >= config_.warmup; }
  double reference_mean() const { return mean_; }
  double positive() const { return positive_; }
  double negative() const { return negative_; }
  std::uint64_t count() const { return count_; }

 private:
  CusumConfig config_;
  std::uint64_t count_ = 0;
  // Welford accumulators during warmup.
  double mean_ = 0.0;
  double m2_ = 0.0;
  double scale_ = 1.0;
  double positive_ = 0.0;
  double negative_ = 0.0;
};

/// Two-sided Page–Hinkley drift detector. After the warmup (which fixes
/// the normalization scale like CusumDetector), the running mean of all
/// samples anchors two cumulative deviations with opposite delta bias
///   up_t   = up_{t-1}   + (x_t - mean_t)/scale - delta
///   down_t = down_{t-1} + (x_t - mean_t)/scale + delta
/// and drift is declared when up_t rises `lambda` above its running
/// minimum (upward drift) or down_t falls `lambda` below its running
/// maximum (downward drift). Resets the accumulators on detection.
struct PageHinkleyConfig {
  std::size_t warmup = 16;
  /// Tolerated per-sample drift, in warmup-stddev units.
  double delta = 0.05;
  /// Detection threshold, in warmup-stddev units.
  double lambda = 10.0;
};

class PageHinkleyDetector {
 public:
  explicit PageHinkleyDetector(PageHinkleyConfig config = {});

  /// Returns true when this sample completes a drift detection.
  bool Observe(double value);

  bool warmed_up() const { return count_ >= config_.warmup; }
  double running_mean() const { return mean_; }
  std::uint64_t count() const { return count_; }

 private:
  PageHinkleyConfig config_;
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double scale_ = 1.0;
  double up_ = 0.0;
  double min_up_ = 0.0;
  double down_ = 0.0;
  double max_down_ = 0.0;
};

/// Sliding-window nearest-rank quantiles (reuses obs/quantiles): keeps
/// the last `window` samples and answers percentile queries over them.
class WindowedQuantile {
 public:
  explicit WindowedQuantile(std::size_t window = 128);

  void Observe(double value);

  /// Nearest-rank percentile over the current window; 0 when empty.
  double Quantile(double q) const;
  TailDigest Tails() const;

  std::size_t size() const { return samples_.size(); }
  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  std::deque<double> samples_;
};

/// One signal's streaming summary, readable at any point in the run.
struct SignalStats {
  std::uint64_t count = 0;
  double last = 0.0;
  double ewma_mean = 0.0;
  double ewma_variance = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;

  bool operator==(const SignalStats&) const = default;
};

struct HealthMonitorConfig {
  EwmaConfig ewma;
};

/// Per-signal streaming state keyed by signal name. Signals are created
/// lazily on first Observe; iteration order is first-observation order,
/// which is deterministic because callers feed the monitor serially.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorConfig config = {});

  void Observe(std::string_view signal, double value);

  bool Has(std::string_view signal) const;
  /// Zero stats when the signal has never been observed.
  SignalStats Stats(std::string_view signal) const;
  /// Signal names in first-observation order.
  const std::vector<std::string>& Signals() const { return names_; }

 private:
  struct State {
    EwmaEstimator ewma;
    WindowedQuantile window;
    double last = 0.0;
    std::uint64_t count = 0;
  };

  const State* Find(std::string_view signal) const;

  HealthMonitorConfig config_;
  std::vector<std::string> names_;
  std::vector<State> states_;
};

// Canonical health-signal names fed by the probe adapter below and by
// the serving runtime's label-free accuracy proxy.
inline constexpr std::string_view kSignalEvm = "evm_rms";
inline constexpr std::string_view kSignalSnrDb = "snr_db";
inline constexpr std::string_view kSignalSyncOffsetUs = "sync_offset_us";
inline constexpr std::string_view kSignalSolverResidual = "solver_residual";
inline constexpr std::string_view kSignalWddDensity = "wdd_density";
inline constexpr std::string_view kSignalSloViolation = "slo_violation";
inline constexpr std::string_view kSignalAccuracyProxy = "accuracy_proxy";

/// Maps one probe record onto (signal, value) pairs: EVM (`evm_rms`,
/// plus `accuracy_proxy` when the record carries a link soft-decision
/// margin), per-observation SNR (`snr_db`, series mean), sync offset
/// (`sync_offset_us`), solver residual (`solver_residual`), WDD density
/// (`wdd_density`) and SLO violations (`slo_violation`, the
/// latency/target ratio). Kinds outside the health vocabulary map to
/// nothing.
std::vector<std::pair<std::string, double>> HealthSignalsFromProbe(
    const ProbeRecord& record);

/// Feeds every health signal of `record` into `monitor`; returns the
/// number of signals observed.
std::size_t ObserveProbe(HealthMonitor& monitor, const ProbeRecord& record);

}  // namespace metaai::obs::health
