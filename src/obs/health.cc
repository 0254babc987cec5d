#include "obs/health.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace metaai::obs::health {
namespace {

// Samples each signal's windowed p50/p99 are taken over.
constexpr std::size_t kQuantileWindow = 128;

/// Warmup-stddev normalization scale from Welford accumulators; an
/// (almost) constant warmup falls back to absolute units so the
/// detectors stay meaningful instead of dividing by ~0.
double WarmupScale(double m2, std::size_t warmup) {
  if (warmup < 2) return 1.0;
  const double variance = m2 / static_cast<double>(warmup - 1);
  const double stddev = std::sqrt(variance);
  return stddev > 1e-12 ? stddev : 1.0;
}

}  // namespace

EwmaEstimator::EwmaEstimator(EwmaConfig config) : config_(config) {
  Check(config_.alpha > 0.0 && config_.alpha <= 1.0,
        "EWMA alpha must be in (0, 1]");
}

void EwmaEstimator::Observe(double value) {
  Check(std::isfinite(value), "health estimators reject non-finite samples");
  if (count_ == 0) {
    mean_ = value;
    variance_ = 0.0;
  } else {
    const double diff = value - mean_;
    const double incr = config_.alpha * diff;
    mean_ += incr;
    variance_ = (1.0 - config_.alpha) * (variance_ + diff * incr);
  }
  ++count_;
}

CusumDetector::CusumDetector(CusumConfig config) : config_(config) {
  Check(config_.warmup > 0, "CUSUM warmup must be positive");
  Check(config_.slack >= 0.0, "CUSUM slack must be non-negative");
  Check(config_.threshold > 0.0, "CUSUM threshold must be positive");
}

bool CusumDetector::Observe(double value) {
  Check(std::isfinite(value), "health estimators reject non-finite samples");
  if (count_ < config_.warmup) {
    // Welford update for the reference mean/scale.
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    if (count_ == config_.warmup) {
      scale_ = WarmupScale(m2_, config_.warmup);
    }
    return false;
  }
  ++count_;
  const double deviation = (value - mean_) / scale_;
  positive_ = std::max(0.0, positive_ + deviation - config_.slack);
  negative_ = std::max(0.0, negative_ - deviation - config_.slack);
  if (positive_ > config_.threshold || negative_ > config_.threshold) {
    positive_ = 0.0;
    negative_ = 0.0;
    return true;
  }
  return false;
}

PageHinkleyDetector::PageHinkleyDetector(PageHinkleyConfig config)
    : config_(config) {
  Check(config_.warmup > 0, "Page-Hinkley warmup must be positive");
  Check(config_.delta >= 0.0, "Page-Hinkley delta must be non-negative");
  Check(config_.lambda > 0.0, "Page-Hinkley lambda must be positive");
}

bool PageHinkleyDetector::Observe(double value) {
  Check(std::isfinite(value), "health estimators reject non-finite samples");
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  if (count_ <= config_.warmup) {
    m2_ += delta * (value - mean_);
    if (count_ == config_.warmup) {
      scale_ = WarmupScale(m2_, config_.warmup);
    }
    return false;
  }
  const double deviation = (value - mean_) / scale_;
  up_ += deviation - config_.delta;
  min_up_ = std::min(min_up_, up_);
  down_ += deviation + config_.delta;
  max_down_ = std::max(max_down_, down_);
  if (up_ - min_up_ > config_.lambda ||
      max_down_ - down_ > config_.lambda) {
    up_ = 0.0;
    min_up_ = 0.0;
    down_ = 0.0;
    max_down_ = 0.0;
    return true;
  }
  return false;
}

WindowedQuantile::WindowedQuantile(std::size_t window) : window_(window) {
  Check(window_ > 0, "quantile window must be positive");
}

void WindowedQuantile::Observe(double value) {
  Check(std::isfinite(value), "health estimators reject non-finite samples");
  samples_.push_back(value);
  if (samples_.size() > window_) samples_.pop_front();
}

double WindowedQuantile::Quantile(double q) const {
  const std::vector<double> values(samples_.begin(), samples_.end());
  // An empty window answers 0.0 by contract (callers poll before the
  // first observation); TailDigest::count carries emptiness for
  // consumers that need to distinguish.
  return TryNearestRankPercentile(values, q).value_or(0.0);
}

TailDigest WindowedQuantile::Tails() const {
  const std::vector<double> values(samples_.begin(), samples_.end());
  return DigestTails(values);
}

HealthMonitor::HealthMonitor(HealthMonitorConfig config) : config_(config) {}

void HealthMonitor::Observe(std::string_view signal, double value) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == signal) {
      State& state = states_[i];
      state.ewma.Observe(value);
      state.window.Observe(value);
      state.last = value;
      ++state.count;
      return;
    }
  }
  names_.emplace_back(signal);
  states_.push_back({.ewma = EwmaEstimator(config_.ewma),
                     .window = WindowedQuantile(kQuantileWindow)});
  State& state = states_.back();
  state.ewma.Observe(value);
  state.window.Observe(value);
  state.last = value;
  state.count = 1;
}

const HealthMonitor::State* HealthMonitor::Find(
    std::string_view signal) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == signal) return &states_[i];
  }
  return nullptr;
}

bool HealthMonitor::Has(std::string_view signal) const {
  return Find(signal) != nullptr;
}

SignalStats HealthMonitor::Stats(std::string_view signal) const {
  const State* state = Find(signal);
  if (state == nullptr) return {};
  return {.count = state->count,
          .last = state->last,
          .ewma_mean = state->ewma.mean(),
          .ewma_variance = state->ewma.variance(),
          .p50 = state->window.Quantile(0.50),
          .p99 = state->window.Quantile(0.99)};
}

std::vector<std::pair<std::string, double>> HealthSignalsFromProbe(
    const ProbeRecord& record) {
  auto value_of = [&](std::string_view name) -> const double* {
    for (const auto& [key, value] : record.values) {
      if (key == name) return &value;
    }
    return nullptr;
  };
  std::vector<std::pair<std::string, double>> signals;
  switch (record.kind) {
    case ProbeKind::kEvm:
      if (const double* evm = value_of("evm_rms")) {
        signals.emplace_back(std::string(kSignalEvm), *evm);
      }
      // Label-free accuracy proxy from the link's soft-decision margins
      // (emitted when OtaLinkConfig::data_modulation is set).
      if (const double* margin = value_of("soft_margin")) {
        signals.emplace_back(std::string(kSignalAccuracyProxy), *margin);
      }
      break;
    case ProbeKind::kSubcarrierSnr: {
      // The series holds per-observation SNR; summarize with its mean
      // (falling back to the nominal link SNR for seriesless records).
      if (!record.series.empty()) {
        double sum = 0.0;
        for (const double snr : record.series) sum += snr;
        signals.emplace_back(std::string(kSignalSnrDb),
                             sum / static_cast<double>(record.series.size()));
      } else if (const double* nominal = value_of("nominal_snr_db")) {
        signals.emplace_back(std::string(kSignalSnrDb), *nominal);
      }
      break;
    }
    case ProbeKind::kSyncOffset:
      if (const double* offset = value_of("offset_us")) {
        signals.emplace_back(std::string(kSignalSyncOffsetUs), *offset);
      }
      break;
    case ProbeKind::kSolverSweep:
      if (const double* residual = value_of("residual")) {
        signals.emplace_back(std::string(kSignalSolverResidual), *residual);
      }
      break;
    case ProbeKind::kScalar:
      if (record.site == "wdd.density") {
        if (const double* density = value_of("density")) {
          signals.emplace_back(std::string(kSignalWddDensity), *density);
        }
      }
      break;
    case ProbeKind::kSloViolation: {
      // Violation magnitude as the latency/target ratio (1 = exactly at
      // the SLO); a missing target degenerates to the raw latency.
      const double* latency = value_of("latency_s");
      const double* slo = value_of("slo_s");
      if (latency != nullptr) {
        signals.emplace_back(
            std::string(kSignalSloViolation),
            slo != nullptr && *slo > 0.0 ? *latency / *slo : *latency);
      }
      break;
    }
    default:
      break;
  }
  return signals;
}

std::size_t ObserveProbe(HealthMonitor& monitor, const ProbeRecord& record) {
  const auto signals = HealthSignalsFromProbe(record);
  for (const auto& [signal, value] : signals) {
    monitor.Observe(signal, value);
  }
  return signals.size();
}

}  // namespace metaai::obs::health
