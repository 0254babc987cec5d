#include "mts/controller.h"

#include "common/check.h"
#include "obs/obs.h"

namespace metaai::mts {

Controller::Controller(ControllerConfig config) : config_(config) {
  Check(config_.num_atoms > 0, "controller needs atoms");
  Check(config_.num_groups > 0, "controller needs groups");
  Check(config_.num_atoms % config_.num_groups == 0,
        "atoms must divide evenly into groups");
  Check(config_.shift_clock_hz > 0.0, "shift clock must be positive");
}

std::size_t Controller::BitsPerGroup() const {
  return (config_.num_atoms / config_.num_groups) *
         static_cast<std::size_t>(kPhaseBits);
}

double Controller::PatternLoadTime() const {
  return static_cast<double>(BitsPerGroup()) / config_.shift_clock_hz +
         kLatchOverheadS;
}

double Controller::MaxSwitchRate() const { return 1.0 / PatternLoadTime(); }

bool Controller::CanSustain(double symbol_rate_hz,
                            int patterns_per_symbol) const {
  Check(symbol_rate_hz > 0.0, "symbol rate must be positive");
  Check(patterns_per_symbol > 0, "patterns per symbol must be positive");
  const bool ok = symbol_rate_hz * patterns_per_symbol <= MaxSwitchRate();
  obs::Count("controller.budget_checks");
  if (!ok) obs::Count("controller.budget_violations");
  obs::SetGauge("controller.max_switch_rate_hz", MaxSwitchRate());
  return ok;
}

double Controller::ScheduleEnergy(std::size_t num_patterns,
                                  double duration_s) const {
  Check(duration_s >= 0.0, "duration must be non-negative");
  // Each full pattern clocks BitsPerGroup() cycles into every parallel
  // shift-register chain before the latch.
  obs::Count("controller.patterns", num_patterns);
  obs::Count("controller.shift_cycles", num_patterns * BitsPerGroup());
  return static_cast<double>(num_patterns) * config_.energy_per_pattern_j +
         config_.static_power_w * duration_s;
}

}  // namespace metaai::mts
