// Metasurface control-plane model (§4 "Metasurface Prototype and Control").
//
// The prototype drives 256 atoms from an STM32: the atoms are divided into
// 16 groups, each group's 16 atoms loaded through a chain of four
// SN74LV595 shift registers (2 bits/atom = 32 bits per chain), with groups
// loaded in parallel. This bounds how fast full coding patterns can be
// streamed; the paper quotes a maximum of 2.56 MHz patterns/sec, which
// must be at least 2x the symbol rate for the mid-symbol flip of the
// multipath-cancellation scheme.
#pragma once

#include <cstddef>
#include <vector>

#include "mts/meta_atom.h"

namespace metaai::mts {

/// Overhead per pattern commit (latch + MCU dispatch), seconds.
inline constexpr double kLatchOverheadS = 2e-9;

struct ControllerConfig {
  std::size_t num_atoms = 256;
  std::size_t num_groups = 16;
  /// Serial clock of each shift-register chain.
  double shift_clock_hz = 85e6;
  /// Energy drawn per full-pattern reconfiguration, joules. Chosen so the
  /// per-inference MTS energy matches Table 2's 2.353 mJ at 2x1 Msym/s
  /// switching over a 256-symbol MNIST transmission (times 10 outputs).
  double energy_per_pattern_j = 4.6e-7;
  /// Static bias power of the PIN diode array, watts.
  double static_power_w = 0.0;
};

class Controller {
 public:
  explicit Controller(ControllerConfig config = {});

  const ControllerConfig& config() const { return config_; }

  /// Bits shifted per group per pattern (2 bits per atom).
  std::size_t BitsPerGroup() const;

  /// Seconds to load + latch one full pattern (groups load in parallel).
  double PatternLoadTime() const;

  /// Maximum sustainable full-pattern switching rate, patterns/second.
  double MaxSwitchRate() const;

  /// True if the controller can stream `patterns_per_symbol` patterns per
  /// symbol at `symbol_rate_hz` (e.g. 2 for the mid-symbol flip).
  bool CanSustain(double symbol_rate_hz, int patterns_per_symbol) const;

  /// Energy to play a schedule of `num_patterns` over `duration_s`.
  double ScheduleEnergy(std::size_t num_patterns, double duration_s) const;

 private:
  ControllerConfig config_;
};

}  // namespace metaai::mts
