// Plain reference receiver for sim::OtaLink: the paper's receive model
// (Eqn 3) evaluated literally, one sub-sample at a time. The per-symbol
// MTS responses follow Eqn 4 (front panel under the scheduled codes) and
// Eqn 6 (times the upper layers' factors), every sub-sample gets its own
// AWGN draw, and the receiver groups the sub-samples by (slot symbol,
// flipped, pulse sign) and averages matched pairs. Built only from the
// link's public accessors, so it shares no receive code with the link:
// tests hold OtaLink's closed-form combiner to it, and the micro-kernel
// bench times it as the combiner's baseline.
//
// The reference solves against the idealized steering (SteeringVector),
// so it covers links without static device phase errors or aging drift;
// stuck atoms and chain corruption are realized per pattern load in the
// link's own order, so both consume the same RNG draws before receiving.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "rf/channel.h"
#include "rf/geometry.h"
#include "sim/environment.h"
#include "sim/link.h"
#include "simd/kernels.h"

namespace metaai::testutil {

using sim::Complex;

/// What sim::OtaLink::TransmitSequence returns, computed sub-sample by
/// sub-sample: z(o, i) for every observation o and data symbol i.
inline ComplexMatrix ReferenceTransmit(const sim::OtaLink& link,
                                       std::span<const Complex> data,
                                       const sim::MtsSchedule& schedule,
                                       const sim::LayerSchedules& upper,
                                       double mts_clock_offset_us, Rng& rng) {
  const sim::OtaLinkConfig& config = link.config();
  Check(config.mts_phase_noise_std == 0.0,
        "reference link needs ideal device phases");
  const fault::FaultInjector* faults = config.faults.get();
  Check(faults == nullptr || !faults->HasDrift(),
        "reference link needs drift-free hardware");
  const std::size_t num_symbols = data.size();
  const std::size_t num_obs = link.num_observations();
  Check(schedule.size() == num_symbols, "schedule length mismatch");
  Check(upper.size() + 1 == link.num_layers(), "upper schedule count");
  const bool cancel = config.multipath_cancellation;

  // Eqn 4: B(o, i) = sum_m s_m(o) e^{j phi_m(i)}; the flipped slot loads
  // the opposite codes. Pattern faults corrupt each load separately.
  std::vector<simd::SoaComplex> steering(num_obs);
  for (std::size_t o = 0; o < num_obs; ++o) {
    steering[o].Assign(link.SteeringVector(o));
  }
  const bool pattern_faults = faults != nullptr && faults->AffectsPatterns();
  ComplexMatrix base(num_obs, num_symbols);
  ComplexMatrix flip(num_obs, num_symbols);
  std::vector<mts::PhaseCode> loaded;
  const auto realize = [&](ComplexMatrix& out, std::size_t i) {
    if (pattern_faults) {
      faults->CorruptLoad(loaded, rng);
      faults->ApplyStuck(loaded);
    }
    for (std::size_t o = 0; o < num_obs; ++o) {
      out(o, i) = simd::PhasedSum(steering[o].re.data(), steering[o].im.data(),
                                  loaded.data(), loaded.size());
    }
  };
  for (std::size_t i = 0; i < num_symbols; ++i) {
    loaded = schedule[i];
    realize(base, i);
    if (pattern_faults && cancel) {
      for (std::size_t m = 0; m < loaded.size(); ++m) {
        loaded[m] = mts::OppositeCode(schedule[i][m]);
      }
      realize(flip, i);
    } else {
      for (std::size_t o = 0; o < num_obs; ++o) flip(o, i) = -base(o, i);
    }
  }
  // Eqn 6: every upper layer multiplies in its own factor per symbol.
  if (!upper.empty()) {
    std::vector<std::vector<mts::PhaseCode>> codes(upper.size());
    for (std::size_t i = 0; i < num_symbols; ++i) {
      for (std::size_t u = 0; u < upper.size(); ++u) codes[u] = upper[u][i];
      for (std::size_t o = 0; o < num_obs; ++o) {
        const Complex factor = link.UpperLayerFactor(o, codes);
        base(o, i) *= factor;
        flip(o, i) *= factor;
      }
    }
  }

  // The interferer's per-symbol tap and MTS-leg shadowing.
  const double lambda = rf::Wavelength(config.geometry.frequency_hz);
  sim::DynamicInterferer interferer(
      config.environment.interferer,
      rf::FriisAmplitude(std::max(sim::TxRxDistance(config.geometry), 0.5),
                         lambda),
      config.environment.interferer_drift, rng);
  std::vector<Complex> tap(num_symbols);
  std::vector<double> mts_gain(num_symbols);
  for (std::size_t i = 0; i < num_symbols; ++i) {
    tap[i] = interferer.NextSymbolTap(rng);
    mts_gain[i] = interferer.MtsPathGain();
  }

  const double amplitude = link.TxAmplitude();
  const auto oversample = static_cast<std::size_t>(config.oversample);
  const std::size_t slots_per_symbol = cancel ? 2 : 1;
  const std::size_t num_slots = slots_per_symbol * num_symbols;
  const double symbol_period_s = 1.0 / config.symbol_rate_hz;
  const double slot_duration_s =
      symbol_period_s / static_cast<double>(slots_per_symbol);
  const double offset_s = mts_clock_offset_us * 1e-6;
  const double subsample_noise_var =
      link.SymbolNoiseVariance() * static_cast<double>(oversample);

  struct Group {
    std::size_t symbol;
    bool flipped;
    bool pulse_positive;
    Complex sum;
    std::size_t count;
  };
  ComplexMatrix z(num_obs, num_symbols);
  std::vector<std::size_t> slot_symbol_of(oversample);
  std::vector<bool> flipped_of(oversample);
  std::vector<double> pulse_of(oversample);
  std::vector<Complex> received(num_obs * oversample);
  for (std::size_t i = 0; i < num_symbols; ++i) {
    for (std::size_t j = 0; j < oversample; ++j) {
      const double t =
          (static_cast<double>(i) +
           (static_cast<double>(j) + 0.5) / static_cast<double>(oversample)) *
          symbol_period_s;
      pulse_of[j] = cancel && j >= oversample / 2 ? -1.0 : 1.0;
      auto slot = static_cast<std::ptrdiff_t>(
          std::floor((t - offset_s) / slot_duration_s));
      slot = std::clamp(slot, std::ptrdiff_t{0},
                        static_cast<std::ptrdiff_t>(num_slots) - 1);
      slot_symbol_of[j] = static_cast<std::size_t>(slot) / slots_per_symbol;
      flipped_of[j] =
          cancel && static_cast<std::size_t>(slot) % slots_per_symbol == 1;
    }
    // Eqn 3 per sub-sample, one AWGN draw each, sub-sample-major.
    for (std::size_t j = 0; j < oversample; ++j) {
      const std::size_t s = slot_symbol_of[j];
      for (std::size_t o = 0; o < num_obs; ++o) {
        const Complex mts = (flipped_of[j] ? flip(o, s) : base(o, s)) *
                            link.MtsPathAmplitude(o) * mts_gain[i];
        const Complex channel = amplitude * (mts + tap[i]) +
                                link.EnvironmentResponse(o);
        received[o * oversample + j] = channel * data[i] * pulse_of[j] +
                                       rng.ComplexNormal(subsample_noise_var);
      }
    }
    for (std::size_t o = 0; o < num_obs; ++o) {
      const std::span<const Complex> sub(received.data() + o * oversample,
                                         oversample);
      if (!cancel) {
        Complex acc{0.0, 0.0};
        for (const Complex& r : sub) acc += r;
        z(o, i) = acc / static_cast<double>(oversample);
        continue;
      }
      std::array<Group, 6> groups;
      std::size_t num_groups = 0;
      for (std::size_t j = 0; j < oversample; ++j) {
        const bool positive = pulse_of[j] > 0.0;
        Group* group = nullptr;
        for (std::size_t g = 0; g < num_groups; ++g) {
          if (groups[g].symbol == slot_symbol_of[j] &&
              groups[g].flipped == flipped_of[j] &&
              groups[g].pulse_positive == positive) {
            group = &groups[g];
          }
        }
        if (group == nullptr) {
          Check(num_groups < groups.size(),
                "receive window spans more than three MTS slots");
          group = &groups[num_groups++];
          *group = {slot_symbol_of[j], flipped_of[j], positive, {}, 0};
        }
        group->sum += sub[j];
        ++group->count;
      }
      // Matched pairs (f, +pulse) x (not f, -pulse) cancel the static
      // environment; same-symbol pairs first, cross-symbol pairs when no
      // same-symbol pair exists, plain pulse-matched averaging last.
      Complex acc{0.0, 0.0};
      double weight = 0.0;
      const auto combine_pairs = [&](bool same_symbol_only) {
        for (std::size_t a = 0; a < num_groups; ++a) {
          if (!groups[a].pulse_positive) continue;
          for (std::size_t b = 0; b < num_groups; ++b) {
            if (groups[b].pulse_positive) continue;
            if (groups[a].flipped == groups[b].flipped) continue;
            if (same_symbol_only != (groups[a].symbol == groups[b].symbol)) {
              continue;
            }
            const double sign = groups[a].flipped ? -1.0 : 1.0;
            const auto w2 =
                static_cast<double>(groups[a].count + groups[b].count);
            acc += w2 * sign * 0.5 *
                   (groups[a].sum / static_cast<double>(groups[a].count) +
                    groups[b].sum / static_cast<double>(groups[b].count));
            weight += w2;
          }
        }
      };
      combine_pairs(/*same_symbol_only=*/true);
      if (weight == 0.0) combine_pairs(/*same_symbol_only=*/false);
      if (weight > 0.0) {
        z(o, i) = acc / weight;
      } else {
        Complex fallback{0.0, 0.0};
        for (std::size_t j = 0; j < oversample; ++j) {
          fallback += sub[j] * pulse_of[j];
        }
        z(o, i) = fallback / static_cast<double>(oversample);
      }
    }
  }
  return z;
}

}  // namespace metaai::testutil
