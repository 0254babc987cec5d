#include "sim/link.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "obs/obs.h"
#include "rf/geometry.h"
#include "simd/kernels.h"

namespace metaai::sim {
namespace {

double DbmToLinearWatts(double dbm) { return std::pow(10.0, (dbm - 30.0) / 10.0); }

// Off-boresight angles of the direct Tx->Rx ray at each end, given both
// antennas point at the panel (the origin).
struct DirectPathAngles {
  double at_tx;
  double at_rx;
};

DirectPathAngles DirectAngles(const mts::LinkGeometry& geometry) {
  const rf::Vec3 tx = rf::Polar(geometry.tx_distance_m, geometry.tx_angle_rad);
  const rf::Vec3 rx = rf::Polar(geometry.rx_distance_m, geometry.rx_angle_rad);
  const rf::Vec3 tx_boresight = tx * -1.0;  // toward the MTS
  const rf::Vec3 rx_boresight = rx * -1.0;
  const rf::Vec3 tx_to_rx = rx - tx;
  const rf::Vec3 rx_to_tx = tx - rx;
  return {rf::AngleBetween(tx_boresight, tx_to_rx),
          rf::AngleBetween(rx_boresight, rx_to_tx)};
}

}  // namespace

double TxRxDistance(const mts::LinkGeometry& geometry) {
  const rf::Vec3 tx = rf::Polar(geometry.tx_distance_m, geometry.tx_angle_rad);
  const rf::Vec3 rx = rf::Polar(geometry.rx_distance_m, geometry.rx_angle_rad);
  return rf::Distance(tx, rx);
}

OtaLink::OtaLink(const mts::Metasurface& surface, OtaLinkConfig config)
    : surface_(surface), config_(std::move(config)) {
  Check(!config_.observations.empty(), "link needs at least one observation");
  Check(config_.oversample >= 2 && config_.oversample % 2 == 0,
        "oversample must be even and >= 2");
  Check(config_.symbol_rate_hz > 0.0, "symbol rate must be positive");

  tx_amplitude_ = std::sqrt(DbmToLinearWatts(config_.budget.tx_power_dbm));
  noise_power_ = DbmToLinearWatts(config_.budget.noise_floor_dbm);

  const rf::Antenna tx_ant(config_.tx_antenna);
  const rf::Antenna rx_ant(config_.rx_antenna);
  const double wall_amp =
      std::pow(10.0, -config_.environment.wall_attenuation_db / 20.0);

  Rng channel_rng(config_.channel_seed);

  auto make_environment = [&](const mts::LinkGeometry& geometry, Rng& rng) {
    const double lambda = rf::Wavelength(geometry.frequency_hz);
    const double d = TxRxDistance(geometry);
    const auto angles = DirectAngles(geometry);
    const double endpoint_gain = std::sqrt(tx_ant.Gain(angles.at_tx) *
                                           rx_ant.Gain(angles.at_rx));
    const double friis = rf::FriisAmplitude(d, lambda);
    const double direct = config_.environment.direct_tx_rx
                              ? friis * endpoint_gain * wall_amp
                              : 0.0;
    const double diffuse =
        tx_ant.DiffuseGain() * rx_ant.DiffuseGain() * wall_amp * wall_amp;
    // NLoS links keep scattered energy referenced to the (absent) direct
    // path so the K-factor still sets its level.
    return rf::MultipathChannel(config_.environment.profile, direct, diffuse,
                                rng,
                                /*nlos_reference_amplitude=*/friis * 0.5);
  };

  // Static per-atom device phase errors (hardware noise N_d): drawn once
  // per link; identical for every observation since they are properties
  // of the physical atoms.
  std::vector<Complex> device_error(surface_.num_atoms(), Complex{1.0, 0.0});
  if (config_.mts_phase_noise_std > 0.0) {
    Rng device_rng(config_.channel_seed ^ 0x5EED5EEDull);
    for (Complex& e : device_error) {
      const double eps = device_rng.Normal(0.0, config_.mts_phase_noise_std);
      e = Complex{std::cos(eps), std::sin(eps)};
    }
  }

  // Base environment realization, shared by all same-geometry
  // observations (subcarriers see the same taps at different offsets).
  // Realized from channel_rng *before* the observation loop: building it
  // lazily at the first no-override observation made the shared taps —
  // and every override's forked stream — depend on where that
  // observation sat in the list, so permuting observations changed the
  // channel realization.
  const rf::MultipathChannel base_env =
      make_environment(config_.geometry, channel_rng);
  for (const Observation& obs : config_.observations) {
    ObservationState state;
    if (obs.geometry.has_value()) {
      Rng fork = channel_rng.Fork();
      state.env_response =
          make_environment(*obs.geometry, fork).Response(obs.freq_offset_hz);
    } else {
      state.env_response = base_env.Response(obs.freq_offset_hz);
    }
    const mts::LinkGeometry& geometry =
        obs.geometry.has_value() ? *obs.geometry : config_.geometry;
    state.steering = surface_.SteeringVector(geometry, obs.freq_offset_hz);
    if (obs.harmonic != 0) {
      // Intra-symbol time-coding harmonic: distinct per-atom phase ramp
      // (see Observation::harmonic).
      constexpr double kGoldenAngle = 2.39996322972865332;
      for (std::size_t m = 0; m < state.steering.size(); ++m) {
        const double phase = kGoldenAngle * static_cast<double>(m + 1) *
                             static_cast<double>(obs.harmonic);
        state.steering[m] *= Complex{std::cos(phase), std::sin(phase)};
      }
    }
    state.tx_steering = state.steering;
    for (std::size_t m = 0; m < state.tx_steering.size(); ++m) {
      state.tx_steering[m] *= device_error[m];
    }
    // Aging drift (fault model): a slow per-atom phase offset on the
    // physical reflection, on top of the static device errors. Like
    // those, it distorts transmission but is invisible to the idealized
    // steering the mapper solves against — until a diagnosis measures it.
    if (config_.faults != nullptr && config_.faults->HasDrift()) {
      Check(config_.faults->num_atoms() == state.tx_steering.size(),
            "fault injector atom count must match the surface");
      const auto& drift = config_.faults->drift_phasors();
      for (std::size_t m = 0; m < state.tx_steering.size(); ++m) {
        state.tx_steering[m] *= drift[m];
      }
    }
    // Antennas point at the panel: boresight gains on both MTS legs.
    state.mts_amplitude = surface_.PathAmplitude(geometry) *
                          std::sqrt(tx_ant.Gain(0.0) * rx_ant.Gain(0.0)) *
                          wall_amp;
    state.tx_steer_re.resize(state.tx_steering.size());
    state.tx_steer_im.resize(state.tx_steering.size());
    for (std::size_t m = 0; m < state.tx_steering.size(); ++m) {
      state.tx_steer_re[m] = state.tx_steering[m].real();
      state.tx_steer_im[m] = state.tx_steering[m].imag();
    }
    observations_.push_back(std::move(state));
  }
}

OtaLink::OtaLink(const mts::LayerGraph& graph, OtaLinkConfig config)
    : OtaLink(graph.front(), std::move(config)) {
  graph_ = &graph;
  BuildUpperStates();
}

void OtaLink::BuildUpperStates() {
  const std::size_t depth = graph_->depth();
  if (depth <= 1) return;
  upper_.resize(depth - 1);
  for (std::size_t l = 1; l < depth; ++l) {
    const mts::Metasurface& layer = graph_->layer(l);
    std::vector<UpperLayerState>& states = upper_[l - 1];
    states.reserve(config_.observations.size());
    for (const Observation& obs : config_.observations) {
      const mts::LinkGeometry& geometry =
          obs.geometry.has_value() ? *obs.geometry : config_.geometry;
      UpperLayerState state;
      // Upper layers hold one configuration per symbol: no intra-symbol
      // time coding (the harmonic ramp is the front panel's job) and no
      // device-noise/fault model (both are modeled on layer 0 only).
      state.steering = layer.SteeringVector(geometry, obs.freq_offset_hz);
      double magnitude_sum = 0.0;
      for (const Complex& s : state.steering) magnitude_sum += std::abs(s);
      Check(magnitude_sum > 0.0,
            "upper layer steering must be non-degenerate");
      // Normalizing coupling: a fully focused layer at coupling_gain 1
      // contributes ~unit magnitude (see mts/layer_graph.h).
      state.coupling = graph_->coupling_gain(l) / (0.9 * magnitude_sum);
      state.steer_re.resize(state.steering.size());
      state.steer_im.resize(state.steering.size());
      for (std::size_t m = 0; m < state.steering.size(); ++m) {
        state.steer_re[m] = state.steering[m].real();
        state.steer_im[m] = state.steering[m].imag();
      }
      states.push_back(std::move(state));
    }
  }
}

std::size_t OtaLink::num_layers() const {
  return graph_ != nullptr ? graph_->depth() : 1;
}

std::vector<Complex> OtaLink::UpperSteeringVector(std::size_t layer,
                                                  std::size_t o) const {
  Check(layer >= 1 && layer < num_layers(), "upper layer index out of range");
  CheckIndex(o, observations_.size(), "observation");
  return upper_[layer - 1][o].steering;
}

double OtaLink::UpperCoupling(std::size_t layer, std::size_t o) const {
  Check(layer >= 1 && layer < num_layers(), "upper layer index out of range");
  CheckIndex(o, observations_.size(), "observation");
  return upper_[layer - 1][o].coupling;
}

Complex OtaLink::UpperLayerFactor(
    std::size_t o, std::span<const std::vector<mts::PhaseCode>> codes) const {
  CheckIndex(o, observations_.size(), "observation");
  Check(codes.size() == num_layers() - 1,
        "upper code count must match num_layers() - 1");
  Complex factor{1.0, 0.0};
  for (std::size_t u = 0; u < codes.size(); ++u) {
    const UpperLayerState& state = upper_[u][o];
    Check(codes[u].size() == state.steering.size(),
          "upper code size must match the layer's atom count");
    factor *= state.coupling *
              simd::PhasedSum(state.steer_re.data(), state.steer_im.data(),
                              codes[u].data(), codes[u].size());
  }
  return factor;
}

void OtaLink::PlanTable::Insert(ResponsePlan plan) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (ResponsePlan& existing : plans_) {
    if (existing.schedule == plan.schedule && existing.upper == plan.upper) {
      existing = std::move(plan);
      return;
    }
  }
  plans_.push_back(std::move(plan));
}

const ComplexMatrix* OtaLink::PlanTable::Find(
    const MtsSchedule* schedule, const LayerSchedules* upper) const {
  for (const ResponsePlan& plan : plans_) {
    if (plan.schedule == schedule && plan.upper == upper) {
      return &plan.response;
    }
  }
  return nullptr;
}

const LayerSchedules* OtaLink::UpperKey(const LayerSchedules& upper) const {
  return num_layers() > 1 ? &upper : nullptr;
}

ComplexMatrix OtaLink::BaseResponses(const MtsSchedule& schedule) const {
  const std::size_t num_obs = observations_.size();
  const std::size_t num_symbols = schedule.size();
  const std::size_t atoms = surface_.num_atoms();
  ComplexMatrix base(num_obs, num_symbols);
  for (std::size_t o = 0; o < num_obs; ++o) {
    const ObservationState& state = observations_[o];
    Complex* row = base.row(o);
    for (std::size_t i = 0; i < num_symbols; ++i) {
      row[i] = simd::PhasedSum(state.tx_steer_re.data(),
                               state.tx_steer_im.data(), schedule[i].data(),
                               atoms);
    }
  }
  return base;
}

ComplexMatrix OtaLink::UpperFactors(const LayerSchedules& upper,
                                    std::size_t num_symbols) const {
  const std::size_t num_obs = observations_.size();
  ComplexMatrix factors(num_obs, num_symbols, Complex{1.0, 0.0});
  for (std::size_t u = 0; u < upper.size(); ++u) {
    for (std::size_t o = 0; o < num_obs; ++o) {
      const UpperLayerState& state = upper_[u][o];
      const std::size_t atoms = state.steering.size();
      Complex* row = factors.row(o);
      for (std::size_t i = 0; i < num_symbols; ++i) {
        row[i] *= state.coupling * simd::PhasedSum(state.steer_re.data(),
                                                   state.steer_im.data(),
                                                   upper[u][i].data(), atoms);
      }
    }
  }
  return factors;
}

void OtaLink::ApplyUpperFactors(const LayerSchedules& upper,
                                ComplexMatrix& base,
                                ComplexMatrix* base_flip) const {
  // Folding U into the front-panel responses before the amplitude
  // scaling, the probes and the equalizer keeps the mid-symbol flip
  // (-B * U == -(B * U)), the EVM reference and the soft-margin
  // denominator consistent for free. Depth-1 links skip this entirely,
  // bit for bit.
  if (upper.empty()) return;
  const ComplexMatrix factors = UpperFactors(upper, base.cols());
  for (std::size_t o = 0; o < base.rows(); ++o) {
    const Complex* factor_row = factors.row(o);
    Complex* base_row = base.row(o);
    Complex* flip_row = base_flip != nullptr ? base_flip->row(o) : nullptr;
    for (std::size_t i = 0; i < base.cols(); ++i) {
      base_row[i] *= factor_row[i];
      if (flip_row != nullptr) flip_row[i] *= factor_row[i];
    }
  }
}

std::vector<Complex> OtaLink::SteeringVector(std::size_t o) const {
  CheckIndex(o, observations_.size(), "observation");
  return observations_[o].steering;
}

double OtaLink::MtsPathAmplitude(std::size_t o) const {
  CheckIndex(o, observations_.size(), "observation");
  return observations_[o].mts_amplitude;
}

Complex OtaLink::EnvironmentResponse(std::size_t o) const {
  CheckIndex(o, observations_.size(), "observation");
  return tx_amplitude_ * observations_[o].env_response;
}

double OtaLink::SymbolNoiseVariance() const { return noise_power_; }

double OtaLink::NominalSnrDb() const {
  // Mid-scale weight: 45% of the coherent sum of steering magnitudes.
  double steering_sum = 0.0;
  for (const Complex& s : observations_[0].steering) {
    steering_sum += std::abs(s);
  }
  const double signal_amp = tx_amplitude_ * observations_[0].mts_amplitude *
                            0.45 * steering_sum;
  return 10.0 * std::log10(signal_amp * signal_amp / noise_power_);
}

ComplexMatrix OtaLink::TransmitSequence(std::span<const Complex> data,
                                        const MtsSchedule& schedule,
                                        double mts_clock_offset_us,
                                        Rng& rng) const {
  Check(num_layers() == 1,
        "multi-layer link: use the upper-schedule TransmitSequence overload");
  return TransmitSequence(data, schedule, LayerSchedules{}, mts_clock_offset_us,
                          rng);
}

void OtaLink::CheckSchedules(const MtsSchedule& schedule,
                             const LayerSchedules& upper,
                             std::size_t num_symbols) const {
  Check(num_symbols > 0, "empty transmission");
  Check(schedule.size() == num_symbols, "schedule length mismatch");
  const std::size_t atoms = surface_.num_atoms();
  for (const auto& codes : schedule) {
    if (codes.size() != atoms) {
      Check(false, "schedule config size mismatch: " +
                       std::to_string(codes.size()) + " codes vs " +
                       std::to_string(atoms) + " atoms");
    }
  }
  Check(upper.size() == num_layers() - 1,
        "upper schedule count must match num_layers() - 1");
  for (std::size_t u = 0; u < upper.size(); ++u) {
    Check(upper[u].size() == num_symbols, "upper schedule length mismatch");
    const std::size_t layer_atoms = graph_->layer(u + 1).num_atoms();
    for (const auto& codes : upper[u]) {
      Check(codes.size() == layer_atoms,
            "upper schedule config size mismatch");
    }
  }
}

void OtaLink::Prepare(const MtsSchedule& schedule,
                      const LayerSchedules& upper) {
  CheckSchedules(schedule, upper, schedule.size());
  const fault::FaultInjector* faults = config_.faults.get();
  if (faults != nullptr && faults->AffectsPatterns()) return;
  ResponsePlan plan{.schedule = &schedule,
                    .upper = UpperKey(upper),
                    .response = BaseResponses(schedule)};
  ApplyUpperFactors(upper, plan.response, nullptr);
  plans_.Insert(std::move(plan));
}

ComplexMatrix OtaLink::TransmitSequence(std::span<const Complex> data,
                                        const MtsSchedule& schedule,
                                        const LayerSchedules& upper,
                                        double mts_clock_offset_us,
                                        Rng& rng) const {
  const std::size_t num_symbols = data.size();
  CheckSchedules(schedule, upper, num_symbols);
  const std::size_t num_obs = observations_.size();

  // Bulk event counts for this transmission (per-sample counting would
  // dominate the receive loop).
  obs::Count("link.transmissions");
  obs::Count("link.symbols", num_symbols);
  obs::Count("link.channel_applications", num_obs * num_symbols);
  obs::Count("link.awgn_draws",
             num_obs * num_symbols *
                 static_cast<std::size_t>(config_.oversample));

  if (const ComplexMatrix* plan = plans_.Find(&schedule, UpperKey(upper))) {
    return Receive(data, *plan, nullptr, mts_clock_offset_us, rng);
  }

  // Per-symbol base responses B(o, i) = sum_m steering * phasor, using
  // the hardware's (device-error-perturbed) steering.
  //
  // With pattern-affecting faults active, each half-symbol slot is its
  // own shift-register load: the commanded codes (or their opposites for
  // the flipped slot) pass through chain corruption, then stuck PIN
  // drivers override whatever arrived. A stuck atom therefore does NOT
  // flip at mid-symbol — the flipped response is a separate sum, not
  // simply -B, which is exactly why the §3.2 cancellation scheme also
  // cancels the stuck atoms' (static) contribution.
  const fault::FaultInjector* faults = config_.faults.get();
  const bool pattern_faults = faults != nullptr && faults->AffectsPatterns();
  if (!pattern_faults) {
    ComplexMatrix base = BaseResponses(schedule);
    ApplyUpperFactors(upper, base, nullptr);
    return Receive(data, base, nullptr, mts_clock_offset_us, rng);
  }
  const std::size_t atoms = surface_.num_atoms();
  Check(faults->num_atoms() == atoms,
        "fault injector atom count must match the surface");
  const bool use_flip_matrix = config_.multipath_cancellation;
  ComplexMatrix base(num_obs, num_symbols);
  ComplexMatrix base_flip(use_flip_matrix ? num_obs : 0,
                          use_flip_matrix ? num_symbols : 0);
  std::vector<mts::PhaseCode> loaded(atoms);
  std::size_t bit_flips = 0;
  std::size_t stuck_overrides = 0;
  const auto realize = [&](ComplexMatrix& out, std::size_t i) {
    bit_flips += faults->CorruptLoad(loaded, rng);
    stuck_overrides += faults->ApplyStuck(loaded);
    for (std::size_t o = 0; o < num_obs; ++o) {
      const ObservationState& state = observations_[o];
      out(o, i) = simd::PhasedSum(state.tx_steer_re.data(),
                                  state.tx_steer_im.data(), loaded.data(),
                                  atoms);
    }
  };
  for (std::size_t i = 0; i < num_symbols; ++i) {
    loaded = schedule[i];
    realize(base, i);
    if (use_flip_matrix) {
      for (std::size_t m = 0; m < atoms; ++m) {
        loaded[m] = mts::OppositeCode(schedule[i][m]);
      }
      realize(base_flip, i);
    }
  }
  obs::Count("fault.chain_bitflips", bit_flips);
  obs::Count("fault.stuck_overrides", stuck_overrides);
  obs::Count("fault.injected", bit_flips + stuck_overrides);
  ApplyUpperFactors(upper, base, use_flip_matrix ? &base_flip : nullptr);
  return Receive(data, base, use_flip_matrix ? &base_flip : nullptr,
                 mts_clock_offset_us, rng);
}

ComplexMatrix OtaLink::Receive(std::span<const Complex> data,
                               const ComplexMatrix& base,
                               const ComplexMatrix* base_flip,
                               double mts_clock_offset_us, Rng& rng) const {
  const std::size_t num_symbols = data.size();
  const std::size_t num_obs = observations_.size();
  const std::size_t slots_per_symbol = config_.multipath_cancellation ? 2 : 1;
  const std::size_t num_slots = slots_per_symbol * num_symbols;

  // Dynamic interferer + per-symbol environment responses.
  const double lambda = rf::Wavelength(config_.geometry.frequency_hz);
  DynamicInterferer interferer(
      config_.environment.interferer,
      rf::FriisAmplitude(std::max(TxRxDistance(config_.geometry), 0.5),
                         lambda),
      config_.environment.interferer_drift, rng);
  ComplexMatrix env(num_obs, num_symbols);
  std::vector<double> mts_gain(num_symbols, 1.0);
  for (std::size_t i = 0; i < num_symbols; ++i) {
    const Complex tap = interferer.NextSymbolTap(rng);
    mts_gain[i] = interferer.MtsPathGain();
    for (std::size_t o = 0; o < num_obs; ++o) {
      env.row(o)[i] = observations_[o].env_response + tap;
    }
  }

  const double symbol_period_s = 1.0 / config_.symbol_rate_hz;
  const double slot_duration_s =
      symbol_period_s / static_cast<double>(slots_per_symbol);
  const double offset_s = mts_clock_offset_us * 1e-6;
  const auto oversample = static_cast<std::size_t>(config_.oversample);
  // Per-sub-sample noise so that the S-sample average has the configured
  // symbol-level noise power.
  const double subsample_noise_var =
      noise_power_ * static_cast<double>(oversample);

  // ---------------------------------------------------------------
  // Receive combining. With multipath cancellation active the receiver
  // exploits the §3.2 observation that the MTS breaks the zero-mean
  // property: it samples several points per symbol, groups them by the
  // (estimated) MTS slot state and the data pulse sign, and averages the
  // matched pairs
  //     (unflipped, +pulse) & (flipped, -pulse)   ->  +w x   (env cancels)
  //     (flipped,  +pulse) & (unflipped, -pulse)  ->  -w x   (env cancels)
  // so a static environment path cancels exactly for ANY fractional clock
  // offset, and a residual integer-symbol shift remains for CDFA training
  // to absorb. Slot boundaries are assumed estimable at the receiver (the
  // MTS-modulated envelope exposes them); the simulator hands it the true
  // boundary phase. Without cancellation the receiver plainly averages.
  // ---------------------------------------------------------------
  struct GroupStats {
    Complex sum{0.0, 0.0};
    std::size_t count = 0;
  };
  // Sub-samples grouped by (slot symbol, flipped, pulse sign). A
  // data-symbol window spans at most three half-symbol slots, so at most
  // three (slot symbol, flipped) pairs, each under both pulse signs.
  struct Group {
    std::size_t symbol;
    int flipped;
    int pulse_positive;
    GroupStats stats;
  };
  constexpr std::size_t kMaxGroups = 6;

  ComplexMatrix z(num_obs, num_symbols);
  std::vector<std::size_t> slot_symbol_of(oversample);
  std::vector<char> flipped_of(oversample);
  std::vector<double> pulse_of(oversample);
  std::vector<Complex> received(num_obs * oversample);
  // Row pointers: the loop below indexes every (observation, symbol)
  // response several times per symbol.
  std::vector<const Complex*> base_rows(num_obs);
  std::vector<const Complex*> flip_rows(num_obs, nullptr);
  std::vector<const Complex*> env_rows(num_obs);
  std::vector<Complex*> z_rows(num_obs);
  for (std::size_t o = 0; o < num_obs; ++o) {
    base_rows[o] = base.row(o);
    if (base_flip != nullptr) flip_rows[o] = base_flip->row(o);
    env_rows[o] = env.row(o);
    z_rows[o] = z.row(o);
  }

  for (std::size_t i = 0; i < num_symbols; ++i) {
    for (std::size_t j = 0; j < oversample; ++j) {
      // Data-clock time of this sub-sample.
      const double t =
          (static_cast<double>(i) +
           (static_cast<double>(j) + 0.5) / static_cast<double>(oversample)) *
          symbol_period_s;
      // Zero-mean pulse when cancellation is active.
      const double pulse = (config_.multipath_cancellation &&
                            j >= oversample / 2)
                               ? -1.0
                               : 1.0;
      // The slot the MTS is playing at this instant (its clock lags by
      // the offset). Clamped at the schedule edges: the surface holds its
      // first/last configuration outside the window.
      const double mts_time = t - offset_s;
      auto slot = static_cast<std::ptrdiff_t>(
          std::floor(mts_time / slot_duration_s));
      slot = std::clamp(slot, std::ptrdiff_t{0},
                        static_cast<std::ptrdiff_t>(num_slots) - 1);
      const auto slot_symbol =
          static_cast<std::size_t>(slot) / slots_per_symbol;
      const bool flipped = config_.multipath_cancellation &&
                           (static_cast<std::size_t>(slot) %
                            slots_per_symbol) == 1;
      slot_symbol_of[j] = slot_symbol;
      flipped_of[j] = flipped ? 1 : 0;
      pulse_of[j] = pulse;

      for (std::size_t o = 0; o < num_obs; ++o) {
        Complex mts_response;
        if (flipped && base_flip != nullptr) {
          mts_response = flip_rows[o][slot_symbol];
        } else {
          mts_response = base_rows[o][slot_symbol];
          if (flipped) mts_response = -mts_response;
        }
        mts_response *= observations_[o].mts_amplitude * mts_gain[i];
        const Complex channel = mts_response + env_rows[o][i];
        received[o * oversample + j] =
            tx_amplitude_ * channel * data[i] * pulse +
            rng.ComplexNormal(subsample_noise_var);
      }
    }

    if (!config_.multipath_cancellation) {
      for (std::size_t o = 0; o < num_obs; ++o) {
        Complex acc{0.0, 0.0};
        for (std::size_t j = 0; j < oversample; ++j) {
          acc += received[o * oversample + j];
        }
        z_rows[o][i] = acc / static_cast<double>(oversample);
      }
      continue;
    }

    for (std::size_t o = 0; o < num_obs; ++o) {
      std::array<Group, kMaxGroups> groups;
      std::size_t num_groups = 0;
      for (std::size_t j = 0; j < oversample; ++j) {
        const int f = flipped_of[j];
        const int p = pulse_of[j] > 0.0 ? 1 : 0;
        Group* group = nullptr;
        for (std::size_t g = 0; g < num_groups; ++g) {
          if (groups[g].symbol == slot_symbol_of[j] &&
              groups[g].flipped == f && groups[g].pulse_positive == p) {
            group = &groups[g];
            break;
          }
        }
        if (group == nullptr) {
          Check(num_groups < kMaxGroups,
                "receive window spans more than three MTS slots");
          group = &groups[num_groups++];
          *group = {slot_symbol_of[j], f, p, {}};
        }
        group->stats.sum += received[o * oversample + j];
        ++group->stats.count;
      }
      const std::span<const Group> found(groups.data(), num_groups);
      auto mean = [](const GroupStats& g) {
        return g.sum / static_cast<double>(g.count);
      };
      // A pair (f1, +pulse) x (f2, -pulse) with f1 != f2 cancels the
      // environment: mean_A + mean_B = ((-1)^{f1} w_A + (-1)^{f1} w_B) x,
      // so +-(w_A + w_B)/2 * x survives. Same-symbol pairs recover w x
      // exactly; cross-symbol pairs give the benign two-weight average.
      Complex acc{0.0, 0.0};
      double weight = 0.0;
      auto combine_pairs = [&](bool same_symbol_only) {
        for (const Group& a : found) {
          if (a.pulse_positive != 1) continue;
          for (const Group& b : found) {
            if (b.pulse_positive != 0) continue;
            if (a.flipped == b.flipped) continue;
            if (same_symbol_only != (a.symbol == b.symbol)) continue;
            const double sign = a.flipped == 0 ? 1.0 : -1.0;
            const double w2 =
                static_cast<double>(a.stats.count + b.stats.count);
            acc += w2 * sign * 0.5 * (mean(a.stats) + mean(b.stats));
            weight += w2;
          }
        }
      };
      combine_pairs(/*same_symbol_only=*/true);
      if (weight == 0.0) combine_pairs(/*same_symbol_only=*/false);
      if (weight > 0.0) {
        z_rows[o][i] = acc / weight;
      } else {
        // No environment-cancelling pair at all (degenerate): fall back
        // to pulse-matched averaging; the environment leaks.
        Complex fallback{0.0, 0.0};
        for (std::size_t j = 0; j < oversample; ++j) {
          fallback += received[o * oversample + j] * pulse_of[j];
        }
        z_rows[o][i] = fallback / static_cast<double>(oversample);
      }
    }
  }

  if (obs::ProbesEnabled()) {
    // Flight-recorder evidence for this transmission, measured against
    // the ideal MTS-path product w*x (zero clock offset, no noise, no
    // environment leak): whatever the RF chain added shows up as error
    // vector. Per-observation figures separate subcarriers/antennas.
    std::vector<double> per_obs_evm(num_obs);
    std::vector<double> per_obs_snr_db(num_obs);
    double total_signal = 0.0;
    double total_error = 0.0;
    for (std::size_t o = 0; o < num_obs; ++o) {
      double signal = 0.0;
      double error = 0.0;
      const double amplitude = tx_amplitude_ * observations_[o].mts_amplitude;
      for (std::size_t i = 0; i < num_symbols; ++i) {
        const Complex ideal = amplitude * base(o, i) * data[i];
        signal += std::norm(ideal);
        error += std::norm(z(o, i) - ideal);
      }
      total_signal += signal;
      total_error += error;
      // Guard the degenerate all-zero cases so the JSONL stays finite.
      per_obs_evm[o] =
          signal > 0.0 ? std::sqrt(error / signal) : 0.0;
      per_obs_snr_db[o] =
          signal > 0.0 ? 10.0 * std::log10(signal / std::max(error, 1e-300))
                       : 0.0;
    }
    std::vector<std::pair<std::string, double>> evm_values = {
        {"evm_rms", total_signal > 0.0
                        ? std::sqrt(total_error / total_signal)
                        : 0.0},
        {"symbols", static_cast<double>(num_symbols)},
        {"clock_offset_us", mts_clock_offset_us}};
    if (config_.data_modulation.has_value()) {
      // Equalize back to data-symbol estimates zhat = z / (A * base) and
      // measure the demod soft-decision margin: a label-free accuracy
      // proxy the health layer consumes (obs/health.h).
      std::vector<Complex> equalized;
      equalized.reserve(num_obs * num_symbols);
      for (std::size_t o = 0; o < num_obs; ++o) {
        const double amplitude =
            tx_amplitude_ * observations_[o].mts_amplitude;
        for (std::size_t i = 0; i < num_symbols; ++i) {
          const Complex denom = amplitude * base(o, i);
          if (std::abs(denom) > 1e-12) equalized.push_back(z(o, i) / denom);
        }
      }
      evm_values.emplace_back(
          "soft_margin",
          rf::SoftDecisionMargin(equalized, *config_.data_modulation));
    }
    obs::Probe({.kind = obs::ProbeKind::kEvm,
                .site = "link.transmit",
                .values = std::move(evm_values),
                .series = per_obs_evm});
    obs::Probe({.kind = obs::ProbeKind::kSubcarrierSnr,
                .site = "link.transmit",
                .values = {{"num_obs", static_cast<double>(num_obs)},
                           {"nominal_snr_db", NominalSnrDb()}},
                .series = per_obs_snr_db});
    // A handful of received constellation points (observation 0),
    // interleaved as [re0, im0, re1, im1, ...].
    const std::size_t sampled = std::min<std::size_t>(16, num_symbols);
    std::vector<double> points;
    points.reserve(2 * sampled);
    for (std::size_t i = 0; i < sampled; ++i) {
      points.push_back(z(0, i).real());
      points.push_back(z(0, i).imag());
    }
    obs::Probe({.kind = obs::ProbeKind::kConstellation,
                .site = "link.transmit",
                .values = {{"count", static_cast<double>(sampled)}},
                .series = std::move(points)});
  }
  return z;
}

}  // namespace metaai::sim
