// End-to-end over-the-air link simulator.
//
// Models one Tx -> {MTS reflection + environment} -> Rx link at symbol
// resolution with sub-symbol oversampling, implementing the paper's
// receive model (Eqn 3) — as the exact linear combiner of the sub-samples,
// with one noise draw per symbol — together with:
//  * the multipath-cancellation scheme of §3.2: zero-mean half-symbol
//    pulses with the MTS flipping every atom by pi at mid-symbol, so that
//    plain integration over a symbol cancels any path that is static
//    within the symbol while retaining the MTS-path product w * x;
//  * metasurface clock offset (sync error) in microseconds — the MTS
//    weight schedule slides against the data symbols, reproducing the
//    degradation of Fig 11/13;
//  * link-budget noise: Friis legs, antenna gains, wall attenuation and a
//    noise floor produce a physical per-symbol SNR (used by the distance /
//    NLoS / cross-room sweeps);
//  * hardware phase noise on the meta-atoms (diffusion approximation: the
//    sum of many small per-atom phase jitters is an additive complex
//    Gaussian on the slot response);
//  * a dynamic interferer (Fig 26).
//
// Parallelism support: a link carries one or more *observations* — the
// same transmission measured on different subcarriers (frequency offsets,
// Fig 9a) or at different receive antennas (geometry overrides, Fig 9b).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "mts/layer_graph.h"
#include "mts/metasurface.h"
#include "rf/antenna.h"
#include "rf/modulation.h"
#include "rf/signal.h"
#include "sim/environment.h"

namespace metaai::sim {

using rf::Complex;

/// One way of observing the transmission.
struct Observation {
  /// Subcarrier offset from the carrier (subcarrier parallelism).
  double freq_offset_hz = 0.0;
  /// Harmonic index of the metasurface's intra-symbol time coding. At
  /// 40 kHz subcarrier spacing the propagation phases alone barely differ
  /// across subcarriers; the physical mechanism that decorrelates them is
  /// time modulation of the atoms within the OFDM symbol, whose h-th
  /// Fourier harmonic picks up a distinct per-atom phase. Modeled as a
  /// deterministic golden-angle phase ramp e^{j 2.39996 (m+1) h} on the
  /// steering vector (0 = fundamental, no extra phase).
  int harmonic = 0;
  /// Receive-antenna geometry override (antenna parallelism); nullopt
  /// uses the link's base geometry.
  std::optional<mts::LinkGeometry> geometry = std::nullopt;
};

struct LinkBudget {
  double tx_power_dbm = 20.0;
  /// Effective noise floor over the symbol bandwidth, including receiver
  /// noise figure and residual interference.
  double noise_floor_dbm = -72.0;
};

struct OtaLinkConfig {
  mts::LinkGeometry geometry;  // default paper setup is the zero value
  EnvironmentSetup environment;
  rf::AntennaType tx_antenna = rf::AntennaType::kDirectional;
  rf::AntennaType rx_antenna = rf::AntennaType::kDirectional;
  LinkBudget budget;
  double symbol_rate_hz = 1e6;
  /// §3.2 scheme: zero-mean pulse + mid-symbol MTS flip. When false the
  /// MTS holds one configuration per symbol and the environment path adds
  /// directly onto the weight.
  bool multipath_cancellation = true;
  /// Sub-samples per symbol for the time-resolved integration: where
  /// they fall against the MTS slots sets the receive combiner's weights.
  int oversample = 8;
  /// Std-dev (radians) of *static* per-atom phase errors — device
  /// discrepancies among meta-atoms (hardware noise N_d of Eqn 13). Drawn
  /// once per link from channel_seed; the weight mapper solves against
  /// the idealized surface, so these errors systematically distort every
  /// realized weight — exactly the miscalibration the noise-aware
  /// training scheme (Eqn 14) compensates.
  double mts_phase_noise_std = 0.0;
  std::vector<Observation> observations = {Observation{}};
  std::uint64_t channel_seed = 1;  // environment realization seed
  /// Modulation of the data symbols carried over this link, when known.
  /// Enables the demod soft-decision margin ("soft_margin",
  /// rf::SoftDecisionMargin over the equalized received symbols) on the
  /// EVM probe — the label-free accuracy proxy the health layer
  /// (obs/health.h) subscribes to. Deployments set it from their model.
  std::optional<rf::Modulation> data_modulation;
  /// Optional hardware fault injection (metaai::fault). Static models
  /// (stuck atoms' pinned codes, aging drift on the steering) realize at
  /// link construction; dynamic ones (shift-chain corruption) perturb
  /// every pattern load inside TransmitSequence. Null = healthy hardware.
  std::shared_ptr<const fault::FaultInjector> faults;
};

/// The per-symbol MTS configuration schedule for one output sequence:
/// schedule[i] holds the codes the surface loads for data symbol i (the
/// mid-symbol flip is applied internally when cancellation is on).
using MtsSchedule = std::vector<std::vector<mts::PhaseCode>>;

/// Per-symbol schedules for the upper layers of a cascade link:
/// upper[l-1][i] holds the codes layer l loads for data symbol i.
using LayerSchedules = std::vector<MtsSchedule>;

class OtaLink {
 public:
  /// Link over a layer graph; `graph` must outlive the link (a temporary
  /// graph is rejected at compile time). Draws the environment
  /// realization from config.channel_seed. Layer 0 is the
  /// schedule-driven front panel: device phase errors, faults and the
  /// mid-symbol pi flip act on it alone. Layers 1..K-1 multiply every
  /// observation's response by the composed factor
  /// U(o, i) = prod_l c_l(o) * sum_m s_l(o, m) e^{j phi_l[m, i]} where
  /// s_l is layer l's own steering toward the observation's geometry and
  /// c_l(o) the normalizing coupling (see mts/layer_graph.h). A single
  /// panel is the depth-1 graph: no upper factor is ever computed.
  OtaLink(const mts::LayerGraph& graph, OtaLinkConfig config);
  OtaLink(const mts::LayerGraph&& graph, OtaLinkConfig config) = delete;

  const OtaLinkConfig& config() const { return config_; }
  std::size_t num_observations() const { return config_.observations.size(); }

  /// Number of surfaces in the propagation path.
  std::size_t num_layers() const { return graph_.depth(); }

  /// Prepares a response plan for `schedule` (with `upper`, the cascade's
  /// upper-layer schedules; empty on depth-1 links): the composed
  /// noise-free per-symbol responses B(o, i) * U(o, i), computed once with
  /// exactly the arithmetic TransmitSequence would use. Later
  /// TransmitSequence calls passing these same objects (found by address)
  /// skip straight to the receive path, bit for bit and draw for draw
  /// identical to an unprepared call.
  ///
  /// Lifetime contract (the one the graph reference carries): the
  /// caller keeps `schedule` and `upper` alive and unchanged while this
  /// link may be asked to transmit them; preparing the same objects again
  /// replaces the plan. A copy of the link starts with no plans, so it
  /// never answers from plans keyed by another owner's schedules.
  ///
  /// Links whose fault injector affects patterns
  /// (fault::FaultInjector::AffectsPatterns) corrupt every pattern load
  /// with fresh RNG draws, so their responses are not static: Prepare is
  /// a no-op there and every transmission takes the unprepared path.
  /// Concurrent Prepare calls are safe with each other, but not with
  /// concurrent TransmitSequence calls.
  void Prepare(const MtsSchedule& schedule, const LayerSchedules& upper);

  /// Plays `schedule` against `data` and returns the integrated per-symbol
  /// measurements z(o, i) for every observation o. `upper[l-1][i]` is the
  /// configuration upper layer l holds during data symbol i (upper layers
  /// switch per symbol like the front panel but never flip at
  /// mid-symbol); `upper` must hold num_layers() - 1 schedules, so a
  /// depth-1 link takes an empty LayerSchedules. `mts_clock_offset_us`
  /// slides the MTS schedules relative to the data clock (positive = MTS
  /// late). Noise is drawn from `rng`. A prepared (schedule, upper) pair
  /// answers from its plan (see Prepare); the upper object is part of the
  /// key on cascade links only.
  ComplexMatrix TransmitSequence(std::span<const Complex> data,
                                 const MtsSchedule& schedule,
                                 const LayerSchedules& upper,
                                 double mts_clock_offset_us, Rng& rng) const;

  /// Idealized steering of upper layer `layer` (index in [1,
  /// num_layers())) toward observation `o` — what the cascade solver
  /// solves against, excluding the coupling scale.
  std::vector<Complex> UpperSteeringVector(std::size_t layer,
                                           std::size_t o) const;

  /// Normalizing coupling c_l(o) of upper layer `layer` at observation
  /// `o`: coupling_gain / (0.9 * sum_m |s_l(o, m)|).
  double UpperCoupling(std::size_t layer, std::size_t o) const;

  /// Idealized composed upper-layer factor U(o) under one static set of
  /// per-layer codes (codes[l-1] configures layer l). Used by fault
  /// diagnosis to divide the cascade factor back out of measurements.
  Complex UpperLayerFactor(std::size_t o,
                           std::span<const std::vector<mts::PhaseCode>> codes)
      const;

  /// Steering vector the weight mapper should solve against for
  /// observation `o` (includes element pattern; excludes the path
  /// amplitude, which is a common scale).
  std::vector<Complex> SteeringVector(std::size_t o) const;

  /// Deterministic amplitude of the MTS path for observation `o`
  /// (Friis legs x antenna gains x wall attenuation).
  double MtsPathAmplitude(std::size_t o) const;

  /// Environment-path (Tx->Rx, bypassing the MTS) response for
  /// observation `o` at its frequency offset (static: computed once at
  /// construction).
  Complex EnvironmentResponse(std::size_t o) const;

  /// Per-symbol SNR of the MTS path assuming the schedule realizes a
  /// mid-scale weight; diagnostic used by benches and tests.
  double NominalSnrDb() const;

  /// Noise variance per integrated symbol measurement.
  double SymbolNoiseVariance() const;

  /// Linear transmit amplitude sqrt(P_tx).
  double TxAmplitude() const { return tx_amplitude_; }

 private:
  struct ObservationState {
    /// Idealized steering (what the weight mapper solves against).
    std::vector<Complex> steering;
    /// Steering of the physical hardware: idealized steering times the
    /// static per-atom device phase errors. Used for transmission.
    std::vector<Complex> tx_steering;
    /// tx_steering split into component planes (structure-of-arrays) so
    /// the per-symbol base responses run through the vectorized
    /// simd::PhasedSum kernel.
    std::vector<double> tx_steer_re;
    std::vector<double> tx_steer_im;
    double mts_amplitude = 0.0;
    /// Static multipath response at the observation's frequency offset,
    /// excluding the Tx amplitude; the per-symbol interferer tap adds to
    /// it.
    Complex env_response{0.0, 0.0};
  };

  /// One upper cascade layer as seen from one observation: its steering
  /// split into SoA planes for the phased-sum kernel, plus the
  /// normalizing coupling scale.
  struct UpperLayerState {
    std::vector<Complex> steering;
    std::vector<double> steer_re;
    std::vector<double> steer_im;
    double coupling = 1.0;
  };

  /// The composed responses of one prepared schedule, keyed by the
  /// addresses of the schedule objects it was prepared from (see
  /// UpperKey).
  struct ResponsePlan {
    const MtsSchedule* schedule = nullptr;
    const LayerSchedules* upper = nullptr;
    ComplexMatrix response;
  };

  /// Prepared plans. Copies start empty (see Prepare); moves keep them,
  /// since a move leaves the keyed schedules where they were.
  class PlanTable {
   public:
    PlanTable() = default;
    PlanTable(const PlanTable&) {}
    PlanTable(PlanTable&& other) noexcept : plans_(std::move(other.plans_)) {}
    PlanTable& operator=(const PlanTable&) = delete;
    PlanTable& operator=(PlanTable&&) = delete;

    /// Adds `plan`, replacing any plan with the same key.
    void Insert(ResponsePlan plan);
    /// The plan keyed (schedule, upper), or null.
    const ComplexMatrix* Find(const MtsSchedule* schedule,
                              const LayerSchedules* upper) const;

   private:
    std::mutex mutex_;  // guards Insert against concurrent Insert
    std::vector<ResponsePlan> plans_;
  };

  void BuildUpperStates();
  /// Plan key of the upper schedules: their address on cascade links,
  /// null on depth-1 links, whose (necessarily empty) upper schedules are
  /// any caller's empty object.
  const LayerSchedules* UpperKey(const LayerSchedules& upper) const;
  /// Checks the schedule shapes against the link for `num_symbols` data
  /// symbols.
  void CheckSchedules(const MtsSchedule& schedule, const LayerSchedules& upper,
                      std::size_t num_symbols) const;
  /// Healthy-hardware base responses B(o, i) = sum_m steering * phasor of
  /// the front panel under `schedule`.
  ComplexMatrix BaseResponses(const MtsSchedule& schedule) const;
  /// Composed upper factor U(o, i) for every observation/symbol; only
  /// called when upper layers exist.
  ComplexMatrix UpperFactors(const LayerSchedules& upper,
                             std::size_t num_symbols) const;
  /// Folds U(o, i) into `base` (and `base_flip`, when non-null).
  void ApplyUpperFactors(const LayerSchedules& upper, ComplexMatrix& base,
                         ComplexMatrix* base_flip) const;
  /// The receive path shared by prepared and unprepared transmissions:
  /// interferer, the closed-form receive combiner over the oversampled
  /// window with one AWGN draw per (observation, symbol), and the
  /// transmission probes. `base` holds the composed MTS responses;
  /// `base_flip`, when non-null, the separately realized mid-symbol
  /// flipped responses (pattern faults only; otherwise the flip is -base).
  ComplexMatrix Receive(std::span<const Complex> data,
                        const ComplexMatrix& base,
                        const ComplexMatrix* base_flip,
                        double mts_clock_offset_us, Rng& rng) const;

  const mts::LayerGraph& graph_;
  OtaLinkConfig config_;
  std::vector<ObservationState> observations_;
  /// upper_[l-1][o]: layer l observed at observation o (empty when
  /// num_layers() == 1).
  std::vector<std::vector<UpperLayerState>> upper_;
  double tx_amplitude_ = 0.0;  // sqrt of Tx power (linear)
  double noise_power_ = 0.0;   // linear noise floor
  PlanTable plans_;
};

/// Distance between the Tx and Rx endpoints implied by a reflection
/// geometry (both on the same side of the panel).
double TxRxDistance(const mts::LinkGeometry& geometry);

}  // namespace metaai::sim
